"""Run a module as ``__main__`` with the calibration sampler on.

    python3 perfbench/sampled.py MODULE [ARG ...]

behaves as ``python3 -m MODULE ARG ...`` and then writes one more line to
standard error: ``calib.MARK`` and a JSON summary of the kernel samples
taken in this process, from which the caller scales the process's wall
time.  It imports nothing beyond the standard library before the module
runs.
"""

import json
import os
import runpy
import sys
import time

import calib

t0 = time.perf_counter()
calib.SAMPLER.start()
module = sys.argv[1]
del sys.argv[0]
sys.path[0] = os.getcwd()  # as with python -m
try:
    runpy.run_module(module, run_name="__main__", alter_sys=True)
finally:
    calib.SAMPLER.stop()
    summary = calib.SAMPLER.summary(t0, time.perf_counter())
    sys.stderr.write(calib.MARK + json.dumps(summary) + "\n")
