"""Set-up probe: a fresh interpreter imports obmstop and warms one workload up.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON line with
the in-process import times and the summary of the calibration samples
taken in this process.  The caller times the whole process.
"""

import json
import sys
import time

import calib

t0 = time.perf_counter()
calib.SAMPLER.start()
try:
    import obmstop  # noqa: F401

    t_import = time.perf_counter() - t0
    import obmstop.cli  # noqa: F401

    t_cli = time.perf_counter() - t0
    import workloads

    workloads.CLASSES[sys.argv[1]].warm_up()
finally:
    calib.SAMPLER.stop()
t1 = time.perf_counter()
print(json.dumps({"import_s": t_import, "cli_import_s": t_cli, "total_s": t1 - t0,
                  "calibration": calib.SAMPLER.summary(t0, t1)}))
