"""Every name a module exports through __all__ resolves, importing the CLI
stays light, and the benchmark's instrumentation finds every name it wraps."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import obmstop

MODULES = ["obmstop"] + [
    f"obmstop.{info.name}" for info in pkgutil.iter_modules(obmstop.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes about 0.5 s to import and the package needs none of it
    src = str(Path(obmstop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, obmstop.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_benchmark_instrumentation_binds_every_name(monkeypatch):
    # the traced benchmark run wraps package functions by module attribute,
    # so deleting or renaming one of them must fail here, not only there
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    from obmstop import solver

    original = solver.solve_region
    tracer = spans.Tracer()
    try:
        run.instrument(tracer)
        assert solver.solve_region is not original
    finally:
        tracer.restore()
    assert solver.solve_region is original
