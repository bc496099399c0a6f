"""Quick runs of every workload against the BENCHMARK.json contract.

    python3 -m pytest -q perfbench

Each workload runs for one second (its first cycle), untraced with two
seeds and traced with one.
"""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(ROOT / "src"))
import calib  # noqa: E402
import workloads  # noqa: E402

_runs = {}


def run(workload, seed, trace, cwd=ROOT):
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
             str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300)
    proc = _runs[key]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]


def test_spec_names():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert set(WORKLOADS) == set(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_unit(workload, trace):
    result, context = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, context["failures"]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "src_py_lines"):
        assert key in context
    assert context["seed"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_set(workload):
    def labels(seed):
        wl = workloads.make(workload, seed, str(ROOT), {})
        return [op.label for op in itertools.islice(wl.ops(), 60)]

    assert labels(1) == labels(1)
    assert labels(1) != labels(2)
    first, _ = run(workload, 1, 0)
    second, context = run(workload, 2, 0)
    assert context["seed"] == 2
    assert list(first["metrics"]) == list(second["metrics"])
    assert [m["unit"] for m in first["metrics"].values()] == [
        m["unit"] for m in second["metrics"].values()]


def test_fails_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_scaled_time_takes_handler_out_and_divides_by_slowness():
    summary = {"handler_s": 0.1, "slowness_sum": 4 * 2.0, "samples": 4}
    seconds, slowness = calib.scaled(1.1, summary)
    assert slowness == pytest.approx(2.0)
    assert seconds == pytest.approx(0.5)


def test_sampled_cli_prints_what_the_module_prints():
    argv = ["classify", "--sigma1", "1", "--sigma2", "2", "--r", "1.0", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "obmstop.cli", *argv], cwd=ROOT,
                           env=env, capture_output=True, text=True, timeout=120)
    sampled = subprocess.run([sys.executable, "perfbench/sampled.py", "obmstop.cli", *argv],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert plain.returncode == sampled.returncode == 0
    assert sampled.stdout == plain.stdout
    last = sampled.stderr.splitlines()[-1]
    assert last.startswith("perfbench-calibration ")
    assert json.loads(last.split(" ", 1)[1])["samples"] > 0


def test_known_failures_are_a_probe_not_operations():
    result, context = run(WORKLOADS[0], 1, 1)
    assert len(context["probe"]) == len(workloads.CertifySweep.known_failures())
    assert result["failed"] == 0
    failing = sum(not line.endswith(": certified") for line in context["probe"])
    assert result["metrics"]["probe.known_failures"]["value"] == failing
