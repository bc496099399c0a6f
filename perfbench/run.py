"""obmstop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  One closed-loop caller issues operations one at a time, in whole
cycles that fit in about ``--seconds`` seconds, checks every answer and
prints a run-context line, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every time it
reports is scaled to the reference speed of the calibration kernel in
``calib.py``, which samples the machine's speed in the process doing the
work while it works.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs the operations for half the time untraced, then the same operations
again with spans and call counters installed, and reports the per-layer
metrics, the tracing overhead and the known-failure probe among them; the
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
OUTCOMES = ("certified", "check_failed", "typed_error", "untyped_error")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload: str, env: dict) -> dict:
    """Fresh-interpreter import plus warm-up, several times, scaled."""
    scaled, walls, cli_imports = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        seconds, slowness = calib.scaled(wall, probe["calibration"])
        scaled.append(seconds)
        walls.append(wall)
        cli_imports.append(probe["cli_import_s"] / slowness)
    return {"setup_s": statistics.median(scaled), "walls": walls,
            "cli_import_s": statistics.median(cli_imports)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def end_to_end(wl, records, setup) -> tuple[dict, dict]:
    timed = [r for r in records if r.timed]
    short = [r.seconds for r in timed]
    tail = float(np.percentile(short, wl.tail_pct))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": rss_kb / 1024.0,
        "certified_per_s": sum(r.outcome == "certified" for r in timed) / sum(short),
        # latencies are bimodal on certify-sweep (one-sided solves of a few
        # ms, bubble solves of tens), and the median sits on the edge between
        # the modes, so it follows the draw; the geometric mean moves smoothly
        "op_ms_geomean": 1e3 * math.exp(statistics.fmean(math.log(x) for x in short)),
        "op_ms_tail": 1e3 * tail,
    }
    context = {"op_tail_pct": wl.tail_pct,
               "op_tail_beyond": sum(s > tail for s in short),
               "timed_ops": len(short),
               "op_ms_p50": 1e3 * float(np.percentile(short, 50.0)),
               "wall_op_ms_p50": 1e3 * float(np.percentile([r.wall for r in timed], 50.0))}
    return metrics, context


def per_layer(tracer, base, traced, setup, probe) -> dict:
    spans = tracer.spans
    totals = tracer.subtree_counts()
    kinds = {}  # op id -> op kind
    for s in spans:
        if s.parent is None and s.name.startswith("op."):
            kinds[s.op] = s.name[3:]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    child_bubble: dict[int, int] = {}
    for i in by_name.get("solve_bubble", []):
        parent = spans[i].parent
        child_bubble[parent] = child_bubble.get(parent, 0) + 1

    def scaled(i):
        span = spans[i]
        return calib.scaled(span.seconds, calib.SAMPLER.summary(span.start, span.end))[0]

    def dur(name):
        return [scaled(i) for i in by_name.get(name, [])]

    solves = by_name.get("solve_region", [])
    ok_solves = [i for i in solves if "tag" in spans[i].attrs]
    bubbles = [i for i in ok_solves if spans[i].attrs["tag"] == "Bubble"]
    one_sided = [i for i in ok_solves if spans[i].attrs["tag"] != "Bubble"]
    tried = sum(child_bubble.get(i, 0) for i in solves)
    r0s = by_name.get("find_r0", [])
    mcs = by_name.get("estimate_value", [])
    mc_ok = [i for i in mcs if "paths" in spans[i].attrs]
    tail = [scaled(i) for i in mc_ok if kinds.get(spans[i].op) == "mc.tail"]
    bulk = [i for i in mc_ok if kinds.get(spans[i].op) == "mc.bulk"]
    mc_s = sum(scaled(i) for i in mc_ok)

    def count(idxs, *names):
        return _mean([sum(totals[i].get(n, 0) for n in names) for i in idxs])

    grids = [r.info for r in traced if "boundary_err_over_h" in r.info]
    zs = [abs(r.info["z"]) for r in traced if "z" in r.info]
    m = {
        "solver.solve_region.bubble.ms": 1e3 * _median([scaled(i) for i in bubbles]),
        "solver.solve_region.one_sided.ms": 1e3 * _median([scaled(i) for i in one_sided]),
        "solver.threshold_evals": count(solves, "threshold_minus", "threshold_plus"),
        "solver.bubble_hit_ratio": len(bubbles) / tried if tried else 0.0,
        "solver.find_r0.s": _median(dur("find_r0")),
        "solver.find_r0.bubble_solves": _mean([child_bubble.get(i, 0) for i in r0s]),
        "value.verify_solution.ms": 1e3 * _median(dur("verify_solution")),
        "core.fundamental_pair.calls": count(solves, "fundamental_pair"),
        "gridsolve.solve_stopping.s": _median(dur("solve_stopping")),
        "gridsolve.policy_sweeps": _mean([r["policy_sweeps"] for r in grids]),
        "gridsolve.boundary_err_over_h": max((r["boundary_err_over_h"] for r in grids),
                                             default=0.0),
        "mc.estimate_value.s": _median([scaled(i) for i in mc_ok]),
        "mc.tail.s": _median(tail),
        "mc.obm_step.calls": count(mc_ok, "obm_step"),
        "mc.paths_per_s": (sum(spans[i].attrs["paths"] for i in mc_ok) / mc_s
                           if mc_s else 0.0),
        "mc.bulk.paths_per_s": (sum(spans[i].attrs["paths"] for i in bulk)
                                / sum(scaled(i) for i in bulk) if bulk else 0.0),
        "mc.censored_frac": _mean([spans[i].attrs["censored_frac"] for i in mc_ok]),
        "mc.z_score": max(zs, default=0.0),
        "cli.import_s": setup["cli_import_s"],
    }
    from workloads import CliSession

    cli_recs = [r for r in base + traced if r.kind.startswith("cli.")]
    for command in CliSession.COMMANDS:
        m[f"cli.{command}.s"] = _median(
            [r.seconds for r in cli_recs if r.kind == f"cli.{command}"])
    sessions: dict[int, float] = {}  # the untraced phase runs whole cycles
    for r in base:
        if r.kind.startswith("cli."):
            sessions[r.cycle] = sessions.get(r.cycle, 0.0) + r.seconds
    m["cli.session_s"] = _median(list(sessions.values()))
    m["cli.overhead_s"] = _median(
        [r.seconds - r.info["in_process_s"] for r in cli_recs if "in_process_s" in r.info])
    for outcome in OUTCOMES:
        m[f"outcome.{outcome}"] = sum(r.outcome == outcome for r in traced)
    m["outcome.failed_frac"] = 1.0 - m["outcome.certified"] / len(traced)
    m["probe.known_failures"] = sum(r.outcome != "certified" for r in probe)
    for outcome in OUTCOMES[1:]:
        m[f"probe.{outcome}"] = sum(r.outcome == outcome for r in probe)
    base_s = sum(r.seconds for r in base)
    m["trace.overhead_frac"] = sum(r.seconds for r in traced) / base_s - 1.0
    return m


def run_context(args, extra) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "src_py_lines": lines, **extra}


def emit(spec, values, records) -> dict:
    metrics = {}
    for entry in spec:
        metrics[entry["name"]] = {"value": float(values[entry["name"]]),
                                  "unit": entry["unit"]}
    return {"correct": not any(r.wrong for r in records),
            "attempted": len(records),
            "failed": sum(r.outcome != "certified" for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    if not (SRC / "obmstop" / "__init__.py").is_file():
        return fail(f"no obmstop sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import obmstop

    if not Path(obmstop.__file__).resolve().is_relative_to(SRC):
        return fail(f"obmstop imported from {obmstop.__file__}, not from {SRC}")
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    env = child_env()
    setup = measure_setup(args.workload, env)
    wl = workloads.make(args.workload, args.seed, str(ROOT), env)
    with calib.SAMPLER:
        wl.prepare()
        if not args.trace:
            records, _ = workloads.measure(wl.ops(), args.seconds)
        else:
            from spans import Tracer

            base, ops = workloads.measure(wl.ops(), args.seconds / 2.0)
            tracer = Tracer()
            instrument(tracer)
            try:
                records, _ = workloads.measure(ops, tracer=tracer)
            finally:
                tracer.restore()
            # the known failures are not operations of the run: they are a
            # fixed probe whose failure count is a per-layer metric
            probe, _ = workloads.measure(workloads.CertifySweep.known_failures())

    if not args.trace:
        values, extra = end_to_end(wl, records, setup)
        result = emit(spec["end_to_end"], values, records)
    else:
        values = per_layer(tracer, base, records, setup, probe)
        result = emit(spec["per_layer"], values, records)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(span_file)
        extra = {"probe": [f"{r.kind} [{r.label}]: {r.outcome}" for r in probe],
                 "spans": len(tracer.spans),
                 "span_file": str(span_file.relative_to(ROOT))}

    extra["slowness_p50"] = _median([r.slowness for r in records])
    extra["setup_walls_s"] = setup["walls"]
    extra["outcomes"] = {o: sum(r.outcome == o for r in records) for o in OUTCOMES}
    extra["failures"] = [f"{r.kind} [{r.label}]: {r.detail}"
                         for r in records if r.outcome != "certified"][:20]
    print(json.dumps({"context": run_context(args, extra)}))
    print(json.dumps(result))
    return 0


def instrument(tracer):
    """Wrap the public module attributes whose calls the layers are made of."""
    import obmstop
    from obmstop import cli, core, gridsolve, mc, solver, value

    modules = (obmstop, core, solver, value, gridsolve, mc, cli)
    tracer.wrap_span(modules, "solve_region", lambda sol: {"tag": sol.regime.tag.value})
    tracer.wrap_span(modules, "solve_bubble", lambda sol: {"bubble": sol is not None})
    tracer.wrap_span(modules, "find_r0")
    tracer.wrap_span(modules, "verify_solution", lambda rep: {"ok": rep.ok})
    tracer.wrap_span(modules, "build_chain")
    tracer.wrap_span(modules, "solve_stopping",
                     lambda res: {"iterations": res[2]["iterations"]})
    tracer.wrap_span(modules, "extract_region")
    tracer.wrap_span(modules, "estimate_value",
                     lambda res: {"paths": res.n_paths, "censored_frac": res.censored_frac})
    for name in ("threshold_minus", "threshold_plus", "fundamental_pair", "obm_step"):
        tracer.wrap_count(modules, name)


if __name__ == "__main__":
    sys.exit(main())
