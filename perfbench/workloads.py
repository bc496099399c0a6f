"""The benchmark workloads: seeded inputs, timed operations and their gates.

Every operation is a call into the public functions of ``obmstop``; the
benchmark reaches them through module attributes (``solver.solve_region``),
so the traced run's wrappers see the benchmark's own calls.  Each answer is
checked before it counts:

* ``Refused``: the program's own verification rejected its answer;
* ``WrongAnswer``: an independent gate (frozen value, elementary closed
  form, grid oracle, Monte Carlo, CLI contract) disagrees with an answer the
  program presented as good.  Any such answer makes the run incorrect;
* ``NotFinite``: a returned number is NaN or infinite.

Every latency is reported scaled to the reference speed of the
calibration kernel in ``calib.py``, which samples the machine's speed while
the operation runs.  The sampled inputs stay inside the regions where the program
succeeds today, so a run's failure count is 0 unless the program breaks.
The known failures (the skew mode below beta = 1/2, bubble solves at ratios
of 50 and more, ``find_r0`` above a ratio of about 20) are a fixed probe,
``CertifySweep.known_failures``, which the traced run evaluates and counts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from obmstop import cli, core, gridsolve, mc, solver, value

import calib

SAMPLED = str(Path(__file__).resolve().parent / "sampled.py")

QUAD = core.Reward.quadratic_plus()
LIN = core.Reward.linear_plus()
P12 = core.ObmParams(1.0, 2.0)

# frozen anchors: README bubble at (1, 2, r = 3.9) and the critical rate of
# (1, 2) at the library's own R0_TOL
FROZEN_BUBBLE_39 = {"c1": -0.28388512596056714, "c2": -4.120484932962982e-05,
                    "c3": 0.019104054391641666}
FROZEN_R0_12 = 2.2170934316441668
FROZEN_TOL = 1e-9
R0_TOL = 1e-8
ELEMENTARY_TOL = 1e-9
GRID_CELLS = 3.0   # grid boundaries within this many cells of the analytic ones
MC_Z = 4.0         # Monte Carlo within this many standard errors


class Refused(Exception):
    """The program's own verification rejected its answer."""


class WrongAnswer(Exception):
    """An independent gate disagrees with an answer the program certified."""


class NotFinite(Exception):
    """A returned number is NaN or infinite."""


@dataclass
class Op:
    kind: str
    label: str
    cycle: int
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    timed: bool = True  # False: counted and checked, but kept out of the latencies


@dataclass
class Record:
    kind: str
    label: str
    cycle: int
    timed: bool
    seconds: float  # own wall time scaled to the calibration kernel's reference speed
    wall: float
    slowness: float
    outcome: str
    wrong: bool = False
    detail: str = ""
    info: dict = field(default_factory=dict)


def _finite(*values):
    for v in values:
        if v is None or not math.isfinite(float(v)):
            raise NotFinite(f"non-finite value {v!r}")


def _strata(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one per slice [i/n, (i+1)/n), in random order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _log_strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    return np.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * _strata(rng, n))


def _quiet_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


class Workload:
    """A named stream of operations grouped in cycles."""

    name: str
    tail_pct: float

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def warm_up():
        """First calls a user pays after import; run by the set-up probe."""

    def prepare(self):
        """Untimed warm-up and reference answers in the benchmark process."""
        self.warm_up()

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def execute(op, tracer=None):
    """Run, time and check one operation; ``calib.SAMPLER`` must be running."""
    error, wrong, summary = None, False, None
    idx = tracer.open("op." + op.kind) if tracer else None
    t0 = time.perf_counter()
    try:
        result = op.run()
        if isinstance(result, calib.Measured):
            result, summary = result.result, result.summary
    except (core.DomainError, core.ConvergenceError) as exc:
        error = ("typed_error", f"{type(exc).__name__}: {exc}")
    except core.VerificationError as exc:
        error = ("check_failed", f"{type(exc).__name__}: {exc}")
    except WrongAnswer as exc:  # the benchmark's reference is missing
        error = ("check_failed", str(exc))
        wrong = True
    except Exception as exc:  # an untyped failure is a measured outcome
        error = ("untyped_error", f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    if tracer:
        tracer.close(idx)
    seconds, slowness = calib.scaled(t1 - t0, summary or calib.SAMPLER.summary(t0, t1))
    rec = Record(op.kind, op.label, op.cycle, op.timed, seconds, t1 - t0, slowness,
                 "certified", wrong)
    if error is not None:
        rec.outcome, rec.detail = error
        return rec
    if tracer:
        tracer.enabled = False
    try:
        rec.info = op.check(result) or {}
    except Refused as exc:
        rec.outcome, rec.detail = "check_failed", str(exc)
    except WrongAnswer as exc:
        rec.outcome, rec.detail, rec.wrong = "check_failed", str(exc), True
    except NotFinite as exc:
        rec.outcome, rec.detail = "untyped_error", str(exc)
    except Exception as exc:  # the check itself could not judge the answer
        rec.outcome, rec.detail = "untyped_error", f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.enabled = True
    return rec


def measure(ops, seconds=None, tracer=None):
    """Run ops in order.

    Ops of cycle -1 are a prologue that runs before the clock starts.  With
    ``seconds``, start a new cycle only while the mean cycle so far still
    fits in the time left, so every run measures whole cycles (at least
    one).  Returns (records, ops run).
    """
    records, done = [], []
    start = None
    cycle, cycles = None, 0
    for op in ops:
        if start is None and op.cycle >= 0:
            start = time.perf_counter()
        if seconds is not None and op.cycle >= 0 and op.cycle != cycle:
            elapsed = time.perf_counter() - start
            if cycles and elapsed * (cycles + 1) / cycles > seconds:
                break
            cycle = op.cycle
            cycles += 1
        if tracer:
            tracer.op = len(done)
        records.append(execute(op, tracer))
        done.append(op)
    return records, done


# ---------------------------------------------------------------------------
# certify-sweep
# ---------------------------------------------------------------------------


class CertifySweep(Workload):
    """solve_region then verify_solution over the dimensionless space.

    Only sigma2/sigma1, r/sigma1^2, the reward and beta matter, so sigma1 = 1
    outside the skew-BM points (whose beta fixes both volatilities).  A run
    first runs find_r0 once on each volatility pair of a fixed ladder of
    ratios sigma2/sigma1.  Then each cycle walks the ladder, 40 points per
    rung: 16 quadratic points in its bubble window (2 sigma1^2, sigma2^2), 8
    quadratic one-sided points (low rates, high rates, ratios below
    sqrt 2), 6 linear and 10 skew-BM points.  Every coordinate is drawn
    stratified (one draw per equal slice of its range), so each cycle holds
    the same mix of regimes and costs.  The linear points reach ratios of
    100; the ladder stops at 16 and the skew points keep beta above 1/2,
    clear of the known failures (see ``known_failures``).
    """

    name = "certify-sweep"
    tail_pct = 97.0

    # find_r0 fails from a ratio near 20 upward, erratically close to 20, and
    # bubble solves fail at 50, so the rungs stay below that edge.  The rungs
    # are fixed and the seed draws the points: the bisection in find_r0
    # visits different rates at every ratio, and its time would follow the
    # draw rather than the program
    RATIOS = (2.0, 1.6, 3.0, 5.0, 8.0, 12.0, 16.0)
    BETA = (0.55, 0.95)
    # share of the bubble window (2 sigma1^2, sigma2^2) that window points
    # cover: solves fail within about 2e-4 of its upper end at ratio 1.6
    WINDOW = (0.01, 0.99)

    @staticmethod
    def warm_up():
        for params, r, reward in ((P12, 3.9, QUAD), (P12, 1.0, LIN),
                                  (core.sbm_to_obm(0.75), 1.0, core.Reward.skew_linear(0.75))):
            value.verify_solution(solver.solve_region(params, r, reward))

    @classmethod
    def known_failures(cls) -> list[Op]:
        """A fixed grid over the regions where the program fails today.

        Not every point fails: beta < 1/2 fails at some rates only.  The
        traced run counts the failures, which the fixes for these regions
        should bring to 0.
        """
        ops = []
        for rho in (25.0, 30.0):
            params = core.ObmParams(1.0, rho)
            ops.append(Op("probe.r0", f"r0 s2/s1={rho:.6g}", -1,
                          lambda p=params: solver.find_r0(p),
                          lambda r0, p=params: cls._check_r0(p, r0)))
        for beta in (0.1, 0.2, 0.3, 0.4):
            for r in (0.1, 1.0, 3.0):
                params = core.sbm_to_obm(beta)
                ops.append(cls._point(-1, "probe.skew", params,
                                      core.Reward.skew_linear(beta), r))
        ratio50 = core.ObmParams(1.0, 50.0)
        for r in (500.0, 1000.0, 2000.0):
            ops.append(cls._point(-1, "probe.quad.window", ratio50, QUAD, r))
        ratio100 = core.ObmParams(1.0, 100.0)
        ops.append(cls._point(-1, "probe.quad.low", ratio100, QUAD, 0.07))
        ops.append(cls._point(-1, "probe.quad.edge", core.ObmParams(1.0, 1.6), QUAD,
                              2.5598))
        return ops

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        # the prologue: find_r0 once per pair of the ladder, checked and
        # counted but not timed end to end, as 7 calls of about a second
        # give no steady latency; they would also leave room for only one
        # cycle of points in a run
        for rho in self.RATIOS:
            params = core.ObmParams(1.0, rho)
            yield Op("r0", f"r0 s2/s1={rho:.6g}", -1,
                     lambda p=params: solver.find_r0(p),
                     lambda r0, p=params: self._check_r0(p, r0), timed=False)
        yield Op("frozen", "quad s1=1 s2=2 r=3.9", 0,
                 lambda: self._solve(P12, 3.9, QUAD), self._check_frozen)
        for cycle in itertools.count():
            for rho in self.RATIOS:
                params = core.ObmParams(1.0, rho)
                points = self._points(rng, cycle, params)
                for i in rng.permutation(len(points)):
                    yield points[i]

    def _points(self, rng, cycle, params) -> list[Op]:
        rho = params.sigma2
        specs = []
        lo, hi = self.WINDOW
        for u in _strata(rng, 16):      # bubble window of this rung's pair
            specs.append(("quad.window", params, QUAD,
                          2.0 + (rho * rho - 2.0) * (lo + (hi - lo) * u)))
        for r in _log_strata(rng, 4, 0.05, 2.0):  # below the window
            specs.append(("quad.low", params, QUAD, r))
        for u in _strata(rng, 2):       # above the window: elementary threshold
            specs.append(("quad.high", params, QUAD, rho * rho * (1.0 + 3.0 * u)))
        for ratio, r in zip(_log_strata(rng, 2, 0.2, 1.4), _log_strata(rng, 2, 0.05, 20.0)):
            specs.append(("quad.small_ratio", core.ObmParams(1.0, ratio), QUAD, r))
        for ratio, r in zip(_log_strata(rng, 6, 0.2, 100.0), _log_strata(rng, 6, 0.05, 50.0)):
            specs.append(("linear", core.ObmParams(1.0, ratio), LIN, r))
        for u, r in zip(_strata(rng, 10), _log_strata(rng, 10, 0.05, 4.0)):
            beta = self.BETA[0] + (self.BETA[1] - self.BETA[0]) * u
            specs.append(("skew", core.sbm_to_obm(beta), core.Reward.skew_linear(beta), r))
        return [self._point(cycle, *spec) for spec in specs]

    @classmethod
    def _point(cls, cycle, kind, params, reward, r) -> Op:
        label = (f"{reward.kind.value} s1={params.sigma1:.6g} s2={params.sigma2:.6g} "
                 f"r={r:.6g}" + (f" beta={reward.beta:.6g}" if reward.beta else ""))
        return Op(kind, label, cycle,
                  lambda: cls._solve(params, r, reward),
                  lambda res: cls._check_point(params, r, reward, res))

    @staticmethod
    def _solve(params, r, reward):
        sol = solver.solve_region(params, r, reward)
        return sol, value.verify_solution(sol)

    @staticmethod
    def _certified(res) -> Any:
        sol, rep = res
        _finite(sol.k, *sol.regime.thresholds.values())
        if not rep.ok:
            raise Refused("; ".join(rep.failures))
        return sol

    def _check_frozen(self, res) -> dict:
        sol = self._certified(res)
        got = sol.regime.thresholds
        for key, want in FROZEN_BUBBLE_39.items():
            if key not in got or abs(got[key] - want) > FROZEN_TOL:
                raise WrongAnswer(f"bubble at (1, 2, 3.9): {key}={got.get(key)!r}, "
                                  f"frozen {want!r}")
        return {"tag": sol.regime.tag.value}

    @classmethod
    def _check_point(cls, params, r, reward, res) -> dict:
        sol = cls._certified(res)
        tag = sol.regime.tag
        s1, s2 = params.sigma1, params.sigma2
        c = sol.regime.thresholds.get("c")
        if reward.kind is core.RewardKind.QUADRATIC_PLUS:
            window = s2 * s2 > 2.0 * s1 * s1 and 2.0 * s1 * s1 < r < s2 * s2
            if tag is solver.RegimeTag.BUBBLE and not window:
                raise WrongAnswer(f"bubble outside the window at r={r!r}")
            if r >= max(2.0 * s1 * s1, s2 * s2):
                cls._elementary(c, 2.0 * s1 / math.sqrt(2.0 * r) - 1.0)
        elif reward.kind is core.RewardKind.LINEAR_PLUS:
            if 2.0 * r > s1 * s1:
                cls._elementary(c, s1 / math.sqrt(2.0 * r) - 1.0)
        elif reward.beta > 0.5 and sol.region.contains(0.0):
            raise WrongAnswer(f"origin stopped for beta={reward.beta!r} > 1/2")
        return {"tag": tag.value}

    @staticmethod
    def _elementary(c, want):
        if c is None or abs(c - want) > ELEMENTARY_TOL:
            raise WrongAnswer(f"threshold {c!r}, closed form {want!r}")

    @staticmethod
    def _check_r0(params, r0) -> dict:
        _finite(r0)
        lo, hi = 2.0 * params.sigma1 ** 2, params.sigma2 ** 2
        if not lo < r0 < hi:
            raise WrongAnswer(f"r0={r0!r} outside ({lo!r}, {hi!r})")
        if params == P12 and abs(r0 - FROZEN_R0_12) > R0_TOL:
            raise WrongAnswer(f"r0(1, 2)={r0!r}, frozen {FROZEN_R0_12!r}")
        # the region is disconnected just above r0 and connected just below
        try:
            above = solver.solve_region(params, r0 + 1e-3 * (hi - r0), QUAD)
            below = solver.solve_region(params, r0 - 1e-3 * (r0 - lo), QUAD)
        except (core.DomainError, core.ConvergenceError) as exc:
            raise Refused(f"cannot solve next to r0: {exc}") from exc
        if above.regime.tag is not solver.RegimeTag.BUBBLE or below.regime.is_bubble:
            raise WrongAnswer(f"regimes {below.regime.tag.value} / "
                              f"{above.regime.tag.value} around r0={r0!r}")
        return {}


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------


class CrossCheck(Workload):
    """The grid oracle and Monte Carlo against the closed form at (1, 2).

    One cycle: the grid oracle at one bubble rate and one one-sided rate, a
    throughput-bound Monte Carlo (many paths from a point the region reaches
    fast) and a straggler-bound one (few paths; the slowest path sets the
    loop count).  The straggler-bound estimate is the slowest of the four,
    a quarter of the operations, and the 87.5th percentile falls in the
    middle of its group whatever the number of cycles.  The seed jitters the two grid rates.  The Monte Carlo paths are
    the same in every cycle and every run: the time of a straggler-bound
    estimate spreads by about 40% between Monte Carlo seeds, which would
    hide any change to the program.
    """

    name = "cross-check"
    tail_pct = 87.5

    GRID = {"oracle.bubble": 3.9, "oracle.one_sided": 1.0}
    GRID_JITTER = 0.02
    GRID_H = 1e-3
    # the bottom node is killed (V = 0); at xmin = -8 psi(xmin) is below 2e-5
    # at both rates, where the CLI default xmin = -2 shifts the one-sided
    # boundary at r = 1 by 5 cells
    GRID_SPAN = (-8.0, 6.0)
    # (kind, r, x0, paths, Monte Carlo seed)
    MC = (("mc.bulk", 3.9, -0.5, 10000, 1), ("mc.tail", 1.5, 0.7, 20, 4))

    @staticmethod
    def warm_up():
        model = gridsolve.build_chain(P12, -2.0, 6.0, 1e-2)
        _v, flags, _info = gridsolve.solve_stopping(model, 3.9, QUAD)
        gridsolve.extract_region(model, flags, QUAD)
        sol = solver.solve_region(P12, 3.9, QUAD)
        mc.estimate_value(P12, 3.9, QUAD, sol.region, -0.5, 500, mc.McConfig(seed=1))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 2])
        self.rates = {kind: r * (1.0 + rng.uniform(-self.GRID_JITTER, self.GRID_JITTER))
                      for kind, r in self.GRID.items()}
        self.reference = {}

    def prepare(self):
        super().prepare()
        for r in set(self.rates.values()) | {mc_op[1] for mc_op in self.MC}:
            try:
                sol = solver.solve_region(P12, r, QUAD)
                self.reference[r] = sol if value.verify_solution(sol).ok else None
            except (core.DomainError, core.ConvergenceError):
                self.reference[r] = None

    def _closed_form(self, r):
        if self.reference.get(r) is None:
            raise WrongAnswer(f"no verified closed-form solution at r={r!r}")
        return self.reference[r]

    def ops(self):
        for cycle in itertools.count():
            for kind, r in self.rates.items():
                yield Op(kind, f"grid r={r:.6g} h={self.GRID_H}", cycle,
                         lambda r=r: self._oracle(r),
                         lambda res, r=r: self._check_oracle(r, res))
            for kind, r, x0, n, seed in self.MC:
                yield Op(kind, f"mc r={r} x0={x0} paths={n} seed={seed}", cycle,
                         lambda r=r, x0=x0, n=n, s=seed: mc.estimate_value(
                             P12, r, QUAD, self._closed_form(r).region, x0, n,
                             mc.McConfig(seed=s)),
                         lambda res, r=r, x0=x0: self._check_mc(r, x0, res))

    def _oracle(self, r):
        model = gridsolve.build_chain(P12, *self.GRID_SPAN, self.GRID_H)
        _v, flags, info = gridsolve.solve_stopping(model, r, QUAD)
        return gridsolve.extract_region(model, flags, QUAD), info

    def _check_oracle(self, r, res) -> dict:
        region, info = res
        grid_b = region.boundaries()
        exact = self._closed_form(r).region.boundaries()
        _finite(*grid_b)
        if len(grid_b) != len(exact):
            raise WrongAnswer(f"grid boundaries {grid_b} vs analytic {exact}")
        err = max(abs(a - b) for a, b in zip(grid_b, exact)) / self.GRID_H
        if err > GRID_CELLS:
            raise WrongAnswer(f"grid boundary {err:.3g} cells from the analytic one")
        return {"boundary_err_over_h": err, "policy_sweeps": info["iterations"]}

    def _check_mc(self, r, x0, res) -> dict:
        _finite(res.value, res.stderr)
        want = float(value.ValueFunctionRep(self._closed_form(r)).value(x0))
        z = (res.value - want) / res.stderr
        if abs(z) > MC_Z:
            raise WrongAnswer(f"MC {res.value!r} +- {res.stderr!r} vs closed form {want!r}")
        return {"z": z, "paths": res.n_paths, "censored_frac": res.censored_frac}


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


class CliSession(Workload):
    """The README commands, each a fresh ``python -m obmstop.cli`` process.

    One cycle runs the whole script once, one command at a time.  The seed
    draws the rates, the skew index and the simulation seed; the frozen
    anchors keep their README inputs.  Every JSON report must equal the one
    the same command prints in-process, and every exit code must be the
    documented one.
    """

    name = "cli-session"
    # with 9 commands a cycle, the mean of sweep and bubble --find-r0, the
    # two slowest commands, whose inputs are fixed; lower percentiles fall
    # among commands of about equal time whose order follows the seed
    tail_pct = 93.75

    COMMANDS = ("solve", "classify", "sweep", "bubble", "oracle", "verify",
                "figure-data", "simulate")

    def __init__(self, seed: int, root: str, env: dict):
        super().__init__(seed)
        self.root = root
        self.env = env
        self.in_process: dict[tuple, tuple[int, str, float]] = {}
        self.commands = self.script()

    @staticmethod
    def warm_up():
        _quiet_cli(["classify", "--sigma1", "1", "--sigma2", "2", "--r", "1.0",
                    "--format", "json"])

    def prepare(self):
        """The in-process answer to every command of the script, timed."""
        super().prepare()
        for _command, argv, _rc, _gate in self.commands:
            t0 = time.perf_counter()
            rc, out = _quiet_cli(argv)
            t1 = time.perf_counter()
            seconds, _ = calib.scaled(t1 - t0, calib.SAMPLER.summary(t0, t1))
            self.in_process[tuple(argv)] = (rc, out, seconds)

    def script(self) -> list[tuple[str, list[str], int, Callable]]:
        rng = np.random.default_rng([self.seed, 3])

        def f(lo, hi):
            return f"{rng.uniform(lo, hi):.4f}"

        m12 = ["--sigma1", "1", "--sigma2", "2"]
        script = [
            ("solve", ["solve", *m12, "--r", "3.9"], 0, self._gate_frozen),
            ("classify", ["classify", *m12, "--r", f(0.5, 1.5)], 0, None),
            ("sweep", ["sweep", *m12, "--r-min", "1.5", "--r-max", "4.5",
                       "--n", "7"], 0, None),
            ("bubble", ["bubble", *m12, "--find-r0"], 0, self._gate_r0),
            ("oracle", ["oracle", *m12, "--r", "3.9", "--h", "1e-3", "--compare"],
             0, self._gate_oracle),
            ("verify", ["verify", *m12, "--r", f(2.3, 3.9), "--candidate",
                        "interface-fit"], 2, None),
            ("figure-data", ["figure-data", "--which", "stopping-rate", "--n", "401",
                             "--r", f(1.0, 2.0)], 0, None),
            ("simulate", ["simulate", *m12, "--r", "4.5", "--x0", f(-0.7, -0.5),
                          "--paths", "2000", "--seed", str(int(rng.integers(2**31))),
                          "--compare"], 0, self._gate_mc),
            ("solve", ["solve", "--beta", f(0.6, 0.9), "--r", f(0.5, 2.0)], 0, None),
        ]
        return [(c, argv + ["--format", "json"], rc, gate) for c, argv, rc, gate in script]

    def ops(self):
        for cycle in itertools.count():
            for command, argv, rc, gate in self.commands:
                yield Op(f"cli.{command}", " ".join(argv), cycle,
                         lambda a=argv: self._subprocess(a),
                         lambda res, a=argv, rc=rc, g=gate: self._check(a, rc, g, res))

    def _subprocess(self, argv):
        """``python -m obmstop.cli ARGV``, sampling the machine's speed itself."""
        with calib.SAMPLER.paused():
            proc = subprocess.run([sys.executable, SAMPLED, "obmstop.cli", *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=150)
        *stderr, last = proc.stderr.splitlines() or [""]
        if not last.startswith(calib.MARK):
            raise RuntimeError(f"no calibration line from the CLI process: {proc.stderr}")
        return calib.Measured((proc.returncode, proc.stdout),
                              json.loads(last[len(calib.MARK):]))

    def _check(self, argv, want_rc, gate, res) -> dict:
        rc, out = res
        if rc != want_rc:
            raise WrongAnswer(f"exit code {rc}, documented {want_rc}")
        ref_rc, ref_out, in_process_s = self.in_process[tuple(argv)]
        try:
            report = json.loads(out)
        except ValueError as exc:
            raise WrongAnswer(f"report is not JSON: {exc}") from exc
        if rc != ref_rc or report != json.loads(ref_out):
            raise WrongAnswer("JSON report differs from the in-process answer")
        if gate is not None:
            gate(report["result"])
        return {"in_process_s": in_process_s}

    @staticmethod
    def _gate_frozen(result):
        got = result["thresholds"]
        for key, want in FROZEN_BUBBLE_39.items():
            if abs(got[key] - want) > FROZEN_TOL:
                raise WrongAnswer(f"{key}={got[key]!r}, frozen {want!r}")

    @staticmethod
    def _gate_r0(result):
        if abs(result["r0"] - FROZEN_R0_12) > R0_TOL:
            raise WrongAnswer(f"r0={result['r0']!r}, frozen {FROZEN_R0_12!r}")

    @staticmethod
    def _gate_oracle(result):
        errors = result["boundary_errors"]
        if errors is None or max(errors) > GRID_CELLS * result["h"]:
            raise WrongAnswer(f"grid boundary errors {errors}")

    @staticmethod
    def _gate_mc(result):
        if result["abs_error"] > MC_Z * result["stderr"]:
            raise WrongAnswer(f"MC off by {result['abs_error']!r} "
                              f"(stderr {result['stderr']!r})")



NAMES = (CertifySweep.name, CrossCheck.name, CliSession.name)
CLASSES = {cls.name: cls for cls in (CertifySweep, CrossCheck, CliSession)}


def make(name: str, seed: int, root: str, env: dict) -> Workload:
    if name == CliSession.name:
        return CliSession(seed, root, env)
    return CLASSES[name](seed)
