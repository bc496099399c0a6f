"""Command-line interface.

Subcommands: solve, classify, sweep, bubble, oracle, simulate, verify,
figure-data.  Common conventions:

  * model parameters come from --sigma1/--sigma2, or from --beta alone
    (skew-BM mode: the problem is solved for the equivalent OBM, the region
    is reported in both coordinate systems);
  * --config FILE supplies key=value defaults, command-line flags win;
  * --format text|json|csv, --output PATH (relative paths are joined onto
    $OBMSTOP_OUTPUT_DIR when it is set);
  * exit codes: 0 success, 1 usage or domain error, 2 verification failure,
    3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .core import (
    ConvergenceError,
    DomainError,
    ObmParams,
    Reward,
    RewardKind,
    VerificationError,
    sbm_scale_inv,
    sbm_to_obm,
)
from .gridsolve import build_chain, extract_region, solve_stopping
from .mc import McConfig, Sampler, estimate_value
from .solver import (
    Region,
    bubble_window,
    build_interface_fit,
    find_r0,
    solve_bubble,
    solve_region,
)
from .value import ValueFunctionRep, build_check_grid, excessivity_check, verify_solution

_FLOAT_KEYS = {
    "sigma1", "sigma2", "r", "beta", "dt", "h", "xmin", "xmax", "x0",
    "horizon", "r_min", "r_max", "shift",
}
_INT_KEYS = {"paths", "n", "seed", "jobs", "max_iter"}
_STR_KEYS = {"reward", "format", "output", "sampler", "which", "candidate", "method"}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_code_on_error(message))

    def exit_code_on_error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _load_config(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key in _FLOAT_KEYS:
                    out[key] = float(val)
                elif key in _INT_KEYS:
                    out[key] = int(val)
                elif key in _STR_KEYS:
                    out[key] = val
                else:
                    raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return "" if v is None else str(v)


def _resolve_output(path):
    if path is None:
        return None
    base = os.environ.get("OBMSTOP_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(args, report: dict, text_lines: list[str],
          csv_header: list[str], csv_rows: list[list]):
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        body = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(_fmt(v) for v in row))
        body = "\n".join(lines) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    target = _resolve_output(getattr(args, "output", None))
    if target is None:
        sys.stdout.write(body)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(body)


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise DomainError(f"missing --{name.replace('_', '-')}")


def _model_from(args) -> tuple[ObmParams, Reward, bool]:
    """(params, reward, sbm_mode) from the parsed arguments."""
    have_sigma = args.sigma1 is not None or args.sigma2 is not None
    if args.beta is not None and not have_sigma:
        if args.reward not in (None, "linear-skew"):
            raise DomainError("skew-BM mode (--beta without sigmas) uses the "
                              "skewed linear reward; drop --reward")
        return sbm_to_obm(args.beta), Reward.skew_linear(args.beta), True
    if args.sigma1 is None or args.sigma2 is None:
        raise DomainError("need both --sigma1 and --sigma2 (or --beta alone)")
    params = ObmParams(args.sigma1, args.sigma2)
    kind = args.reward or "quad"
    if kind == "quad":
        reward = Reward.quadratic_plus()
    elif kind == "linear":
        reward = Reward.linear_plus()
    elif kind == "linear-skew":
        if args.beta is None:
            raise DomainError("--reward linear-skew needs --beta")
        reward = Reward.skew_linear(args.beta)
    else:
        raise DomainError(f"unknown reward {kind!r}")
    return params, reward, False


def _report(args, result: dict, text_lines: list[str], csv_header: list[str],
            csv_rows: list[list], model: tuple[ObmParams, Reward] | None = None):
    """Emit the report of args.cmd; model adds its (params, reward) block."""
    report = {"command": args.cmd, "version": __version__, "result": result}
    if model is not None:
        params, reward = model
        d = {
            "sigma1": params.sigma1,
            "sigma2": params.sigma2,
            "r": getattr(args, "r", None),
            "reward": reward.kind.value,
            "beta": reward.beta,
        }
        report["params"] = {k: v for k, v in d.items() if v is not None or k == "beta"}
    _emit(args, report, text_lines, csv_header, csv_rows)


def _region_dict(region: Region) -> dict:
    return {
        "components": [
            {"lo": (None if math.isinf(c.lo) else c.lo),
             "hi": (None if math.isinf(c.hi) else c.hi)}
            for c in region
        ],
        "boundaries": region.boundaries(),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    _need(args, "r")
    params, reward, sbm_mode = _model_from(args)
    sol = solve_region(params, args.r, reward)
    checks = verify_solution(sol)
    result = {
        "regime": sol.regime.tag.value,
        "thresholds": sol.regime.thresholds,
        "region": _region_dict(sol.region),
        "k": sol.k,
        "verification": {
            "ok": checks.ok,
            "excessive": checks.excessive.ok,
            "majorant": checks.majorant.ok,
            "smooth_fit_residual": checks.smooth_fit.worst,
            "failures": list(checks.failures),
        },
    }
    text = [
        f"regime: {sol.regime.tag.value}",
        "thresholds: " + ", ".join(f"{k}={_fmt(v)}" for k, v in sol.regime.thresholds.items()),
        f"psi coefficient k = {_fmt(sol.k)}",
    ]
    if sol.bubble is not None:
        result["bubble"] = {
            "a": sol.bubble.a, "b": sol.bubble.b,
            "max_residual": sol.bubble.max_residual,
        }
        text.append(f"bubble coefficients a = {_fmt(sol.bubble.a)}, b = {_fmt(sol.bubble.b)}")
    if sbm_mode:
        beta = reward.beta
        mapped = [float(sbm_scale_inv(beta, b)) for b in sol.region.boundaries()]
        zero_stopped = bool(sol.region.contains(0.0))
        result["sbm"] = {
            "beta": beta,
            "boundaries": mapped,
            "zero_in_stopping_region": zero_stopped,
        }
        text.append("skew-BM boundaries: " + ", ".join(_fmt(b) for b in mapped))
        text.append(f"origin in stopping region: {'yes' if zero_stopped else 'no'}")
    if not checks.ok:
        text.append("verification: FAIL (" + "; ".join(checks.failures) + ")")
    th = sol.regime.thresholds
    header = ["regime", "c", "c1", "c2", "c3", "k", "a", "b"]
    row = [sol.regime.tag.value, th.get("c"), th.get("c1"), th.get("c2"),
           th.get("c3"), sol.k,
           sol.bubble.a if sol.bubble else None,
           sol.bubble.b if sol.bubble else None]
    _report(args, result, text, header, [row], (params, reward))
    return 0 if checks.ok else 2


def cmd_classify(args) -> int:
    _need(args, "r")
    params, reward, _ = _model_from(args)
    sol = solve_region(params, args.r, reward)
    result = {"regime": sol.regime.tag.value, "thresholds": sol.regime.thresholds}
    text = [f"regime: {sol.regime.tag.value}"] + [
        f"  {k} = {_fmt(v)}" for k, v in sol.regime.thresholds.items()
    ]
    header = ["regime"] + list(sol.regime.thresholds)
    _report(args, result, text, header,
            [[sol.regime.tag.value] + list(sol.regime.thresholds.values())],
            (params, reward))
    return 0


def _sweep_one(payload):
    params, reward, r = payload
    sol = solve_region(params, r, reward)
    th = sol.regime.thresholds
    return [r, sol.regime.tag.value, th.get("c"), th.get("c1"), th.get("c2"),
            th.get("c3"), sol.k]


def cmd_sweep(args) -> int:
    _need(args, "r_min", "r_max")
    params, reward, _ = _model_from(args)
    if args.r_min <= 0 or args.r_max <= args.r_min or args.n < 2:
        raise DomainError("need 0 < r-min < r-max and n >= 2")
    rates = np.linspace(args.r_min, args.r_max, args.n)
    payloads = [(params, reward, float(r)) for r in rates]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, payloads))
    else:
        rows = [_sweep_one(p) for p in payloads]
    for row in rows:
        row.append(None)
    # when the swept range crosses the rate where the region first
    # disconnects, mark that rate with its own row
    window = bubble_window(params, reward)
    if window is not None and args.r_min < window.hi and args.r_max > window.lo:
        try:
            r0 = find_r0(params, reward)
        except ConvergenceError as exc:
            print(f"obmstop: warning: critical-rate detection failed: {exc}",
                  file=sys.stderr)
        else:
            if args.r_min < r0 < args.r_max:
                row0 = _sweep_one((params, reward, r0))
                row0.append("r0")
                rows.append(row0)
                rows.sort(key=lambda row: row[0])
    header = ["r", "regime", "c", "c1", "c2", "c3", "k", "note"]
    result = {"rows": [dict(zip(header, row)) for row in rows]}
    text = [f"{_fmt(row[0])}: {row[1]}  " + ", ".join(
        f"{name}={_fmt(val)}" for name, val in zip(header[2:-1], row[2:-1])
        if val is not None) + (f"  [{row[-1]}]" if row[-1] else "")
        for row in rows]
    _report(args, result, text, header, rows, (params, reward))
    return 0


def cmd_bubble(args) -> int:
    params, reward, _ = _model_from(args)
    if args.find_r0:
        r0 = find_r0(params, reward)
        window = bubble_window(params, reward)
        result = {"r0": r0,
                  "window": [window.lo, None if math.isinf(window.hi) else window.hi]}
        _report(args, result, [f"critical rate r0 = {_fmt(r0)}"], ["r0"], [[r0]],
                (params, reward))
        return 0
    if args.r is None:
        raise DomainError("bubble needs --r (or --find-r0)")
    sol = solve_bubble(params, args.r, reward)
    if sol is None:
        _report(args, {"exists": False},
                ["no disconnected solution at this rate (one-sided regime)"],
                ["exists"], [[False]], (params, reward))
        return 0
    result = {
        "exists": True, "c1": sol.c1, "c2": sol.c2, "c3": sol.c3,
        "k": sol.k, "a": sol.a, "b": sol.b, "max_residual": sol.max_residual,
    }
    text = [
        f"c1 = {_fmt(sol.c1)}", f"c2 = {_fmt(sol.c2)}", f"c3 = {_fmt(sol.c3)}",
        f"k = {_fmt(sol.k)}", f"a = {_fmt(sol.a)}", f"b = {_fmt(sol.b)}",
        f"max smooth-fit residual = {sol.max_residual:.3e}",
    ]
    header = ["c1", "c2", "c3", "k", "a", "b", "max_residual"]
    _report(args, result, text, header,
            [[sol.c1, sol.c2, sol.c3, sol.k, sol.a, sol.b, sol.max_residual]],
            (params, reward))
    return 0


def cmd_oracle(args) -> int:
    _need(args, "r")
    params, reward, _ = _model_from(args)
    model = build_chain(params, args.xmin, args.xmax, args.h)
    _v, flags, info = solve_stopping(model, args.r, reward, method=args.method,
                                     max_iter=args.max_iter)
    region = extract_region(model, flags, reward)
    result = {
        "region": _region_dict(region),
        "h": args.h,
        "iterations": info["iterations"],
        "bellman_residual": info["residual"],
    }
    text = [
        f"grid boundaries: " + ", ".join(_fmt(b) for b in region.boundaries()),
        f"{info['method']} iterations: {info['iterations']}, "
        f"Bellman residual {info['residual']:.3e}",
    ]
    if args.compare:
        sol = solve_region(params, args.r, reward)
        analytic = sol.region.boundaries()
        grid_b = region.boundaries()
        diffs = ([abs(a - b) for a, b in zip(analytic, grid_b)]
                 if len(analytic) == len(grid_b) else None)
        result["analytic_boundaries"] = analytic
        result["boundary_errors"] = diffs
        text.append("analytic boundaries: " + ", ".join(_fmt(b) for b in analytic))
        if diffs is None:
            text.append("component count mismatch between grid and analytic region")
        else:
            text.append("errors: " + ", ".join(f"{d:.2e}" for d in diffs))
    # CSV dump is the full chain solution for plotting
    g = reward.value(model.x)
    header = ["x", "g", "V", "stop"]
    rows = [[float(x), float(gv), float(vv), int(fl)]
            for x, gv, vv, fl in zip(model.x, g, _v, flags)]
    _report(args, result, text, header, rows, (params, reward))
    return 0


def cmd_simulate(args) -> int:
    _need(args, "r", "x0")
    params, reward, _ = _model_from(args)
    sol = solve_region(params, args.r, reward)
    region = sol.region
    if args.shift:
        comps = []
        for comp in region:
            lo = comp.lo + args.shift if math.isfinite(comp.lo) else comp.lo
            hi = comp.hi + args.shift if math.isfinite(comp.hi) else comp.hi
            comps.append(type(comp)(lo, hi))
        region = Region(tuple(comps))
    cfg = McConfig(
        dt=args.dt,
        horizon=args.horizon,
        merge_far_steps=not args.no_merge,
        sampler=Sampler.EULER if args.sampler == "euler" else Sampler.EXACT_SBM,
        seed=args.seed,
    )
    res = estimate_value(params, args.r, reward, region, args.x0, args.paths, cfg)
    result = {
        "value": res.value, "stderr": res.stderr, "n_paths": res.n_paths,
        "censored_frac": res.censored_frac, "dt": res.dt,
        "horizon": res.horizon, "seed": res.seed, "shift": args.shift,
    }
    text = [
        f"MC value at x0={_fmt(args.x0)}: {_fmt(res.value)} +- {_fmt(res.stderr)}",
        f"paths: {res.n_paths}, censored fraction: {res.censored_frac:.3g}",
    ]
    if args.compare:
        rep = ValueFunctionRep(sol)
        v = float(rep.value(args.x0))
        result["analytic_value"] = v
        result["abs_error"] = abs(v - res.value)
        text.append(f"closed-form value: {_fmt(v)} (|diff| = {abs(v - res.value):.3e})")
    header = ["value", "stderr", "n_paths", "censored_frac"]
    _report(args, result, text, header,
            [[res.value, res.stderr, res.n_paths, res.censored_frac]], (params, reward))
    return 0


def cmd_verify(args) -> int:
    _need(args, "r")
    params, reward, _ = _model_from(args)
    if args.candidate == "interface-fit":
        if reward.kind is not RewardKind.QUADRATIC_PLUS:
            raise DomainError("the interface-fit candidate is quadratic-reward only")
        cand = build_interface_fit(params, args.r)
        sol = solve_region(params, args.r, reward)
        grid = build_check_grid(sol)
        exc = excessivity_check(params, args.r, cand, grid)
        info = cand.report()
        result = {
            "candidate": "interface-fit", "excessive": exc.ok,
            "A": info["A"], "B": info["B"],
            "representing_derivative_right_of_zero":
                info["representing_derivative_right_of_zero"],
            "detail": exc.detail,
        }
        text = [
            f"interface-fit candidate: A = {_fmt(info['A'])}, B = {_fmt(info['B'])}",
            f"excessivity: {'PASS' if exc.ok else 'FAIL (' + exc.detail + ')'}",
        ]
        _report(args, result, text, ["candidate", "excessive"],
                [["interface-fit", exc.ok]], (params, reward))
        return 0 if exc.ok else 2
    sol = solve_region(params, args.r, reward)
    rep = verify_solution(sol)
    result = {
        "regime": sol.regime.tag.value,
        "ok": rep.ok,
        "checks": {
            "excessive": rep.excessive.ok,
            "majorant": rep.majorant.ok,
            "smooth_fit": rep.smooth_fit.ok,
            "nonnegative": rep.nonnegative.ok,
        },
        "failures": list(rep.failures),
        "worst_monotone_violation": rep.excessive.worst,
        "worst_majorant_violation": rep.majorant.worst,
        "worst_smooth_fit_error": rep.smooth_fit.worst,
    }
    text = [f"regime: {sol.regime.tag.value}"]
    for name, check in (("excessivity", rep.excessive), ("majorant", rep.majorant),
                        ("smooth fit", rep.smooth_fit), ("nonnegativity", rep.nonnegative)):
        text.append(f"{name}: {'PASS' if check.ok else 'FAIL (' + check.detail + ')'}")
    header = ["check", "ok", "worst"]
    rows = [["excessive", rep.excessive.ok, rep.excessive.worst],
            ["majorant", rep.majorant.ok, rep.majorant.worst],
            ["smooth_fit", rep.smooth_fit.ok, rep.smooth_fit.worst],
            ["nonnegative", rep.nonnegative.ok, rep.nonnegative.worst]]
    _report(args, result, text, header, rows, (params, reward))
    return 0 if rep.ok else 2


def cmd_figure_data(args) -> int:
    _need(args, "which")
    which = {"fig1": "stopping-rate", "fig3": "skew-reward"}.get(args.which, args.which)
    if which == "stopping-rate":
        sigma1 = args.sigma1 if args.sigma1 is not None else 1.0
        sigma2 = args.sigma2 if args.sigma2 is not None else 2.0
        r = args.r if args.r is not None else 1.5
        ObmParams(sigma1, sigma2)  # domain validation only
        xs = np.linspace(-2.0, 2.0, args.n)
        # raw sign expression r(1+x)^2 - sigma(x)^2, without the positive
        # part, so the jump at the interface and both sign regions show
        ys = r * (1.0 + xs) ** 2 - np.where(xs < 0.0, sigma1**2, sigma2**2)
        label = "q"
    elif which == "skew-reward":
        beta = args.beta if args.beta is not None else 0.75
        reward = Reward.skew_linear(beta)
        xs = np.linspace(-3.0, 3.0, args.n)
        ys = np.asarray(reward.value(xs), dtype=float)
        label = "g"
    else:
        raise DomainError(f"unknown figure {args.which!r}")
    rows = [[float(x), float(y)] for x, y in zip(xs, ys)]
    result = {"which": which, "columns": ["x", label], "rows": rows}
    text = [f"{_fmt(x)}\t{_fmt(y)}" for x, y in rows]
    _report(args, result, text, ["x", label], rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    model = _Parser(add_help=False)
    model.add_argument("--sigma1", type=float, default=None,
                       help="volatility on the negative half-line")
    model.add_argument("--sigma2", type=float, default=None,
                       help="volatility on the nonnegative half-line")
    model.add_argument("--reward", choices=["quad", "linear", "linear-skew"],
                       default=None, help="reward shape (default quad)")
    model.add_argument("--beta", type=float, default=None,
                       help="skew index; alone (no sigmas) selects skew-BM mode")

    io = _Parser(add_help=False)
    io.add_argument("--format", choices=["text", "json", "csv"], default="text")
    io.add_argument("--output", default=None, help="write to file instead of stdout")
    io.add_argument("--config", default=None, help="key=value defaults file")

    parser = _Parser(prog="obmstop",
                     description="optimal stopping of the oscillating Brownian motion")
    parser.add_argument("--version", action="version", version=f"obmstop {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def _apply_defaults(p: argparse.ArgumentParser):
        # config values land on the subparser so they survive its own parse
        if defaults:
            dests = {a.dest for a in p._actions}
            p.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
        return p

    p = sub.add_parser("solve", parents=[model, io],
                       help="solve for the optimal stopping region")
    p.add_argument("--r", type=float, default=None, help="discount rate")
    p.set_defaults(func=cmd_solve)
    _apply_defaults(p)

    p = sub.add_parser("classify", parents=[model, io],
                       help="regime tag and thresholds only")
    p.add_argument("--r", type=float, default=None)
    p.set_defaults(func=cmd_classify)
    _apply_defaults(p)

    p = sub.add_parser("sweep", parents=[model, io],
                       help="classify a range of rates")
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--n", type=int, default=21)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    _apply_defaults(p)

    p = sub.add_parser("bubble", parents=[model, io],
                       help="disconnected-region boundaries, or the critical rate")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--find-r0", action="store_true",
                   help="find the rate where the region first disconnects")
    p.set_defaults(func=cmd_bubble)
    _apply_defaults(p)

    p = sub.add_parser("oracle", parents=[model, io],
                       help="grid (Markov chain) solution of the same problem")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--xmin", type=float, default=-2.0)
    p.add_argument("--xmax", type=float, default=6.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--method", choices=["policy", "vi"], default="policy")
    p.add_argument("--max-iter", type=int, default=None,
                   help="iteration cap (default scales with the grid)")
    p.add_argument("--compare", action="store_true",
                   help="also solve in closed form and report boundary errors")
    p.set_defaults(func=cmd_oracle)
    _apply_defaults(p)

    p = sub.add_parser("simulate", parents=[model, io],
                       help="Monte Carlo value of the optimal (or shifted) rule")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=["exact", "euler"], default="exact")
    p.add_argument("--no-merge", action="store_true",
                   help="disable far-step merging (slow, for diagnostics)")
    p.add_argument("--shift", type=float, default=0.0,
                   help="shift all boundaries before valuing the rule")
    p.add_argument("--compare", action="store_true",
                   help="also report the closed-form value")
    p.set_defaults(func=cmd_simulate)
    _apply_defaults(p)

    p = sub.add_parser("verify", parents=[model, io],
                       help="independent checks of the assembled value function")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--candidate", choices=["solution", "interface-fit"],
                   default="solution")
    p.set_defaults(func=cmd_verify)
    _apply_defaults(p)

    p = sub.add_parser("figure-data", parents=[model, io],
                       help="data tables behind the standard plots")
    p.add_argument("--which",
                   choices=["stopping-rate", "skew-reward", "fig1", "fig3"],
                   default=None,
                   help="stopping-rate (alias fig1) or skew-reward (alias fig3)")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--n", type=int, default=401)
    p.set_defaults(func=cmd_figure_data)
    _apply_defaults(p)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _rest = pre.parse_known_args(argv)
    try:
        defaults = _load_config(known.config) if known.config else None
        parser = build_parser(defaults)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"obmstop: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"obmstop: error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"obmstop: verification failed: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"obmstop: convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
