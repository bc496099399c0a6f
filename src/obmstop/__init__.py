"""Optimal stopping of the oscillating Brownian motion.

Closed-form/semi-closed-form stopping regions (one-sided thresholds and the
disconnected bubble regime), value-function assembly with excessivity and
majorant verification, an independent grid oracle, exact Monte Carlo via the
skew-Brownian-motion correspondence, and a CLI.
"""

from .core import (
    ConvergenceError,
    Discount,
    DomainError,
    FundamentalPair,
    ObmParams,
    Reward,
    RewardKind,
    SkewParams,
    VerificationError,
    fundamental_pair,
    generator_apply,
    obm_to_sbm,
    sbm_scale,
    sbm_scale_inv,
    sbm_to_obm,
)
from .solver import (
    BubbleSolution,
    Interval,
    Region,
    Regime,
    RegimeTag,
    build_interface_fit,
    find_r0,
    solve_bubble,
    solve_region,
)
from .value import (
    ValueFunctionRep,
    build_check_grid,
    excessivity_check,
    majorant_check,
    verify_solution,
)
from .gridsolve import GridModel, build_chain, extract_region, solve_stopping
from .mc import McConfig, Sampler, estimate_value, obm_step, sbm_step_exact

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Discount",
    "DomainError",
    "FundamentalPair",
    "ObmParams",
    "Reward",
    "RewardKind",
    "SkewParams",
    "VerificationError",
    "fundamental_pair",
    "generator_apply",
    "obm_to_sbm",
    "sbm_scale",
    "sbm_scale_inv",
    "sbm_to_obm",
    "BubbleSolution",
    "Interval",
    "Region",
    "Regime",
    "RegimeTag",
    "build_interface_fit",
    "find_r0",
    "solve_bubble",
    "solve_region",
    "ValueFunctionRep",
    "build_check_grid",
    "excessivity_check",
    "majorant_check",
    "verify_solution",
    "GridModel",
    "build_chain",
    "extract_region",
    "solve_stopping",
    "McConfig",
    "Sampler",
    "estimate_value",
    "obm_step",
    "sbm_step_exact",
    "__version__",
]
