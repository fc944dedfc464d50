"""Moment functional of unit p-balls.

Computes f(n, p) — the normalized mean of <x, y>^2 over the unit p-ball
and its polar — by three independent routes (gamma closed form, infinite
product, Monte Carlo) and machine-checks the identities, monotonicity
claims, and the conjectured ceiling n/(n+2)^2 relating them.

The Monte Carlo names (from ``montecarlo``) and the suite names (from
``verify``) load their modules on first use, so importing the package and
the deterministic routes compiles neither.
"""

import importlib

from .gamma_core import (
    ProductResult,
    gamma_ratio_product,
    ln_gamma,
    signed_ln_gamma,
)
from .moments import (
    MomentResult,
    MonotonicityScan,
    Sign,
    SignReport,
    derivative_sign_series,
    f_endpoint,
    f_gamma,
    f_product,
    gk_ratio_product,
    kuperberg_bound,
    remark_limit_check,
)
from .pball import (
    MAX_DIMENSION,
    Exponent,
    as_exponent,
    check_dimension,
    normalized_second_moment,
    second_moment_integral,
    volume,
)

# name -> the submodule that defines it, imported by __getattr__ on first use
_LAZY = {
    **dict.fromkeys(("MCConfig", "MCEstimate", "estimate_f", "estimate_f_factored", "sample_ball"), "montecarlo"),
    **dict.fromkeys(("SUITE_NAMES", "Check", "run_suite"), "verify"),
}

__version__ = "0.1.0"

__all__ = [
    "Check",
    "Exponent",
    "MAX_DIMENSION",
    "MCConfig",
    "MCEstimate",
    "MomentResult",
    "MonotonicityScan",
    "ProductResult",
    "SUITE_NAMES",
    "Sign",
    "SignReport",
    "as_exponent",
    "check_dimension",
    "derivative_sign_series",
    "estimate_f",
    "estimate_f_factored",
    "f_endpoint",
    "f_gamma",
    "f_product",
    "gamma_ratio_product",
    "gk_ratio_product",
    "kuperberg_bound",
    "ln_gamma",
    "normalized_second_moment",
    "remark_limit_check",
    "run_suite",
    "sample_ball",
    "second_moment_integral",
    "signed_ln_gamma",
    "volume",
]


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
