"""Geometry of the unit p-ball: conjugate exponents, volume, second moment.

Volume follows Dirichlet's formula |B_p^n| = [2*Gamma(1+1/p)]^n / Gamma(1+n/p);
the coordinate second moment integral over the ball reduces by a beta-integral
substitution to (2/p) * |B_p^{n-1}| * Gamma(3/p)*Gamma(1+(n-1)/p)/Gamma(1+(n+2)/p).
Both are evaluated in log space and exponentiated once, with the p = 1 and
p = inf endpoints hard-coded as exact closed forms.  A value beyond the
float range is inf, as one below it is 0.0.
"""

from __future__ import annotations

import math

from .gamma_core import ln_gamma

__all__ = [
    "MAX_DIMENSION",
    "Exponent",
    "as_exponent",
    "check_dimension",
    "volume",
    "second_moment_integral",
    "normalized_second_moment",
]

MAX_DIMENSION = 10**6

_LN2 = math.log(2.0)

# Below p = 1 + 1e-12 the parameter t = (p-1)/p^2 has no float precision
# left, and the endpoint closed forms are exact; snap to p = 1.
_SNAP_WIDTH = 1e-12

# Largest n for which the exact integer-ratio endpoint formulas are used;
# beyond it p = 1 takes the general log-space route, whose results
# underflow to 0.0 there anyway.
_EXACT_FACTORIAL_LIMIT = 300


class Exponent:
    """A norm exponent p in [1, inf] with its Hoelder conjugate and product parameter.

    Carries the triple (p, q, t): 1/p + 1/q = 1 under the convention
    1/inf = 0, and t = 1/(p*q) = (p-1)/p^2 in [0, 1/4].  ``conjugate``
    swaps the stored pair, so conjugation is an exact involution and t is
    exactly conjugation-invariant.
    """

    __slots__ = ("p", "q", "t")

    def __init__(self, p: float):
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise ValueError(f"exponent must lie in [1, inf], got {p}")
        if p < 1.0 + _SNAP_WIDTH:
            p = 1.0
        if math.isinf(p):
            q, t = 1.0, 0.0
        elif p == 1.0:
            q, t = math.inf, 0.0
        else:
            q = p / (p - 1.0)
            t = (p - 1.0) / (p * p)
        self.p = p
        self.q = q
        self.t = t

    def conjugate(self) -> "Exponent":
        other = object.__new__(Exponent)
        other.p = self.q
        other.q = self.p
        other.t = self.t
        return other

    @property
    def is_endpoint(self) -> bool:
        """True at p in {1, inf}, where t = 0."""
        return self.t == 0.0

    def __repr__(self) -> str:
        return f"Exponent(p={self.p!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash((Exponent, self.p))


def as_exponent(p) -> Exponent:
    """Coerce a float, int, numeric string such as 'inf', or Exponent to an Exponent."""
    return p if isinstance(p, Exponent) else Exponent(p)


def _whole(x, what: str) -> int:
    """x as an int; ValueError unless x is a whole number, which inf and nan are not."""
    try:
        if x == int(x):
            return int(x)
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def check_dimension(n) -> int:
    """Validate a dimension: integer with 1 <= n <= MAX_DIMENSION."""
    n = _whole(n, "dimension")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIMENSION}")
    return n


def _inf_on_overflow(fn, *args) -> float:
    """math.exp or math.ldexp, with inf where they raise on overflow (they give 0.0 on underflow)."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _ln_volume(n: int, p: float) -> float:
    """log |B_p^n| for finite p >= 1 and n >= 0 (n = 0 gives log 1 = 0)."""
    return n * (_LN2 + ln_gamma(1.0 + 1.0 / p)) - ln_gamma(1.0 + n / p)


def volume(n, p) -> float:
    """Volume of the unit p-ball in R^n.

    Exact endpoint values: 2^n at p = inf and 2^n/n! at p = 1 (correctly
    rounded integer ratio up to n = 300, the general log-space route beyond).
    """
    n = check_dimension(n)
    e = as_exponent(p)
    if math.isinf(e.p):
        return _inf_on_overflow(math.ldexp, 1.0, n)
    if e.p == 1.0 and n <= _EXACT_FACTORIAL_LIMIT:
        return (2**n) / math.factorial(n)
    return _inf_on_overflow(math.exp, _ln_volume(n, e.p))


def second_moment_integral(n, p) -> float:
    """Integral of x_1^2 over the unit p-ball in R^n.

    Exact endpoint values: 2^n/3 at p = inf and 2^{n+1}/(n+2)! at p = 1.
    """
    n = check_dimension(n)
    e = as_exponent(p)
    if math.isinf(e.p):
        return _inf_on_overflow(math.ldexp, 1.0 / 3.0, n)
    if e.p == 1.0 and n <= _EXACT_FACTORIAL_LIMIT:
        return (2 ** (n + 1)) / math.factorial(n + 2)
    pp = e.p
    ln_phi = (
        math.log(2.0 / pp)
        + _ln_volume(n - 1, pp)
        + ln_gamma(3.0 / pp)
        + ln_gamma(1.0 + (n - 1) / pp)
        - ln_gamma(1.0 + (n + 2) / pp)
    )
    return _inf_on_overflow(math.exp, ln_phi)


def normalized_second_moment(n, p) -> float:
    """Mean of x_1^2 under the uniform law on the unit p-ball; lies in (0, 1/3]."""
    n = check_dimension(n)
    e = as_exponent(p)
    if math.isinf(e.p):
        return 1.0 / 3.0
    if e.p == 1.0:
        return 2.0 / ((n + 1) * (n + 2))
    pp = e.p
    ln_ratio = (
        math.log(2.0 / pp)
        + _ln_volume(n - 1, pp)
        - _ln_volume(n, pp)
        + ln_gamma(3.0 / pp)
        + ln_gamma(1.0 + (n - 1) / pp)
        - ln_gamma(1.0 + (n + 2) / pp)
    )
    return math.exp(ln_ratio)
