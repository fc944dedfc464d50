"""Log-gamma and a truncated gamma-ratio product.

The gamma ratio Gamma(1-a)*Gamma(x+a)/Gamma(x) admits the product
representation

    prod_{k>=1}  k*(k+x-1) / ((k-a)*(k+x+a-1)),    x > 0, a < 1,

whose log factor k is log(k/(k-a)) + log((k+x-1)/(k+x+a-1)), a sum of
differences of logs of linear terms.  ``run_truncated_log_sum`` sums such
series as a short head of explicit terms plus a tail over k > N in closed
form: Euler-Maclaurin summation (DLMF 2.10) with a certified remainder,
plus an allowance for rounding, and checks each estimate against a second
one at twice the head, all within the fixed limits MAX_TERMS and REL_TOL.
``gamma_ratio_product`` evaluates the product that way and reports the
bound next to the value; ``ln_gamma`` (the standard library's
``math.lgamma``) provides the independent route the product is checked
against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._kernels import gamma_ratio_log

__all__ = [
    "ProductResult",
    "ln_gamma",
    "signed_ln_gamma",
    "gamma_ratio_product",
]


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0, by ``math.lgamma``.

    Raises ValueError for x <= 0 (see :func:`signed_ln_gamma` for the
    negative axis).
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def signed_ln_gamma(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|) for any real x that is not a nonpositive integer.

    On the negative axis Gamma(x) is negative exactly where floor(x) is odd,
    and ``math.lgamma`` already returns log|Gamma(x)|.
    """
    x = float(x)
    if x > 0.0:
        return 1.0, ln_gamma(x)
    if x == math.floor(x):
        raise ValueError(f"Gamma pole at nonpositive integer x = {x}")
    return (-1.0 if math.floor(x) % 2 else 1.0), math.lgamma(x)


@dataclass(frozen=True)
class ProductResult:
    """A truncated product value plus its certified accuracy.

    tail_bound bounds |log(true/value)| (approximately the relative error),
    rounding included.  stop says why the driver stopped: "tolerance",
    "budget" or "doubling-failed"; converged is stop == "tolerance", the
    bound met REL_TOL and the doubling check did not fail.  When it is
    False the value and achieved bound are still valid and returned here
    rather than raised, since downstream comparisons consume them directly.
    """

    value: float
    tail_bound: float
    terms_used: int
    converged: bool = field(init=False)
    stop: str

    def __post_init__(self):
        object.__setattr__(self, "converged", self.stop == "tolerance")


@dataclass(frozen=True)
class _LogSum:
    total: float
    terms: int
    tail_bound: float
    confirmed: bool
    stop: str


EPS = 2.0**-52

# The driver's contract: at most MAX_TERMS explicit terms per series, the
# doubling pass included (even, so that the head stops at MAX_TERMS // 2
# and its second estimate always fits), and a head that stops growing once
# the bound on |log(true/truncated)|, roughly the relative error, meets
# REL_TOL.
MAX_TERMS = 10**6
REL_TOL = 1e-10

# The head the driver sums before its first estimate, and the number of
# Bernoulli corrections in every Euler-Maclaurin tail.
FIRST_HEAD = 32
EM_ORDER = 5

# Rounding allowance: summing N head terms costs at most (N + _ROUNDING_ULPS)
# ulp of the sum of their sizes, and evaluating a tail at most _ROUNDING_ULPS
# ulp of the sum of its pieces' sizes.  The constant covers each term's own
# few-ulp error and the error in the roots the tails are built from.
_ROUNDING_ULPS = 32

# B_2, B_4, ..., B_12, exact.  B_{2j} weighs the j-th Euler-Maclaurin
# correction of a tail for j <= EM_ORDER, and at j = EM_ORDER + 1 the first
# omitted term, which bounds the remainder.
_BERNOULLI = tuple(map(Fraction, ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730")))


def _em_table(divisor) -> tuple[tuple[float, ...], float]:
    """(B_{2j}/divisor(2j) for j = 1..EM_ORDER, |B_{2j}|/divisor(2j) at j = EM_ORDER + 1)."""
    weights = [float(_BERNOULLI[j - 1] / divisor(2 * j)) for j in range(1, EM_ORDER + 2)]
    return tuple(weights[:-1]), abs(weights[-1])


# B_{2j}/((2j)(2j-1)), the weights of d^{2j-1}/dx^{2j-1} log(x+c) = (2j-2)! (x+c)^{1-2j}
_LOG_EM_WEIGHTS, _LOG_EM_REMAINDER = _em_table(lambda m: m * (m - 1))


def rounding_allowance(scale: float) -> float:
    """A bound on the rounding error of a tail whose pieces add up to ``scale`` in size."""
    return _ROUNDING_ULPS * EPS * scale


def log_pair_tail(x0: float, pairs) -> tuple[float, float]:
    """Certified sum over k >= x0 of sum over (u, v, d) in pairs of log((k+u)/(k+v)).

    d is u - v, passed as computed from the series' own formula rather
    than by subtraction; the d must add up to exactly zero, which makes the
    sum converge.  Every x0 + u and x0 + v must be positive.  Euler-Maclaurin
    summation (DLMF 2.10) with EM_ORDER Bernoulli corrections gives the
    value; each log(x+c) has derivatives of alternating sign, so the
    remainder is bounded by the first omitted term.  Returns (value, bound),
    the bound including the rounding of the evaluation.
    """
    value = 0.0
    scale = 0.0
    remainder = 0.0
    for u, v, d in pairs:
        xu = x0 + u
        xv = x0 + v
        # integral over [x0, inf) plus half the first term; the d*log
        # pieces' divergent parts cancel because the d add up to zero
        main = -(xu - 0.5) * math.log1p(d / xv)
        drift = -d * math.log(xv)
        value += main + drift
        scale += abs(main) + abs(drift)
        wu = 1.0 / xu
        wv = 1.0 / xv
        wu2 = wu * wu
        wv2 = wv * wv
        for weight in _LOG_EM_WEIGHTS:
            value -= weight * (wu - wv)
            scale += abs(weight) * (wu + wv)
            wu *= wu2
            wv *= wv2
        remainder += _LOG_EM_REMAINDER * (wu + wv)
    return value, remainder + rounding_allowance(scale)


def run_truncated_log_sum(chunk, tail) -> _LogSum:
    """Sum a convergent series as a computed head plus a certified tail.

    ``chunk(k_lo, k_hi) -> (partial, abs_partial)`` sums the terms
    k_lo..k_hi and the sizes of those terms; ``tail(N) -> (value, bound)``
    is the series' own certified sum over k > N, its bound covering the
    truncation remainder and the tail's rounding.  The head length N starts
    at FIRST_HEAD and doubles until the tail bound plus the head's rounding
    allowance meets REL_TOL, or until it reaches MAX_TERMS // 2, so that a
    second estimate at 2N stays inside MAX_TERMS; the two estimates must
    agree within the sum of their bounds.  The estimate at N is returned;
    terms counts every term summed, and confirmed says whether the two
    estimates agreed.
    """
    budget = MAX_TERMS // 2

    head = abs_head = 0.0
    summed = 0

    def estimate(k: int) -> tuple[float, float]:
        nonlocal head, abs_head, summed
        partial, abs_partial = chunk(summed + 1, k)
        head += partial
        abs_head += abs_partial
        summed = k
        value, bound = tail(k)
        return head + value, bound + (k + _ROUNDING_ULPS) * EPS * abs_head

    k = FIRST_HEAD
    while True:
        total, bound = estimate(k)
        if bound <= REL_TOL:
            stop = "tolerance"
            break
        if k >= budget:
            stop = "budget"
            break
        k = min(2 * k, budget)

    total2, bound2 = estimate(2 * k)
    gap = abs(total2 - total)
    if gap > bound + bound2:
        return _LogSum(total, 2 * k, gap + bound2, False, "doubling-failed")
    return _LogSum(total, 2 * k, bound, True, stop)


def gamma_ratio_product(x: float, a: float) -> ProductResult:
    """Truncated product evaluation of Gamma(1-a)*Gamma(x+a)/Gamma(x).

    Requires x > 0, a < 1, and x+a not a nonpositive integer (a factor
    denominator vanishes there).  The value is negative exactly when an odd
    number of early factors is negative (possible for x+a < 0).  a = 0
    short-circuits to exactly 1: every factor is identically one and a
    product of rounded ones would only accumulate noise.
    """
    x = float(x)
    a = float(a)
    if not x > 0.0:
        raise ValueError(f"gamma_ratio_product requires x > 0, got {x}")
    if not a < 1.0:
        raise ValueError(f"gamma_ratio_product requires a < 1, got {a}")
    s = x + a
    if s <= 0.0 and s == math.floor(s):
        raise ValueError(f"x + a = {s} is a nonpositive integer (gamma pole)")
    if a == 0.0:
        return ProductResult(1.0, 0.0, 0, "tolerance")

    # Factor k is negative exactly while k + x + a - 1 < 0.
    mixed = max(0, math.floor(1.0 - x - a))

    # log factor k = log(k/(k-a)) + log((k+x-1)/(k+x+a-1)); the tail's
    # arguments must stay >= 1, so the head covers k <= 1 - x - a at least.
    pairs = ((0.0, -a, a), (x - 1.0, x + a - 1.0, -a))
    lowest = min(-a, x - 1.0, x + a - 1.0)

    def tail(k: int):
        x0 = k + 1.0
        if x0 + lowest < 1.0:
            return 0.0, math.inf
        return log_pair_tail(x0, pairs)

    out = run_truncated_log_sum(functools.partial(gamma_ratio_log, x, a), tail)
    sign = -1.0 if mixed % 2 else 1.0
    return ProductResult(sign * math.exp(out.total), out.tail_bound, out.terms, out.stop)
