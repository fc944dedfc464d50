"""Log-gamma, two certified Stirling differences and a truncated gamma-ratio product.

Each series the package truncates has factors that are ratios of linear
terms k + c, so its tail over k >= x0 is a signed sum of differences
D(x, h) = ln Gamma(x+h) - ln Gamma(x), and the tail of a series of their
derivatives is one of divided differences (psi(x+h) - psi(x))/h.
``ln_gamma_difference`` and ``digamma_divided_difference`` evaluate those
with certified bounds; the Euler-Maclaurin order, its weights and the
rounding allowance live here alone.  ``run_truncated_log_sum`` sums a
series as one head of N explicit terms plus that tail over k > N, and
confirms that estimate by a second one at 2N, within the fixed limits
MAX_TERMS and REL_TOL; the head is FIRST_HEAD terms unless the caller
names a longer one.  ``gamma_ratio_product`` evaluates

    Gamma(1-a)*Gamma(x+a)/Gamma(x) = prod_{k>=1} k*(k+x-1) / ((k-a)*(k+x+a-1))

that way for x > 0, a < 1; ``ln_gamma`` (the standard library's
``math.lgamma``) provides the independent route it is checked against.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

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


class ProductResult(NamedTuple):
    """A truncated product value plus its certified accuracy.

    tail_bound bounds |log(true/value)| (approximately the relative error),
    rounding included.  stop says how the driver's one head fared:
    "tolerance" when its bound met REL_TOL, "budget" when it did not, and
    "doubling-failed" when the confirming estimate at twice the head
    disagreed with it; converged is stop == "tolerance".  When it is
    False the value and achieved bound are still valid and returned here
    rather than raised, since downstream comparisons consume them directly.
    """

    value: float
    tail_bound: float
    terms_used: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == "tolerance"


class _LogSum(NamedTuple):
    total: float
    terms: int
    tail_bound: float
    stop: str

    @property
    def confirmed(self) -> bool:
        return self.stop != "doubling-failed"


EPS = 2.0**-52

# The driver's contract: a head of at most MAX_TERMS // 2 terms, so that
# with its confirming terms no call sums more than MAX_TERMS, and a result
# that has converged when its bound on |log(true/truncated)|, roughly the
# relative error, meets REL_TOL.
MAX_TERMS = 10**6
REL_TOL = 1e-10

# The head the driver sums unless its caller names a longer one, and the
# number of Bernoulli corrections in both Stirling differences.
FIRST_HEAD = 32
EM_ORDER = 5

# Rounding allowance: summing N head terms costs at most (N + _ROUNDING_ULPS)
# ulp of the sum of their sizes, and evaluating a tail at most _ROUNDING_ULPS
# ulp of the sum of its pieces' sizes.  The constant covers each term's own
# few-ulp error and the error in the roots the tails are built from.
_ROUNDING_ULPS = 32

# B_2, B_4, ..., B_12 as exact (numerator, denominator) pairs.  B_{2j}
# weighs the j-th correction of Stirling's series for ln Gamma and for psi
# for j <= EM_ORDER, and at j = EM_ORDER + 1 the first omitted term, which
# bounds the remainder.  One int / int true division rounds each weight
# correctly.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730))


def _em_table(divisor) -> tuple[tuple[float, ...], float]:
    """(B_{2j}/divisor(2j) for j = 1..EM_ORDER, |B_{2j}|/divisor(2j) at j = EM_ORDER + 1)."""
    weights = [num / (den * divisor(2 * j)) for j, (num, den) in enumerate(_BERNOULLI, 1)]
    return tuple(weights[:-1]), abs(weights[-1])


# B_{2j}/((2j)(2j-1)), the weights of z^(1-2j) in Stirling's series for ln Gamma(z)
_LN_GAMMA_WEIGHTS, _LN_GAMMA_REMAINDER = _em_table(lambda m: m * (m - 1))
# B_{2j}/(2j), the weights of z^(-2j) in Stirling's series for psi(z)
_DIGAMMA_WEIGHTS, _DIGAMMA_REMAINDER = _em_table(lambda m: m)


def ln_gamma_difference(x: float, h: float) -> tuple[float, float]:
    """ln Gamma(x+h) - ln Gamma(x) for x > 0 and x + h > 0, as (value, bound).

    Stirling's series (DLMF 5.11.1) with EM_ORDER corrections, in difference
    form: (x - 1/2) log1p(h/x) + h (log(x+h) - 1) + S(x+h) - S(x), where
    S(z) = sum_j B_{2j}/((2j)(2j-1)) z^(1-2j).  Each remainder has the sign
    of, and is at most, the first omitted term (DLMF 5.11(ii)), so the two
    differ by at most that term at the smaller argument; the bound adds
    the rounding.
    """
    y = x + h
    ix = 1.0 / x
    iy = 1.0 / y
    ix2 = ix * ix
    iy2 = iy * iy
    sx = sy = 0.0
    for weight in reversed(_LN_GAMMA_WEIGHTS):
        sx = sx * ix2 + weight
        sy = sy * iy2 + weight
    sx *= ix
    sy *= iy
    main = (x - 0.5) * math.log1p(h / x)
    log_y = math.log(y)
    scale = abs(main) + abs(h) * (abs(log_y) + 1.0) + abs(sx) + abs(sy)
    remainder = _LN_GAMMA_REMAINDER * (ix if ix > iy else iy) ** (2 * EM_ORDER + 1)
    # the largest piece, h log(x+h), is added last
    return h * log_y + ((main - h) + (sy - sx)), remainder + _ROUNDING_ULPS * EPS * scale


def digamma_divided_difference(x: float, h: float) -> tuple[float, float]:
    """(psi(x+h) - psi(x))/h for x > 0 and x + h > 0, psi'(x) at h = 0, as (value, bound).

    That is sum_{k>=0} 1/((x+k)(x+h+k)), whose summand is completely
    monotone, so Euler-Maclaurin summation (DLMF 2.10) leaves at most the
    first omitted term.  With c_m = (x^-m - (x+h)^-m)/h, a sum of positive
    terms x^(i-m) (x+h)^(-i-1) over i < m however small h, it reads, as
    psi's Stirling series (DLMF 5.11.2) does, log1p(h/x)/h + c_1/2 +
    sum_j B_{2j}/(2j) c_{2j}, the first omitted term in c_{2 EM_ORDER + 2}.
    The bound adds the rounding.
    """
    y = x + h
    ix = 1.0 / x
    iy = 1.0 / y
    u = h / x
    integral = math.log1p(u) / h if u else ix
    c = ix * iy
    value = scale = integral + 0.5 * c
    power = iy
    for weight in _DIGAMMA_WEIGHTS:
        # c_{m+1} = (c_m + y^-(m+1))/x, from c_{2j-1} to c_{2j}, then c_{2j+1}
        power *= iy
        c = ix * (c + power)
        piece = weight * c
        value += piece
        scale += abs(piece)
        power *= iy
        c = ix * (c + power)
    c = ix * (c + power * iy)
    return value, _DIGAMMA_REMAINDER * c + _ROUNDING_ULPS * EPS * scale


def run_truncated_log_sum(terms, tail, head: int = FIRST_HEAD) -> _LogSum:
    """Sum a convergent series as a computed head plus a certified tail.

    ``terms(k_lo, k_hi)`` returns (sum, size): the sum of the terms
    k_lo..k_hi and the sum of their absolute values, each summed from k_hi
    down to k_lo; ``tail(N) -> (value, bound)`` is the series' own
    certified sum over k > N, its bound covering the truncation remainder
    and the tail's rounding.  The head is N = min(head, MAX_TERMS // 2)
    terms, and one confirming estimate at 2N asks only for the terms
    N+1..2N, so each term is evaluated once and no call sums more than
    MAX_TERMS.  Each estimate's bound is its tail bound plus a rounding
    allowance of (N + _ROUNDING_ULPS) ulp of the summed sizes, which covers
    summing the head range by range.  The estimate at N is returned with
    terms = 2N; stop is "tolerance" when its bound meets REL_TOL,
    "budget" when it does not, and "doubling-failed" when the two
    estimates differ by more than the sum of their bounds, the gap then
    counting in the bound.
    """
    n = min(head, MAX_TERMS // 2)
    part, size = terms(1, n)
    more, more_size = terms(n + 1, 2 * n)
    value, bound = tail(n)
    value2, bound2 = tail(2 * n)
    total = part + value
    total2 = (part + more) + value2
    bound += (n + _ROUNDING_ULPS) * EPS * size
    bound2 += (2 * n + _ROUNDING_ULPS) * EPS * (size + more_size)
    gap = abs(total2 - total)
    if gap > bound + bound2:
        return _LogSum(total, 2 * n, gap + bound2, "doubling-failed")
    return _LogSum(total, 2 * n, bound, "tolerance" if bound <= REL_TOL else "budget")


def gamma_ratio_product(x: float, a: float) -> ProductResult:
    """Truncated product evaluation of Gamma(1-a)*Gamma(x+a)/Gamma(x).

    Requires finite x > 0 and a < 1, and x+a not a nonpositive integer (a
    factor denominator vanishes there), else ValueError; so too when a
    factor's denominator k + x + a - 1, rounded as the kernel rounds it, is
    0.  The value is negative exactly when an odd number of early factors
    is negative (possible for x+a < 0).  a = 0 short-circuits to exactly 1:
    every factor is identically one and a product of rounded ones would
    only accumulate noise.
    """
    x = float(x)
    a = float(a)
    if not 0.0 < x < math.inf:
        raise ValueError(f"gamma_ratio_product requires a finite x > 0, got {x}")
    if not -math.inf < a < 1.0:
        raise ValueError(f"gamma_ratio_product requires a finite a < 1, got {a}")
    s = x + a
    if s <= 0.0 and s == math.floor(s):
        raise ValueError(f"x + a = {s} is a nonpositive integer (gamma pole)")
    if a == 0.0:
        return ProductResult(1.0, 0.0, 0, "tolerance")

    # Factor k is negative exactly while k + x + a - 1 < 0.
    mixed = max(0, math.floor(1.0 - x - a))
    # x + a can round off an integer while a denominator, as the kernel
    # rounds it, is exactly 0; that factor is infinite, so refuse it here
    # rather than sum an infinite head.  The rounded k + x + a - 1 is
    # nondecreasing in k, so only the first k in 1..mixed + 1 where it is
    # >= 0 can give 0; bisection finds it.
    ks = range(1, mixed + 2)
    first = bisect.bisect_left(ks, 0.0, key=lambda k: float(k) + x + a - 1.0)
    if first < len(ks) and float(ks[first]) + x + a - 1.0 == 0.0:
        raise ValueError(f"factor {ks[first]}'s denominator k + x + a - 1 rounds to 0 (gamma pole)")

    # the tail's arguments must stay >= 1, so the head covers k <= 1 - x - a at least
    lowest = min(-a, x - 1.0, x + a - 1.0)

    def tail(k: int):
        x0 = k + 1.0
        if x0 + lowest < 1.0:
            return 0.0, math.inf
        upper, upper_bound = ln_gamma_difference(x0 + x - 1.0, a)
        lower, lower_bound = ln_gamma_difference(x0 - a, a)
        return upper - lower, upper_bound + lower_bound

    # one head term per negative factor, then the usual head past them
    out = run_truncated_log_sum(functools.partial(gamma_ratio_log, x, a), tail, FIRST_HEAD + mixed)
    sign = -1.0 if mixed % 2 else 1.0
    return ProductResult(sign * math.exp(out.total), out.tail_bound, out.terms, out.stop)
