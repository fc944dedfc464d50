"""The moment functional f(n, p) of the unit p-ball, by two deterministic routes.

f(n, p) is the mean of <x, y>^2 over independent uniform points x in B_p^n
and y in B_q^n (q the Hoelder conjugate).  Routes implemented here:

* closed form:  f = n * G(3/p)G(3/q)G(1+n/p)G(1+n/q)
                     / [G(1/p)G(1/q)G(1+(n+2)/p)G(1+(n+2)/q)],
  with the exact endpoint value 2n/(3(n+1)(n+2)) at p in {1, inf};

* infinite product:  f = (n/9) * prod_k  g_k(1,t) g_k(n+2,t)
                                        / (g_k(3,t) g_k(n,t)),
  where g_k(m,t) = k^2 + mk + m^2 t and t = 1/(pq) in [0, 1/4].  The
  product telescopes to exact closed forms at t = 0 and t = 1/4.  In
  between, g_k(m,t) = (k + ma)(k + mb) with a = 2t/(1 + sqrt(1-4t)) and
  b = 1 - a, so each log factor is a sum of differences of logs of linear
  terms, and the tail beyond a short head is summed in closed form with a
  certified Euler-Maclaurin remainder, under the driver's fixed limits
  MAX_TERMS and REL_TOL (:mod:`pballs.gamma_core`).

The sign of df/dt is decided by the series of per-factor log derivatives
(``derivative_sign_series``), and the per-term polynomial inequality that
the termwise argument rests on is checked verbatim (``per_term_minimum``).
The paper's claims are judged here and only here, each on the certified
bounds the routes report rather than on a fixed tolerance:
``kuperberg_verdict`` holds f to the conjectured ceiling n/(n+2)^2,
attained at the self-dual point p = 2, up to the value's own error;
``monotone_verdict`` holds f to rising on [1, 2] and falling on [2, inf],
a step counting only beyond the two cells' summed errors;
``routes_agree`` holds the closed form and the product to each other
within their two bounds, on a product bound that met REL_TOL;
``bound_comparator`` orders two products only when their gap exceeds both
tail bounds; ``mc_agrees`` holds a Monte Carlo estimate to a value within
MC_STD_ERRORS standard errors.  The CLI and the verify suites call these
rules on their own grids.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from ._kernels import ineq3_min, moment_product_log, sign_series_sum
from .gamma_core import (
    EM_ORDER,
    EPS,
    ProductResult,
    ln_gamma,
    log_pair_tail,
    rounding_allowance,
    run_truncated_log_sum,
)
from .pball import Exponent, _whole, as_exponent, check_dimension

__all__ = [
    "Sign",
    "MomentResult",
    "SignReport",
    "ComparatorResult",
    "MonotonicityScan",
    "f_endpoint",
    "f_gamma",
    "f_product",
    "routes_agree",
    "gk_ratio_product",
    "derivative_sign_series",
    "per_term_minimum",
    "monotone_verdict",
    "monotonicity_scan",
    "kuperberg_bound",
    "kuperberg_verdict",
    "mc_agrees",
    "bound_comparator",
    "remark_limit_check",
]

# A Monte Carlo estimate agrees with a value within this many standard errors.
MC_STD_ERRORS = 3.0

# The closed form adds ln n and eight ln Gamma values and exponentiates: its
# relative error is a few ulp of the sum of those terms' sizes.
GAMMA_ROUNDING_ULPS = 16.0

# B_{2j}/(2j) for j = 1..EM_ORDER, the Euler-Maclaurin weights of
# G^{(2j-1)}/(2j-1)! in the derivative-sign tail, and |B_12|/12 for the
# first omitted term.
_SIGN_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)
_SIGN_EM_REMAINDER = 691.0 / 32760.0


class Sign(enum.Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


@dataclass(frozen=True)
class MomentResult:
    """A value of f(n, p).

    error_estimate is an absolute bound: 0 for the exact closed forms at
    the endpoints, the rounding bound of the gamma closed form elsewhere,
    value*expm1(log tail bound) for truncated products.  converged is
    False when a truncated product's bound missed REL_TOL; the value and
    bound remain valid.  terms_used counts the factors a truncated product
    summed explicitly.
    """

    value: float
    error_estimate: float
    n: int
    exponent: Exponent
    converged: bool = True
    terms_used: int = 0


@dataclass(frozen=True)
class SignReport:
    """Outcome of the derivative-sign series at one (n, t).

    sign is ZERO when |series_value| <= tail_bound, the certified bound on
    its absolute error: the series cannot then be told from zero.
    """

    series_value: float
    sign: Sign
    terms_used: int
    all_terms_positive: bool
    tail_bound: float


@dataclass(frozen=True)
class ComparatorResult:
    """P(R) vs P(S) for the two-parameter product comparator.

    verdict: the products are ordered as expected and further apart than
    their tail bounds allow either to be off.
    """

    product_r: float
    product_s: float
    expected: str  # "less" on [1,2]^2 regimes, "greater" on [2,inf]^2
    verdict: bool
    tail_bound_r: float
    tail_bound_s: float


@dataclass(frozen=True)
class MonotonicityScan:
    """(exponent, f, error) points on one side of 2 plus the ordering verdict.

    monotone: no step goes the wrong way by more than its two points'
    summed errors.  strict: every step goes the right way by more than
    that sum (never for n = 1, where f is constant).  first_violation is
    the first step (p_a, p_b) that breaks the strongest order the
    dimension claims.
    """

    points: list
    monotone: bool
    strict: bool
    first_violation: tuple | None


def kuperberg_bound(n) -> float:
    """The conjectured ceiling n/(n+2)^2 for f(n, .)."""
    n = check_dimension(n)
    return n / ((n + 2) ** 2)


def f_endpoint(n) -> float:
    """f(n, 1) = f(n, inf) = 2n/(3(n+1)(n+2)), as an exact integer ratio."""
    n = check_dimension(n)
    return (2 * n) / (3 * (n + 1) * (n + 2))


def f_gamma(n, p) -> MomentResult:
    """f(n, p) from the gamma closed form (exact endpoint values at t = 0)."""
    n = check_dimension(n)
    e = as_exponent(p)
    if e.is_endpoint:
        return MomentResult(f_endpoint(n), 0.0, n, e)
    pp, qq = e.p, e.q
    ln_n = math.log(n)
    num = (ln_gamma(3.0 / pp), ln_gamma(3.0 / qq), ln_gamma(1.0 + n / pp), ln_gamma(1.0 + n / qq))
    den = (ln_gamma(1.0 / pp), ln_gamma(1.0 / qq), ln_gamma(1.0 + (n + 2) / pp), ln_gamma(1.0 + (n + 2) / qq))
    log_f = ln_n + num[0] + num[1] + num[2] + num[3] - den[0] - den[1] - den[2] - den[3]
    value = math.exp(log_f)
    scale = 2.0 + abs(ln_n) + sum(abs(v) for v in num + den)
    error = GAMMA_ROUNDING_ULPS * EPS * scale * value
    return MomentResult(value, error, n, e)


def routes_agree(fg: MomentResult, fp: MomentResult) -> bool:
    """Whether the closed form and the product agree within their two bounds.

    The verdict also requires an informative product bound: one that met
    REL_TOL (converged) and lies below the value itself, since a bound as
    large as the value agrees with anything.
    """
    gap = abs(fg.value - fp.value)
    return gap <= fg.error_estimate + fp.error_estimate and fp.converged and fp.error_estimate < fp.value


def _roots(t: float) -> tuple[float, float, float]:
    """(s, a, b) with s = sqrt(1-4t), a = 2t/(1+s), b = 1-a: g_k(m,t) = (k+ma)(k+mb)."""
    s = math.sqrt(1.0 - 4.0 * t)
    a = 2.0 * t / (1.0 + s)
    return s, a, 1.0 - a


def gk_ratio_product(n, tau: float) -> ProductResult:
    """P(tau) = prod_k g_k(1,tau)g_k(n+2,tau)/(g_k(3,tau)g_k(n,tau)).

    Defined for tau in [0, 1/4], where the quadratics have real roots.
    Telescoped exact values at the ends: P(0) = 6/((n+1)(n+2)) and
    P(1/4) = 9/(n+2)^2.  In between, the head of the product is summed
    term by term and the tail in closed form; tail_bound bounds
    |log(true/value)|.
    """
    n = check_dimension(n)
    tau = float(tau)
    if not (0.0 <= tau <= 0.25):
        raise ValueError(f"tau must lie in [0, 1/4], got {tau}")
    if tau == 0.0:
        return ProductResult(6.0 / ((n + 1) * (n + 2)), 0.0, 0, "tolerance")
    if tau == 0.25:
        return ProductResult(9.0 / ((n + 2) ** 2), 0.0, 0, "tolerance")

    _, a, b = _roots(tau)
    # log g_k(1)/g_k(3) and log g_k(n+2)/g_k(n), each root by root
    pairs = (
        (a, 3.0 * a, -2.0 * a),
        (b, 3.0 * b, -2.0 * b),
        ((n + 2) * a, n * a, 2.0 * a),
        ((n + 2) * b, n * b, 2.0 * b),
    )

    def tail(k: int):
        if n == 1:
            return 0.0, 0.0  # {1, 3} = {n, n+2}: every factor is exactly 1
        return log_pair_tail(k + 1.0, pairs)

    out = run_truncated_log_sum(functools.partial(moment_product_log, float(n), tau), tail)
    return ProductResult(math.exp(out.total), out.tail_bound, out.terms, out.stop)


def f_product(n, p) -> MomentResult:
    """f(n, p) from the infinite product over the g_k quadratics.

    At t = 0 and t = 1/4 the telescoped closed forms are returned exactly
    (error_estimate 0).  Otherwise f = (n/9) * gk_ratio_product(n, t), and
    error_estimate is an absolute bound from the certified Euler-Maclaurin
    remainder plus rounding; converged=False flags a bound still above
    REL_TOL at the term budget.
    """
    n = check_dimension(n)
    e = as_exponent(p)
    if e.t == 0.0:
        return MomentResult(f_endpoint(n), 0.0, n, e)
    if e.t == 0.25:
        return MomentResult(n / ((n + 2) ** 2), 0.0, n, e)
    out = gk_ratio_product(n, e.t)
    value = (n / 9.0) * out.value
    error = value * math.expm1(out.tail_bound)
    return MomentResult(value, error, n, e, out.converged, out.terms_used)


def _sign_tail_piece(m: float, s: float, a: float, b: float, x0: float):
    """Euler-Maclaurin sum over k >= x0 of G_m(k) = m^2/((k+ma)(k+mb)).

    Returns (value, remainder bound, size of the pieces).  G_m is completely
    monotone, so the first omitted term bounds the remainder; its
    derivatives are G^(r)(x) = (-1)^r r! m^2 sum_{i=0..r} (x+ma)^(-i-1) (x+mb)^(i-r-1).
    """
    xa = x0 + m * a
    xb = x0 + m * b
    u = m * s / xa
    # integral over [x0, inf): m/s * log1p(u), with log1p(u)/u -> 1 at s = 0
    integral = m * m / xa * (math.log1p(u) / u if u else 1.0)
    # h_r = sum_{i=0..r} xa^-i xb^(i-r), so that G^(r) = (-1)^r r! m^2 h_r/(xa xb)
    pa = 1.0 / xa
    pb = 1.0 / xb
    unit = m * m * pa * pb
    value = integral + 0.5 * unit
    scale = abs(integral) + 0.5 * unit
    h = [1.0]
    pb_r = 1.0
    for _ in range(2 * EM_ORDER + 1):
        pb_r *= pb
        h.append(pa * h[-1] + pb_r)
    for j, weight in enumerate(_SIGN_EM_WEIGHTS):
        piece = weight * unit * h[2 * j + 1]
        value += piece
        scale += abs(piece)
    return value, _SIGN_EM_REMAINDER * unit * h[2 * EM_ORDER + 1], scale


def derivative_sign_series(n, t: float) -> SignReport:
    """Sign of df/dt from the series of per-factor log derivatives.

    Term k is 1/g_k(1) + (n+2)^2/g_k(n+2) - 9/g_k(3) - n^2/g_k(n)
    (as produced by differentiating each log factor in t).  The series is
    identically zero for n = 1 since {1, 3} = {n, n+2} there; for n >= 2
    the sum is positive on (0, 1/4] even though individual terms need not
    be (all_terms_positive reports what was actually observed).  The tail
    beyond the head is the Euler-Maclaurin sum of m^2/((k+ma)(k+mb)), with
    g_k(m,t) = (k+ma)(k+mb); tail_bound bounds the absolute error of
    series_value, and the sign is ZERO when the value lies within it.
    """
    n = check_dimension(n)
    t = float(t)
    if not (0.0 < t <= 0.25):
        raise ValueError(f"t must lie in (0, 1/4], got {t}")

    min_term = math.inf

    def chunk(k_lo: int, k_hi: int):
        nonlocal min_term
        total, abs_total, mn = sign_series_sum(float(n), t, k_lo, k_hi)
        min_term = min(min_term, mn)
        return total, abs_total

    s, a, b = _roots(t)

    def tail(k: int):
        x0 = k + 1.0
        pieces = [_sign_tail_piece(float(m), s, a, b, x0) for m in (1, n, n + 2, 3)]
        (v1, r1, s1), (vn, rn, sn), (vm, rm, sm), (v3, r3, s3) = pieces
        # grouped so that the two differences vanish exactly at n = 1
        value = (v1 - vn) + (vm - v3)
        return value, r1 + rn + rm + r3 + rounding_allowance(s1 + sn + sm + s3)

    out = run_truncated_log_sum(chunk, tail)
    if abs(out.total) <= out.tail_bound:
        sign = Sign.ZERO
    elif out.total > 0.0:
        sign = Sign.POSITIVE
    else:
        sign = Sign.NEGATIVE
    return SignReport(out.total, sign, out.terms, min_term > 0.0, out.tail_bound)


def per_term_minimum(n, t: float, k_max: int):
    """Minimum of the printed per-term polynomial over k = 1..k_max.

    Returns (min_value, argmin_k); positivity on the range holds iff
    min_value > 0.  Failures are for the caller to report, not swallow.
    """
    n = check_dimension(n)
    if n < 2:
        raise ValueError("per-term positivity is stated for n >= 2")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    k_max = _whole(k_max, "k_max")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return ineq3_min(float(n), float(t), 1, k_max)


def monotone_verdict(n, points) -> MonotonicityScan:
    """Judge (exponent, f, error) points against the paper's order on one side of 2.

    The exponents must increase strictly and lie on one side of 2; f must
    rise on [1, 2] and fall on [2, inf], the side read from the exponents.
    error bounds the absolute error of each f, and a step is judged only
    beyond the sum of its two points' errors.  A grid that straddles 2
    raises ValueError.
    """
    n = check_dimension(n)
    ps = [as_exponent(e).p for e, _, _ in points]
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError(f"grid must be strictly increasing, got {ps}")
    rising = all(p <= 2.0 for p in ps)
    if not rising and any(p < 2.0 for p in ps):
        raise ValueError(f"grid {ps} straddles 2; all exponents must lie on one side")
    monotone = True
    strict = n >= 2
    first_violation = None
    for pa, pb, (_, fa, ea), (_, fb, eb) in zip(ps, ps[1:], points, points[1:]):
        # the step in the direction the paper claims; errors up to ea + eb
        # on the two values could fake or hide a step that small
        step = fb - fa if rising else fa - fb
        slack = ea + eb
        if step < -slack:
            monotone = strict = False
        elif n >= 2 and not step > slack:
            strict = False
        else:
            continue
        first_violation = first_violation or (pa, pb)
    return MonotonicityScan(points, monotone, strict, first_violation)


def monotonicity_scan(n, grid) -> MonotonicityScan:
    """Evaluate f along an increasing exponent grid on one side of 2 and judge its order."""
    n = check_dimension(n)
    exps = [as_exponent(p) for p in grid]
    if len(exps) < 2:
        raise ValueError("grid must contain at least two exponents")
    results = [f_gamma(n, e) for e in exps]
    return monotone_verdict(n, [(r.exponent, r.value, r.error_estimate) for r in results])


def kuperberg_verdict(result: MomentResult) -> tuple[bool, float]:
    """Whether a value of f(n, .) respects the ceiling n/(n+2)^2, with the margin.

    Returns (ok, margin): margin = n/(n+2)^2 - value, and ok holds when
    value - error_estimate <= n/(n+2)^2, so a value the ceiling bounds up to
    its own certified error passes (the self-dual point attains equality).
    """
    bound = kuperberg_bound(result.n)
    return result.value - result.error_estimate <= bound, bound - result.value


def mc_agrees(estimate, value: float) -> bool:
    """Whether a Monte Carlo estimate lies within MC_STD_ERRORS standard errors of value."""
    return abs(estimate.mean - value) <= MC_STD_ERRORS * estimate.std_error


def bound_comparator(n, r, s) -> ComparatorResult:
    """Compare P(R) and P(S) for exponent pairs on one side of 2.

    R = (r-1)/r^2 and S = (s-1)/s^2 (0 at infinity).  For
    1 <= r < s <= 2 the parameter increases with the exponent, so the
    expected order is P(R) < P(S); for 2 <= r < s <= inf it decreases and
    the order reverses.  Pairs straddling 2 are rejected.  The verdict
    needs the certified separation: the gap in the expected direction must
    exceed P(R)*expm1(tail_bound_r) + P(S)*expm1(tail_bound_s), the most
    the two values can be off.
    """
    n = check_dimension(n)
    if n < 2:
        raise ValueError("bound_comparator is stated for n >= 2")
    r = float(r)
    s = float(s)
    if not (1.0 <= r < s):
        raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
    if s <= 2.0:
        expected = "less"
    elif r >= 2.0:
        expected = "greater"
    else:
        raise ValueError(f"(r, s) = ({r}, {s}) straddles 2; both must lie on one side")

    p_r = gk_ratio_product(n, as_exponent(r).t)
    p_s = gk_ratio_product(n, as_exponent(s).t)
    gap = p_s.value - p_r.value if expected == "less" else p_r.value - p_s.value
    allowance = p_r.value * math.expm1(p_r.tail_bound) + p_s.value * math.expm1(p_s.tail_bound)
    verdict = gap > allowance
    return ComparatorResult(p_r.value, p_s.value, expected, verdict, p_r.tail_bound, p_s.tail_bound)


def remark_limit_check(n, q_large: float) -> float:
    """Gamma-ratio limit behind continuity of f at the p = 1 endpoint.

    Evaluates G(3/q) G(1+n/q) / [G(1+1/q) G((n+2)/q)]  (equivalently
    n * G(3/q)G(n/q) / [G(1/q)G((n+2)/q)]) at a large finite q; the q->inf
    limit is (n+2)/3, and the deviation decays like 1/q^2.
    """
    n = check_dimension(n)
    q_large = float(q_large)
    if not q_large >= 1e3:
        raise ValueError(f"q_large must be >= 1e3, got {q_large}")
    return math.exp(
        ln_gamma(3.0 / q_large)
        + ln_gamma(1.0 + n / q_large)
        - ln_gamma(1.0 + 1.0 / q_large)
        - ln_gamma((n + 2.0) / q_large)
    )
