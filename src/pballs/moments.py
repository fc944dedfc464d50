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
  terms, and the tail beyond a head of FIRST_HEAD terms is a signed sum
  of ln Gamma differences, the estimate confirmed at twice the head and
  judged against REL_TOL.

The sign of df/dt is decided by the series of per-factor log derivatives
(``derivative_sign_series``), whose tail is the same sum for psi; both tails
call the certified Stirling differences of :mod:`pballs.gamma_core`.  The
per-term polynomial inequality that the termwise argument rests on is
expanded exactly from its printed form (``_per_term_polynomial``): at
k = 1 + j and n = 2 + u every coefficient in (j, u, t) is a nonnegative
integer and the constant is positive, which proves it for every real k >= 1,
n >= 2 and t >= 0.
The paper's claims are judged here and only here, each on the routes'
results and their certified bounds rather than on a fixed tolerance:
``kuperberg_verdict`` holds f to the conjectured ceiling n/(n+2)^2,
attained at the self-dual point p = 2, up to the value's own error;
``monotone_verdict`` holds one dimension's f to rising on [1, 2] and falling
on [2, inf], a step counting only beyond the two cells' summed errors (on
product results, this is also the paper's comparator order of P(R), P(S));
``routes_agree`` holds the closed form and the product to each other within
their two bounds, on a product bound that met REL_TOL; ``mc_agrees`` holds a
Monte Carlo estimate to a value within MC_STD_ERRORS standard errors, its
gap measured by ``mc_pull``, the one pull every Monte Carlo verdict reads.  The
CLI and the verify suites call these rules on their own grids.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

from ._kernels import moment_product_log, sign_series_sum
from .gamma_core import (
    EPS,
    ProductResult,
    digamma_divided_difference,
    ln_gamma,
    ln_gamma_difference,
    run_truncated_log_sum,
)
from .pball import Exponent, _moment_log_terms, as_exponent, check_dimension

__all__ = [
    "Sign",
    "MomentResult",
    "SignReport",
    "MonotonicityScan",
    "f_endpoint",
    "f_gamma",
    "f_product",
    "routes_agree",
    "gk_ratio_product",
    "derivative_sign_series",
    "monotone_verdict",
    "kuperberg_bound",
    "kuperberg_verdict",
    "mc_agrees",
    "mc_pull",
    "remark_limit_check",
]

# A Monte Carlo estimate agrees with a value within this many standard errors.
MC_STD_ERRORS = 3.0

# The closed form adds ln n and eight ln Gamma values and exponentiates: its
# relative error is a few ulp of the sum of those terms' sizes.
GAMMA_ROUNDING_ULPS = 16.0


class Sign(enum.Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


class MomentResult(NamedTuple):
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


class SignReport(NamedTuple):
    """Outcome of the derivative-sign series at one (n, t).

    sign is ZERO when |series_value| <= tail_bound, the certified bound on
    its absolute error: the series cannot then be told from zero.
    terms_used counts the terms summed explicitly.  The sign is the sum's
    alone; single terms can be negative where the sum is positive.
    """

    series_value: float
    sign: Sign
    terms_used: int
    tail_bound: float


class MonotonicityScan(NamedTuple):
    """The ordering verdict on values of f(n, .) on one side of 2.

    monotone: no step goes the wrong way by more than its two values'
    summed errors.  strict: every step goes the right way by more than
    that sum (never for n = 1, where f is constant).  first_violation is
    the first step (p_a, p_b) that breaks the strongest order the
    dimension claims.
    """

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
    """f(n, p) from the gamma closed form (exact endpoint values at t = 0); its four
    n-free ln Gamma terms are computed once per Exponent and kept on it."""
    n = check_dimension(n)
    e = as_exponent(p)
    if e.t == 0.0:
        return MomentResult(f_endpoint(n), 0.0, n, e)
    # f = n * m(n, p) * m(n, q), m the ball's E[x_1^2]; the terms are added
    # p then q, pair by pair, an order the printed values depend on
    ln_n = math.log(n)
    a0, a1, a2, a3 = _moment_log_terms(n, e, 0)
    b0, b1, b2, b3 = _moment_log_terms(n, e, 1)
    log_f = ln_n + a0 + b0 + a1 + b1 + a2 + b2 + a3 + b3
    value = math.exp(log_f)
    scale = 2.0 + abs(ln_n) + (abs(a0) + abs(b0) + abs(a1) + abs(b1) + abs(a2) + abs(b2) + abs(a3) + abs(b3))
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

    Defined for tau in [0, 1/4], where the quadratics have real roots.  The
    head is summed term by term and the tail over k >= x0 as the sum over
    r in {a, b} of D(x0+r, 2r) - D(x0+nr, 2r), D the ln Gamma difference and
    g_k(1, tau) = (k+a)(k+b), exactly 0 at n = 1; also at the ends, where it
    telescopes to P(0) = 6/((n+1)(n+2)) and P(1/4) = 9/(n+2)^2 (f_product
    returns those exactly); tail_bound bounds |log(true/value)|.
    """
    n = check_dimension(n)
    tau = float(tau)
    if not (0.0 <= tau <= 0.25):
        raise ValueError(f"tau must lie in [0, 1/4], got {tau}")

    _, a, b = _roots(tau)

    def tail(k: int):
        if n == 1:
            return 0.0, 0.0  # {1, 3} = {n, n+2}: every factor is exactly 1
        x0 = k + 1.0
        value = bound = 0.0
        for r in (a, b):
            low, low_bound = ln_gamma_difference(x0 + r, 2.0 * r)
            high, high_bound = ln_gamma_difference(x0 + n * r, 2.0 * r)
            value += low - high
            bound += low_bound + high_bound
        return value, bound

    out = run_truncated_log_sum(functools.partial(moment_product_log, float(n), tau), tail)
    return ProductResult(math.exp(out.total), out.tail_bound, out.terms, out.stop)


def f_product(n, p) -> MomentResult:
    """f(n, p) from the infinite product over the g_k quadratics.

    At t = 0 and t = 1/4 the telescoped closed forms are returned exactly
    (error_estimate 0).  Otherwise f = (n/9) * gk_ratio_product(n, t), and
    error_estimate is an absolute bound from the certified Stirling
    remainder of the tail plus rounding; converged=False flags a bound
    above REL_TOL after the driver's one head, or a confirming estimate
    at twice the head that disagreed with it.
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


def derivative_sign_series(n, t: float) -> SignReport:
    """Sign of df/dt from the series of per-factor log derivatives.

    Term k is 1/g_k(1) + (n+2)^2/g_k(n+2) - 9/g_k(3) - n^2/g_k(n)
    (as produced by differentiating each log factor in t).  The series is
    identically zero for n = 1 since {1, 3} = {n, n+2} there; for n >= 2
    the sum is positive on (0, 1/4] even though individual terms need not
    be (the k = 1 term is negative at n = 2, t = 1/4).  With
    g_k(m,t) = (k+ma)(k+mb), the tail over k >= x0 is m^2 (psi(x0+mb) -
    psi(x0+ma))/(mb - ma), added for m in {1, n+2} and taken for m in {3, n};
    tail_bound bounds the absolute error of series_value, and the sign is
    ZERO when the value lies within it.
    """
    n = check_dimension(n)
    t = float(t)
    if not (0.0 < t <= 0.25):
        raise ValueError(f"t must lie in (0, 1/4], got {t}")

    s, a, _ = _roots(t)

    def tail(k: int):
        x0 = k + 1.0
        (v1, e1), (vn, en), (vm, em), (v3, e3) = [
            digamma_divided_difference(x0 + m * a, m * s) for m in (1.0, float(n), n + 2.0, 3.0)
        ]
        # weighted by m^2 and grouped so that the two differences vanish exactly at n = 1
        value = (v1 - n * n * vn) + ((n + 2) ** 2 * vm - 9.0 * v3)
        return value, e1 + n * n * en + (n + 2) ** 2 * em + 9.0 * e3

    out = run_truncated_log_sum(functools.partial(sign_series_sum, float(n), t), tail)
    if abs(out.total) <= out.tail_bound:
        sign = Sign.ZERO
    elif out.total > 0.0:
        sign = Sign.POSITIVE
    else:
        sign = Sign.NEGATIVE
    return SignReport(out.total, sign, out.terms, out.tail_bound)


def _per_term_polynomial() -> dict[tuple[int, int, int], int]:
    """The printed per-term polynomial, expanded exactly at k = 1 + j, n = 2 + u.

    P = n^2*g3*g_{n+2}*(g_n - g1) + g_n*((n+2)^2*g1*g3 - 9*g_{n+2}) with
    g_m = k^2 + m*k + m^2*t, built from those definitions in Python integers.
    Returns the nonzero coefficients, keyed by the exponents (a, b, c) of
    j^a u^b t^c.  If none is negative, P is at least its constant term for
    every real k >= 1, n >= 2 and t >= 0.
    """

    def add(*polys):
        out = {}
        for poly in polys:
            for e, c in poly.items():
                out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def mul(*polys):
        out = {Z: 1}
        for poly in polys:
            prod = {}
            for (a, b, c), x in out.items():
                for (d, e, f), y in poly.items():
                    key = (a + d, b + e, c + f)
                    prod[key] = prod.get(key, 0) + x * y
            out = prod
        return out

    Z = (0, 0, 0)
    k = {Z: 1, (1, 0, 0): 1}  # 1 + j
    n = {Z: 2, (0, 1, 0): 1}  # 2 + u
    t = {(0, 0, 1): 1}
    m = add(n, {Z: 2})
    g1, g3, gn, gm = (add(mul(k, k), mul(c, k), mul(c, c, t)) for c in ({Z: 1}, {Z: 3}, n, m))
    return add(
        mul(n, n, g3, gm, add(gn, mul({Z: -1}, g1))),
        mul(gn, add(mul(m, m, g1, g3), mul({Z: -9}, gm))),
    )


def monotone_verdict(results) -> MonotonicityScan:
    """Judge the results of one dimension against the paper's order on one side of 2.

    The exponents must increase strictly and lie on one side of 2; f must
    rise on [1, 2] and fall on [2, inf], the side read from the exponents.
    A step is judged only beyond its two results' summed error_estimates;
    a step that cannot be compared (a NaN value or error_estimate) counts as
    a violation.
    Results from no dimension or from several, and a grid that straddles 2,
    raise ValueError; a single result is ordered.
    """
    dims = {r.n for r in results}
    if len(dims) != 1:
        raise ValueError(f"results must come from one dimension, got {sorted(dims)}")
    (n,) = dims
    ps = [r.exponent.p for r in results]
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError(f"grid must be strictly increasing, got {ps}")
    rising = all(p <= 2.0 for p in ps)
    if not rising and any(p < 2.0 for p in ps):
        raise ValueError(f"grid {ps} straddles 2; all exponents must lie on one side")
    monotone = True
    strict = n >= 2
    first_violation = None
    for a, b in zip(results, results[1:]):
        # the step in the direction the paper claims; errors up to the two
        # results' summed error_estimates could fake or hide a step that small
        step = b.value - a.value if rising else a.value - b.value
        slack = a.error_estimate + b.error_estimate
        if not step >= -slack:
            monotone = strict = False
        elif n >= 2 and not step > slack:
            strict = False
        else:
            continue
        first_violation = first_violation or (a.exponent.p, b.exponent.p)
    return MonotonicityScan(monotone, strict, first_violation)


def kuperberg_verdict(result: MomentResult) -> tuple[bool, float]:
    """Whether a value of f(n, .) respects the ceiling n/(n+2)^2, with the margin.

    Returns (ok, margin): margin = n/(n+2)^2 - value, and ok holds when
    value - error_estimate <= n/(n+2)^2, so a value the ceiling bounds up to
    its own certified error passes (the self-dual point attains equality).
    """
    bound = kuperberg_bound(result.n)
    return result.value - result.error_estimate <= bound, bound - result.value


def mc_pull(gap: float, std_error: float) -> float:
    """|gap| in standard errors: at zero error 0 for no gap and inf otherwise; nan for a nan error."""
    if std_error == 0.0:
        return math.inf if gap else 0.0
    return abs(gap) / std_error


def mc_agrees(estimate, value: float) -> bool:
    """Whether a Monte Carlo estimate lies within MC_STD_ERRORS standard errors of value."""
    return mc_pull(estimate.mean - value, estimate.std_error) <= MC_STD_ERRORS


def remark_limit_check(n, q_large: float) -> float:
    """Gamma-ratio limit behind continuity of f at the p = 1 endpoint.

    Evaluates G(3/q) G(1+n/q) / [G(1+1/q) G((n+2)/q)]  (equivalently
    n * G(3/q)G(n/q) / [G(1/q)G((n+2)/q)]) at a large finite q; the q->inf
    limit is (n+2)/3, and the deviation decays like 1/q^2.
    """
    n = check_dimension(n)
    q_large = float(q_large)
    if not 1e3 <= q_large < math.inf:
        raise ValueError(f"q_large must be finite and >= 1e3, got {q_large}")
    return math.exp(
        ln_gamma(3.0 / q_large)
        + ln_gamma(1.0 + n / q_large)
        - ln_gamma(1.0 + 1.0 / q_large)
        - ln_gamma((n + 2.0) / q_large)
    )
