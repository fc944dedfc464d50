"""Named verification suites over the (n, p) identities and bounds.

Every suite returns a list of :class:`Check` records and performs no I/O,
so the CLI and the test suite can share one implementation.  The grids and
the tolerances of the identity checks are fixed here; the paper's claims
(the ceiling, the monotone order, the comparators and Monte Carlo
agreement) are judged by the shared rules in :mod:`pballs.moments`, which
take the routes' results and read the certified bounds they carry (the
comparators by the monotone rule on two product results); the CLI uses the
same rules.  Suites that truncate a series run the driver's one fixed
contract (one head of FIRST_HEAD terms, or more for a gamma ratio with
negative factors, confirmed at twice the head against REL_TOL, all in
:mod:`pballs.gamma_core`) and take no arguments; the Monte Carlo suite takes
one :class:`~pballs.montecarlo.MCConfig` and gives the chunked reducer of
:mod:`pballs.montecarlo` the exponents to draw and the statistics to
reduce; the reducer draws every point, and this module calls no sampler.
A check that reduces its cells to a worst deviation fails, and prints
``nan``, when one of its deviations is NaN or when it judged no cell.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

from .gamma_core import EPS, gamma_ratio_product, signed_ln_gamma
from .moments import (
    GAMMA_ROUNDING_ULPS,
    MC_STD_ERRORS,
    Sign,
    _per_term_polynomial,
    derivative_sign_series,
    f_endpoint,
    f_gamma,
    f_product,
    kuperberg_verdict,
    mc_pull,
    monotone_verdict,
    remark_limit_check,
    routes_agree,
)
from .montecarlo import MCConfig, _inner_square, _stream_means, estimate_f, estimate_f_factored
from .pball import as_exponent, normalized_second_moment, second_moment_integral, volume

__all__ = ["Check", "SUITE_NAMES", "run_suite"]


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name, bool(passed), detail)


def _worst(devs) -> float:
    """The largest deviation; nan, which fails every ``<=`` limit, when there is none or one is nan."""
    devs = list(devs)
    return max(devs) if devs and not any(map(math.isnan, devs)) else math.nan


def _rel_dev(got: float, target: float) -> float:
    return abs(got - target) / target


# --------------------------------------------------------------------------
# grids

# 40 exponents spanning [1, inf], both endpoints included.
BOUND_P_GRID = (
    [1.0]
    + [1.0 + 0.05 * i for i in range(1, 21)]
    + [2.25, 2.5, 2.75, 3.0, 3.5, 4.0, 5.0, 6.5, 8.0, 10.0, 15.0, 20.0, 35.0, 60.0, 100.0]
    + [1e3, 1e4, 1e6]
    + [math.inf]
)

ROUTE_P_GRID = (1.0, 1.1, 1.25, 1.5, 1.75, 2.0)

GAMMA_RATIO_X_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
GAMMA_RATIO_A_GRID = (-0.9, -0.5, 0.0, 0.25, 0.5, 0.9)

SIGN_T_GRID = (0.01, 0.05, 0.1, 0.2, 0.25)
FD_STEP = 1e-5  # half-width of the closed-form difference the derivative signs are held to

COMPARATOR_PAIRS_LOW = (
    (1.0, 2.0), (1.0, 1.5), (1.2, 1.8), (1.5, 2.0), (1.1, 1.3),
    (1.25, 1.75), (1.4, 1.9), (1.6, 2.0), (1.05, 1.95), (1.3, 1.6),
)
COMPARATOR_PAIRS_HIGH = (
    (2.0, 3.0), (2.0, math.inf), (2.5, 4.0), (3.0, 10.0), (2.0, 2.5),
    (4.0, 8.0), (5.0, 100.0), (2.2, 6.0), (3.0, math.inf), (10.0, math.inf),
)

MC_P_GRID = (1.0, 1.4, 2.0, 3.0, math.inf)
SAMPLER_STD_ERRORS = 4.0  # the sampler checks' band, in standard errors of a coordinate mean


def _geomspace(lo: float, hi: float, count: int) -> list[float]:
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    pts = [math.exp(math.log(lo) + step * i) for i in range(count)]
    pts[0], pts[-1] = lo, hi
    return pts


# --------------------------------------------------------------------------
# endpoints

def suite_endpoints() -> list[Check]:
    checks = []

    two = as_exponent(2.0)
    worst = _worst(_rel_dev(f_gamma(n, two).value, n / ((n + 2) ** 2)) for n in range(1, 101))
    checks.append(_check(
        "self-dual-value", worst <= 1e-12,
        f"f(n,2) vs n/(n+2)^2 for n=1..100, worst rel dev {worst:.3g}",
    ))

    ends = (as_exponent(1.0), as_exponent(math.inf))
    # n * E[x1^2] on B_1^n * E[y1^2] on B_inf^n, from the balls' Dirichlet formulas
    targets = {n: n * math.prod(second_moment_integral(n, p) / volume(n, p) for p in ends)
               for n in range(1, 101)}
    worst = _worst(_rel_dev(route(n, p).value, target)
                   for n, target in targets.items() for p in ends for route in (f_gamma, f_product))
    checks.append(_check(
        "endpoint-value", worst <= 1e-12,
        "f(n,1), f(n,inf) by both routes vs n*m(n,1)*m(n,inf), m the ball's mean x1^2, "
        f"for n=1..100, worst rel dev {worst:.3g}",
    ))

    near = as_exponent(1.0 + 1e-6)
    worst = _worst(_rel_dev(f_gamma(n, near).value, f_endpoint(n)) for n in range(1, 21))
    checks.append(_check(
        "endpoint-continuity", worst <= 1e-4,
        f"f(n, 1+1e-6) vs endpoint value for n=1..20, worst rel dev {worst:.3g}",
    ))

    return checks


# --------------------------------------------------------------------------
# routes

def suite_routes() -> list[Check]:
    checks = []

    shares = []
    disagree = 0
    route_grid = [as_exponent(p) for p in ROUTE_P_GRID]
    for n in range(1, 51):
        for p in route_grid:
            fg = f_gamma(n, p)
            fp = f_product(n, p)
            dev = abs(fg.value - fp.value)
            allowed = fg.error_estimate + fp.error_estimate
            shares.append(0.0 if dev == 0.0 else dev / allowed if allowed else math.inf)
            disagree += not routes_agree(fg, fp)
    worst_share = _worst(shares)
    checks.append(_check(
        "route-equivalence", disagree == 0,
        "gamma vs product on n=1..50 x p={1,1.1,1.25,1.5,1.75,2} within the sum of their bounds, "
        f"{disagree} cells disagree, worst dev/allowance {worst_share:.3g}",
    ))

    pairs = [(n, as_exponent(1.025 + 0.0475 * (n - 1))) for n in range(1, 21)]
    worst = _worst(_rel_dev(f_gamma(n, e.conjugate()).value, f_gamma(n, e).value) for n, e in pairs)
    checks.append(_check(
        "conjugate-symmetry", worst <= 1e-12,
        f"f(n,p) vs f(n,q) on 20 pairs with p in (1,2), worst rel dev {worst:.3g}",
    ))

    shares = []
    for x in GAMMA_RATIO_X_GRID:
        for a in GAMMA_RATIO_A_GRID:
            s = x + a
            if s <= 0.0 and s == math.floor(s):
                continue  # gamma pole, excluded by the operation's domain
            if a == 0.0:
                ref_sign, ref_log, ref_size = 1.0, 0.0, 0.0
            else:
                s1, l1 = signed_ln_gamma(1.0 - a)
                s2, l2 = signed_ln_gamma(x + a)
                s3, l3 = signed_ln_gamma(x)
                ref_sign, ref_log, ref_size = s1 * s2 * s3, l1 + l2 - l3, abs(l1) + abs(l2) + abs(l3)
            got = gamma_ratio_product(x, a)
            sign_ok = math.copysign(1.0, got.value) == ref_sign
            dev = abs(math.log(abs(got.value)) - ref_log) if got.value != 0.0 else math.inf
            # the product's bound plus the log-gamma reference's own rounding
            allowed = got.tail_bound + GAMMA_ROUNDING_ULPS * EPS * (1.0 + ref_size)
            shares.append(dev / allowed if sign_ok else math.inf)
    worst_share = _worst(shares)
    checks.append(_check(
        "gamma-ratio-product", worst_share <= 1.0,
        f"product vs log-gamma route on {len(shares)} (x,a) cells, "
        f"worst log-dev/allowance {worst_share:.3g}",
    ))

    return checks


# --------------------------------------------------------------------------
# monotonicity / bound / derivative signs

def _p_of_t(t: float) -> float:
    # root of t*p^2 - p + 1 = 0 in [1, 2], written without cancellation
    return 2.0 / (1.0 + math.sqrt(1.0 - 4.0 * t))


def _fd_derivative_sign(f_cell, n: int, t: float) -> float:
    """Difference of the closed form f_cell across t: central over [t - FD_STEP,
    t + FD_STEP], or backward over [t - 2*FD_STEP, t] where t + FD_STEP would
    pass t = 1/4, beyond which no real exponent exists."""
    if t + FD_STEP <= 0.25:
        lo, hi = t - FD_STEP, t + FD_STEP
    else:
        lo, hi = t - 2.0 * FD_STEP, t
    return f_cell(n, _p_of_t(hi)).value - f_cell(n, _p_of_t(lo)).value


def suite_monotonicity() -> list[Check]:
    checks = []
    exponents, cells = {}, {}

    def f_cell(n: int, p: float):
        # f_gamma(n, p), each exponent built and each (n, p) cell evaluated
        # once: the grids below share exponents and cells
        if p not in exponents:
            exponents[p] = as_exponent(p)
        if (n, p) not in cells:
            cells[n, p] = f_gamma(n, exponents[p])
        return cells[n, p]

    bound_ok = True
    margins = []
    within = 0
    for n in range(1, 101):
        for p in BOUND_P_GRID:
            fg = f_cell(n, p)
            ok, margin = kuperberg_verdict(fg)
            bound_ok &= ok
            margins.append(margin)
            within += abs(margin) <= fg.error_estimate
    checks.append(_check(
        "kuperberg-bound", bound_ok,
        f"f - error <= n/(n+2)^2 on n=1..100 x 40 p-values, {within} cells within the bound's error, "
        f"min margin {-_worst(-m for m in margins):.3g}",
    ))

    inc_grid = BOUND_P_GRID[:21]  # 1 + 0.05*i for i = 0..20
    dec_grid = _geomspace(2.0, 100.0, 20) + [math.inf]
    ok_inc = all(monotone_verdict([f_cell(n, p) for p in inc_grid]).strict for n in range(2, 21))
    ok_dec = all(monotone_verdict([f_cell(n, p) for p in dec_grid]).strict for n in range(2, 21))
    checks.append(_check(
        "monotone-increasing", ok_inc,
        "f strictly increasing on 21-point grid in [1,2] for n=2..20",
    ))
    checks.append(_check(
        "monotone-decreasing", ok_dec,
        "f strictly decreasing on 21-point grid in [2,100]+{inf} for n=2..20",
    ))

    worst = _worst(abs(f_cell(1, p).value - 1.0 / 9.0) * 9.0 for p in (1.0, 1.3, 2.0, 5.0, math.inf))
    checks.append(_check(
        "constant-at-n1", worst <= 1e-12,
        f"f(1,p) = 1/9 across p grid, worst rel dev {worst:.3g}",
    ))

    bad = [(n, t) for n in range(2, 21) for t in SIGN_T_GRID
           if not (derivative_sign_series(n, t).sign == Sign.POSITIVE
                   and _fd_derivative_sign(f_cell, n, t) > 0.0)]
    n1 = derivative_sign_series(1, 0.2)
    checks.append(_check(
        "derivative-sign", not bad and n1.sign is Sign.ZERO,
        "series sign vs closed-form difference for n=2..20, t in {0.01,0.05,0.1,0.2,0.25}"
        + (f", disagreements {bad}" if bad else "")
        + f"; n=1 series value {n1.series_value:.3g}",
    ))

    return checks


# --------------------------------------------------------------------------
# per-term inequality certificate

def suite_ineq3() -> list[Check]:
    # at k = 1+j, n = 2+u every monomial in (j, u, t) is >= 0 on the domain, so
    # nonnegative coefficients and a positive constant prove P >= constant > 0
    poly = _per_term_polynomial()
    smallest, constant = min(poly.values()), poly.get((0, 0, 0), 0)
    return [_check(
        "per-term-positivity", smallest >= 0 and constant > 0,
        "printed per-term polynomial on all real k>=1, n>=2, t>=0, expanded exactly at k=1+j, n=2+u: "
        f"{len(poly)} monomials in (j,u,t), smallest coefficient {smallest}, constant {constant}",
    )]


# --------------------------------------------------------------------------
# limit check

def suite_remark_limit() -> list[Check]:
    worst = _worst(abs(remark_limit_check(n, 1e6) - (n + 2) / 3.0) for n in range(1, 21))
    return [_check(
        "gamma-ratio-limit", worst <= 1e-4,
        f"ratio at q=1e6 vs (n+2)/3 for n=1..20, worst abs dev {worst:.3g}",
    )]


# --------------------------------------------------------------------------
# comparators

def suite_corollaries() -> list[Check]:
    """The comparator corollaries for n in {2, 5, 20}, each distinct (n, p) product evaluated once."""
    checks = []
    for label, pairs in (("forward", COMPARATOR_PAIRS_LOW), ("reversed", COMPARATOR_PAIRS_HIGH)):
        # The corollary for r < s orders P(R) and P(S), R = (r-1)/r^2.  R is the
        # product parameter t = (p-1)/p^2 at p = r and f = (n/9)*P(t), so this is
        # the strict order of the product route's f on one side of 2.
        exps = {p: as_exponent(p) for pair in pairs for p in pair}
        fp = {(n, p): f_product(n, e) for n in (2, 5, 20) for p, e in exps.items()}
        bad = [(n, r, s) for n in (2, 5, 20) for r, s in pairs
               if not monotone_verdict([fp[n, r], fp[n, s]]).strict]
        checks.append(_check(
            f"comparator-{label}", not bad,
            f"10 (r,s) pairs x n in {{2,5,20}}, products ordered by more than their tail bounds"
            + (f"; FAILURES {bad}" if bad else ""),
        ))
    return checks


# --------------------------------------------------------------------------
# Monte Carlo

def suite_mc(config: MCConfig = MCConfig()) -> list[Check]:
    """The Monte Carlo checks at config.samples per cell, each drawn through the
    chunked reducer over config.streams substreams, the i-th cell on seed
    config.seed + i.  Each of the 25 estimator cells draws x at p and y at q
    in one pass and reduces <x, y>^2 for mc-estimate and, for each side z,
    z1^2, z1 and (at n >= 2) z1^2 - z2^2 for the sampler checks, which also
    read the norm of every point drawn."""
    checks = []

    pulls, moment_pulls, exchange_pulls = [], [], []
    norm_maxima = []  # one per side and chunk; statistics may run on several threads
    idx = 0
    for n in range(1, 6):
        for p in MC_P_GRID:
            e = as_exponent(p)
            sides = (e, e.conjugate())

            def statistics(x, y):
                values = [_inner_square(x, y)]
                for z, side in zip((x, y), sides):
                    norms = abs(z).max(axis=1) if math.isinf(side.p) else (abs(z) ** side.p).sum(axis=1)
                    norm_maxima.append(norms.max())
                    sq = z[:, 0] * z[:, 0]
                    # club the two coordinates into one per-sample difference so
                    # their (negative) correlation is priced into the band
                    values += [sq, z[:, 0]] + ([sq - z[:, 1] * z[:, 1]] if n >= 2 else [])
                return tuple(values)

            est, *side_estimates = _stream_means(n, replace(config, seed=config.seed + idx), (), sides, statistics)
            idx += 1
            pulls.append(mc_pull(est.mean - f_gamma(n, e).value, est.std_error))
            if config.samples < 2:
                continue  # a standard error needs two samples
            half = len(side_estimates) // 2
            for side, (sq, z1, *differences) in zip(sides, (side_estimates[:half], side_estimates[half:])):
                target = normalized_second_moment(n, side)
                moment_pulls += [mc_pull(sq.mean - target, sq.std_error), mc_pull(z1.mean, z1.std_error)]
                exchange_pulls += [mc_pull(d.mean, d.std_error) for d in differences]
    worst_pull = _worst(pulls)
    checks.append(_check(
        "mc-estimate", worst_pull <= MC_STD_ERRORS,
        f"estimate_f vs closed form on n=1..5 x p={{1,1.4,2,3,inf}} "
        f"({config.samples} pairs), worst |pull| {worst_pull:.2f} (limit {MC_STD_ERRORS:g})",
    ))

    max_norm = _worst(norm_maxima)
    worst_pull = _worst(moment_pulls)
    worst_exchange = _worst(exchange_pulls)
    checks.append(_check(
        "mc-sampler-moments", worst_pull <= SAMPLER_STD_ERRORS,
        f"E[z1^2] vs closed form and E[z1] vs 0 on both sides of the 25 cells at {SAMPLER_STD_ERRORS:g} s.e., "
        + (f"worst |pull| {worst_pull:.2f}" if moment_pulls else "no pull computed from fewer than 2 samples"),
    ))
    checks.append(_check(
        "mc-membership", max_norm <= 1.0,
        f"all sampled points on both sides of the 25 cells inside the closed ball, max norm {max_norm:.17g}",
    ))
    checks.append(_check(
        "mc-exchangeability", worst_exchange <= SAMPLER_STD_ERRORS,
        f"E[z1^2] vs E[z2^2] on both sides of the 20 cells with n>=2 within combined "
        f"{SAMPLER_STD_ERRORS:g} s.e. bands, worst |pull| {worst_exchange:.2f}",
    ))

    pulls = []
    for n, p in ((2, 1.5), (3, 3.0)):
        direct = estimate_f(n, p, replace(config, seed=config.seed + idx))
        idx += 1
        factored = estimate_f_factored(n, p, replace(config, seed=config.seed + idx))
        idx += 1
        pulls.append(mc_pull(direct.mean - factored.mean, math.hypot(direct.std_error, factored.std_error)))
    worst_pull = _worst(pulls)
    checks.append(_check(
        "mc-estimator-consistency", worst_pull <= MC_STD_ERRORS,
        f"estimate_f vs estimate_f_factored within combined {MC_STD_ERRORS:g} s.e. bands, "
        f"worst |pull| {worst_pull:.2f}",
    ))

    return checks


# --------------------------------------------------------------------------
# dispatch

# name -> suite, in the order 'all' runs them; each entry takes the
# MCConfig and passes it on if its suite samples.  The suites are looked up
# by their module-global names at call time, so that a rebound name (a
# tracing wrapper, say) is the one that runs.
_SUITES = {
    "routes": lambda mc: suite_routes(),
    "endpoints": lambda mc: suite_endpoints(),
    "monotonicity": lambda mc: suite_monotonicity(),
    "ineq3": lambda mc: suite_ineq3(),
    "remark-limit": lambda mc: suite_remark_limit(),
    "corollaries": lambda mc: suite_corollaries(),
    "mc": lambda mc: suite_mc(mc),
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, mc: MCConfig = MCConfig()) -> list[Check]:
    """Run one named suite (or 'all', every suite in order) and return its
    checks; only the 'mc' suite reads mc."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = _SUITES if name == "all" else (name,)
    return [check for suite in names for check in _SUITES[suite](mc)]
