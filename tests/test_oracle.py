"""The truncated series against 40-digit mpmath references.

f_product sums a short head of factors and the tail in closed form; these
tests hold the result, its certified bound and its term count against the
loggamma closed form over the whole documented domain, 1 <= n <= 10^6 and
p in [1, inf], with the draws biased toward the awkward corners.  The
same draws hold the endpoint values to their exact closed form and the
CLI's exit status to the verdicts it prints.  The two Stirling differences
every tail is made of are held to mpmath on their own, and a perturbed
difference must fail the checks of the series built on it.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pballs import moments
from pballs.cli import CSV_HEADER, main
from pballs.gamma_core import FIRST_HEAD, digamma_divided_difference, gamma_ratio_product, ln_gamma_difference
from pballs.moments import Sign, derivative_sign_series, f_endpoint, f_gamma, f_product, kuperberg_verdict, routes_agree
from pballs.pball import Exponent

EPS = 2.0**-52
DIGITS = 40


def f_reference(n: int, p: float):
    """f(n, p) to 40 digits at the caller's p, with no use of the library's Exponent.

    Only p = 1 and p = inf are endpoints, where f is the exact value
    2n/(3(n+1)(n+2)); every other p is evaluated at its own conjugate.
    """
    with mpmath.workdps(DIGITS):
        if p == 1.0 or math.isinf(p):
            return mpmath.mpf(2 * n) / (3 * (n + 1) * (n + 2))
        pp = mpmath.mpf(p)
        qq = pp / (pp - 1)
        nn = mpmath.mpf(n)
        lg = mpmath.loggamma
        return mpmath.exp(
            mpmath.log(nn) + lg(3 / pp) + lg(3 / qq) + lg(1 + nn / pp) + lg(1 + nn / qq)
            - lg(1 / pp) - lg(1 / qq) - lg(1 + (nn + 2) / pp) - lg(1 + (nn + 2) / qq)
        )


dimensions = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=20),
    st.sampled_from([1, 2, 3, 1000, 10**5, 10**6]),
)

exponents = st.one_of(
    st.floats(min_value=1.0, max_value=1e20),
    st.floats(min_value=1.0, max_value=1.0 + 1e-9),
    st.floats(min_value=1.0 + 0.5e-12, max_value=1.0 + 2e-12),
    st.floats(min_value=2.0 - 1e-9, max_value=2.0 + 1e-9),
    st.floats(min_value=1e16, max_value=1e18),
    st.sampled_from([1.0, 1.0 + 1e-12, 2.0, 2.0 - 1e-9, 2.0 + 1e-9, 1e17, math.inf]),
)


def product_within_bound(fp, ref) -> bool:
    """Whether a product result lies within its error_estimate of the reference, plus 16 ulp."""
    return float(abs(mpmath.mpf(fp.value) - ref)) <= fp.error_estimate + 16.0 * EPS * float(ref)


@given(dimensions, exponents)
@settings(max_examples=300, deadline=None)
def test_f_product_against_loggamma_reference(n, p):
    fp = f_product(n, p)
    assert product_within_bound(fp, f_reference(n, p))
    assert fp.converged
    assert fp.terms_used <= 256


@given(dimensions, exponents)
@settings(max_examples=200, deadline=None)
def test_closed_form_bound_and_route_agreement(n, p):
    fg = f_gamma(n, p)
    ref = f_reference(n, p)
    # error_estimate is 0 at the endpoints, whose exact ratio is rounded once
    assert float(abs(mpmath.mpf(fg.value) - ref)) <= fg.error_estimate + EPS * float(ref)
    assert routes_agree(fg, f_product(n, p))


# exponents just above 1, with a share of draws in (1, 1 + 1e-12)
near_one = st.one_of(
    st.floats(min_value=1.0, max_value=1.0 + 1e-9, exclude_min=True),
    st.floats(min_value=1.0, max_value=1.0 + 1e-12, exclude_min=True),
)


@given(dimensions, near_one)
@settings(max_examples=40, deadline=None)
def test_routes_hold_their_bounds_just_above_one(n, p):
    # every p > 1 is evaluated at its own t: each route lies within its
    # error_estimate plus one ulp of the reference at the caller's p
    ref = f_reference(n, p)
    fp = f_product(n, p)
    for r in (f_gamma(n, p), fp):
        assert float(abs(mpmath.mpf(r.value) - ref)) <= r.error_estimate + EPS * float(ref)
    assert fp.converged


endpoint_exponents = st.sampled_from([1.0, math.inf])


@given(dimensions, st.floats(min_value=1.0, max_value=1.0 + 4e-12, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_routes_continuous_at_the_endpoint(n, p):
    # just above p = 1 both routes stay within t * 2 H_{n+2} of the
    # endpoint value in log, plus their own error: d ln f/dt at t = 0 is
    # S(n, 0) = 1 + (n+2) H_{n+2} - 3 H_3 - n H_n < 2 H_{n+2} - 2.5
    slope = 2.0 * float(mpmath.harmonic(n + 2))
    with mpmath.workdps(DIGITS):
        pp = mpmath.mpf(p)
        t = float((pp - 1) / (pp * pp))
        endpoint = mpmath.mpf(2 * n) / (3 * (n + 1) * (n + 2))
        for r in (f_gamma(n, p), f_product(n, p)):
            jump = float(abs(mpmath.log(mpmath.mpf(r.value) / endpoint)))
            assert jump <= t * slope + r.error_estimate / r.value


@given(dimensions, endpoint_exponents)
@settings(max_examples=200, deadline=None)
def test_endpoint_routes_are_exact(n, p):
    # at p = 1 and p = inf both deterministic routes return the exact
    # ratio 2n/(3(n+1)(n+2))
    for r in (f_gamma(n, p), f_product(n, p)):
        assert r.value == f_endpoint(n)
        assert r.error_estimate == 0.0


def _exponent_token(p: float) -> str:
    return "inf" if math.isinf(p) else repr(p)


@given(
    st.sampled_from(["scan", "eval"]),
    st.lists(dimensions, min_size=1, max_size=3),
    st.lists(exponents, min_size=1, max_size=4),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_cli_exit_status_is_the_conjunction_of_its_verdicts(command, ns, ps, with_mc):
    if command == "eval":
        ns, ps = ns[:1], ps[:1]
    argv = [command, "--n", ",".join(map(str, ns)), "--p", ",".join(map(_exponent_token, ps))]
    # the sampler draws n coordinates per pair: Monte Carlo only at small n
    if with_mc and max(ns) <= 20:
        argv += ["--samples", "64", "--seed", "1", "--streams", "1"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    header, *rows = out.getvalue().splitlines()
    assert header == CSV_HEADER
    assert len(rows) == len(ns) * len(ps)
    columns = [CSV_HEADER.split(",").index(name) for name in ("bound_ok", "routes_agree", "mc_agrees")]
    verdicts = [row.split(",")[i] for row in rows for i in columns]
    assert set(verdicts) <= {"true", "false", ""}
    notes = err.getvalue().splitlines()
    assert all(line.startswith(("# ok: monotone", "# FAIL: monotone")) for line in notes)
    passed = "false" not in verdicts and not any(line.startswith("# FAIL") for line in notes)
    assert code == (0 if passed else 1)


@given(dimensions, exponents)
@settings(max_examples=300, deadline=None)
def test_ceiling_holds_within_the_certified_error(n, p):
    ok, _ = kuperberg_verdict(f_gamma(n, p))
    assert ok


@given(dimensions, exponents)
@settings(max_examples=300, deadline=None)
def test_conjugate_symmetry_within_both_bounds(n, p):
    e = Exponent(p)
    fp, fq = f_gamma(n, e), f_gamma(n, e.conjugate())
    assert abs(fp.value - fq.value) <= fp.error_estimate + fq.error_estimate


def gamma_ratio_deviation(out, x: float, a: float):
    """(whether the sign is right, |log|value| - log|reference||) of a gamma-ratio product."""
    with mpmath.workdps(DIGITS):
        xx, aa = mpmath.mpf(x), mpmath.mpf(a)
        ref = mpmath.gamma(1 - aa) * mpmath.gamma(xx + aa) / mpmath.gamma(xx)
        log_dev = float(abs(mpmath.log(abs(mpmath.mpf(out.value))) - mpmath.log(abs(ref))))
    return math.copysign(1.0, out.value) == (1.0 if ref > 0 else -1.0), log_dev


@pytest.mark.parametrize("x,a", [
    (1.0, 0.5),        # Gamma(1/2)^2 / 2 = pi/2
    (10.0, 0.9),
    (2.0, -0.5),
    (100.0, 0.25),
    (1e6, 0.9),
    (0.1, -0.9),       # x + a < 0: one negative factor
    (0.3, -5.7),       # six negative factors
    (0.1, -40.3),      # 41 negative factors, the head must pass k = 41
    (1.0, -50.5),
    (0.5, -100.7),
])
def test_gamma_ratio_product_spot_cells(x, a):
    out = gamma_ratio_product(x, a)
    sign_ok, log_dev = gamma_ratio_deviation(out, x, a)
    assert sign_ok
    assert log_dev <= out.tail_bound + 4.0 * EPS
    assert out.converged and out.stop == "tolerance"
    # one head term per negative factor and FIRST_HEAD more, then as many confirming terms
    negative = sum(1 for k in range(1, 256) if k + x + a - 1.0 < 0.0)
    assert out.terms_used == 2 * (FIRST_HEAD + negative)


def test_gamma_ratio_product_far_below_zero():
    # a thousand negative factors: the head passes them and still certifies
    # the value to about 1e-9, though not to REL_TOL
    out = gamma_ratio_product(0.1, -1000.3)
    sign_ok, log_dev = gamma_ratio_deviation(out, 0.1, -1000.3)
    assert sign_ok
    assert log_dev <= out.tail_bound <= 1e-9
    assert out.stop == "budget"


def sign_series_reference(n: int, t: float):
    """Sum over m of +-m^2 sum_k 1/((k+ma)(k+mb)), by digamma differences."""
    with mpmath.workdps(DIGITS):
        tt = mpmath.mpf(t)
        s = mpmath.sqrt(1 - 4 * tt)
        a = (1 - s) / 2
        b = 1 - a

        def part(m):
            m = mpmath.mpf(m)
            if s == 0:
                return m * m * mpmath.psi(1, 1 + m * a)
            return m * (mpmath.digamma(1 + m * b) - mpmath.digamma(1 + m * a)) / s

        return part(1) + part(n + 2) - part(3) - part(n)


def series_within_bound(report, ref) -> bool:
    """Whether a sign-series value lies within its tail_bound of the reference."""
    return float(abs(mpmath.mpf(report.series_value) - ref)) <= report.tail_bound


@pytest.mark.parametrize(
    "n,t",
    [
        (2, 0.25),
        (3, 0.25),
        (20, 0.25),
        (1000, 0.25),
        (5, 0.1),
        (2, 1e-9),
        (2000, 1e-12),
        (10**4, 0.2),
        (10**5, 1e-3),
        (10**6, 0.25),
    ],
)
def test_derivative_sign_series_spot_cells(n, t):
    report = derivative_sign_series(n, t)
    assert series_within_bound(report, sign_series_reference(n, t))
    assert report.sign is Sign.POSITIVE
    assert report.terms_used <= 256


@pytest.mark.parametrize("t", [0.25, 0.2, 1e-9])
def test_derivative_sign_series_exact_zero_at_n1(t):
    report = derivative_sign_series(1, t)
    assert report.series_value == 0.0
    assert report.sign is Sign.ZERO


# x in [1, 1e7] and h in +-[1e-12, 1e6] with x + h >= 1, biased toward
# small x, where the Stirling remainder is largest
stirling_x = st.one_of(st.floats(min_value=1.0, max_value=1e7), st.floats(min_value=1.0, max_value=10.0))
stirling_h = st.builds(
    lambda size, negative: -size if negative else size,
    st.one_of(st.floats(min_value=1e-12, max_value=1e6), st.floats(min_value=1e-12, max_value=1e-3)),
    st.booleans(),
)


@given(stirling_x, stirling_h)
@settings(max_examples=500, deadline=None)
def test_ln_gamma_difference_against_mpmath(x, h):
    assume(Fraction(x) + Fraction(h) >= 1)
    value, bound = ln_gamma_difference(x, h)
    with mpmath.workdps(DIGITS):
        xx = mpmath.mpf(x)
        ref = mpmath.loggamma(xx + mpmath.mpf(h)) - mpmath.loggamma(xx)
        assert abs(value - ref) <= bound


@given(stirling_x, st.one_of(stirling_h, st.just(0.0)))
@settings(max_examples=500, deadline=None)
def test_digamma_divided_difference_against_mpmath(x, h):
    assume(Fraction(x) + Fraction(h) >= 1)
    value, bound = digamma_divided_difference(x, h)
    with mpmath.workdps(DIGITS):
        xx, hh = mpmath.mpf(x), mpmath.mpf(h)
        ref = mpmath.psi(1, xx) if h == 0.0 else (mpmath.digamma(xx + hh) - mpmath.digamma(xx)) / hh
        assert abs(value - ref) <= bound


def _inflated(difference):
    """The same Stirling difference with 1e-12 of its own size added to each value."""

    def perturbed(x, h):
        value, bound = difference(x, h)
        return value + 1e-12 * abs(value), bound

    return perturbed


@pytest.mark.parametrize("n,p", [(1000, 1.5), (10**6, 1.25)])
def test_product_check_catches_a_perturbed_ln_gamma_difference(monkeypatch, n, p):
    # the tail shares D with nothing the reference uses: a 1e-12 relative
    # error in it must take f_product outside its certified bound
    assert product_within_bound(f_product(n, p), f_reference(n, p))
    monkeypatch.setattr(moments, "ln_gamma_difference", _inflated(ln_gamma_difference))
    assert not product_within_bound(f_product(n, p), f_reference(n, p))


@pytest.mark.parametrize("n,t", [(5, 0.1), (2, 0.25)])
def test_series_check_catches_a_perturbed_digamma_difference(monkeypatch, n, t):
    assert series_within_bound(derivative_sign_series(n, t), sign_series_reference(n, t))
    monkeypatch.setattr(moments, "digamma_divided_difference", _inflated(digamma_divided_difference))
    assert not series_within_bound(derivative_sign_series(n, t), sign_series_reference(n, t))
