"""The truncated series against 40-digit mpmath references.

f_product sums a short head of factors and the tail in closed form; these
tests hold the result, its certified bound and its term count against the
loggamma closed form over the whole documented domain, 1 <= n <= 10^6 and
p in [1, inf], with the draws biased toward the awkward corners.  The
same draws hold the endpoint values to their exact closed form and the
CLI's exit status to the verdicts it prints.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pballs.cli import CSV_HEADER, main
from pballs.gamma_core import gamma_ratio_product
from pballs.moments import Sign, derivative_sign_series, f_endpoint, f_gamma, f_product, kuperberg_verdict, routes_agree
from pballs.pball import Exponent

EPS = 2.0**-52
DIGITS = 40


def f_reference(n: int, p: float):
    """f(n, p) to 40 digits at the exponent the library evaluates.

    Exponents below 1 + 1e-12 snap to p = 1, where f is the exact
    endpoint value 2n/(3(n+1)(n+2)).
    """
    e = Exponent(p)
    with mpmath.workdps(DIGITS):
        if e.t == 0.0:
            return mpmath.mpf(2 * n) / (3 * (n + 1) * (n + 2))
        pp = mpmath.mpf(e.p)
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


@given(dimensions, exponents)
@settings(max_examples=300, deadline=None)
def test_f_product_against_loggamma_reference(n, p):
    fp = f_product(n, p)
    ref = f_reference(n, p)
    dev = float(abs(mpmath.mpf(fp.value) - ref))
    assert dev <= fp.error_estimate + 16.0 * EPS * float(ref)
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


endpoint_exponents = st.one_of(
    st.floats(min_value=1.0, max_value=1.0 + 1e-12, exclude_max=True),
    st.just(math.inf),
)


@given(dimensions, endpoint_exponents)
@settings(max_examples=200, deadline=None)
def test_endpoint_routes_are_exact(n, p):
    # p in [1, 1 + 1e-12) snaps to p = 1; there and at p = inf both
    # deterministic routes return the exact ratio 2n/(3(n+1)(n+2))
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


@pytest.mark.parametrize("x,a", [
    (1.0, 0.5),        # Gamma(1/2)^2 / 2 = pi/2
    (10.0, 0.9),
    (2.0, -0.5),
    (100.0, 0.25),
    (1e6, 0.9),
    (0.1, -0.9),       # x + a < 0: one negative factor
    (0.3, -5.7),       # six negative factors
    (0.1, -40.3),      # 41 negative factors, the head must pass k = 41
])
def test_gamma_ratio_product_spot_cells(x, a):
    out = gamma_ratio_product(x, a)
    with mpmath.workdps(DIGITS):
        xx, aa = mpmath.mpf(x), mpmath.mpf(a)
        ref = mpmath.gamma(1 - aa) * mpmath.gamma(xx + aa) / mpmath.gamma(xx)
        log_dev = float(abs(mpmath.log(abs(mpmath.mpf(out.value))) - mpmath.log(abs(ref))))
    assert math.copysign(1.0, out.value) == (1.0 if ref > 0 else -1.0)
    assert log_dev <= out.tail_bound + 4.0 * EPS
    assert out.converged and out.stop == "tolerance"
    assert out.terms_used <= 256


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


@pytest.mark.parametrize("n,t", [(2, 0.25), (3, 0.25), (20, 0.25), (1000, 0.25), (5, 0.1), (2, 1e-9)])
def test_derivative_sign_series_spot_cells(n, t):
    report = derivative_sign_series(n, t)
    ref = sign_series_reference(n, t)
    assert float(abs(mpmath.mpf(report.series_value) - ref)) <= report.tail_bound
    assert report.sign is Sign.POSITIVE
    assert report.terms_used <= 256


@pytest.mark.parametrize("t", [0.25, 0.2, 1e-9])
def test_derivative_sign_series_exact_zero_at_n1(t):
    report = derivative_sign_series(1, t)
    assert report.series_value == 0.0
    assert report.sign is Sign.ZERO
