import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pballs.gamma_core import (
    FIRST_HEAD,
    MAX_TERMS,
    REL_TOL,
    gamma_ratio_product,
    ln_gamma,
    run_truncated_log_sum,
    signed_ln_gamma,
)

EPS = 2.0**-52


class TestLnGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 0.0),
            (2.0, 0.0),
            (0.5, math.log(math.sqrt(math.pi))),
            (5.0, math.log(24.0)),
        ],
    )
    def test_known_values(self, x, expected):
        assert ln_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_against_libm_over_wide_range(self):
        # ln_gamma is math.lgamma; the reference is 40-digit mpmath
        xs = [1e-17 * 10 ** (23 * i / 199) for i in range(200)]  # log-spaced to 1e6
        with mpmath.workdps(40):
            for x in xs:
                ref = mpmath.loggamma(x)
                assert abs(ln_gamma(x) - ref) <= 8 * EPS * max(1.0, abs(ref))

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            ln_gamma(x)

    @given(st.floats(min_value=0.5, max_value=1e4))
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, x):
        # 1e-12 absolute cannot hold once ulp(lnGamma) exceeds it (lnGamma(1e4)
        # is ~8.2e4, i.e. ulp ~1.5e-11), so the band is floored at a few ulp
        # of the function value; the strict 1e-12 applies wherever it is
        # representable.
        hi = ln_gamma(x + 1.0)
        tol = max(1e-12, 24.0 * math.ulp(hi))
        assert abs(hi - ln_gamma(x) - math.log(x)) <= tol


class TestSignedLnGamma:
    @pytest.mark.parametrize("x", [-0.8, -2.5, -5.3, 0.25, 3.0])
    def test_matches_reflection_reference(self, x):
        sign, log_abs = signed_ln_gamma(x)
        ref = math.gamma(x)
        assert sign == math.copysign(1.0, ref)
        assert log_abs == pytest.approx(math.log(abs(ref)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", range(30))
    def test_negative_axis_against_mpmath(self, k):
        # one point inside each interval (-k-1, -k), where sign(Gamma) = (-1)^(k+1)
        x = -k - (k + 1) / 32
        sign, log_abs = signed_ln_gamma(x)
        with mpmath.workdps(40):
            ref = mpmath.gamma(x)
            assert sign == (1.0 if ref > 0 else -1.0) == (-1.0) ** (k + 1)
            ref_log = mpmath.log(abs(ref))
            assert abs(log_abs - ref_log) <= 8 * EPS * max(1.0, abs(ref_log))

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole(self, x):
        with pytest.raises(ValueError):
            signed_ln_gamma(x)


def _telescoping_chunk(k_lo, k_hi):
    # 1/(k(k+1)) = 1/k - 1/(k+1): the sum over k > N is exactly 1/(N+1)
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    partial = float(np.sum(1.0 / (k * (k + 1.0))))
    return partial, partial


class TestTruncationDriver:
    def test_fixed_contract(self):
        # an even budget: the head stops at half of it, so the doubling
        # pass always fits
        assert MAX_TERMS == 10**6 and MAX_TERMS % 2 == 0
        assert REL_TOL == 1e-10

    def test_exact_tail_meets_tolerance_at_first_head(self):
        out = run_truncated_log_sum(_telescoping_chunk, lambda n: (1.0 / (n + 1.0), 0.0))
        assert out.stop == "tolerance"
        assert out.confirmed is True
        assert out.terms == 2 * FIRST_HEAD
        assert abs(out.total - 1.0) <= out.tail_bound <= REL_TOL

    def test_budget_stop(self):
        # a tail that certifies nothing: the head doubles up to half the
        # budget, and the doubling pass spends the rest
        out = run_truncated_log_sum(_telescoping_chunk, lambda n: (0.0, math.inf))
        assert out.stop == "budget"
        assert out.confirmed is True
        assert out.terms == MAX_TERMS
        assert math.isinf(out.tail_bound)
        assert abs(out.total - 1.0) <= 2.0 / MAX_TERMS

    def test_wrong_tail_fails_the_doubling_check(self):
        # claiming a zero tail is refuted by the terms between N and 2N
        out = run_truncated_log_sum(_telescoping_chunk, lambda n: (0.0, 0.0))
        assert out.stop == "doubling-failed"
        assert out.confirmed is False
        assert out.tail_bound >= abs(out.total - 1.0) - 1.0 / (2 * FIRST_HEAD + 1)


def _factor(x, a, k):
    return (k * (k + x - 1.0)) / ((k - a) * (k + x + a - 1.0))


class TestGammaRatioProduct:
    def test_half_integer_example(self):
        # Gamma(1/2)*Gamma(3/2)/Gamma(1) = pi/2
        out = gamma_ratio_product(1.0, 0.5)
        assert abs(math.log(out.value) - math.log(math.pi / 2.0)) <= out.tail_bound
        assert out.converged == (out.stop == "tolerance")

    def test_a_zero_short_circuit(self):
        out = gamma_ratio_product(2.0, 0.0)
        assert out.value == 1.0
        assert out.tail_bound == 0.0
        assert out.terms_used == 0
        assert out.converged

    def test_third_example_against_log_gamma_route(self):
        ref = math.exp(ln_gamma(2.0 / 3.0) + ln_gamma(4.0 / 3.0))
        out = gamma_ratio_product(1.0, 1.0 / 3.0)
        assert abs(math.log(out.value) - math.log(ref)) <= out.tail_bound
        assert out.converged == (out.stop == "tolerance")

    def test_negative_ratio_cell(self):
        # x + a < 0 makes exactly the k=1 factor negative
        out = gamma_ratio_product(0.1, -0.9)
        s2, l2 = signed_ln_gamma(0.1 - 0.9)
        ref_log = ln_gamma(1.9) + l2 - ln_gamma(0.1)
        assert out.value < 0.0
        assert s2 == -1.0
        assert abs(math.log(-out.value) - ref_log) <= out.tail_bound + 1e-12
        assert out.converged == (out.stop == "tolerance")

    @pytest.mark.parametrize("x,a", [(0.0, 0.5), (-1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (0.5, -0.5), (1.0, -1.0)])
    def test_domain_errors(self, x, a):
        with pytest.raises(ValueError):
            gamma_ratio_product(x, a)

    def test_unreached_tolerance_is_flagged_not_raised(self):
        # the tail needs every argument k + x + a - 1 >= 1, so with
        # x + a < -MAX_TERMS / 2 no head inside the budget admits one: the
        # driver spends the budget and reports an infinite bound
        out = gamma_ratio_product(0.25, -(MAX_TERMS // 2) - 0.5)
        assert not out.converged
        assert out.stop == "budget"
        assert out.terms_used == MAX_TERMS
        assert math.isinf(out.tail_bound)

    def test_doubling_confirmation_reported(self):
        out = gamma_ratio_product(2.0, 0.5)
        assert out.stop == "tolerance" and out.converged  # the doubling check did not fail
        assert out.tail_bound <= REL_TOL
        assert out.terms_used == 2 * FIRST_HEAD  # the first head, and its doubling pass

    def test_factor_sanity(self):
        # factors tend to 1; they are positive throughout whenever x + a > 0,
        # and from k = 2 on regardless
        for x, a in [(0.1, -0.9), (0.5, 0.25), (2.0, 0.9), (100.0, -0.5)]:
            for k in (2, 3, 10, 1_000):
                assert _factor(x, a, k) > 0.0
            if x + a > 0:
                assert _factor(x, a, 1) > 0.0
            assert abs(_factor(x, a, 1_000_000) - 1.0) < 1e-9
            assert abs(_factor(x, a, 10_000) - 1.0) <= abs(_factor(x, a, 100) - 1.0)
