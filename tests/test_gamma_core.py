import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pballs.gamma_core import (
    EM_ORDER,
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
    # 1/(k(k+1)) = 1/k - 1/(k+1): the sum over k > N is exactly 1/(N+1);
    # every term is positive, so the range's size is its sum
    total = sum(1.0 / (k * (k + 1.0)) for k in range(k_hi, k_lo - 1, -1))
    return total, total


class TestTruncationDriver:
    def test_fixed_contract(self):
        # an even limit: gamma_ratio_product's longest head, half of it, and
        # that head's confirming terms sum exactly MAX_TERMS terms
        assert MAX_TERMS == 10**6 and MAX_TERMS % 2 == 0
        assert REL_TOL == 1e-10

    def test_exact_tail_meets_tolerance_at_first_head(self):
        out = run_truncated_log_sum(_telescoping_chunk, lambda n: (1.0 / (n + 1.0), 0.0))
        assert out.stop == "tolerance"
        assert out.confirmed is True
        assert out.terms == 2 * FIRST_HEAD
        assert abs(out.total - 1.0) <= out.tail_bound <= REL_TOL

    def test_budget_stop(self):
        # a tail that certifies nothing: the driver sums its one head and
        # the confirming terms, and reports the head's estimate unconverged
        out = run_truncated_log_sum(_telescoping_chunk, lambda n: (0.0, math.inf))
        assert out.stop == "budget"
        assert out.confirmed is True
        assert out.terms == 2 * FIRST_HEAD
        assert math.isinf(out.tail_bound)
        assert abs(out.total - (1.0 - 1.0 / (FIRST_HEAD + 1))) <= 4 * EPS

    @pytest.mark.parametrize("stop", ["tolerance", "budget", "doubling-failed"])
    def test_each_term_is_evaluated_once(self, stop):
        # the head and the confirming estimate each ask for the terms they
        # add: two disjoint, contiguous ranges, whatever the tail says
        tail = {
            "tolerance": lambda n: (1.0 / (n + 1.0), 0.0),
            "budget": lambda n: (0.0, math.inf),
            "doubling-failed": lambda n: (0.0, 0.0),
        }[stop]
        asked = []

        def recording(k_lo, k_hi):
            asked.append((k_lo, k_hi))
            return _telescoping_chunk(k_lo, k_hi)

        out = run_truncated_log_sum(recording, tail)
        assert out.stop == stop
        assert asked == [(1, FIRST_HEAD), (FIRST_HEAD + 1, 2 * FIRST_HEAD)]
        assert out.terms == 2 * FIRST_HEAD

    def test_caller_named_head(self):
        asked = []

        def closed_form(k_lo, k_hi):
            # the telescoping range's sum, without evaluating its terms
            asked.append((k_lo, k_hi))
            part = 1.0 / k_lo - 1.0 / (k_hi + 1.0)
            return part, part

        out = run_truncated_log_sum(closed_form, lambda n: (1.0 / (n + 1.0), 0.0), 40)
        assert asked == [(1, 40), (41, 80)]
        assert out.terms == 80
        assert out.confirmed is True

    def test_euler_maclaurin_tables_are_the_bernoulli_weights(self):
        # derived from the exact B_2..B_12, bit for bit the hand-typed weights
        # B_{2j}/((2j)(2j-1)) and B_{2j}/(2j) with their remainder weights;
        # the order, both tables and the rounding allowance live in
        # gamma_core alone
        from pballs import gamma_core, moments

        assert EM_ORDER == 5
        assert gamma_core._LN_GAMMA_WEIGHTS == (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
        assert gamma_core._LN_GAMMA_REMAINDER == 691.0 / 360360.0
        assert gamma_core._DIGAMMA_WEIGHTS == (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)
        assert gamma_core._DIGAMMA_REMAINDER == 691.0 / 32760.0
        assert not {"EM_ORDER", "_em_table", "rounding_allowance"} & set(vars(moments))

    def test_weights_are_the_correctly_rounded_bernoulli_ratios(self):
        # each weight, formed by one int / int division, is the float nearest
        # the exact rational B_{2j}/divisor(2j)
        from fractions import Fraction

        from pballs import gamma_core

        bernoulli = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730)]
        for divisor, weights, remainder in (
            (lambda m: m * (m - 1), gamma_core._LN_GAMMA_WEIGHTS, gamma_core._LN_GAMMA_REMAINDER),
            (lambda m: m, gamma_core._DIGAMMA_WEIGHTS, gamma_core._DIGAMMA_REMAINDER),
        ):
            exact = [float(b / divisor(2 * j)) for j, b in enumerate(bernoulli, 1)]
            assert (weights, remainder) == (tuple(exact[:-1]), abs(exact[-1]))

    def test_import_loads_no_exact_arithmetic_module(self):
        # the tables need no fractions (nor the decimal it imports) at import
        # time, and only a Monte Carlo draw loads numpy
        import os
        import subprocess
        import sys

        import pballs

        code = "import sys, pballs.cli; print(sorted({'fractions', 'decimal', 'numpy'} & set(sys.modules)))"
        src = os.path.dirname(os.path.dirname(pballs.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

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

    @pytest.mark.parametrize(
        "x,a",
        [(0.0, 0.5), (-1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (0.5, -0.5), (1.0, -1.0), (math.inf, 0.5), (1.0, -math.inf)],
    )
    def test_domain_errors(self, x, a):
        with pytest.raises(ValueError):
            gamma_ratio_product(x, a)

    def test_zero_factor_denominator_raises_at_once(self, monkeypatch):
        # x + a rounds to just above -4 and passes the pole check, yet the
        # k = 5 factor's (5 + x) + a - 1 rounds to exactly 0: its term is
        # infinite, and run_truncated_log_sum would sum it into the head
        from pballs import gamma_core

        assert 0.1 + -4.1 != -4.0
        assert (5 + 0.1) + (-4.1) - 1.0 == 0.0

        def unreachable(*args):
            raise AssertionError("run_truncated_log_sum ran")

        monkeypatch.setattr(gamma_core, "run_truncated_log_sum", unreachable)
        with pytest.raises(ValueError, match="factor 5's denominator"):
            gamma_ratio_product(0.1, -4.1)

    def test_head_past_half_the_limit_raises_at_once(self, monkeypatch):
        # one head term per negative factor and FIRST_HEAD more would pass
        # MAX_TERMS // 2, so the input is refused before any term is summed
        from pballs import gamma_core

        def unreachable(*args):
            raise AssertionError("run_truncated_log_sum ran")

        monkeypatch.setattr(gamma_core, "run_truncated_log_sum", unreachable)
        with pytest.raises(ValueError, match="more than MAX_TERMS // 2"):
            gamma_ratio_product(0.25, -(MAX_TERMS // 2) - 0.5)

    def test_longest_head_reaches_the_driver_whole(self, monkeypatch):
        # x + a = -499967.25 has 499968 negative factors: the head that
        # covers them and FIRST_HEAD more is exactly MAX_TERMS // 2 terms
        from pballs import gamma_core

        heads = []

        def recording(terms, tail, head):
            heads.append(head)
            return gamma_core._LogSum(0.0, 2 * head, 0.0, "tolerance")

        monkeypatch.setattr(gamma_core, "run_truncated_log_sum", recording)
        gamma_ratio_product(0.25, -499967.5)
        assert heads == [MAX_TERMS // 2]

    def test_failed_doubling_check_is_not_converged(self, monkeypatch):
        # a tail that claims zero with a zero bound is refuted by the head
        from pballs import gamma_core

        monkeypatch.setattr(gamma_core, "ln_gamma_difference", lambda x, h: (0.0, 0.0))
        out = gamma_ratio_product(2.0, 0.5)
        assert out.stop == "doubling-failed"
        assert out.converged is False
        with pytest.raises(AttributeError):
            out.converged = True

    def test_doubling_confirmation_reported(self):
        out = gamma_ratio_product(2.0, 0.5)
        assert out.stop == "tolerance" and out.converged  # the doubling check did not fail
        assert out.tail_bound <= REL_TOL
        assert out.terms_used == 2 * FIRST_HEAD  # the head, and its confirming terms

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
