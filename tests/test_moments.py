import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pballs.gamma_core import FIRST_HEAD, REL_TOL
from pballs.moments import (
    Sign,
    _per_term_polynomial,
    derivative_sign_series,
    f_endpoint,
    f_gamma,
    f_product,
    gk_ratio_product,
    kuperberg_bound,
    kuperberg_verdict,
    mc_agrees,
    monotone_verdict,
    remark_limit_check,
)
from pballs.pball import Exponent

class TestFEndpoint:
    def test_values(self):
        assert f_endpoint(1) == 1.0 / 9.0
        assert f_endpoint(2) == 1.0 / 9.0
        assert f_endpoint(3) == 0.1


class TestFGamma:
    def test_one_dimensional_is_constant(self):
        for p in (1.0, 1.5, 2.0, 3.0, 9.0, math.inf):
            assert f_gamma(1, p).value == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_self_dual_value(self):
        assert f_gamma(2, 2.0).value == pytest.approx(0.125, rel=1e-13)

    def test_endpoints_are_exact(self):
        for n in (1, 2, 3, 10, 100):
            assert f_gamma(n, 1.0).value == f_endpoint(n)
            assert f_gamma(n, math.inf).value == f_endpoint(n)

    def test_metadata(self):
        r = f_gamma(3, 1.5)
        # the closed form's own rounding bound, exact 0 only at the endpoints
        assert 0.0 < r.error_estimate <= 1e-13 * r.value
        assert f_gamma(3, 1.0).error_estimate == 0.0
        assert r.n == 3
        assert r.exponent.p == 1.5
        assert r.converged

    def test_conjugate_symmetry(self):
        for n, p in [(2, 1.5), (5, 1.25), (17, 1.9)]:
            e = Exponent(p)
            assert f_gamma(n, e).value == pytest.approx(f_gamma(n, e.conjugate()).value, rel=1e-13)

    def test_bound_invariant(self):
        for n in (1, 2, 7, 40):
            for p in (1.0, 1.4, 2.0, 6.0, math.inf):
                for r in (f_gamma(n, p), f_product(n, p)):
                    assert 0.0 < r.value <= kuperberg_bound(n) + r.error_estimate + 1e-12


class TestFProduct:
    def test_telescoped_endpoint(self):
        r = f_product(4, 1.0)
        assert r.value == 4.0 / 45.0
        assert r.error_estimate == 0.0

    def test_telescoped_self_dual(self):
        r = f_product(4, 2.0)
        assert r.value == 1.0 / 9.0
        assert r.error_estimate == 0.0

    def test_agrees_with_gamma_within_reported_error(self):
        for n, p in [(5, 1.25), (2, 1.5), (20, 1.1), (3, 1.9)]:
            fg = f_gamma(n, p).value
            fp = f_product(n, p)
            assert abs(fp.value - fg) <= fp.error_estimate + 1e-10 * fg

    def test_default_policy_converges(self):
        r = f_product(5, 1.25)
        assert r.converged
        assert 0.0 < r.error_estimate <= 1e-10 * r.value
        assert r.terms_used == 2 * FIRST_HEAD

    def test_bound_sits_at_the_rounding_floor(self):
        # the first head already meets REL_TOL, with the bound far below it
        r = f_product(7, 1.5)
        assert r.converged
        assert r.error_estimate <= 1e-12 * r.value
        fg = f_gamma(7, 1.5)
        assert abs(r.value - fg.value) <= r.error_estimate + fg.error_estimate

    def test_factor_deviation_quadratic_decay(self):
        # fit C at k = 1e3, validate the k^-2 law at k = 1e4
        from pballs._kernels import moment_product_log

        for n in (2, 5, 20, 50):
            for t in (0.05, 0.25):
                log_f3 = moment_product_log(float(n), t, 1_000, 1_000).sum()
                log_f4 = moment_product_log(float(n), t, 10_000, 10_000).sum()
                c_fit = 1.1 * abs(log_f3) * 1_000.0**2
                assert abs(math.expm1(log_f4)) <= c_fit / 10_000.0**2


class TestGkRatioProduct:
    def test_exact_ends(self):
        # the summed product reaches the telescoped values within its own bound
        for n in (1, 2, 5, 20, 10**3, 10**6):
            for tau, exact in ((0.0, 6.0 / ((n + 1) * (n + 2))), (0.25, 9.0 / ((n + 2) ** 2))):
                res = gk_ratio_product(n, tau)
                assert res.converged
                assert abs(math.log(res.value / exact)) <= res.tail_bound

    @pytest.mark.parametrize("tau", [-0.1, 0.26, 1.0])
    def test_tau_outside_real_roots_rejected(self, tau):
        with pytest.raises(ValueError):
            gk_ratio_product(3, tau)

    def test_matches_f_product_scaling(self):
        res = gk_ratio_product(3, 0.2)
        r = f_product(3, 2.0 / (1.0 + math.sqrt(1.0 - 0.8)))
        assert (3.0 / 9.0) * res.value == pytest.approx(r.value, rel=1e-10)
        assert res.converged and res.tail_bound <= REL_TOL
        assert res.converged == (res.stop == "tolerance")


class TestDerivativeSignSeries:
    def test_n1_series_is_identically_zero(self):
        report = derivative_sign_series(1, 0.2)
        assert report.series_value == 0.0
        assert report.sign is Sign.ZERO

    @pytest.mark.parametrize("n,t", [(2, 0.1), (2, 0.25), (5, 0.01), (10, 0.25), (20, 0.05)])
    def test_positive_for_higher_dimensions(self, n, t):
        report = derivative_sign_series(n, t)
        assert report.sign is Sign.POSITIVE

    def test_sign_matches_finite_difference(self):
        h = 1e-5
        for n, t in [(2, 0.1), (10, 0.2)]:
            report = derivative_sign_series(n, t)
            p_lo = 2.0 / (1.0 + math.sqrt(1.0 - 4.0 * (t - h)))
            p_hi = 2.0 / (1.0 + math.sqrt(1.0 - 4.0 * (t + h)))
            fd = f_gamma(n, p_hi).value - f_gamma(n, p_lo).value
            assert (report.sign is Sign.POSITIVE) == (fd > 0.0)

    @pytest.mark.parametrize("t", [0.0, -0.1, 0.2500001, 1.0])
    def test_t_validation(self, t):
        with pytest.raises(ValueError):
            derivative_sign_series(2, t)


def _printed_per_term(k, n, t):
    def g(m):
        return k * k + m * k + m * m * t

    return n * n * g(3) * g(n + 2) * (g(n) - g(1)) + g(n) * ((n + 2) ** 2 * g(1) * g(3) - 9 * g(n + 2))


class TestPerTermPolynomial:
    def test_certificate_numbers(self):
        poly = _per_term_polynomial()
        assert len(poly) == 89
        assert (min(poly.values()), max(poly.values()), poly[0, 0, 0]) == (1, 9284, 329)
        # at k = 1, n = 2 it is 2304t^3 + 3148t^2 + 1632t + 329
        assert {e[2]: c for e, c in poly.items() if e[:2] == (0, 0)} == {3: 2304, 2: 3148, 1: 1632, 0: 329}

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.fractions(min_value=1, max_value=10**4, max_denominator=10**3),
        n=st.fractions(min_value=2, max_value=10**6, max_denominator=10**3),
        t=st.fractions(min_value=0, max_value=100, max_denominator=10**3),
    )
    def test_expansion_is_the_printed_expression(self, k, n, t):
        j, u = k - 1, n - 2
        expanded = sum(c * j**a * u**b * t**d for (a, b, d), c in _per_term_polynomial().items())
        assert expanded == _printed_per_term(k, n, t)


def _gamma_results(n, grid):
    return [f_gamma(n, p) for p in grid]


class TestMonotonicityScan:
    def test_constant_for_n1(self):
        results = _gamma_results(1, [1.0, 1.5, 2.0])
        scan = monotone_verdict(results)
        assert scan.monotone
        assert not scan.strict
        for r in results:
            assert r.value == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_strict_increase_for_n2(self):
        results = _gamma_results(2, [1.0, 2.0])
        scan = monotone_verdict(results)
        assert scan.monotone and scan.strict
        assert results[0].value == pytest.approx(1.0 / 9.0, rel=1e-13)
        assert results[1].value == pytest.approx(0.125, rel=1e-13)

    def test_21_point_grid_ends_at_self_dual(self):
        results = _gamma_results(3, [1.0 + 0.05 * i for i in range(21)])
        scan = monotone_verdict(results)
        assert scan.strict
        assert scan.first_violation is None
        assert results[-1].value == pytest.approx(3.0 / 25.0, rel=1e-12)

    def test_unordered_grid_rejected(self):
        with pytest.raises(ValueError):
            monotone_verdict(_gamma_results(2, [1.0, 1.6, 1.4]))

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError):
            monotone_verdict(_gamma_results(2, [1.0, 2.5]))

    def test_short_grid_rejected(self):
        # no results name no dimension to judge
        with pytest.raises(ValueError, match="one dimension"):
            monotone_verdict([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="one dimension"):
            monotone_verdict([f_gamma(2, 1.0), f_gamma(3, 1.5)])

    def test_falling_side(self):
        grid = [2.0, 3.0, 10.0, math.inf]
        scan = monotone_verdict(_gamma_results(3, grid))
        assert scan.monotone and scan.strict
        assert scan.first_violation is None
        flat = monotone_verdict(_gamma_results(1, grid))
        assert flat.monotone and not flat.strict

    def test_grid_straddling_two_rejected(self):
        with pytest.raises(ValueError, match="straddles 2"):
            monotone_verdict(_gamma_results(3, [1.5, 2.5]))

    def test_flat_step_up_to_self_dual_is_not_strict(self):
        # the computed f falls by about 1e-16 on this step: within the two
        # points' summed errors, so monotone, but not the strict rise
        # claimed for n >= 2
        scan = monotone_verdict(_gamma_results(3, [1.9999999, 2.0]))
        assert scan.monotone
        assert not scan.strict
        assert scan.first_violation == (1.9999999, 2.0)


def _cell(n, p, value, error=0.0):
    return f_gamma(n, p)._replace(value=value, error_estimate=error)


class TestMonotoneVerdict:
    def test_wrong_direction_is_reported(self):
        verdict = monotone_verdict([_cell(2, 2.0, 0.1), _cell(2, 3.0, 0.2), _cell(2, 4.0, 0.1)])
        assert not verdict.monotone and not verdict.strict
        assert verdict.first_violation == (2.0, 3.0)

    def test_one_point_is_vacuously_ordered(self):
        verdict = monotone_verdict([_cell(3, 1.5, 0.1)])
        assert verdict.monotone and verdict.strict

    def test_repeated_exponent_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            monotone_verdict([_cell(2, 1.5, 0.1), _cell(2, 1.5, 0.2)])

    def test_steps_are_judged_beyond_the_summed_errors(self):
        # each point is known to within 1e-9, so a step counts only beyond 2e-9
        for step in (1e-9, -1e-9):
            verdict = monotone_verdict([_cell(3, 1.5, 0.1, 1e-9), _cell(3, 1.6, 0.1 + step, 1e-9)])
            assert verdict.monotone and not verdict.strict
            assert verdict.first_violation == (1.5, 1.6)
        assert monotone_verdict([_cell(3, 1.5, 0.1, 1e-9), _cell(3, 1.6, 0.1 + 3e-9, 1e-9)]).strict
        wrong = monotone_verdict([_cell(3, 1.5, 0.1, 1e-9), _cell(3, 1.6, 0.1 - 3e-9, 1e-9)])
        assert not wrong.monotone


class TestKuperbergCheck:
    def test_equality_at_self_dual(self):
        ok, margin = kuperberg_verdict(f_gamma(2, 2.0))
        assert ok
        assert abs(margin) <= 1e-15

    def test_one_dimensional_equality(self):
        ok, margin = kuperberg_verdict(f_gamma(1, 7.0))
        assert ok
        assert abs(margin) <= 1e-15

    def test_strict_interior_margin(self):
        ok, margin = kuperberg_verdict(f_gamma(4, 1.3))
        assert ok
        assert margin > 1e-4


class TestKuperbergVerdict:
    def test_value_within_its_error_of_the_ceiling_passes(self):
        bound = kuperberg_bound(5)
        cell = f_gamma(5, 2.0)._replace(value=bound + 0.5e-13, error_estimate=1e-13)
        assert kuperberg_verdict(cell) == (True, bound - (bound + 0.5e-13))

    def test_value_beyond_its_error_above_the_ceiling_fails(self):
        bound = kuperberg_bound(5)
        cell = f_gamma(5, 2.0)._replace(value=bound + 2e-13, error_estimate=1e-13)
        ok, margin = kuperberg_verdict(cell)
        assert not ok
        assert margin < 0.0
        exact = cell._replace(error_estimate=0.0, value=bound + 1e-16)
        assert not kuperberg_verdict(exact)[0]


class TestMcAgrees:
    def test_three_standard_errors(self):
        from pballs.montecarlo import MCEstimate

        assert mc_agrees(MCEstimate(1.0, 0.1, 100), 1.25)
        assert not mc_agrees(MCEstimate(1.0, 0.1, 100), 1.35)

    def test_zero_standard_error(self):
        from pballs.montecarlo import MCEstimate

        assert mc_agrees(MCEstimate(0.5, 0.0, 1), 0.5)
        assert not mc_agrees(MCEstimate(0.5, 0.0, 1), 0.25)


class TestRunSuite:
    def test_all_runs_every_suite_once_in_order(self):
        from pballs.montecarlo import MCConfig
        from pballs.verify import SUITE_NAMES, run_suite

        mc = MCConfig(samples=400, seed=5, streams=2)
        expected = [c for name in SUITE_NAMES[:-1] for c in run_suite(name, mc)]
        assert SUITE_NAMES[-1] == "all"
        assert run_suite("all", mc) == expected

    def test_endpoint_value_catches_a_wrong_endpoint_formula(self, monkeypatch):
        # both routes return f_endpoint at p in {1, inf}; the check's target
        # comes from the balls' moments, so a wrong formula must FAIL it
        from pballs import moments, verify

        wrong = lambda n: 2 * n / (3 * (n + 1) * (n + 3))  # noqa: E731
        monkeypatch.setattr(moments, "f_endpoint", wrong)
        monkeypatch.setattr(verify, "f_endpoint", wrong)
        (check,) = [c for c in verify.suite_endpoints() if c.name == "endpoint-value"]
        assert not check.passed


class TestBoundComparator:
    # The corollaries order P(R) and P(S), R = (r-1)/r^2 = t(r); since
    # f = (n/9)*P(t), that is monotone_verdict on the f_product results.
    def test_forward_regime_telescoped_endpoints(self):
        cells = [f_product(2, 1.0), f_product(2, 2.0)]
        assert monotone_verdict(cells).strict
        assert [(c.value, c.error_estimate) for c in cells] == [(f_endpoint(2), 0.0), (kuperberg_bound(2), 0.0)]

    def test_reversed_regime(self):
        cells = [f_product(3, 2.0), f_product(3, math.inf)]
        assert monotone_verdict(cells).strict
        assert [(c.value, c.error_estimate) for c in cells] == [(kuperberg_bound(3), 0.0), (f_endpoint(3), 0.0)]

    def test_interior_pair(self):
        r, s = f_product(5, 1.2), f_product(5, 1.8)
        assert monotone_verdict([r, s]).strict
        assert r.value < s.value

    def test_gap_below_the_tail_bounds_is_no_verdict(self):
        # the values are in the expected order, but closer than their
        # bounds allow either to be off
        r, s = f_product(5, 1.5), f_product(5, 1.5 + 1e-12)
        verdict = monotone_verdict([r, s])
        assert r.value < s.value < r.value + r.error_estimate + s.error_estimate
        assert verdict.monotone and not verdict.strict
        assert verdict.first_violation == (1.5, 1.5 + 1e-12)

    @pytest.mark.parametrize("r,s", [(1.5, 3.0), (1.0, 2.5), (2.0, 2.0), (3.0, 2.5), (0.5, 1.5)])
    def test_bad_pairs_rejected(self, r, s):
        with pytest.raises(ValueError):
            monotone_verdict([f_product(4, r), f_product(4, s)])

    def test_n1_is_monotone_but_not_strict(self):
        # f(1, .) = 1/9 at every p: the products are equal, not ordered
        verdict = monotone_verdict([f_product(1, 1.0), f_product(1, 2.0)])
        assert verdict.monotone and not verdict.strict

    def test_comparators_fail_when_the_bounds_swallow_every_step(self, monkeypatch):
        from pballs import verify

        real = verify.f_product

        def loose(n, p):
            fp = real(n, p)
            return fp._replace(error_estimate=fp.value)

        monkeypatch.setattr(verify, "f_product", loose)
        checks = verify.suite_corollaries()
        assert [c.name for c in checks] == ["comparator-forward", "comparator-reversed"]
        assert not any(c.passed for c in checks)
        assert all("FAILURES" in c.detail for c in checks)


class TestRemarkLimit:
    def test_exact_at_n1(self):
        assert remark_limit_check(1, 1e6) == 1.0

    def test_examples(self):
        assert abs(remark_limit_check(4, 1e6) - 2.0) < 1e-4
        assert abs(remark_limit_check(10, 1e3) - 4.0) < 1e-2

    def test_q_validation(self):
        with pytest.raises(ValueError):
            remark_limit_check(3, 100.0)
        with pytest.raises(ValueError, match="finite"):
            remark_limit_check(3, math.inf)
