import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pballs.gamma_core import ln_gamma
from pballs.pball import (
    MAX_DIMENSION,
    Exponent,
    as_exponent,
    check_dimension,
    normalized_second_moment,
    second_moment_integral,
    volume,
)

LN2 = math.log(2.0)


class TestExponent:
    def test_self_conjugate_point(self):
        e = Exponent(2.0)
        assert e.q == 2.0
        assert e.t == 0.25

    def test_endpoint_pairing(self):
        assert Exponent(1.0).conjugate().p == math.inf
        assert Exponent(math.inf).conjugate().p == 1.0
        assert Exponent(1.0).t == 0.0
        assert Exponent(math.inf).t == 0.0

    def test_simple_conjugate(self):
        e = Exponent(4.0)
        assert e.q == pytest.approx(4.0 / 3.0, rel=1e-16)
        assert e.t == 0.1875  # (4-1)/16 is exact in binary floating point

    def test_involution_is_exact(self):
        for p in (1.0, 1.5, 2.0, 3.7, 41.0, 1e5, math.inf):
            e = Exponent(p)
            back = e.conjugate().conjugate()
            assert back.p == e.p and back.q == e.q and back.t == e.t

    def test_t_is_conjugation_invariant_exactly(self):
        for p in (1.1, 2.0, 5.0, 123.456):
            e = Exponent(p)
            assert e.conjugate().t == e.t

    def test_only_one_itself_is_the_endpoint(self):
        # p = 1 + 1e-13 keeps its own p, a finite q and t > 0
        e = Exponent(1.0 + 1e-13)
        assert e.p == 1.0 + 1e-13
        assert math.isfinite(e.q) and e.t > 0.0
        assert Exponent(1.0).q == math.inf
        assert Exponent(1.0 + 2.0**-52).q == 2.0**52 + 1.0

    @pytest.mark.parametrize("p", [0.5, 0.0, -3.0, math.nan])
    def test_validation(self, p):
        with pytest.raises(ValueError):
            Exponent(p)

    def test_as_exponent_coercions(self):
        assert as_exponent("inf").p == math.inf
        assert as_exponent("2.5").p == 2.5
        assert as_exponent(3).p == 3.0
        e = Exponent(1.7)
        assert as_exponent(e) is e

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_conjugacy_properties(self, p):
        e = Exponent(p)
        assert 1.0 / e.p + 1.0 / e.q == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= e.t <= 0.25
        assert e.conjugate().conjugate().p == e.p

    @pytest.mark.parametrize("p", [1.0 + 1e-7, 1.05, 1.5, 2.0, 3.0, 1e3, 1e6])
    def test_kept_terms_follow_conjugation(self, p):
        e = Exponent(p)
        before = (e == Exponent(p), hash(e), repr(e))
        early = e.conjugate()  # made before e keeps its terms
        terms = e._side_terms()
        assert terms == tuple((math.lgamma(3.0 / x), -math.lgamma(1.0 / x)) for x in (e.p, e.q))
        assert (e == Exponent(p), hash(e), repr(e)) == before
        assert e.conjugate().conjugate()._side_terms() == terms
        assert e.conjugate()._side_terms() == early._side_terms() == terms[::-1]


class TestDimension:
    @pytest.mark.parametrize("n", [0, -1, 2.5, MAX_DIMENSION + 1, math.inf, -math.inf])
    def test_rejects(self, n):
        with pytest.raises(ValueError):
            check_dimension(n)

    def test_accepts_bounds(self):
        assert check_dimension(1) == 1
        assert check_dimension(MAX_DIMENSION) == MAX_DIMENSION

    @pytest.mark.parametrize(
        "n", [1, 7, MAX_DIMENSION, True, np.int64(3), 2.0, 0, -1, MAX_DIMENSION + 1, 2.5, math.inf, math.nan, "3"]
    )
    def test_int_fast_path_changes_no_result(self, n):
        # every input gives the value and type, or the ValueError text, of the
        # checks made without the exact-int shortcut: every input through _whole
        def whole(x):
            try:
                if x == int(x):
                    return int(x)
            except (OverflowError, ValueError):
                pass
            raise ValueError(f"dimension must be an integer, got {x!r}")

        def slow_path(x):
            x = whole(x)
            if x < 1:
                raise ValueError(f"dimension must be >= 1, got {x}")
            if x > MAX_DIMENSION:
                raise ValueError(f"dimension {x} exceeds the supported cap {MAX_DIMENSION}")
            return x

        try:
            expected = slow_path(n)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                check_dimension(n)
            assert str(got.value) == str(exc)
        else:
            got = check_dimension(n)
            assert (got, type(got)) == (expected, type(expected))


class TestVolume:
    def test_unit_disk_area(self):
        assert volume(2, 2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_cube(self):
        assert volume(3, math.inf) == 8.0

    def test_cross_polytope(self):
        assert volume(4, 1.0) == 2.0 / 3.0

    def test_endpoints_exact_up_to_20(self):
        for n in range(1, 21):
            assert volume(n, math.inf) == 2.0**n
            assert volume(n, 1.0) == (2**n) / math.factorial(n)

    def test_endpoint_continuity(self):
        for n in (1, 2, 5, 20):
            assert volume(n, 1e6) == pytest.approx(2.0**n, rel=1e-3)
            assert second_moment_integral(n, 1e6) == pytest.approx((2.0**n) / 3.0, rel=1e-3)

    def test_large_dimension_underflow_is_graceful(self):
        assert volume(100, 2.0) == pytest.approx(math.pi**50 / math.gamma(51.0), rel=1e-11)
        assert volume(10**6, 2.0) == 0.0  # true value is below the float range
        # beyond the exact factorial ratios p = 1 takes the general route
        for n, p in ((301, 1.0), (10**6, 1.0)):
            assert volume(n, p) == 0.0
            assert second_moment_integral(n, p) == 0.0

    @pytest.mark.parametrize("n,p", [(1024, math.inf), (2000, 1e6), (10**6, math.inf)])
    def test_large_dimension_overflow_is_inf(self, n, p):
        # true values above the float range read inf, as those below read 0.0
        assert volume(n, p) == math.inf
        expected = 2**1024 / 3 if n == 1024 else math.inf  # 2^1024/3 still fits
        assert second_moment_integral(n, p) == expected


class TestSecondMoment:
    def test_cube_value(self):
        assert second_moment_integral(3, math.inf) == (2.0**3) / 3.0

    def test_cross_polytope_value(self):
        assert second_moment_integral(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_interval_any_p(self):
        # B_p^1 = [-1, 1] regardless of p
        for p in (1.0, 1.5, 2.0, 7.0, math.inf):
            assert second_moment_integral(1, p) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_endpoint_exact(self):
        for n in range(1, 21):
            assert second_moment_integral(n, 1.0) == (2 ** (n + 1)) / math.factorial(n + 2)

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    @pytest.mark.parametrize("p", [1.3, 2.0, 3.7])
    def test_dimensional_recursion_consistency(self, n, p):
        # recompute with the (n-1)-volume expanded into gamma form; the
        # intermediate gamma factor cancels in exact arithmetic
        expanded = math.exp(
            math.log(2.0 / p)
            + (n - 1) * (LN2 + ln_gamma(1.0 + 1.0 / p))
            + ln_gamma(3.0 / p)
            - ln_gamma(1.0 + (n + 2) / p)
        )
        assert second_moment_integral(n, p) == pytest.approx(expanded, rel=1e-12)


class TestNormalizedSecondMoment:
    def test_interval(self):
        assert normalized_second_moment(1, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_cube_attains_the_cap(self):
        assert normalized_second_moment(3, math.inf) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_range(self):
        for n in (1, 2, 3, 7, 20):
            for p in (1.0, 1.2, 2.0, 5.0, math.inf):
                v = normalized_second_moment(n, p)
                assert 0.0 < v <= 1.0 / 3.0 + 1e-15

    def test_matches_ratio_of_parts(self):
        for n, p in [(3, 1.5), (7, 2.5), (2, 1.0)]:
            ratio = second_moment_integral(n, p) / volume(n, p)
            assert normalized_second_moment(n, p) == pytest.approx(ratio, rel=1e-12)

    def test_kept_exponent_terms_change_no_bit(self):
        # one reused Exponent against a fresh one per call, and against the
        # four ln Gamma values summed directly
        for p in (1.0, 1.0 + 1e-7, 1.05, 1.5, 2.0, 3.0, 1e3, 1e6, math.inf):
            e = Exponent(p)
            for n in (1, 2, 7, 100, 10**3, 10**6):
                got = normalized_second_moment(n, e)
                assert got.hex() == normalized_second_moment(n, p).hex()
                if 1.0 < e.p < math.inf:
                    lg = math.lgamma
                    direct = math.exp(lg(3.0 / e.p) + lg(1.0 + n / e.p) - lg(1.0 / e.p) - lg(1.0 + (n + 2) / e.p))
                    assert got.hex() == direct.hex()
