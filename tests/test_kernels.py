"""The inner-loop kernels against direct pure-Python reference loops."""

import math

import pytest

from pballs import _kernels as kernels


def _g(k, m, t):
    return k * k + m * k + m * m * t


def ref_moment_product_log(n, t, k_lo, k_hi):
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        num = _g(k, 1.0, t) * _g(k, n + 2.0, t)
        den = _g(k, 3.0, t) * _g(k, n, t)
        total += math.log(num / den)
    return total


def ref_gamma_ratio_log(x, a, k_lo, k_hi):
    total = size = 0.0
    for k in range(k_lo, k_hi + 1):
        term = math.log(abs((k * (k + x - 1.0)) / ((k - a) * (k + x + a - 1.0))))
        total += term
        size += abs(term)
    return total, size


def ref_sign_series(n, t, k_lo, k_hi):
    total = 0.0
    for k in range(k_lo, k_hi + 1):
        total += (
            1.0 / _g(k, 1.0, t)
            + (n + 2.0) ** 2 / _g(k, n + 2.0, t)
            - 9.0 / _g(k, 3.0, t)
            - n * n / _g(k, n, t)
        )
    return total


def ref_ineq3(k, n, t):
    g1, g3 = _g(k, 1.0, t), _g(k, 3.0, t)
    gn, gm = _g(k, n, t), _g(k, n + 2.0, t)
    return n * n * g3 * gm * (gn - g1) + gn * ((n + 2.0) ** 2 * g1 * g3 - 9.0 * gm)


class TestAgainstDirectReference:
    def test_moment_product_log(self):
        for n, t in [(2.0, 0.1), (7.0, 0.25), (50.0, 0.01)]:
            got, size = kernels.moment_product_log(n, t, 1, 500)
            assert got == pytest.approx(ref_moment_product_log(n, t, 1, 500), rel=1e-11, abs=1e-13)
            assert got < 0.0 and size == -got

    def test_gamma_ratio_log(self):
        for x, a in [(1.0, 0.5), (0.1, -0.9), (10.0, 0.9), (2.0, -0.5)]:
            got, size = kernels.gamma_ratio_log(x, a, 1, 500)
            ref, ref_size = ref_gamma_ratio_log(x, a, 1, 500)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-13)
            assert size == pytest.approx(ref_size, rel=1e-11, abs=1e-13)

    def test_sign_series_sum(self):
        for n, t in [(1.0, 0.2), (2.0, 0.25), (10.0, 0.05)]:
            got, abs_sum, mn = kernels.sign_series_sum(n, t, 1, 400)
            assert got == pytest.approx(ref_sign_series(n, t, 1, 400), rel=1e-9, abs=1e-12)
            assert abs_sum >= abs(got) - 1e-15
            assert mn <= got or n == 1.0

    def test_sign_series_exact_zero_at_n1(self):
        got, abs_sum, mn = kernels.sign_series_sum(1.0, 0.17, 1, 1000)
        assert got == 0.0
        assert abs_sum == 0.0
        assert mn == 0.0

    def test_ineq3_min(self):
        mn, arg = kernels.ineq3_min(2.0, 0.25, 1, 200)
        ref = min((ref_ineq3(k, 2.0, 0.25), k) for k in range(1, 201))
        assert mn == pytest.approx(ref[0], rel=1e-12)
        assert arg == ref[1]

    def test_empty_ranges(self):
        assert kernels.moment_product_log(2.0, 0.1, 5, 4) == (0.0, 0.0)
        assert kernels.gamma_ratio_log(1.0, 0.5, 5, 4) == (0.0, 0.0)
        total, abs_sum, mn = kernels.sign_series_sum(2.0, 0.1, 5, 4)
        assert (total, abs_sum) == (0.0, 0.0)
        assert math.isinf(mn)
        mn, _ = kernels.ineq3_min(2.0, 0.1, 5, 4)
        assert math.isinf(mn)
