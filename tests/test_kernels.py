"""The inner-loop kernels against direct pure-Python reference loops, and
the truncated routes' values pinned bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest

from pballs import _kernels as kernels
from pballs.gamma_core import MAX_TERMS, gamma_ratio_product
from pballs.moments import derivative_sign_series, f_product
from pballs.verify import SIGN_T_GRID

# the t grid the per-term scan was pinned on
INEQ3_T_GRID = (0.01, 0.25, 1.0, 10.0)


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
            terms = kernels.moment_product_log(n, t, 1, 500)
            got, size = terms.sum(), np.abs(terms).sum()
            assert got == pytest.approx(ref_moment_product_log(n, t, 1, 500), rel=1e-11, abs=1e-13)
            assert got < 0.0 and size == -got

    def test_gamma_ratio_log(self):
        for x, a in [(1.0, 0.5), (0.1, -0.9), (10.0, 0.9), (2.0, -0.5)]:
            terms = kernels.gamma_ratio_log(x, a, 1, 500)
            got, size = terms.sum(), np.abs(terms).sum()
            ref, ref_size = ref_gamma_ratio_log(x, a, 1, 500)
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-13)
            assert size == pytest.approx(ref_size, rel=1e-11, abs=1e-13)

    def test_sign_series_sum(self):
        for n, t in [(1.0, 0.2), (2.0, 0.25), (10.0, 0.05)]:
            terms = kernels.sign_series_sum(n, t, 1, 400)
            got, abs_sum, mn = terms.sum(), np.abs(terms).sum(), terms.min()
            assert got == pytest.approx(ref_sign_series(n, t, 1, 400), rel=1e-9, abs=1e-12)
            assert abs_sum >= abs(got) - 1e-15
            assert mn <= got or n == 1.0

    def test_sign_series_sum_is_the_printed_expression_bit_for_bit(self):
        # the in-place kernel against the regrouped terms evaluated out of
        # place, operation for operation
        k = np.arange(1, 10_001, dtype=np.float64)
        for n in (1.0, 2.0, 20.0, 1e5):
            m = n + 2.0
            for t in SIGN_T_GRID:
                g1 = k * k + k + t
                g3 = k * k + 3.0 * k + 9.0 * t
                gn = k * k + n * k + n * n * t
                gm = k * k + m * k + m * m * t
                terms = (n - 1.0) * (
                    ((n + 5.0) * k * k + 3.0 * m * k) / (g3 * gm)
                    - ((n + 1.0) * k * k + n * k) / (g1 * gn)
                )
                got = kernels.sign_series_sum(n, t, 1, 10_000)
                assert got.tobytes() == terms.tobytes()

    def test_sign_series_sum_peak_memory(self):
        # a budget-path call holds at most six arrays of its range at once
        # (the quadratics' four, k and k*k); the slack is the arrays' headers
        terms = 500_000
        tracemalloc.start()
        try:
            kernels.sign_series_sum(1e5, 1e-9, 1, terms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * terms + 4096

    def test_sign_series_exact_zero_at_n1(self):
        terms = kernels.sign_series_sum(1.0, 0.17, 1, 1000)
        got, abs_sum, mn = terms.sum(), np.abs(terms).sum(), terms.min()
        assert got == 0.0
        assert abs_sum == 0.0
        assert mn == 0.0

    def test_ineq3_min(self):
        mn, arg = kernels.ineq3_min(2.0, 0.25, 1, 200)
        ref = min((ref_ineq3(k, 2.0, 0.25), k) for k in range(1, 201))
        assert mn == pytest.approx(ref[0], rel=1e-12)
        assert arg == ref[1]

    def test_ineq3_min_is_the_printed_expression_bit_for_bit(self):
        # the in-place kernel against the printed polynomial evaluated out of
        # place, operation for operation, over the verify suite's own grid
        k = np.arange(1, 10_001, dtype=np.float64)
        for n in range(2, 51):
            n = float(n)
            m = n + 2.0
            for t in INEQ3_T_GRID:
                g1 = k * k + k + t
                g3 = k * k + 3.0 * k + 9.0 * t
                gn = k * k + n * k + n * n * t
                gm = k * k + m * k + m * m * t
                vals = n * n * g3 * gm * (gn - g1) + gn * (m * m * g1 * g3 - 9.0 * gm)
                i = int(vals.argmin())
                assert kernels.ineq3_min(n, t, 1, 10_000) == (float(vals[i]), 1 + i)

    def test_empty_ranges(self):
        for terms in (kernels.moment_product_log(2.0, 0.1, 5, 4), kernels.gamma_ratio_log(1.0, 0.5, 5, 4)):
            assert (terms.sum(), np.abs(terms).sum()) == (0.0, 0.0)
        terms = kernels.sign_series_sum(2.0, 0.1, 5, 4)
        total, abs_sum, mn = terms.sum(), np.abs(terms).sum(), terms.min(initial=math.inf)
        assert (total, abs_sum) == (0.0, 0.0)
        assert math.isinf(mn)
        mn, _ = kernels.ineq3_min(2.0, 0.1, 5, 4)
        assert math.isinf(mn)


class TestFusedDriverBits:
    """Values of the three truncated routes, pinned as hex at a kernel that summed its own range.

    The driver now sums slices of the terms it evaluated one doubling step
    ahead; each slice holds the same terms and is summed alone, so every
    bit is unchanged.  The n = 10**5, t = 1e-9 sign series takes the budget
    path and sums all MAX_TERMS terms.
    """

    @pytest.mark.parametrize(
        "n,p,value,error,terms",
        [
            (2, 1.5, "0x1.fc1ace46a291ep-4", "0x1.709233cc7b8fap-46", 64),
            (5, 1.01, "0x1.4bf0f6c3dbd26p-4", "0x1.0bc2ebaacea2ap-46", 64),
            (20, 2.5, "0x1.50ba839c315ddp-5", "0x1.36c9956dba94fp-47", 64),
            (1000, 1.3, "0x1.f2bd967223de2p-11", "0x1.34a49db6173b9p-52", 64),
            (10**6, 10.0, "0x1.d385f9e658c04p-21", "0x1.85c2cfcb57188p-62", 64),
        ],
    )
    def test_f_product(self, n, p, value, error, terms):
        out = f_product(n, p)
        assert (out.value.hex(), out.error_estimate.hex(), out.terms_used) == (value, error, terms)

    @pytest.mark.parametrize(
        "n,t,value,bound,terms,positive",
        [
            (1, 0.2, "0x0.0p+0", "0x1.2e1b577cae2fep-48", 64, False),
            (2, 0.1, "0x1.f55a25ff03f6bp-2", "0x1.0b564218297ccp-46", 64, False),
            (7, 0.25, "0x1.ec5315ad67888p-2", "0x1.004eedd8e1b1fp-44", 64, False),
            (50, 0.001, "0x1.8e6c053d894eap+2", "0x1.9cee3eed89420p-41", 64, True),
            (10**5, 1e-9, "0x1.5adfd2d091d8cp+4", "0x1.63c92bc110316p-29", MAX_TERMS, True),
        ],
    )
    def test_derivative_sign_series(self, n, t, value, bound, terms, positive):
        out = derivative_sign_series(n, t)
        got = (out.series_value.hex(), out.tail_bound.hex(), out.terms_used, out.all_terms_positive)
        assert got == (value, bound, terms, positive)

    @pytest.mark.parametrize(
        "x,a,value,bound,stop",
        [
            (1.0, 0.5, "0x1.921fb54442d1ap+0", "0x1.9845007b1b7f0p-45", "tolerance"),
            (0.1, -0.9, "-0x1.2907d398ff226p-1", "0x1.38bc22db0819ep-43", "tolerance"),
            (10.0, 0.9, "0x1.2cef5a2dcad4fp+6", "0x1.23fcf3d1f62cap-43", "tolerance"),
            (0.3, -2.5, "-0x1.398a0c27ac58cp+1", "0x1.646d1efc44ae4p-42", "tolerance"),
        ],
    )
    def test_gamma_ratio_product(self, x, a, value, bound, stop):
        out = gamma_ratio_product(x, a)
        assert (out.value.hex(), out.tail_bound.hex(), out.stop) == (value, bound, stop)
