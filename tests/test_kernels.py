"""The inner-loop kernels against direct pure-Python reference loops, and
the truncated routes' values pinned bit for bit."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pballs import _kernels as kernels
from pballs.gamma_core import gamma_ratio_product
from pballs.moments import Sign, derivative_sign_series, f_product
from pballs.verify import SIGN_T_GRID, SUITE_NAMES

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
            got, abs_sum = kernels.sign_series_sum(n, t, 1, 400)
            mn = min(kernels.sign_series_sum(n, t, k, k)[0] for k in range(1, 401))
            assert got == pytest.approx(ref_sign_series(n, t, 1, 400), rel=1e-9, abs=1e-12)
            assert abs_sum >= abs(got) - 1e-15
            assert mn <= got or n == 1.0

    def test_sign_series_sum_is_the_printed_expression_bit_for_bit(self):
        # each one-term range against the regrouped terms evaluated as
        # NumPy arrays, operation for operation; a range's sum starts at 0.0,
        # so a -0.0 term sums to 0.0 and every other term to itself
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
                got = [kernels.sign_series_sum(n, t, j, j)[0] for j in range(1, 10_001)]
                assert np.array(got).tobytes() == (0.0 + terms).tobytes()

    def test_sign_series_sum_peak_memory(self):
        # a call holds a few floats at once, however long its range
        tracemalloc.start()
        try:
            kernels.sign_series_sum(1e5, 1e-9, 1, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4096

    def test_sign_series_exact_zero_at_n1(self):
        # a zero size makes every term zero
        got, abs_sum = kernels.sign_series_sum(1.0, 0.17, 1, 1000)
        assert got == 0.0
        assert abs_sum == 0.0

    def test_negative_first_term_under_a_positive_sum(self):
        # the sign is the sum's: at the self-dual point of n = 2 the k = 1
        # term is negative, yet df/dt > 0
        assert kernels.sign_series_sum(2.0, 0.25, 1, 1)[0] < 0.0
        assert derivative_sign_series(2, 0.25).sign is Sign.POSITIVE

    def test_ineq3_min(self):
        mn, arg = kernels.ineq3_min(2.0, 0.25, 1, 200)
        ref = min((ref_ineq3(k, 2.0, 0.25), k) for k in range(1, 201))
        assert mn == pytest.approx(ref[0], rel=1e-12)
        assert arg == ref[1]

    def test_ineq3_min_is_the_printed_expression_bit_for_bit(self):
        # the in-place kernel against the printed polynomial evaluated out of
        # place, operation for operation, over the grid the scan was pinned on
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
        for kernel in (kernels.moment_product_log, kernels.gamma_ratio_log, kernels.sign_series_sum):
            assert kernel(2.0, 0.1, 5, 4) == (0.0, 0.0)
        mn, _ = kernels.ineq3_min(2.0, 0.1, 5, 4)
        assert math.isinf(mn)


# the truncated routes' inputs, then their value, bound and terms (or stop), pinned as hex
F_PRODUCT_PINS = [
    (2, 1.5, "0x1.fc1ace46a291ep-4", "0x1.709233cc7b8fap-46", 64),
    (5, 1.01, "0x1.4bf0f6c3dbd28p-4", "0x1.0bc2ebaacea2bp-46", 64),
    (20, 2.5, "0x1.50ba839c315ddp-5", "0x1.36c9956dba94fp-47", 64),
    (1000, 1.3, "0x1.f2bd967223dd3p-11", "0x1.34a49db6173b0p-52", 64),
    (10**6, 10.0, "0x1.d385f9e658c04p-21", "0x1.85c2cfcb57188p-62", 64),
]
SIGN_SERIES_PINS = [
    (1, 0.2, "0x0.0p+0", "0x1.2e1b577cae2fep-48", 64),
    (2, 0.1, "0x1.f55a25ff03f6cp-2", "0x1.0b564218297cdp-46", 64),
    (7, 0.25, "0x1.ec5315ad67886p-2", "0x1.004eedd8e1b1fp-44", 64),
    (50, 0.001, "0x1.8e6c053d894eap+2", "0x1.9cee3eed89420p-41", 64),
    (10**5, 1e-9, "0x1.5adfd2d091b39p+4", "0x1.88313fba855d3p-27", 64),
]
GAMMA_RATIO_PINS = [
    (1.0, 0.5, "0x1.921fb54442d19p+0", "0x1.9845007b1b7f0p-45", "tolerance"),
    (0.1, -0.9, "-0x1.2907d398ff22bp-1", "0x1.3c16be7e6ed70p-43", "tolerance"),
    (10.0, 0.9, "0x1.2cef5a2dcad58p+6", "0x1.23fcf3d1f62cbp-43", "tolerance"),
    (0.3, -2.5, "-0x1.398a0c27ac580p+1", "0x1.6ecd8603d33a2p-42", "tolerance"),
]

# Prints the pinned routes' values as hex, then each deterministic suite's
# stdout, in any process that runs it
ROUTE_BITS_SCRIPT = f"""
from pballs import cli, verify
from pballs.gamma_core import gamma_ratio_product
from pballs.moments import derivative_sign_series, f_product

for n, p in {[pin[:2] for pin in F_PRODUCT_PINS]}:
    out = f_product(n, p)
    print(out.value.hex(), out.error_estimate.hex(), out.terms_used)
for n, t in {[pin[:2] for pin in SIGN_SERIES_PINS]}:
    out = derivative_sign_series(n, t)
    print(out.series_value.hex(), out.tail_bound.hex(), out.terms_used)
for x, a in {[pin[:2] for pin in GAMMA_RATIO_PINS]}:
    out = gamma_ratio_product(x, a)
    print(out.value.hex(), out.tail_bound.hex(), out.stop)
for suite in verify.SUITE_NAMES:
    if suite not in ("mc", "all"):
        cli.main(["verify", suite])
"""


class TestFusedDriverBits:
    """Values of the three truncated routes, pinned as hex.

    Each kernel sums the range the driver asks for from its last term down,
    in plain floats, so no value depends on NumPy's SIMD dispatch.  Every
    call sums one head and its confirming terms: 64 terms, or two per
    negative factor more in the gamma-ratio rows with x + a < 0.
    """

    @pytest.mark.parametrize("n,p,value,error,terms", F_PRODUCT_PINS)
    def test_f_product(self, n, p, value, error, terms):
        out = f_product(n, p)
        assert (out.value.hex(), out.error_estimate.hex(), out.terms_used) == (value, error, terms)

    @pytest.mark.parametrize("n,t,value,bound,terms", SIGN_SERIES_PINS)
    def test_derivative_sign_series(self, n, t, value, bound, terms):
        out = derivative_sign_series(n, t)
        got = (out.series_value.hex(), out.tail_bound.hex(), out.terms_used)
        assert got == (value, bound, terms)

    @pytest.mark.parametrize("x,a,value,bound,stop", GAMMA_RATIO_PINS)
    def test_gamma_ratio_product(self, x, a, value, bound, stop):
        out = gamma_ratio_product(x, a)
        assert (out.value.hex(), out.tail_bound.hex(), out.stop) == (value, bound, stop)

    def test_bits_do_not_depend_on_numpy_simd_dispatch(self):
        # the same values and suite bytes with NumPy's AVX-512 loops switched
        # off in a fresh process; NumPy ignores feature names the host lacks
        in_process = io.StringIO()
        with contextlib.redirect_stdout(in_process):
            exec(ROUTE_BITS_SCRIPT, {})
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        }
        out = subprocess.run(
            [sys.executable, "-c", ROUTE_BITS_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == in_process.getvalue()
        assert out.stdout.count("OVERALL: PASS") == len(SUITE_NAMES) - 2
