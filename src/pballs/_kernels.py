"""The inner-loop kernels, in plain Python.

Each series kernel evaluates the terms of a contiguous index range
[k_lo, k_hi] and returns (sum of the terms, sum of their sizes), the
truncation driver's head and its rounding scale.  Each term is the printed
expression, its operations in the printed order, and the range is summed
from k_hi down to k_lo, the smallest terms first.  The driver asks for each
term once, in two calls: its head, then the terms up to twice the head.
Those cover a few dozen indices, more only for a gamma-ratio head past many
negative factors; no call holds more than a few floats at once.
``ineq3_min``, the float minimum of the per-term polynomial, has no caller
in the package (``moments`` proves the inequality exactly); it stays only
because the benchmark's tracer names it.
"""

from __future__ import annotations

import math


def moment_product_log(n: float, t: float, k_lo: int, k_hi: int) -> tuple[float, float]:
    """The sum of the log factors k_lo..k_hi of the g_k ratio product, and its size.

    Factor k is g_k(1,t)*g_k(n+2,t) / (g_k(3,t)*g_k(n,t)) with
    g_k(m,t) = k^2 + m*k + m^2*t.  The numerator-minus-denominator
    collapses to -2(n-1)*((1-2t)k^2 + (n+3)t k + 2(2n+1)t^2), which keeps
    the per-factor log free of cancellation and exactly zero at n=1.
    Every factor is at most 1 for t <= 1/2, so every term is <= 0 and the
    sizes sum to -total exactly.
    """
    nine_t, nnt = 9.0 * t, n * n * t
    scale, c2, c1, c0 = -2.0 * (n - 1.0), 1.0 - 2.0 * t, (n + 3.0) * t, 2.0 * (2.0 * n + 1.0) * t * t
    log1p = math.log1p
    total = 0.0
    for k in map(float, range(k_hi, k_lo - 1, -1)):
        den = (k * k + 3.0 * k + nine_t) * (k * k + n * k + nnt)
        total += log1p(scale * (c2 * k * k + c1 * k + c0) / den)
    return total, -total


def gamma_ratio_log(x: float, a: float, k_lo: int, k_hi: int) -> tuple[float, float]:
    """The sum of the log|factor| terms k_lo..k_hi of the gamma-ratio product, and its size.

    Factor k is k*(k+x-1) / ((k-a)*(k+x+a-1)); numerator minus denominator
    is the constant a*(x+a-1), so the log is log1p of their ratio while
    that is small and the denominator positive.  Factors can be negative
    for small k when x+a < 0; their sign is the caller's to recover.  A
    zero denominator gives an infinite term.
    """
    shift = a * (x + a - 1.0)
    log, log1p = math.log, math.log1p
    total = size = 0.0
    for k in map(float, range(k_hi, k_lo - 1, -1)):
        den = (k - a) * (k + x + a - 1.0)
        r = shift / den if den > 0.0 else 1.0
        if abs(r) < 0.5:
            term = log1p(r)
        else:
            term = log(abs((k * (k + x - 1.0)) / den)) if den else math.inf
        total += term
        size += abs(term)
    return total, size


def sign_series_sum(n: float, t: float, k_lo: int, k_hi: int) -> tuple[float, float]:
    """The sum of the terms k_lo..k_hi of the t-derivative series of the log product, and its size.

    Term k is 1/g_k(1) + (n+2)^2/g_k(n+2) - 9/g_k(3) - n^2/g_k(n),
    regrouped as (n-1)*[((n+5)k^2+3(n+2)k)/(g3*g_{n+2})
    - ((n+1)k^2+nk)/(g1*g_n)] so that n=1 yields exact zeros.
    """
    m = n + 2.0
    nnt, mmt, nine_t = n * n * t, m * m * t, 9.0 * t
    n5, m3, n1, scale = n + 5.0, 3.0 * m, n + 1.0, n - 1.0
    total = size = 0.0
    for k in map(float, range(k_hi, k_lo - 1, -1)):
        kk = k * k
        g1 = kk + k + t
        g3 = kk + 3.0 * k + nine_t
        gn = kk + n * k + nnt
        gm = kk + m * k + mmt
        term = scale * ((n5 * k * k + m3 * k) / (g3 * gm) - (n1 * k * k + n * k) / (g1 * gn))
        total += term
        size += abs(term)
    return total, size


def ineq3_min(n: float, t: float, k_lo: int, k_hi: int):
    """Minimum over k of the printed per-term positivity polynomial.

    Evaluates n^2*g3*g_{n+2}*(g_n - g_1) + g_n*((n+2)^2*g_1*g_3 - 9*g_{n+2})
    with the printed operations in the printed order, and reports its
    minimum and the first k where it occurs.

    Returns (min_value, argmin_k).
    """
    m = n + 2.0
    nn, mm, nnt, mmt, nine_t = n * n, m * m, n * n * t, m * m * t, 9.0 * t
    best, arg = math.inf, k_lo
    for j in range(k_lo, k_hi + 1):
        k = float(j)
        kk = k * k
        g1 = kk + k + t
        g3 = kk + 3.0 * k + nine_t
        gn = kk + n * k + nnt
        gm = kk + m * k + mmt
        val = nn * g3 * gm * (gn - g1) + gn * (mm * g1 * g3 - 9.0 * gm)
        if val < best:
            best, arg = val, j
    return best, arg
