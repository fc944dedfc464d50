"""The inner-loop kernels, in NumPy.

Each function evaluates a contiguous index range [k_lo, k_hi] in one
vectorized pass.  The three series kernels return the terms k_lo..k_hi
themselves; the truncation driver sums them, and asks for each term once,
one doubling step ahead of the head it sums (so a few dozen indices per
call, more only when a tolerance below the rounding floor sends it to the
budget).  ``sign_series_sum`` and ``ineq3_min`` work in place on the
quadratics' buffers, which keeps the budget path's peak memory at six
arrays of the range.  ``ineq3_min``, the float minimum of the per-term
polynomial, has no caller in the package (``moments`` proves the
inequality exactly); it stays only because the benchmark's tracer names it.
"""

from __future__ import annotations

import numpy as np


def _krange(k_lo: int, k_hi: int) -> np.ndarray:
    return np.arange(k_lo, k_hi + 1, dtype=np.float64)


def _quadratics(n: float, t: float, k: np.ndarray):
    """g_k(m,t) = k^2 + m*k + m^2*t at m = 1, 3, n, n+2, each a new array.

    k*k is computed once; each g_k is (k*k + m*k) + m^2*t, added in that
    order in place.
    """
    kk = k * k
    out = []
    for c in (1.0, 3.0, n, n + 2.0):
        g = np.multiply(c, k)
        g += kk
        g += c * c * t
        out.append(g)
    return tuple(out)


def moment_product_log(n: float, t: float, k_lo: int, k_hi: int) -> np.ndarray:
    """The log factors k_lo..k_hi of the g_k ratio product.

    Factor k is g_k(1,t)*g_k(n+2,t) / (g_k(3,t)*g_k(n,t)) with
    g_k(m,t) = k^2 + m*k + m^2*t.  The numerator-minus-denominator
    collapses to -2(n-1)*((1-2t)k^2 + (n+3)t k + 2(2n+1)t^2), which keeps
    the per-factor log free of cancellation and exactly zero at n=1.
    Every factor is at most 1 for t <= 1/2, so every term is <= 0.
    """
    k = _krange(k_lo, k_hi)
    den = (k * k + 3.0 * k + 9.0 * t) * (k * k + n * k + n * n * t)
    diff = -2.0 * (n - 1.0) * (
        (1.0 - 2.0 * t) * k * k + (n + 3.0) * t * k + 2.0 * (2.0 * n + 1.0) * t * t
    )
    return np.log1p(diff / den)


def gamma_ratio_log(x: float, a: float, k_lo: int, k_hi: int) -> np.ndarray:
    """The log|factor| terms k_lo..k_hi of the gamma-ratio product.

    Factor k is k*(k+x-1) / ((k-a)*(k+x+a-1)); numerator minus denominator
    is the constant a*(x+a-1).  Factors can be negative for small k when
    x+a < 0; their sign is the caller's to recover.
    """
    k = _krange(k_lo, k_hi)
    shift = a * (x + a - 1.0)
    den = (k - a) * (k + x + a - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = shift / den
        safe = (den > 0.0) & (np.abs(r) < 0.5)
        logs = np.where(safe, np.log1p(np.where(safe, r, 0.0)), 0.0)
    if not safe.all():
        rough = ~safe
        logs[rough] = np.log(np.abs((k[rough] * (k[rough] + x - 1.0)) / den[rough]))
    return logs


def sign_series_sum(n: float, t: float, k_lo: int, k_hi: int) -> np.ndarray:
    """The terms k_lo..k_hi of the t-derivative series of the log product.

    Term k is 1/g_k(1) + (n+2)^2/g_k(n+2) - 9/g_k(3) - n^2/g_k(n),
    regrouped as (n-1)*[((n+5)k^2+3(n+2)k)/(g3*g_{n+2})
    - ((n+1)k^2+nk)/(g1*g_n)] so that n=1 yields exact zeros.
    """
    # each operation is the printed one, in the printed order, in place on
    # the quadratics' buffers: at most six arrays of the range at once
    k = _krange(k_lo, k_hi)
    m = n + 2.0
    g1, g3, gn, gm = _quadratics(n, t, k)
    g3 *= gm  # the denominators; g_{n+2} and g_n are free from here on
    g1 *= gn
    # ((n+5)*k*k + 3*m*k) / (g3*g_{n+2}), in gm's buffer
    np.multiply(n + 5.0, k, out=gm)
    gm *= k
    gm += np.multiply(3.0 * m, k, out=gn)
    gm /= g3
    # ((n+1)*k*k + n*k) / (g1*g_n), in gn's buffer, with g3's as a temporary
    np.multiply(n + 1.0, k, out=gn)
    gn *= k
    gn += np.multiply(n, k, out=g3)
    gn /= g1
    gm -= gn
    gm *= n - 1.0
    return gm


def ineq3_min(n: float, t: float, k_lo: int, k_hi: int):
    """Minimum over k of the printed per-term positivity polynomial.

    Evaluates n^2*g3*g_{n+2}*(g_n - g_1) + g_n*((n+2)^2*g_1*g_3 - 9*g_{n+2})
    with the printed operations in the printed order, in place on the
    quadratics' buffers, and reports its minimum and where it occurs.

    Returns (min_value, argmin_k).
    """
    if k_hi < k_lo:
        return np.inf, k_lo
    k = _krange(k_lo, k_hi)
    m = n + 2.0
    g1, g3, gn, gm = _quadratics(n, t, k)
    # n^2*g3*g_{n+2}*(g_n - g_1), left to right
    vals = np.multiply(n * n, g3, out=k)
    vals *= gm
    vals *= gn - g1
    # g_n*((n+2)^2*g1*g3 - 9*g_{n+2}), the products commuted into g1's buffer
    g1 *= m * m
    g1 *= g3
    gm *= 9.0
    g1 -= gm
    g1 *= gn
    vals += g1
    i = int(vals.argmin())
    return float(vals[i]), k_lo + i
