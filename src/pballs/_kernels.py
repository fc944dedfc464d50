"""The inner-loop kernels, in NumPy.

Each function sums or scans a contiguous index range [k_lo, k_hi] in one
vectorized pass.  The truncation driver asks for a few dozen indices per
call (its head), and more only when a tolerance below the rounding floor
sends it to the budget.
"""

from __future__ import annotations

import numpy as np


def _krange(k_lo: int, k_hi: int) -> np.ndarray:
    return np.arange(k_lo, k_hi + 1, dtype=np.float64)


def _quadratics(n: float, t: float, k: np.ndarray):
    """g_k(m,t) = k^2 + m*k + m^2*t at m = 1, 3, n, n+2."""
    m = n + 2.0
    return (
        k * k + k + t,
        k * k + 3.0 * k + 9.0 * t,
        k * k + n * k + n * n * t,
        k * k + m * k + m * m * t,
    )


def moment_product_log(n: float, t: float, k_lo: int, k_hi: int):
    """Sum of log factors of the g_k ratio product.

    Factor k is g_k(1,t)*g_k(n+2,t) / (g_k(3,t)*g_k(n,t)) with
    g_k(m,t) = k^2 + m*k + m^2*t.  The numerator-minus-denominator
    collapses to -2(n-1)*((1-2t)k^2 + (n+3)t k + 2(2n+1)t^2), which keeps
    the per-factor log free of cancellation and exactly zero at n=1.
    Every factor is at most 1 for t <= 1/2, so |log_sum| is also the sum
    of the terms' sizes.

    Returns (log_sum, abs_log_sum).
    """
    k = _krange(k_lo, k_hi)
    den = (k * k + 3.0 * k + 9.0 * t) * (k * k + n * k + n * n * t)
    diff = -2.0 * (n - 1.0) * (
        (1.0 - 2.0 * t) * k * k + (n + 3.0) * t * k + 2.0 * (2.0 * n + 1.0) * t * t
    )
    total = float(np.log1p(diff / den).sum())
    return total, abs(total)


def gamma_ratio_log(x: float, a: float, k_lo: int, k_hi: int):
    """Sum of log|factor| for the gamma-ratio product.

    Factor k is k*(k+x-1) / ((k-a)*(k+x+a-1)); numerator minus denominator
    is the constant a*(x+a-1).  Factors can be negative for small k when
    x+a < 0; their sign is the caller's to recover.

    Returns (log_abs_sum, abs_log_sum), the second the sum of the terms' sizes.
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
    return float(logs.sum()), float(np.abs(logs).sum())


def sign_series_sum(n: float, t: float, k_lo: int, k_hi: int):
    """Partial sum of the t-derivative series of the log product.

    Term k is 1/g_k(1) + (n+2)^2/g_k(n+2) - 9/g_k(3) - n^2/g_k(n),
    regrouped as (n-1)*[((n+5)k^2+3(n+2)k)/(g3*g_{n+2})
    - ((n+1)k^2+nk)/(g1*g_n)] so that n=1 yields exact zeros.

    Returns (sum, abs_sum, min_term).
    """
    if k_hi < k_lo:
        return 0.0, 0.0, np.inf
    k = _krange(k_lo, k_hi)
    m = n + 2.0
    g1, g3, gn, gm = _quadratics(n, t, k)
    terms = (n - 1.0) * (
        ((n + 5.0) * k * k + 3.0 * m * k) / (g3 * gm)
        - ((n + 1.0) * k * k + n * k) / (g1 * gn)
    )
    return float(terms.sum()), float(np.abs(terms).sum()), float(terms.min())


def ineq3_min(n: float, t: float, k_lo: int, k_hi: int):
    """Minimum over k of the printed per-term positivity polynomial.

    Evaluates n^2*g3*g_{n+2}*(g_n - g_1) + g_n*((n+2)^2*g_1*g_3 - 9*g_{n+2})
    exactly as written and reports its minimum and where it occurs.

    Returns (min_value, argmin_k).
    """
    if k_hi < k_lo:
        return np.inf, k_lo
    k = _krange(k_lo, k_hi)
    m = n + 2.0
    g1, g3, gn, gm = _quadratics(n, t, k)
    vals = n * n * g3 * gm * (gn - g1) + gn * (m * m * g1 * g3 - 9.0 * gm)
    i = int(vals.argmin())
    return float(vals[i]), k_lo + i
