"""Independent reference values of f(n, p), computed without pballs.

f(n, p) = n G(3/p)G(3/q)G(1+n/p)G(1+n/q) / [G(1/p)G(1/q)G(1+(n+2)/p)G(1+(n+2)/q)]
is evaluated with 40-digit ``mpmath.loggamma``, with q = p/(p-1) taken in
the same precision from the exact binary value of p.  The closed forms at
p in {1, inf} (2n/(3(n+1)(n+2))) and p = 2 (n/(n+2)^2) are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

DIGITS = 40


@dataclass(frozen=True)
class RefValue:
    """f(n, p) to 40 digits, with the scale of the closed form's log terms.

    log_scale is |ln n| plus the sum of |ln Gamma| over the closed form's
    eight gamma factors: the size of the numbers a double-precision
    evaluation of the closed form has to add up.  It is 0 at p in {1, inf},
    where the closed form degenerates to an exact rational.
    """

    exact: mpmath.mpf
    log_scale: float

    @property
    def value(self) -> float:
        return float(self.exact)


def endpoint_value(n: int) -> Fraction:
    """f(n, 1) = f(n, inf) = 2n / (3(n+1)(n+2))."""
    return Fraction(2 * n, 3 * (n + 1) * (n + 2))


def self_dual_value(n: int) -> Fraction:
    """f(n, 2) = n / (n+2)^2."""
    return Fraction(n, (n + 2) ** 2)


def _from_fraction(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _gamma_form(n: int, p) -> tuple[mpmath.mpf, float]:
    """The loggamma closed form at a finite p > 1 (an mpf or a float)."""
    p = mpmath.mpf(p)
    q = p / (p - 1)
    n = mpmath.mpf(n)
    num = [3 / p, 3 / q, 1 + n / p, 1 + n / q]
    den = [1 / p, 1 / q, 1 + (n + 2) / p, 1 + (n + 2) / q]
    ln_num = [mpmath.loggamma(a) for a in num]
    ln_den = [mpmath.loggamma(a) for a in den]
    log_f = mpmath.log(n) + mpmath.fsum(ln_num) - mpmath.fsum(ln_den)
    scale = abs(mpmath.log(n)) + mpmath.fsum(abs(v) for v in ln_num + ln_den)
    return mpmath.exp(log_f), float(scale)


def f_reference(n: int, p: float) -> RefValue:
    """f(n, p) for an integer n >= 1 and a float p in [1, inf]."""
    n = int(n)
    p = float(p)
    if not (n >= 1 and p >= 1.0):
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    with mpmath.workdps(DIGITS):
        if p == 1.0 or math.isinf(p):
            return RefValue(_from_fraction(endpoint_value(n)), 0.0)
        exact, scale = _gamma_form(n, p)
        if p == 2.0:
            exact = _from_fraction(self_dual_value(n))
        return RefValue(exact, scale)


def self_check() -> list[str]:
    """Compare the loggamma form with the exact rationals; return the misfits.

    At p = 2 the form must equal n/(n+2)^2 to nearly all 40 digits; at
    p = 10^30 (t = 1/(pq) ~ 1e-30) it must equal the endpoint value to far
    better than double precision.
    """
    problems = []
    with mpmath.workdps(DIGITS):
        for n in (1, 2, 5, 37, 100, 10**5, 10**6):
            got, _ = _gamma_form(n, 2)
            want = _from_fraction(self_dual_value(n))
            if abs(got / want - 1) > mpmath.mpf(10) ** -30:
                problems.append(f"self-dual n={n}: {mpmath.nstr(got, 20)} vs {mpmath.nstr(want, 20)}")
            got, _ = _gamma_form(n, mpmath.mpf(10) ** 30)
            want = _from_fraction(endpoint_value(n))
            if abs(got / want - 1) > mpmath.mpf(10) ** -20:
                problems.append(f"endpoint n={n}: {mpmath.nstr(got, 20)} vs {mpmath.nstr(want, 20)}")
    return problems
