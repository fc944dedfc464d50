"""Checkers for the program's outputs, each a pure function of them.

Every checker returns a list of problems; an empty list means the output
is right.  The tolerances are fixed here and argued next to each one.
"""

from __future__ import annotations

import math

EPS = 2.0**-52

# f_gamma sums eight ln Gamma values and ln n, then exponentiates: its
# relative error is a few ulp of the sum of those terms' sizes.  The bound
# is GAMMA_ULPS * eps * (1 + sum |terms|); over n = 1..100 and
# n in {1e3, 1e5, 1e6} on the 40-point grid the worst cell needs 4.6 ulp.
GAMMA_ULPS = 16.0

# A product's printed value may differ from the truth by its error_estimate
# plus the rounding of its final exp and scaling.
PRODUCT_ROUNDING_ULPS = 16.0

# Two-sided normal tail P(|Z| > 5) = 5.7e-7; over the 15 cells of the mc
# workload a correct sampler fails this with probability below 1e-5.
MC_Z_BOUND = 5.0

# Sum_i |x_i|^p is computed in floating point, n additions of rounded powers.
BALL_ULPS_PER_COORD = 4.0


def check_closed_form(value: float, ref: float, log_scale: float) -> list[str]:
    """f_gamma against the reference, within GAMMA_ULPS * eps * (1 + log_scale)."""
    allowed = GAMMA_ULPS * EPS * (1.0 + log_scale)
    rel = abs(value - ref) / ref
    if not rel <= allowed:
        return [f"f_gamma {value!r} vs reference {ref!r}: rel dev {rel:.3g} > {allowed:.3g}"]
    return []


def check_product(value: float, error_estimate: float, ref: float) -> list[str]:
    """f_product against the reference, within its error_estimate plus rounding."""
    allowed = error_estimate + PRODUCT_ROUNDING_ULPS * EPS * ref
    dev = abs(value - ref)
    if not dev <= allowed:
        return [f"f_product {value!r} vs reference {ref!r}: dev {dev:.3g} > error_estimate "
                f"{error_estimate:.3g} + rounding"]
    return []


def check_scan_row(row: dict, ref: float, log_scale: float, error_estimate: float) -> list[str]:
    """One parsed CSV row of ``pballs scan`` against the reference.

    ``row`` maps the CSV header to the printed strings.  Besides the two
    values, the verdicts must be right: bound_ok is whether the reference
    respects n/(n+2)^2, and routes_agree must be true exactly when both
    routes are within their allowances of the reference and the product's
    bound is informative (smaller than the value): a bound at least as
    large as the value agrees with anything.
    """
    n = int(row["n"])
    f_gamma = float(row["f_gamma"])
    f_product = float(row["f_product"])
    problems = check_closed_form(f_gamma, ref, log_scale)
    problems += check_product(f_product, error_estimate, ref)
    bound_ok = ref <= n / (n + 2) ** 2
    if row["bound_ok"] != ("true" if bound_ok else "false"):
        problems.append(f"bound_ok={row['bound_ok']} but the reference {ref!r} says {bound_ok}")
    informative = error_estimate < abs(f_product)
    if not informative:
        problems.append(f"error_estimate {error_estimate:.3g} >= f_product {f_product:.3g}: "
                        "the product route says nothing")
    agree = not problems
    if row["routes_agree"] != ("true" if agree else "false"):
        problems.append(f"routes_agree={row['routes_agree']} but both routes are "
                        + ("right" if agree else "not confirmed"))
    return problems


def check_mc_mean(mean: float, std_error: float, ref: float, z: float = MC_Z_BOUND) -> list[str]:
    """A Monte Carlo mean within z standard errors of the reference."""
    if not (std_error > 0.0 and math.isfinite(mean)):
        return [f"degenerate estimate mean={mean!r} std_error={std_error!r}"]
    pull = abs(mean - ref) / std_error
    if not pull <= z:
        return [f"mean {mean!r} is {pull:.2f} standard errors from reference {ref!r} (limit {z})"]
    return []


def check_in_ball(points, p: float) -> list[str]:
    """Every row of an (m, n) NumPy array lies in the closed unit p-ball."""
    a = abs(points)
    norms = a.max(axis=1) if math.isinf(p) else (a**p).sum(axis=1)
    worst = float(norms.max())
    allowed = 1.0 + BALL_ULPS_PER_COORD * EPS * points.shape[1]
    if not worst <= allowed:
        return [f"sampled point outside B_{p}^{points.shape[1]}: norm {worst!r}"]
    return []


def parse_verify_output(text: str) -> tuple[list[tuple[str, bool]], str | None]:
    """Split ``pballs verify`` stdout into (check name, passed) and the OVERALL line."""
    checks = []
    overall = None
    for line in text.splitlines():
        if line.startswith("OVERALL: "):
            overall = line
        elif line.startswith(("PASS ", "FAIL ")):
            verdict, rest = line.split(" ", 1)
            checks.append((rest.split(":", 1)[0], verdict == "PASS"))
        else:
            raise ValueError(f"unexpected verify line {line!r}")
    return checks, overall


def check_verify_output(text: str, exit_code: int) -> tuple[list[tuple[str, list[str]]], list[str]]:
    """Check one suite's output: every check must PASS, since each is proven.

    Returns (per-check problems, problems with the output as a whole).
    """
    try:
        checks, overall = parse_verify_output(text)
    except ValueError as exc:
        return [], [str(exc)]
    per_check = [(name, [] if passed else [f"{name} printed FAIL"]) for name, passed in checks]
    whole = []
    passed = sum(ok for _, ok in checks)
    all_ok = passed == len(checks)
    want = f"OVERALL: {'PASS' if all_ok else 'FAIL'} ({passed}/{len(checks)} checks)"
    if not checks:
        whole.append("no checks printed")
    if overall != want:
        whole.append(f"summary {overall!r}, expected {want!r}")
    if exit_code != (0 if all_ok else 1):
        whole.append(f"exit code {exit_code} with {passed}/{len(checks)} checks passing")
    return per_check, whole
