"""Each checker accepts a right output and rejects a deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks
import reference


def test_reference_self_check():
    assert reference.self_check() == []


def test_reference_exact_points():
    assert reference.f_reference(5, 2.0).value == 5 / 49
    assert reference.f_reference(5, 1.0).value == 10 / 126
    assert reference.f_reference(5, math.inf).value == 10 / 126
    assert reference.f_reference(5, 1.0).log_scale == 0.0


def test_reference_conjugate_symmetry():
    a = reference.f_reference(7, 1.5).exact
    b = reference.f_reference(7, 3.0).exact
    assert abs(a / b - 1) < 1e-35


def test_closed_form_off_by_1e9_is_rejected():
    ref = reference.f_reference(5, 1.5)
    assert checks.check_closed_form(ref.value, ref.value, ref.log_scale) == []
    assert checks.check_closed_form(ref.value * (1 + 1e-9), ref.value, ref.log_scale)


def test_product_beyond_its_error_estimate_is_rejected():
    ref = reference.f_reference(5, 1.5).value
    err = 1e-6 * ref
    assert checks.check_product(ref + 0.9 * err, err, ref) == []
    assert checks.check_product(ref - 1.5 * err, err, ref)


def _row(n, f_gamma, f_product, bound_ok="true", routes_agree="true"):
    return {"n": str(n), "f_gamma": repr(f_gamma), "f_product": repr(f_product),
            "bound_ok": bound_ok, "routes_agree": routes_agree}


def test_scan_row_verdicts():
    ref = reference.f_reference(5, 1.5)
    v, s = ref.value, ref.log_scale
    assert checks.check_scan_row(_row(5, v, v), v, s, 1e-9 * v) == []
    # both routes right, yet "routes disagree"
    assert checks.check_scan_row(_row(5, v, v, routes_agree="false"), v, s, 1e-9 * v)
    # a bound larger than the value makes "routes agree" say nothing
    assert checks.check_scan_row(_row(5, v, 2.4 * v), v, s, 3.0 * v)
    # bound_ok must follow the reference
    assert checks.check_scan_row(_row(5, v, v, bound_ok="false"), v, s, 1e-9 * v)


def test_mc_mean_ten_standard_errors_away_is_rejected():
    ref, se = 0.1, 1e-4
    assert checks.check_mc_mean(ref + 3 * se, se, ref) == []
    assert checks.check_mc_mean(ref - 10 * se, se, ref)


@pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, math.inf])
def test_point_outside_the_ball_is_rejected(p):
    inside = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.3, 0.2, -0.1]])
    assert checks.check_in_ball(inside, p) == []
    outside = np.vstack([inside, [[0.0, 0.0, 1.01]]])
    assert checks.check_in_ball(outside, p)


def test_verify_fail_line_is_rejected():
    good = "PASS a: first\nPASS b: second\nOVERALL: PASS (2/2 checks)\n"
    per_check, whole = checks.check_verify_output(good, 0)
    assert per_check == [("a", []), ("b", [])] and whole == []
    bad = "PASS a: first\nFAIL b: second\nOVERALL: FAIL (1/2 checks)\n"
    per_check, whole = checks.check_verify_output(bad, 1)
    assert per_check[0] == ("a", []) and per_check[1][1] and whole == []
    # a summary or exit code that contradicts the lines is a malformed output
    assert checks.check_verify_output(bad.replace("FAIL (1/2", "PASS (2/2"), 0)[1]
