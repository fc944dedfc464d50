"""Acceptance suite: one test per shipped verification criterion.

Each criterion runs at its stated tolerance and prints a PASS/FAIL line
(visible with ``pytest -v -s`` or in captured output on failure).  The
heavy suites execute once per module via fixtures; criteria then assert
the named checks they own.  Criterion 12 is the only stochastic one and
runs at its full sample count with a fixed seed.
"""

import pytest

from pballs.montecarlo import MCConfig
from pballs.verify import (
    suite_corollaries,
    suite_endpoints,
    suite_ineq3,
    suite_mc,
    suite_monotonicity,
    suite_remark_limit,
    suite_routes,
)


def _by_name(checks):
    return {c.name: c for c in checks}


@pytest.fixture(scope="module")
def endpoints():
    return _by_name(suite_endpoints())


@pytest.fixture(scope="module")
def routes():
    return _by_name(suite_routes())


@pytest.fixture(scope="module")
def monotonicity():
    return _by_name(suite_monotonicity())


@pytest.fixture(scope="module")
def ineq3():
    return _by_name(suite_ineq3())


@pytest.fixture(scope="module")
def corollaries():
    return _by_name(suite_corollaries())


@pytest.fixture(scope="module")
def remark():
    return _by_name(suite_remark_limit())


@pytest.fixture(scope="module")
def mc():
    return _by_name(suite_mc(MCConfig(samples=1_000_000, seed=42, streams=8)))


def _assert_criterion(number, title, checks):
    ok = all(c.passed for c in checks)
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:02d}: {title}")
    for c in checks:
        print(f"    [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    assert ok, f"criterion {number} ({title}) failed: " + "; ".join(
        f"{c.name}: {c.detail}" for c in checks if not c.passed
    )


def test_criterion_01_self_dual_value(endpoints):
    _assert_criterion(1, "f(n,2) = n/(n+2)^2 to rel 1e-12, n=1..100", [endpoints["self-dual-value"]])


def test_criterion_02_endpoint_value(endpoints):
    _assert_criterion(
        2, "f(n,1) = f(n,inf) = 2n/(3(n+1)(n+2)) to rel 1e-12, n=1..100",
        [endpoints["endpoint-value"]],
    )


def test_criterion_03_route_equivalence(routes):
    _assert_criterion(
        3, "gamma route vs product route within the sum of both reported bounds",
        [routes["route-equivalence"]],
    )


def test_criterion_04_conjugate_symmetry(routes):
    _assert_criterion(4, "f(n,p) = f(n,q) to rel 1e-12 on 20 pairs", [routes["conjugate-symmetry"]])


def test_criterion_05_bound_grid(monotonicity):
    _assert_criterion(
        5, "f(n,p) - error_estimate <= n/(n+2)^2 on n=1..100 x 40 p-values",
        [monotonicity["kuperberg-bound"]],
    )


def test_criterion_06_monotonicity(monotonicity):
    _assert_criterion(
        6, "f strictly monotone on both sides of p=2 (n=2..20), constant at n=1",
        [
            monotonicity["monotone-increasing"],
            monotonicity["monotone-decreasing"],
            monotonicity["constant-at-n1"],
        ],
    )


def test_criterion_07_derivative_sign(monotonicity):
    _assert_criterion(
        7, "derivative-series sign matches finite differences; zero at n=1",
        [monotonicity["derivative-sign"]],
    )


def test_criterion_08_per_term_inequality(ineq3):
    _assert_criterion(
        8, "printed per-term inequality positive for all real k>=1, n>=2, t>=0",
        [ineq3["per-term-positivity"]],
    )


def test_criterion_09_limit_check(remark):
    _assert_criterion(
        9, "gamma-ratio limit within 1e-4 of (n+2)/3 at q=1e6, n=1..20",
        [remark["gamma-ratio-limit"]],
    )


def test_criterion_10_gamma_ratio_product(routes):
    _assert_criterion(
        10, "gamma-ratio product matches log-gamma route within reported bound",
        [routes["gamma-ratio-product"]],
    )


def test_criterion_11_comparators(corollaries):
    _assert_criterion(
        11, "product comparator verdicts on both regimes, separated beyond both tail bounds",
        [corollaries["comparator-forward"], corollaries["comparator-reversed"]],
    )


def test_criterion_12_monte_carlo(mc):
    _assert_criterion(
        12, "Monte Carlo oracle: estimates within 3 s.e., sampler moments at 4 s.e.",
        [
            mc["mc-estimate"],
            mc["mc-sampler-moments"],
            mc["mc-membership"],
            mc["mc-exchangeability"],
            mc["mc-estimator-consistency"],
        ],
    )
