"""The verify suites' own machinery: the per-term certificate against
mutated expansions, each grid cell evaluated once, and a NaN deviation
failing the check that reduces it."""

import collections
import inspect
import math
import textwrap

import pytest

from pballs import moments, verify
from pballs.montecarlo import MCConfig
from pballs.pball import Exponent


class TestPerTermCertificate:
    @pytest.mark.parametrize(
        "printed,mutant,passes",
        [
            # g_n - g1 -> g1 - g_n: 55 coefficients turn negative
            ("add(gn, mul({Z: -1}, g1))", "add(g1, mul({Z: -1}, gn))", False),
            # -9 -> -100: the constant turns negative
            ("mul({Z: -9}, gm)", "mul({Z: -100}, gm)", False),
            # -9 -> +9 only adds 18*g_n*g_{n+2} >= 0, a stronger inequality that is
            # still true; the certificate proves it (smallest coefficient 1, constant 599)
            ("mul({Z: -9}, gm)", "mul({Z: 9}, gm)", True),
            # unmutated: the exec'd copy itself passes
            ("mul({Z: -9}, gm)", "mul({Z: -9}, gm)", True),
        ],
    )
    def test_mutated_expansion(self, monkeypatch, printed, mutant, passes):
        source = textwrap.dedent(inspect.getsource(moments._per_term_polynomial))
        assert source.count(printed) == 1
        namespace = dict(vars(moments))
        exec(source.replace(printed, mutant), namespace)
        monkeypatch.setattr(verify, "_per_term_polynomial", namespace["_per_term_polynomial"])
        (check,) = verify.suite_ineq3()
        assert check.name == "per-term-positivity"
        assert check.passed is passes


class TestEachCellOnce:
    def test_monotonicity_evaluates_each_cell_once(self, monkeypatch):
        seen = collections.Counter()
        f_gamma = verify.f_gamma

        def recording(n, p):
            seen[n, p.p if isinstance(p, Exponent) else float(p)] += 1
            return f_gamma(n, p)

        monkeypatch.setattr(verify, "f_gamma", recording)
        checks = verify.suite_monotonicity()
        assert all(c.passed for c in checks)
        assert [cell for cell, count in seen.items() if count > 1] == []
        assert len(seen) == 4513

    def test_monotonicity_builds_each_exponent_once(self, monkeypatch):
        builds = 0
        init = Exponent.__init__

        def counting(self, p):
            nonlocal builds
            builds += 1
            init(self, p)

        monkeypatch.setattr(Exponent, "__init__", counting)
        verify.suite_monotonicity()
        assert builds <= 100


def _p(p):
    return p.p if isinstance(p, Exponent) else float(p)


def _nan_value(result):
    return result._replace(value=math.nan)


def _nan_difference(estimates):
    sq, x1, difference, *rest = estimates
    return (sq, x1, difference._replace(mean=math.nan), *rest)


# (check, suite, verify's global, the cell it spoils, how): the route returns
# its usual figures except NaN at that one cell
NAN_CASES = [
    ("self-dual-value", "endpoints", "f_gamma", lambda n, p: n == 7, _nan_value),
    ("endpoint-value", "endpoints", "f_gamma", lambda n, p: n == 7, _nan_value),
    ("endpoint-continuity", "endpoints", "f_gamma", lambda n, p: n == 7, _nan_value),
    ("conjugate-symmetry", "routes", "f_gamma", lambda n, p: n == 7, _nan_value),
    ("route-equivalence", "routes", "f_gamma", lambda n, p: n == 7, _nan_value),
    ("kuperberg-bound", "monotonicity", "f_gamma", lambda n, p: (n, _p(p)) == (7, 2.0), _nan_value),
    ("constant-at-n1", "monotonicity", "f_gamma", lambda n, p: (n, _p(p)) == (1, 1.3), _nan_value),
    ("gamma-ratio-product", "routes", "gamma_ratio_product", lambda x, a: (x, a) == (2.0, 0.5), _nan_value),
    ("gamma-ratio-limit", "remark-limit", "remark_limit_check", lambda n, q: n == 3, lambda r: math.nan),
    ("mc-estimate", "mc", "f_gamma", lambda n, p: n == 3, _nan_value),
    ("mc-sampler-moments", "mc", "normalized_second_moment", lambda n, p: (n, _p(p)) == (3, 1.5),
     lambda r: math.nan),
    ("mc-exchangeability", "mc", "_stream_means", lambda n, *rest: n == 3, _nan_difference),
    ("mc-estimator-consistency", "mc", "estimate_f_factored", lambda n, *rest: n == 3,
     lambda r: r._replace(mean=math.nan)),
]


class TestNaNFailsItsCheck:
    @pytest.mark.parametrize("name,suite,route,at,spoil", NAN_CASES, ids=[case[0] for case in NAN_CASES])
    def test_nan_deviation_fails(self, monkeypatch, name, suite, route, at, spoil):
        original = getattr(verify, route)

        def spoiled(*args):
            result = original(*args)
            return spoil(result) if at(*args) else result

        monkeypatch.setattr(verify, route, spoiled)
        checks = {c.name: c for c in verify.run_suite(suite, MCConfig(samples=4000, seed=3, streams=2))}
        assert checks[name].passed is False
        assert "nan" in checks[name].detail
