"""The verify suites' own machinery: the per-term certificate against
mutated expansions, each grid cell evaluated once, a NaN deviation
failing the check that reduces it, and the sampler checks reading both
sides of the Monte Carlo cells."""

import collections
import inspect
import math
import textwrap

import pytest

from pballs import moments, montecarlo, verify
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
    # <x, y>^2, then x1^2, x1 and x1^2 - x2^2, then the same for y
    inner, sq, x1, difference, *rest = estimates
    return (inner, sq, x1, difference._replace(mean=math.nan), *rest)


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

    def test_nan_coordinate_fails_membership(self, monkeypatch):
        # one NaN coordinate in the first chunk of the first n = 3 cell; the
        # statistics get a spoiled copy, since the points' buffer is reused
        reducer = verify._stream_means
        spoiled = []

        def spoiling(n, config, key, exponents, statistics):
            def spoil_once(x, *rest):
                if n == 3 and not spoiled:
                    spoiled.append(n)
                    x = x.copy()
                    x[0, 0] = math.nan
                return statistics(x, *rest)

            return reducer(n, config, key, exponents, spoil_once)

        monkeypatch.setattr(verify, "_stream_means", spoiling)
        checks = {c.name: c for c in verify.suite_mc(MCConfig(samples=4000, seed=3, streams=2))}
        assert spoiled == [3]
        assert checks["mc-membership"].passed is False
        assert "max norm nan" in checks["mc-membership"].detail


class TestSamplerChecksReadBothSides:
    def test_spoiled_conjugate_side_fails(self, monkeypatch):
        # points 5 % too far out only at q = 3.5, the conjugate of p = 1.4,
        # which only the y side of the p = 1.4 cells draws
        real = montecarlo.sample_ball
        q = Exponent(1.4).conjugate().p

        def spoiled(n, p, rng, size=None, out=None):
            points = real(n, p, rng, size=size, out=out)
            if abs(_p(p) - q) <= 1e-9:
                points *= 1.05
            return points

        monkeypatch.setattr(montecarlo, "sample_ball", spoiled)
        checks = {c.name: c for c in verify.suite_mc(MCConfig(samples=4000, seed=3, streams=2))}
        assert checks["mc-sampler-moments"].passed is False
        assert checks["mc-membership"].passed is False
