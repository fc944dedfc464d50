"""The verify suites' own machinery: the per-term certificate against
mutated expansions, and each grid cell evaluated once."""

import collections
import inspect
import textwrap

import pytest

from pballs import moments, verify
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
