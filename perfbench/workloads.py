"""The three workloads: scan, verify and mc.

Each workload builds its inputs from the seed, warms up, runs one timed
pass over those inputs through pballs's public entry points, and checks
the outputs of every pass.  A pass is a whole round of the same
operations, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random

import checks

# The 40 exponents of pballs.verify.BOUND_P_GRID, spanning [1, inf].
P_GRID = (
    [1.0]
    + [1.0 + 0.05 * i for i in range(1, 21)]
    + [2.25, 2.5, 2.75, 3.0, 3.5, 4.0, 5.0, 6.5, 8.0, 10.0, 15.0, 20.0, 35.0, 60.0, 100.0]
    + [1e3, 1e4, 1e6]
    + [math.inf]
)

# Dimensions 2..100: every cell off p in {1, 2, inf} costs the product its
# whole 10^6-term budget there, so the seed picks values, not the work.
# (At n = 1 the product's log factors are exactly 0 and it stops at once.)
SCAN_DIMS = range(2, 101)
SCAN_DIMS_PER_PASS = 2
LARGE_DIMS = (1000, 100000, 1000000)
LARGE_P = (1.5, 2.0, 3.0, math.inf)

VERIFY_SUITES = ("routes", "endpoints", "monotonicity", "ineq3", "remark-limit", "corollaries")

MC_DIMS = (2, 5, 20)
MC_P = (1.0, 1.4, 2.0, 3.0, math.inf)
MC_PAIRS = 1 << 17
MC_STREAMS = 8


def _p_text(p: float) -> str:
    return "inf" if math.isinf(p) else repr(p)


def _call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CheckResult:
    """Operations attempted and failed over all passes, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[tuple[str, list[str]]] = []
        self.structural: list[str] = []

    def op(self, op_id: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed.append((op_id, problems))


class Scan:
    """``pballs scan`` through cli.main over a moderate and a large-n grid."""

    name = "scan"

    def __init__(self, seed: int):
        dims = sorted(random.Random(seed).sample(SCAN_DIMS, SCAN_DIMS_PER_PASS))
        self.grids = [(dims, P_GRID), (list(LARGE_DIMS), list(LARGE_P))]
        self.argvs = [
            ["scan", "--n", ",".join(map(str, ns)), "--p", ",".join(map(_p_text, ps))]
            for ns, ps in self.grids
        ]

    def warm_up(self) -> None:
        _call_cli(importlib.import_module("pballs.cli"), ["scan", "--n", "2", "--p", "1.5,2"])

    def run_pass(self):
        cli = importlib.import_module("pballs.cli")
        return [_call_cli(cli, argv) for argv in self.argvs]

    def check(self, outputs) -> CheckResult:
        import reference
        from pballs.moments import f_product

        cells = [(n, p) for ns, ps in self.grids for n in ns for p in ps]
        refs = {c: reference.f_reference(*c) for c in cells}
        # The CSV has no error_estimate column; the library call made with the
        # same default policy supplies the bound the printed value claims.
        bounds = {c: f_product(*c).error_estimate for c in cells}
        res = CheckResult()
        for out in outputs:
            for (ns, ps), (code, stdout, stderr) in zip(self.grids, out):
                self._check_call(ns, ps, code, stdout, stderr, refs, bounds, res)
        return res

    @staticmethod
    def _check_call(ns, ps, code, stdout, stderr, refs, bounds, res) -> None:
        lines = stdout.splitlines()
        if not lines:
            res.structural.append(f"scan n={ns}: no output (exit {code})")
            return
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        cells = [(n, p) for n in ns for p in ps]
        if len(rows) != len(cells):
            res.structural.append(f"scan n={ns}: {len(rows)} rows for {len(cells)} cells")
            return
        verdicts = []
        for (n, p), row in zip(cells, rows):
            if int(row["n"]) != n or float(row["p"]) != p:
                res.structural.append(f"row {row['n']},{row['p']} where n={n}, p={p} was due")
                return
            ref = refs[(n, p)]
            res.op(f"cell n={n} p={_p_text(p)}",
                   checks.check_scan_row(row, ref.value, ref.log_scale, bounds[(n, p)]))
            verdicts += [row["bound_ok"] == "true", row["routes_agree"] == "true"]
        notes = [line for line in stderr.splitlines() if line.startswith("#")]
        for n in ns:
            for label in (f"monotone nondecreasing on [1,2] for n={n}",
                          f"monotone nonincreasing on [2,inf] for n={n}"):
                found = [line for line in notes if line.endswith(": " + label)]
                if len(found) != 1:
                    res.structural.append(f"no single verdict line for {label!r}")
                    continue
                ok = found[0] == "# ok: " + label
                verdicts.append(ok)
                # f is proven monotone on both sides of p = 2
                res.op(label, [] if ok else [found[0]])
        if code != (0 if all(verdicts) else 1):
            res.structural.append(f"scan n={ns}: exit {code} with verdicts {sum(verdicts)}/{len(verdicts)} true")


class Verify:
    """``pballs verify <suite>`` through cli.main for the deterministic suites."""

    name = "verify"

    def __init__(self, seed: int):
        suites = list(VERIFY_SUITES)
        random.Random(seed).shuffle(suites)
        self.suites = suites

    def warm_up(self) -> None:
        cli = importlib.import_module("pballs.cli")
        for suite in ("remark-limit", "endpoints"):
            _call_cli(cli, ["verify", suite])

    def run_pass(self):
        cli = importlib.import_module("pballs.cli")
        return [(suite, _call_cli(cli, ["verify", suite])) for suite in self.suites]

    def check(self, outputs) -> CheckResult:
        res = CheckResult()
        for out in outputs:
            for suite, (code, stdout, _) in out:
                per_check, whole = checks.check_verify_output(stdout, code)
                res.structural += [f"verify {suite}: {w}" for w in whole]
                for name, problems in per_check:
                    res.op(f"{suite}/{name}", problems)
        return res


class MonteCarlo:
    """``pballs.estimate_f`` over three dimensions and the sampler's five paths."""

    name = "mc"

    def __init__(self, seed: int):
        self.cells = [(n, p) for n in MC_DIMS for p in MC_P]
        self.seeds = [seed * 1000 + i for i in range(len(self.cells))]

    def warm_up(self) -> None:
        pballs = importlib.import_module("pballs")
        for p in MC_P:
            pballs.estimate_f(2, p, pballs.MCConfig(1024, 0, MC_STREAMS))

    def run_pass(self):
        pballs = importlib.import_module("pballs")
        return [
            pballs.estimate_f(n, p, pballs.MCConfig(MC_PAIRS, s, MC_STREAMS))
            for (n, p), s in zip(self.cells, self.seeds)
        ]

    def check(self, outputs) -> CheckResult:
        import numpy as np

        import reference
        from pballs import as_exponent, sample_ball

        # Membership is checked on the public sampler, both sides of each
        # cell, at the workload's pair count.
        outside = {}
        for (n, p), s in zip(self.cells, self.seeds):
            rng = np.random.default_rng(s)
            e = as_exponent(p)
            outside[(n, p)] = [
                msg for side in (e, e.conjugate())
                for msg in checks.check_in_ball(sample_ball(n, side, rng, size=MC_PAIRS), side.p)
            ]
        refs = {c: reference.f_reference(*c).value for c in self.cells}
        res = CheckResult()
        for out in outputs:
            for (n, p), est in zip(self.cells, out):
                problems = list(outside[(n, p)])
                if est.samples != MC_PAIRS:
                    problems.append(f"{est.samples} pairs where {MC_PAIRS} were asked for")
                problems += checks.check_mc_mean(est.mean, est.std_error, refs[(n, p)])
                res.op(f"estimate n={n} p={_p_text(p)}", problems)
        return res


WORKLOADS = {w.name: w for w in (Scan, Verify, MonteCarlo)}
