"""Command-line front end: evaluate, scan, and verify over (n, p) grids.

Output is machine-readable: CSV by default, line-delimited JSON with
--format json.  Rows carry exactly the documented fields in a fixed order,
floats print with 17 significant digits, and identical invocations produce
identical bytes.  Exit status is 0 iff every verdict in the emitted report
passed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

from .gamma_core import TruncationPolicy
from .moments import (
    MomentResult,
    f_gamma,
    f_product,
    kuperberg_bound,
    kuperberg_verdict,
    mc_agrees,
    monotone_verdict,
    routes_agree,
)
from .montecarlo import MCConfig, estimate_f
from .pball import as_exponent
from .verify import SUITE_NAMES, run_suite


@dataclass(frozen=True)
class ReportRow:
    """One output row; its fields, in this order, are the CSV columns and JSON keys."""

    n: int
    p: float
    t: float
    f_gamma: float
    f_product: float
    f_mc: float | None
    mc_std_error: float | None
    bound: float
    margin: float
    bound_ok: bool
    routes_agree: bool
    mc_agrees: bool | None

    def verdicts(self) -> list[bool]:
        out = [self.bound_ok, self.routes_agree]
        if self.mc_agrees is not None:
            out.append(self.mc_agrees)
        return out


FIELDS = tuple(f.name for f in fields(ReportRow))
CSV_HEADER = ",".join(FIELDS)


def _fmt(x, fmt: str) -> str:
    """One field value as text; CSV and JSON differ only for None and inf."""
    if x is None:
        return "" if fmt == "csv" else "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if math.isinf(x):
        return "inf" if fmt == "csv" else '"inf"'
    return format(x, ".17g")


def _line(row: ReportRow, fmt: str) -> str:
    values = [_fmt(getattr(row, name), fmt) for name in FIELDS]
    if fmt == "csv":
        return ",".join(values)
    return "{" + ", ".join(f'"{name}": {v}' for name, v in zip(FIELDS, values)) + "}"


def _parse_p(token: str) -> float:
    if token == "inf":
        return math.inf
    try:
        value = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad exponent {token!r}: expected a decimal literal or 'inf'")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"bad exponent {token!r}: use the token 'inf' for infinity")
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"exponent must be >= 1, got {token}")
    return value


def _parse_p_list(text: str) -> list[float]:
    return [_parse_p(tok) for tok in text.split(",") if tok != ""]


def _parse_n_list(text: str) -> list[int]:
    out: list[int] = []
    for tok in text.split(","):
        if tok == "":
            continue
        if ".." in tok:
            lo_s, hi_s = tok.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {tok!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(tok))
    if not out:
        raise argparse.ArgumentTypeError(f"no dimensions in {text!r}")
    return out


def build_report_row(
    n: int, p: float, policy: TruncationPolicy, mc: MCConfig | None
) -> tuple[ReportRow, MomentResult]:
    """The report row of one (n, p) cell and the closed-form result it was judged on."""
    e = as_exponent(p)
    closed = f_gamma(n, e)
    fg = closed.value
    fp = f_product(n, e, policy)
    bound_ok, margin = kuperberg_verdict(closed)
    f_mc = mc_se = mc_ok = None
    if mc is not None:
        est = estimate_f(n, e, mc)
        f_mc, mc_se = est.mean, est.std_error
        mc_ok = mc_agrees(est, fg)
    row = ReportRow(
        n=n, p=e.p, t=e.t, f_gamma=fg, f_product=fp.value,
        f_mc=f_mc, mc_std_error=mc_se, bound=kuperberg_bound(n), margin=margin,
        bound_ok=bound_ok, routes_agree=routes_agree(closed, fp), mc_agrees=mc_ok,
    )
    return row, closed


def _emit_rows(rows: list[ReportRow], fmt: str, out) -> None:
    if fmt == "csv":
        print(CSV_HEADER, file=out)
    for row in rows:
        print(_line(row, fmt), file=out)


def _policy_from_args(args) -> TruncationPolicy:
    return TruncationPolicy(max_terms=args.max_terms, rel_tol=args.rel_tol)


def _mc_from_args(args) -> MCConfig | None:
    if args.samples is None:
        return None
    return MCConfig(samples=args.samples, seed=args.seed, streams=args.streams)


def cmd_eval(args) -> int:
    policy = _policy_from_args(args)
    row, _ = build_report_row(args.n, _parse_p(args.p), policy, _mc_from_args(args))
    _emit_rows([row], args.format, sys.stdout)
    return 0 if all(row.verdicts()) else 1


def cmd_scan(args) -> int:
    policy = _policy_from_args(args)
    mc = _mc_from_args(args)
    ns = _parse_n_list(args.n)
    ps = _parse_p_list(args.p)
    cells = [build_report_row(n, p, policy, mc) for n in ns for p in ps]
    rows = [row for row, _ in cells]
    _emit_rows(rows, args.format, sys.stdout)
    ok = all(all(row.verdicts()) for row in rows)
    by_n: dict[int, dict[float, MomentResult]] = {}
    for row, closed in cells:
        by_n.setdefault(row.n, {})[row.p] = closed
    # a side of 2 named by at least two exponents is judged on its distinct
    # exponents after snapping
    sides = [
        (side, keep) for side, keep in (
            ("nondecreasing on [1,2]", lambda p: p <= 2.0),
            ("nonincreasing on [2,inf]", lambda p: p >= 2.0),
        ) if sum(map(keep, ps)) >= 2
    ]
    for n in ns:
        points = [(p, r.value, r.error_estimate) for p, r in sorted(by_n[n].items())]
        for side, keep in sides:
            passed = monotone_verdict(n, [pt for pt in points if keep(pt[0])]).monotone
            print(f"# {'ok' if passed else 'FAIL'}: monotone {side} for n={n}", file=sys.stderr)
            ok &= passed
    return 0 if ok else 1


def cmd_verify(args) -> int:
    suite = args.suite_flag or args.suite
    if suite is None:
        print("verify: missing suite name", file=sys.stderr)
        return 2
    if suite not in SUITE_NAMES:
        print(f"verify: unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    policy = _policy_from_args(args)
    samples = args.samples if args.samples is not None else 1_000_000
    checks = run_suite(suite, policy=policy, samples=samples, seed=args.seed, streams=args.streams)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    ok = all(c.passed for c in checks)
    print(f"OVERALL: {'PASS' if ok else 'FAIL'} ({sum(c.passed for c in checks)}/{len(checks)} checks)")
    return 0 if ok else 1


def _add_common_flags(sub, with_np: bool) -> None:
    if with_np:
        sub.add_argument("--n", required=True, help="dimension(s): e.g. 3 or 2..5 or 1,4,9")
        sub.add_argument("--p", required=True, help="exponent(s): comma list of decimals or 'inf'")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    sub.add_argument("--samples", type=int, default=None, help="Monte Carlo pair count (enables the MC column)")
    sub.add_argument("--streams", type=int, default=8, help="independent Monte Carlo substreams")
    sub.add_argument("--max-terms", type=int, default=1_000_000, help="product term budget")
    sub.add_argument("--rel-tol", type=float, default=1e-10, help="product tail-bound target")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pballs",
        description="Evaluate and verify the p-ball moment functional f(n, p).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="one (n, p) cell")
    p_eval.add_argument("--n", required=True, type=int)
    p_eval.add_argument("--p", required=True, help="decimal exponent or 'inf'")
    _add_common_flags(p_eval, with_np=False)
    p_eval.set_defaults(func=cmd_eval)

    p_scan = subs.add_parser("scan", help="grid of (n, p) cells")
    _add_common_flags(p_scan, with_np=True)
    p_scan.set_defaults(func=cmd_scan)

    p_verify = subs.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", nargs="?", choices=SUITE_NAMES, help="suite name")
    p_verify.add_argument("--suite", dest="suite_flag", choices=SUITE_NAMES, default=None)
    _add_common_flags(p_verify, with_np=False)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
