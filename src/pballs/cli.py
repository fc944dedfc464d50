"""Command-line front end: scan (n, p) grids and run verification suites.

``eval`` is another name for ``scan``: one (n, p) cell is a grid of one.
Output is machine-readable: CSV by default, line-delimited JSON with
--format json.  Rows carry exactly the documented fields in a fixed order,
floats print with 17 significant digits, and identical invocations produce
identical bytes.  Exit status is 0 iff every verdict in the emitted report
passed; bad input raises ValueError, reported as ``error: ...`` with exit
status 2.

Only the commands that use them import ``montecarlo`` (``--samples`` and
``verify``) and ``verify`` (the ``verify`` command), so a deterministic
``scan`` compiles neither; the parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import NamedTuple

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
from .pball import as_exponent, check_dimension


class ReportRow(NamedTuple):
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


FIELDS = ReportRow._fields
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
        raise ValueError(f"bad exponent {token!r}: expected a decimal literal or 'inf'")
    if math.isnan(value):
        raise ValueError(f"bad exponent {token!r}: not a number")
    if math.isinf(value):
        raise ValueError(f"bad exponent {token!r}: use the token 'inf' for infinity")
    if value < 1.0:
        raise ValueError(f"exponent must be >= 1, got {token}")
    return value


def _parse_p_list(text: str) -> list[float]:
    out = [_parse_p(tok) for tok in text.split(",") if tok != ""]
    if not out:
        raise ValueError(f"no exponents in {text!r}")
    return out


def _parse_n_list(text: str) -> list[int]:
    out: list[int] = []
    for tok in text.split(","):
        if tok == "":
            continue
        try:
            ends = [int(end) for end in tok.split("..", 1)]
        except ValueError:
            raise ValueError(f"bad dimension {tok!r}: expected an integer or a range a..b")
        if len(ends) == 2:
            # validated before range() so a huge range fails at once
            lo, hi = (check_dimension(end) for end in ends)
            if hi < lo:
                raise ValueError(f"empty range {tok!r}")
            out.extend(range(lo, hi + 1))
        else:
            out += ends
    if not out:
        raise ValueError(f"no dimensions in {text!r}")
    return out


def build_report_row(n: int, p: float, mc) -> tuple[ReportRow, MomentResult]:
    """The report row of one (n, p) cell and the closed-form result it was judged on.

    mc is the MCConfig of the Monte Carlo column, or None for none.
    """
    e = as_exponent(p)
    closed = f_gamma(n, e)
    fg = closed.value
    fp = f_product(n, e)
    bound_ok, margin = kuperberg_verdict(closed)
    f_mc = mc_se = mc_ok = None
    if mc is not None:
        from .montecarlo import estimate_f

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


def _mc_config(args):
    """The MCConfig of the Monte Carlo flags; a flag left out takes MCConfig's default."""
    from .montecarlo import MCConfig

    given = {name: getattr(args, name) for name in ("samples", "seed", "streams")}
    return MCConfig(**{name: value for name, value in given.items() if value is not None})


def cmd_scan(args) -> int:
    mc = None if args.samples is None else _mc_config(args)
    ns = _parse_n_list(args.n)
    ps = _parse_p_list(args.p)
    cells = [build_report_row(n, p, mc) for n in ns for p in ps]
    rows = [row for row, _ in cells]
    _emit_rows(rows, args.format, sys.stdout)
    ok = all(all(row.verdicts()) for row in rows)
    by_n: dict[int, dict[float, MomentResult]] = {}
    for row, closed in cells:
        by_n.setdefault(row.n, {})[row.p] = closed
    # each distinct dimension is judged once per side of 2 on which at least
    # two of its distinct results fall
    sides = (
        ("nondecreasing on [1,2]", lambda p: p <= 2.0),
        ("nonincreasing on [2,inf]", lambda p: p >= 2.0),
    )
    for n, by_p in by_n.items():
        results = [r for _, r in sorted(by_p.items())]
        for side, keep in sides:
            on_side = [r for r in results if keep(r.exponent.p)]
            if len(on_side) < 2:
                continue
            passed = monotone_verdict(on_side).monotone
            print(f"# {'ok' if passed else 'FAIL'}: monotone {side} for n={n}", file=sys.stderr)
            ok &= passed
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .verify import run_suite

    checks = run_suite(args.suite, _mc_config(args))
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    ok = all(c.passed for c in checks)
    print(f"OVERALL: {'PASS' if ok else 'FAIL'} ({sum(c.passed for c in checks)}/{len(checks)} checks)")
    return 0 if ok else 1


def _add_mc_flags(sub) -> None:
    # no defaults here: a flag left out takes MCConfig's (see _mc_config)
    sub.add_argument("--seed", type=int, help="Monte Carlo seed")
    sub.add_argument("--samples", type=int, help="Monte Carlo pair count (enables the MC column)")
    sub.add_argument("--streams", type=int, help="independent Monte Carlo substreams")


class _SuiteNames:
    """``verify.SUITE_NAMES``, imported when argparse first iterates the choices (``in`` does too)."""

    def __iter__(self):
        from .verify import SUITE_NAMES

        return iter(SUITE_NAMES)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pballs",
        description="Evaluate and verify the p-ball moment functional f(n, p).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_scan = subs.add_parser("scan", aliases=["eval"], help="grid of (n, p) cells")
    p_scan.add_argument("--n", required=True, help="dimension(s): e.g. 3 or 2..5 or 1,4,9")
    p_scan.add_argument("--p", required=True, help="exponent(s): comma list of decimals or 'inf'")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_mc_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_verify = subs.add_parser("verify", help="run a named verification suite")
    # add_argument formats the metavar to check it, which with none set
    # would read the choices and import verify; unset afterwards, usage and
    # help show {routes,...} from the choices when they are printed
    suite = p_verify.add_argument("suite", choices=_SuiteNames(), metavar="suite", help="suite name")
    suite.metavar = None
    _add_mc_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
