"""The result records' contract, on records built by real calls.

Every result record is an immutable ``typing.NamedTuple``: assignment
raises AttributeError, equal records hash equal, ``_replace`` keeps the
type, and ``cli.ReportRow._fields`` is the report's column order.
``MCConfig`` is the one dataclass, because it checks its fields whenever
it is built, ``dataclasses.replace`` included.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import pballs
from pballs import cli
from pballs.moments import derivative_sign_series, f_gamma, gk_ratio_product, monotone_verdict
from pballs.montecarlo import MCConfig, estimate_f
from pballs.verify import run_suite

RECORDS = {
    "MomentResult": lambda: f_gamma(5, 1.5),
    "ProductResult": lambda: gk_ratio_product(5, 0.2),
    "SignReport": lambda: derivative_sign_series(5, 0.2),
    "MonotonicityScan": lambda: monotone_verdict([f_gamma(5, p) for p in (1.0, 1.5, 2.0)]),
    "MCEstimate": lambda: estimate_f(2, 1.5, MCConfig(samples=2000, seed=1, streams=2)),
    "Check": lambda: run_suite("remark-limit")[0],
    "ReportRow": lambda: cli.build_report_row(3, 1.5, None)[0],
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    again = RECORDS[name]()
    assert again == record and hash(again) == hash(record)
    copy = record._replace(**{first: getattr(record, first)})
    assert type(copy) is type(record) and copy == record


def test_report_fields_are_the_csv_columns(capsys):
    assert cli.main(["eval", "--n", "3", "--p", "1.5"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == ",".join(cli.ReportRow._fields) == cli.CSV_HEADER


def test_mcconfig_is_the_only_dataclass():
    modules = [pballs, *(importlib.import_module(f"pballs.{m.name}") for m in pkgutil.iter_modules(pballs.__path__))]
    found = {obj for module in modules for obj in vars(module).values() if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == {MCConfig}

