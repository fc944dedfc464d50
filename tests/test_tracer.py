"""The benchmark's tracer still counts every layer it reports.

``perfbench/tracing.py`` wraps pballs's public functions by rebinding
their module-global names and reads its counters from their arguments and
results.  A call that bypasses those names (a default-argument binding, a
private copy of a loop) or a renamed entry point leaves a per-layer metric
at zero without failing anything else; this test runs one small call
through each layer under the tracer and checks that the counters moved.
"""

import contextlib
import importlib
import io
import os

from pballs import cli, moments, montecarlo, verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

COUNTERS = (
    "kernels.moment_product_log.terms",
    "kernels.sign_series_sum.terms",
    "gamma_core.run_truncated_log_sum.calls",
    "verify.routes.s",
    "montecarlo.estimate_f.calls",
    "montecarlo.sample_ball.rows",
)


def test_traced_counters_are_nonzero(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["scan", "--n", "2", "--p", "1.5,2"]) == 0
            assert cli.main(["verify", "routes"]) == 0
        moments.derivative_sign_series(2, 0.1)
        config = montecarlo.MCConfig(64, 0, 1)
        montecarlo.estimate_f(2, 1.5, config)
        montecarlo.estimate_f_factored(2, 1.5, config)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(passes=1)
    assert [name for name in COUNTERS if not metrics[name][0] > 0] == []


def test_traced_rows_include_the_sampler_checks(monkeypatch):
    # 25 estimate_f cells draw 2 * 64 rows, 20 sampler cells 64, and the two
    # consistency pairs 2 * 128 (estimate_f) and 2 * 128 (factored)
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        verify.suite_mc(montecarlo.MCConfig(64, 0, 2))
    finally:
        tracer.uninstall()
    assert tracer.metrics(passes=1)["montecarlo.sample_ball.rows"][0] == 4992
