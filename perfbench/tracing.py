"""Per-layer timers and counters around pballs's public functions.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` replaces each
traced function, in every loaded pballs module that binds it, with a
wrapper that times the call, records a span (name, parent span, start,
end) and updates the layer's counters; ``uninstall`` restores the
originals.  A layer is a module: cli, verify, moments, gamma_core,
_kernels (reported as ``kernels``) and montecarlo.  ``pball`` only builds
Exponent triples and is not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import resource
import sys
import time
from dataclasses import dataclass, field

KERNELS = ("moment_product_log", "gamma_ratio_log", "sign_series_sum", "ineq3_min")

SUITES = {
    "suite_routes": "routes",
    "suite_endpoints": "endpoints",
    "suite_monotonicity": "monotonicity",
    "suite_ineq3": "ineq3",
    "suite_remark_limit": "remark-limit",
    "suite_corollaries": "corollaries",
}


def pballs_modules() -> list:
    """The loaded pballs modules, without the kernel implementation modules."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "pballs" or name.startswith("pballs."))
        and not name.startswith("pballs._kernels.")
    ]


def replace_everywhere(original, replacement) -> list:
    """Rebind every pballs module attribute that is ``original``; return the undo list."""
    undo = []
    for mod in pballs_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def _minflt_stime() -> tuple[int, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_stime


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0
    active: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Wraps the traced functions; holds their counters and spans in memory."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, int, float, float]] = []
        self.keep_spans = False
        self._stack: list[list] = []  # [child seconds, span index]
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None, rusage: bool = False):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if self.keep_spans:
                frame[1] = len(self.spans)
                self.spans.append((name, stack[-1][1] if stack else -1, 0.0, 0.0))
            stack.append(frame)
            stat.active += 1
            if rusage:
                flt0, sys0 = _minflt_stime()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                dt = t1 - t0
                outermost = stat.active == 0
                if outermost:
                    stat.s += dt
                    stat.child_s += frame[0]
                if stack:
                    # a recursive call is its own function's self time
                    stack[-1][0] += dt if outermost else frame[0]
                if frame[1] >= 0:
                    self.spans[frame[1]] = (name, self.spans[frame[1]][1], t0, t1)
                if rusage:
                    flt1, sys1 = _minflt_stime()
                    stat.add("minflt", flt1 - flt0)
                    stat.add("sys_s", sys1 - sys0)
            if observe is not None:
                observe(stat, args, result, dt)
            return result

        return traced

    def _trace(self, module, attr: str, name: str, observe=None, rusage: bool = False) -> None:
        original = getattr(module, attr)
        self._undo += replace_everywhere(original, self._wrap(name, original, observe, rusage))

    def install(self) -> None:
        """Wrap the public functions of every traced layer of the loaded pballs."""
        mods = {
            layer: importlib.import_module(f"pballs.{layer}")
            for layer in ("cli", "verify", "moments", "gamma_core", "montecarlo")
        }
        special = {
            "gamma_core.run_truncated_log_sum": _observe_truncation,
            "moments.f_product": _observe_f_product,
            "montecarlo.estimate_f": _observe_estimate,
            "montecarlo.sample_ball": _observe_sample,
            "verify.run_suite": _observe_suite,
        }
        for layer, mod in mods.items():
            names = [a for a in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, a))]
            if layer == "cli":
                names = ["main"]
            elif layer == "gamma_core":
                names.append("run_truncated_log_sum")
            elif layer == "verify":
                names += list(SUITES)
            for attr in names:
                name = f"{layer}.{attr}"
                self._trace(mod, attr, name, special.get(name), rusage=name == "montecarlo.sample_ball")
        for attr in KERNELS:
            self._trace(importlib.import_module("pballs._kernels"), attr, f"kernels.{attr}", _observe_kernel, rusage=True)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []

    # -- reporting --------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, per pass, as name -> (value, unit)."""
        st = self.stats
        out: dict[str, tuple[float, str]] = {}

        def stat(name: str) -> Stat:
            return st.get(name, Stat())

        def per_pass(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        def put(name, value, unit):
            out[name] = (value, unit)

        flt = sys_s = 0
        for k in KERNELS:
            s = stat(f"kernels.{k}")
            terms = s.counts.get("terms", 0)
            put(f"kernels.{k}.calls", per_pass(s.calls), "count")
            put(f"kernels.{k}.terms", per_pass(terms), "count")
            put(f"kernels.{k}.s", per_pass(s.s), "s")
            put(f"kernels.{k}.ns_per_term", ratio(s.s * 1e9, terms), "ns")
            flt += s.counts.get("minflt", 0)
            sys_s += s.counts.get("sys_s", 0.0)
        put("kernels.minflt", per_pass(flt), "count")
        put("kernels.sys_s", per_pass(sys_s), "s")

        s = stat("gamma_core.run_truncated_log_sum")
        put("gamma_core.run_truncated_log_sum.calls", per_pass(s.calls), "count")
        put("gamma_core.run_truncated_log_sum.s", per_pass(s.s), "s")
        put("gamma_core.run_truncated_log_sum.self_s", per_pass(s.s - s.child_s), "s")
        put("gamma_core.run_truncated_log_sum.terms_per_call", ratio(s.counts.get("terms", 0), s.calls), "count")
        put("gamma_core.run_truncated_log_sum.unconfirmed", per_pass(s.counts.get("unconfirmed", 0)), "count")
        s = stat("gamma_core.ln_gamma")
        put("gamma_core.ln_gamma.calls", per_pass(s.calls), "count")
        put("gamma_core.ln_gamma.s", per_pass(s.s), "s")
        put("gamma_core.ln_gamma.calls_per_s", ratio(s.calls, s.s), "1/s")
        s = stat("gamma_core.gamma_ratio_product")
        put("gamma_core.gamma_ratio_product.calls", per_pass(s.calls), "count")
        put("gamma_core.gamma_ratio_product.s", per_pass(s.s), "s")

        s = stat("moments.f_product")
        put("moments.f_product.calls", per_pass(s.calls), "count")
        put("moments.f_product.s", per_pass(s.s), "s")
        put("moments.f_product.cells_per_s", ratio(s.calls, s.s), "1/s")
        put("moments.f_product.unconverged", per_pass(s.counts.get("unconverged", 0)), "count")
        for f in ("f_gamma", "derivative_sign_series", "gk_ratio_product"):
            s = stat(f"moments.{f}")
            put(f"moments.{f}.calls", per_pass(s.calls), "count")
            put(f"moments.{f}.s", per_pass(s.s), "s")

        for fn, suite in SUITES.items():
            put(f"verify.{suite}.s", per_pass(stat(f"verify.{fn}").s), "s")
        put("verify.checks", per_pass(stat("verify.run_suite").counts.get("checks", 0)), "count")

        s = stat("cli.main")
        put("cli.main.s", per_pass(s.s), "s")
        put("cli.self_s", per_pass(s.s - s.child_s), "s")

        s = stat("montecarlo.estimate_f")
        put("montecarlo.estimate_f.calls", per_pass(s.calls), "count")
        put("montecarlo.estimate_f.s", per_pass(s.s), "s")
        put("montecarlo.estimate_f.self_s", per_pass(s.s - s.child_s), "s")
        put("montecarlo.pairs_per_s", ratio(s.counts.get("pairs", 0), s.s), "1/s")
        s = stat("montecarlo.sample_ball")
        put("montecarlo.sample_ball.calls", per_pass(s.calls), "count")
        put("montecarlo.sample_ball.rows", per_pass(s.counts.get("rows", 0)), "count")
        put("montecarlo.sample_ball.s", per_pass(s.s), "s")
        put("montecarlo.sample_ball.minflt", per_pass(s.counts.get("minflt", 0)), "count")
        for path in ("p1", "p2", "pinf", "pother"):
            put(f"montecarlo.sample_ball.s_{path}", per_pass(s.counts.get(f"s_{path}", 0.0)), "s")
        return out


# -- counters read from arguments and results --------------------------------

def _observe_kernel(stat, args, result, dt):
    k_lo, k_hi = args[2], args[3]
    stat.add("terms", max(k_hi - k_lo + 1, 0))


def _observe_truncation(stat, args, result, dt):
    stat.add("terms", result.terms)
    stat.add("unconfirmed", int(result.confirmed is False))


def _observe_f_product(stat, args, result, dt):
    stat.add("unconverged", int(not result.converged))


def _observe_estimate(stat, args, result, dt):
    stat.add("pairs", result.samples)


def _observe_suite(stat, args, result, dt):
    stat.add("checks", len(result))


def _sampler_path(p) -> str:
    p = float(getattr(p, "p", p))
    if p == 1.0:
        return "p1"
    if p == 2.0:
        return "p2"
    if math.isinf(p):
        return "pinf"
    return "pother"


def _observe_sample(stat, args, result, dt):
    stat.add("rows", 1 if result.ndim == 1 else result.shape[0])
    stat.add(f"s_{_sampler_path(args[1])}", dt)
