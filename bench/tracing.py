"""In-memory span recorder for the traced benchmark run.

Each call into a public function of a seirv layer module becomes one span:
(name, start, end, parent, count, error, f64), where f64 marks an
``integrate`` call whose state or params carry numpy scalars. Wrappers are
installed in every module namespace that holds the function object, because
callers look names up where they imported them (``seirv.control.integrate``
is the same object as ``seirv.model.integrate``). Counts come from return
values: trajectory length gives steps, ``OptimRun.history`` gives accepted
moves, and the third value returned by ``nelder_mead`` gives iterations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

#: Layer modules of seirv; ``errors`` holds exception types only.
LAYERS = ("model", "equilibria", "analysis", "control", "calibration", "cli")

_IDX_START, _IDX_END, _IDX_PARENT, _IDX_COUNT, _IDX_ERROR, _IDX_F64 = 1, 2, 3, 4, 5, 6


def _has_numpy_scalar(obj) -> bool:
    return any(isinstance(v, np.generic) for v in vars(obj).values())


def _integrate_f64(args, kwargs) -> bool:
    p = args[0] if args else kwargs.get("p")
    init = args[1] if len(args) > 1 else kwargs.get("init")
    return _has_numpy_scalar(p) or _has_numpy_scalar(init)


#: Work counts read off the return value of selected functions.
_COUNTS = {
    "model.integrate": lambda r: len(r.times) - 1,
    "control.solve_adjoint": lambda r: len(r.times) - 1,
    "control.hybrid_optimize": lambda r: len(r.history) - 1,
    "calibration.nelder_mead": lambda r: r[2],
}


#: Unit of every per-layer metric, in the order layer_metrics reports them.
UNITS = {
    "model.integrate.calls": "count",
    "model.integrate.steps": "count",
    "model.integrate.self_s": "s",
    "model.integrate.us_per_step": "us",
    "model.integrate.errors": "count",
    "model.integrate.f64_steps": "count",
    "model.integrate.us_per_step_f64": "us",
    "control.cost.calls": "count",
    "control.cost.self_s": "s",
    "control.cost.s_per_call": "s",
    "control.gradient.calls": "count",
    "control.gradient.self_s": "s",
    "control.gradient.s_per_call": "s",
    "control.solve_adjoint.self_s": "s",
    "control.solve_adjoint.us_per_step": "us",
    "control.hybrid_optimize.self_s": "s",
    "control.accepted_moves": "count",
    "control.accept_ratio": "ratio",
    "calibration.nelder_mead.iterations": "count",
    "calibration.nelder_mead.self_s": "s",
    "calibration.sse.calls": "count",
    "calibration.model_cumulative.self_s": "s",
    "calibration.evals_per_iter": "eval/iter",
    "calibration.averted_cases.self_s": "s",
    "analysis.calls": "count",
    "analysis.self_s": "s",
    "equilibria.calls": "count",
    "equilibria.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class SpanRecorder:
    """Records spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_of = _COUNTS.get(name)
        f64_of = _integrate_f64 if name == "model.integrate" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            f64 = f64_of(args, kwargs) if f64_of is not None else False
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, False, f64]
            stack.append(len(spans))
            spans.append(span)
            span[_IDX_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_IDX_END] = perf_counter()
                span[_IDX_ERROR] = True
                raise
            finally:
                stack.pop()
            span[_IDX_END] = perf_counter()
            if count_of is not None:
                span[_IDX_COUNT] = count_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"seirv.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("seirv"), *modules.values()]
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ("main",)):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, traced)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()


def merge_spans(span_lists) -> list:
    """Concatenate span lists, shifting parent indices into the merged list."""
    merged: list = []
    for spans in span_lists:
        base = len(merged)
        for s in spans:
            parent = s[_IDX_PARENT] + base if s[_IDX_PARENT] >= 0 else -1
            merged.append([s[0], s[1], s[2], parent, s[4], s[5], s[6]])
    return merged


def layer_metrics(spans, n_passes: int, import_s: float, output_bytes: float) -> dict:
    """Per-layer metrics from spans of ``n_passes`` traced passes.

    Extensive figures (calls, steps, seconds) are per pass; rates and
    ratios are taken over all spans. Self time is a span's duration minus
    the time its direct children cover (children never overlap: one thread).
    """
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[_IDX_PARENT] >= 0:
            child_time[s[_IDX_PARENT]] += s[_IDX_END] - s[_IDX_START]
    self_s = [s[_IDX_END] - s[_IDX_START] - child_time[k] for k, s in enumerate(spans)]

    def names(pred):
        return [k for k, s in enumerate(spans) if pred(s[0])]

    def total_self(idx):
        return sum(self_s[k] for k in idx)

    def total_count(idx):
        return sum(spans[k][_IDX_COUNT] for k in idx)

    def inclusive(idx):
        return sum(spans[k][_IDX_END] - spans[k][_IDX_START] for k in idx)

    def under(k, ancestor_name):
        p = spans[k][_IDX_PARENT]
        while p >= 0:
            if spans[p][0] == ancestor_name:
                return True
            p = spans[p][_IDX_PARENT]
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / max(1, n_passes)
    integ = names(lambda nm: nm == "model.integrate")
    integ_f64 = [k for k in integ if spans[k][_IDX_F64]]
    steps = total_count(integ)
    steps_f64 = total_count(integ_f64)
    cost = names(lambda nm: nm == "control.cost")
    grad = names(lambda nm: nm == "control.gradient")
    adj = names(lambda nm: nm == "control.solve_adjoint")
    hyb = names(lambda nm: nm == "control.hybrid_optimize")
    accepted = total_count(hyb)
    nm_spans = names(lambda nm: nm == "calibration.nelder_mead")
    iterations = total_count(nm_spans)
    sse_spans = names(lambda nm: nm == "calibration.sse")
    sse_in_nm = sum(1 for k in sse_spans if under(k, "calibration.nelder_mead"))
    analysis = names(lambda nm: nm.startswith("analysis."))
    equil = names(lambda nm: nm.startswith("equilibria."))
    cli_main = names(lambda nm: nm == "cli.main")

    return {
        "model.integrate.calls": len(integ) * per,
        "model.integrate.steps": steps * per,
        "model.integrate.self_s": total_self(integ) * per,
        "model.integrate.us_per_step": 1e6 * ratio(total_self(integ), steps),
        "model.integrate.errors": sum(1 for k in integ if spans[k][_IDX_ERROR]) * per,
        "model.integrate.f64_steps": steps_f64 * per,
        "model.integrate.us_per_step_f64": 1e6 * ratio(total_self(integ_f64), steps_f64),
        "control.cost.calls": len(cost) * per,
        "control.cost.self_s": total_self(cost) * per,
        "control.cost.s_per_call": ratio(inclusive(cost), len(cost)),
        "control.gradient.calls": len(grad) * per,
        "control.gradient.self_s": total_self(grad) * per,
        "control.gradient.s_per_call": ratio(inclusive(grad), len(grad)),
        "control.solve_adjoint.self_s": total_self(adj) * per,
        "control.solve_adjoint.us_per_step": 1e6 * ratio(total_self(adj), total_count(adj)),
        "control.hybrid_optimize.self_s": total_self(hyb) * per,
        "control.accepted_moves": accepted * per,
        "control.accept_ratio": ratio(accepted, len(cost)),
        "calibration.nelder_mead.iterations": iterations * per,
        "calibration.nelder_mead.self_s": total_self(nm_spans) * per,
        "calibration.sse.calls": len(sse_spans) * per,
        "calibration.model_cumulative.self_s":
            total_self(names(lambda nm: nm == "calibration.model_cumulative")) * per,
        "calibration.evals_per_iter": ratio(sse_in_nm, iterations),
        "calibration.averted_cases.self_s":
            total_self(names(lambda nm: nm == "calibration.averted_cases")) * per,
        "analysis.calls": len(analysis) * per,
        "analysis.self_s": total_self(analysis) * per,
        "equilibria.calls": len(equil) * per,
        "equilibria.self_s": total_self(equil) * per,
        "cli.import_s": import_s,
        "cli.main.self_s": total_self(cli_main) * per,
        "cli.output_bytes": output_bytes,
    }
