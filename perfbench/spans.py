"""Span tracing for the fraclap benchmark.

`Recorder.install` wraps the public functions of fraclap's layers and
rebinds each wrapper wherever a caller looks the name up: a function defined
in fraclap is replaced in every fraclap module that binds it (so
`fraclap.operator.eval_C` and `fraclap.exponents.eval_C` both trace), a
foreign function only in the module named for it (so `solvers.lu_factor`
counts the solver's factorizations and not the torsion solve in
`fraclap.barriers`), and a method on its class.  Spans are kept in memory as
[name, start, end, parent index, counters] and written once, at the end of
the traced process.

`summarize` turns one process's spans into per-layer figures.  It is plain
Python so the benchmark's parent process can use it without importing
fraclap or numpy.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("quadrature", "exponents", "operator", "barriers", "solvers", "rates", "grid")


def _lu_work(args, kwargs, result):
    m = args[0].shape[0]
    return {"gflop_computed": 2.0 / 3.0 * m**3 / 1e9}


def _power_points(args, kwargs, result):
    from fraclap.barriers import PowerTerm

    n_power = sum(1 for _, term in args[0].terms if isinstance(term, PowerTerm))
    return {"points": n_power * len(result[0][1]) if result else 0}


def _blowup_counts(args, kwargs, result):
    return {
        "iterations": sum(lev.trace.iterations for lev in result.levels),
        "shift_rebuilds": sum(lev.trace.shift_rebuilds for lev in result.levels),
    }


# (span name, defining module, attribute path, counters taken from the call)
TARGETS = (
    ("quadrature.eval_C", "fraclap.quadrature", "eval_C", None),
    ("quadrature.eval_C_derivatives", "fraclap.quadrature", "eval_C_derivatives", None),
    ("exponents.find_tau0", "fraclap.exponents", "find_tau0", None),
    ("operator.eval_on_power", "fraclap.operator", "eval_on_power", None),
    ("operator.assemble", "fraclap.operator", "assemble", None),
    ("barriers.make_existence_pair", "fraclap.barriers", "make_existence_pair", None),
    ("barriers.make_nonexistence_family", "fraclap.barriers", "make_nonexistence_family", None),
    ("barriers.globalize_pair", "fraclap.barriers", "globalize_pair", None),
    ("barriers.torsion", "fraclap.barriers", "torsion", None),
    ("barriers.term_arrays", "fraclap.barriers", "BarrierSpec.term_arrays", _power_points),
    ("solvers.solve_blowup", "fraclap.solvers", "solve_blowup", _blowup_counts),
    ("solvers.lu_factor", "fraclap.solvers", "lu_factor", _lu_work),
    ("solvers.lu_solve", "fraclap.solvers", "lu_solve", None),
    ("rates.fit_exponent", "fraclap.rates", "fit_exponent", None),
    ("grid.to_csv", "fraclap.grid", "GridFunction.to_csv", None),
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counters=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "fraclap"]
        for name, module_name, attr, counters in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counters))
                continue
            fn = getattr(module, attr)
            wrapper = self.wrap(name, fn, counters)
            owners = modules if fn.__module__.split(".")[0] == "fraclap" else [module]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapper)


def summarize(spans: list[list], wall_s: float) -> dict:
    """Per-span-name figures of one traced process.

    For each name: `calls`, `s` (wall time inside the outermost span of that
    name), `self_s` (span time minus the time of its child spans) and the sum
    of any counters.  Per layer: `<layer>.self_s`, and `other.self_s` for the
    traced wall time outside every span.
    """
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (name, t0, t1, parent, counters) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child_time[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            entry["s"] += t1 - t0
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value
    layers = {layer: 0.0 for layer in LAYERS}
    for name, entry in out.items():
        layers[name.split(".")[0]] += entry["self_s"]
    top = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent < 0)
    flat = {f"{name}.{key}": value for name, entry in out.items() for key, value in entry.items()}
    flat.update({f"{layer}.self_s": s for layer, s in layers.items()})
    flat["other.self_s"] = wall_s - top
    return flat
