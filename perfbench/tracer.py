"""Spans and counters around superhopf's public functions, installed from
outside the package.

`Tracer.install()` replaces each traced function or method, in every module
of the package that binds it, by a wrapper that times the call. Calls into
coarse functions (eliminations, verdicts, decompositions) become spans with a
parent link and a job id; the hot field operations only add to aggregate
counters, since one job makes millions of them. A wrapped call's self time is
its duration minus the time spent in wrapped calls made inside it, field
operations included. Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref
from collections import Counter

PACKAGE = "superhopf"
MODULES = ("fields", "superlin", "hopfcore", "dgxrep", "chargroup", "hcp", "smoothcheck", "cli")

# FieldElement methods counted by field kind, under the operation named.
FIELD_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "inverse": "inverse",
    "is_zero": "is_zero",
}
# (module, owner class or None, attribute, record spans)
COARSE = [
    ("superlin", None, "row_reduce", True),
    ("superlin", None, "solve", True),
    ("superlin", None, "kernel_basis", True),
    ("hopfcore", None, "verify_hopf_axioms", True),
    ("hopfcore", "MonomialHopfSuperalgebra", "delta_monomial", False),
    ("hopfcore", "MonomialHopfSuperalgebra", "mul", False),
    ("dgxrep", None, "decompose", True),
    ("dgxrep", "Supercomodule", "validate", True),
    ("dgxrep", None, "standard_object", True),
    ("chargroup", None, "smith_normal_form", True),
    ("cli", None, "main", True),
]
# Every public function defined in these modules is a verdict function.
VERDICT_MODULES = ("hcp", "smoothcheck")


def _max_bits(matrices):
    return max((abs(x).bit_length() for mat in matrices for row in mat for x in row), default=0)


class Tracer:
    def __init__(self):
        # each frame: [time covered by wrapped children (ns), span id]
        self._stack = [[0, None]]
        self.agg = {}  # name -> [calls, total ns, self ns]
        self.counters = Counter()
        self.field_kinds = Counter()  # field operations by Field.kind
        self.spans = []  # (name, parent span id, job id, start ns, end ns)
        self.job_id = None
        self._patches = []
        self._seen_delta = weakref.WeakKeyDictionary()

    # -- installation -----------------------------------------------------------
    def install(self):
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        targets = []  # (owner, attribute, replacement)
        self._inconsistent = mods["superlin"].InconsistentSystem
        elem = mods["fields"].FieldElement
        for attr, op in FIELD_OPS.items():
            targets.append((elem, attr, self._field_op(getattr(elem, attr), f"fields.{op}")))
        for mod, cls, attr, span in COARSE:
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            name = f"{mod}.{attr}"
            targets.append((owner, attr, self._wrap(name, getattr(owner, attr), span,
                                                    getattr(self, f"_observe_{attr}", None))))
        for mod in VERDICT_MODULES:
            for attr, fn in vars(mods[mod]).items():
                if inspect.isfunction(fn) and fn.__module__ == mods[mod].__name__ \
                        and not attr.startswith("_"):
                    targets.append((mods[mod], attr, self._wrap(f"{mod}.{attr}", fn, True, None)))
        replacement = {}
        for owner, attr, wrapper in targets:
            original = owner.__dict__[attr]
            replacement.setdefault(id(original), (original, wrapper))
            self._patch(owner, attr, replacement[id(original)][1])
        # rebind names imported elsewhere with `from .module import name`
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith(PACKAGE):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------------
    def _field_op(self, fn, name):
        stack, clock, kinds = self._stack, time.perf_counter_ns, self.field_kinds
        agg = self.agg.setdefault(name, [0, 0, 0])

        def wrapper(elem, *args):
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(elem, *args)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                kinds[elem.field.kind] += 1

        return wrapper

    def _wrap(self, name, fn, span, observe):
        stack, clock, spans = self._stack, time.perf_counter_ns, self.spans
        agg = self.agg.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, len(spans) if span else parent[1]]
            if span:
                spans.append(None)
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += t1 - t0 - frame[0]
                if span:
                    spans[frame[1]] = (name, parent[1], self.job_id, t0, t1)
                if observe is not None:
                    observe(args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def job(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job_id = job_id
        return self._wrap("job", fn, True, None)()

    # -- observers: counts taken at the layer boundary --------------------------------
    def _observe_row_reduce(self, args, result, exc):
        rows = args[0]
        cells = len(rows) * len(rows[0]) if rows else 0
        self.counters["superlin.row_reduce.cells"] += cells
        self.counters["superlin.row_reduce.max_cells"] = max(
            self.counters["superlin.row_reduce.max_cells"], cells)

    def _observe_solve(self, args, result, exc):
        if isinstance(exc, self._inconsistent):
            self.counters["superlin.solve.inconsistent"] += 1

    def _observe_delta_monomial(self, args, result, exc):
        alg, mono = args
        seen = self._seen_delta.setdefault(alg, set())
        if mono not in seen:
            seen.add(mono)
            self.counters["hopfcore.delta_monomial.distinct"] += 1
        if result is not None:
            self.counters["hopfcore.delta_terms"] += len(result.terms)

    def _observe_smith_normal_form(self, args, result, exc):
        bits = _max_bits([args[0]] + (list(result) if result is not None else []))
        self.counters["chargroup.smith_normal_form.max_entry_bits"] = max(
            self.counters["chargroup.smith_normal_form.max_entry_bits"], bits)

    # -- output --------------------------------------------------------------------
    def snapshot(self):
        return {"agg": self.agg, "counters": dict(self.counters),
                "field_kinds": dict(self.field_kinds), "spans": self.spans}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots):
    """One snapshot from several (one per process); counts add, maxima max."""
    agg, counters, kinds, spans = {}, Counter(), Counter(), []
    for snap in snapshots:
        for name, (calls, total, self_ns) in snap["agg"].items():
            cur = agg.setdefault(name, [0, 0, 0])
            cur[0] += calls
            cur[1] += total
            cur[2] += self_ns
        for name, value in snap["counters"].items():
            if name.endswith(".max_cells") or name.endswith(".max_entry_bits"):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
        kinds.update(snap["field_kinds"])
        offset = len(spans)
        spans.extend((n, None if p is None else p + offset, j, a, b)
                     for n, p, j, a, b in snap["spans"])
    return {"agg": agg, "counters": dict(counters), "field_kinds": dict(kinds), "spans": spans}


FIELD_KINDS = ("Q", "Fp", "Fpt", "Qsqrt")


def layer_metrics(snap):
    """The per-layer metrics named in BENCHMARK.json, from a snapshot."""
    agg, counters, kinds = snap["agg"], snap["counters"], snap["field_kinds"]

    def calls(name):
        return agg.get(name, [0, 0, 0])[0]

    def self_s(*names):
        return sum(agg.get(n, [0, 0, 0])[2] for n in names) / 1e9

    def prefixed(prefix):
        return [n for n in agg if n.startswith(prefix)]

    solves = calls("superlin.solve")
    out = {f"fields.ops.{k}": (kinds.get(k, 0), "count") for k in FIELD_KINDS}
    out.update({
        "fields.inverse.calls": (calls("fields.inverse"), "count"),
        "fields.self_s": (self_s(*prefixed("fields.")), "s"),
        "superlin.row_reduce.calls": (calls("superlin.row_reduce"), "count"),
        "superlin.row_reduce.self_s": (self_s("superlin.row_reduce"), "s"),
        "superlin.row_reduce.cells": (counters.get("superlin.row_reduce.cells", 0), "count"),
        "superlin.row_reduce.max_cells": (counters.get("superlin.row_reduce.max_cells", 0), "count"),
        "superlin.solve.calls": (solves, "count"),
        "superlin.solve.inconsistent_frac": (
            counters.get("superlin.solve.inconsistent", 0) / solves if solves else 0.0, "ratio"),
        "superlin.kernel_basis.calls": (calls("superlin.kernel_basis"), "count"),
        "hopfcore.verify_hopf_axioms.self_s": (self_s("hopfcore.verify_hopf_axioms"), "s"),
        "hopfcore.delta_monomial.calls": (calls("hopfcore.delta_monomial"), "count"),
        "hopfcore.delta_monomial.distinct": (
            counters.get("hopfcore.delta_monomial.distinct", 0), "count"),
        "hopfcore.mul.calls": (calls("hopfcore.mul"), "count"),
        "hopfcore.delta_terms": (counters.get("hopfcore.delta_terms", 0), "count"),
        "dgxrep.decompose.calls": (calls("dgxrep.decompose"), "count"),
        "dgxrep.decompose.self_s": (self_s("dgxrep.decompose"), "s"),
        "dgxrep.validate.self_s": (self_s("dgxrep.validate"), "s"),
        "dgxrep.standard_object.calls": (calls("dgxrep.standard_object"), "count"),
        "chargroup.smith_normal_form.calls": (calls("chargroup.smith_normal_form"), "count"),
        "chargroup.smith_normal_form.self_s": (self_s("chargroup.smith_normal_form"), "s"),
        "chargroup.smith_normal_form.max_entry_bits": (
            counters.get("chargroup.smith_normal_form.max_entry_bits", 0), "bit"),
        "hcp.self_s": (self_s(*prefixed("hcp.")), "s"),
        "smoothcheck.self_s": (self_s(*prefixed("smoothcheck.")), "s"),
    })
    return out
