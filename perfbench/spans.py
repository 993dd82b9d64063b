"""Spans around the calls that cross from one grothlab module into another.

The benchmark installs these wrappers from the outside; the library has no
tracing of its own.  A public function of layer A is wrapped under every
module-global name it is imported as in another layer B, so only calls from
B into A are recorded.  The methods of `Polynomial` and `TruncatedSeries`
are wrapped on the class and record a span only when the caller's module is
not `grothlab.algebra`.  A generator returned by a wrapped function is
wrapped too, so that lazy enumeration is charged to the layer that does it.

Spans are kept in memory as columns and written out when the run ends.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("cli", "polynomials", "algebra", "tableaux", "insertion", "partitions")
TRACED_CLASSES = ("Polynomial", "TruncatedSeries")
# A traced run stops after the pass that reaches this many spans (about
# 40 MB in memory), however much of its time is left.
MAX_SPANS = 1_000_000

# Operation groups of the per-layer metrics, by span name.
MUL_OPS = {f"algebra.{c}.{m}" for c in TRACED_CLASSES for m in ("__mul__", "__rmul__")}
ADD_OPS = {f"algebra.{c}.{m}" for c in TRACED_CLASSES for m in ("__add__", "__radd__", "__sub__")}
ANTISYM_OPS = {"algebra.antisymmetrize", "algebra.coset_sum"}
DIVIDE_OPS = {"algebra.divide_exact"}


def _nterms(x) -> int:
    """Stored terms of a Polynomial or TruncatedSeries; 1 for a scalar."""
    if isinstance(x, int):
        return 1
    poly = getattr(x, "poly", x)
    return len(getattr(poly, "terms", ()))


def _filling_cells(filling) -> int:
    return sum(len(row) for row in filling.rows)


class Tracer:
    """Span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self.enabled = False
        self.case = 0
        self.ops: list[str] = []
        self._op_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.span_case = array("l")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _op_id(self, name: str) -> int:
        if name not in self._op_ids:
            self._op_ids[name] = len(self.ops)
            self.ops.append(name)
        return self._op_ids[name]

    def _open(self, op: int) -> int:
        idx = len(self.span_op)
        self.span_case.append(self.case)
        self.span_op.append(op)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _call(self, op, fn, count, args, kwargs):
        idx = self._open(op)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if count is not None:
            count(self.counts, args, kwargs, result)
        if isinstance(result, types.GeneratorType):
            return self._iterate(op, result)
        return result

    def _iterate(self, op, gen):
        enumerates = self.ops[op].startswith("tableaux.enumerate")
        while True:
            if not self.enabled:
                yield from gen
                return
            idx = self._open(op)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            if enumerates:
                self.counts["tableaux.enumerated"] += 1
            yield item

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str):
        """Wrapper recording a span named `name` around every call."""
        op = self._op_id(name)
        count = _counter_for(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._call(op, fn, count, args, kwargs)

        return traced

    def _wrap_method(self, fn, name: str, owner: str):
        op = self._op_id(name)
        count = _counter_for(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or sys._getframe(1).f_globals.get("__name__") == owner:
                return fn(*args, **kwargs)
            return tracer._call(op, fn, count, args, kwargs)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the cross-module bindings and class methods of `modules`.

        `modules` maps a layer name to its imported module.
        """
        by_module = {mod.__name__: layer for layer, mod in modules.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                owner = getattr(value, "__module__", None)
                if owner == mod.__name__ or owner not in by_module:
                    continue
                name = getattr(value, "__name__", attr)
                if name.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                setattr(mod, attr, self.wrap(value, f"{by_module[owner]}.{name}"))
        algebra = modules["algebra"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(algebra, cls_name)
            for attr, value in list(vars(cls).items()):
                name = f"algebra.{cls_name}.{attr}"
                if isinstance(value, classmethod):
                    wrapped = self._wrap_method(value.__func__, name, algebra.__name__)
                    setattr(cls, attr, classmethod(wrapped))
                elif inspect.isfunction(value):
                    setattr(cls, attr, self._wrap_method(value, name, algebra.__name__))

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        own = [e - s for s, e in zip(self.span_start, self.span_end)]
        out = list(own)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= own[i]
        return out

    def summary(self, case_walls: list[float]) -> dict:
        """Per-layer totals, checked against the traced wall time.

        `case_walls[i]` is the wall time of case i, measured around the call
        that the benchmark makes into the library.
        """
        if self._stack:
            raise RuntimeError("spans left open at the end of the run")
        selfs = self.self_times()
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = Counter()
        op_time = Counter()
        op_calls = Counter()
        top = [0.0] * len(case_walls)
        for i, op in enumerate(self.span_op):
            name = self.ops[op]
            layer = name.split(".", 1)[0]
            dur = self.span_end[i] - self.span_start[i]
            if selfs[i] < -1e-9:
                raise RuntimeError(f"span {name} is shorter than its children")
            layer_self[layer] += selfs[i]
            layer_calls[layer] += 1
            op_time[name] += dur
            op_calls[name] += 1
            if self.span_parent[i] < 0:
                top[self.span_case[i]] += dur
        wall = math.fsum(case_walls)
        unattributed = math.fsum(w - t for w, t in zip(case_walls, top))
        if any(t > w + 1e-9 for w, t in zip(case_walls, top)):
            raise RuntimeError("top-level spans exceed their case's wall time")
        accounted = math.fsum(layer_self.values()) + unattributed
        if abs(accounted - wall) > 1e-6 * max(wall, 1e-3):
            raise RuntimeError(f"self times plus remainder {accounted} != traced wall {wall}")

        def total(ops):
            return sum(op_time[o] for o in ops)

        return {
            "wall_s": wall,
            "unattributed_s": unattributed,
            "layer_self_s": layer_self,
            "layer_calls": dict(layer_calls),
            "mul_s": total(MUL_OPS),
            "add_s": total(ADD_OPS),
            "add_calls": sum(op_calls[o] for o in ADD_OPS),
            "antisym_s": total(ANTISYM_OPS),
            "divide_s": total(DIVIDE_OPS),
            "validate_s": sum(t for o, t in op_time.items() if o.startswith("tableaux.is_valid")),
            "counts": dict(self.counts),
            "spans": len(self.span_op),
        }

    def write(self, path) -> None:
        """Write every span, gzipped, as columns: op names, then one list per field."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(
                {
                    "ops": self.ops,
                    "case": list(self.span_case),
                    "op": list(self.span_op),
                    "parent": list(self.span_parent),
                    "start": list(self.span_start),
                    "end": list(self.span_end),
                },
                fh,
            )


# -- counters read at the span boundaries -----------------------------------


def _count_mul(counts, args, kwargs, result):
    counts["algebra.mul_pairs"] += _nterms(args[0]) * _nterms(args[1])
    counts["algebra.mul_terms"] += _nterms(result)


def _antisym_counter(fn, coset: bool):
    """Counts permutations x input terms, and output terms, of one call.

    `antisymmetrize(f, n=None)` sums over S_n, `coset_sum(f, n, m)` over
    n!/(n-m)! coset representatives.
    """
    signature = inspect.signature(fn)

    def count(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        f, n, *rest = bound.arguments.values()
        if coset:
            perms = math.perm(n, rest[0])
        else:
            perms = math.factorial(getattr(f, "poly", f).nx if n is None else n)
        counts["algebra.antisym_inputs"] += perms * _nterms(f)
        counts["algebra.antisym_terms"] += _nterms(result)

    return count


def _count_enumerated(counts, args, kwargs, result):
    if isinstance(result, (list, tuple)):
        counts["tableaux.enumerated"] += len(result)


def _count_terms_out(counts, args, kwargs, result):
    counts["polynomials.terms_out"] += _nterms(result)


def _count_out_steps(counts, args, kwargs, result):
    counts["insertion.steps"] += _filling_cells(result[1])


def _count_in_steps(counts, args, kwargs, result):
    counts["insertion.steps"] += _filling_cells(args[1])


def _counter_for(name: str, fn):
    if name in ANTISYM_OPS:
        return _antisym_counter(fn, coset=name == "algebra.coset_sum")
    if name in _COUNTERS:
        return _COUNTERS[name]
    if name.startswith("tableaux.enumerate"):
        return _count_enumerated
    if name.startswith("polynomials."):
        return _count_terms_out
    return None


_COUNTERS = {
    **{op: _count_mul for op in MUL_OPS},
    "insertion.psi": _count_out_steps,
    "insertion.phi": _count_out_steps,
    "insertion.psi_inverse": _count_in_steps,
    "insertion.phi_inverse": _count_in_steps,
}
