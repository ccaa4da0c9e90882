"""Per-layer tracing from outside the program.

The tracer wraps public functions of each diffpi module, and methods of
its classes, from the benchmark's own files; nothing under src/ knows
about it. Every import site is patched: a name bound with
``from .codim import codim`` in another module is replaced too, because
the patch walks every loaded diffpi module for attributes that are the
original function object. Modules are reached through
importlib.import_module, since ``diffpi.codim`` is the function that
diffpi/__init__ re-exports, not the module.

Spans (name, start, end, parent, job) are kept in memory. A span's self
time is its duration minus the durations of its direct children; a
function's inclusive time counts only its outermost spans, so recursion
is not counted twice.
"""

import importlib
import json
import sys
from collections import Counter
from math import factorial
from time import perf_counter

# (layer, module, owner class or None, function name)
TIMED = (
    ("linalg", "diffpi.linalg", "RowSpan", "insert"),
    ("linalg", "diffpi.linalg", "RowSpan", "express"),
    ("linalg", "diffpi.linalg", "RowSpan", "contains"),
    ("linalg", "diffpi.linalg", None, "nullspace"),
    ("linalg", "diffpi.linalg", None, "solve"),
    ("codim", "diffpi.codim", None, "codim"),
    ("codim", "diffpi.codim", None, "monomial_row"),
    ("characters", "diffpi.characters", None, "cocharacter"),
    ("characters", "diffpi.characters", None, "module_trace"),
    ("algebra", "diffpi.algebra", None, "wedderburn"),
    ("algebra", "diffpi.algebra", None, "split_derivation"),
    ("growth", "diffpi.growth", None, "classify"),
    ("growth", "diffpi.growth", None, "exponent"),
    ("growth", "diffpi.growth", None, "detect_ut2_pattern"),
    ("freediff", "diffpi.freediff", None, "operator_basis"),
    ("freediff", "diffpi.freediff", None, "consequences"),
    ("cli", "diffpi.cli", None, "main"),
    ("cli", "diffpi.cli", None, "load_input"),
)

# exact work counters: (metric, unit, better)
COUNTERS = (
    ("linalg.insert_accepted", "count", "lower"),
    ("linalg.max_coeff_bits", "bits", "lower"),
    ("codim.rows_evaluated", "count", "lower"),
    ("algebra.multiply_calls", "count", "lower"),
    ("freediff.operator_labels", "count", "lower"),
)


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, _, _, fname in TIMED:
        base = f"{layer}.{fname}"
        out += [(f"{base}_calls", "count", "lower"),
                (f"{base}_s", "s", "lower"),
                (f"{base}_self_s", "s", "lower")]
    out += list(COUNTERS)
    out += [("linalg.accept_ratio", "ratio", "higher"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.self_coverage", "ratio", "higher")]
    return out


def _max_bits(row) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in row.values()), default=0)


class Tracer:
    """Install with install(), remove with uninstall(); spans of the
    current round are in self.spans and are cleared by reset()."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job, outer]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._active = Counter()
        self._patches = []   # (owner, attribute, original)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # -- wrapping ---------------------------------------------------------

    def _timed(self, name, fn, after=None):
        stack, active, tracer = self._stack, self._active, self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                   not active[name]]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                rec[2] = perf_counter()
                active[name] -= 1
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_insert(self, args, kwargs, accepted):
        if accepted:
            span = args[0]
            self.counts["linalg.insert_accepted"] += 1
            bits = _max_bits(span.pivots[next(reversed(span.pivots))])
            if bits > self.counts["linalg.max_coeff_bits"]:
                self.counts["linalg.max_coeff_bits"] = bits

    def _after_codim(self, args, kwargs, result):
        n = args[2] if len(args) > 2 else kwargs["n"]
        ordinary = kwargs.get("ordinary_only",
                              args[3] if len(args) > 3 else False)
        k = 1 if ordinary else args[1].k
        self.counts["codim.rows_evaluated"] += factorial(n) * k ** n

    def _after_operator_basis(self, args, kwargs, result):
        self.counts["freediff.operator_labels"] += result.k

    def _counted(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        hooks = {"insert": self._after_insert, "codim": self._after_codim,
                 "operator_basis": self._after_operator_basis}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "diffpi" or name.startswith("diffpi.")]
        for layer, modname, cls, fname in TIMED:
            mod = importlib.import_module(modname)
            name = f"{layer}.{fname}"
            if cls is not None:
                owner = getattr(mod, cls)
                fn = owner.__dict__[fname]
                self._patch(owner, fname,
                            self._timed(name, fn, hooks.get(fname)))
                continue
            fn = getattr(mod, fname)
            wrapped = self._timed(name, fn, hooks.get(fname))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, attr, wrapped)
        algebra = importlib.import_module("diffpi.algebra").Algebra
        self._patch(algebra, "multiply",
                    self._counted("algebra.multiply_calls",
                                  algebra.__dict__["multiply"]))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls, inclusive and self seconds for this round,
        plus the exact counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _, outer) in enumerate(self.spans):
            calls[name] += 1
            if outer:
                incl[name] += end - start
            self_s[name] += end - start - child[i]
        out = {}
        for layer, _, _, fname in TIMED:
            name = f"{layer}.{fname}"
            out[f"{name}_calls"] = calls[name]
            out[f"{name}_s"] = incl[name]
            out[f"{name}_self_s"] = self_s[name]
        for key, _, _ in COUNTERS:
            out[key] = self.counts[key]
        offered = calls["linalg.insert"]
        out["linalg.accept_ratio"] = (
            self.counts["linalg.insert_accepted"] / offered if offered else 0)
        out["trace.self_total_s"] = sum(self_s.values())
        return out

    def write(self, path):
        """Spans of the last round as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
