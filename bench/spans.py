"""Spans and counters wrapped around the program's layers from outside.

Every traced function is wrapped at each place it is bound: the module
that defines it and every ``sloccanon`` module that imported it by name
(``canon`` holds its own ``jordan_decompose``, ``cli`` its own
``apply_all`` and so on), or on the class for methods.  A wrapper on the
defining module alone would miss every call made through an imported
name.  A function that is no longer there is skipped, and the metrics
built on it are reported as missing.

Spans (name, parent, start, end, note) are kept in memory and written
out when the run ends.  A span's self time is its duration less the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import operator
import random
import statistics
import time
from collections import deque
from fractions import Fraction

# span name -> (module, attribute) of the traced functions; "Class.meth"
# names a method, wrapped on the class
LAYERS = {
    "exactmat.matmul": [("exactmat", "Matrix.__matmul__")],
    "exactmat.rref": [("exactmat", "Matrix.rref")],
    "exactmat.char_poly": [("exactmat", "Matrix.char_poly")],
    "exactmat.eigenvalues_in_field": [("exactmat", "eigenvalues_in_field")],
    "exactmat.field_roots": [("exactmat", "_field_roots")],
    "exactmat.jordan_decompose": [("exactmat", "jordan_decompose")],
    "canon.max_rank_combination": [("canon", "max_rank_combination")],
    "canon.full_rank_reduce": [("canon", "full_rank_reduce")],
    "canon.nonfull_rank_split": [("canon", "nonfull_rank_split")],
    "canon.beta_canonical_check": [("canon", "beta_canonical_check")],
    "canon.commuting_pair_canonical": [("canon", "commuting_pair_canonical")],
    "nilpoly": [("nilpoly", f) for f in
                ("mul", "reciprocal", "compose", "shifted_reversion")],
    "symmetry.apply_all": [("symmetry", "apply_all")],
    "symmetry.matrix_route": [("symmetry", "_matrix_route")],
    "symmetry.witness_candidates": [("symmetry", "_witness_candidates")],
    "symmetry.orbit_equivalent": [("symmetry", "orbit_equivalent")],
    "cli.parse": [("cli", "state_from_json"), ("cli", "canon_from_json")],
    "cli.serialize": [("cli", "canon_to_json")],
}

MODULES = ("exactmat", "nilpoly", "canon", "symmetry", "harness", "cli")

# orbit_equivalent's verdict is kept on its span for the hit ratio
NOTES = {"symmetry.orbit_equivalent": operator.attrgetter("status")}

# per-layer metrics: name -> (unit, better); calls and self times are
# per operation of the workload
CALLS = ("exactmat.matmul", "exactmat.rref", "exactmat.char_poly",
         "exactmat.jordan_decompose", "exactmat.eigenvalues_in_field",
         "exactmat.field_roots", "canon.max_rank_combination",
         "canon.commuting_pair_canonical", "nilpoly", "symmetry.apply_all",
         "symmetry.matrix_route", "symmetry.witness_candidates")
SELF = ("exactmat.matmul", "exactmat.rref", "exactmat.char_poly",
        "exactmat.jordan_decompose", "exactmat.eigenvalues_in_field",
        "exactmat.field_roots", "canon.max_rank_combination",
        "canon.nonfull_rank_split", "canon.beta_canonical_check",
        "canon.full_rank_reduce", "canon.commuting_pair_canonical",
        "nilpoly", "symmetry.apply_all", "symmetry.orbit_equivalent",
        "symmetry.witness_candidates", "cli.parse", "cli.serialize")
METRICS = {
    "exactmat.scalar_mul.calls": ("calls/op", "lower"),
    "exactmat.scalar_add.calls": ("calls/op", "lower"),
    "exactmat.scalar_mul.ns": ("ns", "lower"),
    "exactmat.scalar_add.ns": ("ns", "lower"),
    **{f"{n}.calls": ("calls/op", "lower") for n in CALLS},
    **{f"{n}.self_s": ("s/op", "lower") for n in SELF},
    "exactmat.hint_cover_ratio": ("ratio", "higher"),
    "symmetry.closed_form_ratio": ("ratio", "higher"),
    "symmetry.candidates_verified": ("calls/op", "lower"),
    "symmetry.witness_hit_ratio": ("ratio", "higher"),
    "trace.ops_per_s": ("op/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def _resolve(pkg, module: str, attr: str):
    """(owner, name, function) or None when the function is gone."""
    owner = getattr(pkg, module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _binding_sites(pkg, owner, attr, fn):
    """Every (namespace, name) bound to fn: the owner plus importers."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in vars(owner).items() if v is fn]
    return [(mod, k) for mod in (getattr(pkg, m) for m in MODULES)
            for k, v in vars(mod).items() if v is fn]


class Patch:
    """Replaces functions at all their binding sites until undone."""

    def __init__(self):
        self._undo = []

    def set(self, ns, name, value):
        self._undo.append((ns, name, getattr(ns, name)))
        setattr(ns, name, value)

    def wrap(self, pkg, module, attr, make):
        found = _resolve(pkg, module, attr)
        if found is None:
            return False
        owner, name, fn = found
        wrapper = make(fn)
        for ns, k in _binding_sites(pkg, owner, name, fn):
            self.set(ns, k, wrapper)
        return True

    def undo(self):
        for ns, k, fn in reversed(self._undo):
            setattr(ns, k, fn)
        self._undo.clear()


class Tracer:
    """Span recorder; wrappers only record while ``active`` is set."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []      # [name, parent index, start ns, end ns, note]
        self.stack = []
        self.active = False
        self.present = set()

    def _make(self, name, note):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                rec = [name, stack[-1] if stack else -1, clock(), 0, None]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                    if note is not None:
                        rec[4] = note(out)
                    return out
                finally:
                    rec[3] = clock()
                    stack.pop()
            return wrapper
        return make

    def install(self, patch: Patch):
        for name, sites in LAYERS.items():
            make = self._make(name, NOTES.get(name))
            for module, attr in sites:
                if patch.wrap(self.pkg, module, attr, make):
                    self.present.add(name)

    @contextlib.contextmanager
    def span(self, name):
        """A root span around one operation; recording is on inside it."""
        rec = [name, -1, time.perf_counter_ns(), 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.stack.pop()
            rec[3] = time.perf_counter_ns()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, start, end, note) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, start, end, note])
                         + "\n")

    def summary(self, n_ops: int):
        """Per-layer metrics from the recorded spans."""
        spans = self.spans
        calls, self_ns = {}, {}
        child_ns = [0] * len(spans)
        for i, (name, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, parent, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]

        def nearest(i, target):
            i = spans[i][1]
            while i >= 0 and spans[i][0] != target:
                i = spans[i][1]
            return i

        with_roots = {nearest(i, "exactmat.eigenvalues_in_field")
                      for i, s in enumerate(spans)
                      if s[0] == "exactmat.field_roots"}
        routed = {nearest(i, "symmetry.apply_all")
                  for i, s in enumerate(spans)
                  if s[0] == "symmetry.matrix_route"}
        verified = sum(1 for i, s in enumerate(spans)
                       if s[0] == "symmetry.apply_all"
                       and nearest(i, "symmetry.orbit_equivalent") >= 0)
        hits = sum(1 for s in spans if s[0] == "symmetry.orbit_equivalent"
                   and s[4] == "equivalent")
        n_eig = calls.get("exactmat.eigenvalues_in_field", 0)
        n_apply = calls.get("symmetry.apply_all", 0)
        out = {}
        for n in CALLS:
            out[f"{n}.calls"] = calls.get(n, 0) / n_ops
        for n in SELF:
            out[f"{n}.self_s"] = self_ns.get(n, 0) / 1e9 / n_ops
        out["exactmat.hint_cover_ratio"] = \
            _ratio(n_eig - len(with_roots - {-1}), n_eig)
        out["symmetry.closed_form_ratio"] = \
            _ratio(n_apply - len(routed - {-1}), n_apply)
        out["symmetry.candidates_verified"] = verified / n_ops
        out["symmetry.witness_hit_ratio"] = _ratio(hits, verified)
        missing = {
            "exactmat.hint_cover_ratio": ("exactmat.eigenvalues_in_field",
                                          "exactmat.field_roots"),
            "symmetry.closed_form_ratio": ("symmetry.apply_all",
                                           "symmetry.matrix_route"),
            "symmetry.candidates_verified": ("symmetry.apply_all",
                                             "symmetry.orbit_equivalent"),
            "symmetry.witness_hit_ratio": ("symmetry.apply_all",
                                           "symmetry.orbit_equivalent"),
        }
        for metric in out:
            layers = missing.get(metric, (metric.rsplit(".", 1)[0],))
            if not self.present.issuperset(layers):
                out[metric] = None
        return out


def _ratio(num, den):
    """A share; 0 when nothing was attempted (the calls metric says so)."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Scalar add/mul: counts from a counting pass, cost from a fixed sample
# ---------------------------------------------------------------------------

# the fixed operand sample that Scalar add/mul are timed on
SAMPLE_SEED, SAMPLE_SIZE, SAMPLE_REPEATS = 0, 20000, 5


def _kind(s):
    return 0 if not (s.re or s.im) else (1 if not s.im else 2)


class ScalarCounter:
    """Counts Scalar add/mul calls and the zero/real/complex operand mix."""

    OPS = {"add": ("__add__", "__radd__"), "mul": ("__mul__", "__rmul__")}

    def __init__(self, scalar_cls):
        self.cls = scalar_cls
        self.calls = {"add": 0, "mul": 0}
        self.mix = {"add": [0] * 9, "mul": [0] * 9}

    def install(self, patch: Patch):
        cls = self.cls
        for op, names in self.OPS.items():
            fn = vars(cls)[names[0]]

            def wrapper(a, b, _fn=fn, _op=op, _mix=self.mix[op]):
                self.calls[_op] += 1
                kb = _kind(b) if isinstance(b, cls) else (1 if b else 0)
                _mix[3 * _kind(a) + kb] += 1
                return _fn(a, b)
            for k, v in list(vars(cls).items()):
                if v is fn:
                    patch.set(cls, k, wrapper)

    def ns_per_call(self, op):
        """ns per call of the real method on a sample with the counted mix.

        The operand values are fixed small rationals; only the shares of
        zero, real and complex operands come from the workload.
        """
        mix = self.mix[op]
        if not sum(mix):
            return None
        rng = random.Random(SAMPLE_SEED)
        cls = self.cls
        vals = [
            [cls(Fraction(0), Fraction(0))],
            [cls(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                 Fraction(0)) for _ in range(64)],
            [cls(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                 Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
             for _ in range(64)],
        ]
        cells = rng.choices(range(9), weights=mix, k=SAMPLE_SIZE)
        xs = [rng.choice(vals[c // 3]) for c in cells]
        ys = [rng.choice(vals[c % 3]) for c in cells]
        fn = getattr(operator, op)
        times = []
        for _ in range(SAMPLE_REPEATS):
            t0 = time.perf_counter_ns()
            deque(map(fn, xs, ys), maxlen=0)
            t1 = time.perf_counter_ns()
            deque(map(operator.is_, xs, ys), maxlen=0)
            t2 = time.perf_counter_ns()
            times.append(((t1 - t0) - (t2 - t1)) / SAMPLE_SIZE)
        return statistics.median(times)
