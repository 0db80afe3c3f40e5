"""Spans and counters around the public entry points of each blinfty module.

The tracer wraps library functions from the outside: every binding of a
wrapped function in any loaded blinfty module is replaced, so calls made
between modules (`from .linalg import solve_linear`) and inside a module
(global-name lookups) both pass through the wrapper.  Spans live in flat
arrays (name, start, end, parent, op id) and are written once, when the
benchmark ends.  A call into a layer that is already the innermost open
span (recursion, or one entry point calling another of the same layer)
opens no new span, so a layer's calls count entries into it.

Self time is a span's duration minus the time covered by its child spans
and by the wrappers' own bookkeeping around those children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from fractions import Fraction
from itertools import compress, repeat
from operator import is_not

# metric prefix -> the (module, function) entry points it wraps
LAYERS = {
    "words.enumerate_basis": [("words", "enumerate_basis")],
    "linalg.solve": [("linalg", "solve_linear"), ("linalg", "rank"),
                     ("linalg", "kernel_basis")],
    "assembly.coderivation": [("assembly", "apply_coderivation"),
                              ("assembly", "apply_inner_coderivation")],
    "assembly.morphism": [("assembly", "apply_morphism")],
    "assembly.multi_pointed": [("assembly", "apply_multi_pointed")],
    "assembly.ibl": [("assembly", "apply_ibl")],
    "structures.check": [("structures", "check_structure"),
                         ("structures", "check_morphism"),
                         ("structures", "is_augmentation"),
                         ("structures", "check_pointed")],
    "structures.compose": [("structures", "compose")],
    "structures.linearize": [("structures", "linearize"),
                             ("structures", "linearize_pointed")],
    "invariants.torsion": [("invariants", "torsion")],
    "invariants.order": [("invariants", "order_O"),
                         ("invariants", "order_O_tilde"),
                         ("invariants", "order_multi"),
                         ("invariants", "order_multi_tilde")],
    "ibl.torsion_grid": [("ibl", "torsion_grid")],
    "ibl.check": [("ibl", "check_ibl")],
    "io.parse": [("io", "parse")],
    "io.serialize": [("io", "serialize")],
    "cli.main": [("cli", "main")],
}

# The per-layer metrics, in BENCHMARK.json order: name -> unit.  Counts and
# times are per op; density, ratios and bit sizes are over the whole run.
METRICS = {}
for _layer, _counters in (
        ("words.enumerate_basis", ["items"]),
        ("linalg.solve", ["rows", "cols", "nnz"]),
        ("assembly.coderivation", ["terms_out"]),
        ("assembly.morphism", ["terms_out"]),
        ("assembly.multi_pointed", []),
        ("assembly.ibl", []),
        ("structures.check", []),
        ("structures.compose", ["entries"]),
        ("structures.linearize", []),
        ("invariants.torsion", ["levels"]),
        ("invariants.order", []),
        ("ibl.torsion_grid", []),
        ("ibl.check", []),
        ("io.parse", ["bytes"]),
        ("io.serialize", ["bytes"]),
        ("cli.main", [])):
    METRICS[_layer + ".calls"] = "count/op"
    METRICS[_layer + ".self_s"] = "s/op"
    for _c in _counters:
        METRICS["%s.%s" % (_layer, _c)] = "B/op" if _c == "bytes" else "count/op"
    if _layer == "linalg.solve":
        METRICS["linalg.solve.density"] = "ratio"
        METRICS["linalg.solve.coef_bits_max"] = "bits"
    if _layer == "assembly.morphism":
        METRICS["assembly.partitions.generated"] = "count/op"
        METRICS["assembly.partitions.per_term"] = "ratio"
METRICS["trace.op_s"] = "s/op"
METRICS["trace.overhead_ratio"] = "ratio"

OP_SPAN = "op"


def _nonzero(vectors):
    """The nonzero entries of dense vectors.  Rows are built from one shared
    zero object, so an identity test skips nearly every entry cheaply."""
    out = []
    for v in vectors:
        zero = next((x for x in v if not x), None)
        out.extend(x for x in compress(v, map(is_not, v, repeat(zero))) if x)
    return out


def _bits(values):
    best = 0
    for x in values:
        x = Fraction(x)
        best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _matrix_counts(tracer, rows, vectors):
    """rows/cols/nnz of an input matrix and the largest coefficient, in
    bits, among its entries and the returned vectors."""
    n_cols = len(rows[0]) if rows else 0
    entries = _nonzero(rows)
    tracer.add("linalg.solve.rows", len(rows))
    tracer.add("linalg.solve.cols", n_cols)
    tracer.add("linalg.solve.cells", len(rows) * n_cols)
    tracer.add("linalg.solve.nnz", len(entries))
    tracer.bits = max(tracer.bits, _bits(entries), _bits(_nonzero(vectors)))


def _count_solve_linear(tracer, args, result):
    solution, kernel = result
    _matrix_counts(tracer, args[0], ([solution] if solution else []) + kernel)


def _count_rank(tracer, args, result):
    _matrix_counts(tracer, args[0], [])


def _count_kernel_basis(tracer, args, result):
    _matrix_counts(tracer, args[0], result)


def _count_torsion(tracer, args, result):
    schedule = args[1]
    if result.found():
        searched = sum(1 for (k, _) in schedule if k <= result.level + 1)
    else:
        searched = len(schedule)
    tracer.add("invariants.torsion.levels", searched)


COUNTERS = {
    "enumerate_basis":
        lambda t, a, r: t.add("words.enumerate_basis.items", len(r)),
    "solve_linear": _count_solve_linear,
    "rank": _count_rank,
    "kernel_basis": _count_kernel_basis,
    "apply_coderivation":
        lambda t, a, r: t.add("assembly.coderivation.terms_out", len(r.terms)),
    "apply_inner_coderivation":
        lambda t, a, r: t.add("assembly.coderivation.terms_out", len(r.terms)),
    "apply_morphism":
        lambda t, a, r: t.add("assembly.morphism.terms_out", len(r.terms)),
    "compose":
        lambda t, a, r: t.add("structures.compose.entries",
                              len(r.table.sorted_entries())),
    "torsion": _count_torsion,
    "parse": lambda t, a, r: t.add("io.parse.bytes",
                                   len(a[0].encode("utf-8"))),
    "serialize": lambda t, a, r: t.add("io.serialize.bytes",
                                       len(r.encode("utf-8"))),
}


class Tracer:
    """In-memory spans plus counters, collected while `active` is set."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.counts = {}
        self.bits = 0
        self.active = False
        self.op_id = -1
        self.in_partitions = False
        self.missing = []
        self._undo = []

    def intern(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name_id):
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.excluded.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    # op boundaries ---------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self.active = True
        self.open(self.intern(OP_SPAN))

    def end_op(self):
        self.close(self.stack[-1])
        self.active = False

    # wrapping --------------------------------------------------------------

    def _wrap(self, metric, fn, counter):
        nid = self.intern(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self.name[self.stack[-1]] == nid:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                counter(self, args, result)
            self.excluded[self.parent[idx]] += (
                self.start[idx] - entered + time.perf_counter() - self.end[idx])
            return result
        return wrapper

    def _count_partitions(self, fn):
        """Count the set partitions handed to callers; the generator's own
        recursive calls pass through uncounted."""

        @functools.wraps(fn)
        def wrapper(items):
            if not self.active or self.in_partitions:
                return fn(items)
            return self._counted(fn(items))
        return wrapper

    def _counted(self, gen):
        while True:
            self.in_partitions = True
            try:
                part = next(gen)
            except StopIteration:
                return
            finally:
                self.in_partitions = False
            self.add("assembly.partitions.generated", 1)
            yield part

    def install(self, lib):
        """Wrap every entry point of LAYERS in all loaded blinfty modules."""
        targets = []
        for metric, entries in LAYERS.items():
            for module, attr in entries:
                fn = getattr(getattr(lib, module), attr, None)
                if fn is None:
                    self.missing.append("%s.%s" % (module, attr))
                    continue
                targets.append((fn, self._wrap(metric, fn,
                                               COUNTERS.get(attr))))
        parts = getattr(lib.assembly, "_set_partitions", None)
        if parts is None:
            self.missing.append("assembly._set_partitions")
        else:
            targets.append((parts, self._count_partitions(parts)))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "blinfty" or name.startswith("blinfty.")]
        for fn, wrapper in targets:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo = []

    # results ---------------------------------------------------------------

    def span_times(self):
        """Per span name: [entries, total self seconds, total seconds]."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            total = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total - covered[i] - self.excluded[i]
            row[2] += total
        return out

    def metrics(self, n_ops, overhead_ratio):
        spans = self.span_times()
        c = self.counts
        out = {}
        for name, unit in METRICS.items():
            layer, _, stat = name.rpartition(".")
            calls, self_s, total_s = spans.get(layer, (0, 0.0, 0.0))
            if stat == "calls":
                value = calls / n_ops
            elif stat == "self_s":
                value = self_s / n_ops
            elif name == "linalg.solve.density":
                cells = c.get("linalg.solve.cells", 0)
                value = c.get("linalg.solve.nnz", 0) / cells if cells else 0.0
            elif name == "linalg.solve.coef_bits_max":
                value = self.bits
            elif name == "assembly.partitions.per_term":
                terms = c.get("assembly.morphism.terms_out", 0)
                value = (c.get("assembly.partitions.generated", 0) / terms
                         if terms else 0.0)
            elif name == "trace.op_s":
                value = spans[OP_SPAN][2] / n_ops
            elif name == "trace.overhead_ratio":
                value = overhead_ratio
            else:
                value = c.get(name, 0) / n_ops
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """All spans as gzipped TSV: op, name, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (
                    self.op[i], self.names[self.name[i]], self.parent[i],
                    self.start[i], self.end[i]))
