"""Spans and counters recorded from outside the package, one layer per module.

A layer is one module of ``extmod``.  The tracer wraps every public
module-level function of each layer, plus the elimination and product
methods of ``Matrix`` and ``SubspaceBasis`` where the linear-algebra work
happens.  Each wrapped call records a span (name, start, end, parent span,
job).  Modules bind each other's functions with ``from .linalg import ...``,
so the wrapper replaces every such binding too; otherwise calls between
layers would bypass it and read as zero.  ``Field.coerce`` is called once per
matrix entry, so it gets a plain counter instead of a span.

Spans are kept in flat arrays while the jobs run and analysed afterwards: a
layer's self time is the time of its spans minus the time of their child
spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "suite", "operators", "decompose", "modules", "textio", "linalg")

LINALG_METHODS = {
    "Matrix": ("rref_pivots", "rref", "rank", "kernel_matrix", "solve",
               "solve_vector", "inverse", "power", "transpose", "apply",
               "__matmul__"),
    "SubspaceBasis": ("from_spanning", "reduce_vector", "contains_vector",
                      "contains_subspace"),
}

# entry points of one elimination; counted only when not nested in another
ELIMINATIONS = {"linalg.Matrix.rref_pivots", "linalg.Matrix.rref",
                "linalg.Matrix.rank", "linalg.Matrix.kernel_matrix",
                "linalg.Matrix.solve", "linalg.Matrix.solve_vector",
                "linalg.Matrix.inverse", "linalg.SubspaceBasis.from_spanning"}

VERIFIERS = ("decompose.verify_decomposition", "decompose.verify_split_free")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _elimination_cells(name: str, args: tuple, kwargs: dict) -> int:
    """Entries of the system that enters one elimination."""
    if name == "linalg.SubspaceBasis.from_spanning":
        vectors = _arg(args, kwargs, 3, "vectors")
        count = vectors.ncols if hasattr(vectors, "ncols") else len(vectors)
        return count * _arg(args, kwargs, 2, "ambient_dim")
    m = args[0]
    extra = 0
    if name == "linalg.Matrix.solve":
        extra = _arg(args, kwargs, 1, "rhs").ncols
    elif name == "linalg.Matrix.solve_vector":
        extra = 1
    elif name == "linalg.Matrix.inverse":
        extra = m.nrows
    return m.nrows * (m.ncols + extra)


class Tracer:
    """Patches the layers on ``__enter__`` and restores them on ``__exit__``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.coerce_calls = 0
        self.elim_depth = 0
        self.counts = Counter()
        self.max_elim_cells = 0
        self.traced_modules: list = []
        self.job_factors: list[float] = []  # reference seconds per measured second
        self.trace_repeats = 0
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = self._after_hooks()

    # -- patching ---------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"extmod.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("extmod"), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, bound, wrapper)
        linalg = modules["linalg"]
        for cls_name, methods in LINALG_METHODS.items():
            cls = getattr(linalg, cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(f"linalg.{cls_name}.{attr}", raw.__func__))
                else:
                    new = self._wrap(f"linalg.{cls_name}.{attr}", raw)
                self._set(cls, attr, new)
        coerce = linalg.Field.coerce

        def counted_coerce(field, value):
            self.coerce_calls += 1
            return coerce(field, value)

        self._set(linalg.Field, "coerce", counted_coerce)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name] = len(self.names)
        self.names.append(name)
        after = self._hooks.get(name)
        elimination = name in ELIMINATIONS
        span_name, span_parent, span_job = self.span_name, self.span_parent, self.span_job
        span_start, span_end, stack = self.span_start, self.span_end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_job.append(self.job)
            span_start.append(0.0)
            span_end.append(0.0)
            if elimination:
                if not self.elim_depth:
                    cells = _elimination_cells(name, args, kwargs)
                    self.counts["elim_calls"] += 1
                    self.counts["elim_cells"] += cells
                    self.max_elim_cells = max(self.max_elim_cells, cells)
                self.elim_depth += 1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if elimination:
                    self.elim_depth -= 1
                span_start[idx] = start
                span_end[idx] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _after_hooks(self) -> dict:
        counts = self.counts

        def trace(args, kwargs, result):
            counts["trace_steps"] += len(result.subspaces) - 1
            self.traced_modules.append(args[0])

        def filtration(args, kwargs, result):
            counts["trace_steps"] += _arg(args, kwargs, 1, "j")

        def decompose(args, kwargs, result):
            counts["summands"] += len(result.summands)

        def split_free(args, kwargs, result):
            m = args[0]
            counts["retraction_vars"] += sum(result.free_part.dim(d) * m.dim(d)
                                             for d in m.degrees)

        def parse(args, kwargs, result):
            counts["textio_bytes"] += len(_arg(args, kwargs, 0, "text"))

        def printed(args, kwargs, result):
            counts["textio_bytes"] += len(result)

        def matmul(args, kwargs, result):
            a, b = args
            counts["matmul_cells"] += a.nrows * a.ncols * b.ncols

        return {"operators.filtration_trace": trace,
                "operators.filtration": filtration,
                "decompose.decompose": decompose,
                "decompose.split_free": split_free,
                "textio.parse_module": parse,
                "textio.print_module": printed,
                "linalg.Matrix.__matmul__": matmul}

    # -- jobs ------------------------------------------------------------------

    def end_job(self, factor: float) -> None:
        """Close the current job, whose times scale by ``factor``.

        Also counts the job's traces of a module equal to one already traced
        in the same job.
        """
        self.job_factors.append(factor)
        seen: dict = {}
        for m in self.traced_modules:
            bucket = seen.setdefault((m.params, tuple(m.dims_by_degree.items())), [])
            if any(m == other for other in bucket):
                self.trace_repeats += 1
            else:
                bucket.append(m)
        self.traced_modules.clear()
        self.job = -1

    # -- results ------------------------------------------------------------------

    def _factor(self, span: int) -> float:
        job = self.span_job[span]
        return self.job_factors[job] if job >= 0 else 1.0

    def _self_times(self) -> Counter:
        """Self time per span name id, in reference seconds.

        A child span is allocated after its parent, so walking the spans
        backwards finishes every child before its parent is reached.
        """
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        self_s = Counter()
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n - 1, -1, -1):
            duration = ends[i] - starts[i]
            self_s[names[i]] += (duration - child[i]) * self._factor(i)
            if parents[i] >= 0:
                child[parents[i]] += duration
        return self_s

    def _inclusive(self, wanted: tuple[str, ...]) -> float:
        """Reference seconds inside spans of the given names, nesting counted once."""
        ids = {self.name_ids[w] for w in wanted if w in self.name_ids}
        total = 0.0
        for i in [i for i, name in enumerate(self.span_name) if name in ids]:
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in ids:
                p = self.span_parent[p]
            if p < 0:
                total += (self.span_end[i] - self.span_start[i]) * self._factor(i)
        return total

    def metrics(self) -> dict[str, float]:
        self_s = self._self_times()
        calls = {self.names[k]: v for k, v in Counter(self.span_name).items()}
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if self.names[k].startswith(layer + "."))
        traces = calls.get("operators.filtration_trace", 0)
        c = self.counts
        out.update({
            "operators.traces": traces,
            "operators.trace_steps": c["trace_steps"],
            "operators.trace_repeat_frac": self.trace_repeats / traces if traces else 0.0,
            "linalg.calls": sum(v for k, v in calls.items() if k.startswith("linalg.")),
            "linalg.elim_calls": c["elim_calls"],
            "linalg.elim_cells": c["elim_cells"],
            "linalg.max_elim_cells": self.max_elim_cells,
            "linalg.matmul_cells": c["matmul_cells"],
            "linalg.coerce_calls": self.coerce_calls,
            "modules.scramble_s": self._inclusive(("modules.random_basis_change",)),
            "modules.validate_calls": calls.get("modules.validate", 0),
            "textio.bytes": c["textio_bytes"],
            "decompose.summands": c["summands"],
            "decompose.verify_s": self._inclusive(VERIFIERS),
            "decompose.oracle_s": self._inclusive(("decompose.idempotent_oracle",)),
            "decompose.split_free_s": self._inclusive(("decompose.split_free",)),
            "decompose.retraction_vars": c["retraction_vars"],
            "trace.spans": len(self.span_name),
        })
        return out

    def write(self, path) -> None:
        """Gzipped spans: one JSON header line, then each column's raw array.

        Span times are measured seconds; ``job_factors`` in the header turns
        them into the reference seconds the metrics report.
        """
        columns = {"name": self.span_name, "parent": self.span_parent, "job": self.span_job,
                   "start": self.span_start, "end": self.span_end}
        header = {"names": self.names, "spans": len(self.span_name),
                  "job_factors": self.job_factors,
                  "columns": [[k, a.typecode] for k, a in columns.items()]}
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns.values():
                handle.write(column.tobytes())


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Span names and columns from a file written by :meth:`Tracer.write`."""
    with gzip.open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for key, typecode in header["columns"]:
            column = array(typecode)
            column.frombytes(handle.read(column.itemsize * header["spans"]))
            columns[key] = column
    return header["names"], columns
