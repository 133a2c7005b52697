"""Outside-in tracer for the ncgeo layers.

The tracer times calls into each layer from outside the package: while it
is installed, every public function of a layer module (module-level, name
without a leading underscore, defined in that module) is replaced by a
wrapper that records a span.  Callers import by name
(``from .linalg import operator_norm``), so the wrapper is bound in every
loaded ``ncgeo.*`` namespace that holds the original, the package root
included.  The cached-algebra methods of ``SpectralTripleData`` are wrapped
as well, and the ``numpy.linalg`` factorisations get counting wrappers.

A span is ``(name id, parent span, op id, start, end)``.  Spans stay in
memory until the run ends; :meth:`Tracer.write` saves them and
:meth:`Tracer.layer_metrics` reduces them to the per-layer metrics.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "algebra", "modules", "triples", "tomita", "kasparov", "convert", "io", "cli")
TRIPLE_METHODS = ("algebra", "cda", "right_algebra")
FACTORISATIONS = ("svd", "eigh", "lstsq", "pinv", "inv")
MB = float(1 << 20)

# Functions whose self time, call count or outer total time is reported by name.
SELF_S = ("linalg.operator_norm", "linalg.span_basis", "linalg.null_space")
CALLS = ("linalg.operator_norm", "linalg.trace_inner", "linalg.null_space",
         "algebra.commutant", "tomita.tomita_conjugation")
TOTAL_S = (
    "linalg.project_onto_span",
    "algebra.generate_algebra", "algebra.commutant", "algebra.center",
    "modules.morita_check", "modules.bimodule_from_actions",
    "triples.check_spinc", "triples.check_finiteness", "triples.check_riemannian",
    "tomita.tomita_conjugation",
    "kasparov.twisted_operator",
    "convert.spinc_to_riemannian", "convert.riemannian_to_spinc",
    "convert.derived_backward_potential", "convert.intertwine_triples",
    "io.save_triple", "io.load_triple",
    "cli.main",
)


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in SELF_S:
        units[f"{name}.self_s"] = "s"
    for name in TOTAL_S:
        units[f"{name}.total_s"] = "s"
    units.update({
        "linalg.lapack_calls": "count",
        "linalg.svd_mnk": "count",
        "linalg.max_operand_mb": "MB",
        "algebra.commutant.probe_hit_ratio": "ratio",
        "triples.cda_requests": "count",
        "triples.cda_builds": "count",
        "triples.cda_hit_ratio": "ratio",
        "io.bytes_written": "bytes",
        "io.bytes_read": "bytes",
        "trace.overhead_frac": "ratio",
    })
    return units


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield attr, obj


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.errors: Counter = Counter()
        self.op = -1
        self.lapack_calls = 0
        self.svd_mnk = 0
        self.max_operand_bytes = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack: list[int] = []
        self._factorising = 0
        self._restore: list = []
        self._t0 = 0.0

    # -- installation -----------------------------------------------------
    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._t0 = time.perf_counter()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ncgeo.{layer}")
            for attr, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._span_wrapper(fn, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ncgeo" or modname.startswith("ncgeo.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])
        triple_cls = importlib.import_module("ncgeo.triples").SpectralTripleData
        for meth in TRIPLE_METHODS:
            fn = vars(triple_cls)[meth]
            self._rebind(triple_cls, meth,
                         self._span_wrapper(fn, f"triples.SpectralTripleData.{meth}"))
        linalg_impl = importlib.import_module("numpy.linalg._linalg")
        for name in FACTORISATIONS:
            fn = getattr(np.linalg, name)
            counted = self._count_wrapper(fn, name)
            # numpy's own helpers (norm(ord=2), pinv, matrix_rank) call the
            # module globals of numpy.linalg._linalg, not the package attribute.
            for ns in (np.linalg, linalg_impl):
                if getattr(ns, name) is fn:
                    self._rebind(ns, name, counted)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name_id] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, parent, tracer.op, start, end)

        if name == "io.save_triple":
            @functools.wraps(fn)
            def saved(path, *args, **kwargs):
                out = traced(path, *args, **kwargs)
                tracer.bytes_written += os.path.getsize(path)
                return out
            return saved
        if name == "io.load_triple":
            @functools.wraps(fn)
            def loaded(path, *args, **kwargs):
                out = traced(path, *args, **kwargs)
                tracer.bytes_read += os.path.getsize(path)
                return out
            return loaded
        return traced

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            if name == "svd" and len(shape) >= 2:
                m, n = shape[-2:]
                tracer.svd_mnk += int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)
            if tracer._factorising == 0:
                # a factorisation called from inside another (pinv -> svd) is part of it
                tracer.lapack_calls += 1
                nbytes = a.nbytes if isinstance(a, np.ndarray) else np.asarray(a).nbytes
                tracer.max_operand_bytes = max(tracer.max_operand_bytes, nbytes)
            tracer._factorising += 1
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._factorising -= 1

        return counted

    # -- output -----------------------------------------------------------
    def write(self, path):
        """Save the spans as gzipped JSON: times in integer nanoseconds from installation."""
        t0 = self._t0
        rows = [[nid, parent, op, round((s - t0) * 1e9), round((e - t0) * 1e9)]
                for nid, parent, op, s, e in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "parent", "op", "start_ns", "end_ns"],
                       "names": self.names, "spans": rows}, fh, separators=(",", ":"))

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        names = self.names
        spans = self.spans
        layer_of = [n.split(".", 1)[0] for n in names]
        covered = [0.0] * len(spans)
        for nid, parent, _, s, e in spans:
            if parent >= 0:
                covered[parent] += e - s
        calls, self_s, total_s = Counter(), Counter(), Counter()
        null_children = Counter()
        commutant_id = names.index("algebra.commutant")
        null_id = names.index("linalg.null_space")
        for idx, (nid, parent, _, s, e) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            self_s[name] += (e - s) - covered[idx]
            anc = parent
            while anc >= 0 and spans[anc][0] != nid:
                anc = spans[anc][1]
            if anc < 0:  # outermost span of this function
                total_s[name] += e - s
            if nid == null_id and parent >= 0 and spans[parent][0] == commutant_id:
                null_children[parent] += 1

        out = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(layer_of) if lay == layer]
            out[f"{layer}.self_s"] = sum(self_s[names[i]] for i in ids)
            out[f"{layer}.calls"] = sum(calls[names[i]] for i in ids)
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids)
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_S:
            out[f"{name}.self_s"] = self_s[name]
        for name in TOTAL_S:
            out[f"{name}.total_s"] = total_s[name]
        commutant_calls = calls["algebra.commutant"]
        # a kept probe, or no probe at all, leaves exactly one null space per call
        hits = sum(1 for idx, (nid, *_) in enumerate(spans)
                   if nid == commutant_id and null_children[idx] == 1)
        requests = calls["triples.SpectralTripleData.cda"]
        builds = calls["triples.commutator_algebra"]
        out.update({
            "linalg.lapack_calls": self.lapack_calls,
            "linalg.svd_mnk": self.svd_mnk,
            "linalg.max_operand_mb": self.max_operand_bytes / MB,
            "algebra.commutant.probe_hit_ratio": hits / commutant_calls if commutant_calls else 1.0,
            "triples.cda_requests": requests,
            "triples.cda_builds": builds,
            "triples.cda_hit_ratio": 1.0 - builds / requests if requests else 1.0,
            "io.bytes_written": self.bytes_written,
            "io.bytes_read": self.bytes_read,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        })
        return out
