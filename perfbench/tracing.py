"""Span tracing of aradius's public functions, for the traced benchmark run.

``Tracer.install`` wraps every public function defined in an aradius
module.  A ``from`` import copies the binding, so each wrapper is bound
in every aradius module that holds the function (four other modules
import ``spectral_norm``).  It also wraps numpy's eigensolvers to count the calls, and the
matrices in stacked calls, made inside the radius kernel.  A span is
``(id, name, start_ns, end_ns, parent_id)``; spans stay in memory until
``write``.  Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

KERNEL = "linalg.classical_numerical_radius"
EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")
MODULES = (
    "linalg",
    "semihilbert",
    "blockops",
    "inequalities",
    "fuzz",
    "pde",
    "matio",
    "audit",
    "cli",
)
ROOT = "op"
FIELDS = 5


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.rows = array("q")
        self.stack: list[int] = []
        self.next_id = 0
        self.kernel_depth = 0
        self.eig_calls = 0
        self.eig_mats = 0
        self.root = self._name_id(ROOT)
        self.patches = self._plan(package)

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _plan(self, package):
        prefix = package.__name__ + "."
        loaded = [
            m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)
        ]
        patches = []
        for mod in loaded:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                patches += [(m, attr, fn, wrapper) for m in loaded if vars(m).get(attr) is fn]
        for attr in EIGENSOLVERS:
            fn = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, fn, self._count_eig(fn)))
        return patches

    def install(self):
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, fn, _ in self.patches:
            setattr(mod, attr, fn)

    def _span(self, nid, fn, args, kwargs, kernel=False):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        self.kernel_depth += kernel
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.kernel_depth -= kernel
            self.stack.pop()
            self.rows.extend((sid, nid, start, end, parent))

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        kernel = name == KERNEL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(nid, fn, args, kwargs, kernel)

        return wrapper

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self.kernel_depth:
                self.eig_calls += 1
                self.eig_mats += int(np.prod(np.shape(a)[:-2], dtype=np.int64))
            return fn(a, *args, **kwargs)

        return wrapper

    def op(self, fn):
        """Run one benchmark operation as a root span."""
        return self._span(self.root, fn, (), {})

    def layers(self):
        """Per span name: calls, total ns and self ns (total minus direct children)."""
        rows = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, FIELDS)
        sid, nid, start, end, parent = rows.T
        dur = end - start
        child = np.zeros(self.next_id, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child[sid]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selft = np.bincount(nid, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(selft[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, stem: Path, extra: dict):
        """Spans to ``<stem>.npz``; names, eigensolver counters and ``extra`` to ``<stem>.json``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        spans = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, FIELDS)
        np.savez_compressed(stem.with_suffix(".npz"), spans=spans)
        blob = {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "kernel_eig_calls": self.eig_calls,
            "kernel_eig_mats": self.eig_mats,
            **extra,
        }
        stem.with_suffix(".json").write_text(json.dumps(blob, indent=1), encoding="utf-8")


def loc(package):
    """Line count of each module file of the package."""
    base = Path(package.__file__).parent
    return {m: len((base / f"{m}.py").read_text(encoding="utf-8").splitlines()) for m in MODULES}


def layer_metrics(tracer, n_ops, package):
    """The per-layer metrics, per operation of the workload (0 off its path)."""
    lay = tracer.layers()

    def calls(name):
        return lay.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return lay.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return lay.get(name, (0, 0.0, 0.0))[2]

    def per(x, n):
        return x / n if n else 0.0

    def per_call_us(name):
        return per(total(name), calls(name)) / 1e3

    radius = calls(KERNEL)
    decode = sum(own(f"matio.{f}") for f in ("complex_from_pairs", "params_from_obj", "matrix_from_obj"))
    ineq_self = sum(v[2] for k, v in lay.items() if k.startswith("inequalities."))
    m = {
        "linalg.radius.calls_per_op": (per(radius, n_ops), "calls/op"),
        "linalg.radius.us_per_call": (per_call_us(KERNEL), "us"),
        "linalg.radius.self_share": (per(own(KERNEL), total(ROOT)), "ratio"),
        "linalg.radius.eig_calls_per_call": (per(tracer.eig_calls, radius), "calls/call"),
        "linalg.radius.eig_mats_per_call": (per(tracer.eig_mats, radius), "mats/call"),
    }
    for layer in ("linalg.spectral_norm", "linalg.psd_power", "semihilbert.reduce", "semihilbert.make_context"):
        m[f"{layer}.calls_per_op"] = (per(calls(layer), n_ops), "calls/op")
        m[f"{layer}.us_per_call"] = (per_call_us(layer), "us")
    m["semihilbert.a_adjoint.calls_per_op"] = (per(calls("semihilbert.a_adjoint"), n_ops), "calls/op")
    for layer in ("semihilbert.preserves_kernel", "blockops.dsum_context", "blockops.assemble", "matio.matrix_to_obj"):
        m[f"{layer}.us_per_op"] = (per(total(layer), n_ops) / 1e3, "us/op")
    m["semihilbert.radius_lower.ms_per_call"] = (per_call_us("semihilbert.a_numerical_radius_lower") / 1e3, "ms")
    m["inequalities.evaluate_bound.us_per_call"] = (per_call_us("inequalities.evaluate_bound"), "us")
    m["inequalities.self_us_per_op"] = (per(ineq_self, n_ops) / 1e3, "us/op")
    m["fuzz.harness_us_per_trial"] = (per(own("fuzz.run_campaign"), n_ops) / 1e3, "us/trial")
    for layer in ("fuzz.gen_context", "fuzz.gen_operator", "fuzz.replay"):
        m[f"{layer}.us_per_call"] = (per_call_us(layer), "us")
    m["matio.decode_us_per_case"] = (per(decode, calls("fuzz.replay")) / 1e3, "us/case")
    for layer in ("pde.stability_report", "pde.preconditioner_report"):
        m[f"{layer}.ms_per_call"] = (per_call_us(layer) / 1e3, "ms")
    for mod, lines in loc(package).items():
        m[f"{mod}.loc"] = (lines, "lines")
    return m
