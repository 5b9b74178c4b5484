"""In-memory span tracing of planeot's public functions, from outside the package.

Each layer is a planeot module. ``Tracer.install`` replaces every listed
function in each planeot module namespace that refers to it, because
``cli``, ``pde``, ``oracle`` and ``validation`` import functions by name
and look them up in their own globals. ``ConditionalQuantile`` methods are
wrapped on the class. ``spilu``, ``bicgstab`` and ``spsolve`` are reached
through a stand-in for ``pde.spla`` so scipy itself is left untouched, and
``linprog`` through ``oracle.linprog``.

Spans are recorded only inside ``Tracer.run``; calls made outside an
operation (the benchmark's own output checks) pass straight through. A
span is ``[op_id, name, start, end, parent_index]``. A layer's self time
is its span's duration minus the durations of its direct children, so the
self times of one operation sum to the duration of its root span.

The ``grids`` helpers are not wrapped: they are per-array calls made
thousands of times, and their time counts in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# (layer name, module, attribute) of every wrapped free function.
FUNCTIONS = [
    ("cli.run_solve", "cli", "run_solve"),
    ("cli.run_validate", "cli", "run_validate"),
    ("validation.run_criteria", "validation", "run_criteria"),
    ("presets.build_preset", "presets", "build_preset"),
    ("cost.build_instance", "cost", "build_instance"),
    ("cost.objective", "cost", "objective"),
    ("cost.apply_perturbation", "cost", "apply_perturbation"),
    ("cost.M_field", "cost", "M_field"),
    ("cost.M_closed_form_residual", "cost", "M_closed_form_residual"),
    ("pde.picard_solve", "pde", "picard_solve"),
    ("pde.assemble_coefficients", "pde", "assemble_coefficients"),
    ("pde.linear_elliptic_solve", "pde", "linear_elliptic_solve"),
    ("pde.hh_residual", "pde", "hh_residual"),
    ("pde.recover_density", "pde", "recover_density"),
    ("oracle.exact_ot", "oracle", "exact_ot"),
    ("oracle.atomize", "oracle", "atomize"),
    ("oracle.minimize_objective_direct", "oracle", "minimize_objective_direct"),
    ("oracle.linprog", "oracle", "linprog"),
    ("io.read_density", "io", "read_density"),
    ("io.write_field", "io", "write_field"),
    ("io.write_density", "io", "write_density"),
]

# (layer name, method) wrapped on conditional.ConditionalQuantile.
METHODS = [
    ("conditional.quantile", "quantile"),
    ("conditional.quantile_ds", "quantile_ds"),
    ("conditional.quantile_dcond", "quantile_dcond"),
]

# (layer name, attribute) reached through pde.spla.
SPARSE = [
    ("pde.spilu", "spilu"),
    ("pde.bicgstab", "bicgstab"),
    ("pde.spsolve", "spsolve"),
]

MODULES = ("cli", "conditional", "cost", "grids", "io", "oracle", "pde", "presets", "validation")

ROOT = "cli.main"


def _quantile_points(args, result):
    _, s, cond = args[:3]
    return "conditional.quantile.points", np.broadcast(np.asarray(s), np.asarray(cond)).size


def _exact_ot_vars(args, result):
    src, dst = args[:2]
    return "oracle.exact_ot.vars", len(src.weights) * len(dst.weights)


def _bytes_written(args, result):
    return "io.bytes_written", os.path.getsize(args[0])


def _picard_iters(args, result):
    return "pde.picard_iters", result[1].iterations


# Counters beyond calls and self time, taken from a wrapped call's arguments
# or result after it returns.
COUNTERS = {
    "conditional.quantile": _quantile_points,
    "oracle.exact_ot": _exact_ot_vars,
    "io.write_field": _bytes_written,
    "io.write_density": _bytes_written,
    "pde.picard_solve": _picard_iters,
}


class _SparseProxy:
    """Stand-in for ``scipy.sparse.linalg`` with some functions replaced."""

    def __init__(self, real, replaced: dict):
        self._real = real
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans and counters of wrapped planeot calls, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            span = [tracer._op, name, 0.0, 0.0, tracer._stack[-1]]
            spans.append(span)
            tracer._stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                key, value = counter(args, result)
                tracer.counts.append((tracer._op, key, float(value)))
            return result

        return traced

    def run(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as operation ``op_id`` under the root span."""
        if self._op is not None:
            raise RuntimeError("operations do not nest")
        span = [op_id, ROOT, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack = [len(self.spans) - 1]
        self._op = op_id
        span[2] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[3] = time.perf_counter()
            self._op = None
            self._stack = []

    # -- installing the wrappers ---------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every listed function where its callers look it up."""
        mods = {m: importlib.import_module(f"planeot.{m}") for m in MODULES}
        for name, mod, attr in FUNCTIONS:
            # a function a later refactor removes reads as zero, not as a crash
            original = getattr(mods[mod], attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapped)
        cls = mods["conditional"].ConditionalQuantile
        for name, attr in METHODS:
            self._replace(cls, attr, self._wrap(name, getattr(cls, attr)))
        real = mods["pde"].spla
        proxy = _SparseProxy(real, {a: self._wrap(n, getattr(real, a)) for n, a in SPARSE})
        self._replace(mods["pde"], "spla", proxy)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_totals(self, op_ids) -> dict:
        """Per-layer calls, self seconds and counters summed over ``op_ids``."""
        wanted = set(op_ids)
        totals = defaultdict(float)
        for (op, name, *_), own in zip(self.spans, self._self_seconds()):
            if op in wanted:
                totals[f"{name}.calls"] += 1
                totals[f"{name}.s"] += own
        for op, key, value in self.counts:
            if op in wanted:
                totals[key] += value
        return dict(totals)

    def dump(self, path: str):
        """Write every span as one JSON line, with its self time."""
        with open(path, "w") as fh:
            for idx, ((op, name, start, end, parent), own) in enumerate(zip(self.spans, self._self_seconds())):
                rec = {"id": idx, "op": op, "name": name, "start": start, "end": end,
                       "parent": parent, "self_s": own}
                fh.write(json.dumps(rec) + "\n")
