"""Span tracing for the traced benchmark run.

The tracer replaces the public functions of the nullgeo layers, and a few
``numpy.linalg`` kernels, by wrappers at every module attribute that names
them, so calls resolved through ``from .core import f`` bindings are seen as
well.  Nothing under ``src/`` changes, and ``uninstall`` puts the originals
back.  Spans (name, start, end, parent, op id, size) are appended to flat
arrays while the run goes and are analysed, and written out, at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "core", "classify", "theorems", "catalog", "checks")
KERNELS = ("solve", "inv", "eigvals", "svd", "det")


def _square_size(m) -> int:
    return int(np.shape(getattr(m, "mat", m))[0])


# Problem size q recorded with each span of these functions, from the call's
# arguments, so per-call figures can be split by q on every workload.
SIZE_OF = {
    "core.max_invertible_time": lambda a: _square_size(a[1]),
    "core.splitting_tensor_at": lambda a: _square_size(a[1]),
    "core.shape_operator_at": lambda a: _square_size(a[2]),
    "theorems.find_special_nullity_direction": lambda a: a[0].q,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()   # (counter name, op id) -> count
        self.enabled = False
        self._stack = [-1]
        self._op_id = -1
        self._root = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int, size: int) -> int:
        i = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.size.append(size)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._root = self._open(self._op_nid, -1)
        self.enabled = True

    def end_op(self, t0: float, t1: float) -> None:
        """Close the root span with the timed region of the operation."""
        self.enabled = False
        self._stack.pop()
        self.start[self._root], self.end[self._root] = t0, t1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        size_of = SIZE_OF.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            size = -1
            if size_of is not None:
                try:
                    size = size_of(args)
                except (AttributeError, IndexError, TypeError):
                    pass
            i = tracer._open(nid, size)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[i], tracer.end[i] = t0, t1

        return traced

    def _count_rk4_evaluations(self, rk4_path):
        """Wrap the oracle integrator so each right-hand-side evaluation is
        counted; classic RK4 makes four per step."""
        tracer = self

        @functools.wraps(rk4_path)
        def counted(f, *args, **kwargs):
            def g(t, y):
                if tracer.enabled:
                    tracer.counts["core.rk4_evaluations", tracer._op_id] += 1
                return f(t, y)

            return rk4_path(g, *args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self._op_nid = self._name_id("op")
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"nullgeo.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        core = sys.modules.get("nullgeo.core")
        if core is not None and inspect.isfunction(getattr(core, "_rk4_path", None)):
            wrappers[core._rk4_path] = self._count_rk4_evaluations(core._rk4_path)
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nullgeo" or n.startswith("nullgeo."))]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for kernel in KERNELS:
            self._patch(np.linalg, kernel, self.wrap(f"linalg.{kernel}", getattr(np.linalg, kernel)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.intc).astype(np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int32),
            "op": np.frombuffer(self.op, dtype=np.intc).astype(np.int32),
            "size": np.frombuffer(self.size, dtype=np.intc).astype(np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Durations and self times of recorded spans, with lookups by name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.op, self.size = a["name"], a["parent"], a["op"], a["size"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - child
        self.counts = tracer.counts
        self._ids: dict[str, list[int]] = {}
        for i, n in enumerate(self.names):
            self._ids.setdefault(n, []).append(i)

    def mask(self, name: str, ops=None, sizes=None) -> np.ndarray:
        m = np.isin(self.name, self._ids.get(name, []))
        if ops is not None:
            m &= np.isin(self.op, list(ops))
        if sizes is not None:
            m &= np.isin(self.size, list(sizes))
        return m

    def calls(self, name: str, **sel) -> int:
        return int(self.mask(name, **sel).sum())

    def total(self, name: str, self_only: bool = False, **sel) -> float:
        m = self.mask(name, **sel)
        return float((self.self_time if self_only else self.dur)[m].sum())

    def per_call(self, name: str, self_only: bool = False, **sel) -> float:
        """Mean seconds per call; 0 when the workload never calls it."""
        n = self.calls(name, **sel)
        return self.total(name, self_only, **sel) / n if n else 0.0

    def prefix_total(self, prefix: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return float(self.dur[np.isin(self.name, ids)].sum())

    def count(self, counter: str, ops) -> int:
        ops = set(ops)
        return sum(v for (name, op), v in self.counts.items() if name == counter and op in ops)
