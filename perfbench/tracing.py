"""Wrappers installed from outside the package: a step clock and a span tracer.

Neither edits the simulator.  Both replace attributes on the already imported
``basilsim`` modules and classes, and put the originals back on ``uninstall``.
A module-level function imported by name into another module (``from .models
import evaluate_loss``) is a separate binding, so every binding that holds the
original object is replaced.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: the package modules measured as layers (``idx``, ``baselines`` and ``cli``
#: are out of scope, see README.md)
LAYERS = ("models", "data", "ring", "attacks", "basil_plus", "acds", "analytics",
          "history", "harness")

#: public methods traced besides every public module-level function
METHODS = {
    "models": {"ModelVector": ("layer",)},
    "data": {"Dataset": ("batch",)},
    "ring": {"StoredModels": ("insert",), "BasilRing": ("run_round",)},
    "basil_plus": {"BasilPlusDriver": ("run_global_round",)},
    "history": {"TrainHistory": ("write_csv", "write_series_csv")},
}

#: a binding traced under another name: the grouped stages select through
#: ``basil_plus``'s own binding of ``basil_select``, the rings through ``ring``'s
ALIASES = {("basil_plus", "basil_select"): "basil_plus.stage_select"}


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class StepClock:
    """Records (start, end) of every call to one method: the workload's step."""

    def __init__(self, cls: type, method: str):
        self.cls, self.method = cls, method
        self.steps: list[tuple[float, float]] = []
        self._patches = _Patches()

    def install(self) -> None:
        original = self.cls.__dict__[self.method]
        steps = self.steps

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                steps.append((t0, perf_counter()))

        self._patches.set(self.cls, self.method, timed)

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """In-memory spans: name, start, end, parent span and iteration id.

    Spans are appended to flat arrays while the run goes on and turned into
    per-layer totals (or written to disk) only after it ends.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_iteration = 0
        self._stack = [-1]
        self._patches = _Patches()

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, span_name: str, fn):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        names, parents, iterations = self.name, self.parent, self.iteration
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            iterations.append(self.current_iteration)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "basilsim" or name.startswith("basilsim."))]
        originals: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"basilsim.{layer}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(fn)] = (fn, f"{layer}.{attr}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    self._patches.set(cls, method, self._wrap(
                        f"{layer}.{cls_name}.{method}", cls.__dict__[method]))
        wrappers: dict[str, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) not in originals or originals[id(value)][0] is not value:
                    continue
                fn, span_name = originals[id(value)]
                span_name = ALIASES.get((mod.__name__.rsplit(".", 1)[-1], attr), span_name)
                if span_name not in wrappers:
                    wrappers[span_name] = self._wrap(span_name, fn)
                self._patches.set(mod, attr, wrappers[span_name])

    def uninstall(self) -> None:
        self._patches.undo()

    def calls_since(self, first: int) -> dict[str, int]:
        """Call count per span name among the spans recorded from index ``first``."""
        # slicing copies, so no numpy view pins the array while spans are appended
        counts = np.bincount(np.frombuffer(self.name[first:], dtype=np.int32),
                             minlength=len(self.names))
        return {self.names[i]: int(c) for i, c in enumerate(counts) if c}

    def per_iteration(self) -> dict[str, dict[str, list[float]]]:
        """Per span name: ``calls``, ``s`` (inclusive) and ``self_s`` for each iteration.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly on one thread, so children never overlap.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        it = np.frombuffer(self.iteration, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        iterations = np.unique(it)
        n = len(self.names)
        key = np.searchsorted(iterations, it) * n + name
        shape = (len(iterations), n)

        def total(weights=None):
            return np.bincount(key, weights=weights, minlength=shape[0] * n).reshape(shape)

        columns = {"calls": total(), "s": total(dur), "self_s": total(dur - child)}
        return {
            span_name: {stat: col[:, nid].tolist() for stat, col in columns.items()}
            for nid, span_name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            iteration=np.frombuffer(self.iteration, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
