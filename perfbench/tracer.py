"""Outside-in tracer: records a span around every call into the package's
layer functions, without adding code to the package.

Functions are replaced by timing wrappers in every ``airalloc`` module that
binds them (``regularized_lower_gamma`` is imported by name into five
modules, so patching only ``special`` would miss most calls).  Methods are
wrapped on their class, and the split-update variants are wrapped inside the
solver's dispatch table, because ``bcd_solve`` reaches them through
``_P3_VARIANTS`` rather than by name.

Spans live in memory as parallel arrays (name, start, end, parent) and are
grouped into segments, one per traced pass; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "airalloc"

# Span name -> (module, attribute) of every function the name covers.  Names
# with several targets sum them: ``model.success_factors`` is the three
# per-stage success factors the solver multiplies together.
FUNCTION_LAYERS = {
    "special.regularized_lower_gamma": [("special", "regularized_lower_gamma")],
    "special.chi": [("special", "chi")],
    "special.solve_quartic_real": [("special", "solve_quartic_real")],
    "surrogates.surrogate_transmission": [("surrogates", "surrogate_transmission")],
    "surrogates.surrogate_computation": [("surrogates", "surrogate_computation")],
    "model.success_factors": [
        ("model", "transmission_success"),
        ("model", "computation_success"),
        ("model", "local_success"),
    ],
    "model.success_breakdown": [("model", "success_breakdown")],
    "solver.solve_p1": [("solver", "solve_p1")],
    "solver.solve_p2": [("solver", "solve_p2")],
    "solver.waterfill_mu": [("solver", "waterfill_mu")],
    "solver.ln_success": [("solver", "ln_success")],
    "multiuser.success_vector": [("multiuser", "success_vector")],
    "multiuser.state_vector": [("multiuser", "state_vector")],
    "multiuser.enumerate_actions": [("multiuser", "enumerate_actions")],
    "dqn.train_step": [("dqn", "train_step")],
    "dqn.q_forward": [("dqn", "q_forward")],
    "dqn.replay_sample": [("dqn", "replay_sample")],
    "dqn.soft_update": [("dqn", "soft_update")],
    "dqn.select_action": [("dqn", "select_action")],
    "baselines.scheduler_action": [("baselines", "scheduler_action")],
}

METHOD_LAYERS = {
    "multiuser.MultiUserEnv.step": ("multiuser", "MultiUserEnv", "step"),
    "multiuser.ActionGrid.encode": ("multiuser", "ActionGrid", "encode"),
    "multiuser.ActionGrid.decode": ("multiuser", "ActionGrid", "decode"),
    "dqn.ReplayBuffer.push": ("dqn", "ReplayBuffer", "push"),
}

VARIANTS = ("mm2", "mm1", "pg")

LAYERS = (
    list(FUNCTION_LAYERS)
    + list(METHOD_LAYERS)
    + [f"solver.solve_p3.{v}" for v in VARIANTS]
)


class Tracer:
    """Span recorder.  ``wrap`` returns a timing wrapper of a function;
    ``span`` times a block of the benchmark's own code."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.segments: list[tuple[str, dict[str, np.ndarray]]] = []
        self._reset()

    def _reset(self) -> None:
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def end_segment(self, label: str) -> None:
        """Close the current segment of spans under ``label``."""
        if len(self._stack) != 1:
            raise RuntimeError("segment ended with open spans")
        self.segments.append((label, {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
        }))
        self._reset()

    def summary(self, label: str) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per span name over one segment."""
        spans = next(s for lab, s in self.segments if lab == label)
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        n = len(self.names)
        self_s = np.bincount(spans["name"], weights=dur - child, minlength=n)
        calls = np.bincount(spans["name"], minlength=n)
        return {self.names[k]: (int(calls[k]), float(self_s[k])) for k in range(n)}

    def save(self, path) -> None:
        arrays = {"names": np.array(self.names)}
        for k, (label, spans) in enumerate(self.segments):
            arrays[f"label{k}"] = np.array(label)
            for key, arr in spans.items():
                arrays[f"{key}{k}"] = arr
        np.savez_compressed(path, **arrays)


def install(tracer: Tracer):
    """Wrap every layer of the package; returns a function that restores the
    original bindings."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    undo = []

    def rebind(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    for name, targets in FUNCTION_LAYERS.items():
        for modname, attr in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr)
            rebind(original, tracer.wrap(original, name))

    for name, (modname, clsname, meth) in METHOD_LAYERS.items():
        cls = getattr(sys.modules[f"{PACKAGE}.{modname}"], clsname)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(original, name))

    table = sys.modules[f"{PACKAGE}.solver"]._P3_VARIANTS
    saved = dict(table)
    for v, fn in saved.items():
        table[v] = tracer.wrap(fn, f"solver.solve_p3.{v}")

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        table.clear()
        table.update(saved)

    return restore
