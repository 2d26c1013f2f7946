"""Traced runs: time each layer's public entry points from outside.

:class:`LayerTracer` replaces the entry points listed in
:func:`entry_points` with wrappers that record one span per call
(name, start, end, parent span) in memory.  A function is replaced at
every binding a caller can look it up by — its defining module and every
``repro`` module that imported it by name — and a method or classmethod
on its class.  :meth:`LayerTracer.uninstall` puts every original back,
including bindings created while the wrappers were installed, and
:func:`installed_wrappers` proves that none is left: untraced runs call
the program exactly as a user would.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

from perfbench.stats import self_times

#: Attribute a wrapper carries, pointing at the function it replaced.
MARKER = "__perfbench_original__"

#: Modules whose names the wrappers are installed into.
MODULES = (
    "repro",
    "repro.graph.io",
    "repro.graph.csr",
    "repro.graph.digraph",
    "repro.simulation.candidates",
    "repro.simulation.match",
    "repro.index.label_index",
    "repro.topk.engine",
    "repro.ranking.diversification",
    "repro.diversify.maxdisp",
    "repro.diversify.approx",
    "repro.diversify.heuristic",
    "repro.session.session",
    "repro.incremental.view",
)


def entry_points() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` of every traced entry point.

    ``owner`` is a class for methods and classmethods, and the defining
    module for functions (whose other bindings are found by identity).
    """
    for name in MODULES:
        importlib.import_module(name)
    from repro.graph import csr, io
    from repro.graph.digraph import Graph
    from repro.incremental.view import MatchView
    from repro.index.label_index import SimBoundIndex
    from repro.diversify import maxdisp
    from repro.ranking.diversification import DiversificationObjective
    from repro.session.session import MatchSession
    from repro.simulation import candidates, match
    from repro.topk.engine import TopKEngine

    return [
        (io, "load_json", "graph.load"),
        (csr.CSRSnapshot, "build", "graph.snapshot"),
        (csr.PatchedCSRSnapshot, "patch", "graph.snapshot"),
        (Graph, "apply_delta", "graph.apply_delta"),
        (candidates, "compute_candidates", "simulation.candidates"),
        (match, "maximal_simulation", "simulation.fixpoint"),
        (SimBoundIndex, "__init__", "index.bounds"),
        (TopKEngine, "__init__", "topk.engine_init"),
        (TopKEngine, "run", "topk.engine"),
        (csr, "build_component_pair_csr", "topk.pair_csr"),
        (DiversificationObjective, "score", "ranking.score"),
        (maxdisp, "greedy_max_dispersion", "diversify.maxdisp"),
        (MatchSession, "run_batch", "session.dispatch"),
        (MatchSession, "refresh", "session.refresh"),
        (MatchView, "apply", "incremental.view_apply"),
        (MatchView, "top_k", "incremental.view_read"),
    ]


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _unwrap(value: Any) -> Any:
    return value.__func__ if isinstance(value, (classmethod, staticmethod)) else value


def installed_wrappers() -> list[str]:
    """Every ``repro`` binding that currently holds a benchmark wrapper."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(_unwrap(value), MARKER):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    if hasattr(_unwrap(member), MARKER):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


class LayerTracer:
    """In-memory spans of the traced entry points.

    ``phase`` tags every span started while it is set ("setup" or
    "loop").
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, phase]`` per span.
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, span: str, fn: Callable) -> Callable:
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([span, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            return result

        setattr(wrapper, MARKER, fn)
        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point; raises if one no longer exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, span in entry_points():
            original = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(span, original.__func__)))
                else:
                    self._set(owner, attr, self._wrap(span, original))
                continue
            wrapper = self._wrap(span, original)
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # Modules imported while installed may have bound a wrapper.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if hasattr(value, MARKER):
                    setattr(module, name, getattr(value, MARKER))

    # ------------------------------------------------------------------
    def totals(self) -> dict[tuple[str, str], tuple[float, int]]:
        """``(span name, phase) -> (self seconds, calls)``."""
        selfs = self_times([(s[0], s[1], s[2], s[3]) for s in self.spans])
        out: dict[tuple[str, str], tuple[float, int]] = {}
        for span, seconds in zip(self.spans, selfs):
            key = (span[0], span[4])
            total, calls = out.get(key, (0.0, 0))
            out[key] = (total + seconds, calls + 1)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, start, end, parent, phase) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "parent": parent, "name": name,
                                         "phase": phase, "start": start, "end": end}) + "\n")
