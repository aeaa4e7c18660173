"""Per-layer spans and counters, recorded from outside the engine.

:class:`Tracer` wraps the public entry points of each layer of ``repro``
(:data:`ENTRY_POINTS`) with timing wrappers while it is installed, so no file
of the engine changes.  A wrapper is installed at *every* name a caller looks
up: a function imported into another module (``repro.core.engine`` imports
``parse_program``, ``ground_magic``, ``evaluate_query``, ...) is replaced there
too, and a method is replaced on its class.  :meth:`Tracer.restore` puts every
original back.

Spans (name, start, end, parent) are kept in memory; a layer's self time is
its spans' durations minus the durations of their child spans.
``GroundProgram.add`` runs once per ground rule, so it is timed as one
aggregate counter instead of a span per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Iterable, Optional

#: (layer, module, attribute path) of every wrapped entry point.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("lang.parse", "repro.lang.parser", "parse_query"),
    ("analysis.analyze", "repro.analysis.planner", "analyze"),
    ("analysis.analyze", "repro.analysis.termination", "termination_verdict"),
    ("chase.expand", "repro.chase.engine", "GuardedChaseEngine.expand"),
    ("core.deepen", "repro.core.engine", "WellFoundedEngine.model"),
    ("lp.columnar.run", "repro.lp.columnar", "ColumnarGrounder.run"),
    ("lp.wfs.solve", "repro.lp.wfs", "well_founded_model"),
    ("lp.wfs.solve", "repro.lp.wfs", "well_founded_model_incremental"),
    ("lp.wfs.solve", "repro.lp.wfs", "IncrementalWFS.model"),
    ("rewrite.plan", "repro.rewrite.magic", "rewrite_for_query"),
    ("rewrite.ground_magic", "repro.rewrite.magic", "ground_magic"),
    ("views.add_facts", "repro.views.materialized", "MaterializedEngine.add_facts"),
    ("views.retract_facts", "repro.views.materialized", "MaterializedEngine.retract_facts"),
    ("views.model", "repro.views.materialized", "MaterializedEngine.model"),
    ("lang.queries.evaluate", "repro.lang.queries", "evaluate_query"),
    ("lang.queries.evaluate", "repro.lang.queries", "query_holds"),
)

#: Timed as an aggregate (seconds + calls), not as spans.
AGGREGATE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("lp.ground.add", "repro.lp.grounding", "GroundProgram.add"),
)

_PARENT, _START, _END = 1, 2, 3  # fields of a span


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    """The object owning the last attribute of *path*, and that attribute's name."""
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counters while its wrappers are installed.

    Use as a context manager (``with Tracer() as tracer:``) so the patched
    attributes are restored even when the traced code raises.
    """

    def __init__(self) -> None:
        #: ``[name, parent index or -1, start, end]`` per span, in opening order
        self.spans: list[list] = []
        self._open: list[int] = []
        #: aggregate counters (counts and summed seconds) by name
        self.counters: dict[str, float] = {}
        # (owner, attribute, original value, attribute was in owner's __dict__)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._wrappers: list[tuple[object, object]] = []
        self._suspended = False

    # -- recording -------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if not self._suspended:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def suspended(self):
        """Record nothing inside (the benchmark's own untimed checks)."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, parent, perf_counter(), None])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = perf_counter()
        self._open.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named *name*."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def take_counters(self) -> dict[str, float]:
        """The counters so far, resetting them (one phase of a run)."""
        taken, self.counters = self.counters, {}
        return taken

    # -- analysis -------------------------------------------------------------

    def self_times(self, first: int = 0, last: Optional[int] = None) -> dict[str, float]:
        """Summed self seconds by span name over ``spans[first:last]``.

        A span's self time is its duration minus its children's durations.
        """
        last = len(self.spans) if last is None else last
        child_time: dict[int, float] = {}
        for span in self.spans[first:last]:
            parent = span[_PARENT]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + span[_END] - span[_START]
        totals: dict[str, float] = {}
        for index in range(first, last):
            name, _, start, end = self.spans[index]
            own = end - start - child_time.get(index, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write_spans(self, path: str) -> None:
        """Write every span as ``[name, parent, start, end]`` (JSON)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": self.spans}, handle)

    # -- installation ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for layer, module_name, path in ENTRY_POINTS:
                owner, attribute = _resolve(module_name, path)
                original = getattr(owner, attribute)
                counted = _COUNTERS.get(path)
                inner = original if counted is None else counted(self, original)
                self._replace(owner, attribute, original, self._spanned(layer, inner))
            for layer, module_name, path in AGGREGATE_POINTS:
                owner, attribute = _resolve(module_name, path)
                original = getattr(owner, attribute)
                self._replace(owner, attribute, original, self._aggregated(layer, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        originals = {id(wrapper): (wrapper, original) for wrapper, original in self._wrappers}
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        # a module first imported while installed bound the wrapper by name
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                wrapper, original = originals.get(id(value), (None, None))
                if wrapper is not None and value is wrapper:
                    setattr(module, name, original)
        self._wrappers.clear()

    def _replace(self, owner: object, attribute: str, original: object, wrapper: object) -> None:
        """Put *wrapper* at *owner.attribute* and at every module alias of it."""
        self._wrappers.append((wrapper, original))
        self._patches.append((owner, attribute, original, attribute in vars(owner)))
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            return  # methods are looked up on the class
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original, True))
                    setattr(module, name, wrapper)

    def _spanned(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            index = tracer.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    def _aggregated(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.count(layer + "_s", perf_counter() - started)
                tracer.count(layer + ".calls")

        return wrapper


def _repro_modules() -> Iterable[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _count_columnar(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def run(grounder, *args, **kwargs):
        before = len(grounder.ground)
        try:
            return fn(grounder, *args, **kwargs)
        finally:
            tracer.count("lp.columnar.rules_emitted", len(grounder.ground) - before)

    return run


def _count_wfs(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def model(solver, *args, **kwargs):
        result = fn(solver, *args, **kwargs)
        tracer.count("lp.wfs.components_resolved", solver.last_resolved)
        tracer.count("lp.wfs.components_reused", solver.last_reused)
        return result

    return model


#: Counter wrappers applied inside the span wrapper, by entry-point path.
_COUNTERS: dict[str, Callable[[Tracer, Callable], Callable]] = {
    "ColumnarGrounder.run": _count_columnar,
    "IncrementalWFS.model": _count_wfs,
}
