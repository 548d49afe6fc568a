"""Spans around the library's public functions, recorded from outside it.

``instrument`` replaces every public function of the layer modules with a
timing wrapper, wherever a module holds a reference to it: in its own
namespace (so calls inside the module are seen too, e.g. ``search`` calling
``vertex_order``) and in every module that imported it by name (e.g. the
``read_graph``, ``search`` and ``validate`` that ``setgraceful.cli`` uses).
Classes are not wrapped; their construction counts as the caller's time.
The ``labels`` module is not wrapped either: its calls are too short to time
alone and are measured through labeling I/O.

Spans live in memory as parallel arrays (name, start, end, parent, job) and
are written out once, when the run ends.  A span's self time is its duration
minus the time its direct children cover; calls are nested and sequential,
so that is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import math
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

# import_module, because the package re-exports the function ``search`` under
# the name of its module.
LAYERS: tuple[ModuleType, ...] = tuple(
    importlib.import_module(f"setgraceful.{name}")
    for name in ("graph", "labeling", "conditions", "search", "oracle", "cli")
)


class Tracer:
    """Span store for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.info: dict[int, dict] = {}
        self._stack = [-1]
        self.job_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self.info[idx] = hook(args, kwargs, result)
            return result

        return traced

    def spans(self) -> Iterator[tuple[int, str, float, int, int]]:
        """(index, name, duration, parent, job) in start order; parents come first."""
        for i in range(len(self.name)):
            yield i, self.names[self.name[i]], self.end[i] - self.start[i], self.parent[i], self.job[i]

    def as_json(self) -> dict:
        """Columns of the span table; times in seconds since the first span."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "info": {str(k): v for k, v in self.info.items()},
        }


def _search_info(args, kwargs, outcome) -> dict:
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return {
        "mode": cfg.mode if cfg is not None else "count",
        "nodes": outcome.nodes_explored,
        "exhausted": outcome.exhausted,
        "witnesses": len(outcome.witnesses),
    }


def _oracle_info(args, kwargs, result) -> dict:
    g, m = args[0], args[1]
    return {"assignments": math.perm(1 << m, g.n) if g.n <= 1 << m else 0}


HOOKS = {"search.search": _search_info, "oracle.brute_force_enumerate": _oracle_info}

# The oracle calls validate once per assignment, up to 40,320 times a call:
# spans there would cost more than the calls they time, and no metric reads
# them, since oracle.enumerate_s is the oracle's whole span.
UNTRACED_REFERENCES = {("setgraceful.oracle", "validate")}


def public_functions() -> dict[Callable, str]:
    """Every public function defined in a layer module, keyed to ``layer.name``."""
    found = {}
    for module in LAYERS:
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found[obj] = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    return found


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route every reference to a public layer function through a span."""
    functions = public_functions()
    wrappers = {fn: tracer.wrap(name, fn, HOOKS.get(name)) for fn, name in functions.items()}
    patched = []
    for module in LAYERS:
        for attr, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and obj in wrappers
                    and (module.__name__, attr) not in UNTRACED_REFERENCES):
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    try:
        yield
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def layer_metrics(tracer: Tracer, reference_count_s: float) -> dict[str, float]:
    """Per-layer totals for one traced pass.

    ``reference_count_s`` is the time of a count-mode search() on the graph
    of every all-mode job, run outside the jobs.  It explores the same tree,
    so it counts as count-mode time, and the rest of the all-mode search()
    time is witness expansion.
    """
    child_time: dict[int, float] = {}
    m = dict.fromkeys((
        "search.nodes", "search.count_s", "search.limit_hits", "search.order_s",
        "search.expand_s", "search.witnesses", "graph.read_s", "cli.self_s",
        "labeling.io_s", "labeling.validate_s", "labeling.validate_calls",
        "oracle.enumerate_s", "oracle.assignments", "conditions.decide_s",
        "conditions.trace_s",
    ), 0.0)
    durations = []
    for i, name, dur, parent, _job in tracer.spans():
        durations.append(dur)
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + dur
        if name == "search.search":
            info = tracer.info.get(i)
            if info is None:  # the call raised
                continue
            m["search.nodes"] += info["nodes"]
            m["search.witnesses"] += info["witnesses"]
            m["search.limit_hits"] += not info["exhausted"]
            if info["mode"] == "all":
                m["search.expand_s"] += dur
            else:
                m["search.count_s"] += dur
        elif name == "search.vertex_order":
            m["search.order_s"] += dur
        elif name == "graph.read_graph":
            m["graph.read_s"] += dur
        elif name in ("labeling.read_labeling", "labeling.write_labeling"):
            m["labeling.io_s"] += dur
        elif name == "labeling.validate":
            m["labeling.validate_s"] += dur
            m["labeling.validate_calls"] += 1
        elif name == "oracle.brute_force_enumerate":
            m["oracle.enumerate_s"] += dur
            m["oracle.assignments"] += tracer.info.get(i, {}).get("assignments", 0)
        elif name in ("conditions.feasible_ground_size", "conditions.star_theorem_decision"):
            m["conditions.decide_s"] += dur
        elif name == "conditions.proof_trace":
            m["conditions.trace_s"] += dur
    for i, name, _dur, _parent, _job in tracer.spans():
        if name.startswith("cli."):
            m["cli.self_s"] += durations[i] - child_time.get(i, 0.0)
    m["search.expand_s"] -= reference_count_s
    m["search.count_s"] += reference_count_s
    m["search.nodes_per_s"] = (
        m["search.nodes"] / m["search.count_s"] if m["search.count_s"] > 0 else 0.0
    )
    m["oracle.assignments_per_s"] = (
        m["oracle.assignments"] / m["oracle.enumerate_s"] if m["oracle.enumerate_s"] > 0 else 0.0
    )
    return m


def write_spans(path: Path, tracers: list[Tracer], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump({"meta": meta, "passes": [t.as_json() for t in tracers]}, fh)
