"""Span tracer that wraps boundwalk's public functions from outside the
package, so per-layer time can be measured with no edit to `src/`.

`install()` replaces every public module-level function of the seven layer
modules, plus the explorer and weight-source methods listed in `METHODS`,
at every module that holds a reference to it.  While `active` is set, each
wrapped call records one span: name, start, end, parent span and the id of
the operation (episode, solve or sweep) it belongs to.  Spans are kept in
flat arrays in memory and written out once, by `save()`.

A layer's self time is the summed duration of its spans minus the part
covered by their traced children; the time inside an operation that no span
covers is reported as the untraced remainder.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

LAYERS = ("graph", "solver", "engine", "explorers", "adversaries", "reports",
          "cli")

# (module, class, method, span name).  Weight sources are one layer,
# "adversaries", whichever module defines them.
METHODS = (
    ("explorers", "AdaptiveExplorer", "decide", "explorers.adaptive.decide"),
    ("explorers", "NearestNeighborExplorer", "decide", "explorers.nn.decide"),
    ("explorers", "PrecomputeExplorer", "decide",
     "explorers.precompute.decide"),
    ("engine", "FixedAssignment", "reveal", "adversaries.reveal"),
    ("engine", "FixedAssignment", "complete", "adversaries.complete"),
    ("adversaries", "HalvesAdversary", "reveal", "adversaries.reveal"),
    ("adversaries", "HalvesAdversary", "complete", "adversaries.complete"),
    ("adversaries", "RecursiveAdversary", "reveal", "adversaries.reveal"),
    ("adversaries", "RecursiveAdversary", "complete", "adversaries.complete"),
    ("adversaries", "RecursiveBundle", "certificate",
     "adversaries.certificate"),
)

# adversaries functions whose self time counts as instance construction
CONSTRUCTORS = ("build_recursive", "build_complete_adversary",
                "build_bipartite_adversary", "build_grid_trap",
                "complete_graph", "complete_bipartite_graph",
                "random_instance", "random_uniform_assignment")

MB = float(1 << 20)


class Tracer:
    """In-memory span recorder; one per traced section."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_idx = array("i")
        self.active = False
        self.counters: dict[str, float] = {
            "graph.closure_entries": 0, "solver.required_vertices.max": 0,
            "solver.dp_cells": 0, "solver.dp_table_mb.max": 0.0,
            "reports.rows": 0}
        self._stack: list[int] = []
        self._op = -1
        self._episodes = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- operation ids ------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Attribute the spans that follow to a new top-level operation."""
        self.ops.append(label)
        self._op = len(self.ops) - 1

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str | Callable[[tuple], str], fn: Callable, *,
              after: Callable | None = None,
              opens_episode: bool = False) -> Callable:
        tracer = self
        stack = self._stack
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else tracer._name_id(name(args))
            saved_op = tracer._op
            if opens_episode:
                tracer._episodes += 1
                base = tracer.ops[saved_op] if saved_op >= 0 else "untagged"
                tracer.begin_op(f"{base}/episode{tracer._episodes}")
            idx = len(tracer.start)
            tracer.name_idx.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_idx.append(tracer._op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                tracer._op = saved_op
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra_modules: tuple = ()) -> None:
        """Wrap every public function of each layer module wherever it is
        referenced: the layer modules, the package namespace and
        `extra_modules` (the benchmark's own)."""
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "boundwalk" or n.startswith("boundwalk.")]
        holders += list(extra_modules)
        hooks = {"graph.metric_closure": self._count_closure,
                 "solver.optimal_cover_walk": self._count_solve,
                 "reports.run_sweep": self._count_rows}
        for layer in LAYERS:
            module = importlib.import_module(f"boundwalk.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "cli.main":
                    name = _cli_span_name
                wrapper = self._wrap(
                    name, fn, after=hooks.get(f"{layer}.{attr}"),
                    opens_episode=(layer, attr) == ("engine", "run_episode"))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
        for mod_name, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"boundwalk.{mod_name}"),
                          cls_name)
            self._patch(cls, method, self._wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counters computed from input sizes ---------------------------------

    def _count_closure(self, args, kwargs, result) -> None:
        r = len(result.vertices)
        self.counters["graph.closure_entries"] += r * r

    def _count_solve(self, args, kwargs, result) -> None:
        task = args[1] if len(args) > 1 else kwargs["task"]
        r = len(task.required_vertices())
        interior = r - (1 if task.origin == task.destination else 2)
        cells = (1 << interior) * interior if interior > 0 else 0
        c = self.counters
        c["solver.required_vertices.max"] = max(
            c["solver.required_vertices.max"], r)
        c["solver.dp_cells"] += cells
        c["solver.dp_table_mb.max"] = max(c["solver.dp_table_mb.max"],
                                          cells * 8 / MB)

    def _count_rows(self, args, kwargs, result) -> None:
        self.counters["reports.rows"] += len(result)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return names, start, end, parent

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds by span name, calls by span name, sum of top-level
        span durations).  Checks that every span nests inside its parent."""
        names, start, end, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        p = parent[nested]
        if np.any(start[nested] < start[p]) or np.any(end[nested] > end[p]):
            raise RuntimeError("trace spans do not nest")
        child = np.bincount(p, weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        by_name = np.bincount(names, weights=own, minlength=k)
        calls = np.bincount(names, minlength=k)
        return ({n: float(by_name[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)},
                float(dur[~nested].sum()))

    def save(self, path: Path) -> None:
        names, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, name=names, start=start, end=end,
                            parent=parent,
                            op=np.frombuffer(self.op_idx, dtype=np.int32),
                            names=np.array(self.names),
                            ops=np.array(self.ops))


def _cli_span_name(args: tuple) -> str:
    argv = args[0] if args else None
    return "cli.sweep" if argv and argv[0] == "sweep" else "cli.main"


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of the traced section, keyed by name, except
    `trace.overhead_s` and `reports.pool_speedup`, which need untraced
    runs."""
    own, calls, top_s = tracer.self_times()

    def ms(*names: str) -> float:
        return 1000 * sum(own.get(n, 0.0) for n in names)

    def n_calls(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def layer_ms(layer: str) -> float:
        return ms(*(n for n in tracer.names if n.split(".")[0] == layer))

    untraced_ms = 1000 * (wall_s - top_s)
    if untraced_ms < 0:
        raise RuntimeError("traced spans exceed the section's wall time")
    decides = ("explorers.adaptive.decide", "explorers.nn.decide",
               "explorers.precompute.decide")
    c = tracer.counters
    out = {
        "graph.metric_closure.ms": ms("graph.metric_closure"),
        "graph.metric_closure.calls": n_calls("graph.metric_closure"),
        "graph.closure_entries": c["graph.closure_entries"],
        "graph.scale_to_integers.ms": ms("graph.scale_to_integers"),
        "graph.check_weights.ms": ms("graph.check_weights"),
        "graph.shortest_paths.ms": ms("graph.shortest_paths"),
        "graph.shortest_paths.calls": n_calls("graph.shortest_paths"),
        "solver.optimal_cover_walk.self_ms": ms("solver.optimal_cover_walk"),
        "solver.optimal_cover_walk.calls":
            n_calls("solver.optimal_cover_walk"),
        "solver.required_vertices.max": c["solver.required_vertices.max"],
        "solver.dp_cells": c["solver.dp_cells"],
        "solver.dp_table_mb.max": c["solver.dp_table_mb.max"],
        "solver.worst_case_cover_walk.self_ms":
            ms("solver.worst_case_cover_walk"),
        "engine.run_episode.self_ms": ms("engine.run_episode"),
        "engine.move.ms": ms("engine.move"),
        "engine.move.calls": n_calls("engine.move"),
        "engine.start_episode.ms": ms("engine.start_episode"),
        "engine.realized_assignment.ms": ms("engine.realized_assignment"),
        "explorers.adaptive.decide.self_ms": ms(decides[0]),
        "explorers.nn.decide.self_ms": ms(decides[1]),
        "explorers.precompute.decide.self_ms": ms(decides[2]),
        "explorers.decide.calls": n_calls(*decides),
        "adversaries.reveal.ms": ms("adversaries.reveal"),
        "adversaries.reveal.calls": n_calls("adversaries.reveal"),
        "adversaries.complete.ms": ms("adversaries.complete"),
        "adversaries.build.ms":
            ms(*(f"adversaries.{b}" for b in CONSTRUCTORS)),
        "reports.run_sweep.ms": ms("reports.run_sweep"),
        "reports.write_reports.ms": ms("reports.write_reports"),
        "reports.rows": c["reports.rows"],
        "cli.sweep.self_ms": ms("cli.sweep"),
        "trace.wall_ms": 1000 * wall_s,
        "trace.untraced_ms": untraced_ms,
        "trace.spans": len(tracer.start),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_ms(layer)
    return out
