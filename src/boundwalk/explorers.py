"""Online exploration policies: lower-bound precompute, worst-case
replanning, and a nearest-neighbor baseline.

Precompute keeps its plan per graph and reads its place on the walk from
the view's history.  The adaptive and nn explorers keep one `Distances`
per episode: all-pairs distances under the pessimistic weights (revealed
actuals, upper bounds elsewhere), built when an episode starts and
repaired in O(n^2) once per arrival since the previous decision, with
every edge that arrival revealed.  Reveals only ever lower a pessimistic
weight, and a shortest path meets the arrival vertex at most once, so it
uses at most one of the lowered edges: the repair matches a rebuild
exactly.  A view whose reveals do not extend those of the last view seen
(another graph or episode, or an earlier step) gets a fresh build.  So
reusing any explorer never changes its decisions.

The adaptive explorer plans in integers on that `Distances`
(`solver.worst_case_plan`) and converts only the plan cost to a Fraction.
Next to it, it keeps one `solver.SuffixTable`, which a decision reads
while the closure among the vertices still to visit is the one the table
was built on.  That is checked by content, not by episode, so it too
never changes a decision.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from operator import attrgetter

from .engine import KnowledgeView
from .graph import Distances, EstimateGraph
from .solver import (CoverTask, DEFAULT_EXACT_CAP, SuffixTable,
                     optimal_cover_walk, pessimistic_weights, worst_case_plan)


class _EpisodeDistances:
    """The pessimistic `Distances` of the episode a view belongs to."""

    def __init__(self) -> None:
        self._distances: Distances | None = None
        self._last: KnowledgeView | None = None

    def of(self, view: KnowledgeView) -> Distances:
        last = self._last
        # the matrix depends only on the graph and the reveals so far
        if (last is not None and view.graph is last.graph
                and view.reveals[:len(last.reveals)] == last.reveals):
            # one repair per arrival: its reveals share their trigger
            for vertex, events in groupby(view.reveals[len(last.reveals):],
                                          attrgetter("trigger")):
                self._distances.lower(
                    vertex, {event.edge: event.weight for event in events})
        else:
            self._distances = Distances(
                view.graph, pessimistic_weights(view.graph, view.revealed))
        self._last = view
        return self._distances


class PrecomputeExplorer:
    """Solves the covering walk once under all lower bounds and replays it,
    ignoring every revelation."""

    name = "precompute"

    def __init__(self, cap: int = DEFAULT_EXACT_CAP):
        self._cap = cap
        self._plan: tuple[EstimateGraph, tuple[int, ...]] | None = None

    def decide(self, view: KnowledgeView) -> int:
        graph = view.graph
        if self._plan is None or self._plan[0] is not graph:
            lower = {eid: e.lower for eid, e in enumerate(graph.edges)}
            walk, _ = optimal_cover_walk(
                graph, CoverTask.full_cover(graph, lower), cap=self._cap)
            self._plan = graph, walk.vertices
        walk = self._plan[1]
        step = len(view.history)
        if step + 1 >= len(walk) or walk[step] != view.position:
            raise RuntimeError("precompute replay desynchronized")
        return walk[step + 1]


class AdaptiveExplorer:
    """Recomputes, at every vertex, a cheapest worst-case walk to the end
    vertex covering all unvisited vertices, and takes its first step.

    Unrevealed edges are priced at their announced upper bound, so the plan
    cost is a valid upper bound on the cost of finishing the walk."""

    name = "adaptive"

    def __init__(self, cap: int = DEFAULT_EXACT_CAP):
        self._cap = cap
        self._distances = _EpisodeDistances()
        self._table = SuffixTable()
        self.plan_costs: list[Fraction] = []

    def decide(self, view: KnowledgeView) -> int:
        distances = self._distances.of(view)
        vertices, total = worst_case_plan(view, distances, self._table,
                                          cap=self._cap)
        self.plan_costs.append(Fraction(total, distances.denom))
        return vertices[1]


class NearestNeighborExplorer:
    """Moves toward the unvisited non-end vertex of minimum known distance
    (revealed weights, upper bounds for the rest); visits the end last."""

    name = "nn"

    def __init__(self) -> None:
        self._distances = _EpisodeDistances()

    def decide(self, view: KnowledgeView) -> int:
        graph = view.graph
        distances = self._distances.of(view)
        row = distances.row(view.position)
        targets = view.unvisited - {graph.end}
        if targets:
            goal = min(targets, key=lambda v: (row[v], v))
        else:
            goal = graph.end
        return distances.path(view.position, goal)[1]


EXPLORERS = {  # each name's constructor, given the exact-solver cap
    "precompute": PrecomputeExplorer,
    "adaptive": AdaptiveExplorer,
    "nn": lambda cap: NearestNeighborExplorer(),  # nn solves nothing
}


def make_explorer(name: str, *, cap: int = DEFAULT_EXACT_CAP):
    if name not in EXPLORERS:
        raise ValueError(f"unknown explorer {name!r}; "
                         f"choose from {sorted(EXPLORERS)}")
    return EXPLORERS[name](cap=cap)
