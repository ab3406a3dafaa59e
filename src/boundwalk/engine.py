"""Episode engine: mediates between an explorer that sees only the
KnowledgeView and a weight source that commits actual weights on reveal.

Reveal rule: an edge's actual weight is fixed the first time one of its
endpoints is visited (including the start vertex before the first decision).
Every revealed weight must lie in its announced interval; violations raise
AdversaryFault.  Episodes are strictly sequential and fully replayable.

One arrival rule checks the start and every move alike: every edge
incident to the new position is revealed, and the reveal map grew by
exactly the arrival's events, distinct edges each incident to the new
position.  The start's map grows from empty, so it holds exactly the
start's incident edges.  Each weight's interval is checked once, as it is
revealed, before it enters the view's read-only `revealed` mapping, which
later arrivals only add to; so by induction every view of an episode
reveals exactly the edges incident to its visited vertices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence

from .graph import (Edge, EstimateGraph, Walk, WeightAssignment,
                    walk_violations)
from .solver import (CoverTask, DEFAULT_EXACT_CAP, SolverCapExceeded,
                     optimal_cover_walk)


class EngineError(Exception):
    pass


class IllegalMove(EngineError):
    """Explorer proposed a move to a non-adjacent vertex."""


class Nontermination(EngineError):
    """Episode exceeded the step cap without completing."""


class AdversaryFault(EngineError):
    """Weight source returned a weight outside the announced interval."""


class WeightSource(Protocol):
    """Where actual weights come from.

    reveal() is called exactly once per edge per episode, the first time an
    endpoint is visited; visit_seq is the agent's vertex visit sequence so
    far including the triggering vertex.  complete() supplies weights for
    edges never revealed during the episode (post-hoc, for offline oracles)
    and must be deterministic and consistent with in-episode answers.
    """

    def reveal(self, eid: int, visit_seq: Sequence[int]) -> Fraction: ...

    def complete(self, eid: int, visit_seq: Sequence[int]) -> Fraction: ...


@dataclass(frozen=True)
class FixedAssignment:
    """Weight source backed by a fixed total assignment."""

    assignment: WeightAssignment

    def reveal(self, eid: int, visit_seq: Sequence[int]) -> Fraction:
        return self.assignment.weight(eid)

    def complete(self, eid: int, visit_seq: Sequence[int]) -> Fraction:
        return self.assignment.weight(eid)


class Move(NamedTuple):
    origin: int
    target: int
    edge: int
    paid: Fraction


class Reveal(NamedTuple):
    edge: int
    weight: Fraction
    trigger: int


@dataclass(frozen=True)
class KnowledgeView:
    """Everything an explorer is allowed to see during an episode."""

    graph: EstimateGraph
    visited: frozenset[int]
    position: int
    revealed: Mapping[int, Fraction]
    paid: Fraction
    history: tuple[Move, ...]
    reveals: tuple[Reveal, ...]
    _source: WeightSource = field(repr=False, compare=False)

    @property
    def unvisited(self) -> frozenset[int]:
        return frozenset(range(self.graph.vertex_count)) - self.visited

    @property
    def visit_sequence(self) -> tuple[int, ...]:
        return (self.graph.start,) + tuple(m.target for m in self.history)

    @property
    def is_complete(self) -> bool:
        return (len(self.visited) == self.graph.vertex_count
                and self.position == self.graph.end)


def _within(w: Fraction, e: Edge) -> bool:
    """e.lower <= w <= e.upper for a Fraction or int w, cross-multiplied
    in integers (every denominator is positive)."""
    n, d = w.numerator, w.denominator
    lo, hi = e.lower, e.upper
    return (lo.numerator * d <= n * lo.denominator
            and n * hi.denominator <= hi.numerator * d)


def _reveal_incident(graph: EstimateGraph, source: WeightSource,
                     revealed: dict[int, Fraction], vertex: int,
                     visit_seq: tuple[int, ...]) -> list[Reveal]:
    events = []
    for eid in graph.incident_edges(vertex):
        if eid in revealed:
            continue
        w = source.reveal(eid, visit_seq)
        e = graph.edges[eid]
        if not _within(w, e):
            raise AdversaryFault(
                f"weight {w} for edge {eid} outside [{e.lower}, {e.upper}]")
        revealed[eid] = w
        events.append(Reveal(eid, w, vertex))
    return events


def _check_arrival(view: KnowledgeView, before: int,
                   events: list[Reveal]) -> None:
    graph = view.graph
    to = view.position
    if not all(eid in view.revealed for _, eid in graph.neighbors(to)):
        raise EngineError(f"an edge incident to vertex {to} is unrevealed")
    if (len(view.revealed) != before + len(events)
            or len({e.edge for e in events}) != len(events)):
        raise EngineError("reveal set grew by other than the arrival's "
                          "events")
    for event in events:
        e = graph.edges[event.edge]
        if to not in (e.a, e.b):
            raise EngineError(f"edge {event.edge} revealed away from "
                              f"vertex {to}")


def start_episode(graph: EstimateGraph, source: WeightSource) -> KnowledgeView:
    """Place the agent at the start vertex and reveal its incident edges."""
    revealed: dict[int, Fraction] = {}
    seq = (graph.start,)
    events = _reveal_incident(graph, source, revealed, graph.start, seq)
    view = KnowledgeView(graph=graph, visited=frozenset({graph.start}),
                         position=graph.start,
                         revealed=MappingProxyType(revealed),
                         paid=Fraction(0), history=(), reveals=tuple(events),
                         _source=source)
    _check_arrival(view, 0, events)
    return view


def move(view: KnowledgeView, to: int) -> KnowledgeView:
    """Traverse one edge, paying its revealed weight; reveal new edges."""
    graph = view.graph
    eid = graph.edge_between(view.position, to)
    if eid is None:
        raise IllegalMove(f"no edge between {view.position} and {to}")
    w = view.revealed[eid]
    revealed = dict(view.revealed)
    events = []
    if to not in view.visited:
        seq = view.visit_sequence + (to,)
        events = _reveal_incident(graph, view._source, revealed, to, seq)
    new = KnowledgeView(graph=graph, visited=view.visited | {to}, position=to,
                        revealed=MappingProxyType(revealed),
                        paid=view.paid + w,
                        history=view.history + (Move(view.position, to, eid, w),),
                        reveals=view.reveals + tuple(events),
                        _source=view._source)
    _check_arrival(new, len(view.revealed), events)
    return new


@dataclass(frozen=True)
class RunReport:
    """Full episode record with online/offline costs and the ratio."""

    instance: dict
    explorer: str
    moves: tuple[Move, ...]
    reveals: tuple[Reveal, ...]
    online_cost: Fraction
    offline_cost: Fraction
    offline_kind: str  # "exact" | "certificate"
    ratio: Fraction
    ratio_is_lower_bound: bool
    steps: int

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "explorer": self.explorer,
            "moves": [{"edge": m.edge, "from": m.origin, "to": m.target,
                       "paid": str(m.paid)} for m in self.moves],
            "reveals": [{"edge": r.edge, "weight": str(r.weight),
                         "trigger": r.trigger} for r in self.reveals],
            "online_cost": str(self.online_cost),
            "offline_cost": str(self.offline_cost),
            "offline_kind": self.offline_kind,
            "ratio": str(self.ratio),
            "ratio_decimal": f"{float(self.ratio):.6f}",
            "ratio_is_lower_bound": self.ratio_is_lower_bound,
            "steps": self.steps,
        }


class Explorer(Protocol):
    name: str

    def decide(self, view: KnowledgeView) -> int: ...


def realized_assignment(graph: EstimateGraph, view: KnowledgeView,
                        source: WeightSource) -> WeightAssignment:
    """Actual weights after an episode; never-revealed edges are filled by
    the source's deterministic completion rule and checked for containment."""
    weights = dict(view.revealed)
    seq = view.visit_sequence
    for eid in range(len(graph.edges)):
        if eid in weights:
            continue
        w = source.complete(eid, seq)
        if not _within(w, graph.edges[eid]):
            raise AdversaryFault(
                f"completion weight {w} for edge {eid} outside interval")
        weights[eid] = w
    return WeightAssignment(weights)


def _offline_key(graph: EstimateGraph, weights: Mapping[int, Fraction]
                 ) -> tuple[Fraction, ...]:
    return tuple(weights[eid] for eid in range(len(graph.edges)))


def _exact_offline(graph: EstimateGraph, task: CoverTask, cap: int,
                   memo: dict | None) -> Fraction:
    """The exact offline cost, through `memo` when given (see
    `run_episode`); raises SolverCapExceeded beyond the cap."""
    if memo is None or len(task.required_vertices()) > cap:
        # beyond the cap the solver raises before any work: no key needed
        return optimal_cover_walk(graph, task, cap=cap)[1]
    key = _offline_key(graph, task.weights)
    if key not in memo:
        memo[key] = optimal_cover_walk(graph, task, cap=cap)[1]
    return memo[key]


def run_episode(graph: EstimateGraph, source: WeightSource, explorer: Explorer,
                *, oracle_cap: int = DEFAULT_EXACT_CAP,
                certificate: Callable[[WeightAssignment], Walk] | None = None,
                instance: dict | None = None,
                offline_memo: dict | None = None) -> RunReport:
    """Run one episode to completion and attach the offline comparison.

    The offline optimum is computed exactly when the instance fits the
    oracle cap.  Otherwise the best available feasible walk (the walk
    `certificate(realized assignment)` returns, once checked, and the
    agent's own realized walk) bounds it from above and the reported ratio
    is flagged as a lower bound on the true ratio.

    `offline_memo`, when given, maps realized weights (in edge-id order) to
    the exact offline cost on this same graph: a hit skips the solve, and
    each exact solve is stored.  Episodes of several explorers on one built
    instance, with one oracle cap, can share it.  Only exact costs are
    stored, since the fallback above depends on each episode's own walk,
    and no key is built for a task with more required vertices than the
    cap.
    """
    n = graph.vertex_count
    cap = 10 * n * n
    view = start_episode(graph, source)
    while not view.is_complete:
        if len(view.history) >= cap:
            raise Nontermination(
                f"episode exceeded step cap {cap} for explorer "
                f"{explorer.name}")
        view = move(view, explorer.decide(view))

    assignment = realized_assignment(graph, view, source)
    online = view.paid
    task = CoverTask.full_cover(graph, assignment.weights)
    try:
        offline = _exact_offline(graph, task, oracle_cap, offline_memo)
        kind = "exact"
        lower_bound = False
    except SolverCapExceeded:
        candidates = [online]  # the agent's own walk is feasible offline
        if certificate is not None:
            walk = certificate(assignment)
            problems = walk_violations(graph, walk, assignment.weights)
            if problems:
                raise EngineError(f"invalid certificate walk: {problems}")
            if not walk.covers(graph):
                raise EngineError("certificate walk does not cover the "
                                  "instance from start to end")
            candidates.append(walk.cost)
        offline = min(candidates)
        kind = "certificate"
        lower_bound = True

    return RunReport(
        instance=instance or {"n": n, "s": graph.start, "t": graph.end},
        explorer=explorer.name,
        moves=view.history,
        reveals=view.reveals,
        online_cost=online,
        offline_cost=offline,
        offline_kind=kind,
        ratio=online / offline,
        ratio_is_lower_bound=lower_bound,
        steps=len(view.history),
    )
