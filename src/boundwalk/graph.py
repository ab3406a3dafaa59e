"""Core graph model: interval-announced edge weights, validation, shortest paths.

Weights are exact rationals (`fractions.Fraction`) at the API edges: input
weights, walk step costs and returned costs.  Inside the metric closure and
the solver's DP they are integers over one common denominator.  Every
comparison in the harness is exact, never tolerance-based.  Tie-breaking is
deterministic everywhere: smaller vertex id wins, then smaller edge id.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence


class Edge(NamedTuple):
    """Undirected edge with an announced weight interval [lower, upper]."""

    a: int
    b: int
    lower: Fraction
    upper: Fraction

    def other(self, v: int) -> int:
        return self.b if v == self.a else self.a

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


class EstimateGraph:
    """Simple undirected graph whose edge weights are announced as intervals.

    Immutable after construction; safe to share across episodes and threads.
    Construction is permissive so that `validate` can report invariant
    violations as data; operations other than `validate` assume a valid graph.
    """

    def __init__(self, vertex_count: int, edges: Sequence[Edge],
                 start: int, end: int):
        self.vertex_count = int(vertex_count)
        self.edges: tuple[Edge, ...] = tuple(
            Edge(e[0], e[1], Fraction(e[2]), Fraction(e[3])) for e in edges)
        self.start = int(start)
        self.end = int(end)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        index: dict[tuple[int, int], int] = {}
        for eid, e in enumerate(self.edges):
            if 0 <= e.a < self.vertex_count and 0 <= e.b < self.vertex_count:
                adj[e.a].append((e.b, eid))
                adj[e.b].append((e.a, eid))
                index.setdefault(e.key(), eid)
        for rows in adj:
            rows.sort()
        self._adj = adj
        self._eindex = index

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """(neighbor, edge id) pairs sorted by neighbor id."""
        return self._adj[v]

    def incident_edges(self, v: int) -> list[int]:
        return sorted(eid for _, eid in self._adj[v])

    def edge_between(self, a: int, b: int) -> int | None:
        key = (a, b) if a < b else (b, a)
        return self._eindex.get(key)

    def __repr__(self) -> str:
        return (f"EstimateGraph(n={self.vertex_count}, m={len(self.edges)}, "
                f"s={self.start}, t={self.end})")


@dataclass(frozen=True)
class WeightAssignment:
    """Total assignment of actual weights, keyed by edge id."""

    weights: Mapping[int, Fraction]

    def weight(self, eid: int) -> Fraction:
        return self.weights[eid]


@dataclass(frozen=True)
class AlphaProfile:
    """Maximum announced upper/lower ratio, plus the uniform-[1, alpha] flag."""

    alpha: Fraction
    uniform: bool


@dataclass(frozen=True)
class Walk:
    """Open walk: vertex sequence with the cost paid for each step."""

    vertices: tuple[int, ...]
    step_costs: tuple[Fraction, ...]

    @property
    def cost(self) -> Fraction:
        return sum(self.step_costs, Fraction(0))

    def __len__(self) -> int:
        return len(self.step_costs)


def validate(graph: EstimateGraph) -> list[str]:
    """Return every violated graph invariant; empty list iff valid."""
    violations: list[str] = []
    n = graph.vertex_count
    if n < 2:
        violations.append("graph must have at least two vertices")
    for v, name in ((graph.start, "start"), (graph.end, "end")):
        if not 0 <= v < n:
            violations.append(f"{name} vertex {v} out of range")
    if graph.start == graph.end:
        violations.append("start and end vertices must be distinct")
    seen: set[tuple[int, int]] = set()
    for eid, e in enumerate(graph.edges):
        if not (0 <= e.a < n and 0 <= e.b < n):
            violations.append(f"edge {eid} has endpoint out of range")
            continue
        if e.a == e.b:
            violations.append(f"edge {eid} is a self-loop")
        key = e.key()
        if key in seen:
            violations.append(f"duplicate edge {key}")
        seen.add(key)
        if e.lower <= 0:
            violations.append(f"edge {eid} has nonpositive lower bound")
        if e.lower > e.upper:
            violations.append(f"edge {eid} interval inverted")
    if not violations or all("out of range" not in v for v in violations):
        if n >= 1 and not _connected(graph):
            violations.append("disconnected")
    return violations


def _connected(graph: EstimateGraph) -> bool:
    n = graph.vertex_count
    if n == 0:
        return True
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u, _ in graph.neighbors(v):
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == n


def alpha_of(graph: EstimateGraph) -> AlphaProfile:
    """Largest u(e)/l(e) over all edges, with the uniform-interval flag."""
    alpha = max(e.upper / e.lower for e in graph.edges)
    uniform = all(e.lower == 1 and e.upper == alpha for e in graph.edges)
    return AlphaProfile(alpha=alpha, uniform=uniform)


def check_weights(graph: EstimateGraph, weights: Mapping[int, Fraction]) -> None:
    """Reject weight maps that are not total and positive."""
    for eid in range(len(graph.edges)):
        w = weights.get(eid)
        if w is None:
            raise ValueError(f"weight missing for edge {eid}")
        if w <= 0:
            raise ValueError(f"nonpositive weight {w} for edge {eid}")


def scale_to_integers(graph: EstimateGraph,
                      weights: Mapping[int, Fraction]) -> tuple[int, list[int]]:
    """Common denominator L and the integer weights w*L, indexed by edge id."""
    ws = [weights[eid] for eid in range(len(graph.edges))]
    denom = lcm(*(w.denominator for w in ws))
    return denom, [w.numerator * (denom // w.denominator) for w in ws]


def _dijkstra_int(graph: EstimateGraph, scaled: Sequence[int],
                  source: int) -> tuple[list[int | None], list[int | None]]:
    """Integer-weight Dijkstra with deterministic predecessors.

    pred[v] is the smallest vertex id among all optimal predecessors of v,
    so reconstructed shortest paths are unique and replayable.
    """
    n = graph.vertex_count
    dist: list[int | None] = [None] * n
    pred: list[int | None] = [None] * n
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    done = [False] * n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u, eid in graph.neighbors(v):
            nd = d + scaled[eid]
            du = dist[u]
            if du is None or nd < du:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
            elif nd == du and not done[u]:
                prev = pred[u]
                if prev is None or v < prev:
                    pred[u] = v
    return dist, pred


def shortest_paths(graph: EstimateGraph, weights: Mapping[int, Fraction],
                   source: int) -> tuple[dict[int, Fraction], dict[int, int]]:
    """Exact single-source shortest path distances and predecessor map."""
    check_weights(graph, weights)
    denom, scaled = scale_to_integers(graph, weights)
    dist, pred = _dijkstra_int(graph, scaled, source)
    dists = {v: Fraction(d, denom) for v, d in enumerate(dist) if d is not None}
    preds = {v: p for v, p in enumerate(pred) if p is not None}
    return dists, preds


def _path_from_preds(pred: Sequence[int | None], source: int,
                     target: int) -> list[int]:
    path = [target]
    while path[-1] != source:
        p = pred[path[-1]]
        if p is None:
            raise ValueError(f"vertex {target} unreachable from {source}")
        path.append(p)
    path.reverse()
    return path


class MetricClosure:
    """All-pairs shortest distances over a required vertex set.

    Distances are integers over one common denominator: `matrix[i][j]` is
    `denom` times the distance from `vertices[i]` to `vertices[j]`.
    `expand(u, v)` recovers the underlying shortest path in the original
    graph, so closure-level solutions can be turned back into real walks.
    """

    def __init__(self, vertices: tuple[int, ...], denom: int,
                 matrix: list[list[int]],
                 preds: list[list[int | None]]):
        self.vertices = vertices
        self.denom = denom
        self.matrix = matrix
        self._preds = preds
        self._index = {v: i for i, v in enumerate(vertices)}

    def distance(self, u: int, v: int) -> Fraction:
        return Fraction(self.matrix[self._index[u]][self._index[v]],
                        self.denom)

    def expand(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(_path_from_preds(self._preds[self._index[u]], u, v))


def metric_closure(graph: EstimateGraph, weights: Mapping[int, Fraction],
                   required: Iterable[int]) -> MetricClosure:
    """Integer distance matrix over `required` plus one Dijkstra
    predecessor list per source for path expansion."""
    check_weights(graph, weights)
    verts = tuple(sorted(set(required)))
    denom, scaled = scale_to_integers(graph, weights)
    matrix: list[list[int]] = []
    preds: list[list[int | None]] = []
    for u in verts:
        d, pred = _dijkstra_int(graph, scaled, u)
        row = [d[v] for v in verts]
        if None in row:
            v = verts[row.index(None)]
            raise ValueError(f"vertex {v} unreachable from {u}")
        matrix.append(row)
        preds.append(pred)
    return MetricClosure(verts, denom, matrix, preds)


def walk_violations(graph: EstimateGraph, walk: Walk,
                    weights: Mapping[int, Fraction]) -> list[str]:
    """Check a walk against the graph and an evaluation weight assignment."""
    problems: list[str] = []
    if not walk.vertices:
        return ["walk has no vertices"]
    if len(walk.step_costs) != len(walk.vertices) - 1:
        problems.append("step cost count does not match vertex count")
        return problems
    for i, (a, b) in enumerate(zip(walk.vertices, walk.vertices[1:])):
        eid = graph.edge_between(a, b)
        if eid is None:
            problems.append(f"step {i}: vertices {a},{b} not adjacent")
        elif walk.step_costs[i] != weights[eid]:
            problems.append(f"step {i}: cost {walk.step_costs[i]} != weight")
    return problems


def walk_of_vertices(graph: EstimateGraph, vertices: Sequence[int],
                     weights: Mapping[int, Fraction]) -> Walk:
    """Build a priced Walk from a vertex sequence; rejects non-adjacent steps."""
    costs = []
    for a, b in zip(vertices, vertices[1:]):
        eid = graph.edge_between(a, b)
        if eid is None:
            raise ValueError(f"vertices {a},{b} not adjacent")
        costs.append(weights[eid])
    return Walk(tuple(vertices), tuple(costs))
