"""Core graph model: interval-announced edge weights, validation, shortest paths.

Weights are exact rationals (`fractions.Fraction`) at the API edges: input
weights, walk step costs and returned costs.  Inside `Distances`, the
metric closure and the solver's DP they are integers over one common
denominator.  Every comparison in the harness is exact, never
tolerance-based.  Tie-breaking is deterministic everywhere: smaller vertex
id wins, then smaller edge id.

Every shortest distance and path comes from `Distances`, an all-pairs
matrix built by Floyd-Warshall and kept exact as edge weights decrease:
`lower` repairs it in O(n^2) per edge (a decrease-only dynamic update),
and rescales it when a weight brings a new denominator.  A path from u is
rebuilt from u's distance row alone: each vertex x != u is entered from
pred(x) = min{y in N(x) : d(u, y) + w(y, x) = d(u, x)}, the smallest
optimal predecessor, which is the one a Dijkstra that keeps the smaller
vertex id on ties settles on.  `among` gives the distances between a
vertex subset, the metric closure the offline solver works on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

# an instance holds an n x n distance matrix per episode: 8 MiB in int64
MAX_VERTICES = 1024
# int64 distances stay below n * max scaled weight < 2**59, so two of
# them plus a weight fit
_INT64_SPAN = 1 << 59


class Edge(NamedTuple):
    """Undirected edge with an announced weight interval [lower, upper]."""

    a: int
    b: int
    lower: Fraction
    upper: Fraction

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


def _as_fraction(x) -> Fraction:
    """`x` as a Fraction; a Fraction is kept as it is."""
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_int(value: int | str, minimum: int | None = None) -> int:
    """Accept an integer or a decimal integer string, of at least `minimum`
    when one is given; floats and booleans are refused rather than
    truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    if minimum is not None and int(value) < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
    return int(value)


def _read_field(data: Mapping, key: str, parse: Callable, default=None, *,
                noun: str = "field"):
    """parse(data[key]), or parse(default) when the key is absent and a
    default is given; ValueError names the missing or malformed `noun`."""
    if key in data:
        value = data[key]
    elif default is not None:
        value = default
    else:
        raise ValueError(f"missing {noun} {key!r}")
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad {noun} {key!r}: {exc}") from exc


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
            Edge(e[0], e[1], _as_fraction(e[2]), _as_fraction(e[3]))
            for e in edges)
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


def validate(graph: EstimateGraph) -> list[str]:
    """Every violated invariant, naming its instance field; empty iff valid."""
    violations: list[str] = []
    n = graph.vertex_count
    if n < 2:
        violations.append(f"n = {n}: a graph needs at least two vertices")
    for v, name in ((graph.start, "s"), (graph.end, "t")):
        if not 0 <= v < n:
            violations.append(f"{name} = {v} out of range for n = {n}")
    if graph.start == graph.end:
        violations.append(f"s and t must be distinct, both are {graph.start}")
    seen: set[tuple[int, int]] = set()
    for eid, e in enumerate(graph.edges):
        if not (0 <= e.a < n and 0 <= e.b < n):
            violations.append(f"edge {eid}: a, b = {e.a}, {e.b} out of range")
            continue
        if e.a == e.b:
            violations.append(f"edge {eid}: a self-loop, a = b = {e.a}")
        key = e.key()
        if key in seen:
            violations.append(f"edge {eid}: duplicate (a, b) = {key}")
        seen.add(key)
        if e.lower <= 0:
            violations.append(f"edge {eid}: nonpositive lower = {e.lower}")
        if e.lower > e.upper:
            violations.append(f"edge {eid}: interval inverted, lower > upper")
    if not violations or all("out of range" not in v for v in violations):
        if n >= 1 and not _connected(graph):
            violations.append(f"edges leave n = {n} vertices disconnected")
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
    """Largest u(e)/l(e) over all edges, with the uniform-interval flag;
    ratios compare by integer cross-multiplication (lower bounds > 0)."""
    top, bottom = 0, 1
    for e in graph.edges:
        num = e.upper.numerator * e.lower.denominator
        den = e.upper.denominator * e.lower.numerator
        if num * bottom > top * den:
            top, bottom = num, den
    alpha = Fraction(top, bottom)
    uniform = all(e.lower == 1 and e.upper == alpha for e in graph.edges)
    return AlphaProfile(alpha=alpha, uniform=uniform)


def check_weights(graph: EstimateGraph, weights: Mapping[int, Fraction]) -> None:
    """Reject weight maps that are not total and positive."""
    for eid in range(len(graph.edges)):
        w = weights.get(eid)
        if w is None:
            raise ValueError(f"weight missing for edge {eid}")
        if w.numerator <= 0:  # a Fraction's or int's denominator is > 0
            raise ValueError(f"nonpositive weight {w} for edge {eid}")


def scale_to_integers(graph: EstimateGraph,
                      weights: Mapping[int, Fraction]) -> tuple[int, list[int]]:
    """Common denominator L and the integer weights w*L, indexed by edge id."""
    ws = [weights[eid] for eid in range(len(graph.edges))]
    denom = lcm(*(w.denominator for w in ws))
    return denom, [w.numerator * (denom // w.denominator) for w in ws]


class Distances:
    """Exact all-pairs shortest distances of one connected graph under
    weights that only ever decrease, as an n x n integer matrix over one
    denominator.

    Built by Floyd-Warshall; `lower(eid, w)` then decreases one edge's
    weight and repairs every distance in O(n^2), since a shortest path uses
    the lowered edge at most once.  The matrix is int64 while n times the
    largest scaled weight stays below 2**59, so no sum of two distances and
    a weight overflows; beyond that (huge denominators) it holds Python
    integers.  A disconnected graph is refused, so every entry is finite.
    """

    def __init__(self, graph: EstimateGraph,
                 weights: Mapping[int, Fraction]):
        n = graph.vertex_count
        if n > MAX_VERTICES:
            raise ValueError(f"{n} vertices exceed the limit of "
                             f"{MAX_VERTICES}")
        check_weights(graph, weights)
        if not _connected(graph):
            raise ValueError("graph is disconnected")
        self.graph = graph
        self.denom, self._scaled = scale_to_integers(graph, weights)
        self._top = max(self._scaled, default=0)
        narrow = n * self._top < _INT64_SPAN
        # longer than any path: the value of a pair no edge joins yet
        D = np.full((n, n), n * self._top + 1,
                    dtype=np.int64 if narrow else object)
        np.fill_diagonal(D, 0)
        for e, s in zip(graph.edges, self._scaled):
            if s < D[e.a, e.b]:
                D[e.a, e.b] = D[e.b, e.a] = s
        for k in range(n):
            np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
        self._matrix = D

    def lower(self, eid: int, weight: Fraction) -> None:
        """Decrease edge `eid` to `weight` and every distance through it."""
        factor = lcm(self.denom, weight.denominator) // self.denom
        if factor > 1:
            self._rescale(factor)
        s = weight.numerator * (self.denom // weight.denominator)
        if not 0 < s <= self._scaled[eid]:
            raise ValueError(f"weight {weight} for edge {eid} is not a "
                             f"positive decrease")
        self._scaled[eid] = s
        e = self.graph.edges[eid]
        D = self._matrix
        if D[e.a, e.b] <= s:  # an a-b path as cheap as the edge remains
            return
        np.minimum(D, D[:, e.a, None] + (s + D[None, e.b, :]), out=D)
        np.minimum(D, D[:, e.b, None] + (s + D[None, e.a, :]), out=D)

    def _rescale(self, factor: int) -> None:
        self.denom *= factor
        self._scaled = [s * factor for s in self._scaled]
        self._top *= factor
        if (self._matrix.dtype != object
                and self.graph.vertex_count * self._top >= _INT64_SPAN):
            self._matrix = self._matrix.astype(object)
        self._matrix *= factor

    def row(self, u: int) -> list[int]:
        """`denom` times the distance from u to every vertex."""
        return self._matrix[u].tolist()

    def among(self, vertices: Sequence[int]) -> list[list[int]]:
        """`denom` times the distance between every pair of `vertices`,
        row i and column j for vertices[i] and vertices[j]."""
        return self._matrix.take(vertices, 0).take(vertices, 1).tolist()

    def length(self, vertices: Sequence[int]) -> int:
        """`denom` times the weight of the walk through `vertices`."""
        edge = self.graph.edge_between
        return sum(self._scaled[edge(a, b)]
                   for a, b in zip(vertices, vertices[1:]))

    def path(self, u: int, v: int) -> list[int]:
        """A shortest u-v path from u's distance row, each vertex entered
        from its smallest optimal predecessor (see the module docstring);
        with positive weights every such predecessor lies closer to u."""
        row = self.row(u)
        path = [v]
        while path[-1] != u:
            x = path[-1]
            for y, eid in self.graph.neighbors(x):
                if row[y] + self._scaled[eid] == row[x]:
                    path.append(y)
                    break
            else:
                raise AssertionError(f"no optimal predecessor of vertex {x}")
        path.reverse()
        return path


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
