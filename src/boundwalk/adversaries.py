"""Adversarial instance builders: the recursive lower-bound family, the
half-split adaptive adversary for complete and complete bipartite graphs,
the fixed grid trap, and seeded random instance generation.  `FAMILIES`
and `PARAMETERS` describe each family and each of its parameters once, for
the command line, config stubs, sweeps and the builders alike.

Adaptive sources here are stateless functions of the agent's visit history,
so they are deterministic and replayable by construction.  Both are endpoint
adversaries: every weight they reveal or complete is an end of its edge's
announced interval.
"""
from __future__ import annotations

import random
import re
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

from .engine import FixedAssignment, WeightSource, run_episode
from .explorers import AdaptiveExplorer
from .graph import (MAX_VERTICES, Edge, EstimateGraph, Walk,
                    WeightAssignment, _as_fraction, _read_field,
                    _refuse_unknown, alpha_of, parse_int, validate,
                    walk_of_vertices)
from .solver import DEFAULT_EXACT_CAP


class InvalidSpec(ValueError):
    """Builder parameters violate the family's constraints."""


class GridTrapError(Exception):
    """Grid construction failed its build-time self-check."""


class Instance(NamedTuple):
    """A built instance; `certificate(realized assignment)` gives the
    offline walk used beyond the exact oracle."""

    graph: EstimateGraph
    source: WeightSource
    certificate: Callable[[WeightAssignment], Walk] | None


# ---------------------------------------------------------------------------
# recursive lower-bound family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecursiveSpec:
    """Branching k, depth and alpha, in the ranges of `FAMILIES["recursive"]`.

    Alphas above 2 are clamped to 2: the construction cannot force more than
    a factor-2 gap, so larger announcements only loosen the instance.
    """

    k: int
    depth: int
    alpha: Fraction

    def validated(self) -> "RecursiveSpec":
        p = _checked("recursive", k=self.k, depth=self.depth,
                     alpha=self.alpha)
        return RecursiveSpec(p["k"], p["depth"], min(p["alpha"], Fraction(2)))


@dataclass
class _Component:
    s: int
    t: int
    children: list["_Component"]  # empty for a leaf, the unit path s..t

    @property
    def anchors(self) -> tuple[int, int]:
        return (self.s, self.t)

    def other(self, anchor: int) -> int:
        return self.t if anchor == self.s else self.s


def _build_component(level: int, k: int, alpha: Fraction, next_id: int,
                     edges: list[Edge],
                     pair_of: dict[int, tuple[int, int]]) -> _Component:
    """The level-`level` component on ids from `next_id` up, its edges
    appended to `edges` and its anchor pair recorded for both anchors."""
    if level == 0:
        comp = _Component(next_id, next_id + k, [])
        edges.extend(Edge(a, a + 1, Fraction(1), Fraction(1))
                     for a in range(comp.s, comp.t))
    else:
        last, children = next_id, []  # the last id taken
        for _ in range(k):
            children.append(_build_component(level - 1, k, alpha, last + 1,
                                             edges, pair_of))
            last = children[-1].t
        comp = _Component(next_id, last + 1, children)
        pairs = [(comp.s, b) for b in children[0].anchors]
        for left, right in zip(children, children[1:]):
            pairs += [(a, b) for a in left.anchors for b in right.anchors]
        pairs += [(a, comp.t) for a in children[-1].anchors]
        lo = Fraction(k) ** level
        edges.extend(Edge(a, b, lo, alpha * lo) for a, b in pairs)
    pair_of[comp.s] = pair_of[comp.t] = comp.anchors
    return comp


class RecursiveAdversary:
    """Symmetric reactive weight source for the recursive family, an
    endpoint adversary: every weight it reveals or completes is an end of
    its edge's announced interval.

    Within each component, the first distinguished vertex the agent reaches
    is committed as the start side; level edges triggered from a start side
    reveal their lower end (k^level), from an end side their upper end
    (alpha * k^level).  The unit paths' point intervals [1, 1] give 1.
    """

    def __init__(self, edges: Sequence[Edge],
                 pair_of: dict[int, tuple[int, int]]):
        self._edges = edges
        self._pair_of = pair_of

    def _start_side(self, pair: tuple[int, int],
                    visit_seq: Sequence[int]) -> tuple[int, int | None]:
        """(start-side vertex, index of commitment) for a distinguished pair;
        untouched pairs default to the smaller vertex id."""
        for i, v in enumerate(visit_seq):
            if v in pair:
                return v, i
        return min(pair), None

    def _end(self, e: Edge, governor: int,
             visit_seq: Sequence[int]) -> Fraction:
        start, _ = self._start_side(self._pair_of[governor], visit_seq)
        return e.lower if governor == start else e.upper

    def reveal(self, eid: int, visit_seq: Sequence[int]) -> Fraction:
        e = self._edges[eid]
        if e.lower == e.upper:
            return e.lower
        trigger = visit_seq[-1]
        assert trigger in (e.a, e.b)
        return self._end(e, trigger, visit_seq)

    def complete(self, eid: int, visit_seq: Sequence[int]) -> Fraction:
        e = self._edges[eid]
        if e.lower == e.upper:
            return e.lower
        # mimic the reveal trigger: the endpoint whose pair committed first
        _, ia = self._start_side(self._pair_of[e.a], visit_seq)
        _, ib = self._start_side(self._pair_of[e.b], visit_seq)
        if ia is None and ib is None:
            governor = min(e.a, e.b)
        elif ib is None or (ia is not None and ia < ib):
            governor = e.a
        else:
            governor = e.b
        return self._end(e, governor, visit_seq)


def recursive_online_lower_bound(spec: RecursiveSpec) -> Fraction:
    k, i, a = spec.k, spec.depth, spec.alpha
    return i * (a * k + 1) * Fraction(k) ** i + Fraction(k) ** (i + 1)


def recursive_certificate_cost(spec: RecursiveSpec) -> Fraction:
    k, i = spec.k, spec.depth
    return Fraction(i * (k + 1) * k ** i + k ** (i + 1))


@dataclass
class RecursiveBundle:
    graph: EstimateGraph
    source: RecursiveAdversary
    root: _Component = field(repr=False)

    def certificate(self, assignment: WeightAssignment) -> Walk:
        """Offline walk of the proof's shape, priced on realized weights.

        Traverses the component row sequentially; the entry anchor of each
        child is chosen by a two-state chain DP so the cheapest realized
        connector edges are used.
        """
        memo: dict[tuple[int, int], tuple[list[int], Fraction]] = {}

        def weight(a: int, b: int) -> Fraction:
            eid = self.graph.edge_between(a, b)
            assert eid is not None
            return assignment.weight(eid)

        def traverse(comp: _Component, entry: int) -> tuple[list[int], Fraction]:
            key = (id(comp), entry)
            if key in memo:
                return memo[key]
            if not comp.children:
                span = range(comp.s, comp.t + 1)  # a unit path's vertices
                path = list(span if entry == comp.s else reversed(span))
                out = (path, Fraction(len(path) - 1))
            else:
                seq = comp.children if entry == comp.s else comp.children[::-1]
                # states: (cost, path) keyed by current exit vertex
                states: dict[int, tuple[Fraction, list[int]]] = {
                    entry: (Fraction(0), [entry])}
                for child in seq:
                    nxt: dict[int, tuple[Fraction, list[int]]] = {}
                    for cur, (cost, path) in sorted(states.items()):
                        for enter in sorted(child.anchors):
                            sub_path, sub_cost = traverse(child, enter)
                            total = cost + weight(cur, enter) + sub_cost
                            exit_v = child.other(enter)
                            if exit_v not in nxt or total < nxt[exit_v][0]:
                                nxt[exit_v] = (total, path + sub_path)
                    states = nxt
                goal = comp.other(entry)
                best = None
                for cur, (cost, path) in sorted(states.items()):
                    total = cost + weight(cur, goal)
                    if best is None or total < best[0]:
                        best = (total, path + [goal])
                assert best is not None
                out = (best[1], best[0])
            memo[key] = (out[0], out[1])
            return memo[key]

        vertices, _ = traverse(self.root, self.root.s)
        return walk_of_vertices(self.graph, vertices, assignment.weights)


def build_recursive(spec: RecursiveSpec) -> RecursiveBundle:
    spec = spec.validated()
    edges: list[Edge] = []
    pair_of: dict[int, tuple[int, int]] = {}
    root = _build_component(spec.depth, spec.k, spec.alpha, 0, edges, pair_of)
    graph = EstimateGraph(root.t + 1, edges, root.s, root.t)
    problems = validate(graph)
    assert not problems, problems
    return RecursiveBundle(graph=graph,
                           source=RecursiveAdversary(graph.edges, pair_of),
                           root=root)


def recursive_vertex_count(k: int, depth: int) -> int:
    n = k + 1
    for _ in range(depth):
        n = 2 + k * n
    return n


# ---------------------------------------------------------------------------
# half-split adaptive adversary (complete and complete bipartite graphs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompleteAdvSpec:
    """Half size k (the graph is K_{2k}, or K_{k,k} where k is the
    bipartite family's n) and spread alpha, in that family's ranges.

    For alpha > 2 the construction cannot beat 3/2, so alpha is clamped to 2.
    """

    k: int
    alpha: Fraction

    def validated(self, family: str = "complete") -> "CompleteAdvSpec":
        size = FAMILIES[family].params[0]  # a refusal names k, or n
        p = _checked(family, **{size: self.k, "alpha": self.alpha})
        return CompleteAdvSpec(p[size], min(p["alpha"], Fraction(2)))


class HalvesAdversary:
    """First `threshold` distinct visited vertices form the cheap set A;
    edges with an endpoint in A reveal weight 1, all others alpha.

    An arrival asks about every edge at its vertex with one visit
    sequence, so the cheap set is kept with the sequence it came from and
    reused only for an equal one: a weight depends on `(eid, visit_seq)`
    alone."""

    def __init__(self, threshold: int, alpha: Fraction,
                 edges: Sequence[Edge]):
        self._threshold = threshold
        self._alpha = alpha
        self._edges = edges
        # (visit sequence, its cheap set), replaced as one value
        self._last: tuple[tuple[int, ...], frozenset[int]] = ((), frozenset())

    def _cheap_set(self, visit_seq: Sequence[int]) -> frozenset[int]:
        seq = tuple(visit_seq)
        last_seq, cheap = self._last
        if seq == last_seq:
            return cheap
        seen: list[int] = []
        for v in seq:
            if v not in seen:
                seen.append(v)
                if len(seen) == self._threshold:
                    break
        cheap = frozenset(seen)
        self._last = seq, cheap
        return cheap

    def _weight(self, eid: int, visit_seq: Sequence[int]) -> Fraction:
        a_set = self._cheap_set(visit_seq)
        e = self._edges[eid]
        if e.a in a_set or e.b in a_set:
            return Fraction(1)
        return self._alpha

    reveal = _weight
    complete = _weight


def complete_graph(n: int, alpha: Fraction, start: int = 0,
                   end: int | None = None) -> EstimateGraph:
    """K_n with uniform announced intervals [1, alpha]."""
    if n < 2:
        raise InvalidSpec("complete graph needs n >= 2")
    alpha = _as_fraction(alpha)
    end = n - 1 if end is None else end
    edges = [Edge(a, b, Fraction(1), alpha)
             for a in range(n) for b in range(a + 1, n)]
    return EstimateGraph(n, edges, start, end)


def complete_bipartite_graph(n_left: int, n_right: int, alpha: Fraction,
                             start: int, end: int) -> EstimateGraph:
    """K_{n_left,n_right}: left side 0..n_left-1, right side the rest."""
    alpha = _as_fraction(alpha)
    n = n_left + n_right
    edges = [Edge(a, b, Fraction(1), alpha)
             for a in range(n_left) for b in range(n_left, n)]
    return EstimateGraph(n, edges, start, end)


def build_complete_adversary(spec: CompleteAdvSpec) -> Instance:
    spec = spec.validated()
    graph = complete_graph(2 * spec.k, spec.alpha)
    return Instance(graph, HalvesAdversary(spec.k, spec.alpha, graph.edges),
                    None)


def build_bipartite_adversary(spec: CompleteAdvSpec) -> Instance:
    """K_{n,n} with start and end on different sides, analogous phase rule."""
    spec = spec.validated("bipartite")
    n = spec.k
    graph = complete_bipartite_graph(n, n, spec.alpha, start=0, end=2 * n - 1)
    return Instance(graph, HalvesAdversary(n, spec.alpha, graph.edges), None)


# ---------------------------------------------------------------------------
# grid trap (fixed assignment)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Side length m and spread alpha, in the ranges of `FAMILIES["grid"]`."""

    m: int
    alpha: Fraction

    def validated(self) -> "GridSpec":
        p = _checked("grid", m=self.m, alpha=self.alpha)
        return GridSpec(p["m"], p["alpha"])


@dataclass
class GridBundle:
    graph: EstimateGraph
    assignment: WeightAssignment
    certificate: Walk
    spec: GridSpec
    expected_online: Fraction          # (m*m - 1) * alpha
    certificate_bound: Fraction        # 6*m*alpha + (m-2)*m
    skip_reason: str | None            # None when the self-check simulated


def _grid_id(m: int, row: int, col: int) -> int:
    pos = row if col % 2 == 0 else m - 1 - row
    return col * m + pos


def build_grid_trap(spec: GridSpec, *,
                    verify_adaptive: bool = True) -> GridBundle:
    """m*m grid, uniform announcements [1, alpha], fixed actual weights.

    Vertex ids follow a column serpentine from the start corner, so the
    intended expensive Hamiltonian path is 0,1,...,n-1 and every cost tie
    resolves toward it.  Actual weights: all vertical edges and the
    serpentine's connector edges cost alpha; the only weight-1 edges are
    the interior horizontal edges of the odd rows, which the cheaper
    alternative walk uses.  The construction is a reconstruction and is
    gated by build-time self-checks: the certificate walk must be valid and
    within its cost bound (always checked), and the replanning explorer must
    pay exactly (m*m - 1) * alpha (checked by simulation when the instance
    fits the exact-solver cap; otherwise flagged unverified).
    """
    spec = spec.validated()
    m, alpha = spec.m, spec.alpha
    n = m * m
    edges: list[Edge] = []
    weights: list[Fraction] = []
    for col in range(m):
        for row in range(m):
            a = _grid_id(m, row, col)
            if row + 1 < m:
                edges.append(_ordered_edge(a, _grid_id(m, row + 1, col), alpha))
                weights.append(alpha)
            if col + 1 < m:
                b = _grid_id(m, row, col + 1)
                connector = (row == m - 1) if col % 2 == 0 else (row == 0)
                cheap = (row % 2 == 1 and 1 <= row <= m - 2
                         and 1 <= col <= m - 3)
                w = Fraction(1) if cheap and not connector else alpha
                edges.append(_ordered_edge(a, b, alpha))
                weights.append(w)
    graph = EstimateGraph(n, edges, 0, n - 1)
    problems = validate(graph)
    assert not problems, problems
    assignment = WeightAssignment(dict(enumerate(weights)))

    certificate = _grid_certificate(graph, assignment, m)
    expected_online = (n - 1) * alpha
    bound = 6 * m * alpha + (m - 2) * m
    if certificate.cost > bound:
        raise GridTrapError(
            f"trap not effective for m={m}, alpha={alpha}: certificate "
            f"cost {certificate.cost} exceeds bound {bound}")
    if not certificate.covers(graph):
        raise GridTrapError("certificate walk is not a covering s-t walk")

    reason = None
    if not verify_adaptive:
        reason = "adaptive verification disabled"
    elif n > DEFAULT_EXACT_CAP:
        reason = (f"adaptive simulation needs exact covering-walk solves "
                  f"over up to {n} vertices, beyond the exact-solver cap "
                  f"{DEFAULT_EXACT_CAP}")
    else:
        report = run_episode(graph, FixedAssignment(assignment),
                             AdaptiveExplorer(cap=DEFAULT_EXACT_CAP),
                             oracle_cap=DEFAULT_EXACT_CAP)
        if report.online_cost != expected_online:
            raise GridTrapError(
                f"trap not effective for m={m}, alpha={alpha}: "
                f"replanning explorer paid {report.online_cost}, "
                f"expected {expected_online}")
    return GridBundle(graph=graph, assignment=assignment,
                      certificate=certificate, spec=spec,
                      expected_online=expected_online,
                      certificate_bound=bound, skip_reason=reason)


def _ordered_edge(a: int, b: int, alpha: Fraction) -> Edge:
    if a > b:
        a, b = b, a
    return Edge(a, b, Fraction(1), alpha)


def _grid_certificate(graph: EstimateGraph, assignment: WeightAssignment,
                      m: int) -> Walk:
    """Row serpentine through the weight-1 interior rows.  For even m it
    ends at (m-1, 0), not at the end corner (0, m-1), and a cheapest tail
    follows: up column 0 to row 1, along row 1 (weight 1 but its first and
    last edges), up to row 0, for (m+1)*alpha + m - 3."""
    vertices: list[int] = []
    for row in range(m):
        cols = range(m) if row % 2 == 0 else range(m - 1, -1, -1)
        vertices.extend(_grid_id(m, row, c) for c in cols)
    if m % 2 == 0:
        vertices.extend(_grid_id(m, row, 0) for row in range(m - 2, 0, -1))
        vertices.extend(_grid_id(m, 1, c) for c in range(1, m))
        vertices.append(_grid_id(m, 0, m - 1))
    return walk_of_vertices(graph, vertices, assignment.weights)


# ---------------------------------------------------------------------------
# family parameters and random instances
# ---------------------------------------------------------------------------

def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Accept "p/q", integer, or exact decimal strings like "1.5", or a
    Fraction; floats are refused as inexact, booleans as not numbers, and
    exponent notation such as "1e3" and strings of more digits than an
    `int` parses by default, since `Fraction` raises ten to the exponent
    or to a decimal's digit count with no size limit."""
    if isinstance(text, str):
        if "e" in text.lower():
            raise ValueError(f"exponent notation is not accepted: {text!r}")
        limit = sys.int_info.default_max_str_digits
        if len(text) > limit:  # no shorter string holds more digits
            digits = 0
            for run in re.finditer(rf"\d{{1,{limit + 1}}}", text):
                digits += len(run[0])
                if digits > limit:
                    raise ValueError(f"{text[:20]!r}... has more digits "
                                     f"than the {limit} an int parses")
    if (isinstance(text, (int, str, Fraction))
            and not isinstance(text, bool)):
        return Fraction(text)
    raise ValueError(f"cannot parse exact rational from {text!r}")


def _parse_density(value: float | int | str) -> float:
    """A finite number in [0, 1]; booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (float, int, str)):
        raise ValueError(f"expected a number, got {value!r}")
    density = float(value)
    if not 0 <= density <= 1:  # NaN fails this too
        raise ValueError(f"{value!r} is not a number in [0, 1]")
    return density


def _parse_law(value: str) -> str:
    if value not in ("uniform", "mixed"):
        raise ValueError(f"expected 'uniform' or 'mixed', got {value!r}")
    return value


# every family parameter as (parser of a JSON or command-line value,
# default or None when required), in the order of the report columns; the
# sizes' least values are here, alpha's range in each `Family.alphas`
PARAMETERS: dict[str, tuple[Callable, object]] = {
    "k": (partial(parse_int, minimum=2), None),
    "depth": (partial(parse_int, minimum=0), None),
    "alpha": (parse_fraction, Fraction(2)),
    "m": (partial(parse_int, minimum=4), None),
    "n": (partial(parse_int, minimum=2), None),
    "density": (_parse_density, 0.5), "law": (_parse_law, "mixed")}


def random_instance(n: int, *, density: float = PARAMETERS["density"][1],
                    law: str = PARAMETERS["law"][1],
                    alpha: Fraction = PARAMETERS["alpha"][1],
                    seed: int = 0) -> tuple[EstimateGraph, WeightAssignment]:
    """Seeded connected random instance with valid intervals and actuals.

    law "uniform": every interval is exactly [1, alpha].
    law "mixed": per-edge lower bounds and spreads vary, capped at alpha.
    Denominators stay small so downstream integer scaling stays cheap.
    """
    p = _checked("random", n=n, alpha=alpha, density=density, law=law)
    n, alpha, density, law = p["n"], p["alpha"], p["density"], p["law"]
    rng = random.Random(seed)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [(a, b) for a in range(n) for b in range(a + 1, n)
            if (a, b) not in pairs]  # in sorted order
    extra = round(density * len(rest))
    pairs |= set(rng.sample(rest, extra)) if extra else set()
    # each value is one Fraction over a common denominator, for alpha = p/q:
    # lo = x/4, hi = lo (1 + (alpha - 1) y/4) = x (4q + (p - q) y) / 16q and
    # w = lo + (hi - lo) c/4 = (4q x (4 - c) + hi_num c) / 64q
    p, q = alpha.numerator, alpha.denominator
    one = Fraction(1)
    edges: list[Edge] = []
    weights: dict[int, Fraction] = {}
    for eid, (a, b) in enumerate(sorted(pairs)):
        if law == "uniform":
            lo, hi = one, alpha
            c = rng.randint(0, 4)
            w = Fraction(4 * q + (p - q) * c, 4 * q)
        else:
            x = rng.randint(2, 16)
            hi_num = x * (4 * q + (p - q) * rng.randint(0, 4))
            lo, hi = Fraction(x, 4), Fraction(hi_num, 16 * q)
            c = rng.randint(0, 4)
            w = Fraction(4 * q * x * (4 - c) + hi_num * c, 64 * q)
        edges.append(Edge(a, b, lo, hi))
        weights[eid] = w
    s = rng.randrange(n)
    t = rng.choice([v for v in range(n) if v != s])
    graph = EstimateGraph(n, edges, s, t)
    problems = validate(graph)
    assert not problems, problems
    assignment = WeightAssignment(weights)
    profile = alpha_of(graph)
    assert profile.alpha <= alpha
    return graph, assignment


def random_uniform_assignment(graph: EstimateGraph,
                              seed: int) -> WeightAssignment:
    """Random actual weights inside each announced interval."""
    rng = random.Random(seed)
    weights = {}
    for eid, e in enumerate(graph.edges):
        weights[eid] = e.lower + (e.upper - e.lower) * Fraction(
            rng.randint(0, 8), 8)
    return WeightAssignment(weights)


# ---------------------------------------------------------------------------
# family table: the one description of each family
# ---------------------------------------------------------------------------

# Theorem bounds as (bound, kind) for an instance of spread alpha: kind
# "ratio_max" means ratio <= bound, "online_min" online cost >= bound.

def _ratio_bound(explorer: str, alpha: Fraction, params: dict):
    # precompute and adaptive are alpha-competitive; nn has no bound
    return (alpha if explorer in ("precompute", "adaptive") else None,
            "ratio_max")


def _half_split_bound(explorer: str, alpha: Fraction, params: dict):
    # replanning is (1+alpha)/2-competitive on uniform announcements
    if explorer == "adaptive":
        return (alpha + 1) / 2, "ratio_max"
    return _ratio_bound(explorer, alpha, params)


def _recursive_bound(explorer: str, alpha: Fraction, params: dict):
    # the construction forces this online cost on every explorer
    spec = RecursiveSpec(params["k"], params["depth"], alpha)
    return recursive_online_lower_bound(spec), "online_min"


# The builders name the public ones at call time, so wrapping a module
# attribute (as a profiler does) also covers calls through the table.

def _recursive(p: dict, seed: int, verify_adaptive: bool = False) -> Instance:
    bundle = build_recursive(RecursiveSpec(p["k"], p["depth"], p["alpha"]))
    return Instance(bundle.graph, bundle.source, bundle.certificate)


def _complete(p: dict, seed: int, verify_adaptive: bool = False) -> Instance:
    return build_complete_adversary(CompleteAdvSpec(p["k"], p["alpha"]))


def _bipartite(p: dict, seed: int, verify_adaptive: bool = False) -> Instance:
    return build_bipartite_adversary(CompleteAdvSpec(p["n"], p["alpha"]))


def _grid(p: dict, seed: int, verify_adaptive: bool = False) -> Instance:
    bundle = build_grid_trap(GridSpec(p["m"], p["alpha"]),
                             verify_adaptive=verify_adaptive)
    if verify_adaptive and bundle.skip_reason is not None:
        warnings.warn(f"adaptive self-check skipped: {bundle.skip_reason}")
    return Instance(bundle.graph, FixedAssignment(bundle.assignment),
                    lambda assignment: bundle.certificate)


def _random(p: dict, seed: int, verify_adaptive: bool = False) -> Instance:
    graph, assignment = random_instance(p["n"], density=p["density"],
                                        law=p["law"], alpha=p["alpha"],
                                        seed=seed)
    return Instance(graph, FixedAssignment(assignment), None)


# Vertex counts `build` makes from typed parameters, for the limit check.

def _recursive_vertices(p: dict) -> int:
    # for k >= 2 the count starts at 3 and more than doubles each level, so
    # past depth d = MAX_VERTICES.bit_length() it exceeds 2^d > MAX_VERTICES:
    # the comparison stays exact and a huge depth never loops
    return recursive_vertex_count(p["k"],
                                  min(p["depth"], MAX_VERTICES.bit_length()))


@dataclass(frozen=True)
class Family:
    """One family: its parameter names, typed by `parse`; whether it is
    `adaptive` (its weights react to the explorer, so `generate` writes a
    config stub naming it instead of an instance file); `build(params,
    seed)`, where `verify_adaptive=True` adds the grid trap's replanning
    self-check; `vertices(params)`, the vertex count it builds; `alphas`,
    its alpha range as (low, whether low is in it, high or None; high never
    is); and `bound(explorer, alpha, params)`.  Every entry point and
    builder reads parameters through `parse`."""

    params: tuple[str, ...]
    adaptive: bool
    build: Callable[..., Instance]
    vertices: Callable[[dict], int]
    alphas: tuple[int, bool, int | None]
    bound: Callable[[str, Fraction, dict], tuple] = _ratio_bound

    def parse(self, raw: Mapping) -> dict:
        """Typed parameters from JSON or command-line values; ValueError
        names one the family does not take, a missing or malformed one, an
        alpha outside `alphas` (a missing alpha whose default is outside
        them is a missing one), or the integer parameters whose instance
        would exceed `MAX_VERTICES` (checked before building)."""
        _refuse_unknown(raw, self.params, noun="parameter")
        parsed = {name: _read_field(raw, name, *PARAMETERS[name],
                                    noun="parameter")
                  for name in self.params}
        low, closed, high = self.alphas
        alpha = parsed["alpha"]  # every family takes alpha
        if not (low <= alpha if closed else low < alpha) or (
                high is not None and alpha >= high):
            rule = (f"{low} {'<=' if closed else '<'} alpha"
                    f"{'' if high is None else f' < {high}'}")
            if "alpha" not in raw:
                raise ValueError(
                    f"missing parameter 'alpha': this family needs one, "
                    f"since the default {alpha} is outside {rule}")
            raise ValueError(
                f"bad parameter 'alpha': expected {rule}, got {alpha}")
        if self.vertices(parsed) > MAX_VERTICES:
            sizes = [p for p in self.params if type(parsed[p]) is int]
            raise ValueError(
                f"parameter{'s' * (len(sizes) > 1)} "
                f"{', '.join(map(repr, sizes))}: "
                f"{', '.join(str(parsed[p]) for p in sizes)} would build "
                f"more than {MAX_VERTICES} vertices")
        return parsed


# the lower-bound constructions need a gap; the grid trap's detour argument
# needs alpha < 2, and alpha = 1 is its all-ones sanity case
_ABOVE_ONE = (1, False, None)

FAMILIES: dict[str, Family] = {
    "recursive": Family(("k", "depth", "alpha"), True, _recursive,
                        _recursive_vertices, _ABOVE_ONE, _recursive_bound),
    "complete": Family(("k", "alpha"), True, _complete,
                       lambda p: 2 * p["k"], _ABOVE_ONE, _half_split_bound),
    "bipartite": Family(("n", "alpha"), True, _bipartite,
                        lambda p: 2 * p["n"], _ABOVE_ONE, _half_split_bound),
    "grid": Family(("m", "alpha"), False, _grid,
                   lambda p: p["m"] ** 2, (1, True, 2)),
    "random": Family(("n", "alpha", "density", "law"), False, _random,
                     lambda p: p["n"], (1, True, None)),
}


def _checked(family: str, **params) -> dict:
    """`FAMILIES[family].parse(params)`, refusing with InvalidSpec."""
    try:
        return FAMILIES[family].parse(params)
    except ValueError as exc:
        raise InvalidSpec(str(exc)) from exc
