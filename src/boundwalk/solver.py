"""Exact offline covering-walk solver (fixed-endpoint TSP path over the
metric closure) plus a brute-force validator.

The subset DP stores, for every subset S of interior closure vertices and
every v in S, the cheapest cost of a path that starts at the destination,
visits exactly S and ends at v.  Because the closure is symmetric this table
gives the cost-to-go from any vertex through any remaining set, which lets
the visit order be reconstructed front to back, greedily picking the
smallest vertex id among cost-optimal choices.  The returned walk is
therefore the lexicographically smallest optimal visit order, expanded back
to original edges.

Every solve runs one integer core, `_integer_walk`: the closure
`Distances.among` the required vertices (integers over one common
denominator), the order search on that matrix, and each leg of the order
expanded by `Distances.path`.  Two epilogues follow it.  The oracles
(`optimal_cover_walk`, `brute_force_cover`, `worst_case_cover_walk`)
price the walk as a Fraction `Walk` and check it against the cost
Fraction(total, denom).  `worst_case_plan`, the adaptive explorer's,
stays in integers: it checks the walk's scaled step weights against the
DP total and returns both.  The oracles build a fresh `Distances` of the
task's weights; `worst_case_plan` takes its caller's (the replanning
explorers keep one per episode).  `parse_cap` refuses a cap outside
1..MAX_EXACT_CAP before any work, so no table exceeds 20 * 2**20 cells.
A numpy kernel handles interiors of 5 or more vertices, a plain-Python
kernel smaller ones and arbitrarily large integers; both implement the
same recurrence and hand the reconstruction the same `column(mask) ->
per-vertex costs` accessor.

`worst_case_plan` reads its table through a `SuffixTable`, which keeps
the last one built.  A table depends only on the closure among its
interior and destination, so after a move it still serves the remaining
vertices, under its old bit numbering, until a reveal changes a distance
among them: an episode builds a table only when that happens.

The numpy table is layered by popcount: layer p is an (m, C(m, p)) array
whose columns are the p-element masks in increasing order, so each layer
is computed from the one below it alone.  Its dtype is the narrowest the
closure allows: int16 when max entry * (r + 1) < 2**14, int32 below
2**30, int64 below 2**48; beyond that the Python kernel takes over.
Unset cells hold half the dtype's maximum, above every table value, and
an unset cell plus any entry does not overflow.
Each layer is one min-plus step: y[i, S] = min over every row j of
prev[j, S] + D[j, i], one broadcast add and one min over the rows, for
every column S below.  The masks holding i take y[i] at the columns
lacking i, in order (dropping bit i keeps mask order); the other sums
stay inside the dtype by the unset rule and are dropped.  A broadcast
holds at most 2**17 cells, splitting a layer by target rows, then a row
by columns; no index plan is built.  Up to interior 12 the masks, ranks
(rank[mask]: a mask's column in its layer) and per-layer bit masks are
cached, 0.23 MiB in all; larger interiors build bit masks layer by layer.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, Mapping, Sequence,
                    TYPE_CHECKING)

import numpy as np

from .graph import Distances, EstimateGraph, Walk, parse_int, walk_of_vertices

if TYPE_CHECKING:  # pragma: no cover
    from .engine import KnowledgeView

DEFAULT_EXACT_CAP = 20
BRUTE_FORCE_CAP = 10
# the largest cap a solve accepts: its table has at most 20 * 2**20 cells,
# 42 MB in int16, 84 MB in int32 and 168 MB in int64
MAX_EXACT_CAP = 22

# numpy pays off once the mask space is non-trivial
_NUMPY_MIN_INTERIOR = 5
# interiors up to this size keep their kernel masks cached
_PLAN_CACHE_MAX = 12
# cells of one min-plus broadcast, unless a single row of m cells is more:
# a layer's target rows are split first, then its columns
_BLOCK_CELLS = 1 << 17
# max entry * (r + 1) below these bounds every table value, and an unset
# cell (half the dtype's max) plus any entry stays clear of overflow
_INT16_LIMIT = 1 << 14
_INT32_LIMIT = 1 << 30
_INT64_LIMIT = 1 << 48
_INF = 1 << 62


class SolverCapExceeded(Exception):
    """Instance too large for the exact oracle."""


@dataclass(frozen=True)
class CoverTask:
    """Find a cheapest origin->destination walk whose vertex set covers
    must_visit, under a total positive weight assignment."""

    weights: Mapping[int, Fraction]
    origin: int
    destination: int
    must_visit: frozenset[int]

    def required_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.must_visit | {self.origin, self.destination}))


def _suffix_table_py(D: list[list[int]], dest_i: int,
                     interior: list[int]) -> Callable[[int], list[int]]:
    m = len(interior)
    size = 1 << m
    g = [[_INF] * m for _ in range(size)]
    for j in range(m):
        g[1 << j][j] = D[dest_i][interior[j]]
    for mask in range(1, size):
        row = g[mask]
        bits = [j for j in range(m) if mask >> j & 1]
        if len(bits) < 2:
            continue
        for i in bits:
            prev = g[mask ^ (1 << i)]
            di = interior[i]
            # Python ints are unbounded and may exceed _INF
            best = inf
            for j in bits:
                if j == i:
                    continue
                c = prev[j] + D[interior[j]][di]
                if c < best:
                    best = c
            row[i] = best
    return g.__getitem__


def _popcount_layers(m: int) -> list[np.ndarray]:
    """The masks over m bits grouped by popcount, each group increasing;
    int32, since an interior has at most MAX_EXACT_CAP - 2 bits."""
    layers = [np.zeros(1, dtype=np.int32)]
    empty = np.zeros(0, dtype=np.int32)
    for b in range(m):
        # every mask holding bit b exceeds every mask over the lower bits
        high = [layer | (1 << b) for layer in layers]
        layers = [np.concatenate(pair)
                  for pair in zip(layers + [empty], [empty] + high)]
    return layers


def _ranks(masks: list[np.ndarray]) -> np.ndarray:
    """rank[mask]: the column of `mask` within its popcount layer."""
    rank = np.empty(1 << (len(masks) - 1), dtype=np.int32)
    for layer in masks:
        rank[layer] = np.arange(layer.size, dtype=np.int32)
    return rank


def _layer_bits(masks: list[np.ndarray]) -> Iterator[tuple]:
    """Per layer p >= 2, (has, lack): has[i] marks the layer-p masks
    holding bit i, lack[i] the layer-(p-1) masks lacking it.  Dropping
    bit i keeps mask order, so the k-th mask lacking i, plus i, is the
    k-th holding it.  Built one layer at a time, as needed."""
    m = len(masks) - 1
    bit_weights = (1 << np.arange(m, dtype=np.int32))[:, None]
    prev_has = np.eye(m, dtype=bool)
    for p in range(2, m + 1):
        has = (masks[p] & bit_weights) != 0
        yield has, ~prev_has
        prev_has = has


@lru_cache(maxsize=None)
def _cached_plan(m: int) -> tuple[list[np.ndarray], np.ndarray, list[tuple]]:
    """`_plan` held in full."""
    masks = _popcount_layers(m)
    rank = _ranks(masks)
    steps = list(_layer_bits(masks))
    # every solve of this size shares these arrays
    for array in masks + [rank] + [a for step in steps for a in step]:
        array.flags.writeable = False
    return masks, rank, steps


def _plan(m: int) -> tuple[list[np.ndarray], np.ndarray, Iterable[tuple]]:
    """Masks by popcount, their `_ranks` and the per-layer masks of
    `_layer_bits`, cached for interiors up to _PLAN_CACHE_MAX."""
    if m > _PLAN_CACHE_MAX:
        masks = _popcount_layers(m)
        return masks, _ranks(masks), _layer_bits(masks)
    return _cached_plan(m)


def _min_plus(prev: np.ndarray, DU: np.ndarray) -> np.ndarray:
    """y[k, S] = min over every row j of prev[j, S] + DU[j, k], one
    broadcast per span of columns that keeps it within _BLOCK_CELLS.  A
    row j outside S is unset and adds nothing; a column S holding the
    target is left for the caller to drop."""
    m, width = prev.shape
    cols = max(1, _BLOCK_CELLS // (m * DU.shape[1]))
    y = np.empty((DU.shape[1], width), dtype=prev.dtype)
    for c in range(0, width, cols):
        span = slice(c, c + cols)
        (prev[:, None, span] + DU[:, :, None]).min(axis=0, out=y[:, span])
    return y


def _suffix_table_np(D: list[list[int]], dest_i: int, interior: list[int],
                     dtype: type) -> Callable[[int], list[int]]:
    m = len(interior)
    unset = int(np.iinfo(dtype).max) // 2
    DU = np.array([[D[a][b] for b in interior] for a in interior],
                  dtype=dtype)
    masks, rank, steps = _plan(m)
    prev = np.full((m, m), unset, dtype=dtype)
    np.fill_diagonal(prev, [D[dest_i][v] for v in interior])
    table = [None, prev]
    for p, (has, lack) in enumerate(steps, start=2):
        # the masks holding bit i take y[i] at the columns lacking it
        cur = np.full((m, masks[p].size), unset, dtype=dtype)
        rows = max(1, _BLOCK_CELLS // prev.size)
        if rows >= m:  # one broadcast for the layer, no spans to track
            cur[has] = (prev[:, None] + DU[:, :, None]).min(axis=0)[lack]
        else:
            for lo in range(0, m, rows):
                block = slice(lo, lo + rows)
                y = _min_plus(prev, DU[:, block])
                cur[block][has[block]] = y[lack[block]]
        table.append(cur)
        prev = cur

    def column(mask: int) -> list[int]:
        costs = table[mask.bit_count()][:, rank[mask]].tolist()
        return [_INF if v == unset else v for v in costs]

    return column


def _suffix_table(D: list[list[int]], dest_i: int, interior: list[int]
                  ) -> tuple[Callable[[int], list[int]], bool]:
    """The suffix table of `interior` toward dest_i, and whether numpy
    built it: from an interior of _NUMPY_MIN_INTERIOR, when the closure
    fits a dtype.  The dtype is the narrowest whose limit exceeds max
    entry * (r + 1)."""
    reach = max(max(row) for row in D) * (len(D) + 1)
    if len(interior) >= _NUMPY_MIN_INTERIOR and reach < _INT64_LIMIT:
        dtype = (np.int16 if reach < _INT16_LIMIT
                 else np.int32 if reach < _INT32_LIMIT else np.int64)
        return _suffix_table_np(D, dest_i, interior, dtype), True
    return _suffix_table_py(D, dest_i, interior), False


def _reconstruct(D: list[list[int]], origin_i: int, dest_i: int,
                 interior: list[int], remaining: int,
                 column: Callable[[int], list[int]],
                 from_numpy: bool) -> tuple[int, list[int]]:
    """Cost and lexicographically smallest optimal order from origin_i
    through closure index interior[j] for every bit j of `remaining`, then
    dest_i, read front to back from the table `column` (numpy-built when
    `from_numpy`), whose bits follow interior's increasing order."""
    order = [origin_i]
    pos = origin_i
    total = 0
    while remaining:
        costs = column(remaining)
        best_cost = None
        best_j = -1
        for j in range(len(interior)):
            if not remaining >> j & 1:
                continue
            c = D[pos][interior[j]] + costs[j]
            if best_cost is None or c < best_cost:
                best_cost = c
                best_j = j
        # an unset numpy cell reads as _INF; Python-kernel ints may exceed it
        assert best_cost is not None and (best_cost < _INF or not from_numpy)
        total += D[pos][interior[best_j]]
        pos = interior[best_j]
        order.append(pos)
        remaining &= ~(1 << best_j)
    total += D[pos][dest_i]
    order.append(dest_i)
    return total, order


def _dp_order(D: list[list[int]], origin_i: int, dest_i: int,
              interior: list[int]) -> tuple[int, list[int]]:
    """Minimum cost and lexicographically smallest optimal visit order
    (as closure indices) for a fixed-endpoint path through every index of
    a non-empty `interior`; origin_i == dest_i makes it a closed tour."""
    column, from_numpy = _suffix_table(D, dest_i, interior)
    return _reconstruct(D, origin_i, dest_i, interior,
                        (1 << len(interior)) - 1, column, from_numpy)


class SuffixTable:
    """At most one suffix table, kept from one plan to the next.

    A table's cells depend only on the closure among its interior and its
    destination.  So a later plan toward the same destination, at the same
    denominator, whose interior is a subset of the table's and whose
    closure among that interior and the destination is unchanged, reads
    the table under its old bit numbering.  Those bits still run in
    increasing vertex id, so ties resolve as in a table of its own.  Any
    other plan drops the table before it builds its own.
    """

    def __init__(self) -> None:
        self._key: tuple[int, int] | None = None  # destination, denom
        # vertex -> bit, the destination last; the closure rows among them
        self._bits: dict[int, int] = {}
        self._closure: list[tuple[int, ...]] = []
        self._column: Callable[[int], list[int]] | None = None
        self._numpy = False

    def _fits(self, key: tuple[int, int], D: list[list[int]],
              vertices: list[int], rows: list[int]) -> bool:
        bits = self._bits
        if key != self._key or not all(v in bits for v in vertices):
            return False
        old = itemgetter(*[bits[v] for v in vertices])
        new = itemgetter(*rows)
        return all(old(self._closure[bits[v]]) == new(D[i])
                   for v, i in zip(vertices, rows))

    def order(self, D: list[list[int]], required: Sequence[int], denom: int,
              origin_i: int, dest_i: int,
              interior: list[int]) -> tuple[int, list[int]]:
        """`_dp_order` on the closure D among `required` at `denom`."""
        rows = interior + [dest_i]
        vertices = [required[i] for i in rows]
        key = (required[dest_i], denom)
        if not self._fits(key, D, vertices, rows):
            self._column = None  # never hold two tables
            self._column, self._numpy = _suffix_table(D, dest_i, interior)
            self._key = key
            self._bits = {v: j for j, v in enumerate(vertices)}
            get = itemgetter(*rows)
            self._closure = [get(D[i]) for i in rows]
        slots = [-1] * (len(self._bits) - 1)
        remaining = 0
        for v, i in zip(vertices, interior):
            j = self._bits[v]
            slots[j] = i
            remaining |= 1 << j
        return _reconstruct(D, origin_i, dest_i, slots, remaining,
                            self._column, self._numpy)


def _brute_force_order(D: list[list[int]], origin_i: int, dest_i: int,
                       interior: list[int]) -> tuple[int, list[int]]:
    """Same contract as `_dp_order`, by exhaustive enumeration.

    Permutations are generated in lexicographic order and `min` keeps the
    first of equal costs, so ties resolve to the same lexicographically
    smallest order as the DP.
    """
    def cost(perm: tuple[int, ...]) -> int:
        path = (origin_i, *perm, dest_i)
        return sum(D[a][b] for a, b in zip(path, path[1:]))

    best = min(itertools.permutations(interior), key=cost)
    return cost(best), [origin_i, *best, dest_i]


def parse_cap(value: int | str) -> int:
    """The one rule for a solver cap: an integer, or a decimal integer
    string, from 1 to MAX_EXACT_CAP; ValueError otherwise."""
    cap = parse_int(value)
    if not 1 <= cap <= MAX_EXACT_CAP:
        raise ValueError(f"solver cap {cap} must lie between 1 and the "
                         f"limit of {MAX_EXACT_CAP}")
    return cap


def _required(origin: int, destination: int, must_visit: frozenset[int],
              cap: int, oracle: str) -> tuple[int, ...]:
    """The sorted required vertices of a solve, refused beyond `cap`
    before any work."""
    parse_cap(cap)
    required = tuple(sorted(must_visit | {origin, destination}))
    if len(required) > cap:
        raise SolverCapExceeded(
            f"instance too large for {oracle}: {len(required)} required "
            f"vertices exceed cap {cap}")
    return required


def _integer_walk(distances: Distances, required: tuple[int, ...],
                  origin: int, destination: int,
                  order_search: Callable[..., tuple[int, list[int]]]
                  ) -> tuple[list[int], int]:
    """The integer core of every solve: the vertices of a cheapest walk
    from origin through `required` to destination, each leg of
    `order_search`'s order over the closure expanded by `Distances.path`,
    and `distances.denom` times its cost."""
    D = distances.among(required)
    origin_i = required.index(origin)
    dest_i = required.index(destination)
    interior = [i for i in range(len(required))
                if i != origin_i and i != dest_i]
    if interior:
        total, order_i = order_search(D, origin_i, dest_i, interior)
    elif origin_i == dest_i:
        total, order_i = 0, [origin_i]
    else:
        total, order_i = D[origin_i][dest_i], [origin_i, dest_i]
    vertices = [origin]
    for a, b in zip(order_i, order_i[1:]):
        vertices.extend(distances.path(required[a], required[b])[1:])
    return vertices, total


def _solve(graph: EstimateGraph, task: CoverTask, cap: int, oracle: str,
           order_search: Callable[..., tuple[int, list[int]]]
           ) -> tuple[Walk, Fraction]:
    """`_integer_walk` on a fresh `Distances` of `task.weights`, with the
    Fraction epilogue of the two oracles, which differ only in
    `order_search`."""
    required = _required(task.origin, task.destination, task.must_visit,
                         cap, oracle)
    distances = Distances(graph, task.weights)
    vertices, total = _integer_walk(distances, required, task.origin,
                                    task.destination, order_search)
    walk = walk_of_vertices(graph, vertices, task.weights)
    cost = Fraction(total, distances.denom)
    assert walk.cost == cost
    return walk, cost


def optimal_cover_walk(graph: EstimateGraph, task: CoverTask, *,
                       cap: int = DEFAULT_EXACT_CAP) -> tuple[Walk, Fraction]:
    """Exact minimum-cost covering walk by subset DP on the metric closure."""
    return _solve(graph, task, cap, "exact oracle", _dp_order)


def brute_force_cover(graph: EstimateGraph, task: CoverTask, *,
                      cap: int = BRUTE_FORCE_CAP) -> tuple[Walk, Fraction]:
    """Independent oracle: exhaustive enumeration of closure visit orders,
    sharing only the closure and the walk expansion with the DP."""
    return _solve(graph, task, cap, "brute force", _brute_force_order)


def pessimistic_weights(graph: EstimateGraph,
                        revealed: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Revealed edges keep their actual weight; unrevealed price at u(e)."""
    return {eid: revealed.get(eid, e.upper)
            for eid, e in enumerate(graph.edges)}


def worst_case_cover_walk(graph: EstimateGraph, view: "KnowledgeView",
                          destination: int, *,
                          cap: int = DEFAULT_EXACT_CAP
                          ) -> tuple[Walk, Fraction]:
    """Cheapest walk finishing the exploration under worst-case pricing."""
    weights = pessimistic_weights(graph, view.revealed)
    unvisited = frozenset(range(graph.vertex_count)) - view.visited
    task = CoverTask(weights=weights, origin=view.position,
                     destination=destination, must_visit=unvisited)
    return optimal_cover_walk(graph, task, cap=cap)


def worst_case_plan(view: "KnowledgeView", destination: int,
                    distances: Distances, table: SuffixTable, *,
                    cap: int = DEFAULT_EXACT_CAP) -> tuple[list[int], int]:
    """`worst_case_cover_walk` in integers: the walk's vertices and
    `distances.denom` times its cost.  `distances` must hold the view's
    pessimistic weights; `table` keeps a suffix table between calls."""
    required = _required(view.position, destination, view.unvisited, cap,
                         "exact oracle")

    def search(D, origin_i, dest_i, interior):
        return table.order(D, required, distances.denom, origin_i, dest_i,
                           interior)

    vertices, total = _integer_walk(distances, required, view.position,
                                    destination, search)
    # the integer counterpart of the oracles' `walk.cost == cost`
    assert distances.length(vertices) == total
    return vertices, total
