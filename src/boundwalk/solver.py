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
expanded by `Distances.path`.  Its only DP order search is
`SuffixTable.order`, on a fresh table for `optimal_cover_walk` and a kept
one for `worst_case_plan`; `brute_force_cover` calls `_brute_force_order`
alike.  An empty interior is no special case: the DP reads no cell, the
brute force tries the empty permutation.  Two epilogues follow.  The oracles
(`optimal_cover_walk`, `brute_force_cover`) price the walk as a Fraction
`Walk` and check it against the cost Fraction(total, denom).
`worst_case_plan`, the adaptive explorer's, stays in integers: it checks
the walk's scaled step weights against the DP total and returns both.  A
failed check raises `InvariantViolation`.  The oracles build a fresh
`Distances` of the task's weights; `worst_case_plan` takes its caller's
(the replanning explorers keep one per episode).  `parse_cap` refuses a
cap outside 1..MAX_EXACT_CAP before any work, so no numpy table exceeds
20 * 2**19 cells, and `_suffix_table` refuses a table of more than
_TABLE_BYTES before its build.
One kernel builds every table, at any interior, in the dtype the
closure's width picks (below), and hands the reconstruction a
`column(mask) -> per-vertex costs` accessor.  Reading a table checks it:
the cost it gives at the first step must be the cost of the order it
leads to (the Held-Karp reconstruction invariant), which a stale or
corrupted one breaks.

`worst_case_plan` reads its table through a `SuffixTable`, which keeps
the last one built.  A table depends only on the integer closure among
its interior and destination (a rescale changes every entry), and the
worst-case planners' destination is always the graph's end, so after a
move a table still serves the remaining vertices, under its old bit
numbering, until a reveal changes an integer distance among them: an
episode builds a table only when that happens.

The table is layered by popcount and stores set cells only: layer
p is an (m, C(m - 1, p - 1)) array whose row i holds the cells (S, i) of
the p-element masks S holding i, in increasing order of S, so a table
holds m * 2**(m - 1) cells.  Its dtype is the narrowest the closure
allows: int16 when max entry * (r + 1) < 2**14, int32 below 2**30, int64
below 2**48, and beyond, as `graph.Distances` widens, numpy `object`
arrays of Python integers.  Each layer is one min-plus step over a
dense scratch copy of the layer below, (m, C(m, p - 1)) with the masks in
increasing order as columns, whose cells outside their mask are unset:
max entry * (r + 1) in every dtype, above every table value, so an unset
cell plus any entry stays under the dtype's limit.  y[i, S]
= min over every row j of prev[j, S] + D[j, i], one broadcast add and one
min over the rows, for every column S.  Row i of layer p is y[i] at the
columns lacking i, in order (dropping bit i keeps mask order); the other
sums are dropped.  The scratch copy of a layer is made from its stored
rows and dropped after the next step; the top layer makes none.  A
broadcast holds at most 2**17 cells, splitting a layer by target rows,
then a row by columns; no index plan is built.  The masks of layer p are
made from those of layer p - 1, as byte planes, and a build holds at
most two layers of masks and the temporary that makes the next; which
masks hold or lack bit i is computed one block of rows at a time, where
the gather and the scatter use it.  So besides its table a build holds
one dense scratch layer, those masks and block-sized temporaries.

A read takes a mask's cells at its own bits: cell (S, j) lies in row j,
at the column of S minus bit j once the bits above j move down one
place, i.e. that mask's rank among the masks over m - 1 bits of its
popcount.  Cells are read as stored, and only a mask's own bits are
read.  A read's indices are colex ranks from a Pascal table, computed by
`_cell_reader` alone.  Up to interior 12 the per-layer bit masks are
cached, and each mask's indices are kept in an int16 row table of 2**m *
m as the mask is first read, so a read repeated is one `take`; every
cached size together holds 0.35 MiB.  Past interior 12 nothing is kept,
so after a build the solver holds the table's cells and nothing else of
their order of size.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, Mapping, Sequence,
                    TYPE_CHECKING)

import numpy as np

from .graph import (Distances, EstimateGraph, InvariantViolation, Walk,
                    parse_int, walk_of_vertices)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import KnowledgeView

DEFAULT_EXACT_CAP = 20
BRUTE_FORCE_CAP = 10
# the largest cap a solve accepts: its table has at most 20 * 2**19 cells,
# 20 MiB in int16, 40 MiB in int32 and 80 MiB in int64, and its build
# peaks at 24.6, 48.5 and 96.4 MiB (tracemalloc); in `object`, at 48 bytes
# a cell, it would hold 480 MiB, which _TABLE_BYTES refuses
MAX_EXACT_CAP = 22
# the most bytes a suffix table may hold, refused before its build; under
# the cap only an `object` table at r = 22 exceeds it
_TABLE_BYTES = 256 << 20

# interiors up to this size keep their kernel bits cached and their read
# rows as first read
_PLAN_CACHE_MAX = 12
# cells of one min-plus broadcast, unless a single row of m cells is more:
# a layer's target rows are split first, then its columns
_BLOCK_CELLS = 1 << 17
# max entry * (r + 1), the unset cell, exceeds every table value; below
# one of these it plus any entry stays under twice the bound, in its dtype
_INT16_LIMIT = 1 << 14
_INT32_LIMIT = 1 << 30
_INT64_LIMIT = 1 << 48


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

    @classmethod
    def full_cover(cls, graph: EstimateGraph,
                   weights: Mapping[int, Fraction]) -> CoverTask:
        """The whole exploration: start to end through every vertex."""
        return cls(weights=weights, origin=graph.start,
                   destination=graph.end,
                   must_visit=frozenset(range(graph.vertex_count)))

    def required_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.must_visit | {self.origin, self.destination}))


def _mask_layers(m: int) -> Iterator[np.ndarray]:
    """The masks over m bits grouped by popcount, each group increasing,
    one group at a time, as byte planes: row q of a group holds bits 8q to
    8q + 7 of its masks.  A p-mask is a (p - 1)-mask below its top bit b,
    plus b, and the (p - 1)-masks below 2**b are the first C(b, p - 1) of
    their group."""
    bit = np.arange(m)
    # weight[q, b]: bit b's place in plane q, 0 outside its plane
    weight = np.zeros(((m + 7) // 8, m), dtype=np.uint8)
    weight[bit >> 3, bit] = 1 << (bit & 7)
    layer = np.zeros((len(weight), 1), dtype=np.uint8)
    yield layer
    for p in range(1, m + 1):
        counts = [comb(b, p - 1) for b in range(p - 1, m)]
        layer = np.concatenate([layer[:, :c] for c in counts], axis=1)
        layer |= np.repeat(weight[:, p - 1:], counts, axis=1)
        yield layer


def _cell_reader(m: int) -> Callable[[int], list[int]]:
    """cells(mask)[j]: the flat index of cell (mask, j) in its compact
    layer for every bit j of `mask`, 0 at its other bits: row j of layer
    p, at the rank of mask minus bit j once the bits above j move down
    one place, among the masks over m - 1 bits of its popcount, counted
    in increasing order.  That colex rank, of a mask with bits c_0 < c_1
    < ..., is the sum of C(c_k, k + 1); for bit j = c_t the bits below it
    keep their place and the bits above move down one, c_k - 1 at index
    k - 1."""
    pascal = [[comb(n, k) for k in range(m + 1)] for n in range(m)]
    widths = [comb(m - 1, p - 1) if p else 0 for p in range(m + 1)]

    def cells(mask: int) -> list[int]:
        bits = [j for j in range(m) if mask >> j & 1]
        # above[t]: what the bits above bits[t] add, each moved down one
        above = [0] * len(bits)
        for t in range(len(bits) - 1, 0, -1):
            above[t - 1] = above[t] + pascal[bits[t] - 1][t]
        width = widths[len(bits)]
        row = [0] * m
        below = 0
        for t, j in enumerate(bits):
            row[j] = j * width + below + above[t]
            below += pascal[j][t + 1]
        return row

    return cells


class _Bits:
    """One layer's bit matrix, computed a block of rows at a time:
    bits[rows][i - rows.start, k] marks whether the k-th mask holds bit i
    (`holding`), or lacks it.  The masks come as byte planes, plane q
    holding bits 8q to 8q + 7, so a row reads one byte a mask."""

    def __init__(self, planes: np.ndarray, where: tuple, holding: bool
                 ) -> None:
        self.planes = planes
        self.where = where  # bit i's plane and its weight in that plane
        self.holding = holding
        self.shape = (len(where[0]), planes.shape[1])  # the whole array's

    def __getitem__(self, rows: slice) -> np.ndarray:
        plane, weight = self.where
        hit = self.planes[plane[rows]] & weight[rows]
        return hit != 0 if self.holding else hit == 0


def _layer_bits(m: int) -> Iterator[tuple[_Bits, _Bits]]:
    """Per layer p >= 2, (has, lack): has[rows] marks the layer-p masks
    holding bit i, lack[rows] the layer-(p-1) masks lacking it, for each
    i in `rows`.  Dropping bit i keeps mask order, so the k-th mask
    lacking i, plus i, is the k-th holding it.  A step holds the masks
    of layers p - 1 and p; once the caller drops it, making layer p + 1
    holds layers p and p + 1 and one temporary of layer p + 1's size."""
    bit = np.arange(m)
    where = (bit >> 3, (1 << (bit & 7)).astype(np.uint8)[:, None])
    layers = _mask_layers(m)
    next(layers)
    below = next(layers, None)  # an empty interior has no layer 1
    for layer in layers:
        yield _Bits(layer, where, True), _Bits(below, where, False)
        below = layer


@lru_cache(maxsize=None)
def _cached_plan(m: int) -> tuple[Callable[[int], np.ndarray], list[tuple]]:
    """`_plan` memoised: `_cell_reader`'s row of each mask, kept in an
    int16 table (which holds every index up to _PLAN_CACHE_MAX) as it is
    first read, and the bits as whole arrays."""
    reader = _cell_reader(m)
    rows = np.zeros((1 << m, m), dtype=np.int16)
    filled = bytearray(1 << m)

    def cells(mask: int) -> np.ndarray:
        if not filled[mask]:
            rows[mask] = reader(mask)
            filled[mask] = 1
        return rows[mask]

    steps = [(has[:m], lack[:m]) for has, lack in _layer_bits(m)]
    # every solve of this size shares these arrays
    for array in [a for step in steps for a in step]:
        array.flags.writeable = False
    return cells, steps


def _plan(m: int) -> tuple[Callable[[int], Sequence[int]], Iterable[tuple]]:
    """The cell indices of a mask's column, and the per-layer bits of
    `_layer_bits`, memoised for interiors up to _PLAN_CACHE_MAX."""
    if m > _PLAN_CACHE_MAX:
        return _cell_reader(m), _layer_bits(m)
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
    unset = max(map(max, D)) * (len(D) + 1)
    DU = np.array([[D[a][b] for b in interior] for a in interior],
                  dtype=dtype)
    cells, steps = _plan(m)
    first = np.array([[D[dest_i][v]] for v in interior], dtype=dtype)
    prev = np.full((m, m), unset, dtype=dtype)
    np.fill_diagonal(prev, first)
    table = [None, first]
    for p, (has, lack) in enumerate(steps, start=2):
        # row i keeps y[i] at the columns lacking i, in order: the layer-p
        # masks holding i, C(m - 1, p - 1) of them
        rows = max(1, _BLOCK_CELLS // prev.size)
        # kept: without it adaptive-replan rounds ran 4-6% slower
        if rows >= m:  # one broadcast for the layer, no spans to track
            kept = (prev[:, None] + DU[:, :, None]).min(axis=0)[lack[:m]]
            kept = kept.reshape(m, -1)
        else:
            kept = np.empty((m, has.shape[1] * p // m), dtype=dtype)
            for lo in range(0, m, rows):
                block = slice(lo, lo + rows)
                y = _min_plus(prev, DU[:, block])
                kept[block] = y[lack[block]].reshape(-1, kept.shape[1])
        table.append(kept)
        if p < m:  # a dense layer feeds the next step, then goes
            del prev
            prev = np.full(has.shape, unset, dtype=dtype)
            rows = max(1, _BLOCK_CELLS // has.shape[1])
            for lo in range(0, m, rows):
                block = slice(lo, lo + rows)
                prev[block][has[block]] = kept[block].ravel()
        # the layer below goes before the next layer's masks are made
        del has, lack

    def column(mask: int) -> list[int]:
        return table[mask.bit_count()].take(cells(mask)).tolist()

    return column


def _suffix_table(D: list[list[int]], dest_i: int, interior: list[int]
                  ) -> Callable[[int], list[int]]:
    """The suffix table of `interior` toward dest_i, in the narrowest
    dtype whose limit exceeds max entry * (r + 1), `object` past
    _INT64_LIMIT; SolverCapExceeded, before any of it is allocated, when
    its m * 2**(m - 1) cells would hold more than _TABLE_BYTES."""
    reach = max(map(max, D)) * (len(D) + 1)
    dtype = (np.int16 if reach < _INT16_LIMIT
             else np.int32 if reach < _INT32_LIMIT
             else np.int64 if reach < _INT64_LIMIT else object)
    m = len(interior)
    # an `object` cell holds an 8-byte pointer and its Python integer,
    # 48 bytes in all (tracemalloc, interior 14)
    cell = 48 if dtype is object else np.dtype(dtype).itemsize
    size = (m << m) // 2 * cell
    if size > _TABLE_BYTES:
        raise SolverCapExceeded(
            f"exact oracle table too large: {len(D)} required vertices "
            f"need {size} bytes ({size / (1 << 20):.0f} MiB) of "
            f"{np.dtype(dtype).name} cells, over the budget of "
            f"{_TABLE_BYTES >> 20} MiB")
    return _suffix_table_np(D, dest_i, interior, dtype)


def _reconstruct(D: list[list[int]], origin_i: int, dest_i: int,
                 interior: list[int], remaining: int,
                 column: Callable[[int], list[int]]) -> tuple[int, list[int]]:
    """Cost and lexicographically smallest optimal order from origin_i
    through closure index interior[j] for every bit j of `remaining`, then
    dest_i, read front to back from the table `column`, whose bits follow
    interior's increasing order; the order must cost what the table claims
    at its first step (an empty `remaining` reads no cell)."""
    order = [origin_i]
    pos = origin_i
    total = 0
    claimed = None
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
        claimed = best_cost if claimed is None else claimed
        total += D[pos][interior[best_j]]
        pos = interior[best_j]
        order.append(pos)
        remaining &= ~(1 << best_j)
    total += D[pos][dest_i]
    order.append(dest_i)
    if claimed not in (None, total):
        raise InvariantViolation(f"table claims {claimed}, order costs "
                                 f"{total}")
    return total, order


class SuffixTable:
    """At most one suffix table, kept from one plan to the next.

    A table's cells depend only on the integer closure among its interior
    and its destination.  So a later plan whose destination holds the
    table's last bit, whose interior is a subset of the table's, and whose
    closure among that interior and the destination is unchanged, reads
    the table under its old bit numbering.  Those bits still run in
    increasing vertex id, so ties resolve as in a table of its own.  Any
    other plan drops the table before it builds its own.
    """

    def __init__(self) -> None:
        # vertex -> bit, the destination last; the closure rows among them
        self._bits: dict[int, int] = {}
        self._closure: list[list[int]] = []
        self._column: Callable[[int], list[int]] | None = None

    def _fits(self, D: list[list[int]], vertices: list[int],
              rows: list[int]) -> bool:
        bits = self._bits
        if (bits.get(vertices[-1]) != len(bits) - 1
                or not all(v in bits for v in vertices)):
            return False
        old = itemgetter(*[bits[v] for v in vertices])
        new = itemgetter(*rows)
        return all(old(self._closure[bits[v]]) == new(D[i])
                   for v, i in zip(vertices, rows))

    def order(self, D: list[list[int]], required: Sequence[int],
              origin_i: int, dest_i: int,
              interior: list[int]) -> tuple[int, list[int]]:
        """Cost and lexicographically smallest optimal order (closure
        indices) from origin_i through every index of `interior`, if any,
        to dest_i (a closed tour when equal), over the integer closure D
        among `required`: the DP's only order search."""
        rows = interior + [dest_i]
        vertices = [required[i] for i in rows]
        if not self._fits(D, vertices, rows):
            self._column = None  # never hold two tables
            self._column = _suffix_table(D, dest_i, interior)
            self._bits = {v: j for j, v in enumerate(vertices)}
            # whole rows: an itemgetter of the one row of an empty
            # interior's table would give a scalar, which `_fits` indexes
            self._closure = [[D[i][j] for j in rows] for i in rows]
        slots = [-1] * (len(self._bits) - 1)
        remaining = 0
        for v, i in zip(vertices, interior):
            j = self._bits[v]
            slots[j] = i
            remaining |= 1 << j
        return _reconstruct(D, origin_i, dest_i, slots, remaining,
                            self._column)


def _brute_force_order(D: list[list[int]], required: Sequence[int],
                       origin_i: int, dest_i: int,
                       interior: list[int]) -> tuple[int, list[int]]:
    """Same contract as `SuffixTable.order`, by exhaustive enumeration
    (`required` is not read).

    Permutations are generated in lexicographic order and `min` keeps the
    first of equal costs, so ties resolve to the same lexicographically
    smallest order as the DP.  An empty interior has one, the empty one.
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


def _required(required: tuple[int, ...], cap: int, oracle: str
              ) -> tuple[int, ...]:
    """The required vertices of a solve, refused beyond `cap` before any
    work."""
    parse_cap(cap)
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
    total, order_i = order_search(D, required, origin_i, dest_i, interior)
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
    required = _required(task.required_vertices(), cap, oracle)
    distances = Distances(graph, task.weights)
    vertices, total = _integer_walk(distances, required, task.origin,
                                    task.destination, order_search)
    walk = walk_of_vertices(graph, vertices, task.weights)
    cost = Fraction(total, distances.denom)
    if walk.cost != cost:
        raise InvariantViolation(f"walk costs {walk.cost}, closure claims "
                                 f"{cost}")
    return walk, cost


def optimal_cover_walk(graph: EstimateGraph, task: CoverTask, *,
                       cap: int = DEFAULT_EXACT_CAP) -> tuple[Walk, Fraction]:
    """Exact minimum-cost covering walk by subset DP on the metric closure."""
    return _solve(graph, task, cap, "exact oracle", SuffixTable().order)


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


def worst_case_plan(view: "KnowledgeView", distances: Distances,
                    table: SuffixTable, *,
                    cap: int = DEFAULT_EXACT_CAP) -> tuple[list[int], int]:
    """Cheapest walk from the view's position through every unvisited
    vertex to the graph's end, under worst-case pricing, in integers: its
    vertices and `distances.denom` times its cost.  `distances` must hold
    the view's `pessimistic_weights`, so the walk is the one
    `optimal_cover_walk` finds on them; `table` keeps a suffix table
    between calls."""
    end = view.graph.end
    required = _required(tuple(sorted(view.unvisited | {view.position, end})),
                         cap, "exact oracle")
    vertices, total = _integer_walk(distances, required, view.position, end,
                                    table.order)
    # the integer counterpart of the oracles' walk cost check
    if (length := distances.length(vertices)) != total:
        raise InvariantViolation(f"walk costs {length}, closure claims "
                                 f"{total}")
    return vertices, total
