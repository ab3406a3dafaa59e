import tracemalloc
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boundwalk import (AdaptiveExplorer, CoverTask, Distances, Edge,
                       EstimateGraph, SolverCapExceeded, brute_force_cover,
                       complete_graph, optimal_cover_walk,
                       pessimistic_weights, random_instance, solver,
                       walk_violations)
from boundwalk.cli import main
from boundwalk.engine import start_episode, move, FixedAssignment
from boundwalk.graph import WeightAssignment
from boundwalk.instance_io import save_instance
from boundwalk.solver import _suffix_table_np
from references import _suffix_table_py, worst_case_cover_walk


def test_unique_hamiltonian_path():
    g = EstimateGraph(3, [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1))],
                      0, 2)
    w = {0: F(1), 1: F(1)}
    walk, cost = optimal_cover_walk(g, CoverTask.full_cover(g, w))
    assert walk.vertices == (0, 1, 2)
    assert cost == F(2)
    bwalk, bcost = brute_force_cover(g, CoverTask.full_cover(g, w))
    assert (bwalk.vertices, bcost) == (walk.vertices, cost)


def test_complete_graph_unit_weights():
    g = complete_graph(4, F(1))
    w = {eid: F(1) for eid in range(len(g.edges))}
    _, cost = optimal_cover_walk(g, CoverTask.full_cover(g, w))
    assert cost == F(3)


def test_half_split_realized_weights_alternating_optimum():
    # K8 with the first four vertices cheap on every incident edge:
    # an alternating path uses seven weight-1 edges, and no covering
    # walk can use fewer than seven edges
    g = complete_graph(8, F(2))
    w = {eid: F(1) if e.a < 4 or e.b < 4 else F(2)
         for eid, e in enumerate(g.edges)}
    walk, cost = optimal_cover_walk(g, CoverTask.full_cover(g, w))
    assert cost == F(7)
    _, bcost = brute_force_cover(g, CoverTask.full_cover(g, w))
    assert bcost == F(7)
    # every step of the optimum touches a cheap vertex
    assert all(a < 4 or b < 4 for a, b in zip(walk.vertices, walk.vertices[1:]))


def test_four_cycle_brute_force_avoids_heavy_edge():
    edges = [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1)),
             Edge(2, 3, F(1), F(1)), Edge(0, 3, F(5), F(5))]
    g = EstimateGraph(4, edges, 0, 3)
    w = {0: F(1), 1: F(1), 2: F(1), 3: F(5)}
    walk, cost = brute_force_cover(g, CoverTask.full_cover(g, w))
    assert cost == F(3)
    assert walk.vertices == (0, 1, 2, 3)


def test_empty_must_visit_reduces_to_shortest_path():
    edges = [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1)),
             Edge(0, 2, F(5), F(5))]
    g = EstimateGraph(3, edges, 0, 2)
    w = {0: F(1), 1: F(1), 2: F(5)}
    task = CoverTask(weights=w, origin=0, destination=2,
                     must_visit=frozenset())
    walk, cost = brute_force_cover(g, task)
    assert (walk.vertices, cost) == ((0, 1, 2), F(2))
    dwalk, dcost = optimal_cover_walk(g, task)
    assert (dwalk.vertices, dcost) == ((0, 1, 2), F(2))


def test_closed_walk_origin_equals_destination():
    g = complete_graph(4, F(1))
    w = {eid: F(1) for eid in range(len(g.edges))}
    task = CoverTask(weights=w, origin=1, destination=1,
                     must_visit=frozenset(range(4)))
    walk, cost = optimal_cover_walk(g, task)
    assert cost == F(4)
    assert walk.vertices[0] == walk.vertices[-1] == 1
    assert set(walk.vertices) == {0, 1, 2, 3}
    _, bcost = brute_force_cover(g, task)
    assert bcost == cost
    # nothing to visit but the origin: the walk stays put
    task = CoverTask(weights=w, origin=1, destination=1,
                     must_visit=frozenset({1}))
    for oracle in (optimal_cover_walk, brute_force_cover):
        walk, cost = oracle(g, task)
        assert (walk.vertices, cost) == ((1,), 0)


def test_cap_exceeded_is_loud():
    g = complete_graph(12, F(2))
    w = {eid: F(1) for eid in range(len(g.edges))}
    with pytest.raises(SolverCapExceeded):
        optimal_cover_walk(g, CoverTask.full_cover(g, w), cap=10)
    with pytest.raises(SolverCapExceeded):
        brute_force_cover(g, CoverTask.full_cover(g, w))


def test_cap_above_memory_limit_refused():
    # a triangle needs no table; a cap outside 1..MAX_EXACT_CAP alone is
    # refused, before any work, as a ValueError and not SolverCapExceeded
    g = complete_graph(3, F(2))
    w = {eid: F(1) for eid in range(len(g.edges))}
    assert optimal_cover_walk(g, CoverTask.full_cover(g, w),
                              cap=solver.MAX_EXACT_CAP)[1] == 2
    for cap in (solver.MAX_EXACT_CAP + 1, 40, 10**9, 0, -3):
        with pytest.raises(ValueError, match="limit of 22"):
            optimal_cover_walk(g, CoverTask.full_cover(g, w), cap=cap)
        with pytest.raises(ValueError, match="limit of 22"):
            brute_force_cover(g, CoverTask.full_cover(g, w), cap=cap)
    # the same rule types a cap from a config or a flag
    for cap in (2.5, True, ["3"]):
        with pytest.raises(ValueError, match="expected an integer"):
            solver.parse_cap(cap)
    assert solver.parse_cap("3") == 3


def test_oracle_equivalence_random_instances():
    # n = 8 and 9 give interiors of 6 and 7, the smallest the numpy kernel
    # takes (from cached plans); n = 10 an interior of 8
    cases = [(4 + seed % 6, seed) for seed in range(40)]
    cases += [(10, seed) for seed in range(6)]
    for n, seed in cases:
        graph, assignment = random_instance(n, density=0.4, seed=seed)
        task = CoverTask.full_cover(graph, assignment.weights)
        walk, cost = optimal_cover_walk(graph, task)
        bwalk, bcost = brute_force_cover(graph, task)
        assert cost == bcost, f"n {n} seed {seed}"
        assert walk.vertices == bwalk.vertices, f"n {n} seed {seed}"
        assert walk_violations(graph, walk, assignment.weights) == []
        assert set(walk.vertices) == set(range(graph.vertex_count))


def _random_closure(m, seed, top=30):
    """A symmetric closure with entries in 1..top around an interior of m
    (the first and last index left out)."""
    import random
    rng = random.Random(seed)
    r = m + 2
    D = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            D[i][j] = D[j][i] = rng.randint(1, top)
    assert top * (r + 1) < solver._INT16_LIMIT
    return D


def _int64_closure():
    """K_10 whose scaled closure entries pass the int32 bound: three
    coprime denominators near 1000, inside the int64 guard."""
    primes = (997, 991, 983)
    g = complete_graph(10, F(2))
    w = {eid: 1 + F(eid, primes[eid % 3]) for eid in range(len(g.edges))}
    task = CoverTask.full_cover(g, w)
    D = Distances(g, w).among(task.required_vertices())
    reach = max(map(max, D)) * (len(D) + 1)
    assert solver._INT32_LIMIT <= reach < solver._INT64_LIMIT
    return g, task, D


def _kernel_cases(seeds, smallest=0):
    """(D, dtype): `seeds` random closures for each interior from
    `smallest` to _PLAN_CACHE_MAX, each built in int16, in int32 and in
    `object`, then the int64 K_10 closure in int64 and in `object`."""
    cases = []
    for m in range(smallest, solver._PLAN_CACHE_MAX + 1):
        for seed in range(seeds):
            D = _random_closure(m, seed)
            cases += [(D, np.int16), (D, np.int32), (D, object)]
    D = _int64_closure()[2]
    return cases + [(D, np.int64), (D, object)]


def _same_cells(np_column, py_column, m, masks=None):
    """On `masks` over m bits (every non-empty one by default), the numpy
    column equals the reference one at the mask's own bits, the only
    cells either table sets."""
    for mask in masks or range(1, 1 << m):
        bits = [j for j in range(m) if mask >> j & 1]
        np_costs, py_costs = np_column(mask), py_column(mask)
        assert ([np_costs[j] for j in bits]
                == [py_costs[j] for j in bits]), f"mask {mask:b}"


def _agree(D, dtype, masks=None):
    """`_same_cells` on the tables of D's interior toward its last index."""
    r = len(D)
    interior = list(range(1, r - 1))
    py_column = _suffix_table_py(D, r - 1, interior)
    np_column = _suffix_table_np(D, r - 1, interior, dtype)
    _same_cells(np_column, py_column, len(interior), masks)


def test_numpy_and_python_kernels_agree(monkeypatch):
    for D, dtype in _kernel_cases(seeds=3):
        _agree(D, dtype)
        # the same table from masks built a layer at a time, as
        # interiors past the cache build it
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_PLAN_CACHE_MAX", 0)
            _agree(D, dtype)
    # an interior of 13 is past the cache: sampled masks of every layer
    import random
    rng = random.Random(13)
    masks = [rng.randrange(1, 1 << 13) for _ in range(300)] + [(1 << 13) - 1]
    for dtype in (np.int16, np.int32):
        _agree(_random_closure(13, seed=0), dtype, masks)
    # and the solve picks int64 for the K_10 case, where int32 would wrap
    g, task, _ = _int64_closure()
    walk, cost = optimal_cover_walk(g, task)
    bwalk, bcost = brute_force_cover(g, task)
    assert (walk.vertices, cost) == (bwalk.vertices, bcost)


@pytest.mark.parametrize("block", ["one cell", "rows", "columns"])
def test_kernel_blocks_agree(monkeypatch, block):
    # a layer whose broadcast exceeds _BLOCK_CELLS is split by target
    # rows, and a row that exceeds it by columns; layer 2 has m columns.
    # Three rows a block, so past the plan cache, where a block's bits are
    # computed from the masks' byte planes, a block straddles bit 8.  A
    # layer splits by rows only when three rows are fewer than m, so every
    # interior here is at least 4
    for D, dtype in _kernel_cases(seeds=1, smallest=4):
        m = len(D) - 2
        cells = {"one cell": 1, "rows": 3 * m * m, "columns": m * m // 2}
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_BLOCK_CELLS", cells[block])
            rows = max(1, cells[block] // (m * m))
            cols = max(1, cells[block] // (m * rows))
            assert (1 < rows < m) == (block == "rows")
            assert (cols < m) == (block != "rows")
            _agree(D, dtype)
            patch.setattr(solver, "_PLAN_CACHE_MAX", 0)
            _agree(D, dtype)


def _complete_near(r, top, ties, seed):
    """K_r with integer weights drawn from `ties` values in (3 top / 4, top]
    and one weight top: the closure is the weights themselves, its largest
    entry is top, the longest paths come near the table's reach, and
    optimal orders tie."""
    import random
    rng = random.Random(seed)
    g = complete_graph(r, F(2))
    values = [rng.randint(top * 3 // 4 + 1, top) for _ in range(ties)]
    w = {eid: F(rng.choice(values)) for eid in range(len(g.edges))}
    w[rng.randrange(len(g.edges))] = F(top)
    return g, w


@pytest.mark.parametrize("r, top, dtype", [
    # the largest and the smallest max entry * (r + 1) around 2**14 that
    # each r allows: 2047 * 8 = 2**14 - 8, 2048 * 8 = 2**14,
    # 1489 * 11 = 2**14 - 5, 1490 * 11 = 2**14 + 6
    (7, 2047, np.int16), (7, 2048, np.int32),
    (10, 1489, np.int16), (10, 1490, np.int32)])
def test_int16_tier_boundary(monkeypatch, r, top, dtype):
    g, w = _complete_near(r, top, ties=4, seed=r + top)
    task = CoverTask.full_cover(g, w)
    D = Distances(g, w).among(task.required_vertices())
    assert max(map(max, D)) == top
    interior = list(range(1, r - 1))
    built = []
    np_kernel = solver._suffix_table_np

    def recording(D, dest_i, interior, dtype):
        built.append(dtype)
        return np_kernel(D, dest_i, interior, dtype)

    monkeypatch.setattr(solver, "_suffix_table_np", recording)
    column = solver._suffix_table(D, r - 1, interior)
    assert built == [dtype]
    _same_cells(column, _suffix_table_py(D, r - 1, interior),
                len(interior))
    walk, cost = optimal_cover_walk(g, task)
    bwalk, bcost = brute_force_cover(g, task)
    assert (walk.vertices, cost) == (bwalk.vertices, bcost)
    assert built == [dtype, dtype]


@settings(max_examples=30, deadline=None)
@given(r=st.integers(7, 10), reach=st.integers(1 << 13, 1 << 15),
       ties=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_dp_matches_brute_force_near_the_int16_limit(r, reach, ties, seed):
    # max entry * (r + 1) on both sides of _INT16_LIMIT
    g, w = _complete_near(r, reach // (r + 1), ties, seed)
    task = CoverTask.full_cover(g, w)
    walk, cost = optimal_cover_walk(g, task)
    bwalk, bcost = brute_force_cover(g, task)
    assert (walk.vertices, cost) == (bwalk.vertices, bcost)


def _held(fn):
    """The variables the closure `fn` holds, by name."""
    return dict(zip(fn.__code__.co_freevars,
                    (cell.cell_contents for cell in fn.__closure__)))


def test_cached_plans_stay_small():
    # every cached plan together, arrays only: the read rows, their filled
    # flags and the per-layer bit masks of the build
    total = 0
    for m in range(solver._PLAN_CACHE_MAX + 1):
        cells, steps = solver._cached_plan(m)
        held = _held(cells)
        total += held["rows"].nbytes + len(held["filled"])
        total += sum(has.nbytes + lack.nbytes for has, lack in steps)
    assert total < 1 << 19


def test_read_rows_hold_every_cached_index():
    # a cell's flat index lies below its table's m * 2**(m - 1) cells, so
    # int16 read rows hold every index of an interior up to the cache's
    m = solver._PLAN_CACHE_MAX
    rows = _held(solver._cached_plan(m)[0])["rows"]
    assert m * 2 ** (m - 1) <= np.iinfo(rows.dtype).max + 1


def _held_layers(column):
    """The layers a numpy `column` reads, from its closure."""
    return _held(column)["table"][1:]


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("m", [9, 13])  # a cached and an uncached plan
def test_numpy_table_holds_only_set_cells(m, dtype):
    # cell (S, i) is set only for i in S: m * 2**(m - 1) of them, where a
    # dense (m, C(m, p)) layer would hold m * C(m, p) cells
    D = _random_closure(m, seed=m)
    column = _suffix_table_np(D, m + 1, list(range(1, m + 1)), dtype)
    layers = _held_layers(column)
    assert [layer.shape for layer in layers] == [
        (m, comb(m - 1, p - 1)) for p in range(1, m + 1)]
    assert all(layer.dtype == dtype for layer in layers)
    assert (sum(layer.nbytes for layer in layers)
            == m * 2 ** (m - 1) * np.dtype(dtype).itemsize)


def test_numpy_build_peak_memory():
    # one build at interior 18 in each dtype, past the plan cache: besides
    # the table it holds one dense scratch layer, two layers of masks and
    # block-sized temporaries; afterwards only the table's cells and the
    # reader's small Pascal table stay
    m = 18
    D = _random_closure(m, seed=0)
    for dtype in (np.int16, np.int32, np.int64):
        table = m * 2 ** (m - 1) * np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            column = _suffix_table_np(D, m + 1, list(range(1, m + 1)), dtype)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(layer.nbytes for layer in _held_layers(column)) == table
        assert peak <= 1.35 * table, dtype
        assert held - table < 64 << 10, dtype
        del column


def test_mask_layers_group_every_mask_by_popcount():
    # each layer, as integers from its byte planes, is every mask over m
    # bits of its popcount in increasing order: C(m, p) of them
    for m in range(1, 17):
        every = np.arange(1 << m)
        count = sum((every >> b) & 1 for b in range(m))
        layers = list(solver._mask_layers(m))
        assert len(layers) == m + 1
        for p, planes in enumerate(layers):
            assert planes.dtype == np.uint8
            masks = sum(plane.astype(np.int64) << 8 * q
                        for q, plane in enumerate(planes))
            assert masks.size == comb(m, p)
            assert np.array_equal(masks, every[count == p]), (m, p)


def test_cell_reader_and_table_match_a_sorted_layout():
    # the reader's Pascal sums, and the cached plan's rows kept from them,
    # give cell (mask, j) the place the compact layout defines: row j, at
    # the index of mask minus bit j (the bits above j moved down one) in
    # the sorted list of the masks over m - 1 bits of its popcount; each
    # read keeps its row
    for m in range(solver._PLAN_CACHE_MAX + 1):
        ranks = {}
        for p in range(m):
            layer = sorted(s for s in range(1 << (m - 1))
                           if s.bit_count() == p)
            ranks.update((s, k) for k, s in enumerate(layer))
        reader = solver._cell_reader(m)
        table, _ = solver._cached_plan(m)
        for mask in range(1 << m):
            width = comb(m - 1, mask.bit_count() - 1) if mask else 0
            want = [0] * m
            for j in range(m):
                if mask >> j & 1:
                    rest = mask ^ 1 << j
                    down = rest & (1 << j) - 1 | rest >> (j + 1) << j
                    want[j] = j * width + ranks[down]
            assert reader(mask) == want, (m, mask)
            assert table(mask).tolist() == want, (m, mask)
        assert all(_held(table)["filled"])


def test_stale_kept_table_fails_the_solve(monkeypatch):
    # the spread-3 random episode, replayed to an explorer whose kept table
    # skips the closure check: after a reveal has shortened distances among
    # the vertices still to visit, the stale table's first-step cost is no
    # longer the cost of the order it leads to
    graph, assignment = random_instance(6, density=0.5, alpha=F(3), seed=5)
    views = [start_episode(graph, FixedAssignment(assignment))]
    fresh = AdaptiveExplorer()
    while not views[-1].is_complete:
        views.append(move(views[-1], fresh.decide(views[-1])))

    def fits_any_closure(self, D, vertices, rows):
        bits = self._bits
        return (bits.get(vertices[-1]) == len(bits) - 1
                and all(v in bits for v in vertices))

    monkeypatch.setattr(solver.SuffixTable, "_fits", fits_any_closure)
    stale = AdaptiveExplorer()
    with pytest.raises(AssertionError, match="table claims"):
        for view in views[:-1]:
            stale.decide(view)


def test_corrupted_table_cell_fails_the_solve(monkeypatch):
    # K_9 with weights below 2, so every closure leg is one edge and the
    # walk is the visit order; interior 7 takes the numpy kernel
    import random
    rng = random.Random(9)
    g = complete_graph(9, F(2))
    w = {eid: F(rng.randint(4, 7), 4) for eid in range(len(g.edges))}
    task = CoverTask.full_cover(g, w)
    walk, _ = optimal_cover_walk(g, task)
    first = walk.vertices[1] - 1  # the interior's bit of the first step
    np_kernel = solver._suffix_table_np

    def corrupted(D, dest_i, interior, dtype):
        column = np_kernel(D, dest_i, interior, dtype)
        # the full mask's layer is (m, 1); lower its optimal cell
        _held_layers(column)[-1][first, 0] -= 1
        return column

    monkeypatch.setattr(solver, "_suffix_table_np", corrupted)
    with pytest.raises(AssertionError, match="table claims"):
        optimal_cover_walk(g, task)


def _guard_case(r, past):
    """K_r whose edge weights 1 + (eid + 1) / q, all distinct, scale to
    closure entries q + eid + 1: one q puts max entry * (r + 1) past the
    int64 guard, the other under it."""
    q = 1 << 47 if past else 1 << 20
    g = complete_graph(r, F(2))
    w = {eid: 1 + F(eid + 1, q) for eid in range(len(g.edges))}
    task = CoverTask.full_cover(g, w)
    D = Distances(g, w).among(task.required_vertices())
    assert (max(map(max, D)) * (len(D) + 1) >= solver._INT64_LIMIT) == past
    return g, w, task


def test_large_denominators_take_object_tier(monkeypatch):
    # the closure's width alone picks the dtype, whatever the interior: a
    # fixed-width integer under the int64 guard, `object` past it, and
    # both solve as the brute force does.  An empty interior builds a
    # table too, never read
    built = []
    np_kernel = solver._suffix_table_np

    def recording(D, dest_i, interior, dtype):
        column = np_kernel(D, dest_i, interior, dtype)
        layers = {layer.dtype for layer in _held_layers(column)}
        built.append((np.dtype(dtype), layers, len(interior)))
        return column

    monkeypatch.setattr(solver, "_suffix_table_np", recording)
    for interior in (0, 2, 5, 8):
        for past in (False, True):
            g, w, task = _guard_case(interior + 2, past)
            built.clear()
            walk, cost = optimal_cover_walk(g, task)
            [(dtype, layers, size)] = built
            assert size == interior and layers == {dtype}, (interior, past)
            assert (dtype == object if past
                    else np.issubdtype(dtype, np.signedinteger)), dtype
            bwalk, bcost = brute_force_cover(g, task)
            assert (walk.vertices, cost) == (bwalk.vertices, bcost)
            assert walk_violations(g, walk, w) == []


def test_over_budget_table_is_refused_before_its_build(tmp_path, capsys):
    # a path on 22 vertices whose weights have the first 21 primes as
    # denominators: the closure is past the int64 guard, so its table of
    # 20 * 2**19 cells would be `object`, at 48 bytes a cell
    primes = [p for p in range(2, 74) if all(p % d for d in range(2, p))]
    g = EstimateGraph(22, [Edge(i, i + 1, F(1, p), F(2, p))
                           for i, p in enumerate(primes)], 0, 21)
    w = {i: F(1, p) for i, p in enumerate(primes)}
    size = 20 * 2**19 * 48
    tracemalloc.start()
    try:
        with pytest.raises(SolverCapExceeded, match=f"need {size} bytes"):
            optimal_cover_walk(g, CoverTask.full_cover(g, w), cap=22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    inst = tmp_path / "primes.json"
    save_instance(inst, g, WeightAssignment(w))
    assert main(["oracle", str(inst), "--solver-cap", "22"]) == 2
    assert f"need {size} bytes" in capsys.readouterr().err


@pytest.mark.parametrize("entry, dtype", [
    (30, np.int16), (1 << 20, np.int32), (1 << 40, np.int64),
    (1 << 50, object)])
def test_table_budget_refuses_only_object_at_the_cap(entry, dtype,
                                                     monkeypatch):
    # under MAX_EXACT_CAP = 22 every fixed-width table fits the budget,
    # and an `object` one only up to r = 21
    built = []
    monkeypatch.setattr(solver, "_suffix_table_np",
                        lambda D, dest_i, interior, dt: built.append(dt))
    for r in (21, 22):
        D = [[0 if a == b else entry for b in range(r)] for a in range(r)]
        if dtype is object and r == 22:
            with pytest.raises(SolverCapExceeded, match="over the budget"):
                solver._suffix_table(D, r - 1, list(range(1, r - 1)))
        else:
            solver._suffix_table(D, r - 1, list(range(1, r - 1)))
    assert built == [dtype] * (1 if dtype is object else 2)


def test_lexicographic_tie_breaking():
    # all-ones K5: every Hamiltonian path is optimal; both solvers must
    # pick the identity order
    g = complete_graph(5, F(1), start=0, end=4)
    w = {eid: F(1) for eid in range(len(g.edges))}
    walk, _ = optimal_cover_walk(g, CoverTask.full_cover(g, w))
    bwalk, _ = brute_force_cover(g, CoverTask.full_cover(g, w))
    assert walk.vertices == bwalk.vertices == (0, 1, 2, 3, 4)


def test_raising_one_weight_never_lowers_cost():
    for seed in range(8):
        graph, assignment = random_instance(6, density=0.5, seed=seed)
        task = CoverTask.full_cover(graph, assignment.weights)
        _, base = optimal_cover_walk(graph, task)
        for eid in range(len(graph.edges)):
            bumped = dict(assignment.weights)
            bumped[eid] = bumped[eid] + F(1, 2)
            _, cost = optimal_cover_walk(graph, CoverTask(
                weights=bumped, origin=graph.start,
                destination=graph.end,
                must_visit=task.must_visit))
            assert cost >= base


def test_worst_case_planner_prices_unrevealed_at_upper():
    g = complete_graph(4, F(2))
    source = FixedAssignment(WeightAssignment(
        {eid: F(1) for eid in range(len(g.edges))}))
    view = start_episode(g, source)
    weights = pessimistic_weights(g, view.revealed)
    for eid, e in enumerate(g.edges):
        if e.a == 0 or e.b == 0:
            assert weights[eid] == F(1)  # revealed actual
        else:
            assert weights[eid] == F(2)  # announced upper bound

    walk, cost = worst_case_cover_walk(view)
    # enumerate the six interior orders by hand: start edge 1, rest 2
    assert cost == F(1) + F(2) + F(2)
    # at spread exactly 2 the 1+1 detour through the start ties the direct
    # edge and the smaller-vertex-id rule picks it; below 2 ties vanish
    g2 = complete_graph(4, F(7, 4))
    source2 = FixedAssignment(WeightAssignment(
        {eid: F(1) for eid in range(len(g2.edges))}))
    view2 = start_episode(g2, source2)
    walk2, cost2 = worst_case_cover_walk(view2)
    assert walk2.vertices == (0, 1, 2, 3)
    assert cost2 == F(1) + F(7, 4) + F(7, 4)


def test_worst_case_equals_exact_once_all_revealed():
    g = complete_graph(5, F(2))
    actual = {eid: F(1) + F(eid % 3, 3) for eid in range(len(g.edges))}
    source = FixedAssignment(WeightAssignment(actual))
    view = start_episode(g, source)
    for v in (1, 2, 3):
        view = move(view, v)
    view = move(view, 4)  # all vertices visited: everything revealed
    assert len(view.revealed) == len(g.edges)
    _, pess = worst_case_cover_walk(view)
    task = CoverTask(weights=actual, origin=view.position,
                     destination=g.end, must_visit=frozenset())
    _, exact = optimal_cover_walk(g, task)
    assert pess == exact
