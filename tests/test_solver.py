from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boundwalk import (CoverTask, Distances, Edge, EstimateGraph,
                       SolverCapExceeded, brute_force_cover, complete_graph,
                       optimal_cover_walk, pessimistic_weights,
                       random_instance, solver, walk_violations,
                       worst_case_cover_walk)
from boundwalk.engine import start_episode, move, FixedAssignment
from boundwalk.graph import WeightAssignment
from boundwalk.solver import _suffix_table_np, _suffix_table_py


def cover_all(graph, weights):
    return CoverTask(weights=weights, origin=graph.start,
                     destination=graph.end,
                     must_visit=frozenset(range(graph.vertex_count)))


def test_unique_hamiltonian_path():
    g = EstimateGraph(3, [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1))],
                      0, 2)
    w = {0: F(1), 1: F(1)}
    walk, cost = optimal_cover_walk(g, cover_all(g, w))
    assert walk.vertices == (0, 1, 2)
    assert cost == F(2)
    bwalk, bcost = brute_force_cover(g, cover_all(g, w))
    assert (bwalk.vertices, bcost) == (walk.vertices, cost)


def test_complete_graph_unit_weights():
    g = complete_graph(4, F(1))
    w = {eid: F(1) for eid in range(len(g.edges))}
    _, cost = optimal_cover_walk(g, cover_all(g, w))
    assert cost == F(3)


def test_half_split_realized_weights_alternating_optimum():
    # K8 with the first four vertices cheap on every incident edge:
    # an alternating path uses seven weight-1 edges, and no covering
    # walk can use fewer than seven edges
    g = complete_graph(8, F(2))
    w = {eid: F(1) if e.a < 4 or e.b < 4 else F(2)
         for eid, e in enumerate(g.edges)}
    walk, cost = optimal_cover_walk(g, cover_all(g, w))
    assert cost == F(7)
    _, bcost = brute_force_cover(g, cover_all(g, w))
    assert bcost == F(7)
    # every step of the optimum touches a cheap vertex
    assert all(a < 4 or b < 4 for a, b in zip(walk.vertices, walk.vertices[1:]))


def test_four_cycle_brute_force_avoids_heavy_edge():
    edges = [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1)),
             Edge(2, 3, F(1), F(1)), Edge(0, 3, F(5), F(5))]
    g = EstimateGraph(4, edges, 0, 3)
    w = {0: F(1), 1: F(1), 2: F(1), 3: F(5)}
    walk, cost = brute_force_cover(g, cover_all(g, w))
    assert cost == F(3)
    assert walk.vertices == (0, 1, 2, 3)


def test_empty_must_visit_reduces_to_shortest_path():
    edges = [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1)),
             Edge(0, 2, F(5), F(5))]
    g = EstimateGraph(3, edges, 0, 2)
    w = {0: F(1), 1: F(1), 2: F(5)}
    task = CoverTask(weights=w, origin=0, destination=2,
                     must_visit=frozenset())
    _, cost = brute_force_cover(g, task)
    assert cost == F(2)
    _, dcost = optimal_cover_walk(g, task)
    assert dcost == F(2)


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


def test_cap_exceeded_is_loud():
    g = complete_graph(12, F(2))
    w = {eid: F(1) for eid in range(len(g.edges))}
    with pytest.raises(SolverCapExceeded):
        optimal_cover_walk(g, cover_all(g, w), cap=10)
    with pytest.raises(SolverCapExceeded):
        brute_force_cover(g, cover_all(g, w))


def test_cap_above_memory_limit_refused():
    # a triangle needs no table; a cap outside 1..MAX_EXACT_CAP alone is
    # refused, before any work, as a ValueError and not SolverCapExceeded
    g = complete_graph(3, F(2))
    w = {eid: F(1) for eid in range(len(g.edges))}
    assert optimal_cover_walk(g, cover_all(g, w),
                              cap=solver.MAX_EXACT_CAP)[1] == 2
    for cap in (solver.MAX_EXACT_CAP + 1, 40, 10**9, 0, -3):
        with pytest.raises(ValueError, match="limit of 22"):
            optimal_cover_walk(g, cover_all(g, w), cap=cap)
        with pytest.raises(ValueError, match="limit of 22"):
            brute_force_cover(g, cover_all(g, w), cap=cap)
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
        task = cover_all(graph, assignment.weights)
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
    task = cover_all(g, w)
    D = Distances(g, w).among(task.required_vertices())
    reach = max(map(max, D)) * (len(D) + 1)
    assert solver._INT32_LIMIT <= reach < solver._INT64_LIMIT
    return g, task, D


def _kernel_cases(seeds):
    """(D, dtype): `seeds` random closures for each interior from
    _NUMPY_MIN_INTERIOR to _PLAN_CACHE_MAX, each built in int16 and in
    int32, then the int64 K_10 closure."""
    cases = []
    for m in range(solver._NUMPY_MIN_INTERIOR, solver._PLAN_CACHE_MAX + 1):
        for seed in range(seeds):
            D = _random_closure(m, seed)
            cases += [(D, np.int16), (D, np.int32)]
    return cases + [(_int64_closure()[2], np.int64)]


def _agree(D, dtype, masks=None):
    """The numpy table equals the Python one through their column
    accessors on `masks` (every non-empty mask by default), unset cells
    included."""
    r = len(D)
    interior = list(range(1, r - 1))
    py_column = _suffix_table_py(D, r - 1, interior)
    np_column = _suffix_table_np(D, r - 1, interior, dtype)
    for mask in masks or range(1, 1 << len(interior)):
        assert np_column(mask) == py_column(mask), f"mask {mask:b}"


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
    # rows, and a row that exceeds it by columns; layer 2 has m columns
    for D, dtype in _kernel_cases(seeds=1):
        m = len(D) - 2
        cells = {"one cell": 1, "rows": 2 * m * m, "columns": m * m // 2}
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_BLOCK_CELLS", cells[block])
            rows = max(1, cells[block] // (m * m))
            cols = max(1, cells[block] // (m * rows))
            assert (1 < rows < m) == (block == "rows")
            assert (cols < m) == (block != "rows")
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
    task = cover_all(g, w)
    D = Distances(g, w).among(task.required_vertices())
    assert max(map(max, D)) == top
    interior = list(range(1, r - 1))
    built = []
    np_kernel = solver._suffix_table_np

    def recording(D, dest_i, interior, dtype):
        built.append(dtype)
        return np_kernel(D, dest_i, interior, dtype)

    monkeypatch.setattr(solver, "_suffix_table_np", recording)
    column, from_numpy = solver._suffix_table(D, r - 1, interior)
    assert from_numpy and built == [dtype]
    py_column = _suffix_table_py(D, r - 1, interior)
    for mask in range(1, 1 << len(interior)):
        assert column(mask) == py_column(mask), f"mask {mask:b}"
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
    task = cover_all(g, w)
    walk, cost = optimal_cover_walk(g, task)
    bwalk, bcost = brute_force_cover(g, task)
    assert (walk.vertices, cost) == (bwalk.vertices, bcost)


def test_cached_plans_stay_small():
    # every cached plan together, arrays only
    total = 0
    for m in range(solver._NUMPY_MIN_INTERIOR, solver._PLAN_CACHE_MAX + 1):
        masks, rank, steps = solver._cached_plan(m)
        total += sum(a.nbytes for a in masks) + rank.nbytes
        total += sum(has.nbytes + lack.nbytes for has, lack in steps)
    assert total < 1 << 19


def test_large_denominators_take_python_kernel(monkeypatch):
    # coprime denominators near 10**5 push the scaled closure entries past
    # the int64 guard, so an interior of 8 (numpy-sized) must run in Python
    primes = (99991, 99989, 99971, 99961, 99929)
    g = complete_graph(10, F(2))
    w = {eid: 1 + F(eid, primes[eid % 5]) for eid in range(len(g.edges))}
    task = cover_all(g, w)
    D = Distances(g, w).among(task.required_vertices())
    assert max(map(max, D)) * (len(D) + 1) >= solver._INT64_LIMIT

    def no_numpy(*args):
        raise AssertionError("numpy kernel used beyond the int64 guard")

    monkeypatch.setattr(solver, "_suffix_table_np", no_numpy)
    walk, cost = optimal_cover_walk(g, task)
    bwalk, bcost = brute_force_cover(g, task)
    assert (walk.vertices, cost) == (bwalk.vertices, bcost)
    assert walk_violations(g, walk, w) == []


def test_lexicographic_tie_breaking():
    # all-ones K5: every Hamiltonian path is optimal; both solvers must
    # pick the identity order
    g = complete_graph(5, F(1), start=0, end=4)
    w = {eid: F(1) for eid in range(len(g.edges))}
    walk, _ = optimal_cover_walk(g, cover_all(g, w))
    bwalk, _ = brute_force_cover(g, cover_all(g, w))
    assert walk.vertices == bwalk.vertices == (0, 1, 2, 3, 4)


def test_raising_one_weight_never_lowers_cost():
    for seed in range(8):
        graph, assignment = random_instance(6, density=0.5, seed=seed)
        task = cover_all(graph, assignment.weights)
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

    walk, cost = worst_case_cover_walk(g, view, g.end)
    # enumerate the six interior orders by hand: start edge 1, rest 2
    assert cost == F(1) + F(2) + F(2)
    # at spread exactly 2 the 1+1 detour through the start ties the direct
    # edge and the smaller-vertex-id rule picks it; below 2 ties vanish
    g2 = complete_graph(4, F(7, 4))
    source2 = FixedAssignment(WeightAssignment(
        {eid: F(1) for eid in range(len(g2.edges))}))
    view2 = start_episode(g2, source2)
    walk2, cost2 = worst_case_cover_walk(g2, view2, g2.end)
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
    _, pess = worst_case_cover_walk(g, view, g.end)
    task = CoverTask(weights=actual, origin=view.position,
                     destination=g.end, must_visit=frozenset())
    _, exact = optimal_cover_walk(g, task)
    assert pess == exact
