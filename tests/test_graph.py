from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from boundwalk import (AlphaProfile, CoverTask, Edge, EstimateGraph, GridSpec,
                       alpha_of, brute_force_cover, build_grid_trap,
                       complete_graph, optimal_cover_walk, random_instance,
                       validate, walk_of_vertices, walk_violations)
from boundwalk.graph import MAX_VERTICES, Distances, Walk


def path_graph(weights, intervals=None):
    n = len(weights) + 1
    edges = []
    for i, w in enumerate(weights):
        lo, hi = intervals[i] if intervals else (w, w)
        edges.append(Edge(i, i + 1, F(lo), F(hi)))
    return EstimateGraph(n, edges, 0, n - 1)


def triangle(w01, w12, w02):
    edges = [Edge(0, 1, F(w01), F(w01)), Edge(1, 2, F(w12), F(w12)),
             Edge(0, 2, F(w02), F(w02))]
    return EstimateGraph(3, edges, 0, 2)


class TestValidate:
    def test_minimal_legal_instance(self):
        g = EstimateGraph(2, [Edge(0, 1, F(1), F(1))], 0, 1)
        assert validate(g) == []

    def test_inverted_interval(self):
        g = EstimateGraph(2, [Edge(0, 1, F(2), F(1))], 0, 1)
        assert any("inverted" in v for v in validate(g))

    def test_disconnected(self):
        g = EstimateGraph(4, [Edge(0, 1, F(1), F(1)),
                              Edge(2, 3, F(1), F(1))], 0, 3)
        assert any("disconnected" in v for v in validate(g))

    @pytest.mark.parametrize("edge,start,fault", [
        ((0, 1), 5, "s = 5 out of range for n = 3"),
        ((0, 7), 0, "edge 0: a, b = 0, 7 out of range")])
    def test_out_of_range_ids_skip_connectivity(self, edge, start, fault):
        # vertex 2 has no edge, but connectivity is only asked of in-range
        # ids, so the out-of-range one is the only fault named
        g = EstimateGraph(3, [Edge(*edge, F(1), F(1))], start, 1)
        assert validate(g) == [fault]

    def test_self_loop_and_duplicate(self):
        g = EstimateGraph(3, [Edge(0, 0, F(1), F(1)),
                              Edge(1, 2, F(1), F(1)),
                              Edge(2, 1, F(1), F(1))], 0, 2)
        msgs = validate(g)
        assert any("self-loop" in v for v in msgs)
        assert any("duplicate" in v for v in msgs)

    def test_identical_endpoints(self):
        g = EstimateGraph(2, [Edge(0, 1, F(1), F(1))], 0, 0)
        assert any("distinct" in v for v in validate(g))

    def test_nonpositive_lower(self):
        g = EstimateGraph(2, [Edge(0, 1, F(0), F(1))], 0, 1)
        assert any("nonpositive" in v for v in validate(g))

    def test_bounds_become_fractions(self):
        # a Fraction bound is kept as it is; other rationals are converted
        lower, upper = F(3, 2), F(2)
        g = EstimateGraph(3, [Edge(0, 1, lower, upper), (1, 2, 1, "5/2")],
                          0, 2)
        assert g.edges[0].lower is lower and g.edges[0].upper is upper
        assert g.edges[1] == Edge(1, 2, F(1), F(5, 2))
        assert all(type(x) is F for e in g.edges for x in e[2:])


class TestAlphaProfile:
    def test_uniform_intervals(self):
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(2)), Edge(1, 2, F(1), F(2))],
                          0, 2)
        assert alpha_of(g) == AlphaProfile(F(2))

    def test_max_of_ratios(self):
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(2), F(3))],
                          0, 2)
        assert alpha_of(g) == AlphaProfile(F(3, 2))

    def test_uniform_needs_every_interval_equal(self):
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(3, 2)),
                              Edge(1, 2, F(1), F(2))], 0, 2)
        assert alpha_of(g) == AlphaProfile(F(2))


    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["random", "grid", "complete"]),
           size=st.integers(4, 12), seed=st.integers(0, 10_000),
           alpha=st.fractions(1, 2, max_denominator=40).filter(
               lambda a: a < 2),
           law=st.sampled_from(["uniform", "mixed"]))
    def test_equals_fraction_maximum(self, family, size, seed, alpha, law):
        if family == "random":
            g, _ = random_instance(size, density=0.5, law=law, alpha=alpha,
                                   seed=seed)
        elif family == "grid":
            g = build_grid_trap(GridSpec(size // 2 + 2, alpha),
                                verify_adaptive=False).graph
        else:
            g = complete_graph(size, alpha)
        alpha_max = max(e.upper / e.lower for e in g.edges)
        assert alpha_of(g).alpha == alpha_max
        assert type(alpha_of(g).alpha) is F

def distances_from(dist, u):
    """Exact distances from u, read from `dist`'s integer row."""
    return [F(d, dist.denom) for d in dist.row(u)]


class TestShortestPaths:
    def test_triangle_detour_beats_heavy_edge(self):
        g = triangle(1, 1, 3)
        w = {0: F(1), 1: F(1), 2: F(3)}
        dist = Distances(g, w)
        assert distances_from(dist, 0)[2] == F(2)
        assert dist.path(0, 2) == [0, 1, 2]

    def test_unit_path_distances(self):
        g = path_graph([1, 1, 1, 1])
        w = {i: F(1) for i in range(4)}
        dist = Distances(g, w)
        assert distances_from(dist, 0) == [F(0), F(1), F(2), F(3), F(4)]
        assert dist.path(0, 4) == [0, 1, 2, 3, 4]

    def test_star_leaf_to_leaf(self):
        edges = [Edge(0, 1, F(1), F(1)), Edge(0, 2, F(1), F(1)),
                 Edge(0, 3, F(1), F(1))]
        g = EstimateGraph(4, edges, 1, 2)
        w = {0: F(1), 1: F(1), 2: F(1)}
        dist = Distances(g, w)
        assert distances_from(dist, 1)[2] == F(2)
        assert dist.path(1, 2) == [1, 0, 2]

    def test_rejects_nonpositive_weights(self):
        g = path_graph([1])
        for w in (F(0), 0, F(-1, 10**9), -1):
            with pytest.raises(ValueError, match="nonpositive weight"):
                Distances(g, {0: w})
        with pytest.raises(ValueError):
            Distances(g, {})
        for w in (F(1, 10**9), 1):
            assert Distances(g, {0: w}).row(0) == [0, 1]

    def test_predecessors_prefer_smaller_vertex(self):
        # two equal-cost routes 0-1-3 and 0-2-3: 3 is entered from 1
        edges = [Edge(0, 1, F(1), F(1)), Edge(0, 2, F(1), F(1)),
                 Edge(1, 3, F(1), F(1)), Edge(2, 3, F(1), F(1))]
        g = EstimateGraph(4, edges, 0, 3)
        w = {i: F(1) for i in range(4)}
        dist = Distances(g, w)
        assert dist.path(0, 3) == [0, 1, 3]
        assert dist.path(3, 0) == [3, 1, 0]


class TestMetricClosure:
    def test_triangle_entries(self):
        g = triangle(1, 1, 3)
        w = {0: F(1), 1: F(1), 2: F(3)}
        dist = Distances(g, w)
        D = dist.among([0, 1, 2])
        assert sorted([D[0][1], D[1][2], D[0][2]]) == [1, 1, 2]
        assert dist.denom == 1

    def test_endpoints_only(self):
        g = path_graph([1, 1])
        w = {0: F(1), 1: F(1)}
        assert Distances(g, w).among([0, 2]) == [[0, 2], [2, 0]]

    def test_four_cycle_avoids_heavy_edge(self):
        # independent oracle: the two simple 0-3 paths cost 5 and 1+1+1=3
        edges = [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1)),
                 Edge(2, 3, F(1), F(1)), Edge(0, 3, F(5), F(5))]
        g = EstimateGraph(4, edges, 0, 3)
        w = {0: F(1), 1: F(1), 2: F(1), 3: F(5)}
        dist = Distances(g, w)
        assert dist.among([0, 3])[0][1] == 3
        assert dist.path(0, 3) == [0, 1, 2, 3]

    def test_expansion_resums_exactly(self):
        edges = [Edge(0, 1, F(1, 3), F(1)), Edge(1, 2, F(2, 7), F(1)),
                 Edge(0, 2, F(5, 2), F(3))]
        g = EstimateGraph(3, edges, 0, 2)
        w = {0: F(1, 3), 1: F(2, 7), 2: F(5, 2)}
        dist = Distances(g, w)
        D = dist.among([0, 1, 2])
        for u in (0, 1, 2):
            for v in (0, 1, 2):
                path = dist.path(u, v)
                total = sum((w[g.edge_between(a, b)]
                             for a, b in zip(path, path[1:])), F(0))
                assert total == F(D[u][v], dist.denom)

    def test_matrix_scaled_by_weight_denominator(self):
        # the pendant edge 2-4 of weight 1/7 lies on no shortest path
        # between required vertices: every closure distance is an integer,
        # yet the matrix is scaled by the weights' common denominator 7
        edges = [Edge(0, 1, F(1), F(2)), Edge(1, 2, F(2), F(2)),
                 Edge(2, 3, F(1), F(1)), Edge(0, 3, F(4), F(4)),
                 Edge(0, 2, F(2), F(3)), Edge(2, 4, F(1, 7), F(1))]
        g = EstimateGraph(5, edges, 0, 3)
        w = {eid: e.lower for eid, e in enumerate(edges)}
        required = (0, 1, 2, 3)
        dist = Distances(g, w)
        assert dist.denom == 7
        reference = fraction_floyd_warshall(g, w)
        for i, row in enumerate(dist.among(required)):
            for j, entry in enumerate(row):
                distance = reference[required[i]][required[j]]
                assert distance.denominator == 1
                assert entry == distance * 7
        task = CoverTask(weights=w, origin=0, destination=3,
                         must_visit=frozenset({1, 2}))
        walk, cost = optimal_cover_walk(g, task)
        bwalk, bcost = brute_force_cover(g, task)
        assert (walk.vertices, cost) == (bwalk.vertices, bcost)


def fraction_floyd_warshall(graph, weights):
    """Reference all-pairs distances over exact rationals, in plain loops."""
    n = graph.vertex_count
    d = [[F(0) if i == j else None for j in range(n)] for i in range(n)]
    for eid, e in enumerate(graph.edges):
        if d[e.a][e.b] is None or weights[eid] < d[e.a][e.b]:
            d[e.a][e.b] = d[e.b][e.a] = weights[eid]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] is not None and d[k][j] is not None and (
                        d[i][j] is None or d[i][k] + d[k][j] < d[i][j]):
                    d[i][j] = d[i][k] + d[k][j]
    return d


def assert_same_distances(graph, weights, lowered, fresh):
    """Distances equal to the reference (as rationals, whatever the
    denominators) and equal paths between every pair of vertices, from
    rows and from the matrix over every vertex."""
    n = graph.vertex_count
    reference = fraction_floyd_warshall(graph, weights)
    for u in range(n):
        assert (distances_from(lowered, u) == distances_from(fresh, u)
                == reference[u])
        for v in range(n):
            assert lowered.path(u, v) == fresh.path(u, v)
    everyone = list(range(n))
    assert ([[F(d, lowered.denom) for d in row]
             for row in lowered.among(everyone)]
            == [[F(d, fresh.denom) for d in row]
                for row in fresh.among(everyone)] == reference)


# small denominators keep int64; several of the large primes together
# push n * max scaled weight past 2**59 and the matrix to Python integers
DENOMINATORS = [1, 2, 3, 7, 10, 99991, 99989, 99971, 99961]


class TestDistances:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), seed=st.integers(0, 10_000),
           density=st.sampled_from([0.2, 0.5, 0.9]), data=st.data())
    def test_lowering_matches_a_fresh_build(self, n, seed, density, data):
        graph, _ = random_instance(n, density=density, seed=seed)
        weights = {eid: e.upper for eid, e in enumerate(graph.edges)}
        lowered = Distances(graph, weights)
        steps = data.draw(st.lists(st.tuples(
            st.integers(0, len(graph.edges) - 1),
            st.sampled_from(DENOMINATORS), st.integers(0, 1000)),
            max_size=2 * len(graph.edges)))
        for eid, den, k in steps:
            lower = graph.edges[eid].lower
            # a new weight in [lower, current] with denominator up to den
            w = lower + (weights[eid] - lower) * F(k % (den + 1), den)
            lowered.lower(graph.edges[eid].a, {eid: w})
            weights[eid] = w
        assert_same_distances(graph, weights, lowered,
                              Distances(graph, weights))

    def test_rescale_and_object_crossing(self):
        # K_6 at integer upper bounds: int64 with denominator 1; lowering
        # four edges to weights over large coprime denominators rescales
        # each time and finally crosses 2**59, into Python integers
        graph = complete_graph(6, F(2))
        weights = {eid: e.upper for eid, e in enumerate(graph.edges)}
        lowered = Distances(graph, weights)
        assert lowered.denom == 1 and lowered.row(0)[0] == 0
        for eid, den in zip((0, 5, 9, 14), (99991, 99989, 99971, 99961)):
            weights[eid] = 1 + F(eid + 1, den)
            lowered.lower(graph.edges[eid].a, {eid: weights[eid]})
        assert lowered.denom == 99991 * 99989 * 99971 * 99961
        assert lowered.denom * 2 * graph.vertex_count >= 1 << 59
        assert all(type(d) is int for d in lowered.row(3))
        fresh = Distances(graph, weights)
        assert_same_distances(graph, weights, lowered, fresh)
        task = CoverTask(weights=weights, origin=0, destination=5,
                         must_visit=frozenset(range(6)))
        assert optimal_cover_walk(graph, task) == brute_force_cover(graph,
                                                                    task)

    def test_lower_refuses_an_increase(self):
        g = path_graph([1, 2], intervals=[(1, 2), (1, 3)])
        dist = Distances(g, {0: F(2), 1: F(2)})
        dist.lower(0, {0: F(3, 2)})
        with pytest.raises(ValueError):
            dist.lower(0, {0: F(7, 4)})
        with pytest.raises(ValueError):
            dist.lower(1, {1: F(0)})

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), seed=st.integers(0, 10_000),
           density=st.sampled_from([0.2, 0.5, 0.9]), data=st.data())
    def test_arrival_repairs_match_a_fresh_build(self, n, seed, density,
                                                 data):
        # each repair lowers a subset of one vertex's edges at once, to
        # weights over the denominators, large primes included, so that
        # some batches rescale several times over and cross 2**59
        graph, _ = random_instance(n, density=density, seed=seed)
        weights = {eid: e.upper for eid, e in enumerate(graph.edges)}
        repaired = Distances(graph, weights)
        for _ in range(data.draw(st.integers(0, 2 * n))):
            v = data.draw(st.integers(0, n - 1))
            edges = data.draw(st.lists(
                st.sampled_from(graph.incident_edges(v)), unique=True))
            changes = {}
            for eid in edges:
                den = data.draw(st.sampled_from(DENOMINATORS))
                k = data.draw(st.integers(0, den))
                lower = graph.edges[eid].lower
                changes[eid] = lower + (weights[eid] - lower) * F(k, den)
            repaired.lower(v, changes)
            weights.update(changes)
        assert_same_distances(graph, weights, repaired,
                              Distances(graph, weights))

    def test_one_arrival_rescales_once_into_python_integers(self):
        # vertex 0 of K_6 lowers four edges over large coprime
        # denominators in one batch: one lcm takes the matrix past 2**59
        graph = complete_graph(6, F(2))
        weights = {eid: e.upper for eid, e in enumerate(graph.edges)}
        repaired = Distances(graph, weights)
        changes = {eid: 1 + F(eid + 1, den) for eid, den in
                   zip((0, 1, 2, 4), (99991, 99989, 99971, 99961))}
        repaired.lower(0, changes)
        weights.update(changes)
        assert repaired.denom == 99991 * 99989 * 99971 * 99961
        assert all(type(d) is int for d in repaired.row(3))
        assert_same_distances(graph, weights, repaired,
                              Distances(graph, weights))

    @pytest.mark.parametrize("refused", [
        {2: F(5, 2)}, {2: F(0)}, {1: F(1, 99991)}],
        ids=["increase", "zero", "not-incident"])
    def test_a_refused_change_moves_nothing(self, refused):
        # the batch's other change is a valid decrease with a new
        # denominator; the refusal leaves it, the denominator and every
        # distance as they were, and a later valid batch still repairs
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(3)), Edge(1, 2, F(1), F(3)),
                              Edge(0, 2, F(1), F(2))], 0, 2)
        weights = {0: F(3), 1: F(3), 2: F(2)}
        dist = Distances(g, weights)
        before = dist.denom, dist.among([0, 1, 2])
        with pytest.raises(ValueError):
            dist.lower(0, {0: F(4, 3), **refused})
        assert (dist.denom, dist.among([0, 1, 2])) == before
        dist.lower(0, {0: F(4, 3), 2: F(3, 2)})
        weights.update({0: F(4, 3), 2: F(3, 2)})
        assert_same_distances(g, weights, dist, Distances(g, weights))

    def test_unreachable_pairs(self):
        # a disconnected graph is refused before any distance is computed
        g = EstimateGraph(4, [Edge(0, 1, F(1), F(1)),
                              Edge(2, 3, F(1), F(1))], 0, 3)
        with pytest.raises(ValueError, match="disconnected"):
            Distances(g, {0: F(1), 1: F(1)})

    def test_vertex_limit_checked_before_allocating(self):
        g = EstimateGraph(MAX_VERTICES + 1, [Edge(0, 1, F(1), F(1))], 0, 1)
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            Distances(g, {0: F(1)})


class TestWalk:
    def test_walk_cost_and_validity(self):
        g = path_graph([1, 2])
        w = {0: F(1), 1: F(2)}
        walk = walk_of_vertices(g, [0, 1, 2, 1], w)
        assert walk.cost == F(5)
        assert walk_violations(g, walk, w) == []

    def test_non_adjacent_step_rejected(self):
        g = path_graph([1, 1])
        with pytest.raises(ValueError):
            walk_of_vertices(g, [0, 2], {0: F(1), 1: F(1)})

    @pytest.mark.parametrize("vertices, costs, problems", [
        ((), (), ["walk has no vertices"]),
        ((0, 1, 2), (F(1),),
         ["step cost count does not match vertex count"]),
        ((0, 2, 1), (F(1), F(1)),
         ["step 0: vertices 0,2 not adjacent"])])
    def test_violations_name_each_fault(self, vertices, costs, problems):
        g = path_graph([1, 1])
        w = {0: F(1), 1: F(1)}
        assert walk_violations(g, Walk(vertices, costs), w) == problems
