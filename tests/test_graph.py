from fractions import Fraction as F

import pytest

from boundwalk import (AlphaProfile, CoverTask, Edge, EstimateGraph, alpha_of,
                       brute_force_cover, metric_closure, optimal_cover_walk,
                       shortest_paths, validate, walk_of_vertices,
                       walk_violations)


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


class TestAlphaProfile:
    def test_uniform_intervals(self):
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(2)), Edge(1, 2, F(1), F(2))],
                          0, 2)
        assert alpha_of(g) == AlphaProfile(F(2), True)

    def test_max_of_ratios(self):
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(2), F(3))],
                          0, 2)
        assert alpha_of(g) == AlphaProfile(F(3, 2), False)

    def test_uniform_needs_every_interval_equal(self):
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(3, 2)),
                              Edge(1, 2, F(1), F(2))], 0, 2)
        assert alpha_of(g) == AlphaProfile(F(2), False)


class TestShortestPaths:
    def test_triangle_detour_beats_heavy_edge(self):
        g = triangle(1, 1, 3)
        w = {0: F(1), 1: F(1), 2: F(3)}
        dists, _ = shortest_paths(g, w, 0)
        assert dists[2] == F(2)

    def test_unit_path_distances(self):
        g = path_graph([1, 1, 1, 1])
        w = {i: F(1) for i in range(4)}
        dists, _ = shortest_paths(g, w, 0)
        assert [dists[v] for v in range(5)] == [F(0), F(1), F(2), F(3), F(4)]

    def test_star_leaf_to_leaf(self):
        edges = [Edge(0, 1, F(1), F(1)), Edge(0, 2, F(1), F(1)),
                 Edge(0, 3, F(1), F(1))]
        g = EstimateGraph(4, edges, 1, 2)
        w = {0: F(1), 1: F(1), 2: F(1)}
        dists, _ = shortest_paths(g, w, 1)
        assert dists[2] == F(2)

    def test_rejects_nonpositive_weights(self):
        g = path_graph([1])
        with pytest.raises(ValueError):
            shortest_paths(g, {0: F(0)}, 0)
        with pytest.raises(ValueError):
            shortest_paths(g, {}, 0)

    def test_predecessors_prefer_smaller_vertex(self):
        # two equal-cost routes 0-1-3 and 0-2-3: reconstruct via vertex 1
        edges = [Edge(0, 1, F(1), F(1)), Edge(0, 2, F(1), F(1)),
                 Edge(1, 3, F(1), F(1)), Edge(2, 3, F(1), F(1))]
        g = EstimateGraph(4, edges, 0, 3)
        w = {i: F(1) for i in range(4)}
        _, preds = shortest_paths(g, w, 0)
        assert preds[3] == 1


class TestMetricClosure:
    def test_triangle_entries(self):
        g = triangle(1, 1, 3)
        w = {0: F(1), 1: F(1), 2: F(3)}
        mc = metric_closure(g, w, [0, 1, 2])
        assert sorted([mc.distance(0, 1), mc.distance(1, 2),
                       mc.distance(0, 2)]) == [F(1), F(1), F(2)]

    def test_endpoints_only(self):
        g = path_graph([1, 1])
        w = {0: F(1), 1: F(1)}
        mc = metric_closure(g, w, [0, 2])
        assert mc.distance(0, 2) == F(2)

    def test_four_cycle_avoids_heavy_edge(self):
        # independent oracle: the two simple 0-3 paths cost 5 and 1+1+1=3
        edges = [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1)),
                 Edge(2, 3, F(1), F(1)), Edge(0, 3, F(5), F(5))]
        g = EstimateGraph(4, edges, 0, 3)
        w = {0: F(1), 1: F(1), 2: F(1), 3: F(5)}
        mc = metric_closure(g, w, [0, 3])
        assert mc.distance(0, 3) == F(3)
        assert mc.expand(0, 3) == (0, 1, 2, 3)

    def test_expansion_resums_exactly(self):
        edges = [Edge(0, 1, F(1, 3), F(1)), Edge(1, 2, F(2, 7), F(1)),
                 Edge(0, 2, F(5, 2), F(3))]
        g = EstimateGraph(3, edges, 0, 2)
        w = {0: F(1, 3), 1: F(2, 7), 2: F(5, 2)}
        mc = metric_closure(g, w, [0, 1, 2])
        for u in (0, 1, 2):
            for v in (0, 1, 2):
                path = mc.expand(u, v)
                total = sum((w[g.edge_between(a, b)]
                             for a, b in zip(path, path[1:])), F(0))
                assert total == mc.distance(u, v)

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
        mc = metric_closure(g, w, required)
        assert mc.vertices == required
        assert mc.denom == 7
        for i, u in enumerate(required):
            for j, v in enumerate(required):
                assert mc.distance(u, v).denominator == 1
                assert mc.matrix[i][j] == mc.distance(u, v) * mc.denom
        task = CoverTask(weights=w, origin=0, destination=3,
                         must_visit=frozenset({1, 2}))
        walk, cost = optimal_cover_walk(g, task)
        bwalk, bcost = brute_force_cover(g, task)
        assert (walk.vertices, cost) == (bwalk.vertices, bcost)


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
