"""Property tests over randomly generated instances."""
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from boundwalk import (AdaptiveExplorer, CoverTask, Distances,
                       FixedAssignment, GridSpec, brute_force_cover,
                       build_grid_trap, complete_bipartite_graph,
                       complete_graph, make_explorer, move,
                       optimal_cover_walk, pessimistic_weights,
                       random_instance, start_episode, walk_violations,
                       solver)
from boundwalk.graph import WeightAssignment
from references import worst_case_cover_walk

instances = st.builds(
    lambda n, seed, density: random_instance(n, density=density, seed=seed),
    n=st.integers(2, 8), seed=st.integers(0, 10_000),
    density=st.sampled_from([0.2, 0.5, 0.9]))


def all_simple_path_distance(graph, weights, source, target):
    """Exhaustive simple-path enumeration; independent of Floyd-Warshall."""
    best = None
    stack = [(source, {source}, F(0))]
    while stack:
        v, seen, cost = stack.pop()
        if v == target:
            if best is None or cost < best:
                best = cost
            continue
        for u, eid in graph.neighbors(v):
            if u not in seen:
                stack.append((u, seen | {u}, cost + weights[eid]))
    return best


@settings(max_examples=40, deadline=None)
@given(instances)
def test_shortest_paths_match_exhaustive_enumeration(instance):
    graph, assignment = instance
    dist = Distances(graph, assignment.weights)
    row = [F(d, dist.denom) for d in dist.row(graph.start)]
    for v in range(graph.vertex_count):
        expected = all_simple_path_distance(graph, assignment.weights,
                                            graph.start, v)
        assert row[v] == expected
        # the path re-sums to the distance exactly
        path = dist.path(graph.start, v)
        assert path[0] == graph.start and path[-1] == v
        cost = sum((assignment.weights[graph.edge_between(a, b)]
                    for a, b in zip(path, path[1:])), F(0))
        assert cost == row[v]


@settings(max_examples=30, deadline=None)
@given(instances)
def test_metric_closure_is_a_metric(instance):
    graph, assignment = instance
    required = list(range(graph.vertex_count))
    D = Distances(graph, assignment.weights).among(required)
    for u in required:
        assert D[u][u] == 0
        for v in required:
            assert D[u][v] == D[v][u]
    for a, b, c in itertools.product(required, repeat=3):
        assert D[a][c] <= D[a][b] + D[b][c]


@settings(max_examples=30, deadline=None)
@given(instances)
def test_closure_expansion_resums_exactly(instance):
    graph, assignment = instance
    dist = Distances(graph, assignment.weights)
    D = dist.among(range(graph.vertex_count))
    for u in range(graph.vertex_count):
        for v in range(graph.vertex_count):
            path = dist.path(u, v)
            total = sum((assignment.weights[graph.edge_between(a, b)]
                         for a, b in zip(path, path[1:])), F(0))
            assert total == F(D[u][v], dist.denom)


@settings(max_examples=25, deadline=None)
@given(instances)
def test_exact_solver_agrees_with_brute_force(instance):
    graph, assignment = instance
    task = CoverTask.full_cover(graph, assignment.weights)
    walk, cost = optimal_cover_walk(graph, task)
    bwalk, bcost = brute_force_cover(graph, task)
    assert cost == bcost
    assert walk.vertices == bwalk.vertices
    assert walk_violations(graph, walk, assignment.weights) == []


@settings(max_examples=20, deadline=None)
@given(instances, st.sampled_from(["nn", "adaptive"]))
def test_episodes_maintain_view_invariants(instance, explorer_name):
    graph, assignment = instance
    source = FixedAssignment(assignment)
    explorer = make_explorer(explorer_name)
    view = start_episode(graph, source)
    while not view.is_complete:
        view = move(view, explorer.decide(view))
        incident = {eid for v in view.visited
                    for eid in graph.incident_edges(v)}
        assert set(view.revealed) == incident
        for eid, w in view.revealed.items():
            e = graph.edges[eid]
            assert e.lower <= w <= e.upper
        assert view.paid == sum((m.paid for m in view.history), F(0))
    assert view.position == graph.end
    assert view.visited == frozenset(range(graph.vertex_count))


@settings(max_examples=15, deadline=None)
@given(instances)
def test_episode_replay_is_byte_identical(instance):
    graph, assignment = instance
    source = FixedAssignment(assignment)
    traces = []
    for _ in range(2):
        explorer = make_explorer("adaptive")
        view = start_episode(graph, source)
        while not view.is_complete:
            view = move(view, explorer.decide(view))
        traces.append((view.history, view.reveals))
    assert traces[0] == traces[1]


# denominators of the actual weights: small ones, and primes near 10**5
# and 10**12, whose reveals rescale the episode's distances (the largest
# also past int64, into Python integers and the Python kernel)
DENOMINATORS = {"small": (2, 3, 4), "large": (99991, 99989, 99971),
                "huge": (999999999989, 999999999959)}


def plan_view_graph(family, size, seed):
    # beyond spread 2 a revealed detour can undercut an edge, which
    # changes the closure among the vertices still to visit
    alpha = F(3)
    if family == "complete":
        return complete_graph(size, alpha)
    if family == "bipartite":
        return complete_bipartite_graph(size, size, alpha, 0, size)
    if family == "grid":
        return build_grid_trap(GridSpec(4, F(7, 4)),
                               verify_adaptive=False).graph
    return random_instance(size + 2, density=0.5, alpha=alpha,
                           seed=seed)[0]


def replay_against_oracles(graph, seed, denominators):
    """One adaptive explorer through a whole episode of seeded actual
    weights, so its plans come from lowered (and rescaled) distances and
    reused suffix tables; each must be worst_case_cover_walk's first hop
    and cost, and brute force's within its reach."""
    rng = random.Random(seed)
    actual = {}
    for eid, e in enumerate(graph.edges):
        d = rng.choice(DENOMINATORS[denominators])
        actual[eid] = e.lower + (e.upper - e.lower) * F(rng.randint(0, d), d)
    explorer = AdaptiveExplorer()
    view = start_episode(graph, FixedAssignment(WeightAssignment(actual)))
    while not view.is_complete:
        hop = explorer.decide(view)
        walk, cost = worst_case_cover_walk(view)
        assert (hop, explorer.plan_costs[-1]) == (walk.vertices[1], cost)
        if len(view.unvisited | {view.position, graph.end}) <= 9:
            task = CoverTask(pessimistic_weights(graph, view.revealed),
                             view.position, graph.end, view.unvisited)
            bwalk, bcost = brute_force_cover(graph, task)
            assert (hop, cost) == (bwalk.vertices[1], bcost)
        view = move(view, hop)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["complete", "bipartite", "grid", "random"]),
       st.integers(3, 8), st.integers(0, 10_000),
       st.sampled_from(sorted(DENOMINATORS)))
def test_integer_plans_match_the_fraction_oracles(family, size, seed,
                                                  denominators):
    replay_against_oracles(plan_view_graph(family, size, seed), seed,
                           denominators)


@pytest.mark.parametrize("family", ["grid", "random"])
def test_plans_past_the_plan_cache_match_the_fraction_oracles(monkeypatch,
                                                              family):
    # 16 vertices, so the first plan has an interior of 14, past
    # solver._PLAN_CACHE_MAX, where a read computes its cell indices: the
    # grid trap at m = 4, and a spread-3/2 random instance whose
    # interior-14 table is also read again, kept, at the next decision
    if family == "grid":
        graph = plan_view_graph("grid", 4, 0)
    else:
        graph = random_instance(16, density=0.5, alpha=F(3, 2), seed=2)[0]
    assert graph.vertex_count == 16
    kept = []
    fits = solver.SuffixTable._fits

    def recording(self, D, vertices, rows):
        if fits(self, D, vertices, rows):
            kept.append(len(self._bits) - 1)
            return True
        return False

    monkeypatch.setattr(solver.SuffixTable, "_fits", recording)
    replay_against_oracles(graph, 1, "small")
    if family == "random":
        assert max(kept) > solver._PLAN_CACHE_MAX
