from fractions import Fraction as F

import pytest

from boundwalk import (AdaptiveExplorer, Edge, EstimateGraph, FixedAssignment,
                       GridSpec, SolverCapExceeded, alpha_of,
                       build_complete_adversary, build_grid_trap,
                       complete_graph, CompleteAdvSpec, make_explorer, move,
                       random_instance, random_uniform_assignment,
                       run_episode, solver, start_episode)
from boundwalk.graph import WeightAssignment


def run_trace(graph, source, explorer):
    """Vertex visit sequence of a full episode."""
    view = start_episode(graph, source)
    while not view.is_complete:
        view = move(view, explorer.decide(view))
    return view


def test_unknown_explorer_rejected():
    with pytest.raises(ValueError):
        make_explorer("dfs")


class TestPrecompute:
    def test_degenerate_intervals_reach_optimum(self):
        graph, assignment = random_instance(7, density=0.5, seed=2)
        degenerate = EstimateGraph(
            graph.vertex_count,
            [Edge(e.a, e.b, assignment.weight(i), assignment.weight(i))
             for i, e in enumerate(graph.edges)],
            graph.start, graph.end)
        rep = run_episode(degenerate, FixedAssignment(assignment),
                          make_explorer("precompute"))
        assert rep.ratio == F(1)

    def test_single_walk_instance(self):
        g = EstimateGraph(3, [Edge(0, 1, F(1), F(2)), Edge(1, 2, F(1), F(2))],
                          0, 2)
        src = FixedAssignment(WeightAssignment({0: F(2), 1: F(2)}))
        rep = run_episode(g, src, make_explorer("precompute"))
        assert rep.online_cost == F(4)
        assert rep.offline_cost == F(4)
        assert rep.ratio == F(1)

    def test_ratio_bounded_by_spread(self):
        for seed in range(25):
            graph, assignment = random_instance(4 + seed % 5, density=0.5,
                                                alpha=F(5, 2), seed=seed)
            rep = run_episode(graph, FixedAssignment(assignment),
                              make_explorer("precompute"))
            assert rep.ratio <= alpha_of(graph).alpha, f"seed {seed}"

    def test_ignores_revelations(self):
        # actuals make the precomputed walk bad, but it must stick to it
        g = complete_graph(4, F(2), start=0, end=3)
        actual = {}
        for eid, e in enumerate(g.edges):
            on_plan = (e.a, e.b) in ((0, 1), (1, 2), (2, 3))
            actual[eid] = F(2) if on_plan else F(1)
        rep = run_episode(g, FixedAssignment(WeightAssignment(actual)),
                          make_explorer("precompute"))
        assert [m.target for m in rep.moves] == [1, 2, 3]
        assert rep.online_cost == F(6)

    def test_replay_refuses_a_view_off_its_walk(self):
        # the plan on the triangle is 0, 1, 2; a view that went straight
        # to the end first is not on it, nor one with more moves than it
        g = complete_graph(3, F(2), start=0, end=2)
        src = FixedAssignment(WeightAssignment({0: F(1), 1: F(1), 2: F(1)}))
        explorer = make_explorer("precompute")
        view = start_episode(g, src)
        assert explorer.decide(view) == 1
        assert explorer.decide(view) == 1  # one decision, made twice
        off = move(view, 2)
        for view in (off, move(move(off, 0), 2)):
            with pytest.raises(RuntimeError, match="desynchronized"):
                explorer.decide(view)

    def test_cap_exceeded_propagates(self):
        g = complete_graph(12, F(2))
        src = FixedAssignment(WeightAssignment(
            {eid: F(1) for eid in range(len(g.edges))}))
        with pytest.raises(SolverCapExceeded):
            run_episode(g, src, make_explorer("precompute", cap=8))


class TestAdaptive:
    def test_follows_offline_optimum_when_degenerate(self):
        graph, assignment = random_instance(6, density=0.6, seed=5)
        degenerate = EstimateGraph(
            graph.vertex_count,
            [Edge(e.a, e.b, assignment.weight(i), assignment.weight(i))
             for i, e in enumerate(graph.edges)],
            graph.start, graph.end)
        rep = run_episode(degenerate, FixedAssignment(assignment),
                          make_explorer("adaptive"))
        assert rep.ratio == F(1)

    def test_never_exceeds_its_pessimistic_estimate(self):
        for seed in range(10):
            graph = complete_graph(7, F(7, 4))
            assignment = random_uniform_assignment(graph, seed)
            explorer = AdaptiveExplorer()
            view = run_trace(graph, FixedAssignment(assignment), explorer)
            paid = [m.paid for m in view.history]
            for i, plan_cost in enumerate(explorer.plan_costs):
                remaining = sum(paid[i:], F(0))
                assert remaining <= plan_cost

    def test_ratio_bound_on_lopsided_bipartite_graphs(self):
        # K_{n+1,n} with both endpoints on the bigger side stays
        # Hamiltonian-path extendable, so the (alpha+1)/2 bound applies
        from boundwalk import complete_bipartite_graph
        alpha = F(7, 4)
        for n in (2, 3, 4):
            graph = complete_bipartite_graph(n + 1, n, alpha,
                                             start=0, end=n)
            for seed in range(20):
                assignment = random_uniform_assignment(graph, seed)
                rep = run_episode(graph, FixedAssignment(assignment),
                                  make_explorer("adaptive"))
                assert rep.ratio <= (alpha + 1) / 2, (n, seed)

    def test_matches_greedy_on_uniform_complete_graphs(self):
        # below spread 2 the replanner takes the cheapest revealed edge to
        # an unvisited non-end vertex, never revisiting: compare with nn
        for seed in range(10):
            graph = complete_graph(6, F(3, 2))
            assignment = random_uniform_assignment(graph, seed)
            a_view = run_trace(graph, FixedAssignment(assignment),
                               make_explorer("adaptive"))
            n_view = run_trace(graph, FixedAssignment(assignment),
                               make_explorer("nn"))
            a_seq = a_view.visit_sequence
            n_seq = n_view.visit_sequence
            assert len(set(a_seq)) == len(a_seq), "revisit detected"
            assert a_seq[:-1] == n_seq[:-1]
            assert a_seq[-1] == n_seq[-1] == graph.end


class TestNearestNeighbor:
    def test_takes_cheap_revealed_edge(self):
        g = complete_graph(4, F(2), start=0, end=3)
        actual = {eid: (F(1) if 0 in (e.a, e.b) else F(2))
                  for eid, e in enumerate(g.edges)}
        view = start_episode(g, FixedAssignment(WeightAssignment(actual)))
        nxt = make_explorer("nn").decide(view)
        assert nxt == 1  # all weight-1 candidates, smallest id wins

    def test_ties_break_to_smaller_id(self):
        g = complete_graph(5, F(2), start=2, end=4)
        actual = {eid: F(1) for eid in range(len(g.edges))}
        view = start_episode(g, FixedAssignment(WeightAssignment(actual)))
        assert make_explorer("nn").decide(view) == 0

    def test_goes_to_end_vertex_last(self):
        graph = complete_graph(5, F(3, 2))
        assignment = random_uniform_assignment(graph, 3)
        view = run_trace(graph, FixedAssignment(assignment),
                         make_explorer("nn"))
        seq = view.visit_sequence
        assert graph.end not in seq[:-1]

    def test_multi_hop_target_via_first_step(self):
        # nn on a path: nearest unvisited is always the next vertex
        edges = [Edge(i, i + 1, F(1), F(1)) for i in range(4)]
        g = EstimateGraph(5, edges, 0, 4)
        src = FixedAssignment(WeightAssignment({i: F(1) for i in range(4)}))
        view = run_trace(g, src, make_explorer("nn"))
        assert view.visit_sequence == (0, 1, 2, 3, 4)


def test_all_explorers_complete_half_split_episodes():
    bundle = build_complete_adversary(CompleteAdvSpec(3, F(3, 2)))
    for name in ("precompute", "adaptive", "nn"):
        rep = run_episode(bundle.graph, bundle.source, make_explorer(name))
        assert rep.online_cost > 0
        assert rep.steps >= bundle.graph.vertex_count - 1


def grid_episode_source():
    bundle = build_grid_trap(GridSpec(4, F(3, 2)), verify_adaptive=False)
    return bundle.graph, FixedAssignment(bundle.assignment)


@pytest.mark.parametrize("name", ["precompute", "adaptive", "nn"])
def test_reused_explorer_decides_as_fresh_ones(name):
    # one explorer through whole episodes, then views out of order
    # (skipped, repeated, reversed, or alternating between two episodes
    # on one graph): every decision, and every plan cost, must be a fresh
    # explorer's, whatever per-episode state it keeps.  On the grid and
    # on the spread-3 random graph, reveals shorten distances among the
    # vertices still to visit, so a kept suffix table must be dropped;
    # on the random graph a stale one would change the second decision.
    # A one-edge graph's only plan, read twice, has an empty interior.
    bundle = build_complete_adversary(CompleteAdvSpec(4, F(3, 2)))
    graph, assignment = random_instance(9, density=0.4, seed=5)
    spread3, spread3_assignment = random_instance(6, density=0.5,
                                                  alpha=F(3), seed=5)
    edge = EstimateGraph(2, [Edge(0, 1, F(1), F(2))], 0, 1)
    episodes = []
    for g, source in ((bundle.graph, bundle.source),
                      (graph, FixedAssignment(assignment)),
                      (bundle.graph, FixedAssignment(
                          random_uniform_assignment(bundle.graph, 3))),
                      grid_episode_source(),
                      (spread3, FixedAssignment(spread3_assignment)),
                      (edge, FixedAssignment(WeightAssignment({0: F(3, 2)})))):
        views = [start_episode(g, source)]
        fresh = make_explorer(name)
        while not views[-1].is_complete:
            views.append(move(views[-1], fresh.decide(views[-1])))
        episodes.append(views[:-1])
    reused = make_explorer(name)
    first, _, third, grid, spread3_views, edge_views = episodes
    alternating = [pair[k % 2]
                   for k, pair in enumerate(zip(first, third))]
    order = (first + episodes[1] + first[::2] + first[1::2]
             + [first[2], first[2], first[3]] + first[::-1] + alternating
             + grid + grid[::-1] + spread3_views + edge_views * 2)
    for view in order:
        fresh = make_explorer(name)
        assert reused.decide(view) == fresh.decide(view)
        if name == "adaptive":
            assert reused.plan_costs[-1] == fresh.plan_costs[-1]


def test_adaptive_keeps_its_suffix_table_across_decisions(monkeypatch):
    # on K_14 at spread 3/2 no two-edge detour (at least 2) undercuts an
    # edge (at most 3/2), and edges among unvisited vertices stay
    # unrevealed: the closure among the vertices still to visit never
    # changes, so the first decision's table serves the whole episode
    builds = []
    build = solver._suffix_table

    def counted(*args):
        builds.append(len(args[2]))
        return build(*args)

    monkeypatch.setattr(solver, "_suffix_table", counted)
    bundle = build_complete_adversary(CompleteAdvSpec(7, F(3, 2)))
    explorer = make_explorer("adaptive")
    view = run_trace(bundle.graph, bundle.source, explorer)
    decisions = len(view.history)
    assert len(explorer.plan_costs) == decisions == 13
    assert builds == [12]
