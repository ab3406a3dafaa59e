import dataclasses
import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from boundwalk import (CompleteAdvSpec, GridSpec, InvalidSpec, RecursiveSpec,
                       alpha_of, build_bipartite_adversary,
                       build_complete_adversary, build_grid_trap,
                       build_recursive, complete_bipartite_graph,
                       make_explorer, move, random_instance,
                       random_uniform_assignment, realized_assignment,
                       recursive_certificate_cost, recursive_online_lower_bound,
                       recursive_vertex_count, run_episode, start_episode,
                       validate, walk_violations)
from boundwalk import adversaries
from boundwalk.adversaries import FAMILIES, GridTrapError, complete_graph
from boundwalk.engine import FixedAssignment
from boundwalk.graph import MAX_VERTICES, Distances, Walk, walk_of_vertices
from boundwalk.instance_io import instance_to_dict


def uniform(graph):
    """Whether every interval of `graph` is [1, alpha], alpha its spread."""
    alpha = alpha_of(graph).alpha
    return all(e.lower == 1 and e.upper == alpha for e in graph.edges)


def count_vertices_edges(k, depth):
    """Independent recursive counter for the construction's size."""
    if depth == 0:
        return k + 1, k
    n, e = count_vertices_edges(k, depth - 1)
    return 2 + k * n, k * e + 4 * k


class TestRecursiveFamily:
    def test_vertex_and_edge_counts_match_closed_forms(self):
        for k in (2, 3):
            for depth in (0, 1, 2):
                bundle = build_recursive(RecursiveSpec(k, depth, F(2)))
                n, e = count_vertices_edges(k, depth)
                assert bundle.graph.vertex_count == n
                assert len(bundle.graph.edges) == e
                assert recursive_vertex_count(k, depth) == n
                assert validate(bundle.graph) == []

    def test_depth_zero_is_a_plain_path(self):
        bundle = build_recursive(RecursiveSpec(3, 0, F(2)))
        assert bundle.graph.vertex_count == 4
        rep = run_episode(bundle.graph, bundle.source, make_explorer("nn"),
                          certificate=bundle.certificate)
        assert rep.online_cost == F(3)
        assert rep.offline_cost == F(3)

    def test_known_instantiations(self):
        spec = RecursiveSpec(3, 2, F(2)).validated()
        assert recursive_online_lower_bound(spec) == F(2 * 7 * 9 + 27)
        assert recursive_certificate_cost(spec) == F(2 * 4 * 9 + 27)
        spec2 = RecursiveSpec(2, 2, F(2)).validated()
        assert recursive_certificate_cost(spec2) == F(32)

    def test_alpha_above_two_clamps(self):
        spec = RecursiveSpec(2, 1, F(3)).validated()
        assert spec.alpha == F(2)
        bundle = build_recursive(RecursiveSpec(2, 1, F(3)))
        assert alpha_of(bundle.graph).alpha == F(2)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            RecursiveSpec(1, 1, F(2)).validated()
        with pytest.raises(InvalidSpec):
            RecursiveSpec(2, -1, F(2)).validated()
        with pytest.raises(InvalidSpec):
            RecursiveSpec(2, 1, F(1)).validated()

    def test_completion_of_untouched_pairs_uses_smaller_ids(self):
        # vertex 0, then two level-0 paths 1-2-3 and 4-5-6, then vertex 7;
        # after a visit to 0 alone, neither pair of a connector between
        # the paths is touched: the smaller endpoint governs, and each
        # pair's start side is its smaller vertex
        bundle = build_recursive(RecursiveSpec(2, 1, F(2)))
        g = bundle.graph
        complete = bundle.source.complete
        assert complete(g.edge_between(1, 4), (0,)) == F(2)
        assert complete(g.edge_between(3, 4), (0,)) == F(4)
        assert complete(g.edge_between(3, 6), (0,)) == F(4)

    def test_reveals_depend_on_first_touched_side(self):
        bundle = build_recursive(RecursiveSpec(2, 1, F(2)))
        g = bundle.graph
        view = start_episode(g, bundle.source)
        # edges at the global start both reveal cheap (level 1 base = 2)
        assert sorted(view.revealed.values()) == [F(2), F(2)]

    def test_all_explorers_meet_online_lower_bound(self):
        for depth in (0, 1):
            for alpha in (F(3, 2), F(2)):
                spec = RecursiveSpec(2, depth, alpha)
                bundle = build_recursive(spec)
                bound = recursive_online_lower_bound(spec.validated())
                for name in ("precompute", "adaptive", "nn"):
                    rep = run_episode(bundle.graph, bundle.source,
                                      make_explorer(name),
                                      certificate=bundle.certificate)
                    assert rep.online_cost >= bound, (depth, alpha, name)

    def test_certificate_matches_formula_and_oracle(self):
        spec = RecursiveSpec(2, 1, F(2))
        bundle = build_recursive(spec)
        rep = run_episode(bundle.graph, bundle.source, make_explorer("nn"),
                          certificate=bundle.certificate)
        formula = recursive_certificate_cost(spec.validated())
        assert rep.offline_kind == "exact"
        assert rep.offline_cost == formula
        # certificate walk itself prices to the formula on realized weights
        view = start_episode(bundle.graph, bundle.source)
        ex = make_explorer("nn")
        while not view.is_complete:
            view = move(view, ex.decide(view))
        assignment = realized_assignment(bundle.graph, view, bundle.source)
        cert = bundle.certificate(assignment)
        assert walk_violations(bundle.graph, cert, assignment.weights) == []
        assert cert.cost == formula


class TestHalfSplitAdversary:
    def test_first_half_visits_are_cheap(self):
        bundle = build_complete_adversary(CompleteAdvSpec(4, F(2)))
        view = start_episode(bundle.graph, bundle.source)
        for target in (1, 2, 3):
            view = move(view, target)
        assert all(w == F(1) for w in view.revealed.values())
        view = move(view, 4)
        expensive = [eid for eid, w in view.revealed.items() if w == F(2)]
        cheap_new = [eid for eid in view.revealed
                     if 4 in bundle.graph.edges[eid][:2]
                     and view.revealed[eid] == F(1)]
        assert expensive  # edges from 4 into the second half
        assert cheap_new  # edges from 4 back into the first half

    def test_adaptive_costs_scale_with_half_size(self):
        for k in (3, 5):
            bundle = build_complete_adversary(CompleteAdvSpec(k, F(2)))
            rep = run_episode(bundle.graph, bundle.source,
                              make_explorer("adaptive"))
            assert rep.online_cost == F(k + (k - 1) * 2)
            assert rep.offline_cost == F(2 * k - 1)

    def test_ratio_trend_toward_limit(self):
        ratios = []
        for k in (3, 4, 5, 6):
            bundle = build_complete_adversary(CompleteAdvSpec(k, F(2)))
            rep = run_episode(bundle.graph, bundle.source,
                              make_explorer("adaptive"))
            ratios.append(rep.ratio)
        assert ratios == sorted(ratios)
        assert all(r <= F(3, 2) for r in ratios)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 4), bipartite=st.booleans(), data=st.data())
    def test_weights_follow_the_rule_on_every_prefix(self, k, bipartite,
                                                     data):
        # asked in a drawn order about prefixes of several visit
        # sequences, then about every prefix and edge in turn, each time
        # with a fresh copy (an equal sequence that is another object, a
        # tuple or a list), the kept cheap set never answers for another
        # sequence
        build = (build_bipartite_adversary if bipartite
                 else build_complete_adversary)
        bundle = build(CompleteAdvSpec(k, F(2)))
        graph, source = bundle.graph, bundle.source
        vertex = st.integers(0, graph.vertex_count - 1)
        walks = data.draw(st.lists(st.lists(vertex, min_size=1, max_size=8),
                                   min_size=1, max_size=3))
        prefixes = [walk[:i] for walk in walks
                    for i in range(1, len(walk) + 1)]
        asks = data.draw(st.lists(st.tuples(
            st.sampled_from(prefixes), st.booleans(),
            st.sampled_from(range(len(graph.edges))),
            st.sampled_from([source.reveal, source.complete])),
            min_size=len(prefixes), max_size=4 * len(prefixes)))
        asks += [(p, True, eid, call) for p in prefixes
                 for eid in range(len(graph.edges))
                 for call in (source.reveal, source.complete)]
        for prefix, as_tuple, eid, call in asks:
            cheap = set(list(dict.fromkeys(prefix))[:k])
            e = graph.edges[eid]
            expected = F(1) if cheap & {e.a, e.b} else F(2)
            # made in the call and freed after it, so the next copy may
            # take its place in memory
            copy = tuple if as_tuple else list
            assert call(eid, copy(prefix)) == expected, (prefix, eid)

    def test_complete_graph_needs_two_vertices(self):
        with pytest.raises(InvalidSpec, match="n >= 2"):
            complete_graph(1, F(2))

    def test_alpha_clamped_above_two(self):
        spec = CompleteAdvSpec(3, F(5, 2)).validated()
        assert spec.alpha == F(2)


class TestBipartiteAdversary:
    def test_structure_and_endpoints(self):
        bundle = build_bipartite_adversary(CompleteAdvSpec(3, F(2)))
        g = bundle.graph
        assert g.vertex_count == 6
        assert len(g.edges) == 9
        assert g.start < 3 <= g.end
        assert validate(g) == []

    def test_small_ratio_within_bound(self):
        for n in (2, 3, 4):
            alpha = F(7, 4)
            bundle = build_bipartite_adversary(CompleteAdvSpec(n, alpha))
            rep = run_episode(bundle.graph, bundle.source,
                              make_explorer("adaptive"))
            assert rep.ratio <= (alpha + 1) / 2

    def test_refusals_name_the_family_parameter_n(self):
        with pytest.raises(InvalidSpec, match="bad parameter 'n': expected "
                           "an integer >= 2, got 1"):
            build_bipartite_adversary(CompleteAdvSpec(1, F(2)))
        with pytest.raises(InvalidSpec, match="parameter 'n': 600 would "
                           "build more than"):
            build_bipartite_adversary(CompleteAdvSpec(600, F(2)))
        # and alpha is clamped as for the complete family
        bundle = build_bipartite_adversary(CompleteAdvSpec(2, F(5, 2)))
        assert {e.upper for e in bundle.graph.edges} == {F(2)}

    def test_degenerate_alpha_one_rejected_but_uniform_one_ok(self):
        with pytest.raises(InvalidSpec):
            CompleteAdvSpec(3, F(1)).validated()
        # ratio-1 sanity via a fixed all-ones assignment instead
        g = complete_bipartite_graph(3, 3, F(1), start=0, end=5)
        src = FixedAssignment(random_uniform_assignment(g, 0))
        rep = run_episode(g, src, make_explorer("adaptive"))
        assert rep.ratio == F(1)


class TestEndpointAdversaries:
    """The adaptive adversaries are endpoint adversaries: each weight they
    reveal or complete is its edge's `lower` or `upper`, and a point
    interval's one value."""

    @pytest.mark.parametrize("build,spec", [
        (build_recursive, RecursiveSpec(2, 1, F(3, 2))),
        (build_recursive, RecursiveSpec(3, 1, F(2))),
        (build_recursive, RecursiveSpec(2, 2, F(3))),
        (build_complete_adversary, CompleteAdvSpec(3, F(3, 2))),
        (build_bipartite_adversary, CompleteAdvSpec(3, F(2)))],
        ids=["recursive-1", "recursive-1-k3", "recursive-2", "complete",
             "bipartite"])
    def test_every_weight_is_an_interval_end(self, build, spec):
        built = build(spec)
        graph, source = built.graph, built.source
        rng = random.Random(0)
        seen = set()  # which ends were given, over every call
        for _ in range(40):
            # a random walk from s: the visit prefix of some explorer
            walk = [graph.start]
            for _ in range(rng.randrange(2 * graph.vertex_count)):
                walk.append(rng.choice(graph.neighbors(walk[-1]))[0])
            calls = [(source.reveal, eid)
                     for _, eid in graph.neighbors(walk[-1])]
            calls += [(source.complete, eid)
                      for eid in range(len(graph.edges))]
            for call, eid in calls:
                e = graph.edges[eid]
                w = call(eid, walk)
                assert w in (e.lower, e.upper), (call.__name__, eid, walk)
                seen.add("point" if e.lower == e.upper
                         else "lower" if w == e.lower else "upper")
        point = any(e.lower == e.upper for e in graph.edges)
        assert seen == {"lower", "upper"} | ({"point"} if point else set())


class TestGridTrap:
    def test_small_grid_full_self_check(self):
        for alpha in (F(5, 4), F(3, 2), F(7, 4), F(1)):
            bundle = build_grid_trap(GridSpec(4, alpha))
            assert bundle.skip_reason is None
            assert bundle.expected_online == 15 * alpha
            assert bundle.certificate.cost <= bundle.certificate_bound
            assert validate(bundle.graph) == []
            assert uniform(bundle.graph) or alpha == 1

    def test_large_grid_certificate_checked_simulation_excluded(self):
        bundle = build_grid_trap(GridSpec(6, F(3, 2)))
        assert "exact-solver cap" in bundle.skip_reason
        assert bundle.certificate.cost <= bundle.certificate_bound
        assert set(bundle.certificate.vertices) == set(range(36))

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_even_grid_tail_is_a_cheapest_path(self, m):
        # the serpentine ends at (m-1, 0); its constructed tail to the end
        # corner costs what a shortest path there costs, at alphas whose
        # trap is effective up to m = 12 (README, Families)
        for alpha in (F(1), F(21, 20), F(6, 5), F(5, 4), F(3, 2)):
            bundle = build_grid_trap(GridSpec(m, alpha),
                                     verify_adaptive=False)
            graph, weights = bundle.graph, bundle.assignment.weights
            serpentine = list(bundle.certificate.vertices[:m * m])
            tail = Distances(graph, weights).path(serpentine[-1], graph.end)
            cheapest = walk_of_vertices(graph, serpentine + tail[1:], weights)
            tail_cost = (bundle.certificate.cost
                         - walk_of_vertices(graph, serpentine, weights).cost)
            assert bundle.certificate.cost == cheapest.cost, (m, alpha)
            assert tail_cost == (m + 1) * alpha + m - 3, (m, alpha)

    def test_refused_sizes_are_the_ones_readme_lists(self):
        # every size the vertex limit allows, at README's nine alphas
        def readme(m, alpha):
            # (least even m, least m) refused at each alpha, None for none
            even, every = {F(6, 5): (28, None), F(5, 4): (24, None),
                           F(3, 2): (16, 24), F(7, 4): (12, 20),
                           F(19, 10): (12, 18),
                           F(199, 100): (12, 16)}.get(alpha, (None, None))
            return ((even is not None and m % 2 == 0 and m >= even)
                    or (every is not None and m >= every))

        alphas = (F(1), F(21, 20), F(11, 10), F(6, 5), F(5, 4), F(3, 2),
                  F(7, 4), F(19, 10), F(199, 100))
        for alpha in alphas:
            for m in range(4, 33):
                try:
                    build_grid_trap(GridSpec(m, alpha), verify_adaptive=False)
                    refused = False
                except GridTrapError as exc:
                    assert "trap not effective" in str(exc)
                    refused = True
                assert refused == readme(m, alpha), (m, alpha)

    @pytest.mark.parametrize("fault, message", [
        ("costly", "certificate cost"),
        ("short", "not a covering s-t walk")])
    def test_bad_certificate_refuses_the_build(self, monkeypatch, fault,
                                               message):
        certify = adversaries._grid_certificate

        def certificate(graph, assignment, m):
            walk = certify(graph, assignment, m)
            if fault == "costly":
                return Walk(walk.vertices,
                            tuple(4 * c for c in walk.step_costs))
            return Walk(walk.vertices[:-1], walk.step_costs[:-1])

        monkeypatch.setattr(adversaries, "_grid_certificate", certificate)
        with pytest.raises(GridTrapError, match=message):
            build_grid_trap(GridSpec(4, F(3, 2)), verify_adaptive=False)

    def test_cheaper_replanning_refuses_the_build(self, monkeypatch):
        episode = adversaries.run_episode

        def cheaper(*args, **kwargs):
            report = episode(*args, **kwargs)
            return dataclasses.replace(report,
                                       online_cost=report.online_cost - 1)

        monkeypatch.setattr(adversaries, "run_episode", cheaper)
        with pytest.raises(GridTrapError, match="replanning explorer paid"):
            build_grid_trap(GridSpec(4, F(3, 2)))

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            GridSpec(3, F(3, 2)).validated()
        with pytest.raises(InvalidSpec):
            GridSpec(5, F(2)).validated()

    def test_serializes_with_actuals(self):
        bundle = build_grid_trap(GridSpec(4, F(3, 2)), verify_adaptive=False)
        data = instance_to_dict(bundle.graph, bundle.assignment)
        assert all("actual" in e for e in data["edges"])


class TestRandomInstances:
    def test_seed_reproducibility(self):
        a = random_instance(9, density=0.4, seed=7)
        b = random_instance(9, density=0.4, seed=7)
        assert instance_to_dict(*a) == instance_to_dict(*b)
        c = random_instance(9, density=0.4, seed=8)
        assert instance_to_dict(*a) != instance_to_dict(*c)

    def test_uniform_law_sets_profile_flag(self):
        graph, _ = random_instance(6, law="uniform", alpha=F(3, 2), seed=1)
        assert uniform(graph)
        assert alpha_of(graph).alpha == F(3, 2)

    def test_instances_are_valid_with_contained_actuals(self):
        for seed in range(15):
            graph, assignment = random_instance(2 + seed % 8, density=0.7,
                                                seed=seed)
            assert validate(graph) == []
            for eid, e in enumerate(graph.edges):
                assert e.lower <= assignment.weight(eid) <= e.upper

    def test_instance_bytes_pinned(self):
        # bounds, actuals, edges and ends of 432 instances, pinned by one
        # sha256 recorded before the bounds and actuals were built over a
        # common denominator; the values do not depend on density, which
        # is kept low for large n only to keep the test short
        digest = hashlib.sha256()
        for law in ("uniform", "mixed"):
            for n in (2, 3, 8, 30, 60, 200):
                for alpha in ("1", "5/4", "3/2", "2", "199/100", "7/3"):
                    for seed in range(6):
                        data = instance_to_dict(*random_instance(
                            n, density=0.5 if n <= 30 else 0.02, law=law,
                            alpha=F(alpha), seed=seed))
                        digest.update(json.dumps(data, sort_keys=True)
                                      .encode("utf-8"))
        assert digest.hexdigest() == (
            "15bc1c4b40c4336b2b03e8bc32007c5a19f6397ad4c602b456222434289d7d75")

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidSpec):
            random_instance(1, seed=0)
        with pytest.raises(InvalidSpec):
            random_instance(5, law="gaussian", seed=0)


class TestFamilyVertexLimit:
    # nothing here is built: parse checks the count the builder would make
    @pytest.mark.parametrize("family, largest, smallest_over", [
        ("random", {"n": 1024}, {"n": 1025}),
        ("bipartite", {"n": 512}, {"n": 513}),
        ("complete", {"k": 512}, {"k": 513}),
        # grid's default alpha 2 is outside its own range
        ("grid", {"m": 32, "alpha": "3/2"}, {"m": 33, "alpha": "3/2"}),
        ("recursive", {"k": 2, "depth": 7}, {"k": 2, "depth": 8}),
        ("recursive", {"k": 31, "depth": 1}, {"k": 32, "depth": 1}),
    ])
    def test_limit_is_the_built_vertex_count(self, family, largest,
                                             smallest_over):
        spec = FAMILIES[family]
        assert spec.vertices(spec.parse(largest)) <= MAX_VERTICES
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            spec.parse(smallest_over)

    def test_recursive_huge_depth_never_loops(self):
        assert recursive_vertex_count(2, 8) == 1278
        spec = FAMILIES["recursive"]
        for k in (2, 3, 10**18):
            with pytest.raises(ValueError, match=str(MAX_VERTICES)):
                spec.parse({"k": k, "depth": 10**18})
        # sizes the builder refuses are refused while parsing, named
        for k in (-1, 0, 1):
            with pytest.raises(ValueError, match="'k'"):
                spec.parse({"k": k, "depth": 10**18})
