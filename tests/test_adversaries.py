import hashlib
import json
from fractions import Fraction as F

import pytest

from boundwalk import (CompleteAdvSpec, GridSpec, InvalidSpec, RecursiveSpec,
                       alpha_of, build_bipartite_adversary,
                       build_complete_adversary, build_grid_trap,
                       build_recursive, complete_bipartite_graph,
                       make_explorer, move, random_instance,
                       random_uniform_assignment, realized_assignment,
                       recursive_certificate_cost, recursive_online_lower_bound,
                       recursive_vertex_count, run_episode, start_episode,
                       validate, walk_violations)
from boundwalk.adversaries import FAMILIES
from boundwalk.engine import FixedAssignment
from boundwalk.graph import MAX_VERTICES
from boundwalk.instance_io import instance_to_dict


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
        cert = bundle.certificate(assignment, view.visit_sequence)
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

    def test_degenerate_alpha_one_rejected_but_uniform_one_ok(self):
        with pytest.raises(InvalidSpec):
            CompleteAdvSpec(3, F(1)).validated()
        # ratio-1 sanity via a fixed all-ones assignment instead
        g = complete_bipartite_graph(3, 3, F(1), start=0, end=5)
        src = FixedAssignment(random_uniform_assignment(g, 0))
        rep = run_episode(g, src, make_explorer("adaptive"))
        assert rep.ratio == F(1)


class TestGridTrap:
    def test_small_grid_full_self_check(self):
        for alpha in (F(5, 4), F(3, 2), F(7, 4), F(1)):
            bundle = build_grid_trap(GridSpec(4, alpha))
            assert bundle.adaptive_verified
            assert bundle.expected_online == 15 * alpha
            assert bundle.certificate.cost <= bundle.certificate_bound
            assert validate(bundle.graph) == []
            assert alpha_of(bundle.graph).uniform or alpha == 1

    def test_large_grid_certificate_checked_simulation_excluded(self):
        bundle = build_grid_trap(GridSpec(6, F(3, 2)))
        assert not bundle.adaptive_verified
        assert "exact-solver cap" in bundle.skip_reason
        assert bundle.certificate.cost <= bundle.certificate_bound
        assert set(bundle.certificate.vertices) == set(range(36))

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
        profile = alpha_of(graph)
        assert profile.uniform
        assert profile.alpha == F(3, 2)

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
