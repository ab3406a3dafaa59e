from fractions import Fraction as F

import pytest

from boundwalk import (AdversaryFault, Edge, EstimateGraph, FixedAssignment,
                       IllegalMove, Nontermination, build_complete_adversary,
                       complete_graph, CompleteAdvSpec, make_explorer, move,
                       random_instance, random_uniform_assignment,
                       realized_assignment, run_episode, start_episode)
from boundwalk import engine
from boundwalk.engine import EngineError, Explorer, WeightSource
from boundwalk.graph import Walk, WeightAssignment


def p2(actual=F(1)):
    g = EstimateGraph(2, [Edge(0, 1, F(1), F(2))], 0, 1)
    return g, FixedAssignment(WeightAssignment({0: actual}))


def p3():
    g = EstimateGraph(3, [Edge(0, 1, F(1), F(1)), Edge(1, 2, F(1), F(1))],
                      0, 2)
    return g, FixedAssignment(WeightAssignment({0: F(1), 1: F(1)}))


class TestStartEpisode:
    def test_single_edge_revealed(self):
        g, src = p2()
        view = start_episode(g, src)
        assert view.revealed == {0: F(1)}
        assert view.visited == {0}
        assert view.paid == F(0)

    def test_star_center_reveals_everything(self):
        edges = [Edge(0, 1, F(1), F(2)), Edge(0, 2, F(1), F(2)),
                 Edge(0, 3, F(1), F(2))]
        g = EstimateGraph(4, edges, 0, 3)
        src = FixedAssignment(WeightAssignment({0: F(1), 1: F(2), 2: F(1)}))
        view = start_episode(g, src)
        assert set(view.revealed) == {0, 1, 2}

    def test_half_split_adversary_reveals_cheap_start(self):
        bundle = build_complete_adversary(CompleteAdvSpec(4, F(2)))
        view = start_episode(bundle.graph, bundle.source)
        assert len(view.revealed) == 7
        assert all(w == F(1) for w in view.revealed.values())

    def test_view_check_catches_a_dropped_start_reveal(self, monkeypatch):
        g, src = p3()
        honest = engine._reveal_incident

        def dropping(graph, source, revealed, vertex, seq):
            events = honest(graph, source, revealed, vertex, seq)
            del revealed[events[0].edge]
            return events

        monkeypatch.setattr(engine, "_reveal_incident", dropping)
        with pytest.raises(EngineError,
                           match="edge incident to vertex 0 is unrevealed"):
            start_episode(g, src)

    def test_out_of_interval_reveal_is_adversary_fault(self):
        g = EstimateGraph(2, [Edge(0, 1, F(1), F(2))], 0, 1)
        src = FixedAssignment(WeightAssignment({0: F(3)}))
        with pytest.raises(AdversaryFault):
            start_episode(g, src)

    @pytest.mark.parametrize("w, inside", [
        (F(3, 2), True), (F(5, 2), True), (2, True),
        (F(3, 2) - F(1, 10**9), False), (F(5, 2) + F(1, 10**9), False),
        (1, False), (3, False)],
        ids=["lower", "upper", "int-inside", "just-below", "just-above",
             "int-below", "int-above"])
    def test_interval_checks_are_exact_at_the_bounds(self, w, inside):
        # the reveal and the completion each compare exactly: a bound is
        # inside, one part in 10**9 beyond it is not, and an int weight
        # counts as its value
        g = EstimateGraph(3, [Edge(0, 1, F(3, 2), F(5, 2)),
                              Edge(1, 2, F(3, 2), F(5, 2))], 0, 2)
        view = start_episode(g, FixedAssignment(WeightAssignment(
            {0: F(2), 1: F(2)})))
        src = FixedAssignment(WeightAssignment({0: w, 1: w}))
        checks = [(lambda: start_episode(g, src), "weight .* for edge 0 "
                   r"outside \[3/2, 5/2\]"),
                  (lambda: realized_assignment(g, view, src),
                   "completion weight .* for edge 1 outside interval")]
        for check, message in checks:
            if inside:
                check()
            else:
                with pytest.raises(AdversaryFault, match=message):
                    check()


class TestMove:
    def test_single_traversal_pays(self):
        g, src = p2()
        view = move(start_episode(g, src), 1)
        assert view.paid == F(1)
        assert view.is_complete

    def test_revisit_pays_again(self):
        g, src = p3()
        view = start_episode(g, src)
        view = move(view, 1)
        view = move(view, 0)
        view = move(view, 1)
        assert view.paid == F(3)

    def test_illegal_move_rejected(self):
        g, src = p3()
        view = start_episode(g, src)
        with pytest.raises(IllegalMove):
            move(view, 2)

    def test_reveal_set_tracks_visits(self):
        g = complete_graph(5, F(2))
        src = FixedAssignment(WeightAssignment(
            {eid: F(1) for eid in range(len(g.edges))}))
        view = start_episode(g, src)
        for target in (1, 2):
            view = move(view, target)
            expected = {eid for v in view.visited
                        for eid in g.incident_edges(v)}
            assert set(view.revealed) == expected

    def test_revealed_is_read_only(self):
        g, src = p3()
        view = start_episode(g, src)
        for v in (view, move(view, 1)):
            with pytest.raises(TypeError):
                v.revealed[0] = F(2)
            with pytest.raises(TypeError):
                del v.revealed[0]

    def test_out_of_interval_reveal_mid_episode_is_adversary_fault(self):
        # the start's edges are honest; the first edge revealed at vertex
        # 2 comes back above its announced upper bound
        g = complete_graph(4, F(2))

        class LateLiar:
            def reveal(self, eid, seq):
                return F(3) if seq[-1] == 2 else F(1)

            def complete(self, eid, seq):
                return F(1)

        view = move(start_episode(g, LateLiar()), 1)
        with pytest.raises(AdversaryFault):
            move(view, 2)

    @pytest.mark.parametrize("fault",
                             ["drop", "extra", "elsewhere", "duplicate"])
    def test_step_check_catches_a_wrong_reveal_set(self, fault,
                                                   monkeypatch):
        # a faulty reveal step: an incident edge left out, an edge added
        # without an event, an event for an edge away from the target, or
        # an edge added away from the target and hidden by a repeated event
        g = complete_graph(5, F(2))
        src = FixedAssignment(WeightAssignment(
            {eid: F(1) for eid in range(len(g.edges))}))
        view = move(start_episode(g, src), 1)
        honest = engine._reveal_incident

        def faulty(graph, source, revealed, vertex, seq):
            events = honest(graph, source, revealed, vertex, seq)
            if fault == "drop":
                del revealed[events.pop().edge]
            elif fault == "extra":
                revealed[g.edge_between(3, 4)] = F(1)
            elif fault == "duplicate":
                revealed[g.edge_between(3, 4)] = F(1)
                events.append(events[-1])
            else:
                eid = g.edge_between(3, 4)
                revealed[eid] = F(1)
                events.append(engine.Reveal(eid, F(1), vertex))
            return events

        monkeypatch.setattr(engine, "_reveal_incident", faulty)
        with pytest.raises(EngineError):
            move(view, 2)


class TestRunEpisode:
    def test_unique_walk_ratio_one(self):
        g, src = p3()
        rep = run_episode(g, src, make_explorer("adaptive"))
        assert rep.online_cost == rep.offline_cost == F(2)
        assert rep.ratio == F(1)
        assert rep.offline_kind == "exact"

    def test_half_split_adversary_costs(self):
        bundle = build_complete_adversary(CompleteAdvSpec(4, F(2)))
        rep = run_episode(bundle.graph, bundle.source,
                          make_explorer("adaptive"))
        assert rep.online_cost == F(4 + 3 * 2)
        assert rep.offline_cost == F(7)

    def test_step_cap_guards_nontermination(self):
        g, src = p3()

        class PingPong:
            name = "pingpong"

            def decide(self, view):
                return 0 if view.position == 1 else 1

        with pytest.raises(Nontermination):
            run_episode(g, src, PingPong())

    def test_replay_determinism(self):
        bundle = build_complete_adversary(CompleteAdvSpec(5, F(3, 2)))
        first = run_episode(bundle.graph, bundle.source,
                            make_explorer("adaptive"))
        second = run_episode(bundle.graph, bundle.source,
                             make_explorer("adaptive"))
        assert first.moves == second.moves
        assert first.reveals == second.reveals
        assert first.to_json_dict() == second.to_json_dict()

    def test_certificate_fallback_flags_ratio(self):
        graph, assignment = random_instance(7, density=0.6, seed=11)
        src = FixedAssignment(assignment)
        rep = run_episode(graph, src, make_explorer("nn"), oracle_cap=5)
        assert rep.offline_kind == "certificate"
        assert rep.ratio_is_lower_bound
        # the agent's own walk bounds the optimum, so the ratio is >= 1
        assert rep.ratio >= F(1) or rep.offline_cost <= rep.online_cost

    @pytest.mark.parametrize("vertices, costs, message", [
        ((0, 1, 2), (F(1), F(5)), "invalid certificate walk"),
        ((0, 1), (F(1),), "does not cover"),
        ((1, 0, 1, 2), (F(1), F(1), F(1)), "does not cover")])
    def test_certificate_refused(self, vertices, costs, message):
        # beyond the oracle cap a certificate counts only once checked
        g, src = p3()
        with pytest.raises(EngineError, match=message):
            run_episode(g, src, make_explorer("nn"), oracle_cap=2,
                        certificate=lambda assignment: Walk(vertices, costs))

    def test_offline_memo_keys_on_realized_weights(self, monkeypatch):
        graph, first = random_instance(7, density=0.6, seed=11)
        second = random_uniform_assignment(graph, seed=5)
        fresh = [run_episode(graph, FixedAssignment(a), make_explorer("nn"))
                 for a in (first, second)]
        assert fresh[0].offline_cost != fresh[1].offline_cost
        solves = []
        solve = engine.optimal_cover_walk

        def counting(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(engine, "optimal_cover_walk", counting)
        memo = {}
        for i in (0, 1, 0, 1):
            rep = run_episode(graph, FixedAssignment((first, second)[i]),
                              make_explorer("nn"), offline_memo=memo)
            assert rep == fresh[i]
        assert len(solves) == len(memo) == 2
        # a cost beyond the cap depends on the walk, so it is not stored,
        # and no key is built for it
        keys = []
        key = engine._offline_key

        def counting_key(*args):
            keys.append(1)
            return key(*args)

        assignments = (first, second, first)
        fresh = [run_episode(graph, FixedAssignment(a), make_explorer("nn"),
                             oracle_cap=5) for a in assignments]
        monkeypatch.setattr(engine, "_offline_key", counting_key)
        solves.clear()
        memo = {}
        for a, ref in zip(assignments, fresh):
            rep = run_episode(graph, FixedAssignment(a), make_explorer("nn"),
                              oracle_cap=5, offline_memo=memo)
            assert rep == ref and rep.offline_kind == "certificate"
        assert keys == [] and memo == {} and len(solves) == 3

    def test_report_serialization(self):
        g, src = p3()
        rep = run_episode(g, src, make_explorer("nn"))
        data = rep.to_json_dict()
        assert data["online_cost"] == "2"
        assert data["ratio"] == "1"
        assert data["ratio_decimal"] == "1.000000"
        assert len(data["moves"]) == rep.steps


class TestInformationFirewall:
    def test_each_edge_queried_once_and_only_when_incident(self):
        g = complete_graph(6, F(2))
        actual = WeightAssignment({eid: F(1) for eid in range(len(g.edges))})

        class Sentinel:
            def __init__(self):
                self.queries = []

            def reveal(self, eid, seq):
                self.queries.append((eid, tuple(seq)))
                return actual.weight(eid)

            def complete(self, eid, seq):
                raise AssertionError("complete() not expected here")

        sentinel = Sentinel()
        view = start_episode(g, sentinel)
        explorer = make_explorer("adaptive")
        while not view.is_complete:
            view = move(view, explorer.decide(view))
        eids = [eid for eid, _ in sentinel.queries]
        assert len(eids) == len(set(eids)), "an edge was queried twice"
        for eid, seq in sentinel.queries:
            e = g.edges[eid]
            # the query happens exactly when an endpoint is first visited
            assert seq[-1] in (e.a, e.b)
            assert not (set(seq[:-1]) & {e.a, e.b})

    def test_post_hoc_completion_consistency(self):
        # nn on a path graph never reveals nothing, but a star with an
        # early finish can leave edges unrevealed only on disconnected
        # shapes; instead check completion agrees with in-episode reveals
        g, src = p3()
        view = start_episode(g, src)
        view = move(view, 1)
        view = move(view, 2)
        assignment = realized_assignment(g, view, src)
        for eid, w in view.revealed.items():
            assert assignment.weight(eid) == w
