"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  All comparisons are exact rational arithmetic.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import heapq
import time
from fractions import Fraction as F

import pytest

from boundwalk import (CompleteAdvSpec, CoverTask, FixedAssignment, GridSpec,
                       RecursiveSpec, brute_force_cover,
                       build_bipartite_adversary, build_complete_adversary,
                       build_grid_trap, build_recursive, complete_graph,
                       make_explorer, move, optimal_cover_walk,
                       random_instance, random_uniform_assignment,
                       realized_assignment, run_episode, start_episode,
                       walk_violations)
from boundwalk.adversaries import HalvesAdversary
from boundwalk.graph import alpha_of


def report(num: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def run_views(graph, source, explorer):
    view = start_episode(graph, source)
    while not view.is_complete:
        view = move(view, explorer.decide(view))
    return view


def test_criterion_1_oracle_soundness():
    started = time.time()
    for seed in range(200):
        n = 2 + seed % 8  # vertex counts 2..9
        graph, assignment = random_instance(n, density=(seed % 5) / 5,
                                            seed=seed)
        task = CoverTask.full_cover(graph, assignment.weights)
        _, exact = optimal_cover_walk(graph, task)
        _, brute = brute_force_cover(graph, task)
        assert exact == brute, f"seed {seed}: {exact} != {brute}"
    elapsed = time.time() - started
    assert elapsed < 60, f"oracle soundness took {elapsed:.1f}s"
    report(1, "oracle soundness", f"200 instances in {elapsed:.1f}s")


def test_criterion_2_precompute_ratio_within_spread():
    violations = 0
    for seed in range(500):
        n = 3 + seed % 7  # vertex counts 3..9, mixed intervals
        graph, assignment = random_instance(n, density=(seed % 4) / 4,
                                            alpha=F(2) + F(seed % 3, 2),
                                            law="mixed", seed=1_000 + seed)
        rep = run_episode(graph, FixedAssignment(assignment),
                          make_explorer("precompute"))
        if rep.ratio > alpha_of(graph).alpha:
            violations += 1
    assert violations == 0
    report(2, "precompute ratio <= alpha", "500 instances, 0 violations")


ALPHAS = (F(5, 4), F(3, 2), F(7, 4), F(2) - F(1, 100))


def test_criterion_3_adaptive_ratio_on_dense_families():
    episodes = 0
    for alpha in ALPHAS:
        bound = (alpha + 1) / 2
        for n in range(4, 13):
            graph = complete_graph(n, alpha)
            # half-split adversary; odd n uses the floor half
            adversary = HalvesAdversary(n // 2, alpha, graph.edges)
            rep = run_episode(graph, adversary, make_explorer("adaptive"))
            assert rep.offline_kind == "exact"
            assert rep.ratio <= bound, (n, alpha, rep.ratio)
            episodes += 1
            for seed in range(100):
                source = FixedAssignment(
                    random_uniform_assignment(graph, seed * 131 + n))
                rep = run_episode(graph, source, make_explorer("adaptive"))
                assert rep.ratio <= bound, (n, alpha, seed, rep.ratio)
                episodes += 1
        for n in range(2, 7):
            bundle = build_bipartite_adversary(CompleteAdvSpec(n, alpha))
            rep = run_episode(bundle.graph, bundle.source,
                              make_explorer("adaptive"))
            assert rep.offline_kind == "exact"
            assert rep.ratio <= bound, ("bipartite", n, alpha, rep.ratio)
            episodes += 1
            for seed in range(100):
                source = FixedAssignment(
                    random_uniform_assignment(bundle.graph, seed * 71 + n))
                rep = run_episode(bundle.graph, source,
                                  make_explorer("adaptive"))
                assert rep.ratio <= bound, ("bipartite", n, alpha, seed)
                episodes += 1
    report(3, "adaptive ratio <= (alpha+1)/2 on complete and complete "
              "bipartite graphs", f"{episodes} episodes, 0 violations")


def test_criterion_4_half_split_costs_and_asymptotics():
    alpha = F(2)
    for k in range(3, 11):
        bundle = build_complete_adversary(CompleteAdvSpec(k, alpha))
        rep = run_episode(bundle.graph, bundle.source,
                          make_explorer("adaptive"))
        assert rep.online_cost == k + (k - 1) * alpha, (k, rep.online_cost)
        assert rep.offline_kind == "exact"
        assert rep.offline_cost == 2 * k - 1, (k, rep.offline_cost)
        assert abs(rep.ratio - (1 + alpha) / 2) <= F(2, k), (k, rep.ratio)
    report(4, "half-split adversary online k+(k-1)*alpha, offline 2k-1",
           "k in 3..10")


def test_criterion_5_recursive_family_bounds():
    from boundwalk import (recursive_certificate_cost,
                           recursive_online_lower_bound)
    started = time.time()
    checked = []
    for alpha in (F(3, 2), F(2)):
        for depth in (0, 1, 2):
            spec = RecursiveSpec(2, depth, alpha).validated()
            bundle = build_recursive(spec)
            online_floor = recursive_online_lower_bound(spec)
            cert_formula = recursive_certificate_cost(spec)
            for name in ("precompute", "adaptive", "nn"):
                explorer = make_explorer(name)
                view = run_views(bundle.graph, bundle.source, explorer)
                assert view.paid >= online_floor, (alpha, depth, name)
                assignment = realized_assignment(bundle.graph, view,
                                                 bundle.source)
                cert = bundle.certificate(assignment)
                assert walk_violations(bundle.graph, cert,
                                       assignment.weights) == []
                assert cert.cost == cert_formula, (alpha, depth, name)
                # the exact oracle confirms the certificate is optimal
                _, opt = optimal_cover_walk(
                    bundle.graph, CoverTask.full_cover(bundle.graph,
                                                       assignment.weights))
                assert opt == cert_formula, (alpha, depth, name)
                checked.append((alpha, depth, name))
    elapsed = time.time() - started
    assert elapsed < 300, f"recursive family checks took {elapsed:.1f}s"
    report(5, "recursive construction online floor / certificate cost / "
              "oracle optimality", f"{len(checked)} episodes in "
                                   f"{elapsed:.1f}s")


def test_criterion_6_grid_trap_self_checks():
    verified: dict[F, dict[int, F]] = {}
    excluded: list[tuple[int, F, str]] = []
    for alpha in (F(5, 4), F(3, 2), F(7, 4)):
        verified[alpha] = {}
        for m in range(4, 9):
            bundle = build_grid_trap(GridSpec(m, alpha))
            # (b) certificate validity and cost bound hold for every m
            assert bundle.certificate.cost <= bundle.certificate_bound
            assert set(bundle.certificate.vertices) == set(
                range(m * m))
            if bundle.skip_reason is None:
                # (a) the replanning explorer pays exactly (m*m-1)*alpha
                assert bundle.expected_online == (m * m - 1) * alpha
                _, opt = optimal_cover_walk(
                    bundle.graph, CoverTask.full_cover(
                        bundle.graph, bundle.assignment.weights))
                offline = min(opt, bundle.certificate.cost)
                verified[alpha][m] = bundle.expected_online / offline
            else:
                excluded.append((m, alpha, bundle.skip_reason))
    for alpha, ratios in verified.items():
        assert 4 in ratios, f"smallest grid must verify for alpha={alpha}"
        ordered = [ratios[m] for m in sorted(ratios)]
        assert ordered == sorted(ordered), f"ratio not nondecreasing: {alpha}"
    assert excluded, "expected the documented large-grid exclusions"
    for m, alpha, reason in excluded:
        print(f"  grid trap m={m} alpha={alpha} EXCLUDED from adaptive "
              f"simulation: {reason}")
    report(6, "grid trap self-checks",
           f"verified m=4 for 3 alphas; {len(excluded)} documented "
           f"exclusions (open-question status)")


def test_criterion_7_greedy_behavior_on_uniform_complete_graphs():
    episodes = 0
    for seed in range(100):
        n = 4 + seed % 5
        alpha = (F(5, 4), F(3, 2), F(7, 4))[seed % 3]
        graph = complete_graph(n, alpha)
        assignment = random_uniform_assignment(graph, 10_000 + seed)
        source = FixedAssignment(assignment)
        a_view = run_views(graph, source, make_explorer("adaptive"))
        seq = a_view.visit_sequence
        assert len(set(seq)) == len(seq), f"revisit at seed {seed}"
        for i, step in enumerate(a_view.history):
            final = i == len(a_view.history) - 1
            if final:
                assert step.target == graph.end
                continue
            assert step.target != graph.end
            visited_before = set(seq[:i + 1])
            candidates = [assignment.weight(graph.edge_between(step.origin, v))
                          for v in range(n)
                          if v not in visited_before and v != graph.end]
            assert step.paid == min(candidates), f"seed {seed} step {i}"
        n_view = run_views(graph, source, make_explorer("nn"))
        assert seq[:-1] == n_view.visit_sequence[:-1], f"seed {seed}"
        episodes += 1
    report(7, "adaptive takes cheapest outgoing edge, no revisits, matches "
              "nearest neighbor", f"{episodes} episodes")


def test_criterion_8_engine_invariants_across_corpus():
    episodes = 0
    corpus = []
    for k in (3, 4, 5):
        b = build_complete_adversary(CompleteAdvSpec(k, F(3, 2)))
        corpus.append((b.graph, b.source))
    for n in (2, 3, 4):
        b = build_bipartite_adversary(CompleteAdvSpec(n, F(7, 4)))
        corpus.append((b.graph, b.source))
    for depth in (0, 1):
        b = build_recursive(RecursiveSpec(2, depth, F(2)))
        corpus.append((b.graph, b.source))
    g = build_grid_trap(GridSpec(4, F(3, 2)), verify_adaptive=False)
    corpus.append((g.graph, FixedAssignment(g.assignment)))
    for seed in range(30):
        graph, assignment = random_instance(3 + seed % 7, density=0.5,
                                            seed=20_000 + seed)
        corpus.append((graph, FixedAssignment(assignment)))

    for graph, source in corpus:
        for name in ("precompute", "adaptive", "nn"):
            traces = []
            for _ in range(2):
                view = run_views(graph, source, make_explorer(name))
                # reveal-set exactness and containment after the episode
                incident = {eid for v in view.visited
                            for eid in graph.incident_edges(v)}
                assert set(view.revealed) == incident
                for eid, w in view.revealed.items():
                    e = graph.edges[eid]
                    assert e.lower <= w <= e.upper
                traces.append((view.history, view.reveals))
            assert traces[0] == traces[1], "replay diverged"
            episodes += 2
    report(8, "engine invariants and replay determinism",
           f"{episodes} episodes, per-step checks active")


def walk_known(view, goal):
    """The view after a cheapest walk from its position to `goal` whose
    inner vertices are visited, on the weights revealed so far (every
    edge of a visited vertex is revealed)."""
    best = {view.position: (F(0), None)}
    heap = [(F(0), view.position)]
    while heap:
        d, x = heapq.heappop(heap)
        if x == goal:
            break
        if d > best[x][0] or x not in view.visited:
            continue
        for y, eid in view.graph.neighbors(x):
            c = d + view.revealed[eid]
            if y not in best or c < best[y][0]:
                best[y] = (c, x)
                heapq.heappush(heap, (c, y))
    path = [goal]
    while path[-1] != view.position:
        path.append(best[path[-1]][1])
    for v in reversed(path[:-1]):
        view = move(view, v)
    return view


def first_visit_leaves(view):
    """The completed episode of every first-visit order: branch on each
    frontier vertex (unvisited, next to a visited one), walk a cheapest
    known path to it, and end with one to the end vertex."""
    graph = view.graph
    if not view.unvisited:
        yield walk_known(view, graph.end)
        return
    frontier = {v for x in view.visited for v, _ in graph.neighbors(x)}
    for v in sorted(frontier & view.unvisited):
        yield from first_visit_leaves(walk_known(view, v))


def test_criterion_9_online_floors_hold_for_every_deterministic_strategy():
    # the adversaries read only the first-visit order, and between first
    # visits a walk pays known weights, so the least cost over these leaves
    # is the least any deterministic strategy can pay (randomised ones are
    # not covered)
    from boundwalk import recursive_online_lower_bound
    started = time.time()
    searched = []
    for alpha in (F(3, 2), F(2)):
        spec = RecursiveSpec(2, 1, alpha).validated()
        for name, bundle, floor, orders in (
                ("K_6", build_complete_adversary(CompleteAdvSpec(3, alpha)),
                 3 + 2 * alpha, 120),
                ("K_{3,3}",
                 build_bipartite_adversary(CompleteAdvSpec(3, alpha)),
                 3 + 2 * alpha, 72),
                ("recursive k=2 depth=1", build_recursive(spec),
                 recursive_online_lower_bound(spec), 720)):
            graph, source = bundle.graph, bundle.source
            offline = {}
            leaves = []
            for view in first_visit_leaves(start_episode(graph, source)):
                weights = realized_assignment(graph, view, source).weights
                key = tuple(weights[eid] for eid in range(len(graph.edges)))
                if key not in offline:
                    offline[key] = optimal_cover_walk(
                        graph, CoverTask.full_cover(graph, weights))[1]
                leaves.append((view.paid, view.paid / offline[key]))
            adaptive = run_episode(graph, source, make_explorer("adaptive"))
            assert len(leaves) == orders, (name, alpha, len(leaves))
            assert min(c for c, _ in leaves) == floor == adaptive.online_cost
            least_ratio = min(r for _, r in leaves)
            assert least_ratio <= adaptive.ratio, (name, alpha)
            print(f"  {name} alpha={alpha}: {orders} orders, least cost "
                  f"{floor}, least ratio {least_ratio} (adaptive "
                  f"{adaptive.ratio})")
            searched.append(name)
    elapsed = time.time() - started
    report(9, "online floor over every first-visit order",
           f"{len(searched)} instances in {elapsed:.1f}s")
