"""The three benchmark workloads: seeded inputs, the timed top-level call of
each operation, and the checks applied to its output.

Inputs come only from the workload seed.  Every check compares against a
theorem, a closed form or an independent computation made here (brute
force, Floyd-Warshall plus a minimum spanning tree, a nearest-neighbour
walk, the instance rebuilt from its parameters), never against stored output.

The package is reached through attribute access (`bw.run_episode`, ...), so
the tracer's wrappers see every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import boundwalk as bw
import boundwalk.cli  # noqa: F401 - makes bw.cli available

ALPHAS = (F(5, 4), F(3, 2), F(7, 4), F(199, 100))
GRID_ALPHAS = (F(5, 4), F(3, 2), F(7, 4))
SEED_RANGE = 1 << 31
# worker processes for `boundwalk sweep`: the CPUs this process may use
JOBS = min(len(os.sched_getaffinity(0)), 8)


@dataclass
class Verdict:
    """What the checks found in one operation's output.  `failed` counts the
    units that show the known fault (they ran to their end and count as
    work); `lost` counts units that did not complete (also in `failed`, and
    a problem); any other finding is a problem, which makes the run
    incorrect."""

    failed: int = 0
    lost: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Op:
    """One top-level call.  `call` is timed; `collect` turns its return
    value into the output to check (outside the timed region); `check`
    verifies that output in full."""

    label: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    collect: Callable[[object], object] = lambda raw: raw


def _full_task(graph, weights):
    return bw.CoverTask(weights=weights, origin=graph.start,
                        destination=graph.end,
                        must_visit=frozenset(range(graph.vertex_count)))


def _covers(graph, vertices) -> bool:
    return (vertices[0] == graph.start and vertices[-1] == graph.end
            and set(vertices) == set(range(graph.vertex_count)))


# ---------------------------------------------------------------------------
# adaptive-replan
# ---------------------------------------------------------------------------

def _episode_op(label, graph, source, alpha, *, weights=None,
                half_k=None) -> Op:
    """`weights` is the fixed assignment; adversary episodes realize theirs
    from the reveals, which cover every edge on these dense graphs."""

    def check(report) -> Verdict:
        v = Verdict()
        p = v.problems
        if report.offline_kind != "exact":
            p.append(f"{label}: offline kind {report.offline_kind}")
        if report.ratio > (alpha + 1) / 2:
            p.append(f"{label}: ratio {report.ratio} > (alpha+1)/2")
        if report.ratio != report.online_cost / report.offline_cost:
            p.append(f"{label}: ratio is not online/offline")
        walk = [graph.start] + [m.target for m in report.moves]
        if not _covers(graph, walk):
            p.append(f"{label}: online walk does not cover s..t")
        if half_k is not None:
            k = half_k
            if report.online_cost != k + (k - 1) * alpha:
                p.append(f"{label}: online {report.online_cost} != "
                         f"k+(k-1)alpha")
            if report.offline_cost != 2 * k - 1:
                p.append(f"{label}: offline {report.offline_cost} != 2k-1")
        if graph.vertex_count <= bw.BRUTE_FORCE_CAP:
            realized = weights or {r.edge: r.weight for r in report.reveals}
            if len(realized) != len(graph.edges):
                p.append(f"{label}: reveals do not cover every edge")
            else:
                _, brute = bw.brute_force_cover(graph,
                                                _full_task(graph, realized))
                if brute != report.offline_cost:
                    p.append(f"{label}: offline {report.offline_cost} != "
                             f"brute force {brute}")
        return v

    return Op(label, 1,
              lambda: bw.run_episode(graph, source,
                                     bw.make_explorer("adaptive")),
              check)


def adaptive_replan(seed: int, smoke: bool, workdir: Path) -> list[Op]:
    """Adaptive explorer on K_8..K_14 against the half-split adversary and
    under seeded uniform assignments, plus K_{n,n} for n = 3..6."""
    rng = random.Random(seed)
    sizes = range(4, 7) if smoke else range(8, 15)
    sides = range(2, 4) if smoke else range(3, 7)
    ops = []
    for alpha in ALPHAS:
        for n in sizes:
            if n % 2 == 0:
                bundle = bw.build_complete_adversary(
                    bw.CompleteAdvSpec(n // 2, alpha))
                graph, source, half_k = bundle.graph, bundle.source, n // 2
            else:  # odd n: the floor half, as in acceptance criterion 3
                graph = bw.complete_graph(n, alpha)
                source = bw.adversaries.HalvesAdversary(n // 2, alpha,
                                                        graph.edges)
                half_k = None
            ops.append(_episode_op(f"K{n} half-split alpha={alpha}", graph,
                                   source, alpha, half_k=half_k))
            fixed = bw.random_uniform_assignment(graph,
                                                 rng.randrange(SEED_RANGE))
            ops.append(_episode_op(f"K{n} uniform alpha={alpha}", graph,
                                   bw.FixedAssignment(fixed), alpha,
                                   weights=fixed.weights))
        for n in sides:
            bundle = bw.build_bipartite_adversary(bw.CompleteAdvSpec(n, alpha))
            ops.append(_episode_op(f"K{n},{n} half-split alpha={alpha}",
                                   bundle.graph, bundle.source, alpha))
            fixed = bw.random_uniform_assignment(bundle.graph,
                                                 rng.randrange(SEED_RANGE))
            ops.append(_episode_op(f"K{n},{n} uniform alpha={alpha}",
                                   bundle.graph, bw.FixedAssignment(fixed),
                                   alpha, weights=fixed.weights))
    return ops


# ---------------------------------------------------------------------------
# oracle-exact
# ---------------------------------------------------------------------------

def _closure_mst(graph, weights) -> F:
    """Minimum spanning tree weight of the metric closure over all vertices,
    by Floyd-Warshall and Prim over exact rationals."""
    n = graph.vertex_count
    d = [[None] * n for _ in range(n)]
    for v in range(n):
        d[v][v] = F(0)
    for eid, e in enumerate(graph.edges):
        w = weights[eid]
        if d[e.a][e.b] is None or w < d[e.a][e.b]:
            d[e.a][e.b] = d[e.b][e.a] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                if dk[j] is not None and (di[j] is None
                                          or dik + dk[j] < di[j]):
                    di[j] = dik + dk[j]
    best = {v: d[0][v] for v in range(1, n)}
    total = F(0)
    while best:
        v = min(best, key=lambda u: (best[u], u))
        total += best.pop(v)
        for u in best:
            if d[v][u] < best[u]:
                best[u] = d[v][u]
    return total


def _nn_cost(graph, weights) -> F:
    """Cost of the nearest-neighbour explorer's walk on fixed weights."""
    source = bw.FixedAssignment(bw.WeightAssignment(weights))
    explorer = bw.make_explorer("nn")
    view = bw.start_episode(graph, source)
    while not view.is_complete:
        view = bw.move(view, explorer.decide(view))
    return view.paid


def _solve_op(label, graph, weights, closed_form=None) -> Op:
    """`closed_form(cost)` returns a problem string or None."""
    task = _full_task(graph, weights)

    def check(result) -> Verdict:
        walk, cost = result
        v = Verdict()
        p = v.problems
        problems = bw.walk_violations(graph, walk, weights)
        if problems:
            p.append(f"{label}: walk violations {problems[:3]}")
        if not _covers(graph, walk.vertices):
            p.append(f"{label}: walk does not cover s..t")
        if sum(walk.step_costs, F(0)) != cost:
            p.append(f"{label}: step costs do not sum to {cost}")
        nn = _nn_cost(graph, weights)
        if cost > nn:
            p.append(f"{label}: optimum {cost} > nearest-neighbour {nn}")
        mst = _closure_mst(graph, weights)
        if cost < mst:
            p.append(f"{label}: optimum {cost} < closure MST {mst}")
        if closed_form is not None:
            problem = closed_form(cost)
            if problem:
                p.append(f"{label}: {problem}")
        return v

    return Op(label, 1, lambda: bw.optimal_cover_walk(graph, task), check)


def oracle_exact(seed: int, smoke: bool, workdir: Path) -> list[Op]:
    """`optimal_cover_walk` at r = 16..20, weighted toward 18..20."""
    rng = random.Random(seed)
    ops = []
    for k in ((4, 5) if smoke else (8, 9, 10)):
        alpha = rng.choice(ALPHAS + (F(2),))
        bundle = bw.build_complete_adversary(bw.CompleteAdvSpec(k, alpha))
        graph = bundle.graph
        # the end vertex comes last, so the cheap half excludes it
        middle = list(range(1, 2 * k - 1))
        rng.shuffle(middle)
        seq = (0, *middle, 2 * k - 1)
        weights = {eid: bundle.source.complete(eid, seq)
                   for eid in range(len(graph.edges))}
        ops.append(_solve_op(
            f"K{2 * k} half-split alpha={alpha}", graph, weights,
            lambda c, k=k: None if c == 2 * k - 1 else f"{c} != 2k-1"))

    spec = bw.RecursiveSpec(2, 1 if smoke else 2,
                            rng.choice((F(3, 2), F(2)))).validated()
    bundle = bw.build_recursive(spec)
    explorer = bw.make_explorer("nn")
    view = bw.start_episode(bundle.graph, bundle.source)
    while not view.is_complete:
        view = bw.move(view, explorer.decide(view))
    realized = bw.realized_assignment(bundle.graph, view, bundle.source)
    expected = bw.recursive_certificate_cost(spec)
    ops.append(_solve_op(
        f"recursive k=2 depth={spec.depth} alpha={spec.alpha}", bundle.graph,
        dict(realized.weights),
        lambda c: None if c == expected else f"{c} != certificate cost"))

    grid = bw.build_grid_trap(bw.GridSpec(4, rng.choice(GRID_ALPHAS)),
                              verify_adaptive=False)
    m, alpha = grid.spec.m, grid.spec.alpha
    cert = grid.certificate.cost
    ops.append(_solve_op(
        f"grid m=4 alpha={alpha}", grid.graph, dict(grid.assignment.weights),
        lambda c: None if c <= cert <= 6 * m * alpha + (m - 2) * m
        else f"{c} above certificate {cert} or bound"))

    for n in ((8, 10) if smoke else (16, 17, 18, 19, 20, 20)):
        graph, assignment = bw.random_instance(
            n, density=0.3, law="mixed", seed=rng.randrange(SEED_RANGE))
        ops.append(_solve_op(f"random n={n}", graph,
                             dict(assignment.weights)))
    return ops


# ---------------------------------------------------------------------------
# sweep-mixed
# ---------------------------------------------------------------------------

def _sweep_configs(seed: int, smoke: bool) -> dict[str, dict]:
    """One `boundwalk sweep` config per family and explorer mix.  Rows
    within the 20-vertex cap run all three explorers; rows beyond it run
    nn only.  Random rows that carry a bound use the uniform law.  The
    complete sweep includes alpha = 3, whose rows report the bound of the
    requested alpha although the built instance clamps it to 2."""
    rng = random.Random(seed)
    seeds = [rng.randrange(SEED_RANGE) for _ in range(3)]
    all3 = ["precompute", "adaptive", "nn"]
    if smoke:
        return {
            "recursive": {"family": "recursive", "explorers": all3,
                          "grid": {"k": [2], "depth": [1], "alpha": ["2"]}},
            "complete": {"family": "complete", "explorers": all3,
                         "grid": {"k": [3], "alpha": ["2", "3"]}},
            "bipartite": {"family": "bipartite", "explorers": all3,
                          "grid": {"n": [3], "alpha": ["3/2"]}},
            "grid": {"family": "grid", "explorers": all3,
                     "grid": {"m": [4], "alpha": ["3/2"]}},
            "grid-nn": {"family": "grid", "explorers": ["nn"],
                        "grid": {"m": [5], "alpha": ["3/2"]}},
            "random": {"family": "random", "explorers": all3,
                       "seeds": seeds[:1],
                       "grid": {"n": [8], "alpha": ["2"],
                                "law": ["uniform"]}},
            "random-nn": {"family": "random", "explorers": ["nn"],
                          "seeds": seeds[:1],
                          "grid": {"n": [30], "alpha": ["2"],
                                   "law": ["mixed"]}},
        }
    return {
        "recursive": {"family": "recursive", "explorers": all3,
                      "grid": {"k": [2], "depth": [1, 2],
                               "alpha": ["3/2", "2"]}},
        "recursive-nn": {"family": "recursive", "explorers": ["nn"],
                         "grid": {"k": [3, 4], "depth": [2],
                                  "alpha": ["3/2", "2"]}},
        "complete": {"family": "complete", "explorers": all3,
                     "grid": {"k": [3, 4, 5, 6, 7],
                              "alpha": ["3/2", "2", "3"]}},
        "bipartite": {"family": "bipartite", "explorers": all3,
                      "grid": {"n": [3, 4, 5, 6],
                               "alpha": ["3/2", "7/4", "2"]}},
        "grid": {"family": "grid", "explorers": all3,
                 "grid": {"m": [4], "alpha": ["5/4", "3/2", "7/4"]}},
        "grid-nn": {"family": "grid", "explorers": ["nn"],
                    "grid": {"m": [5, 6, 7, 8], "alpha": ["3/2"]}},
        "random": {"family": "random", "explorers": all3, "seeds": seeds,
                   "grid": {"n": [8, 10, 12], "alpha": ["3/2", "2"],
                            "law": ["uniform"]}},
        "random-nn": {"family": "random", "explorers": ["nn"],
                      "seeds": seeds[:2],
                      "grid": {"n": [30, 40, 50, 60], "alpha": ["2"],
                               "law": ["mixed"]}},
    }


def _tight_bound(family: str, explorer: str, point: dict, seed: int,
                 built: dict) -> F | None:
    """The tightest constant the theorems give for the instance the family
    actually builds at this grid point, from `alpha_of` of that graph."""
    alpha = F(point["alpha"])
    key = (family, tuple(sorted(point.items())), seed)
    if key not in built:
        if family == "recursive":
            graph = bw.build_recursive(bw.RecursiveSpec(
                point["k"], point["depth"], alpha)).graph
        elif family == "complete":
            graph = bw.build_complete_adversary(
                bw.CompleteAdvSpec(point["k"], alpha)).graph
        elif family == "bipartite":
            graph = bw.build_bipartite_adversary(
                bw.CompleteAdvSpec(point["n"], alpha)).graph
        elif family == "grid":
            graph = bw.build_grid_trap(bw.GridSpec(point["m"], alpha),
                                       verify_adaptive=False).graph
        else:
            graph, _ = bw.random_instance(
                point["n"], density=point.get("density", 0.5),
                law=point["law"], alpha=alpha, seed=seed)
        built[key] = bw.alpha_of(graph).alpha
    a = built[key]
    if family == "recursive":
        return bw.recursive_online_lower_bound(
            bw.RecursiveSpec(point["k"], point["depth"], a))
    if explorer == "adaptive" and family in ("complete", "bipartite"):
        return (a + 1) / 2
    if explorer in ("adaptive", "precompute"):
        return a
    return None


def _sweep_op(name: str, config: dict, workdir: Path, jobs: int) -> Op:
    cfg_path = workdir / f"{name}.json"
    out = workdir / f"{name}-report"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["sweep", str(cfg_path), "--jobs", str(jobs), "--out", str(out),
            "--format", "both"]
    keys = sorted(config["grid"])
    points = [dict(zip(keys, combo)) for combo in
              itertools.product(*(config["grid"][k] for k in keys))]
    seeds = config.get("seeds", [0])
    # rows carry their grid parameters as strings; `n` is filled in with the
    # vertex count where it is not a parameter, so only parameters are keys
    cols = [c for c in ("k", "depth", "m", "n") if c in config["grid"]]
    expected = {(tuple(str(p[c]) for c in cols), str(F(p["alpha"])), ex,
                 str(s)): (p, s)
                for p in points for ex in config["explorers"] for s in seeds}
    family = config["family"]
    built: dict = {}

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return bw.cli.main(argv)

    def collect(code):
        with open(out.with_suffix(".csv"), newline="",
                  encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads(out.with_suffix(".json").read_text(
            encoding="utf-8"))
        return code, csv_rows, json_rows

    def check(output) -> Verdict:
        code, csv_rows, rows = output
        v = Verdict()
        p = v.problems
        if code != 0:
            p.append(f"sweep {name}: exit code {code}")
        if csv_rows != rows:
            p.append(f"sweep {name}: CSV and JSON rows differ")
        if len(rows) != len(expected):
            p.append(f"sweep {name}: {len(rows)} rows, expected "
                     f"{len(expected)}")
        for row in rows:
            key = (tuple(row[c] for c in cols), str(F(row["alpha"])),
                   row["explorer"], row["seed"])
            tag = f"sweep {name} row {key}"
            if row["family"] != family or key not in expected:
                p.append(f"{tag}: not a grid point of the config")
                continue
            if row["offline_kind"].startswith("error"):
                # no row is expected to fail; the row carries only the
                # exception type
                v.failed += 1
                v.lost += 1
                p.append(f"{tag}: {row['offline_kind']}")
                continue
            point, seed = expected[key]
            online = F(row["online_cost"])
            offline = F(row["offline_cost"])
            if F(row["ratio"]) != online / offline:
                p.append(f"{tag}: ratio is not online/offline")
            tight = _tight_bound(family, row["explorer"], point, seed, built)
            if tight is None:
                if row["theoretical_bound"]:
                    p.append(f"{tag}: bound where no theorem applies")
            elif not row["theoretical_bound"]:
                p.append(f"{tag}: bound missing")
            elif F(row["theoretical_bound"]) != tight:
                v.failed += 1  # loose bound taken from the requested alpha
            if row["theoretical_bound"] and row["bound_satisfied"] != "true":
                p.append(f"{tag}: bound_satisfied {row['bound_satisfied']}")
            if family == "recursive":
                floor = bw.recursive_online_lower_bound(bw.RecursiveSpec(
                    point["k"], point["depth"], F(point["alpha"])).validated())
                if online < floor:
                    p.append(f"{tag}: online {online} below {floor}")
            if family == "grid":
                m, a = point["m"], F(point["alpha"])
                if offline > 6 * m * a + (m - 2) * m:
                    p.append(f"{tag}: offline {offline} above 6ma+(m-2)m")
        return v

    return Op(f"sweep {name}", len(expected), call, check, collect)


def sweep_mixed(seed: int, smoke: bool, workdir: Path,
                jobs: int = JOBS) -> list[Op]:
    """`boundwalk sweep` through `cli.main`, in-process, on all five
    families, with `jobs` pool workers."""
    workdir.mkdir(parents=True, exist_ok=True)
    return [_sweep_op(name, config, workdir, jobs)
            for name, config in _sweep_configs(seed, smoke).items()]


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "adaptive-replan": adaptive_replan,
    "oracle-exact": oracle_exact,
    "sweep-mixed": sweep_mixed,
}
