import hashlib
import itertools
import json
from fractions import Fraction as F

import pytest

from boundwalk import MAX_EXACT_CAP, alpha_of, engine, random_instance, reports
from boundwalk.adversaries import FAMILIES
from boundwalk.cli import main
from boundwalk.engine import run_episode
from boundwalk.explorers import make_explorer
from boundwalk.reports import (CSV_COLUMNS, MAX_JOBS, SweepConfig,
                               rows_from_csv, rows_to_csv, rows_to_json,
                               run_sweep, write_reports)


def sweep_config(**overrides):
    data = {
        "family": "complete",
        "grid": {"k": [3, 4], "alpha": ["2"]},
        "explorers": ["adaptive"],
        "seeds": [0],
        "out": "unused",
    }
    data.update(overrides)
    return SweepConfig.from_dict(data)


def theoretical_bound(family, explorer, alpha, params):
    return FAMILIES[family].bound(explorer, alpha, params)


class TestBounds:
    def test_precompute_bound_is_spread(self):
        bound, kind = theoretical_bound("random", "precompute", F(2), {})
        assert (bound, kind) == (F(2), "ratio_max")

    def test_adaptive_bound_on_half_split_families(self):
        bound, kind = theoretical_bound("complete", "adaptive", F(3, 2), {})
        assert (bound, kind) == (F(5, 4), "ratio_max")
        bound, _ = theoretical_bound("bipartite", "adaptive", F(2), {})
        assert bound == F(3, 2)

    def test_adaptive_general_bound_is_spread(self):
        bound, _ = theoretical_bound("grid", "adaptive", F(3, 2), {})
        assert bound == F(3, 2)

    def test_recursive_bound_is_online_cost_floor(self):
        bound, kind = theoretical_bound(
            "recursive", "nn", F(2), {"k": 2, "depth": 1})
        assert kind == "online_min"
        assert bound == F(14)

    def test_baseline_has_no_bound(self):
        bound, _ = theoretical_bound("random", "nn", F(2), {})
        assert bound is None


class TestSweep:
    def test_rows_and_ratio_trend(self):
        rows = run_sweep(sweep_config(grid={"k": [3, 4, 5], "alpha": ["2"]}))
        assert len(rows) == 3
        assert [r["explorer"] for r in rows] == ["adaptive"] * 3
        ratios = [F(r["ratio"]) for r in rows]
        assert ratios == sorted(ratios)
        assert all(r["bound_satisfied"] == "true" for r in rows)
        assert all(r["theoretical_bound"] == "3/2" for r in rows)

    def test_random_family_uses_seeds(self):
        rows = run_sweep(sweep_config(
            family="random", grid={"n": [6], "alpha": ["2"]},
            explorers=["precompute"], seeds=[0, 1, 2]))
        assert len(rows) == 3
        assert {r["seed"] for r in rows} == {"0", "1", "2"}
        assert all(r["bound_satisfied"] == "true" for r in rows)

    def test_partial_failures_recorded_per_row(self):
        rows = run_sweep(sweep_config(
            family="random", grid={"n": [6, 30], "alpha": ["2"]},
            explorers=["precompute"], seeds=[0]))
        by_n = {r["n"]: r for r in rows}
        assert by_n["6"]["offline_kind"] == "exact"
        # the error row says why: the exception type and its message
        assert by_n["30"]["offline_kind"] == (
            "error:SolverCapExceeded: instance too large for exact oracle: "
            "30 required vertices exceed cap 20")
        assert by_n["30"]["ratio"] == ""

    def test_determinism_and_formats_identical(self, tmp_path):
        config = sweep_config(grid={"k": [3], "alpha": ["2", "3/2"]},
                              explorers=["adaptive", "nn"])
        rows_a = run_sweep(config)
        rows_b = run_sweep(config)
        assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
        assert rows_from_csv(rows_to_csv(rows_a)) == rows_a
        assert json.loads(rows_to_json(rows_a)) == rows_a
        csv_path, json_path = write_reports(rows_a, tmp_path / "rep")
        assert csv_path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_concurrent_execution_matches_sequential(self):
        config = sweep_config(grid={"k": [3, 4], "alpha": ["2"]},
                              explorers=["adaptive", "nn"])
        seq = run_sweep(config)
        par = run_sweep(sweep_config(grid={"k": [3, 4], "alpha": ["2"]},
                                     explorers=["adaptive", "nn"], jobs=2))
        assert rows_to_csv(seq) == rows_to_csv(par)

    def test_bound_uses_alpha_of_clamped_complete_graph(self):
        # CompleteAdvSpec clamps alpha=3 to 2: the tight bounds are those
        # of alpha 2, while the row keeps the requested alpha
        rows = run_sweep(sweep_config(grid={"k": [3], "alpha": ["3"]},
                                      explorers=["adaptive", "precompute"]))
        assert {r["explorer"]: r["theoretical_bound"] for r in rows} == {
            "adaptive": "3/2", "precompute": "2"}
        assert all(r["alpha"] == "3" for r in rows)
        assert all(r["bound_satisfied"] == "true" for r in rows)

    def test_bound_uses_alpha_of_mixed_random_instance(self):
        graph, _ = random_instance(6, law="mixed", alpha=F(2), seed=1)
        assert alpha_of(graph).alpha == F(7, 4)
        rows = run_sweep(sweep_config(
            family="random", grid={"n": [6], "alpha": ["2"],
                                   "law": ["mixed"]},
            explorers=["precompute", "adaptive"], seeds=[1]))
        assert [r["theoretical_bound"] for r in rows] == ["7/4", "7/4"]
        assert all(r["bound_satisfied"] == "true" for r in rows)

    def test_exact_rows_have_ratio_at_least_one(self):
        rows = run_sweep(sweep_config(
            family="random", grid={"n": [5, 7], "alpha": ["2"]},
            explorers=["precompute", "adaptive", "nn"], seeds=[3]))
        for row in rows:
            if row["offline_kind"] == "exact":
                assert F(row["ratio"]) >= 1

    def test_unknown_family_and_params_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig.from_dict({"family": "torus", "grid": {}})
        with pytest.raises(ValueError):
            sweep_config(grid={"m": [4], "alpha": ["2"]})
        # a missing or malformed value fails the load, naming the parameter
        # (a float or a bool is refused, not truncated to an integer)
        for grid in ({"alpha": ["2"]}, {"k": [3, "three"], "alpha": ["2"]},
                     {"k": [[3]], "alpha": ["2"]},
                     {"k": [3], "alpha": ["1/0"]},
                     {"k": [3.7], "alpha": ["2"]},
                     {"k": [True], "alpha": ["2"]},
                     # nor is a rational read from a bool
                     {"k": [3], "alpha": [True]},
                     # an empty list would run no rows
                     {"k": [], "alpha": ["2"]}, {"k": [3], "alpha": []},
                     # K_1026 is over the vertex limit; nothing is built
                     {"k": [3, 513], "alpha": ["2"]}):
            with pytest.raises(ValueError, match="'(k|alpha)'"):
                sweep_config(grid=grid)
        # the config's own integers are refused in the same way, and a
        # worker count must lie in 1..MAX_JOBS (no pool is started here)
        for field, value in (("seeds", [1.9, True]), ("seeds", [True]),
                             ("seeds", "12"), ("jobs", 2.5),
                             ("solver_cap", 12.7), ("jobs", 0),
                             ("jobs", MAX_JOBS + 1),
                             # the DP table's memory limit, checked at load
                             ("solver_cap", MAX_EXACT_CAP + 1),
                             ("solver_cap", 10**9),
                             # shapes: every field names itself
                             ("grid", [1]), ("grid", {"k": 3}),
                             ("family", ["complete"]), ("family", None),
                             ("explorers", "adaptive"),
                             # a config that runs nothing is refused
                             ("explorers", []), ("seeds", []),
                             ("explorers", ["dfs"]), ("explorers", [["nn"]]),
                             ("out", 5)):
            with pytest.raises(ValueError, match=f"'{field}'"):
                sweep_config(**{field: value})
        assert sweep_config(jobs=MAX_JOBS).jobs == MAX_JOBS
        assert (sweep_config(solver_cap=MAX_EXACT_CAP).solver_cap
                == MAX_EXACT_CAP)
        for present, missing in (({"grid": {"k": [3]}}, "family"),
                                 ({"family": "complete"}, "grid")):
            with pytest.raises(ValueError, match=f"missing field '{missing}'"):
                SweepConfig.from_dict(present)
        with pytest.raises(ValueError, match="JSON object"):
            SweepConfig.from_dict([1])
        # random's density is a finite number in [0, 1], its law one of two
        for grid, name in (({"density": [True]}, "density"),
                           ({"density": [1.5]}, "density"),
                           ({"density": [-1]}, "density"),
                           ({"density": [float("nan")]}, "density"),
                           ({"density": [float("inf")]}, "density"),
                           ({"density": [10**400]}, "density"),
                           ({"density": ["dense"]}, "density"),
                           ({"law": ["gaussian"]}, "law"),
                           ({"law": [["mixed"]]}, "law"),
                           ({"alpha": [True]}, "alpha")):
            with pytest.raises(ValueError, match=f"parameter '{name}'"):
                sweep_config(family="random", grid={"n": [5], **grid})

    def test_cli_sweep_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "family": "grid",
            "grid": {"m": [4], "alpha": ["3/2"]},
            "explorers": ["adaptive", "nn"],
            "seeds": [0],
            "out": str(tmp_path / "grid_rep"),
        }), encoding="utf-8")
        assert main(["sweep", str(cfg)]) == 0
        rows = rows_from_csv((tmp_path / "grid_rep.csv").read_text())
        adaptive = next(r for r in rows if r["explorer"] == "adaptive")
        assert F(adaptive["online_cost"]) == 15 * F(3, 2)
        json_rows = json.loads((tmp_path / "grid_rep.json").read_text())
        assert json_rows == rows

    def test_every_grid_parameter_is_a_column(self, tmp_path, capsys):
        # four grid points that differ only in density and law
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "family": "random",
            "grid": {"n": [6], "alpha": ["2"], "density": [0.25, "0.75"],
                     "law": ["uniform", "mixed"]},
            "explorers": ["nn"], "out": str(tmp_path / "rep"),
        }), encoding="utf-8")
        assert main(["sweep", str(cfg)]) == 0
        text = (tmp_path / "rep.csv").read_text()
        assert text.startswith("family,k,depth,alpha,m,n,density,law,seed,")
        rows = rows_from_csv(text)
        assert sorted((r["density"], r["law"]) for r in rows) == [
            ("0.25", "mixed"), ("0.25", "uniform"),
            ("0.75", "mixed"), ("0.75", "uniform")]
        seed = CSV_COLUMNS.index("seed")
        assert len({tuple(r[c] for c in CSV_COLUMNS[:seed])
                    for r in rows}) == 4


ALL3 = ["precompute", "adaptive", "nn"]

# small grids of every family; grid m = 5 is beyond the solver cap, so its
# precompute and adaptive rows fail and its nn row takes the certificate
PARITY_CASES = {
    "recursive": ({"k": [2], "depth": [1], "alpha": ["3/2", "2"]}, [0]),
    "complete": ({"k": [3], "alpha": ["3/2", "3"]}, [0]),
    "bipartite": ({"n": [3], "alpha": ["2"]}, [0, 1]),
    "grid": ({"m": [4, 5], "alpha": ["3/2"]}, [0]),
    "random": ({"n": [7], "alpha": ["2"], "law": ["mixed", "uniform"]},
               [0, 1]),
}


def reference_row(family_name, params, explorer, seed):
    """One row from its own fresh build and one `run_episode` call."""
    family = FAMILIES[family_name]
    row = {c: "" for c in CSV_COLUMNS}
    row.update(family=family_name, explorer=explorer, seed=str(seed))
    row.update({k: str(v) for k, v in params.items() if k in CSV_COLUMNS})
    parsed = family.parse(params)
    try:
        graph, source, certificate = family.build(parsed, seed)
        if "n" not in params:
            row["n"] = str(graph.vertex_count)
        report = run_episode(graph, source, make_explorer(explorer),
                             certificate=certificate)
        bound, kind = family.bound(explorer, alpha_of(graph).alpha, parsed)
    except Exception as exc:  # noqa: BLE001 - the row records it
        row["offline_kind"] = f"error:{type(exc).__name__}: {exc}"
        return row
    row.update(online_cost=str(report.online_cost),
               offline_cost=str(report.offline_cost),
               offline_kind=report.offline_kind, ratio=str(report.ratio),
               ratio_decimal=f"{float(report.ratio):.6f}")
    if bound is not None:
        ok = (report.online_cost >= bound if kind == "online_min"
              else report.ratio <= bound)
        row.update(theoretical_bound=str(bound),
                   bound_satisfied="true" if ok else "false")
    return row


class TestSweepTasks:
    """A sweep task is one (grid point, seed): one build, one alpha, and
    one exact offline solve per distinct realized assignment."""

    # at jobs = 4 every family but random has fewer tasks than jobs, so
    # each task's explorers are split into groups
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("family", sorted(PARITY_CASES))
    def test_rows_match_a_fresh_build_per_row(self, family, jobs):
        grid, seeds = PARITY_CASES[family]
        config = sweep_config(family=family, grid=grid, explorers=ALL3,
                              seeds=seeds, jobs=jobs)
        expected = [reference_row(family, params, explorer, seed)
                    for params in (dict(zip(sorted(grid), combo))
                                   for combo in itertools.product(
                                       *(grid[k] for k in sorted(grid))))
                    for explorer in ALL3 for seed in seeds]
        expected.sort(key=lambda r: tuple(r[c] for c in CSV_COLUMNS))
        assert run_sweep(config) == expected

    @pytest.mark.parametrize("family, grid, distinct", [
        ("grid", {"m": [4], "alpha": ["3/2"]}, 1),
        ("random", {"n": [7], "alpha": ["2"]}, 1),
        # the half-split adversary's weights follow each explorer's walk
        ("complete", {"k": [3], "alpha": ["2"]}, None),
    ])
    def test_one_offline_solve_per_distinct_assignment(
            self, family, grid, distinct, monkeypatch):
        calls = []
        solve = engine.optimal_cover_walk

        def counting(graph, task, **kwargs):
            calls.append(tuple(task.weights[eid]
                               for eid in range(len(graph.edges))))
            return solve(graph, task, **kwargs)

        monkeypatch.setattr(engine, "optimal_cover_walk", counting)
        params = {k: v[0] for k, v in grid.items()}
        for explorer in ALL3:  # one solve per episode without a memo
            reference_row(family, params, explorer, 0)
        assignments = set(calls)
        assert len(calls) == 3
        if distinct is not None:
            assert len(assignments) == distinct
        calls.clear()
        rows = run_sweep(sweep_config(family=family, grid=grid,
                                      explorers=ALL3))
        assert sorted(calls) == sorted(assignments)
        assert all(r["offline_kind"] == "exact" for r in rows)

    @pytest.mark.parametrize("points, jobs, units", [
        (["3/2", "2"], 2, [ALL3] * 2),
        (["3/2", "2"], 3, [["precompute", "nn"], ["adaptive"]] * 2),
        (["2"], 2, [["precompute", "nn"], ["adaptive"]]),
        (["2"], 64, [["precompute"], ["adaptive"], ["nn"]]),
    ])
    def test_explorers_split_only_when_tasks_are_fewer_than_jobs(
            self, points, jobs, units, monkeypatch):
        work = []

        class InProcessPool:  # records what a worker pool would be given
            def __init__(self, max_workers):
                assert max_workers == jobs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                work.extend(args)
                return map(fn, work)

        monkeypatch.setattr(reports, "ProcessPoolExecutor", InProcessPool)
        config = sweep_config(family="complete",
                              grid={"k": [3], "alpha": points},
                              explorers=ALL3, jobs=jobs)
        rows = run_sweep(config)
        assert [list(w[3]) for w in work] == units
        assert rows == run_sweep(sweep_config(
            family="complete", grid={"k": [3], "alpha": points},
            explorers=ALL3, jobs=1))

    def test_a_failed_row_leaves_the_others_of_its_task(self):
        rows = run_sweep(sweep_config(
            family="random", grid={"n": [30], "alpha": ["2"]},
            explorers=["precompute", "nn"]))
        by_explorer = {r["explorer"]: r for r in rows}
        assert by_explorer["precompute"]["offline_kind"].startswith(
            "error:SolverCapExceeded: ")
        nn = by_explorer["nn"]
        assert nn["offline_kind"] == "certificate" and nn["n"] == "30"
        assert F(nn["online_cost"]) == F(nn["offline_cost"]) > 0

    def test_a_failed_build_fails_every_row_of_its_task(self):
        # the grid trap is not effective at m = 12, alpha = 7/4 (its build
        # refuses it): only that point's rows fail
        rows = run_sweep(sweep_config(
            family="grid", grid={"m": [4, 12], "alpha": ["7/4"]},
            explorers=ALL3))
        failed = [r for r in rows if r["offline_kind"].startswith("error:")]
        assert {r["m"] for r in failed} == {"12"} and len(failed) == 3
        assert all(r["offline_kind"].startswith("error:GridTrapError: ")
                   and r["n"] == "" for r in failed)


@pytest.mark.parametrize("grid, code", [
    # n = 30 exceeds the exact oracle's cap; the grid trap is not
    # effective at m = 12, alpha = 7/4
    ({"family": "random", "grid": {"n": [6, 30], "alpha": ["2"]}}, 2),
    ({"family": "grid", "grid": {"m": [12], "alpha": ["7/4"]}}, 1),
], ids=["solver-cap", "other-error"])
def test_cli_sweep_exit_code_names_failed_rows(grid, code, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**grid, "explorers": ["precompute"],
                               "seeds": [0], "out": str(tmp_path / "rep")}),
                   encoding="utf-8")
    assert main(["sweep", str(cfg)]) == code
    assert "1 failed" in capsys.readouterr().out
    # the reports are written all the same
    rows = rows_from_csv((tmp_path / "rep.csv").read_text())
    assert sum(r["offline_kind"].startswith("error:") for r in rows) == 1
    assert json.loads((tmp_path / "rep.json").read_text()) == rows


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGoldenBytes:
    """Report bytes pinned across commits: a change to any of these hashes
    is a change to the reports and must be recorded as one."""

    def test_mixed_sweep_report_bytes(self):
        rows = []
        for family, grid in (("complete", {"k": [3], "alpha": ["3/2"]}),
                             ("random", {"n": [8], "alpha": ["5/2"],
                                         "law": ["uniform"]})):
            rows += run_sweep(sweep_config(
                family=family, grid=grid,
                explorers=["precompute", "adaptive", "nn"], seeds=[0, 1]))
        assert len(rows) == 12
        assert sha256(rows_to_csv(rows)) == (
            "f839ec8c63906473b97bafd8bf3d08114890e3f7b161fc0bde4e6b35a66c1c8e")
        assert sha256(rows_to_json(rows)) == (
            "178c3c09eb731c204d2922f42c48d83942627c8b21a48fd1b4a42bbc498e13f9")

    def test_adaptive_run_report_bytes(self, tmp_path, monkeypatch, capsys):
        # a relative path keeps the report's "file" field fixed
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "complete", "--k", "4", "--alpha", "199/100",
                     "--out", "k8.json"]) == 0
        capsys.readouterr()
        assert main(["run", "k8.json", "--explorer", "adaptive"]) == 0
        assert sha256(capsys.readouterr().out) == (
            "1529dd64c8b568e0926d14e724b3777ffebc1dc6787ef91d256f27e5064bdd1d")

    # tie-heavy runs: grids and K_{3,3} are full of equal-cost paths, so
    # these pin every shortest-path and visit-order tie-break end to end
    @pytest.mark.parametrize("family,raw,explorer,digest", [
        ("grid", {"m": 4, "alpha": "3/2"}, "precompute",
         "62eadba5bbfa67a9cf6aea69d9dfe44d434f931860496127a970f35f11537a14"),
        ("grid", {"m": 4, "alpha": "3/2"}, "adaptive",
         "6ed34cf02e438abbb4dfc7796ed9d9e5c7dac365780d4e1cf45028b9bcb3290b"),
        ("grid", {"m": 4, "alpha": "3/2"}, "nn",
         "2fc7c7199c1587674925cc058d550e5ef0c8a4b1eca939ab601daf5f555ab644"),
        ("bipartite", {"n": 3, "alpha": "2"}, "precompute",
         "6cf665f8edde9c111a7fe14cda549c16b76e2b5f263d7f3aaf3fd92c888b405b"),
        ("bipartite", {"n": 3, "alpha": "2"}, "adaptive",
         "6f89e7e5333145081265b04a39411ee0066ccd1bb5135666a343049f0c41c6a2"),
        ("bipartite", {"n": 3, "alpha": "2"}, "nn",
         "3a9a3f51c882f2512db87612b77bf42d33adb85ad5fbec4c64a6e86687a04552"),
        ("grid", {"m": 6, "alpha": "3/2"}, "nn",
         "d6ddf7ec91d696fc7650fd648444a52031c54a9d11df1b86626a6bc827e3fe97"),
        ("random", {"n": 40, "alpha": "2"}, "nn",
         "0aed07fc9ce20e699cfd95687395cb11664a374a3e360ea60ca30ebdb3891ed8"),
    ])
    def test_tie_heavy_run_report_bytes(self, family, raw, explorer, digest):
        spec = FAMILIES[family]
        graph, source, certificate = spec.build(spec.parse(raw), 0)
        report = run_episode(graph, source, make_explorer(explorer),
                             certificate=certificate)
        text = json.dumps(report.to_json_dict(), indent=1, sort_keys=True)
        assert sha256(text) == digest
