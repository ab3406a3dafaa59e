import json
import re
import tracemalloc
from fractions import Fraction as F

import pytest

from boundwalk import Edge, EstimateGraph, cli, random_instance, solver
from boundwalk.adversaries import FAMILIES
from boundwalk.cli import main
from boundwalk.engine import EngineError
from boundwalk.graph import MAX_VERTICES, WeightAssignment
from boundwalk.instance_io import (instance_from_dict, instance_to_dict,
                                   load_instance, load_run, parse_fraction,
                                   save_adversary_config, save_instance)

# generate flags, the same parameters as a sweep grid point, and the seed;
# complete at alpha=3 is clamped to 2 by its builder
GENERATE_CASES = {
    "recursive": (["--k", "2", "--depth", "1", "--alpha", "3/2"],
                  {"k": 2, "depth": 1, "alpha": "3/2"}, 0),
    "complete": (["--k", "3", "--alpha", "3"], {"k": 3, "alpha": "3"}, 0),
    "bipartite": (["--n", "3", "--alpha", "1.75"],
                  {"n": 3, "alpha": "7/4"}, 0),
    "grid": (["--m", "4", "--alpha", "3/2"], {"m": 4, "alpha": "3/2"}, 0),
    "random": (["--n", "7", "--seed", "9", "--law", "uniform",
                "--density", "0.3", "--alpha", "5/2"],
               {"n": 7, "alpha": "5/2", "law": "uniform", "density": 0.3},
               9),
}


class TestInstanceFormat:
    def test_round_trip_with_actuals(self, tmp_path):
        graph, assignment = random_instance(8, density=0.5, seed=4)
        path = tmp_path / "inst.json"
        save_instance(path, graph, assignment)
        loaded, loaded_assignment = load_instance(path)
        assert "family" not in load_run(path)[1]  # run reads an instance
        assert instance_to_dict(loaded, loaded_assignment) == \
            instance_to_dict(graph, assignment)

    def test_rationals_as_exact_strings(self):
        g = EstimateGraph(2, [Edge(0, 1, F(1, 3), F(5, 2))], 0, 1)
        data = instance_to_dict(g, WeightAssignment({0: F(7, 6)}))
        assert data["edges"][0]["lower"] == "1/3"
        assert data["edges"][0]["upper"] == "5/2"
        assert data["edges"][0]["actual"] == "7/6"
        graph2, assignment2 = instance_from_dict(data)
        assert assignment2.weight(0) == F(7, 6)

    def test_actual_optional(self):
        g = EstimateGraph(2, [Edge(0, 1, F(1), F(2))], 0, 1)
        graph2, assignment2 = instance_from_dict(instance_to_dict(g))
        assert assignment2 is None

    def test_parse_fraction_forms(self):
        assert parse_fraction("3/2") == F(3, 2)
        assert parse_fraction("2") == F(2)
        assert parse_fraction("1.75") == F(7, 4)
        with pytest.raises(ValueError):
            parse_fraction("x")
        # Fraction would raise ten to the exponent, however large
        for text in ("1e3", "2E+1", "1.5e-2", "1e-9999999999"):
            with pytest.raises(ValueError) as refused:
                parse_fraction(text)
            assert str(refused.value) == (f"exponent notation is not "
                                          f"accepted: '{text}'")

    @pytest.mark.parametrize("family", sorted(GENERATE_CASES))
    def test_adversary_config_round_trip(self, family, tmp_path, capsys):
        """`generate` then `load_run` gives the instance a sweep row builds
        from the same parameters."""
        flags, params, seed = GENERATE_CASES[family]
        path = tmp_path / f"{family}.json"
        assert main(["generate", family, *flags, "--out", str(path)]) == 0
        (loaded_graph, loaded_source, _), block = load_run(path)
        entry = FAMILIES[family]
        graph, source, _ = entry.build(entry.parse(params), seed)
        if entry.adaptive:
            assert block["family"] == family
            # adaptive weights compared along one fixed visit order
            order = tuple(range(graph.vertex_count))
            actuals = [loaded_source.complete(eid, order)
                       for eid in range(len(graph.edges))]
            expected = [source.complete(eid, order)
                        for eid in range(len(graph.edges))]
        else:
            assert "family" not in block  # an instance file
            actuals = loaded_source.assignment.weights
            expected = source.assignment.weights
        assert loaded_graph.edges == graph.edges
        assert (loaded_graph.start, loaded_graph.end) == (graph.start,
                                                          graph.end)
        assert actuals == expected

    def test_config_stub_names_an_adaptive_family(self, tmp_path):
        path = tmp_path / "cfg.json"
        save_adversary_config(path, "complete", {"k": 4, "alpha": "2"})
        (graph, _, _), _ = load_run(path)
        assert graph.vertex_count == 8
        for family, match in (("mystery", "unknown adversary family"),
                              ("grid", "family 'grid' has fixed weights: "
                                       "`boundwalk generate grid` writes an "
                                       "instance file")):
            save_adversary_config(path, family, {"m": 4})
            with pytest.raises(ValueError, match=match):
                load_run(path)


class TestCli:
    def test_generate_run_oracle_validate(self, tmp_path, capsys):
        inst = tmp_path / "g.json"
        assert main(["generate", "random", "--n", "7", "--seed", "9",
                     "--out", str(inst)]) == 0
        assert main(["validate", str(inst)]) == 0
        assert main(["oracle", str(inst)]) == 0
        out = capsys.readouterr().out
        assert '"cost"' in out
        assert main(["run", str(inst), "--explorer", "adaptive"]) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["offline_kind"] == "exact"
        out = tmp_path / "report.json"
        assert main(["run", str(inst), "--explorer", "adaptive",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text(encoding="utf-8") == text

    def test_generate_adversary_config_and_run(self, tmp_path, capsys):
        cfg = tmp_path / "k8.json"
        assert main(["generate", "complete", "--k", "4", "--alpha", "2",
                     "--out", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", str(cfg), "--explorer", "adaptive"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["online_cost"] == "10"
        assert report["offline_cost"] == "7"

    def test_run_reports_the_vertex_count_of_a_bipartite_stub(self, tmp_path,
                                                              capsys):
        # the stub's own n is a side size: K_{3,3} has 6 vertices
        cfg = tmp_path / "k33.json"
        assert main(["generate", "bipartite", "--n", "3", "--out",
                     str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", str(cfg), "--explorer", "adaptive"]) == 0
        instance = json.loads(capsys.readouterr().out)["instance"]
        assert instance == {"file": str(cfg), "n": 6, "family": "bipartite",
                            "alpha": "2"}

    def test_generate_recursive_sizes(self, tmp_path):
        cfg = tmp_path / "rec.json"
        assert main(["generate", "recursive", "--k", "2", "--depth", "1",
                     "--alpha", "2", "--out", str(cfg)]) == 0
        (graph, _, _), block = load_run(cfg)
        assert block["family"] == "recursive"
        assert graph.vertex_count == 8

    def test_exit_code_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "s": 0, "t": 0, "edges": [
            {"a": 0, "b": 1, "lower": "1", "upper": "1", "actual": "1"},
        ]}), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        bad.write_text("5", encoding="utf-8")  # not a JSON object
        assert main(["validate", str(bad)]) == 1
        assert main(["generate", "recursive", "--k", "1", "--depth", "0",
                     "--alpha", "2", "--out", str(tmp_path / "x.json")]) == 1
        assert main(["run", str(tmp_path / "missing.json"),
                     "--explorer", "nn"]) == 1
        capsys.readouterr()
        # a path that cannot be read as a file is refused the same way
        for argv in (["run", str(tmp_path), "--explorer", "nn"],
                     ["validate", str(tmp_path)], ["sweep", str(tmp_path)]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")
        # config shapes exit 1 with a message naming the field; nothing runs
        sweep = {"family": "complete", "grid": {"k": [3]},
                 "explorers": ["nn"], "out": str(tmp_path / "rep")}
        for config, field in (([1], "JSON object"),
                              ({**sweep, "grid": [1]}, "'grid'"),
                              ({**sweep, "grid": {"k": 3}}, "'grid'"),
                              ({**sweep, "family": ["complete"]}, "'family'"),
                              ({**sweep, "explorers": "adaptive"},
                               "'explorers'"),
                              ({**sweep, "explorers": ["dfs"]}, "'explorers'"),
                              ({**sweep, "solver_cap": 23}, "'solver_cap'"),
                              # below 1 no row may run either
                              ({**sweep, "solver_cap": 0}, "'solver_cap'"),
                              ({**sweep, "solver_cap": -3}, "'solver_cap'")):
            bad.write_text(json.dumps(config), encoding="utf-8")
            assert main(["sweep", str(bad)]) == 1
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err
        assert not (tmp_path / "rep.csv").exists()
        bad.write_text(json.dumps({"family": ["complete"], "k": 3}),
                       encoding="utf-8")
        assert main(["run", str(bad), "--explorer", "nn"]) == 1
        assert "'family'" in capsys.readouterr().err
        # random's density must be a finite number in [0, 1]
        for density in ("inf", "2", "-1", "nan"):
            assert main(["generate", "random", "--n", "5", "--density",
                         density, "--out", str(tmp_path / "r.json")]) == 1
            assert "parameter 'density'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [["oracle"],
                                      ["run", "--explorer", "adaptive"]])
    def test_invalid_instance_refused_naming_field(self, tmp_path, capsys,
                                                   argv):
        # an instance that loads but fails `validate` is an error like any
        # other refusal: exit 1, one `error:` line naming the fields
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "s": 1, "t": 1, "edges": [
            {"a": 0, "b": 1, "lower": "1", "upper": "1", "actual": "1"},
        ]}), encoding="utf-8")
        assert main([argv[0], str(bad), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: invalid instance: s and t must be "
                                "distinct, both are 1\n")

    @pytest.mark.parametrize("fields, message", [
        ({"edges": [{"a": 0, "b": 1, "lower": "1", "upper": "1/0",
                     "actual": "1"}]},
         "edge 0: bad field 'upper'"),
        ({"edges": [{"a": 0, "b": 1, "lower": "1", "upper": "1e-9999999999",
                     "actual": "1"}]},
         "edge 0: bad field 'upper': exponent notation is not accepted"),
        ({"edges": 5}, "bad field 'edges'"),
        ({"edges": [{"a": 0, "b": 1, "lower": "1", "upper": "2",
                     "actual": "1"},
                    {"a": 1, "b": 2, "lower": "1", "upper": "2",
                     "actual": "5"}]},
         "edge 1: actual 5 outside its interval [1, 2]"),
        ({"edges": [{"a": 0, "b": 1, "lower": "1", "upper": "2",
                     "actual": "0"},
                    {"a": 1, "b": 2, "lower": "1", "upper": "2",
                     "actual": "1"}]},
         "edge 0: actual 0 outside its interval [1, 2]"),
        # integers are never truncated from a float or read from a bool
        ({"t": 2.9}, "bad field 't'"),
        ({"n": True}, "bad field 'n'"),
        ({"edges": [{"a": 0, "b": 1.7, "lower": "1", "upper": "2",
                     "actual": "1"}]},
         "edge 0: bad field 'b'"),
        # nor is a rational: true is not 1
        ({"edges": [{"a": 0, "b": 1, "lower": True, "upper": True,
                     "actual": True},
                    {"a": 1, "b": 2, "lower": "1", "upper": "2",
                     "actual": "1"}]},
         "edge 0: bad field 'lower'"),
        ({"edges": [{"a": 0, "b": 1, "lower": "1", "upper": "2",
                     "actual": False},
                    {"a": 1, "b": 2, "lower": "1", "upper": "2",
                     "actual": "1"}]},
         "edge 0: bad field 'actual'"),
        # a misspelled or extra key is refused, not ignored
        ({"edges": [{"a": 0, "b": 1, "lower": "1", "upper": "2",
                     "actuall": "1"},
                    {"a": 1, "b": 2, "lower": "1", "upper": "2",
                     "actual": "1"}]},
         "edge 0: unknown field 'actuall' (takes a, b, lower, upper, "
         "actual)"),
        ({"comment": "two edges"},
         "unknown field 'comment' (takes n, s, t, edges)"),
        # an edge is an object, not a list of its fields
        ({"edges": [[0, 1, "1", "2", "1"],
                    {"a": 1, "b": 2, "lower": "1", "upper": "2",
                     "actual": "1"}]},
         "edge 0: expected an object, got [0, 1, '1', '2', '1']"),
    ], ids=["upper-1/0", "upper-exponent", "edges-not-a-list", "actual-above-upper",
            "actual-zero", "t-float", "n-bool", "b-float", "lower-bool",
            "actual-bool", "edge-key-typo", "extra-key", "edge-not-object"])
    def test_malformed_instance_fields_exit_1(self, fields, message,
                                              tmp_path, capsys):
        instance = {"n": 3, "s": 0, "t": 2, "edges": [
            {"a": 0, "b": 1, "lower": "1", "upper": "2", "actual": "1"},
            {"a": 1, "b": 2, "lower": "1", "upper": "2", "actual": "1"}]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**instance, **fields}), encoding="utf-8")
        for argv in (["validate", str(bad)], ["oracle", str(bad)],
                     ["run", str(bad), "--explorer", "adaptive"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err

    @staticmethod
    def _edgeless_faults(tmp_path, capsys, instance, faults):
        # validate prints each fault; having no edges, the file lacks no
        # actual weight, so oracle and run refuse it with the same faults
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == "".join(f"{f}\n" for f in faults)
        for argv in (["oracle", str(path)],
                     ["run", str(path), "--explorer", "nn"]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: invalid instance: {'; '.join(faults)}\n")

    def test_single_vertex_instance_fails_validate(self, tmp_path, capsys):
        # one vertex is no graph: validate names n, and the s = t it forces
        self._edgeless_faults(
            tmp_path, capsys, {"n": 1, "s": 0, "t": 0, "edges": []},
            ["n = 1: a graph needs at least two vertices",
             "s and t must be distinct, both are 0"])

    def test_edgeless_instance_fails_validate(self, tmp_path, capsys):
        self._edgeless_faults(
            tmp_path, capsys, {"n": 3, "s": 0, "t": 2, "edges": []},
            ["edges leave n = 3 vertices disconnected"])

    def test_vertex_limit_refused_before_building(self, tmp_path, capsys):
        # a billion vertices would be a billion adjacency lists and, per
        # episode, an n x n distance matrix: refused before either exists
        instance = {"n": 10**9, "s": 0, "t": 1, "edges": [
            {"a": 0, "b": 1, "lower": "1", "upper": "2", "actual": "1"}]}
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(instance), encoding="utf-8")
        tracemalloc.start()
        try:
            for argv in (["validate", str(bad)], ["oracle", str(bad)],
                         ["run", str(bad), "--explorer", "nn"]):
                assert main(argv) == 1
                err = capsys.readouterr().err
                assert "bad field 'n'" in err and str(MAX_VERTICES) in err
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv, names", [
        (["random", "--n", "1500", "--density", "0.002"], "parameter 'n'"),
        (["bipartite", "--n", "513"], "parameter 'n'"),
        (["complete", "--k", "513"], "parameter 'k'"),
        (["grid", "--m", "33", "--alpha", "3/2"], "parameter 'm'"),
        (["recursive", "--k", "2", "--depth", "8"],
         "parameters 'k', 'depth'"),
        # the count never loops over a huge depth
        (["recursive", "--k", "2", "--depth", str(10**18)],
         "parameters 'k', 'depth'"),
    ], ids=["random", "bipartite", "complete", "grid", "recursive",
            "recursive-huge-depth"])
    def test_family_vertex_limit_refused_before_building(self, argv, names,
                                                         tmp_path, capsys):
        out = tmp_path / "big.json"
        tracemalloc.start()
        try:
            assert main(["generate", *argv, "--out", str(out)]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert names in err and str(MAX_VERTICES) in err
        assert not out.exists()
        assert peak < 1 << 20

    def test_family_vertex_limit_in_adversary_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "complete", "k": 513,
                                   "alpha": "2"}), encoding="utf-8")
        assert main(["run", str(cfg), "--explorer", "nn"]) == 1
        assert "parameter 'k'" in capsys.readouterr().err

    def test_exit_code_solver_cap(self, tmp_path, capsys):
        inst = tmp_path / "big.json"
        assert main(["generate", "random", "--n", "12", "--seed", "1",
                     "--out", str(inst)]) == 0
        assert main(["oracle", str(inst), "--solver-cap", "6"]) == 2
        # a cap beyond the DP's memory limit is refused before any table,
        # and one below 1 before any solve; both exit 1, not 2
        for cap in ("40", "0", "-3"):
            for argv in (["oracle", str(inst)],
                         ["run", str(inst), "--explorer", "adaptive"]):
                assert main([*argv, "--solver-cap", cap]) == 1
                err = capsys.readouterr().err
                assert "error: --solver-cap: " in err
                assert "limit of 22" in err

    def test_usage_errors_exit_1(self, tmp_path, capsys):
        # exit 2 is kept for the solver cap, so argparse's usage exit is 1
        out = str(tmp_path / "g.json")
        for argv, message in (
                (["generate", "grid", "--m", "4", "--bogus", "1", "--out",
                  out], "unrecognized arguments: --bogus"),
                (["generate", "grid", "--m", "4"], "--out"),
                (["generate", "torus", "--out", out], "invalid choice"),
                (["run", out, "--explorer", "dfs"], "invalid choice"),
                (["sweep", out, "--format", "xml"], "invalid choice"),
                ([], "required")):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "error:" in err and message in err
        assert not (tmp_path / "g.json").exists()
        for argv in (["--help"], ["generate", "--help"]):
            assert main(argv) == 0
        # each family parameter's help names the families that take it
        text = capsys.readouterr().out
        assert re.search(r"--depth DEPTH\s+parameter of recursive\n", text)
        assert re.search(r"--k K\s+parameter of recursive, complete\n", text)

    def test_ineffective_grid_trap_refused(self, tmp_path, capsys):
        # at m = 12, alpha = 7/4 the certificate exceeds 6 m alpha + (m-2) m
        out = tmp_path / "grid12.json"
        assert main(["generate", "grid", "--m", "12", "--alpha", "7/4",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: trap not effective for m=12, alpha=7/4: ")
        assert not out.exists()

    def test_internal_faults_are_not_invalid_input(self, tmp_path, capsys,
                                                   monkeypatch):
        inst = tmp_path / "g.json"
        assert main(["generate", "random", "--n", "5", "--out",
                     str(inst)]) == 0
        capsys.readouterr()

        def failing(error):
            def run_episode(*args, **kwargs):
                raise error
            return run_episode

        argv = ["run", str(inst), "--explorer", "nn"]
        monkeypatch.setattr(cli, "run_episode",
                            failing(EngineError("lost a move")))
        assert main(argv) == 3
        assert capsys.readouterr().err == ("internal invariant violation: "
                                           "lost a move\n")
        # no input path raises KeyError: one from inside is a failure
        monkeypatch.setattr(cli, "run_episode", failing(KeyError("slot")))
        with pytest.raises(KeyError):
            main(argv)
        # a table that reads every cell one too high breaks the solver's
        # reconstruction invariant: exit 3 with its message, no traceback
        table = solver._suffix_table

        def one_too_high(*args):
            column = table(*args)
            return lambda mask: [c + 1 for c in column(mask)]

        monkeypatch.setattr(solver, "_suffix_table", one_too_high)
        assert main(["oracle", str(inst)]) == 3
        claimed, costs = re.fullmatch(
            r"internal invariant violation: table claims (\d+), order "
            r"costs (\d+)\n", capsys.readouterr().err).groups()
        assert int(claimed) == int(costs) + 1

    def test_exponent_alpha_exits_1(self, tmp_path, capsys):
        # refused before Fraction would raise ten to the 99999999th power
        out = tmp_path / "g.json"
        assert main(["generate", "random", "--n", "5", "--alpha",
                     "1e99999999", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bad parameter 'alpha': exponent notation is not "
            "accepted: '1e99999999'\n")
        assert not out.exists()

    def test_missing_required_flag(self, tmp_path, capsys):
        assert main(["generate", "grid", "--out",
                     str(tmp_path / "g.json")]) == 1

    def test_grid_generation_warns_beyond_cap(self, tmp_path, capsys):
        out = tmp_path / "grid6.json"
        assert main(["generate", "grid", "--m", "6", "--alpha", "1.5",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "self-check skipped" in err

    def test_run_instance_without_actuals_rejected(self, tmp_path, capsys):
        g = EstimateGraph(2, [Edge(0, 1, F(1), F(2))], 0, 1)
        path = tmp_path / "noact.json"
        save_instance(path, g, None)
        assert main(["run", str(path), "--explorer", "nn"]) == 1
        # refused through main, as every other file, naming what is missing
        assert main(["oracle", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("error: ") and "actual weight" in line

    def test_deeply_nested_json_refused(self, tmp_path, capsys):
        # json.loads raises RecursionError on this; every reader refuses it
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000, encoding="utf-8")
        for argv in (["validate", str(deep)], ["oracle", str(deep)],
                     ["run", str(deep), "--explorer", "nn"],
                     ["sweep", str(deep), "--out", str(tmp_path / "rep")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(deep) in err
            assert "Traceback" not in err
        assert not (tmp_path / "rep.csv").exists()

    def test_bipartite_size_refused_naming_n(self, tmp_path, capsys):
        # bipartite takes n, not k, so the refusal names n
        out = tmp_path / "b.json"
        assert main(["generate", "bipartite", "--n", "1", "--out",
                     str(out)]) == 1
        assert "bad parameter 'n'" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "bipartite", "n": 1}),
                       encoding="utf-8")
        assert main(["run", str(cfg), "--explorer", "nn"]) == 1
        assert "bad parameter 'n'" in capsys.readouterr().err

    def test_sweep_refuses_sizes_at_load(self, tmp_path, capsys):
        # refused before any row runs, so no report is written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "complete", "grid": {"k": [1]},
                                   "out": str(tmp_path / "rep")}),
                       encoding="utf-8")
        assert main(["sweep", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "'grid'" in err and "bad parameter 'k'" in err
        assert not (tmp_path / "rep.csv").exists()
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("field", [{"seed": [5, 6]}, {"solvercap": 3}])
    def test_sweep_refuses_unknown_fields_at_load(self, field, tmp_path,
                                                  capsys):
        # a misspelled key would otherwise run at its default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "complete", "grid": {"k": [3]},
                                   "out": str(tmp_path / "rep"), **field}),
                       encoding="utf-8")
        assert main(["sweep", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: unknown field {next(iter(field))!r} (takes family, "
            f"grid, explorers, seeds, out, jobs, solver_cap)\n")
        assert not (tmp_path / "rep.csv").exists()
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("config, flags, given", [
        ({"out": ""}, [], ""), ({}, ["--out", ""], ""),
        ({"out": "rep"}, ["--out", "/"], "/")])
    def test_sweep_refuses_an_out_without_a_file_name_at_load(
            self, config, flags, given, tmp_path, capsys, monkeypatch):
        def no_rows(config):
            raise AssertionError("a row ran")

        monkeypatch.setattr(cli, "run_sweep", no_rows)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "complete", "grid": {"k": [3]},
                                   **config}), encoding="utf-8")
        assert main(["sweep", str(cfg), *flags]) == 1
        assert capsys.readouterr().err == (
            f"error: bad field 'out': {given!r} names no file\n")

    def test_sweep_checks_every_config_before_the_first_runs(
            self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"family": "complete",
                                    "grid": {"k": [3]},
                                    "out": str(tmp_path / "rep")}),
                        encoding="utf-8")
        bad.write_text(json.dumps({"family": "complete", "grid": {"k": [1]},
                                   "out": str(tmp_path / "other")}),
                       encoding="utf-8")
        assert main(["sweep", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: bad field 'grid': ")
        assert not (tmp_path / "rep.csv").exists()

    @pytest.mark.parametrize("outs, flags, message", [
        (["a", "b"], ["--out", "c"], "--out: names the reports of one "
                                     "config, not of 2"),
        (["a", "sub/../a"], [], "two configs write their reports to the "
                                "same path"),
    ])
    def test_sweep_refuses_configs_that_share_reports(
            self, outs, flags, message, tmp_path, capsys, monkeypatch):
        def no_rows(config):
            raise AssertionError("a row ran")

        monkeypatch.setattr(cli, "run_sweep", no_rows)
        paths = []
        for i, out in enumerate(outs):
            paths.append(tmp_path / f"cfg{i}.json")
            paths[-1].write_text(json.dumps(
                {"family": "complete", "grid": {"k": [3]},
                 "out": str(tmp_path / out)}), encoding="utf-8")
        assert main(["sweep", *map(str, paths), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("family, grid", [
        ("grid", {"m": [4], "alpha": ["3/2", "2"]}),
        ("random", {"n": [5], "alpha": ["1/2"]}),
        ("complete", {"k": [3], "alpha": ["1"]}),
    ])
    def test_sweep_refuses_alpha_outside_family_range_at_load(
            self, family, grid, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": family, "grid": grid,
                                   "out": str(tmp_path / "rep")}),
                       encoding="utf-8")
        assert main(["sweep", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad field 'grid': "
                                       "bad parameter 'alpha': expected ")
        assert not (tmp_path / "rep.csv").exists()
        assert not (tmp_path / "rep.json").exists()

    def test_stub_refuses_a_parameter_its_family_does_not_take(
            self, tmp_path, capsys):
        # a misspelled alpha would otherwise run at the default alpha 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "complete", "k": 3,
                                   "aplha": "3/2"}), encoding="utf-8")
        assert main(["run", str(cfg), "--explorer", "nn"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: family 'complete': unknown parameter "
                                "'aplha' (takes k, alpha)\n")

    def test_generate_refuses_flags_the_family_does_not_take(self, tmp_path,
                                                             capsys):
        out = tmp_path / "grid.json"
        assert main(["generate", "grid", "--m", "4", "--alpha", "3/2",
                     "--k", "3", "--depth", "9", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown parameters 'depth', 'k' (takes m, alpha)\n")
        assert not out.exists()

    def test_generate_asks_for_alpha_when_its_default_is_out_of_range(
            self, tmp_path, capsys):
        # the shared alpha default, 2, lies outside grid's 1 <= alpha < 2;
        # the refusal is about the missing value, not a value never given
        out = tmp_path / "grid.json"
        assert main(["generate", "grid", "--m", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: missing parameter 'alpha': this family needs one, since "
            "the default 2 is outside 1 <= alpha < 2\n")
        assert not out.exists()
        assert main(["generate", "grid", "--m", "4", "--alpha", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bad parameter 'alpha': expected 1 <= alpha < 2, got 2\n")
        assert main(["generate", "grid", "--m", "4", "--alpha", "3/2",
                     "--out", str(out)]) == 0
        assert out.exists()
