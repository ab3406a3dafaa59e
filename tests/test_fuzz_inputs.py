"""Fuzzed malformed inputs through `cli.main`: instance files (`validate`,
`oracle`, `run`), adversary configs (`run`), sweep configs (`sweep`) and
flag values (`generate`'s parameters and seed, `--solver-cap`, `--jobs`).

Each example changes one field of a small valid input (or adds one that
the input does not take).  Whatever the value, the command must exit 0, 1
or 2 without a traceback, and an `error:` line must name the changed field
(or, for a replaced document, just say what is wrong); an added field is
refused with exit 1.  A malformed flag value must exit 1, whatever it is,
and name its flag.  Sizes are small or far over the vertex limit
(refused before anything is built), `jobs` is 1 or invalid (no worker pool
starts), and `solver_cap` is at most 10 or over MAX_EXACT_CAP, so every
example stays cheap.
"""
import contextlib
import io
import json
import re

from hypothesis import given, settings, strategies as st

from boundwalk import MAX_EXACT_CAP
from boundwalk.cli import main
from boundwalk.graph import MAX_VERTICES

junk = st.sampled_from([None, True, False, 2.5, float("nan"), -1, 0, "",
                        "x", "1/0", "3/2", [], [1], {}, {"a": 1}, 10**30,
                        "9" * 40])
sizes = st.one_of(st.integers(-2, 4),
                  st.integers(MAX_VERTICES + 1, 10**12), junk)
# numbers are drawn for values read as rationals, lists for list fields
values = st.one_of(junk, sizes, st.lists(st.one_of(junk, sizes),
                                         max_size=3))

INSTANCE = {"n": 3, "s": 0, "t": 2, "edges": [
    {"a": 0, "b": 1, "lower": "1", "upper": "2", "actual": "3/2"},
    {"a": 1, "b": 2, "lower": "1", "upper": "2", "actual": "2"},
    {"a": 0, "b": 2, "lower": "2", "upper": "4", "actual": "3"}]}
FAMILY_NAMES = ["recursive", "complete", "bipartite", "grid", "random"]
# a valid config stub of each adaptive family
ADVERSARIES = {
    "recursive": {"family": "recursive", "k": 2, "depth": 1, "alpha": "3/2"},
    "complete": {"family": "complete", "k": 2, "alpha": "3/2"},
    "bipartite": {"family": "bipartite", "n": 2, "alpha": "3/2"}}
# a valid sweep config, and a valid grid of each family less its alpha
SWEEP = {"family": "complete", "grid": {"k": [2], "alpha": ["3/2"]},
         "explorers": ["nn"], "seeds": [0], "jobs": 1, "solver_cap": 10}
GRIDS = {"recursive": {"k": [2], "depth": [0]}, "complete": {"k": [2]},
         "bipartite": {"n": [2]}, "grid": {"m": [4]}, "random": {"n": [3]}}
# alphas at the edges of the families' ranges: > 1, [1, 2) and >= 1
edge_alphas = st.sampled_from(["0", "1", "3/2", "2", "3"])


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv, *fields):
    """Exit code, no traceback, and an `error:` line naming one of
    `fields` (if any are given) unless it is the solver cap's (exit 2);
    returns the exit code and stderr."""
    code, err = run_cli(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if fields and "error:" in err:
        # a valid recursive stub of depth 4 has 78 vertices, beyond the cap
        cap = code == 2 and "required vertices exceed cap" in err
        assert cap or re.search(rf"\b({'|'.join(fields)})\b", err), err
    return code, err


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(
    st.tuples(st.sampled_from(["n", "s", "t", "edges"]), values),
    st.tuples(st.integers(0, 2),
              st.sampled_from(["a", "b", "lower", "upper", "actual"]),
              st.one_of(values, st.none())),
    st.tuples(junk),
    # a key neither the top (None) nor an edge takes; a file with edges is
    # read as an instance file, not as an adversary config
    st.tuples(st.just("added"), st.one_of(st.none(), st.integers(0, 2)),
              st.sampled_from(["actuall", "weight", "N", "family"]),
              values)),
    command=st.sampled_from([["validate"], ["oracle"],
                             ["run", "--explorer", "nn"],
                             ["run", "--explorer", "adaptive"],
                             ["run", "--explorer", "precompute"]]))
def test_malformed_instance_files(tmp_path_factory, doc, command):
    data = json.loads(json.dumps(INSTANCE))
    if len(doc) == 1:  # the whole document replaced
        data, fields = doc[0], ()
    elif len(doc) == 2:
        # a malformed edge list may be refused at one of its edges
        fields = (doc[0], "edge") if doc[0] == "edges" else (doc[0],)
        data[doc[0]] = doc[1]
    elif doc[0] == "added":
        _, eid, field, value = doc
        (data if eid is None else data["edges"][eid])[field] = value
        fields = (field,)
    else:
        eid, field, value = doc
        # a changed bound may leave the unchanged actual outside it
        fields = (field, "actual")
        if value is None:
            del data["edges"][eid][field]
        else:
            data["edges"][eid][field] = value
    path = tmp_path_factory.mktemp("instance") / "in.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, err = check([command[0], str(path), *command[1:]], *fields)
    if doc[0] == "added":
        assert code == 1 and f"unknown field {fields[0]!r}" in err, err


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(sorted(ADVERSARIES)),
       field=st.sampled_from(["family", "k", "depth", "n", "alpha"]),
       value=st.one_of(values, st.sampled_from(FAMILY_NAMES)),
       explorer=st.sampled_from(["nn", "adaptive", "precompute"]))
def test_malformed_adversary_configs(tmp_path_factory, family, field, value,
                                     explorer):
    # a field the family does not take is added, and refused by its name
    path = tmp_path_factory.mktemp("adversary") / "cfg.json"
    path.write_text(json.dumps({**ADVERSARIES[family], field: value}),
                    encoding="utf-8")
    check(["run", str(path), "--explorer", explorer], field)


sweep_values = {
    "family": st.one_of(junk, st.sampled_from(FAMILY_NAMES)),
    "grid": st.one_of(
        junk,
        st.dictionaries(st.sampled_from(["k", "alpha", "m", "density",
                                         "law"]), values, max_size=2),
        st.builds(lambda k: {"k": k, "alpha": ["3/2"]},
                  st.lists(st.one_of(sizes, junk), max_size=2))),
    "explorers": st.one_of(junk, st.lists(st.one_of(
        junk, st.sampled_from(["nn", "adaptive", "precompute", "dfs"])),
        max_size=3)),
    "seeds": st.one_of(junk, st.lists(st.one_of(st.integers(-3, 3), junk),
                                      max_size=2)),
    "jobs": st.one_of(junk, st.sampled_from([1, 0, -1, 65, 10**9])),
    "solver_cap": st.one_of(junk, st.integers(-2, 10),
                            st.integers(MAX_EXACT_CAP + 1, 10**9)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_sweep_configs(tmp_path_factory, data):
    family = data.draw(st.sampled_from(FAMILY_NAMES))
    base = {**SWEEP, "family": family,
            "grid": {**GRIDS[family], "alpha": ["3/2"]}}
    # or a key the config does not take: "seeds" and "solver_cap" misspelled
    field = data.draw(st.sampled_from([*sweep_values, None, "seed",
                                       "solvercap"]))
    added = field is not None and field not in sweep_values
    if added:
        config, fields = {**base, field: data.draw(values)}, (field,)
    elif field is None:  # the whole document replaced
        config, fields = data.draw(junk), ()
    else:
        strategy = sweep_values[field]
        if field == "grid":  # the family's own grid at an edge alpha, too
            strategy = st.one_of(strategy, edge_alphas.map(
                lambda alpha: {**GRIDS[family], "alpha": [alpha]}))
        config = {**base, field: data.draw(strategy)}
        # another family may refuse the grid's parameters
        fields = (field, "grid") if field == "family" else (field,)
    tmp = tmp_path_factory.mktemp("sweep")
    path = tmp / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, err = check(["sweep", str(path), "--out", str(tmp / "report")],
                      *fields)
    # a value its family refuses (an alpha at the wrong edge, say) is
    # refused at load, so no row fails here but by the solver cap (exit 2)
    assert code != 1 or "error:" in err, err
    if added:
        assert code == 1 and f"unknown field {field!r}" in err, err


# flag values are text: junk as the command line would carry it, less the
# integers (each integer below is drawn where it is out of range)
words = junk.map(str).filter(lambda text: not text.lstrip("-").isdigit())
# (family, valid flags) a malformed value of each flag is sent with; the
# families' size parameters are drawn below their minimum or over the
# vertex limit, so nothing is built
flag_values = {
    "k": (("complete", []), st.one_of(
        words, st.integers(-10**6, 1), st.integers(513, 10**30))),
    "depth": (("recursive", ["--k", "2"]), st.one_of(
        words, st.integers(-10**6, -1), st.integers(8, 10**30))),
    "m": (("grid", ["--alpha", "3/2"]), st.one_of(
        words, st.integers(-10**6, 3), st.integers(33, 10**30))),
    "n": (("random", []), st.one_of(
        words, st.integers(-10**6, 1), st.integers(MAX_VERTICES + 1, 10**30))),
    "alpha": (("complete", ["--k", "2"]), st.one_of(
        words.filter(lambda text: text not in ("2.5", "3/2")),
        st.fractions(max_value=0.99))),
    "density": (("random", ["--n", "5"]), st.one_of(
        words, st.floats().filter(lambda x: not 0 <= x <= 1).map(repr))),
    "law": (("random", ["--n", "5"]), st.one_of(
        words, st.sampled_from(["Uniform", "MIXED", "gaussian", " mixed"]))),
    "seed": (("random", ["--n", "5"]), words),
}


def check_flag(argv, flag):
    """Exit 1, no traceback, and an `error:` line naming the flag."""
    code, err = run_cli(argv)
    assert code == 1, err
    assert "Traceback" not in err and "error:" in err, err
    assert re.search(rf"\b{flag}\b", err), err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_flag_values(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("flags")
    command = data.draw(st.sampled_from(["generate", "run", "oracle",
                                         "sweep"]))
    if command == "generate":
        flag = data.draw(st.sampled_from(sorted(flag_values)))
        (family, base), values = flag_values[flag]
        value = str(data.draw(values))
        out = tmp / "out.json"
        check_flag(["generate", family, *base, f"--{flag}", value,
                    "--out", str(out)], flag)
        assert not out.exists()
    elif command in ("run", "oracle"):
        # a cap is refused outside 1..MAX_EXACT_CAP, before the file is read
        value = str(data.draw(st.one_of(
            words, st.integers(-10**6, 0),
            st.integers(MAX_EXACT_CAP + 1, 10**30))))
        path = tmp / "in.json"
        path.write_text(json.dumps(INSTANCE), encoding="utf-8")
        extra = ["--explorer", "adaptive"] if command == "run" else []
        check_flag([command, str(path), *extra, "--solver-cap", value],
                   "solver-cap")
    else:
        # `jobs` is never valid here, so no worker pool starts
        value = str(data.draw(st.one_of(words, st.integers(-10**6, 0),
                                        st.integers(65, 10**30))))
        path = tmp / "sweep.json"
        path.write_text(json.dumps(SWEEP), encoding="utf-8")
        check_flag(["sweep", str(path), "--jobs", value, "--out",
                    str(tmp / "report")], "jobs")
        assert not (tmp / "report.csv").exists()
