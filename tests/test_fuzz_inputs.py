"""Fuzzed malformed inputs through `cli.main`: instance files (`validate`,
`oracle`, `run`), adversary configs (`run`) and sweep configs (`sweep`).

Each example changes one field of a small valid input.  Whatever the value,
the command must exit 0, 1 or 2 without a traceback, and an `error:` line
must name the changed field (or, for a replaced document, just say what is
wrong).  Sizes are small or far over the vertex limit
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
# extra parameters are ignored, so a changed family still builds
ADVERSARY = {"family": "complete", "k": 2, "depth": 1, "n": 2,
             "alpha": "3/2"}
SWEEP = {"family": "complete", "grid": {"k": [2], "alpha": ["3/2"]},
         "explorers": ["nn"], "seeds": [0], "jobs": 1, "solver_cap": 10}


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv, *fields):
    """Exit code, no traceback, and an `error:` line naming one of
    `fields` (if any are given)."""
    code, err = run_cli(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if fields and "error:" in err:
        assert re.search(rf"\b({'|'.join(fields)})\b", err), err


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(
    st.tuples(st.sampled_from(["n", "s", "t", "edges"]), values),
    st.tuples(st.integers(0, 2),
              st.sampled_from(["a", "b", "lower", "upper", "actual"]),
              st.one_of(values, st.none())),
    st.tuples(junk)),
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
    check([command[0], str(path), *command[1:]], *fields)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(["family", "k", "depth", "n", "alpha"]),
       value=st.one_of(values, st.sampled_from(
           ["recursive", "complete", "bipartite", "grid", "random"])),
       explorer=st.sampled_from(["nn", "adaptive", "precompute"]))
def test_malformed_adversary_configs(tmp_path_factory, field, value,
                                     explorer):
    path = tmp_path_factory.mktemp("adversary") / "cfg.json"
    path.write_text(json.dumps({**ADVERSARY, field: value}),
                    encoding="utf-8")
    check(["run", str(path), "--explorer", explorer], field)


sweep_values = {
    "family": st.one_of(junk, st.sampled_from(
        ["recursive", "complete", "bipartite", "grid", "random"])),
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
    field = data.draw(st.sampled_from([*sweep_values, None]))
    if field is None:  # the whole document replaced
        config, fields = data.draw(junk), ()
    else:
        config = {**SWEEP, field: data.draw(sweep_values[field])}
        # another family may refuse the grid's parameters
        fields = (field, "grid") if field == "family" else (field,)
    tmp = tmp_path_factory.mktemp("sweep")
    path = tmp / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    check(["sweep", str(path), "--out", str(tmp / "report")], *fields)
