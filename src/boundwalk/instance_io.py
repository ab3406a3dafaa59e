"""JSON files in and out: instance files and adaptive adversary configs.

Instance files carry the graph, the announced intervals, and optionally the
actual weights ("actual" is absent when an adaptive adversary supplies
them).  Rationals are serialized as exact "p/q" strings.  Adaptive
adversaries cannot be serialized as plain instances, so they are referenced
by family name plus parameters in a config stub.  Every file the command
line reads goes through `read_json`, and a refused file or field is a
ValueError naming it: `load_instance` reads instance files, `load_run`
what `run` plays.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .adversaries import FAMILIES, Family, Instance, parse_fraction
from .engine import FixedAssignment
from .graph import (MAX_VERTICES, Edge, EstimateGraph, WeightAssignment,
                    _read_field, parse_int, validate)


def read_json(path: str | Path) -> dict:
    """The JSON object in the file at `path`; ValueError for malformed
    JSON, and naming the path for text nested too deeply to parse or a
    value that is not an object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def instance_to_dict(graph: EstimateGraph,
                     assignment: WeightAssignment | None = None) -> dict:
    edges = []
    for eid, e in enumerate(graph.edges):
        entry = {"a": e.a, "b": e.b, "lower": str(e.lower),
                 "upper": str(e.upper)}
        if assignment is not None:
            entry["actual"] = str(assignment.weight(eid))
        edges.append(entry)
    return {"n": graph.vertex_count, "s": graph.start, "t": graph.end,
            "edges": edges}


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def instance_from_dict(data: dict) -> tuple[EstimateGraph,
                                            WeightAssignment | None]:
    """Graph and optional actual weights; ValueError names a missing or
    malformed field (and its edge), an actual weight outside its edge's
    interval, or a vertex count above MAX_VERTICES (checked before anything
    is built)."""
    n, start, end = (_read_field(data, key, parse_int)
                     for key in ("n", "s", "t"))
    if n > MAX_VERTICES:
        raise ValueError(f"bad field 'n': {n} vertices exceed the limit of "
                         f"{MAX_VERTICES}")
    edges = []
    actuals: dict[int, Fraction] = {}
    for eid, entry in enumerate(_read_field(data, "edges", _list)):
        try:  # every message names the edge
            if not isinstance(entry, dict):
                raise ValueError(f"expected an object, got {entry!r}")
            a, b = (_read_field(entry, key, parse_int) for key in ("a", "b"))
            lower, upper = (_read_field(entry, key, parse_fraction)
                            for key in ("lower", "upper"))
            edges.append(Edge(a, b, lower, upper))
            if "actual" in entry:
                actual = _read_field(entry, "actual", parse_fraction)
                if not lower <= actual <= upper:
                    raise ValueError(f"actual {actual} outside its interval "
                                     f"[{lower}, {upper}]")
                actuals[eid] = actual
        except ValueError as exc:
            raise ValueError(f"edge {eid}: {exc}") from exc
    graph = EstimateGraph(n, edges, start, end)
    complete = edges and len(actuals) == len(edges)
    return graph, WeightAssignment(actuals) if complete else None


def save_instance(path: str | Path, graph: EstimateGraph,
                  assignment: WeightAssignment | None = None) -> None:
    payload = instance_to_dict(graph, assignment)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def save_adversary_config(path: str | Path, family: str,
                          params: dict) -> None:
    # default=str writes rational parameters as exact "p/q" strings
    Path(path).write_text(json.dumps({"family": family, **params}, indent=1,
                                     sort_keys=True, default=str) + "\n",
                          encoding="utf-8")


def load_instance(path: str | Path, *, actual: bool = False
                  ) -> tuple[EstimateGraph, WeightAssignment | None]:
    """Graph and actual weights (None when it carries none) of an instance
    file; ValueError when the file is not one or, with `actual`, lacks
    actual weights or fails `validate`."""
    return _instance(path, read_json(path), actual)


def _instance(path: str | Path, data: dict, actual: bool):
    if "edges" not in data:
        raise ValueError(f"{path}: not an instance file (no 'edges')")
    graph, assignment = instance_from_dict(data)
    if actual and assignment is None:
        raise ValueError(f"{path}: needs an actual weight on every edge")
    if actual and (problems := validate(graph)):
        raise ValueError(f"invalid instance: {'; '.join(problems)}")
    return graph, assignment


def _adaptive_family(name) -> Family:
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None or not family.adaptive:
        raise ValueError(f"unknown adversary family {name!r}")
    return family


def load_run(path: str | Path) -> tuple[Instance, dict]:
    """What `run` plays, from an instance file with actual weights or an
    adaptive adversary config, and its report's `instance` block: the path,
    the vertex count and, for a config, the config's own fields as
    written."""
    data = read_json(path)
    if "family" in data and "edges" not in data:
        family = _read_field(data, "family", _adaptive_family)
        params = {k: v for k, v in data.items() if k != "family"}
        try:  # a refusal names the family the stub was read for
            instance = family.build(family.parse(params), 0)
        except ValueError as exc:
            raise ValueError(f"family {data['family']!r}: {exc}") from exc
        return instance, {"file": str(path), "n": instance.graph.vertex_count,
                          **data}
    graph, assignment = _instance(path, data, actual=True)
    instance = Instance(graph, FixedAssignment(assignment), None)
    return instance, {"file": str(path), "n": graph.vertex_count}
