"""JSON serialization for instances and adversary configs.

Instance files carry the graph, the announced intervals, and optionally the
actual weights ("actual" is absent when an adaptive adversary supplies
them).  Rationals are serialized as exact "p/q" strings.  Adaptive
adversaries cannot be serialized as plain instances, so they are referenced
by family name plus parameters in a config stub.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .adversaries import FAMILIES, Instance, parse_fraction
from .graph import (MAX_VERTICES, Edge, EstimateGraph, WeightAssignment,
                    parse_int)


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


def _field(obj: dict, key: str, parse, where: str = ""):
    """parse(obj[key]); ValueError names a missing or malformed field and,
    via `where`, the edge it belongs to."""
    try:
        return parse(obj[key])
    except KeyError:
        raise ValueError(f"{where}missing field {key!r}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}bad field {key!r}: {exc}") from exc


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def instance_from_dict(data: dict) -> tuple[EstimateGraph,
                                            WeightAssignment | None]:
    """Graph and optional actual weights; ValueError names a missing or
    malformed field, an actual weight outside its edge's interval, or a
    vertex count above MAX_VERTICES (checked before anything is built)."""
    n, start, end = (_field(data, key, parse_int) for key in ("n", "s", "t"))
    if n > MAX_VERTICES:
        raise ValueError(f"bad field 'n': {n} vertices exceed the limit of "
                         f"{MAX_VERTICES}")
    edges = []
    actuals: dict[int, Fraction] = {}
    have_actuals = True
    for eid, entry in enumerate(_field(data, "edges", _list)):
        if not isinstance(entry, dict):
            raise ValueError(f"bad field 'edges': entry {eid} is {entry!r}, "
                             f"not an object")
        where = f"edge {eid}: "
        a, b = (_field(entry, key, parse_int, where) for key in ("a", "b"))
        lower, upper = (_field(entry, key, parse_fraction, where)
                        for key in ("lower", "upper"))
        edges.append(Edge(a, b, lower, upper))
        if "actual" in entry:
            actual = _field(entry, "actual", parse_fraction, where)
            if not lower <= actual <= upper:
                raise ValueError(f"{where}actual {actual} outside its "
                                 f"interval [{lower}, {upper}]")
            actuals[eid] = actual
        else:
            have_actuals = False
    graph = EstimateGraph(n, edges, start, end)
    assignment = WeightAssignment(actuals) if have_actuals and edges else None
    return graph, assignment


def save_instance(path: str | Path, graph: EstimateGraph,
                  assignment: WeightAssignment | None = None) -> None:
    payload = instance_to_dict(graph, assignment)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


@dataclass(frozen=True)
class AdversaryConfig:
    """Named adaptive adversary plus its parameters."""

    family: str
    params: dict

    def to_dict(self) -> dict:
        return {"family": self.family, **self.params}


def save_adversary_config(path: str | Path, config: AdversaryConfig) -> None:
    # default=str writes rational parameters as exact "p/q" strings
    Path(path).write_text(json.dumps(config.to_dict(), indent=1,
                                     sort_keys=True, default=str) + "\n",
                          encoding="utf-8")


def build_from_config(config: AdversaryConfig) -> Instance:
    """Instantiate the adaptive adversary a config stub refers to."""
    family = (FAMILIES.get(config.family)
              if isinstance(config.family, str) else None)
    if family is None or not family.adaptive:
        raise ValueError(f"field 'family': unknown adversary family "
                         f"{config.family!r}")
    return family.build(family.parse(config.params), 0)


def load_run_input(path: str | Path):
    """Load either an instance file or an adversary config.

    Returns ("instance", graph, assignment) or ("adversary", Instance, config).
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "edges" in data:
        graph, assignment = instance_from_dict(data)
        return "instance", graph, assignment
    if "family" in data:
        params = {k: v for k, v in data.items() if k != "family"}
        config = AdversaryConfig(data["family"], params)
        return "adversary", build_from_config(config), config
    raise ValueError(f"{path}: neither an instance file nor an adversary "
                     f"config")
