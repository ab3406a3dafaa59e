"""Sweep harness: run families of instances across explorers and emit
CSV/JSON report tables.

Every row carries the applicable theoretical bound and an exact rational
bound check.  Bound semantics depend on the family: ratio-type bounds
(ratio <= bound) apply to the replanning and precompute explorers; the
recursive family instead carries the online cost lower bound
(online_cost >= bound), which the construction forces on every algorithm.
When the offline cost is a certificate rather than an exact optimum, the
reported ratio is a lower bound on the true ratio, so a satisfied
ratio-type bound means "no violation witnessed".  A row whose episode
raises keeps its parameters and records `error:<Type>: <message>` as its
offline kind.

The unit of work, in one process or across `jobs` worker processes, is
one (grid point, seed) task: it builds its instance and takes `alpha_of`
once, then runs every explorer on it.  Only when there are fewer tasks
than jobs is each task split by explorer, into as many groups as fill the
workers, so that a small grid keeps the pool busy; each group is then a
task of its own.  The explorers of a task share a memo from realized
weights to exact offline cost, which ends with the task, so an assignment
two of them both realize is solved once.  Sharing is exact: a built graph
is immutable and every weight source is a pure function of the visit
sequence.  Costs beyond the solver cap are not shared, since they depend
on each row's own walk.

CSV and JSON emissions carry identical string-valued rows; rows are sorted
before emission so identical configs produce identical bytes.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .adversaries import FAMILIES, PARAMETERS
from .engine import run_episode
from .explorers import EXPLORERS, make_explorer
from .graph import _read_field, alpha_of, parse_int
from .solver import DEFAULT_EXACT_CAP, parse_cap

# one worker process per job: a bound, not a default
MAX_JOBS = 64

# every family parameter is a column, empty where a row's grid lacks it
CSV_COLUMNS = ("family", *PARAMETERS, "seed", "explorer", "online_cost",
               "offline_cost", "offline_kind", "ratio", "ratio_decimal",
               "theoretical_bound", "bound_satisfied")


@dataclass(frozen=True)
class SweepConfig:
    family: str
    grid: dict[str, list]
    explorers: tuple[str, ...]
    seeds: tuple[int, ...]
    out: str
    jobs: int = 1
    solver_cap: int = DEFAULT_EXACT_CAP

    @staticmethod
    def from_dict(data: dict) -> "SweepConfig":
        """The config a JSON object describes; ValueError names a missing or
        malformed field."""
        if not isinstance(data, dict):
            raise ValueError(f"a sweep config is a JSON object, not "
                             f"{type(data).__name__}")
        family = _read_field(data, "family", _family_name)
        grid = _read_field(data, "grid", _grid_lists)
        config = SweepConfig(
            family=family,
            grid=grid,
            explorers=_read_field(data, "explorers", _explorer_names,
                                  ["precompute", "adaptive", "nn"]),
            seeds=_read_field(data, "seeds", _int_tuple, [0]),
            out=_read_field(data, "out", _text, "sweep_report"),
            jobs=_read_field(data, "jobs", parse_int, 1),
            solver_cap=_read_field(data, "solver_cap", parse_cap,
                                   DEFAULT_EXACT_CAP),
        )
        if not 1 <= config.jobs <= MAX_JOBS:
            raise ValueError(f"bad field 'jobs': {config.jobs} is outside "
                             f"1..{MAX_JOBS}")
        try:
            for params in _grid_points(config):
                FAMILIES[family].parse(params)  # a bad point fails the config
        except ValueError as exc:
            raise ValueError(f"bad field 'grid': {exc}") from exc
        return config


def _family_name(value) -> str:
    if not isinstance(value, str) or value not in FAMILIES:
        raise ValueError(f"unknown family {value!r}")
    return value


def _grid_lists(value) -> dict[str, list]:
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    for name, values in value.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"parameter {name!r}: expected a non-empty "
                             f"list, got {values!r}")
    return {k: list(v) for k, v in value.items()}


def _explorer_names(value) -> tuple[str, ...]:
    _non_empty_list(value)
    for name in value:
        if not isinstance(name, str) or name not in EXPLORERS:
            raise ValueError(f"unknown explorer {name!r}; choose from "
                             f"{sorted(EXPLORERS)}")
    return tuple(value)


def _int_tuple(value) -> tuple[int, ...]:
    _non_empty_list(value)
    return tuple(parse_int(v) for v in value)


def _non_empty_list(value) -> None:
    # an empty list would run no rows and still read as a success
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a non-empty list, got {value!r}")


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _grid_points(config: SweepConfig) -> list[dict]:
    keys = sorted(config.grid)
    values = [config.grid[k] for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def _run_task(args: tuple) -> list[dict]:
    """The rows of one (grid point, seed) pair, one per given explorer,
    from one build and one offline memo (see the module docstring)."""
    config, params, seed, explorers = args
    family = FAMILIES[config.family]
    # a grid point's keys are parameters of its family (checked at load)
    base = {c: "" for c in CSV_COLUMNS}
    base.update({k: str(v) for k, v in params.items()},
                family=config.family, seed=str(seed))
    parsed = family.parse(params)
    try:
        graph, source, certificate = family.build(parsed, seed)
        # the bound of the instance as built: builders may clamp alpha
        alpha = alpha_of(graph).alpha
    except Exception as exc:  # noqa: BLE001 - partial failures become rows
        return [{**base, "explorer": name, "offline_kind": _error_kind(exc)}
                for name in explorers]
    if "n" not in params:
        base["n"] = str(graph.vertex_count)
    offline_memo: dict = {}
    rows = []
    for name in explorers:
        row = {**base, "explorer": name}
        rows.append(row)
        try:
            report = run_episode(graph, source,
                                 make_explorer(name, cap=config.solver_cap),
                                 oracle_cap=config.solver_cap,
                                 certificate=certificate,
                                 offline_memo=offline_memo)
            bound, kind = family.bound(name, alpha, parsed)
        except Exception as exc:  # noqa: BLE001 - partial failures become rows
            row["offline_kind"] = _error_kind(exc)
            continue
        row["online_cost"] = str(report.online_cost)
        row["offline_cost"] = str(report.offline_cost)
        row["offline_kind"] = report.offline_kind
        row["ratio"] = str(report.ratio)
        row["ratio_decimal"] = f"{float(report.ratio):.6f}"
        if bound is not None:
            row["theoretical_bound"] = str(bound)
            if kind == "online_min":
                ok = report.online_cost >= bound
            else:
                ok = report.ratio <= bound
            row["bound_satisfied"] = "true" if ok else "false"
    return rows


def _error_kind(exc: Exception) -> str:
    return f"error:{type(exc).__name__}: {exc}"


def run_sweep(config: SweepConfig) -> list[dict]:
    """One row per (grid point x explorer x seed), sorted for determinism;
    one task, run in a worker process when jobs > 1, per (grid point x
    seed), or per explorer group of one when there are fewer of those than
    jobs (see the module docstring)."""
    points = [(params, seed) for params in _grid_points(config)
              for seed in config.seeds]
    groups = min(len(config.explorers),
                 -(-config.jobs // max(len(points), 1)))
    work = [(config, params, seed, config.explorers[i::groups])
            for params, seed in points for i in range(groups)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            tasks = list(pool.map(_run_task, work))
    else:
        tasks = [_run_task(w) for w in work]
    rows = [row for task in tasks for row in task]
    rows.sort(key=lambda r: tuple(r[c] for c in CSV_COLUMNS))
    return rows


def rows_to_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_json(rows: Sequence[dict]) -> str:
    return json.dumps(list(rows), indent=1, sort_keys=True) + "\n"


def rows_from_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def write_reports(rows: Sequence[dict], out: str | Path,
                  formats: str = "both") -> tuple[Path | None, Path | None]:
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = json_path = None
    if formats in ("csv", "both"):
        csv_path = out.with_suffix(".csv")
        csv_path.write_text(rows_to_csv(rows), encoding="utf-8")
    if formats in ("json", "both"):
        json_path = out.with_suffix(".json")
        json_path.write_text(rows_to_json(rows), encoding="utf-8")
    return csv_path, json_path
