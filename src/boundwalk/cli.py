"""Command-line front end: instance generation, episode runs, ratio sweeps,
oracle queries, and instance validation.

Flag values stay strings until the module that owns them types them, as it
types config values; `instance_io` reads and refuses every file, so no
handler asks what kind of file it got.  Exit codes: 0 ok; 1 invalid input
(a malformed flag value, a usage error, an unreadable path, a refused
file or config); 2 exact-solver cap exceeded, and nothing else; 3
internal invariant violation.  A sweep writes its reports whatever its
rows hold, then exits 2 when every failed row exceeded the solver cap and
1 when any other row failed.  `sweep` takes one config or several: every
config is read and checked before the first one runs, and then each runs
in turn in this one process, so they share one worker pool (see
`reports`); the exit code covers the rows of them all.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from . import adversaries as adv
from .engine import EngineError, run_episode
from .explorers import EXPLORERS, make_explorer
from .graph import InvariantViolation, parse_int, validate
from .instance_io import (load_instance, load_run, read_json,
                          save_adversary_config, save_instance)
from .reports import SweepConfig, run_sweep, write_reports
from .solver import (CoverTask, DEFAULT_EXACT_CAP, SolverCapExceeded,
                     optimal_cover_walk, parse_cap)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOLVER_CAP = 2
EXIT_INTERNAL = 3


def _flag(name: str, parse, value):
    """parse(value); ValueError names the flag."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundwalk",
        description="Online graph exploration with interval-estimated edge "
                    "weights: simulator and competitive-analysis harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file or an "
                                          "adaptive adversary config")
    gen.add_argument("family", choices=list(adv.FAMILIES))
    for name, (_, default) in adv.PARAMETERS.items():
        takers = ", ".join(f for f, family in adv.FAMILIES.items()
                           if name in family.params)
        note = "" if default is None else f" (default {default})"
        gen.add_argument(f"--{name}", help=f"parameter of {takers}{note}")
    gen.add_argument("--seed", default=0, help="seed of random instances")
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run one episode and print the report")
    run.add_argument("instance", help="instance file or adversary config")
    run.add_argument("--explorer", required=True, choices=sorted(EXPLORERS))
    run.add_argument("--solver-cap", default=DEFAULT_EXACT_CAP)
    run.add_argument("--out", help="write report JSON here instead of stdout")

    sweep = sub.add_parser("sweep", help="run a parameter grid and emit "
                                         "CSV + JSON reports")
    sweep.add_argument("configs", nargs="+", metavar="config",
                       help="sweep config JSON file; several run in turn "
                            "and share one worker pool")
    sweep.add_argument("--jobs", help="concurrent grid points")
    sweep.add_argument("--out", help="override the config's report path "
                                     "(one config only)")
    sweep.add_argument("--format", choices=["csv", "json", "both"],
                       default="both", help="which report files to write")

    oracle = sub.add_parser("oracle", help="exact optimal covering walk of "
                                           "an instance with actual weights")
    oracle.add_argument("instance")
    oracle.add_argument("--solver-cap", default=DEFAULT_EXACT_CAP)

    val = sub.add_parser("validate", help="check instance file invariants")
    val.add_argument("instance")
    return parser


def _cmd_generate(args) -> int:
    family = adv.FAMILIES[args.family]
    # only the flags given (not None), so parse refuses one it does not take
    params = family.parse({name: value for name in adv.PARAMETERS
                           if (value := getattr(args, name)) is not None})
    seed = _flag("--seed", parse_int, args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph, source, _ = family.build(params, seed, verify_adaptive=True)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if family.adaptive:
        save_adversary_config(args.out, args.family, params)
    else:
        save_instance(args.out, graph, source.assignment)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cap = _flag("--solver-cap", parse_cap, args.solver_cap)
    (graph, source, certificate), instance_desc = load_run(args.instance)
    explorer = make_explorer(args.explorer, cap=cap)
    report = run_episode(graph, source, explorer, oracle_cap=cap,
                         certificate=certificate, instance=instance_desc)
    text = json.dumps(report.to_json_dict(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    several = len(args.configs) > 1
    if several and args.out is not None:
        raise ValueError(f"--out: names the reports of one config, not of "
                         f"{len(args.configs)}")
    configs = []
    for path in args.configs:  # all are checked before the first one runs
        data = read_json(path)
        for key in ("jobs", "out"):  # a given flag overrides the field
            if getattr(args, key) is not None:
                data[key] = getattr(args, key)
        try:
            configs.append(SweepConfig.from_dict(data))
        except ValueError as exc:
            if not several:
                raise
            raise ValueError(f"{path}: {exc}") from exc
    outs = [os.path.abspath(config.out) for config in configs]
    if len(set(outs)) < len(outs):
        raise ValueError("two configs write their reports to the same path")
    failures = []
    for config in configs:
        rows = run_sweep(config)
        csv_path, json_path = write_reports(rows, config.out,
                                            formats=args.format)
        written = " and ".join(str(p) for p in (csv_path, json_path) if p)
        failed = [r["offline_kind"] for r in rows
                  if r["offline_kind"].startswith("error:")]
        print(f"wrote {written} ({len(rows)} rows, {len(failed)} failed)")
        failures += failed
    if not failures:
        return EXIT_OK
    if all(kind.startswith("error:SolverCapExceeded:") for kind in failures):
        return EXIT_SOLVER_CAP
    return EXIT_INVALID


def _cmd_oracle(args) -> int:
    cap = _flag("--solver-cap", parse_cap, args.solver_cap)
    graph, assignment = load_instance(args.instance, actual=True)
    task = CoverTask.full_cover(graph, assignment.weights)
    walk, cost = optimal_cover_walk(graph, task, cap=cap)
    print(json.dumps({
        "vertices": list(walk.vertices),
        "step_costs": [str(c) for c in walk.step_costs],
        "cost": str(cost),
        "cost_decimal": f"{float(cost):.6f}",
    }, indent=1))
    return EXIT_OK


def _cmd_validate(args) -> int:
    graph, _ = load_instance(args.instance)
    problems = validate(graph)
    if problems:
        for p in problems:
            print(p)
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # after --help (0) or a usage error (2)
        return EXIT_INVALID if exc.code else EXIT_OK
    handlers = {"generate": _cmd_generate, "run": _cmd_run,
                "sweep": _cmd_sweep, "oracle": _cmd_oracle,
                "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except SolverCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_CAP
    except (adv.GridTrapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (EngineError, InvariantViolation) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
