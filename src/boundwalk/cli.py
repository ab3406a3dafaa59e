"""Command-line front end: instance generation, episode runs, ratio sweeps,
oracle queries, and instance validation.

Exit codes: 0 ok, 1 invalid input, 2 exact-solver cap exceeded,
3 internal invariant violation.  A sweep writes its reports whatever its
rows hold, then exits 2 when every failed row exceeded the solver cap and 1
when any other row failed.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import adversaries as adv
from .engine import EngineError, FixedAssignment, run_episode
from .explorers import EXPLORERS, make_explorer
from .graph import validate
from .instance_io import (AdversaryConfig, load_run_input, parse_fraction,
                          save_adversary_config, save_instance)
from .reports import SweepConfig, run_sweep, write_reports
from .solver import (CoverTask, DEFAULT_EXACT_CAP, SolverCapExceeded,
                     optimal_cover_walk)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOLVER_CAP = 2
EXIT_INTERNAL = 3


def _alpha(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundwalk",
        description="Online graph exploration with interval-estimated edge "
                    "weights: simulator and competitive-analysis harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file or an "
                                          "adaptive adversary config")
    gen.add_argument("family", choices=list(adv.FAMILIES))
    gen.add_argument("--k", type=int, help="branching / half size")
    gen.add_argument("--depth", type=int, help="recursion depth")
    gen.add_argument("--m", type=int, help="grid side length")
    gen.add_argument("--n", type=int, help="vertex count / bipartite side")
    gen.add_argument("--alpha", type=_alpha, default=Fraction(2),
                     help="spread p/q (or exact decimal)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--law", choices=["uniform", "mixed"], default="mixed")
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run one episode and print the report")
    run.add_argument("instance", help="instance file or adversary config")
    run.add_argument("--explorer", required=True, choices=sorted(EXPLORERS))
    run.add_argument("--solver-cap", type=int, default=DEFAULT_EXACT_CAP)
    run.add_argument("--out", help="write report JSON here instead of stdout")

    sweep = sub.add_parser("sweep", help="run a parameter grid and emit "
                                         "CSV + JSON reports")
    sweep.add_argument("config", help="sweep config JSON file")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="concurrent grid points")
    sweep.add_argument("--out", help="override the config's report path")
    sweep.add_argument("--format", choices=["csv", "json", "both"],
                       default="both", help="which report files to write")

    oracle = sub.add_parser("oracle", help="exact optimal covering walk of "
                                           "an instance with actual weights")
    oracle.add_argument("instance")
    oracle.add_argument("--solver-cap", type=int, default=DEFAULT_EXACT_CAP)

    val = sub.add_parser("validate", help="check instance file invariants")
    val.add_argument("instance")
    return parser


def _cmd_generate(args) -> int:
    family = adv.FAMILIES[args.family]
    # an unset flag is None; parse reports a missing required one
    params = family.parse({k: v for k, v in vars(args).items()
                           if v is not None})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph, source, _ = family.build(params, args.seed,
                                        verify_adaptive=True)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if family.adaptive:
        save_adversary_config(args.out, AdversaryConfig(args.family, params))
    else:
        save_instance(args.out, graph, source.assignment)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    kind, loaded, extra = load_run_input(args.instance)
    if kind == "instance":
        graph, assignment = loaded, extra
        if assignment is None:
            print("instance has no actual weights; run it against an "
                  "adversary config instead", file=sys.stderr)
            return EXIT_INVALID
        source = FixedAssignment(assignment)
        certificate = None
        instance_desc = {"file": args.instance, "n": graph.vertex_count}
    else:
        graph, source, certificate = loaded
        instance_desc = {"file": args.instance, "n": graph.vertex_count,
                         **extra.to_dict()}
    problems = validate(graph)
    if problems:
        print(f"invalid instance: {problems}", file=sys.stderr)
        return EXIT_INVALID
    explorer = make_explorer(args.explorer, cap=args.solver_cap)
    report = run_episode(graph, source, explorer, oracle_cap=args.solver_cap,
                         certificate=certificate, instance=instance_desc)
    text = json.dumps(report.to_json_dict(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if isinstance(data, dict):  # from_dict refuses any other shape
        if args.jobs is not None:
            data["jobs"] = args.jobs
        if args.out is not None:
            data["out"] = args.out
    config = SweepConfig.from_dict(data)
    rows = run_sweep(config)
    csv_path, json_path = write_reports(rows, config.out,
                                        formats=args.format)
    written = " and ".join(str(p) for p in (csv_path, json_path) if p)
    failures = [r["offline_kind"] for r in rows
                if r["offline_kind"].startswith("error:")]
    print(f"wrote {written} ({len(rows)} rows, {len(failures)} failed)")
    if not failures:
        return EXIT_OK
    if all(kind.startswith("error:SolverCapExceeded:") for kind in failures):
        return EXIT_SOLVER_CAP
    return EXIT_INVALID


def _cmd_oracle(args) -> int:
    kind, graph, assignment = load_run_input(args.instance)
    if kind != "instance" or assignment is None:
        print("oracle needs an instance file with actual weights",
              file=sys.stderr)
        return EXIT_INVALID
    problems = validate(graph)
    if problems:
        print(f"invalid instance: {problems}", file=sys.stderr)
        return EXIT_INVALID
    task = CoverTask(weights=assignment.weights, origin=graph.start,
                     destination=graph.end,
                     must_visit=frozenset(range(graph.vertex_count)))
    walk, cost = optimal_cover_walk(graph, task, cap=args.solver_cap)
    print(json.dumps({
        "vertices": list(walk.vertices),
        "step_costs": [str(c) for c in walk.step_costs],
        "cost": str(cost),
        "cost_decimal": f"{float(cost):.6f}",
    }, indent=1))
    return EXIT_OK


def _cmd_validate(args) -> int:
    kind, graph, _ = load_run_input(args.instance)
    if kind != "instance":
        print("validate expects an instance file", file=sys.stderr)
        return EXIT_INVALID
    problems = validate(graph)
    if problems:
        for p in problems:
            print(p)
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"generate": _cmd_generate, "run": _cmd_run,
                "sweep": _cmd_sweep, "oracle": _cmd_oracle,
                "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except SolverCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_CAP
    except (adv.InvalidSpec, adv.GridTrapError, ValueError,
            FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EngineError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
