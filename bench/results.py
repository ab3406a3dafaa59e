"""Record repeated benchmark runs into a result file, and compare two result
files.

    python3 bench/results.py record --out bench/results/NAME.json
    python3 bench/results.py record --checkouts PARENT_DIR CHANGE_DIR \
        --out parent.json change.json
    python3 bench/results.py compare parent.json change.json

`record` runs every workload of BENCHMARK.json 10 times untraced, seeds
1..10 (workloads interleaved within each seed), then once traced (seed 1),
each run `run_seconds` long.  Given several checkouts, it runs each one's `bench/run.py` for
every seed and workload, alternating which checkout goes first, so that a
drift in the host's speed falls on both sides of each pair.  For each
checkout it writes the commit, Python and numpy versions, nproc, the run
count, every run's values, and each metric's median and quartiles, and
prints each end-to-end metric's spread (quartile distance over median)
against a third of its bound.

`compare` refuses two files recorded with different run lengths or run
counts.  It pairs their runs by seed and reports one row per workload and
end-to-end metric, by the first rule that applies:

* unresolved: the parent's own spread is wider than the bound, unless every
  run of the change reads better than every run of the parent;
* improved: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance -- unless the change fails a larger share of its operations,
  which makes the row unresolved;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unchanged: otherwise.

It also flags a workload whose share of failed operations changed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec

ROOT = spec.ROOT
RUNS = 10
TRACED_RUNS = 1
BOUNDS = {m["name"]: m["bound"] for m in spec.SPEC["end_to_end"]}


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _run_once(root: Path, workload: str, seed: int, seconds: int,
              trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _commit(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _metrics(results: list[dict]) -> dict:
    if not results:
        return {}
    return {m: dict(unit=meta["unit"], **_summary(
                [r["metrics"][m]["value"] for r in results]))
            for m, meta in results[0]["metrics"].items()}


def record(args) -> int:
    import numpy

    seconds = spec.SPEC["run_seconds"]
    names = spec.WORKLOADS
    roots = [Path(d).resolve() for d in args.checkouts] or [ROOT]
    if len(roots) != len(args.out):
        raise SystemExit("give one --out file per checkout")
    runs = {r: {w: [] for w in names} for r in roots}
    traced = {r: {w: [] for w in names} for r in roots}
    for trace, count, store in ((0, RUNS, runs), (1, TRACED_RUNS, traced)):
        for seed in range(1, count + 1):
            # alternate which checkout runs first
            order = roots if seed % 2 else roots[::-1]
            for w in names:
                for root in order:
                    store[root][w].append(
                        _run_once(root, w, seed, seconds, trace))
                    print(f"recorded {root} {w} seed {seed} trace {trace}",
                          file=sys.stderr)

    for root, out in zip(roots, args.out):
        result = {
            "commit": _commit(root),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "runs": RUNS,
            "traced_runs": TRACED_RUNS,
            "seconds": seconds,
            "workloads": {w: {
                "correct": [r["correct"]
                            for r in runs[root][w] + traced[root][w]],
                "attempted": [r["attempted"] for r in runs[root][w]],
                "failed": [r["failed"] for r in runs[root][w]],
                "end_to_end": _metrics(runs[root][w]),
                "per_layer": _metrics(traced[root][w]),
            } for w in names},
        }
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"{out} ({root}, commit {result['commit'][:12]})")
        print(f"{'workload':16} {'metric':12} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound/3':>7}")
        for w in names:
            entry = result["workloads"][w]
            shares = {f / a for f, a in zip(entry["failed"],
                                            entry["attempted"])}
            print(f"{w}: correct={all(entry['correct'])} failed share "
                  f"{sorted(shares)}")
            for m, st in entry["end_to_end"].items():
                flag = "" if st["spread"] < BOUNDS[m] / 3 else "  WIDE"
                print(f"{w:16} {m:12} {st['median']:12.5g} "
                      f"{st['q1']:12.5g} {st['q3']:12.5g} "
                      f"{st['spread']:7.2%} {BOUNDS[m] / 3:7.2%}{flag}")
    return 0


def classify(parent: list[float], change: list[float], better: str,
             bound: float, more_failed: bool = False) -> tuple[str, int, int]:
    """(verdict, wins, pairs) by the pairwise rule described above; runs
    are paired by position, i.e. by seed."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs, {len(change)} change "
                         f"runs")
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_sum, c_sum = _summary(parent), _summary(change)
    gain = sign * (c_sum["median"] - p_sum["median"])
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_sum["spread"] > bound and not all_better:
        verdict = "unresolved"
    elif wins >= 0.9 * len(pairs) and gain > p_sum["q3"] - p_sum["q1"]:
        verdict = "unresolved" if more_failed else "improved"
    elif -gain > bound * p_sum["median"]:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return verdict, wins, len(pairs)


def _failed_shares(entry: dict) -> set[float]:
    return {f / a for f, a in zip(entry["failed"], entry["attempted"])}


def compare(args) -> int:
    parent = json.loads(Path(args.parent).read_text(encoding="utf-8"))
    change = json.loads(Path(args.change).read_text(encoding="utf-8"))
    for key in ("seconds", "runs", "traced_runs"):
        if parent[key] != change[key]:
            raise SystemExit(f"not comparable: {key} is {parent[key]} in "
                             f"{args.parent}, {change[key]} in "
                             f"{args.change}")
    print(f"parent {parent['commit'][:12]}  change {change['commit'][:12]}")
    print(f"{'workload':16} {'metric':12} {'parent':>12} {'change':>12} "
          f"{'wins':>6}  verdict")
    for w, p_entry in parent["workloads"].items():
        c_entry = change["workloads"].get(w)
        if c_entry is None:
            print(f"{w:16} missing from {args.change}")
            continue
        p_share = _failed_shares(p_entry)
        c_share = _failed_shares(c_entry)
        for m in spec.SPEC["end_to_end"]:
            name = m["name"]
            p = p_entry["end_to_end"][name]
            c = c_entry["end_to_end"][name]
            verdict, wins, n = classify(p["values"], c["values"],
                                        m["better"], m["bound"],
                                        more_failed=max(c_share) >
                                        max(p_share))
            print(f"{w:16} {name:12} {p['median']:12.5g} "
                  f"{c['median']:12.5g} {wins:>3}/{n:<2}  {verdict}")
        if p_share != c_share:
            print(f"{w:16} failed share changed: {sorted(p_share)} -> "
                  f"{sorted(c_share)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run repeated sets, write a file")
    rec.add_argument("--out", nargs="+", required=True,
                     help="one result file per checkout")
    rec.add_argument("--checkouts", nargs="+", default=[],
                     help="checkouts to run, interleaved seed by seed "
                          "(default: this one)")
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
