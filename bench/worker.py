"""One workload process: builds the seeded inputs, runs whole rounds of the
workload's operations, checks every output outside the timed region, and
prints one JSON object on its last stdout line.

Started by `run.py`; not meant to be run by hand.  Modes:

* `--setup-only`: build the inputs, report when the first timed call would
  start, and exit (the set-up samples).
* default: time rounds for `--seconds`; report end-to-end metrics.
* `--trace`: time an untraced section, then the same work (input build plus
  the same number of rounds) with every public function wrapped; report the
  per-layer metrics and write the spans to `bench/out/`.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import boundwalk  # noqa: E402

if Path(boundwalk.__file__).resolve().parent != ROOT / "src" / "boundwalk":
    raise SystemExit(f"imported boundwalk from {boundwalk.__file__}, not "
                     f"from this checkout")

import spec  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# share of --seconds spent on the untraced section of a traced run; the
# traced section repeats its rounds, and sweeps also repeat them at jobs=N
TRACE_SHARE = 0.5


@dataclass
class Section:
    """`timed_s` covers every timed call; `durations` and `units` only the
    calls and units that completed."""

    rounds: int = 0
    timed_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    units: int = 0


class Runner:
    """Runs whole rounds of one op list.  The first output of each op is
    checked in full; every later output must equal it.  `reference` shares
    those first outputs with another runner built from the same seed."""

    def __init__(self, ops: list[workloads.Op],
                 reference: "Runner | None" = None):
        self.ops = ops
        self.first = reference.first if reference else [None] * len(ops)
        self.verdicts = (reference.verdicts if reference
                         else [None] * len(ops))
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _round(self, section: Section, tracer, tag: str) -> None:
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin_op(f"{tag}.{i} {op.label}")
                tracer.active = True
            start = time.perf_counter()
            try:
                raw = op.call()
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed operation
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            section.timed_s += elapsed
            self.attempted += op.units
            if error is not None:
                # no operation is expected to raise
                self.failed += op.units
                self.problems.append(f"{op.label}: raised "
                                     f"{type(error).__name__}: {error}")
                continue
            section.durations.append(elapsed)
            output = op.collect(raw)
            if self.verdicts[i] is None:
                self.first[i] = output
                self.verdicts[i] = op.check(output)
                self.problems += self.verdicts[i].problems
            elif output != self.first[i]:
                self.problems.append(f"{op.label}: output differs from its "
                                     f"first, checked round")
            self.failed += self.verdicts[i].failed
            section.units += op.units - self.verdicts[i].lost
        section.rounds += 1

    def run(self, *, seconds: float | None = None, rounds: int | None = None,
            tracer=None, tag: str = "round") -> Section:
        """Whole rounds until `rounds` are done or the timed calls have
        taken `seconds`."""
        section = Section()
        while True:
            self._round(section, tracer, f"{tag}{section.rounds}")
            if rounds is not None:
                if section.rounds >= rounds:
                    return section
            elif section.timed_s >= seconds:
                return section


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of the largest of its
    finished children (the sweep's pool workers), in MiB.  A forked child's
    figure includes the pages it shares with this process, so on a sweep
    this process's image counts twice: the sum bounds the pool's memory
    from above and is not its resident set at any one instant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _timed(args, build) -> tuple[dict, list[Runner]]:
    ops = build()
    ready = time.monotonic()
    runner = Runner(ops)
    section = (runner.run(rounds=1) if args.smoke
               else runner.run(seconds=args.seconds))
    metrics = {
        "work_per_s": section.units / section.timed_s,
        "call_p50_ms": (1000 * statistics.median(section.durations)
                        if section.durations else 0.0),
        "peak_rss_mb": _peak_rss_mb(),
        "calls": len(section.durations),
        "units": section.units,
        "rounds": section.rounds,
    }
    return {"ready": ready, "metrics": metrics}, [runner]


def _traced(args, build, build_pooled) -> tuple[dict, list[Runner]]:
    start = time.perf_counter()
    ops = build()
    build_s = time.perf_counter() - start
    plain = Runner(ops)
    untraced = (plain.run(rounds=1) if args.smoke
                else plain.run(seconds=args.seconds * TRACE_SHARE))
    runners = [plain]

    tracer = tracing.Tracer()
    tracer.install(extra_modules=(workloads,))
    try:
        tracer.begin_op("setup")
        tracer.active = True
        start = time.perf_counter()
        traced_ops = build()
        traced_build_s = time.perf_counter() - start
        tracer.active = False
        traced_runner = Runner(traced_ops, reference=plain)
        traced = traced_runner.run(rounds=untraced.rounds, tracer=tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    runners.append(traced_runner)

    wall_s = traced_build_s + traced.timed_s
    metrics = tracing.layer_metrics(tracer, wall_s)
    metrics["trace.overhead_s"] = wall_s - (build_s + untraced.timed_s)
    metrics["reports.pool_speedup"] = 0.0
    if build_pooled is not None:
        pooled_runner = Runner(build_pooled(), reference=plain)
        pooled = pooled_runner.run(rounds=untraced.rounds)
        runners.append(pooled_runner)
        metrics["reports.pool_speedup"] = untraced.timed_s / pooled.timed_s
    tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    return {"metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in spec.PER_LAYER.items()}}, runners


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    factory = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{time.time_ns()}"

    def build(**kw):
        return factory(args.seed, args.smoke, workdir, **kw)

    try:
        if args.setup_only:
            build()
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        if args.trace and args.workload == "sweep-mixed":
            # pool workers cannot be traced from here: trace the sweep at
            # jobs=1 and time jobs=N separately for the speed-up
            result, runners = _traced(args, lambda: build(jobs=1), build)
        elif args.trace:
            result, runners = _traced(args, build, None)
        else:
            result, runners = _timed(args, build)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in runners for p in r.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result.update(correct=not problems,
                  attempted=sum(r.attempted for r in runners),
                  failed=sum(r.failed for r in runners))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
