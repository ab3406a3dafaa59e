"""boundwalk benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the checkout that holds this file.  Each workload
runs in its own process (`worker.py`), started from this one.  With
`--trace 0` it first starts `SETUP_SAMPLES - 1` set-up-only processes, then
the measured one, and prints the end-to-end metrics; with `--trace 1` it
prints the per-layer metrics of a traced run.  The last stdout line is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
`--smoke` shrinks the inputs and runs one round, so every check runs in
seconds.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

ROOT = spec.ROOT
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
# whole-run limit for one worker process
WORKER_TIMEOUT_S = 170


def _worker(args, *extra: str, timeout: float) -> tuple[float, dict]:
    """Start one worker; return (start time, its parsed result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker for {args.workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker for {args.workload} printed no result")
    return started, json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one round, for the checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "boundwalk" / "__init__.py").is_file():
        print(f"error: no boundwalk sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            started, res = _worker(args, "--setup-only",
                                   timeout=deadline - time.monotonic())
            setups.append(res["ready"] - started)
    started, res = _worker(args, timeout=deadline - time.monotonic())
    if args.trace:
        metrics = res["metrics"]
    else:
        setups.append(res["ready"] - started)
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spec.END_TO_END.items()}
        print(f"# {args.workload}: {res['metrics']['calls']} calls, "
              f"{res['metrics']['units']} units in "
              f"{res['metrics']['rounds']} rounds; set-up samples "
              f"{[round(s, 4) for s in setups]}")
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
