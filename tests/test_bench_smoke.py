"""The benchmark's smoke runs: each workload in `BENCHMARK.json` runs its
checks on small inputs, untraced and traced, and every operation must pass
them.  The traced runs catch a rename of a function or method the tracer
wraps by name."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload, trace", [
    pytest.param(w, trace, id=w + suffix)
    for trace, suffix in (("0", ""), ("1", "-traced")) for w in WORKLOADS])
def test_smoke_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "30", "--trace", trace,
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
