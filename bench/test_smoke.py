"""Smoke test of the benchmark itself, at the tiny size.

Not part of the tier-1 suite (pytest's testpaths is tests/); run it with

    python3 -m pytest -q bench/test_smoke.py

For every workload it checks that each metric named in BENCHMARK.json
is printed with its unit, that no response failed its checks, and that
two traced runs with the same seed give identical counts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that are times, or ratios of times, and so may differ
TIMED_UNITS = ("s",)
TIMED_NAMES = ("trace.overhead",)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    counts = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        lines, result = run(workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                       for line in lines), m["name"]
        if trace:
            counts.append({m["name"]: result["metrics"][m["name"]]["value"]
                           for m in SPEC[key]
                           if m["unit"] not in TIMED_UNITS and m["name"] not in TIMED_NAMES})
    assert counts[0] == counts[1]
