"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced and checks the harness,
not the program's speed: each metric BENCHMARK.json names is printed with
its unit, spans nest, and the self times of a traced repetition's spans add
up to no more than its wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Span, check_nesting, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "tiny",
         "--seconds", "0", "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    details = json.loads((ROOT / info["details"]).read_text(encoding="utf-8"))
    return result, details


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_units_spans_and_self_times(workload, trace):
    result, details = run_bench(workload, trace)
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    spans = [Span(*fields) for fields in details["spans"]]
    if not trace:
        assert spans == []
        return
    assert spans and check_nesting(spans) == []
    own = self_times(spans)
    for rep in (r for r in details["reps"] if r["traced"]):
        mine = [t for s, t in zip(spans, own) if s.run == rep["run"]]
        assert mine and all(t > -1e-9 for t in mine)
        assert sum(mine) <= rep["wall_s"]
