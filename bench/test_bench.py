"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each workload runs twice at seed 0 with the layer trace, so the module
takes about four minutes on one core.  Run from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: logical evaluations per pass at seed 0, as measured for the baseline
BASELINE_EVALUATIONS = {"moga_hillclimb": 113_577, "nsga2_tight": 120_041,
                        "oracle_enum": 344_064}


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int) -> dict:
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def values(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(BASELINE_EVALUATIONS))
def test_traced_counts_repeat_and_match_baseline(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def counts(res):
        return {k: v["value"] for k, v in res["metrics"].items()
                if v["unit"] == "count"}
    assert counts(first) == counts(second)

    m = values(first)
    logical = m["oracle.points"] if workload == "oracle_enum" else m["report.evaluations"]
    assert logical == BASELINE_EVALUATIONS[workload]
    self_times = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_times + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])


def test_untraced_run_reports_every_end_to_end_metric():
    res = result("moga_hillclimb", 0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v > 0 for v in values(res).values())


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("moga_hillclimb", 0, cwd=tmp)
    assert out.returncode != 0
    assert out.stdout == ""


def test_hypervolume_of_hand_fronts():
    class Inst:
        initial_capital, price, deadline = 9.0, 0.0, 9   # reference (10, 10, 0)

    # one point: a box of 5 x (5 / 10) x 2
    assert checks.hypervolume(Inst, [(5.0, 5, 2.0)]) == pytest.approx(5.0)
    # a second point adds the part of its box outside the first one: cost
    # 8-10, makespan 2-5, productivity 0-1
    both = checks.hypervolume(Inst, [(5.0, 5, 2.0), (8.0, 2, 1.0)])
    assert both == pytest.approx(5.0 + 2 * 0.3 * 1.0)
