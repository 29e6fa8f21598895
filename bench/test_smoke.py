"""Tests of the benchmark itself: a smoke run of every workload, and the checker.

    python -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from checker import Checker
from instances import random_instance

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_checked_and_traced() -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0.3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(summary) == sorted(f"{w} trace={t}" for w in workloads for t in (0, 1))
    for label, entry in summary.items():
        result = entry["result"]
        assert result["correct"] is True, label
        assert result["failed"] == 0 and result["attempted"] >= 1, label
        spec = SPEC["per_layer"] if label.endswith("trace=1") else SPEC["end_to_end"]
        assert {m["name"]: m["unit"] for m in spec} == {
            name: value["unit"] for name, value in result["metrics"].items()
        }, label
    assert "provenance " in proc.stdout
    assert "record digest" in proc.stdout
    assert "op_p50_wall_ms" in proc.stdout and "host_slowdown" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checker_flags_overlap_and_wrong_weight() -> None:
    inst = random_instance(6, 8, 3, 10, seed=3)
    shared = [e for e in range(inst.m) if set(inst.edge(e)) & set(inst.edge(0))][:2]
    assert len(shared) == 2  # edge 0 and one edge sharing a vertex with it
    checker = Checker()
    checker.matching(inst, shared, float(sum(inst.weights[e] for e in shared)), "overlap")
    assert checker.failures == 1 and "covered twice" in checker.messages[0]
    checker = Checker()
    checker.matching(inst, [0], inst.weights[0] + 1.0, "weight")
    assert checker.failures == 1 and "does not recompute" in checker.messages[0]
    checker = Checker()
    checker.matching(inst, [0], float(inst.weights[0]), "ok")
    assert checker.ok
