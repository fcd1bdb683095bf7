"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q bench/test_bench.py

It checks that each run prints every metric BENCHMARK.json names, with its
unit, that no output check fails, that the traced run's per-layer self times
and unattributed time add up to the traced wall, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def assert_reports(result: dict, report: str, expected: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        assert any(line.split()[1:2] == [m["name"]] and m["unit"] in line.split()
                   for line in report.splitlines()), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, report = result_of(bench(workload, trace=0))
    assert_reports(result, report, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result, report = result_of(bench(workload, trace=1))
    assert_reports(result, report, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # one <layer>.self_s per package module
    attributed = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert metrics["cli.self_s"] > 0
    assert metrics["traced_wall_s"] > 0
    assert attributed + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"], rel=1e-9)


def test_refuses_without_sources():
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = bench(WORKLOADS[0], trace=0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare)
