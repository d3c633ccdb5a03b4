"""Tiny-size smoke test of the benchmark itself.

Run from the repository root (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from run import verdict  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload: str, trace: str) -> None:
    done = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if trace == "0":
            assert reported["value"] > 0, metric["name"]
    provenance = json.loads(lines[-2][len("provenance "):])
    assert {"commit", "python", "cpu_count", "seed", "ops"} <= set(provenance)
    if trace == "1":
        assert result["metrics"]["observability.coverage"]["value"] >= 0.9


def test_refuses_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "mis-chain-cold", "--seed", "1", "--seconds", "1",
               cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_verdicts() -> None:
    lower = {"name": "latency_p50_s", "better": "lower", "bound": 0.1}
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert verdict(base, [1.3, 1.31, 1.29, 1.32, 1.28], lower) == "worse"
    assert verdict(base, [0.7, 0.71, 0.69, 0.72, 0.68], lower) == "better"
    assert verdict(base, [1.03, 1.04, 1.02, 1.05, 1.01], lower) == "unresolved"
    higher = {"name": "cache.hit_ratio", "better": "higher"}
    assert verdict([0.5, 0.5], [0.8, 0.8], higher) == "better"
    assert verdict([0.5, 0.5], [0.2, 0.2], higher) == "worse"


def test_compare_reads_saved_output(tmp_path: Path) -> None:
    def saved(value: float) -> str:
        metrics = {"latency_p50_s": {"value": value, "unit": "s"}}
        return (
            'provenance {"workload": "mis-chain-cold"}\n'
            + json.dumps({"correct": True, "attempted": 1, "failed": 0,
                          "metrics": metrics}) + "\n"
        )

    (tmp_path / "base.txt").write_text(saved(1.0) + saved(1.1))
    (tmp_path / "head.txt").write_text(saved(2.0) + saved(2.1))
    done = run("compare", str(tmp_path / "base.txt"), str(tmp_path / "head.txt"))
    assert done.returncode == 0, done.stderr
    row = next(line for line in done.stdout.splitlines() if "latency_p50_s" in line)
    assert row.split()[-1] == "worse"
