"""The ``BENCH_kernel.json`` recorder and its regression floors, without
timing anything real.

``benchmarks/bench_kernel.py`` is the one recorder behind every
trajectory row and every ``--quick`` floor.  These tests drive it with
synthetic trajectories, stub callables and a fake clock: which rows set
a floor, where the floor sits, how pairs are ordered, what a changing
result does, and what every written row carries.
"""

import json
import os
import platform
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
    ),
)

import bench_kernel
from bench_kernel import (
    HOTPATH_REGRESSION_FACTOR,
    REGRESSION_FACTOR,
    floor_gate,
    load_trajectory,
    measure_pairs,
    write_rows,
)

#: One current row per gated kind, plus rows with far higher speedups
#: that must never set a floor: legacy rows of both gated kinds, and the
#: cache, scenario and parallel rows.
TRAJECTORY = [
    {"chain": "mis_delta4_steps2", "speedup": 6.0},
    {
        "chain": "mis_delta4_steps2",
        "speedup": 600.0,
        "legacy": True,
        "legacy_reason": "best-of-3",
    },
    {"chain": "mis_delta5_steps2", "mode": "hotpath", "speedup": 12.0},
    {
        "chain": "mis_delta5_steps2",
        "mode": "hotpath",
        "speedup": 600.0,
        "legacy": True,
        "legacy_reason": "best-of-3",
    },
    {"chain": "mis_delta4_steps2", "mode": "operator-cache", "speedup": 600.0},
    {"chain": "mis_delta5_steps2", "mode": "operator-cache", "speedup": 600.0},
    {"chain": "mis3_speedup", "mode": "scenario", "speedup": 600.0},
    {"chain": "mis_delta7_steps2", "mode": "parallel", "speedup": 600.0},
]

GATES = [
    pytest.param(None, 6.0, REGRESSION_FACTOR, id="delta4"),
    pytest.param("hotpath", 12.0, HOTPATH_REGRESSION_FACTOR, id="hotpath"),
]


class FakeClock:
    """Stands in for the ``time`` module inside :func:`measure_pairs`;
    each stub side advances it by its scripted duration."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(bench_kernel, "time", fake)
    return fake


def scripted(clock, log, name, durations, results=None):
    """A side that logs its name, takes the next scripted duration and
    returns the next scripted result (``"same"`` by default)."""
    durations = list(durations)
    results = list(results) if results is not None else None

    def run():
        log.append(name)
        clock.now += durations.pop(0)
        return results.pop(0) if results is not None else "same"

    return run


class TestFloorGate:
    @pytest.mark.parametrize("mode, best, factor", GATES)
    def test_only_current_rows_of_the_mode_set_the_floor(
        self, mode, best, factor
    ):
        floor = best / factor
        assert floor_gate(TRAJECTORY, mode, floor, factor, "gate") == 0

    @pytest.mark.parametrize("mode, best, factor", GATES)
    def test_a_ratio_below_the_floor_fails(self, mode, best, factor, capsys):
        floor = best / factor
        assert floor_gate(TRAJECTORY, mode, floor - 0.01, factor, "gate") == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("mode, best, factor", GATES)
    def test_rows_that_set_no_floor_leave_nothing_to_compare(
        self, mode, best, factor, capsys
    ):
        ungated = [
            row
            for row in TRAJECTORY
            if row.get("legacy") or row.get("mode") not in (None, "hotpath")
        ]
        assert floor_gate(ungated, mode, 0.01, factor, "gate") == 0
        assert "nothing to compare against" in capsys.readouterr().out


class TestMeasurePairs:
    def test_pairs_alternate_which_side_runs_first(self, clock):
        log: list[str] = []
        measure_pairs(
            ("a", scripted(clock, log, "a", [1.0] * 4)),
            ("b", scripted(clock, log, "b", [1.0] * 4)),
            4,
        )
        assert log == ["a", "b", "b", "a", "a", "b", "b", "a"]

    def test_medians_iqrs_and_the_ratio_of_medians(self, clock):
        log: list[str] = []
        # Pair order a b / b a / a b: a takes 1, 3, 2 s and b 0.5, 1.5, 1 s.
        fields, result = measure_pairs(
            ("a", scripted(clock, log, "a", [1.0, 3.0, 2.0])),
            ("b", scripted(clock, log, "b", [0.5, 1.5, 1.0])),
            3,
        )
        assert result == "same"
        assert fields == {
            "pairs": 3,
            "a_median_seconds": 2.0,
            "a_iqr_seconds": 1.0,
            "b_median_seconds": 1.0,
            "b_iqr_seconds": 0.5,
            "speedup": 2.0,
        }

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_a_result_that_changes_between_runs_raises(self, clock, side):
        log: list[str] = []
        changing = ["same", "same", "other"]
        sides = {
            name: scripted(
                clock,
                log,
                name,
                [1.0] * 3,
                changing if name == side else None,
            )
            for name in ("a", "b")
        }
        with pytest.raises(AssertionError, match=f"{side} run in pair 3"):
            measure_pairs(("a", sides["a"]), ("b", sides["b"]), 3)


class TestTrajectoryFile:
    def test_a_missing_file_loads_as_empty(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_kernel, "TRAJECTORY_PATH", str(tmp_path / "missing.json")
        )
        assert load_trajectory() == []

    def test_every_written_row_carries_provenance(self, tmp_path, monkeypatch):
        path = tmp_path / "trajectory.json"
        path.write_text(json.dumps(TRAJECTORY[:2]))
        monkeypatch.setattr(bench_kernel, "TRAJECTORY_PATH", str(path))
        write_rows([
            {"chain": "mis_delta4_steps2", "speedup": 7.0},
            {"chain": "mis3_speedup", "mode": "scenario", "speedup": 1.0},
        ])
        written = json.loads(path.read_text())
        assert written[:2] == TRAJECTORY[:2]
        assert [row["chain"] for row in written[2:]] == [
            "mis_delta4_steps2",
            "mis3_speedup",
        ]
        for row in written[2:]:
            assert "commit" in row
            assert row["python"] == platform.python_version()
            assert row["cpu_count"] == os.cpu_count()
            assert row["recorded_at"].endswith("Z")
