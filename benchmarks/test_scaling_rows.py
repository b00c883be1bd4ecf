"""Tests for the row-scaling benchmark's summary and command line.

The summary logic and the committed artifact are checked without timing
anything; one tiny sweep runs the real process pool end to end (two workers,
a few hundred rows) so the benchmark stays runnable.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_scaling_rows import (
    DEFAULT_OUTPUT,
    TARGET_SPEEDUP,
    TARGET_WORKERS,
    _parse_int_list,
    _summarise,
    run_benchmarks,
)


def _entry(n_rows: int, workers: int, speedup: float) -> dict:
    return {
        "n_rows": n_rows,
        "workers": workers,
        "speedup": speedup,
        "efficiency": speedup / workers,
    }


def _summary(entries, rows, workers) -> dict:
    return _summarise(entries, rows, workers, "IterTD", "global", 1, 10, 30)["summary"]


class TestSummary:
    def test_target_binds_at_the_target_worker_count_on_the_largest_rows(self):
        fast = TARGET_SPEEDUP + 0.5
        entries = [
            _entry(100, 1, 1.0), _entry(100, TARGET_WORKERS, 1.0),
            _entry(1000, 1, 1.0), _entry(1000, TARGET_WORKERS, fast),
        ]
        summary = _summary(entries, (100, 1000), (1, TARGET_WORKERS))
        assert summary["speedup_at_target_workers_largest_rows"] == pytest.approx(fast)
        assert summary["meets_target"] is True
        # Only the largest row count counts toward the target.
        entries[-1] = _entry(1000, TARGET_WORKERS, TARGET_SPEEDUP - 0.5)
        assert _summary(entries, (100, 1000), (1, TARGET_WORKERS))["meets_target"] is False

    def test_missing_target_worker_count_never_meets_the_target(self):
        entries = [_entry(100, 1, 1.0), _entry(100, 2, 1.9)]
        summary = _summary(entries, (100,), (1, 2))
        assert summary["speedup_at_target_workers_largest_rows"] == 0.0
        assert summary["meets_target"] is False
        assert summary["per_worker_count"]["2"]["geomean_efficiency"] == pytest.approx(0.95)

    def test_committed_artifact_summary_matches_its_entries(self):
        artifact = json.loads(DEFAULT_OUTPUT.read_text())
        parameters = artifact["parameters"]
        assert artifact["schema_version"] == 3
        assert all("backend" not in entry for entry in artifact["entries"])
        recomputed = _summarise(
            artifact["entries"], parameters["rows"], parameters["workers"],
            parameters["algorithm"], parameters["problem"], parameters["repeats"],
            parameters["k_min"], parameters["k_max"],
        )["summary"]
        committed = artifact["summary"]
        assert recomputed["per_worker_count"].keys() == committed["per_worker_count"].keys()
        for workers, figures in committed["per_worker_count"].items():
            assert recomputed["per_worker_count"][workers] == pytest.approx(figures)
        assert recomputed["meets_target"] == committed["meets_target"]


class TestCommandLine:
    def test_parse_int_list_ignores_blank_parts(self):
        assert _parse_int_list("1000, 2000,,") == (1000, 2000)


def test_tiny_sweep_runs_on_the_process_pool():
    artifact = run_benchmarks(rows_list=(300,), attribute_list=(3,), worker_list=(2,))
    serial, sharded = artifact["entries"]
    assert (serial["workers"], sharded["workers"]) == (1, 2)
    # run_benchmarks raises on a result mismatch; these pin the pool's lifecycle.
    assert sharded["parallel_fallback"] == 0
    assert sharded["pool_spawns"] == 1
    assert sharded["shm_publishes"] == 1
    assert sharded["nodes_evaluated"] == serial["nodes_evaluated"]
    assert serial["pool_spawns"] == 0
