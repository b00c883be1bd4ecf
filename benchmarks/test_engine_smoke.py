"""Opt-in smoke tests for the counting-engine throughput benchmark.

The ``bench_smoke`` marker keeps these out of the default (tier-1) test run — they
time real detection work, so they are opt-in::

    PYTHONPATH=src python -m pytest benchmarks -m bench_smoke

The pure-logic tests of ``check_regression`` below are cheap and run everywhere.
"""

from __future__ import annotations

import copy
import json

import pytest

from benchmarks.bench_engine_throughput import run_benchmarks
from benchmarks.check_regression import (
    DEFAULT_BASELINE,
    check_regression,
    load_artifact,
    main,
)


class TestCheckRegressionLogic:
    BASELINE = {
        "workloads": [
            {"workload": "w", "problem": "global", "algorithm": "IterTD", "speedup": 4.0},
            {"workload": "w", "problem": "global", "algorithm": "GlobalBounds", "speedup": 1.5},
        ],
        "summary": {"meets_target": True, "k_sweep_min_speedup": 4.0, "target_speedup": 3.0},
    }

    def test_passes_when_unchanged(self):
        assert check_regression(copy.deepcopy(self.BASELINE), self.BASELINE) == []

    def test_small_drift_within_tolerance_passes(self):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"][0]["speedup"] = 3.5  # -12.5% vs 4.0, within 20%
        assert check_regression(current, self.BASELINE) == []

    def test_large_drop_fails(self):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"][0]["speedup"] = 3.0  # -25% vs 4.0
        problems = check_regression(current, self.BASELINE)
        assert len(problems) == 1
        assert "w/global/IterTD" in problems[0]

    def test_missing_entry_fails(self):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"].pop()
        problems = check_regression(current, self.BASELINE)
        assert any("missing" in problem for problem in problems)

    def test_missed_target_fails(self):
        current = copy.deepcopy(self.BASELINE)
        current["summary"] = {"meets_target": False, "k_sweep_min_speedup": 2.0,
                              "target_speedup": 3.0}
        problems = check_regression(current, self.BASELINE)
        assert any("k-sweep target" in problem for problem in problems)

    def test_compiled_gate_skipped_without_numba(self):
        current = copy.deepcopy(self.BASELINE)
        current["summary"]["numba_available"] = False
        current["summary"]["compiled_kernel_min_speedup"] = None
        assert check_regression(current, self.BASELINE) == []

    def test_compiled_gate_binds_with_numba(self):
        current = copy.deepcopy(self.BASELINE)
        current["summary"]["numba_available"] = True
        current["summary"]["compiled_kernel_min_speedup"] = 1.1
        problems = check_regression(current, self.BASELINE)
        assert any("compiled kernels too slow" in problem for problem in problems)
        current["summary"]["compiled_kernel_min_speedup"] = 2.0
        assert check_regression(current, self.BASELINE) == []


class TestCheckRegressionMain:
    """Exit codes of the CLI: 0 pass, 1 regression, 2 missing artifact."""

    BASELINE = TestCheckRegressionLogic.BASELINE

    def _write(self, path, artifact) -> str:
        path.write_text(json.dumps(artifact))
        return str(path)

    def _argv(self, tmp_path, current) -> list[str]:
        return [
            "--current", self._write(tmp_path / "current.json", current),
            "--baseline", self._write(tmp_path / "baseline.json", self.BASELINE),
            "--planner", str(tmp_path / "no_planner.json"),
        ]

    def test_unchanged_artifact_passes(self, tmp_path):
        assert main(self._argv(tmp_path, copy.deepcopy(self.BASELINE))) == 0

    def test_regression_exits_1(self, tmp_path, capsys):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"][0]["speedup"] = 3.0  # -25% vs 4.0
        assert main(self._argv(tmp_path, current)) == 1
        assert "w/global/IterTD" in capsys.readouterr().out

    def test_missing_current_artifact_exits_2(self, tmp_path):
        argv = self._argv(tmp_path, self.BASELINE)
        argv[1] = str(tmp_path / "absent.json")
        assert main(argv) == 2


@pytest.mark.bench_smoke
class TestEngineSmoke:
    @pytest.fixture(scope="class")
    def artifact(self):
        """One scaled-down benchmark run shared by the smoke assertions."""
        return run_benchmarks(scale=0.2, n_attributes=6, synthetic_rows=2500, repeats=2)

    def test_artifact_shape(self, artifact):
        from repro.core.engine.kernels import NUMBA_AVAILABLE

        assert artifact["schema_version"] == 2
        assert len(artifact["workloads"]) == 8
        assert artifact["summary"]["numba_available"] == NUMBA_AVAILABLE
        for entry in artifact["workloads"]:
            assert entry["naive_seconds"] > 0 and entry["engine_seconds"] > 0
            assert entry["speedup"] == pytest.approx(
                entry["naive_seconds"] / entry["engine_seconds"]
            )
            # The compiled dimension is present on numba machines, null otherwise.
            if NUMBA_AVAILABLE:
                assert entry["compiled_seconds"] > 0
                assert entry["compiled_speedup"] == pytest.approx(
                    entry["engine_seconds"] / entry["compiled_seconds"]
                )
            else:
                assert entry["compiled_seconds"] is None
                assert entry["compiled_speedup"] is None

    def test_k_sweep_fast_path_beats_naive(self, artifact):
        """Even at smoke scale the engine must clearly beat the per-pattern path."""
        sweep = [e["speedup"] for e in artifact["workloads"] if e["algorithm"] == "IterTD"]
        assert min(sweep) > 1.5

    def test_incremental_detectors_not_badly_regressed(self, artifact):
        others = [e["speedup"] for e in artifact["workloads"] if e["algorithm"] != "IterTD"]
        assert min(others) > 0.5

    def test_committed_baseline_structure_is_comparable(self, artifact):
        """The committed baseline must cover the same (workload, problem, algorithm)
        grid the benchmark produces, so check_regression can match entries."""
        baseline = load_artifact(DEFAULT_BASELINE)
        from benchmarks.check_regression import entry_key

        assert {entry_key(e) for e in baseline["workloads"]} == {
            entry_key(e) for e in artifact["workloads"]
        }
        assert baseline["summary"]["meets_target"] is True
