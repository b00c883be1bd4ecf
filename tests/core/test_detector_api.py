"""Tests for the Detector/DetectionReport API and the detect_biased_groups facade."""

from __future__ import annotations

import pytest

from repro.core import detect_biased_groups
from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.detector import DetectionParameters, Detector
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.pattern import Pattern
from repro.exceptions import DetectionError


class TestDetectionReport:
    @pytest.fixture()
    def report(self, toy_dataset, toy_ranking):
        return GlobalBoundsDetector(
            bound=GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5
        ).detect(toy_dataset, toy_ranking)

    def test_detailed_groups_ordering(self, report):
        by_size = report.detailed_groups(4, order_by="size")
        assert by_size == sorted(by_size, key=lambda g: (-g.size_in_data, g.pattern.describe()))
        by_bias = report.detailed_groups(4, order_by="bias")
        assert by_bias == sorted(by_bias, key=lambda g: (-g.bias_gap, g.pattern.describe()))
        assert {group.pattern for group in by_size} == set(report.groups_at(4))

    def test_detailed_groups_values(self, report, toy_dataset, toy_ranking):
        for group in report.detailed_groups(4):
            assert group.size_in_data == toy_dataset.count(group.pattern)
            assert group.count_in_top_k == toy_ranking.count_in_top_k(group.pattern, 4)
            assert group.bound == 2.0
            assert group.count_in_top_k < group.bound

    def test_invalid_order_by(self, report):
        with pytest.raises(DetectionError):
            report.detailed_groups(4, order_by="alphabetical")

    def test_describe_contains_groups(self, report):
        text = report.describe()
        assert "GlobalBounds" in text
        assert "Address=U" in text

    def test_describe_truncates(self, report):
        text = report.describe(max_rows=1)
        assert "more rows" in text

    def test_repr(self, report):
        assert "GlobalBounds" in repr(report)
        assert "total_reported" in repr(report)

    def test_stats_elapsed_recorded(self, report):
        assert report.stats.elapsed_seconds > 0


class TestFacade:
    def test_auto_selects_global_bounds(self, toy_dataset, toy_ranking):
        report = detect_biased_groups(
            toy_dataset, toy_ranking, GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5
        )
        assert report.algorithm == "GlobalBounds"

    def test_auto_selects_prop_bounds(self, toy_dataset, toy_ranking):
        report = detect_biased_groups(
            toy_dataset, toy_ranking, ProportionalBoundSpec(alpha=0.9), tau_s=5, k_min=4, k_max=5
        )
        assert report.algorithm == "PropBounds"
        assert Pattern({"Gender": "F"}) in report.groups_at(5)

    def test_explicit_algorithm(self, toy_dataset, toy_ranking):
        report = detect_biased_groups(
            toy_dataset,
            toy_ranking,
            GlobalBoundSpec(lower_bounds=2),
            tau_s=4,
            k_min=4,
            k_max=5,
            algorithm="iter_td",
        )
        assert report.algorithm == "IterTD"

    def test_unknown_algorithm(self, toy_dataset, toy_ranking):
        with pytest.raises(ValueError):
            detect_biased_groups(
                toy_dataset,
                toy_ranking,
                GlobalBoundSpec(lower_bounds=2),
                tau_s=4,
                k_min=4,
                k_max=5,
                algorithm="quantum",
            )

    def test_accepts_ranker(self, toy_dataset):
        from repro.ranking.workloads import toy_ranker

        report = detect_biased_groups(
            toy_dataset, toy_ranker(), GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5
        )
        assert report.result.total_reported() > 0


class TestDetectorSubclassing:
    def test_detector_without_sweep_fails_on_instantiation(self):
        class Incomplete(Detector):
            name = "incomplete"

        parameters = DetectionParameters(GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5)
        with pytest.raises(TypeError, match="_sweep"):
            Incomplete(parameters)

    def test_legacy_run_override_does_not_satisfy_the_contract(self):
        class Legacy(Detector):
            name = "legacy"

            def _run(self, counter, stats):  # pragma: no cover - never called
                raise AssertionError("the _run override point no longer exists")

        parameters = DetectionParameters(GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5)
        with pytest.raises(TypeError, match="_sweep"):
            Legacy(parameters)

    def test_base_class_is_abstract(self):
        parameters = DetectionParameters(GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5)
        with pytest.raises(TypeError):
            Detector(parameters)
