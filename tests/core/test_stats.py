"""Tests for repro.core.stats."""

from __future__ import annotations

import json
from dataclasses import fields
from typing import get_type_hints

import pytest

from repro.core.serialization import stats_from_dict
from repro.core.stats import SearchStats, examined_gain


class TestSearchStats:
    def test_bump_and_as_dict(self):
        stats = SearchStats(nodes_generated=10, nodes_evaluated=7)
        stats.bump("restarts")
        stats.bump("restarts", 2)
        flat = stats.as_dict()
        assert flat["nodes_generated"] == 10
        assert flat["restarts"] == 3

    def test_merge_sums_counters(self):
        first = SearchStats(nodes_generated=5, nodes_evaluated=3, size_computations=4, full_searches=1)
        first.bump("x", 2)
        second = SearchStats(nodes_generated=1, nodes_evaluated=2, size_computations=3, full_searches=2)
        second.bump("x", 1)
        second.bump("y", 7)
        merged = first.merge(second)
        assert merged.nodes_generated == 6
        assert merged.nodes_evaluated == 5
        assert merged.size_computations == 7
        assert merged.full_searches == 3
        assert merged.extra == {"x": 3, "y": 7}
        # merge does not mutate its inputs
        assert first.extra == {"x": 2}

    def test_every_field_round_trips_through_json_with_its_type(self):
        hints = get_type_hints(SearchStats)
        stats = SearchStats()
        for index, spec in enumerate(fields(SearchStats), start=1):
            if spec.name == "extra":
                continue
            kind = hints[spec.name]
            value = kind(index) + 0.5 if kind is float else kind(index)
            assert value != getattr(SearchStats(), spec.name)
            setattr(stats, spec.name, value)
        stats.bump("custom_counter", 3)

        flat = stats.as_dict()
        assert list(flat)[:-1] == [spec.name for spec in fields(SearchStats) if spec.name != "extra"]
        restored = stats_from_dict(json.loads(json.dumps(flat)))

        assert restored == stats
        for spec in fields(SearchStats):
            if spec.name != "extra":
                assert type(getattr(restored, spec.name)) is hints[spec.name], spec.name
        assert restored.extra == {"custom_counter": 3}

    def test_as_dict_lists_fields_then_extra_without_aliasing(self):
        stats = SearchStats(nodes_evaluated=4)
        stats.bump("zeta")
        stats.bump("alpha", 2)
        flat = stats.as_dict()
        declared = [spec.name for spec in fields(SearchStats) if spec.name != "extra"]
        assert list(flat) == declared + ["zeta", "alpha"]
        flat["alpha"] = 99
        flat["nodes_evaluated"] = 99
        assert stats.extra == {"zeta": 1, "alpha": 2}
        assert stats.nodes_evaluated == 4

    def test_from_dict_casts_to_the_declared_field_type(self):
        # JSON writers may emit 2 for 2.0 and 3.0 for 3; the annotation decides.
        restored = stats_from_dict({"elapsed_seconds": 2, "nodes_evaluated": 3.0})
        assert restored.elapsed_seconds == 2.0
        assert type(restored.elapsed_seconds) is float
        assert restored.nodes_evaluated == 3
        assert type(restored.nodes_evaluated) is int

    def test_from_dict_keeps_unknown_keys_in_extra_and_defaults_the_rest(self):
        restored = stats_from_dict({"cache_hits": 5, "parallel_shards": 4})
        assert restored.cache_hits == 5
        assert restored.extra == {"parallel_shards": 4}
        assert restored == SearchStats(cache_hits=5, extra={"parallel_shards": 4})

    def test_absorb_sums_every_declared_field(self):
        hints = get_type_hints(SearchStats)
        first, second, expected = SearchStats(), SearchStats(), SearchStats()
        for index, spec in enumerate(fields(SearchStats), start=1):
            if spec.name == "extra":
                continue
            kind = hints[spec.name]
            setattr(first, spec.name, kind(index))
            setattr(second, spec.name, kind(10 * index))
            setattr(expected, spec.name, kind(11 * index))
        assert first.absorb(second) == expected


class TestExaminedGain:
    def test_percentage(self):
        baseline = SearchStats(nodes_evaluated=200)
        optimized = SearchStats(nodes_evaluated=120)
        assert examined_gain(baseline, optimized) == pytest.approx(40.0)

    def test_zero_baseline(self):
        assert examined_gain(SearchStats(), SearchStats(nodes_evaluated=5)) == 0.0

    def test_negative_gain_possible(self):
        baseline = SearchStats(nodes_evaluated=10)
        optimized = SearchStats(nodes_evaluated=12)
        assert examined_gain(baseline, optimized) == pytest.approx(-20.0)
