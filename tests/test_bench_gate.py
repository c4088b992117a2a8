"""The benchmark-regression gate's comparison logic and baseline file."""

import json
from pathlib import Path

import pytest

from benchmarks.gate import (
    DEFAULT_TOLERANCE,
    MIN_GATED_SCORE,
    SPEEDUP_REFERENCES,
    UNITS,
    compare,
    normalize,
)

BASELINE = Path(__file__).parent.parent / "benchmarks" / "baseline.json"


class TestCompare:
    def test_within_tolerance_passes(self):
        assert compare({"a": 1.2}, {"a": 1.0}, 0.25) == []

    def test_regression_fails(self):
        failures = compare({"a": 1.3}, {"a": 1.0}, 0.25)
        assert len(failures) == 1
        assert "a" in failures[0]

    def test_improvement_passes(self):
        assert compare({"a": 0.1}, {"a": 1.0}, 0.25) == []

    def test_missing_unit_fails(self):
        failures = compare({}, {"a": 1.0}, 0.25)
        assert failures == ["a: present in baseline but not timed"]

    def test_unknown_unit_fails(self):
        failures = compare({"a": 1.0, "new": 1.0}, {"a": 1.0}, 0.25)
        assert len(failures) == 1
        assert "new" in failures[0]

    def test_noise_floor_not_gated(self):
        # Both sides under the floor: too fast to time, never a failure.
        tiny = MIN_GATED_SCORE / 4
        assert compare({"a": tiny * 2}, {"a": tiny}, 0.25) == []

    def test_normalize(self):
        assert normalize({"a": 1.0, "b": 0.5}, 2.0) == {"a": 0.5, "b": 0.25}


class TestSpeedupPin:
    """The absolute speed-up pins on top of the regression baseline."""

    def test_pinned_unit_over_ceiling_fails(self):
        reference, min_speedup = SPEEDUP_REFERENCES["campaign_throughput"]
        over = reference / min_speedup * 1.01
        failures = compare(
            {"campaign_throughput": over}, {"campaign_throughput": over}, 0.25
        )
        assert len(failures) == 1
        assert f"{min_speedup:g}x" in failures[0]

    def test_pinned_unit_under_ceiling_passes(self):
        reference, min_speedup = SPEEDUP_REFERENCES["campaign_throughput"]
        under = reference / min_speedup * 0.9
        assert compare(
            {"campaign_throughput": under},
            {"campaign_throughput": under},
            0.25,
        ) == []

    @pytest.mark.parametrize("name", sorted(SPEEDUP_REFERENCES))
    def test_every_pin_enforces_its_ceiling(self, name):
        reference, min_speedup = SPEEDUP_REFERENCES[name]
        ceiling = reference / min_speedup
        over = compare({name: ceiling * 1.01}, {name: ceiling * 1.01}, 0.25)
        assert len(over) == 1
        assert name in over[0] and f"{min_speedup:g}x" in over[0]
        assert compare({name: ceiling * 0.9}, {name: ceiling * 0.9}, 0.25) == []

    def test_throttle_and_sweep_wins_are_pinned(self):
        assert SPEEDUP_REFERENCES["ext_throttle"][1] >= 4.0
        assert SPEEDUP_REFERENCES["resilience_sweeps"][1] >= 10.0

    def test_baseline_satisfies_every_pin(self):
        # The committed baseline itself must honor the speed-up pins:
        # an accepted slow score would otherwise mask the regression.
        payload = json.loads(BASELINE.read_text(encoding="utf-8"))
        failures = compare(payload["units"], payload["units"], 0.25)
        assert failures == []

    def test_pins_cover_only_pinned_units(self):
        pinned = set(SPEEDUP_REFERENCES)
        assert pinned <= {name for name, _ in UNITS}


class TestBaselineFile:
    def test_committed_baseline_matches_pinned_units(self):
        payload = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert set(payload["units"]) == {name for name, _ in UNITS}
        assert 0 < payload["tolerance"] <= 1
        assert payload["tolerance"] == DEFAULT_TOLERANCE

    def test_baseline_scores_are_gateable(self):
        payload = json.loads(BASELINE.read_text(encoding="utf-8"))
        for name, score in payload["units"].items():
            assert score >= MIN_GATED_SCORE, (
                f"unit {name!r} is too fast to gate reliably; make it "
                "heavier or drop it from the pinned set"
            )
