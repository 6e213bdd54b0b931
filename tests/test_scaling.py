"""``tools/scaling.py compare`` on hand-made rows: what it flags and what it
lets pass."""
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("scaling", Path(__file__).resolve().parents[1] / "tools" / "scaling.py")
scaling = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(scaling)


def row(runs_s, value="0.5", counts=None):
    return {"params": {}, "wall_s": sorted(runs_s)[1], "runs_s": runs_s, "value": value, "witness": None,
            "counts": counts or {"rows": 100}}


class TestCompare:
    def test_a_planted_slowdown_is_flagged(self):
        flags = scaling.compare({"r": row([1.0, 1.05, 1.1])}, {"r": row([2.0, 2.1, 2.2])})
        assert flags == ["r: wall 1.100 (slowest) -> 2.000 s (fastest)"]

    def test_overlapping_runs_are_not_flagged(self):
        # reruns of one row on either tree read 0.11-0.19 s: the medians
        # differ by 40%, but the runs overlap
        before, after = row([0.11, 0.12, 0.19]), row([0.11, 0.17, 0.19])
        assert after["wall_s"] > (1.0 + scaling.TIME_RISE) * before["wall_s"]
        assert scaling.compare({"r": before}, {"r": after}) == []

    def test_a_faster_row_is_not_flagged(self):
        assert scaling.compare({"r": row([2.0, 2.1, 2.2])}, {"r": row([1.0, 1.05, 1.1])}) == []

    @pytest.mark.parametrize("after, flag", [
        (row([0.11, 0.12, 0.19], value="0.6"), "r: value 0.5 -> 0.6"),
        (row([0.11, 0.12, 0.19], counts={"rows": 101}), "r: rows count 100 -> 101"),
    ])
    def test_a_value_change_or_a_count_rise_is_flagged(self, after, flag):
        assert scaling.compare({"r": row([0.11, 0.12, 0.19])}, {"r": after}) == [flag]

    def test_a_count_the_before_run_lacks_is_new_not_a_rise(self):
        after = row([0.11, 0.12, 0.19], counts={"rows": 100, "plan_entries": 4360})
        assert scaling.compare({"r": row([0.11, 0.12, 0.19])}, {"r": after}) == []

    def test_a_cold_run_rise_is_flagged(self):
        runs = [0.11, 0.12, 0.19]
        before, after, same = ({**row(runs), "cold_s": cold} for cold in (1.0, 1.3, 1.15))
        assert scaling.compare({"r": before}, {"r": after}) == ["r: cold 1.000 -> 1.300 s"]
        assert scaling.compare({"r": before}, {"r": same}) == []
        assert scaling.compare({"r": row(runs)}, {"r": after}) == []  # a row stored without a cold run
