"""The arithmetic of tools/bench_pairs.py: quartiles, win counts and the steal share.

The script is a standalone tool, not part of the package, so it is imported
from its path. Every accepted speed claim rests on these numbers.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def run(**values):
    """One run's JSON result holding the given metric values."""
    return {"metrics": {name: {"value": value} for name, value in values.items()}}


def metric(name, better):
    return {"name": name, "unit": "s" if better == "lower" else "share", "better": better}


class TestQuartiles:
    def test_one_value_is_every_quartile(self):
        assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)

    @pytest.mark.parametrize("values,expected", [
        # statistics.quantiles' default "exclusive" method extrapolates past
        # the data on small samples.
        ([1.0, 3.0], (0.5, 2.0, 3.5)),
        ([1.0, 2.0, 3.0, 4.0, 5.0], (1.5, 3.0, 4.5)),
        ([4.0, 1.0, 3.0, 2.0], (1.25, 2.5, 3.75)),
    ])
    def test_several_values(self, values, expected):
        assert bench_pairs.quartiles(values) == expected


class TestSummarise:
    def test_wins_follow_each_declared_direction(self):
        # The change is 1 higher than the parent on every metric, so it wins
        # every pair of a higher-is-better metric and none of the others.
        pairs = [
            (run(**{m["name"]: p for m in END_TO_END}),
             run(**{m["name"]: p + 1.0 for m in END_TO_END}))
            for p in (1.0, 2.0, 3.0)
        ]
        rows = bench_pairs.summarise(pairs, END_TO_END)
        wins = {row["metric"]: row["change_wins"] for row in rows}
        higher = {"ok_share", "val_acc", "selective_acc"}
        assert {m["name"] for m in END_TO_END if m["better"] == "higher"} == higher
        assert wins == {m["name"]: 3 if m["name"] in higher else 0 for m in END_TO_END}
        assert all(row["pairs"] == 3 for row in rows)

    def test_ties_count_for_neither_side(self):
        pairs = [(run(wall_s=1.0, val_acc=0.9), run(wall_s=1.0, val_acc=0.9))] * 4
        rows = bench_pairs.summarise(
            pairs, [metric("wall_s", "lower"), metric("val_acc", "higher")]
        )
        assert [row["change_wins"] for row in rows] == [0, 0]
        assert [row["median_gap"] for row in rows] == [0.0, 0.0]

    def test_mixed_pairs_and_gap_against_parent_iqr(self):
        parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # q1 1.5, median 3, q3 4.5: IQR 3
        rows = bench_pairs.summarise(
            [(run(wall_s=p), run(wall_s=c)) for p, c in zip(parent, [0.5, 3.0, 2.0, 9.0, 4.0])],
            [metric("wall_s", "lower")],
        )
        (row,) = rows
        assert row["change_wins"] == 3  # 0.5 < 1, 2 < 3, 4 < 5; 3 > 2 and 9 > 4 lose
        assert row["parent"] == {"q1": 1.5, "median": 3.0, "q3": 4.5}
        assert row["change"]["median"] == 3.0
        assert (row["median_gap"], row["parent_iqr"]) == (0.0, 3.0)
        assert row["gap_exceeds_parent_iqr"] is False

    @pytest.mark.parametrize("shift,exceeds", [(-3.0, False), (-3.5, True), (3.5, True)])
    def test_gap_must_strictly_exceed_parent_iqr(self, shift, exceeds):
        parent = [1.0, 2.0, 3.0, 4.0, 5.0]
        rows = bench_pairs.summarise(
            [(run(train_s=p), run(train_s=p + shift)) for p in parent],
            [metric("train_s", "lower")],
        )
        assert rows[0]["median_gap"] == shift
        assert rows[0]["gap_exceeds_parent_iqr"] is exceeds

    def test_metric_missing_from_a_run_is_skipped(self):
        pairs = [
            (run(wall_s=1.0, sweep_s=0.5), run(wall_s=0.9, sweep_s=0.4)),
            (run(wall_s=1.0, sweep_s=0.5), run(wall_s=0.9)),
        ]
        rows = bench_pairs.summarise(
            pairs, [metric("wall_s", "lower"), metric("sweep_s", "lower")]
        )
        assert [row["metric"] for row in rows] == ["wall_s"]
        assert rows[0]["change_wins"] == 2


class TestStealText:
    @pytest.mark.parametrize("before,after", [
        (None, [0] * 8),
        ([0] * 8, None),
        (None, None),
        ([5, 0, 2, 9, 0, 0, 0, 1], [5, 0, 2, 9, 0, 0, 0, 1]),  # no tick passed
    ], ids=["before_missing", "after_missing", "both_missing", "zero_ticks"])
    def test_not_available(self, before, after):
        assert bench_pairs.steal_text(before, after) == "steal n/a"

    def test_share_of_ticks_stolen(self):
        before = [100, 0, 10, 500, 0, 0, 0, 7]
        after = [170, 0, 20, 510, 0, 0, 0, 17]  # 100 ticks, 10 of them steal
        assert bench_pairs.steal_text(before, after) == "steal 10.0%"
