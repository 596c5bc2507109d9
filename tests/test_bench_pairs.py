"""The paired-run rule of tools/bench_pairs.py, on made-up run values."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

HIGHER = {"better": "higher", "bound": 0.25}
LOWER = {"better": "lower", "bound": 0.1}
BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]  # quartiles 99.125–100.875


def test_seed_list_takes_ranges_and_single_seeds():
    assert bench_pairs.seed_list("931-934,940") == [931, 932, 933, 934, 940]


def test_nine_wins_and_a_gap_over_the_base_iqr_meet_the_rule():
    change = [x + 5 for x in BASE[:9]] + [BASE[9] - 1]
    _, within, met = bench_pairs.summarize("items_per_s", HIGHER, BASE, change)
    assert within and met


def test_eight_wins_miss_the_rule():
    change = [x + 5 for x in BASE[:8]] + [BASE[8] - 1, BASE[9] - 1]
    _, _, met = bench_pairs.summarize("items_per_s", HIGHER, BASE, change)
    assert met is False


def test_every_win_by_less_than_the_base_iqr_misses_the_rule():
    change = [x + 0.5 for x in BASE]
    _, _, met = bench_pairs.summarize("items_per_s", HIGHER, BASE, change)
    assert met is False


def test_a_lower_is_better_metric_worse_than_its_bound_is_flagged():
    row, within, met = bench_pairs.summarize("peak_rss_mb", LOWER, BASE, [x * 1.11 for x in BASE])
    assert not within and not met and "| NO |" in row
    _, within, _ = bench_pairs.summarize("peak_rss_mb", LOWER, BASE, [x * 1.09 for x in BASE])
    assert within
