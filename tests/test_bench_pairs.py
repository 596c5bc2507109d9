"""The paired-run rule of tools/bench_pairs.py, on made-up run values, and the two trees it runs."""

import importlib.util
import subprocess
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


def test_both_trees_sit_in_one_directory_and_the_change_holds_untracked_files(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    files = {".gitignore": "ignored.txt\n", "kept.txt": "base\n", "gone.txt": "base\n", "sub/deep.txt": "base\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(exist_ok=True)
        (repo / name).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "kept.txt").write_text("change\n")
    (repo / "gone.txt").unlink()
    (repo / "sub" / "new.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    (tmp_path / "work").mkdir()

    trees = bench_pairs.make_trees("HEAD", tmp_path / "work", repo)

    assert trees["base"].parent == trees["change"].parent == tmp_path / "work"

    def contents(tree):
        return {str(f.relative_to(tree)): f.read_text() for f in tree.rglob("*") if f.is_file()}

    assert contents(trees["base"]) == files
    assert contents(trees["change"]) == {
        ".gitignore": "ignored.txt\n", "kept.txt": "change\n", "sub/deep.txt": "base\n", "sub/new.txt": "untracked\n",
    }
