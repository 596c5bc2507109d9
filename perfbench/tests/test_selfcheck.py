"""Self-check of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs at a tiny size and must pass its own correctness
checks and report exactly the metrics BENCHMARK.json declares. A copy of
the golden descent tables with one perturbed cell must drive failed_frac
above 0, and the benchmark must refuse to run without bfokit's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, run=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(run), "--seed", "5", "--seconds", "0.1", "--size", "tiny", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks(workload, trace):
    r = result(bench("--workload", workload, "--trace", trace))
    assert r["correct"] is True
    assert r["failed"] == 0 and r["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(r["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert r["metrics"][m["name"]]["unit"] == m["unit"]


def copy_benchmark(root: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH_DIR, root / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    return root / BENCH_DIR.name / "run.py"


def test_corrupted_golden_table_counts_as_failure(tmp_path):
    run = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    shutil.copytree(HERE / "corrupt_golden", tmp_path / "tests" / "golden")
    r = result(bench("--workload", "cold_cli", "--trace", "0", run=run))
    assert r["correct"] is False
    assert r["failed"] / r["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", run=copy_benchmark(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
