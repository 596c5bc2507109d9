#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and check the paired rule.

    python3 tools/bench_pairs.py --base HEAD~1 --workload reference_flights \\
        --seeds 931-940 [--seconds 30] [--workload cold_cli ...]

Both trees sit side by side in one temporary directory, at paths of one
length. The side that runs first alternates every pair, and the trees
trade paths by rename before every second pair (:func:`schedule`), so
that over any four consecutive pairs each tree runs first once from each
path: neither the run order nor the place favours one side. Both
are unpacked by ``tar -x``, so that neither is written differently: the
base revision from ``git archive``, and the change from a ``tar -c`` of
the working tree as it stands, its tracked files and the untracked ones
that are not ignored (``git ls-files --cached --others
--exclude-standard``), less the tracked files it has deleted. For each
seed and workload, ``perfbench/run.py --trace 0`` runs once in each
tree. The runs get
``PYTHONDONTWRITEBYTECODE=1``, so neither tree gains ``__pycache__``
directories; nothing else is written in either tree except what
``perfbench/run.py`` itself makes and removes.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints both medians, both quartile ranges, the change's wins and whether
the change's median is within the metric's bound. Its last column says
whether the metric meets the paired rule for a claimed gain: the change
wins at least nine tenths of the pairs, ties counting for neither, and its
median is better than the base's by more than the base's interquartile
range. Which metric is claimed is for the reader to say. The exit code is
1 if a run fails, a median is outside its bound or the change fails more
requests than the base, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PLACES = ("tree_0", "tree_1")  # one length, so that neither tree's file paths are longer than the other's


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD~1")
    p.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 931-940 or 1,5,9")
    p.add_argument("--seconds", type=float, help="seconds per run (default: run_seconds of BENCHMARK.json)")
    return p.parse_args(argv)


def make_trees(rev: str, into: Path, repo: Path = REPO) -> dict[str, Path]:
    """``{"base": rev exported, "change": repo's working tree copied}``, side by side in ``into`` at the
    :data:`PLACES`, both unpacked by ``tar -x`` from a tar stream, so that the two trees are written the
    same way."""
    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True).stdout

    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    present = [n for n in names if n and (repo / os.fsdecode(n)).is_file()]  # not a tracked file since deleted
    streams = {
        "base": git("archive", "--format=tar", rev),
        "change": subprocess.run(["tar", "-c", "-C", str(repo), "--null", "-T", "-"], input=b"\0".join(present),
                                 check=True, capture_output=True).stdout,
    }
    trees = {side: into / place for side, place in zip(streams, PLACES)}
    for side, stream in streams.items():
        trees[side].mkdir()
        subprocess.run(["tar", "-x", "-C", str(trees[side])], input=stream, check=True)
    return trees


def schedule(pairs: int) -> list[tuple[bool, tuple[str, str]]]:
    """For each of ``pairs`` pairs: whether the trees trade places before it, and the order the sides run in.
    The order alternates every pair and the places every second pair, so that over any four consecutive
    pairs each side runs first once from each place."""
    return [(k > 0 and k % 2 == 0, ("base", "change") if k % 2 == 0 else ("change", "base")) for k in range(pairs)]


def swap_places(trees: dict[str, Path]) -> dict[str, Path]:
    """``trees`` after the two directories trade paths by rename, so that each side runs from the other's."""
    base, change = trees["base"], trees["change"]
    held = base.with_name(base.name + ".held")
    base.rename(held)
    change.rename(base)
    held.rename(change)
    return {"base": change, "change": base}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one untraced benchmark run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(name, spec, base, change):
    """One table row, whether the change's median is within the bound, and
    whether the change meets the paired rule for a gain."""
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    mb, mc = statistics.median(base), statistics.median(change)
    (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
    within = sign * (mc - mb) >= -spec["bound"] * mb
    met = wins >= 0.9 * len(base) and sign * (mc - mb) > b3 - b1
    row = (f"| {name} | {mb:.6g} ({b1:.6g}–{b3:.6g}) | {mc:.6g} ({c1:.6g}–{c3:.6g}) "
           f"| {100 * (mc / mb - 1):+.1f} % | {wins}/{len(base)} | {'yes' if within else 'NO'} "
           f"| {'met' if met else 'not met'} |")
    return row, within, met


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results = {w: {"base": [], "change": [], "failed": [0, 0]} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = make_trees(args.base, Path(tmp))
        for seed, (swap, order) in zip(args.seeds, schedule(len(args.seeds))):
            if swap:
                trees = swap_places(trees)
            for w in args.workload:
                for side in order:
                    out = run_once(trees[side], w, seed, seconds)
                    results[w][side].append({n: out["metrics"][n]["value"] for n in metrics})
                    results[w]["failed"][side == "change"] += out["failed"]
                    print(f"seed {seed} {w} {side} ({trees[side].name}): "
                          + " ".join(f"{n}={v:.6g}" for n, v in results[w][side][-1].items()), flush=True)
    code = 0
    print(f"\nbase {args.base} vs working tree; {len(args.seeds)} pairs, seeds {args.seeds[0]}–{args.seeds[-1]}, "
          f"{seconds:g} s per run, first side alternating every pair and places every second pair")
    for w, r in results.items():
        print(f"\n{w} (failed requests: base {r['failed'][0]}, change {r['failed'][1]})\n")
        print("| metric | base median (quartiles) | change median (quartiles) | change | wins | within bound | gain rule |")
        print("| --- | --- | --- | --- | --- | --- | --- |")
        for name, m in metrics.items():
            row, within, _ = summarize(name, m, [x[name] for x in r["base"]], [x[name] for x in r["change"]])
            print(row)
            code |= not within
        code |= r["failed"][1] > r["failed"][0]
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
