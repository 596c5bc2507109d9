"""bfokit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is ``cold_cli``, ``dense_sweep`` or ``reference_flights`` (see
workloads.py), or ``all`` to run the three in turn and print every metric
of each. Run it from anywhere inside a checkout of the repository; it
imports bfokit from ``src/`` and works under ``.bench_work/``, which it
removes when it ends.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` alternates untraced and traced rounds, reports the per-layer metrics
(span self time shares, calls per round, tracing overhead, untraced
per-call probes, cold per-subcommand CLI walls, import times) and prints
the span table. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Set-up (interpreter start, ``import bfokit``, seeded input generation and
a warm-up call) runs in a fresh child process several times, each right
after a reference child (see REFERENCE_CHILD); ``setup_s`` is the median
of the set-up walls, each scaled by its reference. ``wall_p10_s`` is the
fastest decile of each request kind's walls, summed over the kinds in one
round, so every CLI subcommand counts on ``cold_cli``; it is scaled by the
fastest decile of the reference work run after each request.
``items_per_s`` is the work of one round over the same sum taken at each
kind's median request, each request scaled by the reference run right
after it. The raw figures are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from cli_child import peak_rss_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ["cold_cli", "dense_sweep", "reference_flights"]
SETUP_REPS = {"full": 11, "tiny": 1}
MODULES = ["import", "cli", "config", "ingest", "geodesy", "satellite", "bfo_model", "track_sweep",
           "stats", "trend", "warmup", "descent"]
# Bounded times are scaled by the time of reference work that no change to
# bfokit can move, timed on the same machine at about the same moment, so
# that they read as seconds on the machine perfbench/baseline.json was
# recorded on, in a quiet period. In-process requests use kernel_time(),
# which took REFERENCE_KERNEL_S there. Set-up and cold CLI calls are mostly
# interpreter start and imports, which a busy machine slows far more than it
# slows speed_kernel(); they use REFERENCE_CHILD, a fresh interpreter that
# imports numpy, which took REFERENCE_CHILD_S there.
KERNEL_RUNS = 20
REFERENCE_KERNEL_S = 0.056
REFERENCE_CHILD = [sys.executable, "-c", "import numpy"]
REFERENCE_CHILD_S = 0.12
COUNTED_CALLS = ["satellite.satellite_state_at", "satellite.deterministic_correction_at", "bfo_model.predict_bfo"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks the inputs for the benchmark's own self-check")
    p.add_argument("--setup-only", type=Path, metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def unit_of(name: str) -> str:
    if "_us" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct") or name.startswith("share."):
        return "%"
    return "count"


def tail(values):
    """Highest percentile with at least 10 samples beyond it, with that
    percentile; the maximum when that percentile would not reach p50."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fastest_decile(values) -> float:
    return sorted(values)[len(values) // 10]


def timed_child(cmd) -> float:
    start = perf_counter()
    # Captured pipes make the wait end at the child's exit; a bare wait
    # with a timeout polls in steps of up to 50 ms.
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} failed: {proc.stderr.strip()[-2000:]}")
    return wall


def measure_setup(args, workdir: Path):
    """Set-up time: the median, over the set-up children, of each child's
    wall over its reference child's, times REFERENCE_CHILD_S; and the raw
    median wall."""
    walls, ratios = [], []
    for rep in range(SETUP_REPS[args.size]):
        reference = timed_child(REFERENCE_CHILD)
        target = workdir / f"setup{rep}"
        target.mkdir()
        walls.append(timed_child([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                                  "--seed", str(args.seed), "--size", args.size, "--setup-only", str(target)]))
        ratios.append(walls[-1] / reference)
        shutil.rmtree(target)
    return statistics.median(ratios) * REFERENCE_CHILD_S, statistics.median(walls)


def speed_kernel() -> float:
    """Fixed pure-Python work in bfokit's own mix: tuples, float math,
    ``repr`` and a dict. Its time tracks how fast the machine runs now."""
    items, acc = [], 0.0
    for i in range(8000):
        x = (i * 0.37, i * 1.1, math.sin(i * 0.01))
        items.append(x)
        acc += math.sqrt(x[0] * x[0] + x[1] * x[1])
    text = ",".join(repr(v[2]) for v in items[::10])
    table = dict(enumerate(items))
    return acc + len(text) + len(table)


def kernel_time() -> float:
    """Wall of KERNEL_RUNS speed kernels in a row: long enough to see the
    machine's average speed over a while, not its best instant."""
    start = perf_counter()
    for _ in range(KERNEL_RUNS):
        speed_kernel()
    return perf_counter() - start


def reference_for(wl):
    """The reference work paired with each request, and its time on the
    baseline machine in a quiet period: a fresh interpreter for a cold CLI
    call, the speed kernel for an in-process request."""
    if wl.name == "cold_cli":
        return (lambda: timed_child(REFERENCE_CHILD)), REFERENCE_CHILD_S
    return kernel_time, REFERENCE_KERNEL_S


def run_round(wl, traced: bool, tracer=None, reference=None):
    """One closed-loop round; an exception is a failed request. With a
    ``reference``, it runs right after each request, before the check, and
    its time goes into the request's ``reference_s``."""
    import workloads

    outs = []
    for kind, call in wl.round():
        if tracer is not None:
            tracer.instrument()
        try:
            out = call(traced)
        except Exception as e:  # the loop must go on and count the failure
            out = workloads.Outcome(kind, float("nan"), 0, [f"{kind}: {e!r}"])
        finally:
            if tracer is not None:
                tracer.restore()
        if reference is not None:
            out.reference_s = reference()
        if out.check is not None:
            try:
                out.check(out.failures)
            except Exception as e:  # a check that cannot run is a failed check
                out.failures.append(f"{kind}: check raised {e!r}")
            out.check = None  # let the request's outputs go
        outs.append(out)
    return outs


def run_untraced(wl, args, setup):
    reference, reference_s = reference_for(wl)
    outs = []
    harness_kb = peak_rss_kb()
    start = perf_counter()
    while True:
        outs += run_round(wl, False, reference=reference)
        if perf_counter() - start >= args.seconds:
            break
    ok = [o for o in outs if not o.failures]
    walls = sorted(o.wall_s for o in ok) or [float("nan")]
    by_kind = {}
    for o in ok:
        by_kind.setdefault(o.kind, []).append(o)
    # Other tenants of the machine add delays that come and go, within a run
    # and for minutes at a time. The fastest decile drops the first; the
    # fastest decile of the reference work, timed the same way, scales out
    # the second.
    reference_p10 = fastest_decile([o.reference_s for o in outs])
    raw_fast = sum(fastest_decile([o.wall_s for o in hits]) for hits in by_kind.values()) if ok else float("nan")
    fast = raw_fast * reference_s / reference_p10
    # items_per_s instead scales each request by the reference work run
    # right after it, which tracks the machine's speed at that moment, and
    # takes the median request.
    paired = sum(statistics.median([o.wall_s * reference_s / o.reference_s for o in hits])
                 for hits in by_kind.values())
    items = sum(statistics.median(o.items for o in hits) for hits in by_kind.values())
    # A cold CLI call runs in its own interpreter, so its peak is its own.
    # An in-process request shares the harness's high-water mark, which
    # only grows, so only the first reading, taken before any check ran,
    # is free of the checks.
    peak_kb = max(o.rss_kb for o in outs) if wl.name == "cold_cli" else outs[0].rss_kb
    setup_s, raw_setup_s = setup
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_p10_s": (fast, "s"),
        "items_per_s": (items / paired if ok else float("nan"), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    tail_s, pct = tail(walls)
    notes = [
        f"requests {len(outs)} ({len(ok)} ok)",
        f"{'raw_setup_s':52s} {raw_setup_s:>16.6g} s",
        f"{'raw_wall_p10_s':52s} {raw_fast:>16.6g} s",
        f"{'reference_p10_s':52s} {reference_p10:>16.6g} s (baseline {reference_s})",
        f"{'wall_median_s':52s} {statistics.median(walls):>16.6g} s",
        f"{'wall_tail_s':52s} {tail_s:>16.6g} s (p{pct:.1f} of {len(walls)} walls)",
        f"{'items_per_s_mean':52s} {sum(o.items for o in ok) / sum(walls) if ok else float('nan'):>16.6g} 1/s",
        f"{'harness_rss_mb':52s} {harness_kb / 1024.0:>16.6g} MB (before the first request)",
    ]
    return outs, metrics, notes


def run_traced(wl, args):
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(run_round(wl, False))
        traced.append(run_round(wl, True, tracer))
        if perf_counter() - start >= args.seconds:
            break
    outs = [o for r in untraced + traced for o in r]

    cli_rounds = traced if wl.name == "cold_cli" else []
    if not cli_rounds:
        ctx = workloads.Context(ROOT, wl.ctx.workdir / "cli_probe", args.seed, args.size)
        ctx.workdir.mkdir()
        cold = workloads.ColdCli(ctx)
        cold.setup()
        cold.prepare_checks()
        cli_rounds = [run_round(cold, True)]
        outs += cli_rounds[0]

    m = {}
    for r in traced:
        for o in r:
            if o.spans:
                tracer.merge(o.spans)
    round_wall = lambda r: sum(o.wall_s for o in r)  # noqa: E731
    traced_ns = sum(round_wall(r) for r in traced) * 1e9
    m["trace.overhead_pct"] = 100.0 * (statistics.median(map(round_wall, traced))
                                       / statistics.median(map(round_wall, untraced)) - 1.0)
    by_module = tracer.self_ns_by_module()
    for mod in MODULES:
        m[f"share.{mod}"] = 100.0 * by_module.get(mod, 0) / traced_ns
    m["share.other"] = 100.0 - sum(m[f"share.{mod}"] for mod in MODULES)
    for name in COUNTED_CALLS:
        m[f"{name}_calls"] = tracer.calls(name) / len(traced)
    m["inputs.items_per_round"] = statistics.median(sum(o.items for o in r) for r in traced)
    for kind in workloads.SUBCOMMANDS:
        hits = [o for r in cli_rounds for o in r if o.kind == kind]
        m[f"cli.{kind}_median_s"] = statistics.median(o.wall_s for o in hits)
        m[f"cli.{kind}_self_us"] = statistics.median(
            [o.spans["cli.main"][2] / 1e3 for o in hits if o.spans] or [float("nan")])
    m.update(workloads.probe(wl.probe_inputs(), wl.ctx.workdir, args.seed))
    m.update(workloads.import_times(ROOT))

    notes = [f"{'span':48s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s}"]
    for name, (calls, total, own) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][2]):
        if calls:
            notes.append(f"{name:48s} {calls:9d} {total / 1e6:11.3f} {own / 1e6:11.3f}")
    notes.append(f"traced rounds {len(traced)}, untraced rounds {len(untraced)}")
    return outs, {k: (v, unit_of(k)) for k, v in m.items()}, notes


def run_all(args) -> int:
    results, code = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bfokit" / "__init__.py").is_file():
        print(f"bench: no bfokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    import workloads

    if args.setup_only:
        ctx = workloads.Context(ROOT, args.setup_only, args.seed, args.size)
        workloads.WORKLOADS[args.workload](ctx).setup()
        return 0
    if args.workload == "cold_cli" or args.trace:
        golden = ROOT / workloads.GOLDEN_DIR
        missing = [n for n in workloads.GOLDEN_FILES if not (golden / n).is_file()]
        if missing:
            print(f"bench: golden tables missing from {golden}: {missing}", file=sys.stderr)
            return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = workloads.Context(ROOT, workdir / "run", args.seed, args.size)
        ctx.workdir.mkdir()
        wl = workloads.WORKLOADS[args.workload](ctx)
        wl.setup()
        wl.prepare_checks()
        if args.trace:
            outs, metrics, notes = run_traced(wl, args)
        else:
            outs, metrics, notes = run_untraced(wl, args, measure_setup(args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    failed = [o for o in outs if o.failures]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for line in notes:
        print(line)
    for o in failed[:10]:
        print(f"FAILED {o.kind}: {'; '.join(o.failures)[:500]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    print(f"failed_frac {len(failed) / len(outs):.6g} ({len(failed)} of {len(outs)})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
