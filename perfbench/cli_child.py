"""Run one bfokit CLI call in this fresh interpreter and report on it.

Usage: python3 perfbench/cli_child.py REPORT_JSON TRACE ARGV...

Runs ``bfokit.cli.main(ARGV)``, writes ``{"rss_kb": ..., "spans": ...}``
to REPORT_JSON and exits with the CLI's exit code. ``rss_kb`` is this
interpreter's peak RSS. With TRACE ``1`` it also times ``import
bfokit.cli`` as the span ``import.bfokit`` and instruments bfokit (see
tracer.py); ``spans`` holds the aggregated spans. PYTHONPATH must reach
bfokit's sources.
"""

import json
import sys
from pathlib import Path
from time import perf_counter_ns


def peak_rss_kb() -> int:
    """This process's RSS high-water mark (VmHWM), in KiB. Unlike
    ``ru_maxrss``, it leaves out the memory of the process that started
    this one, which Linux carries over into a child across fork and exec."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = perf_counter_ns()
    import bfokit.cli

    imported = perf_counter_ns() - start
    spans = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.add("import.bfokit", imported)
        tracer.instrument()
        spans = tracer.spans
    code = bfokit.cli.main(argv)
    Path(report_path).write_text(json.dumps({"rss_kb": peak_rss_kb(), "spans": spans}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
