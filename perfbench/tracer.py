"""Span tracing around calls into bfokit's modules, from outside the package.

``Tracer.instrument()`` replaces every public function of the layer
modules (and ``cli.main``) with a wrapper that records a span, in every
bfokit namespace that holds a reference to it, so calls between modules
are traced too. Spans are aggregated in memory per name: call count,
total time and self time (total minus the time covered by child spans).
``restore()`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

LAYERS = ["config", "ingest", "geodesy", "satellite", "bfo_model", "track_sweep",
          "stats", "trend", "warmup", "descent"]


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._stack: list[int] = []  # child time accumulated by each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        acc = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def add(self, name: str, elapsed_ns: int) -> None:
        """Record one untraced top-level span, such as an import."""
        acc = self.spans.setdefault(name, [0, 0, 0])
        acc[0] += 1
        acc[1] += elapsed_ns
        acc[2] += elapsed_ns

    def instrument(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bfokit.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        cli = importlib.import_module("bfokit.cli")
        wrappers[id(cli.main)] = (cli.main, self.wrap("cli.main", cli.main))
        for name, mod in list(sys.modules.items()):
            if name != "bfokit" and not name.startswith("bfokit."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def merge(self, spans: dict) -> None:
        for name, (calls, total, own) in spans.items():
            acc = self.spans.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def self_ns_by_module(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, (_, _, own) in self.spans.items():
            module = name.split(".")[0]
            out[module] = out.get(module, 0) + own
        return out
