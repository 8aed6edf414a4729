"""In-memory span tracer that wraps liqlab's public layer functions from outside.

The tracer patches each layer function under every ``liqlab`` module
namespace that holds it by name (``liqlab.core.position_values`` is also
``liqlab.fixed_spread.position_values``, ``liqlab.sim.position_values`` and
so on), so calls are seen whichever module makes them. Spans stay in memory
until the run ends and are only written out on request. Nothing under
``src/`` is changed; ``uninstall`` restores every patched name.

Spans are single-threaded: install the tracer only around code that runs
in one thread.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# (span name, defining module, attribute path)
LAYERS = (
    ("cli.main", "liqlab.cli", "main"),
    ("sim.load_scenario", "liqlab.sim", "load_scenario"),
    ("sim.validate_scenario", "liqlab.sim", "validate_scenario"),
    ("sim.run_scenario", "liqlab.sim", "run_scenario"),
    ("sim.to_csv", "liqlab.sim", "EventLog.to_csv"),
    ("core.position_values", "liqlab.core", "position_values"),
    ("fixed_spread.execute_liquidation_call", "liqlab.fixed_spread", "execute_liquidation_call"),
    ("strategy.optimal_repays", "liqlab.strategy", "optimal_repays"),
    ("auction.start_auction", "liqlab.auction", "start_auction"),
    ("auction.place_bid", "liqlab.auction", "place_bid"),
    ("auction.check_termination", "liqlab.auction", "check_termination"),
    ("auction.apply_termination", "liqlab.auction", "apply_termination"),
    ("auction.finalize", "liqlab.auction", "finalize"),
    ("risk.sensitivity", "liqlab.risk", "sensitivity"),
    ("risk.classify_bad_debt", "liqlab.risk", "classify_bad_debt"),
)


class LayerStats:
    """Per-layer aggregates of one traced operation."""

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_ns = 0
        self.durations_ns = []

    def quantile_ns(self, q: float) -> float:
        """Nearest-rank quantile of the span durations; 0 without spans."""
        if not self.durations_ns:
            return 0.0
        ordered = sorted(self.durations_ns)
        return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


class Tracer:
    """Records (name, start, end, parent, error) spans around layer calls."""

    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        self.spans = []  # (name index, start ns, end ns, parent span index or -1, error type or "")
        self._stack = [-1]
        self._patches = []

    def _wrap(self, name_index, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            error = ""
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, error)

        return traced

    def install(self) -> None:
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "liqlab" or name.startswith("liqlab."))
        ]
        for index, (_, module_name, attr_path) in enumerate(LAYERS):
            owner = sys.modules[module_name]
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, original)
            if outer:  # a method: patch the class attribute only
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def clear(self) -> None:
        self.spans.clear()

    def summarize(self) -> dict:
        """Per-layer calls, errors, self time and durations of the spans held.

        Spans nest strictly in one thread, so the time a span's children
        cover is the sum of their durations.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {name: LayerStats() for name in self.names}
        for index, (name_index, start, end, _, error) in enumerate(self.spans):
            layer = stats[self.names[name_index]]
            layer.calls += 1
            layer.errors += bool(error)
            layer.self_ns += end - start - child_ns[index]
            layer.durations_ns.append(end - start)
        return stats

    def write(self, path: Path) -> None:
        """Write the spans as CSV: name, start_ns, end_ns, parent, error."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start_ns,end_ns,parent,error\n")
            for index, (name_index, start, end, parent, error) in enumerate(self.spans):
                handle.write(f"{index},{self.names[name_index]},{start},{end},{parent},{error}\n")
