"""liqlab benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root; liqlab is imported from ``src/`` of the same
checkout and from nowhere else:

    python3 bench/run.py --workload crash-cascade --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``crash-cascade``: ETH re-priced every block on a steep decline, so
  fixed-spread calls, the two-step strategy and ``Dec`` arithmetic are hot
  and every valuation sees new prices; then ``sensitivity`` and
  ``bad-debt-scan`` on the same book, the risk module's share.
* ``calm-market``: a long horizon with sparse price moves, so valuing
  unchanged positions dominates; also auctions, refusals and the
  one-liquidation-per-block path. No risk scan.

With ``--trace 0`` the run measures, with no tracing and for ``--seconds``
seconds, the median wall time of the user path through ``liqlab.cli.main``
from scenario file to output file (``e2e_s``) and, in short bursts before
each of those operations, the median of ``sim.load_scenario`` on the
workload file (``setup_s``). Both are rescaled by the speed of the host at
the moment each call ran (see ``speed.py``), so they read as seconds on a
fixed reference host rather than moving with other tenants' load.
With ``--trace 1`` it reports per-layer metrics instead: span counts and
self times from a traced run, ``Dec`` microbenchmarks, exact ``Dec`` call
counts from a cProfile pass, and the ``simulate --jobs 2`` speed-up. Spans
of the last traced operation are written to ``bench/out/`` when the run ends.

Every operation's output is checked (see ``checks.py``). The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Everything runs in this one process and at most two threads.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import Tracer
from speed import Probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": ("s", "lower"),
    "e2e_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "success_ratio": ("ratio", "higher"),
}
PER_LAYER = {
    "fixedpoint.mul_ns": ("ns", "lower"),
    "fixedpoint.add_ns": ("ns", "lower"),
    "fixedpoint.div_ns": ("ns", "lower"),
    "fixedpoint.mul_div_ns": ("ns", "lower"),
    "fixedpoint.parse_ns": ("ns", "lower"),
    "fixedpoint.str_ns": ("ns", "lower"),
    "fixedpoint.mul.calls": ("count", "lower"),
    "fixedpoint.from_raw.calls": ("count", "lower"),
    "fixedpoint.coerce.calls": ("count", "lower"),
    "core.position_values.calls": ("count", "lower"),
    "core.position_values.self_s": ("s", "lower"),
    "core.position_values.p50_us": ("us", "lower"),
    "core.position_values.p99_us": ("us", "lower"),
    "fixed_spread.execute_liquidation_call.calls": ("count", "lower"),
    "fixed_spread.execute_liquidation_call.refused": ("count", "lower"),
    "fixed_spread.execute_liquidation_call.self_s": ("s", "lower"),
    "fixed_spread.execute_liquidation_call.p50_us": ("us", "lower"),
    "sim.land_ratio": ("ratio", "higher"),
    "strategy.optimal_repays.calls": ("count", "lower"),
    "strategy.optimal_repays.self_s": ("s", "lower"),
    "auction.calls": ("count", "lower"),
    "auction.self_s": ("s", "lower"),
    "auction.settle_ratio": ("ratio", "higher"),
    "risk.sensitivity.calls": ("count", "lower"),
    "risk.sensitivity.self_s": ("s", "lower"),
    "risk.sensitivity.p50_ms": ("ms", "lower"),
    "risk.classify_bad_debt.calls": ("count", "lower"),
    "risk.classify_bad_debt.self_s": ("s", "lower"),
    "sim.validate_scenario.calls": ("count", "lower"),
    "sim.validate_scenario.self_s": ("s", "lower"),
    "sim.run_scenario.self_s": ("s", "lower"),
    "sim.to_csv.self_s": ("s", "lower"),
    "sim.events": ("count", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "cli.simulate.jobs2_speedup": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
AUCTION_SPANS = (
    "auction.start_auction",
    "auction.place_bid",
    "auction.check_termination",
    "auction.apply_termination",
    "auction.finalize",
)
# load_scenario is timed in bursts of this many seconds before every timed
# operation, so setup_s and e2e_s sample the same stretches of machine time
SETUP_BURST_S = 0.1


def import_liqlab():
    """Import liqlab from this checkout's ``src/``; exit without it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import liqlab
        import liqlab.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import liqlab from {src}: {exc}")
    if src.resolve() not in Path(liqlab.__file__).resolve().parents:
        raise SystemExit(f"bench: liqlab was imported from {liqlab.__file__}, not {src}")
    return liqlab


class Runner:
    """Runs one workload's operations and counts attempts and failures."""

    def __init__(self, liqlab, workload, workdir: Path, seed, size: str):
        self.liqlab = liqlab
        self.workload = workload
        self.seed = seed
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.events = 0
        self.fixed_spread_events = 0
        self.scenario_path = workdir / "scenario.json"
        self.scenario_path.write_text(json.dumps(workload.scenario), encoding="utf-8")
        scenario = str(self.scenario_path)
        self.outputs = {"events.csv": workdir / "events.csv"}
        self.commands = [["simulate", "--scenario", scenario, "--out", str(self.outputs["events.csv"])]]
        if workload.target:
            # the risk scan of the same book
            self.outputs["sensitivity.csv"] = workdir / "sensitivity.csv"
            self.outputs["bad_debt.csv"] = workdir / "bad_debt.csv"
            self.commands += [
                ["sensitivity", "--scenario", scenario, "--asset", workload.target,
                 "--steps", str(workload.shape.steps), "--out", str(self.outputs["sensitivity.csv"])],
                ["bad-debt-scan", "--scenario", scenario, "--fee", workload.fee,
                 "--block", str(workload.scan_block), "--out", str(self.outputs["bad_debt.csv"])],
            ]

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"bench: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def operation(self):
        """One end-to-end user path; returns (wall seconds, output bytes by name)."""
        for path in self.outputs.values():
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        for argv in self.commands:
            code = self.liqlab.cli.main(argv)
            if code != 0:
                raise checks.CheckFailed(f"liqlab {argv[0]} exited with {code}")
        elapsed = time.perf_counter() - start
        return elapsed, {name: path.read_bytes() for name, path in self.outputs.items()}

    def checked_operation(self):
        """An operation whose output must equal the reference; None when it failed."""
        self.attempted += 1
        try:
            elapsed, outputs = self.operation()
            if checks.digest(outputs) != self.reference:
                raise checks.CheckFailed("output differs from the reference run")
        except Exception as exc:  # every failure is counted, and the run goes on
            self.fail("operation", exc)
            return None
        return elapsed

    def load_burst(self, probe: Probe, before: float, times: list) -> float:
        """Append rescaled wall times of ``sim.load_scenario`` on the workload
        file, each taken between two probes, for about ``SETUP_BURST_S``
        seconds; return the last probe time."""
        deadline = time.perf_counter() + SETUP_BURST_S
        while time.perf_counter() < deadline:
            self.attempted += 1
            start = time.perf_counter()
            try:
                self.liqlab.sim.load_scenario(str(self.scenario_path))
            except Exception as exc:  # counted; the operations will fail too
                self.fail("load_scenario", exc)
                return before
            elapsed = time.perf_counter() - start
            after = probe.probe()
            times.append(probe.scaled(elapsed, before, after))
            before = after
        return before

    def reference_run(self) -> None:
        """Run once, deep-check the output and keep its digest as the reference."""
        self.attempted += 1
        _, outputs = self.operation()
        self.reference = checks.digest(outputs)
        try:
            self.events, self.fixed_spread_events = checks.check_event_log(
                self.liqlab, self.scenario_path, self.workload.scenario, outputs["events.csv"]
            )
            if self.workload.target:
                checks.check_risk_outputs(
                    self.liqlab, self.scenario_path, self.workload,
                    outputs["sensitivity.csv"], outputs["bad_debt.csv"], self.seed,
                )
            recorded = checks.RECORDED_SHA256.get((self.workload.name, self.size))
            if self.seed == 0 and recorded != self.reference:
                raise checks.CheckFailed(
                    f"seed-0 output digest {self.reference} != recorded {recorded}"
                )
        except checks.CheckFailed as exc:
            self.fail("reference output check", exc)

    def timed(self, seconds: float, min_ops: int) -> list:
        """Wall times of checked operations run for ``seconds`` (at least ``min_ops``)."""
        times = []
        attempts = 0
        deadline = time.perf_counter() + seconds
        while attempts < min_ops or time.perf_counter() < deadline:
            attempts += 1
            elapsed = self.checked_operation()
            if elapsed is not None:
                times.append(elapsed)
        return times

    def timed_scaled(self, seconds: float, min_ops: int, probe: Probe):
        """Rescaled wall times of load bursts and of checked operations, run in
        turn for ``seconds`` (at least ``min_ops`` operations), every timed
        call between two probes; also the raw operation wall times."""
        setup_times, times, raw = [], [], []
        attempts = 0
        before = probe.probe()
        deadline = time.perf_counter() + seconds
        while attempts < min_ops or time.perf_counter() < deadline:
            attempts += 1
            before = self.load_burst(probe, before, setup_times)
            elapsed = self.checked_operation()
            after = probe.probe()
            if elapsed is not None:
                times.append(probe.scaled(elapsed, before, after))
                raw.append(elapsed)
            before = after
        return setup_times, times, raw


def end_to_end_metrics(runner: Runner, seconds: float) -> dict:
    runner.reference_run()
    setup_times, times, raw = runner.timed_scaled(seconds, min_ops=3, probe=Probe())
    if not times or not setup_times:
        raise SystemExit("bench: every timed operation failed")
    setup_s = statistics.median(setup_times)
    e2e_s = statistics.median(times)
    print(f"bench: rescaled e2e_s of {len(times)} timed operations: {' '.join(f'{t:.4f}' for t in times)}; "
          f"raw wall median {statistics.median(raw):.4f} s; setup_s median of {len(setup_times)} loads",
          file=sys.stderr)
    return {
        "setup_s": setup_s,
        "e2e_s": e2e_s,
        "items_per_s": runner.workload.items / e2e_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


# -- traced run ----------------------------------------------------------------


def _ratio(numerator, denominator) -> float:
    """numerator / denominator, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def traced_layers(runner: Runner, tracer: Tracer, seconds: float):
    """Per-operation layer stats of traced operations, and their wall times.

    The tracer keeps the spans of the last operation."""
    summaries, times = [], []
    attempts = 0
    deadline = time.perf_counter() + seconds
    while attempts < 2 or time.perf_counter() < deadline:
        attempts += 1
        tracer.clear()
        with tracer:
            elapsed = runner.checked_operation()
        if elapsed is not None:
            summaries.append(tracer.summarize())
            times.append(elapsed)
    return summaries, times


def span_metrics(runner: Runner, summaries: list) -> dict:
    first = summaries[0]
    for other in summaries[1:]:
        if any(other[name].calls != first[name].calls for name in first):
            runner.fail("traced operation", checks.CheckFailed("span counts differ between identical runs"))
            break

    def median(fn):
        return statistics.median(fn(summary) for summary in summaries)

    def self_s(*names):
        return median(lambda s: sum(s[name].self_ns for name in names) / 1e9)

    pv, call = first["core.position_values"], first["fixed_spread.execute_liquidation_call"]
    return {
        "core.position_values.calls": pv.calls,
        "core.position_values.self_s": self_s("core.position_values"),
        "core.position_values.p50_us": median(lambda s: s["core.position_values"].quantile_ns(0.5) / 1e3),
        "core.position_values.p99_us": median(lambda s: s["core.position_values"].quantile_ns(0.99) / 1e3),
        "fixed_spread.execute_liquidation_call.calls": call.calls,
        "fixed_spread.execute_liquidation_call.refused": call.errors,
        "fixed_spread.execute_liquidation_call.self_s": self_s("fixed_spread.execute_liquidation_call"),
        "fixed_spread.execute_liquidation_call.p50_us": median(
            lambda s: s["fixed_spread.execute_liquidation_call"].quantile_ns(0.5) / 1e3
        ),
        "sim.land_ratio": _ratio(runner.fixed_spread_events, call.calls),
        "strategy.optimal_repays.calls": first["strategy.optimal_repays"].calls,
        "strategy.optimal_repays.self_s": self_s("strategy.optimal_repays"),
        "auction.calls": sum(first[name].calls for name in AUCTION_SPANS),
        "auction.self_s": self_s(*AUCTION_SPANS),
        "auction.settle_ratio": _ratio(first["auction.finalize"].calls, first["auction.start_auction"].calls),
        "risk.sensitivity.calls": first["risk.sensitivity"].calls,
        "risk.sensitivity.self_s": self_s("risk.sensitivity"),
        "risk.sensitivity.p50_ms": median(lambda s: s["risk.sensitivity"].quantile_ns(0.5) / 1e6),
        "risk.classify_bad_debt.calls": first["risk.classify_bad_debt"].calls,
        "risk.classify_bad_debt.self_s": self_s("risk.classify_bad_debt"),
        "sim.validate_scenario.calls": first["sim.validate_scenario"].calls,
        "sim.validate_scenario.self_s": self_s("sim.validate_scenario"),
        "sim.run_scenario.self_s": self_s("sim.run_scenario"),
        "sim.to_csv.self_s": self_s("sim.to_csv"),
        "sim.events": runner.events,
        "cli.main.self_s": self_s("cli.main"),
    }


def dec_call_counts(runner: Runner) -> dict:
    """Exact ``Dec`` call counts of one operation under cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        elapsed = runner.checked_operation()
    finally:
        profiler.disable()
    counts = {"__mul__": 0, "from_raw": 0, "_coerce": 0}
    if elapsed is not None:
        fixedpoint_file = Path(runner.liqlab.fixedpoint.__file__).resolve()
        for (filename, _, function), (_, calls, *_) in pstats.Stats(profiler).stats.items():
            if function in counts and Path(filename).resolve() == fixedpoint_file:
                counts[function] += calls
    return {
        "fixedpoint.mul.calls": counts["__mul__"],
        "fixedpoint.from_raw.calls": counts["from_raw"],
        "fixedpoint.coerce.calls": counts["_coerce"],
    }


def _scenario_decimals(scenario: dict):
    """Amount strings and price strings of a generated scenario."""
    amounts = [
        value
        for position in scenario["positions"]
        for side in ("collateral", "debt")
        for value in position[side].values()
    ]
    prices = [value for entry in scenario["price_path"].values() for value in entry.values()]
    return amounts, prices


def _per_op_ns(loop, operands, repeats: int = 11) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        loop(operands)
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples) / len(operands)


def _mul(pairs):
    for a, b in pairs:
        a * b


def _add(pairs):
    for a, b in pairs:
        a + b


def _div(pairs):
    for a, b in pairs:
        a / b


def fixedpoint_metrics(liqlab, scenario: dict, seed, count: int = 2000) -> dict:
    """Per-op ``Dec`` timings on operands drawn from the workload's own numbers."""
    Dec = liqlab.Dec
    rng = random.Random(f"fixedpoint:{seed}")
    amount_text, price_text = _scenario_decimals(scenario)
    amounts = [Dec(text) for text in rng.choices(amount_text, k=count)]
    prices = [Dec(text) for text in rng.choices(price_text, k=count)]
    values = [a * p for a, p in zip(amounts, prices)]
    shuffled = rng.sample(values, len(values))
    texts = rng.choices(amount_text + price_text, k=count)
    mul_div = Dec.mul_div

    def _mul_div(triples):
        for a, b, c in triples:
            mul_div(a, b, c)

    def _parse(strings):
        for text in strings:
            Dec(text)

    def _str(decs):
        for value in decs:
            str(value)

    return {
        "fixedpoint.mul_ns": _per_op_ns(_mul, list(zip(amounts, prices))),
        "fixedpoint.add_ns": _per_op_ns(_add, list(zip(values, shuffled))),
        "fixedpoint.div_ns": _per_op_ns(_div, list(zip(values, prices))),
        "fixedpoint.mul_div_ns": _per_op_ns(_mul_div, list(zip(values, amounts, shuffled))),
        "fixedpoint.parse_ns": _per_op_ns(_parse, texts),
        "fixedpoint.str_ns": _per_op_ns(_str, values),
    }


def jobs2_speedup(runner: Runner, workdir: Path) -> float:
    """Wall time of ``simulate --jobs 1`` over ``--jobs 2`` on two crash-cascade
    shards; every run must write the same two files."""
    shard_dir = workdir / "shards"
    shard_dir.mkdir()
    scenarios = []
    for k in range(2):
        shard = workloads.crash_cascade(f"{runner.seed}/shard{k}", runner.size, shard=True)
        path = shard_dir / f"shard{k}.json"
        path.write_text(json.dumps(shard.scenario), encoding="utf-8")
        scenarios += ["--scenario", str(path)]
    walls = {1: [], 2: []}
    reference = None
    for jobs in (1, 2, 2, 1):
        out_dir = shard_dir / f"jobs{jobs}"
        shutil.rmtree(out_dir, ignore_errors=True)
        runner.attempted += 1
        try:
            start = time.perf_counter()
            code = runner.liqlab.cli.main(["simulate", *scenarios, "--out-dir", str(out_dir), "--jobs", str(jobs)])
            walls[jobs].append(time.perf_counter() - start)
            if code != 0:
                raise checks.CheckFailed(f"simulate --jobs {jobs} exited with {code}")
            produced = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            reference = reference or produced
            if len(produced) != 2 or produced != reference:
                raise checks.CheckFailed(f"simulate --jobs {jobs} wrote different files")
        except Exception as exc:  # counted as a failed operation
            runner.fail("simulate --jobs", exc)
    if not (walls[1] and walls[2]):
        return 0.0
    return statistics.median(walls[1]) / statistics.median(walls[2])


def per_layer_metrics(runner: Runner, workdir: Path, seconds: float) -> dict:
    runner.reference_run()
    untraced = runner.timed(seconds / 2, min_ops=2)
    tracer = Tracer()
    summaries, traced = traced_layers(runner, tracer, seconds / 2)
    metrics = {}
    if summaries:
        metrics.update(span_metrics(runner, summaries))
    metrics.update(dec_call_counts(runner))
    metrics.update(fixedpoint_metrics(runner.liqlab, runner.workload.scenario, runner.seed))
    metrics["cli.simulate.jobs2_speedup"] = jobs2_speedup(runner, workdir)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) if traced and untraced else 0.0
    )
    tracer.write(OUT / f"spans-{runner.workload.name}-seed{runner.seed}.csv")
    return metrics


# -- entry point ------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes exist only for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    liqlab = import_liqlab()
    workload = workloads.GENERATORS[args.workload](args.seed, args.size)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(liqlab, workload, workdir, args.seed, args.size)
        if args.trace:
            values, spec = per_layer_metrics(runner, workdir, args.seconds), PER_LAYER
        else:
            values, spec = end_to_end_metrics(runner, args.seconds), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, (unit, _) in spec.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"error_rate {runner.failed / runner.attempted} ({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
