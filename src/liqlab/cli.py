"""Command-line front end: every engine as a batch command with file I/O.

Output goes to stdout as CSV by default; ``--json`` switches the format and
``--out`` redirects to a file. A CSV field that holds a comma, a double
quote or a line break is quoted, as Python's ``csv`` reads it back
(``sim._csv``). All numbers are serialized as decimal
strings, and outputs carry no timestamps unless ``--stamp`` is given, so
identical inputs produce byte-identical outputs. One writer, ``_write``,
holds that rule for every output: the ``--stamp`` line first, then the
text to ``--out``, to each scenario's own file under ``simulate
--out-dir``, or else to stdout. Exit codes: 0 success,
1 validation error, 2 I/O error (an unreadable file, including one that is
not UTF-8 and JSON that is malformed or nested too deeply to decode; the
message names the file) or running out of memory.
Failures are reported in one place: a command handler raises, and ``main``
alone writes the one ``error: …`` line on stderr and picks the exit code.
A handler that returns without raising exits 0; only ``validate-params``
returns a code, since its verdict is its exit code.
Only argparse's flag errors print their own line, after the usage line;
``validate-params``' ``invalid: …`` line is its verdict, not a failure.
Diagnostics go to stderr only; set LIQLAB_LOG={error|info|debug} to control
verbosity; at debug, ``simulate`` also logs the wall time of each
scenario's load, run and serialize phases.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

from .auction import AuctionConfig, apply_termination, finalize, place_bid, start_auction
from .core import Asset, PositionValues, RiskParams
from .errors import (
    InvalidScenarioError,
    LiqlabError,
    NestingTooDeepError,
    ZeroSecondLiquidationError,
)
from .fixedpoint import Dec, ZERO
from .risk import classify_bad_debt, classify_price_path, sensitivity_curve
from .sim import _csv, _read_json, _scripted_bid, _shaped, load_scenario, run_scenario
from .strategy import mitigation_threshold, optimal_repays, strategy_profits

log = logging.getLogger("liqlab")


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors as validation failures (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dec(text: str) -> Dec:
    try:
        return Dec(text)
    except (ValueError, TypeError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


def _write(args, text: str, path=None) -> None:
    """Write ``text`` to ``path``, else to ``--out``, else to stdout, with
    the ``--stamp`` line first when it is asked for."""
    if args.stamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        text = f"# generated {now}\n" + text
    path = path or args.out
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _records_output(args, fields, records) -> None:
    """One row per record: CSV under a header line, or a JSON list of objects."""
    if args.json:
        text = json.dumps([dict(zip(fields, record)) for record in records], indent=2) + "\n"
    else:
        text = _csv(fields, records)
    _write(args, text)


def _kv_output(args, rows) -> None:
    """One field per row: CSV ``field,value`` rows, or one JSON object."""
    if args.json:
        _write(args, json.dumps(dict(rows), indent=2) + "\n")
    else:
        _records_output(args, ("field", "value"), rows)


# -- subcommands ---------------------------------------------------------------


def _cmd_strategy(args) -> None:
    params = RiskParams(lt={}, ls=args.ls, cf=args.cf)
    plan = optimal_repays(args.c, args.d, args.lt, params)
    profits = strategy_profits(args.c, args.d, args.lt, params)
    rows = [
        ("repay1", str(plan.repay1)),
        ("repay2", str(plan.repay2)),
        ("clamped", "true" if plan.clamped else "false"),
        ("profit_optimal", str(profits.profit_optimal)),
        ("profit_close_factor", str(profits.profit_close_factor)),
        ("delta_r", str(profits.delta_r)),
    ]
    try:
        mitigation = mitigation_threshold(profits, plan, params)
    except ZeroSecondLiquidationError:
        pass  # no second-call profit, so no threshold to report
    else:
        rows += [
            ("profit_o1", str(mitigation.profit_o1)),
            ("profit_o2", str(mitigation.profit_o2)),
            ("alpha_threshold", str(mitigation.alpha_threshold)),
        ]
    _kv_output(args, rows)


def _parse_lt_entries(entries):
    lt = {}
    for i, entry in enumerate(entries):
        if "=" in entry:
            symbol, _, value = entry.partition("=")
        else:
            symbol, value = f"asset{i}", entry
        asset = Asset(symbol=symbol)
        if asset in lt:
            raise ValueError(f"duplicate threshold for asset {symbol}")
        lt[asset] = Dec(value)
    return lt


def _cmd_validate_params(args) -> int:
    """The verdict on the parameters: ``valid`` on stdout and exit 0, or
    ``invalid: <reason>`` on stderr and exit 1. An invalid set is the answer
    asked for, not a failure, so it is printed here rather than raised."""
    try:
        params = RiskParams(lt=_parse_lt_entries(args.lt), ls=args.ls, cf=args.cf)
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print("valid")
    return 0


def _run_one_scenario(path: str, as_json: bool) -> str:
    """The scenario's event log as text; logs each phase's wall time at
    debug level."""
    start = time.perf_counter()
    scenario = load_scenario(path)
    loaded = time.perf_counter()
    logbook = run_scenario(scenario)
    ran = time.perf_counter()
    text = logbook.to_jsonl() if as_json else logbook.to_csv()
    done = time.perf_counter()
    log.info("scenario %s: %d events", path, len(logbook.events))
    log.debug(
        "scenario %s: load_s=%.6f run_s=%.6f serialize_s=%.6f",
        path, loaded - start, ran - loaded, done - ran,
    )
    return text


def _cmd_simulate(args) -> None:
    paths = args.scenario
    if args.out is not None and args.out_dir is not None:
        raise ValueError("--out and --out-dir cannot be used together")
    if len(paths) > 1 and not args.out_dir:
        raise ValueError("multiple scenarios require --out-dir")
    if len(paths) == 1 and not args.out_dir:
        _write(args, _run_one_scenario(paths[0], args.json))
        return
    suffix = ".jsonl" if args.json else ".csv"
    targets = {}  # output file name -> the scenario that writes it
    for path in paths:
        name = Path(path).stem + suffix
        if name in targets:
            raise ValueError(f"scenarios {targets[name]} and {path} would both write {name}")
        targets[name] = path
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with concurrent.futures.ThreadPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
        futures = {
            name: pool.submit(_run_one_scenario, path, args.json)
            for name, path in targets.items()
        }
        for name, future in futures.items():
            _write(args, future.result(), out_dir / name)


def _cmd_sensitivity(args) -> None:
    scenario = load_scenario(args.scenario)
    by_symbol = {asset.symbol: asset for asset in scenario.assets}
    if args.asset not in by_symbol:
        raise ValueError(f"unknown asset {args.asset!r}")
    oracle = scenario.price_path.get(args.block)
    if oracle is None:
        raise ValueError(f"scenario has no block {args.block}")
    points = sensitivity_curve(
        scenario.positions, by_symbol[args.asset], args.steps, oracle, scenario.params
    )
    records = [(str(p.decline_pct), str(p.liquidatable_collateral_usd)) for p in points]
    _records_output(args, ("decline_pct", "lc_usd"), records)


def _cmd_bad_debt_scan(args) -> None:
    scenario = load_scenario(args.scenario)
    oracle = scenario.price_path.get(args.block)
    if oracle is None:
        raise ValueError(f"scenario has no block {args.block}")
    if args.fee < ZERO:  # checked here, since a book with no debt classifies nothing
        raise ValueError(f"fee must be >= 0: {args.fee}")
    records = []
    for position in scenario.positions:
        if not position.debt:
            continue  # positions without debt are not classified
        verdict = classify_bad_debt(position, args.fee, oracle)
        records.append(
            (position.owner, verdict.kind.value, str(verdict.locked_collateral_usd))
        )
    _records_output(args, ("position_id", "class", "locked_usd"), records)


def _cmd_classify_path(args) -> None:
    prices = []
    with open(args.input, "r", encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    prices.append(Dec(text))
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"{args.input}:{lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            exc.reason += f" in {args.input}"
            raise
    category = classify_price_path(prices, args.liquidation_price)
    if args.json:
        text = json.dumps({"category": category.value}) + "\n"
    else:
        text = category.value + "\n"
    _write(args, text)


def _cmd_auction_replay(args) -> None:
    config = AuctionConfig(
        auction_length=args.auction_length,
        bid_duration=args.bid_duration,
        min_increment=args.min_increment,
    )
    # bc = 0: a replay assumes the position was eligible
    auction = start_auction(PositionValues(c=args.c, d=args.d, bc=ZERO), config, now=args.start)
    script = _read_json(args.script)
    if not isinstance(script, list):
        raise ValueError("bid script must be a JSON array")
    for i, entry in enumerate(script):
        # read as the scenario loader reads a script entry
        try:
            bid = _scripted_bid(_shaped(entry, dict, "entry"), ())
        except InvalidScenarioError as exc:
            raise ValueError(f"script[{i}]: {exc.field} {exc.problem}") from exc
        except ValueError as exc:  # an amount <= 0
            raise ValueError(f"script[{i}]: {exc}") from exc
        auction = place_bid(auction, bid)
    finalize_time = args.finalize_time
    if finalize_time is None:
        finalize_time = args.start + args.auction_length
    auction = apply_termination(auction, finalize_time)
    final_c = args.final_c if args.final_c is not None else args.c
    settlement = finalize(auction, PositionValues(c=final_c, d=args.d, bc=ZERO))
    rows = [
        ("terminated", auction.termination_reason.value),
        ("ended_in", settlement.ended_in.value),
        ("winner", settlement.winner),
        ("paid_usd", str(settlement.paid_usd)),
        ("collateral_value_usd", str(settlement.collateral_value_usd)),
        ("borrower_refund_usd", str(settlement.borrower_refund_usd)),
        ("winner_profit_usd", str(settlement.winner_profit_usd)),
    ]
    _kv_output(args, rows)


# -- parser ----------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--out", default=None, help="write output to this file")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sub.add_argument(
        "--stamp", action="store_true", help="prepend a generation timestamp"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``liqlab`` parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = _Parser(prog="liqlab", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run scenario files and write event logs")
    sim.add_argument("--scenario", action="append", required=True, help="scenario JSON file")
    sim.add_argument("--out-dir", default=None, help="output directory for multiple scenarios")
    sim.add_argument("--jobs", type=_positive_int, default=1, help="parallel scenario runs")
    _add_common(sim)
    sim.set_defaults(handler=_cmd_simulate)

    sens = commands.add_parser("sensitivity", help="liquidatable collateral vs price decline")
    sens.add_argument("--scenario", required=True)
    sens.add_argument("--asset", required=True, help="target asset symbol")
    sens.add_argument("--steps", type=int, default=20)
    sens.add_argument("--block", type=int, default=0, help="oracle snapshot block")
    _add_common(sens)
    sens.set_defaults(handler=_cmd_sensitivity)

    strat = commands.add_parser("strategy", help="two-step liquidation plan and profits")
    strat.add_argument("--c", type=_dec, required=True, help="collateral value USD")
    strat.add_argument("--d", type=_dec, required=True, help="debt value USD")
    strat.add_argument("--lt", type=_dec, required=True, help="liquidation threshold")
    strat.add_argument("--ls", type=_dec, required=True, help="liquidation spread")
    strat.add_argument("--cf", type=_dec, required=True, help="close factor")
    _add_common(strat)
    strat.set_defaults(handler=_cmd_strategy)

    replay = commands.add_parser("auction-replay", help="replay a tend-dent bid script")
    replay.add_argument("--c", type=_dec, required=True, help="collateral lot value USD")
    replay.add_argument("--d", type=_dec, required=True, help="debt tab value USD")
    replay.add_argument("--auction-length", type=int, required=True, help="seconds")
    replay.add_argument("--bid-duration", type=int, required=True, help="seconds")
    replay.add_argument("--min-increment", type=_dec, default=AuctionConfig.min_increment)
    replay.add_argument("--start", type=int, default=0, help="auction start time")
    replay.add_argument("--script", required=True, help="bid script JSON file")
    replay.add_argument(
        "--finalize-time", type=int, default=None, help="default: start + auction length"
    )
    replay.add_argument(
        "--final-c", type=_dec, default=None, help="lot value at finalization"
    )
    _add_common(replay)
    replay.set_defaults(handler=_cmd_auction_replay)

    classify = commands.add_parser("classify-path", help="categorize a price path CSV")
    classify.add_argument("--input", required=True, help="file with one price per line")
    classify.add_argument("--liquidation-price", type=_dec, required=True)
    _add_common(classify)
    classify.set_defaults(handler=_cmd_classify_path)

    scan = commands.add_parser("bad-debt-scan", help="classify bad debts in a scenario")
    scan.add_argument("--scenario", required=True)
    scan.add_argument("--fee", type=_dec, required=True, help="closing transaction fee USD")
    scan.add_argument("--block", type=int, default=0)
    _add_common(scan)
    scan.set_defaults(handler=_cmd_bad_debt_scan)

    check = commands.add_parser("validate-params", help="check LT/LS/CF validity")
    check.add_argument(
        "--lt",
        action="append",
        required=True,
        help="threshold, either VALUE or SYMBOL=VALUE (repeatable)",
    )
    check.add_argument("--ls", type=_dec, required=True)
    check.add_argument("--cf", type=_dec, default=Dec("0.5"))
    check.set_defaults(handler=_cmd_validate_params)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("LIQLAB_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # raised by --help (0) and flag errors (1)
        return int(exit_.code or 0)
    try:
        return args.handler(args) or 0
    # unreadable input first: NestingTooDeepError is a LiqlabError, and
    # JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (json.JSONDecodeError, NestingTooDeepError, UnicodeDecodeError) as exc:
        print(f"error: unreadable input: {exc}", file=sys.stderr)
        return 2
    except (LiqlabError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
