"""Command-line front end: every engine as a batch command with file I/O.

Output goes to stdout as CSV by default; ``--json`` switches the format and
``--out`` redirects to a file. All numbers are serialized as decimal
strings, and outputs carry no timestamps unless ``--stamp`` is given, so
identical inputs produce byte-identical outputs. Exit codes: 0 success,
1 validation error, 2 I/O error. Diagnostics go to stderr only; set
LIQLAB_LOG={error|info|debug} to control verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import logging
import os
import sys
from pathlib import Path

from .auction import Auction, AuctionConfig, Bid, apply_termination, finalize, place_bid
from .core import Asset, PositionValues, RiskParams
from .errors import InvalidScenarioError, LiqlabError
from .fixedpoint import Dec, ZERO
from .risk import classify_bad_debt, classify_price_path, sensitivity_curve
from .sim import _identifier, _integer, _shaped, load_scenario, run_scenario
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


def _stamp_line(enabled: bool) -> str:
    if not enabled:
        return ""
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return f"# generated {now}\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _kv_output(rows, as_json: bool, out: str | None, stamp: bool) -> None:
    if as_json:
        text = json.dumps(dict(rows), indent=2) + "\n"
    else:
        lines = ["field,value"] + [f"{key},{value}" for key, value in rows]
        text = "\n".join(lines) + "\n"
    _emit(_stamp_line(stamp) + text, out)


def _records_output(fields, records, as_json: bool, out: str | None, stamp: bool) -> None:
    """One row per record: CSV under a header line, or a JSON list of objects."""
    if as_json:
        text = json.dumps([dict(zip(fields, record)) for record in records], indent=2) + "\n"
    else:
        lines = [",".join(fields)] + [",".join(record) for record in records]
        text = "\n".join(lines) + "\n"
    _emit(_stamp_line(stamp) + text, out)


# -- subcommands ---------------------------------------------------------------


def _cmd_strategy(args) -> int:
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
    if plan.repay2 > ZERO:
        mitigation = mitigation_threshold(profits, plan, params)
        rows += [
            ("profit_o1", str(mitigation.profit_o1)),
            ("profit_o2", str(mitigation.profit_o2)),
            ("alpha_threshold", str(mitigation.alpha_threshold)),
        ]
    _kv_output(rows, args.json, args.out, args.stamp)
    return 0


def _parse_lt_entries(entries):
    lt = {}
    for i, entry in enumerate(entries):
        if "=" in entry:
            symbol, _, value = entry.partition("=")
        else:
            symbol, value = f"asset{i}", entry
        lt[Asset(symbol=symbol)] = Dec(value)
    return lt


def _cmd_validate_params(args) -> int:
    try:
        params = RiskParams(lt=_parse_lt_entries(args.lt), ls=args.ls, cf=args.cf)
    except (ValueError, TypeError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print("valid")
    return 0


def _run_one_scenario(path: str, as_json: bool) -> str:
    scenario = load_scenario(path)
    logbook = run_scenario(scenario)
    log.info("scenario %s: %d events", path, len(logbook.events))
    return logbook.to_jsonl() if as_json else logbook.to_csv()


def _cmd_simulate(args) -> int:
    paths = args.scenario
    if len(paths) > 1 and not args.out_dir:
        print("error: multiple scenarios require --out-dir", file=sys.stderr)
        return 1
    if len(paths) == 1 and not args.out_dir:
        text = _run_one_scenario(paths[0], args.json)
        _emit(_stamp_line(args.stamp) + text, args.out)
        return 0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".jsonl" if args.json else ".csv"
    with concurrent.futures.ThreadPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
        futures = {
            pool.submit(_run_one_scenario, path, args.json): path for path in paths
        }
        for future in futures:
            path = futures[future]
            text = future.result()
            target = out_dir / (Path(path).stem + suffix)
            target.write_text(_stamp_line(args.stamp) + text, encoding="utf-8")
    return 0


def _cmd_sensitivity(args) -> int:
    scenario = load_scenario(args.scenario)
    by_symbol = {asset.symbol: asset for asset in scenario.assets}
    if args.asset not in by_symbol:
        print(f"error: unknown asset {args.asset!r}", file=sys.stderr)
        return 1
    oracle = scenario.price_path.get(args.block)
    if oracle is None:
        print(f"error: scenario has no block {args.block}", file=sys.stderr)
        return 1
    points = sensitivity_curve(
        scenario.positions, by_symbol[args.asset], args.steps, oracle, scenario.params
    )
    records = [(str(p.decline_pct), str(p.liquidatable_collateral_usd)) for p in points]
    _records_output(("decline_pct", "lc_usd"), records, args.json, args.out, args.stamp)
    return 0


def _cmd_bad_debt_scan(args) -> int:
    scenario = load_scenario(args.scenario)
    oracle = scenario.price_path.get(args.block)
    if oracle is None:
        print(f"error: scenario has no block {args.block}", file=sys.stderr)
        return 1
    records = []
    for position in scenario.positions:
        if not position.debt:
            continue  # positions without debt are not classified
        verdict = classify_bad_debt(position, args.fee, oracle)
        records.append(
            (position.owner, verdict.kind.value, str(verdict.locked_collateral_usd))
        )
    fields = ("position_id", "class", "locked_usd")
    _records_output(fields, records, args.json, args.out, args.stamp)
    return 0


def _cmd_classify_path(args) -> int:
    prices = []
    with open(args.input, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                prices.append(Dec(text))
            except ValueError:
                print(
                    f"error: {args.input}:{lineno}: not a decimal: {text!r}",
                    file=sys.stderr,
                )
                return 1
    category = classify_price_path(prices, args.liquidation_price)
    if args.json:
        _emit(json.dumps({"category": category.value}) + "\n", args.out)
    else:
        _emit(category.value + "\n", args.out)
    return 0


def _cmd_auction_replay(args) -> int:
    config = AuctionConfig(
        auction_length=args.auction_length,
        bid_duration=args.bid_duration,
        min_increment=args.min_increment,
    )
    # constructed directly: a replay assumes the position was eligible
    auction = Auction(
        lot_collateral=args.c, tab_debt=args.d, config=config, start_time=args.start
    )
    with open(args.script, "r", encoding="utf-8") as handle:
        script = json.load(handle)
    if not isinstance(script, list):
        print("error: bid script must be a JSON array", file=sys.stderr)
        return 1
    for i, entry in enumerate(script):
        # the scenario loader's rules for a scripted bid's time and bidder
        try:
            entry = _shaped(entry, dict, "entry")
            time = _integer(entry.get("time"), "time")
            bidder = _identifier(entry, "bidder", "bidder")
            bid = Bid(bidder=bidder, amount=Dec(entry["amount"]), time=time)
        except InvalidScenarioError as exc:
            print(f"error: script[{i}]: {exc.field} {exc.problem}", file=sys.stderr)
            return 1
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: script[{i}]: {exc}", file=sys.stderr)
            return 1
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
    _kv_output(rows, args.json, args.out, args.stamp)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--out", default=None, help="write output to this file")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sub.add_argument(
        "--stamp", action="store_true", help="prepend a generation timestamp"
    )


def build_parser() -> argparse.ArgumentParser:
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
    replay.add_argument("--min-increment", type=_dec, default=Dec("0.03"))
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
        return args.handler(args)
    except LiqlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: unreadable input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
