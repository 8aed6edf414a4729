"""Print one SHA-256 digest per run of the byte-identical output sweep.

The sweep runs the benchmark workload generators (``bench/workloads.py``,
imported read-only) for seeds 0-19 of both workloads, each under every
combination of ``one_liquidation_per_block`` on/off, ``cf_per_debt_asset``
on/off and a gas fee of 0, 5 or 20 USD, plus the scenario fixtures. At gas 0
and 5 the fixed-spread agents liquidate calm-market's small positions before
the scripted bids reach them, so those runs end in the script's
``InvalidScenarioError``; the sweep therefore also runs each of them with the
auction bidder's script emptied, so auctions open and expire with no bids.
Every curve of those runs has 20 or 100 steps, both divisors of 10**18, so
none of their declines is rounded, and every target value they meet is a
multiple of the declines' denominators, so every borrower takes the
sensitivity sweep's exact path (``risk._liquidatable_collateral``); the
fixtures and crash-cascade seeds 0-19 are therefore run once more with
curves at 7 and 30 steps, whose rounded declines send the sweep down its
rounded path (all but the 4% of borrowers whose target value is a whole
number of dollars). Every price and threshold those generators and
fixtures write has at most 2 fractional digits, so each reduces to a
fraction whose denominator is at most 100; the fixtures and crash-cascade
seeds 0-4 are therefore also run with every price and threshold given 8
and 18 seeded fractional digits. Their target values
take the rounded path at 7 steps, and at 20 and 100 steps the exact path
with 8 digits and, for all but 2 of 203 borrowers, the rounded path with
18. No borrower in those runs owes its curve's target, so crash-cascade
seeds 0-4 run once more with every other ETH holder also owing 3% of its
ETH in ETH (``_owing_doc``), with curves at 100 and 7 steps: 200 of their
400 exposures take the sweep's per-step path for owers. The auction fixture
and calm-market seeds 0-4 run once more with their debt asset (DAI, USDC)
priced at 1.02 from block 3 on, so auctions that start before then settle
with their debt worth more than the tab (keys ending ``/debt-rises``; 693
runs in all).
Each run's digest covers the event log as CSV and JSONL, the collateral volume series
and the final positions, or the error that ended the run. For crash-cascade
runs and the fixtures it also covers the sensitivity curve and the bad-debt
verdicts, or their errors.

Run from anywhere; liqlab is imported from ``src/`` of this checkout:

    python3 tools/sweep_digests.py > digests.txt
    python3 tools/sweep_digests.py | diff tools/sweep_digests.txt -

Any change to liqlab that must keep outputs byte-identical must reproduce
``tools/sweep_digests.txt`` exactly.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
import sys
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from liqlab import (  # noqa: E402
    Dec,
    classify_bad_debt,
    load_scenario,
    run_scenario,
    sensitivity_curve,
)

SEEDS = range(20)
FIXTURES = ("eth_price_drop", "two_step", "auction")
FIXTURE_STEPS = 20
FIXTURE_FEE = "10"
ROUNDED_STEPS = (7, 30)  # k/steps is rounded to 18 digits for most k
FINE_SEEDS = range(5)
FINE_DIGITS = (8, 18)  # fractional digits of every price and threshold
OWING_SEEDS = range(5)
OWED_PCT = 3  # of its target collateral, owed in the target by every other holder
RISING_SEEDS = range(5)
RISE_BLOCK, RISEN_PRICE = "3", "1.02"  # a debt asset's price from then on


def _outcome(fn) -> str:
    """fn()'s text, or the type and message of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # the digest records errors as outputs
        return f"error {type(exc).__name__}: {exc}\n"


def _amounts(amounts) -> str:
    return " ".join(f"{asset.symbol}={amount}" for asset, amount in
                    sorted(amounts.items(), key=lambda item: item[0].symbol))


def _run(scenario) -> str:
    log = run_scenario(scenario)
    lines = [log.to_csv(), log.to_jsonl()]
    lines += [f"volume {block} {value}\n" for block, value in
              sorted(log.collateral_volume_by_block.items())]
    lines += [f"position {p.owner} | {_amounts(p.collateral)} | {_amounts(p.debt)}\n"
              for p in log.final_positions]
    return "".join(lines)


def _risk(scenario, target: str, steps: int, fee: str, scan_block: int) -> str:
    asset = next(a for a in scenario.assets if a.symbol == target)
    points = sensitivity_curve(scenario.positions, asset, steps, scenario.price_path[0],
                               scenario.params)
    lines = [f"sensitivity {target} {p.decline_pct} {p.liquidatable_collateral_usd}\n"
             for p in points]
    oracle = scenario.price_path[scan_block]
    for position in scenario.positions:
        if position.debt:
            verdict = classify_bad_debt(position, Dec(fee), oracle)
            lines.append(f"bad-debt {scan_block} {position.owner} {verdict.kind.value} "
                         f"{verdict.locked_collateral_usd}\n")
    return "".join(lines)


def digest(doc: dict, risk=()) -> str:
    """SHA-256 of one run's outputs; ``risk`` holds (target, steps, fee, block)
    tuples of the risk scans to add."""
    try:
        scenario = load_scenario(doc)
    except Exception as exc:  # the digest records errors as outputs
        text = f"error {type(exc).__name__}: {exc}\n"
    else:
        text = _outcome(lambda: _run(scenario))
        for args in risk:
            text += _outcome(lambda: _risk(scenario, *args))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fixture(name: str):
    """The fixture's document and the collateral assets it holds, by symbol."""
    doc = json.loads((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
    return doc, sorted({sym for p in doc["positions"] for sym in p.get("collateral", {})})


def runs():
    """(run key, scenario document, risk scans) for every run of the sweep."""
    for name in FIXTURES:
        doc, targets = _fixture(name)
        scans = [(t, FIXTURE_STEPS, FIXTURE_FEE, block) for t in targets
                 for block in sorted({0, doc["blocks"]})]
        yield f"fixture/{name}", doc, scans
    for name, generator in sorted(workloads.GENERATORS.items()):
        for seed in SEEDS:
            workload = generator(seed)
            for olpb, cfpa, gas in itertools.product((0, 1), (0, 1), ("0", "5", "20")):
                doc = copy.deepcopy(workload.scenario)
                doc["one_liquidation_per_block"] = bool(olpb)
                doc["params"] = dict(doc["params"], cf_per_debt_asset=bool(cfpa))
                doc["gas_fee_usd"] = gas
                scans = []
                if workload.target:
                    scans = [(workload.target, workload.shape.steps, workload.fee,
                              workload.scan_block)]
                yield f"{name}/seed{seed:02d}/olpb{olpb}/cfpa{cfpa}/gas{gas}", doc, scans
    for seed in SEEDS:
        workload = workloads.calm_market(seed)
        for olpb, cfpa, gas in itertools.product((0, 1), (0, 1), ("0", "5")):
            doc = copy.deepcopy(workload.scenario)
            doc["one_liquidation_per_block"] = bool(olpb)
            doc["params"] = dict(doc["params"], cf_per_debt_asset=bool(cfpa))
            doc["gas_fee_usd"] = gas
            for agent in doc["agents"]:
                if agent["policy"] == "auction-bidder":
                    agent["script"] = []
            key = f"calm-market/seed{seed:02d}/olpb{olpb}/cfpa{cfpa}/gas{gas}/no-script"
            yield key, doc, []
    for name in FIXTURES:
        doc, targets = _fixture(name)
        scans = [(t, steps, FIXTURE_FEE, doc["blocks"]) for t in targets
                 for steps in ROUNDED_STEPS]
        yield f"fixture/{name}/rounded-steps", doc, scans
    for seed in SEEDS:
        workload = workloads.crash_cascade(seed)
        scans = [(workload.target, steps, workload.fee, workload.scan_block)
                 for steps in ROUNDED_STEPS]
        yield f"crash-cascade/seed{seed:02d}/rounded-steps", workload.scenario, scans
    for digits in FINE_DIGITS:
        for name in FIXTURES:
            doc, targets = _fixture(name)
            scans = [(t, steps, FIXTURE_FEE, doc["blocks"]) for t in targets
                     for steps in (FIXTURE_STEPS, ROUNDED_STEPS[0])]
            key = f"fixture/{name}/fine{digits}"
            yield key, _fine_doc(doc, digits, random.Random(key)), scans
        for seed in FINE_SEEDS:
            workload = workloads.crash_cascade(seed)
            scans = [(workload.target, steps, workload.fee, workload.scan_block)
                     for steps in (workload.shape.steps, ROUNDED_STEPS[0])]
            key = f"crash-cascade/seed{seed:02d}/fine{digits}"
            yield key, _fine_doc(workload.scenario, digits, random.Random(key)), scans
    for seed in OWING_SEEDS:
        workload = workloads.crash_cascade(seed)
        scans = [(workload.target, steps, workload.fee, workload.scan_block)
                 for steps in (workload.shape.steps, ROUNDED_STEPS[0])]
        yield (f"crash-cascade/seed{seed:02d}/owes-target",
               _owing_doc(workload.scenario, workload.target), scans)
    doc, _ = _fixture("auction")
    yield "fixture/auction/debt-rises", _rising_doc(doc, "DAI"), []
    for seed in RISING_SEEDS:
        workload = workloads.calm_market(seed)
        yield (f"calm-market/seed{seed:02d}/debt-rises",
               _rising_doc(workload.scenario, "USDC"), [])


def _fine(value: str, digits: int, rng) -> str:
    """``value`` floored to ``digits`` fractional digits plus a seeded amount
    below 10**-3, so it keeps its sign, stays below 1 when a threshold does
    (every fixture and workload has LT*(1+LS) < 0.9) and has ``digits``
    fractional digits of which the last is not 0."""
    units = int(Decimal(value).scaleb(digits).to_integral_value(rounding=ROUND_FLOOR))
    extra = rng.randrange(1, 10 ** (digits - 3))
    return workloads.dec(units + extra + (extra % 10 == 0), digits)


def _fine_doc(doc: dict, digits: int, rng) -> dict:
    """A copy of ``doc`` with every price override and threshold given
    ``digits`` seeded fractional digits (see :func:`_fine`)."""
    doc = copy.deepcopy(doc)
    params = doc["params"]
    params["lt"] = {sym: _fine(lt, digits, rng) for sym, lt in params["lt"].items()}
    for key, overrides in doc["price_path"].items():
        doc["price_path"][key] = {sym: _fine(p, digits, rng) for sym, p in overrides.items()}
    return doc


def _owing_doc(doc: dict, target: str) -> dict:
    """A copy of ``doc`` in which every other position holding ``target`` as
    collateral also owes ``OWED_PCT`` percent of that amount of it, floored
    to 6 fractional digits (the generators' amount digits)."""
    doc = copy.deepcopy(doc)
    holders = [p for p in doc["positions"] if target in p.get("collateral", {})]
    for position in holders[1::2]:
        units = int(Decimal(position["collateral"][target]).scaleb(6)) * OWED_PCT // 100
        position["debt"] = dict(position["debt"], **{target: workloads.dec(units, 6)})
    return doc


def _rising_doc(doc: dict, debt: str) -> dict:
    """A copy of ``doc`` in which ``debt`` is priced at ``RISEN_PRICE`` from
    block ``RISE_BLOCK`` on, so an auction that starts before then settles
    with its debt worth more than its tab."""
    doc = copy.deepcopy(doc)
    path = doc["price_path"]
    path[RISE_BLOCK] = dict(path.get(RISE_BLOCK, {}), **{debt: RISEN_PRICE})
    return doc


def main() -> int:
    for key, doc, scans in runs():
        print(key, digest(doc, scans), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
