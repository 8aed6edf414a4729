"""Output checks for the benchmark workloads.

Each check raises ``CheckFailed`` naming what went wrong. The deep checks
run once per benchmark run on the reference output; every timed operation
must then reproduce that output byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random

# SHA-256 of the outputs of seed 0, by (workload, size); see ``digest``
RECORDED_SHA256 = {
    ("crash-cascade", "full"):
        "dc24698d4d5547ba21dfe4c7c950cb379b1449fbd5a1133a078314d3794ec437",
    ("calm-market", "full"):
        "108d26962fcd8745581abd4d3351d3b5be57f3fa400677a53e321b6f86a9fb54",
    ("crash-cascade", "tiny"):
        "d0de10b01ffddf6c4787659bcd6685b15ab2409e76b44291d0e8e4a695f77bca",
    ("calm-market", "tiny"):
        "993b47f2136dba1c680bad5617c63462202eb6955f703620ea37becc789d03ea",
}


class CheckFailed(Exception):
    """An output did not meet the benchmark's correctness checks."""


def digest(outputs: dict) -> str:
    """SHA-256 over the named output files, in name order."""
    sha = hashlib.sha256()
    for name in sorted(outputs):
        sha.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return sha.hexdigest()


def _rows(data: bytes, header: list) -> list:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    first = next(reader, None)
    if first != header:
        raise CheckFailed(f"unexpected header {first!r}")
    return list(reader)


def check_event_log(liqlab, scenario_path, scenario, data: bytes) -> tuple:
    """Check a ``simulate`` CSV log against the fee and profit rules, the
    library run it must equal, and non-negative final balances. Returns the
    numbers of events and of fixed-spread events."""
    Dec = liqlab.Dec
    log = liqlab.run_scenario(liqlab.load_scenario(str(scenario_path)))
    if log.to_csv().encode("utf-8") != data:
        raise CheckFailed("CLI event log differs from the library run")
    for position in log.final_positions:
        for side in (position.collateral, position.debt):
            for asset, amount in side.items():
                if amount < Dec(0):
                    raise CheckFailed(f"negative final balance {position.owner} {asset.symbol} {amount}")
    gas = Dec(scenario["gas_fee_usd"])
    flash_rate = Dec(scenario["flash_fee_rate"])
    fixed_spread = 0
    rows = _rows(data, list(liqlab.sim.EVENT_FIELDS))
    for row in rows:
        block, borrower, _, mechanism = row[:4]
        repaid, seized, gross, fees, net = (Dec(x) for x in row[4:])
        if not 0 <= int(block) <= scenario["blocks"]:
            raise CheckFailed(f"event outside the horizon: block {block}")
        if net != gross - fees:
            raise CheckFailed(f"block {block} {borrower}: net != gross - fees")
        if mechanism == "fixed-spread":
            fixed_spread += 1
            if net <= Dec(0):
                raise CheckFailed(f"block {block} {borrower}: fixed-spread net profit {net} <= 0")
            if fees != gas + repaid * flash_rate:
                raise CheckFailed(f"block {block} {borrower}: fees {fees} != gas + repaid * flash fee")
        elif mechanism == "auction":
            if fees != gas:
                raise CheckFailed(f"block {block} {borrower}: auction fees {fees} != gas")
        else:
            raise CheckFailed(f"unknown mechanism {mechanism!r}")
    return len(rows), fixed_spread


def _brute_force_lc(liqlab, positions, target, decline, oracle, params):
    """Re-price the target and re-value each holder through ``position_values``."""
    Dec = liqlab.Dec
    prices = dict(oracle.prices)
    factor = Dec(1) - decline
    if factor == Dec(0):
        prices.pop(target)
    else:
        prices[target] = prices[target] * factor
    snapshot = liqlab.OracleSnapshot(prices=prices)
    lc = Dec(0)
    for position in positions:
        if target not in position.collateral:
            continue
        if factor == Dec(0):
            position = liqlab.Position(
                position.owner,
                {a: x for a, x in position.collateral.items() if a != target},
                {a: x for a, x in position.debt.items() if a != target},
            )
        values = liqlab.position_values(position, snapshot, params)
        if liqlab.is_liquidatable(values):
            lc = lc + values.c
    return lc


def check_risk_outputs(liqlab, scenario_path, workload, sensitivity: bytes, bad_debt: bytes, seed) -> None:
    """Check sampled sensitivity points (block 0) against brute-force
    re-pricing and every bad-debt verdict (``workload.scan_block``) against a
    re-valuation of its position."""
    Dec = liqlab.Dec
    scenario = liqlab.load_scenario(str(scenario_path))
    oracle = scenario.price_path[0]
    target = next(a for a in scenario.assets if a.symbol == workload.target)
    steps = workload.shape.steps
    rows = _rows(sensitivity, ["decline_pct", "lc_usd"])
    if len(rows) != steps + 1:
        raise CheckFailed(f"sensitivity has {len(rows)} points, expected {steps + 1}")
    rng = random.Random(f"sample:{seed}")
    sampled = {0, steps, *rng.sample(range(1, steps), min(3, steps - 1))}
    for k in sorted(sampled):
        decline, lc = (Dec(x) for x in rows[k])
        if decline != Dec(k) / Dec(steps):
            raise CheckFailed(f"sensitivity point {k} has decline {decline}")
        expected = _brute_force_lc(liqlab, scenario.positions, target, decline, oracle, scenario.params)
        if lc != expected:
            raise CheckFailed(f"sensitivity at {decline}: {lc} != brute force {expected}")

    fee = Dec(workload.fee)
    oracle = scenario.price_path[workload.scan_block]
    by_owner = {p.owner: p for p in scenario.positions if p.debt}
    rows = _rows(bad_debt, ["position_id", "class", "locked_usd"])
    if [row[0] for row in rows] != list(by_owner):
        raise CheckFailed("bad-debt scan does not list every indebted position in order")
    for owner, kind, locked in rows:
        values = liqlab.position_values(by_owner[owner], oracle, scenario.params)
        if values.c < values.d:
            expected = ("type-i", values.c)
        elif values.c - values.d < fee:
            expected = ("type-ii", values.c)
        else:
            expected = ("not-bad", Dec(0))
        if (kind, Dec(locked)) != expected:
            raise CheckFailed(f"bad-debt verdict for {owner}: {kind} {locked} != {expected}")
