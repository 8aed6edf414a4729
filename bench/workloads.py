"""Seeded scenario generators for the benchmark workloads.

Every generator is a pure function of ``(seed, size)`` built on
``random.Random`` and integer arithmetic only, so one seed always yields the
same scenario JSON. liqlab never sees the seed: it only reads the generated
documents.

Decimal digit budgets are kept small (prices up to 2 fractional digits,
amounts up to 6, thresholds 2, decline steps 3) so that exact brute-force
re-pricing in the checks agrees with the risk scan to the last digit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def dec(units: int, digits: int) -> str:
    """Render the integer ``units`` scaled by ``10**-digits`` as a decimal string."""
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**digits)
    if frac == 0 or digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).zfill(digits).rstrip("0")


@dataclass(frozen=True)
class Shape:
    positions: int
    blocks: int = 0
    steps: int = 0


# full-size shapes; "tiny" is only for the smoke test. ``steps`` is the
# number of decline steps of the risk scan run on the book after the crash.
# A full operation takes about 0.2 s: on a shared host, speed swings by up to
# 1.9 times every few seconds, and only a call this short runs at the speed
# the probes on either side of it measure (see ``speed.py``).
SHAPES = {
    "crash-cascade": {
        "full": Shape(positions=40, blocks=100, steps=100),
        "tiny": Shape(positions=10, blocks=30, steps=8),
    },
    "calm-market": {"full": Shape(positions=30, blocks=300), "tiny": Shape(positions=24, blocks=70)},
}
# the two crash-cascade shards of the ``simulate --jobs`` comparison
SHARD_SHAPES = {"full": Shape(positions=80, blocks=100), "tiny": Shape(positions=8, blocks=8)}


@dataclass
class Workload:
    """A generated scenario plus what the harness needs to run and check it."""

    name: str
    shape: Shape
    scenario: dict
    items: int
    target: str = ""  # sensitivity target asset, when the workload scans risk
    fee: str = ""  # bad-debt closing fee, when the workload scans risk
    scan_block: int = 0  # oracle block of the bad-debt scan


_ENGINE_ASSETS = [
    {"symbol": "ETH", "decimals": 18},
    {"symbol": "WBTC", "decimals": 8},
    {"symbol": "USDC", "decimals": 6},
    {"symbol": "DAI", "decimals": 18},
]
_ENGINE_PARAMS = {"lt": {"ETH": "0.8", "WBTC": "0.75"}, "ls": "0.08", "cf": "0.5"}
# thresholds in hundredths, matching _ENGINE_PARAMS
_ENGINE_LT = {"ETH": 80, "WBTC": 75}


def _position(rng, owner, prices, health_pct, debt_usd, wbtc_share_pct, debt_mix):
    """A position with the given health factor (in percent) at ``prices``.

    ``prices`` are in cents. Collateral is ETH, plus WBTC for a
    ``wbtc_share_pct`` share of its borrowing capacity; debt is split over
    the stablecoins named in ``debt_mix``.
    """
    # bc = health * d; split bc over the collateral assets, then c_asset = bc_asset / lt
    bc_cents = debt_usd * health_pct  # USD*100 scaled by 1/100 -> cents
    collateral = {}
    parts = {"ETH": 100 - wbtc_share_pct, "WBTC": wbtc_share_pct}
    for symbol, share in parts.items():
        if share <= 0:
            continue
        value_cents = bc_cents * share * 100 // (100 * _ENGINE_LT[symbol])
        # native amount at 6 digits: value / price
        native = value_cents * 10**6 // prices[symbol]
        if native > 0:
            collateral[symbol] = dec(native, 6)
    debt = {}
    if len(debt_mix) == 1:
        debt[debt_mix[0]] = dec(debt_usd * 100, 2)
    else:
        first = debt_usd * rng.randint(30, 70) // 100
        debt[debt_mix[0]] = dec(first * 100, 2)
        debt[debt_mix[1]] = dec((debt_usd - first) * 100, 2)
    return {"owner": owner, "collateral": collateral, "debt": debt}


def _debt_mix(i):
    """Debt assets by position index, so every seed has the same asset mix."""
    return (["USDC"], ["DAI"], ["USDC", "DAI"], ["USDC"], ["DAI"])[i % 5]


def crash_cascade(seed, size: str = "full", shard: bool = False) -> Workload:
    """Every block re-prices ETH, which every position holds, on a steep
    downward drift. Positions start just above health 1; a fifth of them are
    too small for a fixed-spread call to beat the gas fee, so they are probed
    in every block once they become liquidatable. The same book is then
    scanned for ETH-decline sensitivity at block 0 and for bad debts.

    Items are position-blocks plus position-steps."""
    shape = SHARD_SHAPES[size] if shard else SHAPES["crash-cascade"][size]
    rng = random.Random(f"crash-cascade:{seed}")
    prices = {"ETH": 200_000, "WBTC": 3_000_000}  # cents
    positions = []
    for i in range(shape.positions):
        small = i % 5 == 4
        debt_usd = rng.randint(60, 140) if small else rng.randint(2_000, 40_000)
        health = rng.randint(101, 125)
        positions.append(
            _position(rng, f"b{i:05d}", prices, health, debt_usd, (0, 20, 0, 40)[i % 4], _debt_mix(i))
        )
    path = {"0": {"ETH": dec(prices["ETH"], 2), "WBTC": dec(prices["WBTC"], 2), "USDC": "1", "DAI": "1"}}
    eth = prices["ETH"]
    wbtc = prices["WBTC"]
    for block in range(1, shape.blocks + 1):
        # -0.5% drift per block with +-0.3% noise, in basis points
        eth = eth * (10_000 - 50 + rng.randint(-30, 30)) // 10_000
        entry = {"ETH": dec(eth, 2)}
        if block % 4 == 0:
            wbtc = wbtc * (10_000 - 60 + rng.randint(-40, 40)) // 10_000
            entry["WBTC"] = dec(wbtc, 2)
        path[str(block)] = entry
    scenario = {
        "assets": _ENGINE_ASSETS,
        "params": _ENGINE_PARAMS,
        "positions": positions,
        "price_path": path,
        "agents": [
            {"id": "two-step", "policy": "optimal-two-step"},
            {"id": "close-factor", "policy": "up-to-close-factor"},
        ],
        "gas_fee_usd": "5",
        "flash_fee_rate": "0.0009",
        "one_liquidation_per_block": False,
        "blocks": shape.blocks,
    }
    items = shape.positions * (shape.blocks + 1) + shape.positions * (shape.steps + 1)
    # bad debts are classified halfway down the crash, where the book holds
    # healthy, type-ii and type-i positions
    return Workload(
        "crash-cascade", shape, scenario, items, target="ETH", fee="50", scan_block=shape.blocks // 2
    )


def calm_market(seed, size: str = "full") -> Workload:
    """A long, mostly healthy horizon whose prices move only every few dozen
    blocks, with the one-liquidation-per-block rule on. A handful of small
    positions are liquidatable at block 0 but not worth the gas for a
    fixed-spread call; a scripted auction bidder settles some of them through
    tend, some through dent, and leaves the rest to expire with no bids."""
    shape = SHAPES["calm-market"][size]
    rng = random.Random(f"calm-market:{seed}")
    prices = {"ETH": 200_000, "WBTC": 3_000_000}  # cents
    n_small = max(3, shape.positions // 5)
    positions = []
    for i in range(shape.positions - n_small):
        # one in six sits close to the edge, so price dips make it liquidatable
        health = rng.randint(102, 106) if i % 6 == 0 else rng.randint(130, 300)
        positions.append(
            _position(
                rng, f"b{i:05d}", prices, health, rng.randint(3_000, 60_000),
                (0, 0, 30)[i % 3], _debt_mix(i),
            )
        )

    # small ETH/USDC positions at c = 1.1 d, so bc = 0.88 d < d at block 0
    auction_length, bid_duration = 60, 8
    script = []
    outcomes = ("tend", "dent", "expire")
    for j in range(n_small):
        owner = f"s{j:05d}"
        debt_usd = rng.randint(100, 300)
        eth_native = debt_usd * 110 * 10**4 // prices["ETH"]  # 4 digits
        lot = eth_native * prices["ETH"]  # USD scaled by 10**6 (4 + 2 digits)
        positions.append(
            {"owner": owner, "collateral": {"ETH": dec(eth_native, 4)}, "debt": {"USDC": str(debt_usd)}}
        )
        outcome = outcomes[j % 3]
        t0 = 1 + rng.randint(0, 4)
        if outcome == "tend":
            # two rising debt bids below the tab; bid duration ends the auction
            script.append({"time": t0, "bidder": "alice", "amount": dec(debt_usd * 50, 2), "borrower": owner})
            script.append({"time": t0 + 2, "bidder": "bob", "amount": dec(debt_usd * 60, 2), "borrower": owner})
        elif outcome == "dent":
            # a full-tab bid switches to dent, then a collateral bid of 90% of the lot
            script.append({"time": t0, "bidder": "carol", "amount": str(debt_usd), "borrower": owner})
            script.append({"time": t0 + 2, "bidder": "alice", "amount": dec(lot * 9 // 10, 6), "borrower": owner})
    script.sort(key=lambda bid: (bid["time"], bid["borrower"]))

    path = {"0": {"ETH": dec(prices["ETH"], 2), "WBTC": dec(prices["WBTC"], 2), "USDC": "1", "DAI": "1"}}
    next_eth, next_wbtc = rng.randint(30, 50), rng.randint(50, 70)
    for block in range(1, shape.blocks + 1):
        entry = {}
        if block == next_eth:
            # each move draws a fresh level within -6%..+4% of the start, so
            # every seed sees dips that reach the near-edge positions
            eth = prices["ETH"] * (10_000 + rng.randint(-600, 400)) // 10_000
            entry["ETH"] = dec(eth, 2)
            next_eth += rng.randint(30, 50)
        if block == next_wbtc:
            wbtc = prices["WBTC"] * (10_000 + rng.randint(-300, 300)) // 10_000
            entry["WBTC"] = dec(wbtc, 2)
            next_wbtc += rng.randint(50, 70)
        if entry:
            path[str(block)] = entry
    scenario = {
        "assets": _ENGINE_ASSETS,
        # the close factor caps each debt asset on its own, so the agents'
        # aggregate-debt repays on two-debt positions are refused
        "params": dict(_ENGINE_PARAMS, cf_per_debt_asset=True),
        "positions": positions,
        "price_path": path,
        "agents": [
            {"id": "two-step", "policy": "optimal-two-step"},
            {"id": "close-factor", "policy": "up-to-close-factor"},
            {"id": "keeper", "policy": "auction-bidder", "script": script},
        ],
        "auction_config": {
            "auction_length": auction_length,
            "bid_duration": bid_duration,
            "min_increment": "0.03",
        },
        "gas_fee_usd": "20",
        "flash_fee_rate": "0.0009",
        "one_liquidation_per_block": True,
        "blocks": shape.blocks,
    }
    return Workload("calm-market", shape, scenario, shape.positions * (shape.blocks + 1))


GENERATORS = {
    "crash-cascade": crash_cascade,
    "calm-market": calm_market,
}
