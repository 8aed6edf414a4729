"""The scenario engine against the naive reference in ``reference_engine.py``.

Hypothesis draws small scenarios that reach the engine's shortcuts: 2-4
assets with one owed but never held, multi-collateral and multi-debt
positions around health 1, sparse price paths whose overrides sometimes
repeat a price, every policy, ``one_liquidation_per_block`` and
``cf_per_debt_asset`` on and off, a gas fee at or near the
``cannot_clear_fees`` bound and a flash fee up to and above LS. Scripted bids
are fitted to the auctions a script-less run opens. Both engines must give
the same event log, volume series and final positions, or the same error.
Magnitudes stay far below the ``Dec`` range, where both engines agree on
overflow handling. On the same scenarios every fixed-spread event must carry
its own arithmetic, recomputed in ``Dec``.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

from liqlab import Dec, Mechanism, load_scenario, position_values, run_scenario
from liqlab.errors import LiqlabError
from liqlab.sim import _Run, cannot_clear_fees

import reference_engine
from helpers import assert_fixed_spread_arithmetic

SYMBOLS = ("A", "B", "C", "D")
POLICIES = ("up-to-close-factor", "optimal-two-step", "auction-bidder")
ULP = Dec.from_raw(1)


def _cents(draw, low, high) -> Dec:
    return Dec(draw(st.integers(low, high))) / Dec(100)


@st.composite
def _plain_docs(draw):
    """A scenario document without scripted bids."""
    symbols = SYMBOLS[: draw(st.integers(2, 4))]
    held = symbols[:-1]  # the last asset is owed but never held
    ls = _cents(draw, 0, 15)
    lt = {sym: _cents(draw, 50, 85) for sym in held}  # LT*(1+LS) < 0.98
    cf = Dec(draw(st.sampled_from(["0.35", "0.5", "1"])))
    prices = {sym: _cents(draw, 100, 500_000) for sym in symbols}

    positions = []
    for i in range(draw(st.integers(1, 6))):
        # one position in six holds no collateral (type-I bad debt) and one
        # in six owes nothing
        kind = draw(st.sampled_from(["both"] * 4 + ["no collateral", "no debt"]))
        collateral = {
            sym: _cents(draw, 1, 10**8) / Dec(10)
            for sym in draw(st.lists(st.sampled_from(held), unique=True, min_size=1,
                                     max_size=len(held)))
            if kind != "no collateral"
        }
        bc = sum((amount * prices[sym] * lt[sym] for sym, amount in collateral.items()), Dec(0))
        owed = draw(st.lists(st.sampled_from(symbols), unique=True, min_size=1,
                             max_size=len(symbols)))
        weights = [draw(st.integers(1, 10)) for _ in owed if kind != "no debt"]
        # total debt at bc / health, health 0.7..1.3; a position without
        # collateral owes 100..1000 USD of each asset
        health = _cents(draw, 70, 130)
        debt = {}
        for sym, weight in zip(owed, weights):
            usd = bc * Dec(weight) / Dec(sum(weights)) / health if collateral else Dec(weight * 100)
            if usd > Dec(0):
                debt[sym] = usd / prices[sym]
        positions.append({
            "owner": f"p{i}",
            "collateral": {sym: str(amount) for sym, amount in collateral.items()},
            "debt": {sym: str(amount) for sym, amount in debt.items()},
        })

    blocks = draw(st.integers(0, 10))
    path = {"0": {sym: str(price) for sym, price in prices.items()}}
    current = dict(prices)
    for block in range(1, blocks + 1):
        if draw(st.integers(0, 2)):
            continue  # two blocks in three override nothing
        overrides = {}
        for sym in draw(st.lists(st.sampled_from(symbols), unique=True, max_size=len(symbols))):
            # a factor of 100% repeats the price: a new, equal snapshot
            factor = draw(st.sampled_from([100, 100, 70, 85, 95, 105, 115]))
            current[sym] = current[sym] * Dec(factor) / Dec(100)
            overrides[sym] = str(current[sym])
        path[str(block)] = overrides

    # each policy in a random order, some of them twice
    policies = draw(st.permutations(POLICIES))[: draw(st.sampled_from([3, 3, 2, 1]))]
    policies += draw(st.lists(st.sampled_from(POLICIES), max_size=2))
    flash_fee = draw(st.sampled_from([Dec(0), ls / Dec(2), ls, ls + Dec("0.01")]))
    # gas at the cannot_clear_fees bound of one position, give or take
    scenario_doc = {
        "assets": [{"symbol": sym, "decimals": draw(st.sampled_from([18, 6, 8]))}
                   for sym in symbols],
        "params": {
            "lt": {sym: str(value) for sym, value in lt.items()},
            "ls": str(ls),
            "cf": str(cf),
            "cf_per_debt_asset": draw(st.booleans()),
        },
        "positions": positions,
        "price_path": path,
        "agents": [{"id": f"agent{i}", "policy": policy} for i, policy in enumerate(policies)],
        "auction_config": {
            "auction_length": draw(st.integers(1, 6)),
            "bid_duration": draw(st.integers(1, 4)),
            "min_increment": draw(st.sampled_from(["0", "0.03"])),
        },
        "flash_fee_rate": str(flash_fee),
        "one_liquidation_per_block": draw(st.booleans()),
        "blocks": blocks,
    }
    scenario = load_scenario(dict(scenario_doc, gas_fee_usd="0"))
    position = draw(st.sampled_from(scenario.positions))
    d = position_values(position, scenario.price_path[0], scenario.params).d
    bound = cf * d * (ls - flash_fee)
    offset = draw(st.sampled_from([-ULP, Dec(0), ULP, Dec("-0.5"), Dec("0.5"), None]))
    gas = Dec(0) if offset is None else max(Dec(0), bound + offset)
    scenario_doc["gas_fee_usd"] = str(gas)
    return scenario_doc


class _Recording(reference_engine._Run):
    """The reference run, noting every auction it opens."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.opened = {}  # (owner, start) -> auction

    def _settle_auctions(self, block, oracle):
        for owner, auction in self.open_auctions.items():
            self.opened.setdefault((owner, auction.start_time), auction)
        super()._settle_auctions(block, oracle)


@st.composite
def _scenarios(draw):
    """A scenario whose first auction bidder, if any, bids on auctions that a
    run without bids opens."""
    doc = draw(_plain_docs())
    bidders = [agent for agent in doc["agents"] if agent["policy"] == "auction-bidder"]
    if bidders:
        recording = _Recording(load_scenario(doc))
        try:
            recording.run()
        except LiqlabError:
            pass
        length = doc["auction_config"]["auction_length"]
        script = []
        for (owner, start), auction in list(recording.opened.items())[:3]:
            if not draw(st.booleans()):
                continue
            borrower = owner if draw(st.sampled_from([True, True, False])) else None
            time = start + draw(st.integers(0, length - 1))
            if draw(st.booleans()):
                # a tend bid of up to the tab; the full tab moves to dent
                share = Dec(draw(st.integers(1, 100))) / Dec(100)
                amounts = [auction.tab_debt * share]
            else:
                # a full-tab bid, then a dent bid for part of the lot
                share = Dec(draw(st.integers(50, 96))) / Dec(100)
                amounts = [auction.tab_debt, auction.lot_collateral * share]
            for amount in amounts:
                bid = {"time": time, "bidder": f"bidder{len(script)}", "amount": str(amount)}
                if borrower is not None:
                    bid["borrower"] = borrower
                script.append(bid)
        bidders[0]["script"] = script
    return load_scenario(doc)


def _outcome(run, scenario):
    try:
        log = run(scenario)
    except LiqlabError as exc:
        return type(exc), str(exc)
    return log.to_csv(), log.to_jsonl(), log.collateral_volume_by_block, log.final_positions


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_engine_matches_the_reference(scenario):
    expected = _outcome(reference_engine.run_reference, scenario)
    actual = _outcome(run_scenario, scenario)
    if len(expected) == 2:
        event(f"error {expected[0].__name__}")
    else:
        event("completed with events" if expected[1] else "completed without events")
        event(f"auction events: {expected[0].count(',auction,') > 0}")
    assert actual == expected


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_fixed_spread_events_carry_their_arithmetic(scenario):
    try:
        log = run_scenario(scenario)
    except LiqlabError:
        return
    fixed_spread = [e for e in log.events if e.mechanism is Mechanism.FIXED_SPREAD]
    event(f"fixed-spread events: {min(len(fixed_spread), 3)}")
    for ev in fixed_spread:
        assert_fixed_spread_arithmetic(ev, scenario)


@settings(max_examples=100, deadline=None)
@given(_plain_docs())
def test_scan_screens_positions_by_cannot_clear_fees(doc):
    # the scan reads the screen's constants once per run; the positions it
    # leaves to fixed-spread agents must be those the public rule leaves
    scenario = load_scenario(doc)
    run = _Run(scenario)
    run._reprice(scenario.price_path[0])
    run._scan()
    screened = [
        owner for owner in run.liquidatable
        if cannot_clear_fees(run.sums[owner][2], scenario.params.cf.raw,
                             scenario.params.ls.raw - scenario.flash_fee_rate.raw,
                             scenario.gas_fee_usd.raw * 10**18)
    ]
    event(f"screened out: {min(len(screened), 2)}")
    assert run.fixed_spread_targets == [o for o in run.liquidatable if o not in screened]
