"""Deterministic block-by-block scenario engine.

A scenario is a closed world: assets, risk parameters, borrower positions,
a complete block-indexed price path, and a fixed list of liquidator agents.
Running it is a pure function of the scenario value; two runs produce
byte-identical serialized logs. A ``Scenario`` is validated when it is
constructed (``validate_scenario``), so an invalid one cannot exist and a
run does not validate again.

Engine rules, in order of application per block:

* Blocks 0..``blocks`` inclusive are processed in order. Auction clocks tick
  in block units (one block = one time unit).
* The block's oracle snapshot is applied, then the total collateral value is
  recorded (pre-action), then agents act in list order. Each agent visits,
  in scenario order, only the positions that were liquidatable and held
  collateral at the block's start; a position that is healthy then cannot
  be liquidated before the next block, since only a liquidation or a
  settlement changes balances. A liquidatable position with no collateral
  left has nothing to seize or to sell: it is type-I bad debt, which no
  agent acts on and no auction opens for.
* A position is valued once and its raw sums are reused until they can
  change. A block that moves prices re-values, for each position, only the
  side (collateral or debt) that holds or owes an asset whose price moved;
  a position whose balances changed (a liquidation or an auction
  settlement) is re-valued on both sides. A block that moves no such price
  and follows no balance change records the previous block's volume and
  keeps its list of liquidatable positions.
* Re-pricing goes by snapshot identity first. ``load_scenario`` builds one
  ``OracleSnapshot`` per price change (block 0 and each block that
  overrides a price) and gives every other block the previous block's
  object, so ``validate_scenario`` checks a shared snapshot once and a
  block whose snapshot is the one priced last costs the engine nothing.
  A distinct snapshot, as in a programmatic ``Scenario`` or after an
  override that repeats a price, is compared by its raw prices, so equal
  prices still move nothing.
* Valuation runs on a slot-indexed raw book. The assets the positions
  reference are numbered once (slots); a run holds one list of raw prices
  per re-pricing, indexed by slot, for the price comparison and the
  fixed-spread step's repay bounds; the protocol's check reads its two
  prices from the block's snapshot. The kernel reads each price and
  threshold as a fraction in lowest terms (``core._fraction``): a run
  reduces its thresholds once and keeps one fraction per slot, reduced
  again only when that slot's price moves. Each
  position is compiled once, when the run starts, into two ``{slot: raw
  amount}`` balance dicts, in the order of its balances, and a bitmask of
  the slots each side references. That book is the run's only record of
  the balances, and both ways a balance changes write it in place: a
  landed fixed-spread call subtracts the repaid and seized native amounts
  from its two entries, and an auction settlement empties one side and
  scales the other (``_Run._settle``). Either drops an entry that reaches
  zero, with its bit, as ``Position`` drops a zero balance. A ``Position``
  is built from the book only for ``EventLog.final_positions``, and only
  for an owner whose balances changed. A re-pricing ORs
  the slots whose raw price differs into a moved mask; the scan re-runs the
  valuation kernel (``core.sum_side``) on a side whose mask meets it, then
  clears it. The engine caches each position's raw ``(c, bc, d)``, sums and
  compares them in the scan. Validation guarantees a price for every slot at
  every block and a threshold for every collateral slot, so no lookup on
  this path can fail.
* Fixed-spread agents act only when the net profit (gross minus gas and
  flash fee) is strictly positive. The net profit follows from the repay
  amount alone, so a call is sent only when it is profitable; that is also
  the flash-loan rule, since gas is never negative and a call that clears
  gas and fee always repays its flash loan. The profitable call is then
  checked against the protocol's rules on its cached raw sums
  (``fixed_spread._liquidation_call``, the rules behind
  ``check_liquidation_call``); a call the protocol refuses (close-factor
  cap, debt or collateral shortfall) is simply not sent.
* The fixed-spread step runs on scaled integers end to end: the asset pair,
  the clamped repay, gross, fees and net, the two-step plan
  (``strategy._optimal_repays``) and the protocol's check read the cached
  raw ``(c, bc, d)`` and the block's raw prices. Every product and quotient
  is rounded half-even as the ``Dec`` operator it stands for rounds it, and
  checked against 2**255 where that operator checks it, so events and
  errors are those of the ``Dec`` expressions. A ``Dec`` is built only for
  an event's fields; the two new balances stay raw, in the book.
* Fixed-spread agents skip a liquidatable position outright when no call on
  it can profit (``cannot_clear_fees``): every repay is at most the
  close-factor cap ``R``, and ``R*(LS - flash fee rate) < gas`` bounds the
  net profit of every such repay at zero or less. The scan decides this
  once per valuation, on the raw debt value; auction bidders still visit
  the position, and a skipped call is one that would not have been sent.
  The screen's constants (CF, LS minus the flash-fee rate, and the gas
  fee) are read once per run.
  The scan builds no ``PositionValues`` and no ``Dec`` per position; only
  an auction's start and its settlement build one, from the cached raw sums.
* Every visit of an agent to a position passes one gate (``_Run._actionable``):
  no agent acts on a position with an open auction, on one on which a call
  landed in the block under ``one_liquidation_per_block``, or on one that
  is healthy or holds no collateral by then. A fixed-spread call runs on the
  raw ``(c, bc, d)`` that the gate hands its visit.
* With ``one_liquidation_per_block`` set, at most one liquidation lands per
  position per block, so a two-step agent's second call executes in the
  next block (re-capped, and its asset pair re-chosen, against the
  then-current state). Without the rule the second call follows at once
  on the first call's asset pair.
* Open auctions are checked for termination after agents act; settled
  auctions update the borrower position (tend: whole lot seized, debt
  reduced proportionally by the payment; dent: debt cleared, collateral
  scaled down to the refund fraction) and are logged as auction events.
  An auction ends at its ``auction.deadline``: the auction length after its
  start or the bid duration after its last bid, whichever comes first.
* A block in which nothing can change is idle: it records the previous
  block's volume and runs no agent and no settlement. A block is idle when
  it does not re-price, the block before it changed nothing (no position
  change, auction start, accepted bid or termination), no scripted bid is
  timed at it and no open auction reaches its deadline at it. Agents that
  retry the same calls on unchanged state meet the same refusals, so
  skipping them changes nothing. A pending second call needs no condition
  of its own: it is due in the block right after its first call landed,
  and that block follows a position change.

Liquidator proceeds are marked to the oracle instantly; gas is a flat USD
fee per transaction and interest never accrues.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .auction import (
    AuctionConfig,
    Bid,
    Phase,
    apply_termination,
    check_termination,
    deadline,
    finalize,
    place_bid,
    start_auction,
)
from .core import (
    Asset,
    OracleSnapshot,
    Position,
    RiskParams,
    PositionValues,
    _fraction,
    sum_side,
)
from .errors import InvalidScenarioError, LiqlabError, NestingTooDeepError, ZeroVolumeError
from .fixed_spread import _liquidation_call, _max_repay
from .fixedpoint import SCALE, Dec, ZERO, _checked, _div, _mul, _round_div
from .strategy import _optimal_repays


class Mechanism(enum.Enum):
    FIXED_SPREAD = "fixed-spread"
    AUCTION = "auction"


class PolicyKind(enum.Enum):
    UP_TO_CLOSE_FACTOR = "up-to-close-factor"
    OPTIMAL_TWO_STEP = "optimal-two-step"
    AUCTION_BIDDER = "auction-bidder"


@dataclass(frozen=True)
class ScriptedBid:
    """One entry of an auction bid script; amount is phase-agnostic."""

    time: int
    bidder: str
    amount: Dec
    borrower: Optional[str] = None


@dataclass(frozen=True)
class AgentPolicy:
    agent_id: str
    kind: PolicyKind
    script: tuple = ()


@dataclass(frozen=True)
class LiquidationEvent:
    block: int
    borrower: str
    liquidator: str
    mechanism: Mechanism
    repaid_usd: Dec
    seized_usd: Dec
    gross_profit_usd: Dec
    fees_usd: Dec
    net_profit_usd: Dec


EVENT_FIELDS = tuple(f.name for f in dataclasses.fields(LiquidationEvent))


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: construction raises InvalidScenarioError."""

    assets: tuple
    params: RiskParams
    positions: tuple
    price_path: Mapping[int, OracleSnapshot]
    agents: tuple
    blocks: int
    auction_config: AuctionConfig = AuctionConfig(
        auction_length=6, bid_duration=5, min_increment=Dec("0.03")
    )
    gas_fee_usd: Dec = ZERO
    flash_fee_rate: Dec = ZERO
    one_liquidation_per_block: bool = False

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "price_path", dict(self.price_path))
        object.__setattr__(self, "agents", tuple(self.agents))
        validate_scenario(self)


@dataclass(frozen=True)
class EventLog:
    """Everything a scenario run produces, with deterministic serializations."""

    events: tuple
    collateral_volume_by_block: Mapping[int, Dec]
    final_positions: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "collateral_volume_by_block", dict(self.collateral_volume_by_block)
        )
        object.__setattr__(self, "final_positions", tuple(self.final_positions))

    def _rows(self):
        for ev in self.events:
            yield (
                str(ev.block),
                ev.borrower,
                ev.liquidator,
                ev.mechanism.value,
                str(ev.repaid_usd),
                str(ev.seized_usd),
                str(ev.gross_profit_usd),
                str(ev.fees_usd),
                str(ev.net_profit_usd),
            )

    def to_csv(self) -> str:
        lines = [",".join(EVENT_FIELDS)]
        lines.extend(",".join(row) for row in self._rows())
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for row in self._rows():
            record = dict(zip(EVENT_FIELDS, row))
            record["block"] = int(record["block"])
            lines.append(json.dumps(record, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")


def validate_scenario(scenario: Scenario) -> None:
    """Raise InvalidScenarioError naming the offending field."""
    if scenario.blocks < 0:
        raise InvalidScenarioError("blocks", f"must be >= 0: {scenario.blocks}")
    if scenario.gas_fee_usd < ZERO:
        raise InvalidScenarioError("gas_fee_usd", f"must be >= 0: {scenario.gas_fee_usd}")
    if scenario.flash_fee_rate < ZERO:
        raise InvalidScenarioError(
            "flash_fee_rate", f"must be >= 0: {scenario.flash_fee_rate}"
        )
    owners = [p.owner for p in scenario.positions]
    if len(owners) != len(set(owners)):
        raise InvalidScenarioError("positions", "duplicate owner identifiers")
    agent_ids = [a.agent_id for a in scenario.agents]
    if len(agent_ids) != len(set(agent_ids)):
        raise InvalidScenarioError("agents", "duplicate agent identifiers")
    for i, agent in enumerate(scenario.agents):
        if agent.script and agent.kind is not PolicyKind.AUCTION_BIDDER:
            raise InvalidScenarioError(
                f"agents[{i}].script",
                f"only an auction-bidder agent takes a script, not {agent.kind.value}",
            )
        for j, bid in enumerate(agent.script):
            if bid.time < 0:
                raise InvalidScenarioError(
                    f"agents[{i}].script[{j}].time", f"must be >= 0: {bid.time}"
                )
            if bid.amount <= ZERO:
                raise InvalidScenarioError(
                    f"agents[{i}].script[{j}].amount", f"must be > 0: {bid.amount}"
                )

    referenced = sorted(_referenced_assets(scenario.positions), key=lambda a: a.symbol)
    checked = None
    for block in range(scenario.blocks + 1):
        snapshot = scenario.price_path.get(block)
        if snapshot is None:
            raise InvalidScenarioError("price_path", f"missing snapshot for block {block}")
        if snapshot is checked:
            continue  # shared with the block before, which passed
        checked = snapshot
        for asset in referenced:
            if asset not in snapshot.prices:
                raise InvalidScenarioError(
                    "price_path", f"block {block} misses price for {asset.symbol}"
                )
    for position in scenario.positions:
        for asset in position.collateral:
            if asset not in scenario.params.lt:
                raise InvalidScenarioError(
                    "params.lt", f"no threshold for collateral asset {asset.symbol}"
                )


def _referenced_assets(positions) -> dict:
    """The assets the positions hold or owe, in order of first mention."""
    referenced = {}
    for position in positions:
        referenced.update(dict.fromkeys(position.collateral))
        referenced.update(dict.fromkeys(position.debt))
    return referenced


def cannot_clear_fees(d: int, cf: int, margin: int, gas: int) -> bool:
    """True when no fixed-spread call on a position whose raw debt value is
    ``d`` can have a net profit above zero, whatever its repay; ``cf``,
    ``margin`` and ``gas`` are CF, LS - f and the gas fee times 10**18, all
    scaled, where ``f`` is the flash-fee rate.

    The engine never repays more than ``R = max_repay(values, params)``,
    ``CF*d`` rounded half-even, which is computed here on the raw ``d``. For
    a repay ``0 < r <= R`` its net profit is ``r*(1+LS) - r - (gas + r*f)``.
    Each of the two products is off its exact value by at most half a unit
    in the 18th digit, so the net is at most ``r*(LS - f) - gas`` plus one
    unit, and the net is a whole number of units. Hence ``R*(LS - f) < gas``
    (compared exactly on scaled integers) means a net of zero or less for
    every such ``r``, whatever the sign of ``LS - f``. With ``f`` = 0 this is
    the paper's unprofitable liquidation: the bonus ``R*LS`` does not exceed
    the fee.
    """
    return _max_repay(d, cf) * margin < gas


class _Run:
    """Mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.order = [p.owner for p in scenario.positions]
        # the raw book: asset -> slot for every referenced asset, the raw
        # thresholds and the current block's raw prices by slot, and owner ->
        # {slot: raw amount} collateral and debt balances
        self.assets = list(_referenced_assets(scenario.positions))
        self.slots = {asset: slot for slot, asset in enumerate(self.assets)}
        params = scenario.params
        lt = params.lt
        # the thresholds as the kernel reads them, in lowest terms; a
        # debt-only asset needs none: the kernel reads thresholds for
        # collateral terms alone
        self.thresholds = [_fraction(lt[a].raw) if a in lt else None for a in self.assets]
        self.oracle = None
        self.prices = [None] * len(self.assets)
        # the same prices in lowest terms, for the kernel, reduced per move
        self.fractions = [None] * len(self.assets)
        # the run's constants of cannot_clear_fees: CF, LS - f, gas * 10**18
        self.fee_screen = (
            params.cf.raw,
            params.ls.raw - scenario.flash_fee_rate.raw,
            scenario.gas_fee_usd.raw * SCALE,
        )
        # the slots whose price moved since the last _scan, one bit per slot
        self.moved = 0
        # owner -> raw balances and slot masks (see _compile), the run's
        # record of every position; landed calls and settlements write it
        self.terms = {p.owner: self._compile(p) for p in scenario.positions}
        # owner -> its loaded Position until its balances first change
        self.positions = {p.owner: p for p in scenario.positions}
        # owner -> raw (c, bc, d); see _sums
        self.sums = {}
        # liquidatable owners in scenario order as of the last _scan, which
        # is stale after a price or position change, and the subset on which
        # some fixed-spread call can clear its fees (see cannot_clear_fees)
        self.liquidatable = []
        self.fixed_spread_targets = []
        self.stale = True
        # bumped by every change of auction state: a start, an accepted bid
        # and a termination; a position change sets ``stale`` instead
        self.changes = 0
        # the earliest deadline among the open auctions, as of the last block
        # that changed an auction
        self.next_deadline = scenario.blocks + 1
        # block -> agent_id -> its scripted bids at that block; only an
        # auction bidder has a script (validate_scenario)
        self.scripted = {}
        for agent in scenario.agents:
            for bid in agent.script:
                bucket = self.scripted.setdefault(bid.time, {})
                bucket.setdefault(agent.agent_id, []).append(bid)
        self.events = []
        self.volume = {}
        self.open_auctions = {}
        self.pending_second = {}  # agent_id -> {owner: planned second repay}
        self.liquidated_this_block = set()

    # -- helpers -------------------------------------------------------------

    def _reprice(self, oracle) -> None:
        """Take the block's raw prices and note the slots whose price moved,
        reducing the moved prices to lowest terms for the kernel.

        The cached sums are brought up to the new prices by the next
        ``_scan``, not here. That is safe because the run loop scans in the
        same block right after a re-pricing that moved a price, before any
        agent reads ``_sums``. A block that shares the snapshot priced last
        costs nothing.
        """
        if oracle is self.oracle:
            return
        self.oracle = oracle
        prices = [oracle.prices[asset].raw for asset in self.assets]
        if prices != self.prices:
            moved = self.moved
            fractions = self.fractions
            for slot, (price, last) in enumerate(zip(prices, self.prices)):
                if price != last:
                    moved |= 1 << slot
                    fractions[slot] = _fraction(price)
            self.moved = moved
            self.prices = prices
            self.stale = True

    def _compile(self, position: Position) -> list:
        """The position's book entry: its ``{slot: raw amount}`` collateral
        and debt balances, in the order of its own, for each side the mask
        of the slots it references, and the balances' ``items()`` views,
        which the kernel reads as its ``(slot, raw amount)`` terms. A view
        is live, so it follows every change to its balances."""
        slots = self.slots
        collateral = {slots[asset]: amount.raw for asset, amount in position.collateral.items()}
        debt = {slots[asset]: amount.raw for asset, amount in position.debt.items()}
        return [
            collateral,
            debt,
            sum(1 << slot for slot in collateral),
            sum(1 << slot for slot in debt),
            collateral.items(),
            debt.items(),
        ]

    def _position(self, owner) -> Position:
        """The owner's ``Position``: the loaded one while its balances are
        unchanged, else one built from its raw balances in the book."""
        position = self.positions.get(owner)
        if position is not None:
            return position
        collateral, debt = self.terms[owner][:2]
        assets = self.assets
        return Position(
            owner=owner,
            collateral={assets[slot]: Dec.from_raw(raw) for slot, raw in collateral.items()},
            debt={assets[slot]: Dec.from_raw(raw) for slot, raw in debt.items()},
        )

    def _take(self, owner, side, slot, amount) -> None:
        """Subtract the raw ``amount`` from the owner's balance at ``slot`` on
        ``side`` (0 collateral, 1 debt); a balance that reaches zero is
        dropped, with its bit in the side's mask."""
        book = self.terms[owner]
        balances = book[side]
        left = balances[slot] - amount
        if left:
            balances[slot] = left
        else:
            del balances[slot]
            book[side + 2] &= ~(1 << slot)

    def _settle(self, owner, settlement, sums) -> None:
        """Apply a finalized auction to the owner's balances in the book; its
        raw ``(c, bc, d)`` as of the settlement are ``sums``.

        Tend ending: the whole lot is seized and each debt balance is scaled
        by ``kept/total``, with ``kept = d - paid`` and ``total = d``. Dent
        ending: the debt is cleared and each collateral balance is scaled by
        ``kept = refund`` over ``total = c``. Each scaled amount is
        ``amount*kept/total`` rounded once, half-even, as ``Dec.mul_div``
        rounds it; ``kept <= total``, so it is at most ``amount`` and stays
        in range. A ``kept <= 0`` empties the side, and that also covers a
        zero ``total``: a tend pays more than zero, and a dent's refund is
        at most ``c``. The side's balances go through ``_take``, which drops
        a balance that reaches zero, as ``Position`` drops one.
        """
        c, _, d = sums
        if settlement.ended_in is Phase.TEND:
            emptied, scaled, kept, total = 0, 1, d - settlement.paid_usd.raw, d
        else:
            emptied, scaled, kept, total = 1, 0, settlement.borrower_refund_usd.raw, c
        book = self.terms[owner]
        for slot, amount in list(book[emptied].items()):
            self._take(owner, emptied, slot, amount)
        for slot, amount in list(book[scaled].items()):
            left = _round_div(amount * kept, total) if kept > 0 else 0
            self._take(owner, scaled, slot, amount - left)
        self._changed(owner)

    def _sums(self, owner):
        """The owner's raw ``(c, bc, d)`` at the current block's prices.

        An entry is dropped when the position's balances change
        (``_changed``), and then valued here on both sides, from the book.
        After a re-pricing, ``_scan`` updates the entries before anything
        else reads them.
        A position is liquidatable iff ``bc < d``: ``bc`` is never negative,
        so that also means ``d > 0``. The policies act on it only while it
        also holds collateral (``c > 0``): with none left there is nothing to
        seize or to sell, and the position is type-I bad debt.
        """
        sums = self.sums.get(owner)
        if sums is None:
            book = self.terms[owner]
            c, bc = sum_side(book[4], self.fractions, self.thresholds)
            sums = self.sums[owner] = c, bc, sum_side(book[5], self.fractions)[0]
        return sums

    def _actionable(self, owner) -> Optional[tuple]:
        """The owner's raw ``(c, bc, d)`` when an agent may act on it now,
        else None: when an auction is open on it, when a call landed on it in
        this block under ``one_liquidation_per_block``, or when it is healthy
        or holds no collateral. Each visit asks once and passes the sums on."""
        if owner in self.open_auctions or (
            self.scenario.one_liquidation_per_block and owner in self.liquidated_this_block
        ):
            return None
        sums = c, bc, d = self._sums(owner)
        return sums if c and bc < d else None

    def _changed(self, owner) -> None:
        """Note that the owner's balances in the book changed."""
        self.positions.pop(owner, None)
        self.sums.pop(owner, None)
        self.stale = True

    def _scan(self) -> Dec:
        """Note the liquidatable positions that hold collateral, and those of
        them a fixed-spread call can profit from; return the total collateral
        value.

        Each cached valuation is first brought up to the current prices: a
        side is re-valued only when it references a slot whose price moved,
        and a position whose balances changed is valued on both sides. The
        moved slots are then cleared.
        The second list stays valid until the next scan: within a block a
        position's debt only falls, and so does its close-factor cap.
        """
        prices, thresholds = self.fractions, self.thresholds
        cf, margin, gas = self.fee_screen
        moved, self.moved = self.moved, 0
        cached, terms = self.sums, self.terms
        self.liquidatable = []
        self.fixed_spread_targets = []
        total = 0
        for owner in self.order:
            sums = cached.get(owner)
            if sums is None:
                c, bc, d = self._sums(owner)
            else:
                c, bc, d = sums
                if moved:
                    _, _, collateral_slots, debt_slots, collateral, debt = terms[owner]
                    if collateral_slots & moved:
                        c, bc = sum_side(collateral, prices, thresholds)
                    if debt_slots & moved:
                        d = sum_side(debt, prices)[0]
                    cached[owner] = c, bc, d
            total += c
            if c and bc < d:
                self.liquidatable.append(owner)
                if not cannot_clear_fees(d, cf, margin, gas):
                    self.fixed_spread_targets.append(owner)
        self.stale = False
        # every c is >= 0, so checking the total alone catches any overflow
        return Dec.from_raw(total)

    def _choose_pair(self, owner):
        """The slots of the largest-value debt and collateral assets, ties
        broken by symbol; only called with ``c > 0`` and ``d > bc >= 0``, so
        both sides hold one.

        A side with one asset has nothing to choose, and its asset is not
        valued. On a side with more, each value is the kernel's rounded term
        ``amount * price``, which is at most the side's total and so below
        2**255: it needs no check. Of equal keys the last one wins, as the
        last of a stable sort does.
        """
        prices, assets = self.prices, self.assets

        def best(balances):
            if len(balances) == 1:
                return next(iter(balances))
            slot, _ = max(
                reversed(balances.items()),
                key=lambda term: (
                    _round_div(term[1] * prices[term[0]], SCALE),
                    assets[term[0]].symbol,
                ),
            )
            return slot

        collateral, debt = self.terms[owner][:2]
        return best(debt), best(collateral)

    def _liquidate(self, block, agent_id, owner, sums, desired=None, pair=None) -> bool:
        """One fixed-spread call on ``owner``; whether it landed.

        ``sums`` are the owner's raw ``(c, bc, d)`` as ``_actionable`` gave
        them to the caller, which has already decided that an agent may act
        on the owner. The repay is ``desired`` (raw) capped at the close
        factor (the cap itself when ``desired`` is None), at the outstanding
        value of the debt asset and at what the collateral asset can pay at
        ``1 + LS``. ``pair`` defaults to ``_choose_pair``. The call is sent
        only when its net profit, which depends on the repay amount alone, is
        strictly positive.

        Every amount is a raw value, rounded and checked as the ``Dec``
        expression in the comments is, and the protocol's rules run on the
        cached sums and the book's balances (``fixed_spread._liquidation_call``);
        a landed call subtracts its repaid and seized native amounts in the
        book, and a ``Dec`` is built only for the event's fields.
        """
        _, bc, d = sums
        collateral, debt = self.terms[owner][:2]
        if pair is None:
            pair = self._choose_pair(owner)
        debt_slot, collateral_slot = pair
        scenario = self.scenario
        params = scenario.params
        prices = self.prices
        one_ls = params.ls.raw + SCALE  # ONE + LS, checked where it is used
        # each asset's amount * price, and max_repay; an immediate second
        # call may find its pair's balance already cleared
        debt_native = debt.get(debt_slot, 0)
        available = collateral.get(collateral_slot, 0)
        outstanding = _mul(debt_native, prices[debt_slot])
        collateral_value = _mul(available, prices[collateral_slot])
        repay = _max_repay(d, params.cf.raw)
        for bound in (desired, outstanding, _div(collateral_value, _checked(one_ls))):
            if bound is not None and bound < repay:
                repay = bound
        if repay <= 0:
            return False
        # the receipt's own expression for the liquidator's profit,
        # repay * (ONE + LS) - repay, then fees = gas + repay * flash fee rate
        gross = _checked(_mul(repay, _checked(one_ls)) - repay)
        fees = _checked(scenario.gas_fee_usd.raw + _mul(repay, scenario.flash_fee_rate.raw))
        net = _checked(gross - fees)
        if net <= 0:
            return False
        assets = self.assets
        outcome = _liquidation_call(
            owner,
            bc,
            d,
            assets[debt_slot],
            assets[collateral_slot],
            debt_native,
            available,
            repay,
            self.oracle,
            params,
        )
        if isinstance(outcome, LiqlabError):
            return False  # the protocol refuses the call, so it is not sent
        # a landed call repaid a positive value of a debt the position owes
        # and seized from collateral worth more than zero: both balances
        # are in the book
        seized_value, seized_native, repaid_native = outcome
        self._take(owner, 1, debt_slot, repaid_native)
        self._take(owner, 0, collateral_slot, seized_native)
        self._changed(owner)
        self.liquidated_this_block.add(owner)
        self.events.append(
            LiquidationEvent(
                block=block,
                borrower=owner,
                liquidator=agent_id,
                mechanism=Mechanism.FIXED_SPREAD,
                repaid_usd=Dec.from_raw(repay),
                seized_usd=Dec.from_raw(seized_value),
                gross_profit_usd=Dec.from_raw(gross),
                fees_usd=Dec.from_raw(fees),
                net_profit_usd=Dec.from_raw(net),
            )
        )
        return True

    # -- policies ------------------------------------------------------------

    def _act_close_factor(self, agent, block):
        for owner in self.fixed_spread_targets:
            sums = self._actionable(owner)
            if sums is not None:
                self._liquidate(block, agent.agent_id, owner, sums)

    def _act_two_step(self, agent, block):
        params = self.scenario.params
        # pending second calls scheduled by this agent in an earlier block
        for owner, planned in self.pending_second.pop(agent.agent_id, {}).items():
            sums = self._actionable(owner)
            if sums is not None:
                self._liquidate(block, agent.agent_id, owner, sums, planned)
        # new two-step plans, on the cached raw sums
        for owner in self.fixed_spread_targets:
            sums = self._actionable(owner)
            if sums is None:
                continue
            pair = self._choose_pair(owner)
            plan = _optimal_repays(
                sums[0], sums[2], params.lt[self.assets[pair[1]]].raw, params
            )
            if isinstance(plan, LiqlabError):
                continue
            repay1, repay2, _ = plan
            if not self._liquidate(block, agent.agent_id, owner, sums, repay1, pair):
                continue
            if self.scenario.one_liquidation_per_block:
                self.pending_second.setdefault(agent.agent_id, {})[owner] = repay2
            else:
                # the landed call dropped the sums; re-value before the second
                sums = self._actionable(owner)
                if sums is not None:
                    self._liquidate(block, agent.agent_id, owner, sums, repay2, pair)

    def _act_auction_bidder(self, agent, block):
        for owner in self.liquidatable:
            sums = self._actionable(owner)
            if sums is None:
                continue
            self.open_auctions[owner] = start_auction(
                PositionValues.from_sums(sums), self.scenario.auction_config, now=block
            )
            self.changes += 1
        for scripted in self.scripted.get(block, {}).get(agent.agent_id, ()):
            owner = scripted.borrower
            if owner is None:
                if len(self.open_auctions) != 1:
                    raise InvalidScenarioError(
                        "agents.script",
                        f"bid at time {scripted.time} names no borrower while "
                        f"{len(self.open_auctions)} auctions are open",
                    )
                owner = next(iter(self.open_auctions))
            if owner not in self.open_auctions:
                raise InvalidScenarioError(
                    "agents.script", f"no open auction for borrower {owner!r}"
                )
            bid = Bid(bidder=scripted.bidder, amount=scripted.amount, time=scripted.time)
            try:
                self.open_auctions[owner] = place_bid(self.open_auctions[owner], bid)
            except LiqlabError as exc:
                raise InvalidScenarioError(
                    "agents.script",
                    f"bid at time {scripted.time} by {scripted.bidder!r} refused: {exc}",
                ) from None
            self.changes += 1

    def _settle_auctions(self, block):
        # next_deadline bounds the auctions open at the block's start, and one
        # started or bid on in this block ends after it
        if block < self.next_deadline:
            return
        for owner in list(self.open_auctions):
            auction = self.open_auctions[owner]
            if check_termination(auction, block) is None:
                continue
            auction = apply_termination(auction, block)
            del self.open_auctions[owner]
            self.changes += 1
            if auction.best_bid is None:
                continue  # expired worthless; position stays liquidatable
            sums = self._sums(owner)
            settlement = finalize(auction, PositionValues.from_sums(sums))
            self._settle(owner, settlement, sums)
            gross = settlement.winner_profit_usd
            fees = self.scenario.gas_fee_usd
            self.events.append(
                LiquidationEvent(
                    block=block,
                    borrower=owner,
                    liquidator=settlement.winner,
                    mechanism=Mechanism.AUCTION,
                    repaid_usd=settlement.paid_usd,
                    seized_usd=settlement.collateral_value_usd,
                    gross_profit_usd=gross,
                    fees_usd=fees,
                    net_profit_usd=gross - fees,
                )
            )

    # -- main loop -----------------------------------------------------------

    def run(self) -> EventLog:
        scenario = self.scenario
        changes = None  # self.changes at the start of the last block run
        for block in range(scenario.blocks + 1):
            self._reprice(scenario.price_path[block])
            if self.stale:
                self.volume[block] = self._scan()
            else:
                # Dec addition is exact, so a carried volume equals a re-summed one
                self.volume[block] = self.volume[block - 1]
                if (
                    changes == self.changes
                    and block < self.next_deadline
                    and block not in self.scripted
                ):
                    continue  # an idle block
            changes = self.changes
            self.liquidated_this_block = set()
            for agent in scenario.agents:
                if agent.kind is PolicyKind.UP_TO_CLOSE_FACTOR:
                    self._act_close_factor(agent, block)
                elif agent.kind is PolicyKind.OPTIMAL_TWO_STEP:
                    self._act_two_step(agent, block)
                else:
                    self._act_auction_bidder(agent, block)
            self._settle_auctions(block)
            if changes != self.changes:
                self.next_deadline = min(
                    map(deadline, self.open_auctions.values()), default=scenario.blocks + 1
                )
        return EventLog(
            events=tuple(self.events),
            collateral_volume_by_block=self.volume,
            final_positions=tuple(self._position(owner) for owner in self.order),
        )


def run_scenario(scenario: Scenario) -> EventLog:
    """Run a scenario to completion; pure in the scenario value.

    A ``Scenario`` is validated when it is constructed, so this does not
    validate again. A fixed-spread call is sent only when its net profit
    after gas and flash fee is strictly positive.
    """
    return _Run(scenario).run()


def profit_volume_ratio(log: EventLog, period: Sequence[int]) -> Dec:
    """Accumulated gross liquidation profit over the period divided by the
    period's average collateral volume, as recorded in the log."""
    blocks = list(period)
    if not blocks:
        raise ValueError("period is empty")
    volume = log.collateral_volume_by_block
    total_volume = ZERO
    for block in blocks:
        if block not in volume:
            raise ValueError(f"no collateral volume recorded for block {block}")
        total_volume = total_volume + volume[block]
    average = total_volume / Dec(len(blocks))
    if average == ZERO:
        raise ZeroVolumeError("average collateral volume over the period is zero")
    in_period = set(blocks)
    profit = ZERO
    for event in log.events:
        if event.block in in_period:
            profit = profit + event.gross_profit_usd
    return profit / average


# -- scenario JSON -----------------------------------------------------------


def _name(where) -> str:
    """The field name ``where`` stands for: a name, or a path of keys and list
    indices, such as ``("positions", 0, "debt")`` for ``positions[0].debt``.

    Where a name needs a list index or a key, the loader passes its path and
    builds the name only to raise.
    """
    if isinstance(where, str):
        return where
    name = where[0]
    for part in where[1:]:
        name += f"[{part}]" if isinstance(part, int) else f".{part}"
    return name


def _dec_field(raw, where) -> Dec:
    try:
        return Dec(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        problem = "decimals must be strings, not floats" if isinstance(raw, float) else str(exc)
        raise InvalidScenarioError(_name(where), problem) from None


def _shaped(value, kind, where):
    """``value`` when it is a ``kind`` (dict or list), else InvalidScenarioError."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise InvalidScenarioError(_name(where), f"must be {expected}")
    return value


def _integer(raw, where) -> int:
    """``raw`` when it is a JSON integer (not a bool, not a float), else
    InvalidScenarioError."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise InvalidScenarioError(_name(where), f"must be an integer: {raw!r}")
    return raw


def _boolean(raw, where) -> bool:
    """``raw`` when it is a JSON boolean, else InvalidScenarioError."""
    if not isinstance(raw, bool):
        raise InvalidScenarioError(_name(where), f"must be true or false: {raw!r}")
    return raw


def _is_block_key(key) -> bool:
    """True for a block number as ``str(block)`` writes it: ASCII digits,
    no sign and no leading zero."""
    return (
        isinstance(key, str)
        and key.isascii()
        and key.isdigit()
        and (key == "0" or key[0] != "0")
    )


def _identifier(entry: dict, key: str, where=()) -> str:
    """``entry[key]`` when it is a non-empty string; ``where`` names
    ``entry``, if it has a name."""
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        field_name = f"{_name(where)}.{key}" if where else key
        raise InvalidScenarioError(field_name, "missing or not a non-empty string")
    return value


def _amounts(raw, assets, where) -> dict:
    """A ``{symbol: decimal}`` object as ``{Asset: Dec}``, each symbol
    resolved through ``assets`` (symbol -> Asset)."""
    amounts = {}
    for sym, value in _shaped(raw, dict, where).items():
        asset = assets.get(sym)
        if asset is None:
            raise InvalidScenarioError(f"{_name(where)}.{sym}", f"unknown asset {sym!r}")
        try:
            amounts[asset] = Dec(value)
        except (ValueError, TypeError, OverflowError):
            _dec_field(value, f"{_name(where)}.{sym}")  # raises, naming the field
    return amounts


def _built(where, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ValueError raised as an
    InvalidScenarioError at ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise InvalidScenarioError(_name(where), str(exc)) from None


def _read_json(path):
    """The JSON document in the UTF-8 file at ``path`` (``str`` or
    ``os.PathLike``).

    Malformed JSON raises the decoder's ``json.JSONDecodeError``, a file
    that is not UTF-8 a ``UnicodeDecodeError``, and a document nested deeper
    than the decoder can follow NestingTooDeepError in place of the
    decoder's ``RecursionError``; each message names the path.
    """
    # fspath: an int would otherwise open that file descriptor
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
        except UnicodeDecodeError as exc:
            exc.reason += f" in {path}"
            raise
        except RecursionError:
            raise NestingTooDeepError(f"{path}: JSON nested too deeply to decode") from None


def load_scenario(source) -> Scenario:
    """Build a Scenario from a JSON document: a parsed ``dict``, or the path
    (``str`` or ``os.PathLike``) of a UTF-8 JSON file.

    Decimals are strings. ``price_path`` may be sparse: blocks after 0
    inherit any price they do not override (block 0 must price every asset
    the positions reference). Its keys are block numbers in plain decimal,
    as ``str(block)`` writes them; any other key (``"1.0"``, ``"01"``, ``"-1"``,
    ``"x"``) is an InvalidScenarioError, since no block could read it. A key
    past ``blocks`` is allowed and ignored, and so is its content. A new
    ``OracleSnapshot`` is built only at block 0 and at each block whose
    override object is non-empty; every other block shares the previous
    block's snapshot object. Only a block's overrides are checked to be
    positive, since every price it inherits was checked where it was set; a
    bad one is reported as ``OracleSnapshot`` reports it, naming the first
    bad price in the order of the block's merged prices.

    A file of malformed JSON raises ``json.JSONDecodeError``, and one nested
    deeper than the JSON decoder can follow a NestingTooDeepError.

    The ``Scenario`` refuses, once the whole document is parsed, a
    ``script`` on an agent that is not an ``auction-bidder``, a bid timed
    before block 0 and a bid amount of 0 or less (``validate_scenario``). A
    bid timed past ``blocks`` is allowed and ignored, as a ``price_path``
    key past ``blocks`` is.
    """
    doc = source if isinstance(source, dict) else _read_json(source)
    if not isinstance(doc, dict):
        raise InvalidScenarioError("<root>", "scenario document must be a JSON object")

    assets = {}
    for i, entry in enumerate(_shaped(doc.get("assets", []), list, "assets")):
        entry = _shaped(entry, dict, ("assets", i))
        symbol = _identifier(entry, "symbol", ("assets", i))
        if symbol in assets:
            raise InvalidScenarioError(f"assets[{i}].symbol", f"duplicate symbol {symbol!r}")
        decimals = _integer(entry.get("decimals", 18), ("assets", i, "decimals"))
        assets[symbol] = _built(("assets", i, "decimals"), Asset, symbol, decimals)

    params_doc = doc.get("params")
    if not isinstance(params_doc, dict):
        raise InvalidScenarioError("params", "missing or not an object")
    params = _built(
        "params",
        RiskParams,
        lt=_amounts(params_doc.get("lt", {}), assets, "params.lt"),
        ls=_dec_field(params_doc.get("ls", "0"), "params.ls"),
        cf=_dec_field(params_doc.get("cf", "1"), "params.cf"),
        cf_per_debt_asset=_boolean(
            params_doc.get("cf_per_debt_asset", False), "params.cf_per_debt_asset"
        ),
    )

    positions = []
    for i, entry in enumerate(_shaped(doc.get("positions", []), list, "positions")):
        entry = _shaped(entry, dict, ("positions", i))
        owner = _identifier(entry, "owner", ("positions", i))
        collateral = _amounts(entry.get("collateral", {}), assets, ("positions", i, "collateral"))
        debt = _amounts(entry.get("debt", {}), assets, ("positions", i, "debt"))
        positions.append(_built(("positions", i), Position, owner, collateral, debt))

    blocks = _integer(doc.get("blocks"), "blocks")  # Scenario rejects blocks < 0

    path_doc = doc.get("price_path")
    if not isinstance(path_doc, dict) or "0" not in path_doc:
        raise InvalidScenarioError("price_path", "must be an object with a block-0 entry")
    for key in path_doc:
        if not _is_block_key(key):
            raise InvalidScenarioError("price_path", f"key {key!r} is not a block number")
    price_path = {}
    current = {}
    snapshot = None
    for block in range(blocks + 1):
        key = str(block)
        if key in path_doc:  # a present null is parsed, and is not an object
            overrides = _amounts(path_doc[key], assets, ("price_path", key))
            if overrides or snapshot is None:  # block 0 is always present
                current.update(overrides)
                # the snapshot copies current; the inherited prices passed
                # at an earlier block, so only the overrides need a check
                if all(price.raw > 0 for price in overrides.values()):
                    snapshot = OracleSnapshot._of_checked(current)
                else:  # raises, naming the first bad price in current's order
                    _built(("price_path", key), OracleSnapshot, current)
        price_path[block] = snapshot

    agents = []
    for i, entry in enumerate(_shaped(doc.get("agents", []), list, "agents")):
        entry = _shaped(entry, dict, ("agents", i))
        agent_id = _identifier(entry, "id", ("agents", i))
        policy_name = str(entry.get("policy", "")).replace("_", "-")
        try:
            kind = PolicyKind(policy_name)
        except ValueError:
            raise InvalidScenarioError(
                f"agents[{i}].policy", f"unknown policy {entry.get('policy')!r}"
            ) from None
        script = []
        raw_script = _shaped(entry.get("script", []), list, ("agents", i, "script"))
        for j, raw_bid in enumerate(raw_script):
            where = ("agents", i, "script", j)
            raw_bid = _shaped(raw_bid, dict, where)
            time = _integer(raw_bid.get("time"), (*where, "time"))
            bidder = _identifier(raw_bid, "bidder", where)
            amount = _dec_field(raw_bid.get("amount"), (*where, "amount"))
            borrower = raw_bid.get("borrower")
            if borrower is not None:
                borrower = _identifier(raw_bid, "borrower", where)
            script.append(
                ScriptedBid(time=time, bidder=bidder, amount=amount, borrower=borrower)
            )
        agents.append(AgentPolicy(agent_id=agent_id, kind=kind, script=tuple(script)))

    auction_doc = _shaped(doc.get("auction_config", {}), dict, "auction_config")
    auction_length = _integer(
        auction_doc.get("auction_length", 6), "auction_config.auction_length"
    )
    bid_duration = _integer(auction_doc.get("bid_duration", 5), "auction_config.bid_duration")
    auction_config = _built(
        "auction_config",
        AuctionConfig,
        auction_length=auction_length,
        bid_duration=bid_duration,
        min_increment=_dec_field(
            auction_doc.get("min_increment", "0.03"), "auction_config.min_increment"
        ),
    )

    return Scenario(
        assets=tuple(assets.values()),
        params=params,
        positions=tuple(positions),
        price_path=price_path,
        agents=tuple(agents),
        blocks=blocks,
        auction_config=auction_config,
        gas_fee_usd=_dec_field(doc.get("gas_fee_usd", "0"), "gas_fee_usd"),
        flash_fee_rate=_dec_field(doc.get("flash_fee_rate", "0"), "flash_fee_rate"),
        one_liquidation_per_block=_boolean(
            doc.get("one_liquidation_per_block", False), "one_liquidation_per_block"
        ),
    )
