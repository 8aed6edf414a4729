"""Deterministic block-by-block scenario engine.

A scenario is a closed world: assets, risk parameters, borrower positions,
a complete block-indexed price path, and a fixed list of liquidator agents.
Running it is a pure function of the scenario value; two runs produce
byte-identical serialized logs. A ``Scenario`` is validated when it is
constructed (``validate_scenario``), so an invalid one cannot exist and a
run does not validate again.

Engine rules, in order of application per block:

* Blocks 0..``blocks`` inclusive are processed in order, and a run visits
  only the wake-up blocks (see the last rule), jumping over the rest, so
  its cost follows the price changes and the agents' actions, not
  ``blocks``. Auction clocks tick in block units (one block = one time
  unit).
* The block's oracle snapshot is applied, then the total collateral value is
  recorded (pre-action), then agents act in list order. Each agent visits,
  in scenario order, only the positions that were liquidatable and held
  collateral at the block's start; a position that is healthy then cannot
  be liquidated before the next block, since only a liquidation or a
  settlement changes balances. A liquidatable position with no collateral
  left has nothing to seize or to sell: it is type-I bad debt, which no
  agent acts on and no auction opens for.
* Each position's raw sums are always current, kept by deltas: a block
  that moves prices re-rounds only the terms of the moved assets, and a
  balance change only the term it changes. A block that moves no price and
  follows no balance change records the previous block's volume and keeps
  its list of liquidatable positions.
* The price path and the volume series are step functions
  (``StepSeries``): each stores only the blocks at which its value
  changes and still answers every block. ``load_scenario`` builds one
  ``OracleSnapshot`` per price change (block 0 and each block that
  overrides a price), which holds until the next one, so
  ``validate_scenario`` checks each snapshot once and the run re-prices
  only where the snapshot changes; a run records the volume only where it
  changes. A ``Scenario`` given any other mapping converts it to a
  ``StepSeries`` once, reading it block by block, with a change at each
  block whose snapshot is not the block before's object.
* A re-pricing compares the snapshot's raw prices with the ones priced
  last, so a snapshot with equal prices, as in a programmatic ``Scenario``
  or after an override that repeats a price, moves nothing.
* Valuation runs on a slot-indexed raw book. The assets the positions
  reference are numbered once (slots); a run keeps the block's raw prices by
  slot, for the price comparison, and the kernel's fractions in lowest terms
  (``core._fraction``): thresholds reduced once, a price again only when it
  moves. The protocol's check reads its two prices from the block's
  snapshot. Each position is compiled once, when the run starts, into two
  ``{slot: term}`` dicts, in the order of its balances, and its raw sums
  ``[c, bc, d]``. A term holds the owner's sums, the raw amount and its
  rounded ``amount*price`` (and, for collateral, that value times LT,
  rounded), and joins its slot's holders. A re-pricing walks only a moved
  slot's holders (``core.revalue``): it re-rounds each term half-even, as
  a whole valuation does, and adds the new value less the old to the
  owner's sums, so the sums are exactly ``value_sums``'. A landed call
  subtracts the repaid and seized native amounts from its two terms, and an
  auction settlement scales every term of both sides (``_Run._settle``);
  each re-rounds the term it changes and drops one that reaches zero, as
  ``Position`` drops a zero balance. A ``Position`` is built from the book
  only for ``EventLog.final_positions``, and only for an owner whose
  balances changed. A re-pricing that takes a sum to 2**255 values the
  positions again with ``value_sums``, in scenario order, so an overflow
  raises the ``Dec`` loop's message. Validation guarantees a
  price for every slot and a threshold for every collateral slot, so no
  lookup on this path can fail.
* Fixed-spread agents act only when the net profit (gross minus gas and
  flash fee) is strictly positive. The net profit follows from the repay
  amount alone, so a call is sent only when it is profitable; that is also
  the flash-loan rule, since gas is never negative and a call that clears
  gas and fee always repays its flash loan. The profitable call is then
  checked against the protocol's rules on its kept raw sums
  (``fixed_spread._liquidation_call``, the rules behind
  ``execute_liquidation_call``); a call the protocol refuses (close-factor
  cap, debt or collateral shortfall) is simply not sent.
* The fixed-spread step runs on scaled integers end to end: the asset pair,
  the clamped repay, gross, fees and net, the two-step plan
  (``strategy._optimal_repays``) and the protocol's check read the kept
  raw ``(c, bc, d)`` and term values. Every product and quotient
  is rounded half-even as the ``Dec`` operator it stands for rounds it, and
  checked against 2**255 where that operator checks it, so events and
  errors are those of the ``Dec`` expressions. A ``Dec`` is built only for
  an event's fields; the two new balances stay raw, in the book.
* Fixed-spread agents skip a liquidatable position outright when no call on
  it can profit (``cannot_clear_fees``): every repay is at most the
  close-factor cap ``R``, and ``R*(LS - flash fee rate) < gas`` bounds the
  net profit of every such repay at zero or less. That rule is monotone in
  the debt value, so a run derives from it once the window of debt values
  at which some call can clear its fees (``fee_window``), and the scan
  compares each raw debt with it; auction bidders still visit the
  position, and a skipped call is one that would not have been sent. The
  scan builds no ``PositionValues`` and no ``Dec`` per position; only an
  auction's start and its settlement build one, from the raw sums.
* Every visit of an agent to a position passes one gate (``_Run._actionable``):
  no agent acts on a position with an open auction, on one on which a call
  landed in the block under ``one_liquidation_per_block``, or on one that
  is healthy or holds no collateral by then. A fixed-spread call runs on the
  raw ``(c, bc, d)`` that the gate hands its visit.
* A two-step agent plans on the whole position: ``_optimal_repays`` gets
  its aggregate ``c`` and ``d`` and the LT of the collateral asset the call
  seizes (the largest by value), the paper's single-LT closed form. On a
  position with several collateral assets it therefore plans as if all of
  ``c`` carried that LT. When the seized asset's LT is above the others',
  ``LT*c >= d`` can hold while ``bc < d``: the plan is refused as healthy
  and the agent makes no call, where a close-factor agent liquidates.
* With ``one_liquidation_per_block`` set, at most one liquidation lands per
  position per block, so a two-step agent's second call executes in the
  next block (re-capped, and its asset pair re-chosen, against the
  then-current state). Without the rule the second call follows at once
  on the first call's asset pair.
* Open auctions are checked for termination after agents act; settled
  auctions are logged as auction events and update the borrower position
  by one rule for both endings, at settlement-time values: each collateral
  balance keeps the refund's share ``refund/c`` of itself, and each debt
  balance the unpaid share ``(d - paid)/d``. A tend ending refunds nothing,
  so the whole lot is seized; a dent ending pays the tab, so the debt is
  cleared unless its value rose above the tab during the auction, and then
  the unpaid share stays owed.
  An auction ends at its ``auction.deadline``: the auction length after its
  start or the bid duration after its last bid, whichever comes first.
  Only an auction with a bid is terminated and settled; one that expires
  unbid is dropped, and its position stays liquidatable.
* A run visits only wake-up blocks: a change of snapshot, the block after
  a position change (a landed call or a settlement), a scripted bid's time
  and ``next_deadline``, a lower bound on the deadlines of the open
  auctions. A start or an accepted bid lowers that bound to its auction's
  deadline; a block that reaches the bound resets it to the earliest
  deadline still open, or to the next block when an auction expired unbid,
  so that the bidder may reopen it and fixed-spread agents act on it. On a
  block that neither re-prices nor follows a position change, the run takes
  the first re-pricing, scripted bid or deadline at or after it, and jumps
  there if that is later. A block it jumps over is idle: it keeps the
  previous block's volume and runs no agent and no settlement. Agents that
  retry the same calls on unchanged state meet the same refusals, so
  skipping them changes nothing. The block after an auction's start or bid
  needs no wake-up either: agents visit only the positions found
  liquidatable at the block's scan, every agent skips one with an open
  auction, and the bidder opens one on each position it may act on. A
  pending second call needs no wake-up of its own: it is due in the block
  right after its first call landed, and that block follows a position
  change.

Liquidator proceeds are marked to the oracle instantly; gas is a flat USD
fee per transaction and interest never accrues.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

from .auction import (
    AuctionConfig,
    Bid,
    apply_termination,
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
    revalue,
    value_sums,
)
from .errors import InvalidScenarioError, LiqlabError, NestingTooDeepError, ZeroVolumeError
from .fixed_spread import _least_debt, _liquidation_call, _max_repay
from .fixedpoint import _BOUND, SCALE, Dec, ZERO, _checked, _div, _mul, _parse, _round_div
from .strategy import _optimal_repays


class Mechanism(enum.Enum):
    FIXED_SPREAD = "fixed-spread"
    AUCTION = "auction"


class PolicyKind(enum.Enum):
    UP_TO_CLOSE_FACTOR = "up-to-close-factor"
    OPTIMAL_TWO_STEP = "optimal-two-step"
    AUCTION_BIDDER = "auction-bidder"


@dataclass(frozen=True)
class ScriptedBid(Bid):
    """One entry of an auction bid script: a ``Bid`` (so its amount is
    positive, and a debt or a collateral value by the auction's phase) plus
    the ``borrower`` whose auction it bids on, which may be None while only
    one auction is open. The engine hands it to ``place_bid`` as it is."""

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


def _field(text: str) -> str:
    """``text`` as one CSV field: quoted, its quotes doubled, when it holds
    a comma, a double quote, CR or LF, and as it is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(fields, rows) -> str:
    """The header ``fields`` and then one ``\\n``-ended line per row, every
    field written by ``_field``: as ``csv.writer`` writes it under its
    default ``\\r\\n`` line ending, so that a field holding a lone CR is
    quoted too and ``csv.reader`` reads it back."""
    return "".join(",".join(map(_field, row)) + "\n" for row in [fields, *rows])


class StepSeries(Mapping):
    """A read-only ``{block: value}`` mapping over blocks ``0..last`` that
    stores only the blocks at which the value changes.

    ``starts`` ascends strictly from 0 to at most ``last``, and ``values[i]``
    holds from block ``starts[i]`` up to the next start; only
    ``load_scenario``, ``StepSeries.of`` and a run build one, and each builds
    it so. The mapping reads as the plain dict of every block ``0..last``:
    ``len`` is ``last + 1``, keys iterate in block order, and it equals a
    mapping with the same items in either order of ``==``. A key that is
    not a block in ``0..last`` is a ``KeyError``, so ``get`` returns None
    for a negative block or one past ``last``. A lookup bisects the starts,
    so memory and building cost follow the number of changes, not
    ``last``; like ``range``, ``len`` raises OverflowError past
    ``sys.maxsize``.
    """

    __slots__ = ("_starts", "_values", "_last")

    def __init__(self, starts: list, values: list, last: int):
        self._starts = starts
        self._values = values
        self._last = last

    @classmethod
    def of(cls, mapping, last: int) -> "StepSeries":
        """``mapping`` over the blocks from 0 up to ``last`` or to the block
        before the first one it lacks (a missing key or a None value),
        whichever comes first, with a change at each block whose value is
        not the block before's object. A ``StepSeries`` that already ends
        there is returned as it is."""
        if isinstance(mapping, StepSeries):
            if mapping._last <= last:
                return mapping
            cut = bisect_right(mapping._starts, last)
            return cls(mapping._starts[:cut], mapping._values[:cut], last)
        starts, values = [], []
        for block in range(last + 1):
            value = mapping.get(block)
            if value is None:
                return cls(starts, values, block - 1)
            if not values or value is not values[-1]:
                starts.append(block)
                values.append(value)
        return cls(starts, values, last)

    def __getitem__(self, block):
        if not isinstance(block, int) or not 0 <= block <= self._last:
            raise KeyError(block)
        return self._values[bisect_right(self._starts, block) - 1]

    def __len__(self) -> int:
        return self._last + 1

    def __iter__(self):
        return iter(range(self._last + 1))

    def __eq__(self, other):
        if isinstance(other, StepSeries):
            return self._last == other._last and self._runs() == other._runs()
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"StepSeries({self._starts!r}, {self._values!r}, last={self._last})"

    def _runs(self) -> list:
        """``(first block, value)`` of each run of equal values: two series
        over the same blocks are equal iff these are."""
        runs = []
        for start, value in zip(self._starts, self._values):
            if not runs or runs[-1][1] != value:
                runs.append((start, value))
        return runs


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: construction raises InvalidScenarioError.

    ``price_path`` maps every block ``0..blocks`` to its ``OracleSnapshot``.
    Construction converts it with ``StepSeries.of(price_path, blocks)``: a
    plain dict is read once, so changing it later changes nothing, and its
    keys past ``blocks`` are dropped, as are a ``StepSeries``' blocks past
    ``blocks`` (``dataclasses.replace`` with a smaller ``blocks`` cuts the
    path).
    """

    assets: tuple
    params: RiskParams
    positions: tuple
    price_path: Mapping[int, OracleSnapshot]
    agents: tuple
    blocks: int
    auction_config: AuctionConfig = AuctionConfig(auction_length=6, bid_duration=5)
    gas_fee_usd: Dec = ZERO
    flash_fee_rate: Dec = ZERO
    one_liquidation_per_block: bool = False

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "price_path", StepSeries.of(self.price_path, self.blocks))
        object.__setattr__(self, "agents", tuple(self.agents))
        validate_scenario(self)


@dataclass(frozen=True)
class EventLog:
    """Everything a scenario run produces, with deterministic serializations.

    ``to_csv`` writes the ``EVENT_FIELDS`` header and one line per event
    through ``_csv``, which quotes a borrower or liquidator id that holds a
    comma, a double quote, CR or LF. ``to_jsonl`` writes one JSON object per
    event, each on its own ``\\n``-ended line, so an empty log is ``""``.

    A run's ``collateral_volume_by_block`` is a ``StepSeries`` over blocks
    ``0..blocks``; any mapping is accepted and kept as given.
    """

    events: tuple
    collateral_volume_by_block: Mapping[int, Dec]
    final_positions: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
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
        return _csv(EVENT_FIELDS, self._rows())

    def to_jsonl(self) -> str:
        text = ""
        for row in self._rows():
            record = dict(zip(EVENT_FIELDS, row))
            record["block"] = int(record["block"])
            text += json.dumps(record, separators=(",", ":")) + "\n"
        return text


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

    referenced = sorted(_referenced_assets(scenario.positions), key=lambda a: a.symbol)
    # a block that shares the snapshot of the change before it passed with it
    path = scenario.price_path
    for block, snapshot in zip(path._starts, path._values):
        for asset in referenced:
            if asset not in snapshot.prices:
                raise InvalidScenarioError(
                    "price_path", f"block {block} misses price for {asset.symbol}"
                )
    if path._last < scenario.blocks:
        raise InvalidScenarioError("price_path", f"missing snapshot for block {path._last + 1}")
    for position in scenario.positions:
        for asset in position.collateral:
            if asset not in scenario.params.lt:
                raise InvalidScenarioError(
                    "params.lt", f"no threshold for collateral asset {asset.symbol}"
                )


def _referenced_assets(positions) -> dict:
    """The assets the positions hold or owe, as keys in order of first
    mention; the values are amounts of them, which callers do not read."""
    referenced = {}
    for position in positions:
        referenced.update(position.collateral)
        referenced.update(position.debt)
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


def fee_window(cf: int, margin: int, gas: int) -> tuple:
    """``(lo, hi)`` such that ``lo <= d < hi`` exactly when
    ``cannot_clear_fees(d, cf, margin, gas)`` is false, for every raw debt
    value ``0 <= d < 2**255``; ``0 < cf <= 10**18``.

    The rule is ``R*margin < gas`` with ``R = _max_repay(d, cf)``, and ``R``
    never falls as ``d`` rises. So with ``margin > 0`` some call can clear
    its fees exactly when ``R >= ceil(gas/margin)``, a least ``d``; with
    ``margin < 0`` exactly when ``R <= floor(gas/margin)``, a greatest one;
    and with ``margin == 0`` exactly when ``gas <= 0``, at every ``d`` or at
    none. ``fixed_spread._least_debt`` turns a bound on ``R`` into one on
    ``d``.
    """
    if margin > 0:
        return _least_debt(-(-gas // margin), cf), _BOUND
    if margin < 0:
        return 0, _least_debt(gas // margin + 1, cf)
    return 0, (_BOUND if gas <= 0 else 0)


# a balance the book no longer holds, read as a term: no amount, no value
_CLEARED = (None, 0, 0)


class _Run:
    """Mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        # the raw book: asset -> slot for every referenced asset, and the
        # thresholds and the block's prices by slot
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
        # the debt values at which some fixed-spread call can clear its fees
        self.fee_window = fee_window(
            params.cf.raw,
            params.ls.raw - scenario.flash_fee_rate.raw,
            scenario.gas_fee_usd.raw * SCALE,
        )
        # for each side (0 collateral, 1 debt), slot -> {owner: term} of the
        # positions that hold or owe the slot's asset
        self.holders = tuple([{} for _ in self.assets] for _ in range(2))
        # owner -> its book entry (see _compile), the run's record of every
        # position, in scenario order; landed calls and settlements write it
        self.terms = {p.owner: self._compile(p) for p in scenario.positions}
        # owner -> its loaded Position until its balances first change
        self.positions = {p.owner: p for p in scenario.positions}
        # liquidatable owners in scenario order as of the last _scan, which
        # is stale after a price or position change, and the subset on which
        # some fixed-spread call can clear its fees (see cannot_clear_fees)
        self.liquidatable = []
        self.fixed_spread_targets = []
        self.stale = True
        # a lower bound on the deadlines of the open auctions: a start or an
        # accepted bid lowers it to its auction's deadline, and
        # _settle_auctions, once the block reaches it, resets it to the
        # earliest deadline still open (or the next block, after an auction
        # expired unbid); a later bid may move a deadline past it, and then
        # that block settles nothing
        self.next_deadline = scenario.blocks + 1
        # (block, agent_id) -> the agent's scripted bids at that block; only
        # an auction bidder has a script (validate_scenario)
        self.scripted = {}
        for agent in scenario.agents:
            for bid in agent.script:
                self.scripted.setdefault((bid.time, agent.agent_id), []).append(bid)
        self.events = []
        self.open_auctions = {}
        self.pending_second = {}  # agent_id -> {owner: planned second repay}
        self.liquidated_this_block = set()

    # -- helpers -------------------------------------------------------------

    def _reprice(self, oracle) -> None:
        """Take the block's raw prices and re-value the terms of each slot
        whose price moved, its holders' alone (``core.revalue``); at block 0
        every slot moves.

        When a sum reached 2**255 on the way, every position is valued whole
        by ``value_sums``, in scenario order, so the first one out of range
        raises the ``Dec`` loop's own message. Only a side that holds a moved
        slot can be out of range: a balance change only lowers a side's value.
        """
        self.oracle = oracle
        prices = [oracle.prices[asset].raw for asset in self.assets]
        if prices != self.prices:
            collateral, debt = self.holders
            over = False
            for slot, (price, last) in enumerate(zip(prices, self.prices)):
                if price != last:
                    fraction = self.fractions[slot] = _fraction(price)
                    over |= revalue(collateral[slot].values(), fraction, self.thresholds[slot])
                    over |= revalue(debt[slot].values(), fraction)
            self.prices = prices
            self.stale = True
            if over:
                for owner in self.terms:
                    value_sums(self._position(owner), oracle, self.scenario.params)

    def _compile(self, position: Position) -> list:
        """The position's book entry: its collateral and debt terms as
        ``{slot: term}``, in the order of its balances, and its raw sums
        ``[c, bc, d]``, which every term holds (see ``core.revalue``). Each
        term also joins its slot's holders, and is valued when its slot is
        first priced."""
        sums = [0, 0, 0]
        entry = [{}, {}, sums]
        for side, balances in enumerate((position.collateral, position.debt)):
            for asset, amount in balances.items():
                slot = self.slots[asset]
                term = [sums, amount.raw, 0] if side else [sums, amount.raw, 0, 0]
                entry[side][slot] = self.holders[side][slot][position.owner] = term
        return entry

    def _position(self, owner) -> Position:
        """The owner's ``Position``: the loaded one while its balances are
        unchanged, else one built from its raw balances in the book."""
        position = self.positions.get(owner)
        if position is not None:
            return position
        collateral, debt, _ = self.terms[owner]
        assets = self.assets
        return Position(
            owner=owner,
            collateral={assets[slot]: Dec.from_raw(t[1]) for slot, t in collateral.items()},
            debt={assets[slot]: Dec.from_raw(t[1]) for slot, t in debt.items()},
        )

    def _take(self, owner, side, slot, amount) -> None:
        """Subtract the raw ``amount`` from the owner's balance at ``slot`` on
        ``side`` (0 collateral, 1 debt) and re-round that one term at the
        block's prices, which moves the owner's sums by the difference; a
        balance that reaches zero is dropped, and so is its term from the
        slot's holders."""
        balances = self.terms[owner][side]
        term = balances[slot]
        term[1] -= amount
        revalue((term,), self.fractions[slot], None if side else self.thresholds[slot])
        if not term[1]:
            del balances[slot]
            del self.holders[side][slot][owner]

    def _settle(self, owner, settlement, sums) -> None:
        """Apply a finalized auction to the owner's balances in the book; its
        raw ``(c, bc, d)`` as of the settlement are ``sums``.

        Both endings follow one rule: each collateral balance keeps
        ``kept/total`` of itself with ``kept = refund`` and ``total = c``, and
        each debt balance with ``kept = d - paid`` and ``total = d``. Each
        kept amount is ``amount*kept/total`` rounded once, half-even, as
        ``Dec.mul_div`` rounds it; ``kept <= total``, so it is at most
        ``amount`` and stays in range. A ``kept <= 0`` empties the side (a
        tend ending refunds 0, a dent ending whose debt is worth the tab or
        less pays all of it), and that also covers a zero ``total``: the
        refund is at most ``c`` and the payment at least 0. The balances go
        through ``_take``, which drops a balance that reaches zero, as
        ``Position`` drops one.
        """
        c, _, d = sums
        sides = (settlement.borrower_refund_usd.raw, c), (d - settlement.paid_usd.raw, d)
        book = self.terms[owner]
        for side, (kept, total) in enumerate(sides):
            for slot, term in list(book[side].items()):
                amount = term[1]
                left = _round_div(amount * kept, total) if kept > 0 else 0
                self._take(owner, side, slot, amount - left)
        self._changed(owner)

    def _sums(self, owner) -> list:
        """The owner's raw ``[c, bc, d]`` at the current block's prices, kept
        by ``_reprice`` and ``_take``; the list is live, so a caller reads it
        before it changes the book.

        A position is liquidatable iff ``bc < d``: ``bc`` is never negative,
        so that also means ``d > 0``. The policies act on it only while it
        also holds collateral (``c > 0``): with none left there is nothing to
        seize or to sell, and the position is type-I bad debt.
        """
        return self.terms[owner][2]

    def _actionable(self, owner) -> Optional[list]:
        """The owner's raw ``[c, bc, d]`` when an agent may act on it now,
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
        self.stale = True

    def _scan(self) -> int:
        """Note the liquidatable positions that hold collateral, and those of
        them a fixed-spread call can profit from, the ones whose debt lies in
        the fee window; return the raw total collateral value.

        The second list stays valid until the next scan: within a block a
        position's debt only falls, and so does its close-factor cap.
        """
        lo, hi = self.fee_window
        terms = self.terms
        self.liquidatable = liquidatable = []
        self.fixed_spread_targets = targets = []
        total = 0
        for owner, entry in terms.items():
            c, bc, d = entry[2]
            total += c
            if c and bc < d:
                liquidatable.append(owner)
                if lo <= d < hi:
                    targets.append(owner)
        self.stale = False
        return total

    def _choose_pair(self, owner):
        """The slots of the largest-value debt and collateral assets, ties
        broken by symbol; only called with ``c > 0`` and ``d > bc >= 0``, so
        both sides hold one.

        A side with one asset has nothing to choose. On a side with more,
        each value is the term's rounded ``amount * price`` that the book
        keeps. Of equal keys the last one wins, as the last of a stable sort
        does.
        """
        assets = self.assets

        def best(balances):
            if len(balances) == 1:
                return next(iter(balances))
            slot, _ = max(
                reversed(balances.items()),
                key=lambda item: (item[1][2], assets[item[0]].symbol),
            )
            return slot

        collateral, debt, _ = self.terms[owner]
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
        kept sums and the book's balances (``fixed_spread._liquidation_call``);
        a landed call subtracts its repaid and seized native amounts in the
        book, and a ``Dec`` is built only for the event's fields.
        """
        _, bc, d = sums
        collateral, debt, _ = self.terms[owner]
        if pair is None:
            pair = self._choose_pair(owner)
        debt_slot, collateral_slot = pair
        scenario = self.scenario
        params = scenario.params
        one_ls = params.ls.raw + SCALE  # ONE + LS, checked where it is used
        # each asset's raw amount and its term's amount * price, and
        # max_repay; an immediate second call may find its pair's balance
        # already cleared
        debt_native, outstanding = debt.get(debt_slot, _CLEARED)[1:3]
        available, collateral_value = collateral.get(collateral_slot, _CLEARED)[1:3]
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
        # new two-step plans, on the kept raw sums
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
                # the landed call moved the sums; the gate reads them again
                sums = self._actionable(owner)
                if sums is not None:
                    self._liquidate(block, agent.agent_id, owner, sums, repay2, pair)

    def _act_auction_bidder(self, agent, block):
        for owner in self.liquidatable:
            sums = self._actionable(owner)
            if sums is None:
                continue
            auction = self.open_auctions[owner] = start_auction(
                PositionValues.from_sums(sums), self.scenario.auction_config, now=block
            )
            self.next_deadline = min(self.next_deadline, deadline(auction))
        for bid in self.scripted.get((block, agent.agent_id), ()):
            owner = bid.borrower
            if owner is None:
                if len(self.open_auctions) != 1:
                    raise InvalidScenarioError(
                        "agents.script",
                        f"bid at time {bid.time} names no borrower while "
                        f"{len(self.open_auctions)} auctions are open",
                    )
                owner = next(iter(self.open_auctions))
            if owner not in self.open_auctions:
                raise InvalidScenarioError(
                    "agents.script", f"no open auction for borrower {owner!r}"
                )
            try:
                auction = self.open_auctions[owner] = place_bid(self.open_auctions[owner], bid)
            except LiqlabError as exc:
                raise InvalidScenarioError(
                    "agents.script",
                    f"bid at time {bid.time} by {bid.bidder!r} refused: {exc}",
                ) from None
            self.next_deadline = min(self.next_deadline, deadline(auction))

    def _settle_auctions(self, block):
        # no open auction ends before next_deadline
        if block < self.next_deadline:
            return
        self.next_deadline = self.scenario.blocks + 1
        for owner, auction in list(self.open_auctions.items()):
            ends = deadline(auction)
            if ends > block:
                self.next_deadline = min(self.next_deadline, ends)
                continue
            del self.open_auctions[owner]
            if auction.best_bid is None:
                # expired unbid: nothing to settle, and the position stays
                # liquidatable; the next block runs, so the bidder may reopen
                # it and fixed-spread agents act on it
                self.next_deadline = block + 1
                continue
            auction = apply_termination(auction, block)
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
        end = scenario.blocks + 1
        path = scenario.price_path
        moves = zip(path._starts, path._values)
        next_move, snapshot = next(moves)  # block 0
        no_move = end, None
        # the scripted bid times, and ``end`` so that one always follows a block
        bid_times = sorted({end, *(time for time, _ in self.scripted)})
        # the volume as a step function: the blocks at which it changes, and
        # the raw volume last recorded
        starts, volumes = [], []
        total = None
        block = 0
        while block < end:
            if block == next_move:
                self._reprice(snapshot)
                next_move, snapshot = next(moves, no_move)
            # a block that does not scan keeps the volume last recorded: Dec
            # addition is exact, so it equals a re-summed one
            if self.stale:
                scanned = self._scan()
                if scanned != total:
                    total = scanned
                    starts.append(block)
                    # every c is >= 0, so checking the total alone catches
                    # any overflow
                    volumes.append(Dec.from_raw(total))
            else:
                # no position change to follow: wake at the first re-pricing,
                # deadline or scripted bid at or after this block
                wake = min(next_move, self.next_deadline, bid_times[bisect_left(bid_times, block)])
                if block < wake:
                    block = wake
                    continue
            self.liquidated_this_block = set()
            for agent in scenario.agents:
                if agent.kind is PolicyKind.UP_TO_CLOSE_FACTOR:
                    self._act_close_factor(agent, block)
                elif agent.kind is PolicyKind.OPTIMAL_TWO_STEP:
                    self._act_two_step(agent, block)
                else:
                    self._act_auction_bidder(agent, block)
            self._settle_auctions(block)
            block += 1
        return EventLog(
            events=tuple(self.events),
            collateral_volume_by_block=StepSeries(starts, volumes, scenario.blocks),
            final_positions=tuple(self._position(owner) for owner in self.terms),
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


def _identifier(entry: dict, key: str, where=()) -> str:
    """``entry[key]`` when it is a non-empty string; ``where`` names
    ``entry``, if it has a name."""
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        field_name = f"{_name(where)}.{key}" if where else key
        raise InvalidScenarioError(field_name, "missing or not a non-empty string")
    return value


def _amounts(raw, assets, where, amounts: dict) -> bool:
    """Parse a ``{symbol: decimal}`` object into ``amounts`` as ``{Asset:
    Dec}``, each symbol resolved through ``assets`` (symbol -> Asset), and
    return whether every amount it parsed is positive: every entry is
    parsed before the caller checks one.

    This is each amount's only check on the way to a ``Position`` or an
    ``OracleSnapshot`` whose amounts all came out positive: the caller
    builds it with ``_of_checked``. A string, the usual case, is parsed by
    ``fixedpoint._parse`` straight into a new ``Dec``, its sign read from
    the raw; any other value goes through ``Dec(value)``, so a JSON integer
    is accepted and every other type refused with ``Dec``'s message. The
    field name, such as ``positions[3].debt.DAI``, is built only to raise.
    """
    if not isinstance(raw, dict):
        _shaped(raw, dict, where)  # raises
    positive = True
    for sym, value in raw.items():
        asset = assets.get(sym)
        if asset is None:
            raise InvalidScenarioError(f"{_name(where)}.{sym}", f"unknown asset {sym!r}")
        try:
            if isinstance(value, str):
                amount = object.__new__(Dec)
                amount._raw = _parse(value)
            else:
                amount = Dec(value)
        except (ValueError, TypeError, OverflowError):
            _dec_field(value, f"{_name(where)}.{sym}")  # raises, naming the field
        amounts[asset] = amount
        positive = positive and amount._raw > 0
    return positive


def _scripted_bid(entry: dict, where) -> ScriptedBid:
    """A bid script entry as a ``ScriptedBid``: its ``time``, ``bidder``,
    ``amount`` and optional ``borrower``, read in that order, each field
    named under the path ``where`` (by its key alone when ``where`` is
    empty). A field of the wrong type is an InvalidScenarioError; an amount
    of 0 or less is ``Bid``'s ValueError. The scenario loader and
    ``liqlab auction-replay`` both read a script entry here."""
    time = _integer(entry.get("time"), (*where, "time"))
    bidder = _identifier(entry, "bidder", where)
    amount = _dec_field(entry.get("amount"), (*where, "amount"))
    borrower = entry.get("borrower")
    if borrower is not None:
        borrower = _identifier(entry, "borrower", where)
    return ScriptedBid(bidder=bidder, amount=amount, time=time, borrower=borrower)


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

    Decimals are strings. An asset is its symbol: an ``assets[].decimals``
    key is ignored, whatever its value, as is any other key the loader does
    not read. ``price_path`` may be sparse: blocks after 0
    inherit any price they do not override (block 0 must price every asset
    the positions reference). Its keys are block numbers in plain decimal,
    as ``str(block)`` writes them; any other key (``"1.0"``, ``"01"``, ``"-1"``,
    ``"x"``) is an InvalidScenarioError, since no block could read it. A key
    past ``blocks`` is allowed and ignored, and so is its content. The
    loader walks the document's keys in block order, not every block, and
    builds a new ``OracleSnapshot`` only at block 0 and at each block whose
    override object is non-empty. The path is a ``StepSeries`` over blocks
    0..``blocks`` that stores only those snapshots: every other block reads
    the snapshot of the change before it. Only a block's overrides are
    checked to be positive, since every price it inherits was checked where
    it was set; a bad one is reported as ``OracleSnapshot`` reports it,
    naming the first bad price in the order of the block's merged prices.

    Each amount is checked once, where ``_amounts`` parses it. A position
    whose collateral and debt amounts all parsed positive is built by
    ``Position._of_checked``, and every snapshot by
    ``OracleSnapshot._of_checked``, neither checking again. A position that
    holds a zero or negative amount goes through ``Position``, which drops
    a zero and reports a negative amount, collateral first.

    A file of malformed JSON raises ``json.JSONDecodeError``, and one nested
    deeper than the JSON decoder can follow a NestingTooDeepError.

    Each script entry is read by ``_scripted_bid``, and a bid amount of 0 or
    less is refused where the entry is parsed, at ``agents[i].script[j]``,
    as ``Bid`` states it. The ``Scenario`` refuses, once the whole document
    is parsed, a ``script`` on an agent that is not an ``auction-bidder``
    and a bid timed before block 0 (``validate_scenario``). A bid timed
    past ``blocks`` is allowed and ignored, as a ``price_path`` key past
    ``blocks`` is.
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
        assets[symbol] = Asset(symbol)

    params_doc = doc.get("params")
    if not isinstance(params_doc, dict):
        raise InvalidScenarioError("params", "missing or not an object")
    lt = {}
    _amounts(params_doc.get("lt", {}), assets, "params.lt", lt)
    params = _built(
        "params",
        RiskParams,
        lt=lt,
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
        collateral, debt = {}, {}
        # both sides are parsed before either is checked, collateral first
        positive = _amounts(
            entry.get("collateral", {}), assets, ("positions", i, "collateral"), collateral
        )
        if _amounts(entry.get("debt", {}), assets, ("positions", i, "debt"), debt) and positive:
            positions.append(Position._of_checked(owner, collateral, debt))
        else:  # drops a zero amount, raises on a negative one
            positions.append(_built(("positions", i), Position, owner, collateral, debt))

    blocks = _integer(doc.get("blocks"), "blocks")  # Scenario rejects blocks < 0

    path_doc = doc.get("price_path")
    if not isinstance(path_doc, dict) or "0" not in path_doc:
        raise InvalidScenarioError("price_path", "must be an object with a block-0 entry")
    # the keys in the horizon, by block. A key is a block number as
    # str(block) writes it: ASCII digits, no sign and no leading zero. One
    # longer than ``blocks`` is past the horizon, so int() never converts
    # more digits than ``blocks`` has.
    width = len(str(blocks))
    moves = {}
    for key in path_doc:
        if not (
            isinstance(key, str)
            and key.isascii()
            and key.isdigit()
            and (key == "0" or key[0] != "0")
        ):
            raise InvalidScenarioError("price_path", f"key {key!r} is not a block number")
        if len(key) <= width:
            block = int(key)
            if block <= blocks:
                moves[block] = key
    starts, snapshots = [], []
    current = {}
    for block in sorted(moves):
        key = moves[block]  # a present null is parsed, and is not an object
        overrides = path_doc[key]
        # block 0 comes first; _amounts refuses anything but an object
        if overrides or not starts or not isinstance(overrides, dict):
            # the overrides are parsed straight into current; the inherited
            # prices passed at an earlier block, so only they need a check
            if _amounts(overrides, assets, ("price_path", key), current):
                snapshots.append(OracleSnapshot._of_checked(current))
            else:  # raises, naming the first bad price in current's order
                _built(("price_path", key), OracleSnapshot, current)
            starts.append(block)

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
            script.append(_built(where, _scripted_bid, _shaped(raw_bid, dict, where), where))
        agents.append(AgentPolicy(agent_id=agent_id, kind=kind, script=tuple(script)))

    auction_doc = _shaped(doc.get("auction_config", {}), dict, "auction_config")
    default = Scenario.auction_config  # the field's default; a missing key keeps its value
    auction_length = _integer(
        auction_doc.get("auction_length", default.auction_length), "auction_config.auction_length"
    )
    bid_duration = _integer(
        auction_doc.get("bid_duration", default.bid_duration), "auction_config.bid_duration"
    )
    auction_config = _built(
        "auction_config",
        AuctionConfig,
        auction_length=auction_length,
        bid_duration=bid_duration,
        min_increment=_dec_field(
            auction_doc.get("min_increment", default.min_increment), "auction_config.min_increment"
        ),
    )

    return Scenario(
        assets=tuple(assets.values()),
        params=params,
        positions=tuple(positions),
        price_path=StepSeries(starts, snapshots, blocks),
        agents=tuple(agents),
        blocks=blocks,
        auction_config=auction_config,
        gas_fee_usd=_dec_field(doc.get("gas_fee_usd", "0"), "gas_fee_usd"),
        flash_fee_rate=_dec_field(doc.get("flash_fee_rate", "0"), "flash_fee_rate"),
        one_liquidation_per_block=_boolean(
            doc.get("one_liquidation_per_block", False), "one_liquidation_per_block"
        ),
    )
