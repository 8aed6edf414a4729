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
* A position is valued once and the values are reused until they can
  change: every position is re-valued after a block whose prices differ
  from the previous block's, and a position alone after its own balances
  change (a liquidation or an auction settlement). A block that changes no
  price and follows no balance change records the previous block's volume
  and keeps its list of liquidatable positions. The engine caches each
  position's raw ``(c, bc, d)`` from the valuation kernel
  (``core.value_sums``), sums and compares those integers in the scan, and
  builds ``PositionValues`` only for a liquidatable position a policy acts
  on.
* Fixed-spread agents act only when the net profit (gross minus gas and
  flash fee) is strictly positive. The net profit follows from the repay
  amount alone, so a call is sent only when it is profitable; that is also
  the flash-loan rule, since gas is never negative and a call that clears
  gas and fee always repays its flash loan. The profitable call is then
  checked against the protocol's rules with the position's cached values
  (``fixed_spread.check_liquidation_call``); a call the protocol refuses
  (close-factor cap, debt or collateral shortfall) is simply not sent.
* Positions with an open auction are off-limits to fixed-spread agents.
* With ``one_liquidation_per_block`` set, at most one liquidation lands per
  position per block, so a two-step agent's second call executes in the
  next block (re-capped, and its asset pair re-chosen, against the
  then-current state). Without the rule the second call follows at once
  on the first call's asset pair.
* Open auctions are checked for termination after agents act; settled
  auctions update the borrower position (tend: whole lot seized, debt
  reduced proportionally by the payment; dent: debt cleared, collateral
  scaled down to the refund fraction) and are logged as auction events.

Liquidator proceeds are marked to the oracle instantly; gas is a flat USD
fee per transaction and interest never accrues.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .auction import (
    AuctionConfig,
    Bid,
    Phase,
    apply_termination,
    check_termination,
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
    value_sums,
)
from .errors import InvalidScenarioError, LiqlabError, ZeroVolumeError
from .fixed_spread import LiquidationCall, check_liquidation_call, max_repay
from .fixedpoint import Dec, ONE, ZERO
from .strategy import optimal_repays


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


EVENT_FIELDS = (
    "block",
    "borrower",
    "liquidator",
    "mechanism",
    "repaid_usd",
    "seized_usd",
    "gross_profit_usd",
    "fees_usd",
    "net_profit_usd",
)


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

    referenced = set()
    for position in scenario.positions:
        referenced.update(position.collateral)
        referenced.update(position.debt)
    for block in range(scenario.blocks + 1):
        snapshot = scenario.price_path.get(block)
        if snapshot is None:
            raise InvalidScenarioError("price_path", f"missing snapshot for block {block}")
        for asset in sorted(referenced, key=lambda a: a.symbol):
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


class _Run:
    """Mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.positions = {p.owner: p for p in scenario.positions}
        self.order = [p.owner for p in scenario.positions]
        # owner -> raw (c, bc, d) at the current prices, and owner -> the
        # PositionValues built from them once a policy needs them; see _sums
        self.sums = {}
        self.values = {}
        # liquidatable owners in scenario order as of the last _scan, which
        # is stale after a price or position change
        self.liquidatable = []
        self.stale = True
        self.events = []
        self.volume = {}
        self.open_auctions = {}
        self.pending_second = {}  # (agent_id, owner) -> planned second repay
        self.liquidated_this_block = set()

    # -- helpers -------------------------------------------------------------

    def _sums(self, owner, oracle):
        """The owner's raw ``(c, bc, d)`` at the current block's prices.

        Entries are dropped when the position changes (``_set_position``)
        and all at once when a block's prices differ from the last block's.
        A position is liquidatable iff ``bc < d``: ``bc`` is never negative,
        so that also means ``d > 0``. The policies act on it only while it
        also holds collateral (``c > 0``): with none left there is nothing to
        seize or to sell, and the position is type-I bad debt.
        """
        sums = self.sums.get(owner)
        if sums is None:
            sums = value_sums(self.positions[owner], oracle, self.scenario.params)
            self.sums[owner] = sums
        return sums

    def _values(self, owner, oracle) -> PositionValues:
        values = self.values.get(owner)
        if values is None:
            values = PositionValues.from_sums(self._sums(owner, oracle))
            self.values[owner] = values
        return values

    def _liquidatable_values(self, owner, oracle) -> Optional[PositionValues]:
        """The owner's position values while it is liquidatable and holds
        collateral, else None."""
        c, bc, d = self._sums(owner, oracle)
        return self._values(owner, oracle) if c and bc < d else None

    def _set_position(self, owner, position):
        self.positions[owner] = position
        self.sums.pop(owner, None)
        self.values.pop(owner, None)
        self.stale = True

    def _scan(self, oracle) -> Dec:
        """Note the liquidatable positions that hold collateral; return the
        total collateral value."""
        self.liquidatable = []
        total = 0
        for owner in self.order:
            c, bc, d = self._sums(owner, oracle)
            total += c
            if c and bc < d:
                self.liquidatable.append(owner)
        self.stale = False
        # every c is >= 0, so checking the total alone catches any overflow
        return Dec.from_raw(total)

    def _choose_pair(self, position: Position, oracle: OracleSnapshot):
        """Largest-value debt and collateral assets, ties broken by symbol."""
        def best(amounts):
            ranked = sorted(
                amounts.items(),
                key=lambda item: (item[1] * oracle.price(item[0]), item[0].symbol),
            )
            return ranked[-1][0] if ranked else None

        debt_asset = best(position.debt)
        collateral_asset = best(position.collateral)
        if debt_asset is None or collateral_asset is None:
            return None
        return debt_asset, collateral_asset

    def _liquidate(self, block, oracle, agent_id, owner, desired=None, pair=None):
        """One fixed-spread call on ``owner``; the pair used if an event landed.

        Nothing happens to a blocked or healthy position. The repay is
        ``desired`` capped at the close factor (the cap itself when
        ``desired`` is None), at the outstanding value of the debt asset and
        at what the collateral asset can pay at ``1 + LS``. ``pair`` defaults
        to ``_choose_pair``. The call is sent only when its net profit, which
        depends on the repay amount alone, is strictly positive.
        """
        if self._blocked(owner):
            return None
        values = self._liquidatable_values(owner, oracle)
        if values is None:
            return None
        position = self.positions[owner]
        if pair is None:
            pair = self._choose_pair(position, oracle)
            if pair is None:
                return None
        debt_asset, collateral_asset = pair
        scenario = self.scenario
        params = scenario.params
        outstanding = position.debt.get(debt_asset, ZERO) * oracle.price(debt_asset)
        collateral_value = position.collateral.get(collateral_asset, ZERO) * oracle.price(
            collateral_asset
        )
        repay = max_repay(values, params)
        for bound in (desired, outstanding, collateral_value / (ONE + params.ls)):
            if bound is not None and bound < repay:
                repay = bound
        if repay <= ZERO:
            return None
        # the receipt's own expression for the liquidator's profit
        gross = repay * (ONE + params.ls) - repay
        fees = scenario.gas_fee_usd + repay * scenario.flash_fee_rate
        net = gross - fees
        if net <= ZERO:
            return None
        call = LiquidationCall(owner, debt_asset, collateral_asset, repay)
        receipt = check_liquidation_call(position, values, call, oracle, params)
        if isinstance(receipt, LiqlabError):
            return None  # the protocol refuses the call, so it is not sent
        self._set_position(owner, receipt.position_after)
        self.liquidated_this_block.add(owner)
        self.events.append(
            LiquidationEvent(
                block=block,
                borrower=owner,
                liquidator=agent_id,
                mechanism=Mechanism.FIXED_SPREAD,
                repaid_usd=receipt.repaid_value_usd,
                seized_usd=receipt.seized_value_usd,
                gross_profit_usd=gross,
                fees_usd=fees,
                net_profit_usd=net,
            )
        )
        return pair

    def _blocked(self, owner):
        if owner in self.open_auctions:
            return True
        return (
            self.scenario.one_liquidation_per_block
            and owner in self.liquidated_this_block
        )

    # -- policies ------------------------------------------------------------

    def _act_close_factor(self, agent, block, oracle):
        for owner in self.liquidatable:
            self._liquidate(block, oracle, agent.agent_id, owner)

    def _act_two_step(self, agent, block, oracle):
        params = self.scenario.params
        # pending second calls scheduled by this agent in an earlier block
        for key in [k for k in self.pending_second if k[0] == agent.agent_id]:
            planned = self.pending_second.pop(key)
            self._liquidate(block, oracle, agent.agent_id, key[1], planned)
        # new two-step plans
        for owner in self.liquidatable:
            if self._blocked(owner):
                continue
            values = self._liquidatable_values(owner, oracle)
            if values is None:
                continue
            pair = self._choose_pair(self.positions[owner], oracle)
            if pair is None:
                continue
            try:
                plan = optimal_repays(values.c, values.d, params.threshold(pair[1]), params)
            except LiqlabError:
                continue
            if not self._liquidate(block, oracle, agent.agent_id, owner, plan.repay1, pair):
                continue
            if self.scenario.one_liquidation_per_block:
                self.pending_second[(agent.agent_id, owner)] = plan.repay2
            else:
                self._liquidate(block, oracle, agent.agent_id, owner, plan.repay2, pair)

    def _act_auction_bidder(self, agent, block, oracle):
        for owner in self.liquidatable:
            if self._blocked(owner):
                continue
            values = self._liquidatable_values(owner, oracle)
            if values is None:
                continue
            self.open_auctions[owner] = start_auction(
                values, self.scenario.auction_config, now=block
            )
        for scripted in agent.script:
            if scripted.time != block:
                continue
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

    def _settle_auctions(self, block, oracle):
        for owner in list(self.open_auctions):
            auction = self.open_auctions[owner]
            if check_termination(auction, block) is None:
                continue
            auction = apply_termination(auction, block)
            del self.open_auctions[owner]
            if auction.best_bid is None:
                continue  # expired worthless; position stays liquidatable
            values_now = self._values(owner, oracle)
            settlement = finalize(auction, values_now)
            self._set_position(
                owner, _apply_settlement(self.positions[owner], settlement, values_now)
            )
            self.liquidated_this_block.add(owner)
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
        prices = None
        for block in range(scenario.blocks + 1):
            oracle = scenario.price_path[block]
            if oracle.prices != prices:
                self.sums.clear()
                self.values.clear()
                self.stale = True
                prices = oracle.prices
            # Dec addition is exact, so a carried volume equals a re-summed one
            self.volume[block] = self._scan(oracle) if self.stale else self.volume[block - 1]
            self.liquidated_this_block = set()
            for agent in scenario.agents:
                if agent.kind is PolicyKind.UP_TO_CLOSE_FACTOR:
                    self._act_close_factor(agent, block, oracle)
                elif agent.kind is PolicyKind.OPTIMAL_TWO_STEP:
                    self._act_two_step(agent, block, oracle)
                else:
                    self._act_auction_bidder(agent, block, oracle)
            self._settle_auctions(block, oracle)
        return EventLog(
            events=tuple(self.events),
            collateral_volume_by_block=self.volume,
            final_positions=tuple(self.positions[o] for o in self.order),
        )


def _apply_settlement(position: Position, settlement, values_now) -> Position:
    """Apply an auction settlement to the borrower's balances.

    Tend ending: the whole lot is seized and the debt shrinks by the payment,
    spread proportionally over the debt assets. Dent ending: the debt is
    cleared and each collateral balance is scaled down to the refunded
    fraction of the lot's current value.
    """
    if settlement.ended_in is Phase.TEND:
        remaining = values_now.d - settlement.paid_usd
        if remaining < ZERO:
            remaining = ZERO
        new_debt = {}
        if values_now.d > ZERO and remaining > ZERO:
            for asset, amount in position.debt.items():
                new_debt[asset] = Dec.mul_div(amount, remaining, values_now.d)
        return Position(owner=position.owner, collateral={}, debt=new_debt)

    new_collateral = {}
    if values_now.c > ZERO and settlement.borrower_refund_usd > ZERO:
        for asset, amount in position.collateral.items():
            new_collateral[asset] = Dec.mul_div(
                amount, settlement.borrower_refund_usd, values_now.c
            )
    return Position(owner=position.owner, collateral=new_collateral, debt={})


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


def _dec_field(raw, field_name) -> Dec:
    if isinstance(raw, float):
        raise InvalidScenarioError(field_name, "decimals must be strings, not floats")
    try:
        return Dec(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidScenarioError(field_name, str(exc)) from None


def _shaped(value, kind, field_name):
    """``value`` when it is a ``kind`` (dict or list), else InvalidScenarioError."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise InvalidScenarioError(field_name, f"must be {expected}")
    return value


def _integer(raw, field_name) -> int:
    """``raw`` when it is a JSON integer (not a bool, not a float), else
    InvalidScenarioError."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise InvalidScenarioError(field_name, f"must be an integer: {raw!r}")
    return raw


def _boolean(raw, field_name) -> bool:
    """``raw`` when it is a JSON boolean, else InvalidScenarioError."""
    if not isinstance(raw, bool):
        raise InvalidScenarioError(field_name, f"must be true or false: {raw!r}")
    return raw


def _identifier(entry: dict, key: str, field_name: str) -> str:
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        raise InvalidScenarioError(field_name, "missing or not a non-empty string")
    return value


def load_scenario(source) -> Scenario:
    """Build a Scenario from a JSON document (path, JSON text, or dict).

    Decimals are strings. ``price_path`` may be sparse: blocks after 0
    inherit any price they do not override (block 0 must price every asset
    the positions reference).
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = str(source)
            if not text.lstrip().startswith("{"):
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
        doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidScenarioError("<root>", "scenario document must be a JSON object")

    assets = {}
    for i, entry in enumerate(_shaped(doc.get("assets", []), list, "assets")):
        entry = _shaped(entry, dict, f"assets[{i}]")
        symbol = _identifier(entry, "symbol", f"assets[{i}].symbol")
        decimals = _integer(entry.get("decimals", 18), f"assets[{i}].decimals")
        try:
            assets[symbol] = Asset(symbol=symbol, decimals=decimals)
        except ValueError as exc:
            raise InvalidScenarioError(f"assets[{i}].decimals", str(exc)) from None

    def lookup(symbol, field_name):
        if symbol not in assets:
            raise InvalidScenarioError(field_name, f"unknown asset {symbol!r}")
        return assets[symbol]

    params_doc = doc.get("params")
    if not isinstance(params_doc, dict):
        raise InvalidScenarioError("params", "missing or not an object")
    lt = {
        lookup(sym, f"params.lt.{sym}"): _dec_field(value, f"params.lt.{sym}")
        for sym, value in _shaped(params_doc.get("lt", {}), dict, "params.lt").items()
    }
    try:
        params = RiskParams(
            lt=lt,
            ls=_dec_field(params_doc.get("ls", "0"), "params.ls"),
            cf=_dec_field(params_doc.get("cf", "1"), "params.cf"),
            cf_per_debt_asset=_boolean(
                params_doc.get("cf_per_debt_asset", False), "params.cf_per_debt_asset"
            ),
        )
    except ValueError as exc:
        raise InvalidScenarioError("params", str(exc)) from None

    positions = []
    for i, entry in enumerate(_shaped(doc.get("positions", []), list, "positions")):
        entry = _shaped(entry, dict, f"positions[{i}]")
        owner = _identifier(entry, "owner", f"positions[{i}].owner")
        collateral = {
            lookup(sym, f"positions[{i}].collateral.{sym}"): _dec_field(
                value, f"positions[{i}].collateral.{sym}"
            )
            for sym, value in _shaped(
                entry.get("collateral", {}), dict, f"positions[{i}].collateral"
            ).items()
        }
        debt = {
            lookup(sym, f"positions[{i}].debt.{sym}"): _dec_field(
                value, f"positions[{i}].debt.{sym}"
            )
            for sym, value in _shaped(
                entry.get("debt", {}), dict, f"positions[{i}].debt"
            ).items()
        }
        try:
            positions.append(Position(owner=owner, collateral=collateral, debt=debt))
        except ValueError as exc:
            raise InvalidScenarioError(f"positions[{i}]", str(exc)) from None

    blocks = _integer(doc.get("blocks"), "blocks")  # Scenario rejects blocks < 0

    path_doc = doc.get("price_path")
    if not isinstance(path_doc, dict) or "0" not in path_doc:
        raise InvalidScenarioError("price_path", "must be an object with a block-0 entry")
    price_path = {}
    current = {}
    for block in range(blocks + 1):
        overrides = path_doc.get(str(block), {})
        if not isinstance(overrides, dict):
            raise InvalidScenarioError(f"price_path.{block}", "must be an object")
        for sym, value in overrides.items():
            current[lookup(sym, f"price_path.{block}.{sym}")] = _dec_field(
                value, f"price_path.{block}.{sym}"
            )
        try:
            price_path[block] = OracleSnapshot(prices=dict(current))
        except ValueError as exc:
            raise InvalidScenarioError(f"price_path.{block}", str(exc)) from None

    agents = []
    for i, entry in enumerate(_shaped(doc.get("agents", []), list, "agents")):
        entry = _shaped(entry, dict, f"agents[{i}]")
        agent_id = _identifier(entry, "id", f"agents[{i}].id")
        policy_name = str(entry.get("policy", "")).replace("_", "-")
        try:
            kind = PolicyKind(policy_name)
        except ValueError:
            raise InvalidScenarioError(
                f"agents[{i}].policy", f"unknown policy {entry.get('policy')!r}"
            ) from None
        script = []
        raw_script = _shaped(entry.get("script", []), list, f"agents[{i}].script")
        for j, raw_bid in enumerate(raw_script):
            where = f"agents[{i}].script[{j}]"
            raw_bid = _shaped(raw_bid, dict, where)
            time = _integer(raw_bid.get("time"), f"{where}.time")
            bidder = _identifier(raw_bid, "bidder", f"{where}.bidder")
            amount = _dec_field(raw_bid.get("amount"), f"{where}.amount")
            if amount <= ZERO:
                raise InvalidScenarioError(f"{where}.amount", f"must be > 0: {amount}")
            borrower = raw_bid.get("borrower")
            if borrower is not None:
                borrower = _identifier(raw_bid, "borrower", f"{where}.borrower")
            script.append(
                ScriptedBid(time=time, bidder=bidder, amount=amount, borrower=borrower)
            )
        agents.append(AgentPolicy(agent_id=agent_id, kind=kind, script=tuple(script)))

    auction_doc = _shaped(doc.get("auction_config", {}), dict, "auction_config")
    auction_length = _integer(
        auction_doc.get("auction_length", 6), "auction_config.auction_length"
    )
    bid_duration = _integer(auction_doc.get("bid_duration", 5), "auction_config.bid_duration")
    min_increment = _dec_field(
        auction_doc.get("min_increment", "0.03"), "auction_config.min_increment"
    )
    try:
        auction_config = AuctionConfig(
            auction_length=auction_length, bid_duration=bid_duration, min_increment=min_increment
        )
    except ValueError as exc:
        raise InvalidScenarioError("auction_config", str(exc)) from None

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
