"""A naive reference for ``liqlab.sim.run_scenario``, for differential tests.

This is the first form of the scenario engine, ported to today's API and
kept naive on purpose: every block re-sums the collateral volume, every
agent visits every position and values it afresh with ``position_values``,
every open auction is checked for termination, and a call the protocol
refuses is raised by ``execute_liquidation_call`` and caught. It has no
cache, no slots, no fee bound, no snapshot sharing and no idle blocks, so
whatever the engine skips or reuses, this recomputes.

It applies the deliberate behaviour changes made since that first form
(``git show 2da9f50:src/liqlab/sim.py``), each marked with its commit where
it applies. The valuation, the fixed-spread rules and the two-step plan it
calls are its own ``Dec``-expression ports, not the library's
scaled-integer ones. It must give the engine's event log, volume series
and final positions, or raise the engine's error, on every valid scenario
whose magnitudes stay well inside the ``Dec`` range.
"""

from __future__ import annotations

from liqlab import (
    Bid,
    Dec,
    OracleSnapshot,
    Position,
    PositionValues,
    apply_termination,
    check_termination,
    finalize,
    is_liquidatable,
    place_bid,
    start_auction,
)
from liqlab.errors import (
    CloseFactorExceededError,
    CollateralShortfallError,
    DebtAssetShortfallError,
    InvalidParamsError,
    InvalidScenarioError,
    LiqlabError,
    NotLiquidatableError,
)
from liqlab.fixed_spread import LiquidationCall, LiquidationReceipt
from liqlab.fixedpoint import ONE, SCALE, ULP, ZERO, _round_div
from liqlab.sim import EventLog, LiquidationEvent, Mechanism, PolicyKind, Scenario
from liqlab.strategy import StrategyPlan


# -- valuation as a Dec loop -----------------------------------------------------
#
# The library values a position on scaled integers: ``core.value_sums`` is
# this loop on raws, and the engine keeps its sums by ``core.revalue``. This
# is the seed's ``Dec`` loop, so the reference shares no valuation
# arithmetic with the engine.


def position_values(position, oracle, params) -> PositionValues:
    """c = sum(amount*price), bc = sum(amount*price*LT), d = sum(debt*price)."""
    c = bc = d = ZERO
    for asset, amount in position.collateral.items():
        value = amount * oracle.price(asset)
        c = c + value
        bc = bc + value * params.threshold(asset)
    for asset, amount in position.debt.items():
        d = d + amount * oracle.price(asset)
    return PositionValues(c=c, d=d, bc=bc)


# -- the fixed-spread rules and the two-step plan as Dec expressions ---------
#
# The library computes these on scaled integers, shared with the engine. The
# bodies below are their ``Dec`` forms as the library had them before that
# change (``git show a9dd914:src/liqlab/fixed_spread.py`` and ``strategy.py``),
# so the reference engine does not share its arithmetic with the engine, and
# tests compare the library's functions with them.


def max_repay(values, params) -> Dec:
    """Close-factor cap on a single call: CF * total debt value."""
    return params.cf * values.d


def spread_prerequisite(subject: str, threshold: Dec, ls: Dec):
    """None when LT*(1+LS) < 1 strictly, else the reason, naming ``subject``."""
    product = threshold * (ONE + ls)
    if product < ONE:
        return None
    return f"LT*(1+LS) must be < 1: {subject} has {threshold}*(1+{ls}) = {product}"


def check_liquidation_call(position, values, call, oracle, params):
    """The receipt of one fixed-spread call, or its refusal unraised."""
    if not is_liquidatable(values):
        return NotLiquidatableError(
            f"position {position.owner!r} is not liquidatable (bc={values.bc}, d={values.d})"
        )

    debt_price = oracle.price(call.debt_asset)
    debt_native = position.debt.get(call.debt_asset, ZERO)
    outstanding_value = debt_native * debt_price

    cap = (
        params.cf * outstanding_value
        if params.cf_per_debt_asset
        else max_repay(values, params)
    )
    if call.repay_value_usd > cap:
        return CloseFactorExceededError(
            f"repay {call.repay_value_usd} exceeds close-factor cap {cap}"
        )
    if call.repay_value_usd > outstanding_value:
        return DebtAssetShortfallError(
            f"repay {call.repay_value_usd} exceeds outstanding "
            f"{call.debt_asset.symbol} debt value {outstanding_value}"
        )

    collateral_price = oracle.price(call.collateral_asset)
    seized_value = call.repay_value_usd * (ONE + params.ls)
    seized_native = seized_value / collateral_price
    available = position.collateral.get(call.collateral_asset, ZERO)
    if seized_native > available:
        return CollateralShortfallError(
            f"seizing {seized_native} {call.collateral_asset.symbol} exceeds "
            f"available {available}"
        )

    repaid_native = call.repay_value_usd / debt_price
    if repaid_native > debt_native:
        repaid_native = debt_native

    new_debt = dict(position.debt)
    new_debt[call.debt_asset] = debt_native - repaid_native
    new_collateral = dict(position.collateral)
    new_collateral[call.collateral_asset] = available - seized_native
    position_after = Position(owner=position.owner, collateral=new_collateral, debt=new_debt)

    return LiquidationReceipt(
        repaid_value_usd=call.repay_value_usd,
        seized_value_usd=seized_value,
        seized_native=seized_native,
        liquidator_profit_usd=seized_value - call.repay_value_usd,
        position_after=position_after,
    )


def execute_liquidation_call(position, call, oracle, params) -> LiquidationReceipt:
    """Value the position, check the call and raise its refusal, if any."""
    outcome = check_liquidation_call(
        position, position_values(position, oracle, params), call, oracle, params
    )
    if isinstance(outcome, LiqlabError):
        raise outcome
    return outcome


def optimal_repays(c: Dec, d: Dec, lt: Dec, params) -> StrategyPlan:
    """Closed-form two-step repay amounts for a position worth (c, d)."""
    if not ZERO < lt < ONE:
        raise InvalidParamsError(f"liquidation threshold outside (0, 1): {lt}")
    reason = spread_prerequisite("the collateral threshold", lt, params.ls)
    if reason is not None:
        raise InvalidParamsError(reason)
    if c < ZERO or d < ZERO:
        raise InvalidParamsError(f"position values must be non-negative: c={c}, d={d}")
    if not lt * c < d:
        raise NotLiquidatableError(f"position is healthy: LT*C = {lt * c} >= D = {d}")
    numerator = d - lt * c
    denominator = ONE - lt * (ONE + params.ls)
    r_star = _round_div(numerator.raw * SCALE, denominator.raw)
    cap = params.cf * d
    clamped = r_star > cap.raw
    repay1 = cap if clamped else Dec.from_raw(r_star) - ULP
    repay2 = params.cf * (d - repay1)
    return StrategyPlan(repay1=repay1, repay2=repay2, clamped=clamped)


# -- the engine --------------------------------------------------------------


def run_reference(scenario: Scenario) -> EventLog:
    return _Run(scenario).run()


class _Run:
    """Mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.positions = {p.owner: p for p in scenario.positions}
        self.order = [p.owner for p in scenario.positions]
        self.events = []
        self.volume = {}
        self.open_auctions = {}
        self.pending_second = {}  # (agent_id, owner) -> planned second repay
        self.liquidated_this_block = set()

    # -- helpers -------------------------------------------------------------

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

    def _capped_repay(self, position, oracle, debt_asset, collateral_asset, desired):
        """Clamp a desired repay to what the engine would accept."""
        params = self.scenario.params
        outstanding = position.debt.get(debt_asset, ZERO) * oracle.price(debt_asset)
        collateral_value = position.collateral.get(collateral_asset, ZERO) * oracle.price(
            collateral_asset
        )
        cap = collateral_value / (ONE + params.ls)
        repay = desired
        for bound in (outstanding, cap):
            if bound < repay:
                repay = bound
        return repay

    def _try_fixed_spread(self, block, oracle, owner, debt_asset, collateral_asset, repay, agent_id):
        """Send one call; returns True when an event landed.

        The first form also wrapped each call in a flash loan and dropped it
        when the profit could not repay the loan fee. A call whose net profit
        is positive always repays it, since gas is never negative, so the net
        test below covers that rule.
        """
        scenario = self.scenario
        if repay <= ZERO:
            return False
        position = self.positions[owner]
        call = LiquidationCall(owner, debt_asset, collateral_asset, repay)
        try:
            receipt = execute_liquidation_call(position, call, oracle, scenario.params)
        except LiqlabError:
            return False  # the transaction would revert, so it is not sent
        gross = receipt.liquidator_profit_usd
        fees = scenario.gas_fee_usd + repay * scenario.flash_fee_rate
        net = gross - fees
        if net <= ZERO:
            return False
        self.positions[owner] = receipt.position_after
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
        return True

    def _blocked(self, owner):
        if owner in self.open_auctions:
            return True
        return (
            self.scenario.one_liquidation_per_block
            and owner in self.liquidated_this_block
        )

    # -- policies ------------------------------------------------------------

    def _act_close_factor(self, agent, block, oracle):
        params = self.scenario.params
        for owner in self.order:
            if self._blocked(owner):
                continue
            position = self.positions[owner]
            values = position_values(position, oracle, params)
            if not is_liquidatable(values):
                continue
            pair = self._choose_pair(position, oracle)
            if pair is None:
                continue
            debt_asset, collateral_asset = pair
            repay = self._capped_repay(
                position, oracle, debt_asset, collateral_asset, max_repay(values, params)
            )
            self._try_fixed_spread(
                block, oracle, owner, debt_asset, collateral_asset, repay, agent.agent_id
            )

    def _act_two_step(self, agent, block, oracle):
        params = self.scenario.params
        # pending second calls scheduled by this agent in an earlier block
        for key in [k for k in self.pending_second if k[0] == agent.agent_id]:
            planned = self.pending_second.pop(key)
            _, owner = key
            if self._blocked(owner):
                continue
            position = self.positions[owner]
            values = position_values(position, oracle, params)
            if not is_liquidatable(values):
                continue
            pair = self._choose_pair(position, oracle)
            if pair is None:
                continue
            debt_asset, collateral_asset = pair
            repay = self._capped_repay(
                position, oracle, debt_asset, collateral_asset,
                min(planned, max_repay(values, params)),
            )
            self._try_fixed_spread(
                block, oracle, owner, debt_asset, collateral_asset, repay, agent.agent_id
            )
        # new two-step plans
        for owner in self.order:
            if self._blocked(owner) or (agent.agent_id, owner) in self.pending_second:
                continue
            position = self.positions[owner]
            values = position_values(position, oracle, params)
            if not is_liquidatable(values):
                continue
            pair = self._choose_pair(position, oracle)
            if pair is None:
                continue
            debt_asset, collateral_asset = pair
            try:
                plan = optimal_repays(
                    values.c, values.d, params.threshold(collateral_asset), params
                )
            except LiqlabError:
                continue
            repay1 = self._capped_repay(
                position, oracle, debt_asset, collateral_asset, plan.repay1
            )
            if not self._try_fixed_spread(
                block, oracle, owner, debt_asset, collateral_asset, repay1, agent.agent_id
            ):
                continue
            if self.scenario.one_liquidation_per_block:
                self.pending_second[(agent.agent_id, owner)] = plan.repay2
                continue
            position = self.positions[owner]
            values = position_values(position, oracle, params)
            if not is_liquidatable(values):
                continue
            repay2 = self._capped_repay(
                position, oracle, debt_asset, collateral_asset,
                min(plan.repay2, max_repay(values, params)),
            )
            self._try_fixed_spread(
                block, oracle, owner, debt_asset, collateral_asset, repay2, agent.agent_id
            )

    def _act_auction_bidder(self, agent, block, oracle):
        params = self.scenario.params
        for owner in self.order:
            if owner in self.open_auctions:
                continue
            if self.scenario.one_liquidation_per_block and owner in self.liquidated_this_block:
                continue
            values = position_values(self.positions[owner], oracle, params)
            if not is_liquidatable(values):
                continue
            # changed in 7a852f0: a position with no collateral value left is
            # type-I bad debt, and no auction opens over its empty lot
            if values.c == ZERO:
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
            # changed in 4985693: a bid the auction refuses is an error of
            # the script, not the auction's own error
            try:
                self.open_auctions[owner] = place_bid(self.open_auctions[owner], bid)
            except LiqlabError as exc:
                raise InvalidScenarioError(
                    "agents.script",
                    f"bid at time {scripted.time} by {scripted.bidder!r} refused: {exc}",
                ) from None

    def _settle_auctions(self, block, oracle):
        params = self.scenario.params
        for owner in list(self.open_auctions):
            auction = self.open_auctions[owner]
            if check_termination(auction, block) is None:
                continue
            auction = apply_termination(auction, block)
            del self.open_auctions[owner]
            if auction.best_bid is None:
                continue  # expired worthless; position stays liquidatable
            values_now = position_values(self.positions[owner], oracle, params)
            settlement = finalize(auction, values_now)
            self.positions[owner] = _apply_settlement(
                self.positions[owner], settlement, values_now
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
        for block in range(scenario.blocks + 1):
            oracle = scenario.price_path[block]
            total = ZERO
            for owner in self.order:
                for asset, amount in self.positions[owner].collateral.items():
                    total = total + amount * oracle.price(asset)
            self.volume[block] = total
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

    Each collateral balance keeps the refund's share of the lot's current
    value, and each debt balance the unpaid share of the debt's; a share of
    zero or less empties the side.
    """

    def keep(balances, kept, total):
        if kept <= ZERO:
            return {}
        return {asset: Dec.mul_div(amount, kept, total) for asset, amount in balances.items()}

    return Position(
        owner=position.owner,
        collateral=keep(position.collateral, settlement.borrower_refund_usd, values_now.c),
        debt=keep(position.debt, values_now.d - settlement.paid_usd, values_now.d),
    )
