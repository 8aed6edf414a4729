"""Optimal two-step fixed-spread liquidation strategy.

A close factor caps how much debt one call may repay. Two successive calls
lift that cap: the first repays just under the amount that would restore
health, keeping the position liquidatable, and the second repays up to the
close factor of what remains.

With collateral value C, debt value D, threshold LT and spread LS, the
health-restoring repay solves LT*(C - r*(1+LS)) = D - r:

    r* = (D - LT*C) / (1 - LT*(1+LS))

The first repay is r* minus one unit in the 18th fractional digit (the
supremum itself leaves the health factor exactly at 1, which is no longer
liquidatable), clamped to CF*D when the closed form exceeds the cap. The
second repay is CF*(D - repay1).

Profits: profit_optimal = LS*(repay1 + repay2) versus the single-call
profit_close_factor = LS*CF*D. For the unclamped case the relative gain has
the closed form ((1-CF)/CF) * (1-LT*CR) / (1-LT*(1+LS)) with CR = C/D, which
is zero when CF = 1 and grows as CR falls toward 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    Asset,
    OracleSnapshot,
    Position,
    RiskParams,
    position_values,
    spread_prerequisite,
)
from .errors import (
    InvalidParamsError,
    NotLiquidatableError,
    ZeroSecondLiquidationError,
)
from .fixed_spread import LiquidationCall, LiquidationReceipt, execute_liquidation_call
from .fixedpoint import Dec, ONE, ULP, ZERO


@dataclass(frozen=True)
class StrategyPlan:
    """Repay amounts of the two successive liquidations, in USD value."""

    repay1: Dec
    repay2: Dec
    clamped: bool  # True when the closed-form repay1 exceeded CF*D


@dataclass(frozen=True)
class StrategyProfits:
    profit_optimal: Dec
    profit_close_factor: Dec
    delta_r: Dec  # (profit_optimal - profit_close_factor) / profit_close_factor


@dataclass(frozen=True)
class MitigationAnalysis:
    """One-liquidation-per-block mitigation: minimum mining power that still
    makes the two-step strategy rational."""

    profit_o1: Dec
    profit_o2: Dec
    alpha_threshold: Dec


class TwoStepResult(NamedTuple):
    receipt1: LiquidationReceipt
    receipt2: LiquidationReceipt
    realized_profit_usd: Dec


def optimal_repays(c: Dec, d: Dec, lt: Dec, params: RiskParams) -> StrategyPlan:
    """Closed-form two-step repay amounts for a position worth (c, d).

    ``lt`` comes from the caller, not from ``params``, so it is checked here:
    InvalidParamsError unless 0 < LT < 1 and LT*(1+LS) < 1.
    """
    if not ZERO < lt < ONE:
        raise InvalidParamsError(f"liquidation threshold outside (0, 1): {lt}")
    reason = spread_prerequisite("the collateral threshold", lt, params.ls)
    if reason is not None:
        raise InvalidParamsError(reason)
    if not lt * c < d:
        raise NotLiquidatableError(f"position is healthy: LT*C = {lt * c} >= D = {d}")
    r_star = (d - lt * c) / (ONE - lt * (ONE + params.ls))
    cap = params.cf * d
    clamped = r_star > cap
    repay1 = cap if clamped else r_star - ULP
    repay2 = params.cf * (d - repay1)
    return StrategyPlan(repay1=repay1, repay2=repay2, clamped=clamped)


def strategy_profits(c: Dec, d: Dec, lt: Dec, params: RiskParams) -> StrategyProfits:
    """Profit of the two-step plan versus the single up-to-close-factor call."""
    plan = optimal_repays(c, d, lt, params)
    profit_optimal = params.ls * (plan.repay1 + plan.repay2)
    profit_close_factor = params.ls * params.cf * d
    if profit_close_factor == ZERO:
        delta_r = ZERO
    else:
        delta_r = (profit_optimal - profit_close_factor) / profit_close_factor
    return StrategyProfits(
        profit_optimal=profit_optimal,
        profit_close_factor=profit_close_factor,
        delta_r=delta_r,
    )


def closed_form_delta_r(cr: Dec, lt: Dec, params: RiskParams) -> Dec:
    """Relative profit gain of the unclamped plan: ((1-CF)/CF)*(1-LT*CR)/(1-LT*(1+LS))."""
    prefactor = (ONE - params.cf) / params.cf
    return prefactor * (ONE - lt * cr) / (ONE - lt * (ONE + params.ls))


def mitigation_threshold(
    profits: StrategyProfits, plan: StrategyPlan, params: RiskParams
) -> MitigationAnalysis:
    """Mining-power threshold above which the two-step strategy stays rational
    when only one liquidation per position is permitted per block.

    alpha_threshold = (profit_c - profit_o1) / profit_o2. A value <= 0 means
    the strategy is rational at any mining power, >= 1 means never.
    """
    if plan.repay2 <= ZERO:
        raise ZeroSecondLiquidationError("second repay is zero; threshold undefined")
    profit_o1 = params.ls * plan.repay1
    profit_o2 = params.ls * plan.repay2
    alpha = (profits.profit_close_factor - profit_o1) / profit_o2
    return MitigationAnalysis(
        profit_o1=profit_o1, profit_o2=profit_o2, alpha_threshold=alpha
    )


def execute_two_step(
    position: Position,
    debt_asset: Asset,
    collateral_asset: Asset,
    oracle: OracleSnapshot,
    params: RiskParams,
) -> TwoStepResult:
    """Realize the two-step plan on a concrete position through the
    fixed-spread engine.

    The closed forms run on the position's aggregate USD values with the
    collateral asset's threshold; both calls repay ``debt_asset`` and seize
    ``collateral_asset``, so that pair must be large enough to cover both
    legs. Engine errors propagate.
    """
    values = position_values(position, oracle, params)
    lt = params.threshold(collateral_asset)
    plan = optimal_repays(values.c, values.d, lt, params)

    receipt1 = execute_liquidation_call(
        position,
        LiquidationCall(position.owner, debt_asset, collateral_asset, plan.repay1),
        oracle,
        params,
    )
    receipt2 = execute_liquidation_call(
        receipt1.position_after,
        LiquidationCall(position.owner, debt_asset, collateral_asset, plan.repay2),
        oracle,
        params,
    )
    realized = receipt1.liquidator_profit_usd + receipt2.liquidator_profit_usd
    return TwoStepResult(receipt1=receipt1, receipt2=receipt2, realized_profit_usd=realized)
