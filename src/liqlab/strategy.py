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

The plan is computed on scaled integers (``Dec.raw``) by
``_optimal_repays``, which rounds half-even and checks against 2**255
exactly where, and in the order in which, the ``Dec`` expressions above
would; :func:`optimal_repays` is its ``Dec`` face, and the scenario engine
calls it on its cached raw sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    Asset,
    OracleSnapshot,
    Position,
    RiskParams,
    _spread_product,
    position_values,
    spread_prerequisite,
)
from .errors import (
    InvalidParamsError,
    LiqlabError,
    NotLiquidatableError,
    ZeroSecondLiquidationError,
)
from .fixed_spread import (
    LiquidationCall,
    LiquidationReceipt,
    _max_repay,
    execute_liquidation_call,
)
from .fixedpoint import SCALE, Dec, ONE, ZERO, _checked, _mul, _round_div


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


def _optimal_repays(c: int, d: int, lt: int, params: RiskParams):
    """:func:`optimal_repays` on scaled integers: the raw ``(repay1, repay2,
    clamped)`` for raw values ``c``, ``d`` and threshold ``lt``, or the
    ``LiqlabError`` refusal, unraised.

    Every intermediate is rounded and checked as its ``Dec`` expression in
    the formulas above is; a refusal's message is built only when it is
    returned.
    """
    if not 0 < lt < SCALE:
        return InvalidParamsError(f"liquidation threshold outside (0, 1): {Dec.from_raw(lt)}")
    product = _spread_product(lt, params.ls.raw)
    if product >= SCALE:
        reason = spread_prerequisite("the collateral threshold", Dec.from_raw(lt), params.ls)
        return InvalidParamsError(reason)
    lt_c = _mul(lt, c)
    if not lt_c < d:
        return NotLiquidatableError(
            f"position is healthy: LT*C = {Dec.from_raw(lt_c)} >= D = {Dec.from_raw(d)}"
        )
    # r* is compared with the cap as a raw quotient, rounded as Dec division
    # rounds it: a quotient past the Dec range (LT*(1+LS) within a few units
    # of 1) exceeds the cap, so it gives the clamped plan instead of an
    # OverflowError. Both operands are positive here.
    numerator = _checked(d - lt_c)
    denominator = _checked(SCALE - product)
    r_star = _round_div(numerator * SCALE, denominator)
    cap = _max_repay(d, params.cf.raw)
    clamped = r_star > cap
    repay1 = cap if clamped else _checked(_checked(r_star) - 1)
    repay2 = _max_repay(_checked(d - repay1), params.cf.raw)
    return repay1, repay2, clamped


def optimal_repays(c: Dec, d: Dec, lt: Dec, params: RiskParams) -> StrategyPlan:
    """Closed-form two-step repay amounts for a position worth (c, d).

    ``lt`` comes from the caller, not from ``params``, so it is checked here:
    InvalidParamsError unless 0 < LT < 1 and LT*(1+LS) < 1. A healthy
    position (LT*C >= D) is a NotLiquidatableError.
    """
    plan = _optimal_repays(c.raw, d.raw, lt.raw, params)
    if isinstance(plan, LiqlabError):
        raise plan
    repay1, repay2, clamped = plan
    return StrategyPlan(
        repay1=Dec.from_raw(repay1), repay2=Dec.from_raw(repay2), clamped=clamped
    )


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
    the strategy is rational at any mining power, >= 1 means never. The
    threshold is undefined, and ZeroSecondLiquidationError is raised, when
    the second call repays nothing or earns nothing (LS = 0, say).
    """
    if plan.repay2 <= ZERO:
        raise ZeroSecondLiquidationError("second repay is zero; threshold undefined")
    profit_o1 = params.ls * plan.repay1
    profit_o2 = params.ls * plan.repay2
    if profit_o2 == ZERO:
        raise ZeroSecondLiquidationError("second liquidation earns nothing; threshold undefined")
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
