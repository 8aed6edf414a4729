"""Atomic fixed-spread liquidation engine.

A liquidator repays part of a borrower's debt and claims collateral worth
``repay * (1 + LS)`` at oracle prices. Repay amounts are specified in USD
value and converted to native units at the snapshot price, which keeps
cross-asset arithmetic exact. A call that cannot be satisfied fails
atomically: the position is returned untouched (no partial seizure, no
clamping of the seized amount).

The protocol's rules live in one pure function, :func:`check_liquidation_call`.
Given the position's values, it returns the receipt or the refusal (one of
four ``LiqlabError`` subclasses) as a value, so a caller that already holds
the values, such as the scenario engine, neither re-values the position nor
catches. :func:`execute_liquidation_call` is the raising form: it values the
position, checks the call and raises the refusal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Asset,
    OracleSnapshot,
    Position,
    PositionValues,
    RiskParams,
    is_liquidatable,
    position_values,
)
from .errors import (
    CloseFactorExceededError,
    CollateralShortfallError,
    DebtAssetShortfallError,
    LiqlabError,
    NotLiquidatableError,
)
from .fixedpoint import Dec, ONE, ZERO


@dataclass(frozen=True)
class LiquidationCall:
    """A liquidator's request: repay ``repay_value_usd`` of ``debt_asset`` and
    seize ``collateral_asset``."""

    borrower: str
    debt_asset: Asset
    collateral_asset: Asset
    repay_value_usd: Dec

    def __post_init__(self):
        if self.repay_value_usd <= ZERO:
            raise ValueError(f"repay value must be > 0: {self.repay_value_usd}")


@dataclass(frozen=True)
class LiquidationReceipt:
    repaid_value_usd: Dec
    seized_value_usd: Dec
    seized_native: Dec
    liquidator_profit_usd: Dec
    position_after: Position


def max_repay(values: PositionValues, params: RiskParams) -> Dec:
    """Close-factor cap on a single call: CF * total debt value."""
    return params.cf * values.d


def check_liquidation_call(
    position: Position,
    values: PositionValues,
    call: LiquidationCall,
    oracle: OracleSnapshot,
    params: RiskParams,
) -> LiquidationReceipt | LiqlabError:
    """The protocol's answer to one fixed-spread call, without raising.

    ``values`` must be ``position_values(position, oracle, params)``; the
    caller passes them so a position it has valued already is not valued
    again. Returns the receipt, or the refusal unraised: a
    NotLiquidatableError, CloseFactorExceededError, DebtAssetShortfallError
    or CollateralShortfallError. Any other error (a missing price, say) is
    raised. The input position is never changed.
    """
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

    # repaying the full outstanding value must clear the balance exactly, so
    # cap the native reduction at the stored amount (division can round up by
    # one unit in the 18th digit)
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


def execute_liquidation_call(
    position: Position,
    call: LiquidationCall,
    oracle: OracleSnapshot,
    params: RiskParams,
) -> LiquidationReceipt:
    """Apply one fixed-spread liquidation call and return the receipt.

    Values the position and raises the refusal that
    :func:`check_liquidation_call` returns, if any; refusal leaves the input
    position untouched.
    """
    outcome = check_liquidation_call(
        position, position_values(position, oracle, params), call, oracle, params
    )
    if isinstance(outcome, LiqlabError):
        raise outcome
    return outcome
