"""Atomic fixed-spread liquidation engine.

A liquidator repays part of a borrower's debt and claims collateral worth
``repay * (1 + LS)`` at oracle prices. Repay amounts are specified in USD
value and converted to native units at the snapshot price, which keeps
cross-asset arithmetic exact. A call that cannot be satisfied fails
atomically: the position is returned untouched (no partial seizure, no
clamping of the seized amount).

The protocol's rules live in one pure function on scaled integers
(``Dec.raw``), ``_liquidation_call``. It takes the borrower's name, its raw
borrowing capacity and debt value, the asset pair, the raw native balances
of the two assets (the debt owed in the debt asset and the collateral
available in the collateral asset) and a raw repay. It returns the raw
seized value, the native amount seized and the native amount repaid, or
the refusal (one of four ``LiqlabError`` subclasses) as a value; the new
balances are the two inputs less the two native amounts. It makes exactly
the roundings of the ``Dec`` expressions it stands for (``fixedpoint._mul``
and ``_div``: half-even at the 18th digit) and checks every intermediate
against 2**255 where, and in the order in which, those expressions check
it, so its results, its refusals and their messages, and its
``OverflowError`` messages are the ``Dec`` form's. It reads the two prices
from the ``OracleSnapshot`` where the ``Dec`` form reads them, so a missing
price is raised in that form's order too. It builds a ``Dec`` only for a
refusal's message. The scenario engine calls it on its raw book, cached raw
sums and the block's snapshot, and writes the two new balances into the
book itself.

:func:`check_liquidation_call` is its ``Dec`` face: given the position's
values it returns the receipt, with the position after the call, or the
refusal, so a caller that already holds the values neither re-values the
position nor catches.
:func:`execute_liquidation_call` is the raising form: it values the
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
    position_values,
)
from .errors import (
    CloseFactorExceededError,
    CollateralShortfallError,
    DebtAssetShortfallError,
    LiqlabError,
    NotLiquidatableError,
)
from .fixedpoint import SCALE, Dec, ZERO, _checked, _div, _mul


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


def _max_repay(d: int, cf: int) -> int:
    """Scaled-int close-factor cap CF*d, rounded and checked as ``cf * d`` is."""
    return _mul(cf, d)


def max_repay(values: PositionValues, params: RiskParams) -> Dec:
    """Close-factor cap on a single call: CF * total debt value."""
    return Dec.from_raw(_max_repay(values.d.raw, params.cf.raw))


def _liquidation_call(
    owner: str,
    bc: int,
    d: int,
    debt_asset: Asset,
    collateral_asset: Asset,
    debt_native: int,
    available: int,
    repay: int,
    oracle: OracleSnapshot,
    params: RiskParams,
):
    """The protocol's rules on scaled integers: ``(seized_value,
    seized_native, repaid_native)`` for a call on ``owner``'s position
    repaying the raw value ``repay`` of ``debt_asset`` and seizing
    ``collateral_asset``, or the refusal, unraised.

    ``bc`` and ``d`` are the position's raw borrowing capacity and debt
    value; ``debt_native`` and ``available`` are its raw native balances of
    the debt asset and the collateral asset (0 for an asset it does not
    owe or hold). The call leaves ``debt_native - repaid_native`` and
    ``available - seized_native``, both non-negative. Each asset's price is
    read from ``oracle`` only when the ``Dec`` form read it: the debt
    asset's once the position is liquidatable, the collateral asset's once
    the repay passes the cap and shortfall checks. See the module docstring
    for the roundings and checks. A refusal's message is built only when it
    is returned.
    """
    if not (d > 0 and bc < d):  # is_liquidatable, on the raws
        return NotLiquidatableError(
            f"position {owner!r} is not liquidatable "
            f"(bc={Dec.from_raw(bc)}, d={Dec.from_raw(d)})"
        )

    debt_price = oracle.price(debt_asset).raw
    outstanding = _mul(debt_native, debt_price)

    cap = _max_repay(outstanding if params.cf_per_debt_asset else d, params.cf.raw)
    if repay > cap:
        return CloseFactorExceededError(
            f"repay {Dec.from_raw(repay)} exceeds close-factor cap {Dec.from_raw(cap)}"
        )
    if repay > outstanding:
        return DebtAssetShortfallError(
            f"repay {Dec.from_raw(repay)} exceeds outstanding "
            f"{debt_asset.symbol} debt value {Dec.from_raw(outstanding)}"
        )

    collateral_price = oracle.price(collateral_asset).raw
    seized_value = _mul(repay, _checked(SCALE + params.ls.raw))
    seized_native = _div(seized_value, collateral_price)
    if seized_native > available:
        return CollateralShortfallError(
            f"seizing {Dec.from_raw(seized_native)} {collateral_asset.symbol} exceeds "
            f"available {Dec.from_raw(available)}"
        )

    # repaying the full outstanding value must clear the balance exactly, so
    # cap the native reduction at the stored amount (division can round up by
    # one unit in the 18th digit)
    repaid_native = _div(repay, debt_price)
    if repaid_native > debt_native:
        repaid_native = debt_native
    return seized_value, seized_native, repaid_native


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
    repay = call.repay_value_usd
    debt_asset, collateral_asset = call.debt_asset, call.collateral_asset
    debt_native = position.debt.get(debt_asset, ZERO).raw
    available = position.collateral.get(collateral_asset, ZERO).raw
    outcome = _liquidation_call(
        position.owner,
        values.bc.raw,
        values.d.raw,
        debt_asset,
        collateral_asset,
        debt_native,
        available,
        repay.raw,
        oracle,
        params,
    )
    if isinstance(outcome, LiqlabError):
        return outcome
    seized_value, seized_native, repaid_native = outcome
    new_debt = dict(position.debt)
    new_debt[debt_asset] = Dec.from_raw(debt_native - repaid_native)
    new_collateral = dict(position.collateral)
    new_collateral[collateral_asset] = Dec.from_raw(available - seized_native)
    position_after = Position(owner=position.owner, collateral=new_collateral, debt=new_debt)
    return LiquidationReceipt(
        repaid_value_usd=repay,
        seized_value_usd=Dec.from_raw(seized_value),
        seized_native=Dec.from_raw(seized_native),
        liquidator_profit_usd=Dec.from_raw(seized_value - repay.raw),
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
