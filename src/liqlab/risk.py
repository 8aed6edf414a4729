"""Portfolio-level risk analytics.

Covers the price-decline sensitivity scan, bad-debt classification,
unprofitable-liquidation detection, post-liquidation price-path
classification, and the stablecoin divergence statistic. Everything here is
a pure function over positions and oracle snapshots; per-borrower work only
ever accumulates into sums, so results are order-independent.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (
    Asset,
    OracleSnapshot,
    Position,
    RiskParams,
    is_liquidatable,
    position_values,
)
from .errors import EmptyPathError, PathLengthMismatchError, ZeroDebtError
from .fixedpoint import Dec, ZERO


@dataclass(frozen=True)
class SensitivityPoint:
    decline_pct: Dec
    liquidatable_collateral_usd: Dec


class BadDebtKind(enum.Enum):
    TYPE_I = "type-i"  # under-collateralized: collateral worth less than debt
    TYPE_II = "type-ii"  # excess collateral cannot cover the closing fee
    NOT_BAD = "not-bad"


@dataclass(frozen=True)
class BadDebtClass:
    kind: BadDebtKind
    locked_collateral_usd: Dec


class PricePathCategory(enum.Enum):
    HORIZONTAL = "horizontal"
    RISE = "rise"
    FALL = "fall"
    RISE_FALL = "rise-fall"
    FALL_RISE = "fall-rise"
    RISE_FLUCTUATION = "rise-fluctuation"
    FALL_FLUCTUATION = "fall-fluctuation"


def _target_exposures(
    borrowers: Iterable[Position], target: Asset, oracle: OracleSnapshot, params: RiskParams
) -> list:
    """Per holder of ``target`` as collateral: total collateral value,
    borrowing capacity and debt value, and the target's collateral value,
    LT-weighted collateral value and debt value (None when not owed)."""
    exposures = []
    price = oracle.price(target)  # fail early when the target is unpriced
    for borrower in borrowers:
        if target not in borrower.collateral:
            continue
        values = position_values(borrower, oracle, params)
        target_value = borrower.collateral[target] * price
        target_debt = borrower.debt[target] * price if target in borrower.debt else None
        exposures.append(
            (
                values.c,
                values.bc,
                values.d,
                target_value,
                target_value * params.threshold(target),
                target_debt,
            )
        )
    return exposures


def _liquidatable_collateral(exposures: list, decline_pct: Dec) -> Dec:
    lc = ZERO
    for c, bc, d, target_value, target_bc, target_debt in exposures:
        bc_adj = bc - target_bc * decline_pct
        d_adj = d if target_debt is None else d - target_debt * decline_pct
        if bc_adj < d_adj:
            lc = lc + (c - target_value * decline_pct)
    return lc


def sensitivity(
    borrowers: Iterable[Position],
    target: Asset,
    decline_pct: Dec,
    oracle: OracleSnapshot,
    params: RiskParams,
) -> Dec:
    """Collateral value that becomes liquidatable when ``target`` declines by
    ``decline_pct``.

    Only borrowers holding the target as collateral are examined. For each,
    the collateral value, borrowing capacity, and (when the borrower also
    owes the target) debt are adjusted by the decline; the post-decline
    collateral value is accumulated whenever the adjusted borrowing capacity
    falls strictly below the adjusted debt.
    """
    if not ZERO <= decline_pct <= Dec(1):
        raise ValueError(f"decline percentage outside [0, 1]: {decline_pct}")
    return _liquidatable_collateral(
        _target_exposures(borrowers, target, oracle, params), decline_pct
    )


def sensitivity_curve(
    borrowers: Sequence[Position],
    target: Asset,
    steps: int,
    oracle: OracleSnapshot,
    params: RiskParams,
) -> list:
    """Evaluate sensitivity at decline fractions k/steps for k = 0..steps.

    The borrowers are valued once; each step only scales the target's
    shares by the decline, with the same roundings as :func:`sensitivity`.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2: {steps}")
    exposures = _target_exposures(borrowers, target, oracle, params)
    points = []
    for k in range(steps + 1):
        decline = Dec(k) / Dec(steps)
        points.append(
            SensitivityPoint(
                decline_pct=decline,
                liquidatable_collateral_usd=_liquidatable_collateral(exposures, decline),
            )
        )
    return points


def classify_bad_debt(position: Position, fee_usd: Dec, oracle: OracleSnapshot) -> BadDebtClass:
    """Classify a position as Type I (under-collateralized), Type II (excess
    collateral below the closing fee), or not bad.

    The boundary case where the excess exactly equals the fee counts as not
    bad: the borrower breaks even on closing.
    """
    if fee_usd < ZERO:
        raise ValueError(f"fee must be >= 0: {fee_usd}")
    c = ZERO
    for asset, amount in position.collateral.items():
        c = c + amount * oracle.price(asset)
    d = ZERO
    for asset, amount in position.debt.items():
        d = d + amount * oracle.price(asset)
    if d == ZERO:
        raise ZeroDebtError(f"position {position.owner!r} has no debt")
    if c < d:
        return BadDebtClass(kind=BadDebtKind.TYPE_I, locked_collateral_usd=c)
    if c - d < fee_usd:
        return BadDebtClass(kind=BadDebtKind.TYPE_II, locked_collateral_usd=c)
    return BadDebtClass(kind=BadDebtKind.NOT_BAD, locked_collateral_usd=ZERO)


def scan_unprofitable(
    positions: Iterable[Position],
    fee_usd: Dec,
    oracle: OracleSnapshot,
    params: RiskParams,
) -> list:
    """Liquidatable positions whose best single-call bonus CF*d*LS cannot
    cover the transaction fee, with that bonus."""
    if fee_usd < ZERO:
        raise ValueError(f"fee must be >= 0: {fee_usd}")
    out = []
    for position in positions:
        values = position_values(position, oracle, params)
        if not is_liquidatable(values):
            continue
        bonus = params.cf * values.d * params.ls
        if bonus < fee_usd:
            out.append((position, bonus))
    return out


def classify_price_path(path: Sequence[Dec], liquidation_price: Dec) -> PricePathCategory:
    """Classify a post-liquidation price path against the liquidation price.

    The path is reduced to runs of sign(p - liquidation_price); observations
    equal to the liquidation price are absorbed into the neighbouring runs.
    No runs is horizontal, one run is a rise or fall, two runs a rise-fall or
    fall-rise, and three or more runs a fluctuation named after the first run.
    """
    if not path:
        raise EmptyPathError("price path is empty")
    if liquidation_price <= ZERO:
        raise ValueError(f"liquidation price must be > 0: {liquidation_price}")
    runs = []
    for price in path:
        if price > liquidation_price:
            sign = 1
        elif price < liquidation_price:
            sign = -1
        else:
            continue
        if not runs or runs[-1] != sign:
            runs.append(sign)
    if not runs:
        return PricePathCategory.HORIZONTAL
    if len(runs) == 1:
        return PricePathCategory.RISE if runs[0] > 0 else PricePathCategory.FALL
    if len(runs) == 2:
        return PricePathCategory.RISE_FALL if runs[0] > 0 else PricePathCategory.FALL_RISE
    return (
        PricePathCategory.RISE_FLUCTUATION
        if runs[0] > 0
        else PricePathCategory.FALL_FLUCTUATION
    )


def stablecoin_divergence(
    paths: Mapping[Asset, Sequence[Dec]], threshold: Dec
) -> tuple:
    """Largest pairwise relative price difference across the series, and the
    fraction of blocks where that per-block difference stays within
    ``threshold``.

    Per block the difference is max over asset pairs of |p_i - p_j| divided
    by the smaller price.
    """
    if threshold <= ZERO:
        raise ValueError(f"threshold must be > 0: {threshold}")
    series = list(paths.values())
    if not series or not series[0]:
        raise PathLengthMismatchError("need at least one non-empty price series")
    length = len(series[0])
    for s in series:
        if len(s) != length:
            raise PathLengthMismatchError(
                f"price series lengths differ: {len(s)} != {length}"
            )
    max_diff = ZERO
    within = 0
    for block in range(length):
        prices = [s[block] for s in series]
        for price in prices:
            if price <= ZERO:
                raise ValueError(f"prices must be > 0, got {price}")
        block_max = ZERO
        for a, b in itertools.combinations(prices, 2):
            low, high = (a, b) if a <= b else (b, a)
            diff = (high - low) / low
            if diff > block_max:
                block_max = diff
        if block_max > max_diff:
            max_diff = block_max
        if block_max <= threshold:
            within += 1
    return max_diff, Dec(within) / Dec(length)
