"""Portfolio-level risk analytics.

Covers the price-decline sensitivity scan, bad-debt classification,
unprofitable-liquidation detection, post-liquidation price-path
classification, and the stablecoin divergence statistic. Everything here is
a pure function over positions and oracle snapshots; per-borrower work only
ever accumulates into sums, so results are order-independent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (
    Asset,
    OracleSnapshot,
    Position,
    RiskParams,
    _fraction,
    is_liquidatable,
    position_values,
    priced_total,
    value_sums,
)
from .errors import EmptyPathError, PathLengthMismatchError, ZeroDebtError
from .fixed_spread import max_repay
from .fixedpoint import SCALE, Dec, ZERO, _div, _mul, _round_div


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
    """Per holder of ``target`` as collateral, as scaled ints: total
    collateral value, borrowing capacity and debt value, and the target's
    collateral value, LT-weighted collateral value and debt value (None when
    not owed). Each is rounded as ``Dec`` multiplication rounds it."""
    exposures = []
    price = oracle.price(target).raw  # fail early when the target is unpriced
    for borrower in borrowers:
        if target not in borrower.collateral:
            continue
        c, bc, d = value_sums(borrower, oracle, params)
        target_value = _mul(borrower.collateral[target].raw, price)
        target_debt = None
        if target in borrower.debt:
            target_debt = _mul(borrower.debt[target].raw, price)
        target_bc = _mul(target_value, params.threshold(target).raw)
        exposures.append((c, bc, d, target_value, target_bc, target_debt))
    return exposures


def _liquidatable_collateral(exposures: list, declines: list) -> list:
    """Per raw decline in ``declines``, which must not decrease, the sum of
    post-decline collateral value over the exposures whose post-decline
    borrowing capacity falls strictly below their debt.

    Every term ``x * decline`` is rounded half-even as ``Dec``
    multiplication rounds it. Each decline is reduced to lowest terms once
    (``core._fraction``), and every term divides by its reduced
    denominator, which rounds exactly as dividing by 10**18 does (see the
    ``core`` module docstring). For an exposure that does not owe the target,
    ``bc - R(target_bc * k) < d`` (R: that rounding) holds from some decline
    on: ``target_bc >= 0`` and R does not decrease, so the adjusted capacity
    does not rise as ``k`` does. Bisection finds that first decline exactly,
    and the exposure counts at every decline from there to the last: the
    totals are suffix sums.

    Let ``common`` be the least common multiple of the reduced
    denominators (a divisor of 10**18). When it divides ``target_value``,
    every term ``target_value * num / den`` is the exact integer
    ``(target_value // common) * (common // den) * num``, so the exposure
    adds its ``c`` and ``target_value // common`` once, at its first
    decline, and each total is ``c`` summed minus those units summed times
    the decline's multiplier. Otherwise each decline rounds the whole
    ``target_value`` on its own: half-even ties depend on the parity of the
    whole quotient, so rounding a remainder alone would not do. An exposure
    that also owes the target loses debt as well as capacity, so it is
    tested, and rounded, at every decline. Each exposure's term is at least
    0 (every decline is at most 1), so checking each total alone, in
    decline order, raises ``OverflowError`` whenever a running ``Dec`` sum
    would have.
    """
    n = len(declines)
    totals = [0] * n
    fractions = [_fraction(k) for k in declines]
    common = math.lcm(*(den for _, den in fractions))
    # what exact exposures add to every total from their first decline on
    c_from = [0] * (n + 1)
    units_from = [0] * (n + 1)
    for c, bc, d, target_value, target_bc, target_debt in exposures:
        if target_debt is None:
            first, last = 0, n
            while first < last:
                mid = (first + last) // 2
                num, den = fractions[mid]
                if bc - _round_div(target_bc * num, den) < d:
                    last = mid
                else:
                    first = mid + 1
            units, rest = divmod(target_value, common)
            if not rest:
                c_from[first] += c
                units_from[first] += units
                continue
            hits = range(first, n)
        else:
            hits = [
                i for i, (num, den) in enumerate(fractions)
                if bc - _round_div(target_bc * num, den)
                < d - _round_div(target_debt * num, den)
            ]
        for i in hits:
            num, den = fractions[i]
            totals[i] += c - _round_div(target_value * num, den)
    c_sum = units_sum = 0
    for i, (num, den) in enumerate(fractions):
        c_sum += c_from[i]
        units_sum += units_from[i]
        totals[i] += c_sum - units_sum * (common // den * num)
    return [Dec.from_raw(total) for total in totals]


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
        _target_exposures(borrowers, target, oracle, params), [decline_pct.raw]
    )[0]


def sensitivity_curve(
    borrowers: Sequence[Position],
    target: Asset,
    steps: int,
    oracle: OracleSnapshot,
    params: RiskParams,
) -> list:
    """Evaluate sensitivity at decline fractions k/steps for k = 0..steps,
    each rounded half-even to 18 digits as ``Dec`` division rounds it.

    The borrowers are valued once, and every step goes through the sweep
    that :func:`sensitivity` runs on one decline, with the same roundings.
    The declines do not decrease with ``k``, so the sweep finds by bisection
    the first step at which a borrower that does not owe the target becomes
    liquidatable, and adds it to every step from there on as a suffix sum:
    once, when the declines multiply its target value exactly (as when
    ``steps`` divides 10**10 and the target's price and amount have at most
    2 and 6 decimals, as on the bench), else rounding at each of those
    steps. It tests a borrower that owes the target at every step.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2: {steps}")
    exposures = _target_exposures(borrowers, target, oracle, params)
    scaled = Dec(steps).raw  # raises where Dec(k) / Dec(steps) would
    declines = [Dec.from_raw(_div(k * SCALE, scaled)) for k in range(steps + 1)]
    totals = _liquidatable_collateral(exposures, [decline.raw for decline in declines])
    return [
        SensitivityPoint(decline_pct=decline, liquidatable_collateral_usd=total)
        for decline, total in zip(declines, totals)
    ]


def classify_bad_debt(position: Position, fee_usd: Dec, oracle: OracleSnapshot) -> BadDebtClass:
    """Classify a position as Type I (under-collateralized), Type II (excess
    collateral below the closing fee), or not bad.

    The boundary case where the excess exactly equals the fee counts as not
    bad: the borrower breaks even on closing.
    """
    if fee_usd < ZERO:
        raise ValueError(f"fee must be >= 0: {fee_usd}")
    c = Dec.from_raw(priced_total(position.collateral, oracle))
    d = Dec.from_raw(priced_total(position.debt, oracle))
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
    """Liquidatable positions whose best single-call bonus CF*d*LS does not
    exceed the transaction fee, with that bonus.

    A bonus equal to the fee is flagged: it leaves a net profit of zero, and
    the scenario engine sends a call only when its net profit is positive.
    """
    if fee_usd < ZERO:
        raise ValueError(f"fee must be >= 0: {fee_usd}")
    out = []
    for position in positions:
        values = position_values(position, oracle, params)
        if not is_liquidatable(values):
            continue
        bonus = max_repay(values, params) * params.ls
        if bonus <= fee_usd:
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
    by the smaller price, which is ``(max - min) / min`` over the block's
    prices: ``(high - low) / low`` grows with ``high`` and shrinks as ``low``
    grows, so no pair's exact quotient exceeds that of (max, min), one of
    the pairs, and half-even rounding is monotone, so no rounded one does
    either. One asset gives 0.
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
        low = min(prices)
        block_max = (max(prices) - low) / low
        if block_max > max_diff:
            max_diff = block_max
        if block_max <= threshold:
            within += 1
    return max_diff, Dec(within) / Dec(length)
