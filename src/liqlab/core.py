"""Domain types and position-health math for over-collateralized lending.

All money amounts are ``Dec`` values. Collateral and debt balances are kept
in native asset units; USD values are obtained through an oracle snapshot.
Functions here are pure and never mutate their inputs.

Every valuation goes through one kernel, :func:`value_sums`, which returns a
position's collateral value ``c``, borrowing capacity ``bc`` and debt value
``d`` as scaled integers (``Dec.raw``), without building a ``Dec`` per term.
It makes exactly the roundings that ``Dec`` arithmetic makes: each asset's
value is ``amount * price`` rounded half-even to 18 digits, each ``bc`` term
is that rounded value times the asset's LT, rounded again, and the sums are
exact integer additions. Its results therefore equal, digit for digit,
those of the ``Dec`` loop ``value = amount * price; c = c + value;
bc = bc + value * LT``.

Overflow stays explicit. That ``Dec`` loop checks every product and partial
sum against 2**255. Here every term is non-negative and each ``bc`` term is
at most its value, so every intermediate is at most the running ``c`` (or
``d``). Checking the running sum after each asset therefore raises
``OverflowError`` exactly where the ``Dec`` loop did, before the next
asset's price or threshold is looked up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import MissingPriceError, MissingThresholdError
from .fixedpoint import SCALE, Dec, ZERO, ONE, _checked, _round_div


@dataclass(frozen=True)
class Asset:
    """A currency identified by symbol; ``decimals`` is native-unit metadata."""

    symbol: str
    decimals: int = 18

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("asset symbol must be non-empty")
        if not 0 <= self.decimals <= 18:
            raise ValueError(f"asset decimals out of range [0, 18]: {self.decimals}")


@dataclass(frozen=True)
class OracleSnapshot:
    """Per-asset USD prices at one block. Every price must be positive."""

    prices: Mapping[Asset, Dec]

    def __post_init__(self):
        object.__setattr__(self, "prices", dict(self.prices))
        for asset, price in self.prices.items():
            if price <= ZERO:
                raise ValueError(f"oracle price for {asset.symbol} must be > 0")

    def price(self, asset: Asset) -> Dec:
        try:
            return self.prices[asset]
        except KeyError:
            raise MissingPriceError(asset.symbol) from None


def spread_prerequisite(subject: str, threshold: Dec, ls: Dec) -> Optional[str]:
    """None when LT*(1+LS) < 1 strictly, else the reason, naming ``subject``.

    This is the prerequisite for a fixed-spread liquidation to be able to
    raise the health factor.
    """
    product = threshold * (ONE + ls)
    if product < ONE:
        return None
    return f"LT*(1+LS) must be < 1: {subject} has {threshold}*(1+{ls}) = {product}"


@dataclass(frozen=True)
class RiskParams:
    """Per-asset liquidation thresholds plus protocol-level spread and close factor.

    Construction enforces the range invariants (0 < LT < 1, LS >= 0,
    0 < CF <= 1) and then, asset by asset in symbol order, the validity
    prerequisite LT*(1+LS) < 1 (see :func:`spread_prerequisite`), so an
    invalid set of parameters cannot exist.

    ``cf_per_debt_asset`` switches the close-factor cap from the aggregate
    debt value to the outstanding value of the repaid debt asset.
    """

    lt: Mapping[Asset, Dec]
    ls: Dec
    cf: Dec
    cf_per_debt_asset: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lt", dict(self.lt))
        for asset, threshold in self.lt.items():
            if not ZERO < threshold < ONE:
                raise ValueError(
                    f"liquidation threshold for {asset.symbol} outside (0, 1): {threshold}"
                )
        if self.ls < ZERO:
            raise ValueError(f"liquidation spread must be >= 0: {self.ls}")
        if not ZERO < self.cf <= ONE:
            raise ValueError(f"close factor outside (0, 1]: {self.cf}")
        for asset in sorted(self.lt, key=lambda a: a.symbol):
            reason = spread_prerequisite(f"asset {asset.symbol}", self.lt[asset], self.ls)
            if reason is not None:
                raise ValueError(reason)

    def threshold(self, asset: Asset) -> Dec:
        try:
            return self.lt[asset]
        except KeyError:
            raise MissingThresholdError(asset.symbol) from None


def _clean_amounts(name: str, amounts: Mapping[Asset, Dec]) -> dict:
    cleaned = {}
    for asset, amount in amounts.items():
        if amount < ZERO:
            raise ValueError(f"negative {name} amount for {asset.symbol}: {amount}")
        if amount > ZERO:
            cleaned[asset] = amount
    return cleaned


@dataclass(frozen=True)
class Position:
    """A borrower's collateral and debt balances in native units.

    Zero-valued entries are dropped on construction so two positions with
    the same economic content compare equal.
    """

    owner: str
    collateral: Mapping[Asset, Dec] = field(default_factory=dict)
    debt: Mapping[Asset, Dec] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "collateral", _clean_amounts("collateral", self.collateral))
        object.__setattr__(self, "debt", _clean_amounts("debt", self.debt))


@dataclass(frozen=True)
class PositionValues:
    """USD valuation of a position: total collateral, total debt, borrowing capacity."""

    c: Dec
    d: Dec
    bc: Dec

    def __post_init__(self):
        if self.c < ZERO or self.d < ZERO:
            raise ValueError("position values must be non-negative")
        if not ZERO <= self.bc <= self.c:
            raise ValueError(f"borrowing capacity outside [0, c]: bc={self.bc}, c={self.c}")

    @classmethod
    def from_sums(cls, sums: tuple) -> "PositionValues":
        """Wrap the raw ``(c, bc, d)`` that :func:`value_sums` returns."""
        c, bc, d = sums
        return cls(c=Dec.from_raw(c), d=Dec.from_raw(d), bc=Dec.from_raw(bc))


def priced_total(amounts: Mapping[Asset, Dec], oracle: OracleSnapshot) -> int:
    """Scaled-int USD value of native ``amounts``: the sum of amount*price,
    each product rounded half-even as ``Dec`` multiplication rounds it."""
    total = 0
    for asset, amount in amounts.items():
        total = _checked(total + _round_div(amount.raw * oracle.price(asset).raw, SCALE))
    return total


def value_sums(position: Position, oracle: OracleSnapshot, params: RiskParams) -> tuple:
    """The valuation kernel: scaled-int ``(c, bc, d)`` of a position at the
    snapshot, with c = sum(col*price), bc = sum(col*price*LT) and
    d = sum(debt*price); see the module docstring for its roundings."""
    c = bc = 0
    for asset, amount in position.collateral.items():
        value = _round_div(amount.raw * oracle.price(asset).raw, SCALE)
        c = _checked(c + value)
        bc += _round_div(value * params.threshold(asset).raw, SCALE)
    return c, bc, priced_total(position.debt, oracle)


def position_values(position: Position, oracle: OracleSnapshot, params: RiskParams) -> PositionValues:
    """Value a position at the snapshot: c = sum(col*price), d = sum(debt*price),
    bc = sum(col*price*LT)."""
    return PositionValues.from_sums(value_sums(position, oracle, params))


def collateralization_ratio(values: PositionValues) -> Optional[Dec]:
    """c/d, or None when the position has no debt."""
    if values.d == ZERO:
        return None
    return values.c / values.d


def health_factor(values: PositionValues) -> Optional[Dec]:
    """bc/d, or None when the position has no debt (treated as healthy)."""
    if values.d == ZERO:
        return None
    return values.bc / values.d


def is_liquidatable(values: PositionValues) -> bool:
    """True iff the position has debt and its health factor is strictly below 1.

    Compares bc < d directly, which is the exact form of bc/d < 1 and avoids
    the division's rounding at the boundary.
    """
    return values.d > ZERO and values.bc < values.d
