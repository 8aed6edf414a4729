"""Domain types and position-health math for over-collateralized lending.

All money amounts are ``Dec`` values. Collateral and debt balances are kept
in native asset units; USD values are obtained through an oracle snapshot.
Functions here are pure and never mutate their inputs.

Positions are valued on scaled integers (``Dec.raw``). :func:`value_sums`
values one into raw ``(c, bc, d)``, collateral first, and
:func:`priced_total` values one side's amounts; :func:`position_values`
and ``risk``'s ``sensitivity`` and ``classify_bad_debt`` go through them.
Both are the ``Dec`` loop ``value = amount * price; c = c + value; bc = bc
+ value * LT`` written on raws with ``fixedpoint._mul``: each asset's
value is ``amount * price`` rounded half-even to 18 digits, each ``bc``
term is that rounded value times the asset's LT, rounded again, and the
sums are exact. Asset by asset they look the price up, check the value and
the running sum against 2**255, and only then look the threshold up, so a
missing price (``MissingPriceError``), an overflow and a missing threshold
(``MissingThresholdError``) are raised where the ``Dec`` loop raises them,
with its messages. Each ``bc`` term is at most its value, so ``bc`` never
passes ``c`` and needs no check of its own.

:func:`revalue` is the scenario engine's kernel and the one loop here that
writes half-even rounding out by hand, since it is the engine's hot path.
It makes the same roundings one term at a time: the engine keeps each
term's rounded values and each position's sums, and when a price moves it
re-rounds only that asset's terms and adds the differences, which are
exact, so its sums are those of :func:`value_sums`. It reads each price
and threshold as a fraction in lowest terms (:func:`_fraction`), as the
risk sweep reads its declines.

Dividing by the reduced denominator is exact, not an approximation, and is
faster: a price with at most 2 decimals, or a threshold such as 0.8 = 4/5,
has a denominator of at most 100, which CPython divides by in one pass
instead of long division by 10**18. Write the raw price ``P = n*g`` and
``10**18 = d*g``, with ``g`` their greatest common divisor. Then
``divmod(a*n, d) == (q, r)`` exactly when ``divmod(a*P, 10**18) == (q,
r*g)``, and ``2*r > d`` exactly when ``2*r*g > 10**18`` (likewise for
``==``). So every quotient, every half-even rounding and every tie is the
one the division by 10**18 makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Mapping, Optional

from .errors import MissingPriceError, MissingThresholdError
from .fixedpoint import SCALE, Dec, ZERO, ONE, _BOUND, _checked, _mul


@dataclass(frozen=True)
class Asset:
    """A currency, identified by its symbol alone: every amount is read in
    native units with 18 decimal places, so no rule reads a token's own
    decimals.

    Assets key every balance, price and threshold mapping, so the hash of
    the symbol is computed once, on construction. A pickled asset is
    rebuilt from its symbol, so its hash is that of the process that loads
    it.
    """

    symbol: str

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("asset symbol must be non-empty")
        object.__setattr__(self, "_hash", hash(self.symbol))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Asset, (self.symbol,))


@dataclass(frozen=True)
class OracleSnapshot:
    """Per-asset USD prices at one block. Every price must be positive."""

    prices: Mapping[Asset, Dec]

    def __post_init__(self):
        object.__setattr__(self, "prices", dict(self.prices))
        for asset, price in self.prices.items():
            if price <= ZERO:
                raise ValueError(f"oracle price for {asset.symbol} must be > 0")

    @classmethod
    def _of_checked(cls, prices: Mapping[Asset, Dec]) -> "OracleSnapshot":
        """A snapshot of a copy of ``prices``, which the caller has already
        checked to be positive, built without checking them again."""
        snapshot = object.__new__(cls)
        object.__setattr__(snapshot, "prices", dict(prices))
        return snapshot

    def price(self, asset: Asset) -> Dec:
        try:
            return self.prices[asset]
        except KeyError:
            raise MissingPriceError(asset.symbol) from None


def _spread_product(threshold: int, ls: int) -> int:
    """Scaled-int LT*(1+LS), rounded and checked as the ``Dec`` expression
    ``threshold * (ONE + ls)`` is."""
    return _mul(threshold, _checked(SCALE + ls))


def spread_prerequisite(subject: str, threshold: Dec, ls: Dec) -> Optional[str]:
    """None when LT*(1+LS) < 1 strictly, else the reason, naming ``subject``.

    This is the prerequisite for a fixed-spread liquidation to be able to
    raise the health factor. The product is computed on scaled integers
    (:func:`_spread_product`); the reason is built only when it fails.
    """
    product = _spread_product(threshold.raw, ls.raw)
    if product < SCALE:
        return None
    return (
        f"LT*(1+LS) must be < 1: {subject} has {threshold}*(1+{ls}) = "
        f"{Dec.from_raw(product)}"
    )


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
        if amount > ZERO:  # the usual case first: one comparison
            cleaned[asset] = amount
        elif amount < ZERO:
            raise ValueError(f"negative {name} amount for {asset.symbol}: {amount}")
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

    @classmethod
    def _of_checked(cls, owner: str, collateral: dict, debt: dict) -> "Position":
        """A position that holds the dicts ``collateral`` and ``debt``
        themselves, which the caller has already checked to hold only
        positive amounts, built without checking or copying them again: it
        equals ``Position(owner, collateral, debt)``."""
        position = object.__new__(cls)
        position.__dict__.update(owner=owner, collateral=collateral, debt=debt)
        return position


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


def _fraction(raw: int) -> tuple:
    """``raw / 10**18`` in lowest terms, as ``(num, den)``; :func:`revalue`
    rounds by dividing by ``den``, which divides 10**18."""
    common = gcd(raw, SCALE)
    return raw // common, SCALE // common


def revalue(terms, price, threshold=None) -> bool:
    """The valuation kernel, term by term: re-round each of one asset's terms
    at ``price`` and add the change to its owner's sums; return whether a
    sum it changed reached 2**255.

    A collateral term is ``[sums, raw amount, value, weighted]`` and a debt
    term ``[sums, raw amount, value]``, where ``sums`` is the owner's
    ``[c, bc, d]``; a collateral term takes its asset's ``threshold``, a
    debt term none. ``value`` and ``weighted`` are the rounded
    ``amount*price`` and ``value*LT`` that :func:`value_sums` adds for the
    term, with the same roundings, so sums kept by these exact differences
    equal its sums. ``price`` and ``threshold`` are fractions ``(num, den)``
    in lowest terms (:func:`_fraction`). A new term starts at 0, and an
    emptied one (amount 0) ends at 0. Overflow is left to the caller: the
    intermediate sums of an update in which several assets move are not the
    ``Dec`` loop's, so on True it values the positions with
    :func:`value_sums`, which raises where that loop does.
    """
    num, den = price
    over = False
    if threshold is None:
        for term in terms:
            sums, amount, old = term
            value, rest = divmod(amount * num, den)
            rest += rest
            if rest > den or (rest == den and value & 1):
                value += 1
            term[2] = value
            d = sums[2] = sums[2] + value - old
            if d >= _BOUND:
                over = True
        return over
    lt_num, lt_den = threshold
    for term in terms:
        sums, amount, old, old_weighted = term
        value, rest = divmod(amount * num, den)
        rest += rest
        if rest > den or (rest == den and value & 1):
            value += 1
        weighted, rest = divmod(value * lt_num, lt_den)
        rest += rest
        if rest > lt_den or (rest == lt_den and weighted & 1):
            weighted += 1
        term[2] = value
        term[3] = weighted
        c = sums[0] = sums[0] + value - old
        sums[1] += weighted - old_weighted
        if c >= _BOUND:
            over = True
    return over


def priced_total(amounts: Mapping[Asset, Dec], oracle: OracleSnapshot) -> int:
    """Scaled-int USD value of native ``amounts``: the sum of amount*price,
    each product rounded half-even as ``Dec`` multiplication rounds it."""
    total = 0
    for asset, amount in amounts.items():
        total = _checked(total + _mul(amount.raw, oracle.price(asset).raw))
    return total


def value_sums(position: Position, oracle: OracleSnapshot, params: RiskParams) -> tuple:
    """Scaled-int ``(c, bc, d)`` of a position at the snapshot, collateral
    first: the ``Dec`` loop on raws."""
    c = bc = 0
    for asset, amount in position.collateral.items():
        value = _mul(amount.raw, oracle.price(asset).raw)
        c = _checked(c + value)
        bc += _mul(value, params.threshold(asset).raw)
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
