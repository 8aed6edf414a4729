"""Domain types and position-health math for over-collateralized lending.

All money amounts are ``Dec`` values. Collateral and debt balances are kept
in native asset units; USD values are obtained through an oracle snapshot.
Functions here are pure and never mutate their inputs.

Every valuation goes through one kernel, :func:`sum_side`, which values one
side of a position, its collateral or its debt, as scaled integers
(``Dec.raw``), without building a ``Dec`` per term. On the collateral side
it returns the collateral value ``c`` and the borrowing capacity ``bc``; on
the debt side, which has no thresholds, the debt value ``d``.
:func:`value_sums` values both sides, collateral first, into ``(c, bc,
d)``; the scenario engine values one side alone when only that side's
prices moved. The kernel makes exactly the roundings that ``Dec``
arithmetic makes: each asset's value is ``amount * price`` rounded
half-even to 18 digits, each ``bc`` term is that rounded value times the
asset's LT, rounded again, and the sums are exact integer additions. Its
results therefore equal, digit for digit, those of the ``Dec`` loop
``value = amount * price; c = c + value; bc = bc + value * LT``.

The kernel reads its terms as ``(key, raw amount)`` pairs and looks prices
and thresholds up by key, so one loop serves two key layouts. Each price or
threshold it looks up is a fraction ``(num, den)`` with ``num/den`` equal
to ``raw/10**18``. :func:`value_sums` and :func:`priced_total` key by
``Asset`` and look up through the oracle and the parameters, which raise
``MissingPriceError`` and ``MissingThresholdError`` for an absent entry;
they pass the unreduced ``(raw, 10**18)``, since a lookup made once is not
worth a ``gcd``. The scenario engine numbers its assets once and keys by
slot, into plain lists of fractions in lowest terms (:func:`_fraction`)
that it has checked to be complete and reduces once per price move. The
risk sweep reduces its declines once per sweep.

Dividing by the reduced denominator is exact, not an approximation, and is
faster: a price with at most 2 decimals, or a threshold such as 0.8 = 4/5,
has a denominator of at most 100, which CPython divides by in one pass
instead of long division by 10**18. Write the raw price ``P = n*g`` and
``10**18 = d*g``, with ``g`` their greatest common divisor. Then
``divmod(a*n, d) == (q, r)`` exactly when ``divmod(a*P, 10**18) == (q,
r*g)``, and ``2*r > d`` exactly when ``2*r*g > 10**18`` (likewise for
``==``). So every quotient, every half-even rounding and every tie is the
one the division by 10**18 makes, and so is every overflow check.

Overflow stays explicit. That ``Dec`` loop checks every product and partial
sum against 2**255. Here every term is non-negative and each ``bc`` term is
at most its value, so every intermediate is at most the running ``c`` (or
``d``). Checking the running sum after each asset therefore raises
``OverflowError`` exactly where the ``Dec`` loop did, before the next
asset's price or threshold is looked up. Once the sum is out of range the
kernel checks the asset's value first, as the loop checks the product
before the sum, so its message names the same number. The two sides share
no lookup and no sum, so a side valued alone raises what it raises when it
follows the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Mapping, Optional

from .errors import MissingPriceError, MissingThresholdError
from .fixedpoint import SCALE, Dec, ZERO, ONE, _BOUND, _checked, _mul


@dataclass(frozen=True)
class Asset:
    """A currency identified by symbol; ``decimals`` is native-unit metadata.

    Assets key every balance, price and threshold mapping, so the hash of
    ``(symbol, decimals)`` is computed once, on construction. A pickled
    asset is rebuilt from its fields, so its hash is that of the process
    that loads it.
    """

    symbol: str
    decimals: int = 18

    def __post_init__(self):
        if not self.symbol:
            raise ValueError("asset symbol must be non-empty")
        if not 0 <= self.decimals <= 18:
            raise ValueError(f"asset decimals out of range [0, 18]: {self.decimals}")
        object.__setattr__(self, "_hash", hash((self.symbol, self.decimals)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Asset, (self.symbol, self.decimals))


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
    """``raw / 10**18`` in lowest terms, as ``(num, den)``; the kernel
    rounds by dividing by ``den``, which divides 10**18."""
    common = gcd(raw, SCALE)
    return raw // common, SCALE // common


def sum_side(terms, prices, thresholds=None) -> tuple:
    """The valuation kernel, on one side of a position: scaled-int
    ``(total, weighted)`` with total = sum(amount*price) and, when
    ``thresholds`` is given, weighted = sum(amount*price*LT), else 0.

    ``terms`` are ``(key, raw amount)`` pairs; ``prices[key]`` and
    ``thresholds[key]`` are fractions ``(num, den)`` with ``num/den`` equal
    to the raw value over 10**18. See the module docstring for the
    roundings, why dividing by ``den`` gives those of 10**18, and the
    overflow checks. Each product is rounded half-even as
    ``fixedpoint._round_div`` rounds it, written out here because this loop
    is the engine's hot path.
    """
    total = weighted = 0
    for key, amount in terms:
        num, den = prices[key]
        value, rest = divmod(amount * num, den)
        rest += rest
        if rest > den or (rest == den and value & 1):
            value += 1
        total += value
        if total >= _BOUND:  # the Dec loop checks the product, then the sum
            _checked(value)
            _checked(total)
        if thresholds is not None:
            num, den = thresholds[key]
            term, rest = divmod(value * num, den)
            rest += rest
            if rest > den or (rest == den and term & 1):
                term += 1
            weighted += term
    return total, weighted


class _FractionLookup:
    """``(lookup(key).raw, 10**18)`` behind ``[key]``: the kernel's
    fraction of a value read once, left unreduced. The kernel reads an
    oracle's prices or a parameter set's thresholds through it, so their
    missing-entry errors are raised in the kernel's order."""

    __slots__ = ("_lookup",)

    def __init__(self, lookup):
        self._lookup = lookup

    def __getitem__(self, key) -> tuple:
        return self._lookup(key).raw, SCALE


def _raw_terms(amounts: Mapping[Asset, Dec]):
    return [(asset, amount.raw) for asset, amount in amounts.items()]


def priced_total(amounts: Mapping[Asset, Dec], oracle: OracleSnapshot) -> int:
    """Scaled-int USD value of native ``amounts``: the sum of amount*price,
    each product rounded half-even as ``Dec`` multiplication rounds it."""
    return sum_side(_raw_terms(amounts), _FractionLookup(oracle.price))[0]


def value_sums(position: Position, oracle: OracleSnapshot, params: RiskParams) -> tuple:
    """Scaled-int ``(c, bc, d)`` of a position at the snapshot: both sides
    through the kernel :func:`sum_side`, collateral first."""
    prices = _FractionLookup(oracle.price)
    thresholds = _FractionLookup(params.threshold)
    c, bc = sum_side(_raw_terms(position.collateral), prices, thresholds)
    return c, bc, sum_side(_raw_terms(position.debt), prices)[0]


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
