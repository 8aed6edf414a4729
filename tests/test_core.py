import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from liqlab import (
    Asset,
    Dec,
    OracleSnapshot,
    Position,
    PositionValues,
    RiskParams,
    collateralization_ratio,
    health_factor,
    is_liquidatable,
    position_values,
)
from liqlab.core import _fraction, priced_total, revalue, value_sums
from liqlab.errors import LiqlabError, MissingPriceError, MissingThresholdError
from liqlab.fixedpoint import _BOUND, SCALE

ETH = Asset("ETH")
USDC = Asset("USDC")
DAI = Asset("DAI")


def test_asset_validation():
    with pytest.raises(ValueError):
        Asset("")


class TestAssetIdentity:
    def test_equal_assets_hash_equal(self):
        # an asset is its symbol
        assert hash(Asset("ETH")) == hash("ETH")
        assert Asset("ETH") != Asset("WETH")
        assert {Asset("USDC"): 1}[USDC] == 1

    def test_fields_and_repr_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(ETH)] == ["symbol"]
        assert repr(USDC) == "Asset(symbol='USDC')"
        assert dataclasses.replace(ETH, symbol="WETH") == Asset("WETH")
        assert hash(dataclasses.replace(ETH, symbol="WETH")) == hash(Asset("WETH"))
        assert sorted([USDC, ETH, DAI], key=lambda a: a.symbol) == [DAI, ETH, USDC]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ETH.symbol = "WETH"

    def test_pickle_round_trip_across_hash_seeds(self, tmp_path):
        # written under one hash seed and read under another: the loaded
        # assets must key the loaded dict and a freshly built one
        src = Path(__file__).resolve().parent.parent / "src"
        blob = tmp_path / "assets.pickle"
        write = (
            "import pickle, sys\n"
            "from liqlab import Asset, Dec\n"
            "prices = {Asset('ETH'): Dec(3000), Asset('USDC'): Dec(1)}\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps((Asset('ETH'), prices)))\n"
        )
        read = (
            "import pickle, sys\n"
            "from liqlab import Asset, Dec\n"
            "eth, prices = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "assert hash(eth) == hash(Asset('ETH'))\n"
            "assert prices[Asset('ETH')] == Dec(3000)\n"
            "assert prices[Asset('USDC')] == Dec(1)\n"
            "assert prices[eth] == Dec(3000)\n"
            "assert {Asset('ETH'): 'fresh'}[eth] == 'fresh'\n"
        )
        for seed, code in (("0", write), ("12345", read)):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            subprocess.run([sys.executable, "-c", code, str(blob)], env=env, check=True)
        eth, prices = pickle.loads(blob.read_bytes())
        assert eth == ETH and hash(eth) == hash(ETH)
        assert prices[ETH] == Dec(3000)


def test_position_normalization_drops_zero_entries():
    p = Position("alice", collateral={ETH: Dec(0), DAI: Dec(5)}, debt={})
    assert ETH not in p.collateral
    assert p.collateral[DAI] == Dec(5)
    with pytest.raises(ValueError):
        Position("bob", collateral={ETH: Dec(-1)})


def test_oracle_rejects_nonpositive_prices():
    with pytest.raises(ValueError):
        OracleSnapshot(prices={ETH: Dec(0)})


def test_risk_params_range_checks():
    with pytest.raises(ValueError):
        RiskParams(lt={ETH: Dec(1)}, ls=Dec("0.1"), cf=Dec("0.5"))
    with pytest.raises(ValueError):
        RiskParams(lt={}, ls=Dec(-1), cf=Dec("0.5"))
    with pytest.raises(ValueError):
        RiskParams(lt={}, ls=Dec("0.1"), cf=Dec(0))
    with pytest.raises(ValueError):
        RiskParams(lt={}, ls=Dec("0.1"), cf=Dec("1.1"))


class TestPositionValues:
    def test_worked_example_three_eth(self):
        # 3 ETH at 3500 with LT 0.8 gives borrowing capacity 8400
        position = Position("alice", collateral={ETH: Dec(3)})
        oracle = OracleSnapshot(prices={ETH: Dec(3500)})
        params = RiskParams(lt={ETH: Dec("0.8")}, ls=Dec("0.1"), cf=Dec("0.5"))
        values = position_values(position, oracle, params)
        assert values.c == Dec(10500)
        assert values.bc == Dec(8400)
        assert values.d == Dec(0)

    def test_empty_position(self):
        values = position_values(
            Position("nobody"), OracleSnapshot(prices={}), RiskParams({}, Dec(0), Dec(1))
        )
        assert (values.c, values.d, values.bc) == (Dec(0), Dec(0), Dec(0))

    def test_case_study_table(self):
        # DAI/USDC position: 108.51M DAI at 1.095299 plus 17.88M USDC at 1,
        # debts 93.22M DAI and 506.64K USDC, both thresholds 0.75
        position = Position(
            "whale",
            collateral={DAI: Dec("108510000"), USDC: Dec("17880000")},
            debt={DAI: Dec("93220000"), USDC: Dec("506640")},
        )
        oracle = OracleSnapshot(prices={DAI: Dec("1.095299"), USDC: Dec(1)})
        params = RiskParams(
            lt={DAI: Dec("0.75"), USDC: Dec("0.75")}, ls=Dec("0.08"), cf=Dec("0.5")
        )
        values = position_values(position, oracle, params)
        assert values.c == Dec("136730894.49")
        assert values.bc == Dec("102548170.8675")
        assert values.d == Dec("102610412.78")
        assert is_liquidatable(values)

    def test_missing_price_names_asset(self):
        position = Position("alice", collateral={ETH: Dec(1)})
        with pytest.raises(MissingPriceError, match="ETH"):
            position_values(
                position, OracleSnapshot(prices={}), RiskParams({ETH: Dec("0.8")}, Dec(0), Dec(1))
            )

    def test_missing_threshold_names_asset(self):
        position = Position("alice", collateral={ETH: Dec(1)})
        with pytest.raises(MissingThresholdError, match="ETH"):
            position_values(
                position, OracleSnapshot(prices={ETH: Dec(1)}), RiskParams({}, Dec(0), Dec(1))
            )


class TestRatios:
    def test_collateralization_ratio(self):
        assert collateralization_ratio(PositionValues(Dec(100), Dec(100), Dec(50))) == Dec(1)
        ratio = collateralization_ratio(
            PositionValues(Dec("136730000"), Dec("102610000"), Dec(0))
        )
        assert ratio == Dec("1.33252119676444791")
        assert collateralization_ratio(PositionValues(Dec(50), Dec(0), Dec(40))) is None

    def test_health_factor(self):
        hf = health_factor(PositionValues(c=Dec(9900), d=Dec(8400), bc=Dec(7920)))
        assert hf == Dec("0.942857142857142857")
        hf = health_factor(PositionValues(Dec("136730000"), Dec("102610000"), Dec("102550000")))
        assert hf == Dec("0.999415261670402495")
        assert health_factor(PositionValues(Dec(50), Dec(0), Dec(40))) is None

    def test_borrowing_capacity_above_collateral_is_refused(self):
        with pytest.raises(ValueError) as info:
            PositionValues(c=Dec(1), d=Dec(0), bc=Dec(2))
        assert str(info.value) == "borrowing capacity outside [0, c]: bc=2, c=1"

    def test_is_liquidatable_boundaries(self):
        assert is_liquidatable(PositionValues(c=Dec(9900), d=Dec(8400), bc=Dec(7920)))
        assert not is_liquidatable(PositionValues(c=Dec(200), d=Dec(100), bc=Dec(100)))
        assert not is_liquidatable(PositionValues(c=Dec(50), d=Dec(0), bc=Dec(40)))


class TestValidateParams:
    def test_paper_parameterizations_accepted(self):
        # close factor 0.5 with spreads 5..15% and thresholds up to 0.8
        for spread in ("0.05", "0.08", "0.1", "0.15"):
            params = RiskParams(lt={ETH: Dec("0.8")}, ls=Dec(spread), cf=Dec("0.5"))
            assert params.threshold(ETH) == Dec("0.8")

    def test_product_below_one_required(self):
        RiskParams(lt={ETH: Dec("0.75")}, ls=Dec("0.08"), cf=Dec("0.5"))
        RiskParams(lt={ETH: Dec("0.8")}, ls=Dec("0.1"), cf=Dec("0.5"))
        with pytest.raises(ValueError, match=r"asset ETH has 0\.95\*\(1\+0\.1\) = 1\.045"):
            RiskParams(lt={ETH: Dec("0.95")}, ls=Dec("0.10"), cf=Dec("0.5"))

    def test_boundary_product_exactly_one_rejected(self):
        with pytest.raises(ValueError, match=r"must be < 1: asset ETH has .* = 1$"):
            RiskParams(lt={ETH: Dec("0.8")}, ls=Dec("0.25"), cf=Dec("0.5"))

    def test_product_checked_after_ranges_in_symbol_order(self):
        with pytest.raises(ValueError, match="close factor"):
            RiskParams(lt={ETH: Dec("0.95")}, ls=Dec("0.1"), cf=Dec(2))
        with pytest.raises(ValueError, match="asset DAI has"):
            RiskParams(lt={ETH: Dec("0.95"), DAI: Dec("0.95")}, ls=Dec("0.1"), cf=Dec("0.5"))


# bounded digit budgets keep every product below 18 fractional digits, so the
# properties below hold exactly
amounts = st.integers(min_value=0, max_value=10**6).map(lambda n: Dec(n) / Dec(1000))
prices = st.integers(min_value=1, max_value=10**7).map(lambda n: Dec(n) / Dec(10000))
thresholds = st.integers(min_value=1, max_value=99).map(lambda n: Dec(n) / Dec(100))


@given(
    col=st.lists(st.tuples(amounts, prices, thresholds), min_size=0, max_size=4),
    debt=st.lists(st.tuples(amounts, prices), min_size=0, max_size=4),
)
def test_bc_never_exceeds_c_and_liquidatable_implies_d_above_bc(col, debt):
    col_assets = {Asset(f"C{i}"): entry for i, entry in enumerate(col)}
    debt_assets = {Asset(f"D{i}"): entry for i, entry in enumerate(debt)}
    position = Position(
        "p",
        collateral={a: amount for a, (amount, _, _) in col_assets.items()},
        debt={a: amount for a, (amount, _) in debt_assets.items()},
    )
    oracle = OracleSnapshot(
        prices={**{a: p for a, (_, p, _) in col_assets.items()},
                **{a: p for a, (_, p) in debt_assets.items()}}
    )
    # valuation ignores LS; LS = 0 makes every threshold in (0, 1) valid
    params = RiskParams(
        lt={a: t for a, (_, _, t) in col_assets.items()}, ls=Dec(0), cf=Dec("0.5")
    )
    values = position_values(position, oracle, params)
    assert values.bc <= values.c
    if is_liquidatable(values):
        assert values.d > values.bc


@given(
    amount=st.integers(1, 10**6).map(lambda n: Dec(n) / Dec(1000)),
    price=st.integers(1, 10**7).map(lambda n: Dec(n) / Dec(10000)),
    debt_amount=st.integers(1, 10**6).map(lambda n: Dec(n) / Dec(1000)),
    threshold=st.integers(1, 99).map(lambda n: Dec(n) / Dec(100)),
    k=st.integers(2, 9),
)
def test_health_factor_invariant_under_uniform_price_scaling(
    amount, price, debt_amount, threshold, k
):
    position = Position("p", collateral={ETH: amount}, debt={USDC: debt_amount})
    params = RiskParams(lt={ETH: threshold}, ls=Dec(0), cf=Dec("0.5"))  # as above
    base = OracleSnapshot(prices={ETH: price, USDC: Dec(1)})
    scaled = OracleSnapshot(prices={ETH: price * Dec(k), USDC: Dec(k)})
    hf_base = health_factor(position_values(position, base, params))
    hf_scaled = health_factor(position_values(position, scaled, params))
    assert hf_base == hf_scaled


def _caught(valuation, *args):
    """``valuation(*args)``, or the type and message of the ``OverflowError``
    or ``LiqlabError`` it raises."""
    try:
        return valuation(*args)
    except (OverflowError, LiqlabError) as exc:
        return type(exc), str(exc)


def _dec_loop(position, oracle, params):
    """Raw (c, bc, d) summed with plain Dec arithmetic."""
    c = bc = d = Dec(0)
    for asset, amount in position.collateral.items():
        value = amount * oracle.price(asset)
        c = c + value
        bc = bc + value * params.threshold(asset)
    for asset, amount in position.debt.items():
        d = d + amount * oracle.price(asset)
    return c.raw, bc.raw, d.raw


def _dec_loop_sums(position, oracle, params):
    return _caught(_dec_loop, position, oracle, params)


def _revalued_sums(position, oracle, params):
    """The engine's kernel on the position: one ``revalue`` term per balance,
    at prices and thresholds in lowest terms, as a run's first re-pricing
    values it. Its raw ``(c, bc, d)`` and whether ``revalue`` reported a sum
    at 2**255 or more."""
    sums = [0, 0, 0]
    over = False
    for asset, amount in position.collateral.items():
        over |= revalue(
            [[sums, amount.raw, 0, 0]],
            _fraction(oracle.price(asset).raw),
            _fraction(params.threshold(asset).raw),
        )
    for asset, amount in position.debt.items():
        over |= revalue([[sums, amount.raw, 0]], _fraction(oracle.price(asset).raw))
    return tuple(sums), over


def _book(col, debt):
    """A position, oracle and parameters from (amount, price, threshold)
    collateral entries and (amount, price) debt entries, one asset each."""
    col_assets = {Asset(f"C{i}"): entry for i, entry in enumerate(col)}
    debt_assets = {Asset(f"D{i}"): entry for i, entry in enumerate(debt)}
    position = Position(
        "p",
        collateral={a: amount for a, (amount, _, _) in col_assets.items()},
        debt={a: amount for a, (amount, _) in debt_assets.items()},
    )
    oracle = OracleSnapshot(
        prices={**{a: p for a, (_, p, _) in col_assets.items()},
                **{a: p for a, (_, p) in debt_assets.items()}}
    )
    params = RiskParams(  # LS = 0 makes every threshold in (0, 1) valid
        lt={a: t for a, (_, _, t) in col_assets.items()}, ls=Dec(0), cf=Dec("0.5")
    )
    return position, oracle, params


def _assert_kernel_is_the_dec_loop(col, debt):
    position, oracle, params = _book(col, debt)
    expected = _dec_loop_sums(position, oracle, params)
    assert _caught(value_sums, position, oracle, params) == expected
    sums, over = _revalued_sums(position, oracle, params)
    # revalue reports where the Dec loop overflows and leaves the raising to
    # its caller
    assert over == (expected[0] is OverflowError)
    if not over:
        assert sums == expected
        values = position_values(position, oracle, params)
        assert (values.c.raw, values.bc.raw, values.d.raw) == expected


# all 18 fractional digits drawn, so that products carry digits to round
fractions = st.lists(st.integers(0, 9), min_size=18, max_size=18).map(
    lambda digits: int("".join(map(str, digits)))
)


def _fine(wholes):
    """Decimals with a whole part drawn from ``wholes`` and 18 fractional digits."""
    return st.builds(lambda whole, fraction: Dec.from_raw(whole * 10**18 + fraction),
                     wholes, fractions)


def _short(wholes):
    """Decimals with a whole part drawn from ``wholes`` and 0-9 fractional
    digits: in lowest terms their denominators divide 10**9."""
    return st.integers(0, 9).flatmap(lambda places: st.builds(
        lambda whole, fraction: Dec.from_raw(whole * SCALE + fraction * 10 ** (18 - places)),
        wholes, st.integers(0, 10**places - 1),
    ))


# the large amounts are worth more than 2**255 raw at most prices
fine_amounts = _fine(st.one_of(st.integers(0, 10**9), st.integers(10**56, 5 * 10**58)))
fine_prices = _fine(st.integers(0, 10**6)).filter(lambda price: price > Dec(0))
fine_thresholds = fractions.filter(lambda raw: raw > 0).map(Dec.from_raw)
short_prices = _short(st.integers(0, 10**6)).filter(lambda price: price > Dec(0))
short_thresholds = _short(st.just(0)).filter(lambda threshold: threshold > Dec(0))


@settings(max_examples=300)
@given(
    col=st.lists(st.tuples(fine_amounts, fine_prices, fine_thresholds), min_size=1, max_size=3),
    debt=st.lists(st.tuples(fine_amounts, fine_prices), min_size=1, max_size=3),
)
# bc must be taken on the rounded value: rounding amount*price*LT once gives
# one ulp less here
@example(
    col=[(Dec("12.011110020000113418"), Dec("521099.0002000000003"), Dec("0.10004400110010481"))],
    debt=[(Dec(1), Dec(1))],
)
def test_kernel_equals_the_dec_loop(col, debt):
    _assert_kernel_is_the_dec_loop(col, debt)


@settings(max_examples=300)
@given(
    col=st.lists(st.tuples(fine_amounts, short_prices, short_thresholds), min_size=1, max_size=3),
    debt=st.lists(st.tuples(fine_amounts, short_prices), min_size=1, max_size=3),
)
def test_kernel_on_short_prices_and_thresholds_equals_the_dec_loop(col, debt):
    # the kernel divides by the reduced denominators, here at most 10**9
    _assert_kernel_is_the_dec_loop(col, debt)


def _odd(below):
    """Odd integers below ``below`` that 5 does not divide."""
    return st.integers(0, (below - 2) // 2).map(lambda n: 2 * n + 1).filter(lambda n: n % 5)


@st.composite
def _half_unit_ties(draw):
    """A collateral entry whose value (price tie) or LT-weighted value
    (threshold tie) is a whole number of units plus exactly half a unit:
    ``u * 10**k`` times ``5 * v * 10**(17 - k)`` is ``u * v * 5 * 10**17``
    with ``u * v`` odd. With 9 <= k <= 17 the tied price or threshold
    ``u * 10**k`` has at most 9 fractional digits."""
    k = draw(st.integers(9, 17))
    amount = Dec.from_raw(5 * draw(_odd(10**6)) * 10 ** (17 - k))
    if draw(st.booleans()):
        # amount * price ties, and the value's LT term rounds as it may
        return amount, Dec.from_raw(draw(_odd(10**6)) * 10**k), draw(short_thresholds)
    # at price 1 the value is the amount, so value * LT ties
    return amount, Dec(1), Dec.from_raw(draw(_odd(10 ** (18 - k))) * 10**k)


@settings(max_examples=200)
@given(tie=_half_unit_ties(), debt=st.lists(st.tuples(fine_amounts, short_prices), max_size=2))
# 5 units at LT 0.5 and 0.3: a bc term of 2.5 units rounds down to 2, 1.5 up to 2
@example(tie=(Dec.from_raw(5), Dec(1), Dec("0.5")), debt=[])
@example(tie=(Dec.from_raw(5), Dec(1), Dec("0.3")), debt=[])
# 5 units at price 0.3 and 0.1: a value of 1.5 units rounds up to 2, 0.5 down to 0
@example(tie=(Dec.from_raw(5), Dec("0.3"), Dec("0.8")), debt=[])
@example(tie=(Dec.from_raw(5), Dec("0.1"), Dec("0.8")), debt=[])
# 5 units owed at price 0.5 and 0.3: a debt of 2.5 units rounds down to 2,
# 1.5 up to 2
@example(tie=(Dec.from_raw(5), Dec(1), Dec("0.5")), debt=[(Dec.from_raw(5), Dec("0.5"))])
@example(tie=(Dec.from_raw(5), Dec(1), Dec("0.5")), debt=[(Dec.from_raw(5), Dec("0.3"))])
def test_kernel_rounds_half_unit_ties_to_even(tie, debt):
    amount, price, threshold = tie
    _assert_kernel_is_the_dec_loop([tie], debt)
    if price == Dec(1):  # a threshold tie: the value is the amount
        assert amount.raw * threshold.raw % SCALE == SCALE // 2
    else:
        assert amount.raw * price.raw % SCALE == SCALE // 2


@st.composite
def _near_the_bound(draw):
    """Collateral and debt whose sums land within 2e18 units of 2**255: a
    first term, and a second one whose amount at a price in [1, 2] brings
    the sum to the drawn target, give or take 2 units of rounding."""
    target = _BOUND + draw(st.integers(-2 * 10**18, 2 * 10**18))
    sides = []
    for with_threshold in (True, False):
        amount1, price1 = draw(fine_amounts), draw(short_prices)
        first = amount1.raw * price1.raw // SCALE
        price2 = draw(st.one_of(st.just(Dec(1)), _short(st.just(1))))
        second = max(target - first, 1) * SCALE // price2.raw
        assume(0 < second < _BOUND)
        entries = [(amount1, price1), (Dec.from_raw(second), price2)]
        if with_threshold:
            entries = [entry + (draw(short_thresholds),) for entry in entries]
        sides.append(entries)
    return sides


@settings(max_examples=200)
@given(_near_the_bound())
@example([  # c lands on 2**255 - 1 and fits; d lands on 2**255 and overflows
    [(Dec.from_raw(_BOUND - 2), Dec(1), Dec("0.5")), (Dec.from_raw(1), Dec(1), Dec("0.5"))],
    [(Dec.from_raw(1), Dec(1)), (Dec.from_raw(_BOUND - 1), Dec(1))],
])
@example([  # c lands on 2**255 and overflows
    [(Dec.from_raw(_BOUND - 1), Dec(1), Dec("0.5")), (Dec.from_raw(1), Dec(1), Dec("0.5"))],
    [(Dec.from_raw(1), Dec(1))],
])
def test_kernel_checks_sums_near_2_255_as_the_dec_loop_does(sides):
    _assert_kernel_is_the_dec_loop(*sides)


@given(st.one_of(
    st.integers(0, _BOUND - 1),
    short_prices.map(lambda price: price.raw),
    fine_prices.map(lambda price: price.raw),
))
@example(0)
@example(SCALE)
@example(4 * SCALE // 5)
def test_fraction_is_the_raw_over_10_18_in_lowest_terms(raw):
    num, den = _fraction(raw)
    assert num * SCALE == raw * den
    assert math.gcd(num, den) == 1
    assert SCALE % den == 0


class TestValuationOverflow:
    # 5 * 10**58 ETH is representable; at 3500 USD it is worth more than 2**255 raw
    HUGE = Dec("5" + "0" * 58)
    PARAMS = RiskParams(lt={ETH: Dec("0.8")}, ls=Dec("0.1"), cf=Dec("0.5"))

    def test_position_values_raises(self):
        position = Position("whale", collateral={ETH: self.HUGE}, debt={USDC: Dec(1)})
        oracle = OracleSnapshot(prices={ETH: Dec(3500), USDC: Dec(1)})
        with pytest.raises(OverflowError, match=r"exceeds 2\*\*255"):
            position_values(position, oracle, self.PARAMS)

    def test_debt_overflow_raises(self):
        position = Position("whale", collateral={ETH: Dec(1)}, debt={USDC: self.HUGE})
        oracle = OracleSnapshot(prices={ETH: Dec(3500), USDC: Dec(3500)})
        with pytest.raises(OverflowError, match=r"exceeds 2\*\*255"):
            position_values(position, oracle, self.PARAMS)

    def test_overflow_is_raised_before_a_later_asset_is_priced(self):
        # the Dec loop fails on the first asset's value, before it looks up
        # the unpriced second asset, and so must the kernel
        position = Position("whale", collateral={ETH: self.HUGE, DAI: Dec(1)})
        oracle = OracleSnapshot(prices={ETH: Dec(3500)})
        params = RiskParams(lt={ETH: Dec("0.8"), DAI: Dec("0.8")}, ls=Dec(0), cf=Dec("0.5"))
        with pytest.raises(OverflowError):
            position_values(position, oracle, params)


def _priced_debt(position, oracle, params):
    """``priced_total`` of the debt side, in ``value_sums``' shape."""
    return 0, 0, priced_total(position.debt, oracle)


@pytest.mark.parametrize("valuation, collateral, debt, prices, lt, error, named", [
    # the first asset's threshold is looked up before the second's price
    (value_sums, {ETH: Dec(1), DAI: Dec(1)}, {}, {ETH: Dec(1)}, {},
     MissingThresholdError, "ETH"),
    # the first asset's value is checked before its threshold is looked up
    (value_sums, {ETH: TestValuationOverflow.HUGE}, {}, {ETH: Dec(3500)}, {}, OverflowError, None),
    # so is the sum: two values of 2**254 raw reach 2**255 before the
    # second asset's threshold is looked up
    (value_sums, {ETH: Dec.from_raw(2**254), DAI: Dec.from_raw(2**254)}, {},
     {ETH: Dec(1), DAI: Dec(1)}, {ETH: Dec("0.8")}, OverflowError, None),
    # collateral is priced before debt
    (value_sums, {ETH: Dec(1)}, {USDC: Dec(1)}, {}, {ETH: Dec("0.8")},
     MissingPriceError, "ETH"),
    # the first amount's value is checked before the second is priced
    (_priced_debt, {}, {ETH: TestValuationOverflow.HUGE, USDC: Dec(1)}, {ETH: Dec(3500)}, {},
     OverflowError, None),
], ids=["threshold-then-price", "overflow-then-threshold", "sum-overflow-then-threshold",
        "collateral-then-debt", "priced-total-overflow-then-price"])
def test_valuation_looks_up_and_checks_in_the_dec_loops_order(
    valuation, collateral, debt, prices, lt, error, named
):
    position = Position("p", collateral=collateral, debt=debt)
    oracle = OracleSnapshot(prices=prices)
    params = RiskParams(lt=lt, ls=Dec(0), cf=Dec("0.5"))
    expected = _dec_loop_sums(position, oracle, params)
    assert _caught(valuation, position, oracle, params) == expected
    assert expected[0] is error
    if named is not None:
        assert repr(named) in expected[1]
