import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
from liqlab.core import value_sums
from liqlab.errors import MissingPriceError, MissingThresholdError

ETH = Asset("ETH")
USDC = Asset("USDC", decimals=6)
DAI = Asset("DAI")


def test_asset_validation():
    with pytest.raises(ValueError):
        Asset("ETH", decimals=19)
    with pytest.raises(ValueError):
        Asset("")


class TestAssetIdentity:
    def test_equal_assets_hash_equal(self):
        assert Asset("ETH") == Asset("ETH", decimals=18)
        assert hash(Asset("ETH")) == hash(Asset("ETH", decimals=18))
        assert hash(Asset("ETH")) == hash(("ETH", 18))
        assert Asset("ETH") != Asset("ETH", decimals=6)
        assert {Asset("USDC", decimals=6): 1}[USDC] == 1

    def test_fields_and_repr_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(ETH)] == ["symbol", "decimals"]
        assert repr(USDC) == "Asset(symbol='USDC', decimals=6)"
        assert dataclasses.replace(ETH, decimals=8) == Asset("ETH", decimals=8)
        assert hash(dataclasses.replace(ETH, decimals=8)) == hash(Asset("ETH", 8))
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
            "prices = {Asset('ETH'): Dec(3000), Asset('USDC', 6): Dec(1)}\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps((Asset('ETH'), prices)))\n"
        )
        read = (
            "import pickle, sys\n"
            "from liqlab import Asset, Dec\n"
            "eth, prices = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "assert hash(eth) == hash(Asset('ETH'))\n"
            "assert prices[Asset('ETH')] == Dec(3000)\n"
            "assert prices[Asset('USDC', 6)] == Dec(1)\n"
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


def _dec_loop_sums(position, oracle, params):
    """Raw (c, bc, d) summed with plain Dec arithmetic, or "overflow"."""
    try:
        c = bc = d = Dec(0)
        for asset, amount in position.collateral.items():
            value = amount * oracle.price(asset)
            c = c + value
            bc = bc + value * params.threshold(asset)
        for asset, amount in position.debt.items():
            d = d + amount * oracle.price(asset)
    except OverflowError:
        return "overflow"
    return c.raw, bc.raw, d.raw


def _kernel_sums(position, oracle, params):
    try:
        return value_sums(position, oracle, params)
    except OverflowError:
        return "overflow"


# all 18 fractional digits drawn, so that products carry digits to round
fractions = st.lists(st.integers(0, 9), min_size=18, max_size=18).map(
    lambda digits: int("".join(map(str, digits)))
)


def _fine(wholes):
    """Decimals with a whole part drawn from ``wholes`` and 18 fractional digits."""
    return st.builds(lambda whole, fraction: Dec.from_raw(whole * 10**18 + fraction),
                     wholes, fractions)


# the large amounts are worth more than 2**255 raw at most prices
fine_amounts = _fine(st.one_of(st.integers(0, 10**9), st.integers(10**56, 5 * 10**58)))
fine_prices = _fine(st.integers(0, 10**6)).filter(lambda price: price > Dec(0))
fine_thresholds = fractions.filter(lambda raw: raw > 0).map(Dec.from_raw)


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
    expected = _dec_loop_sums(position, oracle, params)
    assert _kernel_sums(position, oracle, params) == expected
    if expected != "overflow":
        values = position_values(position, oracle, params)
        assert (values.c.raw, values.bc.raw, values.d.raw) == expected


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
