import pytest
from hypothesis import given, strategies as st

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
from liqlab.errors import MissingPriceError, MissingThresholdError

ETH = Asset("ETH")
USDC = Asset("USDC", decimals=6)
DAI = Asset("DAI")


def test_asset_validation():
    with pytest.raises(ValueError):
        Asset("ETH", decimals=19)
    with pytest.raises(ValueError):
        Asset("")


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
