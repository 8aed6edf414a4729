import random

import pytest
from hypothesis import example, given, settings, strategies as st

from liqlab import (
    Asset,
    Dec,
    LiquidationCall,
    OracleSnapshot,
    Position,
    PositionValues,
    RiskParams,
    check_liquidation_call,
    execute_liquidation_call,
    health_factor,
    is_liquidatable,
    max_repay,
    position_values,
)
from liqlab.errors import (
    CloseFactorExceededError,
    CollateralShortfallError,
    DebtAssetShortfallError,
    LiqlabError,
    NotLiquidatableError,
)
from liqlab.fixedpoint import ULP

from helpers import random_valid_instance

ETH = Asset("ETH")
USDC = Asset("USDC", decimals=6)
COL = Asset("COL")
DEB = Asset("DEB")


def worked_example():
    """3 ETH at 3300 against 8400 USDC, LT 0.8, LS 0.1, CF 0.5."""
    position = Position("alice", collateral={ETH: Dec(3)}, debt={USDC: Dec(8400)})
    oracle = OracleSnapshot(prices={ETH: Dec(3300), USDC: Dec(1)})
    params = RiskParams(lt={ETH: Dec("0.8")}, ls=Dec("0.1"), cf=Dec("0.5"))
    return position, oracle, params


def flat_units(c: str, d: str, lt: str, ls: str, cf: str):
    """Single collateral/debt pair at price 1, so values equal amounts."""
    position = Position("p", collateral={COL: Dec(c)}, debt={DEB: Dec(d)})
    oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1)})
    params = RiskParams(lt={COL: Dec(lt)}, ls=Dec(ls), cf=Dec(cf))
    return position, oracle, params


class TestMaxRepay:
    def test_half_close_factor(self):
        params = RiskParams(lt={}, ls=Dec("0.1"), cf=Dec("0.5"))
        assert max_repay(PositionValues(Dec(9900), Dec(8400), Dec(7920)), params) == Dec(4200)

    def test_full_close_factor(self):
        params = RiskParams(lt={}, ls=Dec("0.05"), cf=Dec(1))
        assert max_repay(PositionValues(Dec(6000), Dec(5000), Dec(4000)), params) == Dec(5000)

    def test_zero_debt(self):
        params = RiskParams(lt={}, ls=Dec("0.1"), cf=Dec("0.5"))
        assert max_repay(PositionValues(Dec(100), Dec(0), Dec(80)), params) == Dec(0)


class TestWorkedExample:
    def test_golden_receipt(self):
        position, oracle, params = worked_example()
        call = LiquidationCall("alice", USDC, ETH, Dec(4200))
        receipt = execute_liquidation_call(position, call, oracle, params)
        assert receipt.repaid_value_usd == Dec(4200)
        assert receipt.seized_value_usd == Dec(4620)
        assert receipt.seized_native == Dec("1.4")
        assert receipt.liquidator_profit_usd == Dec(420)
        after = receipt.position_after
        assert after.collateral[ETH] == Dec("1.6")
        assert after.debt[USDC] == Dec(4200)

    def test_health_factor_before_and_after(self):
        position, oracle, params = worked_example()
        before = health_factor(position_values(position, oracle, params))
        assert before == Dec("0.942857142857142857")
        call = LiquidationCall("alice", USDC, ETH, Dec(4200))
        receipt = execute_liquidation_call(position, call, oracle, params)
        after = health_factor(position_values(receipt.position_after, oracle, params))
        assert after is not None and after > before


class TestBoundarySolve:
    # repaying r restores health exactly when LT*(C - r*(1+LS)) = D - r;
    # for C=125, D=100, LT=0.75, LS=0.08 that is r = 625/19
    R_STAR = Dec("32.894736842105263158")

    def test_derived_receipt(self):
        position, oracle, params = flat_units("125", "100", "0.75", "0.08", "0.5")
        call = LiquidationCall("p", DEB, COL, self.R_STAR)
        receipt = execute_liquidation_call(position, call, oracle, params)
        assert receipt.seized_value_usd == Dec("35.526315789473684211")
        assert receipt.liquidator_profit_usd == Dec("2.631578947368421053")
        after = receipt.position_after
        assert after.collateral[COL] == Dec("89.473684210526315789")
        assert after.debt[DEB] == Dec("67.105263157894736842")
        hf = health_factor(position_values(after, oracle, params))
        assert abs(hf - Dec(1)) <= Dec.from_raw(2)

    def test_grid_confirms_r_star_is_the_eligibility_boundary(self):
        position, oracle, params = flat_units("125", "100", "0.75", "0.08", "1")
        step = Dec("0.001")
        for offset in range(-5, 6):
            if offset == 0:
                continue
            repay = self.R_STAR + step * Dec(offset)
            receipt = execute_liquidation_call(
                position, LiquidationCall("p", DEB, COL, repay), oracle, params
            )
            values = position_values(receipt.position_after, oracle, params)
            if offset < 0:
                assert is_liquidatable(values), f"offset {offset}"
            else:
                assert not is_liquidatable(values), f"offset {offset}"


class TestRefusals:
    def test_not_liquidatable(self):
        position, oracle, params = flat_units("200", "100", "0.75", "0.08", "0.5")
        with pytest.raises(NotLiquidatableError):
            execute_liquidation_call(
                position, LiquidationCall("p", DEB, COL, Dec(10)), oracle, params
            )

    def test_close_factor_exceeded(self):
        position, oracle, params = worked_example()
        with pytest.raises(CloseFactorExceededError):
            execute_liquidation_call(
                position, LiquidationCall("alice", USDC, ETH, Dec(4201)), oracle, params
            )

    def test_debt_asset_shortfall(self):
        # aggregate cap allows 60 but the chosen debt asset only owes 30
        other = Asset("OTHER")
        position = Position(
            "p", collateral={COL: Dec(125)}, debt={DEB: Dec(30), other: Dec(90)}
        )
        oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1), other: Dec(1)})
        params = RiskParams(lt={COL: Dec("0.75")}, ls=Dec("0.08"), cf=Dec("0.5"))
        with pytest.raises(DebtAssetShortfallError):
            execute_liquidation_call(
                position, LiquidationCall("p", DEB, COL, Dec(40)), oracle, params
            )

    def test_per_debt_asset_close_factor_flag(self):
        other = Asset("OTHER")
        position = Position(
            "p", collateral={COL: Dec(125)}, debt={DEB: Dec(30), other: Dec(90)}
        )
        oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1), other: Dec(1)})
        params = RiskParams(
            lt={COL: Dec("0.75")}, ls=Dec("0.08"), cf=Dec("0.5"), cf_per_debt_asset=True
        )
        with pytest.raises(CloseFactorExceededError):
            execute_liquidation_call(
                position, LiquidationCall("p", DEB, COL, Dec(20)), oracle, params
            )
        receipt = execute_liquidation_call(
            position, LiquidationCall("p", DEB, COL, Dec(15)), oracle, params
        )
        assert receipt.repaid_value_usd == Dec(15)

    def test_collateral_shortfall_is_atomic(self):
        # sliver of a second collateral asset cannot cover the seizure
        sliver = Asset("SLIVER")
        position = Position(
            "p", collateral={COL: Dec(120), sliver: Dec(1)}, debt={DEB: Dec(100)}
        )
        oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1), sliver: Dec(1)})
        params = RiskParams(
            lt={COL: Dec("0.75"), sliver: Dec("0.75")}, ls=Dec("0.08"), cf=Dec("0.5")
        )
        snapshot = Position("p", dict(position.collateral), dict(position.debt))
        with pytest.raises(CollateralShortfallError):
            execute_liquidation_call(
                position, LiquidationCall("p", DEB, sliver, Dec(10)), oracle, params
            )
        assert position == snapshot

    def test_zero_repay_rejected_at_construction(self):
        with pytest.raises(ValueError):
            LiquidationCall("p", DEB, COL, Dec(0))


def test_health_strictly_improves_on_random_valid_instances():
    rng = random.Random(1729)
    for _ in range(300):
        c, d, lt, params = random_valid_instance(rng)
        params = RiskParams(lt={COL: lt}, ls=params.ls, cf=params.cf)
        position = Position("p", collateral={COL: c}, debt={DEB: d})
        oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1)})
        values = position_values(position, oracle, params)
        cap = max_repay(values, params)
        repay = Dec.from_raw(rng.randrange(max(1, cap.raw // 100), cap.raw + 1))
        receipt = execute_liquidation_call(
            position, LiquidationCall("p", DEB, COL, repay), oracle, params
        )
        before = health_factor(values)
        after = health_factor(position_values(receipt.position_after, oracle, params))
        assert after is None or after > before


@given(
    price=st.integers(1, 10**8).map(lambda n: Dec(n) / Dec(100)),
    repay=st.integers(1, 10**6).map(lambda n: Dec(n) / Dec(100)),
)
@settings(max_examples=200)
def test_seized_native_reconstructs_value(price, repay):
    # seized_native is value/price correctly rounded, so native*price matches
    # the seized value to half an ulp scaled by the price plus the final
    # multiplication's own rounding
    ls = Dec("0.1")
    collateral = Asset("X")
    debt = Asset("Y")
    amount = (repay * (Dec(1) + ls)) / price + Dec(1)  # always enough collateral
    position = Position("p", collateral={collateral: amount}, debt={debt: repay * Dec(4)})
    oracle = OracleSnapshot(prices={collateral: price, debt: Dec(1)})
    params = RiskParams(lt={collateral: Dec("0.01")}, ls=ls, cf=Dec("0.5"))
    values = position_values(position, oracle, params)
    if not is_liquidatable(values) or repay > max_repay(values, params):
        return
    receipt = execute_liquidation_call(
        position, LiquidationCall("p", debt, collateral, repay), oracle, params
    )
    reconstructed = receipt.seized_native * price
    bound = (price + Dec(1)) * ULP
    assert abs(reconstructed - receipt.seized_value_usd) <= bound


def test_value_conservation_exact():
    position, oracle, params = worked_example()
    receipt = execute_liquidation_call(
        position, LiquidationCall("alice", USDC, ETH, Dec(4200)), oracle, params
    )
    assert receipt.repaid_value_usd + receipt.liquidator_profit_usd == receipt.seized_value_usd


SLIVER = Asset("SLIVER")
OTHER = Asset("OTHER")
REFUSALS = (
    NotLiquidatableError,
    CloseFactorExceededError,
    DebtAssetShortfallError,
    CollateralShortfallError,
)


def _hundredths(n: int) -> Dec:
    return Dec(n) / Dec(100)


# amounts, prices and rates are in hundredths; the pair picks the call's debt
# asset (DEB, OTHER) and collateral asset (COL, SLIVER)
@given(
    collateral=st.tuples(st.integers(0, 20000), st.integers(0, 500)),
    debt=st.tuples(st.integers(0, 20000), st.integers(0, 20000)),
    prices=st.tuples(*[st.integers(50, 500)] * 4),
    lt=st.integers(50, 85),
    ls=st.integers(0, 15),
    cf=st.integers(1, 100),
    per_asset=st.booleans(),
    pair=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    repay=st.integers(1, 20000),
)
@settings(max_examples=300)
# one example per outcome: healthy, over the close factor, over the chosen
# debt asset, over the chosen collateral asset, and a call that lands
@example((20000, 0), (10000, 0), (100, 100, 100, 100), 80, 10, 50, False, (0, 0), 1000)
@example((11000, 0), (10000, 0), (100, 100, 100, 100), 80, 10, 50, False, (0, 0), 5001)
@example((12500, 0), (3000, 9000), (100, 100, 100, 100), 75, 8, 50, False, (0, 0), 4000)
@example((12000, 100), (10000, 0), (100, 100, 100, 100), 75, 8, 50, False, (0, 1), 1000)
@example((11000, 0), (10000, 0), (100, 100, 100, 100), 80, 10, 50, True, (0, 0), 4000)
def test_check_answers_as_execute_does(
    collateral, debt, prices, lt, ls, cf, per_asset, pair, repay
):
    collateral_assets, debt_assets = (COL, SLIVER), (DEB, OTHER)
    position = Position(
        "p",
        collateral=dict(zip(collateral_assets, map(_hundredths, collateral))),
        debt=dict(zip(debt_assets, map(_hundredths, debt))),
    )
    oracle = OracleSnapshot(
        prices=dict(zip(collateral_assets + debt_assets, map(_hundredths, prices)))
    )
    params = RiskParams(
        lt={COL: _hundredths(lt), SLIVER: _hundredths(lt)},
        ls=_hundredths(ls),
        cf=_hundredths(cf),
        cf_per_debt_asset=per_asset,
    )
    call = LiquidationCall(
        "p", debt_assets[pair[0]], collateral_assets[pair[1]], _hundredths(repay)
    )
    snapshot = Position("p", dict(position.collateral), dict(position.debt))

    outcome = check_liquidation_call(
        position, position_values(position, oracle, params), call, oracle, params
    )
    assert position == snapshot
    try:
        receipt = execute_liquidation_call(position, call, oracle, params)
    except LiqlabError as exc:
        assert type(exc) in REFUSALS
        assert type(outcome) is type(exc)
        assert str(outcome) == str(exc)
    else:
        assert outcome == receipt
    assert position == snapshot
