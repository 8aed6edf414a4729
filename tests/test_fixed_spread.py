import random

import pytest
from hypothesis import event, example, given, settings, strategies as st

from liqlab import (
    Asset,
    Dec,
    LiquidationCall,
    LiquidationReceipt,
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
from liqlab.fixedpoint import ONE, ULP

import reference_engine
from helpers import RAW_BOUND, answer, random_valid_instance, raw_magnitudes

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


def test_health_rises_exactly_when_cr_exceeds_one_plus_ls():
    # valid parameters (LT*(1+LS) < 1) do not make every call raise health:
    # with one collateral asset, (c - r*(1+LS))/(d - r) > c/d exactly when
    # CR = c/d > 1+LS, i.e. HF > LT*(1+LS). Below that band the call lowers
    # HF, as on c 100 / d 95 (CR 1.053) with the cap's repay:
    position, oracle, params = flat_units("100", "95", "0.8", "0.1", "0.5")
    values = position_values(position, oracle, params)
    receipt = execute_liquidation_call(
        position, LiquidationCall("p", DEB, COL, Dec("47.5")), oracle, params
    )
    assert health_factor(values) == Dec("0.842105263157894737")
    after = health_factor(position_values(receipt.position_after, oracle, params))
    assert after == Dec("0.804210526315789474")

    # random instances at least 1% of 1+LS away from it on either side, from
    # CR 0.5 up to liquidatable's 1/LT; repays up to the cap and to all the
    # collateral
    rng = random.Random(1105)
    sides = {True: 0, False: 0}
    below_one = 0
    for _ in range(2000):
        while True:
            lt = Dec(rng.randint(50, 90)) / Dec(100)
            ls = Dec(rng.randint(2, 15)) / Dec(100)
            if lt * (ONE + ls) * Dec("1.01") < ONE:
                break
        params = RiskParams(lt={COL: lt}, ls=ls, cf=Dec(rng.choice(["0.5", "1"])))
        d = Dec(rng.randint(100, 1_000_000))
        above = rng.random() < 0.5
        if above:
            lo, hi = (ONE + ls) * d * Dec("1.01"), d / lt
        else:
            lo, hi = d / Dec(2), (ONE + ls) * d * Dec("0.99")
        c = Dec.from_raw(rng.randrange(lo.raw, hi.raw))
        position = Position("p", collateral={COL: c}, debt={DEB: d})
        values = position_values(position, oracle, params)
        seizable = Dec.from_raw(c.raw * 10**18 // (10**18 + ls.raw))
        top = min(max_repay(values, params), seizable)
        repay = Dec.from_raw(rng.randrange(max(1, top.raw // 100), top.raw + 1))
        receipt = execute_liquidation_call(
            position, LiquidationCall("p", DEB, COL, repay), oracle, params
        )
        before = health_factor(values)
        after = health_factor(position_values(receipt.position_after, oracle, params))
        assert (after is None or after > before) == above, (c, d, lt, ls, repay)
        sides[above] += 1
        below_one += c < d
    assert min(sides.values()) > 800 and below_one > 200


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


# -- the scaled-integer rules against their Dec-expression ports -------------

def _label(outcome) -> str:
    if isinstance(outcome, LiquidationReceipt):
        return "receipt"
    return f"{outcome[0]} {outcome[1].__name__}"


@st.composite
def _call_params(draw, thresholds):
    """Risk parameters: with thresholds for COL and SLIVER, LT*(1+LS) < 1
    and LT often small, so positions are often liquidatable; without, LS up
    to the Dec range, so that ``ONE + LS`` itself can overflow."""
    cf = Dec.from_raw(draw(st.integers(1, 10**18)))
    per_asset = draw(st.booleans())
    if not thresholds:
        near_bound = st.integers(RAW_BOUND - 2 * 10**18, RAW_BOUND - 1)
        ls = Dec.from_raw(draw(st.one_of(st.integers(0, 10**18), raw_magnitudes(), near_bound)))
        return RiskParams(lt={}, ls=ls, cf=cf, cf_per_debt_asset=per_asset)
    ls = Dec.from_raw(draw(st.integers(0, 10**18)))
    # LT*(1+LS) < 1: LT up to 1/(1+LS), less a few units
    top = max(10**36 // (10**18 + ls.raw) - 3, 1)
    lt = {
        a: Dec.from_raw(draw(st.one_of(st.integers(1, top), st.integers(1, top // 100 + 1))))
        for a in (COL, SLIVER)
    }
    return RiskParams(lt=lt, ls=ls, cf=cf, cf_per_debt_asset=per_asset)


@st.composite
def _calls(draw, thresholds):
    """``(position, values, call, oracle, params)``: a position over two
    collateral and two debt assets, its values, and a call whose pair may
    name an asset the position does not hold or owe, or one without a price.

    Magnitudes go up to 2**255, or stay small where calls land. With
    thresholds the values are the position's own (if it can be valued);
    without, they are drawn, liquidatable or not. The repay is anywhere, or
    up to or near the close-factor cap and the debt asset's value.
    """
    params = draw(_call_params(thresholds))
    amounts, prices = (raw_magnitudes(), raw_magnitudes(1)) if draw(st.booleans()) else (
        st.integers(0, 10**24), st.integers(1, 10**22)
    )
    amounts = st.one_of(st.just(0), amounts, amounts)  # a zero amount is no entry
    position = Position(
        "p",
        collateral={a: Dec.from_raw(draw(amounts)) for a in (COL, SLIVER)},
        debt={a: Dec.from_raw(draw(amounts)) for a in (DEB, OTHER)},
    )
    prices = {a: Dec.from_raw(draw(prices)) for a in (COL, SLIVER, DEB, OTHER)}
    unpriced = draw(st.sampled_from([None, None, None, SLIVER, OTHER]))
    if unpriced is not None:
        del prices[unpriced]
    oracle = OracleSnapshot(prices=prices)
    values = None
    if thresholds:
        try:
            values = position_values(position, oracle, params)
        except (LiqlabError, OverflowError):
            pass
    if values is None:
        c = draw(raw_magnitudes())
        bc = draw(st.integers(0, c))
        d = draw(st.one_of(raw_magnitudes(), st.integers(max(bc - 2, 0), bc + 2)))
        values = PositionValues(Dec.from_raw(c), Dec.from_raw(d), Dec.from_raw(bc))

    debt_asset = draw(st.sampled_from([DEB, OTHER]))
    collateral_asset = draw(st.sampled_from([COL, SLIVER]))

    def value(amounts, asset):  # about amount * price, as a raw
        return amounts.get(asset, Dec(0)).raw * prices.get(asset, Dec(0)).raw // 10**18

    owed = value(position.debt, debt_asset)
    cap = params.cf.raw * (owed if params.cf_per_debt_asset else values.d.raw) // 10**18
    seizable = value(position.collateral, collateral_asset) * 10**18 // (10**18 + params.ls.raw)
    top = min(max(min(owed, cap, seizable), 1), RAW_BOUND - 3)
    repay = draw(st.one_of(
        raw_magnitudes(1), st.integers(1, top), st.integers(max(top - 2, 1), top + 2)
    ))
    call = LiquidationCall("p", debt_asset, collateral_asset, Dec.from_raw(repay))
    return position, values, call, oracle, params


@st.composite
def _landing_calls(draw):
    """``(position, values, call, oracle, params)`` for a call sized to land,
    give or take a unit: the debt is worth at least repay/CF, the collateral
    just covers repay*(1+LS), and LT*(1+LS) < 1 keeps the position
    liquidatable."""
    params = draw(_call_params(True))
    repay = draw(st.integers(1, 10**30))
    debt_price, collateral_price = draw(st.integers(1, 10**22)), draw(st.integers(1, 10**22))
    debt_value = repay * 10**18 // params.cf.raw + draw(st.integers(0, 10**30))
    seized = repay * (10**18 + params.ls.raw) // 10**18
    collateral = seized * 10**18 // collateral_price + draw(st.integers(0, 3))
    debt = debt_value * 10**18 // debt_price + draw(st.integers(0, 3))
    position = Position(
        "p", collateral={COL: Dec.from_raw(collateral)}, debt={DEB: Dec.from_raw(debt)}
    )
    oracle = OracleSnapshot(
        prices={COL: Dec.from_raw(collateral_price), DEB: Dec.from_raw(debt_price)}
    )
    values = position_values(position, oracle, params)
    return position, values, LiquidationCall("p", DEB, COL, Dec.from_raw(repay)), oracle, params


def _one_plus_ls_overflows():
    """A call that reaches the seizure with LS one unit under 2**255, where
    ``ONE + LS`` itself overflows."""
    position = Position("p", collateral={COL: Dec(10)}, debt={DEB: Dec(10)})
    values = PositionValues(c=Dec(10), d=Dec(10), bc=Dec(0))
    oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1)})
    params = RiskParams(lt={}, ls=Dec.from_raw(RAW_BOUND - 1), cf=Dec(1))
    return position, values, LiquidationCall("p", DEB, COL, ULP), oracle, params


def _full_repay():
    """A call repaying all of DEB's outstanding value: one raw unit of DEB
    at 0.6 is worth round(0.6) = 1 unit, and repaying that 1 unit is
    round(1/0.6) = 2 units of DEB, one more than is owed."""
    position = Position(
        "p",
        collateral={COL: Dec.from_raw(10)},
        debt={DEB: Dec.from_raw(1), OTHER: Dec.from_raw(100)},
    )
    oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec("0.6"), OTHER: Dec(1)})
    params = RiskParams(lt={COL: Dec("0.4")}, ls=Dec("0.1"), cf=Dec("0.5"))
    values = position_values(position, oracle, params)
    return position, values, LiquidationCall("p", DEB, COL, ULP), oracle, params


def _all_collateral():
    """A call seizing all 110 COL: repay 100 at LS 0.1 and price 1."""
    position = Position(
        "p", collateral={COL: Dec(110), SLIVER: Dec(1)}, debt={DEB: Dec(300)}
    )
    oracle = OracleSnapshot(prices={COL: Dec(1), SLIVER: Dec(1), DEB: Dec(1)})
    params = RiskParams(
        lt={COL: Dec("0.4"), SLIVER: Dec("0.4")}, ls=Dec("0.1"), cf=Dec("0.5")
    )
    values = position_values(position, oracle, params)
    return position, values, LiquidationCall("p", DEB, COL, Dec(100)), oracle, params


def _unpriced_pair(lt: str, debt_asset, collateral_asset, repay: str):
    """A call on 400 COL against 300 DEB at price 1, LS 0.1 and CF 0.5 (cap
    150) whose pair names OTHER or SLIVER, which the position neither owes
    nor holds and the oracle does not price. LT 0.8 leaves the position
    healthy, LT 0.4 liquidatable; the core reads that asset's price only
    once the refusals before its read have passed."""
    position = Position("p", collateral={COL: Dec(400)}, debt={DEB: Dec(300)})
    oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1)})
    params = RiskParams(lt={COL: Dec(lt)}, ls=Dec("0.1"), cf=Dec("0.5"))
    values = position_values(position, oracle, params)
    call = LiquidationCall("p", debt_asset, collateral_asset, Dec(repay))
    return position, values, call, oracle, params


# NotLiquidatableError: the debt asset's price is read after the health check
HEALTHY_UNPRICED_DEBT = _unpriced_pair("0.8", OTHER, COL, "10")
# CloseFactorExceededError: the collateral asset's price is read after the cap
OVER_CAP_UNPRICED_COLLATERAL = _unpriced_pair("0.4", DEB, SLIVER, "151")
# MissingPriceError naming SLIVER: the call passes every check before the read
LANDING_UNPRICED_COLLATERAL = _unpriced_pair("0.4", DEB, SLIVER, "100")


@pytest.mark.parametrize("case, collateral, debt", [
    # the repaid native amount is capped at the 1 unit owed, so DEB clears
    (_full_repay(), {COL: Dec.from_raw(9)}, {OTHER: Dec.from_raw(100)}),
    (_all_collateral(), {SLIVER: Dec(1)}, {DEB: Dec(200)}),
])
def test_a_call_that_clears_a_balance_drops_its_entry(case, collateral, debt):
    position, values, call, oracle, params = case
    snapshot = Position(position.owner, dict(position.collateral), dict(position.debt))
    receipt = check_liquidation_call(position, values, call, oracle, params)
    assert receipt.position_after == Position("p", collateral, debt)
    assert list(receipt.position_after.collateral) == list(collateral)
    assert list(receipt.position_after.debt) == list(debt)
    assert position == snapshot


@settings(max_examples=400, deadline=None)
@given(st.one_of(_calls(False), _landing_calls()))
@example(_one_plus_ls_overflows())
@example(_full_repay())
@example(_all_collateral())
@example(HEALTHY_UNPRICED_DEBT)
@example(OVER_CAP_UNPRICED_COLLATERAL)
@example(LANDING_UNPRICED_COLLATERAL)
def test_check_equals_its_dec_port(case):
    position, values, call, oracle, params = case
    snapshot = Position(position.owner, dict(position.collateral), dict(position.debt))
    expected = answer(
        reference_engine.check_liquidation_call, position, values, call, oracle, params
    )
    event(_label(expected))
    assert answer(check_liquidation_call, position, values, call, oracle, params) == expected
    # the check returns the position after the call; it never changes its input
    assert position == snapshot
    expected = answer(reference_engine.max_repay, values, params)
    assert answer(max_repay, values, params) == expected


@settings(max_examples=400, deadline=None)
@given(st.one_of(_calls(True), _landing_calls()))
@example(_full_repay())
@example(_all_collateral())
@example(HEALTHY_UNPRICED_DEBT)
@example(OVER_CAP_UNPRICED_COLLATERAL)
@example(LANDING_UNPRICED_COLLATERAL)
def test_execute_equals_its_dec_port(case):
    position, _, call, oracle, params = case
    expected = answer(reference_engine.execute_liquidation_call, position, call, oracle, params)
    event(_label(expected))
    assert answer(execute_liquidation_call, position, call, oracle, params) == expected
