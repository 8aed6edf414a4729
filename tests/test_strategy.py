import random

import pytest
from hypothesis import event, given, settings, strategies as st

from liqlab import (
    Asset,
    Dec,
    LiquidationCall,
    OracleSnapshot,
    Position,
    RiskParams,
    StrategyPlan,
    StrategyProfits,
    closed_form_delta_r,
    execute_liquidation_call,
    execute_two_step,
    health_factor,
    is_liquidatable,
    max_repay,
    mitigation_threshold,
    optimal_repays,
    position_values,
    strategy_profits,
)
from liqlab.errors import (
    InvalidParamsError,
    NotLiquidatableError,
    ZeroSecondLiquidationError,
)
from liqlab.fixedpoint import ONE, ULP

import reference_engine
from helpers import (
    TOL6,
    TOL9,
    TOL12,
    answer,
    assert_close,
    raw_magnitudes,
    rel_close,
    unclamped_instance,
)

COL = Asset("COL")
DEB = Asset("DEB")

SMALL = dict(c=Dec(125), d=Dec(100), lt=Dec("0.75"))
SMALL_PARAMS = RiskParams(lt={}, ls=Dec("0.08"), cf=Dec("0.5"))

# r* = (100 - 0.75*125) / (1 - 0.75*1.08) = 625/19
R_STAR = Dec("32.894736842105263158")


class TestOptimalRepays:
    def test_small_instance_plan(self):
        plan = optimal_repays(params=SMALL_PARAMS, **SMALL)
        assert plan.repay1 == R_STAR - ULP
        assert plan.repay2 == Dec("33.552631578947368422")
        assert not plan.clamped

    def test_case_study_rounded_inputs(self):
        # table inputs rounded to 0.01M: C=136.73M, D=102.61M
        params = RiskParams(lt={}, ls=Dec("0.08"), cf=Dec("0.5"))
        plan = optimal_repays(Dec(136_730_000), Dec(102_610_000), Dec("0.75"), params)
        assert plan.repay1 == Dec("328947.368421052631578947") - ULP
        # the historical first repay was 296.61K DAI at 1.095299 USD/DAI;
        # the rounded table inputs land within 10% of it
        target = Dec("296610") * Dec("1.095299")
        assert abs(plan.repay1 - target) <= target * Dec("0.10")
        assert not plan.clamped

    def test_clamped_instance(self):
        # r* = (100 - 88) / (1 - 0.8*1.05) = 75 exceeds CF*D = 50
        params = RiskParams(lt={}, ls=Dec("0.05"), cf=Dec("0.5"))
        plan = optimal_repays(Dec(110), Dec(100), Dec("0.8"), params)
        assert plan.clamped
        assert plan.repay1 == Dec(50)
        assert plan.repay2 == Dec(25)

    def test_r_star_equal_to_the_cap_is_not_clamped(self):
        # r* = (100 - 0.5*155) / (1 - 0.5*1.1) = 50 is exactly CF*D: the plan
        # repays one unit less, so the position is still liquidatable for the
        # second call
        params = RiskParams(lt={}, ls=Dec("0.1"), cf=Dec("0.5"))
        plan = optimal_repays(Dec(155), Dec(100), Dec("0.5"), params)
        assert plan == StrategyPlan(
            repay1=Dec("49.999999999999999999"), repay2=Dec(25), clamped=False
        )

    def test_closed_form_past_the_dec_range_is_clamped(self):
        # LT one unit under 1 and LS 0: r* = 9e45 / 1e-18 is past 2**255 raw,
        # so far over CF*D = 5e45 that the plan is clamped, not an overflow
        params = RiskParams(lt={}, ls=Dec(0), cf=Dec("0.5"))
        plan = optimal_repays(Dec(10**45), Dec(10**46), ONE - ULP, params)
        assert plan == StrategyPlan(repay1=Dec(5 * 10**45), repay2=Dec(25 * 10**44), clamped=True)

    def test_healthy_position_refused(self):
        with pytest.raises(NotLiquidatableError):
            optimal_repays(Dec(200), Dec(100), Dec("0.75"), SMALL_PARAMS)

    def test_boundary_hf_equal_one_refused(self):
        # d = lt*c exactly is not liquidatable under the strict rule
        with pytest.raises(NotLiquidatableError):
            optimal_repays(Dec(100), Dec(75), Dec("0.75"), SMALL_PARAMS)

    def test_invalid_params_refused(self):
        params = RiskParams(lt={}, ls=Dec("0.10"), cf=Dec("0.5"))
        with pytest.raises(InvalidParamsError):
            optimal_repays(Dec(103), Dec(100), Dec("0.95"), params)

    @pytest.mark.parametrize("c, d", [(-1000, -100), (-1, 100), (125, -1)])
    def test_negative_position_values_refused(self, c, d):
        with pytest.raises(InvalidParamsError) as info:
            optimal_repays(Dec(c), Dec(d), Dec("0.75"), SMALL_PARAMS)
        assert str(info.value) == f"position values must be non-negative: c={c}, d={d}"

    def test_the_threshold_is_checked_before_the_values(self):
        with pytest.raises(InvalidParamsError, match="outside"):
            optimal_repays(Dec(-1), Dec(-1), Dec(1), SMALL_PARAMS)
        params = RiskParams(lt={}, ls=Dec("0.10"), cf=Dec("0.5"))
        with pytest.raises(InvalidParamsError, match=r"LT\*\(1\+LS\)"):
            optimal_repays(Dec(-1), Dec(-1), Dec("0.95"), params)


class TestStrategyProfits:
    def test_small_instance_profits(self):
        profits = strategy_profits(params=SMALL_PARAMS, **SMALL)
        assert profits.profit_close_factor == Dec(4)
        assert_close(profits.profit_optimal, Dec("5.315789473684210526"), TOL12)
        assert_close(profits.delta_r, Dec("0.328947368421052632"), TOL12)

    def test_closed_form_matches_realized_delta(self):
        profits = strategy_profits(params=SMALL_PARAMS, **SMALL)
        cr = SMALL["c"] / SMALL["d"]
        closed = closed_form_delta_r(cr, SMALL["lt"], SMALL_PARAMS)
        assert_close(closed, Dec("0.328947368421052632"), TOL12)
        assert rel_close(profits.delta_r, closed, TOL6)

    def test_full_close_factor_means_no_gain(self):
        # with CF = 1 a single call already repays everything allowed, so the
        # split changes nothing: delta is zero on both routes
        params = RiskParams(lt={}, ls=Dec("0.08"), cf=Dec(1))
        profits = strategy_profits(Dec(125), Dec(100), Dec("0.75"), params)
        assert profits.delta_r == Dec(0)
        assert closed_form_delta_r(Dec("1.25"), Dec("0.75"), params) == Dec(0)

    def test_near_boundary_degenerates_to_close_factor_profit(self):
        # CR just below 1/LT: the first repay collapses toward zero
        d = Dec("0.75") * Dec(1000) + ULP
        profits = strategy_profits(Dec(1000), d, Dec("0.75"), SMALL_PARAMS)
        assert_close(profits.profit_optimal, profits.profit_close_factor, Dec("0.000001"))
        assert closed_form_delta_r(Dec(1000) / (Dec(750)), Dec("0.75"), SMALL_PARAMS) <= TOL6

    def test_close_factor_profit_is_the_gross_of_the_capped_call(self):
        # LS*CF = 5e-19 rounds to 0, but the cap CF*d = 1.5 grosses
        # 1.5e-18, which rounds half-even to 2e-18
        col, deb = Asset("COL"), Asset("DEB")
        params = RiskParams(lt={col: Dec("0.5")}, ls=ULP, cf=Dec("0.5"))
        profits = strategy_profits(Dec(3), Dec(3), Dec("0.5"), params)
        assert profits.profit_close_factor == Dec(2) * ULP
        position = Position("b", {col: Dec(3)}, {deb: Dec(3)})
        oracle = OracleSnapshot(prices={col: Dec(1), deb: Dec(1)})
        values = position_values(position, oracle, params)
        call = LiquidationCall("b", deb, col, max_repay(values, params))
        receipt = execute_liquidation_call(position, call, oracle, params)
        assert receipt.liquidator_profit_usd == profits.profit_close_factor

    def test_case_study_profit_targets(self):
        params = RiskParams(lt={}, ls=Dec("0.08"), cf=Dec("0.5"))
        c, d, lt = Dec(136_730_000), Dec(102_610_000), Dec("0.75")
        profits = strategy_profits(c, d, lt, params)
        dai = Dec("1.095299")
        close_target = Dec(3_730_000) * dai
        optimal_target = Dec(3_743_700) * dai
        one_pct = Dec("0.01")
        assert abs(profits.profit_close_factor - close_target) <= close_target * one_pct
        assert abs(profits.profit_optimal - optimal_target) <= optimal_target * one_pct
        assert Dec("0.002") <= profits.delta_r <= Dec("0.006")


class TestMitigation:
    def test_small_instance_threshold(self):
        plan = optimal_repays(params=SMALL_PARAMS, **SMALL)
        profits = strategy_profits(params=SMALL_PARAMS, **SMALL)
        analysis = mitigation_threshold(profits, plan, SMALL_PARAMS)
        assert_close(analysis.profit_o1, Dec("2.631578947368421053"), TOL12)
        assert_close(analysis.profit_o2, Dec("2.684210526315789474"), TOL12)
        assert_close(analysis.alpha_threshold, Dec("0.509803921568627451"), TOL12)

    def test_case_study_mining_power(self):
        params = RiskParams(lt={}, ls=Dec("0.08"), cf=Dec("0.5"))
        c, d, lt = Dec(136_730_000), Dec(102_610_000), Dec("0.75")
        plan = optimal_repays(c, d, lt, params)
        profits = strategy_profits(c, d, lt, params)
        analysis = mitigation_threshold(profits, plan, params)
        assert abs(analysis.alpha_threshold - Dec("0.9968")) <= Dec("0.005")

    def test_first_profit_covering_close_factor_gives_nonpositive_threshold(self):
        params = RiskParams(lt={}, ls=Dec("0.1"), cf=Dec("0.5"))
        plan = StrategyPlan(repay1=Dec(20), repay2=Dec(10), clamped=False)
        profits = StrategyProfits(
            profit_optimal=Dec(3), profit_close_factor=Dec(1), delta_r=Dec(2)
        )
        analysis = mitigation_threshold(profits, plan, params)
        assert analysis.alpha_threshold <= Dec(0)

    def test_second_call_that_earns_nothing_is_refused(self):
        # LS 0: profit_o2 is 0, so alpha = (profit_c - profit_o1) / 0
        params = RiskParams(lt={}, ls=Dec(0), cf=Dec("0.5"))
        plan = optimal_repays(Dec(125), Dec(100), Dec("0.75"), params)
        profits = strategy_profits(Dec(125), Dec(100), Dec("0.75"), params)
        with pytest.raises(ZeroSecondLiquidationError, match="earns nothing"):
            mitigation_threshold(profits, plan, params)

    def test_zero_second_repay_refused(self):
        plan = StrategyPlan(repay1=Dec(20), repay2=Dec(0), clamped=False)
        profits = StrategyProfits(Dec(2), Dec(2), Dec(0))
        with pytest.raises(ZeroSecondLiquidationError):
            mitigation_threshold(profits, plan, SMALL_PARAMS)


class TestExecuteTwoStep:
    def setup_method(self):
        self.position = Position("p", collateral={COL: Dec(125)}, debt={DEB: Dec(100)})
        self.oracle = OracleSnapshot(prices={COL: Dec(1), DEB: Dec(1)})
        self.params = RiskParams(lt={COL: Dec("0.75")}, ls=Dec("0.08"), cf=Dec("0.5"))

    def test_realized_profit_matches_closed_form(self):
        result = execute_two_step(self.position, DEB, COL, self.oracle, self.params)
        profits = strategy_profits(Dec(125), Dec(100), Dec("0.75"), self.params)
        assert rel_close(result.realized_profit_usd, profits.profit_optimal, TOL9)

    def test_still_liquidatable_between_calls(self):
        result = execute_two_step(self.position, DEB, COL, self.oracle, self.params)
        mid = position_values(result.receipt1.position_after, self.oracle, self.params)
        # eligibility is the exact comparison bc < d; the 18-digit ratio
        # itself rounds to 1 here because the margin is below one ulp
        assert is_liquidatable(mid)
        assert mid.bc < mid.d
        end = position_values(result.receipt2.position_after, self.oracle, self.params)
        assert health_factor(end) is not None

    def test_clamped_instance_ends_at_the_boundary(self):
        # c=110, d=100, LT=0.8, LS=0.05: both calls are close-factor bound and
        # the final health factor lands exactly on 1
        position = Position("p", collateral={COL: Dec(110)}, debt={DEB: Dec(100)})
        params = RiskParams(lt={COL: Dec("0.8")}, ls=Dec("0.05"), cf=Dec("0.5"))
        result = execute_two_step(position, DEB, COL, self.oracle, params)
        assert result.receipt1.repaid_value_usd == Dec(50)
        assert result.receipt2.repaid_value_usd == Dec(25)
        end = position_values(result.receipt2.position_after, self.oracle, params)
        assert health_factor(end) == Dec(1)
        assert not is_liquidatable(end)

    def test_healthy_position_propagates_refusal(self):
        healthy = Position("p", collateral={COL: Dec(200)}, debt={DEB: Dec(100)})
        with pytest.raises(NotLiquidatableError):
            execute_two_step(healthy, DEB, COL, self.oracle, self.params)


def test_dominance_on_random_unclamped_instances():
    rng = random.Random(99)
    for _ in range(500):
        c, d, lt, params = unclamped_instance(rng)
        profits = strategy_profits(c, d, lt, params)
        assert profits.profit_optimal >= profits.profit_close_factor
        closed = closed_form_delta_r(c / d, lt, params)
        assert rel_close(profits.delta_r, closed, TOL6), (c, d, lt, params)


def test_repay_of_exactly_r_star_restores_health_exactly():
    # lt=0.5, ls=0.5, c=100, d=60 solves to the representable r* = 40
    from fractions import Fraction

    params = RiskParams(lt={}, ls=Dec("0.5"), cf=Dec(1))
    r_star = (Dec(60) - Dec("0.5") * Dec(100)) / (Dec(1) - Dec("0.5") * Dec("1.5"))
    assert r_star == Dec(40)
    hf_at_star = Dec("0.5") * (Dec(100) - r_star * Dec("1.5")) / (Dec(60) - r_star)
    assert hf_at_star == Dec(1)
    plan = optimal_repays(Dec(100), Dec(60), Dec("0.5"), params)
    assert plan.repay1 == r_star - ULP
    # the one-ulp step keeps the exact (rational) health factor strictly
    # below 1; at this scale the inequality is finer than the 18-digit grid,
    # so check it with exact fractions
    r = Fraction(plan.repay1.raw, 10**18)
    hf_exact = Fraction(1, 2) * (100 - r * Fraction(3, 2)) / (60 - r)
    assert hf_exact < 1


# -- the scaled-integer plan against its Dec-expression port -----------------

_SCALE = 10**18


def _signed_magnitudes():
    return st.one_of(raw_magnitudes(), raw_magnitudes().map(lambda raw: -raw))


@st.composite
def _plan_inputs(draw):
    """Raw c, d, LT and parameters: LT*(1+LS) anywhere below 1, or within a
    few units of 1, where r* leaves the Dec range; LT outside (0, 1) too; LS
    up to the Dec range, where ``ONE + LS`` overflows."""
    small_ls = st.integers(0, 50).map(lambda pct: pct * _SCALE // 100)
    ls = draw(st.one_of(small_ls, small_ls, small_ls, st.integers(0, _SCALE), raw_magnitudes()))
    edge = _SCALE * _SCALE // (_SCALE + ls)  # the largest LT with LT*(1+LS) <= 1, about
    lt = draw(st.one_of(
        st.integers(1, 99).map(lambda pct: max(edge * pct // 100, 1)),
        st.integers(1, 99).map(lambda pct: max(edge * pct // 100, 1)),
        st.integers(max(edge - 3, 1), edge + 3),
        st.integers(-_SCALE, 2 * _SCALE),
    ))
    c = draw(st.one_of(
        _signed_magnitudes(), st.integers(1, 10**12).map(lambda n: n * 10**16)
    ))
    # d anywhere, or a fraction of c (often liquidatable and unclamped)
    d = draw(st.one_of(
        _signed_magnitudes(), st.integers(30, 100).map(lambda pct: c * pct // 100)
    ))
    cf = draw(st.one_of(
        st.integers(1, _SCALE), st.integers(1, 100).map(lambda pct: pct * _SCALE // 100)
    ))
    params = RiskParams(lt={}, ls=Dec.from_raw(ls), cf=Dec.from_raw(cf))
    return Dec.from_raw(c), Dec.from_raw(d), Dec.from_raw(lt), params


@settings(max_examples=500, deadline=None)
@given(st.one_of(_plan_inputs(), st.randoms(use_true_random=False).map(unclamped_instance)))
def test_optimal_repays_equals_its_dec_port(inputs):
    expected = answer(reference_engine.optimal_repays, *inputs)
    if isinstance(expected, StrategyPlan):
        event(f"plan, clamped={expected.clamped}")
    else:
        event(expected[1].__name__)
    assert answer(optimal_repays, *inputs) == expected
