import random

import pytest
from hypothesis import given, strategies as st

from liqlab import (
    Asset,
    BadDebtKind,
    Dec,
    OracleSnapshot,
    Position,
    PricePathCategory,
    RiskParams,
    classify_bad_debt,
    classify_price_path,
    is_liquidatable,
    position_values,
    scan_unprofitable,
    sensitivity,
    sensitivity_curve,
    stablecoin_divergence,
)
from liqlab.errors import (
    EmptyPathError,
    MissingPriceError,
    PathLengthMismatchError,
    ZeroDebtError,
)

from test_acceptance import _brute_force_lc, _random_portfolio

ETH = Asset("ETH")
USDC = Asset("USDC", decimals=6)
DAI = Asset("DAI")
USDT = Asset("USDT", decimals=6)


def eth_borrower():
    position = Position("b1", collateral={ETH: Dec(10)}, debt={USDC: Dec(20000)})
    oracle = OracleSnapshot(prices={ETH: Dec(3000), USDC: Dec(1)})
    params = RiskParams(lt={ETH: Dec("0.8")}, ls=Dec("0.05"), cf=Dec("0.5"))
    return position, oracle, params


class TestSensitivity:
    def test_single_borrower_crossing(self):
        position, oracle, params = eth_borrower()
        # 20% ETH decline: C' = 24000, BC' = 19200 < 20000, so LC counts C'
        lc = sensitivity([position], ETH, Dec("0.2"), oracle, params)
        assert lc == Dec(24000)

    def test_no_decline_no_liquidatable_collateral(self):
        position, oracle, params = eth_borrower()
        assert sensitivity([position], ETH, Dec(0), oracle, params) == Dec(0)

    def test_borrower_without_target_collateral_is_skipped(self):
        # owes the target but holds none of it: the scan ignores it even if
        # the position is already unhealthy
        position = Position("b2", collateral={DAI: Dec(100)}, debt={ETH: Dec(1)})
        oracle = OracleSnapshot(prices={DAI: Dec(1), ETH: Dec(200)})
        params = RiskParams(lt={DAI: Dec("0.75")}, ls=Dec("0.05"), cf=Dec("0.5"))
        assert sensitivity([position], ETH, Dec("0.5"), oracle, params) == Dec(0)

    def test_borrower_with_target_on_both_sides(self):
        # ETH collateral and ETH debt: the decline also shrinks the debt, so
        # BC' = 12750 against D' = 13500 makes it liquidatable
        position = Position(
            "b3", collateral={ETH: Dec(10), DAI: Dec(1000)}, debt={ETH: Dec(9)}
        )
        oracle = OracleSnapshot(prices={ETH: Dec(3000), DAI: Dec(1)})
        params = RiskParams(
            lt={ETH: Dec("0.8"), DAI: Dec("0.75")}, ls=Dec("0.05"), cf=Dec("0.5")
        )
        decline = Dec("0.5")
        lc = sensitivity([position], ETH, decline, oracle, params)
        # brute-force oracle: reprice and re-evaluate through the core engine
        scaled = OracleSnapshot(prices={ETH: Dec(1500), DAI: Dec(1)})
        values = position_values(position, scaled, params)
        assert is_liquidatable(values)
        assert lc == values.c
        assert lc == Dec(16000)  # 15000 + 1000, both post-decline values

    def test_decline_range_validated(self):
        position, oracle, params = eth_borrower()
        with pytest.raises(ValueError):
            sensitivity([position], ETH, Dec("1.5"), oracle, params)

    def test_unpriced_target_rejected(self):
        position, oracle, params = eth_borrower()
        with pytest.raises(MissingPriceError):
            sensitivity([position], DAI, Dec("0.5"), oracle, params)

    def test_additive_over_disjoint_borrowers(self):
        position, oracle, params = eth_borrower()
        other = Position("b2", collateral={ETH: Dec(4)}, debt={USDC: Dec(9000)})
        d = Dec("0.3")
        both = sensitivity([position, other], ETH, d, oracle, params)
        alone = sensitivity([position], ETH, d, oracle, params)
        alone2 = sensitivity([other], ETH, d, oracle, params)
        assert both == alone + alone2


class TestSensitivityCurve:
    def test_empty_borrowers_all_zero(self):
        _, oracle, params = eth_borrower()
        points = sensitivity_curve([], ETH, 4, oracle, params)
        assert len(points) == 5
        assert all(p.liquidatable_collateral_usd == Dec(0) for p in points)
        assert points[-1].decline_pct == Dec(1)

    def test_step_function_jumps_at_crossing(self):
        # BC' = 24000*(1-d) crosses D = 20000 at d = 1/6, between grid
        # points 0.1 and 0.2; past the crossing LC tracks the post-decline
        # collateral value 30000*(1-d), which is why d=1 contributes zero
        position, oracle, params = eth_borrower()
        points = sensitivity_curve([position], ETH, 10, oracle, params)
        by_decline = {str(p.decline_pct): p.liquidatable_collateral_usd for p in points}
        assert by_decline["0"] == Dec(0)
        assert by_decline["0.1"] == Dec(0)
        assert by_decline["0.2"] == Dec(24000)
        assert by_decline["0.5"] == Dec(15000)
        assert by_decline["1"] == Dec(0)
        crossings = [
            later
            for later, earlier in zip(points[1:], points[:-1])
            if earlier.liquidatable_collateral_usd == Dec(0)
            and later.liquidatable_collateral_usd > Dec(0)
        ]
        assert [str(p.decline_pct) for p in crossings] == ["0.2"]

    def test_minimum_steps(self):
        _, oracle, params = eth_borrower()
        with pytest.raises(ValueError):
            sensitivity_curve([], ETH, 1, oracle, params)

    def test_points_equal_per_step_sensitivity_and_brute_force(self):
        rng = random.Random(606)
        owing_holders = 0
        for _ in range(60):
            positions, oracle, params = _random_portfolio(rng)
            target = rng.choice(sorted(oracle.prices, key=lambda a: a.symbol))
            owing_holders += sum(
                target in p.collateral and target in p.debt for p in positions
            )
            # k/steps must have at most two decimals, as in acceptance 06, for
            # the brute-force route to stay exact
            steps = rng.choice((2, 4, 5, 10, 20, 25))
            for point in sensitivity_curve(positions, target, steps, oracle, params):
                decline = point.decline_pct
                lc = point.liquidatable_collateral_usd
                assert lc == sensitivity(positions, target, decline, oracle, params)
                assert lc == _brute_force_lc(positions, target, decline, oracle, params)
        assert owing_holders > 0


class TestBadDebt:
    ORACLE = OracleSnapshot(prices={DAI: Dec(1)})

    def classify(self, c, d, fee):
        position = Position("p", collateral={DAI: Dec(c)}, debt={DAI: Dec(d)})
        return classify_bad_debt(position, Dec(fee), self.ORACLE)

    def test_under_collateralized_is_type_one(self):
        verdict = self.classify(90, 100, 100)
        assert verdict.kind is BadDebtKind.TYPE_I
        assert verdict.locked_collateral_usd == Dec(90)

    def test_excess_below_fee_is_type_two(self):
        verdict = self.classify(150, 100, 100)
        assert verdict.kind is BadDebtKind.TYPE_II
        assert verdict.locked_collateral_usd == Dec(150)

    def test_excess_covering_fee_is_not_bad(self):
        verdict = self.classify(250, 100, 100)
        assert verdict.kind is BadDebtKind.NOT_BAD
        assert verdict.locked_collateral_usd == Dec(0)

    def test_breakeven_boundary_is_not_bad(self):
        assert self.classify(200, 100, 100).kind is BadDebtKind.NOT_BAD

    def test_zero_debt_rejected(self):
        position = Position("p", collateral={DAI: Dec(10)})
        with pytest.raises(ZeroDebtError):
            classify_bad_debt(position, Dec(10), self.ORACLE)

    def test_bad_set_shrinks_as_fee_decreases(self):
        verdict_high = self.classify(150, 100, 100)
        verdict_low = self.classify(150, 100, 10)
        assert verdict_high.kind is BadDebtKind.TYPE_II
        assert verdict_low.kind is BadDebtKind.NOT_BAD


@given(
    c=st.integers(0, 400).map(Dec),
    d=st.integers(1, 200).map(Dec),
    fee=st.integers(0, 150).map(Dec),
)
def test_bad_debt_partition_is_exhaustive_and_exclusive(c, d, fee):
    position = Position("p", collateral={DAI: c}, debt={DAI: d})
    verdict = classify_bad_debt(position, fee, OracleSnapshot(prices={DAI: Dec(1)}))
    expected = (
        BadDebtKind.TYPE_I if c < d else BadDebtKind.TYPE_II if c - d < fee else BadDebtKind.NOT_BAD
    )
    assert verdict.kind is expected


class TestScanUnprofitable:
    def setup(self, fee):
        # liquidatable: bc = 0.9 * 2100 = 1890 < 2000
        position = Position("p", collateral={DAI: Dec(2100)}, debt={USDC: Dec(2000)})
        oracle = OracleSnapshot(prices={DAI: Dec(1), USDC: Dec(1)})
        params = RiskParams(lt={DAI: Dec("0.9")}, ls=Dec("0.08"), cf=Dec("0.5"))
        return scan_unprofitable([position], Dec(fee), oracle, params)

    def test_bonus_below_fee_is_reported(self):
        result = self.setup(100)
        assert len(result) == 1
        _, bonus = result[0]
        assert bonus == Dec(80)  # 0.5 * 2000 * 0.08

    def test_bonus_covering_fee_is_excluded(self):
        assert self.setup(10) == []

    def test_healthy_position_excluded(self):
        position = Position("p", collateral={DAI: Dec(100000)}, debt={USDC: Dec(2000)})
        oracle = OracleSnapshot(prices={DAI: Dec(1), USDC: Dec(1)})
        params = RiskParams(lt={DAI: Dec("0.9")}, ls=Dec("0.08"), cf=Dec("0.5"))
        assert scan_unprofitable([position], Dec(1000), oracle, params) == []


class TestClassifyPricePath:
    LP = Dec(100)

    def classify(self, prices):
        return classify_price_path([Dec(p) for p in prices], self.LP)

    def test_seven_canonical_fixtures(self):
        assert self.classify(["100", "100"]) is PricePathCategory.HORIZONTAL
        assert self.classify(["105", "106"]) is PricePathCategory.RISE
        assert self.classify(["95", "94"]) is PricePathCategory.FALL
        assert self.classify(["105", "95"]) is PricePathCategory.RISE_FALL
        assert self.classify(["95", "105"]) is PricePathCategory.FALL_RISE
        assert self.classify(["110", "90", "110"]) is PricePathCategory.RISE_FLUCTUATION
        assert self.classify(["90", "110", "90"]) is PricePathCategory.FALL_FLUCTUATION

    def test_four_runs_counts_as_fluctuation(self):
        assert self.classify(["110", "90", "110", "90"]) is PricePathCategory.RISE_FLUCTUATION

    def test_values_at_the_liquidation_price_are_absorbed(self):
        assert self.classify(["100", "105", "100", "106"]) is PricePathCategory.RISE
        assert self.classify(["105", "100", "95"]) is PricePathCategory.RISE_FALL

    def test_empty_path_rejected(self):
        with pytest.raises(EmptyPathError):
            classify_price_path([], self.LP)
        with pytest.raises(ValueError):
            classify_price_path([Dec(1)], Dec(0))


@given(
    prices=st.lists(st.integers(80, 120).map(Dec), min_size=1, max_size=40),
)
def test_classifier_total_and_stable_under_same_side_extension(prices):
    category = classify_price_path(prices, Dec(100))
    assert isinstance(category, PricePathCategory)
    last_side = None
    for p in reversed(prices):
        if p != Dec(100):
            last_side = p
            break
    if last_side is not None:
        assert classify_price_path(prices + [last_side], Dec(100)) is category


class TestStablecoinDivergence:
    def test_identical_paths(self):
        paths = {DAI: [Dec(1), Dec(1)], USDC: [Dec(1), Dec(1)]}
        max_diff, fraction = stablecoin_divergence(paths, Dec("0.05"))
        assert max_diff == Dec(0)
        assert fraction == Dec(1)

    def test_single_block_divergence(self):
        paths = {DAI: [Dec("1.111")], USDC: [Dec("1.00")]}
        max_diff, fraction = stablecoin_divergence(paths, Dec("0.05"))
        assert max_diff == Dec("0.111")
        assert fraction == Dec(0)

    def test_fraction_counts_blocks_within_threshold(self):
        paths = {
            DAI: [Dec(1), Dec("1.2")],
            USDC: [Dec("1.01"), Dec(1)],
            USDT: [Dec(1), Dec(1)],
        }
        max_diff, fraction = stablecoin_divergence(paths, Dec("0.05"))
        assert max_diff == Dec("0.2")
        assert fraction == Dec("0.5")

    def test_length_mismatch_rejected(self):
        with pytest.raises(PathLengthMismatchError):
            stablecoin_divergence({DAI: [Dec(1)], USDC: [Dec(1), Dec(1)]}, Dec("0.05"))

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            stablecoin_divergence({DAI: [Dec(1)]}, Dec(0))
