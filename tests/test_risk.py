import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
from liqlab.fixedpoint import SCALE, _round_div
from liqlab.risk import _liquidatable_collateral, _target_exposures

from test_acceptance import _brute_force_lc, _random_portfolio

ETH = Asset("ETH")
USDC = Asset("USDC")
DAI = Asset("DAI")
USDT = Asset("USDT")


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


def _per_decline_lc(exposures, decline):
    """The reference for the sweep: every exposure tested at the one decline."""
    k = decline.raw
    lc = 0
    for c, bc, d, target_value, target_bc, target_debt in exposures:
        bc_adj = bc - _round_div(target_bc * k, SCALE)
        d_adj = d if target_debt is None else d - _round_div(target_debt * k, SCALE)
        if bc_adj < d_adj:
            lc += c - _round_div(target_value * k, SCALE)
    return Dec.from_raw(lc)


TARGET = Asset("T")
OTHER = Asset("O")
# all 18 fractional digits drawn, so that every product has digits to round
fine = st.builds(
    lambda whole, fraction: Dec.from_raw(whole * SCALE + fraction),
    st.integers(0, 10**4),
    st.integers(0, SCALE - 1),
)


@st.composite
def target_books(draw):
    """Holders of TARGET whose debt puts their crossing, the decline past
    which they are liquidatable, anywhere in [0, 1]; some also owe TARGET."""
    price = draw(fine.filter(bool))
    oracle = OracleSnapshot(prices={TARGET: price, OTHER: Dec(1)})
    lt = Dec(draw(st.integers(1, 99))) / Dec(100)
    params = RiskParams(lt={TARGET: lt, OTHER: Dec("0.5")}, ls=Dec(0), cf=Dec("0.5"))
    positions = []
    for i in range(draw(st.integers(1, 6))):
        collateral = {TARGET: draw(fine.filter(bool)), OTHER: draw(fine)}
        capacity = position_values(Position("", collateral), oracle, params).bc
        crossing = Dec.from_raw(draw(st.integers(0, SCALE)))
        debt = {OTHER: capacity - collateral[TARGET] * price * lt * crossing}
        if draw(st.booleans()):
            debt[TARGET] = draw(fine)
        positions.append(Position(f"b{i}", collateral, debt))
    return positions, oracle, params


@settings(max_examples=150, deadline=None)
@given(
    book=target_books(),
    steps=st.integers(2, 150),
    decline=st.integers(0, SCALE).map(Dec.from_raw),
)
@example(  # 7 does not divide 10**18: the declines k/7 are rounded
    book=([Position("b0", {TARGET: Dec(10)}, {OTHER: Dec(20000)})],
          OracleSnapshot(prices={TARGET: Dec(3000), OTHER: Dec(1)}),
          RiskParams(lt={TARGET: Dec("0.8")}, ls=Dec(0), cf=Dec("0.5"))),
    steps=7,
    decline=Dec(1) / Dec(6),
)
def test_sweep_equals_the_per_decline_loop(book, steps, decline):
    positions, oracle, params = book
    exposures = _target_exposures(positions, TARGET, oracle, params)
    points = sensitivity_curve(positions, TARGET, steps, oracle, params)
    declines = [Dec(k) / Dec(steps) for k in range(steps + 1)]
    assert [p.decline_pct for p in points] == declines
    assert [p.liquidatable_collateral_usd for p in points] == [
        _per_decline_lc(exposures, x) for x in declines
    ]
    assert sensitivity(positions, TARGET, decline, oracle, params) == _per_decline_lc(
        exposures, decline
    )


@pytest.mark.parametrize("steps", [7, 30, 100])
@settings(max_examples=40, deadline=None)
@given(book=target_books())
def test_curve_equals_sensitivity_at_each_step(steps, book):
    # 18-digit prices and declines k/steps, most of them rounded: the sweep
    # divides by each decline's reduced denominator, sensitivity by its own
    positions, oracle, params = book
    exposures = _target_exposures(positions, TARGET, oracle, params)
    for point in sensitivity_curve(positions, TARGET, steps, oracle, params):
        decline = point.decline_pct
        assert point.liquidatable_collateral_usd == sensitivity(
            positions, TARGET, decline, oracle, params
        ) == _per_decline_lc(exposures, decline)


def decimals(places, low, high):
    """Decimals of ``places`` fractional digits, from ``low`` to ``high`` units
    of the last digit."""
    return st.integers(low, high).map(lambda units: Dec.from_raw(units * (SCALE // 10**places)))


@st.composite
def cent_exposures(draw):
    """The exposures of a book priced as the bench prices it: 2-decimal
    prices and thresholds, 6-decimal amounts. Every target value is then a
    multiple of 10**10, so of the denominators' lcm for every step count
    that divides 10**10: the sweep's exact path. Crossings lie anywhere in
    [0, 1], and some holders also owe TARGET."""
    price = draw(decimals(2, 1, 10**7))
    oracle = OracleSnapshot(prices={TARGET: price, OTHER: Dec(1)})
    lt = draw(decimals(2, 1, 99))
    params = RiskParams(lt={TARGET: lt, OTHER: Dec("0.5")}, ls=Dec(0), cf=Dec("0.5"))
    positions = []
    for i in range(draw(st.integers(1, 8))):
        collateral = {TARGET: draw(decimals(6, 1, 10**12)), OTHER: draw(decimals(6, 0, 10**12))}
        capacity = position_values(Position("", collateral), oracle, params).bc
        crossing = Dec.from_raw(draw(st.integers(0, SCALE)))
        debt = capacity - collateral[TARGET] * price * lt * crossing
        debt = {OTHER: Dec.from_raw(debt.raw - debt.raw % 10**12)}
        if draw(st.integers(0, 3)) == 0:
            debt[TARGET] = draw(decimals(6, 1, 10**12))
        positions.append(Position(f"b{i}", collateral, debt))
    return _target_exposures(positions, TARGET, oracle, params)


@settings(max_examples=150, deadline=None)
@given(exposures=cent_exposures(), steps=st.sampled_from((2, 7, 30, 100)))
@example(  # an odd target value at decline 1/2: a half-even tie on the rounded path
    exposures=[(
        966931340084276953881792, 790113403339912172355472, 786750264029535054295403,
        139150192546212914844915, 42061425405740872529917, None,
    )],
    steps=2,
)
def test_cent_priced_sweep_equals_the_per_decline_loop(exposures, steps):
    # 2 and 100 divide 10**10, so their totals are suffix sums of exact
    # terms; most declines k/7 and k/30 are rounded, so most terms are too
    declines = [Dec(k) / Dec(steps) for k in range(steps + 1)]
    assert _liquidatable_collateral(exposures, [x.raw for x in declines]) == [
        _per_decline_lc(exposures, x) for x in declines
    ]


class TestRiskScanOverflow:
    PARAMS = RiskParams(lt={ETH: Dec("0.8")}, ls=Dec("0.05"), cf=Dec("0.5"))
    ORACLE = OracleSnapshot(prices={ETH: Dec(3500), USDC: Dec(1)})

    def test_position_worth_more_than_2_255_overflows(self):
        whale = Position("whale", collateral={ETH: Dec("5" + "0" * 58)}, debt={USDC: Dec(1)})
        with pytest.raises(OverflowError, match=r"exceeds 2\*\*255"):
            sensitivity_curve([whale], ETH, 4, self.ORACLE, self.PARAMS)
        with pytest.raises(OverflowError, match=r"exceeds 2\*\*255"):
            classify_bad_debt(whale, Dec(0), self.ORACLE)

    def test_liquidatable_collateral_summed_past_2_255_overflows(self):
        # each book entry fits, but the two liquidatable ones do not add up
        oracle = OracleSnapshot(prices={ETH: Dec(1), USDC: Dec(1)})
        big = Dec("3" + "0" * 58)
        book = [
            Position(f"b{i}", collateral={ETH: big}, debt={USDC: Dec("29" + "0" * 57)})
            for i in range(2)
        ]
        sensitivity_curve(book[:1], ETH, 4, oracle, self.PARAMS)
        with pytest.raises(OverflowError, match=r"exceeds 2\*\*255"):
            sensitivity_curve(book, ETH, 4, oracle, self.PARAMS)


class TestBadDebt:
    ORACLE = OracleSnapshot(prices={DAI: Dec(1)})

    def classify(self, c, d, fee):
        position = Position("p", collateral={DAI: Dec(c)}, debt={DAI: Dec(d)})
        return classify_bad_debt(position, Dec(fee), self.ORACLE)

    def test_under_collateralized_is_type_one(self):
        verdict = self.classify(90, 100, 100)
        assert verdict.kind is BadDebtKind.TYPE_I
        assert verdict.locked_collateral_usd == Dec(90)

    def test_a_negative_fee_is_refused(self):
        with pytest.raises(ValueError) as info:
            self.classify(150, 100, -1)
        assert str(info.value) == "fee must be >= 0: -1"

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

    def test_bonus_equal_to_fee_is_reported(self):
        # net profit 0: the scenario engine would not send this call either
        result = self.setup(80)
        assert len(result) == 1
        assert result[0][1] == Dec(80)

    @pytest.mark.parametrize("size", [0, 1], ids=["empty-book", "one-position"])
    def test_a_negative_fee_is_refused_on_any_book(self, size):
        position, oracle, params = eth_borrower()
        with pytest.raises(ValueError) as info:
            scan_unprofitable([position] * size, Dec("-0.5"), oracle, params)
        assert str(info.value) == "fee must be >= 0: -0.5"

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

    @pytest.mark.parametrize("paths", [{}, {DAI: []}], ids=["no-series", "empty-series"])
    def test_an_empty_series_is_refused(self, paths):
        with pytest.raises(
            PathLengthMismatchError, match="^need at least one non-empty price series$"
        ):
            stablecoin_divergence(paths, Dec("0.05"))

    @pytest.mark.parametrize("price", ["0", "-0.5"])
    def test_a_price_of_zero_or_less_is_refused(self, price):
        paths = {DAI: [Dec(1), Dec(1)], USDC: [Dec(1), Dec(price)]}
        with pytest.raises(ValueError) as info:
            stablecoin_divergence(paths, Dec("0.05"))
        assert str(info.value) == f"prices must be > 0, got {price}"

    def test_a_quotient_past_2_255_overflows(self):
        paths = {DAI: [Dec.from_raw(1)], USDC: [Dec(1)], USDT: [Dec(10**50)]}
        with pytest.raises(OverflowError, match=r"exceeds 2\*\*255"):
            stablecoin_divergence(paths, Dec("0.05"))


def _pairwise_divergence(paths, threshold):
    """The statistic by its definition: per block, the largest
    ``|p_i - p_j| / min(p_i, p_j)`` over every pair of assets (0 for one
    asset), and the share of blocks where that is within ``threshold``."""
    series = list(paths.values())
    length = len(series[0])
    max_diff, within = Dec(0), 0
    for block in range(length):
        block_max = Dec(0)
        for a, b in itertools.combinations([s[block] for s in series], 2):
            low, high = min(a, b), max(a, b)
            block_max = max(block_max, (high - low) / low)
        max_diff = max(max_diff, block_max)
        within += block_max <= threshold
    return max_diff, Dec(within) / Dec(length)


# raws of a few units, where the quotient's rounding decides, and prices
# near 1 and far from it, drawn from a pool small enough to repeat
_stable_prices = st.one_of(
    st.integers(1, 6).map(Dec.from_raw),
    st.sampled_from(["0.99", "1", "1.000000000000000001", "1.01", "1.5", "3"]).map(Dec),
    st.integers(1, 10**24).map(Dec.from_raw),
)


@st.composite
def stable_paths(draw):
    length = draw(st.integers(1, 5))
    assets = draw(st.integers(1, 4))
    return {
        Asset(f"S{i}"): draw(st.lists(_stable_prices, min_size=length, max_size=length))
        for i in range(assets)
    }


@settings(max_examples=400, deadline=None)
@given(
    paths=stable_paths(),
    threshold=st.one_of(
        st.integers(1, 4).map(Dec.from_raw),
        st.sampled_from(["0.01", "0.5", "1", "2"]).map(Dec),
    ),
)
@example(paths={DAI: [Dec(1), Dec("1.5")]}, threshold=Dec("0.01"))
@example(paths={DAI: [Dec(2)] * 3, USDC: [Dec(2)] * 3}, threshold=Dec.from_raw(1))
@example(
    paths={DAI: [Dec.from_raw(3)], USDC: [Dec.from_raw(2)], USDT: [Dec.from_raw(1)]},
    threshold=Dec(2),
)
def test_divergence_equals_the_pairwise_definition(paths, threshold):
    assert stablecoin_divergence(paths, threshold) == _pairwise_divergence(paths, threshold)

