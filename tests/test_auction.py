import random

import pytest
from hypothesis import given, note, settings, strategies as st

from liqlab import (
    AuctionConfig,
    Bid,
    Dec,
    Phase,
    PositionValues,
    TerminationReason,
    apply_termination,
    check_termination,
    finalize,
    place_bid,
    start_auction,
)
from liqlab.auction import deadline
from liqlab.errors import (
    AuctionClosedError,
    BidExceedsLotError,
    BidExceedsTabError,
    BidTooHighError,
    BidTooLowError,
    LiqlabError,
    NoBidsError,
    NotLiquidatableError,
    NotTerminatedError,
)

HOUR = 3600
CONFIG = AuctionConfig(auction_length=6 * HOUR, bid_duration=5 * HOUR)
LIQUIDATABLE = PositionValues(c=Dec(110), d=Dec(100), bc=Dec(88))


def run_script(auction, script):
    for bidder, amount, time in script:
        auction = place_bid(auction, Bid(bidder, Dec(amount), time))
    return auction


class TestStart:
    def test_opens_in_tend_with_lot_and_tab(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        assert auction.phase is Phase.TEND
        assert auction.lot_collateral == Dec(110)
        assert auction.tab_debt == Dec(100)
        assert auction.best_bid is None

    def test_healthy_position_refused(self):
        with pytest.raises(NotLiquidatableError):
            start_auction(PositionValues(Dec(200), Dec(100), Dec(150)), CONFIG, now=0)

    def test_zero_lot_degenerate_allowed(self):
        auction = start_auction(PositionValues(Dec(0), Dec(50), Dec(0)), CONFIG, now=0)
        assert auction.lot_collateral == Dec(0)


class TestTendPhase:
    def test_reaching_tab_switches_to_dent(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(auction, [("a", "40", 0), ("b", "80", 60), ("a", "100", 120)])
        assert auction.phase is Phase.DENT
        assert auction.best_bid == Bid("a", Dec(100), 120)
        assert auction.last_bid_time == 120

    def test_decreasing_tend_bid_rejected(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(auction, [("a", "40", 0)])
        with pytest.raises(BidTooLowError):
            place_bid(auction, Bid("b", Dec(39), 10))

    def test_increment_rule_enforced(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(auction, [("a", "40", 0)])
        # 3% increment demands strictly more than 41.2
        with pytest.raises(BidTooLowError):
            place_bid(auction, Bid("b", Dec("41.2"), 10))
        assert place_bid(auction, Bid("b", Dec("41.21"), 10)).best_bid.amount == Dec("41.21")

    def test_bid_above_tab_rejected(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        with pytest.raises(BidExceedsTabError):
            place_bid(auction, Bid("a", Dec(101), 0))

    def test_out_of_order_bid_time_rejected(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=100)
        with pytest.raises(ValueError, match="time order"):
            place_bid(auction, Bid("a", Dec(40), 99))
        auction = run_script(auction, [("a", "40", 200)])
        with pytest.raises(ValueError, match="time order"):
            place_bid(auction, Bid("b", Dec(50), 150))


class TestDentPhase:
    def setup_method(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        self.auction = run_script(auction, [("a", "100", 0)])
        assert self.auction.phase is Phase.DENT

    def test_decreasing_dent_bids(self):
        auction = run_script(self.auction, [("c", "105", 60), ("b", "95", 120)])
        assert auction.best_bid.amount == Dec(95)
        assert auction.best_bid.bidder == "b"

    def test_first_dent_bid_must_undercut_the_lot(self):
        # baseline is the whole lot 110; 3% undercut demands less than 106.7
        with pytest.raises(BidTooHighError):
            place_bid(self.auction, Bid("c", Dec("106.7"), 60))

    def test_rising_dent_bid_rejected(self):
        auction = run_script(self.auction, [("c", "95", 60)])
        with pytest.raises(BidTooHighError):
            place_bid(auction, Bid("d", Dec(96), 120))

    def test_bid_above_lot_rejected(self):
        with pytest.raises(BidExceedsLotError):
            place_bid(self.auction, Bid("c", Dec(111), 60))


class TestTermination:
    def test_auction_length_fires_at_exact_boundary(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        assert check_termination(auction, 6 * HOUR - 1) is None
        assert check_termination(auction, 6 * HOUR) is TerminationReason.AUCTION_LENGTH

    def test_no_bid_auction_only_expires_by_length(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        assert check_termination(auction, 5 * HOUR + 1) is None

    def test_bid_duration_fires_at_exact_boundary(self):
        # last bid at 1h with a 5h bid duration expires at 6h sharp
        config = AuctionConfig(auction_length=12 * HOUR, bid_duration=5 * HOUR)
        auction = start_auction(LIQUIDATABLE, config, now=0)
        auction = run_script(auction, [("a", "40", HOUR)])
        assert check_termination(auction, 6 * HOUR - 1) is None
        assert check_termination(auction, 6 * HOUR) is TerminationReason.BID_DURATION
        assert check_termination(auction, 6 * HOUR + 60) is TerminationReason.BID_DURATION

    def test_open_before_both_limits(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(auction, [("a", "40", 6 * HOUR - 60)])
        assert check_termination(auction, 6 * HOUR - 59) is None

    def test_bid_after_termination_rejected(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        with pytest.raises(AuctionClosedError):
            place_bid(auction, Bid("a", Dec(40), 6 * HOUR))

    def test_apply_termination_requires_condition(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        with pytest.raises(NotTerminatedError):
            apply_termination(auction, 60)
        terminated = apply_termination(auction, 6 * HOUR)
        assert terminated.termination_reason is TerminationReason.AUCTION_LENGTH
        assert terminated.phase is Phase.TEND
        assert apply_termination(terminated, 6 * HOUR + 1) is terminated
        with pytest.raises(AuctionClosedError, match="^auction is terminated$"):
            place_bid(terminated, Bid("a", Dec(40), 6 * HOUR))

    def test_a_terminated_auction_keeps_its_reason(self):
        terminated = apply_termination(start_auction(LIQUIDATABLE, CONFIG, now=0), 6 * HOUR)
        # before its deadline, an open auction would report None
        assert check_termination(terminated, 0) is TerminationReason.AUCTION_LENGTH


@pytest.mark.parametrize(
    "auction_length, bid_duration, message",
    [(0, 5, "auction length must be > 0: 0"), (10, 0, "bid duration must be > 0: 0")],
)
def test_a_clock_of_zero_is_refused(auction_length, bid_duration, message):
    with pytest.raises(ValueError) as info:
        AuctionConfig(auction_length=auction_length, bid_duration=bid_duration)
    assert str(info.value) == message


def test_a_negative_min_increment_is_refused():
    with pytest.raises(ValueError) as info:
        AuctionConfig(auction_length=10, bid_duration=5, min_increment=Dec("-0.01"))
    assert str(info.value) == "min increment must be >= 0: -0.01"


@settings(max_examples=300, deadline=None)
@given(
    start=st.integers(0, 20),
    auction_length=st.integers(1, 30),
    bid_duration=st.integers(1, 30),
    # (time step, amount): tend bids up to the tab of 100 and dent bids below
    # the lot of 110, some of them refused
    bids=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 120)), max_size=8),
)
def test_deadline_is_the_first_time_the_auction_is_over(
    start, auction_length, bid_duration, bids
):
    config = AuctionConfig(auction_length=auction_length, bid_duration=bid_duration)
    auction = start_auction(LIQUIDATABLE, config, now=start)
    now = start
    accepted = []
    for step, amount in bids:
        now += step
        bid = Bid("a", Dec(amount), now)
        try:
            auction = place_bid(auction, bid)
        except LiqlabError:
            continue
        accepted.append(bid)
    note(f"accepted {[(b.amount, b.time) for b in accepted]}")
    # every accepted bid becomes the best, and only a tend bid of the whole
    # tab opens the dent phase, where a later bid may equal the tab again
    last = accepted[-1] if accepted else None
    assert auction.best_bid == last
    assert auction.last_bid_time == (None if last is None else last.time)
    reached = any(b.amount == auction.tab_debt for b in accepted)
    assert auction.phase is (Phase.DENT if reached else Phase.TEND)
    end = deadline(auction)
    if last is None:
        assert end == start + auction_length
    else:
        assert end == min(start + auction_length, last.time + bid_duration)
    assert end > (start if last is None else last.time)
    for t in range(start - 2, end):
        assert check_termination(auction, t) is None
    assert check_termination(auction, end) is not None


class TestFinalize:
    def test_dent_settlement(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(
            auction,
            [("a", "40", 0), ("b", "80", 60), ("a", "100", 120), ("c", "105", 180), ("b", "95", 240)],
        )
        auction = apply_termination(auction, 240 + 5 * HOUR)
        assert auction.termination_reason is TerminationReason.BID_DURATION
        assert auction.phase is Phase.DENT
        settlement = finalize(auction, LIQUIDATABLE)
        assert settlement.ended_in is Phase.DENT
        assert settlement.winner == "b"
        assert settlement.paid_usd == Dec(100)
        assert settlement.collateral_value_usd == Dec(95)
        assert settlement.borrower_refund_usd == Dec(15)
        assert settlement.winner_profit_usd == Dec(-5)

    def test_tend_settlement(self):
        # the auction can terminate in the tend phase
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(auction, [("a", "40", 0), ("b", "80", 60)])
        auction = apply_termination(auction, 6 * HOUR)
        assert auction.termination_reason is TerminationReason.AUCTION_LENGTH
        assert auction.phase is Phase.TEND
        settlement = finalize(auction, LIQUIDATABLE)
        assert settlement.ended_in is Phase.TEND
        assert settlement.winner == "b"
        assert settlement.paid_usd == Dec(80)
        assert settlement.collateral_value_usd == Dec(110)
        assert settlement.borrower_refund_usd == Dec(0)
        assert settlement.winner_profit_usd == Dec(30)

    def test_a_tab_bid_with_no_dent_bid_ends_in_dent_with_the_whole_lot(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(auction, [("a", "40", 0), ("b", "100", 60)])
        auction = apply_termination(auction, 60 + 5 * HOUR)
        assert auction.termination_reason is TerminationReason.BID_DURATION
        moved = PositionValues(c=Dec(99), d=Dec(100), bc=Dec("79.2"))
        settlement = finalize(auction, moved)
        assert settlement.ended_in is Phase.DENT
        assert settlement.winner == "b"
        assert settlement.paid_usd == Dec(100)
        assert settlement.collateral_value_usd == Dec(99)
        assert settlement.borrower_refund_usd == Dec(0)
        assert settlement.winner_profit_usd == Dec(-1)

    def test_price_drop_during_auction_creates_a_loss(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = run_script(auction, [("a", "100", 0), ("b", "95", 60)])
        auction = apply_termination(auction, 6 * HOUR)
        moved = PositionValues(c=Dec(99), d=Dec(100), bc=Dec("79.2"))
        settlement = finalize(auction, moved)
        assert settlement.collateral_value_usd == Dec("85.5")  # 99 * 95/110
        assert settlement.borrower_refund_usd == Dec("13.5")
        assert settlement.winner_profit_usd == Dec("-14.5")
        total = settlement.collateral_value_usd + settlement.borrower_refund_usd
        assert total == moved.c

    def test_no_bids_error(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        auction = apply_termination(auction, 6 * HOUR)
        with pytest.raises(NoBidsError):
            finalize(auction, LIQUIDATABLE)

    def test_finalize_while_open_refused(self):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        with pytest.raises(NotTerminatedError):
            finalize(auction, LIQUIDATABLE)


def test_replay_determinism():
    script = [("a", "40", 0), ("b", "80", 60), ("a", "100", 120), ("c", "105", 180)]
    first = run_script(start_auction(LIQUIDATABLE, CONFIG, now=0), script)
    second = run_script(start_auction(LIQUIDATABLE, CONFIG, now=0), script)
    assert first == second


def test_histories_stay_monotonic_on_random_valid_scripts():
    rng = random.Random(7)
    for _ in range(200):
        auction = start_auction(LIQUIDATABLE, CONFIG, now=0)
        time = 0
        amount = Dec(rng.randint(1, 20))
        tend_amounts = []
        while True:
            try:
                auction = place_bid(auction, Bid("x", amount, time))
            except BidExceedsTabError:
                break
            tend_amounts.append(amount)
            time += rng.randint(1, 30)
            amount = amount * Dec("1.031") + Dec(1)
            if amount > auction.tab_debt * Dec(2):
                break
        assert tend_amounts == sorted(tend_amounts)
        assert all(amount <= auction.tab_debt for amount in tend_amounts)
        assert auction.best_tend.amount == tend_amounts[-1]
