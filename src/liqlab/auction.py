"""Two-phase tend-dent liquidation auction state machine.

The auction is a pure value: every operation returns a new ``Auction``
instead of mutating. Time is caller-supplied integer seconds; there is no
wall clock. Collateral is tracked as its USD value at initiation (the lot),
debt as the tab.

Tend phase: bids are increasing debt repayments for the whole lot. A bid of
exactly the tab moves the auction into the dent phase. Dent phase: bids are
decreasing collateral values accepted in exchange for repaying the full tab;
the first dent bid must undercut the whole lot. Termination happens when the
auction length has elapsed since initiation or the bid duration has elapsed
since the last bid, whichever is observed; when both hold at once the
auction-length reason is reported.

An ``Auction`` stores each fact once: the lot, the tab, the clock, the best
tend and dent bids and, once it is over, its ``termination_reason``. The
rest is derived: ``phase`` is DENT once the best tend bid equals the tab,
and ``last_bid_time`` is the time of ``best_bid``, since every accepted bid
becomes the best. An auction is terminated exactly when it has a
``termination_reason``; it then takes no more bids and can be finalized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from .core import PositionValues, is_liquidatable
from .errors import (
    AuctionClosedError,
    BidExceedsLotError,
    BidExceedsTabError,
    BidTooHighError,
    BidTooLowError,
    NoBidsError,
    NotLiquidatableError,
    NotTerminatedError,
)
from .fixedpoint import Dec, ONE, ZERO


class Phase(enum.Enum):
    TEND = "tend"
    DENT = "dent"


class TerminationReason(enum.Enum):
    AUCTION_LENGTH = "auction-length"
    BID_DURATION = "bid-duration"


@dataclass(frozen=True)
class AuctionConfig:
    """Clock and increment settings, durations in seconds."""

    auction_length: int
    bid_duration: int
    min_increment: Dec = Dec("0.03")

    def __post_init__(self):
        if self.auction_length <= 0:
            raise ValueError(f"auction length must be > 0: {self.auction_length}")
        if self.bid_duration <= 0:
            raise ValueError(f"bid duration must be > 0: {self.bid_duration}")
        if self.min_increment < ZERO:
            raise ValueError(f"min increment must be >= 0: {self.min_increment}")


@dataclass(frozen=True)
class Bid:
    """A committed bid: debt value in tend, collateral value in dent."""

    bidder: str
    amount: Dec
    time: int

    def __post_init__(self):
        if self.amount <= ZERO:
            raise ValueError(f"bid amount must be > 0: {self.amount}")


@dataclass(frozen=True)
class Auction:
    lot_collateral: Dec
    tab_debt: Dec
    config: AuctionConfig
    start_time: int
    best_tend: Optional[Bid] = None
    best_dent: Optional[Bid] = None
    termination_reason: Optional[TerminationReason] = None

    @property
    def phase(self) -> Phase:
        """DENT once a tend bid has reached the tab, else TEND."""
        tend = self.best_tend
        return Phase.DENT if tend is not None and tend.amount == self.tab_debt else Phase.TEND

    @property
    def best_bid(self) -> Optional[Bid]:
        """The currently winning bid: the best dent bid once one exists."""
        return self.best_dent if self.best_dent is not None else self.best_tend

    @property
    def last_bid_time(self) -> Optional[int]:
        """The time of the last accepted bid, which is always ``best_bid``."""
        bid = self.best_bid
        return None if bid is None else bid.time


@dataclass(frozen=True)
class Settlement:
    """Outcome of a finalized auction, marked to the finalize-time oracle."""

    winner: str
    ended_in: Phase
    paid_usd: Dec
    collateral_value_usd: Dec
    borrower_refund_usd: Dec
    winner_profit_usd: Dec


def start_auction(values: PositionValues, config: AuctionConfig, now: int) -> Auction:
    """Open a tend auction over a liquidatable position: lot = c, tab = d."""
    if not is_liquidatable(values):
        raise NotLiquidatableError(
            f"cannot auction a healthy position (bc={values.bc}, d={values.d})"
        )
    return Auction(
        lot_collateral=values.c,
        tab_debt=values.d,
        config=config,
        start_time=now,
    )


def deadline(auction: Auction) -> int:
    """The first time at which an open auction is over: the auction length
    after its start or the bid duration after its last bid, whichever comes
    first. An auction with no bids can only expire through the length."""
    end = auction.start_time + auction.config.auction_length
    if auction.last_bid_time is not None:
        end = min(end, auction.last_bid_time + auction.config.bid_duration)
    return end


def check_termination(auction: Auction, now: int) -> Optional[TerminationReason]:
    """Report why the auction is over at ``now``, or None while it is open,
    that is before its ``deadline``."""
    if auction.termination_reason is not None:
        return auction.termination_reason
    if now < deadline(auction):
        return None
    if now - auction.start_time >= auction.config.auction_length:
        return TerminationReason.AUCTION_LENGTH
    return TerminationReason.BID_DURATION


def place_bid(auction: Auction, bid: Bid) -> Auction:
    """Apply a bid, enforcing time order, phase rules, and minimum increments.

    Bids must arrive in timestamp order (the clock feeds the termination
    conditions), so a bid dated before the auction start or the last bid is
    rejected outright.
    """
    if auction.termination_reason is not None:
        raise AuctionClosedError("auction is terminated")
    floor_time = auction.start_time if auction.last_bid_time is None else auction.last_bid_time
    if bid.time < floor_time:
        raise ValueError(
            f"bids must be applied in time order: {bid.time} precedes {floor_time}"
        )
    reason = check_termination(auction, bid.time)
    if reason is not None:
        raise AuctionClosedError(f"termination condition met: {reason.value}")

    if auction.phase is Phase.TEND:
        if bid.amount > auction.tab_debt:
            raise BidExceedsTabError(
                f"tend bid {bid.amount} exceeds tab {auction.tab_debt}"
            )
        if auction.best_tend is not None:
            floor = auction.best_tend.amount * (ONE + auction.config.min_increment)
            if bid.amount <= floor:
                raise BidTooLowError(
                    f"tend bid {bid.amount} must exceed {floor} "
                    f"(previous {auction.best_tend.amount} plus increment)"
                )
        return replace(auction, best_tend=bid)

    # dent phase: the implicit baseline is the whole lot accepted by the
    # tend winner, so the first dent bid must already undercut the lot
    if bid.amount > auction.lot_collateral:
        raise BidExceedsLotError(
            f"dent bid {bid.amount} exceeds lot {auction.lot_collateral}"
        )
    baseline = (
        auction.best_dent.amount if auction.best_dent is not None else auction.lot_collateral
    )
    ceiling = baseline * (ONE - auction.config.min_increment)
    if bid.amount >= ceiling:
        raise BidTooHighError(
            f"dent bid {bid.amount} must undercut {ceiling} "
            f"(baseline {baseline} minus increment)"
        )
    return replace(auction, best_dent=bid)


def apply_termination(auction: Auction, now: int) -> Auction:
    """Record why the auction is over at ``now``; raises NotTerminatedError
    while it is open. A terminated auction is returned as it is."""
    if auction.termination_reason is not None:
        return auction
    reason = check_termination(auction, now)
    if reason is None:
        raise NotTerminatedError("auction is still open")
    return replace(auction, termination_reason=reason)


def finalize(auction: Auction, oracle_values: PositionValues) -> Settlement:
    """Settle a terminated auction against finalize-time position values.

    ``oracle_values`` re-values the auctioned position at the finalize-time
    snapshot; its ``c`` is the current worth of the lot, which is how a price
    move during the auction turns into a winner profit or loss.

    Tend ending: the winner pays their bid and takes the whole lot. Dent
    ending: the winner pays the full tab and takes their committed share
    ``c_win``, the whole lot when no dent bid came; the rest of the lot is
    refunded to the borrower.
    """
    if auction.termination_reason is None:
        raise NotTerminatedError(
            f"finalize requires a terminated auction, got {auction.phase.value}"
        )
    winner = auction.best_bid
    if winner is None:
        raise NoBidsError("auction expired with no bids; nothing to settle")

    # the best tend bid is what the winner pays: the tab once it is in dent
    paid = auction.best_tend.amount
    lot_now = oracle_values.c
    received = lot_now
    if auction.best_dent is not None:
        # the winner takes the committed fraction c_win / lot of the
        # collateral, valued at finalize time; fused mul/div keeps the
        # unchanged-price case exact
        received = Dec.mul_div(lot_now, winner.amount, auction.lot_collateral)

    return Settlement(
        winner=winner.bidder,
        ended_in=auction.phase,
        paid_usd=paid,
        collateral_value_usd=received,
        borrower_refund_usd=lot_now - received,
        winner_profit_usd=received - paid,
    )
