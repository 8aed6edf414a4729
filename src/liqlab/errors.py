"""Domain errors raised by the engines.

Every refusal a protocol would make is a distinct exception type so callers
(and the CLI) can react to the specific condition rather than parsing
messages.
"""


class LiqlabError(Exception):
    """Base class for all domain errors."""


class MissingPriceError(LiqlabError):
    def __init__(self, symbol: str):
        super().__init__(f"no oracle price for asset {symbol!r}")
        self.symbol = symbol


class MissingThresholdError(LiqlabError):
    def __init__(self, symbol: str):
        super().__init__(f"no liquidation threshold for asset {symbol!r}")
        self.symbol = symbol


class InvalidParamsError(LiqlabError):
    """Risk parameters fail the validity prerequisite, or the closed-form
    strategy is handed a negative position value."""


class NotLiquidatableError(LiqlabError):
    """The position is healthy (health factor not strictly below 1)."""


class CloseFactorExceededError(LiqlabError):
    """Requested repay exceeds the close-factor cap."""


class DebtAssetShortfallError(LiqlabError):
    """Requested repay exceeds the outstanding debt in the chosen asset."""


class CollateralShortfallError(LiqlabError):
    """Seizure would exceed the borrower's balance of the chosen collateral."""


class AuctionClosedError(LiqlabError):
    """Bid arrived after the auction terminated or was finalized."""


class BidTooLowError(LiqlabError):
    """Tend bid does not clear the previous bid plus the minimum increment."""


class BidTooHighError(LiqlabError):
    """Dent bid does not undercut the previous bid by the minimum increment."""


class BidExceedsTabError(LiqlabError):
    """Tend bid exceeds the auction's outstanding debt."""


class BidExceedsLotError(LiqlabError):
    """Dent bid exceeds the auctioned collateral lot."""


class NotTerminatedError(LiqlabError):
    """Finalize attempted while the auction is still open."""


class NoBidsError(LiqlabError):
    """Auction expired without a single bid; nothing to settle."""


class ZeroDebtError(LiqlabError):
    """Positions without debt are not classified."""


class ZeroSecondLiquidationError(LiqlabError):
    """Mitigation threshold undefined when the second repay is zero."""


class EmptyPathError(LiqlabError):
    """Price-path classification needs at least one observation."""


class PathLengthMismatchError(LiqlabError):
    """Divergence statistics need equally long price series."""


class ZeroVolumeError(LiqlabError):
    """Profit-volume ratio undefined over a period with zero average volume."""


class NestingTooDeepError(LiqlabError):
    """A JSON input nests arrays or objects deeper than the decoder can
    follow: raised in place of the decoder's ``RecursionError``. The command
    line reports it as unreadable input (exit 2), as it does malformed JSON.
    """


class InvalidScenarioError(LiqlabError):
    def __init__(self, field: str, problem: str):
        super().__init__(f"invalid scenario: {field}: {problem}")
        self.field = field
        self.problem = problem
