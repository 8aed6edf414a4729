"""liqlab: deterministic simulation and risk analytics for over-collateralized
lending liquidations.

The toolkit models the two dominant liquidation mechanisms (atomic
fixed-spread calls and two-phase tend-dent auctions), the two-step strategy
that lifts the close-factor cap, and portfolio risk scans (price-decline
sensitivity, bad debts, unprofitable opportunities, price-path taxonomy).
All arithmetic is exact 18-digit fixed point.
"""

from .fixedpoint import Dec, ONE, ULP, ZERO
from .core import (
    Asset,
    OracleSnapshot,
    Position,
    PositionValues,
    RiskParams,
    collateralization_ratio,
    health_factor,
    is_liquidatable,
    position_values,
)
from .fixed_spread import (
    LiquidationCall,
    LiquidationReceipt,
    execute_liquidation_call,
    max_repay,
)
from .auction import (
    Auction,
    AuctionConfig,
    Bid,
    Phase,
    Settlement,
    TerminationReason,
    apply_termination,
    check_termination,
    finalize,
    place_bid,
    start_auction,
)
from .strategy import (
    MitigationAnalysis,
    StrategyPlan,
    StrategyProfits,
    TwoStepResult,
    closed_form_delta_r,
    execute_two_step,
    mitigation_threshold,
    optimal_repays,
    strategy_profits,
)
from .risk import (
    BadDebtClass,
    BadDebtKind,
    PricePathCategory,
    SensitivityPoint,
    classify_bad_debt,
    classify_price_path,
    scan_unprofitable,
    sensitivity,
    sensitivity_curve,
    stablecoin_divergence,
)
from .sim import (
    AgentPolicy,
    EventLog,
    LiquidationEvent,
    Mechanism,
    PolicyKind,
    Scenario,
    ScriptedBid,
    load_scenario,
    profit_volume_ratio,
    run_scenario,
    validate_scenario,
)
from . import errors

__version__ = "0.1.0"
