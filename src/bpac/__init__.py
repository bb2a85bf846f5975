"""Streaming risk-controlled routing with betting-based threshold selection.

A router sends each query to a cheap model or escalates to an expensive
one by thresholding an uncertainty score. The threshold is certified
online: every grid candidate carries a betting account whose wealth
grows while the candidate looks safe, feedback arrives only for
escalated queries, and randomized exploration plus inverse-propensity
weighting keeps the accounts honest about the losses nobody observed.
"""

from types import ModuleType as _ModuleType

from .baselines import MeanState, hoeff_slack, mean_step
from .core import (
    DEFAULT_ALPHA,
    DEFAULT_BETTING_CAP,
    DEFAULT_EPSILON,
    ConfigError,
    ConstantSchedule,
    Prior,
    RouterConfig,
    SelectionMode,
    StreamObservation,
    ThresholdGrid,
    TwoStageSchedule,
    Violation,
    config_digest,
    config_from_dict,
    config_to_dict,
    deployment_rate,
    load_config,
    rho_at,
    validate_config,
)
from .engine import (
    Decision,
    InvalidObservation,
    LossGate,
    LossGateViolation,
    OutOfOrderObservation,
    RouterState,
    ThresholdAccount,
    WagerOutOfRange,
    adaptive_lambda,
    ips_payoff,
    payoff_bound,
    propensity,
    step,
    update_account,
)
from .losses import graded_parts_loss, judge_margin_loss, zero_one_loss
from .metrics import MetricAccumulator
from .records import (
    TRAJECTORY_COLUMNS,
    read_trajectory,
    write_summary_json,
    write_trajectory,
    write_wealth_snapshots,
)
from .simulation import (
    BetaScore,
    ConstantLoss,
    ConstantTokens,
    LinearLoss,
    Method,
    NonStationarySpec,
    PowerLoss,
    RegretReport,
    RiskTracker,
    SpecError,
    StreamExhausted,
    StreamSegment,
    SyntheticStreamSpec,
    Trajectory,
    UniformScore,
    UniformTokens,
    UnknownMethod,
    easy_hard,
    generate_event,
    load_stream_spec,
    mc_safety,
    mean_loss_below,
    oracle_risk,
    oracle_risk_grid,
    oracle_threshold,
    pinned_threshold_study,
    regret_bound,
    regret_harness,
    replay_trace,
    run_replication,
    spec_from_dict,
    spec_to_dict,
    uniform_linear,
    wilson_interval,
)
from .traces import TraceFormatError, load_trace, write_trace

__version__ = "0.1.0"

# Every name imported above is public; the submodules bound by those imports are not.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
