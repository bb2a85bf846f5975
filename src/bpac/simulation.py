"""Synthetic query streams, risk oracles, and Monte Carlo harnesses.

A stream spec is an ordered list of segments, each fixing a law for the
uncertainty score, a conditional loss law given the score, and a token
model. Everything downstream of the router (oracle risk curves, weighted
cumulative risk, coverage studies, the regret harness) lives here on the
evaluator side of the loss gate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Union

import numpy as np

from .baselines import MeanState, mean_step
from .core import (
    RouterConfig,
    Schedule,
    StreamObservation,
    ThresholdGrid,
    config_digest,
    deployment_rate,
    rho_at,
)
from .engine import (
    AccountTable,
    LossGate,
    RouterState,
    ThresholdAccount,
    adaptive_lambda,
    ips_payoff,
    payoff_bound,
    route,
    step,
    update_account,
)
from .metrics import MetricAccumulator

QUAD_ABS_TOL = 1e-10
REGRET_ORACLE_GRID_SIZE = 10001

# One baseline step under per-method names, so timing wrappers tell them apart.
naive_step = hoeff_step = mean_step


class StreamExhausted(ValueError):
    """Asked for an event past the end of a bounded stream."""


class NonStationarySpec(ValueError):
    """A single-distribution oracle was asked about a multi-segment stream."""


class UnknownMethod(ValueError):
    """Method tag not recognized by the replication harness."""


class SpecError(ValueError):
    """Malformed stream-spec document; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


# ---------------------------------------------------------------------------
# Stream ingredients


@dataclass(frozen=True)
class UniformScore:
    """Uncertainty scores uniform on [low, high] within [0, 1]."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.low < self.high <= 1.0:
            raise ValueError(f"uniform support [{self.low}, {self.high}] must sit inside [0, 1]")

    def sample(self, rng: np.random.Generator, size=None):
        return self.low + (self.high - self.low) * rng.random(size)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where((v >= self.low) & (v <= self.high), 1.0 / (self.high - self.low), 0.0)


@dataclass(frozen=True)
class BetaScore:
    """Uncertainty scores with a Beta(a, b) law on [0, 1]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError("beta shape parameters must be positive")

    def sample(self, rng: np.random.Generator, size=None):
        return rng.beta(self.a, self.b, size)

    def pdf(self, v):
        from scipy import special  # see mean_loss_below

        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        inside = (v >= 0) & (v <= 1)
        vi = np.clip(v, 1e-300, 1.0)
        out = np.where(inside,
                       np.exp((self.a - 1) * np.log(vi) + (self.b - 1) * np.log1p(-np.clip(v, 0.0, 1 - 1e-16))
                              - special.betaln(self.a, self.b)),
                       0.0)
        return out


ScoreLaw = Union[UniformScore, BetaScore]


@dataclass(frozen=True)
class LinearLoss:
    """P(loss = 1 | score v) = kappa * v."""

    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1] to keep probabilities valid, got {self.kappa}")

    def prob(self, v):
        return self.kappa * np.asarray(v, dtype=float)


@dataclass(frozen=True)
class ConstantLoss:
    """P(loss = 1 | score) = level, independent of the score."""

    level: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"level must lie in [0, 1], got {self.level}")

    def prob(self, v):
        return np.broadcast_to(np.float64(self.level), np.shape(v)).copy() if np.shape(v) else self.level


@dataclass(frozen=True)
class PowerLoss:
    """P(loss = 1 | score v) = kappa * v ** degree."""

    kappa: float = 1.0
    degree: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.degree <= 0:
            raise ValueError(f"degree must be positive, got {self.degree}")

    def prob(self, v):
        return self.kappa * np.asarray(v, dtype=float) ** self.degree


LossLaw = Union[LinearLoss, ConstantLoss, PowerLoss]


@dataclass(frozen=True)
class ConstantTokens:
    cheap: int = 100
    expensive: int = 500

    def __post_init__(self) -> None:
        if self.cheap < 0 or self.expensive < 0:
            raise ValueError("token counts must be non-negative")

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        return self.cheap, self.expensive


@dataclass(frozen=True)
class UniformTokens:
    cheap_low: int
    cheap_high: int
    expensive_low: int
    expensive_high: int

    def __post_init__(self) -> None:
        if not (0 <= self.cheap_low <= self.cheap_high
                and 0 <= self.expensive_low <= self.expensive_high):
            raise ValueError("token ranges must be non-negative and ordered")

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        return (int(rng.integers(self.cheap_low, self.cheap_high + 1)),
                int(rng.integers(self.expensive_low, self.expensive_high + 1)))


TokenModel = Union[ConstantTokens, UniformTokens]


@dataclass(frozen=True)
class StreamSegment:
    """A stretch of the stream with fixed laws. length None = open-ended."""

    length: int | None
    score: ScoreLaw
    loss: LossLaw
    tokens: TokenModel = ConstantTokens()

    def __post_init__(self) -> None:
        if self.length is not None and (not isinstance(self.length, int) or self.length <= 0):
            raise ValueError(f"segment length must be a positive integer or None, got {self.length!r}")


@dataclass(frozen=True, eq=False)
class SyntheticStreamSpec:
    """Ordered segments; only the final segment may be open-ended."""

    segments: tuple[StreamSegment, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if not segments:
            raise ValueError("a stream spec needs at least one segment")
        for seg in segments[:-1]:
            if seg.length is None:
                raise ValueError("only the final segment may have open-ended length")
        bounds = []
        total = 0
        for seg in segments:
            total = total + seg.length if seg.length is not None else None
            bounds.append(total)
        object.__setattr__(self, "_bounds", tuple(bounds))

    @property
    def is_iid(self) -> bool:
        return len(self.segments) == 1

    @property
    def total_length(self) -> int | None:
        return self._bounds[-1]

    def segment_index_at(self, t: int) -> int:
        """Segment active at step t (1-based)."""
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        for i, bound in enumerate(self._bounds):
            if bound is None or t <= bound:
                return i
        raise StreamExhausted(f"step {t} is past the stream's total length {self._bounds[-1]}")

    def segment_at(self, t: int) -> StreamSegment:
        return self.segments[self.segment_index_at(t)]


def uniform_linear(kappa: float = 1.0, tokens: TokenModel | None = None) -> SyntheticStreamSpec:
    """Scores uniform on [0, 1], loss probability kappa * score. Open-ended."""
    return SyntheticStreamSpec(
        segments=(StreamSegment(length=None, score=UniformScore(),
                                loss=LinearLoss(kappa=kappa),
                                tokens=tokens or ConstantTokens()),),
        name="uniform_linear")


def easy_hard(kappa_easy: float = 0.5, kappa_hard: float = 1.0,
              break_at: int = 1000, tokens: TokenModel | None = None) -> SyntheticStreamSpec:
    """Uniform scores whose loss law doubles in steepness after break_at.

    The score distribution never moves; what degrades is how much a given
    score level actually costs, the regime where a frozen offline
    threshold quietly goes stale.
    """
    tok = tokens or ConstantTokens()
    return SyntheticStreamSpec(
        segments=(StreamSegment(length=break_at, score=UniformScore(),
                                loss=LinearLoss(kappa=kappa_easy), tokens=tok),
                  StreamSegment(length=None, score=UniformScore(),
                                loss=LinearLoss(kappa=kappa_hard), tokens=tok)),
        name="easy_hard")


BUILTIN_SPECS = {
    "uniform_linear": uniform_linear,
    "easy_hard": easy_hard,
}


def generate_event(spec: SyntheticStreamSpec, rng: np.random.Generator,
                   t: int) -> StreamObservation:
    """Draw event t. Sequential: the stream is a pure function of the seed.

    Each event consumes the segment's fixed draw pattern (score, loss
    coin, tokens), so a replayed generator reproduces the stream
    byte-for-byte.
    """
    seg = spec.segment_at(t)
    score = float(seg.score.sample(rng))
    latent = 1.0 if rng.random() < float(seg.loss.prob(score)) else 0.0
    tokens_cheap, tokens_expensive = seg.tokens.sample(rng)
    return StreamObservation(index=t, uncertainty=score, latent_loss=latent,
                             tokens_cheap=tokens_cheap, tokens_expensive=tokens_expensive)


# ---------------------------------------------------------------------------
# Risk oracles


def mean_loss_below(score: ScoreLaw, loss: LossLaw, u) -> np.ndarray | float:
    """E[P(loss | V) * 1{V < u}]: closed forms, quad fallback elsewhere.

    Accepts scalar or array u in [0, 1].
    """
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0

    if isinstance(score, UniformScore):
        lo, hi = score.low, score.high
        m = np.clip(u_arr, lo, hi)
        if isinstance(loss, LinearLoss):
            out = loss.kappa * (m ** 2 - lo ** 2) / (2.0 * (hi - lo))
        elif isinstance(loss, ConstantLoss):
            out = loss.level * (m - lo) / (hi - lo)
        elif isinstance(loss, PowerLoss):
            d = loss.degree
            out = loss.kappa * (m ** (d + 1) - lo ** (d + 1)) / ((d + 1) * (hi - lo))
        else:
            out = _quad_mean_loss_below(score, loss, u_arr)
    elif isinstance(score, BetaScore):
        # Imported here: scipy.special adds about 20 MB of resident memory
        # to ``import bpac`` (scipy 1.17), and only Beta laws need it.
        from scipy import special

        a, b = score.a, score.b
        uc = np.clip(u_arr, 0.0, 1.0)
        if isinstance(loss, ConstantLoss):
            out = loss.level * special.betainc(a, b, uc)
        elif isinstance(loss, LinearLoss):
            out = loss.kappa * (a / (a + b)) * special.betainc(a + 1.0, b, uc)
        elif isinstance(loss, PowerLoss):
            d = loss.degree
            ratio = math.exp(special.betaln(a + d, b) - special.betaln(a, b))
            out = loss.kappa * ratio * special.betainc(a + d, b, uc)
        else:
            out = _quad_mean_loss_below(score, loss, u_arr)
    else:
        out = _quad_mean_loss_below(score, loss, u_arr)

    return float(out) if scalar else np.asarray(out, dtype=float)


def _quad_mean_loss_below(score: ScoreLaw, loss: LossLaw, u_arr: np.ndarray):
    """Adaptive quadrature route, also used to cross-check the closed forms."""
    # Imported here: scipy.integrate adds about 26 MB of resident memory to
    # ``import bpac`` (scipy 1.17), and only this fallback needs it.
    from scipy import integrate

    lo = getattr(score, "low", 0.0)

    def one(u: float) -> float:
        upper = min(float(u), getattr(score, "high", 1.0))
        if upper <= lo:
            return 0.0
        val, err = integrate.quad(
            lambda v: float(loss.prob(v)) * float(score.pdf(v)),
            lo, upper, epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
        return val

    if u_arr.ndim == 0:
        return one(float(u_arr))
    return np.array([one(x) for x in np.ravel(u_arr)]).reshape(u_arr.shape)


def oracle_risk(spec: SyntheticStreamSpec, u: float, rho: float) -> float:
    """True deployed risk of threshold u on a single-segment stream.

    The deployment factor (1 - rho) reflects that an exploring below-
    threshold query still escalates with probability rho and then costs
    nothing.
    """
    if not spec.is_iid:
        raise NonStationarySpec(
            "oracle_risk needs a single-segment stream; use the weighted tracker instead")
    seg = spec.segments[0]
    return (1.0 - rho) * float(mean_loss_below(seg.score, seg.loss, u))


def oracle_risk_grid(spec: SyntheticStreamSpec, grid_values: np.ndarray,
                     rho: float) -> np.ndarray:
    if not spec.is_iid:
        raise NonStationarySpec(
            "oracle_risk_grid needs a single-segment stream")
    seg = spec.segments[0]
    return (1.0 - rho) * np.asarray(mean_loss_below(seg.score, seg.loss, grid_values))


def oracle_threshold(spec: SyntheticStreamSpec, epsilon: float, rho: float,
                     grid: ThresholdGrid) -> float | None:
    """Smallest grid threshold whose deployed risk exceeds the budget.

    Returns None when even the top of the grid is safe, meaning no
    deployment on this grid can violate.
    """
    risks = oracle_risk_grid(spec, grid.values, rho)
    over = np.flatnonzero(risks > epsilon)
    return float(grid.values[over[0]]) if over.size else None


class RiskTracker:
    """Evaluator-side conditional and weighted cumulative risk.

    Per step the conditional risk vector r_t(u) = (1 - rho_t) *
    E[loss * 1{score < u}] comes straight from the active segment's law.
    When wager weights are supplied, the tracker also maintains the
    wager-weighted average of past conditional risks per grid point,
    the quantity the mixture certificate controls on shifting streams.
    With ``rows``, it keeps those weighted sums for R runs on one stream
    law, one wager row per run.
    """

    def __init__(self, spec: SyntheticStreamSpec, schedule: Schedule,
                 grid: ThresholdGrid, weighted: bool = False,
                 rows: int | None = None):
        self.spec = spec
        self.schedule = schedule
        self.grid_values = grid.values
        self.weighted = weighted
        self._base: dict[int, np.ndarray] = {}
        self._risk_cache: dict[tuple[int, float], np.ndarray] = {}
        n = grid.values.size
        self.steps = 0
        self.risk_sum = np.zeros(n)
        if weighted:
            # Rows are stored grid-major, like ``AccountTable``, so a wager
            # table from one adds in memory order.
            shape = n if rows is None else (n, rows)
            self.weight_sum = np.zeros(shape).T
            self.weighted_risk_sum = np.zeros(shape).T

    def risk_vector(self, t: int) -> np.ndarray:
        seg_idx = self.spec.segment_index_at(t)
        rho_t = rho_at(self.schedule, t)
        key = (seg_idx, rho_t)
        cached = self._risk_cache.get(key)
        if cached is None:
            base = self._base.get(seg_idx)
            if base is None:
                seg = self.spec.segments[seg_idx]
                base = np.asarray(mean_loss_below(seg.score, seg.loss, self.grid_values))
                self._base[seg_idx] = base
            cached = (1.0 - rho_t) * base
            self._risk_cache[key] = cached
        return cached

    def absorb(self, t: int, wagers: np.ndarray | None = None) -> np.ndarray:
        """Fold step t into the running sums; returns r_t over the grid."""
        r = self.risk_vector(t)
        self.steps += 1
        self.risk_sum += r
        if self.weighted:
            if wagers is None:
                raise ValueError("weighted tracking needs the step's wagers")
            self.weight_sum += wagers
            self.weighted_risk_sum += wagers * r
        return r

    def weighted_risk_at(self, index):
        """Wager-weighted cumulative risk of grid point ``index``.

        Degenerates to the plain average of conditional risks when no
        wager mass has accumulated (all weights equal, in the limit zero).
        A tracker built with ``rows`` takes one index per row and returns
        an array.
        """
        if not self.weighted:
            raise ValueError("tracker was built without weighted sums")
        if self.weight_sum.ndim == 2:
            at = (np.arange(self.weight_sum.shape[0]), index)
            w = self.weight_sum[at]
            plain = (self.risk_sum[index] / self.steps if self.steps
                     else np.zeros(w.shape))
            return np.divide(self.weighted_risk_sum[at], w, out=plain, where=w > 0.0)
        w = self.weight_sum[index]
        if w > 0.0:
            return float(self.weighted_risk_sum[index] / w)
        return float(self.risk_sum[index] / self.steps) if self.steps else 0.0


# ---------------------------------------------------------------------------
# Replications


class Method(str, Enum):
    BPAC = "bpac"
    O_NAIVE = "o_naive"
    IPS_HOEFF = "ips_hoeff"


def parse_method(name) -> Method:
    try:
        return Method(name)
    except ValueError:
        raise UnknownMethod(
            f"unknown method {name!r}; expected one of {[m.value for m in Method]}") from None


@dataclass
class Trajectory:
    """Column-oriented record of one replication, evaluator columns included."""

    method: str
    seed: int
    config_hash: str
    t: np.ndarray
    uncertainty: np.ndarray
    rho: np.ndarray
    pi: np.ndarray
    xi: np.ndarray
    u_hat: np.ndarray
    latent_loss: np.ndarray
    realized_loss: np.ndarray
    ecp: np.ndarray
    tp: np.ndarray
    er: np.ndarray
    deploy_risk: np.ndarray
    cond_risk: np.ndarray
    weighted_risk: np.ndarray
    mean_cond_risk: np.ndarray
    wealth_snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    gate_accesses: int = 0

    @property
    def horizon(self) -> int:
        return int(self.t.size)

    def final(self, column: str):
        arr = getattr(self, column)
        return float(arr[-1]) if arr.size else None

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.method.encode())
        for name in ("t", "uncertainty", "rho", "pi", "xi", "u_hat", "latent_loss",
                     "realized_loss", "ecp", "tp", "er", "deploy_risk",
                     "cond_risk", "weighted_risk", "mean_cond_risk"):
            h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        for t_snap, wealth in self.wealth_snapshots:
            h.update(str(t_snap).encode())
            h.update(np.ascontiguousarray(wealth).tobytes())
        return h.hexdigest()


def _drive(method: Method, config: RouterConfig, events, coin_rng,
           *, spec: SyntheticStreamSpec | None = None,
           fixed_wager: float | None = None, hoeff_variant: str = "per_point",
           emit_wealth_every: int = 0, track_weighted_risk: bool = False,
           seed_label: int = -1) -> Trajectory:
    """Feed events to one method's state machine, recording every column.

    ``events`` is any iterable of observations with contiguous indices
    from 1. Risk columns need the generating laws, so they are NaN when
    no spec is supplied (recorded traces).
    """
    gate = LossGate()
    state: Any
    if method is Method.BPAC:
        state = RouterState.fresh(config, rng=coin_rng, fixed_wager=fixed_wager)
        advance = step
    elif method is Method.O_NAIVE:
        state = MeanState.fresh(config, rng=coin_rng)
        advance = naive_step
    else:
        state = MeanState.fresh(config, rng=coin_rng, variant=hoeff_variant)
        advance = hoeff_step

    grid_values = config.grid.values
    risk_grid = None
    tracker = None
    if spec is not None:
        if spec.is_iid:
            risk_grid = oracle_risk_grid(spec, grid_values,
                                         deployment_rate(config.schedule))
        tracker = RiskTracker(spec, config.schedule, config.grid,
                              weighted=track_weighted_risk)

    names = ("uncertainty", "rho", "pi", "u_hat", "latent_loss", "realized_loss",
             "ecp", "tp", "er", "deploy_risk", "cond_risk", "weighted_risk",
             "mean_cond_risk")
    cols: dict[str, list[float]] = {name: [] for name in names}
    xi_col: list[int] = []
    acc = MetricAccumulator()
    snapshots: list[tuple[int, np.ndarray]] = []

    for obs in events:
        t = obs.index
        decision, state = advance(state, obs, gate)
        acc.update(decision, obs)

        idx = state.deployed_index
        cols["uncertainty"].append(obs.uncertainty)
        cols["rho"].append(rho_at(config.schedule, t) if method is Method.BPAC
                           else state.rho)
        cols["pi"].append(decision.propensity)
        xi_col.append(decision.coin)
        cols["u_hat"].append(grid_values[idx])
        cols["latent_loss"].append(obs.latent_loss)
        cols["realized_loss"].append((1 - decision.coin) * obs.latent_loss)
        cols["ecp"].append(acc.ecp)
        cols["tp"].append(acc.tp_or_nan())
        cols["er"].append(acc.er)
        cols["deploy_risk"].append(risk_grid[idx] if risk_grid is not None
                                   else math.nan)
        if tracker is None:
            cols["cond_risk"].append(math.nan)
            cols["weighted_risk"].append(math.nan)
            cols["mean_cond_risk"].append(math.nan)
        else:
            if track_weighted_risk:
                r_vec = tracker.absorb(t, np.asarray(state.accounts.last_lambda))
                cols["weighted_risk"].append(tracker.weighted_risk_at(idx))
            else:
                r_vec = tracker.absorb(t)
                cols["weighted_risk"].append(math.nan)
            cols["cond_risk"].append(r_vec[idx])
            # unweighted running mean of past conditional risks at the
            # current threshold, the companion readout to weighted_risk
            cols["mean_cond_risk"].append(tracker.risk_sum[idx] / tracker.steps)

        if (method is Method.BPAC and emit_wealth_every > 0
                and t % emit_wealth_every == 0):
            snapshots.append((t, np.asarray(state.accounts.log_wealth).copy()))

    horizon = len(xi_col)
    return Trajectory(method=method.value, seed=seed_label,
                      config_hash=config_digest(config),
                      t=np.arange(1, horizon + 1, dtype=np.int64),
                      xi=np.array(xi_col, dtype=np.int64),
                      wealth_snapshots=snapshots,
                      gate_accesses=gate.access_count,
                      **{name: np.array(cols[name], dtype=float) for name in names})


def run_replication(method, config: RouterConfig, spec: SyntheticStreamSpec,
                    horizon: int, seed, *, fixed_wager: float | None = None,
                    hoeff_variant: str = "per_point",
                    emit_wealth_every: int = 0,
                    track_weighted_risk: bool | None = None) -> Trajectory:
    """Run one method over one freshly drawn stream.

    ``seed`` (int or SeedSequence) splits into independent stream and
    coin generators, so different methods given the same seed face the
    identical sequence of queries and latent losses. The caller is
    responsible for having validated the config.
    """
    method = parse_method(method)
    if spec.total_length is not None and horizon > spec.total_length:
        raise StreamExhausted(
            f"horizon {horizon} exceeds the stream's total length {spec.total_length}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    if isinstance(ss.entropy, int) and ss.spawn_key == ():
        seed_label = ss.entropy
    else:
        seed_label = int(ss.generate_state(1)[0])
    stream_ss, coin_ss = ss.spawn(2)
    stream_rng = np.random.default_rng(stream_ss)
    coin_rng = np.random.default_rng(coin_ss)

    if track_weighted_risk is None:
        track_weighted_risk = method is Method.BPAC and not spec.is_iid
    if track_weighted_risk and method is not Method.BPAC:
        raise ValueError(WEIGHTED_NEEDS_ENGINE)

    events = (generate_event(spec, stream_rng, t) for t in range(1, horizon + 1))
    return _drive(method, config, events, coin_rng, spec=spec,
                  fixed_wager=fixed_wager, hoeff_variant=hoeff_variant,
                  emit_wealth_every=emit_wealth_every,
                  track_weighted_risk=track_weighted_risk,
                  seed_label=seed_label)


def replay_trace(method, config: RouterConfig, events, *,
                 coin_seed: int | None = None,
                 fixed_wager: float | None = None,
                 hoeff_variant: str = "per_point",
                 emit_wealth_every: int = 0) -> Trajectory:
    """Run one method over a recorded event list.

    Only the exploration coins are random here; they come from
    ``coin_seed`` (default: the config's seed). Risk columns are NaN
    because a recorded trace does not reveal its generating laws.
    """
    method = parse_method(method)
    seed = config.seed if coin_seed is None else coin_seed
    coin_rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _drive(method, config, events, coin_rng, spec=None,
                  fixed_wager=fixed_wager, hoeff_variant=hoeff_variant,
                  emit_wealth_every=emit_wealth_every, seed_label=seed)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Binomial confidence interval that behaves at the boundaries."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # the quadratic's roots sit exactly on 0 and 1 at the boundaries;
    # recompute them there so rounding never pulls the interval inward
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


WEIGHTED_NEEDS_ENGINE = "weighted risk is defined by the betting wagers; engine runs only"

# Replications per lockstep block in ``mc_safety``. At G=1001 and T=2000
# (2-core x86 box, best of three) blocks of 16/25/32/50/100 took about
# 13.4/13.0/13.9/14.4/18.2 us per replication-step; wider tables fall out
# of cache. A block holds 8 (G, 25) tables and 25 gate access lists.
MC_BLOCK = 25


def _safety_criterion(method: Method, spec: SyntheticStreamSpec,
                      criterion: str | None) -> str:
    """The violation criterion ``mc_safety`` scores ``method`` by, or raise."""
    if criterion is None:
        criterion = "weighted" if method is Method.BPAC and not spec.is_iid else "deployment"
    if criterion not in ("deployment", "weighted"):
        raise ValueError(f"unknown safety criterion {criterion!r}")
    if criterion == "weighted" and method is not Method.BPAC:
        raise ValueError(WEIGHTED_NEEDS_ENGINE)
    if criterion == "deployment" and not spec.is_iid:
        reason = "deployment-risk coverage needs a single-segment stream"
        if method is not Method.BPAC:
            reason = (f"{method.value} cannot be scored on a multi-segment stream: "
                      f"{reason}, and {WEIGHTED_NEEDS_ENGINE}")
        raise NonStationarySpec(reason)
    return criterion


def _replications_violated(args) -> list[bool]:
    """Violation flags of baseline replications, run one by one."""
    method, config, spec, horizon, seeds, hoeff_variant = args
    flags = []
    for seed in seeds:
        traj = run_replication(method, config, spec, horizon, seed,
                               hoeff_variant=hoeff_variant, track_weighted_risk=False)
        flags.append(bool(np.any(traj.deploy_risk > config.epsilon)))
    return flags


def _lockstep_violated(args) -> list[bool]:
    """Violation flags of bpac replications advanced together, one row each.

    Every replication gets what ``run_replication`` would give it: its
    seed splits into its own stream and coin generators, and each step it
    draws its event, flips its coin and reads its loss through its own
    gate, in ``step``'s order and with ``step``'s checks (``route``).
    Then one kernel call settles every row and each row certifies its own
    threshold, so the deployed thresholds equal the serial ones bit for
    bit.
    """
    config, spec, horizon, seeds, criterion, fixed_wager = args
    rows = len(seeds)
    lanes = []
    for seed in seeds:
        stream_ss, coin_ss = seed.spawn(2)
        lanes.append((np.random.default_rng(stream_ss), np.random.default_rng(coin_ss),
                      LossGate()))
    table = AccountTable(config, rows, fixed_wager=fixed_wager)
    grid_values, schedule, eps = config.grid.values, config.schedule, config.epsilon
    if criterion == "weighted":
        tracker = RiskTracker(spec, schedule, config.grid, weighted=True, rows=rows)
    else:
        unsafe = oracle_risk_grid(spec, grid_values, deployment_rate(schedule)) > eps
    deployed = np.zeros(rows, dtype=np.intp)
    violated = np.zeros(rows, dtype=bool)
    for t in range(1, horizon + 1):
        rho_t = rho_at(schedule, t)
        k, low = [], []
        for (stream, coin, gate), used in zip(lanes, grid_values[deployed].tolist()):
            _, _, _, kr, lr = route(generate_event(spec, stream, t), used, rho_t,
                                    coin, gate, config)
            k.append(kr)
            low.append(lr)
        table.settle(k, eps, low, payoff_bound(eps, schedule.rho_min, rho_t))
        deployed = table.select()
        if criterion == "weighted":
            tracker.absorb(t, table.accounts.last_lambda)
            violated |= tracker.weighted_risk_at(deployed) > eps
        else:
            violated |= unsafe[deployed]
    return violated.tolist()


def mc_safety(method, config: RouterConfig, spec: SyntheticStreamSpec,
              horizon: int, n_reps: int, *, base_seed: int = 0,
              criterion: str | None = None, workers: int | None = None,
              hoeff_variant: str = "per_point",
              fixed_wager: float | None = None) -> dict[str, Any]:
    """Violation frequency of ever exceeding the risk budget before horizon.

    ``criterion`` picks what counts as a violation: "deployment" compares
    the oracle deployed risk of the certified threshold (single-segment
    streams), "weighted" compares the wager-weighted cumulative risk (any
    stream, engine only). Defaults to whichever matches the spec and the
    method; a baseline on a multi-segment stream has neither and raises
    ``NonStationarySpec`` before any replication runs.

    Replication i always runs on the i-th child of ``base_seed``. bpac
    replications advance in lockstep blocks of ``MC_BLOCK`` on one
    account table; baselines run one by one. ``workers`` > 1 spreads the
    blocks over a process pool.
    """
    method = parse_method(method)
    criterion = _safety_criterion(method, spec, criterion)
    if spec.total_length is not None and horizon > spec.total_length:
        raise StreamExhausted(
            f"horizon {horizon} exceeds the stream's total length {spec.total_length}")

    seeds = np.random.SeedSequence(base_seed).spawn(n_reps)
    blocks = [seeds[i:i + MC_BLOCK] for i in range(0, n_reps, MC_BLOCK)]
    if method is Method.BPAC:
        run = _lockstep_violated
        jobs = [(config, spec, horizon, block, criterion, fixed_wager) for block in blocks]
    else:
        run = _replications_violated
        jobs = [(method, config, spec, horizon, block, hoeff_variant) for block in blocks]
    if workers and workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flags = [f for block in pool.map(run, jobs) for f in block]
    else:
        flags = [f for job in jobs for f in run(job)]

    violations = int(sum(flags))
    freq = violations / n_reps if n_reps else 0.0
    ci_low, ci_high = wilson_interval(violations, n_reps)
    return {
        "method": method.value,
        "criterion": criterion,
        "epsilon": config.epsilon,
        "alpha": config.alpha,
        "n_reps": n_reps,
        "T": horizon,
        "violations": violations,
        "frequency": freq,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "config_hash": config_digest(config),
        "spec": spec.name,
    }


def pinned_threshold_study(spec: SyntheticStreamSpec, threshold: float,
                           config: RouterConfig, horizon: int, n_reps: int,
                           *, base_seed: int = 0,
                           record_at: tuple[int, ...] = (),
                           collect_payoffs: bool = False) -> dict[str, Any]:
    """Betting account behavior at one threshold, deployment pinned to it.

    One account per replication, all settled with the engine's own
    arithmetic, vectorized across replications. This is the harness for
    martingale-level checks (wealth means, bar-crossing rates) and a
    payoff-stream source for the regret harness.
    """
    rng = np.random.default_rng(np.random.SeedSequence(base_seed))
    acc = ThresholdAccount.table(n_reps)
    schedule = config.schedule
    rho_min = schedule.rho_min
    bar = -math.log(config.alpha)
    crossed = np.zeros(n_reps, dtype=bool)
    wealth_at: dict[int, np.ndarray] = {}
    payoffs = np.empty((horizon, n_reps)) if collect_payoffs else None

    for t in range(1, horizon + 1):
        seg = spec.segment_at(t)
        rho_t = rho_at(schedule, t)
        m_t = payoff_bound(config.epsilon, rho_min, rho_t)
        score = np.asarray(seg.score.sample(rng, n_reps))
        latent = (rng.random(n_reps) < seg.loss.prob(score)).astype(float)
        pi = np.where(score >= threshold, 1.0, rho_t)
        coin = rng.random(n_reps) < pi
        payoff = ips_payoff(latent, coin, pi, score, threshold, rho_min, config.epsilon)
        if payoffs is not None:
            payoffs[t - 1] = payoff
        wager = adaptive_lambda(acc, m_t, config.betting_cap)
        update_account(acc, wager, payoff)
        crossed |= acc.log_wealth >= bar
        if t in record_at:
            wealth_at[t] = np.exp(np.asarray(acc.log_wealth)).copy()

    return {
        "threshold": threshold,
        "log_wealth": np.asarray(acc.log_wealth),
        "crossed": crossed,
        "crossing_frequency": float(crossed.mean()) if n_reps else 0.0,
        "wealth_at": wealth_at,
        "payoffs": payoffs,
    }


# ---------------------------------------------------------------------------
# Regret harness


@dataclass(frozen=True)
class RegretReport:
    online: float
    oracle: float
    regret: float
    oracle_wager: float
    bound: float


def regret_bound(horizon: int, epsilon: float, cap: float,
                 schedule: Schedule) -> float:
    """Explicit gap guarantee for the adaptive wager vs the best constant."""
    m = payoff_bound(epsilon, schedule.rho_min, deployment_rate(schedule))
    m2 = m * m
    return (cap * cap / (2.0 * m2)
            + (1.0 + cap) ** 2 * m2 * math.log(horizon * m2 + 1.0)
            / (2.0 * math.log(1.0 + m2)))


def regret_harness(payoffs, epsilon: float, cap: float,
                   schedule: Schedule) -> RegretReport:
    """Quadratic-proxy regret of the adaptive wager on a payoff stream.

    Replays the wager rule through ``adaptive_lambda`` on the prefix sums
    and compares cumulative proxy growth against the best constant wager
    found by dense grid search over the deploy-phase feasible range.
    """
    d = np.asarray(payoffs, dtype=float)
    horizon = d.size
    if horizon == 0:
        raise ValueError("payoff stream is empty")
    rho_seq = np.array([rho_at(schedule, t) for t in range(1, horizon + 1)])
    m_seq = np.maximum(epsilon, (1.0 - schedule.rho_min) / rho_seq - epsilon)

    prior = ThresholdAccount(sum_payoff=np.concatenate(([0.0], np.cumsum(d)))[:-1],
                             sum_payoff_sq=np.concatenate(([0.0], np.cumsum(d * d)))[:-1])
    wagers = adaptive_lambda(prior, m_seq, cap)
    x = wagers * d
    online = float(np.sum(x - 0.5 * x * x))

    grid = np.linspace(0.0, cap / m_seq[-1], REGRET_ORACLE_GRID_SIZE)
    totals = grid * d.sum() - 0.5 * grid ** 2 * np.sum(d * d)
    best = int(np.argmax(totals))
    oracle = float(totals[best])
    return RegretReport(online=online, oracle=oracle, regret=oracle - online,
                        oracle_wager=float(grid[best]),
                        bound=regret_bound(horizon, epsilon, cap, schedule))


# ---------------------------------------------------------------------------
# Stream-spec wire format


def spec_to_dict(spec: SyntheticStreamSpec) -> dict[str, Any]:
    def score_doc(s: ScoreLaw) -> dict[str, Any]:
        if isinstance(s, UniformScore):
            return {"kind": "uniform", "low": s.low, "high": s.high}
        return {"kind": "beta", "a": s.a, "b": s.b}

    def loss_doc(l: LossLaw) -> dict[str, Any]:
        if isinstance(l, LinearLoss):
            return {"kind": "linear", "kappa": l.kappa}
        if isinstance(l, ConstantLoss):
            return {"kind": "constant", "level": l.level}
        return {"kind": "power", "kappa": l.kappa, "degree": l.degree}

    def token_doc(tm: TokenModel) -> dict[str, Any]:
        if isinstance(tm, ConstantTokens):
            return {"kind": "constant", "cheap": tm.cheap, "expensive": tm.expensive}
        return {"kind": "uniform_int", "cheap_low": tm.cheap_low,
                "cheap_high": tm.cheap_high, "expensive_low": tm.expensive_low,
                "expensive_high": tm.expensive_high}

    return {"name": spec.name,
            "segments": [{"length": seg.length, "score": score_doc(seg.score),
                          "loss": loss_doc(seg.loss), "tokens": token_doc(seg.tokens)}
                         for seg in spec.segments]}


def spec_from_dict(raw: dict[str, Any]) -> SyntheticStreamSpec:
    if not isinstance(raw, dict) or "segments" not in raw:
        raise SpecError("segments", "spec document must be an object with a 'segments' list")
    segments = []
    for i, seg_raw in enumerate(raw["segments"]):
        key = f"segments[{i}]"
        if not isinstance(seg_raw, dict):
            raise SpecError(key, "segment must be an object")
        try:
            segments.append(StreamSegment(
                length=seg_raw.get("length"),
                score=_score_from_raw(seg_raw.get("score"), key),
                loss=_loss_from_raw(seg_raw.get("loss"), key),
                tokens=_tokens_from_raw(seg_raw.get("tokens"), key)))
        except ValueError as exc:
            if isinstance(exc, SpecError):
                raise
            raise SpecError(key, str(exc)) from None
    try:
        return SyntheticStreamSpec(segments=tuple(segments),
                                   name=str(raw.get("name", "custom")))
    except ValueError as exc:
        raise SpecError("segments", str(exc)) from None


def _score_from_raw(raw: Any, key: str) -> ScoreLaw:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SpecError(f"{key}.score", f"score law must be an object with a 'kind', got {raw!r}")
    kind = raw["kind"]
    try:
        if kind == "uniform":
            return UniformScore(low=float(raw.get("low", 0.0)), high=float(raw.get("high", 1.0)))
        if kind == "beta":
            return BetaScore(a=float(raw["a"]), b=float(raw["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{key}.score", str(exc)) from None
    raise SpecError(f"{key}.score", f"unknown score kind {kind!r}")


def _loss_from_raw(raw: Any, key: str) -> LossLaw:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SpecError(f"{key}.loss", f"loss law must be an object with a 'kind', got {raw!r}")
    kind = raw["kind"]
    try:
        if kind == "linear":
            return LinearLoss(kappa=float(raw.get("kappa", 1.0)))
        if kind == "constant":
            return ConstantLoss(level=float(raw["level"]))
        if kind == "power":
            return PowerLoss(kappa=float(raw.get("kappa", 1.0)),
                             degree=float(raw.get("degree", 2.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{key}.loss", str(exc)) from None
    raise SpecError(f"{key}.loss", f"unknown loss kind {kind!r}")


def _tokens_from_raw(raw: Any, key: str) -> TokenModel:
    if raw is None:
        return ConstantTokens()
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SpecError(f"{key}.tokens", f"token model must be an object with a 'kind', got {raw!r}")
    kind = raw["kind"]
    try:
        if kind == "constant":
            return ConstantTokens(cheap=int(raw.get("cheap", 100)),
                                  expensive=int(raw.get("expensive", 500)))
        if kind == "uniform_int":
            return UniformTokens(cheap_low=int(raw["cheap_low"]),
                                 cheap_high=int(raw["cheap_high"]),
                                 expensive_low=int(raw["expensive_low"]),
                                 expensive_high=int(raw["expensive_high"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{key}.tokens", str(exc)) from None
    raise SpecError(f"{key}.tokens", f"unknown token kind {kind!r}")


def load_stream_spec(path_or_name: str | Path) -> SyntheticStreamSpec:
    """Resolve a built-in spec name or parse a spec JSON file."""
    name = str(path_or_name)
    if name in BUILTIN_SPECS:
        return BUILTIN_SPECS[name]()
    text = Path(path_or_name).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("<file>", f"not valid JSON: {exc}") from None
    return spec_from_dict(raw)
