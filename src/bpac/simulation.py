"""Synthetic query streams, risk oracles, and Monte Carlo harnesses.

A stream spec is an ordered list of segments, each fixing a law for the
uncertainty score, a conditional loss law given the score, and a token
model. Everything downstream of the router (oracle risk curves, weighted
cumulative risk, coverage studies, the regret harness) lives here on the
evaluator side of the loss gate.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Union

import numpy as np

from .baselines import MeanState, mean_step
from .core import (
    ConstantSchedule,
    RouterConfig,
    Schedule,
    StreamObservation,
    ThresholdGrid,
    config_digest,
    deployment_rate,
    json_number,
    load_json,
    rate_pieces,
    tagged_from_dict,
    tagged_to_dict,
    validate_config,
)
from .engine import (
    AccountTable,
    LossGate,
    LossGateViolation,
    OutOfOrderObservation,
    RouterState,
    ThresholdAccount,
    _escalation_low,
    adaptive_lambda,
    check_fixed_wager,
    payoff_bound,
    route_lanes,
    step,
)
from .metrics import MetricAccumulator

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
        return self.at(rng.random(size))

    def at(self, u):
        """The score that a unit draw ``u`` (scalar or array) maps to."""
        return self.low + (self.high - self.low) * u


@dataclass(frozen=True)
class BetaScore:
    """Uncertainty scores with a Beta(a, b) law on [0, 1]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError(f"beta shape parameters must be positive and finite, got {self.a}, {self.b}")

    def sample(self, rng: np.random.Generator, size=None):
        return rng.beta(self.a, self.b, size)


ScoreLaw = Union[UniformScore, BetaScore]


@dataclass(frozen=True)
class LinearLoss:
    """P(loss = 1 | score v) = kappa * v."""

    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1] to keep probabilities valid, got {self.kappa}")

    def prob(self, v):
        return self.kappa * v


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
        if not 0 < self.degree < math.inf:
            raise ValueError(f"degree must be positive and finite, got {self.degree}")

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

    def pieces(self, start: int, stop: int):
        """Yield ``(first, end, segment)`` runs that cover steps [start, stop) in order."""
        while start < stop:
            i = self.segment_index_at(start)
            bound = self._bounds[i]
            end = stop if bound is None else min(stop, bound + 1)
            yield start, end, self.segments[i]
            start = end


def uniform_linear(kappa: float = 1.0) -> SyntheticStreamSpec:
    """Scores uniform on [0, 1], loss probability kappa * score. Open-ended."""
    return SyntheticStreamSpec(
        segments=(StreamSegment(length=None, score=UniformScore(),
                                loss=LinearLoss(kappa=kappa)),),
        name="uniform_linear")


def easy_hard(kappa_easy: float = 0.5, kappa_hard: float = 1.0,
              break_at: int = 1000) -> SyntheticStreamSpec:
    """Uniform scores whose loss law doubles in steepness after break_at.

    The score distribution never moves; what degrades is how much a given
    score level actually costs, the regime where a frozen offline
    threshold quietly goes stale.
    """
    return SyntheticStreamSpec(
        segments=(StreamSegment(length=break_at, score=UniformScore(),
                                loss=LinearLoss(kappa=kappa_easy)),
                  StreamSegment(length=None, score=UniformScore(),
                                loss=LinearLoss(kappa=kappa_hard))),
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


# Loss laws whose ``prob`` of an array of scores equals, bit for bit, its
# ``prob`` of each score alone (tests check this for every law).
_BLOCK_LOSSES = (LinearLoss, ConstantLoss, PowerLoss)

# Steps per chunk of draws, in ``stream_events`` (serial replications and
# baseline lanes) and in ``_engine_lanes`` (bpac lanes). At G=1001 and
# T=2000 (shared 2-core x86 box, best of three rounds) bpac lanes in chunks
# of 32/128/256/512/2048 steps took 15.1/13.3/15.8/12.2/14.4 us per
# replication-step at 5 lanes and 11.3/9.8/10.1/10.2/10.5 us at 25, within
# the box's noise of each other; only memory grows with the chunk, about
# 1 MB of arrays and lists per chunk at 25 lanes.
DRAW_CHUNK = 256


def _draw(spec: SyntheticStreamSpec, stream: np.random.Generator, start: int,
          stop: int) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Scores, latent losses and token pairs of one lane's events [start, stop).

    Bit for bit what ``generate_event`` draws, and ``stream`` ends in the
    same state. A piece of a segment with a ``UniformScore``,
    ``ConstantTokens`` and a ``_BLOCK_LOSSES`` law draws a (score, loss
    coin) pair per event and no token; numpy's ``random(2 * m)`` returns
    the same doubles as m such pairs, so it is one call. Any other piece
    is drawn one ``generate_event`` at a time.
    """
    scores, losses, tokens = np.empty(stop - start), np.empty(stop - start), []
    for first, end, seg in spec.pieces(start, stop):
        at = slice(first - start, end - start)
        if (type(seg.score) is UniformScore and type(seg.tokens) is ConstantTokens
                and type(seg.loss) in _BLOCK_LOSSES):
            u = stream.random(2 * (end - first))
            scores[at] = seg.score.at(u[0::2])
            np.less(u[1::2], seg.loss.prob(scores[at]), out=losses[at])
            tokens += [(seg.tokens.cheap, seg.tokens.expensive)] * (end - first)
            continue
        for j, t in enumerate(range(first, end), at.start):
            obs = generate_event(spec, stream, t)
            scores[j], losses[j] = obs.uncertainty, obs.latent_loss
            tokens.append((obs.tokens_cheap, obs.tokens_expensive))
    return scores, losses, tokens


def stream_events(spec: SyntheticStreamSpec, stream: np.random.Generator, horizon: int):
    """Events 1..horizon of ``spec``, drawn ``DRAW_CHUNK`` steps at a time by ``_draw``.

    Yields what ``generate_event`` gives step by step, bit for bit, and
    leaves ``stream`` in the same state at every chunk end.
    """
    for start in range(1, horizon + 1, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, horizon + 1)
        scores, losses, tokens = _draw(spec, stream, start, stop)
        for t, score, latent, (cheap, expensive) in zip(range(start, stop), scores.tolist(),
                                                        losses.tolist(), tokens):
            yield StreamObservation(t, score, latent, cheap, expensive)


# ---------------------------------------------------------------------------
# Risk oracles


def mean_loss_below(score: ScoreLaw, loss: LossLaw, u) -> np.ndarray | float:
    """E[P(loss | V) * 1{V < u}] in closed form, for scalar or array u in [0, 1].

    Every score law and loss law the spec reader builds has one; any other
    pair raises ``TypeError``.
    """
    if not (isinstance(score, ScoreLaw) and isinstance(loss, LossLaw)):
        raise TypeError(f"no closed form for {type(score).__name__} scores "
                        f"with {type(loss).__name__} losses")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0

    if isinstance(score, UniformScore):
        lo, hi = score.low, score.high
        m = np.clip(u_arr, lo, hi)
        if isinstance(loss, LinearLoss):
            out = loss.kappa * (m ** 2 - lo ** 2) / (2.0 * (hi - lo))
        elif isinstance(loss, ConstantLoss):
            out = loss.level * (m - lo) / (hi - lo)
        else:
            d = loss.degree
            out = loss.kappa * (m ** (d + 1) - lo ** (d + 1)) / ((d + 1) * (hi - lo))
    else:
        # Imported here: scipy.special adds about 20 MB of resident memory
        # to ``import bpac`` (scipy 1.17), and only Beta laws need it.
        from scipy import special

        a, b = score.a, score.b
        uc = np.clip(u_arr, 0.0, 1.0)
        if isinstance(loss, ConstantLoss):
            out = loss.level * special.betainc(a, b, uc)
        elif isinstance(loss, LinearLoss):
            out = loss.kappa * (a / (a + b)) * special.betainc(a + 1.0, b, uc)
        else:
            d = loss.degree
            ratio = math.exp(special.betaln(a + d, b) - special.betaln(a, b))
            out = loss.kappa * ratio * special.betainc(a + d, b, uc)

    return float(out) if scalar else np.asarray(out, dtype=float)


def _segment_risk(seg: StreamSegment, grid_values, rho: float):
    """Deployed risk ``(1 - rho) * E[loss * 1{score < u}]`` of thresholds u on
    ``seg``: an exploring below-threshold query still escalates with
    probability rho and then costs nothing."""
    return (1.0 - rho) * mean_loss_below(seg.score, seg.loss, grid_values)


def oracle_risk(spec: SyntheticStreamSpec, u: float, rho: float) -> float:
    """True deployed risk of threshold u on a single-segment stream."""
    return float(oracle_risk_grid(spec, u, rho))


def oracle_risk_grid(spec: SyntheticStreamSpec, grid_values: np.ndarray,
                     rho: float) -> np.ndarray:
    """``_segment_risk`` of a single-segment stream; the weighted tracker covers the rest."""
    if not spec.is_iid:
        raise NonStationarySpec(
            "oracle risk needs a single-segment stream; use the weighted tracker instead")
    return _segment_risk(spec.segments[0], grid_values, rho)


def oracle_threshold(spec: SyntheticStreamSpec, epsilon: float, rho: float,
                     grid: ThresholdGrid) -> float | None:
    """Smallest grid threshold whose deployed risk exceeds the budget.

    Returns None when even the top of the grid is safe, meaning no
    deployment on this grid can violate.
    """
    risks = oracle_risk_grid(spec, grid.values, rho)
    over = np.flatnonzero(risks > epsilon)
    return float(grid.values[over[0]]) if over.size else None


def _law_pieces(spec: SyntheticStreamSpec, schedule: Schedule, start: int, stop):
    """Yield ``(first, end, segment, rho)`` runs that cover steps [start, stop)
    in order, on each of which both the segment and the rate are constant."""
    for first, end, seg in spec.pieces(start, stop):
        for lo, hi, rho in rate_pieces(schedule, first, end):
            yield lo, hi, seg, rho


class RiskTracker:
    """Evaluator-side conditional and weighted cumulative risk.

    Per step the conditional risk vector r_t(u) = (1 - rho_t) *
    E[loss * 1{score < u}] comes straight from the active segment's law,
    rho_t being ``schedule``'s rate at step t: the rate the scored run
    routes at, which for a baseline is its constant deployment rate.
    Steps come one at a time from 1, so the tracker walks one
    ``_law_pieces`` iterator from step 1 and carries one piece at a time:
    the risk vector of a run of steps with one segment and one rate, and
    the last step it covers.
    When wager weights are supplied, the tracker also maintains the
    wager-weighted average of past conditional risks per grid point,
    the quantity the mixture certificate controls on shifting streams.
    With ``rows``, it keeps those weighted sums for R runs on one stream
    law, one wager row per run. ``absorb`` takes the wagers of the whole
    grid or of any leading block ``[0, a)`` that holds every nonzero wager;
    serial runs and lockstep lanes alike hand it only their table's live
    block ``last_lambda[..., :extent]``.
    """

    def __init__(self, spec: SyntheticStreamSpec, schedule: Schedule,
                 grid: ThresholdGrid, weighted: bool = False,
                 rows: int | None = None):
        self._pieces = _law_pieces(spec, schedule, 1, math.inf)
        self.grid_values = grid.values
        self.weighted = weighted
        n = grid.values.size
        self.steps = 0
        # The active piece's ``_segment_risk`` and the last step it covers.
        self._risk, self._last = None, 0
        self.risk_sum = np.zeros(n)
        if weighted:
            # Rows are stored grid-major, like ``AccountTable``, so a wager
            # table from one adds in memory order.
            shape = n if rows is None else (n, rows)
            self.weight_sum = np.zeros(shape).T
            self.weighted_risk_sum = np.zeros(shape).T
            # One step's wagers times its risks.
            self._product = np.empty(shape).T
            # Views of both sums, the product and the piece's risks on the
            # wagers' block [0, a), made again when a or the piece changes.
            self._width, self._block = None, ()

    def absorb(self, t: int, wagers: np.ndarray | None = None) -> np.ndarray:
        """Fold step t into the running sums; returns r_t over the grid.

        Raises, before any sum changes, ``OutOfOrderObservation`` unless t
        is ``steps + 1``, ``ValueError`` when a weighted tracker gets no
        wagers, and ``StreamExhausted`` at the first step past a bounded
        spec's end, which leaves the tracker spent.
        """
        if t != self.steps + 1:
            raise OutOfOrderObservation(
                f"risk tracker expected step {self.steps + 1}, got {t}")
        if self.weighted and wagers is None:
            raise ValueError("weighted tracking needs the step's wagers")
        if t > self._last:
            _, end, seg, rho = next(self._pieces)
            self._risk, self._last = _segment_risk(seg, self.grid_values, rho), end - 1
            self._width = None
        r = self._risk
        self.steps = t
        np.add(self.risk_sum, r, self.risk_sum)
        if self.weighted:
            # The wagers may come as a leading block [0, a) of the grid:
            # past it every wager is +0.0, which leaves both sums' bits as
            # they are.
            a = wagers.shape[-1]
            if a != self._width:
                self._width = a
                self._block = (self.weight_sum[..., :a], self.weighted_risk_sum[..., :a],
                               self._product[..., :a], r[:a])
            weights, risks, product, block_risk = self._block
            np.add(weights, wagers, weights)
            np.multiply(wagers, block_risk, product)
            np.add(risks, product, risks)
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
        w = self.weight_sum.item(index)
        if w > 0.0:
            return self.weighted_risk_sum.item(index) / w
        return self.risk_sum.item(index) / self.steps if self.steps else 0.0


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
        for name in _COLUMNS:
            h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        for t_snap, wealth in self.wealth_snapshots:
            h.update(str(t_snap).encode())
            h.update(np.ascontiguousarray(wealth).tobytes())
        return h.hexdigest()


# The per-step columns: every array field, in field order.
_COLUMNS = tuple(f.name for f in fields(Trajectory) if f.type == "np.ndarray")


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer, numpy's included but not a bool, of at
    least ``least``."""
    try:
        return not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        return False


def _check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed that is not an integer >= 0, numpy's included, before
    numpy's ``SeedSequence`` refuses it untyped."""
    if not _is_count(seed, 0):
        raise ValueError(f"{name} must be an integer >= 0, got {seed!r}")


def _check_options(hoeff_variant, emit_wealth_every=0, workers=None) -> None:
    """Refuse with ``ValueError``, whatever the method, an ``ips_hoeff``
    variant that is not "per_point" or "union_over_grid", a wealth-snapshot
    period that is not an integer >= 0 and a worker count that is neither
    None nor an integer >= 1."""
    if hoeff_variant not in ("per_point", "union_over_grid"):
        raise ValueError(f"hoeff_variant must be 'per_point' or 'union_over_grid', "
                         f"got {hoeff_variant!r}")
    if not _is_count(emit_wealth_every, 0):
        raise ValueError(f"emit_wealth_every must be an integer >= 0, got {emit_wealth_every!r}")
    if workers is not None and not _is_count(workers, 1):
        raise ValueError(f"workers must be None or an integer >= 1, got {workers!r}")


def check_run(method: Method, config: RouterConfig, spec: SyntheticStreamSpec | None,
              horizon: int | None, fixed_wager: float | None) -> None:
    """Refuse a run before it starts: a config that fails ``validate_config``
    (``ConfigError``), then a fixed wager on a baseline, then an infeasible
    fixed wager, then a horizon that is not an integer >= 0 or is past a
    bounded ``spec`` (None for a recorded trace, whose horizon is None)."""
    validate_config(config)
    if fixed_wager is not None and method is not Method.BPAC:
        raise ValueError("a fixed wager replaces the betting wager; engine runs only")
    check_fixed_wager(config, fixed_wager)
    if spec is not None and not _is_count(horizon, 0):
        raise ValueError(f"horizon must be an integer >= 0, got {horizon!r}")
    if spec is not None and spec.total_length is not None and horizon > spec.total_length:
        raise StreamExhausted(
            f"horizon {horizon} exceeds the stream's total length {spec.total_length}")


def _fresh(method: Method, config: RouterConfig, coin, fixed_wager: float | None = None,
           hoeff_variant: str = "per_point"):
    """A fresh state of ``method``, its coins seeded by ``coin``, and the step
    that advances it, looked up by name at call time so that wrappers see it.
    """
    if method is Method.BPAC:
        return RouterState.fresh(config, rng=coin, fixed_wager=fixed_wager), step
    if method is Method.O_NAIVE:
        return MeanState.fresh(config, rng=coin), naive_step
    return MeanState.fresh(config, rng=coin, variant=hoeff_variant), hoeff_step


def _audit_gates(gates: list[LossGate], escalations: list[int]) -> None:
    """Raise ``LossGateViolation`` unless each lane's gate opened once per escalation."""
    for lane, (gate, count) in enumerate(zip(gates, escalations)):
        if gate.access_count != count:
            raise LossGateViolation(f"the loss gate of lane {lane} opened "
                                    f"{gate.access_count} times for {count} escalations")


def _drive(method: Method, config: RouterConfig, events, coin_rng,
           *, spec: SyntheticStreamSpec | None = None,
           fixed_wager: float | None = None, hoeff_variant: str = "per_point",
           emit_wealth_every: int = 0, seed_label: int = -1) -> Trajectory:
    """Feed events to one method's state machine, recording every column.

    ``events`` is any iterable of observations with contiguous indices
    from 1. Each step keeps only what it decides or reads: the deployed
    index, the coin, the propensity, the event's score and latent loss,
    the running metrics and the risk tracker's readouts. The columns that
    follow from those (``t``, ``rho``, ``u_hat``, ``deploy_risk``,
    ``realized_loss``) are built as whole arrays after the last step.
    The run's exploration schedule is chosen once, next to its state: the
    config's for bpac, and for a baseline a ``ConstantSchedule`` at the
    rate it routes at from step 1. The ``rho`` column, the risk tracker and
    the deploy-risk oracle all read that one schedule, so every risk column
    is scored at the method's own rates.
    Risk columns need the generating laws, so they are NaN when no spec
    is supplied (recorded traces), and ``weighted_risk`` is NaN too unless
    a bpac run meets a multi-segment stream, the one case ``mc_safety``
    scores by it. At the end the gate must have opened once per
    escalation, or ``LossGateViolation`` is raised.
    """
    state, advance = _fresh(method, config, coin_rng, fixed_wager, hoeff_variant)
    schedule = config.schedule if method is Method.BPAC else ConstantSchedule(state.rho)
    gate = LossGate()

    grid_values = config.grid.values
    risk_grid = tracker = None
    if spec is not None:
        if spec.is_iid:
            risk_grid = oracle_risk_grid(spec, grid_values, deployment_rate(schedule))
        tracker = RiskTracker(spec, schedule, config.grid,
                              weighted=method is Method.BPAC and not spec.is_iid)
    snap_every = emit_wealth_every if method is Method.BPAC else 0

    deployed, xi, pi, score, latent, ecp, tp, er = ([] for _ in range(8))
    cond_risk, weighted_risk, mean_cond_risk = [], [], []
    acc = MetricAccumulator()
    snapshots: list[tuple[int, np.ndarray]] = []

    for obs in events:
        decision, state = advance(state, obs, gate)
        acc.update(decision, obs)
        idx = state.deployed_index
        deployed.append(idx)
        xi.append(decision.coin)
        pi.append(decision.propensity)
        score.append(obs.uncertainty)
        latent.append(obs.latent_loss)
        ecp.append(acc.ecp)
        tp.append(acc.tp)
        er.append(acc.er)
        if tracker is not None:
            if tracker.weighted:
                table = state.table
                r_vec = tracker.absorb(obs.index, table.last_lambda[:table.extent])
                weighted_risk.append(tracker.weighted_risk_at(idx))
            else:
                r_vec = tracker.absorb(obs.index)
            cond_risk.append(r_vec.item(idx))
            # unweighted running mean of past conditional risks at the
            # current threshold, the companion readout to weighted_risk
            mean_cond_risk.append(tracker.risk_sum.item(idx) / tracker.steps)
        if snap_every and obs.index % snap_every == 0:
            snapshots.append((obs.index, state.table.log_wealth.copy()))

    n = len(xi)
    deployed = np.array(deployed, dtype=np.intp)
    xi = np.array(xi, dtype=np.int64)
    _audit_gates([gate], [int(xi.sum())])
    latent = np.array(latent, dtype=float)

    def readout(values: list) -> np.ndarray:
        """A risk tracker column, NaN where the tracker recorded nothing."""
        return np.array(values, dtype=float) if values else np.full(n, math.nan)

    rho = np.empty(n)
    for first, end, rate in rate_pieces(schedule, 1, n + 1):
        rho[first - 1:end - 1] = rate
    return Trajectory(method=method.value, seed=seed_label,
                      config_hash=config_digest(config),
                      t=np.arange(1, n + 1, dtype=np.int64),
                      uncertainty=np.array(score, dtype=float), rho=rho,
                      pi=np.array(pi, dtype=float), xi=xi, u_hat=grid_values[deployed],
                      latent_loss=latent, realized_loss=(1 - xi) * latent,
                      ecp=np.array(ecp, dtype=float), tp=np.array(tp, dtype=float),
                      er=np.array(er, dtype=float),
                      deploy_risk=(np.full(n, math.nan) if risk_grid is None
                                   else risk_grid[deployed]),
                      cond_risk=readout(cond_risk), weighted_risk=readout(weighted_risk),
                      mean_cond_risk=readout(mean_cond_risk),
                      wealth_snapshots=snapshots,
                      gate_accesses=gate.access_count)


def run_replication(method, config: RouterConfig, spec: SyntheticStreamSpec,
                    horizon: int, seed, *, fixed_wager: float | None = None,
                    hoeff_variant: str = "per_point",
                    emit_wealth_every: int = 0) -> Trajectory:
    """Run one method over one freshly drawn stream.

    ``seed`` (int or SeedSequence) splits into independent stream and
    coin generators, so different methods given the same seed face the
    identical sequence of queries and latent losses. ``check_run`` refuses
    a bad run before any draw, then ``_check_options`` a bad
    ``hoeff_variant`` or ``emit_wealth_every``, then a seed that is neither
    a SeedSequence nor an integer >= 0 raises ``ValueError``.
    """
    method = parse_method(method)
    check_run(method, config, spec, horizon, fixed_wager)
    _check_options(hoeff_variant, emit_wealth_every)
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        _check_seed(seed)
        ss = np.random.SeedSequence(seed)
    seed_label = (ss.entropy if isinstance(ss.entropy, int) and ss.spawn_key == ()
                  else int(ss.generate_state(1)[0]))
    stream_rng, coin_rng = map(np.random.default_rng, ss.spawn(2))

    return _drive(method, config, stream_events(spec, stream_rng, horizon), coin_rng,
                  spec=spec, fixed_wager=fixed_wager, hoeff_variant=hoeff_variant,
                  emit_wealth_every=emit_wealth_every, seed_label=seed_label)


def replay_trace(method, config: RouterConfig, events, *,
                 coin_seed: int | None = None,
                 fixed_wager: float | None = None,
                 hoeff_variant: str = "per_point",
                 emit_wealth_every: int = 0) -> Trajectory:
    """Run one method over a recorded event list.

    Only the exploration coins are random here; they come from
    ``coin_seed`` (default: the config's seed). Risk columns are NaN
    because a recorded trace does not reveal its generating laws.
    ``check_run`` refuses a bad run before any event is read, then
    ``_check_options`` a bad ``hoeff_variant`` or ``emit_wealth_every``,
    then a ``coin_seed`` that is not an integer >= 0 raises ``ValueError``.
    """
    method = parse_method(method)
    check_run(method, config, None, None, fixed_wager)
    _check_options(hoeff_variant, emit_wealth_every)
    seed = config.seed if coin_seed is None else coin_seed
    _check_seed(seed, "coin_seed")
    coin_rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _drive(method, config, events, coin_rng, spec=None,
                  fixed_wager=fixed_wager, hoeff_variant=hoeff_variant,
                  emit_wealth_every=emit_wealth_every, seed_label=seed)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% binomial confidence interval that behaves at the boundaries."""
    z = 1.96
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
# with the held extent bound (shared 2-core x86 box, sizes interleaved,
# best of three rounds) blocks of 16/25/32/50/100 took about
# 6.4/5.8/6.6/7.3/7.2 us per replication-step over 100 replications and
# 8.3/7.0/7.8/7.3/7.5 over 200; 25 was fastest in every round of both
# sweeps. A block holds 8 (G, 25) tables, 25 gate access lists and one
# chunk of draws.
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


def _engine_lanes(config: RouterConfig, spec: SyntheticStreamSpec, horizon: int,
                  streams, coins, gates: list[LossGate], table: AccountTable):
    """Advance bpac lanes; yield each step, its deployed indices and the
    lanes that escalated.

    Every ``DRAW_CHUNK`` steps, each lane draws its scores and latent
    losses (``_draw``) and its coin draws for the chunk up front and puts
    the losses behind its gate. Each step then routes every lane from its
    row's deployed index with ``route_lanes``, settles every row on its
    charges in one kernel call and certifies each row's threshold. The
    deployed indices are the table's own list: under fixed-sequence it is
    the same list until some row's gap moves (``AccountTable.select``).
    """
    deployed = [0] * len(gates)
    for start in range(1, horizon + 1, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, horizon + 1)
        scores = np.empty((len(gates), stop - start))
        for stream, gate, row in zip(streams, gates, scores):
            row[:], losses, _ = _draw(spec, stream, start, stop)
            gate.hold(start, losses.tolist())
        draws = np.array([coin.random(stop - start) for coin in coins])
        step_scores, step_draws = scores.T.tolist(), draws.T.tolist()
        for first, end, rho_t in rate_pieces(config.schedule, start, stop):
            at = slice(first - start, end - start)
            for t, lane_scores, lane_draws in zip(range(first, end), step_scores[at],
                                                  step_draws[at]):
                escalated, charges = route_lanes(t, lane_scores, lane_draws, deployed, rho_t,
                                                 gates, config)
                table.settle(charges, rho_t)
                deployed = table.select()
                yield t, deployed, escalated


def _baseline_lanes(lanes: list[tuple[MeanState, Any]], spec: SyntheticStreamSpec,
                    horizon: int, streams, gates: list[LossGate]):
    """Advance baseline lanes, each a (state, step) pair from ``_fresh``.

    Each lane reads its events from its own ``stream_events``. Yields what
    ``_engine_lanes`` yields.
    """
    sources = [stream_events(spec, stream, horizon) for stream in streams]
    for t, events in enumerate(zip(*sources), 1):
        coins = [advance(state, obs, gate)[0].coin
                 for obs, (state, advance), gate in zip(events, lanes, gates)]
        yield (t, [state.deployed_index for state, _ in lanes],
               [lane for lane, coin in enumerate(coins) if coin])


def _lockstep_violated(args) -> list[bool]:
    """Violation flags of replications advanced together, one lane each.

    Every replication gets what ``run_replication`` would give it: its
    seed splits into its own stream and coin generators, and each step it
    draws its event, flips its coin and reads its loss through its own
    gate. A baseline lane steps its own state from ``_fresh``; bpac lanes
    route with ``route``'s order and checks, then one kernel call settles
    every row and each row certifies its own threshold. So the deployed
    thresholds equal the serial ones bit for bit, and the gates are
    audited as in ``_drive``.

    Each step counts only the lanes that escalated. Under the deployment
    criterion the flags are folded again only when the lanes hand back a
    new list of deployed indices: a fixed-sequence table replaces its list
    only when some row's gap moved, so a list seen before is folded
    already.
    """
    method, config, spec, horizon, seeds, criterion, fixed_wager, hoeff_variant = args
    rows = len(seeds)
    streams, coins = zip(*(map(np.random.default_rng, seed.spawn(2)) for seed in seeds))
    gates = [LossGate() for _ in range(rows)]
    if method is Method.BPAC:
        table = AccountTable(config, rows, fixed_wager=fixed_wager)
        lanes = _engine_lanes(config, spec, horizon, streams, coins, gates, table)
    else:
        lanes = _baseline_lanes([_fresh(method, config, coin, hoeff_variant=hoeff_variant)
                                 for coin in coins], spec, horizon, streams, gates)
    eps = config.epsilon
    if criterion == "weighted":
        tracker = RiskTracker(spec, config.schedule, config.grid, weighted=True, rows=rows)
    else:
        unsafe = (oracle_risk_grid(spec, config.grid.values,
                                   deployment_rate(config.schedule)) > eps).tolist()
    violated = [False] * rows
    escalations = [0] * rows
    folded = None
    for t, deployed, escalated in lanes:
        for lane in escalated:
            escalations[lane] += 1
        if criterion == "weighted":
            tracker.absorb(t, table.last_lambda[:, :table.extent])
            flags = (tracker.weighted_risk_at(deployed) > eps).tolist()
        elif deployed is folded:
            continue
        else:
            folded, flags = deployed, [unsafe[index] for index in deployed]
        violated = list(map(operator.or_, violated, flags))
    _audit_gates(gates, escalations)
    return violated


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

    Replication i always runs on the i-th child of ``base_seed``.
    Replications advance in lockstep blocks of ``MC_BLOCK``: bpac rows on
    one account table, baselines on one ``MeanState`` each. Past the coin
    flips, a bpac block's step does Python work only for the lanes that
    escalated: ``route_lanes`` hands back those lanes and the sparse
    charges that ``settle`` takes, and fixed-sequence deployment flags are
    folded again only when some row's gap moved. ``workers`` > 1
    spreads the blocks over a process pool of at most ``workers``
    processes, and never more than the blocks or the CPUs. A block whose
    gates did not open exactly once per escalation raises
    ``LossGateViolation``; a ``horizon`` or ``n_reps`` that is not an
    integer >= 1 raises ``ValueError``, and ``check_run`` refuses before
    ``_check_options`` (a bad ``hoeff_variant`` or ``workers``), which
    refuses before the criterion; then a ``base_seed`` that is not an
    integer >= 0 raises ``ValueError``.
    """
    method = parse_method(method)
    if not (_is_count(horizon, 1) and _is_count(n_reps, 1)):
        raise ValueError(f"a coverage study needs integers horizon >= 1 and n_reps >= 1, "
                         f"got {horizon!r} and {n_reps!r}")
    check_run(method, config, spec, horizon, fixed_wager)
    _check_options(hoeff_variant, workers=workers)
    criterion = _safety_criterion(method, spec, criterion)
    _check_seed(base_seed, "base_seed")

    seeds = np.random.SeedSequence(base_seed).spawn(n_reps)
    jobs = [(method, config, spec, horizon, seeds[i:i + MC_BLOCK], criterion,
             fixed_wager, hoeff_variant) for i in range(0, n_reps, MC_BLOCK)]
    pool_size = min(workers or 1, len(jobs), os.cpu_count() or 1)
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            flags = [f for block in pool.map(_lockstep_violated, jobs) for f in block]
    else:
        flags = [f for job in jobs for f in _lockstep_violated(job)]

    violations = int(sum(flags))
    ci_low, ci_high = wilson_interval(violations, n_reps)
    return {
        "method": method.value,
        "criterion": criterion,
        "epsilon": config.epsilon,
        "alpha": config.alpha,
        "n_reps": n_reps,
        "T": horizon,
        "violations": violations,
        "frequency": violations / n_reps,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "config_hash": config_digest(config),
        "spec": spec.name,
    }


def pinned_threshold_study(spec: SyntheticStreamSpec, threshold: float,
                           config: RouterConfig, horizon: int, n_reps: int,
                           *, base_seed: int = 0) -> dict[str, Any]:
    """Betting account behavior at one threshold, deployment pinned to it.

    One account per replication: a row of an ``AccountTable`` on the
    one-point grid ``[threshold]``, settled by the engine's own kernel,
    with every query explored below the threshold priced by the engine's
    ``_escalation_low``. Scores, latent losses and coins are drawn for all
    replications at once from one generator. This is the harness for
    martingale-level checks (wealth means, bar-crossing rates) and a
    payoff-stream source for the regret harness: ``payoffs`` holds every
    row's payoff at every step, shape (horizon, n_reps).

    Raises ``ConfigError`` for an invalid config, ``StreamExhausted`` for a
    horizon past a bounded spec's total length (both by ``check_run``), and
    ``ValueError`` for a threshold outside [0, 1] (NaN included), a
    horizon or replication count that is not an integer >= 1 or a
    ``base_seed`` that is not an integer >= 0, before any draw.
    """
    check_run(Method.BPAC, config, spec, horizon, None)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be a finite number in [0, 1], got {threshold!r}")
    if not (_is_count(horizon, 1) and _is_count(n_reps, 1)):
        raise ValueError(f"horizon and n_reps must be integers at least 1, "
                         f"got {horizon!r} and {n_reps!r}")
    _check_seed(base_seed, "base_seed")
    rng = np.random.default_rng(np.random.SeedSequence(base_seed))
    table = AccountTable(replace(config, grid=ThresholdGrid([threshold])), n_reps)
    log_wealth = table.log_wealth[:, 0]
    bar = -math.log(config.alpha)
    crossed = np.zeros(n_reps, dtype=bool)
    payoffs = np.empty((horizon, n_reps))

    for first, end, seg, rho_t in _law_pieces(spec, config.schedule, 1, horizon + 1):
        for t in range(first, end):
            score = np.asarray(seg.score.sample(rng, n_reps))
            latent = (rng.random(n_reps) < seg.loss.prob(score)).astype(float)
            coin = rng.random(n_reps) < np.where(score >= threshold, 1.0, rho_t)
            # Only a query explored below the threshold, at propensity rho_t,
            # charges its row, at the split 0: the whole one-point grid.
            low = [config.epsilon] * n_reps
            charges = []
            for r in np.flatnonzero(coin & (score < threshold)).tolist():
                low[r] = _escalation_low(float(latent[r]), rho_t, rho_t, config, t, r)
                charges.append((r, 0, low[r]))
            table.settle(charges, rho_t)
            payoffs[t - 1] = low
            crossed |= log_wealth >= bar

    return {
        "threshold": threshold,
        "log_wealth": log_wealth.copy(),
        "crossed": crossed,
        "crossing_frequency": float(crossed.mean()),
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
    m_seq = np.empty(horizon)
    for first, end, rho in rate_pieces(schedule, 1, horizon + 1):
        m_seq[first - 1:end - 1] = payoff_bound(epsilon, schedule.rho_min, rho)

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


SCORE_KINDS: dict[str, type] = {"uniform": UniformScore, "beta": BetaScore}
LOSS_KINDS: dict[str, type] = {"linear": LinearLoss, "constant": ConstantLoss, "power": PowerLoss}
TOKEN_KINDS: dict[str, type] = {"constant": ConstantTokens, "uniform_int": UniformTokens}

# The law-valued segment fields and the kind table each is read from.
_SEGMENT_LAWS = {"score": SCORE_KINDS, "loss": LOSS_KINDS, "tokens": TOKEN_KINDS}


def spec_to_dict(spec: SyntheticStreamSpec) -> dict[str, Any]:
    return {"name": spec.name,
            "segments": [{"length": seg.length,
                          **{part: tagged_to_dict(getattr(seg, part), kinds)
                             for part, kinds in _SEGMENT_LAWS.items()}}
                         for seg in spec.segments]}


def spec_from_dict(raw: dict[str, Any]) -> SyntheticStreamSpec:
    """Inverse of ``spec_to_dict``; a malformed document raises ``SpecError``.

    A missing ``name`` is "custom", a missing ``length`` is open-ended and
    missing ``tokens`` are ``ConstantTokens()``; any key not written by
    ``spec_to_dict`` is an error.
    """
    if not isinstance(raw, dict) or not isinstance(raw.get("segments"), list):
        raise SpecError("segments", "spec document must be an object with a 'segments' list")
    unknown = sorted(raw.keys() - {"name", "segments"})
    if unknown:
        raise SpecError(unknown[0], f"unknown spec key {unknown[0]!r}")
    name = raw.get("name", "custom")
    if not isinstance(name, str):
        raise SpecError("name", f"name must be a string, got {name!r}")
    segments = tuple(_segment_from_raw(seg, f"segments[{i}]")
                     for i, seg in enumerate(raw["segments"]))
    try:
        return SyntheticStreamSpec(segments=segments, name=name)
    except ValueError as exc:
        raise SpecError("segments", str(exc)) from None


def _segment_from_raw(raw: Any, key: str) -> StreamSegment:
    if not isinstance(raw, dict):
        raise SpecError(key, "segment must be an object")
    unknown = sorted(raw.keys() - {"length", *_SEGMENT_LAWS})
    if unknown:
        raise SpecError(key, f"unknown segment key {unknown[0]!r}")
    length = raw.get("length")
    if length is not None:
        length = json_number(length, True, lambda message: SpecError(key, message), "length")
    laws = {part: tagged_from_dict(raw.get(part), kinds,
                                   lambda message, part=part: SpecError(f"{key}.{part}", message))
            for part, kinds in _SEGMENT_LAWS.items()
            if part != "tokens" or raw.get(part) is not None}
    try:
        return StreamSegment(length=length, **laws)
    except ValueError as exc:
        raise SpecError(key, str(exc)) from None


def load_stream_spec(path_or_name: str | Path) -> SyntheticStreamSpec:
    """Resolve a built-in spec name or parse a spec JSON file."""
    name = str(path_or_name)
    if name in BUILTIN_SPECS:
        return BUILTIN_SPECS[name]()
    return spec_from_dict(load_json(path_or_name, lambda message: SpecError("<file>", message)))
