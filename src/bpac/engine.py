"""Sequential betting engine that routes queries and certifies thresholds.

One betting account runs per candidate threshold. Each step the router
deploys the last certified threshold, flips a routing coin, and settles
every account against an importance-weighted payoff built from the one
loss it was allowed to observe. Wealth is tracked in the log domain only;
an account whose wealth clears the confidence bar is evidence that its
threshold keeps the deployed risk under the budget, and the selection
rules read the next deployed threshold off the wealth table.

``AccountTable.settle(k, low, rho_t)`` is the one settlement kernel,
with epsilon and ``payoff_bound`` read off its config: one fused in-place
pass that touches only live accounts, over a single run's grid (what
``step`` settles) or over R runs' grids at once (``mc_safety``'s lockstep
lanes, and ``pinned_threshold_study`` on a one-point grid).
``adaptive_lambda`` and ``update_account`` are the reference wager and
settlement over numpy scalars-or-arrays that the kernel must match bit
for bit; they stay here because the benchmark times them by name, and
``regret_harness`` replays the wager over prefix sums with the first.

Live-prefix invariant. The grid is strictly increasing (``validate_config``
refuses any other), and one step's payoff is epsilon below the score and
epsilon minus a non-negative estimate at or above it, so payoffs never
increase along the grid.
Rounding is monotone, so the cumulative payoff ``sum_payoff`` never
increases along the grid either. The adaptive wager
``clip(sum_payoff / (sum_payoff_sq + 1), 0, cap / m_t)`` is therefore
positive only on a prefix ``[0, a)`` and exactly 0 past it, where
``log1p(0 * payoff)`` is a signed zero and leaves log-wealth bit-for-bit
unchanged. Skipping those accounts changes no bit of the result.

The single-run path takes three more shortcuts, each exact:

- The split ``k = bisect_right(grid, score)`` makes the same ``<``
  comparisons as ``searchsorted(grid, score, "right")`` for a finite
  score, and ``route`` rejects every other score first.
- A step whose payoff is the same on both sides of the split (a cheap
  step, or an escalation that observed loss 0) settles as ``k = n``.
- Every wager is at most ``cap / m_t``, or exactly the fixed wager, and
  rounding a product by a fixed negative scalar is monotone. So no
  account can be ruined unless ``low`` times that bound is ``<= -1``, and
  only then is the largest wager past the split reduced.

Carried gap. The fixed-sequence rule deploys the point before a row's
gap, its first grid point whose log-wealth is below the bar (0 when the
gap is at 0): the largest index whose entire prefix clears the bar, the
requirement that makes the 1 / alpha bar anytime-valid without any
multiplicity correction. ``settle`` carries each row's gap from step to
step instead of rescanning the grid, and the carried gap equals a fresh
scan:

- Wagers are never negative. Points paid epsilon > 0, and points paid a
  ``low`` >= 0, gain log-wealth or keep it, so no point below the gap
  falls under the bar, and the gap can only move forward. It stays put
  unless the point at the gap now clears the bar, and then a scan from
  there finds the new one.
- A ``low`` < 0 can pull under the bar only points in ``[k, a)``, where
  the wager is live, so only a charge with ``k < min(gap, a)`` can open a
  gap below the old one, and then the new gap is the first point at or
  past ``k`` under the bar.
- One more point at the end of the log-wealth storage holds -inf, below
  every bar, so every scan stops there at the latest, and a gap at n
  deploys the top of the grid.

So ``select`` costs O(1) for fixed-sequence; mixture selection scans the
whole grid every step.

``route_lanes`` routes R lanes of a Monte Carlo study (``mc_safety``) on
numbers drawn ahead of time, a chunk of steps at once, and is exact too:

- numpy's ``Generator.random(m)`` returns the same doubles as m calls of
  ``random()``, so a lane's coin draws for a chunk are one call, and a
  stream segment that draws a score and a loss coin per event, and
  nothing else, is one ``random(2 * m)`` call.
- ``searchsorted(grid, scores, "right")`` over a chunk gives each finite
  score the split ``bisect_right`` gives it, and ``route_lanes`` rejects
  a non-finite score before its coin or its split is read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import RouterConfig, SelectionMode, StreamObservation, rho_at, validate_config


class WagerOutOfRange(RuntimeError):
    """A wager would let a single payoff wipe out an account.

    Unreachable when wagers come from ``adaptive_lambda`` under a valid
    config; kept as a hard internal assertion.
    """


class OutOfOrderObservation(ValueError):
    """The stream handed the engine a step index it did not expect."""


class InvalidObservation(ValueError):
    """The stream handed the engine a score or a loss it cannot settle.

    A non-finite score would compare false against every candidate and pay
    every account epsilon; a loss outside [0, 1] breaks the payoff bound
    the wager cap relies on. Either would let wealth grow without evidence.
    """


class LossGateViolation(RuntimeError):
    """A loss was read on a step routed to the cheap model, or out of order.

    Raised when the engine asks the gate with coin 0 or for a step no
    later than the last one it opened, and when a gate's count of
    accesses disagrees with the routing record.
    """


@dataclass(frozen=True)
class Decision:
    """What the router did on one step, before any account settlement."""

    propensity: float
    coin: int
    observed_loss: float | None
    threshold_used: float


@dataclass
class ThresholdAccount:
    """Betting state for candidate thresholds.

    Fields hold plain floats for a single account, or aligned arrays for
    one account per grid point. ``sum_payoff`` and ``sum_payoff_sq`` feed
    the adaptive wager; both exclude the current step until settlement,
    which is what keeps the wager predictable.
    """

    log_wealth: float | np.ndarray = 0.0
    sum_payoff: float | np.ndarray = 0.0
    sum_payoff_sq: float | np.ndarray = 0.0
    last_lambda: float | np.ndarray = 0.0


class LossGate:
    """Single doorway between the stream's latent losses and the engine.

    The gate opens only on steps whose coin actually routed the query to
    the expensive model, each step at most once and in step order, and it
    counts its openings, so a trajectory can be audited against the
    routing record afterwards. ``observe`` reads the loss off an event; a
    lane driven on losses drawn ahead of time puts them behind the gate
    with ``hold`` and reads one with ``reveal``.
    """

    def __init__(self) -> None:
        self.access_count = 0
        self._last = 0
        self._first = 1
        self._held: list[float] = []

    def observe(self, obs: StreamObservation, coin: int) -> float:
        self._open(obs.index, coin)
        return obs.latent_loss

    def hold(self, first: int, losses: list[float]) -> None:
        """Keep the latent losses of steps ``first``, ``first + 1``, ... for ``reveal``."""
        self._first, self._held = first, losses

    def reveal(self, t: int, coin: int) -> float:
        """``observe`` for held step ``t``."""
        self._open(t, coin)
        return self._held[t - self._first]

    def _open(self, t: int, coin: int) -> None:
        if coin != 1:
            raise LossGateViolation(f"loss requested at step {t} with routing coin {coin}")
        if t <= self._last:
            raise LossGateViolation(
                f"loss requested at step {t} after the gate opened at step {self._last}")
        self._last = t
        self.access_count += 1


def coin_generator(config: RouterConfig, rng=None) -> np.random.Generator:
    """Routing-coin generator from ``rng``: a Generator is used as is, a
    SeedSequence or an int seeds a new one, and None seeds ``config.seed``.
    """
    return np.random.default_rng(config.seed if rng is None else rng)


def propensity(uncertainty: float, deployed: float, rho_t: float) -> float:
    """Probability of calling the expensive model on this query.

    Queries at or above the deployed threshold always escalate; the rest
    escalate at the exploration rate so no threshold ever goes blind.
    """
    return 1.0 if uncertainty >= deployed else rho_t


def payoff_bound(epsilon: float, rho_min: float, rho_t: float) -> float:
    """Largest payoff magnitude possible at this step's exploration rate."""
    return max(epsilon, (1.0 - rho_min) / rho_t - epsilon)


def _at(t: int, lane: int | None = None) -> str:
    """Where a failed routing check happened, for its message."""
    return f"at step {t}" if lane is None else f"at step {t} in lane {lane}"


def _escalation_low(observed: float, pi: float, rho_t: float, config: RouterConfig,
                    t: int, lane: int | None = None) -> float:
    """Epsilon minus the IPS estimate of an escalated query's ``observed`` loss.

    The loss must lie in [0, 1], and then the estimate in the payoff range
    [0, (1 - rho_min) / rho_t] that the wager cap relies on.
    """
    if not 0.0 <= observed <= 1.0:
        raise InvalidObservation(
            f"observed loss {observed!r} {_at(t, lane)} is outside [0, 1]")
    scale = 1.0 - config.schedule.rho_min
    estimate = scale * (observed / pi)
    if not 0.0 <= estimate <= scale * (1.0 / rho_t):
        raise WagerOutOfRange(
            f"loss estimate {estimate} escapes its propensity bound {_at(t, lane)}")
    return config.epsilon - estimate


def adaptive_lambda(account: ThresholdAccount, m_t: float, cap: float):
    """Wager for the next payoff, from past payoffs only (reference).

    Follows the regularized ratio of cumulative payoff to cumulative
    squared payoff, clamped to [0, cap / m_t] so one step can lose at most
    a ``cap`` fraction of the account. Scalar or array, matching the
    account's fields.
    """
    raw = account.sum_payoff / (account.sum_payoff_sq + 1.0)
    return np.clip(raw, 0.0, cap / m_t)


def update_account(account: ThresholdAccount, lam, payoff) -> ThresholdAccount:
    """Settle one betting round; returns the same account (reference).

    Wealth multiplies by (1 + lam * payoff), tracked as log1p so long
    losing streaks underflow gracefully instead of hitting zero.
    """
    growth = lam * payoff
    if np.min(growth) <= -1.0:
        raise WagerOutOfRange(
            f"wealth factor would drop to {1.0 + float(np.min(growth)):.3g}")
    account.log_wealth = account.log_wealth + np.log1p(growth)
    account.sum_payoff = account.sum_payoff + payoff
    account.sum_payoff_sq = account.sum_payoff_sq + np.square(payoff)
    account.last_lambda = lam
    return account


def _mixture_index(log_wealth: np.ndarray, log_bars: np.ndarray) -> int:
    """Largest index clearing its own bar 1 / (alpha * mass); 0 when none do."""
    hits = np.flatnonzero(log_wealth >= log_bars)
    return int(hits[-1]) if hits.size else 0


def _mixture_rows(log_wealth: np.ndarray, log_bars: np.ndarray) -> np.ndarray:
    """``_mixture_index`` of every column of a (G, R) wealth table."""
    hits = log_wealth >= log_bars[:, None]
    last = hits.shape[0] - 1 - hits[::-1].argmax(axis=0)
    return np.where(hits[last, np.arange(last.size)], last, 0)


def check_fixed_wager(config: RouterConfig, fixed_wager: float | None) -> None:
    """Raise ``WagerOutOfRange`` unless ``fixed_wager`` is None (the adaptive
    wager) or survives the worst payoff at every rate the schedule emits."""
    if fixed_wager is None:
        return
    worst = max((1.0 - config.schedule.rho_min) / r - config.epsilon
                for r in config.schedule.emitted_rates())
    if not 0.0 <= fixed_wager < 1.0 / worst:
        raise WagerOutOfRange(f"fixed wager {fixed_wager} must lie in [0, {1.0 / worst:.6g}) "
                              "to survive the worst payoff")


class AccountTable:
    """Betting accounts on one grid, settled by one kernel.

    ``accounts`` holds G-point arrays for a single run (``rows`` None, as
    in ``RouterState``), or (R, G) arrays with one row per run, which is
    how ``simulation`` advances Monte Carlo replications in lockstep.
    Every row shares the config, so the grid, the bars and any fixed
    wager. The (R, G) arrays are transposed views of grid-major storage,
    so the live prefix of every row together is one contiguous block.
    ``sum_payoff`` and ``sum_payoff_sq`` are the two halves of one array,
    so one add settles both. ``settle`` writes the step's wagers into a
    spare buffer and swaps it with ``accounts.last_lambda`` once every
    row is known to survive, so a wager array read from ``accounts`` is
    only valid until the next step; copy it to keep it.
    """

    def __init__(self, config: RouterConfig, rows: int | None = None, *,
                 fixed_wager: float | None = None):
        """Fresh accounts at unit wealth.

        The config has passed ``validate_config`` in every caller:
        ``RouterState.fresh``, ``mc_safety`` and ``pinned_threshold_study``.
        ``fixed_wager`` replaces the adaptive wager with a constant (an
        ablation knob); it must leave every reachable payoff survivable.
        """
        check_fixed_wager(config, fixed_wager)
        self.epsilon, self.rho_min = config.epsilon, config.schedule.rho_min
        self.fixed_wager = fixed_wager
        self.cap = config.betting_cap
        self.mixture = config.selection_mode is SelectionMode.MIXTURE
        if self.mixture:
            self.log_bars: float | np.ndarray = -(math.log(config.alpha)
                                                  + np.log(config.prior.mass))
        else:
            self.log_bars = -math.log(config.alpha)
        n = config.grid.n
        shape = (n,) if rows is None else (n, rows)
        # Grid point n is a sentinel at -inf, below every bar, so every
        # search for a gap ends there at the latest.
        self._lw_ends = np.zeros((n + 1, *shape[1:]))
        self._lw_ends[n] = -np.inf
        self._lw = self._lw_ends[:n]
        self._lam, self._spare = np.zeros(shape), np.zeros(shape)
        self._sums = np.zeros((2, *shape))
        self._s1, self._s2 = self._sums
        self._work = np.empty(shape)
        if rows is None:
            # Per-step constants of the single-run path, made once: the
            # reversed sums for the prefix search and the (2, 1) payoff
            # columns [p, p * p] of each side of the split.
            self._s1_reversed = self._s1[::-1]
            self._high_column, self._low_column = np.empty((2, 2, 1))
        else:
            self._pay = np.empty(shape)
            self._positive = np.empty(shape, dtype=bool)
        self.accounts = ThresholdAccount(log_wealth=self._lw.T, sum_payoff=self._s1.T,
                                         sum_payoff_sq=self._s2.T,
                                         last_lambda=self._lam.T)
        # Grid points [0, extent) of a wager buffer may be nonzero: the live
        # prefix it was last written with, or n for a fixed wager.
        self._extent = 0
        self._spare_extent = 0
        # Each row's gap under the fixed-sequence rule: its first grid point
        # below the bar. Every account starts at log-wealth 0, below the
        # positive bar -log(alpha).
        self._gap = 0 if rows is None else np.zeros(rows, dtype=np.intp)
        if rows is not None:
            self._rows = np.arange(rows)

    def settle(self, k, low, rho_t: float) -> None:
        """Settle every account in place: epsilon on ``[0, k)``, ``low`` on ``[k, n)``.

        ``k`` and ``low`` are scalars for a single run and length-R
        sequences for a table, one split per row. Matches ``adaptive_lambda``
        at ``payoff_bound`` of the step's rate ``rho_t``, then ``update_account``,
        bit for bit, row by row. Under the live-prefix invariant (module
        docstring) the adaptive wager, the ``log1p`` and the wealth update
        run on ``[0, a)`` only, where ``a`` is the largest live prefix of
        any row; each row bets exactly 0 past its own prefix. Raises before
        any account changes.
        """
        high, m_t = self.epsilon, payoff_bound(self.epsilon, self.rho_min, rho_t)
        if self._lw.ndim == 1:
            self._settle_run(k, high, low, m_t)
        else:
            self._settle_rows(k, high, low, m_t)

    def _settle_run(self, k: int, high: float, low: float, m_t: float) -> None:
        """``settle`` for a single run, one numpy call per array job."""
        lam, work = self._spare, self._work
        n = lam.size
        if low == high:
            # One payoff on both sides of the split: settle it as one side.
            k = n
        if self.fixed_wager is None:
            top = self.cap / m_t
            # Accounts with sum_payoff <= 0 form a suffix of the grid.
            a = n - int(self._s1_reversed.searchsorted(0.0, "right"))
            growth, wagers = work[:a], lam[:a]
            np.add(self._s2[:a], 1.0, growth)
            np.divide(self._s1[:a], growth, growth)
            # The ratio is >= 0 on the live prefix, so clip(., 0, top) is a
            # minimum.
            np.minimum(growth, top, out=wagers)
            # The buffer last held the wagers of two steps ago; clear only
            # the points that were live then and are not now.
            if self._spare_extent > a:
                lam[a:self._spare_extent] = 0.0
        else:
            top, a = self.fixed_wager, n
            growth, wagers = work, lam
            lam.fill(top)

        if k < a:
            # No wager exceeds ``top``, so only a ``low`` that ruins ``top``
            # needs the largest wager it meets (module docstring).
            if low * top <= -1.0:
                worst = low * float(np.maximum.reduce(lam[k:a]))
                if worst <= -1.0:
                    raise WagerOutOfRange(f"wealth factor would drop to {1.0 + worst:.3g}")
            np.multiply(lam[:k], high, growth[:k])
            np.multiply(lam[k:a], low, growth[k:])
        else:
            np.multiply(wagers, high, growth)
        self._spare, self._lam = self._lam, lam
        self.accounts.last_lambda = lam
        self._spare_extent, self._extent = self._extent, a

        np.log1p(growth, growth)
        lw = self._lw[:a]
        np.add(lw, growth, lw)
        sums, high_column = self._sums, self._high_column
        high_column[0, 0], high_column[1, 0] = high, high * high
        if k < n:
            low_column = self._low_column
            low_column[0, 0], low_column[1, 0] = low, low * low
            head, tail = sums[:, :k], sums[:, k:]
            np.add(head, high_column, head)
            np.add(tail, low_column, tail)
        else:
            np.add(sums, high_column, sums)
        if not self.mixture:
            self._move_gap(k, low, a)

    def _move_gap(self, k: int, low: float, a: int) -> None:
        """Carry a single run's gap across the step just settled (module docstring)."""
        gap, lw, bar = self._gap, self._lw_ends, self.log_bars
        if low < 0.0 and k < a and k < gap:
            start = k
        elif lw.item(gap) < bar:
            return
        else:
            start = gap
        # Every point before ``start`` still clears the bar.
        self._gap = start + int((lw[start:] < bar).argmax())

    def _settle_rows(self, k, high: float, low, m_t: float) -> None:
        """``settle`` for an (R, G) table, through one payoff table."""
        s1, s2, lam, work = self._s1, self._s2, self._spare, self._work
        n = s1.shape[0]
        if self.fixed_wager is None:
            # The last positive entry in grid-major order ends the largest
            # prefix.
            positive = np.greater(s1, 0.0, out=self._positive).ravel()
            last = positive.size - 1 - int(positive[::-1].argmax())
            a = last // s1.shape[1] + 1 if positive[last] else 0
            live = work[:a]
            np.add(s2[:a], 1.0, out=live)
            np.divide(s1[:a], live, out=live)
            # Past a row's own prefix its ratio is <= 0, and its wager 0.
            np.maximum(live, 0.0, out=live)
            # The ratio is >= 0 now, so clip(., 0, cap) is a minimum.
            np.minimum(live, self.cap / m_t, out=lam[:a])
            if self._spare_extent > a:
                lam[a:self._spare_extent] = 0.0
        else:
            a = n
            lam.fill(self.fixed_wager)

        # One payoff table for all rows, so each array op is one call.
        # Only rows charged a loss differ from ``high`` anywhere.
        growth, pay = work[:a], self._pay
        pay.fill(high)
        # Rows whose charge may open a gap below their old one.
        gaps, charged, splits = self._gap.tolist(), [], []
        for r, (kr, lr) in enumerate(zip(k, low)):
            if lr != high:
                pay[kr:, r] = lr
                if lr < 0.0 and kr < a and kr < gaps[r]:
                    charged.append(r)
                    splits.append(kr)
        np.multiply(lam[:a], pay[:a], out=growth)
        if a:
            worst = float(np.minimum.reduce(growth, axis=None))
            if worst <= -1.0:
                raise WagerOutOfRange(f"wealth factor would drop to {1.0 + worst:.3g}")
        self._spare, self._lam = self._lam, lam
        self.accounts.last_lambda = lam.T
        self._spare_extent, self._extent = self._extent, a

        np.log1p(growth, out=growth)
        self._lw[:a] += growth
        s1 += pay
        np.multiply(pay, pay, out=pay)
        s2 += pay
        if not self.mixture:
            self._move_gaps(charged, splits)

    def _move_gaps(self, charged: list[int], splits: list[int]) -> None:
        """Carry every row's gap across the step just settled (module docstring).

        ``charged`` lists the rows whose charge may have opened a gap below
        their old one, and ``splits`` their splits.
        """
        gap, lw, bar = self._gap, self._lw_ends, self.log_bars
        moved = lw[gap, self._rows] >= bar
        if charged:
            moved[charged] = True
        scan = moved.nonzero()[0]
        if scan.size:
            # Every point before a moved row's old gap, or before its split,
            # still clears the bar, so a scan from the smallest of them finds
            # each moved row's new gap.
            first = min([*splits, int(gap[scan].min())])
            gap[scan] = (lw[first:, scan] < bar).argmax(axis=0) + first

    def select(self):
        """Deployed grid index under the config's selection rule, per row.

        Fixed-sequence deploys the point before each row's gap, or 0 when
        the gap is at 0; mixture scans the whole grid.
        """
        lw = self._lw
        if lw.ndim == 1:
            if self.mixture:
                return _mixture_index(lw, self.log_bars)
            return max(self._gap - 1, 0)
        if self.mixture:
            return _mixture_rows(lw, self.log_bars)
        return np.maximum(self._gap - 1, 0)


@dataclass
class RouterState:
    """Mutable run state. Single writer: steps are strictly sequential.

    ``table`` holds a single run's accounts, which ``step`` settles in
    place; see ``AccountTable`` for how long an array read from them stays
    valid.
    """

    config: RouterConfig
    table: AccountTable = field(repr=False)
    rng: np.random.Generator
    t: int = 0
    deployed_index: int = 0

    @classmethod
    def fresh(cls, config: RouterConfig, *, rng=None,
              fixed_wager: float | None = None) -> "RouterState":
        """Start a run at step 0 with unit wealth everywhere.

        Raises ``ConfigError`` for a config that fails ``validate_config``.
        ``rng`` seeds the routing coins as in ``coin_generator``;
        ``fixed_wager`` is checked and applied as in ``AccountTable``.
        """
        validate_config(config)
        return cls(config=config, rng=coin_generator(config, rng),
                   table=AccountTable(config, fixed_wager=fixed_wager))

    @property
    def accounts(self) -> ThresholdAccount:
        return self.table.accounts

    @property
    def deployed_threshold(self) -> float:
        return float(self.config.grid.values[self.deployed_index])


def route(obs: StreamObservation, threshold_used: float, rho_t: float,
          rng: np.random.Generator, gate: LossGate,
          config: RouterConfig) -> tuple[float, int, float | None, int, float]:
    """Route one query against ``threshold_used`` and price its payoff split.

    Flips exactly one coin from ``rng`` and reads the loss through
    ``gate`` only if the coin escalated. Returns the propensity, the
    coin, the observed loss (None when cheap), and the split ``k, low``:
    candidates ``grid[k:]`` are paid ``low`` and the rest epsilon. Raises
    ``InvalidObservation`` on a non-finite score before the coin and on
    an observed loss outside [0, 1] before the estimate.
    """
    if not math.isfinite(obs.uncertainty):
        raise InvalidObservation(
            f"uncertainty score {obs.uncertainty!r} {_at(obs.index)} is not finite")
    pi = propensity(obs.uncertainty, threshold_used, rho_t)
    # One draw per step no matter the branch, so trajectories with the
    # same seed stay aligned across configs. pi == 1 escalates surely
    # because random() < 1 always holds.
    if rng.random() >= pi:
        return pi, 0, None, config.grid.n, config.epsilon
    observed = gate.observe(obs, 1)
    low = _escalation_low(observed, pi, rho_t, config, obs.index)
    return pi, 1, observed, bisect_right(config.grid.grid_list, obs.uncertainty), low


def route_lanes(t: int, scores: list[float], draws: list[float], splits: list[int],
                thresholds: list[float], rho_t: float, gates: list[LossGate],
                config: RouterConfig) -> tuple[list[int], list[int], list[float]]:
    """``route`` for R lanes at step ``t``, on numbers drawn ahead of time.

    Lane r routes ``scores[r]`` against ``thresholds[r]``. ``draws[r]`` is
    the ``random()`` its coin generator gives at this step, ``splits[r]``
    is ``searchsorted(grid, scores[r], "right")``, and ``gates[r]`` holds
    its latent loss for step ``t``, read only if the lane escalated.
    Returns each lane's coin and its split ``k, low`` as in ``route``,
    bit for bit, and makes ``route``'s checks; a failed check names the
    lane and the step.
    """
    lanes = len(scores)
    coins, k, low = [0] * lanes, [config.grid.n] * lanes, [config.epsilon] * lanes
    for lane, (score, draw, used) in enumerate(zip(scores, draws, thresholds)):
        if not math.isfinite(score):
            raise InvalidObservation(
                f"uncertainty score {score!r} {_at(t, lane)} is not finite")
        pi = propensity(score, used, rho_t)
        if draw >= pi:
            continue
        observed = gates[lane].reveal(t, 1)
        coins[lane], k[lane], low[lane] = 1, splits[lane], _escalation_low(
            observed, pi, rho_t, config, t, lane)
    return coins, k, low


def step(state: RouterState, obs: StreamObservation,
         gate: LossGate) -> tuple[Decision, RouterState]:
    """Advance the router by one query; returns the decision and the state.

    Order matters and is fixed: route against the threshold certified
    after the previous step, flip exactly one coin, read the loss through
    the gate only if the coin escalated, settle every account with wagers
    computed from pre-step sums, then certify the next threshold. The
    state is mutated in place and returned for convenience.

    Settlement is one ``AccountTable.settle`` call: an escalated step
    charges ``grid[k:]``, with ``k = bisect_right(grid, score)``, and pays
    the rest epsilon.

    A score must be finite; any finite score is accepted. Above 1 it sits
    at or above every candidate, so the query always escalates and every
    account is paid epsilon. Below 0 it sits under every candidate, so the
    query explores at the current rate and an observed loss charges every
    account. A non-finite score raises ``InvalidObservation`` before any
    coin is drawn or loss read; an observed loss outside [0, 1] raises it
    after the gate and before any account is settled.
    """
    t = state.t + 1
    if obs.index != t:
        raise OutOfOrderObservation(
            f"expected observation index {t}, got {obs.index}")
    cfg = state.config
    rho_t = rho_at(cfg.schedule, t)
    threshold_used = cfg.grid.grid_list[state.deployed_index]
    pi, coin, observed, k, low = route(obs, threshold_used, rho_t, state.rng, gate, cfg)
    state.table.settle(k, low, rho_t)
    state.deployed_index = state.table.select()
    state.t = t
    return Decision(pi, coin, observed, threshold_used), state
