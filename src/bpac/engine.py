"""Sequential betting engine that routes queries and certifies thresholds.

One betting account runs per candidate threshold. Each step the router
deploys the last certified threshold, flips a routing coin, and settles
every account against an importance-weighted payoff built from the one
loss it was allowed to observe. Wealth is tracked in the log domain only;
an account whose wealth clears the confidence bar is evidence that its
threshold keeps the deployed risk under the budget, and the selection
rules read the next deployed threshold off the wealth table.

``AccountTable.settle(charges, rho_t)`` is the one settlement kernel,
with epsilon and ``payoff_bound`` read off its config and the wager cap
kept for the rate in force: one fused in-place pass that touches only
live accounts, over a single run's grid (what ``step`` settles) or over R
runs' grids at once (``mc_safety``'s lockstep lanes, and
``pinned_threshold_study`` on a one-point grid).
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

Capped prefix. On a single run, the live accounts that bet exactly the top
wager ``top = cap / m_t`` form a leading block ``[0, c)``. Their wagers are
not computed, and their log-wealth is settled with one scalar add per side
of the split. The proof: every step adds epsilon squared to
``sum_payoff_sq`` before its split and ``low * low`` past it. While no
charge with a split inside the grid has had ``low * low`` below epsilon
squared, which only a fractional loss gives (``-epsilon < low <
epsilon``), ``sum_payoff_sq`` starts at 0 and never decreases along the
grid, rounding being monotone. On the live prefix ``sum_payoff`` is
positive and never increases, and a rounded quotient of positive numbers
never increases when its numerator falls or its denominator grows, so the
ratio ``sum_payoff / (sum_payoff_sq + 1)`` never increases along it
either. Past ``a`` the ratio is at most 0 <
``top``. So ``{ratio >= top}`` is the block ``[0, c)`` with ``c <= a``.
Each account in it grows by ``log1p(top * epsilon)`` before the split and
by ``log1p(top * low)`` past it; the first is taken once per rate, the
second only when the split falls inside the block, both by numpy on a
one-point array, which gives the bits of its array loop.
``c`` is carried from step to step: it stands while the ratio just before
it still reaches ``top`` and the ratio at it does not, both computed in
Python floats, which add and divide as numpy does; otherwise the side of
``c`` that check rules in is bisected. The first fractional charge turns
the flag ``_capping`` off, and the run settles every live account by
array passes from then on. The block is looked for only while the live
prefix has at least ``CAPPED_WIDTH`` points; below that, the check and
the extra views cost more than the passes they save. A fixed wager is
this block over the whole grid, with no check and no flag.

The single-run path takes two more shortcuts, each exact:

- Its live prefix ``a`` is carried from step to step. Since
  ``sum_payoff`` never increases along the grid, ``a`` stands while the
  sum just before it stays above 0 and the sum at it stays at most 0;
  only when one of those two changed sign is the grid searched again.
- A step whose payoff is the same on both sides of the split (a cheap
  step, or an escalation that observed loss 0) settles as ``k = n``.

One wager buffer. ``settle`` checks for ruin before it writes a wager,
then overwrites a table's one wager buffer in place. Every wager is at most
``top``, and rounding a product by a fixed negative scalar is monotone, so
only a charge with ``low * top <= -1`` is checked, against the largest
wager past its split: ``top`` in a capped prefix or under a fixed wager,
else ``min(top, largest ratio)``, read off the ratio. A single run computes
the ratio and ``min(ratio, top)`` on ``[c, a)`` only, and its buffer keeps
``top`` on ``[0, c)``: ``top_end`` marks the end of the buffer's run of the
current ``top``. When ``c`` moves back, the points from ``c`` on take
their wagers below ``top``, and ``top_end`` moves back to ``c``; when the
block grows past ``top_end``, ``top`` is written on ``[top_end, c)``, once
(a fixed wager's whole grid on its first step). A two-stage schedule's
rate change moves ``top`` itself, so the buffer holds the new one nowhere
and ``top_end`` restarts at 0; without that, points of the old block would
keep the old rate's wager.

Array operands. Every ufunc call of the settle kernels takes its scalar
operand as a 0-d float64 array, not a Python float, which numpy converts
to an array on every call. On numpy 2.4.6 (shared 2-core x86 box, best of
21 interleaved timeit rounds) a Python-float operand cost 0.17-0.19 us
more per call of ``add``, ``multiply``, ``minimum`` or ``maximum`` on 40
and 400 points: at 400 points ``add`` took 633 against 448 ns,
``minimum`` 701 against 527 and ``multiply`` 611 against 435. At 4000
points the saving was still 0.12-0.20 us. A Python float is a float64,
so either operand selects the same float64 loop with the same value, and
the bits agree. The table builds 1, 0, epsilon and epsilon squared once;
it keeps the top wager and ``log1p(top * epsilon)`` per rate; and a
single run writes its ``low`` and ``low * low`` into two 0-d buffers on
each step whose ``low`` is not epsilon. Where Python itself compares the
values (the ruin guard, the capped-prefix check, the fill of the top
wager) they stay Python floats.

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

So ``select`` costs O(1) for fixed-sequence.

Held extent bound. A table of R rows (the lockstep lanes) does not search
for its live prefix every step. Every ``EXTENT_HOLD`` = M steps it finds
A, the first grid point where every row has ``sum_payoff <= -M * epsilon``,
and it settles the block ``[0, A)`` for the next M steps (under a fixed
wager every account bets, and A is n). This is exact.
No payoff exceeds epsilon: ``_escalation_low`` refuses a negative estimate,
and a table's ``settle`` refuses a ``low`` above epsilon. So within M
steps every sum at or past A stays below 0, rounding included (its drift
over M additions is about M * M * epsilon * 2**-53, far below epsilon),
its wager stays exactly +0.0, and the live-prefix argument above applies.
The same bound carries selection: a row's gap at or past A cannot move,
so only gaps below A are read. Mixture selection, of a table or of a
single run, scans the whole grid when asked.

``route_lanes`` routes R lanes of a Monte Carlo study (``mc_safety``) on
numbers drawn ahead of time, a chunk of steps at once, and is exact too.
numpy's ``Generator.random(m)`` returns the same doubles as m calls of
``random()``, so a lane's coin draws for a chunk are one call, and a
stream segment that draws a score and a loss coin per event, and nothing
else, is one ``random(2 * m)`` call. Each lane routes against the grid
point its row deployed and splits the grid with ``bisect_right``, as
``route`` does, so the routing rules are written here and only here.
It hands back only the lanes that escalated and the sparse charges
``(lane, k, low)`` of those whose ``low`` is not epsilon, which is what a
table's ``settle`` takes: every lane it does not list is paid epsilon
everywhere, so past the coin flips a step costs Python work per
escalation, not per lane.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import (RouterConfig, SelectionMode, StreamObservation, rate_pieces,
                   slot_setters, validate_config)


# Steps a table of rows holds one extent bound for (module docstring).
# mc_safety at G=1001, T=2000 (shared 2-core x86 box, sizes interleaved)
# took 8.3/8.6/8.3/8.7/9.2 us per replication-step best at 4/8/16/32/64
# steps and 5 lanes, 8.9/8.0/7.1/7.4/7.7 at 25 lanes, and 16.3-16.7 at every
# size for mixture under the weighted criterion at 25 lanes: a longer hold
# searches less often but settles a wider block.
EXTENT_HOLD = 16

# Live-prefix width from which a single run looks for its capped prefix
# (module docstring). settle + select on 4000 recorded easy_hard steps,
# default config (shared 2-core x86 box, CPU time, best of 5 alternating
# rounds of best-of-9), with the block looked for at every width / never,
# now that it skips both the wager and the log-wealth passes: G=1001 (live
# prefix about 415) 6.83 / 6.28 us, G=2001 (about 830) 7.65 / 8.13, G=3001
# (about 1240) 8.33 / 10.05, G=5001 (about 2070) 10.11 / 13.84; a second
# run read G=1501 (about 620) 7.33 / 8.00. The two break even between
# about 415 and 620 points, down from about 1300 when only the log-wealth
# was skipped. The gate stays above the default grid's 1001 points, where
# the two-point check, the extra views and the scalar adds still cost more
# than the passes they save.
CAPPED_WIDTH = 1024


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

    Raised when the engine asks the gate with coin 0, for a step no later
    than the last one it opened or for a step outside the chunk it holds,
    and when a gate's count of accesses disagrees with the routing record.
    """


@dataclass(frozen=True, slots=True, init=False)
class Decision:
    """What the router did on one step, before any account settlement."""

    propensity: float
    coin: int
    observed_loss: float | None
    threshold_used: float

    def __init__(self, propensity: float, coin: int, observed_loss: float | None,
                 threshold_used: float) -> None:
        set_propensity, set_coin, set_loss, set_threshold = _DECISION_SLOTS
        set_propensity(self, propensity)
        set_coin(self, coin)
        set_loss(self, observed_loss)
        set_threshold(self, threshold_used)


_DECISION_SLOTS = slot_setters(Decision)


@dataclass
class ThresholdAccount:
    """Reference betting state for ``adaptive_lambda`` and ``update_account``.

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
        """``observe`` for held step ``t``; a step outside the held chunk is
        refused before the gate counts an access."""
        i = t - self._first
        if not 0 <= i < len(self._held):
            raise LossGateViolation(f"loss requested at step {t} outside the held steps "
                                    f"{self._first} to {self._first + len(self._held) - 1}")
        self._open(t, coin)
        return self._held[i]

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


def _mixture_rows(log_wealth: np.ndarray, log_bars: np.ndarray) -> np.ndarray:
    """Per column of a (G, R) wealth table, the last index clearing its own bar; 0 if none."""
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

    ``log_wealth``, ``sum_payoff``, ``sum_payoff_sq`` and ``last_lambda``
    are G-point arrays for a single run (``rows`` None, as in
    ``RouterState``), or (R, G) arrays with one row per run, which is how
    ``simulation`` advances Monte Carlo replications in lockstep. Every
    row shares the config, so the grid, the bars and any fixed wager. The
    (R, G) arrays are transposed views of grid-major storage, so the live
    prefix of every row together is one contiguous block.
    ``last_lambda`` is one view of the table's one wager buffer, bound
    once, which each ``settle`` overwrites in place; copy it to keep it.
    """

    def __init__(self, config: RouterConfig, rows: int | None = None, *,
                 fixed_wager: float | None = None):
        """Fresh accounts at unit wealth.

        The config has passed ``validate_config``, and ``fixed_wager``
        ``check_fixed_wager``, in every caller: ``RouterState.fresh``,
        ``mc_safety`` and ``pinned_threshold_study``. ``fixed_wager``
        replaces the adaptive wager with a constant (an ablation knob).
        """
        self.epsilon, self.rho_min = config.epsilon, config.schedule.rho_min
        self.fixed_wager = fixed_wager
        self.cap = config.betting_cap
        # 0-d float64 operands for the settle kernels' ufunc calls (module
        # docstring): 1, 0, epsilon and epsilon squared; a one-point buffer
        # to take a log1p in, and a 0-d view of it; and a single run's low
        # and low * low, written on each step whose low is not epsilon.
        self._one, self._zero = np.array(1.0), np.array(0.0)
        self._high, self._high_sq = np.array(self.epsilon), np.array(self.epsilon * self.epsilon)
        self._point = np.empty(1)
        self._point_0d = self._point.reshape(())
        self._low, self._low_sq = np.empty(()), np.empty(())
        # The largest wager, for the rate ``settle`` last met: cap / m_t, or
        # the fixed wager (``_set_top``); and a single run's wager buffer
        # holds it on [0, top_end).
        self._rate = self._top = None
        self._top_end = 0
        if fixed_wager is not None:
            self._set_top(fixed_wager)
        self.mixture = config.selection_mode is SelectionMode.MIXTURE
        # The bar 1 / alpha, divided by each point's prior mass under mixture.
        self.log_bars = -(math.log(config.alpha)
                          + (np.log(config.prior.mass) if self.mixture else 0.0))
        n = self._n = config.grid.n
        shape = (n,) if rows is None else (n, rows)
        # Grid point n is a sentinel at -inf, below every bar, so every
        # search for a gap ends there at the latest.
        self._lw_ends = np.zeros((n + 1, *shape[1:]))
        self._lw_ends[n] = -np.inf
        self._lw = self._lw_ends[:n]
        self._lam = np.zeros(shape)
        self._s1, self._s2 = np.zeros((2, *shape))
        self._work = np.empty(shape)
        # Chosen once per table: the settle kernel, and the (G, columns)
        # wealth table that mixture selection scans.
        self._rows = rows
        if rows is None:
            self._kernel = AccountTable._settle_run
            self._lw_columns = self._lw[:, None]
            # The reversed sums, for the prefix search.
            self._s1_reversed = self._s1[::-1]
            # The capped prefix: whether it still holds, and where it was
            # last found.
            self._capping, self._capped = True, 0
            self._cut(0, 0)
        else:
            self._kernel = AccountTable._settle_rows
            self._lw_columns = self._lw
            self._pay = np.empty(shape)
            self._positive = np.empty(shape, dtype=bool)
            # The held extent bound and the steps it still holds for, and
            # the sum it is found against.
            self._bound = self._held = 0
            self._hold_floor = np.array(-EXTENT_HOLD * self.epsilon)
        self.log_wealth, self.sum_payoff = self._lw.T, self._s1.T
        self.sum_payoff_sq, self.last_lambda = self._s2.T, self._lam.T
        # Grid points [0, extent) of the wager buffer may be nonzero: the live
        # prefix, or the held bound, it was last written with, or n for a
        # fixed wager.
        self._extent = 0
        # Each row's gap under the fixed-sequence rule, its first grid point
        # below the bar, and the index it deploys, both carried from step to
        # step. Every account starts at log-wealth 0, below the positive bar
        # -log(alpha).
        self._gap = 0 if rows is None else [0] * rows
        self._deployed = 0 if rows is None else [0] * rows

    def _cut(self, c: int, a: int) -> None:
        """Cut a single run's views of ``[c, a)``, the live prefix past its
        capped prefix, where wagers are computed and log-wealth moves by
        array passes; ``_settle_run`` reuses them while both ends stay put."""
        self._cut_c = c
        if c < self._top_end:
            # From c on the buffer is about to take wagers below the top.
            self._top_end = c
        self._ratio, self._s1_c, self._s2_c = self._work[c:a], self._s1[c:a], self._s2[c:a]
        self._lam_c, self._lw_c = self._lam[c:a], self._lw[c:a]

    @property
    def extent(self) -> int:
        """Where the last step's live block ends: past it every wager was +0.0
        and no log-wealth moved."""
        return self._extent

    def settle(self, charges, rho_t: float) -> None:
        """Settle every account in place on one step's charges.

        A single run's ``charges`` are its split ``(k, low)``: epsilon on
        ``[0, k)``, ``low`` on ``[k, n)``. A table's are a list of
        ``(row, k, low)``, as ``route_lanes`` returns them, at most one per
        row; a row that is not listed is paid epsilon everywhere. Matches
        ``adaptive_lambda`` at ``payoff_bound`` of the step's rate
        ``rho_t``, then ``update_account``, bit for bit, row by row. Under
        the live-prefix invariant (module docstring) the adaptive wager, the
        ``log1p`` and the wealth update run on ``[0, a)`` only, where ``a``
        is a single run's live prefix or a table's held extent bound; each
        row bets exactly 0 past its own prefix. A single run skips the
        array passes over its capped prefix, where every wager is the top:
        its buffer keeps the top there, and its log-wealth moves by scalar
        adds. A table refuses a ``low`` above epsilon. The ruin guard
        reads the ratio, and raises before any account or wager changes.
        """
        if rho_t != self._rate and self.fixed_wager is None:
            # The wager cap cap / m_t moves only with the rate, which a
            # two-stage schedule changes once.
            self._rate = rho_t
            self._set_top(self.cap / payoff_bound(self.epsilon, self.rho_min, rho_t))
        self._kernel(self, charges)

    def _set_top(self, top: float) -> None:
        """Keep the top wager as a Python float, for the checks Python makes,
        and it and ``log1p(top * epsilon)`` as 0-d operands. A single run's
        wager buffer holds the new top nowhere yet."""
        self._top, self._top_0d = top, np.array(top)
        self._log_high = self._log1p(top * self.epsilon).copy()
        self._top_end = 0

    def _live_prefix(self, a: int) -> int:
        """A single run's live prefix, the first grid point with
        ``sum_payoff <= 0``, carried from ``a``, the last step's (module
        docstring)."""
        s1, n = self._s1, self._n
        if (a == n or s1.item(a) <= 0.0) and (a == 0 or s1.item(a - 1) > 0.0):
            return a
        return n - int(self._s1_reversed.searchsorted(0.0, "right"))

    def _capped_prefix(self, a: int) -> int:
        """A single run's capped prefix, the first grid point of ``[0, a)``
        whose ratio ``sum_payoff / (sum_payoff_sq + 1)`` is below the top
        wager, or ``a``: the last step's, if the ratio just before it still
        reaches the top and the ratio at it does not, else a bisection of
        the side that check rules in (module docstring). Python floats add
        and divide as numpy's ``add`` and ``divide`` do."""
        s1, s2, top = self._s1, self._s2, self._top
        c = lo = hi = min(self._capped, a)
        if c and s1.item(c - 1) / (s2.item(c - 1) + 1.0) < top:
            lo, hi = 0, c - 1
        elif c < a and s1.item(c) / (s2.item(c) + 1.0) >= top:
            lo, hi = c + 1, a
        while lo < hi:
            mid = (lo + hi) // 2
            if s1.item(mid) / (s2.item(mid) + 1.0) >= top:
                lo = mid + 1
            else:
                hi = mid
        self._capped = lo
        return lo

    def _log1p(self, x: float) -> np.ndarray:
        """``log1p(x)`` from numpy's array loop, on a one-point array; returns
        a 0-d view of that array, which the next call overwrites."""
        point = self._point
        point[0] = x
        np.log1p(point, point)
        return self._point_0d

    def _settle_run(self, charges: tuple[int, float]) -> None:
        """``settle`` for a single run: one numpy call per array job past its
        capped prefix ``[0, c)``, and in it the top wager kept in the buffer
        and one scalar add per side of the split for the log-wealth (module
        docstring)."""
        k, low = charges
        lam, n, extent = self._lam, self._n, self._extent
        high, top = self._high, self._top
        if low == self.epsilon:
            # One payoff on both sides of the split: settle it as one side.
            k = n
        else:
            self._low[()], self._low_sq[()] = low, low * low
        if self.fixed_wager is None:
            a = self._live_prefix(extent)
            c = self._capped_prefix(a) if a >= CAPPED_WIDTH and self._capping else 0
            if a != extent or c != self._cut_c:
                self._cut(c, a)
            # The ratio on [c, a) only: in the capped prefix every wager is
            # the top.
            ratio = self._ratio
            np.add(self._s2_c, self._one, ratio)
            np.divide(self._s1_c, ratio, ratio)
        else:
            # Every account bets the fixed wager: the whole grid is capped.
            a = c = n

        # Only a ``low`` that ruins ``top`` needs the largest wager it meets,
        # read off the ratio (module docstring).
        if k < a and low * top <= -1.0:
            worst = low * (top if k < c else min(top, float(np.maximum.reduce(ratio[k - c:]))))
            if worst <= -1.0:
                raise WagerOutOfRange(f"wealth factor would drop to {1.0 + worst:.3g}")
        if self.fixed_wager is None:
            # The ratio is >= 0 on the live prefix, so clip(., 0, top) is a
            # minimum. Clear only the points that were live last step and
            # are not now.
            np.minimum(ratio, self._top_0d, out=self._lam_c)
            if extent > a:
                lam[a:extent] = 0.0
        self._extent = a

        if c < a:
            # The growth past the capped prefix, in the ratio's buffer:
            # epsilon up to the split and low on.
            growth = ratio
            if k < a:
                j = k if k > c else c
                np.multiply(lam[c:j], high, growth[:j - c])
                np.multiply(lam[j:a], self._low, growth[j - c:])
            else:
                np.multiply(self._lam_c, high, growth)
            np.log1p(growth, growth)
            np.add(self._lw_c, growth, self._lw_c)
        if c:
            if c > self._top_end:
                # The buffer holds the top on [0, top_end) already; write it
                # only where the capped prefix, or a fixed wager's grid, grew
                # past that.
                lam[self._top_end:c] = top
                self._top_end = c
            lw, j = self._lw, min(k, c)
            if j:
                head = lw[:j]
                np.add(head, self._log_high, head)
            if j < c:
                tail = lw[j:c]
                np.add(tail, self._log1p(top * low), tail)
        s1, s2 = self._s1, self._s2
        if k < n:
            head, tail = s1[:k], s1[k:]
            np.add(head, high, head)
            np.add(tail, self._low, tail)
            head, tail = s2[:k], s2[k:]
            np.add(head, self._high_sq, head)
            np.add(tail, self._low_sq, tail)
            if k and low > -self.epsilon:
                # From here on sum_payoff_sq may dip along the grid.
                self._capping = False
        else:
            np.add(s1, high, s1)
            np.add(s2, self._high_sq, s2)
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
        self._gap = gap = start + int((lw[start:] < bar).argmax())
        self._deployed = max(gap - 1, 0)

    def _settle_rows(self, charges: list[tuple[int, int, float]]) -> None:
        """``settle`` for an (R, G) table, on the block ``[0, a)`` its held
        extent bound leaves live (module docstring).

        Refuses a ``low`` above epsilon, which no estimate gives: the held
        bound is exact only because no payoff exceeds epsilon.
        """
        # One payoff table for all rows, so each array op is one call, and
        # the sums take it whole. Its obvious mends measured slower at
        # G=1001 (shared 2-core x86 box, three rounds, per settle at R=5 with
        # one charged row / R=25 with five): this table 11.4 / 43.2 us; one
        # broadcast add of [eps, eps**2] onto a (2, G, R) sums array, plus
        # saved tails for the charged rows, 13.7 / 48.8 us; two scalar adds
        # plus patched tails 13.3 / 49.7 us. np.clip in place of the wager's
        # maximum and minimum took 6.4 against 5.6 us, and writes -0.0 where
        # they write +0.0. Squaring into a second buffer so that one add
        # settles both sums was slower as well: 27.4 against 26.5 us per
        # settle and select at R=5, and 110 against 94 at R=25, replaying
        # one recorded mc_safety block (best of 15 and 8 interleaved rounds).
        high, top = self.epsilon, self._top
        pay = self._pay
        pay.fill(high)
        lowest = high
        for r, kr, lr in charges:
            if not lr <= high:
                raise ValueError(f"payoff {lr!r} of row {r} is above epsilon {high}")
            pay[kr:, r] = lr
            if lr < lowest:
                lowest = lr

        lam, work, extent = self._lam, self._work, self._extent
        if self.fixed_wager is None:
            if not self._held:
                self._bound, self._held = self._hold_extent(), EXTENT_HOLD
            self._held -= 1
            a = self._bound
            live = work[:a]
            np.add(self._s2[:a], self._one, out=live)
            np.divide(self._s1[:a], live, out=live)
            # Past a row's own prefix its ratio is <= 0, and its wager 0.
            np.maximum(live, self._zero, out=live)
        else:
            a, live = self._n, None

        # Only a row charged a ``low`` that ruins ``top`` needs the largest
        # wager it meets, read off the ratio (module docstring).
        if lowest * top <= -1.0:
            worst = min((lr * (top if live is None else min(top, float(live[kr:, r].max())))
                         for r, kr, lr in charges if kr < a), default=0.0)
            if worst <= -1.0:
                raise WagerOutOfRange(f"wealth factor would drop to {1.0 + worst:.3g}")
        wagers = lam[:a]
        if live is not None:
            # The ratio is >= 0 now, so clip(., 0, cap) is a minimum.
            np.minimum(live, self._top_0d, out=wagers)
            if extent > a:
                lam[a:extent] = 0.0
        elif extent < a:
            lam.fill(top)
        self._extent = a

        growth = work[:a]
        np.multiply(wagers, pay[:a], out=growth)
        np.log1p(growth, out=growth)
        lw = self._lw[:a]
        np.add(lw, growth, out=lw)
        s1, s2 = self._s1, self._s2
        np.add(s1, pay, out=s1)
        np.multiply(pay, pay, out=pay)
        np.add(s2, pay, out=s2)
        if not self.mixture:
            self._move_gaps(charges, a)

    def _hold_extent(self) -> int:
        """The extent bound to hold for the next ``EXTENT_HOLD`` steps: one
        past the last grid point where some row's ``sum_payoff`` is above
        ``-EXTENT_HOLD * epsilon`` (module docstring)."""
        s1 = self._s1
        above = np.greater(s1, self._hold_floor, out=self._positive).ravel()
        last = above.size - 1 - int(above[::-1].argmax())
        return last // s1.shape[1] + 1 if above[last] else 0

    def _move_gaps(self, charges: list[tuple[int, int, float]], a: int) -> None:
        """Carry every row's gap across the step just settled (module docstring).

        ``charges`` are the step's ``(row, k, low)``, and ``[0, a)`` is the
        block it settled. The carried deployed indices are replaced, by a
        new list, only when some gap moved.
        """
        gaps, lw, bar = self._gap, self._lw_ends, self.log_bars
        # Only a charge below 0 can open a gap below the old one.
        starts = {r: kr for r, kr, lr in charges if lr < 0.0 and kr < a and kr < gaps[r]}
        for r, gap in enumerate(gaps):
            # A gap at or past ``a`` did not move, and is still below the bar.
            if gap < a and r not in starts and lw.item(gap, r) >= bar:
                starts[r] = gap
        # Every point before a row's old gap, or before its split, still
        # clears the bar, so a scan of the row's own column from there finds
        # its new gap. This took 2.2-3.5 / 7.8-14.8 us per step at R=5 / 25
        # (G=1001, T=2000, shared 2-core x86 box) where one scan of every
        # listed row from the smallest start, a copy of each grid point up
        # to the sentinel, took 2.4-3.8 / 8.8-17.5; a 16-point window first
        # and a vectorised check of the loop above were no faster at R=5.
        moved = False
        for r, start in starts.items():
            gap = start + int((lw[start:, r] < bar).argmax())
            if gap != gaps[r]:
                gaps[r], moved = gap, True
        if moved:
            self._deployed = [max(gap - 1, 0) for gap in gaps]

    def select(self):
        """Deployed grid index under the config's selection rule, per row.

        Fixed-sequence deploys the point before each row's gap, or 0 when
        the gap is at 0; a table carries each row's index, a list that a
        later step replaces only when some row's gap moved, and never
        changes. Mixture deploys the last point clearing its bar, or 0, from
        a scan of the whole grid, a single run's as a one-column table.
        """
        if not self.mixture:
            return self._deployed
        deployed = _mixture_rows(self._lw_columns, self.log_bars).tolist()
        return deployed[0] if self._rows is None else deployed


@dataclass
class RouterState:
    """Mutable run state. Single writer: steps are strictly sequential.

    ``table`` holds a single run's accounts, which ``step`` settles in
    place; see ``AccountTable`` for how long an array read from them stays
    valid. ``step`` carries the exploration rate of the current
    ``rate_pieces`` piece of the schedule and the step that ends it, so it
    reads the schedule once per piece.
    """

    config: RouterConfig
    table: AccountTable = field(repr=False)
    rng: np.random.Generator
    t: int = 0
    deployed_index: int = 0
    _rate: float = field(default=math.nan, init=False, repr=False, compare=False)
    _rate_end: float = field(default=0, init=False, repr=False, compare=False)

    @classmethod
    def fresh(cls, config: RouterConfig, *, rng=None,
              fixed_wager: float | None = None) -> "RouterState":
        """Start a run at step 0 with unit wealth everywhere.

        Raises ``ConfigError`` for a config that fails ``validate_config``,
        and ``WagerOutOfRange`` for a ``fixed_wager`` that fails
        ``check_fixed_wager``; ``rng`` seeds the routing coins as in
        ``coin_generator``.
        """
        validate_config(config)
        check_fixed_wager(config, fixed_wager)
        return cls(config=config, rng=coin_generator(config, rng),
                   table=AccountTable(config, fixed_wager=fixed_wager))

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


def route_lanes(t: int, scores: list[float], draws: list[float], deployed: list[int],
                rho_t: float, gates: list[LossGate],
                config: RouterConfig) -> tuple[list[int], list[tuple[int, int, float]]]:
    """``route`` for R lanes at step ``t``, on numbers drawn ahead of time.

    Lane r routes ``scores[r]`` against its deployed grid point
    ``deployed[r]``. ``draws[r]`` is the ``random()`` its coin generator
    gives at this step, and ``gates[r]`` holds its latent loss for step
    ``t``, read only if the lane escalated. Returns the lanes that
    escalated, in order, and the charges ``(lane, k, low)`` of those
    whose ``low`` is not epsilon, with the split ``k, low`` as in
    ``route``, bit for bit; every other lane is paid epsilon everywhere.
    Makes ``route``'s checks; a failed check names the lane and the step.
    """
    grid, epsilon = config.grid.grid_list, config.epsilon
    escalated, charges = [], []
    for lane, (score, draw, index) in enumerate(zip(scores, draws, deployed)):
        if not math.isfinite(score):
            raise InvalidObservation(
                f"uncertainty score {score!r} {_at(t, lane)} is not finite")
        pi = propensity(score, grid[index], rho_t)
        if draw >= pi:
            continue
        observed = gates[lane].reveal(t, 1)
        escalated.append(lane)
        low = _escalation_low(observed, pi, rho_t, config, t, lane)
        if low != epsilon:
            charges.append((lane, bisect_right(grid, score), low))
    return escalated, charges


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
    if t >= state._rate_end:
        _, state._rate_end, state._rate = next(rate_pieces(cfg.schedule, t, math.inf))
    rho_t = state._rate
    threshold_used = cfg.grid.grid_list[state.deployed_index]
    pi, coin, observed, k, low = route(obs, threshold_used, rho_t, state.rng, gate, cfg)
    table = state.table
    table.settle((k, low), rho_t)
    state.deployed_index = table.select()
    state.t = t
    return Decision(pi, coin, observed, threshold_used), state
