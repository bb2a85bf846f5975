"""Sequential betting engine that routes queries and certifies thresholds.

One betting account runs per candidate threshold. Each step the router
deploys the last certified threshold, flips a routing coin, and settles
every account against an importance-weighted payoff built from the one
loss it was allowed to observe. Wealth is tracked in the log domain only;
an account whose wealth clears the confidence bar is evidence that its
threshold keeps the deployed risk under the budget, and the selection
rules read the next deployed threshold off the wealth table.

``ips_payoff``, ``adaptive_lambda`` and ``update_account`` are the
reference account arithmetic over numpy scalars-or-arrays: they settle a
single account in tests, replications in ``pinned_threshold_study``, and
are what ``step`` must match bit for bit. ``step`` itself settles the grid
with one fused in-place kernel that touches only live accounts.

Live-prefix invariant. The grid is strictly increasing, and one step's
payoff is epsilon below the score and epsilon minus a non-negative
estimate at or above it, so payoffs never increase along the grid.
Rounding is monotone, so the cumulative payoff ``sum_payoff`` never
increases along the grid either. The adaptive wager
``clip(sum_payoff / (sum_payoff_sq + 1), 0, cap / m_t)`` is therefore
positive only on a prefix ``[0, a)`` and exactly 0 past it, where
``log1p(0 * payoff)`` is a signed zero and leaves log-wealth bit-for-bit
unchanged. Skipping those accounts changes no bit of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    ConfigError,
    Prior,
    RouterConfig,
    SelectionMode,
    StreamObservation,
    ThresholdGrid,
    Violation,
    rho_at,
)


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
    """The engine tried to read a loss on a step routed to the cheap model."""


class Route(str, Enum):
    CHEAP = "cheap"
    EXPENSIVE = "expensive"


@dataclass(frozen=True)
class Decision:
    """What the router did on one step, before any account settlement."""

    propensity: float
    coin: int
    route: Route
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

    @classmethod
    def table(cls, n: int) -> "ThresholdAccount":
        """Fresh accounts for an n-point grid, all at wealth 1."""
        return cls(log_wealth=np.zeros(n), sum_payoff=np.zeros(n),
                   sum_payoff_sq=np.zeros(n), last_lambda=np.zeros(n))

    def view(self, i: int) -> "ThresholdAccount":
        """Scalar copy of account i out of an array-valued table."""
        return ThresholdAccount(
            log_wealth=float(np.asarray(self.log_wealth)[i]),
            sum_payoff=float(np.asarray(self.sum_payoff)[i]),
            sum_payoff_sq=float(np.asarray(self.sum_payoff_sq)[i]),
            last_lambda=float(np.asarray(self.last_lambda)[i]),
        )


class LossGate:
    """Single doorway between the stream's latent losses and the engine.

    The gate opens only on steps whose coin actually routed the query to
    the expensive model, and it records every access, so a trajectory can
    be audited against the routing record afterwards.
    """

    def __init__(self) -> None:
        self.accessed_steps: list[int] = []

    def observe(self, obs: StreamObservation, coin: int) -> float:
        if coin != 1:
            raise LossGateViolation(
                f"loss requested at step {obs.index} with routing coin {coin}")
        self.accessed_steps.append(obs.index)
        return obs.latent_loss

    @property
    def access_count(self) -> int:
        return len(self.accessed_steps)


def coin_generator(config: RouterConfig, rng=None) -> np.random.Generator:
    """Routing-coin generator from ``rng``: a Generator is used as is, a
    SeedSequence or an int seeds a new one, and None seeds ``config.seed``.
    """
    if rng is None:
        rng = config.seed
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def require_increasing_grid(grid: ThresholdGrid) -> None:
    """Raise ``ConfigError`` unless the grid is strictly increasing.

    Settlement splits the grid at ``searchsorted(grid, score, "right")``,
    which is the set of candidates above the score only on a sorted grid.
    """
    if not np.all(np.diff(grid.values) > 0):
        raise ConfigError([Violation("BadGrid", "grid",
                                     "grid values must be strictly increasing")])


def propensity(uncertainty: float, deployed: float, rho_t: float) -> float:
    """Probability of calling the expensive model on this query.

    Queries at or above the deployed threshold always escalate; the rest
    escalate at the exploration rate so no threshold ever goes blind.
    """
    return 1.0 if uncertainty >= deployed else rho_t


def payoff_bound(epsilon: float, rho_min: float, rho_t: float) -> float:
    """Largest payoff magnitude possible at this step's exploration rate."""
    return max(epsilon, (1.0 - rho_min) / rho_t - epsilon)


def ips_payoff(loss, coin, pi, uncertainty, threshold: float, rho_min: float,
               epsilon: float):
    """Payoff credited to one threshold's account for one step (reference).

    The loss estimate reweights the observed loss by the deployed
    propensity, so its conditional mean matches the would-be deployment
    risk of ``threshold`` even though the routing ran at a different
    threshold. Steps that stayed cheap pay the full budget epsilon.
    Scalar or array: ``loss`` is None or ignored where ``coin`` is 0.
    """
    observed = 0.0 if loss is None else loss
    estimate = (1.0 - rho_min) * (observed * coin / pi) * (uncertainty < threshold)
    return epsilon - estimate


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


def _fixed_sequence_index(log_wealth: np.ndarray, log_bar: float) -> int:
    """Largest index whose entire prefix clears the bar; 0 when none do."""
    qualified = log_wealth >= log_bar
    first_gap = int(qualified.argmin())
    if qualified[first_gap]:
        return int(qualified.size) - 1
    return max(first_gap - 1, 0)


def _mixture_index(log_wealth: np.ndarray, log_bars: np.ndarray) -> int:
    """Largest index clearing its own prior-scaled bar; 0 when none do."""
    hits = np.flatnonzero(log_wealth >= log_bars)
    return int(hits[-1]) if hits.size else 0


def select_fixed_sequence(accounts: ThresholdAccount, alpha: float,
                          grid: ThresholdGrid) -> float:
    """Certified threshold under the ordered-prefix rule.

    A threshold deploys only when it and every smaller candidate hold
    wealth of at least 1 / alpha, which is what makes the certificate
    anytime-valid without any multiplicity correction.
    """
    idx = _fixed_sequence_index(np.asarray(accounts.log_wealth), -math.log(alpha))
    return float(grid.values[idx])


def select_mixture(accounts: ThresholdAccount, alpha: float, prior: Prior,
                   grid: ThresholdGrid) -> float:
    """Certified threshold under the prior-weighted rule.

    Each candidate faces its own bar 1 / (alpha * mass), and the largest
    one over its bar deploys; no prefix requirement.
    """
    log_bars = -(math.log(alpha) + np.log(prior.mass))
    return float(grid.values[_mixture_index(np.asarray(accounts.log_wealth), log_bars)])


@dataclass
class RouterState:
    """Mutable run state. Single writer: steps are strictly sequential.

    ``step`` settles the account arrays in place. The wager table is
    written into a spare buffer and swapped with ``accounts.last_lambda``
    once the step is known to be survivable, so an array read from
    ``accounts`` is only valid until the next step; copy it to keep it.
    """

    config: RouterConfig
    accounts: ThresholdAccount
    rng: np.random.Generator
    t: int = 0
    deployed_index: int = 0
    fixed_wager: float | None = None
    _log_bars: float | np.ndarray = field(default=0.0, repr=False)
    _spare: np.ndarray = field(init=False, repr=False)
    _work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.config.grid.n
        self._spare = np.zeros(n)
        self._work = np.empty(n)

    @classmethod
    def fresh(cls, config: RouterConfig, *, rng=None,
              fixed_wager: float | None = None) -> "RouterState":
        """Start a run at step 0 with unit wealth everywhere.

        ``rng`` seeds the routing coins as in ``coin_generator``.

        ``fixed_wager`` replaces the adaptive wager with a constant (an
        ablation knob); it must leave every reachable payoff survivable.
        """
        rng = coin_generator(config, rng)
        require_increasing_grid(config.grid)
        if fixed_wager is not None:
            worst = max((1.0 - config.schedule.rho_min) / r - config.epsilon
                        for r in config.schedule.emitted_rates())
            if not 0.0 <= fixed_wager < 1.0 / worst:
                raise WagerOutOfRange(
                    f"fixed wager {fixed_wager} must lie in [0, {1.0 / worst:.6g}) "
                    "to survive the worst payoff")
        if config.selection_mode is SelectionMode.MIXTURE:
            bars: float | np.ndarray = -(math.log(config.alpha) + np.log(config.prior.mass))
        else:
            bars = -math.log(config.alpha)
        return cls(config=config, accounts=ThresholdAccount.table(config.grid.n),
                   rng=rng, fixed_wager=fixed_wager, _log_bars=bars)

    @property
    def deployed_threshold(self) -> float:
        return float(self.config.grid.values[self.deployed_index])


def _settle(state: RouterState, k: int, high: float, low: float, m_t: float) -> None:
    """Settle every account in place: payoff ``high`` on ``[0, k)``, ``low`` on ``[k, n)``.

    Matches ``adaptive_lambda`` followed by ``update_account`` bit for bit.
    Under the live-prefix invariant (module docstring) the adaptive wager,
    the ``log1p`` and the wealth update run on ``[0, a)`` only; accounts
    past ``a`` bet exactly 0. Raises before any account changes.
    """
    acc = state.accounts
    s1, s2, lw = acc.sum_payoff, acc.sum_payoff_sq, acc.log_wealth
    lam, work = state._spare, state._work
    n = s1.size
    if state.fixed_wager is None:
        # Accounts with sum_payoff <= 0 form a suffix: the reversed view is sorted.
        a = n - int(s1[::-1].searchsorted(0.0, "right"))
        live = work[:a]
        np.add(s2[:a], 1.0, out=live)
        np.divide(s1[:a], live, out=live)
        # The ratio is >= 0 on the live prefix, so clip(., 0, cap) is a minimum.
        np.minimum(live, state.config.betting_cap / m_t, out=lam[:a])
        lam[a:] = 0.0
    else:
        a = n
        lam.fill(state.fixed_wager)
    # Smallest growth factor: low times the largest wager it meets, since
    # rounding a product by a fixed scalar is monotone.
    if low < 0.0 and k < a:
        worst = low * float(np.maximum.reduce(lam[k:a]))
        if worst <= -1.0:
            raise WagerOutOfRange(f"wealth factor would drop to {1.0 + worst:.3g}")
    state._spare, acc.last_lambda = acc.last_lambda, lam

    j = min(k, a)
    growth = work[:a]
    np.multiply(lam[:j], high, out=growth[:j])
    if j < a:
        np.multiply(lam[j:a], low, out=growth[j:])
    np.log1p(growth, out=growth)
    lw[:a] += growth
    s1[:k] += high
    s2[:k] += high * high
    if k < n:
        s1[k:] += low
        s2[k:] += low * low


def step(state: RouterState, obs: StreamObservation,
         gate: LossGate) -> tuple[Decision, RouterState]:
    """Advance the router by one query; returns the decision and the state.

    Order matters and is fixed: route against the threshold certified
    after the previous step, flip exactly one coin, read the loss through
    the gate only if the coin escalated, settle every account with wagers
    computed from pre-step sums, then certify the next threshold. The
    state is mutated in place and returned for convenience.

    Settlement is one fused in-place kernel. An escalated step charges
    the candidates strictly above the score, ``grid[k:]`` with
    ``k = searchsorted(grid, score, "right")``, and pays the rest
    epsilon; the wager and wealth update run only on the live prefix of
    accounts with positive cumulative payoff, which is exact by the
    live-prefix invariant in the module docstring.

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
    if not math.isfinite(obs.uncertainty):
        raise InvalidObservation(
            f"uncertainty score {obs.uncertainty!r} at step {t} is not finite")
    cfg = state.config
    grid_values = cfg.grid.values
    rho_t = rho_at(cfg.schedule, t)
    threshold_used = float(grid_values[state.deployed_index])

    pi = propensity(obs.uncertainty, threshold_used, rho_t)
    # One draw per step no matter the branch, so trajectories with the
    # same seed stay aligned across configs. pi == 1 escalates surely
    # because random() < 1 always holds.
    coin = 1 if state.rng.random() < pi else 0
    observed = gate.observe(obs, coin) if coin == 1 else None

    rho_min = cfg.schedule.rho_min
    eps = cfg.epsilon
    if coin == 1:
        if not 0.0 <= observed <= 1.0:
            raise InvalidObservation(
                f"observed loss {observed!r} at step {t} is outside [0, 1]")
        estimate = (1.0 - rho_min) * (observed / pi)
        # Payoff range check; estimate is shared by every account this step.
        if not 0.0 <= estimate <= (1.0 - rho_min) * (1.0 / rho_t):
            raise WagerOutOfRange(
                f"loss estimate {estimate} escapes its propensity bound at step {t}")
        k = int(grid_values.searchsorted(obs.uncertainty, "right"))
        low = eps - estimate
    else:
        k = grid_values.size
        low = eps
    _settle(state, k, eps, low, payoff_bound(eps, rho_min, rho_t))

    log_wealth = state.accounts.log_wealth
    if cfg.selection_mode is SelectionMode.MIXTURE:
        state.deployed_index = _mixture_index(log_wealth, state._log_bars)
    else:
        state.deployed_index = _fixed_sequence_index(log_wealth, state._log_bars)
    state.t = t

    decision = Decision(propensity=pi, coin=coin,
                        route=Route.EXPENSIVE if coin == 1 else Route.CHEAP,
                        observed_loss=observed, threshold_used=threshold_used)
    return decision, state
