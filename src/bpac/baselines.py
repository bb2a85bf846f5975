"""Reference selectors run under the same routing and loss gating.

Both baselines explore at a constant rate (the schedule's deployment
rate), flip the same kind of coin, and see losses through the same gate
as the betting engine. Both deploy the largest threshold whose mean
observed loss plus a slack fits the budget; they differ only in the mean
and the slack. ``o_naive`` trusts uncorrected means and pays no slack.
``ips_hoeff`` reweights each loss by its inverse propensity and pays a
Hoeffding slack under a per-step union bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RouterConfig, StreamObservation, deployment_rate, validate_config
from .engine import Decision, LossGate, OutOfOrderObservation, coin_generator, route

# The ``ips_hoeff`` slack prices one threshold per step, or the whole grid.
HOEFF_VARIANTS = ("per_point", "union_over_grid")


@dataclass
class MeanState:
    """Per-grid loss sums of one mean-threshold selector.

    ``slack_count`` is how many simultaneous thresholds the Hoeffding slack
    pays for. 0 is ``o_naive``: raw losses, no slack. Otherwise the state
    is ``ips_hoeff``: propensity-weighted losses plus the slack.
    """

    config: RouterConfig
    rho: float
    sums: np.ndarray
    rng: np.random.Generator
    slack_count: int = 0
    t: int = 0
    deployed_index: int = 0

    @classmethod
    def fresh(cls, config: RouterConfig, *, rng=None,
              variant: str | None = None) -> "MeanState":
        """Start a selector at step 0; ``rng`` as in ``coin_generator``.

        ``variant`` None gives ``o_naive``. "per_point" gives ``ips_hoeff``
        pricing one threshold per step; "union_over_grid" prices the whole
        grid, multiplying the bar by the grid size. Raises ``ConfigError``
        for a config that fails ``validate_config``.
        """
        validate_config(config)
        counts = dict(zip((None, *HOEFF_VARIANTS), (0, 1, config.grid.n)))
        if variant not in counts:
            raise ValueError(f"unknown confidence variant {variant!r}")
        return cls(config=config, rho=deployment_rate(config.schedule),
                   sums=np.zeros(config.grid.n), rng=coin_generator(config, rng),
                   slack_count=counts[variant])


def hoeff_slack(t: int, alpha: float, rho: float, count: int) -> float:
    """Concentration slack after t steps, alpha spent as 6a/(pi^2 t^2).

    The worst importance weight (1 - rho) / rho scales the width; count
    is how many simultaneous thresholds the bar pays for. The weight
    factor is what makes ``ips_hoeff`` so conservative at small
    exploration rates.
    """
    alpha_t = 6.0 * alpha / (math.pi ** 2 * t ** 2)
    weight_bound = (1.0 - rho) / rho
    return weight_bound * math.sqrt(math.log(count / alpha_t) / (2.0 * t))


def _mean_index(sums: np.ndarray, t: int, epsilon: float, slack: float,
                index: int) -> int:
    """Largest index whose mean plus slack fits the budget; 0 when none does.

    Greedy: unobserved losses count as zero, so without a slack wide
    enough to cover that, the region below a deployed threshold starves.

    Found by stepping from ``index``, the previous step's answer. The
    qualifying indices are a prefix of the grid: each observed loss
    charges ``grid[k:]`` a non-negative amount, so ``sums`` never
    decreases along the grid, and dividing by t and adding the slack round
    monotonically, so ``sums[i] / t + slack`` never decreases either. So
    the end of the prefix is at or past ``index`` if ``index`` qualifies
    and before it if not, and a walk that tests one point at a time with
    that arithmetic stops where a search of the whole grid would. Most
    steps leave the answer where it was, so most walks test one or two
    points.
    """
    if sums.item(index) / t + slack <= epsilon:
        while index + 1 < sums.size and sums.item(index + 1) / t + slack <= epsilon:
            index += 1
        return index
    while index > 0:
        index -= 1
        if sums.item(index) / t + slack <= epsilon:
            break
    return index


def mean_step(state: MeanState, obs: StreamObservation,
              gate: LossGate) -> tuple[Decision, MeanState]:
    """One query under a mean-threshold selector.

    Routes and validates with ``engine.route``, after the same index
    check as ``engine.step``. An observed loss charges the candidates
    strictly above the score, ``grid[k:]``.
    """
    t = state.t + 1
    if obs.index != t:
        raise OutOfOrderObservation(
            f"expected observation index {t}, got {obs.index}")
    cfg = state.config
    threshold_used = cfg.grid.grid_list[state.deployed_index]
    pi, coin, observed, k, _ = route(obs, threshold_used, state.rho, state.rng, gate, cfg)
    if observed:
        state.sums[k:] += ((1.0 - state.rho) * observed / pi if state.slack_count
                           else observed)
    slack = (hoeff_slack(t, cfg.alpha, state.rho, state.slack_count)
             if state.slack_count else 0.0)
    state.t = t
    state.deployed_index = _mean_index(state.sums, t, cfg.epsilon, slack,
                                       state.deployed_index)
    return Decision(pi, coin, observed, threshold_used), state
