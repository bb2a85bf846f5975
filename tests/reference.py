"""Reference arithmetic that only the tests use.

``ips_payoff`` prices one threshold's payoff the way the engine's
``AccountTable.settle`` and ``_escalation_low`` must, written as one
closed formula over numpy scalars-or-arrays. ``account_table`` gives a
G-point ``ThresholdAccount`` for ``update_account`` to settle, the
shape one run's ``AccountTable`` holds. ``quad_mean_loss_below``
integrates a score density numerically, the cross-check for the closed
forms of ``simulation.mean_loss_below``. ``fixed_sequence_index``,
``fixed_sequence_rows`` and ``mean_index`` search the whole grid for the
indices that ``AccountTable.select`` and ``baselines.mean_step`` carry
from step to step. ``StepRiskTracker`` looks up the segment, the rate and
the risk vector at every step, where ``simulation.RiskTracker`` carries
them a piece at a time.
"""

import numpy as np
from scipy import integrate, special

from bpac.core import rho_at
from bpac.engine import ThresholdAccount
from bpac.simulation import BetaScore, UniformScore, _segment_risk


def ips_payoff(loss, coin, pi, uncertainty, threshold: float, rho_min: float,
               epsilon: float):
    """Payoff credited to one threshold's account for one step.

    The loss estimate reweights the observed loss by the deployed
    propensity, so its conditional mean matches the would-be deployment
    risk of ``threshold`` even though the routing ran at a different
    threshold. Steps that stayed cheap pay the full budget epsilon.
    Scalar or array: ``loss`` is None or ignored where ``coin`` is 0.
    """
    observed = 0.0 if loss is None else loss
    estimate = (1.0 - rho_min) * (observed * coin / pi) * (uncertainty < threshold)
    return epsilon - estimate


def account_table(n: int) -> ThresholdAccount:
    """Fresh accounts for an n-point grid, all at wealth 1."""
    return ThresholdAccount(log_wealth=np.zeros(n), sum_payoff=np.zeros(n),
                            sum_payoff_sq=np.zeros(n), last_lambda=np.zeros(n))


def score_pdf(score, v: float) -> float:
    """Density of a ``UniformScore`` or ``BetaScore`` law at v."""
    if isinstance(score, UniformScore):
        return 1.0 / (score.high - score.low) if score.low <= v <= score.high else 0.0
    assert isinstance(score, BetaScore)
    if not 0.0 <= v <= 1.0:
        return 0.0
    vi = min(max(v, 1e-300), 1.0)
    return float(np.exp((score.a - 1) * np.log(vi)
                        + (score.b - 1) * np.log1p(-min(v, 1 - 1e-16))
                        - special.betaln(score.a, score.b)))


def quad_mean_loss_below(score, loss, us) -> np.ndarray:
    """E[P(loss | V) * 1{V < u}] at each u of ``us``, by adaptive quadrature."""
    lo = getattr(score, "low", 0.0)

    def one(u: float) -> float:
        upper = min(u, getattr(score, "high", 1.0))
        if upper <= lo:
            return 0.0
        val, _ = integrate.quad(lambda v: float(loss.prob(v)) * score_pdf(score, v),
                                lo, upper, epsabs=1e-10, epsrel=1e-12, limit=200)
        return val

    return np.array([one(float(u)) for u in us])


def fixed_sequence_index(log_wealth: np.ndarray, log_bar: float) -> int:
    """Largest index whose entire prefix clears the bar; 0 when none do.

    The prefix requirement is what makes the 1 / alpha bar anytime-valid
    without any multiplicity correction.
    """
    qualified = log_wealth >= log_bar
    first_gap = int(qualified.argmin())
    if qualified[first_gap]:
        return int(qualified.size) - 1
    return max(first_gap - 1, 0)


def fixed_sequence_rows(log_wealth: np.ndarray, log_bar: float) -> np.ndarray:
    """``fixed_sequence_index`` of every column of a (G, R) wealth table."""
    qualified = log_wealth >= log_bar
    first_gap = qualified.argmin(axis=0)
    full = qualified[first_gap, np.arange(first_gap.size)]
    return np.where(full, qualified.shape[0] - 1, np.maximum(first_gap - 1, 0))


def mean_index(sums: np.ndarray, t: int, epsilon: float, slack: float) -> int:
    """Largest index whose mean plus slack fits the budget; 0 when none does.

    ``sums / t + slack`` never decreases along the grid, so one
    ``searchsorted`` finds the end of the qualifying prefix.
    """
    n = int((sums / t + slack).searchsorted(epsilon, "right"))
    return n - 1 if n else 0


class StepRiskTracker:
    """``simulation.RiskTracker`` with every lookup made at every step: the
    segment by ``segment_index_at``, the rate by ``rho_at`` and the risk
    vector by ``_segment_risk``. It takes any step, as the tracker once did."""

    def __init__(self, spec, schedule, grid, weighted: bool = False, rows: int | None = None):
        self.spec, self.schedule, self.grid_values = spec, schedule, grid.values
        self.weighted = weighted
        n = grid.values.size
        self.steps = 0
        self.risk_sum = np.zeros(n)
        if weighted:
            shape = n if rows is None else (n, rows)
            self.weight_sum = np.zeros(shape).T
            self.weighted_risk_sum = np.zeros(shape).T

    def absorb(self, t: int, wagers=None) -> np.ndarray:
        seg = self.spec.segments[self.spec.segment_index_at(t)]
        r = _segment_risk(seg, self.grid_values, rho_at(self.schedule, t))
        self.steps += 1
        self.risk_sum += r
        if self.weighted:
            a = wagers.shape[-1]
            self.weight_sum[..., :a] += wagers
            self.weighted_risk_sum[..., :a] += wagers * r[:a]
        return r

    def weighted_risk_at(self, index):
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
