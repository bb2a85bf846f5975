"""Reference arithmetic that only the tests use.

``ips_payoff`` prices one threshold's payoff the way the engine's
``AccountTable.settle`` and ``_escalation_low`` must, written as one
closed formula over numpy scalars-or-arrays. ``account_table`` gives a
G-point ``ThresholdAccount`` for ``update_account`` to settle, the
shape one run's ``AccountTable`` holds. ``quad_mean_loss_below``
integrates a score density numerically, the cross-check for the closed
forms of ``simulation.mean_loss_below``.
"""

import numpy as np
from scipy import integrate, special

from bpac.engine import ThresholdAccount
from bpac.simulation import BetaScore, UniformScore


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
