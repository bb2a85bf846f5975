"""Reference account arithmetic that only the tests use.

``ips_payoff`` prices one threshold's payoff the way the engine's
``AccountTable.settle`` and ``_escalation_low`` must, written as one
closed formula over numpy scalars-or-arrays. ``account_table`` gives a
G-point ``ThresholdAccount`` for ``update_account`` to settle, the
shape one run's ``AccountTable`` holds.
"""

import numpy as np

from bpac.engine import ThresholdAccount


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
