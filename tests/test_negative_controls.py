"""Negative controls: the coverage harness must catch invalid certificates.

Each control injects one known-invalid variant of the engine by
monkeypatching, with no switch in the package, and checks that the
``mc_safety`` violation frequency of the real engine stays within three
binomial standard errors of alpha while the mutant's exceeds that bound:

- (ii) the IPS estimate without its 1 / pi weight, which shrinks every
  explored loss by the exploration rate;
- (iii) a bar of 1 in place of 1 / alpha, which certifies every account
  that has not lost money.

Acceptance 01's setting, at a fifth of its replications.
"""

import math

import pytest

import bpac.engine
from bpac import RouterConfig, mc_safety, uniform_linear
from bpac.engine import AccountTable

CONFIG = RouterConfig()
HORIZON, N_REPS = 2000, 100
BOUND = CONFIG.alpha + 3 * math.sqrt(CONFIG.alpha * (1 - CONFIG.alpha) / N_REPS)


def violation_frequency() -> float:
    return mc_safety("bpac", CONFIG, uniform_linear(), HORIZON, N_REPS)["frequency"]


@pytest.fixture(scope="module")
def real_frequency() -> float:
    return violation_frequency()


@pytest.fixture
def unweighted_estimate(monkeypatch):
    """(ii): price an escalation as if its propensity were 1."""
    escalation_low = bpac.engine._escalation_low

    def without_weight(observed, pi, rho_t, config, t, lane=None):
        return escalation_low(observed, 1.0, rho_t, config, t, lane)

    monkeypatch.setattr(bpac.engine, "_escalation_low", without_weight)


@pytest.fixture
def bar_of_one(monkeypatch):
    """(iii): certify an account at wealth 1, log-wealth 0."""
    init = AccountTable.__init__

    def with_bar_of_one(table, *args, **kwargs):
        init(table, *args, **kwargs)
        table.log_bars = 0.0

    monkeypatch.setattr(AccountTable, "__init__", with_bar_of_one)


@pytest.mark.parametrize("mutant", ["unweighted_estimate", "bar_of_one"])
def test_coverage_catches_the_mutant(mutant, real_frequency, request):
    assert real_frequency <= BOUND
    request.getfixturevalue(mutant)
    assert violation_frequency() > BOUND
