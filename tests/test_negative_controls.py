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

Control (i), a wager chosen after its payoff, needs no Monte Carlo: an
exact audit recomputes every settled wager from the previous step's sums
with the reference ``adaptive_lambda`` and compares the bits, on a serial
run and on lockstep lanes, and a mutant that peeks at the current payoff
must fail it.

Control (iv), the no-prefix rule (deploy the largest threshold whose own
account clears the bar), is pinned where it must agree with
fixed-sequence: under a fixed wager every account bets the same amount,
payoffs never increase along the grid and ``log1p`` is monotone, so
log-wealth never increases along the grid and the accounts that clear the
bar form a prefix.
"""

import math

import numpy as np
import pytest

import bpac.engine
from bpac import (LossGate, RouterConfig, RouterState, easy_hard, mc_safety,
                  run_replication, step, uniform_linear)
from bpac.engine import AccountTable, ThresholdAccount, adaptive_lambda, payoff_bound
from bpac.simulation import stream_events

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


AUDIT_HORIZON = 500


def step_payoffs(table: AccountTable, k, low) -> np.ndarray:
    """This step's payoff per account, shaped like ``table.accounts``' fields:
    epsilon below each split ``k``, ``low`` from it on."""
    points = np.arange(table.accounts.log_wealth.shape[-1])
    return np.where(points < np.asarray(k)[..., None], table.epsilon,
                    np.asarray(low, dtype=float)[..., None])


def audit_wagers(monkeypatch) -> list[float]:
    """Assert after every ``AccountTable.settle`` that each wager is the
    reference wager of the sums before it, bit for bit; returns the list
    of audited steps' rates, which grows as they settle."""
    settle, audited = AccountTable.settle, []

    def checked(table, k, low, rho_t):
        accounts = table.accounts
        past = ThresholdAccount(sum_payoff=accounts.sum_payoff.copy(),
                                sum_payoff_sq=accounts.sum_payoff_sq.copy())
        m_t = payoff_bound(table.epsilon, table.rho_min, rho_t)
        expected = adaptive_lambda(past, m_t, table.cap)
        settle(table, k, low, rho_t)
        wagers = np.ascontiguousarray(table.accounts.last_lambda)
        assert wagers.shape == expected.shape
        assert np.array_equal(wagers.view(np.int64), expected.view(np.int64)), \
            f"a wager differs from the reference at rate {rho_t}"
        audited.append(rho_t)

    monkeypatch.setattr(AccountTable, "settle", checked)
    return audited


@pytest.fixture
def peeking_wager(monkeypatch):
    """(i): bet on sums that already hold the current payoff."""
    settle = AccountTable.settle

    def peek(table, k, low, rho_t):
        accounts, pay = table.accounts, step_payoffs(table, k, low)
        s1, s2 = accounts.sum_payoff.copy(), accounts.sum_payoff_sq.copy()
        accounts.sum_payoff[...] = s1 + pay
        accounts.sum_payoff_sq[...] = s2 + np.square(pay)
        settle(table, k, low, rho_t)
        # Leave the sums as an honest settle would.
        accounts.sum_payoff[...] = s1 + pay
        accounts.sum_payoff_sq[...] = s2 + np.square(pay)

    monkeypatch.setattr(AccountTable, "settle", peek)


def serial_runs():
    for spec, seed in ((uniform_linear(), 1), (easy_hard(), 2)):
        run_replication("bpac", CONFIG, spec, AUDIT_HORIZON, seed)
    return 2 * AUDIT_HORIZON


def lockstep_lanes():
    # 30 replications: one full block of 25 lanes and one of 5.
    for spec in (uniform_linear(), easy_hard()):
        mc_safety("bpac", CONFIG, spec, AUDIT_HORIZON, 30, base_seed=3)
    return 2 * 2 * AUDIT_HORIZON


@pytest.mark.parametrize("study", [serial_runs, lockstep_lanes])
def test_every_wager_is_fixed_before_its_payoff(study, monkeypatch):
    audited = audit_wagers(monkeypatch)
    assert study() == len(audited)


@pytest.mark.parametrize("study", [serial_runs, lockstep_lanes])
def test_audit_catches_a_wager_that_peeks(study, peeking_wager, monkeypatch):
    audit_wagers(monkeypatch)
    with pytest.raises(AssertionError, match="differs from the reference"):
        study()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_wager_no_prefix_rule_equals_fixed_sequence(seed):
    """(iv): at a fixed wager of 0.02 both rules deploy the same index at
    every step. At epsilon 0.2 the run certifies thresholds within 1000
    steps and deploys more than one of them, so the agreement is not the
    trivial one at index 0."""
    config = RouterConfig(epsilon=0.2)
    stream, coin = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    state = RouterState.fresh(config, rng=coin, fixed_wager=0.02)
    gate, bar, deployed = LossGate(), -math.log(config.alpha), set()
    for obs in stream_events(uniform_linear(), stream, 1000):
        step(state, obs, gate)
        log_wealth = state.accounts.log_wealth
        assert np.all(np.diff(log_wealth) <= 0.0)
        clear = np.flatnonzero(log_wealth >= bar)
        assert state.deployed_index == (int(clear[-1]) if clear.size else 0)
        deployed.add(state.deployed_index)
    assert len(deployed) > 2
