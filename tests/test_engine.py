import bisect
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bpac.engine
from bpac import (
    ConfigError,
    ConstantSchedule,
    Decision,
    InvalidObservation,
    LossGate,
    LossGateViolation,
    OutOfOrderObservation,
    Prior,
    RouterConfig,
    RouterState,
    SelectionMode,
    StreamObservation,
    ThresholdAccount,
    ThresholdGrid,
    TwoStageSchedule,
    WagerOutOfRange,
    adaptive_lambda,
    generate_event,
    mc_safety,
    payoff_bound,
    propensity,
    rho_at,
    step,
    uniform_linear,
    update_account,
)
from bpac.core import rate_pieces
from bpac.engine import (CAPPED_WIDTH, EXTENT_HOLD, AccountTable, _mixture_rows, route,
                         route_lanes)
from reference import (account_table, capped_prefix, fixed_sequence_index, fixed_sequence_rows,
                       ips_payoff, live_prefix)

EPS = 0.08
RHO_MIN = 0.05


def make_obs(index=1, uncertainty=0.5, loss=0.0):
    return StreamObservation(index=index, uncertainty=uncertainty,
                             latent_loss=loss, tokens_cheap=100,
                             tokens_expensive=500)


class TestPropensity:
    def test_above_threshold_is_sure_escalation(self):
        assert propensity(0.6, 0.5, 0.05) == 1.0

    def test_tie_escalates(self):
        assert propensity(0.5, 0.5, 0.05) == 1.0

    def test_below_threshold_explores(self):
        assert propensity(0.4, 0.5, 0.05) == 0.05


class TestPayoff:
    def test_unobserved_step_pays_epsilon(self):
        for u in (0.0, 0.3, 1.0):
            assert ips_payoff(0.0, 0, 0.05, 0.2, u, RHO_MIN, EPS) == EPS

    def test_full_feedback_loss_below_threshold(self):
        # pi = 1, loss 1, score under the candidate: payoff 0.08 - 0.95
        d = ips_payoff(1.0, 1, 1.0, 0.3, 0.5, RHO_MIN, EPS)
        assert d == pytest.approx(-0.87, abs=1e-12)

    def test_explored_loss_is_propensity_inflated(self):
        d = ips_payoff(0.5, 1, 0.05, 0.3, 0.5, RHO_MIN, EPS)
        assert d == pytest.approx(0.08 - 0.95 * 0.5 / 0.05, abs=1e-12)
        assert d == pytest.approx(-9.42, abs=1e-12)

    def test_score_at_or_above_candidate_pays_epsilon(self):
        assert ips_payoff(1.0, 1, 1.0, 0.5, 0.5, RHO_MIN, EPS) == EPS
        assert ips_payoff(1.0, 1, 1.0, 0.9, 0.5, RHO_MIN, EPS) == EPS

    @given(loss=st.floats(0.0, 1.0), score=st.floats(0.0, 1.0),
           u=st.floats(0.0, 1.0), rho=st.sampled_from([0.05, 0.3, 0.7]),
           coin=st.integers(0, 1))
    def test_payoff_range(self, loss, score, u, rho, coin):
        pi = propensity(score, u, rho) if score < u else 1.0
        d = ips_payoff(loss, coin, pi, score, u, RHO_MIN, EPS)
        # The engine's own expression: (1 - RHO_MIN) / rho can round one
        # step above (1 - RHO_MIN) * (1 / rho), the largest estimate.
        assert EPS - (1 - RHO_MIN) * (1 / rho) <= d <= EPS


class TestWager:
    def test_fresh_account_bets_nothing(self):
        acc = ThresholdAccount()
        m = payoff_bound(EPS, RHO_MIN, 0.05)
        assert adaptive_lambda(acc, m, 0.9) == 0.0

    def test_interior_value(self):
        acc = ThresholdAccount(sum_payoff=0.8, sum_payoff_sq=0.064)
        m_warm = payoff_bound(EPS, RHO_MIN, 0.7)
        # raw ratio 0.8/1.064 = 0.7519 exceeds both caps
        assert adaptive_lambda(acc, m_warm, 0.9) == pytest.approx(0.70470, abs=1e-5)
        m_deploy = payoff_bound(EPS, RHO_MIN, 0.05)
        assert adaptive_lambda(acc, m_deploy, 0.9) == pytest.approx(0.04757, abs=1e-5)

    def test_negative_sum_clips_to_zero(self):
        acc = ThresholdAccount(sum_payoff=-3.0, sum_payoff_sq=10.0)
        assert adaptive_lambda(acc, 18.92, 0.9) == 0.0

    def test_payoff_bound_values(self):
        assert payoff_bound(EPS, RHO_MIN, 0.05) == pytest.approx(18.92, abs=1e-12)
        assert payoff_bound(EPS, RHO_MIN, 0.7) == pytest.approx(0.95 / 0.7 - 0.08,
                                                                abs=1e-12)
        # degenerate high exploration: epsilon floor kicks in
        assert payoff_bound(0.5, 0.9, 0.95) == 0.5

    @given(sum_d=st.floats(-100, 100), sum_d2=st.floats(0, 1000),
           rho=st.sampled_from([0.05, 0.3, 0.7]))
    def test_wager_stays_in_feasible_band(self, sum_d, sum_d2, rho):
        acc = ThresholdAccount(sum_payoff=sum_d, sum_payoff_sq=sum_d2)
        m = payoff_bound(EPS, RHO_MIN, rho)
        lam = adaptive_lambda(acc, m, 0.9)
        assert 0.0 <= lam <= 0.9 / m


class TestAccountUpdate:
    def test_log_growth_on_clean_step(self):
        acc = ThresholdAccount()
        lam = 0.04757  # deploy-phase cap, rounded
        update_account(acc, lam, EPS)
        assert acc.log_wealth == pytest.approx(0.0037984, abs=1e-7)
        assert acc.log_wealth == math.log1p(lam * EPS)
        assert acc.sum_payoff == EPS
        assert acc.sum_payoff_sq == EPS * EPS
        assert acc.last_lambda == lam

    def test_zero_wager_freezes_wealth(self):
        acc = ThresholdAccount(log_wealth=1.5)
        update_account(acc, 0.0, -18.92)
        assert acc.log_wealth == 1.5
        assert acc.sum_payoff == -18.92

    def test_cap_bet_worst_loss_keeps_wealth_positive(self):
        acc = ThresholdAccount(log_wealth=3.0)
        m = payoff_bound(EPS, RHO_MIN, 0.05)
        update_account(acc, 0.9 / m, -m)
        # factor is exactly 1 - cap = 0.1
        assert acc.log_wealth == pytest.approx(3.0 + math.log(0.1), abs=1e-12)
        assert acc.log_wealth == pytest.approx(3.0 - 2.3026, abs=1e-4)

    def test_ruin_rejected(self):
        acc = ThresholdAccount()
        with pytest.raises(WagerOutOfRange):
            update_account(acc, 1.0, -1.0)

    def test_array_account_matches_scalar(self):
        table = account_table(3)
        payoff = np.array([0.08, -0.87, 0.08])
        lam = np.array([0.01, 0.02, 0.0])
        update_account(table, lam, payoff)
        for i in range(3):
            scalar = ThresholdAccount()
            update_account(scalar, float(lam[i]), float(payoff[i]))
            assert table.log_wealth[i] == scalar.log_wealth
            assert table.sum_payoff[i] == scalar.sum_payoff

    @given(lam=st.floats(0.0, 0.047), d=st.floats(-18.92, 0.08))
    def test_growth_factor_positive(self, lam, d):
        acc = ThresholdAccount()
        update_account(acc, lam, d)
        assert math.isfinite(acc.log_wealth)


class TestSelectors:
    BAR = -math.log(0.1)

    def log_wealth(self, wealth):
        return np.log(np.asarray(wealth, dtype=float))

    def mixture_bars(self, mass):
        return -(math.log(0.1) + np.log(np.asarray(mass, dtype=float)))

    def mixture_index(self, log_wealth, bars):
        """``_mixture_rows`` of a single run, as a one-column table."""
        [index] = _mixture_rows(log_wealth[:, None], bars)
        return index

    def test_prefix_stops_at_first_gap(self):
        assert fixed_sequence_index(self.log_wealth([12, 15, 9, 20, 3]), self.BAR) == 1

    def test_unqualified_start_deploys_zero(self):
        assert fixed_sequence_index(self.log_wealth([5, 2, 1, 1, 1]), self.BAR) == 0

    def test_all_qualified_deploys_top(self):
        assert fixed_sequence_index(self.log_wealth([11, 12, 13, 14, 15]), self.BAR) == 4

    def test_mixture_ignores_gaps(self):
        # uniform prior: per-point bar 1/(0.1 * 0.2) = 50
        bars = self.mixture_bars(np.full(5, 0.2))
        assert self.mixture_index(self.log_wealth([60, 40, 55, 20, 10]), bars) == 2

    def test_mixture_nothing_qualified(self):
        bars = self.mixture_bars(np.full(5, 0.2))
        assert self.mixture_index(self.log_wealth([1, 1, 1, 1, 1]), bars) == 0

    def test_mixture_prior_mass_lowers_the_bar(self):
        # bar at the last point is 1/(0.1 * 0.9) = 11.11 < 12
        bars = self.mixture_bars([0.025, 0.025, 0.025, 0.025, 0.9])
        assert self.mixture_index(self.log_wealth([1, 1, 1, 1, 12]), bars) == 4


class TestStep:
    def test_first_step_surely_escalates(self, default_config):
        state = RouterState.fresh(default_config)
        gate = LossGate()
        decision, state = step(state, make_obs(1, 0.7, 1.0), gate)
        # deployed threshold starts at 0, every score is at or above it
        assert decision.propensity == 1.0
        assert decision.coin == 1
        assert decision.observed_loss == 1.0
        assert gate.access_count == 1

    def test_out_of_order_rejected(self, default_config):
        state = RouterState.fresh(default_config)
        gate = LossGate()
        with pytest.raises(OutOfOrderObservation):
            step(state, make_obs(index=2), gate)
        _, state = step(state, make_obs(index=1), gate)
        with pytest.raises(OutOfOrderObservation):
            step(state, make_obs(index=1), gate)

    def test_direct_construction_steps_like_fresh(self, default_config, uniform_spec):
        # A state built without fresh() used to lack its account table.
        direct = RouterState(config=default_config, table=AccountTable(default_config),
                             rng=np.random.default_rng(3))
        fresh = RouterState.fresh(default_config, rng=3)
        rng = np.random.default_rng(4)
        for t in range(1, 101):
            obs = generate_event(uniform_spec, rng, t)
            step(direct, obs, LossGate())
            step(fresh, obs, LossGate())
            assert direct.deployed_index == fresh.deployed_index
        assert np.array_equal(direct.table.log_wealth, fresh.table.log_wealth)

    def test_gate_blocks_unescalated_reads(self):
        gate = LossGate()
        with pytest.raises(LossGateViolation):
            gate.observe(make_obs(1, 0.5, 1.0), 0)

    @pytest.mark.usefixtures("gate_steps")
    def test_gate_access_equals_escalations(self, default_config, uniform_spec):
        state = RouterState.fresh(default_config)
        gate = LossGate()
        rng = np.random.default_rng(5)
        escalations = 0
        for t in range(1, 201):
            decision, state = step(state, generate_event(uniform_spec, rng, t), gate)
            escalations += decision.coin
        assert gate.access_count == escalations
        assert gate.accessed_steps == sorted(gate.accessed_steps)

    def test_unobserved_step_pays_epsilon_everywhere(self, constant_config):
        state = RouterState.fresh(constant_config)
        gate = LossGate()
        # force the threshold up so a below-threshold coin can be 0
        state.deployed_index = constant_config.grid.n - 1
        rng_draws = 0
        for t in range(1, 60):
            before = np.array(state.table.sum_payoff, copy=True)
            decision, state = step(state, make_obs(t, 0.5, 1.0), gate)
            after = np.array(state.table.sum_payoff)
            if decision.coin == 0:
                assert np.allclose(after - before, constant_config.epsilon)
                rng_draws += 1
        assert rng_draws > 0

    def test_scalar_shadow_replay_matches_table(self, default_config, uniform_spec):
        """The vectorized account table must equal a scalar per-candidate replay.

        Also pins predictability: each wager is recomputable from strictly
        pre-step sums.
        """
        config = default_config
        state = RouterState.fresh(config)
        gate = LossGate()
        rng = np.random.default_rng(77)
        idx = 380
        u = config.grid.values[idx]
        shadow = ThresholdAccount()
        for t in range(1, 151):
            obs = generate_event(uniform_spec, rng, t)
            rho_t = 0.7 if t <= 200 else 0.05
            m_t = payoff_bound(config.epsilon, 0.05, rho_t)
            lam = adaptive_lambda(shadow, m_t, config.betting_cap)  # pre-step sums
            decision, state = step(state, obs, gate)
            d = ips_payoff(decision.observed_loss or 0.0, decision.coin,
                           decision.propensity, obs.uncertainty, u, 0.05,
                           config.epsilon)
            update_account(shadow, lam, d)
            for name in ("log_wealth", "sum_payoff", "sum_payoff_sq", "last_lambda"):
                assert getattr(state.table, name)[idx] == getattr(shadow, name), name

    def test_threshold_never_exceeds_prefix_rule(self, default_config, uniform_spec):
        state = RouterState.fresh(default_config)
        gate = LossGate()
        rng = np.random.default_rng(3)
        bar = -math.log(default_config.alpha)
        for t in range(1, 301):
            _, state = step(state, generate_event(uniform_spec, rng, t), gate)
            lw = np.asarray(state.table.log_wealth)
            k = state.deployed_index
            if k > 0:
                assert np.all(lw[:k + 1] >= bar)

    def test_mixture_mode_runs(self, uniform_spec):
        config = RouterConfig(selection_mode=SelectionMode.MIXTURE,
                              prior=Prior.uniform(1001))
        state = RouterState.fresh(config)
        gate = LossGate()
        rng = np.random.default_rng(9)
        for t in range(1, 101):
            _, state = step(state, generate_event(uniform_spec, rng, t), gate)
        assert 0 <= state.deployed_index < config.grid.n

    def test_fixed_wager_must_be_feasible(self, default_config):
        worst = payoff_bound(default_config.epsilon, 0.05, 0.05)
        with pytest.raises(WagerOutOfRange):
            RouterState.fresh(default_config, fixed_wager=1.0 / worst + 1e-4)
        state = RouterState.fresh(default_config, fixed_wager=0.05)
        gate = LossGate()
        _, state = step(state, make_obs(1, 0.9, 0.0), gate)
        assert np.allclose(np.asarray(state.table.last_lambda), 0.05)

    def test_unsorted_grid_rejected(self):
        # The live-prefix settlement relies on a strictly increasing grid.
        grid = ThresholdGrid(values=np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ConfigError):
            RouterState.fresh(RouterConfig(grid=grid))

    def test_same_seed_same_path(self, default_config, uniform_spec):
        def run():
            state = RouterState.fresh(default_config)
            gate = LossGate()
            rng = np.random.default_rng(21)
            out = []
            for t in range(1, 121):
                d, state = step(state, generate_event(uniform_spec, rng, t), gate)
                out.append((d.coin, state.deployed_index))
            return out

        assert run() == run()


@st.composite
def rate_cases(draw):
    """A constant or a two-stage schedule whose warmup ends at step 0,
    inside a run of ``horizon`` steps or past it, and a loss per step."""
    horizon = draw(st.integers(1, 30))
    if draw(st.booleans()):
        schedule = ConstantSchedule(draw(st.sampled_from([0.05, 0.3, 0.7])))
    else:
        t_warm = draw(st.one_of(st.just(0), st.integers(1, horizon),
                                st.integers(horizon + 1, horizon + 5)))
        schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05, t_warm=t_warm)
    losses = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=horizon, max_size=horizon))
    return schedule, losses, draw(st.integers(0, 2**32 - 1))


def route_below_every_candidate(schedule, losses, seed):
    """Step a run on scores below 0, which sit under every candidate, so
    every step explores at the rate in force: its propensity, the rate its
    settle is given and the table's wager cap are those of ``rho_at`` at
    that step, and the schedule is read once per piece."""
    config = RouterConfig(grid=ThresholdGrid.from_step(step=0.25), schedule=schedule)
    state = RouterState.fresh(config, rng=seed)
    settled, settle = [], state.table.settle
    state.table.settle = lambda charges, rho_t: settled.append(rho_t) or settle(charges, rho_t)
    gate = LossGate()
    with mock.patch.object(bpac.engine, "rate_pieces",
                           wraps=bpac.engine.rate_pieces) as pieces:
        for t, loss in enumerate(losses, start=1):
            decision, state = step(state, make_obs(t, -0.5, loss), gate)
            rho = rho_at(schedule, t)
            assert decision.propensity == rho
            assert settled[-1] == rho
            assert state.table._top == config.betting_cap / payoff_bound(
                config.epsilon, schedule.rho_min, rho)
    assert pieces.call_count == len(list(rate_pieces(schedule, 1, len(losses) + 1)))


WARMUP_ENDS_AT_3 = (TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05, t_warm=3), [1.0] * 6, 0)


@settings(deadline=None)
@given(case=rate_cases())
@example(case=WARMUP_ENDS_AT_3)
def test_every_step_routes_and_settles_at_rho_at(case):
    """``step`` carries the rate of the schedule piece in force, step
    ``t_warm + 1`` included."""
    route_below_every_candidate(*case)


def test_a_rate_carried_past_its_piece_fails(monkeypatch):
    """A mutant whose first piece never ends routes the steps after the
    warmup at the warm rate, and fails the property and the worked example."""
    monkeypatch.setattr(bpac.engine, "rate_pieces", lambda schedule, start, stop: iter(
        [(start, math.inf, rho_at(schedule, start))]))
    with pytest.raises(AssertionError):
        test_every_step_routes_and_settles_at_rho_at()
    with pytest.raises(AssertionError):
        route_below_every_candidate(*WARMUP_ENDS_AT_3)


@pytest.mark.parametrize("steps", [0, 3])
def test_out_of_order_raises_before_the_rate_or_the_coin(steps):
    """Fresh, and at the step that ends the warmup, a step out of order
    reads no rate and draws no coin."""
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05, t_warm=3)
    state = RouterState.fresh(RouterConfig(schedule=schedule), rng=5)
    gate = LossGate()
    for t in range(1, steps + 1):
        step(state, make_obs(t, 0.5, 1.0), gate)
    coins = state.rng.bit_generator.state
    with mock.patch.object(bpac.engine, "rate_pieces",
                           side_effect=AssertionError("rate read")):
        with pytest.raises(OutOfOrderObservation):
            step(state, make_obs(steps + 2), gate)
    assert state.rng.bit_generator.state == coins
    assert (state.t, gate.access_count) == (steps, steps)
    decision, _ = step(state, make_obs(steps + 1, -0.5, 0.0), gate)
    assert decision.propensity == rho_at(schedule, steps + 1)


# Each record, its field values and its repr.
FROZEN_RECORDS = [
    (Decision, (0.05, 1, 1.0, 0.25),
     "Decision(propensity=0.05, coin=1, observed_loss=1.0, threshold_used=0.25)"),
    (StreamObservation, (3, 0.5, 0.0, 100, 500),
     "StreamObservation(index=3, uncertainty=0.5, latent_loss=0.0, tokens_cheap=100, "
     "tokens_expensive=500)"),
]


@pytest.mark.parametrize("cls, values, text", FROZEN_RECORDS,
                         ids=[cls.__name__ for cls, _, _ in FROZEN_RECORDS])
def test_records_keep_the_frozen_dataclass_contract(cls, values, text):
    """Built by position or by keyword, a record compares, hashes, prints,
    copies, replaces and pickles as a frozen dataclass, and refuses to change.
    It is slotted, so a trace's events hold no dict each."""
    names = [f.name for f in dataclasses.fields(cls)]
    record = cls(*values)
    assert not hasattr(record, "__dict__")
    assert record == cls(**dict(zip(names, values)))
    assert dataclasses.astuple(record) == values
    assert hash(record) == hash(values)
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert dataclasses.astuple(record) == values
    moved = dataclasses.replace(record, **{names[1]: 0})
    assert dataclasses.astuple(moved) == (values[0], 0, *values[2:])
    assert moved != record
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)


class TestInvalidObservation:
    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected_before_the_coin(self, default_config, score):
        # Regression: NaN compares false against every candidate, so 2000
        # steps of NaN with loss 1 used to pay every account epsilon and
        # certify threshold 1.0.
        state = RouterState.fresh(default_config)
        gate = LossGate()
        coins = state.rng.bit_generator.state
        for _ in range(2000):
            with pytest.raises(InvalidObservation):
                step(state, make_obs(1, score, 1.0), gate)
        assert state.t == 0
        assert state.deployed_threshold == 0.0
        assert gate.access_count == 0
        assert state.rng.bit_generator.state == coins
        assert not np.any(state.table.log_wealth)
        assert not np.any(state.table.sum_payoff)

    @pytest.mark.parametrize("loss", [1.5, -0.1, math.nan])
    def test_loss_outside_unit_interval_rejected_before_settling(self, default_config,
                                                                 loss):
        state = RouterState.fresh(default_config)
        gate = LossGate()
        # deployed threshold 0: the first query surely escalates
        with pytest.raises(InvalidObservation):
            step(state, make_obs(1, 0.5, loss), gate)
        assert gate.access_count == 1
        assert state.t == 0
        assert not np.any(state.table.sum_payoff)
        assert not np.any(state.table.log_wealth)

    def test_score_above_one_always_escalates_and_pays_epsilon(self, constant_config):
        state = RouterState.fresh(constant_config)
        state.deployed_index = constant_config.grid.n - 1
        gate = LossGate()
        for t in range(1, 30):
            decision, state = step(state, make_obs(t, 1.7, 1.0), gate)
            assert decision.propensity == 1.0
            assert decision.coin == 1
        sums = state.table.sum_payoff
        assert np.all(sums == sums[0])
        assert sums[0] == pytest.approx(29 * EPS)
        assert gate.access_count == 29

    def test_score_below_zero_charges_every_account(self, constant_config):
        state = RouterState.fresh(constant_config)
        gate = LossGate()
        escalated = 0
        for t in range(1, 200):
            before = state.table.sum_payoff.copy()
            decision, state = step(state, make_obs(t, -0.3, 1.0), gate)
            assert decision.propensity == 0.05
            if decision.coin == 1:
                escalated += 1
                charge = ips_payoff(1.0, 1, 0.05, -0.3, 0.0, RHO_MIN, EPS)
                assert charge < 0
                assert np.all(state.table.sum_payoff == before + charge)
        assert escalated > 0


class FixedDraw:
    """A coin generator whose next ``random()`` is a given number."""

    def __init__(self, draw: float):
        self.draw = draw

    def random(self) -> float:
        return self.draw


def route_lane_by_lane(t, scores, draws, losses, thresholds, rho_t, config):
    """``route`` on each lane alone: per lane its result or its error, and its gate."""
    out = []
    for score, draw, loss, used in zip(scores, draws, losses, thresholds):
        gate = LossGate()
        try:
            _, coin, _, k, low = route(make_obs(t, score, loss), used, rho_t,
                                       FixedDraw(draw), gate, config)
            out.append(((coin, k, low), gate.accessed_steps))
        except (InvalidObservation, WagerOutOfRange) as exc:
            out.append((type(exc), gate.accessed_steps))
            break
    return out


def dense_lanes(scores, escalated, charges, config):
    """``route``'s coin, ``k`` and ``low`` per lane, from ``route_lanes``'
    escalated lanes and sparse charges: a lane it did not charge was paid
    epsilon, from its own split if it escalated and from n if not."""
    grid, lanes = config.grid.grid_list, len(scores)
    coins, k, low = [0] * lanes, [config.grid.n] * lanes, [config.epsilon] * lanes
    for lane in escalated:
        coins[lane], k[lane] = 1, bisect.bisect_right(grid, scores[lane])
    for lane, split, payoff in charges:
        assert coins[lane] == 1
        k[lane], low[lane] = split, payoff
    return coins, k, low


def held_gates(t, losses):
    """One gate per lane, each holding its lane's loss of step ``t``."""
    gates = [LossGate() for _ in losses]
    for gate, loss in zip(gates, losses):
        gate.hold(t, [loss])
    return gates


LANE_CONFIG = RouterConfig(grid=ThresholdGrid.from_step(step=0.125),
                           schedule=ConstantSchedule(0.05))


def lane_deployed(thresholds):
    """The grid index of each lane's threshold."""
    return [LANE_CONFIG.grid.grid_list.index(u) for u in thresholds]


@st.composite
def lane_steps(draw):
    grid = LANE_CONFIG.grid.grid_list
    lanes = draw(st.integers(1, 6))
    score = st.one_of(st.sampled_from(grid), st.floats(-0.5, 1.5),
                      st.sampled_from([-1e-300, 1.0 + 1e-12]))
    coin = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.05]))
    loss = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

    def column(values):
        return st.lists(values, min_size=lanes, max_size=lanes)

    return (draw(st.integers(1, 10**6)), draw(column(score)), draw(column(coin)),
            draw(column(loss)), draw(column(st.sampled_from(grid))),
            draw(st.sampled_from([0.05, 0.3, 0.7, 1.0])))


@pytest.mark.usefixtures("gate_steps")
class TestRouteLanes:
    """``route_lanes`` is ``route`` applied lane by lane, on numbers drawn ahead of time."""

    @settings(deadline=None, max_examples=300)
    @given(case=lane_steps())
    def test_equals_route_lane_by_lane(self, case):
        t, scores, draws, losses, thresholds, rho_t = case
        expected = route_lane_by_lane(t, scores, draws, losses, thresholds, rho_t,
                                      LANE_CONFIG)
        gates = held_gates(t, losses)
        escalated, charges = route_lanes(t, scores, draws, lane_deployed(thresholds), rho_t,
                                         gates, LANE_CONFIG)
        coins, k, low = dense_lanes(scores, escalated, charges, LANE_CONFIG)
        assert list(zip(coins, k, low)) == [result for result, _ in expected]
        # Sparse: lanes in order, and a charge only where the payoff is not epsilon.
        assert escalated == sorted(escalated) and [c[0] for c in charges] == sorted(
            lane for lane in escalated if low[lane] != LANE_CONFIG.epsilon)
        assert [gate.accessed_steps for gate in gates] == [steps for _, steps in expected]
        assert [gate.accessed_steps for gate in gates] == [[t] * coin for coin in coins]

    @pytest.mark.parametrize("score, loss, rho_t, error, message", [
        (math.nan, 0.0, 0.05, InvalidObservation, "not finite"),
        (-math.inf, 0.0, 0.05, InvalidObservation, "not finite"),
        (0.9, 1.5, 0.05, InvalidObservation, "outside"),
        (0.9, math.nan, 0.05, InvalidObservation, "outside"),
        # a rate above 1 shrinks the propensity bound below a sure escalation's estimate
        (0.9, 1.0, 2.0, WagerOutOfRange, "propensity bound"),
    ])
    def test_a_failed_check_names_the_lane_and_the_step(self, score, loss, rho_t, error,
                                                        message):
        # lane 0 stays cheap unless the rate is above 1, lane 1 escalates on loss 0
        case = (7, [0.2, 0.6, score], [0.9, 0.0, 0.0], [0.0, 0.0, loss], [0.5] * 3, rho_t)
        expected = route_lane_by_lane(*case, LANE_CONFIG)
        assert expected[-1][0] is error and len(expected) == 3
        t, scores, draws, losses, thresholds, _ = case
        gates = held_gates(t, losses)
        with pytest.raises(error, match="step 7 in lane 2") as info:
            route_lanes(t, scores, draws, lane_deployed(thresholds), rho_t, gates, LANE_CONFIG)
        assert message in str(info.value)
        assert [gate.accessed_steps for gate in gates] == [steps for _, steps in expected]

    def test_a_lane_that_escalates_on_loss_0_is_not_charged(self):
        # Lane 0 escalates surely, lanes 1 and 2 on a draw of 0 below their
        # threshold; only lane 2 observes a loss above 0.
        t, scores, losses = 4, [0.9, 0.2, 0.3], [0.0, 0.0, 1.0]
        gates = held_gates(t, losses)
        escalated, charges = route_lanes(t, scores, [0.5, 0.0, 0.0], lane_deployed([0.5] * 3),
                                         0.05, gates, LANE_CONFIG)
        assert escalated == [0, 1, 2]
        assert [lane for lane, _, _ in charges] == [2]
        assert [gate.accessed_steps for gate in gates] == [[t]] * 3

    @pytest.mark.parametrize("held, t", [([0.0, 1.0, 0.0, 0.0], 3), ([0.0, 1.0], 9)])
    def test_gate_refuses_a_step_outside_its_held_chunk(self, held, t):
        """Step 3 before a chunk held from step 5 would read the loss of step
        7 off the end; step 9 past it would fail on the list after counting."""
        gate = LossGate()
        gate.hold(5, held)
        with pytest.raises(LossGateViolation, match=f"step {t} outside the held steps 5 to"):
            gate.reveal(t, 1)
        assert gate.access_count == 0 and gate.accessed_steps == []

    def test_gate_reveals_held_losses_only_on_escalation(self):
        gate = LossGate()
        gate.hold(11, [0.0, 1.0, 0.25])
        assert gate.reveal(12, 1) == 1.0
        with pytest.raises(LossGateViolation, match="step 13"):
            gate.reveal(13, 0)
        assert gate.reveal(13, 1) == 0.25
        assert gate.accessed_steps == [12, 13]

    @pytest.mark.parametrize("t", [13, 12])
    def test_gate_opens_once_per_step_in_order(self, t):
        gate = LossGate()
        gate.hold(11, [0.0, 1.0, 0.25])
        gate.reveal(13, 1)
        with pytest.raises(LossGateViolation, match=f"step {t} after the gate opened at step 13"):
            gate.reveal(t, 1)
        with pytest.raises(LossGateViolation, match="after the gate opened at step 13"):
            gate.observe(make_obs(t), 1)
        assert gate.access_count == 1


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


@st.composite
def parity_cases(draw):
    interior = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6,
                             unique=True))
    values = np.array([0.0, *sorted(interior), 1.0])
    mode = draw(st.sampled_from(list(SelectionMode)))
    prior = None
    if mode is SelectionMode.MIXTURE:
        mass = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=values.size,
                                      max_size=values.size)))
        prior = Prior(mass=mass / mass.sum())
    schedule = TwoStageSchedule(rho_warm=0.7,
                                rho_deploy=draw(st.sampled_from([0.05, 0.3])),
                                t_warm=draw(st.integers(0, 12)))
    config = RouterConfig(epsilon=draw(st.sampled_from([0.05, 0.08, 0.25])),
                          alpha=draw(st.sampled_from([0.1, 0.5])),
                          selection_mode=mode, prior=prior,
                          grid=ThresholdGrid(values=values), schedule=schedule)
    fixed_wager = None
    if draw(st.booleans()):
        worst = max(payoff_bound(config.epsilon, schedule.rho_min, r)
                    for r in schedule.emitted_rates())
        fixed_wager = draw(st.floats(0.0, 0.99 / worst))
    score = st.one_of(st.sampled_from(list(values)), st.floats(-0.5, 1.5))
    loss = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    observations = draw(st.lists(st.tuples(score, loss), min_size=1, max_size=40))
    return config, fixed_wager, observations, draw(st.integers(0, 2**32 - 1))


def certified_index(config, shadows) -> int:
    """Deployed index by a plain scan of the accounts' log-wealth against the bars."""
    log_wealth = [shadow.log_wealth for shadow in shadows]
    if config.selection_mode is SelectionMode.MIXTURE:
        bars = -(math.log(config.alpha) + np.log(config.prior.mass))
        over = [i for i, (w, bar) in enumerate(zip(log_wealth, bars)) if w >= bar]
        return over[-1] if over else 0
    prefix = 0
    while prefix < len(log_wealth) and log_wealth[prefix] >= -math.log(config.alpha):
        prefix += 1
    return max(prefix - 1, 0)


def capped_widths():
    """The engine's gate on the capped prefix, then a gate of 1, which takes
    the capped path on every grid: each a context to settle under."""
    return (mock.patch.object(bpac.engine, "CAPPED_WIDTH", width) for width in (CAPPED_WIDTH, 1))


class TestSettlementParity:
    @settings(deadline=None)
    @given(case=parity_cases())
    def test_table_matches_scalar_replay_every_step(self, case):
        """The fused in-place kernel equals a per-account scalar replay bit for
        bit, with the capped path gated as the engine gates it and taken on
        every grid."""
        for width in capped_widths():
            with width:
                self.replay(*case)

    @staticmethod
    def replay(config, fixed_wager, observations, seed):
        grid = config.grid.values
        rho_min = config.schedule.rho_min
        state = RouterState.fresh(config, rng=seed, fixed_wager=fixed_wager)
        gate = LossGate()
        shadows = [ThresholdAccount() for _ in grid]
        for t, (score, loss) in enumerate(observations, start=1):
            live = int(np.count_nonzero(state.table.sum_payoff > 0.0))
            m_t = payoff_bound(config.epsilon, rho_min, rho_at(config.schedule, t))
            decision, state = step(state, make_obs(t, score, loss), gate)
            for i, shadow in enumerate(shadows):
                lam = (adaptive_lambda(shadow, m_t, config.betting_cap)
                       if fixed_wager is None else fixed_wager)
                d = ips_payoff(decision.observed_loss, decision.coin,
                               decision.propensity, score, grid[i], rho_min,
                               config.epsilon)
                update_account(shadow, lam, d)
            acc = state.table
            for name in ("log_wealth", "sum_payoff", "sum_payoff_sq", "last_lambda"):
                expected = [getattr(shadow, name) for shadow in shadows]
                assert np.array_equal(bits(getattr(acc, name)), bits(expected)), name
            assert np.all(np.diff(acc.sum_payoff) <= 0.0)
            if fixed_wager is None:
                assert np.array_equal(bits(acc.last_lambda[live:]),
                                      bits(np.zeros(grid.size - live)))
            assert state.deployed_index == certified_index(config, shadows)


def reference_settle(shadow, k, high, low, m_t, cap):
    """One adaptive step of the reference arithmetic on a G-point ThresholdAccount."""
    n = shadow.sum_payoff.size
    update_account(shadow, adaptive_lambda(shadow, m_t, cap),
                   np.where(np.arange(n) < k, high, low))


def assert_same_bits(table_acc, row, single_acc):
    for name in ("log_wealth", "sum_payoff", "sum_payoff_sq", "last_lambda"):
        got = getattr(table_acc, name)
        got = got if row is None else got[row]
        assert np.array_equal(bits(got), bits(getattr(single_acc, name))), name


def row_charges(splits, epsilon):
    """A table's charges for one ``(k, low)`` split per row, sparse as
    ``route_lanes`` gives them: only the rows whose ``low`` is not epsilon."""
    return [(r, k, low) for r, (k, low) in enumerate(splits) if low != epsilon]


class TestAccountTable:
    RHO = 0.05
    M_T = payoff_bound(EPS, RHO_MIN, RHO)
    # {step: (k, low)} charges per row; every other step pays epsilon everywhere.
    CHARGES = [
        {3: (6, -1.0), 5: (2, -1.0)},   # live prefix 8 -> 6 -> 2, then regrows
        {4: (4, -2.0), 30: (1, -3.0)},  # 8 -> 4 -> 8 -> 1 -> 8
        {},                             # stays fully live
    ]

    def config(self):
        return RouterConfig(grid=ThresholdGrid(values=np.linspace(0.0, 1.0, 8)),
                            schedule=ConstantSchedule(0.05))

    @pytest.mark.parametrize("rows", [None, 3])
    def test_live_prefix_shrinks_and_regrows(self, rows):
        """Clearing only the stale tail of the wager buffer leaves exact
        zeros, and ``last_lambda`` stays one array over the run."""
        config = self.config()
        charges = self.CHARGES[:1] if rows is None else self.CHARGES
        table = AccountTable(config, rows)
        held = table.last_lambda
        shadows = [account_table(8) for _ in charges]
        prefixes = [[] for _ in charges]
        for t in range(1, 90):
            splits = [plan.get(t, (8, EPS)) for plan in charges]
            live = [int(np.count_nonzero(s.sum_payoff > 0.0)) for s in shadows]
            for r, (k, low) in enumerate(splits):
                reference_settle(shadows[r], k, EPS, low, self.M_T, config.betting_cap)
                prefixes[r].append(live[r])
            if rows is None:
                (k, low), = splits
                table.settle((k, low), self.RHO)
            else:
                table.settle(row_charges(splits, EPS), self.RHO)
            assert table.last_lambda is held
            for r, shadow in enumerate(shadows):
                assert_same_bits(table, None if rows is None else r, shadow)
                lam = np.asarray(table.last_lambda).reshape(len(charges), 8)[r]
                assert np.array_equal(bits(lam[live[r]:]), bits(np.zeros(8 - live[r])))
        assert prefixes[0][:7] == [0, 8, 8, 6, 6, 2, 2]
        assert max(prefixes[0][7:]) == 8
        if rows is not None:
            assert 1 in prefixes[1] and prefixes[1][-1] == 8

    @pytest.mark.parametrize("rows", [None, 3])
    def test_ruin_in_one_row_raises_before_any_row_changes(self, rows):
        """0.04 * -30 <= -1 passes the single run's scalar pre-check and fails
        its array check; a table charges one row and checks every row."""
        table = AccountTable(self.config(), rows, fixed_wager=0.04)
        if rows is None:
            table.settle((8, EPS), self.RHO)
        else:
            table.settle([], self.RHO)
        before = {name: getattr(table, name).copy()
                  for name in ("log_wealth", "sum_payoff", "sum_payoff_sq", "last_lambda")}
        with pytest.raises(WagerOutOfRange):
            if rows is None:
                table.settle((0, -30.0), self.RHO)
            else:
                table.settle([(1, 0, -30.0)], self.RHO)
        for name, value in before.items():
            assert np.array_equal(getattr(table, name), value), name

    def test_a_payoff_above_epsilon_is_refused_before_any_row_changes(self):
        """The held extent bound is exact only because no payoff exceeds
        epsilon, so a table refuses one, naming its row."""
        table = AccountTable(self.config(), 3)
        table.settle([], self.RHO)
        before = {name: getattr(table, name).copy()
                  for name in ("log_wealth", "sum_payoff", "sum_payoff_sq", "last_lambda")}
        for payoff in (EPS + 1e-9, math.nan):
            with pytest.raises(ValueError, match="of row 1 is above epsilon"):
                table.settle([(1, 2, payoff), (2, 0, -1.0)], self.RHO)
            for name, value in before.items():
                assert np.array_equal(bits(getattr(table, name)), bits(value)), name

    def test_ruin_pre_check_alone_does_not_raise(self):
        """A payoff that would ruin the largest allowed wager settles when the
        wagers it meets are smaller."""
        config = self.config()
        table = AccountTable(config)
        shadow = account_table(8)
        # At rate 0.7 m_t is about 1.28 and the cap allows wagers up to about
        # 0.70; after one step every wager is about 0.08, so -2 * 0.70 <= -1
        # but -2 * 0.08 > -1.
        m_t = payoff_bound(EPS, RHO_MIN, 0.7)
        assert -2.0 * config.betting_cap / m_t <= -1.0
        for k, low in [(8, EPS), (3, -2.0)]:
            table.settle((k, low), 0.7)
            reference_settle(shadow, k, EPS, low, m_t, config.betting_cap)
            assert_same_bits(table, None, shadow)

    # At rate 0.7 the top wager is about 0.70. Step 1 charges point 7 while
    # nothing bets, so it stays dead; twelve uncharged steps cap every live
    # wager; a charge of -0.5 from point 5 on leaves points 5 and 6 betting
    # about 0.35. Then every ``low`` below is at most -1 / top: a split in
    # the capped block [0, 5) ruins, and past it only a large enough one.
    RUIN_WARMUP = [(7, -1.0)] + [(8, EPS)] * 12 + [(5, -0.5)]
    RUIN_PROBES = [(6, -2.0), (5, -3.5), (2, -2.0), (5, -2.0), (6, -30.0), (0, -2.0),
                   (8, EPS), (4, -2.0)]
    RUIN_ROW_PROBES = [[(0, 6, -2.0)], [(0, 5, -3.5), (2, 2, -2.0)],
                       [(1, 5, -2.0), (2, 6, -2.0)], [(0, 6, -30.0)], [(1, 0, -2.0)], [],
                       [(0, 4, -2.0), (1, 7, -30.0)]]

    def settle_or_ruin(self, table, shadows, charges):
        """Settle one step of ``charges`` (a single run's ``(k, low)``, or a
        table's ``(row, k, low)`` list) at rate 0.7, and hold the table to the
        reference: if some row's reference step would ruin an account, the
        table raises the reference's message and changes nothing, else both
        settle to the same bits. Returns whether it raised."""
        m_t, cap = payoff_bound(EPS, RHO_MIN, 0.7), table.cap
        if table._rows is None:
            splits = [charges]
        else:
            splits = [(8, EPS)] * len(shadows)
            for r, k, low in charges:
                splits[r] = (k, low)
        worst = min(float(np.min(adaptive_lambda(shadow, m_t, cap)
                                 * np.where(np.arange(8) < k, EPS, low)))
                    for shadow, (k, low) in zip(shadows, splits))
        if worst > -1.0:
            table.settle(charges, 0.7)
            for r, (shadow, (k, low)) in enumerate(zip(shadows, splits)):
                reference_settle(shadow, k, EPS, low, m_t, cap)
                assert_same_bits(table, None if table._rows is None else r, shadow)
            return False
        names = ("log_wealth", "sum_payoff", "sum_payoff_sq", "last_lambda")
        before = [getattr(table, name).copy() for name in names]
        extent = table.extent
        with pytest.raises(WagerOutOfRange) as raised:
            table.settle(charges, 0.7)
        assert str(raised.value) == f"wealth factor would drop to {1.0 + worst:.3g}"
        for name, value in zip(names, before):
            assert np.array_equal(bits(getattr(table, name)), bits(value)), name
        assert table.extent == extent
        return True

    def test_the_adaptive_ruin_guard_raises_only_on_ruin(self):
        """A single run, with the capped path gated as the engine gates it and
        taken on every grid: charges whose ``low * top <= -1`` split the grid
        in the capped block, past it and past the live prefix. Those whose
        largest wager past the split survives settle like the reference
        replay bit for bit; the rest raise its message and change nothing,
        ``last_lambda`` and ``extent`` included, and the run goes on."""
        config = self.config()
        top = config.betting_cap / payoff_bound(EPS, RHO_MIN, 0.7)
        for width in capped_widths():
            with width:
                table, shadow, seen = AccountTable(config), account_table(8), set()
                for k, low in self.RUIN_WARMUP:
                    self.settle_or_ruin(table, [shadow], (k, low))
                for k, low in self.RUIN_PROBES:
                    c = capped_prefix(shadow.sum_payoff, shadow.sum_payoff_sq, top)
                    a = live_prefix(shadow.sum_payoff)
                    raised = self.settle_or_ruin(table, [shadow], (k, low))
                    seen.add((k < c, c <= k < a, raised))
        assert all(low * top <= -1.0 for k, low in self.RUIN_PROBES if k < 8)
        assert {(True, False, True), (False, True, True), (False, True, False),
                (False, False, False)} <= seen

    def test_the_adaptive_ruin_guard_of_a_table_checks_every_charged_row(self):
        """A table of 3 rows: a step ruins if any charged row's largest wager
        past its split ruins, and then raises the smallest growth factor of
        all of them; a row charged past its own live prefix, inside the held
        bound, survives any ``low``."""
        table, shadows = AccountTable(self.config(), 3), [account_table(8) for _ in range(3)]
        for k, low in self.RUIN_WARMUP:
            self.settle_or_ruin(table, shadows, [(r, k, low) for r in range(3) if low != EPS])
        raised = [self.settle_or_ruin(table, shadows, charges)
                  for charges in self.RUIN_ROW_PROBES]
        assert raised == [False, True, False, False, True, False, True]


@st.composite
def table_cases(draw):
    n = draw(st.integers(3, 8))
    rows = draw(st.integers(2, 5))
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05,
                                t_warm=draw(st.integers(0, 10)))
    config = RouterConfig(epsilon=draw(st.sampled_from([0.05, 0.08, 0.25])),
                          grid=ThresholdGrid(values=np.linspace(0.0, 1.0, n)),
                          schedule=schedule)
    fixed_wager = None
    if draw(st.booleans()):
        worst = max(payoff_bound(config.epsilon, schedule.rho_min, r)
                    for r in schedule.emitted_rates())
        fixed_wager = draw(st.floats(0.0, 0.99 / worst))
    horizon = draw(st.integers(1, 30))
    plan = []
    for t in range(1, horizon + 1):
        top = (1.0 - schedule.rho_min) / rho_at(schedule, t)
        charge = st.one_of(st.just(0.0), st.just(top), st.floats(0.0, top))
        plan.append([(draw(st.integers(0, n)), config.epsilon - draw(charge))
                     for _ in range(rows)])
    return config, fixed_wager, plan


def settle_every_row_and_compare(config, fixed_wager, plan, check=None):
    """Settle a table and one single-run table per row on ``plan``. After
    every step both hold the same bits, each row's adaptive wagers are
    exactly 0 past its live prefix, both deploy the same indices, and
    ``check(table)`` holds if given."""
    rows = len(plan[0])
    table = AccountTable(config, rows, fixed_wager=fixed_wager)
    singles = [AccountTable(config, fixed_wager=fixed_wager) for _ in range(rows)]
    for t, splits in enumerate(plan, start=1):
        rho_t = rho_at(config.schedule, t)
        live = np.count_nonzero(table.sum_payoff > 0.0, axis=1)
        table.settle(row_charges(splits, config.epsilon), rho_t)
        for r, (single, (k, low)) in enumerate(zip(singles, splits)):
            single.settle((k, low), rho_t)
            assert_same_bits(table, r, single)
            if fixed_wager is None:
                tail = table.last_lambda[r, live[r]:]
                assert np.array_equal(bits(tail), bits(np.zeros(tail.size)))
        assert table.select() == [single.select() for single in singles]
        if check is not None:
            assert check(table)


class TestTableParity:
    @settings(deadline=None)
    @given(case=table_cases())
    def test_one_table_call_equals_one_call_per_row(self, case):
        """An R-row kernel call equals R single-run calls bit for bit."""
        settle_every_row_and_compare(*case)


def first_gaps(log_wealth: np.ndarray, bar: float) -> list[int]:
    """Each row's first grid point below the bar, by a scan of the whole grid;
    the grid size when there is none."""
    below = np.atleast_2d(log_wealth) < bar
    return [int(row.argmax()) if row.any() else row.size for row in below]


@st.composite
def gap_cases(draw):
    """A table, a config whose bar a run can clear within a few dozen steps,
    and a plan of (k, low) splits per step and row: uncharged steps, charges
    with 0 <= low < epsilon, charges down to the worst payoff, and splits at
    0 and n."""
    n = draw(st.integers(1, 8))
    rows = draw(st.sampled_from([None, 1, 3, 7]))
    horizon = draw(st.integers(1, 40))
    # The warmup may end at any step of the run, or after it.
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05,
                                t_warm=draw(st.integers(0, horizon)))
    config = RouterConfig(epsilon=draw(st.sampled_from([0.08, 0.25])),
                          alpha=draw(st.sampled_from([0.5, 0.9])),
                          grid=ThresholdGrid(values=np.linspace(0.0, 1.0, n)),
                          schedule=schedule)
    fixed_wager = None
    if draw(st.booleans()):
        worst = max(payoff_bound(config.epsilon, schedule.rho_min, r)
                    for r in schedule.emitted_rates())
        fixed_wager = draw(st.floats(0.0, 0.99 / worst))
    split = st.one_of(st.just(0), st.just(n), st.integers(0, n))
    plan = []
    for t in range(1, horizon + 1):
        top = (1.0 - schedule.rho_min) / rho_at(schedule, t)
        charge = st.one_of(st.just(0.0), st.floats(0.0, config.epsilon), st.just(top),
                           st.floats(0.0, top))
        row = []
        for _ in range(rows or 1):
            # Most splits pay epsilon everywhere, so wealth can clear the bar.
            low = config.epsilon - draw(charge) if draw(st.booleans()) else config.epsilon
            row.append((draw(split), low))
        plan.append(row)
    return config, fixed_wager, rows, plan


def gap_moves_back(rows):
    """Every row certifies the whole grid on uncharged steps; at step 12 a
    charge from grid point 1 on moves row 0's gap back from 5 to 1."""
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05, t_warm=20)
    config = RouterConfig(epsilon=0.25, alpha=0.5, schedule=schedule,
                          grid=ThresholdGrid(values=np.linspace(0.0, 1.0, 5)))
    plan = [[(5, 0.25)] * (rows or 1) for _ in range(30)]
    plan[11][0] = (1, 0.25 - 0.95 / 0.7)
    return config, None, rows, plan


@settings(deadline=None)
@given(case=gap_cases())
@example(case=gap_moves_back(None))
@example(case=gap_moves_back(3))
def test_carried_gap_equals_a_scan_of_the_whole_grid(case):
    """After every settle, the gap the table carries, and the index it
    selects, equal a fresh scan of its log-wealth."""
    config, fixed_wager, rows, plan = case
    table = AccountTable(config, rows, fixed_wager=fixed_wager)
    bar = -math.log(config.alpha)
    for t, splits in enumerate(plan, start=1):
        if rows is None:
            charges, = splits
        else:
            charges = row_charges(splits, config.epsilon)
        table.settle(charges, rho_at(config.schedule, t))
        log_wealth = table.log_wealth
        assert np.atleast_1d(table._gap).tolist() == first_gaps(log_wealth, bar)
        if rows is None:
            assert table.select() == fixed_sequence_index(log_wealth, bar)
        else:
            assert np.array_equal(table.select(), fixed_sequence_rows(log_wealth.T, bar))


def test_a_gap_that_never_moves_back_fails(monkeypatch):
    """A mutant carry that ignores charges fails the property."""
    move_gap, move_gaps = AccountTable._move_gap, AccountTable._move_gaps
    monkeypatch.setattr(AccountTable, "_move_gap",
                        lambda table, k, low, a: move_gap(table, k, abs(low), a))
    monkeypatch.setattr(AccountTable, "_move_gaps",
                        lambda table, charged, a: move_gaps(table, [], a))
    with pytest.raises(AssertionError):
        test_carried_gap_equals_a_scan_of_the_whole_grid()


def test_a_charge_that_leaves_the_bar_cleared_moves_no_gap():
    """A charge with 0 <= low < epsilon gains every live account wealth, and
    a small one below 0 leaves it above the bar. Once every row has
    certified the whole grid, neither moves a gap, and ``select`` hands
    back the very list it did before."""
    config, _, rows, plan = gap_moves_back(3)
    table = AccountTable(config, rows)
    for t, splits in enumerate(plan[:11], start=1):
        table.settle(row_charges(splits, config.epsilon), rho_at(config.schedule, t))
    deployed = table.select()
    assert table._gap == [5, 5, 5] and deployed == [4, 4, 4]
    lows = [0.0, 0.1, math.nextafter(config.epsilon, 0.0), -1e-3]
    for t, low in enumerate(lows, start=12):
        table.settle([(0, 1, low), (1, 0, low), (2, 4, low)], rho_at(config.schedule, t))
        assert table._gap == [5, 5, 5] and table.select() is deployed
        assert np.all(table.log_wealth >= -math.log(config.alpha))


@st.composite
def hold_cases(draw):
    """A table of 1, 3 or 7 rows over a few hold windows, and a plan of
    (k, low) splits per step and row: mostly uncharged steps, so sums that
    dipped below 0 come back within a window, and charges from small ones
    to the worst payoff, with splits at 0 and n."""
    n = draw(st.integers(1, 8))
    rows = draw(st.sampled_from([1, 3, 7]))
    horizon = draw(st.integers(1, 3 * EXTENT_HOLD + 5))
    # The warmup may end inside any hold window, or after the run.
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05,
                                t_warm=draw(st.integers(0, horizon)))
    mode = draw(st.sampled_from(SelectionMode))
    prior = None
    if mode is SelectionMode.MIXTURE:
        mass = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        prior = Prior(mass=mass / mass.sum())
    config = RouterConfig(epsilon=draw(st.sampled_from([0.08, 0.25])),
                          alpha=draw(st.sampled_from([0.5, 0.9])), selection_mode=mode,
                          prior=prior, grid=ThresholdGrid(values=np.linspace(0.0, 1.0, n)),
                          schedule=schedule)
    fixed_wager = None
    if draw(st.booleans()):
        worst = max(payoff_bound(config.epsilon, schedule.rho_min, r)
                    for r in schedule.emitted_rates())
        fixed_wager = draw(st.floats(0.0, 0.99 / worst))
    split = st.one_of(st.just(0), st.just(n), st.integers(0, n))
    plan = []
    for t in range(1, horizon + 1):
        top = (1.0 - schedule.rho_min) / rho_at(schedule, t)
        charge = st.one_of(st.floats(0.0, 3 * config.epsilon), st.just(top),
                           st.floats(0.0, top))
        plan.append([(draw(split), config.epsilon - draw(charge) if draw(st.booleans())
                      else config.epsilon) for _ in range(rows)])
    return config, fixed_wager, plan


def hold_needs_its_margin(mode):
    """Step 1 charges every row from grid point 2 on, where nothing bets
    yet, and epsilon follows. With M = ``EXTENT_HOLD``, at the refresh
    before step M + 1 those sums sit at -(M - 2) epsilon, inside the margin
    of M epsilon; they turn positive after step 2M - 1 and bet at step 2M,
    the last step of the window that step M + 1 opens. The warmup ends
    inside that window too. Every sum is a multiple of 0.25, so no step
    rounds."""
    hold, eps = EXTENT_HOLD, 0.25
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05, t_warm=hold + 4)
    config = RouterConfig(epsilon=eps, alpha=0.5, schedule=schedule, selection_mode=mode,
                          prior=Prior.uniform(5) if mode is SelectionMode.MIXTURE else None,
                          grid=ThresholdGrid(values=np.linspace(0.0, 1.0, 5)))
    plan = [[(2, -(2 * hold - 3) * eps)] * 3] + [[(5, eps)] * 3] * (2 * hold + 17)
    return config, None, plan


@settings(deadline=None)
@given(case=hold_cases())
@example(case=hold_needs_its_margin(SelectionMode.FIXED_SEQUENCE))
@example(case=hold_needs_its_margin(SelectionMode.MIXTURE))
def test_a_held_bound_settles_like_one_run_per_row(case):
    """Holding one extent bound for ``EXTENT_HOLD`` steps changes no bit:
    after every step the table equals one single-run table per row."""
    settle_every_row_and_compare(*case)


def test_a_bound_held_without_its_margin_fails(monkeypatch):
    """A mutant that holds the live prefix itself, with no margin below
    zero, misses accounts whose sums come back above 0 within the window.
    It holds the whole grid while every sum is 0, so it settles the first
    window right and fails only on later ones."""
    def no_margin(table):
        live = (table.sum_payoff > 0.0).any(axis=0)
        if not table.sum_payoff.any():
            return live.size
        return int(live.nonzero()[0][-1]) + 1 if live.any() else 0

    monkeypatch.setattr(AccountTable, "_hold_extent", no_margin)
    with pytest.raises(AssertionError):
        test_a_held_bound_settles_like_one_run_per_row()
    # The worked example catches it on its own.
    with pytest.raises(AssertionError):
        settle_every_row_and_compare(*hold_needs_its_margin(SelectionMode.FIXED_SEQUENCE))


def test_a_block_refreshes_its_bound_once_per_hold(monkeypatch):
    """A T-step lockstep block searches the whole grid for its bound at
    most ceil(T / EXTENT_HOLD) times."""
    calls = []
    hold_extent = AccountTable._hold_extent

    def counting(table):
        calls.append(table)
        return hold_extent(table)

    monkeypatch.setattr(AccountTable, "_hold_extent", counting)
    horizon = 300
    mc_safety("bpac", RouterConfig(), uniform_linear(), horizon, 3)
    assert 0 < len(calls) <= math.ceil(horizon / EXTENT_HOLD)


@st.composite
def prefix_cases(draw):
    """A single-run table, on a one-point grid or a wider one, and a plan of
    (k, low) splits per step: uncharged steps, charges with 0 < low <
    epsilon and charges down to the worst payoff, with splits anywhere
    along the grid, so below, inside and past the live prefix."""
    n = draw(st.integers(1, 8))
    horizon = draw(st.integers(1, 40))
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05,
                                t_warm=draw(st.integers(0, horizon)))
    mode = draw(st.sampled_from(SelectionMode))
    config = RouterConfig(epsilon=draw(st.sampled_from([0.08, 0.25])), selection_mode=mode,
                          prior=Prior.uniform(n) if mode is SelectionMode.MIXTURE else None,
                          grid=ThresholdGrid(values=np.linspace(0.0, 1.0, n)),
                          schedule=schedule)
    fixed_wager = None
    if draw(st.booleans()):
        worst = max(payoff_bound(config.epsilon, schedule.rho_min, r)
                    for r in schedule.emitted_rates())
        fixed_wager = draw(st.floats(0.0, 0.99 / worst))
    plan = []
    for t in range(1, horizon + 1):
        top = (1.0 - schedule.rho_min) / rho_at(schedule, t)
        charge = st.one_of(st.floats(0.0, config.epsilon, exclude_min=True, exclude_max=True),
                           st.just(top), st.floats(0.0, top))
        low = config.epsilon - draw(charge) if draw(st.booleans()) else config.epsilon
        plan.append((draw(st.integers(0, n)), low))
    return config, fixed_wager, plan


def prefix_shrinks():
    """The first step pays epsilon everywhere, so the prefix jumps from 0 to
    5; a charge from point 2 on pulls it back to 2, a charge with 0 < low <
    epsilon keeps it, and uncharged steps regrow it."""
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.05, t_warm=2)
    config = RouterConfig(epsilon=0.25, grid=ThresholdGrid(values=np.linspace(0.0, 1.0, 5)),
                          schedule=schedule)
    plan = [(5, 0.25), (5, 0.25), (2, 0.25 - 0.95 / 0.7), (0, 0.1)] + [(5, 0.25)] * 12
    return config, None, plan


def capped_block_moves():
    """Under the capped path on every grid, a 5-point grid whose capped
    prefix is empty for the first steps, then the whole live prefix, then
    shrinks to 2 and to 0 under charges below it, regrows when the rate
    falls at step 13 and the top wager with it, and shrinks again; charges
    split the grid below, at and past the capped prefix and past the live
    one, and every ``low`` is at most -epsilon, so the shortcut stands."""
    schedule = TwoStageSchedule(rho_warm=0.7, rho_deploy=0.3, t_warm=12)
    config = RouterConfig(epsilon=0.25, grid=ThresholdGrid(values=np.linspace(0.0, 1.0, 5)),
                          schedule=schedule)
    worst = 0.25 - 0.7 / 0.3
    plan = ([(5, 0.25)] * 8 + [(2, -0.75), (5, 0.25), (0, -0.75), (5, 0.25), (3, -0.5),
                               (3, -0.5)]
            + [(5, 0.25)] * 3 + [(1, worst), (2, -0.5), (5, 0.25), (4, -0.5)])
    return config, None, plan


def sums_of_squares_dip():
    """Charges with 0 < low < epsilon from point 2 of a 3-point grid add less
    to ``sum_payoff_sq`` past the split than before it, so the sums of
    squares dip along the grid from the first step and the shortcut is
    off. After step 26 the ratio at point 1 is below the top wager and the
    ratio at point 2 above it: a capped prefix carried over the whole live
    prefix would pass its two-point check there and settle point 1 as if it
    bet the top wager."""
    config = RouterConfig(epsilon=0.25, betting_cap=0.6,
                          grid=ThresholdGrid(values=np.linspace(0.0, 1.0, 3)),
                          schedule=ConstantSchedule(0.7))
    return config, None, [(2, 0.2)] * 25 + [(1, -0.1), (3, 0.25)]


def settle_and_check_prefix(config, fixed_wager, plan):
    """Settle a single run's table on ``plan``. The live prefix it settles,
    carried from step to step, equals a search of the whole grid's sums
    before each step, or the whole grid under a fixed wager, and past it no
    wager is live. Where the table takes its capped prefix, that equals a
    search of the whole grid too, and the top wager is bet on it. While the
    shortcut stands, ``sum_payoff_sq`` never decreases along the grid."""
    table = AccountTable(config, fixed_wager=fixed_wager)
    n = config.grid.n
    for t, charges in enumerate(plan, start=1):
        rho_t = rho_at(config.schedule, t)
        expected = n if fixed_wager is not None else live_prefix(table.sum_payoff)
        capping = (fixed_wager is None and table._capping
                   and expected >= bpac.engine.CAPPED_WIDTH)
        if capping:
            top = config.betting_cap / payoff_bound(config.epsilon, config.schedule.rho_min,
                                                     rho_t)
            capped = capped_prefix(table.sum_payoff, table.sum_payoff_sq, top)
        table.settle(charges, rho_t)
        assert table.extent == expected
        assert not table.last_lambda[expected:].any()
        if capping:
            assert table._capped == capped
            assert np.all(table.last_lambda[:capped] == top)
        if table._capping:
            assert np.all(np.diff(table.sum_payoff_sq) >= 0.0)


@settings(deadline=None)
@given(case=prefix_cases())
@example(case=prefix_shrinks())
@example(case=capped_block_moves())
@example(case=sums_of_squares_dip())
def test_carried_live_prefix_equals_a_search_of_the_whole_grid(case):
    """The carried live prefix, and the carried capped prefix with the
    capped path gated as the engine gates it and taken on every grid."""
    for width in capped_widths():
        with width:
            settle_and_check_prefix(*case)


def test_a_prefix_that_never_moves_back_fails(monkeypatch):
    """A mutant carry that only ever moves the prefix forward fails the
    property, and the worked example catches it on its own."""
    monkeypatch.setattr(AccountTable, "_live_prefix",
                        lambda table, a: max(a, live_prefix(table.sum_payoff)))
    with pytest.raises(AssertionError):
        test_carried_live_prefix_equals_a_search_of_the_whole_grid()
    with pytest.raises(AssertionError):
        settle_and_check_prefix(*prefix_shrinks())


def test_the_capped_path_takes_the_bits_of_the_array_path():
    """What the capped path computes one value at a time equals what the
    array path computes for that value inside a long array, at any offset:
    ``np.log1p`` of ``top * epsilon`` and of ``top * low`` on a one-point
    array, for every rate the default schedule emits and losses across
    [0, 1]; and the ratio ``s1.item(j) / (s2.item(j) + 1.0)`` in Python
    floats against numpy's ``add`` then ``divide``."""
    config = RouterConfig()
    eps, rho_min = config.epsilon, config.schedule.rho_min
    rng = np.random.default_rng(5)
    for rho in config.schedule.emitted_rates():
        top = config.betting_cap / payoff_bound(eps, rho_min, rho)
        lows = [eps - (1.0 - rho_min) * (loss / pi) for loss in np.linspace(0.0, 1.0, 41)
                for pi in (rho, 1.0)]
        products = [top * eps] + [top * low for low in lows]
        assert np.array_equal(np.multiply(np.full(len(lows), top), lows), products[1:])
        one = np.empty(1)
        for x in products:
            one[0] = x
            np.log1p(one, one)
            for offset in (0, 1, 3, 8):
                block = rng.uniform(-0.5, 0.5, 4099 + offset)
                at = rng.integers(offset, block.size, 5)
                block[at] = x
                view = block[offset:]
                np.log1p(view, view)
                assert np.array_equal(bits(block[at]), bits(np.full(at.size, one[0])))

    s1 = np.concatenate([rng.uniform(0.0, 50.0, 5000), rng.uniform(-1.0, 1.0, 5000)])
    s2 = np.concatenate([rng.uniform(0.0, 100.0, 5000), rng.uniform(0.0, 1e-3, 5000)])
    for offset in (0, 1, 5):
        ratio = np.add(s2[offset:], 1.0)
        np.divide(s1[offset:], ratio, ratio)
        scalar = [s1.item(j) / (s2.item(j) + 1.0) for j in range(offset, s1.size)]
        assert np.array_equal(bits(ratio), bits(scalar))


def settle_against_reference(config, plan):
    """Settle a single run's table on ``plan`` with the capped path taken on
    every grid, and a G-point reference account beside it; both hold the
    same bits after every step. Returns ``(k, c, a)`` of each step that
    took its capped prefix."""
    table, shadow = AccountTable(config), account_table(config.grid.n)
    seen = []
    find = AccountTable._capped_prefix

    def recorded(table, a):
        c = find(table, a)
        seen.append((k, c, a))
        return c

    with (mock.patch.object(bpac.engine, "CAPPED_WIDTH", 1),
          mock.patch.object(AccountTable, "_capped_prefix", recorded)):
        for t, (k, low) in enumerate(plan, start=1):
            rho_t = rho_at(config.schedule, t)
            m_t = payoff_bound(config.epsilon, config.schedule.rho_min, rho_t)
            reference_settle(shadow, k, config.epsilon, low, m_t, config.betting_cap)
            table.settle((k, low), rho_t)
            assert_same_bits(table, None, shadow)
    return seen


def test_the_capped_path_meets_every_kind_of_split():
    """The worked example settles like the reference while its capped
    prefix is empty, partial and the whole live prefix, and its splits fall
    below, at and past the capped prefix and past the live one."""
    seen = settle_against_reference(*capped_block_moves()[::2])
    kinds = {(c == 0, c == a, k < c, k == c, c < k < a, a <= k) for k, c, a in seen}
    assert {(True, False), (False, False), (False, True)} <= {kind[:2] for kind in kinds}
    assert all(any(kind[i] for kind in kinds) for i in range(2, 6))


def test_sums_of_squares_that_dip_turn_the_shortcut_off():
    """After a charge with 0 < low < epsilon the run never takes its capped
    prefix again, and it still settles like the reference."""
    assert settle_against_reference(*sums_of_squares_dip()[::2]) == []


def test_a_capped_prefix_that_never_moves_back_fails(monkeypatch):
    """A mutant carry that only ever moves the capped prefix forward settles
    log-wealth at the top wager where the ratio fell below it: the reference
    replay, the search of the whole grid and the property all catch it."""
    find = AccountTable._capped_prefix

    def forward(table, a):
        carried = min(table._capped, a)
        table._capped = max(carried, find(table, a))
        return table._capped

    monkeypatch.setattr(AccountTable, "_capped_prefix", forward)
    with pytest.raises(AssertionError):
        settle_against_reference(*capped_block_moves()[::2])
    with pytest.raises(AssertionError):
        with mock.patch.object(bpac.engine, "CAPPED_WIDTH", 1):
            settle_and_check_prefix(*capped_block_moves())
    with pytest.raises(AssertionError):
        test_carried_live_prefix_equals_a_search_of_the_whole_grid()


def test_a_shortcut_that_ignores_dipping_sums_of_squares_fails(monkeypatch):
    """A mutant that keeps the shortcut after a fractional charge trusts a
    carried capped prefix whose ratios no longer fall along the grid, and
    settles point 1 of the worked example as if it bet the top wager."""
    monkeypatch.setattr(AccountTable, "_capping",
                        property(lambda table: True, lambda table, value: None), raising=False)
    with pytest.raises(AssertionError, match="^log_wealth"):
        settle_against_reference(*sums_of_squares_dip()[::2])
