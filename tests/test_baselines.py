import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpac import (
    ConfigError,
    ConstantSchedule,
    InvalidObservation,
    LossGate,
    MeanState,
    OutOfOrderObservation,
    RouterConfig,
    StreamObservation,
    ThresholdGrid,
    generate_event,
    hoeff_slack,
    mean_step,
    uniform_linear,
)
from bpac.baselines import _mean_index
from reference import mean_index

VARIANTS = [None, "per_point", "union_over_grid"]


def make_obs(index=1, uncertainty=0.5, loss=0.0):
    return StreamObservation(index=index, uncertainty=uncertainty,
                             latent_loss=loss, tokens_cheap=100,
                             tokens_expensive=500)


class TestNaiveSelect:
    def test_no_observed_losses_deploys_top(self):
        assert mean_index(np.zeros(3), 10, 0.08, 0.0) == 2

    def test_largest_qualifying_mean(self):
        sums = np.array([0.0, 0.4, 1.2])  # means 0, 0.04, 0.12 at t=10
        assert mean_index(sums, 10, 0.08, 0.0) == 1

    def test_nothing_qualifies(self):
        sums = np.array([2.0, 3.0, 4.0])
        assert mean_index(sums, 10, 0.08, 0.0) == 0

    # Charges from a few values make ties between grid points and with the
    # budget; a slack of 0 is o_naive's.
    @settings(deadline=None, max_examples=300)
    @given(n=st.integers(1, 40),
           charges=st.lists(st.tuples(st.integers(0, 40),
                                      st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.9, 3.7])),
                            max_size=30),
           t=st.integers(1, 50),
           epsilon=st.sampled_from([0.0, 0.05, 0.08, 0.125, 0.5]),
           slack=st.sampled_from([0.0, 0.0, 0.03, 0.08, 2.0]))
    @example(n=3, charges=[(0, 5.0)], t=10, epsilon=0.08, slack=0.0)  # none qualifies
    def test_prefix_search_equals_last_qualifying_index(self, n, charges, t, epsilon, slack):
        sums = np.zeros(n)
        for k, amount in charges:
            sums[k:] += amount
        hits = np.flatnonzero(sums / t + slack <= epsilon)
        assert mean_index(sums, t, epsilon, slack) == (int(hits[-1]) if hits.size else 0)


class TestSteppedSelect:
    """``mean_step`` walks from the previous index to the one a search of the
    whole grid finds."""

    @staticmethod
    def walk(n, steps, epsilon):
        """Stepped and searched indices after each (k, amount, slack) step."""
        sums, index, pairs = np.zeros(n), 0, []
        for t, (k, amount, slack) in enumerate(steps, start=1):
            sums[k:] += amount
            index = _mean_index(sums, t, epsilon, slack, index)
            pairs.append((index, mean_index(sums, t, epsilon, slack)))
        return pairs

    def test_walks_down_and_reaches_both_ends(self):
        # All pass at first, a charge on [2, 6) drops the index below it, a
        # slack of 2 fails every point, and a slack of 0 passes every point
        # again once the means have decayed.
        steps = [(6, 0.0, 0.0), (2, 1.0, 0.0), (6, 0.0, 0.0), (6, 0.0, 2.0)]
        steps += [(6, 0.0, 0.0)] * 30
        pairs = self.walk(6, steps, 0.08)
        assert all(stepped == searched for stepped, searched in pairs)
        indices = [stepped for stepped, _ in pairs]
        assert indices[:4] == [5, 1, 1, 0]
        assert indices[-1] == 5

    # Slacks that change from step to step move the index both ways, and
    # jump it across the grid.
    @settings(deadline=None, max_examples=300)
    @given(n=st.integers(1, 40),
           steps=st.lists(st.tuples(st.integers(0, 40),
                                    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.9]),
                                    st.sampled_from([0.0, 0.0, 0.03, 0.08, 2.0])),
                          min_size=1, max_size=40),
           epsilon=st.sampled_from([0.0, 0.05, 0.08, 0.125, 0.5]))
    def test_walk_equals_a_search_of_the_whole_grid(self, n, steps, epsilon):
        for stepped, searched in self.walk(n, steps, epsilon):
            assert stepped == searched


class TestHoeffSelect:
    def test_frozen_slack_value(self):
        # t=100, alpha=0.1: alpha_t = 6*0.1/(pi^2*10^4) = 6.079e-6,
        # slack = 19*sqrt(log(1/alpha_t)/200) = 4.656
        alpha_t = 6 * 0.1 / (math.pi ** 2 * 100 ** 2)
        assert alpha_t == pytest.approx(6.0793e-6, rel=1e-4)
        assert hoeff_slack(100, 0.1, 0.05, 1) == pytest.approx(4.656, abs=1e-3)

    def test_slack_swamps_budget_so_zero_deploys(self):
        grid = ThresholdGrid.default()
        sums = np.zeros(grid.n)  # even zero means cannot qualify
        slack = hoeff_slack(100, 0.1, 0.05, 1)
        assert mean_index(sums, 100, 0.08, slack) == 0

    def test_union_variant_never_less_conservative(self):
        grid = ThresholdGrid.from_step(step=0.1)
        config = RouterConfig(grid=grid)
        per_point = MeanState.fresh(config, variant="per_point").slack_count
        union = MeanState.fresh(config, variant="union_over_grid").slack_count
        assert (per_point, union) == (1, grid.n)
        rng = np.random.default_rng(4)
        for t in (10, 100, 10**4, 10**6):
            sums = np.sort(rng.uniform(0, 0.01 * t, grid.n))
            i_point = mean_index(sums, t, 0.08, hoeff_slack(t, 0.1, 0.05, per_point))
            i_union = mean_index(sums, t, 0.08, hoeff_slack(t, 0.1, 0.05, union))
            assert i_union <= i_point

    def test_slack_shrinks_with_time(self):
        assert hoeff_slack(10**6, 0.1, 0.05, 1) < hoeff_slack(100, 0.1, 0.05, 1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            MeanState.fresh(RouterConfig(), variant="bonferroni")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unsorted_grid_rejected(self, variant):
        # the loss split is a searchsorted, meaningless on an unsorted grid
        config = RouterConfig(grid=ThresholdGrid(values=np.array([0.0, 0.9, 0.5, 1.0])))
        with pytest.raises(ConfigError):
            MeanState.fresh(config, variant=variant)


class TestBaselineSteps:
    def config(self):
        return RouterConfig(schedule=ConstantSchedule(0.05))

    @pytest.mark.usefixtures("gate_steps")
    def test_naive_one_coin_per_step(self):
        config = self.config()
        state = MeanState.fresh(config)
        gate = LossGate()
        spec = uniform_linear()
        rng = np.random.default_rng(8)
        for t in range(1, 151):
            decision, state = mean_step(state, generate_event(spec, rng, t), gate)
            assert decision.coin in (0, 1)
        assert gate.access_count == sum(1 for s in gate.accessed_steps)

    def test_naive_deploys_far_past_the_safe_boundary(self):
        # once a threshold deploys, the region below it starves (rho = 0.05
        # observation rate), the uncorrected means decay, and the selector
        # ratchets into unsafe territory; 0.411 is the oracle limit here
        config = self.config()
        state = MeanState.fresh(config)
        gate = LossGate()
        spec = uniform_linear()
        rng = np.random.default_rng(2)
        for t in range(1, 501):
            _, state = mean_step(state, generate_event(spec, rng, t), gate)
        assert config.grid.values[state.deployed_index] > 0.6

    def test_hoeff_stays_pinned_at_zero(self):
        config = self.config()
        state = MeanState.fresh(config, variant="per_point")
        gate = LossGate()
        spec = uniform_linear()
        rng = np.random.default_rng(2)
        for t in range(1, 501):
            _, state = mean_step(state, generate_event(spec, rng, t), gate)
        assert state.deployed_index == 0

    def test_uncorrected_increment_never_exceeds_ips(self):
        """With deployment pinned at u, every below-u observation enters the
        naive sum at l and the IPS sum at (1-rho) l / rho >= l (rho <= 1/2),
        so the naive estimate can only be the smaller one.
        """
        rho = 0.05
        rng = np.random.default_rng(6)
        u = 0.5
        naive_sum = ips_sum = 0.0
        for _ in range(2000):
            score = rng.uniform()
            loss = float(rng.random() < score)
            pi = 1.0 if score >= u else rho
            coin = int(rng.random() < pi)
            below = score < u
            if coin and below:
                naive_inc = loss
                ips_inc = (1 - rho) * loss / pi
                assert naive_inc <= ips_inc
                naive_sum += naive_inc
                ips_sum += ips_inc
        assert naive_sum <= ips_sum

    def test_shared_seed_gives_identical_streams(self):
        config = self.config()
        spec = uniform_linear()

        def coins(state):
            gate = LossGate()
            rng = np.random.default_rng(3)
            out = []
            for t in range(1, 101):
                d, state = mean_step(state, generate_event(spec, rng, t), gate)
                out.append(d.coin)
            return out

        a = coins(MeanState.fresh(config))
        b = coins(MeanState.fresh(config, variant="per_point"))
        # both deploy 0.0 initially, so both surely escalate at the start;
        # once thresholds diverge the coin sequences may too
        assert a[0] == b[0] == 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_score_on_grid_point_charges_only_candidates_above(self, variant):
        config = RouterConfig(schedule=ConstantSchedule(0.5),
                              grid=ThresholdGrid.from_step(step=0.5))
        state = MeanState.fresh(config, variant=variant)
        # deployed threshold 0: the first query surely escalates
        decision, state = mean_step(state, make_obs(1, 0.5, 1.0), LossGate())
        assert decision.coin == 1
        assert state.sums[0] == state.sums[1] == 0.0
        assert state.sums[2] > 0.0


class TestInvalidObservation:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected_before_the_coin(self, variant, score):
        # Regression: NaN compares false against every candidate, so 2000
        # steps of NaN with loss 1 used to charge no account and left
        # o_naive deploying threshold 1.0.
        state = MeanState.fresh(RouterConfig(), variant=variant)
        gate = LossGate()
        coins = state.rng.bit_generator.state
        for _ in range(2000):
            with pytest.raises(InvalidObservation):
                mean_step(state, make_obs(1, score, 1.0), gate)
        assert state.t == 0
        assert state.deployed_index == 0
        assert gate.access_count == 0
        assert state.rng.bit_generator.state == coins
        assert not np.any(state.sums)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("loss", [1.5, -0.1, math.nan])
    def test_loss_outside_unit_interval_rejected_after_the_gate(self, variant, loss):
        state = MeanState.fresh(RouterConfig(), variant=variant)
        gate = LossGate()
        # deployed threshold 0: the first query surely escalates
        with pytest.raises(InvalidObservation):
            mean_step(state, make_obs(1, 0.5, loss), gate)
        assert gate.access_count == 1
        assert state.t == 0
        assert not np.any(state.sums)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.usefixtures("gate_steps")
    def test_out_of_order_rejected(self, variant):
        # Regression: indices 7, 7, 3 used to be routed as steps 1, 2, 3.
        state = MeanState.fresh(RouterConfig(), variant=variant)
        gate = LossGate()
        for index in (7, 7, 3):
            with pytest.raises(OutOfOrderObservation):
                mean_step(state, make_obs(index, 0.5, 1.0), gate)
        assert state.t == 0
        assert gate.access_count == 0
        _, state = mean_step(state, make_obs(1, 0.5, 1.0), gate)
        with pytest.raises(OutOfOrderObservation):
            mean_step(state, make_obs(1, 0.5, 1.0), gate)
        assert gate.accessed_steps == [1]
