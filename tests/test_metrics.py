"""Operational metric accounting: frozen values, the call/throughput identity,
and the zero-token guard."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpac import RouterConfig, RouterState, step
from bpac.core import StreamObservation
from bpac.engine import Decision, LossGate
from bpac.metrics import MetricAccumulator


def make_decision(xi: int, loss: float | None = None) -> Decision:
    return Decision(
        propensity=1.0 if xi else 0.05,
        coin=xi,
        observed_loss=loss if xi else None,
        threshold_used=0.5,
    )


def make_obs(index: int, loss: float = 0.0,
             cheap: int = 100, expensive: int = 500) -> StreamObservation:
    return StreamObservation(
        index=index,
        uncertainty=0.5,
        latent_loss=loss,
        tokens_cheap=cheap,
        tokens_expensive=expensive,
    )


class TestFrozenValues:
    def test_two_step_book(self):
        # step 1 escalates, step 2 stays cheap; tokens 100 / 500
        acc = MetricAccumulator()
        acc.update(make_decision(1, loss=1.0), make_obs(1, loss=1.0))
        acc.update(make_decision(0), make_obs(2, loss=0.5))
        assert acc.ecp == pytest.approx(0.5)
        # throughput: (2 * 100 cheap + 500 escalated) / (2 * 500)
        assert acc.tp == pytest.approx(0.7)
        # realized risk counts only the cheap step's latent loss
        assert acc.er == pytest.approx(0.25)

    def test_escalated_loss_never_realized(self):
        acc = MetricAccumulator()
        acc.update(make_decision(1, loss=1.0), make_obs(1, loss=1.0))
        assert acc.er == 0.0

    def test_all_cheap_premium_is_token_ratio(self):
        acc = MetricAccumulator()
        for t in range(1, 11):
            acc.update(make_decision(0), make_obs(t))
        assert acc.ecp == 0.0
        assert acc.tp == pytest.approx(100 / 500)


class TestIdentity:
    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_tp_equals_ecp_plus_inverse_ratio(self, rows):
        # with constant per-arm token counts the premium identity
        # tp == ecp + 1/S is exact bookkeeping, S the expensive/cheap ratio
        acc = MetricAccumulator()
        for t, (xi, loss) in enumerate(rows, start=1):
            acc.update(make_decision(xi, loss=loss if xi else None),
                       make_obs(t, loss=loss))
        s_ratio = 500 / 100
        assert abs(acc.tp - (acc.ecp + 1.0 / s_ratio)) <= 1e-12

    def test_identity_from_engine_run(self):
        config = RouterConfig()
        state = RouterState.fresh(config)
        gate = LossGate()
        rng = np.random.default_rng(7)
        acc = MetricAccumulator()
        for t in range(1, 301):
            obs = StreamObservation(
                index=t,
                uncertainty=float(rng.random()),
                latent_loss=float(rng.random() < 0.4),
                tokens_cheap=100,
                tokens_expensive=500,
            )
            decision, state = step(state, obs, gate)
            acc.update(decision, obs)
            assert abs(acc.tp - (acc.ecp + 0.2)) <= 1e-12


class TestGuards:
    def test_zero_expensive_tokens_give_nan_tp(self):
        acc = MetricAccumulator()
        acc.update(make_decision(0), make_obs(1, expensive=0))
        assert math.isnan(acc.tp)

    def test_empty_accumulator(self):
        acc = MetricAccumulator()
        assert acc.t == 0
        assert acc.ecp == 0.0
        assert acc.er == 0.0
        assert math.isnan(acc.tp)
