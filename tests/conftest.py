import numpy as np
import pytest

import bpac.baselines
import bpac.engine
import bpac.simulation
from bpac import ConstantSchedule, RouterConfig, ThresholdGrid, uniform_linear
from bpac.engine import LossGate, route, route_lanes


@pytest.fixture
def default_config():
    return RouterConfig()


@pytest.fixture
def constant_config():
    return RouterConfig(schedule=ConstantSchedule(0.05))


@pytest.fixture
def coarse_grid():
    return ThresholdGrid.from_step(step=0.25)


@pytest.fixture
def uniform_spec():
    return uniform_linear()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def gate_steps(monkeypatch):
    """Give every ``LossGate`` an ``accessed_steps`` list: the steps it opened at,
    in order. The gate itself keeps only a count and its last step."""
    opened = LossGate._open

    def recording(gate, t, coin):
        opened(gate, t, coin)
        gate.accessed_steps.append(t)

    monkeypatch.setattr(LossGate, "_open", recording)
    monkeypatch.setattr(LossGate, "accessed_steps",
                        property(lambda gate: gate.__dict__.setdefault("_steps", [])),
                        raising=False)


@pytest.fixture
def peeking_route(monkeypatch):
    """A known-invalid lane route for ``mc_safety``: it also reads the loss of
    the first lane that stayed cheap, which only the gate audit can see."""
    def peeking(t, scores, draws, deployed, rho_t, gates, config):
        escalated, charges = route_lanes(t, scores, draws, deployed, rho_t, gates, config)
        cheap = [lane for lane in range(len(gates)) if lane not in escalated]
        if cheap:
            gates[cheap[0]].reveal(t, 1)
        return escalated, charges

    monkeypatch.setattr(bpac.simulation, "route_lanes", peeking)


@pytest.fixture
def peeking_serial_route(monkeypatch):
    """A known-invalid ``route`` for serial runs of every method: on a step
    that stayed cheap it also reads the loss, which only the gate audit can
    see."""
    def peeking(obs, threshold_used, rho_t, rng, gate, config):
        out = route(obs, threshold_used, rho_t, rng, gate, config)
        if out[1] == 0:
            gate.observe(obs, 1)
        return out

    monkeypatch.setattr(bpac.engine, "route", peeking)
    monkeypatch.setattr(bpac.baselines, "route", peeking)
