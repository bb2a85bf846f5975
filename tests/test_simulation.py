"""Synthetic streams, risk oracles, replication harnesses, regret machinery.

Frozen oracle values below were computed independently first: for uniform
scores with linear loss steepness k, the deployed risk at threshold u is
(1 - rho) * k * u^2 / 2, so at k = 1, rho = 0.05 the budget 0.08 is first
exceeded at u = 0.411 on the default 1001-point lattice.
"""

import dataclasses
import json
import math
import multiprocessing.process
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpac.baselines
import bpac.engine
import bpac.simulation
from bpac.core import (
    ConfigError,
    ConstantSchedule,
    Prior,
    RouterConfig,
    SelectionMode,
    ThresholdGrid,
    TwoStageSchedule,
    deployment_rate,
    rho_at,
)
from bpac.baselines import MeanState
from bpac.engine import (AccountTable, InvalidObservation, LossGate, LossGateViolation,
                         OutOfOrderObservation, RouterState, adaptive_lambda, payoff_bound,
                         propensity, route, route_lanes, update_account)
from bpac.simulation import (
    LOSS_KINDS,
    BetaScore,
    ConstantLoss,
    ConstantTokens,
    LinearLoss,
    Method,
    NonStationarySpec,
    PowerLoss,
    RiskTracker,
    SpecError,
    StreamExhausted,
    StreamSegment,
    SyntheticStreamSpec,
    UniformScore,
    UniformTokens,
    UnknownMethod,
    _BLOCK_LOSSES,
    _draw,
    _segment_risk,
    easy_hard,
    generate_event,
    load_stream_spec,
    mc_safety,
    mean_loss_below,
    oracle_risk_grid,
    parse_method,
    pinned_threshold_study,
    regret_bound,
    regret_harness,
    replay_trace,
    run_replication,
    spec_from_dict,
    spec_to_dict,
    stream_events,
    uniform_linear,
    wilson_interval,
)
from reference import (StepRiskTracker, account_table, ips_payoff, oracle_threshold,
                       quad_mean_loss_below)


class TestSpecs:
    def test_segment_boundaries(self):
        spec = easy_hard(break_at=1000)
        assert spec.segment_index_at(1) == 0
        assert spec.segment_index_at(1000) == 0
        assert spec.segment_index_at(1001) == 1
        assert spec.total_length is None
        assert not spec.is_iid

    def test_bounded_spec_exhausts(self):
        spec = SyntheticStreamSpec(
            segments=(StreamSegment(length=5, score=UniformScore(),
                                    loss=LinearLoss()),))
        assert spec.total_length == 5
        spec.segment_at(5)
        with pytest.raises(StreamExhausted):
            spec.segment_at(6)

    def test_only_last_segment_open_ended(self):
        with pytest.raises(ValueError):
            SyntheticStreamSpec(segments=(
                StreamSegment(length=None, score=UniformScore(), loss=LinearLoss()),
                StreamSegment(length=10, score=UniformScore(), loss=LinearLoss()),
            ))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticStreamSpec(segments=())

    def test_generate_event_is_seed_deterministic(self):
        spec = easy_hard()
        a = [generate_event(spec, np.random.default_rng(11), t) for t in range(1, 51)]
        b = [generate_event(spec, np.random.default_rng(11), t) for t in range(1, 51)]
        assert a == b

    def test_event_fields_in_range(self):
        spec = uniform_linear()
        rng = np.random.default_rng(0)
        for t in range(1, 201):
            ev = generate_event(spec, rng, t)
            assert 0.0 <= ev.uncertainty <= 1.0
            assert ev.latent_loss in (0.0, 1.0)
            assert ev.tokens_cheap == 100 and ev.tokens_expensive == 500

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("law", [
        lambda x: BetaScore(x, 2.0),
        lambda x: BetaScore(2.0, x),
        lambda x: PowerLoss(degree=x),
    ], ids=["beta_a", "beta_b", "power_degree"])
    def test_non_finite_law_parameters_rejected(self, law, x):
        # NaN slips past a plain ``<= 0`` check, and a NaN oracle risk is
        # never above epsilon, so coverage could not fail.
        with pytest.raises(ValueError, match="finite"):
            law(x)

    def test_uniform_tokens_sampled_within_bounds(self):
        tok = UniformTokens(cheap_low=50, cheap_high=150,
                            expensive_low=400, expensive_high=600)
        rng = np.random.default_rng(3)
        for _ in range(100):
            c, e = tok.sample(rng)
            assert 50 <= c <= 150 and 400 <= e <= 600


class OtherScore:
    """A score law the spec reader cannot build."""


class OtherLoss:
    """A loss law the spec reader cannot build."""


class TestOracle:
    def test_frozen_risk_values(self):
        spec = uniform_linear()
        assert oracle_risk_grid(spec, 0.4, rho=0.05) == pytest.approx(0.076, abs=1e-12)
        assert oracle_risk_grid(spec, 1.0, rho=0.05) == pytest.approx(0.475, abs=1e-12)
        assert oracle_risk_grid(spec, 0.0, rho=0.05) == 0.0

    def test_frozen_boundary_threshold(self):
        spec = uniform_linear()
        u_star = oracle_threshold(spec, epsilon=0.08, rho=0.05,
                                  grid=ThresholdGrid.default())
        assert u_star == pytest.approx(0.411, abs=1e-12)

    def test_all_safe_grid_returns_none(self):
        spec = uniform_linear()
        # max deployed risk is 0.475 < 0.5, nothing on the grid can violate
        assert oracle_threshold(spec, epsilon=0.5, rho=0.05,
                                grid=ThresholdGrid.default()) is None

    def test_grid_risk_monotone(self):
        spec = uniform_linear()
        risks = oracle_risk_grid(spec, ThresholdGrid.default().values, rho=0.05)
        assert np.all(np.diff(risks) >= 0.0)
        assert risks[0] == 0.0

    def test_nonstationary_spec_rejected(self):
        with pytest.raises(NonStationarySpec):
            oracle_risk_grid(easy_hard(), 0.4, rho=0.05)

    @pytest.mark.parametrize("score,loss", [
        (UniformScore(), LinearLoss(kappa=1.0)),
        (UniformScore(0.1, 0.9), LinearLoss(kappa=0.7)),
        (UniformScore(), ConstantLoss(level=0.3)),
        (UniformScore(), PowerLoss(kappa=0.8, degree=3.0)),
        (BetaScore(2.0, 5.0), LinearLoss(kappa=1.0)),
        (BetaScore(2.0, 5.0), ConstantLoss(level=0.4)),
        (BetaScore(0.7, 0.7), PowerLoss(kappa=1.0, degree=2.0)),
    ])
    def test_closed_forms_match_quadrature(self, score, loss):
        us = np.array([0.0, 0.15, 0.35, 0.5, 0.65, 0.85, 1.0])
        closed = np.asarray(mean_loss_below(score, loss, us))
        quad = quad_mean_loss_below(score, loss, us)
        np.testing.assert_allclose(closed, quad, atol=5e-9, rtol=0)

    @pytest.mark.parametrize("score,loss,pair", [
        (UniformScore(), OtherLoss(), "UniformScore scores with OtherLoss losses"),
        (OtherScore(), LinearLoss(), "OtherScore scores with LinearLoss losses"),
    ])
    def test_other_law_pairs_are_refused(self, score, loss, pair):
        with pytest.raises(TypeError, match=pair):
            mean_loss_below(score, loss, 0.5)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30)
    def test_mean_loss_below_monotone_in_u(self, u):
        score, loss = UniformScore(), LinearLoss()
        assert mean_loss_below(score, loss, u) <= mean_loss_below(score, loss, 1.0) + 1e-15


def same_bits(a, b) -> bool:
    """Whether two floats or float arrays hold the same doubles, signed zeros included."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Segment laws for tracker cases: every score law and loss law kind.
TRACKER_LAWS = [(UniformScore(), LinearLoss(0.5)), (UniformScore(0.2, 0.9), ConstantLoss(0.3)),
                (BetaScore(2.0, 5.0), PowerLoss(0.8, 2.0)), (UniformScore(), LinearLoss(1.0))]


@st.composite
def tracker_cases(draw):
    """A spec, a schedule, the tracker's rows and weighting, and a wager seed.

    The first segment bound falls just before, at or just after ``t_warm``,
    and ``t_warm`` may be 0, 1 or past every step read."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    laws = [draw(st.sampled_from(TRACKER_LAWS)) for _ in lengths]
    if draw(st.booleans()):
        lengths.append(None)
        laws.append(draw(st.sampled_from(TRACKER_LAWS)))
    spec = SyntheticStreamSpec(tuple(StreamSegment(length, score, loss)
                                     for length, (score, loss) in zip(lengths, laws)))
    horizon = sum(length for length in lengths if length) + 4
    t_warm = draw(st.sampled_from([0, 1, lengths[0] - 1, lengths[0], lengths[0] + 1,
                                   horizon + 1]))
    schedule = draw(st.sampled_from([TwoStageSchedule(0.5, 0.05, t_warm),
                                     ConstantSchedule(0.1)]))
    rows = draw(st.sampled_from([None, 1, 3]))
    weighted = rows is not None or draw(st.booleans())
    return spec, schedule, horizon, rows, weighted, draw(st.integers(0, 2**16))


class TestRiskTracker:
    @given(tracker_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_carried_piece_equals_a_lookup_every_step(self, case, whole):
        """The tracker that carries one piece at a time equals the one that
        looks everything up every step, bit for bit, after every step; on a
        bounded spec both refuse the same first step past its end."""
        spec, schedule, horizon, rows, weighted, seed = case
        grid = ThresholdGrid(values=np.linspace(0.0, 1.0, 6))
        carried = RiskTracker(spec, schedule, grid, weighted=weighted, rows=rows)
        reference = StepRiskTracker(spec, schedule, grid, weighted=weighted, rows=rows)
        rng = np.random.default_rng(seed)
        n, lanes = grid.n, 1 if rows is None else rows
        for t in range(1, horizon + 1):
            wagers = None
            if weighted:
                # A leading block of wagers, or the whole grid with zeros
                # past its live prefix; either way +0.0 past some point.
                a = int(rng.integers(0, n + 1))
                wagers = np.zeros((n, lanes)).T
                wagers[:, :a] = rng.random((lanes, a)) * 0.1
                if not whole:
                    wagers = wagers[:, :a]
                if rows is None:
                    wagers = wagers[0]
            try:
                expected = reference.absorb(t, wagers)
            except StreamExhausted:
                with pytest.raises(StreamExhausted):
                    carried.absorb(t, wagers)
                assert t == spec.total_length + 1
                break
            assert same_bits(carried.absorb(t, wagers), expected)
            assert carried.steps == reference.steps == t
            names = ("risk_sum", "weight_sum", "weighted_risk_sum") if weighted else ("risk_sum",)
            for name in names:
                assert same_bits(getattr(carried, name), getattr(reference, name)), name
            if weighted:
                index = (int(rng.integers(0, n)) if rows is None
                         else rng.integers(0, n, rows).tolist())
                assert same_bits(carried.weighted_risk_at(index),
                                 reference.weighted_risk_at(index))
        else:
            assert spec.total_length is None or spec.total_length >= horizon

    @pytest.mark.parametrize("weighted", [False, True])
    def test_a_step_out_of_order_is_refused_before_any_sum_changes(self, weighted):
        spec, grid = easy_hard(break_at=3), ThresholdGrid.from_step(step=0.25)
        tracker = RiskTracker(spec, ConstantSchedule(0.05), grid, weighted=weighted)
        wagers = np.full(grid.n, 0.02) if weighted else None
        tracker.absorb(1, wagers)
        before = {name: getattr(tracker, name).copy()
                  for name in ("risk_sum", "weight_sum", "weighted_risk_sum")
                  if hasattr(tracker, name)}
        for t in (5, 1, 0):
            with pytest.raises(OutOfOrderObservation, match=f"expected step 2, got {t}$"):
                tracker.absorb(t, wagers)
        assert tracker.steps == 1
        for name, sums in before.items():
            assert same_bits(getattr(tracker, name), sums), name
        tracker.absorb(2, wagers)
        assert tracker.steps == 2

    def test_constant_wagers_match_unweighted_mean(self):
        spec = easy_hard(break_at=10)
        grid = ThresholdGrid.from_step(0.1)
        schedule = ConstantSchedule(0.05)
        weighted = RiskTracker(spec, schedule, grid, weighted=True)
        plain = RiskTracker(spec, schedule, grid, weighted=False)
        n = grid.n
        for t in range(1, 31):
            weighted.absorb(t, wagers=np.full(n, 0.02))
            plain.absorb(t)
        idx = 5  # threshold 0.5
        expected = plain.risk_sum[idx] / plain.steps
        assert weighted.weighted_risk_at(idx) == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_falls_back_to_plain_mean(self):
        spec = uniform_linear()
        grid = ThresholdGrid.from_step(0.5)
        tracker = RiskTracker(spec, ConstantSchedule(0.05), grid, weighted=True)
        for t in range(1, 6):
            tracker.absorb(t, wagers=np.zeros(grid.n))
        idx = 2  # threshold 1.0
        assert tracker.weighted_risk_at(idx) == pytest.approx(
            tracker.risk_sum[idx] / 5)

    def test_weighted_needs_wagers(self):
        tracker = RiskTracker(uniform_linear(), ConstantSchedule(0.05),
                              ThresholdGrid.from_step(0.5), weighted=True)
        with pytest.raises(ValueError):
            tracker.absorb(1)
        assert tracker.steps == 0 and not tracker.risk_sum.any()

    def test_unweighted_refuses_weighted_query(self):
        tracker = RiskTracker(uniform_linear(), ConstantSchedule(0.05),
                              ThresholdGrid.from_step(0.5), weighted=False)
        tracker.absorb(1)
        with pytest.raises(ValueError):
            tracker.weighted_risk_at(0)

    def test_a_point_that_went_dead_keeps_its_sums(self):
        """A table's tracker fed only each step's live block of wagers equals
        one fed whole rows bit for bit, and a grid point that was live and
        then fell past the block keeps its sums' bits."""
        spec, schedule = easy_hard(break_at=30), ConstantSchedule(0.05)
        config = RouterConfig(grid=ThresholdGrid(values=np.linspace(0.0, 1.0, 5)),
                              schedule=schedule)
        worst = config.epsilon - (1.0 - schedule.rho_min) / 0.05
        table = AccountTable(config, 2)
        block, whole = (RiskTracker(spec, schedule, config.grid, weighted=True, rows=2)
                        for _ in range(2))
        extents = []
        for t in range(1, 60):
            # Both rows bet on every point at steps 2-4, and at step 4 the
            # worst payoff from point 2 on sinks their sums there for good.
            table.settle([(0, 2, worst), (1, 2, worst)] if t == 4 else [], 0.05)
            block.absorb(t, table.last_lambda[:, :table.extent])
            whole.absorb(t, table.last_lambda)
            extents.append(table.extent)
            for name in ("weight_sum", "weighted_risk_sum"):
                assert np.array_equal(getattr(block, name).view(np.int64),
                                      getattr(whole, name).view(np.int64)), name
            if t == 4:
                last_live = block.weight_sum[:, 4].copy(), block.weighted_risk_sum[:, 4].copy()
        assert extents[3] == 5 and extents[-1] == 2
        assert np.all(last_live[0] > 0.0)
        for now, then in zip((block.weight_sum[:, 4], block.weighted_risk_sum[:, 4]),
                             last_live):
            assert np.array_equal(now.view(np.int64), then.view(np.int64))

    def test_a_serial_run_hands_its_tracker_the_live_block(self):
        """A serial bpac run on a shifting stream gives the same bits whether
        its tracker gets each step's live block of wagers or whole rows, a
        point that went dead keeps its sums' bits, and the run's
        ``weighted_risk`` column is what both trackers read."""
        spec, config, horizon, seed = easy_hard(break_at=100), RouterConfig(
            grid=ThresholdGrid.from_step(step=0.05)), 400, 3
        stream_rng, coin_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        state, gate = RouterState.fresh(config, rng=coin_rng), LossGate()
        block, whole = (RiskTracker(spec, config.schedule, config.grid, weighted=True)
                        for _ in range(2))
        readouts, extents = [], []
        for obs in stream_events(spec, stream_rng, horizon):
            _, state = bpac.engine.step(state, obs, gate)
            table = state.table
            block.absorb(obs.index, table.last_lambda[:table.extent])
            whole.absorb(obs.index, table.last_lambda)
            for name in ("weight_sum", "weighted_risk_sum"):
                assert same_bits(getattr(block, name), getattr(whole, name)), name
            readouts.append(block.weighted_risk_at(state.deployed_index))
            assert same_bits(readouts[-1], whole.weighted_risk_at(state.deployed_index))
            extents.append(table.extent)
            if table.extent == config.grid.n:
                top_live = block.weight_sum[-1], block.weighted_risk_sum[-1]
        assert extents[-1] < config.grid.n and top_live[0] > 0.0
        assert same_bits((block.weight_sum[-1], block.weighted_risk_sum[-1]), top_live)
        traj = run_replication("bpac", config, spec, horizon, seed)
        assert same_bits(traj.weighted_risk, readouts)

    def test_heavier_wagers_on_hard_segment_raise_weighted_risk(self):
        spec = easy_hard(break_at=20)
        grid = ThresholdGrid.from_step(0.1)
        tracker = RiskTracker(spec, ConstantSchedule(0.05), grid, weighted=True)
        n = grid.n
        for t in range(1, 41):
            w = 0.001 if t <= 20 else 0.05
            tracker.absorb(t, wagers=np.full(n, w))
        idx = 8  # threshold 0.8
        plain_mean = tracker.risk_sum[idx] / tracker.steps
        assert tracker.weighted_risk_at(idx) > plain_mean


class TestMethods:
    def test_parse_known(self):
        assert parse_method("bpac") is Method.BPAC
        assert parse_method(Method.IPS_HOEFF) is Method.IPS_HOEFF

    def test_parse_unknown(self):
        with pytest.raises(UnknownMethod, match="frequentist"):
            parse_method("frequentist")


class TestReplications:
    @pytest.mark.parametrize("method, variant, digest", [
        ("o_naive", "per_point",
         "7b4f79ccebe0b23f57e5c4a756a5b7cb485c2f5aaa4c67fc52176d4010fe2228"),
        ("ips_hoeff", "per_point",
         "df9aea11fcfc32a73a04a2f4c5b7174f2d7a7d49d77ae8f174f6751864a6b87c"),
        ("ips_hoeff", "union_over_grid",
         "c571231a15ee52f30192474524468c9eb6c9ec81e2d972bb2badf46d76104989"),
    ])
    def test_baseline_digests_pinned(self, method, variant, digest):
        # Frozen trajectories: a refactor of the baselines must not move a
        # bit. At this budget and exploration rate every method deploys
        # above 0, so the slack and the loss sums both shape the digest.
        config = RouterConfig(epsilon=0.2, schedule=ConstantSchedule(0.5),
                              grid=ThresholdGrid.from_step(step=0.01))
        traj = run_replication(method, config, easy_hard(), 2000, seed=11,
                               hoeff_variant=variant)
        assert traj.u_hat.max() > 0.0
        assert traj.digest() == digest

    @pytest.mark.parametrize("case, digest", [
        ("fixed_sequence",
         "fab1f6ddae016fed9e6812ce5d05cd572a47cce58708c04da9bcfe041d9e19b9"),
        ("mixture_weighted",
         "6ea4e3e70cc686068cc931c997ee93f563e2c1f5ebe40e4bae711d70fb9d5056"),
        ("fixed_wager",
         "c986488a05bb13dd1cf755f63b2da5b968cf05ce2a77f1ce28316e15f0da8905"),
        ("replay",
         "478d907b399cb583dca4c9df90578014aa576bb446e5766670df8a4cb809b6fd"),
    ])
    def test_bpac_digests_pinned(self, case, digest):
        # Frozen engine trajectories, wealth snapshots included: a refactor
        # of the engine or the driver must not move a bit.
        grid = ThresholdGrid.from_step(step=0.01)
        config = RouterConfig(grid=grid)
        if case == "fixed_sequence":
            traj = run_replication("bpac", config, uniform_linear(), 2000, seed=11,
                                   emit_wealth_every=500)
        elif case == "mixture_weighted":
            mixture = RouterConfig(grid=grid, selection_mode=SelectionMode.MIXTURE,
                                   prior=Prior.uniform(grid.n))
            traj = run_replication("bpac", mixture, easy_hard(), 2000, seed=11,
                                   emit_wealth_every=500)
            assert np.all(np.isfinite(traj.weighted_risk))
        elif case == "fixed_wager":
            traj = run_replication("bpac", config, uniform_linear(), 2000, seed=11,
                                   fixed_wager=0.03, emit_wealth_every=500)
        else:
            rng = np.random.default_rng(11)
            events = [generate_event(uniform_linear(), rng, t) for t in range(1, 2001)]
            traj = replay_trace("bpac", config, events, coin_seed=11,
                                emit_wealth_every=500)
        assert traj.u_hat.max() > 0.0
        assert len(traj.wealth_snapshots) == 4
        assert traj.digest() == digest

    def test_digest_reproducible(self):
        config = RouterConfig()
        a = run_replication("bpac", config, uniform_linear(), 200, seed=42)
        b = run_replication("bpac", config, uniform_linear(), 200, seed=42)
        assert a.digest() == b.digest()
        c = run_replication("bpac", config, uniform_linear(), 200, seed=43)
        assert a.digest() != c.digest()

    def test_columns_aligned_and_final(self):
        traj = run_replication("bpac", RouterConfig(), uniform_linear(), 150, seed=1)
        assert traj.horizon == 150
        assert traj.t[0] == 1 and traj.t[-1] == 150
        assert traj.final("ecp") == pytest.approx(traj.ecp[-1])
        assert traj.final("u_hat") == traj.u_hat[-1]
        assert np.all((traj.xi == 0) | (traj.xi == 1))

    def test_methods_share_the_stream_at_equal_seed(self):
        config = RouterConfig()
        a = run_replication("bpac", config, uniform_linear(), 100, seed=9)
        b = run_replication("o_naive", config, uniform_linear(), 100, seed=9)
        np.testing.assert_array_equal(a.uncertainty, b.uncertainty)
        np.testing.assert_array_equal(a.latent_loss, b.latent_loss)

    def test_iid_run_has_deploy_risk_not_weighted(self):
        traj = run_replication("bpac", RouterConfig(), uniform_linear(), 80, seed=2)
        assert np.all(np.isfinite(traj.deploy_risk))
        assert np.all(np.isnan(traj.weighted_risk))

    def test_iid_mean_cond_risk_collapses_to_cond_risk(self):
        # one segment and a constant exploration rate make r_t(u)
        # time-invariant, so the running mean equals the instantaneous value
        config = RouterConfig(schedule=ConstantSchedule(0.3))
        traj = run_replication("bpac", config, uniform_linear(), 120, seed=4)
        np.testing.assert_allclose(traj.mean_cond_risk, traj.cond_risk,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", [
        uniform_linear(),
        easy_hard(break_at=30),
        SyntheticStreamSpec((StreamSegment(25, UniformScore(0.1, 0.9), LinearLoss(0.6)),
                             StreamSegment(55, BetaScore(2.0, 1.5), PowerLoss(0.9, 1.5))),
                            name="bounded"),
    ], ids=["uniform_linear", "easy_hard", "bounded"])
    @pytest.mark.parametrize("schedule", [
        ConstantSchedule(0.5),
        TwoStageSchedule(0.65, 0.5, 0),
        TwoStageSchedule(0.65, 0.5, 1),
        TwoStageSchedule(0.65, 0.5, 40),
        TwoStageSchedule(0.65, 0.5, 1000),
    ], ids=["constant", "t_warm_0", "t_warm_1", "t_warm_40", "t_warm_past_horizon"])
    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_risk_columns_use_the_runs_own_rates(self, method, schedule, spec):
        """Every step's ``cond_risk`` is the active segment's deployed risk at
        the deployed threshold, at that step's ``rho``, bit for bit; ``rho``
        is the rate the method routes at (its propensity below the
        threshold): the schedule's for bpac, the deployment rate from step 1
        for a baseline. So on one segment a baseline's ``cond_risk`` is its
        ``deploy_risk``. At this loose budget every method deploys above
        0, where the rate shapes the risk."""
        config = RouterConfig(epsilon=0.3, alpha=0.9, grid=ThresholdGrid.from_step(step=0.05),
                              schedule=schedule)
        traj = run_replication(method, config, spec, 80, seed=5)
        assert traj.u_hat.max() > 0.0
        if method == "bpac":
            rates = [rho_at(schedule, t) for t in range(1, 81)]
        else:
            rates = [deployment_rate(schedule)] * 80
        assert traj.rho.tolist() == rates
        below = traj.pi < 1.0
        assert below.any() and np.array_equal(traj.pi[below], traj.rho[below])
        values = config.grid.values
        deployed = np.searchsorted(values, traj.u_hat)
        assert np.array_equal(values[deployed], traj.u_hat)
        for t, index, rho, risk in zip(traj.t.tolist(), deployed.tolist(),
                                       traj.rho.tolist(), traj.cond_risk.tolist()):
            expected = _segment_risk(spec.segment_at(t), values, rho)[index]
            assert same_bits(risk, expected), t
        if spec.is_iid and method != "bpac":
            assert same_bits(traj.cond_risk, traj.deploy_risk)

    def test_shifting_run_tracks_weighted_risk(self):
        traj = run_replication("bpac", RouterConfig(), easy_hard(break_at=40),
                               80, seed=2)
        assert np.all(np.isfinite(traj.weighted_risk))
        assert np.all(np.isfinite(traj.cond_risk))
        assert np.all(np.isfinite(traj.mean_cond_risk))
        # first step: nothing to average over yet, both readouts coincide
        assert traj.mean_cond_risk[0] == traj.cond_risk[0]
        # the wager-weighted and unweighted averages are genuinely
        # different summaries once the segment flips
        assert np.any(np.abs(traj.weighted_risk - traj.mean_cond_risk) > 1e-6)

    @pytest.mark.parametrize("method", ["o_naive", "ips_hoeff"])
    def test_fixed_wager_is_engine_only(self, method):
        rng = np.random.default_rng(2)
        events = [generate_event(uniform_linear(), rng, t) for t in range(1, 11)]
        with pytest.raises(ValueError, match="engine runs only"):
            run_replication(method, RouterConfig(), uniform_linear(), 10, seed=0,
                            fixed_wager=0.05)
        with pytest.raises(ValueError, match="engine runs only"):
            replay_trace(method, RouterConfig(), events, fixed_wager=0.05)

    def test_bounded_stream_guards_horizon(self):
        spec = SyntheticStreamSpec(
            segments=(StreamSegment(length=30, score=UniformScore(),
                                    loss=LinearLoss()),))
        run_replication("bpac", RouterConfig(), spec, 30, seed=0)
        with pytest.raises(StreamExhausted):
            run_replication("bpac", RouterConfig(), spec, 31, seed=0)

    def test_wealth_snapshots_cadence(self):
        traj = run_replication("bpac", RouterConfig(), uniform_linear(), 100,
                               seed=5, emit_wealth_every=25)
        assert [t for t, _ in traj.wealth_snapshots] == [25, 50, 75, 100]
        assert traj.wealth_snapshots[0][1].shape == (1001,)

    def test_replay_trace_matches_generated_stream(self):
        spec = uniform_linear()
        rng = np.random.default_rng(21)
        events = [generate_event(spec, rng, t) for t in range(1, 61)]
        config = RouterConfig()
        a = replay_trace("bpac", config, events, coin_seed=7)
        b = replay_trace("bpac", config, list(events), coin_seed=7)
        assert a.digest() == b.digest()
        assert np.all(np.isnan(a.deploy_risk))
        assert np.all(np.isnan(a.mean_cond_risk))
        assert a.gate_accesses == int(a.xi.sum())


class TestWilson:
    def test_empty_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_zero_successes_pins_low_end(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.15

    def test_all_successes_pins_high_end(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert 0.85 < low < 1.0

    @given(st.integers(0, 200), st.integers(1, 200))
    @settings(max_examples=50)
    def test_contains_point_estimate(self, k, n):
        k = min(k, n)
        low, high = wilson_interval(k, n)
        assert 0.0 <= low <= k / n <= high <= 1.0


class TestMcSafety:
    def test_report_shape_and_bounds(self):
        config = RouterConfig()
        report = mc_safety("bpac", config, uniform_linear(), horizon=60,
                           n_reps=6, base_seed=3)
        assert report["method"] == "bpac"
        assert report["criterion"] == "deployment"
        assert report["n_reps"] == 6 and report["T"] == 60
        assert 0.0 <= report["ci_low"] <= report["frequency"] <= report["ci_high"] <= 1.0
        assert report["violations"] == round(report["frequency"] * 6)

    def test_weighted_criterion_auto_selected_on_shift(self):
        report = mc_safety("bpac", RouterConfig(), easy_hard(break_at=30),
                           horizon=50, n_reps=3, base_seed=1)
        assert report["criterion"] == "weighted"

    def test_deployment_criterion_rejected_on_shift(self):
        with pytest.raises(NonStationarySpec):
            mc_safety("bpac", RouterConfig(), easy_hard(), horizon=40,
                      n_reps=2, criterion="deployment")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            mc_safety("bpac", RouterConfig(), uniform_linear(), horizon=10,
                      n_reps=1, criterion="mystery")

    @pytest.mark.parametrize("horizon, n_reps", [(0, 5), (10, 0), (-1, 3), (2.5, 3), (20, 2.5),
                                                 (None, 3), (20, None)])
    def test_empty_study_rejected(self, horizon, n_reps):
        with pytest.raises(ValueError, match="horizon >= 1 and n_reps >= 1"):
            mc_safety("bpac", RouterConfig(), uniform_linear(), horizon, n_reps)

    @pytest.mark.parametrize("method", ["o_naive", "ips_hoeff"])
    def test_baseline_on_shift_rejected_before_any_replication(self, method, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(bpac.simulation, "stream_events", no_replication)
        with pytest.raises(NonStationarySpec, match=method) as info:
            mc_safety(method, RouterConfig(), easy_hard(), horizon=40, n_reps=2)
        assert "single-segment" in str(info.value) and "wagers" in str(info.value)
        with pytest.raises(ValueError, match="engine runs only"):
            mc_safety(method, RouterConfig(), uniform_linear(), horizon=40,
                      n_reps=2, criterion="weighted")


    @pytest.mark.parametrize("method", ["o_naive", "ips_hoeff"])
    def test_fixed_wager_rejected_before_any_replication(self, method, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(bpac.simulation, "stream_events", no_replication)
        with pytest.raises(ValueError, match="engine runs only"):
            mc_safety(method, RouterConfig(), uniform_linear(), horizon=40,
                      n_reps=2, fixed_wager=5.0)


# Coarse grid and alpha 0.9: the fixed-sequence rule certifies unsafe
# thresholds often enough that both criteria see violations at T=300.
LOOSE = dataclasses.replace(RouterConfig(), alpha=0.9,
                            grid=ThresholdGrid.from_step(step=0.05),
                            schedule=TwoStageSchedule(t_warm=20))
# Deploying at rate 0.3 instead of 0.05. The worst payoff then is about
# -2.25, not -18.92, so accounts certify sooner and a fixed wager up to
# about 0.444 survives it, where at 0.05 the cap is about 0.053.
DEPLOY_AT_03 = TwoStageSchedule(rho_deploy=0.3, t_warm=20)
# At LOOSE's rate 0.05 a uniform prior certifies nothing by T=300, adaptive
# wager or fixed; at 0.3 it does.
LOOSE_MIXTURE = dataclasses.replace(LOOSE, selection_mode=SelectionMode.MIXTURE,
                                    prior=Prior.uniform(21), schedule=DEPLOY_AT_03)
# Prior mass peaked on grid points 0.2, 0.3 and 0.45, so each point has its
# own bar; with the adaptive wager at LOOSE's rate both runs and lanes
# deploy 0.2 and 0.3 by T=300.
PEAKED_MASS = np.full(21, 0.01)
PEAKED_MASS[[4, 6, 9]] = 1.0
LOOSE_PEAKED = dataclasses.replace(LOOSE, selection_mode=SelectionMode.MIXTURE,
                                   prior=Prior(PEAKED_MASS / PEAKED_MASS.sum()))
# Explores at 0.7 throughout with a wide budget: at T=60, replications 0-9
# of base seed 7 see o_naive violate 5 times and ips_hoeff deploy up to 0.6.
LOOSE_EXPLORING = dataclasses.replace(LOOSE, epsilon=0.15, schedule=ConstantSchedule(0.7))


def serial_verdicts(config, spec, horizon, n_reps, base_seed, criterion, fixed_wager,
                    method="bpac", hoeff_variant="per_point"):
    """Per-replication u_hat columns and violation flags from run_replication."""
    u_hat, flags = [], []
    for seed in np.random.SeedSequence(base_seed).spawn(n_reps):
        traj = run_replication(method, config, spec, horizon, seed, fixed_wager=fixed_wager,
                               hoeff_variant=hoeff_variant)
        column = traj.weighted_risk if criterion == "weighted" else traj.deploy_risk
        u_hat.append(traj.u_hat)
        flags.append(bool(np.any(column > config.epsilon)))
    return np.array(u_hat).T, flags


def lockstep_u_hat(monkeypatch, config, spec, horizon, n_reps, **kwargs):
    """``mc_safety``'s report and the deployed thresholds of its bpac lanes, (T, n_reps)."""
    select = AccountTable.select
    deployed = []

    def recording(table):
        out = select(table)
        deployed.append(out)
        return out

    monkeypatch.setattr(AccountTable, "select", recording)
    report = mc_safety("bpac", config, spec, horizon, n_reps, **kwargs)
    monkeypatch.setattr(AccountTable, "select", select)
    steps = np.concatenate([np.stack(deployed[i:i + horizon])
                            for i in range(0, len(deployed), horizon)], axis=1)
    return report, config.grid.values[steps]


# Segments drawn one event at a time (Beta scores, integer tokens) between
# segments drawn in blocks.
FALLBACK_SPEC = SyntheticStreamSpec(segments=(
    StreamSegment(30, BetaScore(2.0, 3.0), LinearLoss(0.9), UniformTokens(1, 5, 10, 20)),
    StreamSegment(20, UniformScore(), LinearLoss(), UniformTokens(1, 1, 2, 2)),
    StreamSegment(None, UniformScore(0.1, 0.9), PowerLoss(0.8, 1.7))), name="fallback")


class TestLockstep:
    """``mc_safety`` runs every method in lockstep blocks; it must match serial replications."""

    @pytest.mark.parametrize("chunk", [7, bpac.simulation.DRAW_CHUNK])
    @pytest.mark.parametrize("fixed_wager", [None, 0.3])
    @pytest.mark.parametrize("criterion", ["deployment", "weighted"])
    @pytest.mark.parametrize("config", [LOOSE, LOOSE_MIXTURE, LOOSE_PEAKED],
                             ids=["fixed", "mixture", "mixture_peaked"])
    def test_blocks_match_serial_replications(self, config, criterion, fixed_wager, chunk,
                                              monkeypatch):
        spec = uniform_linear() if criterion == "deployment" else easy_hard(break_at=100)
        horizon, n_reps, base_seed = 300, 10, 7
        if fixed_wager is not None:
            # A fixed wager that survives rate 0.05 clears no mixture bar by
            # T=300.
            config = dataclasses.replace(config, schedule=DEPLOY_AT_03)
        u_hat, flags = serial_verdicts(config, spec, horizon, n_reps, base_seed,
                                       criterion, fixed_wager)
        # Every case deploys more than one threshold, so the lanes' kernel
        # and selection rule are checked on a moving answer.
        assert np.unique(u_hat).size >= 2
        if config.selection_mode is SelectionMode.FIXED_SEQUENCE:
            assert 0 < sum(flags) < n_reps
        if config is LOOSE_PEAKED and fixed_wager is None:
            assert np.array_equal(np.unique(u_hat), config.grid.values[[0, 4, 6]])
        monkeypatch.setattr(bpac.simulation, "DRAW_CHUNK", chunk)
        for block in (1, 3, 7):
            monkeypatch.setattr(bpac.simulation, "MC_BLOCK", block)
            report, lanes = lockstep_u_hat(monkeypatch, config, spec, horizon, n_reps,
                                           base_seed=base_seed, criterion=criterion,
                                           fixed_wager=fixed_wager)
            assert report["violations"] == sum(flags)
            assert np.array_equal(lanes, u_hat)

    def test_a_one_step_unsafe_deployment_is_counted(self, monkeypatch):
        """A fixed-sequence block folds its deployment flags only when the
        table hands back a new list. A lane that deploys an unsafe index for
        exactly one step and then drops back still counts as violated."""
        config, spec, horizon, n_reps = RouterConfig(), uniform_linear(), 200, 3
        unsafe = oracle_risk_grid(spec, config.grid.values, deployment_rate(config.schedule))
        spike = int(np.flatnonzero(unsafe > config.epsilon)[0])
        assert mc_safety("bpac", config, spec, horizon, n_reps)["violations"] == 0
        select, steps = AccountTable.select, []

        def scripted(table):
            deployed = select(table)
            steps.append(deployed)
            if len(steps) == 50:
                assert deployed[1] < spike
                return [*deployed[:1], spike, *deployed[2:]]
            return deployed

        monkeypatch.setattr(AccountTable, "select", scripted)
        assert mc_safety("bpac", config, spec, horizon, n_reps)["violations"] == 1
        assert len(steps) == horizon and steps[49] is steps[50]

    @pytest.mark.parametrize("chunk", [7, bpac.simulation.DRAW_CHUNK])
    def test_fallback_spec_matches_serial_replications(self, chunk, monkeypatch):
        horizon, n_reps, base_seed = 200, 8, 0
        u_hat, flags = serial_verdicts(LOOSE, FALLBACK_SPEC, horizon, n_reps, base_seed,
                                       "weighted", None)
        assert 0 < sum(flags) < n_reps
        monkeypatch.setattr(bpac.simulation, "DRAW_CHUNK", chunk)
        monkeypatch.setattr(bpac.simulation, "MC_BLOCK", 4)
        report, lanes = lockstep_u_hat(monkeypatch, LOOSE, FALLBACK_SPEC, horizon, n_reps,
                                       base_seed=base_seed)
        assert report["violations"] == sum(flags)
        assert np.array_equal(lanes, u_hat)

    def test_non_finite_score_names_its_lane_and_step(self, monkeypatch):
        def nan_at_9(spec, rng, t):
            event = generate_event(spec, rng, t)
            return dataclasses.replace(event, uncertainty=math.nan) if t == 9 else event

        monkeypatch.setattr(bpac.simulation, "generate_event", nan_at_9)
        with pytest.raises(InvalidObservation, match="step 9 in lane 0 is not finite"):
            mc_safety("bpac", LOOSE, FALLBACK_SPEC, 20, 3)

    def test_scores_on_grid_points_split_like_serial_replications(self, monkeypatch):
        # Every score is a grid point, where a left split would differ from bisect_right.
        grid = LOOSE.grid.values
        monkeypatch.setattr(UniformScore, "at", lambda self, u: grid[
            np.minimum(np.asarray(u) * grid.size, grid.size - 1).astype(int)])
        horizon, n_reps, base_seed = 150, 6, 7
        u_hat, flags = serial_verdicts(LOOSE, uniform_linear(), horizon, n_reps, base_seed,
                                       "deployment", None)
        assert 0 < sum(flags) < n_reps
        monkeypatch.setattr(bpac.simulation, "DRAW_CHUNK", 32)
        report, lanes = lockstep_u_hat(monkeypatch, LOOSE, uniform_linear(), horizon, n_reps,
                                       base_seed=base_seed)
        assert report["violations"] == sum(flags)
        assert np.array_equal(lanes, u_hat)

    @pytest.mark.parametrize("method,variant", [("o_naive", "per_point"),
                                                ("ips_hoeff", "per_point"),
                                                ("ips_hoeff", "union_over_grid")])
    def test_baseline_lanes_match_serial_replications(self, method, variant, monkeypatch):
        horizon, n_reps, base_seed = 60, 10, 7
        u_hat, flags = serial_verdicts(LOOSE_EXPLORING, uniform_linear(), horizon, n_reps,
                                       base_seed, "deployment", None, method, variant)
        assert u_hat.max() > 0
        if method == "o_naive":
            assert 0 < sum(flags) < n_reps
        name = "naive_step" if method == "o_naive" else "hoeff_step"
        advance = getattr(bpac.simulation, name)
        for block in (1, 3, 7):
            deployed = []

            def recording(state, obs, gate):
                out = advance(state, obs, gate)
                deployed.append(state.deployed_index)
                return out

            monkeypatch.setattr(bpac.simulation, "MC_BLOCK", block)
            monkeypatch.setattr(bpac.simulation, name, recording)
            report = mc_safety(method, LOOSE_EXPLORING, uniform_linear(), horizon, n_reps,
                               base_seed=base_seed, hoeff_variant=variant)
            assert report["violations"] == sum(flags)
            # calls run lane by lane within a step, block after block
            columns, pos = [], 0
            for start in range(0, n_reps, block):
                width = min(block, n_reps - start)
                columns.append(np.reshape(deployed[pos:pos + horizon * width],
                                          (horizon, width)))
                pos += horizon * width
            steps = np.concatenate(columns, axis=1)
            assert np.array_equal(LOOSE_EXPLORING.grid.values[steps], u_hat)

    def test_default_config_matches_serial_recount(self, monkeypatch):
        # 2 of these 20 replications violate at the default operating point.
        _, flags = serial_verdicts(RouterConfig(), uniform_linear(), 2000, 20, 1000,
                                   "deployment", None)
        assert sum(flags) == 2
        monkeypatch.setattr(bpac.simulation, "MC_BLOCK", 7)
        report = mc_safety("bpac", RouterConfig(), uniform_linear(), 2000, 20,
                           base_seed=1000)
        assert report["violations"] == 2

    def test_one_block_study_starts_no_process(self, monkeypatch):
        started = count_started_processes(monkeypatch)
        serial = mc_safety("bpac", LOOSE, uniform_linear(), 50, 3, base_seed=5)
        assert mc_safety("bpac", LOOSE, uniform_linear(), 50, 3, base_seed=5,
                         workers=4) == serial
        assert started == []

    @pytest.mark.parametrize("cpus", [None, 64])
    def test_pool_is_capped_by_blocks_and_cpus(self, cpus, monkeypatch):
        if cpus is not None:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cap = min(3, os.cpu_count() or 1)
        monkeypatch.setattr(bpac.simulation, "MC_BLOCK", 1)
        serial = mc_safety("o_naive", LOOSE, uniform_linear(), 30, 3, base_seed=5)
        started = count_started_processes(monkeypatch)
        assert mc_safety("o_naive", LOOSE, uniform_linear(), 30, 3, base_seed=5,
                         workers=8) == serial
        assert len(started) <= cap
        assert (len(started) > 0) == (cap > 1)

    @pytest.mark.parametrize("method", ["bpac", "o_naive"])
    def test_worker_pool_report_equals_serial(self, method, monkeypatch):
        monkeypatch.setattr(bpac.simulation, "MC_BLOCK", 3)
        reports = [mc_safety(method, LOOSE, uniform_linear(), 200, 8, base_seed=5,
                             workers=workers) for workers in (1, 2)]
        assert reports[0] == reports[1]
        assert reports[0]["violations"] > 0


def count_started_processes(monkeypatch) -> list:
    """Record every process started from now on, by wrapping ``BaseProcess.start``."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting(process):
        started.append(process)
        return start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    return started


class TestGateAudit:
    @pytest.mark.usefixtures("peeking_route")
    def test_a_loss_read_on_a_cheap_lane_fails_the_audit(self):
        with pytest.raises(LossGateViolation, match="loss gate of lane 0 opened"):
            mc_safety("bpac", LOOSE, uniform_linear(), 100, 4)

    @pytest.mark.parametrize("method", ["bpac", "o_naive", "ips_hoeff"])
    @pytest.mark.usefixtures("peeking_serial_route")
    def test_a_loss_read_on_a_cheap_step_fails_the_serial_audit(self, method):
        with pytest.raises(LossGateViolation, match="loss gate of lane 0 opened"):
            run_replication(method, LOOSE_EXPLORING, uniform_linear(), 60, seed=1)
        rng = np.random.default_rng(2)
        events = [generate_event(uniform_linear(), rng, t) for t in range(1, 61)]
        with pytest.raises(LossGateViolation, match="loss gate of lane 0 opened"):
            replay_trace(method, LOOSE_EXPLORING, events, coin_seed=3)

    def test_a_second_read_of_an_escalated_lane_is_refused(self, monkeypatch):
        def rereading(t, scores, draws, deployed, rho_t, gates, config):
            escalated, charges = route_lanes(t, scores, draws, deployed, rho_t, gates, config)
            gates[escalated[0]].reveal(t, 1)
            return escalated, charges

        # deployed threshold 0 at step 1: every lane escalates
        monkeypatch.setattr(bpac.simulation, "route_lanes", rereading)
        with pytest.raises(LossGateViolation, match="step 1 after the gate opened at step 1"):
            mc_safety("bpac", LOOSE, uniform_linear(), 100, 4)

    @pytest.mark.parametrize("method", ["bpac", "o_naive", "ips_hoeff"])
    def test_a_second_read_of_an_escalated_step_is_refused(self, method, monkeypatch):
        def rereading(obs, threshold_used, rho_t, rng, gate, config):
            out = route(obs, threshold_used, rho_t, rng, gate, config)
            if out[1] == 1:
                gate.observe(obs, 1)
            return out

        monkeypatch.setattr(bpac.engine, "route", rereading)
        monkeypatch.setattr(bpac.baselines, "route", rereading)
        match = "step 1 after the gate opened at step 1"
        with pytest.raises(LossGateViolation, match=match):
            run_replication(method, LOOSE_EXPLORING, uniform_linear(), 60, seed=1)
        rng = np.random.default_rng(2)
        events = [generate_event(uniform_linear(), rng, t) for t in range(1, 61)]
        with pytest.raises(LossGateViolation, match=match):
            replay_trace(method, LOOSE_EXPLORING, events, coin_seed=3)


# Segment ends at 40 and 65 fall inside the draw chunks below.
BLOCK_SPEC = SyntheticStreamSpec(segments=(
    StreamSegment(40, UniformScore(0.1, 0.9), ConstantLoss(0.3)),
    StreamSegment(25, UniformScore(), PowerLoss(0.8, 2.5)),
    StreamSegment(None, UniformScore(0.2, 1.0), PowerLoss(1.0, 0.5))), name="block")

# Laws of every loss kind, with parameters that take numpy's general paths.
LOSS_LAWS = {
    "linear": [LinearLoss(), LinearLoss(0.37)],
    "constant": [ConstantLoss(0.3), ConstantLoss(0.0)],
    "power": [PowerLoss(), PowerLoss(0.8, 2.5), PowerLoss(1.0, 0.5), PowerLoss(0.9, 3.7)],
}


class TestBlockDraws:
    """``_draw`` gives one lane's events bit for bit, in chunks."""

    @pytest.mark.parametrize("spec", [uniform_linear(), easy_hard(break_at=50), BLOCK_SPEC,
                                      FALLBACK_SPEC], ids=lambda spec: spec.name)
    def test_chunks_equal_events_bit_for_bit(self, spec):
        for seed in (3, 4, 5):
            stream = np.random.default_rng(seed)
            chunks = [_draw(spec, stream, start, stop)
                      for start, stop in ((1, 45), (45, 58), (58, 121))]
            scores, losses, tokens = zip(*chunks)
            rng = np.random.default_rng(seed)
            events = [generate_event(spec, rng, t) for t in range(1, 121)]
            assert (np.concatenate(scores).tobytes()
                    == np.array([e.uncertainty for e in events]).tobytes())
            assert (np.concatenate(losses).tobytes()
                    == np.array([e.latent_loss for e in events]).tobytes())
            assert sum(tokens, []) == [(e.tokens_cheap, e.tokens_expensive) for e in events]
            # and the lane's generator has made exactly the same draws
            assert stream.bit_generator.state == rng.bit_generator.state

    def test_every_loss_kind_is_checked(self):
        assert LOSS_LAWS.keys() == LOSS_KINDS.keys()
        assert all(type(law) is LOSS_KINDS[kind]
                   for kind, laws in LOSS_LAWS.items() for law in laws)

    @pytest.mark.parametrize("law", [law for laws in LOSS_LAWS.values() for law in laws],
                             ids=repr)
    def test_vector_prob_equals_scalar_prob_or_law_falls_back(self, law, monkeypatch):
        scores = np.concatenate([np.random.default_rng(0).random(5000),
                                 [0.0, 1.0, 5e-324, 0.5, 1.0 - 2.0 ** -53]])
        if type(law) in _BLOCK_LOSSES:
            scalar = np.array([float(law.prob(float(score))) for score in scores])
            assert np.asarray(law.prob(scores), dtype=float).tobytes() == scalar.tobytes()
            return
        drawn = []
        monkeypatch.setattr(bpac.simulation, "generate_event",
                            lambda spec, rng, t: drawn.append(t) or generate_event(spec, rng, t))
        spec = SyntheticStreamSpec(segments=(StreamSegment(None, UniformScore(), law),))
        _draw(spec, np.random.default_rng(1), 1, 11)
        assert drawn == list(range(1, 11))

    def test_only_other_segments_draw_event_by_event(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(bpac.simulation, "generate_event",
                            lambda spec, rng, t: drawn.append(t) or generate_event(spec, rng, t))
        stream = np.random.default_rng(1)
        _draw(FALLBACK_SPEC, stream, 1, 80)
        assert drawn == list(range(1, 51))
        drawn.clear()
        _draw(uniform_linear(), stream, 1, 80)
        assert drawn == []


def per_event(spec, stream, horizon):
    """The reference event source: one ``generate_event`` per step."""
    return (generate_event(spec, stream, t) for t in range(1, horizon + 1))


class TestEventSource:
    """``stream_events`` gives ``generate_event``'s stream, drawn in chunks."""

    @pytest.mark.parametrize("chunk", [7, bpac.simulation.DRAW_CHUNK])
    @pytest.mark.parametrize("spec", [uniform_linear(), easy_hard(break_at=50), BLOCK_SPEC,
                                      FALLBACK_SPEC], ids=lambda spec: spec.name)
    def test_events_equal_generate_event(self, spec, chunk, monkeypatch):
        monkeypatch.setattr(bpac.simulation, "DRAW_CHUNK", chunk)
        stream, rng = np.random.default_rng(9), np.random.default_rng(9)
        events = list(stream_events(spec, stream, 300))
        assert events == list(per_event(spec, rng, 300))
        assert all(type(e.uncertainty) is float and type(e.latent_loss) is float
                   for e in events)
        assert stream.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("chunk", [7, bpac.simulation.DRAW_CHUNK])
    @pytest.mark.parametrize("method", ["bpac", "o_naive", "ips_hoeff"])
    @pytest.mark.parametrize("spec", [uniform_linear(), easy_hard(break_at=50), FALLBACK_SPEC],
                             ids=lambda spec: spec.name)
    def test_replications_equal_per_event_generation(self, spec, method, chunk, monkeypatch):
        def run():
            return run_replication(method, LOOSE_EXPLORING, spec, 300, seed=5,
                                   emit_wealth_every=25)

        monkeypatch.setattr(bpac.simulation, "DRAW_CHUNK", chunk)
        chunked = run()
        monkeypatch.setattr(bpac.simulation, "stream_events", per_event)
        reference = run()
        for name in bpac.simulation._COLUMNS:
            assert getattr(chunked, name).tobytes() == getattr(reference, name).tobytes(), name
        assert chunked.digest() == reference.digest()
        assert chunked.gate_accesses == reference.gate_accesses == chunked.xi.sum()
        assert chunked.u_hat.max() > 0
        if method == "bpac":
            assert len(chunked.wealth_snapshots) == 12
        if method == "bpac" and not spec.is_iid:
            assert np.all(np.isfinite(chunked.weighted_risk))

    def test_only_other_segments_draw_event_by_event(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(bpac.simulation, "generate_event",
                            lambda spec, rng, t: drawn.append(t) or generate_event(spec, rng, t))
        for method in ("bpac", "o_naive"):
            run_replication(method, LOOSE, FALLBACK_SPEC, 80, seed=1)
            assert drawn == list(range(1, 51))
            drawn.clear()
            run_replication(method, LOOSE, easy_hard(break_at=50), 80, seed=1)
            assert drawn == []


def scipy_loaded_after(run: str) -> str:
    """Whether a fresh interpreter that imports bpac and its CLI and then
    executes ``run`` has loaded scipy.special and scipy.integrate."""
    src = Path(bpac.simulation.__file__).resolve().parents[1]
    code = ("import sys, bpac, bpac.cli\n"
            "import bpac.simulation as sim\n"
            f"{run}\n"
            "print([m in sys.modules for m in ('scipy.special', 'scipy.integrate')])\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_scipy_special_stays_unloaded_without_beta_laws():
    run = "sim.mc_safety('bpac', bpac.RouterConfig(), sim.uniform_linear(), 30, 2)"
    assert scipy_loaded_after(run) == "[False, False]"


def test_beta_laws_never_load_scipy_integrate():
    # One segment per loss law, so the risk tracker prices all three Beta
    # closed forms.
    run = ("spec = sim.SyntheticStreamSpec(tuple(\n"
           "    sim.StreamSegment(length, sim.BetaScore(2.0, 5.0), loss) for length, loss in\n"
           "    ((20, sim.LinearLoss()), (20, sim.ConstantLoss(0.3)), (None, sim.PowerLoss()))))\n"
           "sim.run_replication('bpac', bpac.RouterConfig(), spec, 60, 0)")
    assert scipy_loaded_after(run) == "[True, False]"


def closed_form_study(spec, threshold, config, horizon, n_reps, base_seed):
    """The pinned-threshold study replayed on the reference arithmetic: the
    same draws, priced by ``ips_payoff`` and settled by ``adaptive_lambda``
    and ``update_account`` over all replications at once."""
    rng = np.random.default_rng(np.random.SeedSequence(base_seed))
    acc = account_table(n_reps)
    rho_min = config.schedule.rho_min
    bar = -math.log(config.alpha)
    crossed = np.zeros(n_reps, dtype=bool)
    payoffs = np.empty((horizon, n_reps))
    for t in range(1, horizon + 1):
        seg = spec.segment_at(t)
        rho_t = rho_at(config.schedule, t)
        m_t = payoff_bound(config.epsilon, rho_min, rho_t)
        score = np.asarray(seg.score.sample(rng, n_reps))
        latent = (rng.random(n_reps) < seg.loss.prob(score)).astype(float)
        pi = np.where(score >= threshold, 1.0, rho_t)
        coin = rng.random(n_reps) < pi
        payoffs[t - 1] = ips_payoff(latent, coin, pi, score, threshold, rho_min,
                                    config.epsilon)
        update_account(acc, adaptive_lambda(acc, m_t, config.betting_cap), payoffs[t - 1])
        crossed |= acc.log_wealth >= bar
    return acc.log_wealth, crossed, payoffs


@pytest.fixture
def no_draw(monkeypatch):
    """Fail any run that reads a step of its stream: every draw, whole
    chunks included, first looks up the step's segment."""
    def drawn(spec, t):
        raise AssertionError(f"the run read step {t} of its stream")

    monkeypatch.setattr(SyntheticStreamSpec, "segment_index_at", drawn)


class TestPinnedStudy:
    @pytest.mark.parametrize("spec, config", [
        (uniform_linear(), RouterConfig(schedule=TwoStageSchedule(0.7, 0.05, 40))),
        (easy_hard(break_at=70), RouterConfig()),
    ], ids=["warmup_ends", "law_shifts"])
    def test_equals_the_closed_form_bit_for_bit(self, spec, config):
        """The engine's kernel settles the study exactly as the reference
        arithmetic does, across a change of rate and of loss law."""
        horizon, n_reps, u = 150, 40, 0.5
        out = pinned_threshold_study(spec, u, config, horizon, n_reps, base_seed=11)
        log_wealth, crossed, payoffs = closed_form_study(spec, u, config, horizon,
                                                         n_reps, base_seed=11)
        assert np.array_equal(out["log_wealth"].view(np.int64), log_wealth.view(np.int64))
        assert np.array_equal(out["crossed"], crossed)
        assert np.array_equal(out["payoffs"].view(np.int64), payoffs.view(np.int64))
        # Both rates priced a charge, and some account bet and moved.
        charged = payoffs < config.epsilon
        assert charged[:40].any() and charged[40:].any()
        assert np.any(log_wealth != 0.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1, 1.5])
    def test_threshold_outside_the_unit_interval_is_refused(self, threshold, no_draw):
        # No score is below NaN, so its account would be paid epsilon on
        # every step and certify a threshold that never escalates.
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            pinned_threshold_study(uniform_linear(), threshold, RouterConfig(), 300, 50)

    @pytest.mark.parametrize("horizon, n_reps", [(0, 50), (300, 0)])
    def test_empty_study_is_refused(self, horizon, n_reps, no_draw):
        with pytest.raises(ValueError, match="at least 1"):
            pinned_threshold_study(uniform_linear(), 0.3, RouterConfig(), horizon, n_reps)

    def test_horizon_past_a_bounded_stream_is_refused_before_any_settle(self, monkeypatch):
        """``check_run``'s horizon check refuses the study before its first step."""
        settled, settle = [], AccountTable.settle
        monkeypatch.setattr(AccountTable, "settle",
                            lambda table, *args: settled.append(args) or settle(table, *args))
        spec = SyntheticStreamSpec(segments=(StreamSegment(length=100, score=UniformScore(),
                                                           loss=LinearLoss()),),
                                   name="short")
        with pytest.raises(StreamExhausted, match="horizon 200 exceeds .* total length 100"):
            pinned_threshold_study(spec, 0.3, RouterConfig(), 200, 50)
        assert len(settled) == 0
        pinned_threshold_study(spec, 0.3, RouterConfig(), 100, 5)
        assert len(settled) == 100

    def test_shapes_and_recording(self):
        out = pinned_threshold_study(uniform_linear(), 0.3, RouterConfig(),
                                     horizon=120, n_reps=40, base_seed=0)
        assert out["log_wealth"].shape == (40,)
        assert out["crossed"].dtype == bool
        assert out["payoffs"].shape == (120, 40)
        assert 0.0 <= out["crossing_frequency"] <= 1.0

    def test_payoffs_respect_engine_bounds(self):
        config = RouterConfig()
        out = pinned_threshold_study(uniform_linear(), 0.5, config,
                                     horizon=300, n_reps=20, base_seed=4)
        eps = config.epsilon
        lo = eps - (1.0 - config.schedule.rho_min) / config.schedule.rho_deploy
        assert np.all(out["payoffs"] <= eps + 1e-12)
        assert np.all(out["payoffs"] >= lo - 1e-12)

    def test_payoffs_match_scalar_ips_payoff(self):
        # The study settles with the engine's payoff arithmetic: replaying
        # its draws through scalar ips_payoff gives every payoff bit for
        # bit. At rho = 0.05 an explored loss of 1 must pay eps - 19.0.
        config = RouterConfig(schedule=ConstantSchedule(0.05))
        spec, u, n, horizon = uniform_linear(), 0.5, 30, 60
        out = pinned_threshold_study(spec, u, config, horizon=horizon, n_reps=n,
                                     base_seed=3)
        rng = np.random.default_rng(np.random.SeedSequence(3))
        rho_min = config.schedule.rho_min
        for t in range(1, horizon + 1):
            seg = spec.segment_at(t)
            rho_t = rho_at(config.schedule, t)
            score = seg.score.sample(rng, n)
            latent = rng.random(n) < seg.loss.prob(score)
            coin = rng.random(n) < np.where(score >= u, 1.0, rho_t)
            for i in range(n):
                v = float(score[i])
                expected = ips_payoff(float(latent[i]) if coin[i] else None,
                                      int(coin[i]), propensity(v, u, rho_t), v, u,
                                      rho_min, config.epsilon)
                assert out["payoffs"][t - 1, i] == expected
        assert np.any(out["payoffs"] == config.epsilon - 19.0)

    def test_safe_threshold_gets_certified(self):
        # u = 0.2 has deployed risk 0.019 << 0.08, so payoffs are positive
        # on average and wealth should cross the certification bar
        out = pinned_threshold_study(uniform_linear(), 0.2, RouterConfig(),
                                     horizon=400, n_reps=100, base_seed=7)
        assert out["crossing_frequency"] >= 0.5

    def test_unsafe_threshold_rarely_crosses(self):
        # u = 0.6 has deployed risk 0.171 > 0.08; crossing is the alpha
        # level event the certificate controls
        out = pinned_threshold_study(uniform_linear(), 0.6, RouterConfig(),
                                     horizon=400, n_reps=200, base_seed=7)
        assert out["crossing_frequency"] <= 0.1
        assert float(np.exp(out["log_wealth"]).mean()) < 1.5


def unread_trace():
    """A recorded trace that fails when its first event is read."""
    raise AssertionError("the run read an event of its trace")
    yield


@pytest.mark.parametrize("entry", [
    lambda config: pinned_threshold_study(uniform_linear(), 0.3, config, 300, 50),
    lambda config: run_replication("bpac", config, uniform_linear(), 50, 1),
    lambda config: replay_trace("bpac", config, unread_trace()),
    lambda config: mc_safety("bpac", config, uniform_linear(), 50, 5),
    RouterState.fresh,
    MeanState.fresh,
], ids=["study", "run_replication", "replay_trace", "mc_safety", "RouterState.fresh",
        "MeanState.fresh"])
@pytest.mark.parametrize("config", [
    RouterConfig(alpha=1.5),
    RouterConfig(betting_cap=1.5),
    RouterConfig(epsilon=5.0),
    RouterConfig(schedule=ConstantSchedule(0.0)),
    RouterConfig(grid=ThresholdGrid(np.array([0.0, 0.9, 0.5, 1.0]))),
], ids=["alpha", "betting_cap", "epsilon", "rate", "unsorted_grid"])
def test_invalid_config_is_refused_before_any_draw(entry, config, no_draw):
    # At alpha = 1.5 the bar -log(alpha) is negative, so every account
    # would start out certified, with no evidence at all.
    with pytest.raises(ConfigError):
        entry(config)


class TestCounts:
    """The run doors refuse a horizon or a replication count that is not an
    integer, before any draw, and take numpy's integers; ``mc_safety``'s
    cases are in ``TestMcSafety.test_empty_study_rejected``."""

    @pytest.mark.parametrize("method", ["bpac", "o_naive"])
    @pytest.mark.parametrize("horizon", [-3, 2.5, None, "7", True])
    def test_a_bad_horizon_is_refused(self, method, horizon, no_draw):
        with pytest.raises(ValueError, match="horizon must be an integer >= 0"):
            run_replication(method, RouterConfig(), uniform_linear(), horizon, 1)

    @pytest.mark.parametrize("horizon, n_reps", [(2.5, 50), (300, 2.5), (None, 50)])
    def test_the_pinned_study_refuses_a_count_that_is_not_an_integer(self, horizon, n_reps,
                                                                     no_draw):
        with pytest.raises(ValueError, match="must be an integer|must be integers"):
            pinned_threshold_study(uniform_linear(), 0.3, RouterConfig(), horizon, n_reps)

    def test_numpy_integers_run_like_ints(self):
        config, spec = LOOSE, uniform_linear()
        assert (run_replication("bpac", config, spec, np.int64(40), 2).digest()
                == run_replication("bpac", config, spec, 40, 2).digest())
        assert (mc_safety("bpac", config, spec, np.int32(40), np.int64(3))
                == mc_safety("bpac", config, spec, 40, 3))
        study = pinned_threshold_study(spec, 0.3, config, np.int64(40), np.int64(3))
        assert np.array_equal(study["payoffs"],
                              pinned_threshold_study(spec, 0.3, config, 40, 3)["payoffs"])


class TestSeeds:
    """The run doors refuse a seed that is not an integer >= 0 with a named
    ``ValueError``, before any draw, and take numpy's integers (and, for
    ``run_replication``, a SeedSequence)."""

    @pytest.mark.parametrize("seed", [2.5, -1, "7", None, np.float64(3.0), True])
    @pytest.mark.parametrize("entry, name", [
        (lambda seed: run_replication("bpac", LOOSE, uniform_linear(), 40, seed), "seed"),
        (lambda seed: mc_safety("bpac", LOOSE, uniform_linear(), 40, 3, base_seed=seed),
         "base_seed"),
        (lambda seed: mc_safety("o_naive", LOOSE, uniform_linear(), 40, 3, base_seed=seed),
         "base_seed"),
        (lambda seed: pinned_threshold_study(uniform_linear(), 0.3, LOOSE, 40, 3,
                                             base_seed=seed), "base_seed"),
    ], ids=["run_replication", "mc_safety", "mc_safety_baseline", "study"])
    def test_a_bad_seed_is_refused_before_any_draw(self, entry, name, seed, no_draw):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got"):
            entry(seed)

    @pytest.mark.parametrize("seed", [2.5, -1, "7"])
    def test_a_bad_coin_seed_is_refused_before_any_event(self, seed):
        with pytest.raises(ValueError, match="^coin_seed must be an integer >= 0, got"):
            replay_trace("bpac", LOOSE, unread_trace(), coin_seed=seed)

    def test_numpy_integers_and_seed_sequences_run_like_ints(self):
        config, spec = LOOSE, uniform_linear()
        digest = run_replication("bpac", config, spec, 40, 2).digest()
        for seed in (np.int64(2), np.uint32(2), np.random.SeedSequence(2)):
            assert run_replication("bpac", config, spec, 40, seed).digest() == digest
        assert (mc_safety("bpac", config, spec, 40, 3, base_seed=np.int64(5))
                == mc_safety("bpac", config, spec, 40, 3, base_seed=5))
        study = pinned_threshold_study(spec, 0.3, config, 40, 3, base_seed=np.uint8(4))
        assert np.array_equal(study["payoffs"],
                              pinned_threshold_study(spec, 0.3, config, 40, 3,
                                                     base_seed=4)["payoffs"])


class TestOptions:
    """The run doors refuse, with a ``ValueError`` that names it and before
    any draw, an option they would otherwise misread: a wealth-snapshot
    period or a worker count that is not an integer in range, and an
    ``ips_hoeff`` variant it does not know, whatever the method."""

    @pytest.mark.parametrize("every", [-5, 2.5, True, "20", None])
    @pytest.mark.parametrize("entry", [
        lambda every: run_replication("bpac", LOOSE, uniform_linear(), 40, 1,
                                      emit_wealth_every=every),
        lambda every: replay_trace("bpac", LOOSE, unread_trace(), emit_wealth_every=every),
    ], ids=["run_replication", "replay_trace"])
    def test_a_bad_snapshot_period_is_refused(self, entry, every, no_draw):
        with pytest.raises(ValueError, match="^emit_wealth_every must be an integer >= 0, got"):
            entry(every)

    @pytest.mark.parametrize("workers", ["2", -3, 0, 2.5, True])
    def test_a_bad_worker_count_is_refused(self, workers, no_draw):
        with pytest.raises(ValueError, match="^workers must be None or an integer >= 1, got"):
            mc_safety("bpac", LOOSE, uniform_linear(), 40, 3, workers=workers)

    @pytest.mark.parametrize("method", [m.value for m in Method])
    @pytest.mark.parametrize("entry", [
        lambda method, variant: run_replication(method, LOOSE, uniform_linear(), 40, 1,
                                                hoeff_variant=variant),
        lambda method, variant: replay_trace(method, LOOSE, unread_trace(),
                                             hoeff_variant=variant),
        lambda method, variant: mc_safety(method, LOOSE, uniform_linear(), 40, 3,
                                          hoeff_variant=variant),
    ], ids=["run_replication", "replay_trace", "mc_safety"])
    @pytest.mark.parametrize("variant", ["per-point", "", None])
    def test_an_unknown_hoeff_variant_is_refused_for_every_method(self, entry, method,
                                                                   variant, no_draw):
        with pytest.raises(ValueError, match="^hoeff_variant must be 'per_point' or "
                                             "'union_over_grid', got"):
            entry(method, variant)

    def test_numpy_integers_run_like_ints(self):
        spec = uniform_linear()
        snapped = run_replication("bpac", LOOSE, spec, 40, 2, emit_wealth_every=np.int64(10))
        assert [t for t, _ in snapped.wealth_snapshots] == [10, 20, 30, 40]
        assert snapped.digest() == run_replication("bpac", LOOSE, spec, 40, 2,
                                                   emit_wealth_every=10).digest()
        assert (mc_safety("bpac", LOOSE, spec, 40, 3, workers=np.int64(1))
                == mc_safety("bpac", LOOSE, spec, 40, 3))


class TestRegret:
    def test_zero_payoffs_zero_regret(self):
        report = regret_harness(np.zeros(500), epsilon=0.08, cap=0.9,
                                schedule=ConstantSchedule(0.05))
        assert report.online == 0.0
        assert report.oracle == 0.0
        assert report.regret == 0.0

    def test_constant_positive_payoff_oracle_rides_the_cap(self):
        schedule = ConstantSchedule(0.05)
        d = np.full(500, 0.08)
        report = regret_harness(d, epsilon=0.08, cap=0.9, schedule=schedule)
        m = (1.0 - schedule.rho_min) / 0.05 - 0.08
        assert report.oracle_wager == pytest.approx(0.9 / m, rel=1e-9)
        assert 0.0 <= report.regret <= report.bound

    def test_regret_within_bound_on_noise(self):
        rng = np.random.default_rng(13)
        schedule = ConstantSchedule(0.05)
        for _ in range(5):
            d = rng.uniform(-0.5, 0.08, size=1000)
            report = regret_harness(d, epsilon=0.08, cap=0.9, schedule=schedule)
            assert report.regret <= report.bound

    def test_bound_grows_logarithmically(self):
        schedule = ConstantSchedule(0.05)
        b100 = regret_bound(100, 0.08, 0.9, schedule)
        b10k = regret_bound(10_000, 0.08, 0.9, schedule)
        assert b10k > b100
        # doubling the exponent of T should roughly double the log term
        assert b10k / b100 < 2.5

    def test_empty_payoffs_rejected(self):
        with pytest.raises(ValueError):
            regret_harness(np.array([]), epsilon=0.08, cap=0.9,
                           schedule=ConstantSchedule(0.05))

    def test_online_never_beats_oracle_by_construction(self):
        rng = np.random.default_rng(29)
        d = rng.uniform(-1.0, 0.08, size=800)
        report = regret_harness(d, epsilon=0.08, cap=0.9,
                                schedule=ConstantSchedule(0.05))
        assert report.regret >= -1e-9


class TestWireFormat:
    def test_round_trip_preserves_structure(self):
        spec = easy_hard(kappa_easy=0.4, kappa_hard=0.9, break_at=250)
        doc = spec_to_dict(spec)
        back = spec_from_dict(json.loads(json.dumps(doc)))
        assert spec_to_dict(back) == doc

    def test_round_trip_all_law_kinds(self):
        spec = SyntheticStreamSpec(
            name="kitchen_sink",
            segments=(
                StreamSegment(length=10, score=BetaScore(2.0, 5.0),
                              loss=PowerLoss(kappa=0.8, degree=3.0),
                              tokens=UniformTokens(50, 150, 400, 600)),
                StreamSegment(length=None, score=UniformScore(0.1, 0.9),
                              loss=ConstantLoss(level=0.2),
                              tokens=ConstantTokens(120, 480)),
            ))
        doc = spec_to_dict(spec)
        assert spec_to_dict(spec_from_dict(doc)) == doc

    def test_missing_segments_key(self):
        with pytest.raises(SpecError) as err:
            spec_from_dict({"name": "x"})
        assert err.value.key == "segments"

    def test_bad_score_names_its_segment(self):
        doc = {"segments": [{"length": None,
                             "score": {"kind": "gaussian"},
                             "loss": {"kind": "linear"}}]}
        with pytest.raises(SpecError) as err:
            spec_from_dict(doc)
        assert err.value.key == "segments[0].score"

    def test_bad_loss_in_second_segment(self):
        doc = {"segments": [
            {"length": 5, "score": {"kind": "uniform"}, "loss": {"kind": "linear"}},
            {"length": None, "score": {"kind": "uniform"}, "loss": {"kind": "cubic"}},
        ]}
        with pytest.raises(SpecError) as err:
            spec_from_dict(doc)
        assert err.value.key == "segments[1].loss"

    def test_missing_tokens_defaults(self):
        doc = {"segments": [{"length": None, "score": {"kind": "uniform"},
                             "loss": {"kind": "linear", "kappa": 0.5}}]}
        spec = spec_from_dict(doc)
        assert spec.segments[0].tokens == ConstantTokens()

    def test_load_builtin_names(self):
        assert load_stream_spec("uniform_linear").name == "uniform_linear"
        assert load_stream_spec("easy_hard").name == "easy_hard"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(uniform_linear(kappa=0.6))))
        spec = load_stream_spec(path)
        assert spec.segments[0].loss == LinearLoss(kappa=0.6)

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SpecError) as err:
            load_stream_spec(path)
        assert err.value.key == "<file>"
