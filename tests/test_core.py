import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpac import (
    ConfigError,
    ConstantSchedule,
    Prior,
    RouterConfig,
    SelectionMode,
    ThresholdGrid,
    TwoStageSchedule,
    config_digest,
    config_from_dict,
    config_to_dict,
    deployment_rate,
    load_config,
    rho_at,
    validate_config,
)
from bpac.core import config_violations, rate_pieces


class TestSchedules:
    def test_two_stage_boundary_inclusive(self):
        sched = TwoStageSchedule(0.7, 0.05, 200)
        assert rho_at(sched, 200) == 0.7
        assert rho_at(sched, 201) == 0.05
        assert rho_at(sched, 1) == 0.7

    def test_constant_far_horizon(self):
        assert rho_at(ConstantSchedule(0.3), 10**6) == 0.3

    def test_rho_min_derived(self):
        assert TwoStageSchedule(0.7, 0.05, 200).rho_min == 0.05
        assert TwoStageSchedule(0.1, 0.4, 50).rho_min == 0.1
        assert ConstantSchedule(0.25).rho_min == 0.25

    def test_step_index_must_be_positive(self):
        with pytest.raises(ValueError):
            rho_at(ConstantSchedule(0.3), 0)

    def test_deployment_rate(self):
        assert deployment_rate(TwoStageSchedule(0.7, 0.05, 200)) == 0.05
        assert deployment_rate(ConstantSchedule(0.3)) == 0.3

    @given(constant=st.booleans(), t_warm=st.integers(0, 12), start=st.integers(1, 15),
           length=st.integers(0, 15))
    def test_rate_pieces_equal_rho_at_every_step(self, constant, t_warm, start, length):
        sched = ConstantSchedule(0.3) if constant else TwoStageSchedule(0.7, 0.05, t_warm)
        pieces = list(rate_pieces(sched, start, start + length))
        assert [t for first, end, _ in pieces for t in range(first, end)] == list(
            range(start, start + length))
        for first, end, rho in pieces:
            assert first < end
            assert all(rho == rho_at(sched, t) for t in range(first, end))
        # The rate changes at most once, so a run ends only where it does.
        assert [rho_at(sched, first) for first, _, _ in pieces[1:]] == [0.05] * len(pieces[1:])
        first, end, rho = next(rate_pieces(sched, start, math.inf))
        assert (first, end, rho) == ((start, t_warm + 1, 0.7) if not constant and start <= t_warm
                                     else (start, math.inf, rho_at(sched, start)))

    @given(rho_warm=st.floats(0.01, 0.99), rho_deploy=st.floats(0.01, 0.99),
           t_warm=st.integers(0, 10**4))
    def test_rho_min_is_min_of_emitted(self, rho_warm, rho_deploy, t_warm):
        sched = TwoStageSchedule(rho_warm, rho_deploy, t_warm)
        assert sched.rho_min == min(sched.emitted_rates())


class TestGrid:
    def test_default_size(self):
        grid = ThresholdGrid.default()
        assert grid.n == 1001
        assert grid.values[0] == 0.0
        assert grid.values[-1] == 1.0

    def test_values_are_a_read_only_copy(self):
        """The grid owns its values, so ``grid_list`` cannot drift from them."""
        source = np.linspace(0.0, 1.0, 5)
        grid = ThresholdGrid(values=source)
        with pytest.raises(ValueError):
            grid.values[0] = 0.5
        source[1] = 0.3
        assert source.flags.writeable
        assert grid.values[1] == 0.25
        assert grid.grid_list == [0.0, 0.25, 0.5, 0.75, 1.0]
        copy = pickle.loads(pickle.dumps(grid))
        assert not copy.values.flags.writeable
        assert copy.grid_list == grid.grid_list

    @pytest.mark.parametrize("doc", [{"start": -1e6, "step": 0.001}, {"step": 1e-12}])
    def test_oversized_grid_rejected_before_allocation(self, doc, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "linspace", no_allocation)
        with pytest.raises(ValueError, match="exceeds"):
            ThresholdGrid.from_step(**doc)
        with pytest.raises(ConfigError) as err:
            config_from_dict({"grid": doc})
        assert err.value.violations[0].code == "BadGrid"


class TestValidation:
    def test_default_config_is_valid(self, default_config):
        assert validate_config(default_config) is default_config

    def test_epsilon_too_large_for_schedule(self):
        cfg = RouterConfig(epsilon=0.5, schedule=ConstantSchedule(0.6))
        codes = {v.code for v in config_violations(cfg)}
        assert "EpsilonTooLarge" in codes
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_epsilon_below_one_minus_rho_passes(self):
        cfg = RouterConfig(epsilon=0.39, schedule=ConstantSchedule(0.6))
        assert not config_violations(cfg)

    def test_mixture_needs_prior(self):
        cfg = RouterConfig(selection_mode=SelectionMode.MIXTURE)
        codes = {v.code for v in config_violations(cfg)}
        assert "BadPrior" in codes

    def test_prior_mass_must_sum_to_one(self):
        grid = ThresholdGrid.from_step(step=0.25)
        mass = np.full(5, 0.97 / 5)
        cfg = RouterConfig(selection_mode=SelectionMode.MIXTURE,
                           prior=Prior(mass=mass), grid=grid)
        codes = {v.code for v in config_violations(cfg)}
        assert "BadPrior" in codes

    def test_prior_in_fixed_sequence_mode_rejected(self):
        grid = ThresholdGrid.from_step(step=0.25)
        cfg = RouterConfig(prior=Prior.uniform(5), grid=grid)
        codes = {v.code for v in config_violations(cfg)}
        assert "BadPrior" in codes

    def test_uniform_prior_in_mixture_mode_ok(self):
        grid = ThresholdGrid.from_step(step=0.25)
        cfg = RouterConfig(selection_mode=SelectionMode.MIXTURE,
                           prior=Prior.uniform(5), grid=grid)
        assert not config_violations(cfg)

    @pytest.mark.parametrize("field,value,code", [
        ("epsilon", 0.0, "BadValue"),
        ("epsilon", -0.1, "BadValue"),
        ("alpha", 0.0, "BadValue"),
        ("alpha", 1.0, "BadValue"),
        ("betting_cap", 0.0, "BadValue"),
        ("betting_cap", 1.0, "BadValue"),
        ("seed", -1, "BadValue"),
    ])
    def test_scalar_field_violations(self, field, value, code):
        cfg = dataclasses.replace(RouterConfig(), **{field: value})
        codes = {v.code for v in config_violations(cfg)}
        assert code in codes

    @pytest.mark.parametrize("sched", [
        ConstantSchedule(0.0),
        ConstantSchedule(1.0),
        TwoStageSchedule(1.2, 0.05, 10),
        TwoStageSchedule(0.7, 0.05, -5),
    ])
    def test_bad_schedules(self, sched):
        cfg = RouterConfig(schedule=sched)
        codes = {v.code for v in config_violations(cfg)}
        assert "BadSchedule" in codes

    def test_bad_grids(self):
        for values in ([0.0, 0.5, 0.9],          # does not end at 1
                       [0.1, 0.5, 1.0],          # does not start at 0
                       [0.0, 0.5, 0.5, 1.0],     # not strictly increasing
                       [0.0]):                   # too short
            grid = ThresholdGrid(values=np.array(values))
            cfg = RouterConfig(grid=grid)
            codes = {v.code for v in config_violations(cfg)}
            assert "BadGrid" in codes, values

    def test_construction_is_permissive(self):
        # degenerate settings are constructible; only validation rejects them
        cfg = RouterConfig(alpha=1.0)
        assert cfg.alpha == 1.0

    def test_violation_messages_name_keys(self):
        cfg = RouterConfig(epsilon=-2.0, alpha=7.0)
        keys = {v.key for v in config_violations(cfg)}
        assert {"epsilon", "alpha"} <= keys


class TestWireFormat:
    def test_round_trip_preserves_digest(self, default_config):
        doc = config_to_dict(default_config)
        back = config_from_dict(doc)
        assert config_digest(back) == config_digest(default_config)

    def test_round_trip_two_stage_and_mixture(self):
        cfg = RouterConfig(epsilon=0.05, alpha=0.2,
                           selection_mode=SelectionMode.MIXTURE,
                           prior=Prior.uniform(5),
                           grid=ThresholdGrid.from_step(step=0.25),
                           schedule=TwoStageSchedule(0.5, 0.1, 77), seed=9)
        back = config_from_dict(config_to_dict(cfg))
        assert config_digest(back) == config_digest(cfg)
        assert isinstance(back.schedule, TwoStageSchedule)
        assert back.schedule.t_warm == 77

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"epsilon": 0.08, "bogus_knob": 3})
        assert "bogus_knob" in str(err.value)

    def test_malformed_sections(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schedule": {"kind": "cosine"}})
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"start": 0.2}})
        with pytest.raises(ConfigError):
            config_from_dict({"seed": True})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"epsilon": 0.05, "schedule": {"kind": "constant", "rho": 0.1}}))
        cfg = load_config(path)
        assert cfg.epsilon == 0.05
        assert deployment_rate(cfg.schedule) == 0.1

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_digest_distinguishes_configs(self, default_config):
        other = dataclasses.replace(default_config, epsilon=0.0800001)
        assert config_digest(other) != config_digest(default_config)
        assert len(config_digest(default_config)) == 16

    @settings(max_examples=30)
    @given(eps=st.floats(0.01, 0.2), alpha=st.floats(0.01, 0.5),
           seed=st.integers(0, 2**32))
    def test_round_trip_property(self, eps, alpha, seed):
        cfg = RouterConfig(epsilon=eps, alpha=alpha, seed=seed)
        back = config_from_dict(config_to_dict(cfg))
        assert config_digest(back) == config_digest(cfg)
