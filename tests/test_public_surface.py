"""The public surface of ``bpac``, pinned so that any change to it shows up
in review as a one-line diff here, and held to what an entry point reaches:
the package's own modules, ``scripts/`` and ``perfbench/``, not the tests."""

import ast
from pathlib import Path

import bpac

REPO = Path(__file__).resolve().parents[1]
ENTRY_POINTS = [path for pattern in ("src/bpac/*.py", "scripts/*.py", "perfbench/*.py")
                for path in sorted(REPO.glob(pattern)) if path.name != "__init__.py"]

PUBLIC = [
    "BetaScore",
    "ConfigError",
    "ConstantLoss",
    "ConstantSchedule",
    "ConstantTokens",
    "DEFAULT_ALPHA",
    "DEFAULT_BETTING_CAP",
    "DEFAULT_EPSILON",
    "Decision",
    "InvalidObservation",
    "LinearLoss",
    "LossGate",
    "LossGateViolation",
    "MeanState",
    "Method",
    "MetricAccumulator",
    "NonStationarySpec",
    "OutOfOrderObservation",
    "PowerLoss",
    "Prior",
    "RegretReport",
    "RiskTracker",
    "RouterConfig",
    "RouterState",
    "SelectionMode",
    "SpecError",
    "StreamExhausted",
    "StreamObservation",
    "StreamSegment",
    "SyntheticStreamSpec",
    "TRAJECTORY_COLUMNS",
    "ThresholdAccount",
    "ThresholdGrid",
    "TraceFormatError",
    "Trajectory",
    "TwoStageSchedule",
    "UniformScore",
    "UniformTokens",
    "UnknownMethod",
    "Violation",
    "WagerOutOfRange",
    "adaptive_lambda",
    "config_digest",
    "config_from_dict",
    "config_to_dict",
    "deployment_rate",
    "easy_hard",
    "generate_event",
    "hoeff_slack",
    "load_config",
    "load_stream_spec",
    "load_trace",
    "mc_safety",
    "mean_loss_below",
    "mean_step",
    "oracle_risk_grid",
    "payoff_bound",
    "pinned_threshold_study",
    "propensity",
    "regret_bound",
    "regret_harness",
    "replay_trace",
    "rho_at",
    "run_replication",
    "spec_from_dict",
    "spec_to_dict",
    "step",
    "uniform_linear",
    "update_account",
    "validate_config",
    "wilson_interval",
    "write_summary_json",
    "write_trace",
    "write_trajectory",
    "write_wealth_snapshots",
]


def test_public_names_are_pinned():
    assert sorted(bpac.__all__) == PUBLIC


def reached_names(paths) -> set[str]:
    """Every name the files load, take as an attribute or import, and every
    string constant they hold: perfbench's tracer names its targets by string."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_is_reached_by_an_entry_point():
    assert sorted(set(bpac.__all__) - reached_names(ENTRY_POINTS)) == []


def test_a_name_is_reached_by_its_use_not_its_definition(tmp_path):
    """A loaded name, an attribute, an import alias and a string constant
    reach a name; a def, a class or an assignment target does not, or every
    name would reach itself from the module that defines it."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from pkg import imported\n"
        "def defined(): pass\n"
        "class Klass: pass\n"
        "assigned = 1\n"
        "loaded(pkg.attribute, 'by_string')\n")
    assert reached_names([module]) == {"imported", "loaded", "pkg", "attribute", "by_string"}
