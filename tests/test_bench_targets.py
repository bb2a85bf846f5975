"""The benchmark's tracer (perfbench/spans.py) replaces bpac attributes by
name; a rename or deletion in bpac must fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    pairs = load_spans().wrapped_attributes()
    assert pairs
    missing = [f"{owner.__name__}.{attr}" for owner, attr in pairs
               if attr not in vars(owner)]
    assert missing == []


def test_compare_steps_each_traced_layer_once_per_method_step(tmp_path, capsys):
    """The benchmark's compare workload reads its per-layer view from these
    wrappers. A driver that stopped calling a wrapped name would read 0 there
    without failing any output check."""
    import bpac.cli

    spans = load_spans()
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        code = bpac.cli.main(["compare", "--out", str(tmp_path), "--spec", "easy_hard",
                              "--horizon", "30", "--seeds", "1,2"])
    capsys.readouterr()
    assert code == 0
    calls = {name: row["calls"] for name, row in recorder.summary().items()}
    per_method = 30 * 2
    assert calls["engine.step"] == per_method
    assert calls["baselines.naive_step"] == per_method
    assert calls["baselines.hoeff_step"] == per_method
    assert calls["metrics.MetricAccumulator.update"] == 3 * per_method
    assert calls["simulation.RiskTracker.absorb"] == 3 * per_method
