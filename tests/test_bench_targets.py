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
