"""JSON wire format of router configs and stream specs.

Both readers are strict: a key the writer would not produce, a value that
is not a JSON number where a number belongs (or not an integer where an
integer belongs) and a missing ``kind`` raise ``ConfigError`` or
``SpecError`` naming the offending key. Any other exception escaping a
reader is a bug, which the replace-one-field fuzzers below look for.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpac.core import (
    SCHEDULE_KINDS,
    ConfigError,
    ConstantSchedule,
    RouterConfig,
    TwoStageSchedule,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from bpac.simulation import (
    LOSS_KINDS,
    SCORE_KINDS,
    TOKEN_KINDS,
    BetaScore,
    ConstantLoss,
    ConstantTokens,
    LinearLoss,
    PowerLoss,
    SpecError,
    StreamSegment,
    SyntheticStreamSpec,
    UniformScore,
    UniformTokens,
    spec_from_dict,
    spec_to_dict,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# Any JSON value, NaN and +-Infinity included (Python's json reads them).
# Object keys reach 5 characters, so a replacement can spell a grid's
# "start", "stop" or "step"; ``ThresholdGrid.from_step`` bounds the point
# count before it allocates.
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


def key_paths(doc, path=()):
    """Every key path into ``doc``, outermost first."""
    if path:
        yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from key_paths(value, path + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def spec_doc(**segment):
    """A one-segment spec document with ``segment``'s keys set."""
    seg = {"length": None, "score": {"kind": "uniform"}, "loss": {"kind": "linear"}}
    seg.update(segment)
    return {"name": "s", "segments": [seg]}


# Valid documents whose every field the fuzzers replace, one per grid form.
VALID_CONFIG_DOCS = [
    {"epsilon": 0.08, "alpha": 0.1, "betting_cap": 0.9, "selection_mode": "mixture",
     "prior": [0.2, 0.3, 0.5], "grid": {"values": [0.0, 0.5, 1.0]},
     "schedule": {"kind": "two_stage", "rho_warm": 0.7, "rho_deploy": 0.05, "t_warm": 200},
     "seed": 4},
    {"selection_mode": "mixture", "prior": "uniform", "grid": [0.0, 0.25, 1.0],
     "schedule": {"kind": "constant", "rho": 0.1}},
    {"grid": {"start": 0.0, "stop": 1.0, "step": 0.25}},
]
VALID_SPEC_DOC = {"name": "every_kind", "segments": [
    {"length": 10, "score": {"kind": "beta", "a": 2.0, "b": 5.0},
     "loss": {"kind": "power", "kappa": 0.8, "degree": 3.0},
     "tokens": {"kind": "uniform_int", "cheap_low": 50, "cheap_high": 150,
                "expensive_low": 400, "expensive_high": 600}},
    {"length": 20, "score": {"kind": "uniform", "low": 0.1, "high": 0.9},
     "loss": {"kind": "constant", "level": 0.2},
     "tokens": {"kind": "constant", "cheap": 120, "expensive": 480}},
    {"length": None, "score": {"kind": "uniform"}, "loss": {"kind": "linear", "kappa": 0.5}},
]}

schedules = st.one_of(
    st.builds(ConstantSchedule, rho=st.floats(0.01, 0.99)),
    st.builds(TwoStageSchedule, rho_warm=st.floats(0.01, 0.99),
              rho_deploy=st.floats(0.01, 0.99), t_warm=st.integers(0, 10**6)))
unit = st.floats(0.0, 1.0)
counts = st.integers(0, 10**6)
scores = st.one_of(
    st.tuples(unit, unit).filter(lambda lh: lh[0] < lh[1]).map(lambda lh: UniformScore(*lh)),
    st.builds(BetaScore, a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3)))
losses = st.one_of(
    st.builds(LinearLoss, kappa=unit),
    st.builds(ConstantLoss, level=unit),
    st.builds(PowerLoss, kappa=unit, degree=st.floats(1e-3, 100.0)))
tokens = st.one_of(
    st.builds(ConstantTokens, cheap=counts, expensive=counts),
    st.tuples(counts, counts, counts, counts).map(
        lambda c: UniformTokens(*sorted(c[:2]), *sorted(c[2:]))))


class TestRoundTrip:
    @settings(max_examples=60)
    @given(schedule=schedules, seed=st.integers(0, 2**64 - 1))
    def test_schedule_kinds(self, schedule, seed):
        cfg = RouterConfig(schedule=schedule, seed=seed)
        back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert back.schedule == schedule
        assert config_digest(back) == config_digest(cfg)

    @settings(max_examples=100)
    @given(score=scores, loss=losses, tokens=tokens,
           length=st.none() | st.integers(1, 10**9))
    def test_law_kinds(self, score, loss, tokens, length):
        spec = SyntheticStreamSpec(
            segments=(StreamSegment(length=length, score=score, loss=loss, tokens=tokens),),
            name="drawn")
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back.segments == spec.segments
        assert back.name == spec.name

    def test_missing_fields_take_the_class_defaults(self):
        cfg = config_from_dict({"schedule": {"kind": "two_stage"}})
        assert config_digest(cfg) == config_digest(RouterConfig())
        spec = spec_from_dict({"segments": [{"score": {"kind": "uniform"},
                                             "loss": {"kind": "power"}}]})
        assert spec.segments == (StreamSegment(None, UniformScore(), PowerLoss()),)
        assert spec.name == "custom"

    def test_integers_are_read_as_floats_where_floats_belong(self):
        cfg = config_from_dict({"epsilon": 1, "schedule": {"kind": "constant", "rho": 1}})
        assert type(cfg.epsilon) is float and type(cfg.schedule.rho) is float
        law = spec_from_dict(spec_doc(loss={"kind": "constant", "level": 0})).segments[0].loss
        assert type(law.level) is float

    @pytest.mark.parametrize("kinds", [SCHEDULE_KINDS, SCORE_KINDS, LOSS_KINDS, TOKEN_KINDS])
    def test_every_kind_field_is_a_json_number(self, kinds):
        # The reader reads numbers only; a law with another field type
        # would be written but could not be read back.
        for cls in kinds.values():
            for f in dataclasses.fields(cls):
                if f.init:
                    assert f.type in ("float", "int"), (cls.__name__, f.name, f.type)


class TestMalformed:
    @pytest.mark.parametrize("doc, code, key", [
        ({"schedule": {"kind": "constant", "rho": 0.1, "rho_deploy": 0.05}}, "BadSchedule", "schedule"),
        ({"schedule": {"kind": "two_stage", "t_wram": 10}}, "BadSchedule", "schedule"),
        ({"schedule": {"kind": "two_stage", "t_warm": 10.7}}, "BadSchedule", "schedule"),
        ({"schedule": {"kind": "two_stage", "t_warm": True}}, "BadSchedule", "schedule"),
        ({"schedule": {"kind": "constant", "rho": "0.1"}}, "BadSchedule", "schedule"),
        ({"grid": {"step": 0.1, "stpo": 0.5}}, "BadGrid", "grid"),
        ({"grid": {"values": [0.0, 1.0], "step": 0.5}}, "BadGrid", "grid"),
        ({"grid": {"step": "0.1"}}, "BadGrid", "grid"),
        ({"grid": {"start": True, "step": 0.5}}, "BadGrid", "grid"),
        ({"grid": {"start": math.inf, "step": 0.5}}, "BadGrid", "grid"),
        ({"grid": [0.0, "0.5", 1.0]}, "BadGrid", "grid"),
        ({"grid": [0.0, True, 1.0]}, "BadGrid", "grid"),
        ({"selection_mode": "mixture", "grid": [0.0, 0.5, 1.0], "prior": [True, 0.5, 0.5]},
         "BadPrior", "prior"),
        ({"epsilon": True}, "BadValue", "epsilon"),
        ({"epsilon": "0.5"}, "BadValue", "epsilon"),
        ({"epsilon": None}, "BadValue", "epsilon"),
        ({"epsilon": 10**400}, "BadValue", "epsilon"),
        ({"alpha": False}, "BadValue", "alpha"),
        ({"betting_cap": "0.9"}, "BadValue", "betting_cap"),
    ])
    def test_config(self, doc, code, key):
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert [(v.code, v.key) for v in err.value.violations] == [(code, key)]

    @pytest.mark.parametrize("doc, key", [
        (spec_doc(loss={"kind": "linear", "kapa": 0.5}), "segments[0].loss"),
        (spec_doc(score={"kind": "uniform", "hgih": 0.5}), "segments[0].score"),
        (spec_doc(tokens={"kind": "constant", "chaep": 1}), "segments[0].tokens"),
        (spec_doc(lenght=5), "segments[0]"),
        ({**spec_doc(), "nmae": "x"}, "nmae"),
        ({"name": 3, "segments": spec_doc()["segments"]}, "name"),
        ({"segments": 3}, "segments"),
        ({"segments": {"length": None}}, "segments"),
        (spec_doc(length=True), "segments[0]"),
        (spec_doc(loss={"kind": "linear", "kappa": True}), "segments[0].loss"),
        (spec_doc(loss={"kind": "linear", "kappa": "0.5"}), "segments[0].loss"),
        (spec_doc(score={"kind": "uniform", "high": True}), "segments[0].score"),
        (spec_doc(score={"kind": "beta", "a": "2", "b": 5.0}), "segments[0].score"),
        (spec_doc(tokens={"kind": "constant", "cheap": 2.7}), "segments[0].tokens"),
        (spec_doc(tokens={"kind": "constant", "expensive": True}), "segments[0].tokens"),
        (spec_doc(tokens={"kind": "uniform_int", "cheap_low": 1, "cheap_high": 2.5,
                          "expensive_low": 3, "expensive_high": 4}), "segments[0].tokens"),
        (spec_doc(loss={"kind": "power", "degree": math.nan}), "segments[0].loss"),
        (spec_doc(loss={"kind": "power", "degree": math.inf}), "segments[0].loss"),
        (spec_doc(score={"kind": "beta", "a": math.inf, "b": 1.0}), "segments[0].score"),
        (spec_doc(score={"kind": "beta", "a": 2.0, "b": math.nan}), "segments[0].score"),
        ({"segments": [spec_doc(length=5)["segments"][0],
                       spec_doc(loss={"kind": "linear", "kapa": 0.5})["segments"][0]]},
         "segments[1].loss"),
    ])
    def test_spec(self, doc, key):
        with pytest.raises(SpecError) as err:
            spec_from_dict(doc)
        assert err.value.key == key

    def test_undecodable_file_is_keyed_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.violations[0].key == "<file>"


class TestFuzz:
    @settings(max_examples=1000)
    @given(case=st.sampled_from([(doc, path) for doc in VALID_CONFIG_DOCS
                                 for path in key_paths(doc)]),
           value=json_values)
    def test_config_field_replaced(self, case, value):
        doc, path = case
        try:
            config_digest(validate_config(config_from_dict(replaced(doc, path, value))))
        except ConfigError:
            pass

    @settings(max_examples=1000)
    @given(path=st.sampled_from(list(key_paths(VALID_SPEC_DOC))), value=json_values)
    def test_spec_field_replaced(self, path, value):
        try:
            spec_to_dict(spec_from_dict(replaced(VALID_SPEC_DOC, path, value)))
        except SpecError:
            pass


def readme_section(title):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


class TestReadme:
    """The README's JSON examples load under the strict readers."""

    def test_stream_spec_blocks(self):
        blocks = re.findall(r"```json\n(.*?)```", readme_section("Stream specs"), re.S)
        assert blocks
        for block in blocks:
            spec_from_dict(json.loads(block))

    def test_router_config_blocks(self):
        blocks = re.findall(r"```json\n(.*?)```", readme_section("Router config"), re.S)
        assert blocks
        for block in blocks:
            validate_config(config_from_dict(json.loads(block)))

    def test_mixture_one_liner(self):
        (doc,) = re.findall(r"echo '(.*)' > mixture\.json", README.read_text())
        validate_config(config_from_dict(json.loads(doc)))
