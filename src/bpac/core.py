"""Configuration types for the streaming risk-controlled router.

Everything the router needs up front lives here: the candidate threshold
grid, the exploration schedule, the prior over thresholds (mixture mode),
the risk budget, and the per-stream observation record. Construction is
deliberately permissive; ``validate_config`` is the single gate that
enforces the numeric invariants and reports every violation at once with
a stable machine-readable code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from numbers import Real
from pathlib import Path
from typing import Any, Callable, Union

import numpy as np

DEFAULT_EPSILON = 0.08
DEFAULT_ALPHA = 0.1
DEFAULT_BETTING_CAP = 0.9
DEFAULT_GRID_STEP = 0.001
DEFAULT_RHO_WARM = 0.7
DEFAULT_RHO_DEPLOY = 0.05
DEFAULT_T_WARM = 200

MAX_SEED = 2**64

# 100x the widest benchmarked grid (10001 points), so a start/stop/step
# document can never ask numpy for gigabytes before validation.
MAX_GRID_POINTS = 10**6

PRIOR_SUM_TOL = 1e-9


class SelectionMode(str, Enum):
    """How the deployed threshold is read off the wealth table each step."""

    FIXED_SEQUENCE = "fixed_sequence"
    MIXTURE = "mixture"


@dataclass(frozen=True)
class Violation:
    """One validation failure: a stable code, the offending key, and prose."""

    code: str
    key: str
    message: str


class ConfigError(ValueError):
    """Raised when validation fails; carries the full list of violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(f"{v.code} ({v.key}): {v.message}" for v in self.violations))


@dataclass(frozen=True, eq=False)
class ThresholdGrid:
    """Sorted candidate thresholds spanning [0, 1].

    The router only ever deploys values from this grid. ``step`` is a
    serialization hint kept when the grid was built from a regular spacing;
    it plays no role in the math. ``values`` is a read-only copy of the
    caller's array, so ``grid_list``, the same values as Python floats for
    ``bisect`` in ``engine.route``, can never go stale.
    """

    values: np.ndarray
    step: float | None = None
    grid_list: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "grid_list", values.tolist())

    def __reduce__(self):
        # Rebuild through __init__, so an unpickled grid (a worker's) is
        # read-only too.
        return type(self), (self.values, self.step)

    @classmethod
    def from_step(cls, start: float = 0.0, stop: float = 1.0,
                  step: float = DEFAULT_GRID_STEP) -> "ThresholdGrid":
        count = int(round((stop - start) / step)) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid of {count} points exceeds {MAX_GRID_POINTS}")
        return cls(values=np.linspace(start, stop, count), step=step)

    @classmethod
    def default(cls) -> "ThresholdGrid":
        return cls.from_step()

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class Prior:
    """Probability mass over grid points, used only by mixture selection."""

    mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float))

    @classmethod
    def uniform(cls, n: int) -> "Prior":
        return cls(mass=np.ones(n) / n)


@dataclass(frozen=True)
class ConstantSchedule:
    """Explore below the deployed threshold at a fixed rate forever."""

    rho: float

    rho_min: float = field(init=False)

    def __post_init__(self) -> None:
        # rho_min is the declared infimum of the exploration rate over the
        # whole horizon; the importance weights are anchored to it.
        object.__setattr__(self, "rho_min", float(self.rho))

    def rate_at(self, t: int) -> float:
        return self.rho

    def emitted_rates(self) -> tuple[float, ...]:
        return (self.rho,)


@dataclass(frozen=True)
class TwoStageSchedule:
    """Explore generously through a warmup window, then throttle down.

    Steps 1..t_warm (inclusive) use rho_warm; every later step uses
    rho_deploy.
    """

    rho_warm: float = DEFAULT_RHO_WARM
    rho_deploy: float = DEFAULT_RHO_DEPLOY
    t_warm: int = DEFAULT_T_WARM

    rho_min: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho_min", float(min(self.rho_warm, self.rho_deploy)))

    def rate_at(self, t: int) -> float:
        return self.rho_warm if t <= self.t_warm else self.rho_deploy

    def emitted_rates(self) -> tuple[float, ...]:
        return (self.rho_warm, self.rho_deploy)


Schedule = Union[ConstantSchedule, TwoStageSchedule]


def rho_at(schedule: Schedule, t: int) -> float:
    """Exploration rate used at step t (1-based)."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return float(schedule.rate_at(t))


def rate_pieces(schedule: Schedule, start: int, stop: int):
    """Yield ``(first, end, rho)`` runs that cover steps [start, stop) in order,
    ``rho`` being ``rho_at`` of every step of the run. A two-stage schedule
    changes its rate once, after ``t_warm``; ``stop`` may be ``math.inf``."""
    while start < stop:
        end = stop
        if isinstance(schedule, TwoStageSchedule) and start <= schedule.t_warm:
            end = min(stop, schedule.t_warm + 1)
        yield start, end, rho_at(schedule, start)
        start = end


def deployment_rate(schedule: Schedule) -> float:
    """Long-run exploration rate, the one in force after any warmup."""
    if isinstance(schedule, TwoStageSchedule):
        return float(schedule.rho_deploy)
    return float(schedule.rho)


@dataclass(frozen=True, eq=False)
class RouterConfig:
    """Full specification of one router run.

    Defaults reproduce the reference operating point: risk budget 0.08 at
    confidence 0.9, a 0.001-step grid, and a 200-step warmup at
    exploration 0.7 before settling at 0.05.
    """

    epsilon: float = DEFAULT_EPSILON
    alpha: float = DEFAULT_ALPHA
    betting_cap: float = DEFAULT_BETTING_CAP
    selection_mode: SelectionMode = SelectionMode.FIXED_SEQUENCE
    prior: Prior | None = None
    grid: ThresholdGrid = field(default_factory=ThresholdGrid.default)
    schedule: Schedule = field(default_factory=TwoStageSchedule)
    seed: int = 0


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot of a slotted dataclass, in field
    order. A frozen dataclass's ``__init__`` may fill its fields through
    them, one call each, where the generated one makes an
    ``object.__setattr__`` call per field: a ``StreamObservation`` built
    this way took 480 ns against 815 ns (shared 2-core x86 box)."""
    return tuple(vars(cls)[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class StreamObservation:
    """One arriving query, as the harness sees it.

    ``latent_loss`` is the cheap-vs-expensive disagreement loss. The engine
    must never touch it directly; it reads losses through a LossGate, which
    only opens on steps that actually routed to the expensive model.
    Evaluator-side code (metrics, oracles) may read it freely. Slotted, so
    a loaded trace holds no dict per event (80 B a record, not 120 B).
    """

    index: int
    uncertainty: float
    latent_loss: float
    tokens_cheap: int
    tokens_expensive: int

    def __init__(self, index: int, uncertainty: float, latent_loss: float,
                 tokens_cheap: int, tokens_expensive: int) -> None:
        set_index, set_uncertainty, set_loss, set_cheap, set_expensive = _OBSERVATION_SLOTS
        set_index(self, index)
        set_uncertainty(self, uncertainty)
        set_loss(self, latent_loss)
        set_cheap(self, tokens_cheap)
        set_expensive(self, tokens_expensive)


_OBSERVATION_SLOTS = slot_setters(StreamObservation)


def _in_unit_interval(value: Any) -> bool:
    """``value`` is a real number in (0, 1); a string or None is not."""
    return isinstance(value, Real) and 0 < value < 1


def _is_number(value: Any) -> bool:
    """``value`` is an int or a float and not a bool, as the JSON reader requires."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    """``value`` is an int and not a bool, as the JSON reader requires."""
    return isinstance(value, int) and not isinstance(value, bool)


def config_violations(config: RouterConfig) -> list[Violation]:
    """Collect every invariant violation; empty list means valid.

    A config built in Python may hold any object in any field; one of the
    wrong type is a violation too, never a ``TypeError`` or ``AttributeError``.
    """
    out: list[Violation] = []

    if not _is_number(config.epsilon) or not config.epsilon > 0:
        out.append(Violation("BadValue", "epsilon", f"risk budget must be positive, got {config.epsilon!r}"))
    if not _in_unit_interval(config.alpha):
        out.append(Violation("BadValue", "alpha", f"confidence level must lie in (0, 1), got {config.alpha!r}"))
    if not _in_unit_interval(config.betting_cap):
        out.append(Violation("BadValue", "betting_cap", f"betting cap must lie in (0, 1), got {config.betting_cap!r}"))
    if not _is_int(config.seed) or not 0 <= config.seed < MAX_SEED:
        out.append(Violation("BadValue", "seed", f"seed must be an integer in [0, 2**64), got {config.seed!r}"))
    if not isinstance(config.selection_mode, SelectionMode):
        out.append(Violation("BadValue", "selection_mode", f"unknown selection mode {config.selection_mode!r}"))

    out.extend(_schedule_violations(config.schedule))

    # The wealth process only has room to grow when epsilon leaves headroom
    # below the worst-case per-step payoff at every exploration rate.
    if _is_number(config.epsilon) and config.epsilon > 0:
        try:
            rates = config.schedule.emitted_rates()
        except AttributeError:
            rates = ()
        for rho in rates:
            if _in_unit_interval(rho) and config.epsilon >= 1 - rho:
                out.append(Violation(
                    "EpsilonTooLarge", "epsilon",
                    f"risk budget {config.epsilon} must stay below 1 - rho = {1 - rho:.6g} "
                    f"for exploration rate {rho}"))

    out.extend(_grid_violations(config.grid))

    if config.selection_mode is SelectionMode.MIXTURE:
        if config.prior is None:
            out.append(Violation("BadPrior", "prior", "mixture selection requires a prior over the grid"))
        else:
            out.extend(_prior_violations(config.prior, config.grid))
    elif config.prior is not None:
        out.append(Violation("BadPrior", "prior", "prior supplied but selection mode is fixed_sequence"))

    return out


def _grid_violations(grid: Any) -> list[Violation]:
    if not isinstance(grid, ThresholdGrid):
        return [Violation("BadGrid", "grid", f"grid must be a ThresholdGrid, got {type(grid).__name__}")]
    out: list[Violation] = []
    v = grid.values
    if v.ndim != 1 or v.size < 2:
        out.append(Violation("BadGrid", "grid", f"grid needs at least 2 points in one dimension, got shape {v.shape}"))
        return out
    if not np.all(np.isfinite(v)):
        out.append(Violation("BadGrid", "grid", "grid contains non-finite values"))
        return out
    if not np.all(np.diff(v) > 0):
        out.append(Violation("BadGrid", "grid", "grid values must be strictly increasing"))
    if v[0] != 0.0:
        out.append(Violation("BadGrid", "grid", f"grid must start at 0.0, got {v[0]!r}"))
    if v[-1] != 1.0:
        out.append(Violation("BadGrid", "grid", f"grid must end at 1.0, got {v[-1]!r}"))
    return out


def _prior_violations(prior: Any, grid: Any) -> list[Violation]:
    if not isinstance(prior, Prior):
        return [Violation("BadPrior", "prior", f"prior must be a Prior, got {type(prior).__name__}")]
    if not isinstance(grid, ThresholdGrid):
        return []  # the grid's own violation says why the masses cannot be matched
    out: list[Violation] = []
    m = prior.mass
    if m.ndim != 1 or m.size != grid.values.size:
        out.append(Violation("BadPrior", "prior", f"prior has {m.size} masses for a grid of {grid.values.size}"))
        return out
    if not np.all(m > 0):
        out.append(Violation("BadPrior", "prior", "every grid point needs strictly positive prior mass"))
    total = float(m.sum())
    if abs(total - 1.0) > PRIOR_SUM_TOL:
        out.append(Violation("BadPrior", "prior", f"prior mass sums to {total!r}, not 1 within {PRIOR_SUM_TOL}"))
    return out


def _schedule_violations(schedule: Any) -> list[Violation]:
    out: list[Violation] = []
    if isinstance(schedule, ConstantSchedule):
        if not _in_unit_interval(schedule.rho):
            out.append(Violation("BadSchedule", "schedule", f"exploration rate must lie in (0, 1), got {schedule.rho!r}"))
    elif isinstance(schedule, TwoStageSchedule):
        for name, rho in (("rho_warm", schedule.rho_warm), ("rho_deploy", schedule.rho_deploy)):
            if not _in_unit_interval(rho):
                out.append(Violation("BadSchedule", "schedule", f"{name} must lie in (0, 1), got {rho!r}"))
        if not _is_int(schedule.t_warm) or schedule.t_warm < 0:
            out.append(Violation("BadSchedule", "schedule", f"t_warm must be a non-negative integer, got {schedule.t_warm!r}"))
    else:
        out.append(Violation("BadSchedule", "schedule", f"unknown schedule type {type(schedule).__name__}"))
    return out


def validate_config(config: RouterConfig) -> RouterConfig:
    """Return the config unchanged iff every invariant holds, else raise.

    Idempotent: validating a validated config is a no-op.
    """
    violations = config_violations(config)
    if violations:
        raise ConfigError(violations)
    return config


# ---------------------------------------------------------------------------
# JSON wire format


# Tagged objects (schedules here, stream laws in ``simulation``) are read and
# written from their dataclass fields: ``kind`` names the class in a kind
# table, and every other key is an init field holding a JSON number.

SCHEDULE_KINDS: dict[str, type] = {"constant": ConstantSchedule, "two_stage": TwoStageSchedule}

# Builds the typed error for a malformed document from its message.
Fail = Callable[[str], Exception]


def json_number(value: Any, integer: bool, fail: Fail, name: str) -> float | int:
    """``value`` as a float, or as an int when ``integer``, if it is that JSON number."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise fail(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise fail(f"{name} is too large for a float") from None


def tagged_to_dict(obj: Any, kinds: dict[str, type]) -> dict[str, Any]:
    """``{"kind": <obj's name in kinds>, <init field>: value, ...}``."""
    kind = {cls: name for name, cls in kinds.items()}[type(obj)]
    return {"kind": kind, **{f.name: getattr(obj, f.name) for f in fields(obj) if f.init}}


def tagged_from_dict(raw: Any, kinds: dict[str, type], fail: Fail) -> Any:
    """Inverse of ``tagged_to_dict``; malformed documents raise ``fail(message)``.

    Every key but ``kind`` must be an init field and hold a JSON number (an
    integer for ``int`` fields); a missing field takes the class default.
    Range checks are the class's own, and its ValueError becomes ``fail``.
    """
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise fail(f"expected an object whose 'kind' is one of {sorted(kinds)}, got {raw!r}")
    init = {f.name: f for f in fields(kinds[kind]) if f.init}
    unknown = sorted(raw.keys() - init.keys() - {"kind"})
    if unknown:
        raise fail(f"unknown {kind} field {unknown[0]!r}")
    for name, f in init.items():
        if name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise fail(f"{kind} needs field {name!r}")
    values = {name: json_number(raw[name], f.type == "int", fail, name)
              for name, f in init.items() if name in raw}
    try:
        return kinds[kind](**values)
    except ValueError as exc:
        raise fail(str(exc)) from None


def config_to_dict(config: RouterConfig) -> dict[str, Any]:
    """Canonical JSON-ready form; stable across processes for hashing."""
    if config.grid.step is not None:
        grid: Any = {"start": float(config.grid.values[0]),
                     "stop": float(config.grid.values[-1]),
                     "step": float(config.grid.step)}
    else:
        grid = {"values": [float(x) for x in config.grid.values]}

    if config.prior is None:
        prior: Any = None
    elif np.all(config.prior.mass == config.prior.mass[0]):
        prior = "uniform"
    else:
        prior = [float(x) for x in config.prior.mass]

    return {
        "epsilon": config.epsilon,
        "alpha": config.alpha,
        "betting_cap": config.betting_cap,
        "selection_mode": config.selection_mode.value,
        "prior": prior,
        "grid": grid,
        "schedule": tagged_to_dict(config.schedule, SCHEDULE_KINDS),
        "seed": config.seed,
    }


_CONFIG_FIELDS = fields(RouterConfig)


def _fail(code: str, key: str) -> Fail:
    return lambda message: ConfigError([Violation(code, key, message)])


def config_from_dict(raw: dict[str, Any]) -> RouterConfig:
    """Build a RouterConfig from parsed JSON; missing keys take defaults.

    Raises ConfigError on structural problems: unknown keys, values of the
    wrong JSON type, malformed sub-documents. Numeric invariants are left
    to ``validate_config``.
    """
    if not isinstance(raw, dict):
        raise _fail("BadValue", "<root>")("config document must be a JSON object")
    unknown = sorted(raw.keys() - {f.name for f in _CONFIG_FIELDS})
    if unknown:
        raise _fail("BadValue", unknown[0])(f"unknown config key {unknown[0]!r}")

    scalars = {f.name: json_number(raw[f.name], f.type == "int", _fail("BadValue", f.name), f.name)
               for f in _CONFIG_FIELDS if f.type in ("float", "int") and f.name in raw}
    grid = _grid_from_raw(raw.get("grid"))
    schedule = (TwoStageSchedule() if raw.get("schedule") is None else
                tagged_from_dict(raw["schedule"], SCHEDULE_KINDS, _fail("BadSchedule", "schedule")))

    mode_raw = raw.get("selection_mode", SelectionMode.FIXED_SEQUENCE.value)
    try:
        mode = SelectionMode(mode_raw)
    except ValueError:
        raise _fail("BadValue", "selection_mode")(
            f"selection_mode must be one of {[m.value for m in SelectionMode]}, got {mode_raw!r}") from None

    prior_raw = raw.get("prior")
    if prior_raw is None:
        prior = None
    elif prior_raw == "uniform":
        prior = Prior.uniform(grid.n)
    else:
        prior = Prior(mass=_numbers(prior_raw, _fail("BadPrior", "prior"), "prior"))

    return RouterConfig(selection_mode=mode, prior=prior, grid=grid, schedule=schedule, **scalars)


def _numbers(raw: Any, fail: Fail, name: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise fail(f"{name} must be a list of numbers, got {raw!r}")
    return np.array([json_number(x, False, fail, f"{name} entry") for x in raw], dtype=float)


def _grid_from_raw(raw: Any) -> ThresholdGrid:
    fail = _fail("BadGrid", "grid")
    if raw is None:
        return ThresholdGrid.default()
    if isinstance(raw, list):
        return ThresholdGrid(values=_numbers(raw, fail, "grid"))
    if isinstance(raw, dict) and raw.keys() == {"values"}:
        return ThresholdGrid(values=_numbers(raw["values"], fail, "grid"))
    if not isinstance(raw, dict) or "step" not in raw or not raw.keys() <= {"start", "stop", "step"}:
        raise fail(f"grid must be a list, {{'values': [...]}} or {{'start', 'stop', 'step'}}, got {raw!r}")
    bounds = {name: json_number(value, False, fail, name) for name, value in raw.items()}
    try:
        return ThresholdGrid.from_step(**bounds)
    except (ArithmeticError, ValueError):
        raise fail(f"malformed grid document {raw!r}") from None


class _DuplicateKey(ValueError):
    """A JSON object gives one key twice."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """``object_pairs_hook`` that builds an object and refuses a key given
    twice in it, which ``json`` would otherwise settle by keeping the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _DuplicateKey(f"duplicate key {key!r} in one JSON object")
        obj[key] = value
    return obj


def load_json(path: str | Path, fail: Fail) -> Any:
    """Parse a JSON file; text that is not JSON, an object that gives a key
    twice, at any depth, or nesting deeper than Python's recursion limit
    raises ``fail(message)``."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except _DuplicateKey as exc:
        raise fail(str(exc)) from None
    except ValueError as exc:
        raise fail(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise fail("not valid JSON: nested too deeply to parse") from None


def load_config(path: str | Path) -> RouterConfig:
    """Parse a config JSON file. Invariants still need ``validate_config``."""
    return config_from_dict(load_json(path, _fail("BadValue", "<file>")))


def config_digest(config: RouterConfig) -> str:
    """Short stable fingerprint of a config, embedded in output headers."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
