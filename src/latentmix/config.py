"""Run configuration: strict JSON parsing with full-field validation.

Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to a default.  The accepted keys and each value's type come from
the dataclass fields below; only "lambda" (sampler.lam) is renamed.
dump_config(parse_config(x)) round-trips.
"""

from __future__ import annotations

import dataclasses
import json

from .core import DEFAULT_BETA_END, DEFAULT_BETA_START, DEFAULT_T, SCHEDULE_KINDS
from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class ScheduleConfig:
    T: int = DEFAULT_T
    beta_start: float = DEFAULT_BETA_START
    beta_end: float = DEFAULT_BETA_END
    kind: str = "scaled_linear"


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    eta: float = 0.0
    beta: float = 0.9  # momentum decay
    lam: float = 1.0  # drift direction scale; serialized as "lambda"
    kappa0: float = 2.0


@dataclasses.dataclass(frozen=True)
class InjectionConfig:
    t_prime: int = 300
    strength: float = 2.0
    gamma_res: float = 0.05
    tau: float = 0.5
    cutoff: float = 0.25


@dataclasses.dataclass(frozen=True)
class QueueConfig:
    length: int = 50  # also the number of denoising steps (one diagonal window)
    frames: int = 16


@dataclasses.dataclass(frozen=True)
class RunConfig:
    schedule: ScheduleConfig = dataclasses.field(default_factory=ScheduleConfig)
    sampler: SamplerConfig = dataclasses.field(default_factory=SamplerConfig)
    injection: InjectionConfig = dataclasses.field(default_factory=InjectionConfig)
    queue: QueueConfig = dataclasses.field(default_factory=QueueConfig)
    seed: int = 0


# dataclass field -> JSON key, where they differ ("lambda" is reserved in Python)
_JSON_KEYS = {"lam": "lambda"}

# annotation -> (accepts, description); bool is an int subclass but never a
# valid count, seed or weight
_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _is_section(field: dataclasses.Field) -> bool:
    # a section field's default factory is the section's own dataclass
    return dataclasses.is_dataclass(field.default_factory)


def _from_json(cls, obj: dict, where: str):
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    kwargs = {}
    for key, value in obj.items():
        field = fields[key]
        if _is_section(field):
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            value = _from_json(field.default_factory, value, repr(key))
        kwargs[field.name] = value
    return cls(**kwargs)


def parse_config(source: str | dict) -> RunConfig:
    """Parse and validate a run configuration from JSON text or a dict."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(source, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _from_json(RunConfig, source, "the config root")
    validate_config(cfg)
    return cfg


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _check_types(obj, prefix: str = "") -> None:
    """Check every field against its annotation, descending into sections."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        key = prefix + _JSON_KEYS.get(field.name, field.name)
        if _is_section(field):
            _require(isinstance(value, field.default_factory), f"{key} must be a {field.type}, got {value!r}")
            _check_types(value, key + ".")
        else:
            accepts, what = _KINDS[field.type]
            _require(accepts(value), f"{key} must be {what}, got {value!r}")


def validate_config(cfg: RunConfig) -> RunConfig:
    _check_types(cfg)
    s, sa, inj, q = cfg.schedule, cfg.sampler, cfg.injection, cfg.queue
    _require(s.T >= 1, f"schedule.T must be a positive integer, got {s.T!r}")
    _require(
        0.0 < s.beta_start <= s.beta_end < 1.0,
        f"schedule betas must satisfy 0 < beta_start <= beta_end < 1, got ({s.beta_start}, {s.beta_end})",
    )
    _require(s.kind in SCHEDULE_KINDS, f"schedule.kind must be one of {SCHEDULE_KINDS}, got {s.kind!r}")
    _require(sa.eta >= 0.0, f"sampler.eta must be >= 0, got {sa.eta}")
    _require(0.0 <= sa.beta <= 1.0, f"sampler.beta must lie in [0, 1], got {sa.beta}")
    _require(sa.lam >= 0.0, f"sampler.lambda must be >= 0, got {sa.lam}")
    _require(sa.kappa0 >= 0.0, f"sampler.kappa0 must be >= 0, got {sa.kappa0}")
    _require(0 < inj.t_prime < s.T, f"injection.t_prime must be an integer in (0, {s.T}), got {inj.t_prime!r}")
    _require(inj.strength >= 0.0, f"injection.strength must be >= 0, got {inj.strength}")
    _require(inj.gamma_res >= 0.0, f"injection.gamma_res must be >= 0, got {inj.gamma_res}")
    _require(0.0 <= inj.tau <= 1.0, f"injection.tau must lie in [0, 1], got {inj.tau}")
    _require(0.0 <= inj.cutoff <= 0.5, f"injection.cutoff must lie in [0, 0.5], got {inj.cutoff}")
    _require(q.length >= 1, f"queue.length must be a positive integer, got {q.length!r}")
    _require(q.length <= s.T, f"queue.length ({q.length}) cannot exceed schedule.T ({s.T})")
    _require(q.frames >= 1, f"queue.frames must be a positive integer, got {q.frames!r}")
    _require(cfg.seed >= 0, f"seed must be a nonnegative integer, got {cfg.seed!r}")
    return cfg


def dump_config(cfg) -> dict:
    """Emit the JSON form; inverse of parse_config for valid configs."""
    out = {}
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        out[_JSON_KEYS.get(field.name, field.name)] = dump_config(value) if dataclasses.is_dataclass(value) else value
    return out
