"""Run configuration: strict JSON parsing with full-field validation.

Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to a default, and so is a key repeated in one JSON object, which
json.loads would settle by keeping the last value.  The accepted keys come
from the dataclass fields below; only "lambda" (sampler.lam) is renamed.

A RunConfig checks itself when it is built, by parse_config, by a caller
or by dataclasses.replace, so every RunConfig is one the library accepts:
the check applies the library's two rules, core.check_level and
core.check_real, so every number is finite and bool is never a number.
The schedule is checked by building it with make_schedule, so T above
MAX_T or an alpha_bar that underflows to 0 fails here; every other field
lies in the range its consumer accepts, sampler.eta in [0, 1] among them.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .core import DEFAULT_BETA_END, DEFAULT_BETA_START, DEFAULT_T, check_level, check_real, make_schedule
from .errors import ConfigError, ParameterError


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

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if _is_section(field) and not isinstance(getattr(self, field.name), field.default_factory):
                raise ConfigError(f"{field.name} must be a {field.type}, got {getattr(self, field.name)!r}")
        s, sa, inj, q = self.schedule, self.sampler, self.injection, self.queue
        where = "schedule: "  # make_schedule names T, the betas or alpha_bar, not the section
        try:
            make_schedule(s.T, s.beta_start, s.beta_end, s.kind)
            where = ""
            check_real(sa.eta, 0, 1, "sampler.eta")
            check_real(sa.beta, 0, 1, "sampler.beta")
            check_real(sa.lam, 0, math.inf, "sampler.lambda")
            check_real(sa.kappa0, 0, math.inf, "sampler.kappa0")
            check_level(inj.t_prime, 1, s.T - 1, "injection.t_prime")
            check_real(inj.strength, 0, math.inf, "injection.strength")
            check_real(inj.gamma_res, 0, math.inf, "injection.gamma_res")
            check_real(inj.tau, 0, 1, "injection.tau")
            check_real(inj.cutoff, 0, 0.5, "injection.cutoff")
            check_level(q.length, 1, s.T, "queue.length")
            check_level(q.frames, 1, math.inf, "queue.frames")
            check_level(self.seed, 0, math.inf, "seed")
        except ParameterError as e:
            raise ConfigError(f"{where}{e}") from e


# dataclass field -> JSON key, where they differ ("lambda" is reserved in Python)
_JSON_KEYS = {"lam": "lambda"}


def _is_section(field: dataclasses.Field) -> bool:
    # a section field's default factory is the section's own dataclass
    return dataclasses.is_dataclass(field.default_factory)


def _from_json(cls, obj: dict, where: str):
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(fields)
    if unknown:
        # key=str: a dict source may mix str keys with others, which do not compare
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown, key=str)}")
    kwargs = {}
    for key, value in obj.items():
        field = fields[key]
        if _is_section(field):
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            value = _from_json(field.default_factory, value, repr(key))
        kwargs[field.name] = value
    return cls(**kwargs)


def _unique_keys(pairs: list) -> dict:
    """json.loads's object_pairs_hook: the object as a dict, or ConfigError
    naming a key that it repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r} in a config object")
        obj[key] = value
    return obj


def parse_config(source: str | dict) -> RunConfig:
    """Parse and validate a run configuration from JSON text or a dict."""
    if isinstance(source, str):
        try:
            source = json.loads(source, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        except ConfigError:  # _unique_keys's, which is a ValueError too
            raise
        except (ValueError, RecursionError) as e:
            # an integer beyond int_max_str_digits, or nesting beyond the recursion limit
            raise ConfigError(f"config cannot be parsed: {e}") from e
    if not isinstance(source, dict):
        raise ConfigError("config root must be a JSON object")
    return _from_json(RunConfig, source, "the config root")
