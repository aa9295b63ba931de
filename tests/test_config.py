import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentmix.config import (
    QueueConfig,
    RunConfig,
    SamplerConfig,
    ScheduleConfig,
    dump_config,
    parse_config,
    validate_config,
)
from latentmix.errors import ConfigError

INT_FIELDS = [("seed",), ("schedule", "T"), ("injection", "t_prime"), ("queue", "length"), ("queue", "frames")]
FLOAT_FIELDS = [
    ("schedule", "beta_start"),
    ("schedule", "beta_end"),
    ("sampler", "eta"),
    ("sampler", "beta"),
    ("sampler", "lambda"),
    ("sampler", "kappa0"),
    ("injection", "strength"),
    ("injection", "gamma_res"),
    ("injection", "tau"),
    ("injection", "cutoff"),
]


def nested(path, value):
    """{"a": {"b": value}} for path ("a", "b")."""
    obj = value
    for key in reversed(path):
        obj = {key: obj}
    return obj


class TestParse:
    def test_defaults(self):
        assert parse_config("{}") == RunConfig()
        assert parse_config({}) == RunConfig()

    def test_lambda_alias(self):
        cfg = parse_config({"sampler": {"lambda": 0.25}})
        assert cfg.sampler.lam == 0.25
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"sampler": {"lam": 0.25}})

    def test_ints_accepted_for_floats(self):
        assert parse_config({"sampler": {"eta": 0}}).sampler.eta == 0

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"sedd": 1})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"queue": {"lenght": 4}})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"io": {"output": "out.lts"}})

    def test_structure(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")
        with pytest.raises(ConfigError, match="must be an object"):
            parse_config({"sampler": [0.5]})

    @pytest.mark.parametrize("path", INT_FIELDS)
    def test_bool_rejected_for_integers(self, path):
        # bool is an int subclass; true must not pass as seed 1 or T=1
        for flag in (True, False):
            with pytest.raises(ConfigError, match="must be an integer"):
                parse_config(nested(path, flag))

    @pytest.mark.parametrize("path", INT_FIELDS)
    def test_float_rejected_for_integers(self, path):
        with pytest.raises(ConfigError):
            parse_config(nested(path, 2.0))

    @pytest.mark.parametrize("path", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", ["0", None, [0.5], True])
    def test_non_numeric_float_field(self, path, value):
        # a config error, not a TypeError from comparing a str with a float
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(nested(path, value))

    def test_strings(self):
        with pytest.raises(ConfigError):
            parse_config({"schedule": {"kind": 3}})
        with pytest.raises(ConfigError):
            parse_config({"schedule": {"kind": "cosine"}})

    def test_ranges(self):
        for bad in (
            {"schedule": {"T": 0}},
            {"schedule": {"beta_start": 0.5, "beta_end": 0.1}},
            {"sampler": {"eta": -0.1}},
            {"sampler": {"beta": 1.5}},
            {"sampler": {"lambda": -1.0}},
            {"sampler": {"kappa0": -1.0}},
            {"injection": {"t_prime": 1000}},
            {"injection": {"tau": 2.0}},
            {"injection": {"cutoff": 0.6}},
            {"queue": {"length": 2000}},
            {"queue": {"frames": 0}},
            {"seed": -1},
        ):
            with pytest.raises(ConfigError):
                parse_config(bad)


class TestValidate:
    def test_constructed_bools_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(seed=True))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(schedule=ScheduleConfig(T=True), queue=QueueConfig(length=1)))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(sampler=SamplerConfig(eta="0")))

    def test_section_type(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(sampler={"eta": 0.0}))


valid_configs = st.builds(
    lambda T, frac, betas, eta, beta, lam, kappa0, strength, gamma, tau, cutoff, frames, seed, kind: {
        "schedule": {"T": T, "beta_start": betas[0], "beta_end": betas[1], "kind": kind},
        "sampler": {"eta": eta, "beta": beta, "lambda": lam, "kappa0": kappa0},
        "injection": {
            "t_prime": max(1, min(T - 1, int(frac * T))),
            "strength": strength,
            "gamma_res": gamma,
            "tau": tau,
            "cutoff": cutoff,
        },
        "queue": {"length": max(1, int(frac * T)), "frames": frames},
        "seed": seed,
    },
    T=st.integers(min_value=2, max_value=5000),
    frac=st.floats(min_value=0.0, max_value=1.0),
    betas=st.tuples(st.floats(min_value=1e-6, max_value=0.99), st.floats(min_value=1e-6, max_value=0.99)).map(sorted),
    eta=st.floats(min_value=0.0, max_value=2.0),
    beta=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=4.0) | st.integers(min_value=0, max_value=4),
    kappa0=st.floats(min_value=0.0, max_value=8.0),
    strength=st.floats(min_value=0.0, max_value=4.0),
    gamma=st.floats(min_value=0.0, max_value=1.0),
    tau=st.floats(min_value=0.0, max_value=1.0),
    cutoff=st.floats(min_value=0.0, max_value=0.5),
    frames=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**63),
    kind=st.sampled_from(["linear", "scaled_linear"]),
)


@settings(max_examples=80, deadline=None)
@given(source=valid_configs)
def test_dump_parse_round_trip(source):
    cfg = parse_config(source)
    dumped = dump_config(cfg)
    assert dumped == source
    assert parse_config(dumped) == cfg
    # and through JSON text
    assert parse_config(json.dumps(dumped)) == cfg


def test_dump_keys_follow_fields():
    dumped = dump_config(RunConfig())
    assert list(dumped) == [f.name for f in dataclasses.fields(RunConfig)]
    assert list(dumped["sampler"]) == ["eta", "beta", "lambda", "kappa0"]
