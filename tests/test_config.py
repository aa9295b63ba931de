import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentmix.config import (
    QueueConfig,
    RunConfig,
    SamplerConfig,
    ScheduleConfig,
    parse_config,
)
from latentmix.blending import BlendParams, ResidualParams, reinit_tail_noise
from latentmix.core import MAX_T, RandomSource, forward_diffuse, make_schedule
from latentmix.errors import ConfigError, ParameterError
from latentmix.sampler import MomentumState, ddim_sample, momentum_step, step_grid
from latentmix.synth import OracleSpec, oracle_denoiser
from latentmix.tracking import OverlapTracker, ThresholdSegmenter

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

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"zz": 1, "it's": 2, "a": 3, "seed": 4}, "unknown key(s) in the config root: ['a', \"it's\", 'zz']"),
            ({"sedd": 1, 2: 3}, "unknown key(s) in the config root: [2, 'sedd']"),
            ({"sampler": {"x": 1, None: 2}}, "unknown key(s) in 'sampler': [None, 'x']"),
        ],
        ids=["strings", "mixed-root", "mixed-section"],
    )
    def test_unknown_keys_are_named_in_order(self, source, message):
        # a dict source may mix key types that do not compare with each other
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(source)

    def test_duplicate_keys(self):
        # the last value would win, and the first section's lambda would be dropped
        with pytest.raises(ConfigError, match="^duplicate key 'seed' in a config object$"):
            parse_config('{"seed": 1, "seed": 2}')
        with pytest.raises(ConfigError, match="^duplicate key 'sampler' in a config object$"):
            parse_config('{"sampler": {"lambda": 2.0}, "sampler": {"eta": 0.5}}')
        with pytest.raises(ConfigError, match="^duplicate key 'lambda' in a config object$"):
            parse_config('{"sampler": {"lambda": 2.0, "lambda": 0.5}}')

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_json_bytes(self, kind):
        # json.loads reads bytes, but the root check took them for a non-object
        assert parse_config(kind(b'{"seed": 1}')) == RunConfig(seed=1)
        with pytest.raises(ConfigError, match="^duplicate key 'seed' in a config object$"):
            parse_config(kind(b'{"seed": 1, "seed": 2}'))

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(ConfigError, match="^config cannot be parsed: 'utf-8' codec can't decode byte 0xff"):
            parse_config(b'{"seed": \xff}')

    def test_nesting_beyond_the_recursion_limit(self):
        with pytest.raises(ConfigError, match="^config cannot be parsed: maximum recursion depth exceeded"):
            parse_config("[" * 100000)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit")
    def test_integer_beyond_the_digit_limit(self):
        # valid JSON, but Python refuses to convert an int of more than 4300 digits
        with pytest.raises(ConfigError, match="^config cannot be parsed: "):
            parse_config('{"seed": ' + "1" * 5000 + "}")

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


def parse_message(source: dict) -> str:
    with pytest.raises(ConfigError) as info:
        parse_config(source)
    return str(info.value)


class TestValidate:
    """A RunConfig checks itself when built, with parse_config's messages."""

    def test_constructed_bools_rejected(self):
        for build, source in (
            (lambda: RunConfig(seed=True), {"seed": True}),
            (
                lambda: RunConfig(schedule=ScheduleConfig(T=True), queue=QueueConfig(length=1)),
                {"schedule": {"T": True}, "queue": {"length": 1}},
            ),
            (lambda: RunConfig(sampler=SamplerConfig(eta="0")), {"sampler": {"eta": "0"}}),
        ):
            with pytest.raises(ConfigError) as info:
                build()
            assert str(info.value) == parse_message(source)

    def test_section_type(self):
        with pytest.raises(ConfigError, match=r"^sampler must be a SamplerConfig, got \{'eta': 0.0\}$"):
            RunConfig(sampler={"eta": 0.0})

    def test_replace_is_checked(self):
        # dataclasses.replace builds a new RunConfig, so it runs the same check
        with pytest.raises(ConfigError, match=r"^seed must lie in \[0, inf\], got -1$") as info:
            dataclasses.replace(parse_config({}), seed=-1)
        assert str(info.value) == parse_message({"seed": -1})
        assert dataclasses.replace(parse_config({}), seed=7) == parse_config({"seed": 7})


def config_sources(eta, beta_cap):
    """Config dicts with sampler.eta drawn from eta and both betas at most
    beta_cap(T)."""
    return st.builds(
        lambda T, frac, betas, eta, beta, lam, kappa0, strength, gamma, tau, cutoff, frames, seed, kind: {
            "schedule": {
                "T": T,
                "beta_start": betas[0] * beta_cap(T),
                "beta_end": betas[1] * beta_cap(T),
                "kind": kind,
            },
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
        betas=st.tuples(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0)).map(sorted),
        eta=eta,
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


def no_underflow(T):
    """A beta cap that keeps alpha_bar[T] >= exp(-600), far above the
    subnormal range: with every beta_t <= cap, -log alpha_bar[T] is at most
    T * -log(1 - cap) <= 600."""
    return min(0.99, -math.expm1(-600.0 / T))


@settings(max_examples=80, deadline=None)
@given(source=config_sources(st.floats(min_value=0.0, max_value=1.0), no_underflow))
def test_parse_keeps_every_value(source):
    cfg = parse_config(source)
    for section, values in source.items():
        if section == "seed":
            assert cfg.seed == values and type(cfg.seed) is type(values)
            continue
        for key, value in values.items():
            kept = getattr(getattr(cfg, section), "lam" if key == "lambda" else key)
            assert kept == value and type(kept) is type(value)
    # and through JSON text
    assert parse_config(json.dumps(source)) == cfg


@settings(max_examples=60, deadline=None)
@given(
    source=config_sources(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0), lambda T: 0.99),
)
def test_accepted_configs_run(source):
    """Whatever parse_config accepts, every library consumer of the config
    accepts too: nothing fails on its configuration partway through a run."""
    try:
        cfg = parse_config(source)
    except ConfigError:
        return
    sch, sa, inj, q = cfg.schedule, cfg.sampler, cfg.injection, cfg.queue
    s = make_schedule(sch.T, sch.beta_start, sch.beta_end, sch.kind)
    step_grid(s.T, q.length)
    state = MomentumState.fresh((1, 2, 2), s.T, sa.beta, sa.lam, sa.kappa0)
    BlendParams(inj.strength)
    ResidualParams(inj.gamma_res)
    rng = RandomSource(cfg.seed)
    x0 = np.ones((1, 2, 2))
    reinit_tail_noise(x0, s, inj.cutoff, rng)
    OverlapTracker(ThresholdSegmenter(), inj.tau)
    x = forward_diffuse(x0, inj.t_prime, s, rng)
    den = oracle_denoiser(OracleSpec(frames=x0[None]), s)
    ddim_sample(x, den, s, steps=q.length)
    momentum_step(x, inj.t_prime, den, s, state, eta=sa.eta, rng=rng)


# JSON key of a real-valued field -> the library call that consumes its value;
# momentum_step checks eta before it queries its (here absent) denoiser
REAL_CONSUMERS = {
    ("schedule", "beta_start"): lambda v: make_schedule(8, v, 0.5),
    ("schedule", "beta_end"): lambda v: make_schedule(8, 1e-4, v),
    ("sampler", "eta"): lambda v: momentum_step(
        np.ones((1, 2, 2)), 8, None, make_schedule(8), MomentumState.fresh((1, 2, 2), 8), eta=v, rng=RandomSource(0)
    ),
    ("sampler", "beta"): lambda v: MomentumState.fresh((1, 2, 2), 8, beta=v),
    ("sampler", "lambda"): lambda v: MomentumState.fresh((1, 2, 2), 8, lam=v),
    ("sampler", "kappa0"): lambda v: MomentumState.fresh((1, 2, 2), 8, kappa0=v),
    ("injection", "strength"): BlendParams,
    ("injection", "gamma_res"): ResidualParams,
    ("injection", "tau"): lambda v: OverlapTracker(ThresholdSegmenter(), v),
    ("injection", "cutoff"): lambda v: reinit_tail_noise(np.ones((1, 2, 2)), make_schedule(8), v, RandomSource(0)),
}


@pytest.mark.parametrize(
    "text, consume",
    [
        pytest.param('{"sampler": {"eta": 1.5}}', lambda: REAL_CONSUMERS["sampler", "eta"](1.5), id="eta-above-one"),
        # linear betas up to 0.99 over 1000 levels: alpha_bar underflows to 0
        pytest.param(
            '{"schedule": {"kind": "linear", "beta_start": 1e-4, "beta_end": 0.99}}',
            lambda: make_schedule(1000, 1e-4, 0.99, "linear"),
            id="underflow",
        ),
    ]
    + [
        pytest.param(f'{{"{section}": {{"{key}": {text}}}}}', functools.partial(REAL_CONSUMERS[section, key], value), id=f"{key}={text}")
        for section, key in [
            ("sampler", "eta"),
            ("sampler", "lambda"),
            ("sampler", "kappa0"),
            ("injection", "strength"),
            ("injection", "gamma_res"),
        ]
        for text, value in (("Infinity", math.inf), ("-Infinity", -math.inf))
    ]
    # true would pass a range check as 1
    + [
        pytest.param(f'{{"{section}": {{"{key}": true}}}}', functools.partial(consume, True), id=f"{key}=true")
        for (section, key), consume in REAL_CONSUMERS.items()
    ],
)
def test_values_the_library_rejects_fail_at_parse(text, consume):
    with pytest.raises(ConfigError, match="must be finite|must lie in|must be a number|schedule: "):
        parse_config(text)
    with pytest.raises(ParameterError):
        consume()


def test_horizon_capped_at_parse():
    # make_schedule's cap: at T = 1e6 parse used to allocate 33 MB
    with pytest.raises(ConfigError, match=rf"^schedule: T must lie in \[1, {MAX_T}\], got 1000000$"):
        parse_config({"schedule": {"T": 10**6, "beta_start": 1e-6, "beta_end": 1e-6}, "queue": {"length": 2}})
