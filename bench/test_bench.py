"""Tests for the benchmark's own code: inputs, the edit driver, spans, and
the result line.  Run with: PYTHONPATH=src python -m pytest bench"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driver
import workloads
from latentmix.config import parse_config
from latentmix.core import RandomSource, make_schedule
from latentmix.synth import OracleSpec, oracle_denoiser

HERE = Path(__file__).resolve().parent
DESK = workloads.WORKLOADS["desk-edit"]


def desk_setup(seed=3, **sampler):
    config = DESK.config_json(seed)
    config["sampler"] = sampler
    cfg = parse_config(config)
    s = make_schedule(**dataclasses.asdict(cfg.schedule))
    clip = workloads.make_inputs(DESK, seed, 1, cfg.queue.frames)[0]
    return cfg, s, clip, oracle_denoiser(OracleSpec(frames=clip.source), s)


def test_inputs_depend_only_on_seed():
    a, b, c = (workloads.make_inputs(DESK, seed, 2, 16) for seed in (5, 5, 6))
    for x, y in zip(a, b):
        assert np.array_equal(x.source, y.source) and np.array_equal(x.masks, y.masks)
    assert not np.array_equal(a[0].source, c[0].source)
    assert not np.array_equal(a[0].source, a[1].source)


def test_kappa0_zero_reproduces_source_outside_mask():
    cfg, s, clip, oracle = desk_setup(kappa0=0.0)
    out, tracker = driver.edit_clip(driver.Layers(), cfg, s, oracle, clip, RandomSource(cfg.seed))
    assert len(tracker.masks) == cfg.queue.frames
    assert driver.fidelity_err(out, clip, "edit") <= 1e-12


def test_spans_nest_and_self_times_add_up_to_clip_time():
    cfg, s, clip, oracle = desk_setup()
    plain, _ = driver.edit_clip(driver.Layers(), cfg, s, oracle, clip, RandomSource(cfg.seed))
    tracer = driver.Tracer()
    layers = driver.Layers(tracer)
    durations = {}
    for clip_id in (0, 1):
        (out, _), durations[clip_id] = tracer.run_clip(
            clip_id, driver.edit_clip, layers, cfg, s, oracle, clip, RandomSource(cfg.seed)
        )
        assert np.array_equal(out, plain)  # tracing does not change the output

    names = set()
    for name, start, end, parent, clip_id in tracer.spans:
        names.add(name)
        assert start <= end
        if name == "clip":
            assert parent == -1
        else:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == clip_id
    assert {"clip", "sampler.momentum_step", "synth.denoiser", "blending.reinit", "blending.blend",
            "blending.residual", "tracking.update", "core.forward_diffuse"} <= names

    self_times = tracer.self_times()
    for clip_id, duration in durations.items():
        assert sum(acc[0] for acc in self_times[clip_id].values()) == pytest.approx(duration, rel=1e-9)
        assert self_times[clip_id]["clip"][0] > 0.0  # driver.self_s
        assert self_times[clip_id]["sampler.momentum_step"][1] == (cfg.queue.frames + cfg.queue.length) * cfg.queue.length


def test_roundtrip_rebuilds_source(tmp_path):
    cfg, s, clip, oracle = desk_setup()
    out = driver.roundtrip_clip(driver.Layers(), cfg, s, oracle, clip, str(tmp_path))
    assert driver.fidelity_err(out, clip, "roundtrip") <= driver.ROUNDTRIP_TOLERANCE


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_lists_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "desk-edit", "--seed", "1", "--seconds", "0.2",
         "--trace", trace],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[section]}
