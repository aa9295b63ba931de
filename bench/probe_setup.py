"""Time one workload's set-up in a fresh process and print it as JSON.

Usage: python3 bench/probe_setup.py WORKLOAD CONFIG_JSON

Set-up is importing the latentmix modules the benchmark uses (and what they
import), parse_config, make_schedule and building the oracle denoiser.
Making the input clip is not counted.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    workload, config_text = sys.argv[1], sys.argv[2]
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    t0 = time.perf_counter()
    from latentmix import blending, config, core, ltsio, sampler, synth, tracking  # noqa: F401

    t_parse = time.perf_counter()
    cfg = config.parse_config(config_text)
    parse_s = time.perf_counter() - t_parse
    s = core.make_schedule(**dataclasses.asdict(cfg.schedule))
    t1 = time.perf_counter()

    import workloads

    clip = workloads.make_inputs(workloads.WORKLOADS[workload], cfg.seed, 1, cfg.queue.frames)[0]
    t2 = time.perf_counter()
    synth.oracle_denoiser(synth.OracleSpec(frames=clip.source), s)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "parse_s": parse_s}))


if __name__ == "__main__":
    main()
