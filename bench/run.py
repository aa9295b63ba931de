"""latentmix benchmark: the unit of work is one edited clip.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): desk-edit, video-edit, invert-roundtrip.  The
process pins BLAS/OpenMP to one thread, times set-up in fresh processes, runs
one untimed warm-up clip, then runs clips until S seconds have passed.  Each
clip's output is checked: edits must be finite, the roundtrip must rebuild
its source to ROUNDTRIP_TOLERANCE, and a repeated input must reproduce the
first output's digest bit for bit.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
clips.  --trace 1 alternates untraced and traced clips of the same
inputs and reports the per-layer metrics from the traced ones; the spans are
written to .bench_out/spans-<workload>.jsonl when the run ends.  Every run
prints readable lines and a provenance line, then one JSON result line.
"""

import os

# One compute thread per workload process; must be set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import latentmix
except ImportError:
    sys.exit("bench: no latentmix package under src/ in this checkout")
if not Path(getattr(latentmix, "__file__", None) or "/").resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: latentmix was imported from outside {ROOT / 'src'}")

import numpy as np
import scipy

import driver
import workloads
from latentmix.config import parse_config
from latentmix.core import RandomSource, make_schedule
from latentmix.synth import OracleSpec, oracle_denoiser

DISTINCT_INPUTS = 4
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, config_text: str) -> tuple[list[float], list[float]]:
    """Set-up and parse_config seconds from SETUP_PROBES fresh processes."""
    setup, parse = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, config_text],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        setup.append(probe["setup_s"])
        parse.append(probe["parse_s"])
    return setup, parse


@dataclasses.dataclass
class ClipRecord:
    index: int  # which distinct input
    traced: bool
    seconds: float | None  # None for the warm-up clip and for failures
    ok: bool


class Bench:
    """Runs and checks clips of one workload and keeps what they measured."""

    def __init__(self, wl, cfg, s, inputs, tracer, workdir):
        self.wl, self.cfg, self.s, self.inputs = wl, cfg, s, inputs
        self.oracles = [oracle_denoiser(OracleSpec(frames=c.source), s) for c in inputs]
        self.tracer = tracer
        self.plain = driver.Layers()
        self.layers = driver.Layers(tracer) if tracer is not None else None
        self.workdir = workdir
        self.records: list[ClipRecord] = []
        self.digests: dict[int, str] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.linked: list[tuple[int, int]] = []  # (linked frames, updates) per traced clip
        self.io_bytes = 0  # per roundtrip clip; every byte written is read back
        self.errors: list[str] = []

    def _clip(self, layers, index):
        rng = RandomSource(self.cfg.seed).child(index)
        args = (layers, self.cfg, self.s, self.oracles[index], self.inputs[index])
        if self.wl.kind == "edit":
            return driver.edit_clip(*args, rng)
        return driver.roundtrip_clip(*args, self.workdir), None

    def run_one(self, index: int, traced: bool, timed: bool) -> None:
        clip_id = len(self.records)
        try:
            if traced:
                (out, tracker), seconds = self.tracer.run_clip(clip_id, self._clip, self.layers, index)
            else:
                start = time.perf_counter()
                out, tracker = self._clip(self.plain, index)
                seconds = time.perf_counter() - start
            self.check(index, out)
        except Exception as e:  # a clip that raises is counted as failed
            self.errors.append(f"clip {clip_id} (input {index}): {type(e).__name__}: {e}")
            self.records.append(ClipRecord(index, traced, None, False))
            return
        if traced and tracker is not None:
            self.linked.append((sum(tracker.linked), len(tracker.linked)))
        self.records.append(ClipRecord(index, traced, seconds if timed else None, True))
        if self.wl.kind == "roundtrip":
            frames = len(self.inputs[index].source)
            seq = os.path.getsize(os.path.join(self.workdir, "trajectory.lts"))
            masks = os.path.getsize(os.path.join(self.workdir, "masks.lts"))
            self.io_bytes = frames * seq + masks

    def check(self, index: int, out: np.ndarray) -> None:
        clip = self.inputs[index]
        if not np.all(np.isfinite(out)):
            raise RuntimeError("output has non-finite values")
        d = driver.digest(out)
        first = self.digests.setdefault(index, d)
        if d != first:
            raise RuntimeError(f"output digest {d[:12]} differs from this input's first run {first[:12]}")
        if index not in self.quality:
            self.quality[index] = (driver.fidelity_err(out, clip, self.wl.kind), driver.concept_shift(out, clip))
        if self.wl.kind == "roundtrip" and self.quality[index][0] > driver.ROUNDTRIP_TOLERANCE:
            raise RuntimeError(f"roundtrip error {self.quality[index][0]:.3g} exceeds {driver.ROUNDTRIP_TOLERANCE}")

    def run(self, seconds: float) -> None:
        """One untimed warm-up clip, then clips until `seconds` have passed.

        Untraced runs cycle through the inputs; traced runs take each input
        twice in a row, untraced then traced, so both see the same machine
        state."""
        self.run_one(0, traced=False, timed=False)
        deadline = time.perf_counter() + seconds
        n = 0
        while True:
            if self.tracer is None:
                self.run_one(n % len(self.inputs), traced=False, timed=True)
            else:
                self.run_one((n // 2) % len(self.inputs), traced=n % 2 == 1, timed=True)
            n += 1
            if time.perf_counter() >= deadline and (self.tracer is None or n % 2 == 0):
                return

    def times(self, traced: bool) -> list[float]:
        return [r.seconds for r in self.records if r.traced == traced and r.seconds is not None]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(bench: Bench, setup_s: list[float]) -> dict:
    times = bench.times(traced=False)
    frames = bench.cfg.queue.frames
    return {
        "setup_s": statistics.median(setup_s),
        "clip_s.p50": statistics.median(times),
        "frames_per_s": frames * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Bench, parse_s: list[float], floor: float) -> dict:
    """Per-clip means over the traced clips."""
    per_clip = bench.tracer.self_times()
    traced_ids = [i for i, r in enumerate(bench.records) if r.traced and r.ok]
    n = len(traced_ids)

    def total(*names, field=0):
        return sum(per_clip[i].get(name, (0.0, 0))[field] for i in traced_ids for name in names) / n

    sampler_names = ("sampler.momentum_step", "sampler.ddim_invert", "sampler.ddim_sample")
    step_s = total(*sampler_names)
    steps = total("synth.denoiser", field=1)  # one denoiser call per step
    step_us = step_s / steps * 1e6
    linked, updates = (sum(col) for col in zip(*bench.linked)) if bench.linked else (0, 0)
    fidelity, shift = zip(*bench.quality.values())
    return {
        "sampler.step_s": step_s,
        "sampler.step_calls": steps,
        "sampler.step_us": step_us,
        "sampler.floor_us": floor,
        "sampler.step_over_floor": step_us / floor,
        "sampler.invert_s": total("sampler.ddim_invert"),
        "sampler.sample_s": total("sampler.ddim_sample"),
        "synth.denoiser_s": total("synth.denoiser"),
        "synth.denoiser_calls": steps,
        "blending.reinit_s": total("blending.reinit"),
        "blending.reinit_calls": total("blending.reinit", field=1),
        "blending.blend_s": total("blending.blend"),
        "blending.residual_s": total("blending.residual"),
        "tracking.update_s": total("tracking.update"),
        "tracking.updates": total("tracking.update", field=1),
        "tracking.linked_frac": linked / updates if updates else 0.0,
        "core.forward_diffuse_s": total("core.forward_diffuse"),
        "core.forward_diffuse_calls": total("core.forward_diffuse", field=1),
        "ltsio.write_s": total("ltsio.write"),
        "ltsio.read_s": total("ltsio.read"),
        "ltsio.bytes_written": float(bench.io_bytes),
        "ltsio.bytes_read": float(bench.io_bytes),
        "config.parse_s": statistics.median(parse_s),
        "driver.self_s": total("clip"),
        "trace.overhead_frac": statistics.median(bench.times(True)) / statistics.median(bench.times(False)) - 1.0,
        "quality.fidelity_err": statistics.median(fidelity),
        "quality.concept_shift": statistics.median(shift),
    }


def getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, wl, cfg) -> dict:
    c, h, w = wl.shape
    latent = c * h * w * 8
    if wl.kind == "edit":
        working_set = 2 * cfg.queue.length * latent  # queue latents plus velocity buffers
    else:
        working_set = (cfg.queue.length + 1) * latent * 3 // 2  # float64 trajectory plus its float32 file
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "computed_latent_bytes": latent,
        "computed_working_set_bytes": working_set,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    config_text = json.dumps(wl.config_json(args.seed))
    setup_s, parse_s = measure_setup(wl.name, config_text)

    cfg = parse_config(config_text)
    s = make_schedule(**dataclasses.asdict(cfg.schedule))
    inputs = workloads.make_inputs(wl, cfg.seed, DISTINCT_INPUTS, cfg.queue.frames)
    tracer = driver.Tracer() if args.trace else None
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    try:
        bench = Bench(wl, cfg, s, inputs, tracer, workdir)
        bench.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    attempted = len(bench.records)
    failed = sum(not r.ok for r in bench.records)
    for err in bench.errors[:10]:
        print(f"FAILED {err}", file=sys.stderr)
    timed = bench.times(traced=False)
    if not timed or (tracer is not None and not bench.times(traced=True)):
        print("bench: no clip passed its checks", file=sys.stderr)
        return 1
    if tracer is None:
        values, listed = end_to_end(bench, setup_s), spec["end_to_end"]
    else:
        floor = driver.floor_us(wl.kind, wl.shape, cfg, s)
        values, listed = per_layer(bench, parse_s, floor), spec["per_layer"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"spans-{wl.name}.jsonl")

    fidelity, shift = zip(*bench.quality.values())
    print(f"{wl.name}: {attempted} clips attempted, {failed} failed (failed_frac {failed / attempted:.4g})")
    print(f"  samples: {len(timed)} untraced timed clips, {len(bench.times(True))} traced, {len(inputs)} inputs")
    for m in listed:
        print(f"  {m['name']:28s} {values[m['name']]:.6g} {m['unit']}")
    if tracer is None:
        # Printed, not bounded: p90 swings up to 0.2 between runs on a shared
        # host, and the quality figures are the traced run's quality.* metrics.
        print(f"  {'clip_s.p90':28s} {p90(timed):.6g} s")
        print(f"  fidelity_err (median over inputs) {statistics.median(fidelity):.6g} latent")
        print(f"  concept_shift (median over inputs) {statistics.median(shift):.6g} cos")
    print(f"  golden digest (input 0) {bench.digests.get(0, 'none')}")
    print("provenance " + json.dumps(provenance(args, wl, cfg)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
