"""The paper's edit and a storage roundtrip, composed from latentmix's public
functions, with optional spans around every call into a library module.

latentmix has no pipeline entry point yet, so edit_clip is the benchmark's
own diagonal FIFO driver (Kim et al. 2024, arXiv 2405.11473, as used by
arXiv 2506.01004): a queue of L latents on the diagonal step_grid(T, L),
one momentum step per slot per iteration, concept injection where a frame
crosses t', and a low-pass tail reinit for every appended latent.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time

import numpy as np

from latentmix import blending, core, ltsio, sampler
from latentmix.blending import BlendParams, ResidualParams
from latentmix.sampler import MomentumState, step_grid
from latentmix.synth import patch_embedding_proxy
from latentmix.tracking import OverlapTracker, ThresholdSegmenter

# Segments the step's x0 estimate at t'; the square's value is 0.8-1.2 over
# a texture of sigma 0.05, so 0.5 separates them while the estimate is clean.
SEGMENT_THETA = 0.5
# Divides both 8x8 and 40x64.
PROXY_PATCHES = 4
ROUNDTRIP_TOLERANCE = 1e-9
FLOOR_BATCHES, FLOOR_CALLS = 5, 400


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, clip id].

    A span's parent is the span open when it started; the clip span has
    parent -1.  Self time is a span's duration minus its children's.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]
        self._clip = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self._clip]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def run_clip(self, clip_id: int, fn, *args):
        """Run fn(*args) inside a "clip" span; returns (result, span seconds)."""
        self._clip = clip_id
        span = len(self.spans)
        result = self.wrap("clip", fn)(*args)
        return result, self.spans[span][2] - self.spans[span][1]

    def self_times(self) -> dict[int, dict[str, list]]:
        """Per clip id: span name -> [summed self seconds, span count]."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[int, dict[str, list]] = {}
        for (name, start, end, _, clip), child in zip(self.spans, children):
            acc = out.setdefault(clip, {}).setdefault(name, [0.0, 0])
            acc[0] += end - start - child
            acc[1] += 1
        return out

    def write_jsonl(self, path) -> None:
        """One header line naming the fields, then one JSON array per span;
        a span's id is its line number after the header."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "clip"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class TracedDenoiser:
    def __init__(self, inner, wrap):
        self.predict_eps = wrap("synth.denoiser", inner.predict_eps)


class Layers:
    """The library calls the drivers make, each wrapped in a span when a
    tracer is given and called directly otherwise."""

    def __init__(self, tracer: Tracer | None = None):
        self.traced = tracer is not None
        self.wrap = tracer.wrap if tracer is not None else (lambda name, fn: fn)
        wrap = self.wrap
        self.forward_diffuse = wrap("core.forward_diffuse", core.forward_diffuse)
        self.momentum_step = wrap("sampler.momentum_step", sampler.momentum_step)
        self.ddim_invert = wrap("sampler.ddim_invert", sampler.ddim_invert)
        self.ddim_sample = wrap("sampler.ddim_sample", sampler.ddim_sample)
        self.blend_region = wrap("blending.blend", blending.blend_region)
        self.gamma_residual = wrap("blending.residual", blending.gamma_residual)
        self.reinit_tail_noise = wrap("blending.reinit", blending.reinit_tail_noise)
        self.save_sequence = wrap("ltsio.write", ltsio.save_sequence)
        self.save_masks = wrap("ltsio.write", ltsio.save_masks)
        self.load_sequence = wrap("ltsio.read", ltsio.load_sequence)
        self.load_masks = wrap("ltsio.read", ltsio.load_masks)

    def denoiser(self, den):
        return TracedDenoiser(den, self.wrap) if self.traced else den


def edit_clip(layers: Layers, cfg, s, oracle, clip, rng) -> tuple[np.ndarray, OverlapTracker]:
    """Edit one clip; returns the (F, C, H, W) output and the mask tracker.

    The queue starts with L warm-up latents (the first frame diffused to each
    slot's level) whose pops are discarded, so every output frame enters at T
    and travels all L levels, crossing t' exactly once.  The queue stays full
    as in streaming generation: F + L iterations of L steps each.
    """
    sa, inj = cfg.sampler, cfg.injection
    frames, length = cfg.queue.frames, cfg.queue.length
    grid = [int(g) for g in step_grid(s.T, length)]
    shape = clip.source.shape[1:]
    dens = [layers.denoiser(oracle.for_frame(k)) for k in range(frames)]
    tracker = OverlapTracker(ThresholdSegmenter(SEGMENT_THETA, largest_component=True), inj.tau)
    track = layers.wrap("tracking.update", tracker.update)
    blend, residual = BlendParams(inj.strength), ResidualParams(inj.gamma_res)

    def fresh():
        return MomentumState.fresh(shape, s.T, sa.beta, sa.lam, sa.kappa0)

    # slot: [latent, momentum state, frame index (-1 for warm-up)]
    queue = [[layers.forward_diffuse(clip.source[0], grid[j + 1], s, rng), fresh(), -1] for j in range(length)]
    out = np.empty_like(clip.source)
    for entering in range(frames + length):
        for j, slot in enumerate(queue):
            x, state, k = slot
            t, t_prev = grid[j + 1], grid[j]
            den = dens[min(max(k, 0), frames - 1)]
            step, state = layers.momentum_step(x, t, den, s, state, eta=sa.eta, rng=rng, t_prev=t_prev)
            x = step.x_prev
            if 0 <= k < frames and t_prev <= inj.t_prime < t:
                mask, _ = track(step.x0_hat)
                cond = layers.forward_diffuse(clip.concept, t_prev, s, rng)
                x = layers.gamma_residual(layers.blend_region(x, cond, mask, blend), residual, rng)
            slot[0], slot[1] = x, state
        head, _, k = queue.pop(0)
        if 0 <= k < frames:
            out[k] = head
        queue.append([layers.reinit_tail_noise(head, s, inj.cutoff, rng), fresh(), entering])
    if len(tracker.masks) != frames:
        raise RuntimeError(f"{len(tracker.masks)} of {frames} frames crossed t'={inj.t_prime}")
    return out, tracker


def roundtrip_clip(layers: Layers, cfg, s, oracle, clip, workdir) -> np.ndarray:
    """Per frame: invert over queue.length hops, store the trajectory, load
    it back and sample from its terminal latent.  The masks are stored and
    read back once per clip and must come back unchanged."""
    steps = cfg.queue.length
    seq_path = os.path.join(workdir, "trajectory.lts")
    mask_path = os.path.join(workdir, "masks.lts")
    layers.save_masks(mask_path, clip.masks)
    out = np.empty_like(clip.source)
    for k in range(len(clip.source)):
        den = layers.denoiser(oracle.for_frame(k))
        layers.save_sequence(seq_path, layers.ddim_invert(clip.source[k], den, s, steps))
        traj = layers.load_sequence(seq_path)
        out[k] = layers.ddim_sample(traj.frame(len(traj) - 1), den, s, steps=steps)
    if not np.array_equal(layers.load_masks(mask_path), clip.masks):
        raise RuntimeError("masks changed in the ltsio roundtrip")
    return out


def digest(out: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


def fidelity_err(out: np.ndarray, clip, kind: str) -> float:
    """Max |output - source| over the pixels the workload must keep: outside
    the ground-truth mask for edits, everywhere for the roundtrip."""
    err = np.abs(out - clip.source)
    if kind == "edit":
        err = err[np.broadcast_to(~clip.masks[:, None], err.shape)]
    return float(err.max())


def concept_shift(out: np.ndarray, clip) -> float:
    """Mean over frames of cos(proxy(out), proxy(concept)) - cos(proxy(src),
    proxy(concept)); the proxy vectors are unit length, so cos is a dot."""
    pc = patch_embedding_proxy(clip.concept, PROXY_PATCHES)
    return float(
        np.mean(
            [
                patch_embedding_proxy(o, PROXY_PATCHES) @ pc - patch_embedding_proxy(x, PROXY_PATCHES) @ pc
                for o, x in zip(out, clip.source)
            ]
        )
    )


def floor_us(kind: str, shape, cfg, s) -> float:
    """Median microseconds for the bare arithmetic of one step at `shape`:
    the momentum step for edits, the DDIM step for the roundtrip, written as
    plain numpy expressions with no validation, given the noise estimate.
    Cycles through the workload's own (t, t_prev) pairs."""
    sa = cfg.sampler
    grid = [int(g) for g in step_grid(s.T, cfg.queue.length)]
    pairs = [(grid[j + 1], grid[j]) for j in range(len(grid) - 1)]
    gen = np.random.default_rng(0)
    x, eps, v = (gen.standard_normal(shape) for _ in range(3))
    ab = s.alpha_bar
    per_call = []
    for _ in range(FLOOR_BATCHES):
        start = time.perf_counter()
        for i in range(FLOOR_CALLS):
            t, t_prev = pairs[i % len(pairs)]
            x0 = (x - math.sqrt(1.0 - ab[t]) * eps) / math.sqrt(ab[t])
            d = math.sqrt(1.0 - ab[t_prev]) * eps
            x_prev = math.sqrt(ab[t_prev]) * x0 + d
            if kind == "edit":
                v = sa.beta * v + (1.0 - sa.beta) * (x - x_prev + sa.lam * d)
                x_prev = math.sqrt(ab[t_prev]) * (x0 + sa.kappa0 * (1.0 - t / s.T) * v) + d
        per_call.append((time.perf_counter() - start) / FLOOR_CALLS)
    return statistics.median(per_call) * 1e6
