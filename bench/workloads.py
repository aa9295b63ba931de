"""Benchmark workloads and their seeded clip inputs.

Each workload is a RunConfig (JSON, parsed by latentmix.config.parse_config)
plus a latent shape.  Config fields a workload does not name keep their
parse_config defaults: kappa0=2, beta=0.9, lambda=1, eta=0, 16 frames,
strength 2, gamma_res 0.05, tau 0.5, cutoff 0.25.

Inputs come from numpy's generator seeded with (seed, clip index); the
library only ever sees the generated arrays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from latentmix.synth import checkerboard_frame, moving_square_scene

TEXTURE_SIGMA = 0.05


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "edit" (diagonal FIFO edit) or "roundtrip" (invert, store, load, sample)
    shape: tuple[int, int, int]  # latent (C, H, W)
    config: dict  # RunConfig JSON overrides

    def config_json(self, seed: int) -> dict:
        return {**self.config, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        # 2 KB latents that sit in L1/L2: per-call overhead (validation,
        # dataclass copies, dispatch) dominates the step cost.  The schedule
        # is the tests' desk schedule.
        Workload(
            "desk-edit",
            "edit",
            (4, 8, 8),
            {
                "schedule": {"T": 64, "beta_start": 0.02, "beta_end": 0.25, "kind": "linear"},
                "queue": {"length": 16},
                "injection": {"t_prime": 20},
            },
        ),
        # 80 KB latents; the queue of 50 plus its velocity buffers is about
        # 8 MB, above L2 and inside L3, so elementwise arithmetic and the
        # tail FFT dominate.  Every field keeps its default.
        Workload("video-edit", "edit", (4, 40, 64), {}),
        # Same clip and scale as video-edit, but per frame: 50-hop DDIM
        # inversion, a 2 MB float32 trajectory written and read back through
        # ltsio, then DDIM sampling from the loaded terminal latent.  No
        # momentum, blending or tracking runs, so it is the "no change
        # predicted" side for those layers and shows compute gains that cost I/O.
        Workload("invert-roundtrip", "roundtrip", (4, 40, 64), {}),
    )
}


@dataclasses.dataclass(frozen=True)
class ClipInput:
    source: np.ndarray  # (F, C, H, W)
    masks: np.ndarray  # (F, H, W) bool, ground truth
    concept: np.ndarray  # (C, H, W)


def make_clip(shape: tuple[int, int, int], frames: int, rng: np.random.Generator) -> ClipInput:
    """Moving square with a little Gaussian texture, plus the concept latent.

    moving_square_scene draws on an H x H grid; the scene sits at a seeded
    column offset inside the H x W frame.

    The concept is a checkerboard with unequal hi and lo: with the default
    +-1 every patch that divides 40x64 averages to zero, so
    patch_embedding_proxy has no direction to return.  The oracle denoiser
    returns its own target as x0_hat whatever x_t holds, so with this
    stand-in the concept reaches the output only through the momentum path.
    """
    c, h, w = shape
    side = int(rng.integers(h // 4, h // 2 + 1))
    velocity = (int(rng.integers(1, 3)), int(rng.integers(0, 2)))
    value = float(rng.uniform(0.8, 1.2))
    scene, track = moving_square_scene(frames, h, side, velocity, channels=c, value=value)
    col = int(rng.integers(0, w - h + 1))
    source = np.zeros((frames, c, h, w))
    source[..., col : col + h] = scene.data
    source += TEXTURE_SIGMA * rng.standard_normal(source.shape)
    masks = np.zeros((frames, h, w), dtype=bool)
    masks[..., col : col + h] = track.masks
    concept = checkerboard_frame(max(h, w), c, 1.0, -0.5)[:, :h, :w].copy()
    return ClipInput(source=source, masks=masks, concept=concept)


def make_inputs(workload: Workload, seed: int, count: int, frames: int) -> list[ClipInput]:
    return [make_clip(workload.shape, frames, np.random.default_rng([seed, i])) for i in range(count)]
