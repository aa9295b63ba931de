"""Analytic denoisers and synthetic scenes for closed-loop verification.

The oracle denoiser inverts the forward noising identity for a known clean
latent, so every sampler contract can be checked end to end without a
learned model.  Scenes are simple moving shapes with exact ground-truth
masks; the patch embedding proxy stands in for a visual encoder.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (
    LatentSequence, NoiseSchedule, as_real_array, check_latent, check_level, check_levels, check_real, check_type
)
from .errors import ParameterError
from .tracking import MaskTrack


@dataclasses.dataclass(frozen=True, eq=False)
class OracleSpec:
    """Target for the analytic denoiser: one clean latent per frame; a
    single target is a bank of one, frames=x0[None]."""

    frames: np.ndarray  # (F, C, H, W)

    def __post_init__(self):
        object.__setattr__(self, "frames", check_latent(self.frames, "frames", "FCHW"))


class _Oracle:
    """predict_eps(x, t) = (x - sqrt(ab_t) x0*) / sqrt(1 - ab_t), with x0*
    frame `index` of a bank of targets (F, C, H, W).

    for_frame(k) selects frame k of the bank; an index past its end is a
    ParameterError.
    """

    def __init__(self, frames: np.ndarray, s: NoiseSchedule, index: int = 0):
        self.frames = frames
        self.s = s
        self.x0_star = frames[index]

    def for_frame(self, k: int) -> "_Oracle":
        return _Oracle(self.frames, self.s, check_level(k, 0, len(self.frames) - 1, "frame index"))

    def predict_eps(self, x_t: np.ndarray, t: int) -> np.ndarray:
        # a string or complex latent is a ParameterError, not numpy's cast error
        x_t = as_real_array(x_t, "x_t")
        # x_t - sqrt(ab) x0* would broadcast a latent of another shape
        if x_t.shape != self.x0_star.shape:
            raise ParameterError(f"x_t has shape {x_t.shape}, the oracle's target {self.x0_star.shape}")
        # eps is undefined at t = 0, where there is no noise to read back
        ab = float(self.s.alpha_bar[check_level(t, 1, self.s.T, "t")])
        # one allocation, the result: sqrt(ab) x0*, then x_t minus it in place
        eps = np.multiply(self.x0_star, math.sqrt(ab))
        np.subtract(x_t, eps, out=eps)
        eps /= math.sqrt(1.0 - ab)
        return eps


def oracle_denoiser(spec: OracleSpec, s: NoiseSchedule) -> _Oracle:
    """Build the analytic denoiser for a known bank of targets."""
    return _Oracle(check_type(spec, OracleSpec, "spec").frames, check_type(s, NoiseSchedule, "s"))


def moving_square_scene(
    frames: int,
    grid: int,
    square: int,
    velocity: tuple[int, int],
    channels: int = 4,
    value: float = 1.0,
) -> tuple[LatentSequence, MaskTrack]:
    """Square of constant value drifting over a zero background.

    velocity is (dx, dy), whole pixels per frame (dx = columns, dy = rows);
    the square clamps at the borders instead of leaving the grid.  Returns the
    latent sequence and the exact per-frame masks as a track.
    """
    frames = check_level(frames, 1, math.inf, "frames")
    grid = check_level(grid, 1, math.inf, "grid")
    square = check_level(square, 1, grid, "square side")
    channels = check_level(channels, 1, math.inf, "channels")
    dx, dy = check_levels(velocity, -math.inf, math.inf, "velocity", ("dx", "dy"), "pair")
    value = check_real(value, -math.inf, math.inf, "value")
    hi = grid - square
    data = np.zeros((frames, channels, grid, grid))
    masks = np.zeros((frames, grid, grid), dtype=bool)
    for k in range(frames):
        col = min(max(k * dx, 0), hi)
        row = min(max(k * dy, 0), hi)
        masks[k, row : row + square, col : col + square] = True
        data[k, :, row : row + square, col : col + square] = value
    track = MaskTrack(masks=masks)
    return LatentSequence(data), track


def checkerboard_frame(grid: int, channels: int = 4, hi: float = 1.0, lo: float = -1.0) -> np.ndarray:
    """Unit-cell checkerboard, identical across channels; a cheap pattern
    that is far from any moving-square scene in the proxy embedding space."""
    grid, channels = check_level(grid, 1, math.inf, "grid"), check_level(channels, 1, math.inf, "channels")
    hi, lo = check_real(hi, -math.inf, math.inf, "hi"), check_real(lo, -math.inf, math.inf, "lo")
    rows, cols = np.indices((grid, grid))
    board = np.where((rows + cols) % 2 == 0, hi, lo)
    return np.broadcast_to(board, (channels, grid, grid)).copy()


def patch_embedding_proxy(frame: np.ndarray, patches: int) -> np.ndarray:
    """Unit-normalized vector of per-patch channel means, length patches**2."""
    frame = check_latent(frame, "frame")
    _, h, w = frame.shape
    patches = check_level(patches, 1, math.inf, "patches")
    if h % patches or w % patches:
        raise ParameterError(f"patches={patches} must divide frame size {h}x{w}")
    ph, pw = h // patches, w // patches
    pooled = frame.mean(axis=0).reshape(patches, ph, patches, pw).mean(axis=(1, 3))
    vec = pooled.ravel()
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ParameterError("frame pools to the zero vector; proxy embedding is undefined")
    return vec / norm
