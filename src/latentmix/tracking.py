"""Latent-space mask segmentation and overlap-linked tracking.

Masks are boolean (H, W) grids; core.check_mask checks every one that enters,
segmenter output included.  Tracking is deliberately simple: segment every
frame independently, then link frame k to frame k-1 by IoU; a frame whose
overlap does not exceed the threshold keeps the previous frame's mask so one
bad segmentation cannot yank the region across the scene.  The tracker
stores each mask read-only and hands that same array back, and a MaskTrack
keeps its stack read-only, so a caller cannot change a track.
OverlapTracker is the one way to build a track from latents; MaskTrack
holds a given stack, such as a scene's ground truth.

The largest 4-connected component is found by a bitset fill over one Python
int: pixel (r, c) is bit r * (W + 1) + c, and the zero column that pads each
row keeps a fill from wrapping into the next row.  A component grows from
the lowest remaining bit, the raster-first pixel, by its up, down and left
neighbours and, through the carry of rest + comp, to the right end of every
run it touches, until it stops changing.  Components are taken in raster
order of their first pixel and the first strictly largest is kept, so a tie
goes to the component whose first pixel comes first (ndimage.label's lowest
label).  The search stops once no remaining pixels could make a larger one.
Each growth pass is a few big-int operations over H * (W + 1) bits, and a
component needs about one pass per row it spans, so the cost grows with the
number of components times the rows.  Measured on one core of a 2-vCPU
x86-64 host: about 12 us on a dense 8x8 mask, 40 us on a full 40x64 one,
and up to 0.8 ms at 40x64 on 10-50% noise or a snake through every row,
where scipy's ndimage.label takes about 0.05 ms.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Protocol

import numpy as np

from .core import check_latent, check_mask, check_method, check_real
from .errors import ParameterError


class Segmenter(Protocol):
    def segment(self, x: np.ndarray) -> np.ndarray: ...


@dataclasses.dataclass(frozen=True, eq=False)
class MaskTrack:
    """Per-frame masks, (F, H, W) bool, stored read-only."""

    masks: np.ndarray  # (F, H, W) bool

    def __post_init__(self):
        masks = check_mask(self.masks, (None, None, None), "mask stack")
        masks.flags.writeable = False  # check_mask returned a new array
        object.__setattr__(self, "masks", masks)


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two bool masks; two empty masks count as
    identical (1.0).  The caller checks both masks and their shapes."""
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """The first strictly largest 4-connected component of a bool (H, W)
    mask in raster order, by the bitset fill of the module docstring."""
    h, w = mask.shape
    stride = w + 1
    padded = np.zeros((h, stride), dtype=bool)
    padded[:, :w] = mask
    rest = int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")
    best, best_size = 0, 0
    while best_size < rest.bit_count():
        comp = rest & -rest
        while True:
            grown = (comp | ((rest + comp) ^ rest) | comp >> 1 | comp << stride | comp >> stride) & rest
            if grown == comp:
                break
            comp = grown
        rest ^= comp
        if comp.bit_count() > best_size:
            best, best_size = comp, comp.bit_count()
    bits = np.frombuffer(best.to_bytes(padded.size // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(bits, count=padded.size, bitorder="little").view(bool).reshape(h, stride)[:, :w]


class ThresholdSegmenter:
    """Mean absolute channel value above theta, optionally pruned to the
    largest 4-connected component.  Of equal largest components, the one
    whose first pixel comes first in raster (row-major) order is kept."""

    def __init__(self, theta: float = 0.5, largest_component: bool = False):
        self.theta = check_real(theta, 0, math.inf, "theta")
        if not isinstance(largest_component, (bool, np.bool_)):
            raise ParameterError(f"largest_component is a flag, True or False, got {largest_component!r}")
        self.largest_component = bool(largest_component)

    def segment(self, x: np.ndarray) -> np.ndarray:
        mask = np.mean(np.abs(check_latent(x, "x")), axis=0) > self.theta
        return _largest_component(mask) if self.largest_component else mask


class OverlapTracker:
    """Incremental IoU-linked tracker, the one way to build a track.

    update() consumes one frame at a time, in the order a caller sees them
    (e.g. the denoising queue at its injection point).  masks holds the
    track so far and linked[k] is False where frame k kept the previous
    mask instead of its own segmentation.
    """

    def __init__(self, segmenter: Segmenter, tau: float):
        self.tau = check_real(tau, 0, 1, "tau")
        self._segment = check_method(segmenter, "segment", "segmenter")
        self.masks: list[np.ndarray] = []
        self.linked: list[bool] = []

    def update(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        m = check_mask(self._segment(x), np.shape(x)[-2:], "segmenter output")
        if self.masks and m.shape != self.masks[0].shape:
            raise ParameterError(f"frame grid {m.shape} differs from the track's {self.masks[0].shape}")
        m.flags.writeable = False  # check_mask returned a new array; it is the track's now
        # the first frame anchors the track, even when it is empty
        accepted = not self.masks or _iou(m, self.masks[-1]) > self.tau
        if not accepted:
            m = self.masks[-1]
        self.masks.append(m)
        self.linked.append(accepted)
        return m, accepted
