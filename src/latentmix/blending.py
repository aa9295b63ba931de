"""Region blending, residual stabilization, and tail-noise reinitialization.

blend_region swaps conditioned content into the masked region of a latent;
gamma_residual adds a small global Gaussian residual that keeps the edited
latent from settling into an off-manifold fixed point; reinit_tail_noise
builds the noise for a freshly appended queue tail by keeping the low
spatial frequencies of the most recent output, re-noised to the terminal
level, and white noise in the rest.

The low-pass band is an ideal square over unshifted FFT indices: it keeps
the frequencies with max(|u|, |v|) <= cutoff * min(h, w), so cutoff 0.5
covers every frequency of an even square grid, and cutoff 0 keeps none by
convention.  A square is separable: the band is the outer product of the
1-D bands |fftfreq(n) * n| <= cutoff * min(h, w) for n = h and n = w, and
projecting a (C, H, W) stack onto it is L_h @ d @ L_w.T with two real
circulant matrices.  reinit_tail_noise builds the pair once per
(h, w, cutoff) from the two 1-D bands and keeps it read-only.

One normal draw e serves both bands of a tail.  Splitting the diffused
frame sqrt(ab_T) * x + sqrt(1 - ab_T) * e1 and a second, fresh draw e2 by
band would give sqrt(ab_T) * L x + sqrt(1 - ab_T) * L e1 + (I - L) e2.
The projection L is symmetric and idempotent, so the low and high bands
of one white draw are independent: L e and (I - L) e have the joint law
of L e1 and (I - L) e2.  Using e for both keeps the mean sqrt(ab_T) * L x
and the covariance I - ab_T * L, and saves a draw per tail.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .core import (
    NoiseSchedule,
    RandomSource,
    check_latent,
    check_mask,
    check_real,
    check_type,
)
from .errors import ParameterError


@dataclasses.dataclass(frozen=True)
class BlendParams:
    """Conditioning strength; the in-mask interpolation weight is
    min(1, strength / 2), so the default strength 2.0 is pure replacement
    and strength 2w pins the weight to any w in [0, 1].  strength is kept
    as the Python float check_real returns, so a numpy float32 blends in
    float64 like the float of its value."""

    strength: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "strength", check_real(self.strength, 0, math.inf, "strength"))


@dataclasses.dataclass(frozen=True)
class ResidualParams:
    """Scale of the global Gaussian residual added after a blend, kept as
    the Python float check_real returns."""

    gamma: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "gamma", check_real(self.gamma, 0, math.inf, "gamma"))


def blend_region(x_t: np.ndarray, x_cond_t: np.ndarray, m: np.ndarray, p: BlendParams) -> np.ndarray:
    """Interpolate conditioned content into the masked region.

    m is an (H, W) mask on the latent grid under core.check_mask.  Outside
    the mask the input passes through bit-identically; inside, the output is
    (1-w) * x_t + w * x_cond_t with w = min(1, p.strength / 2), so w = 1
    gives x_cond_t and w = 0 gives x_t (up to the sign of zero).
    """
    x_t = check_latent(x_t, "x_t")
    x_cond_t = check_latent(x_cond_t, "x_cond_t")
    if x_cond_t.shape != x_t.shape:
        raise ParameterError(f"conditioned latent shape {x_cond_t.shape} does not match {x_t.shape}")
    m = check_mask(m, x_t.shape[1:])
    w = min(1.0, check_type(p, BlendParams, "p").strength / 2.0)
    return np.where(m[None], (1.0 - w) * x_t + w * x_cond_t, x_t)


def gamma_residual(x_mix: np.ndarray, p: ResidualParams, rng: RandomSource) -> np.ndarray:
    """Add gamma-scaled Gaussian noise over the whole latent (no mask).  The
    normal draw is taken at gamma 0 too, so later draws do not depend on gamma."""
    x_mix, p = check_latent(x_mix, "x_mix"), check_type(p, ResidualParams, "p")
    return x_mix + p.gamma * check_type(rng, RandomSource, "rng").normal(x_mix.shape)


def _circulant(n: int, radius: float) -> np.ndarray:
    """The real (n, n) matrix L with L @ d = ifft(band * fft(d)) along axis
    0 for the 1-D band |fftfreq(n) * n| <= radius, empty when radius is 0:
    L[i, j] = c[(i - j) % n] with c the inverse transform of the band,
    which is real because the band is even in its frequency."""
    band = (np.abs(np.fft.fftfreq(n) * n) <= radius) & (radius > 0)
    c = np.fft.ifft(band).real
    return c[(np.arange(n)[:, None] - np.arange(n)) % n]


@functools.lru_cache(maxsize=16)
def _band_factors(h: int, w: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only matrices L_h (h, h) and L_w.T (w, w) with L_h @ d @ L_w.T
    the projection of a real (h, w) grid d onto the square band of the
    module docstring; cutoff 0 keeps no band, so both are zero."""
    radius = cutoff * min(h, w)
    left, right = _circulant(h, radius), _circulant(w, radius).T.copy()
    left.flags.writeable = right.flags.writeable = False
    return left, right


def reinit_tail_noise(
    x_recent: np.ndarray, s: NoiseSchedule, cutoff: float, rng: RandomSource
) -> np.ndarray:
    """Terminal-level noise that carries the recent frame's low frequencies.

    One normal draw e of x_recent's shape gives the result.  Each channel
    keeps its low band from the frame diffused to level T with e,
    sqrt(ab_T) * x_recent + sqrt(1 - ab_T) * e, and the rest from e itself;
    since the split is linear, that is

        e + L_h @ (sqrt(ab_T) * x_recent - (1 - sqrt(1 - ab_T)) * e) @ L_w.T

    with the cached separable factors of the module docstring, whose last
    paragraph says why one draw has the distribution of two.  cutoff 0
    keeps no band: both factors are zero, so the result is e + 0.
    """
    cutoff = check_real(cutoff, 0, 0.5, "cutoff")
    x_recent, s = check_latent(x_recent, "x_recent"), check_type(s, NoiseSchedule, "s")
    noise = check_type(rng, RandomSource, "rng").normal(x_recent.shape)
    left, right = _band_factors(*x_recent.shape[1:], cutoff)
    ab = s.alpha_bar[s.T]
    out = left @ (np.sqrt(ab) * x_recent - (1.0 - np.sqrt(1.0 - ab)) * noise) @ right
    out += noise
    return out
