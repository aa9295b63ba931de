"""The diagonal FIFO edit written from the formulas, as a reference for the
edit loop in bench/driver.py (edit_clip).

It shares none of the step or band arithmetic: each step is test_sampler's
reference_step, the raw formulas of sampler.py's docstring with no
memoised map and no operand block, and a tail keeps its low band through
np.fft.rfft2 rather than the circulant factors.  It makes the same
RandomSource calls in the same order as edit_clip, so the two agree to
rounding on any numpy, with no pinned normals.  The masks come from the
tracker the caller passes in.
"""

import types

import numpy as np
from latentmix.sampler import step_grid

from test_blending import square_band
from test_sampler import reference_step


def diffuse(x0, ab, e):
    return np.sqrt(ab) * x0 + np.sqrt(1 - ab) * e


def reinit_tail(x, s, cutoff, rng):
    """One draw e: the low band of x diffused to level T with e, and e in
    the rest."""
    e = rng.normal(x.shape)
    h, w = x.shape[1:]
    band = square_band(h, w, cutoff)[:, : w // 2 + 1]
    return e + np.fft.irfft2(band * np.fft.rfft2(diffuse(x, s.alpha_bar[s.T], e) - e), s=(h, w))


def reference_edit(cfg, s, oracle, clip, rng, tracker):
    """edit_clip's queue: L warm-up slots of frame 0, then one entering frame
    per iteration, each slot stepped once per iteration, the concept blended
    in where a frame crosses t', and every popped head re-noised as the new
    tail.  Returns the (F, C, H, W) output."""
    sa, inj = cfg.sampler, cfg.injection
    frames, length = cfg.queue.frames, cfg.queue.length
    ab = s.alpha_bar
    grid = step_grid(s.T, length).tolist()
    shape = clip.source.shape[1:]
    weight = min(1.0, inj.strength / 2)
    dens = [oracle.for_frame(k) for k in range(frames)]

    def fresh():
        return types.SimpleNamespace(v=np.zeros(shape), beta=sa.beta, lam=sa.lam, kappa0=sa.kappa0, T=s.T)

    queue = [[diffuse(clip.source[0], ab[grid[j + 1]], rng.normal(shape)), fresh(), -1] for j in range(length)]
    out = np.empty_like(clip.source)
    for entering in range(frames + length):
        for j, slot in enumerate(queue):
            x, state, k = slot
            t, t_prev = grid[j + 1], grid[j]
            eps = dens[min(max(k, 0), frames - 1)].predict_eps(x, t)
            sigma = sa.eta * np.sqrt((1 - ab[t_prev]) / (1 - ab[t])) * np.sqrt(1 - ab[t] / ab[t_prev])
            z = rng.normal(shape) if sigma > 0 else None
            x, x0, _, state.v = reference_step(x, t, t_prev, eps, s, sa.eta, z, state)
            if 0 <= k < frames and t_prev <= inj.t_prime < t:
                mask, _ = tracker.update(x0)
                cond = diffuse(clip.concept, ab[t_prev], rng.normal(shape))
                x = np.where(mask, (1 - weight) * x + weight * cond, x)
                x = x + inj.gamma_res * rng.normal(shape)
            slot[0] = x
        head, _, k = queue.pop(0)
        if 0 <= k < frames:
            out[k] = head
        queue.append([reinit_tail(head, s, inj.cutoff, rng), fresh(), entering])
    return out
