"""Deterministic DDIM stepping, momentum-corrected stepping, and inversion.

One reverse step from level t to t_prev:

    x0_hat = (x_t - sqrt(1 - ab_t) * eps_hat) / sqrt(ab_t)
    dir_t  = sqrt(1 - ab_prev - sigma_t^2) * eps_hat
    x_prev = sqrt(ab_prev) * x0_hat + dir_t + sigma_t * noise

with ab the cumulative alpha product and sigma_t the usual eta-scaled
stochastic width.  The momentum variant recomputes the emission from a
corrected x0 estimate: a velocity buffer accumulates the per-step drift
g_t = x_t - x_prev_ddim + lam * dir_t and is folded back in with a weight
kappa that ramps linearly from 0 at t=T to kappa0 at t=0, so the correction
stays inert early and grows as structure settles.

Every step, vanilla, corrected or inversion hop, is one linear map of x_t,
eps_hat, the velocity v and the scaled noise n = sigma_t * z, with scalar
coefficients computed once per call (_linear_step):

    A = 1 / sqrt(ab_t)           B = -sqrt(1 - ab_t) * A
    P = sqrt(ab_prev)            D = sqrt(max(1 - ab_prev - sigma_t^2, 0))

    x0     = A * x_t + B * eps_hat
    dir_t  = D * eps_hat
    v'     = beta * v + (1 - beta) * g_t
           = beta * v + (1 - beta) * ((1 - P*A) * x_t
                                      + ((lam - 1) * D - P*B) * eps_hat - n)
    x0_hat = x0 + kappa * v'
    x_prev = P * x0_hat + dir_t + n

DDIM is the case without a velocity; with kappa == 0 the corrected step
emits exactly the DDIM latent.  The inversion hop is the same map with the
target level's P = sqrt(ab_next) and D = sqrt(1 - ab_next).  Sweeps that
keep only the latent (ddim_sample, ddim_invert) fold the emission further,
x_prev = P*A * x_t + (P*B + D) * eps_hat + n.  Folding the
divisions and the provisional emission into coefficients re-associates the
arithmetic: at unit scale the outputs match the formulas above to a few
ulps (tested to 1e-12), not bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Protocol

import numpy as np

from .core import LatentSequence, NoiseSchedule, RandomSource, all_finite, check_latent
from .errors import NumericError, ParameterError, SingularScheduleError


class Denoiser(Protocol):
    def predict_eps(self, x_t: np.ndarray, t: int) -> np.ndarray: ...


@dataclasses.dataclass(frozen=True)
class StepOutput:
    """Result of one reverse step."""

    x_prev: np.ndarray
    x0_hat: np.ndarray
    dir: np.ndarray
    kappa_used: float = 0.0


@dataclasses.dataclass(frozen=True)
class MomentumState:
    """Velocity buffer and momentum hyperparameters for one trajectory.

    v starts at zeros, so the first corrected step at t=T equals the vanilla
    step.  A step never writes into v; it returns a new state instead.
    """

    v: np.ndarray
    beta: float
    lam: float
    kappa0: float
    T: int

    def __post_init__(self):
        if not (0.0 <= self.beta <= 1.0):
            raise ParameterError(f"momentum beta must lie in [0, 1], got {self.beta}")
        if self.kappa0 < 0.0:
            raise ParameterError(f"kappa0 must be >= 0, got {self.kappa0}")
        if self.lam < 0.0:
            raise ParameterError(f"lam must be >= 0, got {self.lam}")
        if self.T < 1:
            raise ParameterError(f"T must be >= 1, got {self.T}")

    @classmethod
    def fresh(cls, shape, T: int, beta: float = 0.9, lam: float = 1.0, kappa0: float = 2.0) -> "MomentumState":
        return cls(v=np.zeros(shape), beta=beta, lam=lam, kappa0=kappa0, T=T)


def kappa_at(t: int, T: int, kappa0: float) -> float:
    """Correction weight kappa0 * (1 - t/T): 0 at t=T, kappa0 at t=0."""
    return kappa0 * (1.0 - t / T)


def predict_x0(x_t: np.ndarray, t: int, eps_hat: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Clean-latent estimate implied by a noise prediction at level t."""
    if not (0 <= t <= s.T):
        raise ParameterError(f"t must lie in [0, {s.T}], got {t}")
    ab = _alpha_bar(s, t)
    return (x_t - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)


def sigma_for(s: NoiseSchedule, t: int, t_prev: int, eta: float) -> float:
    if eta == 0.0:
        return 0.0
    ab_t = s.alpha_bar[t]
    ab_prev = s.alpha_bar[t_prev]
    return eta * np.sqrt((1.0 - ab_prev) / (1.0 - ab_t)) * np.sqrt(1.0 - ab_t / ab_prev)


def _predict(denoiser, x_t, t):
    eps_hat = np.asarray(denoiser.predict_eps(x_t, t), dtype=np.float64)
    if eps_hat.shape != x_t.shape:
        raise ParameterError(f"denoiser output shape {eps_hat.shape} does not match input {x_t.shape}")
    if not all_finite(eps_hat):
        raise ParameterError("denoiser produced non-finite values")
    return eps_hat


def _alpha_bar(s, t) -> float:
    """alpha_bar[t] as a float, rejecting the level x0 cannot be read from."""
    ab = float(s.alpha_bar[t])
    if ab == 0.0:
        raise SingularScheduleError(f"alpha_bar[{t}] is zero; x0 is unrecoverable")
    return ab


def _width(s, t_prev, sigma) -> float:
    """D = sqrt(1 - ab_prev - sigma^2), the deterministic direction's scale."""
    rad = 1.0 - s.alpha_bar[t_prev] - sigma * sigma
    if rad < -1e-12:
        raise ParameterError(f"sigma^2 exceeds 1 - alpha_bar[{t_prev}]; lower eta")
    return math.sqrt(max(rad, 0.0))


def _noise(rng, sigma, shape):
    if sigma == 0.0:
        return None
    z = rng.normal(shape)
    z *= sigma
    return z


def _linear_step(
    x_t, eps, ab_t, ab_prev, width, noise=None, v=None, beta=0.0, lam=0.0, kappa=0.0, x_prev_only=False
):
    """The step as a linear map (module docstring); returns x_prev, x0_hat,
    dir and v' (None without a velocity).  Every array term is one numpy
    pass into an output or the single scratch buffer.

    x_prev_only serves the sweeps that keep nothing but the latent: without
    a velocity, x_prev = P*A * x_t + (P*B + D) * eps_hat (+ n) takes three
    passes instead of six, and x0_hat and dir come back as None."""
    a = 1.0 / math.sqrt(ab_t)
    b = -math.sqrt(1.0 - ab_t) * a
    p = math.sqrt(ab_prev)
    if x_prev_only and v is None:
        x_prev = np.multiply(x_t, p * a)
        x_prev += np.multiply(eps, p * b + width)
        if noise is not None:
            x_prev += noise
        return x_prev, None, None, None
    x0 = np.multiply(x_t, a)
    scratch = np.multiply(eps, b)
    x0 += scratch
    direction = np.multiply(eps, width)
    v_new = None
    if v is not None:
        w = 1.0 - beta
        v_new = np.multiply(v, beta)
        v_new += np.multiply(x_t, w * (1.0 - p * a), out=scratch)
        v_new += np.multiply(eps, w * ((lam - 1.0) * width - p * b), out=scratch)
        if noise is not None:
            v_new -= np.multiply(noise, w, out=scratch)
        if kappa != 0.0:
            x0 += np.multiply(v_new, kappa, out=scratch)
    x_prev = np.multiply(x0, p, out=scratch)
    x_prev += direction
    if noise is not None:
        x_prev += noise
    return x_prev, x0, direction, v_new


def _step(x_t, t, denoiser, s, eta, rng, t_prev, state, x_prev_only=False):
    """Validate, query the denoiser once and apply the linear map; the
    velocity terms take part only when a momentum state is given.  Returns
    x_prev, x0_hat, dir, v' and kappa.  x_t must already be a checked
    latent: the public steps check it on entry, ddim_sample checks each
    hop's output."""
    if not (1 <= t <= s.T):
        raise ParameterError(f"step source t must lie in [1, {s.T}], got {t}")
    if t_prev is None:
        t_prev = t - 1
    if not (0 <= t_prev < t):
        raise ParameterError(f"t_prev must lie in [0, {t}), got {t_prev}")
    if eta < 0.0:
        raise ParameterError(f"eta must be >= 0, got {eta}")
    if eta > 0.0 and rng is None:
        raise ParameterError("eta > 0 requires an rng")
    if state is not None:
        if state.T != s.T:
            raise ParameterError(f"state horizon T={state.T} does not match schedule T={s.T}")
        if state.v.shape != x_t.shape:
            raise ParameterError(f"state velocity shape {state.v.shape} does not match latent {x_t.shape}")

    eps_hat = _predict(denoiser, x_t, t)
    ab_t = _alpha_bar(s, t)
    sigma = sigma_for(s, t, t_prev, eta)
    width = _width(s, t_prev, sigma)
    noise = _noise(rng, sigma, x_t.shape)
    ab_prev = float(s.alpha_bar[t_prev])
    if state is None:
        return *_linear_step(x_t, eps_hat, ab_t, ab_prev, width, noise, x_prev_only=x_prev_only), 0.0
    kappa = kappa_at(t, state.T, state.kappa0)
    return *_linear_step(x_t, eps_hat, ab_t, ab_prev, width, noise, state.v, state.beta, state.lam, kappa), kappa


def ddim_step(
    x_t: np.ndarray,
    t: int,
    denoiser: Denoiser,
    s: NoiseSchedule,
    eta: float = 0.0,
    rng: RandomSource | None = None,
    t_prev: int | None = None,
) -> StepOutput:
    """One vanilla reverse step from t to t_prev (default t-1)."""
    x_t = check_latent(x_t, "x_t")
    x_prev, x0_hat, direction, _, _ = _step(x_t, t, denoiser, s, eta, rng, t_prev, None)
    return StepOutput(x_prev=x_prev, x0_hat=x0_hat, dir=direction, kappa_used=0.0)


def momentum_step(
    x_t: np.ndarray,
    t: int,
    denoiser: Denoiser,
    s: NoiseSchedule,
    state: MomentumState,
    eta: float = 0.0,
    rng: RandomSource | None = None,
    t_prev: int | None = None,
) -> tuple[StepOutput, MomentumState]:
    """One momentum-corrected reverse step.

    Forms the drift against the provisional DDIM emission, updates the
    velocity buffer, then emits from the corrected x0 estimate; one noise
    sample serves both the drift and the emission.  The provisional
    emission is never materialised: it is folded into the coefficients of
    the linear map in the module docstring.  state is not modified; the
    updated velocity comes back in a new MomentumState.
    """
    x_t = check_latent(x_t, "x_t")
    x_prev, x0_hat, direction, v, kappa = _step(x_t, t, denoiser, s, eta, rng, t_prev, state)
    out = StepOutput(x_prev=x_prev, x0_hat=x0_hat, dir=direction, kappa_used=kappa)
    return out, MomentumState(v=v, beta=state.beta, lam=state.lam, kappa0=state.kappa0, T=state.T)


def step_grid(T: int, steps: int) -> np.ndarray:
    """Uniform timestep sub-grid 0 = g_0 < g_1 < ... < g_steps = T."""
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    grid = np.rint(np.linspace(0.0, T, steps + 1)).astype(int)
    if np.any(np.diff(grid) <= 0):
        raise ParameterError(f"steps={steps} does not fit T={T}: sub-grid degenerates")
    return grid


def ddim_invert(x0: np.ndarray, denoiser: Denoiser, s: NoiseSchedule, steps: int) -> LatentSequence:
    """Deterministic inversion: walk a clean latent up a uniform sub-grid.

    Each hop queries the denoiser at the target level with the current,
    lower-noise latent (the level-0 latent itself is never queried), forms
    the x0 estimate at the source level, and re-noises to the target:

        x_next = sqrt(ab_next) * x0_hat + sqrt(1 - ab_next) * eps_hat

    Returns the trajectory of steps+1 latents; entry 0 is the input.
    """
    x = check_latent(x0, "x0")
    grid = step_grid(s.T, steps)
    traj = [x]
    for k in range(steps):
        t_src, t_dst = int(grid[k]), int(grid[k + 1])
        eps_hat = _predict(denoiser, x, t_dst)
        ab_dst = float(s.alpha_bar[t_dst])
        x = _linear_step(x, eps_hat, _alpha_bar(s, t_src), ab_dst, math.sqrt(1.0 - ab_dst), x_prev_only=True)[0]
        traj.append(x)
    return LatentSequence(np.stack(traj))


def ddim_sample(
    x_T: np.ndarray,
    denoiser: Denoiser,
    s: NoiseSchedule,
    steps: int | None = None,
    eta: float = 0.0,
    rng: RandomSource | None = None,
) -> np.ndarray:
    """Full reverse sweep down a uniform sub-grid (default: every level).

    x_T is checked on entry and every hop's output after it, so a blow-up
    raises NumericError naming the hop instead of returning inf or nan."""
    x = check_latent(x_T, "x_T")
    grid = step_grid(s.T, steps if steps is not None else s.T)
    for k in range(len(grid) - 1, 0, -1):
        t, t_prev = int(grid[k]), int(grid[k - 1])
        x = _step(x, t, denoiser, s, eta, rng, t_prev, None, x_prev_only=True)[0]
        if not all_finite(x):
            raise NumericError(f"ddim_sample produced non-finite values in the hop {t} -> {t_prev}")
    return x
