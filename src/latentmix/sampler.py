"""Momentum-corrected DDIM stepping, DDIM sampling and DDIM inversion.

One reverse step from level t to t_prev:

    x0_hat = (x_t - sqrt(1 - ab_t) * eps_hat) / sqrt(ab_t)
    dir_t  = sqrt(1 - ab_prev - sigma_t^2) * eps_hat
    x_prev = sqrt(ab_prev) * x0_hat + dir_t + sigma_t * noise

with ab the cumulative alpha product and sigma_t the usual eta-scaled
stochastic width, eta in [0, 1]:

    sigma_t^2 = eta^2 * (1 - ab_prev) * (1 - ab_t / ab_prev) / (1 - ab_t)

Every step rejects eta outside [0, 1], nan included, on entry.  Within it
sigma_t^2 <= 1 - ab_prev, as ab_t / ab_prev >= ab_t, so D below is real up
to rounding, which its max clamps.

The momentum step recomputes the emission from a corrected x0 estimate: a
velocity buffer accumulates the per-step drift g_t = x_t - x_prev_ddim +
lam * dir_t and is folded back in with a weight kappa that ramps linearly
from 0 at t=T to kappa0 at t=0, so the correction stays inert early and
grows as structure settles.  A vanilla DDIM step is momentum_step with
kappa0 = 0: the correction is skipped and v' never feeds x_prev, so the
step emits exactly the DDIM latent.

With scalar coefficients computed once per hop

    A = 1 / sqrt(ab_t)           B = -sqrt(1 - ab_t) * A
    P = sqrt(ab_prev)            D = sqrt(max(1 - ab_prev - sigma_t^2, 0))
    w = 1 - beta                 cx = w * (1 - P*A)
    ce = w * ((lam - 1) * D - P*B)

the momentum step (momentum_step) is a 2 x k matrix applied to the stacked
operands x_t, eps_hat, the scaled noise n = sigma_t * z and the velocity v:

               x_t                  eps_hat                n              v
    x_prev  [ P*(A + kappa*cx)   P*(B + kappa*ce) + D   1 - P*kappa*w   P*kappa*beta ]
    v'      [ cx                 ce                     -w              beta         ]

    x0_hat  [ A + kappa*cx       B + kappa*ce           -kappa*w        kappa*beta   ]

The v' row is beta * v + (1 - beta) * g_t written out, and the x_prev row
is P times the x0_hat row plus dir_t + n.  The matrix, sigma_t and the
x0_hat row depend only on the hop's Python floats (ab_t, ab_prev, eta,
beta, lam, kappa), so _momentum_map builds them once per hop and memoises
them, read-only; a FIFO queue that steps every slot through the same
levels pays for each hop once.  The n column is there only when
sigma_t > 0.  The step copies its operands into one (k, C*H*W) block and
emits x_prev and v' with one matrix product.  x0_hat is its row applied to
the same block, computed the first time it is read.  With kappa = 0 the
x_prev and x0_hat rows leave the v column out (it is last for that
reason), so even a non-finite v cannot reach them: 0 * nan is nan.

A MomentumState checks its hyperparameters when it is built and keeps the
Python floats check_real returns; the state a step hands back carries them
unchanged, so it is not checked again.

The sweeps (ddim_sample, ddim_invert) keep nothing but the latent.  A sweep
hop from level t to t_to is the x_prev row of the map at eta = 0 and
kappa = 0 over (x_t, eps_hat), with t_to in the place of t_prev: the
coefficients P*A and P*B + D, exactly, as A + 0*cx and B + 0*ce round to A
and B.  At kappa = 0, beta and lam reach only the v' row, so a sweep hop
reads the memoised map at _momentum_map's defaults, and a sweep that walks
the same grid for every frame pays for each hop once.  The formula is the
same in both directions.  Only the level where the denoiser is queried
differs: it is always the noisier of the two, the source t when sampling
down the grid and the target t_to when inverting up it.  Both sweeps walk
their sub-grid through one loop that checks every hop's output and raises
NumericError naming the hop.  Stochastic DDIM is momentum_step with
kappa0 = 0 and eta > 0; the sweeps have no noise term.

There are still two kernels, one per traffic path, and both ways of
merging them were measured and lost.  A sweep hop is three elementwise
passes over the latent; the step needs its operand block to emit v' and
x0_hat from the same operands.  Timed as whole clips paired in one process
(ABBA order, one BLAS thread, a 2-vCPU x86-64 host), a step written as one
elementwise multiply-add per operand and output row, with the sweep sharing
it, took 1.132 times as long on desk-edit (IQR 1.078-1.208, ahead in 22 of
200 pairs; the same code against itself read 0.997) and 1.130 times on
video-edit (1.091-1.174, ahead in 2 of 20).  A sweep run through the
step's matrix product took 1.098 times as long on invert-roundtrip
(1.082-1.118, ahead in 0 of 40).  A bare loop of steps at 4x40x64 shows
the opposite, 124.6 us for the product against 34.9 us elementwise, because
there the product's block and result are freshly mapped pages on every
call; inside an edit, whose heap holds the queue, they are not.  Folding
the divisions and the provisional emission into coefficients re-associates
the arithmetic, and the BLAS kernel behind the matrix product picks its own
summation order: at unit scale the outputs match the formulas above to a
few ulps (tested to 1e-12), not bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Protocol

import numpy as np

from .core import (
    LatentSequence,
    NoiseSchedule,
    RandomSource,
    all_finite,
    as_real_array,
    check_latent,
    check_level,
    check_levels,
    check_method,
    check_real,
    check_type,
)
from .errors import NumericError, ParameterError


class Denoiser(Protocol):
    def predict_eps(self, x_t: np.ndarray, t: int) -> np.ndarray: ...


@dataclasses.dataclass(frozen=True, eq=False)
class StepOutput:
    """Result of one reverse step: the emitted latent x_prev and the
    (corrected) x0 estimate x0_hat.

    x0_hat is computed on first read, as one row of the step's linear map
    applied to the operand block the step keeps, and then cached; a step
    whose estimate nobody reads never computes it.
    """

    x_prev: np.ndarray
    _terms: np.ndarray = dataclasses.field(repr=False)
    _x0_row: np.ndarray = dataclasses.field(repr=False)

    @functools.cached_property
    def x0_hat(self) -> np.ndarray:
        return (self._x0_row @ self._terms[: len(self._x0_row)]).reshape(self.x_prev.shape)


@dataclasses.dataclass(frozen=True, eq=False)
class MomentumState:
    """Velocity buffer and momentum hyperparameters for one trajectory.

    v starts at zeros, so the first corrected step at t=T equals the vanilla
    step.  A step never writes into v; it returns a new state instead.  On
    construction v is checked as a latent and the hyperparameters are kept
    as the Python numbers check_real and check_level return.
    """

    v: np.ndarray
    beta: float
    lam: float
    kappa0: float
    T: int

    def __post_init__(self):
        object.__setattr__(self, "v", check_latent(self.v, "momentum velocity"))
        object.__setattr__(self, "beta", check_real(self.beta, 0, 1, "momentum beta"))
        object.__setattr__(self, "lam", check_real(self.lam, 0, math.inf, "lam"))
        object.__setattr__(self, "kappa0", check_real(self.kappa0, 0, math.inf, "kappa0"))
        object.__setattr__(self, "T", check_level(self.T, 1, math.inf, "T"))

    @classmethod
    def fresh(cls, shape, T: int, beta: float = 0.9, lam: float = 1.0, kappa0: float = 2.0) -> "MomentumState":
        """A state with a zero velocity of shape (C, H, W), each entry checked
        as a count >= 1 before anything is allocated."""
        shape = check_levels(shape, 1, math.inf, "shape", "CHW", "triple")
        return cls(v=np.zeros(shape), beta=beta, lam=lam, kappa0=kappa0, T=T)

    def _advance(self, v: np.ndarray) -> "MomentumState":
        """This state with velocity v, built without running the checks
        again: the hyperparameters were checked when this state was, and v
        is a step's own output."""
        successor = object.__new__(MomentumState)
        successor.__dict__.update(self.__dict__, v=v)
        return successor


def _predict(predict_eps, x_t, t):
    """predict_eps(x_t, t), the method check_method returned, checked as
    the denoiser output: real, of x_t's shape and finite."""
    eps_hat = as_real_array(predict_eps(x_t, t), "denoiser output")
    if eps_hat.shape != x_t.shape:
        raise ParameterError(f"denoiser output shape {eps_hat.shape} does not match input {x_t.shape}")
    if not all_finite(eps_hat):
        raise ParameterError("denoiser produced non-finite values")
    return eps_hat


# one entry per hop of a T = 1000 grid
@functools.lru_cache(maxsize=1024)
def _momentum_map(ab_t: float, ab_prev: float, eta=0.0, beta=0.0, lam=1.0, kappa=0.0):
    """The momentum map of the module docstring for one hop, from Python
    floats the caller has checked; the defaults give the sweep hop.  Returns
    the read-only (2, k) matrix over the columns x_t, eps_hat, n (only when
    sigma_t > 0) and v; sigma_t; and the read-only x0_hat row, which leaves
    the v column out when kappa is 0.  The schedule keeps every alpha_bar
    positive, so A is finite."""
    sigma = 0.0 if eta == 0.0 else eta * math.sqrt((1.0 - ab_prev) / (1.0 - ab_t)) * math.sqrt(1.0 - ab_t / ab_prev)
    a = 1.0 / math.sqrt(ab_t)
    b, p = -math.sqrt(1.0 - ab_t) * a, math.sqrt(ab_prev)
    width = math.sqrt(max(1.0 - ab_prev - sigma * sigma, 0.0))
    w = 1.0 - beta
    cx, ce = w * (1.0 - p * a), w * ((lam - 1.0) * width - p * b)
    x0_row = [a + kappa * cx, b + kappa * ce, -kappa * w, kappa * beta]
    v_row = [cx, ce, -w, beta]
    x_row = [p * x0_row[0], p * x0_row[1] + width, 1.0 + p * x0_row[2], p * x0_row[3]]
    coef, x0_row = np.array([x_row, v_row]), np.array(x0_row)
    if sigma == 0.0:
        coef, x0_row = np.delete(coef, 2, axis=1), np.delete(x0_row, 2)
    if kappa == 0.0:
        x0_row = x0_row[:-1]
    coef.flags.writeable = x0_row.flags.writeable = False
    return coef, sigma, x0_row


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
    """One momentum-corrected reverse step from t to t_prev (default t-1).

    Forms the drift against the provisional DDIM emission, updates the
    velocity buffer, then emits from the corrected x0 estimate; one noise
    sample serves both the drift and the emission.  The provisional
    emission is never materialised: the step is the memoised momentum map
    of the module docstring, one matrix product over a copy of its
    operands.  With kappa0 = 0 this is the vanilla DDIM step.  state is not
    modified; the updated velocity comes back in a new MomentumState.
    """
    x_t, s = check_latent(x_t, "x_t"), check_type(s, NoiseSchedule, "s")
    state = check_type(state, MomentumState, "state")
    if state.T != s.T:
        raise ParameterError(f"state horizon T={state.T} does not match schedule T={s.T}")
    if state.v.shape != x_t.shape:
        raise ParameterError(f"state velocity shape {state.v.shape} does not match latent {x_t.shape}")
    t = check_level(t, 1, s.T, "step source t")
    t_prev = t - 1 if t_prev is None else check_level(t_prev, 0, t - 1, "t_prev")
    eta = check_real(eta, 0, 1, "eta")
    if eta > 0.0:
        rng = check_type(rng, RandomSource, "rng")  # eta = 0 draws nothing, so its rng goes unchecked
    eps = _predict(check_method(denoiser, "predict_eps", "denoiser"), x_t, t)
    kappa = state.kappa0 * (1.0 - t / state.T)
    ab = s.alpha_bar
    coef, sigma, x0_row = _momentum_map(float(ab[t]), float(ab[t_prev]), eta, state.beta, state.lam, kappa)
    if sigma == 0.0:
        operands = (x_t, eps, state.v)
    else:
        noise = rng.normal(x_t.shape)
        noise *= sigma
        operands = (x_t, eps, noise, state.v)
    terms = np.concatenate(operands).reshape(len(operands), -1)
    if kappa == 0.0:
        # a zero coefficient would still let 0 * nan through: leave v out
        x_prev, v = coef[0, :-1] @ terms[:-1], coef[1] @ terms
    else:
        x_prev, v = coef @ terms
    return StepOutput(x_prev.reshape(x_t.shape), terms, x0_row), state._advance(v.reshape(x_t.shape))


def step_grid(T: int, steps: int) -> np.ndarray:
    """Uniform timestep sub-grid 0 = g_0 < g_1 < ... < g_steps = T.

    steps is an integer with 1 <= steps <= T, and every such count
    gives a strictly increasing grid: with spacing d = T / steps, rounding
    moves each level by at most 1/2, so consecutive levels differ by at
    least d - 1 > 0 when d > 1, and d = 1 is the exact grid 0, 1, ..., T.
    """
    T = check_level(T, 1, math.inf, "T")
    steps = check_level(steps, 1, T, "steps")
    return np.rint(np.linspace(0.0, T, steps + 1)).astype(int)


def _sweep(name, x, levels, denoiser, s, traj=None):
    """Carry x between consecutive levels by the eta = 0 map of the module
    docstring, querying the denoiser at the noisier level of each hop, and
    return the last latent.  With traj, hop k writes into traj[k + 1].
    The denoiser's method is looked up once per sweep, and every hop's
    output is checked finite.  eps_hat is read, never written: a denoiser
    may hand back an array it keeps."""
    ab, predict_eps = s.alpha_bar, check_method(denoiser, "predict_eps", "denoiser")
    for k, (src, dst) in enumerate(zip(levels, levels[1:])):
        eps = _predict(predict_eps, x, max(src, dst))
        on_x, on_eps, _ = _momentum_map(float(ab[src]), float(ab[dst]))[0][0].tolist()
        x = np.multiply(x, on_x, out=None if traj is None else traj[k + 1])
        x += np.multiply(eps, on_eps)
        if not all_finite(x):
            raise NumericError(f"{name} produced non-finite values in the hop {src} -> {dst}")
    return x


def ddim_invert(x0: np.ndarray, denoiser: Denoiser, s: NoiseSchedule, steps: int) -> LatentSequence:
    """Deterministic inversion: walk a clean latent up a uniform sub-grid.

    Each hop queries the denoiser at the target level with the current,
    lower-noise latent (the level-0 latent itself is never queried), forms
    the x0 estimate at the source level, and re-noises to the target:

        x_next = sqrt(ab_next) * x0_hat + sqrt(1 - ab_next) * eps_hat

    Returns the trajectory of steps+1 latents; entry 0 is a copy of the
    input.  The trajectory is one (steps+1, C, H, W) array allocated up
    front, and each hop writes its output in place into the next row, so no
    per-hop latent is kept and nothing is stacked afterwards.  x0 is checked
    on entry and every hop's output after it, so a blow-up raises
    NumericError naming the hop, and the trajectory is not scanned again.
    """
    x, s = check_latent(x0, "x0"), check_type(s, NoiseSchedule, "s")
    grid = step_grid(s.T, steps)
    traj = np.empty((len(grid), *x.shape))
    traj[0] = x
    _sweep("ddim_invert", traj[0], grid.tolist(), denoiser, s, traj)
    return LatentSequence._checked(traj)


def ddim_sample(x_T: np.ndarray, denoiser: Denoiser, s: NoiseSchedule, steps: int | None = None) -> np.ndarray:
    """Deterministic (eta = 0) reverse sweep down a uniform sub-grid
    (default: every level).

    x_T is checked on entry and every hop's output after it, so a blow-up
    raises NumericError naming the hop instead of returning inf or nan."""
    x, s = check_latent(x_T, "x_T"), check_type(s, NoiseSchedule, "s")
    grid = step_grid(s.T, steps if steps is not None else s.T)
    return _sweep("ddim_sample", x, grid[::-1].tolist(), denoiser, s)
