import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from latentmix.blending import BlendParams, ResidualParams, reinit_tail_noise
from latentmix.core import RandomSource, check_latent, forward_diffuse, make_schedule
from latentmix.errors import NumericError, ParameterError
from latentmix import sampler
from latentmix.ltsio import read_lts
from latentmix.sampler import (
    MomentumState,
    _momentum_map,
    ddim_invert,
    ddim_sample,
    momentum_step,
    step_grid,
)
from latentmix.synth import OracleSpec, checkerboard_frame, moving_square_scene, oracle_denoiser, patch_embedding_proxy
from latentmix.tracking import OverlapTracker, ThresholdSegmenter

from conftest import DESK_SHAPE, traced_peak


class ZeroDenoiser:
    def predict_eps(self, x_t, t):
        return np.zeros_like(x_t)


class MixDenoiser:
    """Deterministic non-oracle denoiser: fixed channel mixing plus a
    t-dependent bias, enough structure to exercise trajectory dynamics."""

    def __init__(self, seed=0, shape=DESK_SHAPE):
        rng = RandomSource(seed)
        self.w = 0.3 * rng.normal((shape[0], shape[0]))
        self.b = 0.1 * rng.normal(shape)

    def predict_eps(self, x_t, t):
        mixed = np.einsum("dc,chw->dhw", self.w, x_t)
        return np.tanh(mixed) + np.sin(float(t)) * self.b


class NoCallDenoiser:
    """For calls that must fail on their arguments before any query."""

    def predict_eps(self, x_t, t):
        raise AssertionError("the denoiser was queried")


class FixedEps:
    def __init__(self, eps):
        self.eps = eps

    def predict_eps(self, x_t, t):
        return self.eps


class CountingRng(RandomSource):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def normal(self, shape):
        self.draws += 1
        return super().normal(shape)


def vanilla_step(x, t, den, s, eta=0.0, rng=None, t_prev=None):
    """A vanilla DDIM step: momentum_step with kappa0 = 0."""
    state = MomentumState.fresh(np.shape(x), T=s.T, kappa0=0.0)
    return momentum_step(x, t, den, s, state, eta=eta, rng=rng, t_prev=t_prev)[0]


class TestPredictX0:
    """The x0 estimate a step reports (StepOutput.x0_hat)."""

    def test_zero_eps(self, desk_schedule):
        x = RandomSource(0).normal(DESK_SHAPE)
        out = vanilla_step(x, 10, ZeroDenoiser(), desk_schedule).x0_hat
        assert np.allclose(out, x / np.sqrt(desk_schedule.alpha_bar[10]), atol=1e-15)

    def test_inverts_forward_identity(self, desk_schedule):
        rng = RandomSource(5)
        x0 = rng.normal(DESK_SHAPE)
        for t in range(1, desk_schedule.T + 1):
            eps = rng.normal(DESK_SHAPE)
            ab = desk_schedule.alpha_bar[t]
            x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
            rec = vanilla_step(x_t, t, FixedEps(eps), desk_schedule).x0_hat
            assert np.max(np.abs(rec - x0)) < 1e-9


class TestDdimStep:
    """A vanilla DDIM step, run as momentum_step with kappa0 = 0."""

    def test_zero_denoiser_closed_form(self, desk_schedule):
        x = RandomSource(1).normal(DESK_SHAPE)
        t = 20
        out = vanilla_step(x, t, ZeroDenoiser(), desk_schedule)
        scale = np.sqrt(desk_schedule.alpha_bar[t - 1] / desk_schedule.alpha_bar[t])
        assert np.allclose(out.x_prev, scale * x, atol=1e-12)
        x_prev = reference_step(x, t, t - 1, np.zeros_like(x), desk_schedule, 0.0, None)[0]
        assert np.max(np.abs(out.x_prev - x_prev)) < 1e-12

    def test_oracle_full_sweep(self, desk_schedule):
        # eta=0 sweep from a diffused latent lands on x0*; x0_hat exact at every step
        rng = RandomSource(2)
        for trial in range(10):
            x0_star = RandomSource(100 + trial).normal(DESK_SHAPE)
            den = oracle_denoiser(OracleSpec(frames=x0_star[None]), desk_schedule)
            ab_T = desk_schedule.alpha_bar[-1]
            x = np.sqrt(ab_T) * x0_star + np.sqrt(1.0 - ab_T) * rng.normal(DESK_SHAPE)
            for t in range(desk_schedule.T, 0, -1):
                out = vanilla_step(x, t, den, desk_schedule)
                assert np.max(np.abs(out.x0_hat - x0_star)) < 1e-9
                x = out.x_prev
            assert np.max(np.abs(x - x0_star)) < 1e-5

    def test_eta_one_reproducible(self, desk_schedule):
        x = RandomSource(3).normal(DESK_SHAPE)
        den = MixDenoiser()
        a = vanilla_step(x, 30, den, desk_schedule, eta=1.0, rng=RandomSource(7))
        b = vanilla_step(x, 30, den, desk_schedule, eta=1.0, rng=RandomSource(7))
        assert a.x_prev.tobytes() == b.x_prev.tobytes()
        c = vanilla_step(x, 30, den, desk_schedule, eta=1.0, rng=RandomSource(8))
        assert not np.array_equal(a.x_prev, c.x_prev)

    def test_eta_one_stochastic_sweep_still_converges(self, desk_schedule):
        # the oracle's x0 estimate is exact at every level, so even the
        # stochastic sampler ends on x0* (final hop has zero width)
        x0_star = RandomSource(21).normal(DESK_SHAPE)
        den = oracle_denoiser(OracleSpec(frames=x0_star[None]), desk_schedule)
        rng = RandomSource(22)
        x = rng.normal(DESK_SHAPE)
        for t in range(desk_schedule.T, 0, -1):
            x = vanilla_step(x, t, den, desk_schedule, eta=1.0, rng=rng).x_prev
        assert np.max(np.abs(x - x0_star)) < 1e-9

    def test_excessive_eta_rejected(self, desk_schedule):
        x = RandomSource(4).normal(DESK_SHAPE)
        with pytest.raises(ParameterError):
            vanilla_step(x, 32, ZeroDenoiser(), desk_schedule, eta=50.0, rng=RandomSource(0))

    @pytest.mark.parametrize("eta", [1.5, np.nan, np.inf, -0.1])
    def test_eta_outside_unit_interval_rejected_on_entry(self, desk_schedule, eta):
        # within [0, 1], sigma^2 <= 1 - alpha_bar[t_prev] at every hop
        x = RandomSource(4).normal(DESK_SHAPE)
        message = r"lie in \[0, 1\]" if np.isfinite(eta) else "be finite"
        with pytest.raises(ParameterError, match=rf"^eta must {message}, got "):
            vanilla_step(x, 32, NoCallDenoiser(), desk_schedule, eta=eta, rng=RandomSource(0))

    def test_eta_requires_rng(self, desk_schedule):
        with pytest.raises(ParameterError):
            vanilla_step(np.zeros(DESK_SHAPE), 5, ZeroDenoiser(), desk_schedule, eta=0.5)

    def test_sigma_bound_at_eta_one(self, desk_schedule):
        ab = desk_schedule.alpha_bar
        for t in range(2, desk_schedule.T + 1):
            sig = _momentum_map(float(ab[t]), float(ab[t - 1]), 1.0)[1]
            assert sig * sig <= 1.0 - desk_schedule.alpha_bar[t - 1] + 1e-12

    def test_t_bounds(self, desk_schedule):
        x = np.zeros(DESK_SHAPE)
        with pytest.raises(ParameterError):
            vanilla_step(x, 0, ZeroDenoiser(), desk_schedule)
        with pytest.raises(ParameterError):
            vanilla_step(x, desk_schedule.T + 1, ZeroDenoiser(), desk_schedule)
        with pytest.raises(ParameterError):
            vanilla_step(x, 5, ZeroDenoiser(), desk_schedule, t_prev=5)


class TestMomentumStep:
    def test_kappa0_zero_reduces_to_ddim(self, desk_schedule):
        # full-trajectory reduction, bitwise
        for trial in range(5):
            den = MixDenoiser(seed=trial)
            x_m = RandomSource(50 + trial).normal(DESK_SHAPE)
            x_d = x_m.copy()
            state = MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T, kappa0=0.0)
            for t in range(desk_schedule.T, 0, -1):
                out_m, state = momentum_step(x_m, t, den, desk_schedule, state)
                out_d = vanilla_step(x_d, t, den, desk_schedule)
                assert np.array_equal(out_m.x_prev, out_d.x_prev)
                x_m, x_d = out_m.x_prev, out_d.x_prev

    def test_first_step_at_T_equals_vanilla_for_any_v(self, desk_schedule):
        # kappa(T) == 0 wipes the correction even with a dirty buffer
        den = MixDenoiser()
        x = RandomSource(9).normal(DESK_SHAPE)
        dirty = MomentumState(
            v=RandomSource(10).normal(DESK_SHAPE), beta=0.9, lam=1.0, kappa0=2.0, T=desk_schedule.T
        )
        T = desk_schedule.T
        out_m, new_state = momentum_step(x, T, den, desk_schedule, dirty)
        out_d = vanilla_step(x, T, den, desk_schedule)
        x_prev = reference_step(x, T, T - 1, den.predict_eps(x, T), desk_schedule, 0.0, None, dirty)[0]
        assert np.max(np.abs(out_m.x_prev - x_prev)) < 1e-12
        assert np.array_equal(out_m.x_prev, out_d.x_prev)
        # velocity still updates for later steps
        assert not np.array_equal(new_state.v, dirty.v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("eta", [0.0, 0.5])
    @pytest.mark.parametrize("kappa0", [0.0, 2.0])
    def test_kappa_zero_never_reads_velocity(self, desk_schedule, bad, eta, kappa0):
        # kappa is 0 when kappa0 is, or at t = T; a zero coefficient would
        # still let 0 * nan through, so the emission must not read v at all.
        # A constructed state rejects a non-finite v, so the dirty state is
        # built as a step builds its unchecked successor.
        t = 30 if kappa0 == 0.0 else desk_schedule.T
        den = MixDenoiser(seed=2)
        x = RandomSource(90).normal(DESK_SHAPE)
        clean = MomentumState(v=RandomSource(91).normal(DESK_SHAPE), beta=0.9, lam=0.7, kappa0=kappa0, T=desk_schedule.T)
        dirty_v = clean.v.copy()
        dirty_v[1, 3, 4] = bad
        outs = []
        for state in (clean, clean._advance(dirty_v)):
            outs.append(momentum_step(x, t, den, desk_schedule, state, eta=eta, rng=RandomSource(92))[0])
        assert np.all(np.isfinite(outs[1].x_prev))
        assert np.array_equal(outs[1].x_prev, outs[0].x_prev)
        assert np.array_equal(outs[1].x0_hat, outs[0].x0_hat)

    def test_beta_one_freezes_velocity(self, desk_schedule):
        den = MixDenoiser()
        v0 = RandomSource(11).normal(DESK_SHAPE)
        state = MomentumState(v=v0, beta=1.0, lam=1.0, kappa0=2.0, T=desk_schedule.T)
        x = RandomSource(12).normal(DESK_SHAPE)
        for t in (40, 39, 38):
            out, state = momentum_step(x, t, den, desk_schedule, state)
            x = out.x_prev
        assert np.array_equal(state.v, v0)

    def test_hand_computed_single_step(self, desk_schedule):
        # independent recompute of one corrected step from the raw formulas
        t, beta, lam, k0 = 16, 0.9, 0.7, 2.0
        den = MixDenoiser(seed=3)
        x = RandomSource(13).normal(DESK_SHAPE)
        v0 = RandomSource(14).normal(DESK_SHAPE)
        state = MomentumState(v=v0, beta=beta, lam=lam, kappa0=k0, T=desk_schedule.T)
        out, new_state = momentum_step(x, t, den, desk_schedule, state)

        ab_t = desk_schedule.alpha_bar[t]
        ab_p = desk_schedule.alpha_bar[t - 1]
        eps = den.predict_eps(x, t)
        x0_ddim = (x - np.sqrt(1 - ab_t) * eps) / np.sqrt(ab_t)
        direction = np.sqrt(1 - ab_p) * eps
        x_prev_ddim = np.sqrt(ab_p) * x0_ddim + direction
        g = x - x_prev_ddim + lam * direction
        v1 = beta * v0 + (1 - beta) * g
        kappa = k0 * (1 - t / desk_schedule.T)
        expect = np.sqrt(ab_p) * (x0_ddim + kappa * v1) + direction

        assert np.max(np.abs(new_state.v - v1)) < 1e-12
        assert np.max(np.abs(out.x_prev - expect)) < 1e-12
        x_prev = reference_step(x, t, t - 1, eps, desk_schedule, 0.0, None, state)[0]
        assert np.max(np.abs(out.x_prev - x_prev)) < 1e-12
        # emission is internally consistent with the reported x0 estimate
        rebuilt = np.sqrt(ab_p) * out.x0_hat + np.sqrt(1 - ab_p) * eps
        assert np.max(np.abs(rebuilt - out.x_prev)) < 1e-12

    def test_noise_sample_reused(self, desk_schedule):
        # same seed through a kappa0=2 and a kappa0=0 state: the stochastic
        # term cancels in the difference, leaving exactly sqrt(ab_prev)*kappa*v
        # (v' does not depend on kappa)
        den = MixDenoiser()
        x = RandomSource(15).normal(DESK_SHAPE)
        state = MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T)
        t = 30
        counting = CountingRng(77)
        out_m, new_state = momentum_step(x, t, den, desk_schedule, state, eta=1.0, rng=counting)
        assert counting.draws == 1  # one draw serves both emissions
        out_d = vanilla_step(x, t, den, desk_schedule, eta=1.0, rng=RandomSource(77))
        gap = out_m.x_prev - out_d.x_prev
        expect = np.sqrt(desk_schedule.alpha_bar[t - 1]) * state.kappa0 * (1.0 - t / state.T) * new_state.v
        assert np.max(np.abs(gap - expect)) < 1e-12

    def test_state_validation(self, desk_schedule):
        den = ZeroDenoiser()
        x = np.zeros(DESK_SHAPE)
        with pytest.raises(ParameterError):
            momentum_step(x, 5, den, desk_schedule, MomentumState.fresh((1, 2, 2), T=desk_schedule.T))
        with pytest.raises(ParameterError):
            momentum_step(x, 5, den, desk_schedule, MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T + 1))
        with pytest.raises(ParameterError):
            MomentumState.fresh(DESK_SHAPE, T=10, beta=1.5)
        with pytest.raises(ParameterError):
            MomentumState.fresh(DESK_SHAPE, T=10, kappa0=-0.1)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("nan", "^momentum velocity contains non-finite values$"),
            ("complex", "^momentum velocity must be a real array, got dtype complex128$"),
            ("2-d", "^momentum velocity must be a nonempty \\(C, H, W\\) array"),
        ],
        ids=["nan", "complex", "2-d"],
    )
    def test_velocity_is_checked_on_construction(self, desk_schedule, case, message):
        # a nan v gave a non-finite x_prev once kappa > 0, and a complex v a
        # complex x_prev, with no error
        v = RandomSource(94).normal(DESK_SHAPE)
        if case == "nan":
            v[1, 2, 3] = np.nan
        elif case == "complex":
            v = v + 1j
        else:
            v = v[0]
        with pytest.raises(ParameterError, match=message):
            MomentumState(v=v, beta=0.9, lam=1.0, kappa0=2.0, T=desk_schedule.T)

    def test_list_velocity_steps_like_its_array(self, desk_schedule):
        # a list v raised AttributeError inside momentum_step
        v = RandomSource(94).normal(DESK_SHAPE)
        x = RandomSource(95).normal(DESK_SHAPE)
        outs = []
        for given_v in (v.tolist(), v):
            state = MomentumState(v=given_v, beta=0.9, lam=1.0, kappa0=2.0, T=desk_schedule.T)
            assert state.v.dtype == np.float64
            outs.append(momentum_step(x, 30, MixDenoiser(), desk_schedule, state))
        assert outs[0][0].x_prev.tobytes() == outs[1][0].x_prev.tobytes()
        assert outs[0][1].v.tobytes() == outs[1][1].v.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ParameterError, match="^lam must be finite, got "):
            MomentumState.fresh(DESK_SHAPE, T=10, lam=bad)
        with pytest.raises(ParameterError, match="^kappa0 must be finite, got "):
            MomentumState.fresh(DESK_SHAPE, T=10, kappa0=bad)
        with pytest.raises(ParameterError, match="^momentum beta must be finite, got "):
            MomentumState.fresh(DESK_SHAPE, T=10, beta=bad)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ("abc", r"^shape must be a \(C, H, W\) triple, got 'abc'$"),
            ((2.0, 2, 2), "^shape C must be an integer, got 2.0$"),
            ((2, True, 2), "^shape H must be an integer, got True$"),
            ((-1, 2, 2), r"^shape C must lie in \[1, inf\], got -1$"),
            ((2, 2, 0), r"^shape W must lie in \[1, inf\], got 0$"),
            (5, r"^shape must be a \(C, H, W\) triple, got 5$"),
            ((2, 2), r"^shape must be a \(C, H, W\) triple, got \(2, 2\)$"),
            (None, r"^shape must be a \(C, H, W\) triple, got None$"),
            ({4, 8, 2}, r"^shape must be a \(C, H, W\) triple, got \{8, 2, 4\}$"),
            ({1: 2, 3: 4, 5: 6}, r"^shape must be a \(C, H, W\) triple, got \{1: 2, 3: 4, 5: 6\}$"),
            (np.ones((3, 2), int), r"^shape must be a \(C, H, W\) triple, got array\(\[\[1, 1\],"),
        ],
        ids=["str", "float", "bool", "negative", "zero", "int", "pair", "None", "set", "dict", "2-d array"],
    )
    def test_fresh_checks_each_shape_entry(self, shape, message):
        # "abc" and (2.0, 2, 2) raised numpy's TypeError, (-1, 2, 2) its
        # ValueError; a set was unpacked in hash order, a dict by its keys
        # and a string by character
        with pytest.raises(ParameterError, match=message):
            MomentumState.fresh(shape, 8)

    @pytest.mark.parametrize("shape", [(2, 3, 4), [2, 3, 4], np.array([2, 3, 4])], ids=["tuple", "list", "array"])
    def test_fresh_takes_any_three_counts(self, shape):
        v = MomentumState.fresh(shape, 8).v
        assert type(v) is np.ndarray and v.shape == (2, 3, 4) and not v.any()


class TestInversion:
    def test_grid(self):
        grid = step_grid(1000, 50)
        assert grid[0] == 0 and grid[-1] == 1000
        assert len(grid) == 51
        assert np.all(np.diff(grid) == 20)
        with pytest.raises(ParameterError):
            step_grid(64, 0)
        with pytest.raises(ParameterError):
            step_grid(64, 100)  # sub-grid would repeat timesteps

    @pytest.mark.parametrize("T", ["8", None, 8.0, True, 0])
    def test_grid_checks_its_horizon(self, T):
        # "8" and None raised a bare TypeError from the range check on steps
        with pytest.raises(ParameterError, match="^T must "):
            step_grid(T, 2)
        assert step_grid(np.int64(8), 2).tolist() == [0, 4, 8]

    def test_zero_denoiser_rescales(self, desk_schedule):
        x0 = RandomSource(16).normal(DESK_SHAPE)
        traj = ddim_invert(x0, ZeroDenoiser(), desk_schedule, steps=desk_schedule.T)
        assert len(traj) == desk_schedule.T + 1
        assert np.array_equal(traj.frame(0), x0)
        expect = np.sqrt(desk_schedule.alpha_bar[-1]) * x0
        assert np.max(np.abs(traj.frame(desk_schedule.T) - expect)) < 1e-12

    def test_oracle_round_trip_50_steps(self):
        s = make_schedule()  # T=1000 default
        x0 = RandomSource(17).normal(DESK_SHAPE)
        den = oracle_denoiser(OracleSpec(frames=x0[None]), s)
        traj = ddim_invert(x0, den, s, steps=50)
        assert len(traj) == 51
        grid = step_grid(s.T, 50)
        x = traj.frame(50)
        for k in range(50, 0, -1):
            x = vanilla_step(x, int(grid[k]), den, s, t_prev=int(grid[k - 1])).x_prev
        assert np.max(np.abs(x - x0)) < 1e-4

    def test_round_trip_non_oracle(self, desk_schedule):
        # first-order inversion is only approximate for a generic denoiser;
        # with a weak linear one the gap stays far below the excursion
        class WeakLinear:
            def predict_eps(self, x, t):
                return 0.05 * x

        den = WeakLinear()
        x0 = 0.1 * RandomSource(18).normal(DESK_SHAPE)
        steps = desk_schedule.T
        traj = ddim_invert(x0, den, desk_schedule, steps=steps)
        grid = step_grid(desk_schedule.T, steps)
        x = traj.frame(steps)
        for k in range(steps, 0, -1):
            x = vanilla_step(x, int(grid[k]), den, desk_schedule, t_prev=int(grid[k - 1])).x_prev
        err = np.max(np.abs(x - x0))
        excursion = np.max(np.abs(traj.frame(steps) - x0))
        assert err < 0.01
        assert err < 0.05 * excursion

    def test_sample_helper(self, desk_schedule):
        x0_star = RandomSource(19).normal(DESK_SHAPE)
        den = oracle_denoiser(OracleSpec(frames=x0_star[None]), desk_schedule)
        out = ddim_sample(RandomSource(20).normal(DESK_SHAPE), den, desk_schedule)
        assert np.max(np.abs(out - x0_star)) < 1e-5


@pytest.mark.parametrize("eta, latents", [(0.0, 6), (0.5, 8)])
def test_momentum_step_memory_budget(eta, latents):
    # eps, the (k, N) operand block and the (2, N) product: k = 3 operands
    # (x_t, eps, v) at eta = 0 and k = 4 at eta > 0, where the noise is also
    # drawn into a latent of its own before it is copied into the block
    shape = (4, 40, 64)
    s = make_schedule()
    gen = RandomSource(23)
    x = gen.normal(shape)
    den = oracle_denoiser(OracleSpec(frames=gen.normal((1, *shape))), s)
    state = MomentumState.fresh(shape, s.T)
    momentum_step(x, 500, den, s, state, eta, RandomSource(24))  # warm-up
    peak = traced_peak(momentum_step, x, 500, den, s, state, eta, RandomSource(24))
    assert peak <= latents * x.nbytes + 8192


class TestInversionBuffers:
    """ddim_invert fills one preallocated trajectory and writes into neither
    its input, nor a row it has handed to the denoiser, nor what the
    denoiser returns."""

    def test_memory_budget(self):
        # the trajectory plus a few per-hop temporaries; keeping every hop's
        # latent and stacking them afterwards costs about twice the trajectory
        shape, steps = (4, 40, 64), 50
        s = make_schedule()
        gen = RandomSource(21)
        x0 = gen.normal(shape)
        den = oracle_denoiser(OracleSpec(frames=gen.normal((1, *shape))), s)
        ddim_invert(x0, den, s, steps)  # warm-up
        peak = traced_peak(ddim_invert, x0, den, s, steps)
        assert peak <= (steps + 9) * x0.nbytes

    def test_denoiser_arrays_unchanged(self, desk_schedule):
        # a denoiser may hand back one cached array and keep the x_t it saw
        class Caching:
            def __init__(self, eps):
                self.eps = eps
                self.seen = []

            def predict_eps(self, x_t, t):
                self.seen.append((x_t, x_t.copy()))
                return self.eps

        eps = RandomSource(22).normal(DESK_SHAPE)
        kept = eps.copy()
        den = Caching(eps)
        ddim_invert(RandomSource(23).normal(DESK_SHAPE), den, desk_schedule, 8)
        assert np.array_equal(eps, kept)
        assert len(den.seen) == 8
        for x_t, at_call in den.seen:
            assert np.array_equal(x_t, at_call)

    def test_trajectory_is_one_array_apart_from_x0(self, desk_schedule):
        x0 = RandomSource(24).normal(DESK_SHAPE)
        kept = x0.copy()
        steps = 8
        traj = ddim_invert(x0, MixDenoiser(seed=6), desk_schedule, steps)
        assert np.array_equal(x0, kept)
        assert not np.shares_memory(traj.data, x0)
        assert traj.data.shape == (steps + 1, *DESK_SHAPE)
        assert traj.data.flags.c_contiguous


def _oracle_eps(s, t, den):
    return oracle_denoiser(OracleSpec(frames=np.zeros((1, *DESK_SHAPE))), s).predict_eps(np.zeros(DESK_SHAPE), t)


# call(s, level, denoiser) hands level to one public entry point as a timestep or a step count
LEVEL_CALLS = {
    "forward_diffuse": lambda s, t, den: forward_diffuse(np.zeros(DESK_SHAPE), t, s, RandomSource(0)),
    "momentum_step-t": lambda s, t, den: vanilla_step(np.zeros(DESK_SHAPE), t, den, s),
    "momentum_step-t_prev": lambda s, t, den: vanilla_step(np.zeros(DESK_SHAPE), 10, den, s, t_prev=t),
    "predict_eps": _oracle_eps,
    "for_frame": lambda s, t, den: oracle_denoiser(OracleSpec(frames=np.zeros((2, *DESK_SHAPE))), s).for_frame(t),
    "step_grid": lambda s, t, den: step_grid(s.T, t),
    "ddim_sample": lambda s, t, den: ddim_sample(np.zeros(DESK_SHAPE), den, s, steps=t),
    "ddim_invert": lambda s, t, den: ddim_invert(np.zeros(DESK_SHAPE), den, s, t),
    "MomentumState-T": lambda s, t, den: MomentumState.fresh(DESK_SHAPE, T=t),
    "moving_square_scene-frames": lambda s, t, den: moving_square_scene(t, 8, 2, (1, 0)),
    "moving_square_scene-grid": lambda s, t, den: moving_square_scene(2, t, 2, (1, 0)),
    "moving_square_scene-square": lambda s, t, den: moving_square_scene(2, 8, t, (1, 0)),
    "moving_square_scene-channels": lambda s, t, den: moving_square_scene(2, 8, 2, (1, 0), channels=t),
    "checkerboard_frame-grid": lambda s, t, den: checkerboard_frame(t),
    "checkerboard_frame-channels": lambda s, t, den: checkerboard_frame(8, channels=t),
    "patch_embedding_proxy": lambda s, t, den: patch_embedding_proxy(np.ones((1, 10, 10)), t),
}


@pytest.mark.parametrize("call", LEVEL_CALLS.values(), ids=LEVEL_CALLS.keys())
def test_levels_are_integers(desk_schedule, call):
    # bool passes isinstance(., int) and True == 1; a float level would index
    # alpha_bar with a bare IndexError, or not at all
    for level in (5.0, np.float64(5.0), True):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(desk_schedule, level, NoCallDenoiser())
    call(desk_schedule, np.int64(5), ZeroDenoiser())


# call(s, x, denoiser) hands x to one public entry point as a real-valued parameter
REAL_CALLS = {
    "MomentumState-beta": lambda s, x, den: MomentumState.fresh(DESK_SHAPE, T=s.T, beta=x),
    "MomentumState-lam": lambda s, x, den: MomentumState.fresh(DESK_SHAPE, T=s.T, lam=x),
    "MomentumState-kappa0": lambda s, x, den: MomentumState.fresh(DESK_SHAPE, T=s.T, kappa0=x),
    "momentum_step-eta": lambda s, x, den: vanilla_step(np.zeros(DESK_SHAPE), 5, den, s, eta=x, rng=RandomSource(0)),
    "BlendParams-strength": lambda s, x, den: BlendParams(x),
    "ResidualParams-gamma": lambda s, x, den: ResidualParams(x),
    "reinit_tail_noise-cutoff": lambda s, x, den: reinit_tail_noise(np.zeros(DESK_SHAPE), s, x, RandomSource(0)),
    "ThresholdSegmenter-theta": lambda s, x, den: ThresholdSegmenter(x),
    "OverlapTracker-tau": lambda s, x, den: OverlapTracker(ThresholdSegmenter(), x),
    "make_schedule-beta_start": lambda s, x, den: make_schedule(8, x, 0.5),
    "make_schedule-beta_end": lambda s, x, den: make_schedule(8, 0.25, x),
}
# the schedule's betas lie in (0, 1), so 0 is out of their range
REALS_WITHOUT_ZERO = {"make_schedule-beta_start", "make_schedule-beta_end"}


@pytest.mark.parametrize("name", REAL_CALLS)
def test_reals_are_numbers(desk_schedule, name):
    # True would pass a range check as 1 and a str or None would fail the
    # comparison with a bare TypeError; nan, inf and an int too large for a
    # float fail every range
    call = REAL_CALLS[name]
    for value, message in [
        (True, "must be a number"),
        (np.True_, "must be a number"),
        ("0.5", "must be a number"),
        (None, "must be a number"),
        ([0.5], "must be a number"),
        (np.nan, "must be finite"),
        (np.inf, "must be finite"),
        (-np.inf, "must be finite"),
        (10**400, f"must be finite, got {10**400}$"),
    ]:
        with pytest.raises(ParameterError, match=message):
            call(desk_schedule, value, NoCallDenoiser())
    call(desk_schedule, np.float32(0.5), ZeroDenoiser())
    if name not in REALS_WITHOUT_ZERO:
        call(desk_schedule, np.int64(0), ZeroDenoiser())


def reference_step(x, t, t_prev, eps, s, eta, z, state=None):
    """One step from the raw formulas of the module docstring, with the
    provisional DDIM emission materialised as in the paper's description."""
    ab_t, ab_p = s.alpha_bar[t], s.alpha_bar[t_prev]
    sigma = 0.0
    if eta > 0.0:
        sigma = eta * np.sqrt((1 - ab_p) / (1 - ab_t)) * np.sqrt(1 - ab_t / ab_p)
    x0 = (x - np.sqrt(1 - ab_t) * eps) / np.sqrt(ab_t)
    d = np.sqrt(max(1 - ab_p - sigma**2, 0.0)) * eps
    noise = sigma * z if sigma > 0.0 else 0.0
    x_prev = np.sqrt(ab_p) * x0 + d + noise
    if state is None:
        return x_prev, x0, d, None
    g = x - x_prev + state.lam * d
    v1 = state.beta * state.v + (1 - state.beta) * g
    x0_corr = x0 + state.kappa0 * (1 - t / state.T) * v1
    return np.sqrt(ab_p) * x0_corr + d + noise, x0_corr, d, v1


STEP_PAIRS = [(64, 63), (64, 60), (41, 17), (16, 15), (9, 1), (5, 0)]


class TestLinearMap:
    """The coefficient form re-associates the arithmetic; it must stay
    within 1e-12 of the raw formulas at unit scale."""

    TOL = 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("t,t_prev", STEP_PAIRS)
    def test_ddim_step_matches_reference(self, desk_schedule, eta, t, t_prev):
        den = MixDenoiser(seed=t)
        x = RandomSource(60 + t).normal(DESK_SHAPE)
        out = vanilla_step(x, t, den, desk_schedule, eta=eta, rng=RandomSource(61), t_prev=t_prev)
        z = RandomSource(61).normal(DESK_SHAPE)
        x_prev, x0, _, _ = reference_step(x, t, t_prev, den.predict_eps(x, t), desk_schedule, eta, z)
        assert np.max(np.abs(out.x_prev - x_prev)) < self.TOL
        assert np.max(np.abs(out.x0_hat - x0)) < self.TOL

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kappa0", [0.0, 2.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("t,t_prev", STEP_PAIRS)
    def test_momentum_step_matches_reference(self, desk_schedule, eta, kappa0, lam, t, t_prev):
        # with eta > 0 the scaled noise enters v' through the drift
        den = MixDenoiser(seed=t)
        x = RandomSource(70 + t).normal(DESK_SHAPE)
        state = MomentumState(
            v=RandomSource(71).normal(DESK_SHAPE), beta=0.9, lam=lam, kappa0=kappa0, T=desk_schedule.T
        )
        out, new_state = momentum_step(x, t, den, desk_schedule, state, eta=eta, rng=RandomSource(72), t_prev=t_prev)
        z = RandomSource(72).normal(DESK_SHAPE)
        x_prev, x0, _, v1 = reference_step(x, t, t_prev, den.predict_eps(x, t), desk_schedule, eta, z, state)
        assert np.max(np.abs(out.x_prev - x_prev)) < self.TOL
        assert np.max(np.abs(out.x0_hat - x0)) < self.TOL
        assert np.max(np.abs(new_state.v - v1)) < self.TOL
        assert (new_state.beta, new_state.lam, new_state.kappa0, new_state.T) == (0.9, lam, kappa0, desk_schedule.T)

    def test_kappa_zero_emits_ddim_exactly(self, desk_schedule):
        den = MixDenoiser(seed=4)
        x = RandomSource(73).normal(DESK_SHAPE)
        dirty = MomentumState(v=RandomSource(74).normal(DESK_SHAPE), beta=0.5, lam=0.7, kappa0=0.0, T=desk_schedule.T)
        for t, t_prev in STEP_PAIRS:
            out_m, _ = momentum_step(x, t, den, desk_schedule, dirty, eta=0.5, rng=RandomSource(75), t_prev=t_prev)
            out_d = vanilla_step(x, t, den, desk_schedule, eta=0.5, rng=RandomSource(75), t_prev=t_prev)
            assert np.array_equal(out_m.x_prev, out_d.x_prev)
            assert np.array_equal(out_m.x0_hat, out_d.x0_hat)

    def test_x0_hat_is_computed_once(self, desk_schedule):
        x = RandomSource(78).normal(DESK_SHAPE)
        out, _ = momentum_step(x, 30, MixDenoiser(), desk_schedule, MomentumState.fresh(DESK_SHAPE, desk_schedule.T))
        assert "x0_hat" not in vars(out)
        first = out.x0_hat
        assert out.x0_hat is first
        assert first.shape == DESK_SHAPE

    def test_state_is_not_written(self, desk_schedule):
        v0 = RandomSource(76).normal(DESK_SHAPE)
        state = MomentumState(v=v0.copy(), beta=0.9, lam=1.0, kappa0=2.0, T=desk_schedule.T)
        x = RandomSource(77).normal(DESK_SHAPE)
        _, new_state = momentum_step(x, 30, MixDenoiser(), desk_schedule, state)
        assert np.array_equal(state.v, v0)
        assert type(new_state) is MomentumState
        assert [f.name for f in dataclasses.fields(new_state)] == ["v", "beta", "lam", "kappa0", "T"]

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_ddim_sample_matches_step_loop(self, desk_schedule, eta):
        # DDIM sampling down a 16-hop grid: ddim_sample folds the eta = 0
        # emission into two coefficients, and stochastic DDIM is the
        # kappa0 = 0 momentum step; each must track a loop of the raw
        # formulas drawing the same noise
        den = MixDenoiser(seed=6)
        x_T = RandomSource(82).normal(DESK_SHAPE)
        grid, ab = step_grid(desk_schedule.T, 16).tolist(), desk_schedule.alpha_bar
        hops = list(zip(grid[:0:-1], grid[-2::-1]))
        if eta == 0.0:
            out = ddim_sample(x_T, den, desk_schedule, steps=16)
        else:
            rng, out = RandomSource(83), x_T
            for t, t_prev in hops:
                out = vanilla_step(out, t, den, desk_schedule, eta=eta, rng=rng, t_prev=t_prev).x_prev
        rng, x = RandomSource(83), x_T
        for t, t_prev in hops:
            z = rng.normal(DESK_SHAPE) if _momentum_map(float(ab[t]), float(ab[t_prev]), eta)[1] > 0.0 else None
            x = reference_step(x, t, t_prev, den.predict_eps(x, t), desk_schedule, eta, z)[0]
        assert np.max(np.abs(out - x)) < self.TOL

    @pytest.mark.parametrize("steps", [1, 7, 64])
    def test_ddim_invert_matches_reference(self, desk_schedule, steps):
        den = MixDenoiser(seed=5)
        x0 = RandomSource(79).normal(DESK_SHAPE)
        traj = ddim_invert(x0, den, desk_schedule, steps)
        grid = step_grid(desk_schedule.T, steps)
        ab = desk_schedule.alpha_bar
        x = x0
        for k in range(steps):
            t_src, t_dst = int(grid[k]), int(grid[k + 1])
            eps = den.predict_eps(x, t_dst)
            x0_hat = (x - np.sqrt(1 - ab[t_src]) * eps) / np.sqrt(ab[t_src])
            x = np.sqrt(ab[t_dst]) * x0_hat + np.sqrt(1 - ab[t_dst]) * eps
            assert np.max(np.abs(traj.frame(k + 1) - x)) < self.TOL


class TestPayOncePerHop:
    """momentum_step and the sweeps build each hop's map once, and the step
    carries the checked state forward; these count the work instead of
    timing it."""

    def trajectory(self, s, state, passes=1, hops=16):
        den, rng = MixDenoiser(seed=5), RandomSource(90)
        grid = step_grid(s.T, hops).tolist()
        outs = []
        for _ in range(passes):
            x, st_ = RandomSource(91).normal(DESK_SHAPE), state
            for t, t_prev in zip(grid[:0:-1], grid[-2::-1]):
                out, st_ = momentum_step(x, t, den, s, st_, eta=0.5, rng=rng, t_prev=t_prev)
                outs += [out.x_prev, out.x0_hat, st_.v]
                x = out.x_prev
        return outs

    def test_check_real_runs_once_per_step(self, desk_schedule, monkeypatch):
        state = MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T)
        calls, check_real = [], sampler.check_real

        def counting(x, lo, hi, name):
            calls.append(name)
            return check_real(x, lo, hi, name)

        monkeypatch.setattr(sampler, "check_real", counting)
        self.trajectory(desk_schedule, state)
        assert calls == ["eta"] * 16

    def test_denoiser_method_is_looked_up_once_per_call(self, desk_schedule, monkeypatch):
        # once per momentum_step, and once per sweep, not once per hop
        calls, check_method = [], sampler.check_method

        def counting(obj, attr, name):
            calls.append(attr)
            return check_method(obj, attr, name)

        monkeypatch.setattr(sampler, "check_method", counting)
        den, x = MixDenoiser(seed=5), RandomSource(92).normal(DESK_SHAPE)
        traj = ddim_invert(x, den, desk_schedule, 16)
        assert calls == ["predict_eps"]
        ddim_sample(traj.frame(16), den, desk_schedule, steps=16)
        assert calls == ["predict_eps"] * 2
        self.trajectory(desk_schedule, MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T))
        assert calls == ["predict_eps"] * (2 + 16)

    def test_map_is_built_once_per_hop(self, desk_schedule):
        _momentum_map.cache_clear()
        self.trajectory(desk_schedule, MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T), passes=2)
        info = _momentum_map.cache_info()
        assert (info.misses, info.hits) == (16, 16)

    def test_sweeps_build_each_hop_map_once(self, desk_schedule):
        # 16 hops up and 16 down, each a direction of its own, for 3 frames
        den = MixDenoiser(seed=5)
        _momentum_map.cache_clear()
        for frame in range(3):
            traj = ddim_invert(RandomSource(96 + frame).normal(DESK_SHAPE), den, desk_schedule, 16)
            ddim_sample(traj.frame(16), den, desk_schedule, steps=16)
        info = _momentum_map.cache_info()
        assert (info.misses, info.hits) == (32, 64)

    def test_numpy_hyperparameters_step_like_python_floats(self, desk_schedule):
        # np.float32(0.5) hashes and compares equal to 0.5, so a map memoised
        # on it would be shared with a Python-float state though it computes
        # in float32; the state keeps check_real's Python float, so both
        # states step bit for bit alike, whichever filled the cache
        v = RandomSource(92).normal(DESK_SHAPE)
        typed = MomentumState(v=v, beta=np.float32(0.5), lam=np.float32(0.75), kappa0=np.int64(2), T=np.int64(64))
        plain = MomentumState(v=v, beta=0.5, lam=0.75, kappa0=2.0, T=64)
        assert [type(getattr(typed, f)) for f in ("beta", "lam", "kappa0", "T")] == [float, float, float, int]
        _momentum_map.cache_clear()
        first = self.trajectory(desk_schedule, typed)
        _momentum_map.cache_clear()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, self.trajectory(desk_schedule, plain)))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, self.trajectory(desk_schedule, typed)))

    @pytest.mark.parametrize("eta, kappa", [(0.0, 0.0), (0.5, 0.0), (0.0, 1.5), (0.5, 1.5)])
    def test_cached_map_is_read_only(self, eta, kappa):
        coef, sigma, x0_row = _momentum_map(0.5, 0.8, eta, 0.9, 1.0, kappa)
        assert coef.shape == (2, 4 if eta > 0 else 3)
        assert len(x0_row) == coef.shape[1] - (kappa == 0.0)
        assert (sigma > 0) == (eta > 0)
        for a in (coef, x0_row):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        assert _momentum_map(0.5, 0.8, eta, 0.9, 1.0, kappa)[0] is coef

    def test_carried_state_keeps_its_hyperparameters(self, desk_schedule):
        state = MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T, beta=0.8, lam=0.6, kappa0=1.5)
        _, new_state = momentum_step(RandomSource(93).normal(DESK_SHAPE), 30, MixDenoiser(), desk_schedule, state)
        assert (new_state.beta, new_state.lam, new_state.kappa0, new_state.T) == (0.8, 0.6, 1.5, desk_schedule.T)
        with pytest.raises(dataclasses.FrozenInstanceError):
            new_state.beta = 0.1


def hop_radius(s, t, t_prev):
    """Spectral radius of one momentum hop's 2x2 map (x, v) -> (x_prev, v')
    on (1, 1, 1) latents under a zero-target oracle at beta 0.9, lam 1 and
    kappa0 2, read off momentum_step's outputs for (1, 0) and (0, 1)."""
    den = oracle_denoiser(OracleSpec(frames=np.zeros((1, 1, 1, 1))), s)
    columns = []
    for x, v in ((1.0, 0.0), (0.0, 1.0)):
        state = MomentumState(v=np.full((1, 1, 1), v), beta=0.9, lam=1.0, kappa0=2.0, T=s.T)
        out, new_state = momentum_step(np.full((1, 1, 1), x), t, den, s, state, t_prev=t_prev)
        columns.append([out.x_prev.item(), new_state.v.item()])
    return float(np.max(np.abs(np.linalg.eigvals(np.array(columns).T))))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: the momentum map expands, up to radius 1.267 on the desk grid and 1.377 on the video grid",
)
@pytest.mark.parametrize(
    "grid",
    [
        pytest.param((make_schedule(64, 0.02, 0.25, "linear"), 16), id="desk"),
        pytest.param((make_schedule(), 50), id="video"),
    ],
)
def test_momentum_hops_are_non_expansive(grid):
    s, steps = grid
    levels = [int(g) for g in step_grid(s.T, steps)]
    radii = [hop_radius(s, t, t_prev) for t_prev, t in zip(levels, levels[1:])]
    assert max(radii) <= 1.0


class TestFiniteness:
    """Finiteness checks accept every finite array, including ones whose
    sum overflows, and reject inf, nan and a +inf/-inf pair with the same
    messages as before."""

    def test_overflowing_sum_accepted(self, desk_schedule):
        big = np.full(DESK_SHAPE, 1e308)  # sum is 2.56e310
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.sum())
        assert check_latent(big) is not None

        class Echo:
            def predict_eps(self, x_t, t):
                return x_t

        state = MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T)
        out, new_state = momentum_step(big, 1, Echo(), desk_schedule, state, t_prev=0)
        assert np.all(np.isfinite(out.x_prev))
        assert np.all(np.isfinite(new_state.v))
        out = vanilla_step(np.full(DESK_SHAPE, 1e308), 1, ZeroDenoiser(), desk_schedule, t_prev=0)
        assert np.all(np.isfinite(out.x_prev))

    @pytest.mark.parametrize("bad", ["inf", "nan", "pair"])
    def test_non_finite_latent_rejected(self, desk_schedule, bad):
        x = RandomSource(80).normal(DESK_SHAPE)
        poison(x, bad)
        with pytest.raises(ParameterError, match="^x_t contains non-finite values$"):
            momentum_step(x, 5, ZeroDenoiser(), desk_schedule, MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T))
        with pytest.raises(ParameterError, match="^x_t contains non-finite values$"):
            vanilla_step(x, 5, ZeroDenoiser(), desk_schedule)

    @pytest.mark.parametrize("bad", ["inf", "nan", "pair"])
    def test_non_finite_denoiser_output_rejected(self, desk_schedule, bad):
        class Poisoned:
            def predict_eps(self, x_t, t):
                eps = np.zeros_like(x_t)
                poison(eps, bad)
                return eps

        x = RandomSource(81).normal(DESK_SHAPE)
        with pytest.raises(ParameterError, match="^denoiser produced non-finite values$"):
            momentum_step(x, 5, Poisoned(), desk_schedule, MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T))
        with pytest.raises(ParameterError, match="^denoiser produced non-finite values$"):
            ddim_invert(x, Poisoned(), desk_schedule, 4)

    @pytest.mark.parametrize("dtype", [complex, str, object])
    def test_denoiser_output_must_be_real(self, desk_schedule, dtype):
        # a cast would drop an imaginary part, or fail with numpy's own error
        class Unreal:
            def predict_eps(self, x_t, t):
                return np.ones_like(x_t).astype(dtype)

        x = RandomSource(84).normal(DESK_SHAPE)
        state = MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T)
        for call in (
            lambda: momentum_step(x, 5, Unreal(), desk_schedule, state),
            lambda: ddim_sample(x, Unreal(), desk_schedule, steps=4),
            lambda: ddim_invert(x, Unreal(), desk_schedule, 4),
        ):
            with pytest.raises(ParameterError, match="^denoiser output must be a real array, got dtype "):
                call()

    def test_denoiser_output_must_keep_the_shape(self, desk_schedule):
        class Cropping:
            def predict_eps(self, x_t, t):
                return np.zeros_like(x_t[:-1])

        x = RandomSource(85).normal(DESK_SHAPE)
        state = MomentumState.fresh(DESK_SHAPE, T=desk_schedule.T)
        message = r"^denoiser output shape \(3, 8, 8\) does not match input \(4, 8, 8\)$"
        for call in (
            lambda: momentum_step(x, 5, Cropping(), desk_schedule, state),
            lambda: ddim_sample(x, Cropping(), desk_schedule, steps=4),
            lambda: ddim_invert(x, Cropping(), desk_schedule, 4),
        ):
            with pytest.raises(ParameterError, match=message):
                call()

    @pytest.mark.parametrize("steps, hop", [(1, "64 -> 0"), (4, "48 -> 32")])
    def test_ddim_sample_overflow_names_its_hop(self, desk_schedule, steps, hop):
        # with a zero eps each hop scales x by sqrt(ab_prev / ab_t), so the
        # sweep overflows; neither the last hop nor a middle one may hide it
        x_T = np.full(DESK_SHAPE, 1e307)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=f"^ddim_sample produced non-finite values in the hop {hop}$"):
                ddim_sample(x_T, ZeroDenoiser(), desk_schedule, steps=steps)

    @pytest.mark.parametrize("steps, hop", [(2, "0 -> 32"), (4, "0 -> 16")])
    def test_ddim_invert_overflow_names_its_hop(self, desk_schedule, steps, hop):
        # an echo denoiser feeds x back as eps, so the first hop's output,
        # (sqrt(ab_dst) + sqrt(1 - ab_dst)) * 1.5e308, overflows; the next
        # query must not get the blame
        class Echo:
            def predict_eps(self, x_t, t):
                return x_t

        x0 = np.full(DESK_SHAPE, 1.5e308)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=f"^ddim_invert produced non-finite values in the hop {hop}$"):
                ddim_invert(x0, Echo(), desk_schedule, steps=steps)


# sha256 of golden_run at the desk scale, recorded with numpy GOLDEN_NUMPY
# and its bundled OpenBLAS.  RandomSource's normal draws are stable only
# within one numpy release, and momentum_step's matrix product rounds as the
# BLAS kernel sums, so the digest depends on the BLAS build as well.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_DIGEST = "57e4af4ffd7a2a931c31c5e966f632296f93af671461c61d985dc85ab4c07cf3"


def golden_run(s):
    """A seeded run through every public sweep: a momentum_step trajectory
    (eta 0.5, kappa0 2), ddim_sample and ddim_invert (16 steps).
    Returns the sha256 of every latent, estimate and velocity it emits, and
    its three final latents stacked (3, C, H, W): the last momentum latent,
    the ddim_sample output and the ddim_invert terminal latent."""
    den = MixDenoiser(seed=8)
    rng = RandomSource(2506)
    h = hashlib.sha256()
    x = rng.normal(DESK_SHAPE)
    state = MomentumState.fresh(DESK_SHAPE, T=s.T, beta=0.9, lam=0.7, kappa0=2.0)
    for t in range(s.T, 0, -1):
        out, state = momentum_step(x, t, den, s, state, eta=0.5, rng=rng)
        for a in (out.x_prev, out.x0_hat, state.v):
            h.update(a.tobytes())
        x = out.x_prev
    sampled = ddim_sample(rng.normal(DESK_SHAPE), den, s)
    h.update(sampled.tobytes())
    inverted = ddim_invert(x, den, s, 16).data
    h.update(inverted.tobytes())
    return h.hexdigest(), np.stack([x, sampled, inverted[-1]])


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden digest recorded with numpy {GOLDEN_NUMPY}; normal draws differ across numpy releases",
)
def test_golden_digest(desk_schedule):
    assert golden_run(desk_schedule)[0] == GOLDEN_DIGEST


# golden_run's three final latents, written with ltsio.write_lts under numpy
# 2.4.6.  To rewrite it, from tests/:
#   PYTHONPATH=../src python -c "from conftest import DESK_T; \
#   from latentmix.core import make_schedule; from latentmix.ltsio import write_lts; \
#   from test_sampler import golden_run; \
#   write_lts('data/golden_desk.lts', golden_run(make_schedule(DESK_T, 0.02, 0.25, 'linear'))[1])"
GOLDEN_LATENTS = Path(__file__).parent / "data" / "golden_desk.lts"
# Storing a value as float32 moves it by up to 2**-24 of itself, so of the
# latent's max |value|; the bound is four times that.  Rounding every
# denoiser output, step latent and velocity of the run differently by up to
# 16 ulp (a stand-in for another BLAS summation order or libm) moved the
# final latents by at most 2**-43 of their max, so the margin is for the
# float32 storage, not for drift.
GOLDEN_TOLERANCE = 2.0**-22
# The first normals of RandomSource(2506), which draws golden_run's start
# latent and step noise, and of RandomSource(8), which draws MixDenoiser's
# weights, under numpy 2.4.6.
PINNED_NORMALS = {
    2506: [-0.1018553344758439, -1.4352422568397405, 0.5825772558084453, 0.841651596672698],
    8: [-1.738266398496882, -1.3366427931811324, -1.361106708564987, -0.35161713127840977],
}


def test_golden_latents_match_reference(desk_schedule):
    """golden_run's final latents match the reference file within
    GOLDEN_TOLERANCE of each latent's max |value|, on any numpy and BLAS
    whose normal stream is the one the file was written with."""
    for seed, pinned in PINNED_NORMALS.items():
        if RandomSource(seed).normal(len(pinned)).tolist() != pinned:
            pytest.skip(f"the normal stream changed: RandomSource({seed}) draws other values than at numpy 2.4.6")
    finals = golden_run(desk_schedule)[1]
    reference = read_lts(GOLDEN_LATENTS)
    assert reference.shape == finals.shape
    for name, got, want in zip(("momentum_step", "ddim_sample", "ddim_invert"), finals, reference):
        assert np.max(np.abs(got - want)) <= GOLDEN_TOLERANCE * np.max(np.abs(want)), name


def poison(x, bad):
    """Put one inf, one nan, or a +inf/-inf pair (whose sum is nan) into x."""
    if bad == "inf":
        x[1, 2, 3] = np.inf
    elif bad == "nan":
        x[0, 0, 0] = np.nan
    else:
        x[2, 5, 1] = np.inf
        x[3, 7, 7] = -np.inf
