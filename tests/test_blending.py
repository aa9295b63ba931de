import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentmix.blending import (
    BlendParams,
    ResidualParams,
    _band_factors,
    blend_region,
    gamma_residual,
    reinit_tail_noise,
)
from latentmix.core import RandomSource, forward_diffuse, make_schedule
from latentmix.errors import ParameterError
from latentmix.synth import checkerboard_frame, moving_square_scene
from latentmix.tracking import OverlapTracker, ThresholdSegmenter

from conftest import DESK_SHAPE
from test_sampler import CountingRng


def square_mask(grid, row, col, side):
    m = np.zeros((grid, grid), dtype=bool)
    m[row : row + side, col : col + side] = True
    return m


class TestBlendParams:
    def test_weight_mapping(self):
        # a blend of zeros toward ones under a full mask is the weight itself
        zeros, ones, full = np.zeros(DESK_SHAPE), np.ones(DESK_SHAPE), np.ones(DESK_SHAPE[1:], dtype=bool)
        for strength, weight in [(2.0, 1.0), (1.0, 0.5), (5.0, 1.0), (0.0, 0.0), (0.5, 0.25)]:
            assert np.all(blend_region(zeros, ones, full, BlendParams(strength)) == weight)

    def test_validation(self):
        with pytest.raises(ParameterError):
            BlendParams(strength=-1.0)
        with pytest.raises(ParameterError):
            ResidualParams(gamma=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # nan would compare false against 0 and pass a ">= 0" check
        with pytest.raises(ParameterError, match="^strength must be finite, got "):
            BlendParams(strength=bad)
        with pytest.raises(ParameterError, match="^gamma must be finite, got "):
            ResidualParams(gamma=bad)

    @pytest.mark.parametrize("value", [np.float32(0.3), np.float16(1.7), np.int64(1)])
    def test_numpy_numbers_act_as_their_float(self, value):
        # a float32 weight would round 1 - w in float32
        x = RandomSource(34).normal(DESK_SHAPE)
        cond = RandomSource(35).normal(DESK_SHAPE)
        m = square_mask(8, 2, 2, 4)
        for cls in (BlendParams, ResidualParams):
            assert type(dataclasses.astuple(cls(value))[0]) is float
            assert cls(value) == cls(float(value))
        out = blend_region(x, cond, m, BlendParams(value))
        assert out.tobytes() == blend_region(x, cond, m, BlendParams(float(value))).tobytes()
        out = gamma_residual(x, ResidualParams(value), RandomSource(36))
        assert out.tobytes() == gamma_residual(x, ResidualParams(float(value)), RandomSource(36)).tobytes()


class TestBlendRegion:
    def test_zero_mask_identity(self):
        x = RandomSource(1).normal(DESK_SHAPE)
        cond = RandomSource(2).normal(DESK_SHAPE)
        out = blend_region(x, cond, np.zeros((8, 8), dtype=bool), BlendParams(2.0))
        assert np.array_equal(out, x)

    def test_full_mask_full_weight_replaces(self):
        x = RandomSource(3).normal(DESK_SHAPE)
        cond = RandomSource(4).normal(DESK_SHAPE)
        out = blend_region(x, cond, np.ones((8, 8), dtype=bool), BlendParams(2.0))
        assert np.array_equal(out, cond)

    def test_half_weight_arithmetic(self):
        x = np.full(DESK_SHAPE, 2.0)
        cond = np.full(DESK_SHAPE, 6.0)
        m = square_mask(8, 2, 2, 3)
        out = blend_region(x, cond, m, BlendParams(strength=1.0))  # w = 0.5
        assert np.allclose(out[:, m], 4.0)
        assert np.allclose(out[:, ~m], 2.0)

    def test_outside_mask_bit_identical(self):
        x = RandomSource(5).normal(DESK_SHAPE)
        x[0, 0, 0] = -0.0  # sign survives the passthrough
        cond = RandomSource(6).normal(DESK_SHAPE)
        m = square_mask(8, 4, 4, 2)
        out = blend_region(x, cond, m, BlendParams(strength=1.3))
        assert out[:, ~m].tobytes() == x[:, ~m].tobytes()

    def test_idempotent_at_full_weight(self):
        x = RandomSource(7).normal(DESK_SHAPE)
        cond = RandomSource(8).normal(DESK_SHAPE)
        m = square_mask(8, 1, 3, 4)
        p = BlendParams(2.0)
        once = blend_region(x, cond, m, p)
        twice = blend_region(once, cond, m, p)
        assert np.array_equal(once, twice)

    def test_zero_weight_identity_any_cond(self):
        x = RandomSource(9).normal(DESK_SHAPE)
        out = blend_region(x, 1e6 * np.ones(DESK_SHAPE), np.ones((8, 8), dtype=bool), BlendParams(0.0))
        assert np.array_equal(out, x)

    @settings(max_examples=40, deadline=None)
    @given(strength=st.floats(min_value=0.0, max_value=2.0))
    def test_linear_in_weight(self, strength):
        x = RandomSource(10).normal((2, 4, 4))
        cond = RandomSource(11).normal((2, 4, 4))
        m = square_mask(4, 1, 1, 2)
        out = blend_region(x, cond, m, BlendParams(strength=strength))
        w = strength / 2
        expect = np.where(m[None], (1 - w) * x + w * cond, x)
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_shape_validation(self):
        x = np.zeros(DESK_SHAPE)
        with pytest.raises(ParameterError):
            blend_region(x, np.zeros((4, 4, 4)), np.zeros((8, 8), dtype=bool), BlendParams())
        with pytest.raises(ParameterError):
            blend_region(x, x, np.zeros((4, 4), dtype=bool), BlendParams())


class TestGammaResidual:
    def test_zero_gamma_identity(self):
        x = RandomSource(12).normal(DESK_SHAPE)
        out = gamma_residual(x, ResidualParams(0.0), RandomSource(0))
        assert np.array_equal(out, x)

    def test_zero_gamma_draws_like_any_gamma(self):
        # gamma 0 consumes its draw, so an ablation changes gamma and not the noise after it
        x = RandomSource(12).normal(DESK_SHAPE)
        after = []
        for gamma in (0.0, 0.1):
            rng = RandomSource(14)
            gamma_residual(x, ResidualParams(gamma), rng)
            after.append(rng.normal(DESK_SHAPE))
        assert np.array_equal(after[0], after[1])

    def test_residual_std(self):
        # gamma 0.1 over 4*64*64 = 16384 elements: sample std within 5%
        x = np.zeros((4, 64, 64))
        out = gamma_residual(x, ResidualParams(0.1), RandomSource(13))
        assert abs(out.std() / 0.1 - 1.0) < 0.05

    def test_deterministic(self):
        x = RandomSource(14).normal(DESK_SHAPE)
        a = gamma_residual(x, ResidualParams(0.05), RandomSource(5))
        b = gamma_residual(x, ResidualParams(0.05), RandomSource(5))
        assert a.tobytes() == b.tobytes()


def square_band(h, w, cutoff):
    """The square low band built from its definition, independent of the
    library: max(|u|, |v|) <= cutoff * min(h, w) over unshifted FFT
    indices, and empty at cutoff 0."""
    if cutoff == 0.0:
        return np.zeros((h, w))
    radius = cutoff * min(h, w)
    fu = np.abs(np.fft.fftfreq(h) * h)
    fv = np.abs(np.fft.fftfreq(w) * w)
    return ((fu[:, None] <= radius) & (fv[None, :] <= radius)).astype(np.float64)


def factor_band(h, w, cutoff):
    """The 2-D band that _band_factors projects onto.  A circulant's
    eigenvalues are the spectrum of its first column, and the right factor
    is L_w.T, whose first row is L_w's first column."""
    left, right = _band_factors(h, w, cutoff)
    return np.outer(np.fft.fft(left[:, 0]).real, np.fft.fft(right[0]).real)


class TestLowpassMask:
    """The square low band, as reinit_tail_noise's cached factors hold it."""

    def test_cutoff_zero_empty(self):
        for factor in _band_factors(8, 8, 0.0):
            assert not factor.any()

    def test_cutoff_half_covers_even_square_grid(self):
        for n in (8, 16):
            for factor in _band_factors(n, n, 0.5):
                assert np.max(np.abs(factor - np.eye(n))) < 1e-12

    def test_quarter_cutoff_structure(self):
        m = factor_band(16, 16, 0.25).round()  # radius 4 in index space
        assert m[0, 0] == 1.0  # DC kept
        assert m[4, 4] == 1.0
        assert m[5, 0] == 0.0
        assert m[0, 12] == 1.0  # fftfreq index 12 of 16 is -4, inside the band
        assert m[0, 11] == 0.0  # index 11 is -5, outside
        # symmetric under frequency negation
        assert np.array_equal(m, np.roll(np.flip(m, axis=(0, 1)), (1, 1), axis=(0, 1)))
        for h, w, cutoff in [(16, 16, 0.25), (7, 9, 0.3), (40, 64, 0.05), (1, 5, 0.5)]:
            assert np.max(np.abs(factor_band(h, w, cutoff) - square_band(h, w, cutoff))) < 1e-12

    @pytest.mark.parametrize("cutoff", [0.0, 0.25])
    def test_cached_mask_is_read_only(self, cutoff):
        # one pair of factors per (h, w, cutoff) is shared by every caller,
        # so no caller may write into it
        factors = _band_factors(8, 8, cutoff)
        kept = [f.copy() for f in factors]
        for factor in factors:
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                factor *= 2.0
        again = _band_factors(8, 8, cutoff)
        assert again[0] is factors[0] and again[1] is factors[1]
        assert all(np.array_equal(f, k) for f, k in zip(factors, kept))

    def test_validation(self, desk_schedule):
        x = RandomSource(28).normal(DESK_SHAPE)
        for cutoff in (0.6, -0.1):
            with pytest.raises(ParameterError, match="^cutoff must lie in"):
                reinit_tail_noise(x, desk_schedule, cutoff, RandomSource(29))


class TestReinitTailNoise:
    def test_cutoff_zero_fresh_noise(self, desk_schedule):
        x = RandomSource(15).normal(DESK_SHAPE)
        rng = RandomSource(16)
        out = reinit_tail_noise(x, desk_schedule, 0.0, rng)
        # no band is kept, so the result is the one draw itself
        assert out.tobytes() == RandomSource(16).normal(DESK_SHAPE).tobytes()

    def test_cutoff_half_equals_forward_diffuse(self, desk_schedule):
        x = RandomSource(17).normal(DESK_SHAPE)
        out = reinit_tail_noise(x, desk_schedule, 0.5, RandomSource(18))
        expect = forward_diffuse(x, desk_schedule.T, desk_schedule, RandomSource(18))
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_frequency_split_projections(self, desk_schedule):
        # the low band comes from the frame diffused with the one draw, the
        # high band from that draw itself
        shape = (4, 16, 16)
        x = RandomSource(19).normal(shape)
        cutoff = 0.25
        out = reinit_tail_noise(x, desk_schedule, cutoff, RandomSource(20))

        diffused = forward_diffuse(x, desk_schedule.T, desk_schedule, RandomSource(20))
        fresh = RandomSource(20).normal(shape)
        L = square_band(16, 16, cutoff)

        def band(z, keep):
            return np.fft.ifft2(keep[None] * np.fft.fft2(z)).real

        assert np.max(np.abs(band(out, L) - band(diffused, L))) < 1e-10
        assert np.max(np.abs(band(out, 1.0 - L) - band(fresh, 1.0 - L))) < 1e-10

    def test_draws_once(self, desk_schedule):
        rng = CountingRng(30)
        for cutoff in (0.0, 0.25, 0.5):
            reinit_tail_noise(RandomSource(31).normal(DESK_SHAPE), desk_schedule, cutoff, rng)
        assert rng.draws == 3

    def test_distribution(self):
        # Each of N channels of one call is an independent sample of the
        # reinit of the same 4x6 frame x: mean sqrt(ab_T) * L x, covariance
        # I - ab_T * L, with L the band projection built from the band's
        # definition.  A terminal ab_T of 0.52 keeps both away from those of
        # plain noise.  Every variance is at most 1, so the sample mean's
        # standard error is at most 1 / sqrt(N), and a sample covariance
        # entry's, sqrt((S_ii * S_jj + S_ij**2) / N), at most sqrt(2 / N);
        # the bounds are 5 of each.
        n, h, w, cutoff = 20_000, 4, 6, 0.25
        s = make_schedule(4, 0.1, 0.2, "linear")
        ab = s.alpha_bar[s.T]
        x = RandomSource(32).normal((h, w))
        out = reinit_tail_noise(np.broadcast_to(x, (n, h, w)), s, cutoff, RandomSource(33)).reshape(n, h * w)
        basis = np.eye(h * w).reshape(h * w, h, w)
        L = np.fft.ifft2(square_band(h, w, cutoff) * np.fft.fft2(basis)).real.reshape(h * w, h * w).T
        assert np.max(np.abs(out.mean(axis=0) - np.sqrt(ab) * L @ x.ravel())) < 5 / np.sqrt(n)
        assert np.max(np.abs(np.cov(out, rowvar=False) - (np.eye(h * w) - ab * L))) < 5 * np.sqrt(2 / n)

    def test_output_is_real_and_finite(self, desk_schedule):
        x = RandomSource(21).normal((3, 8, 8))
        out = reinit_tail_noise(x, desk_schedule, 0.3, RandomSource(22))
        assert out.dtype == np.float64
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("bad", ["nan", "inf", "2-d", "cutoff", "negative-cutoff"])
    def test_rejects_bad_input_before_drawing(self, desk_schedule, bad):
        x = RandomSource(24).normal(DESK_SHAPE)
        cutoff = 0.25
        if bad == "nan":
            x[1, 2, 3] = np.nan
        elif bad == "inf":
            x[0, 0, 0] = np.inf
        elif bad == "2-d":
            x = x[0]
        elif bad == "cutoff":
            cutoff = 0.6
        else:
            cutoff = -0.1
        rng = RandomSource(25)
        # a bad frame is named by the caller's argument, x_recent
        message = {
            "nan": r"x_recent contains non-finite values$",
            "inf": r"x_recent contains non-finite values$",
            "2-d": r"x_recent must be a nonempty \(C, H, W\) array",
        }.get(bad, "cutoff must lie in")
        with pytest.raises(ParameterError, match=f"^{message}"):
            reinit_tail_noise(x, desk_schedule, cutoff, rng)
        assert np.array_equal(rng.normal(DESK_SHAPE), RandomSource(25).normal(DESK_SHAPE))

    @pytest.mark.parametrize("cutoff", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("shape", [(4, 8, 8), (4, 40, 64), (3, 7, 9)])
    def test_band_projection_matches_rfft2(self, desk_schedule, shape, cutoff):
        # the separable factors against the half-spectrum transform pair;
        # the frame is diffused with the one draw that also fills the high band
        x = RandomSource(26).normal(shape)
        out = reinit_tail_noise(x, desk_schedule, cutoff, RandomSource(27))
        diffused = forward_diffuse(x, desk_schedule.T, desk_schedule, RandomSource(27))
        fresh = RandomSource(27).normal(shape)
        h, w = shape[1:]
        mask = square_band(h, w, cutoff)
        ref = fresh + np.fft.irfft2(mask[:, : w // 2 + 1] * np.fft.rfft2(diffused - fresh), s=(h, w))
        assert np.max(np.abs(out - ref)) < 1e-12
        if cutoff == 0.0:
            assert out.tobytes() == fresh.tobytes()

    def test_band_factors_are_cached_and_read_only(self):
        left, right = _band_factors(8, 12, 0.25)
        assert left.shape == (8, 8) and right.shape == (12, 12)
        for factor in (left, right):
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.5
        again = _band_factors(8, 12, 0.25)
        assert again[0] is left and again[1] is right

    def test_deterministic(self, desk_schedule):
        x = RandomSource(23).normal(DESK_SHAPE)
        a = reinit_tail_noise(x, desk_schedule, 0.25, RandomSource(9))
        b = reinit_tail_noise(x, desk_schedule, 0.25, RandomSource(9))
        assert a.tobytes() == b.tobytes()


# sha256 of blend_track_run at the desk scale, recorded with numpy
# GOLDEN_NUMPY and its bundled OpenBLAS.  RandomSource's normal draws are
# stable only within one numpy release, and the tail reinit's band
# projection rounds as the BLAS kernel sums.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_DIGEST = "3caabd6610f7302fdbb26adde275e12e35c2d29cb4935fc2244721732c094235"


def blend_track_run(s):
    """A seeded pass over a moving-square scene through the blend and
    tracking path: each frame and the concept are diffused to level 7, the
    frame is tracked, the concept is blended in at weight 0.5 under the
    tracked mask, a gamma residual is added and the result seeds a tail.
    The square moves 1 px a frame, so the noisy masks mostly link; frame 4
    keeps frame 3's mask.  Returns the sha256 of every latent, mask and
    linked flag."""
    seq, _ = moving_square_scene(frames=8, grid=8, square=4, velocity=(1, 0))
    concept = checkerboard_frame(8)
    tracker = OverlapTracker(ThresholdSegmenter(0.5, largest_component=True), 0.5)
    rng = RandomSource(2506)
    h = hashlib.sha256()
    for k in range(len(seq)):
        x_t = forward_diffuse(seq.frame(k), 7, s, rng)
        cond = forward_diffuse(concept, 7, s, rng)
        mask, linked = tracker.update(x_t)
        mixed = gamma_residual(blend_region(x_t, cond, mask, BlendParams(strength=1.0)), ResidualParams(), rng)
        tail = reinit_tail_noise(mixed, s, 0.25, rng)
        for a in (x_t, cond, mask, mixed, tail):
            h.update(a.tobytes())
        h.update(bytes([linked]))
    return h.hexdigest()


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden digest recorded with numpy {GOLDEN_NUMPY}; normal draws differ across numpy releases",
)
def test_golden_digest(desk_schedule):
    assert blend_track_run(desk_schedule) == GOLDEN_DIGEST
