import numpy as np
import pytest

from latentmix.core import RandomSource, forward_diffuse, make_schedule
from latentmix.errors import ParameterError
from latentmix.sampler import MomentumState, momentum_step
from latentmix.synth import (
    OracleSpec,
    checkerboard_frame,
    moving_square_scene,
    oracle_denoiser,
    patch_embedding_proxy,
)
from latentmix.tracking import ThresholdSegmenter, _iou

from conftest import DESK_SHAPE, traced_peak


class TestOracle:
    def test_recovers_known_noise(self, desk_schedule):
        rng = RandomSource(1)
        x0 = rng.normal(DESK_SHAPE)
        den = oracle_denoiser(OracleSpec(frames=x0[None]), desk_schedule)
        for t in range(1, desk_schedule.T + 1):
            eps = rng.normal(DESK_SHAPE)
            ab = desk_schedule.alpha_bar[t]
            x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
            assert np.max(np.abs(den.predict_eps(x_t, t) - eps)) < 1e-9
        # a single target is a bank of one: frame 0 selects it, and no other
        assert np.array_equal(den.for_frame(0).x0_star, x0)
        with pytest.raises(ParameterError, match=r"^frame index must lie in \[0, 0\], got 7$"):
            den.for_frame(7)

    def test_predict_x0_is_exact(self, desk_schedule):
        x0 = RandomSource(2).normal(DESK_SHAPE)
        den = oracle_denoiser(OracleSpec(frames=x0[None]), desk_schedule)
        rng = RandomSource(3)
        for t in range(1, desk_schedule.T + 1):
            x_t = forward_diffuse(x0, t, desk_schedule, rng)
            ab = desk_schedule.alpha_bar[t]
            rec = (x_t - np.sqrt(1.0 - ab) * den.predict_eps(x_t, t)) / np.sqrt(ab)
            assert np.max(np.abs(rec - x0)) < 1e-9

    def test_matches_formula_bit_for_bit(self):
        s = make_schedule()  # T=1000 default
        gen = RandomSource(4)
        x0, x_t = gen.normal(DESK_SHAPE), gen.normal(DESK_SHAPE)
        den = oracle_denoiser(OracleSpec(frames=x0[None]), s)
        for t in range(1, s.T + 1):
            ab = s.alpha_bar[t]
            assert np.array_equal(den.predict_eps(x_t, t), (x_t - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab))

    def test_allocates_only_its_result(self):
        # at video scale: the parent's x0* product was a second latent-sized array
        s = make_schedule()
        gen = RandomSource(5)
        x0, x_t = gen.normal((4, 40, 64)), gen.normal((4, 40, 64))
        den = oracle_denoiser(OracleSpec(frames=x0[None]), s)
        den.predict_eps(x_t, 500)  # warm-up
        assert traced_peak(den.predict_eps, x_t, 500) <= x_t.nbytes + 1024

    def test_t0_is_domain_error(self, desk_schedule):
        den = oracle_denoiser(OracleSpec(frames=np.zeros((1, *DESK_SHAPE))), desk_schedule)
        with pytest.raises(ParameterError, match=r"^t must lie in \[1, 64\], got 0$"):
            den.predict_eps(np.zeros(DESK_SHAPE), 0)

    def test_spec_rejects_bad_frames(self):
        for shape in [(1, 2, 2), (1, 1, 1, 2, 2), (0, 1, 2, 2)]:
            with pytest.raises(ParameterError, match=r"^frames must be a nonempty \(F, C, H, W\) array"):
                OracleSpec(frames=np.zeros(shape))
        for bad in (np.inf, np.nan):
            frames = np.zeros((2, 1, 2, 2))
            frames[1, 0, 1, 0] = bad
            with pytest.raises(ParameterError, match="^frames contains non-finite values$"):
                OracleSpec(frames=frames)

    def test_latent_must_have_the_target_shape(self, desk_schedule):
        # x_t - sqrt(ab) x0* broadcasts either way round, so the oracle
        # compares shapes itself
        small = oracle_denoiser(OracleSpec(frames=np.ones((1, 1, 4, 4))), desk_schedule)
        wide = oracle_denoiser(OracleSpec(frames=np.ones((1, 3, 4, 4))), desk_schedule)
        for den, x in ((small, np.ones((3, 4, 4))), (wide, np.ones((1, 4, 4))), (wide, np.ones((3, 1, 4)))):
            with pytest.raises(ParameterError, match=r"^x_t has shape \(\d+, \d+, \d+\), the oracle's target"):
                den.predict_eps(x, 10)
        assert small.predict_eps(np.ones((1, 4, 4)), 10).shape == (1, 4, 4)
        # momentum_step used to take the broadcast (3, 4, 4) eps as its own
        with pytest.raises(ParameterError, match="^x_t has shape"):
            momentum_step(np.ones((3, 4, 4)), 10, small, desk_schedule, MomentumState.fresh((3, 4, 4), desk_schedule.T))

    @pytest.mark.parametrize("value", ["1", 1 + 1j], ids=["str", "complex"])
    def test_latent_must_be_real(self, desk_schedule, value):
        # numpy raised its own UFuncTypeError from the subtraction
        den = oracle_denoiser(OracleSpec(frames=np.ones((1, *DESK_SHAPE))), desk_schedule)
        with pytest.raises(ParameterError, match=r"^x_t must be a real array, got dtype (<U1|complex128)$"):
            den.predict_eps(np.full(DESK_SHAPE, value), 10)

    def test_sequence_oracle_frame_selection(self, desk_schedule):
        frames = np.stack([np.full(DESK_SHAPE, float(k)) for k in range(3)])
        den = oracle_denoiser(OracleSpec(frames=frames), desk_schedule)
        x = RandomSource(4).normal(DESK_SHAPE)
        t = 10
        for k in (0, 1, 2):
            got = den.for_frame(k).predict_eps(x, t)
            ab = desk_schedule.alpha_bar[t]
            expect = (x - np.sqrt(ab) * frames[k]) / np.sqrt(1.0 - ab)
            assert np.max(np.abs(got - expect)) < 1e-12
        # an index past the end of the bank is no frame of it
        for k in (3, 99):
            with pytest.raises(ParameterError, match=rf"^frame index must lie in \[0, 2\], got {k}$"):
                den.for_frame(k)
        # bare predict_eps follows frame 0
        assert np.array_equal(den.predict_eps(x, t), den.for_frame(0).predict_eps(x, t))
        with pytest.raises(ParameterError):
            den.for_frame(-1)


class TestMovingSquareScene:
    def test_centroid_progression_and_clamp(self):
        seq, track = moving_square_scene(16, 8, 3, (1, 0))
        cols = []
        for k in range(16):
            ys, xs = np.nonzero(track.masks[k])
            cols.append(xs.mean())
            assert ys.mean() == 1.0  # row centroid fixed
        # centroid advances 1 px/frame until the square hits the border
        expect = [min(k, 5) + 1.0 for k in range(16)]
        assert cols == expect

    def test_masks_match_values(self):
        seq, track = moving_square_scene(6, 8, 3, (1, 1), channels=2, value=1.0)
        for k in range(6):
            assert np.array_equal(seq.frame(k)[0] == 1.0, track.masks[k])
            assert np.array_equal(seq.frame(k)[1] == 1.0, track.masks[k])

    def test_threshold_recovers_exactly_on_clean_frames(self):
        seq, track = moving_square_scene(16, 8, 3, (1, 0))
        for k in range(16):
            assert np.array_equal(ThresholdSegmenter(0.5).segment(seq.frame(k)), track.masks[k])

    def test_adjacent_iou_half(self):
        # 3x3 square moving 1 px: overlap 6, union 12
        _, track = moving_square_scene(4, 8, 3, (1, 0))
        assert abs(_iou(track.masks[0], track.masks[1]) - 0.5) < 1e-15

    def test_zero_velocity_static(self):
        seq, track = moving_square_scene(5, 8, 3, (0, 0))
        for k in range(1, 5):
            assert np.array_equal(seq.frame(k), seq.frame(0))
            assert np.array_equal(track.masks[k], track.masks[0])

    def test_fully_linked_ground_truth(self):
        _, track = moving_square_scene(7, 8, 2, (2, 0))
        assert track.masks.any()

    def test_validation(self):
        with pytest.raises(ParameterError):
            moving_square_scene(4, 8, 9, (1, 0))  # square larger than grid
        with pytest.raises(ParameterError):
            moving_square_scene(0, 8, 3, (1, 0))

    @pytest.mark.parametrize(
        "velocity, value, message",
        [
            ((1.7, 0), 1.0, "^velocity dx must be an integer, got 1.7$"),
            ((1, True), 1.0, "^velocity dy must be an integer, got True$"),
            ((1, 0), "0.5", "^value must be a number, got '0.5'$"),
        ],
    )
    def test_velocity_and_value_checked(self, velocity, value, message):
        with pytest.raises(ParameterError, match=message):
            moving_square_scene(4, 8, 3, velocity, value=value)

    @pytest.mark.parametrize("velocity", [(1,), None, (1, 0, 5), 3, {1, 0}, {1: 0, 0: 1}, "10"], ids=repr)
    def test_velocity_must_be_a_pair(self, velocity):
        # a set moved the square in hash order, {1, 0} down the rows, and a
        # dict or a string was read by its keys or characters
        with pytest.raises(ParameterError, match=r"^velocity must be a \(dx, dy\) pair, got "):
            moving_square_scene(4, 8, 3, velocity)

    def test_velocity_array_is_a_pair(self):
        seq, _ = moving_square_scene(4, 8, 3, np.array([1, 0]))
        assert np.array_equal(seq.data, moving_square_scene(4, 8, 3, (1, 0))[0].data)

    def test_negative_velocity_clamps_at_the_border(self):
        _, track = moving_square_scene(3, 8, 2, (-2, -1))
        for k in range(3):
            assert np.array_equal(track.masks[k], track.masks[0])
        assert track.masks[0][:2, :2].all() and track.masks[0].sum() == 4


class TestCheckerboard:
    def test_pattern(self):
        f = checkerboard_frame(4, channels=2, hi=1.0, lo=-1.0)
        assert f.shape == (2, 4, 4) and f.dtype == np.float64
        # a new C-ordered array of its own, not a view of one channel
        assert f.flags.c_contiguous and f.flags.writeable and f.flags.owndata
        assert f[0, 0, 0] == 1.0 and f[0, 0, 1] == -1.0 and f[1, 1, 0] == -1.0
        assert np.array_equal(f[0], f[1])

    @pytest.mark.parametrize("name", ["hi", "lo"])
    @pytest.mark.parametrize("bad, message", [(np.nan, "must be finite"), (np.inf, "must be finite"), ("1", "must be a number")])
    def test_levels_checked(self, name, bad, message):
        with pytest.raises(ParameterError, match=f"^{name} {message}"):
            checkerboard_frame(4, **{name: bad})


class TestPatchEmbeddingProxy:
    def test_constant_frame_uniform_direction(self):
        v = patch_embedding_proxy(np.full((4, 8, 8), 3.0), patches=4)
        assert v.shape == (16,)
        assert np.allclose(v, 0.25)  # 1/sqrt(16)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_negation_flips_direction(self):
        frame = RandomSource(5).normal((4, 8, 8))
        a = patch_embedding_proxy(frame, 4)
        b = patch_embedding_proxy(-frame, 4)
        assert abs(float(a @ b) + 1.0) < 1e-12

    def test_hand_computed_blocks(self):
        frame = np.zeros((1, 4, 4))
        frame[0, :2, :2] = 4.0  # patch (0,0)
        frame[0, 2:, 2:] = 3.0  # patch (1,1)
        v = patch_embedding_proxy(frame, 2)
        assert np.allclose(v, np.array([4.0, 0.0, 0.0, 3.0]) / 5.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            patch_embedding_proxy(np.zeros((1, 4, 4)), 2)  # zero frame
        with pytest.raises(ParameterError):
            patch_embedding_proxy(np.ones((1, 5, 5)), 2)  # not divisible
        with pytest.raises(ParameterError):
            patch_embedding_proxy(np.ones((1, 4, 4)), 0)
