import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentmix.core import (
    MAX_T,
    LatentSequence,
    NoiseSchedule,
    RandomSource,
    all_finite,
    check_latent,
    check_mask,
    forward_diffuse,
    make_schedule,
)
from latentmix import core
from latentmix.blending import BlendParams, ResidualParams, blend_region, gamma_residual, reinit_tail_noise
from latentmix.errors import ParameterError
from latentmix.ltsio import load_masks, load_sequence, read_lts, save_masks, save_sequence, write_lts
from latentmix.sampler import MomentumState, ddim_invert, ddim_sample, momentum_step
from latentmix.synth import OracleSpec, oracle_denoiser
from latentmix.tracking import MaskTrack, OverlapTracker

from conftest import traced_peak

# Independent cumulative-product oracle values (plain-Python running product).
AB_T_SCALED_LINEAR_DEFAULT = 0.004660098513077234
AB_T_LINEAR_DEFAULT = 0.0015789629305514416
AB_T_DESK = 7.657476882814012e-05


def oracle_beta(T, beta_start, beta_end, kind):
    betas = []
    for i in range(T):
        if T == 1:
            b = beta_start
        elif kind == "linear":
            b = beta_start + (beta_end - beta_start) * i / (T - 1)
        else:
            b = (math.sqrt(beta_start) + (math.sqrt(beta_end) - math.sqrt(beta_start)) * i / (T - 1)) ** 2
        betas.append(b)
    return np.array(betas)


def oracle_alpha_bar(T, beta_start, beta_end, kind):
    ab = [1.0]
    acc = 1.0
    for b in oracle_beta(T, beta_start, beta_end, kind):
        acc *= 1.0 - b
        ab.append(acc)
    return np.array(ab)


class TestMakeSchedule:
    def test_single_step_linear(self):
        s = make_schedule(1, 0.5, 0.5, "linear")
        assert s.alpha_bar[0] == 1.0
        assert s.alpha_bar[1] == 0.5

    def test_default_terminal_value(self):
        s = make_schedule()
        assert s.T == 1000
        assert abs(s.alpha_bar[-1] - AB_T_SCALED_LINEAR_DEFAULT) < 1e-15
        assert s.alpha_bar[-1] < 0.01

    def test_linear_terminal_value(self):
        s = make_schedule(1000, 0.00085, 0.012, "linear")
        assert abs(s.alpha_bar[-1] - AB_T_LINEAR_DEFAULT) < 1e-15

    def test_matches_oracle_everywhere(self):
        for kind in ("linear", "scaled_linear"):
            s = make_schedule(200, 0.001, 0.2, kind)
            ref = oracle_alpha_bar(200, 0.001, 0.2, kind)
            assert np.max(np.abs(s.alpha_bar - ref)) < 1e-12

    def test_desk_schedule(self):
        s = make_schedule(64, 0.02, 0.25, "linear")
        assert abs(s.alpha_bar[-1] - AB_T_DESK) < 1e-18

    def test_strictly_decreasing(self):
        s = make_schedule(500, 0.0001, 0.4, "scaled_linear")
        assert np.all(np.diff(s.alpha_bar) < 0.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ParameterError):
            make_schedule(10, 0.5, 0.1)  # start > end
        with pytest.raises(ParameterError):
            make_schedule(10, 0.0, 0.1)
        with pytest.raises(ParameterError):
            make_schedule(10, 0.1, 1.0)
        with pytest.raises(ParameterError):
            make_schedule(0, 0.1, 0.2)
        with pytest.raises(ParameterError):
            make_schedule(10, 0.1, 0.2, "cosine")

    def test_horizon_capped_before_allocating(self):
        assert make_schedule(MAX_T).T == MAX_T
        with pytest.raises(ParameterError, match=rf"^T must lie in \[1, {MAX_T}\], got {MAX_T + 1}$"):
            make_schedule(MAX_T + 1)

        def huge():
            # T = 1e8 would allocate about 3 GB of betas and alpha_bar
            with pytest.raises(ParameterError, match="^T must lie in"):
                make_schedule(10**8)

        assert traced_peak(huge) < 64 * 1024

    def test_uncapped_schedule_constructor(self):
        # the cap guards make_schedule's allocation; a built alpha_bar of
        # any length is a valid schedule
        T = MAX_T + 1
        s = NoiseSchedule(np.linspace(1.0, 0.5, T + 1))
        assert s.T == T

    @settings(max_examples=50, deadline=None)
    @given(
        T=st.integers(min_value=1, max_value=300),
        start=st.floats(min_value=1e-5, max_value=0.3),
        spread=st.floats(min_value=0.0, max_value=0.6),
        kind=st.sampled_from(["linear", "scaled_linear"]),
    )
    def test_consistency_property(self, T, start, spread, kind):
        # alpha_bar[t] / alpha_bar[t-1] == 1 - beta[t] within 1e-12, beta
        # being the recipe's
        end = min(start + spread, 0.9)
        s = make_schedule(T, start, end, kind)
        ratio = s.alpha_bar[1:] / s.alpha_bar[:-1]
        assert np.max(np.abs(ratio - (1.0 - oracle_beta(T, start, end, kind)))) <= 1e-12
        assert s.alpha_bar[0] == 1.0


class TestNoiseSchedule:
    def test_direct_construction(self):
        s = NoiseSchedule([1.0, 0.9, 0.81])
        assert s.alpha_bar.dtype == np.float64
        assert s.alpha_bar.tolist() == [1.0, 0.9, 0.81]
        assert s.T == 2 and type(s.T) is int

    @pytest.mark.parametrize("alpha_bar", [[1.0, 0.9], [1.0, 0.9, 0.81, 0.7]])
    def test_horizon_is_read_off_alpha_bar(self, alpha_bar):
        assert NoiseSchedule(alpha_bar).T == len(alpha_bar) - 1
        with pytest.raises(TypeError):
            NoiseSchedule(alpha_bar, T=2)

    @pytest.mark.parametrize(
        "alpha_bar",
        [
            [0.99, 0.9, 0.81],  # alpha_bar[0] != 1
            [1.0, 0.9, 0.9],  # flat step
            [1.0, 0.8, 0.9],  # rising step
            [1.0, 1.0, 0.9],  # flat first step: beta_1 = 0
            [1.0, 0.9, 0.0],  # zero last value
            [1.0, 0.9, -0.1],  # negative last value
            [np.nan, 0.9, 0.81],
            [1.0, np.nan, 0.81],
            [1.0, 0.9, np.nan],
            np.array(1.0),  # 0-d
            [[1.0, 0.9, 0.81]],  # 2-D
            ["1", "0.9"],  # strings: the cast to float64 used to parse them
            [1.0 + 0j, 0.9 + 0j],  # complex: the cast used to raise TypeError
            [1.0, [0.9, 0.81]],  # ragged: numpy's own ValueError used to escape
        ],
    )
    def test_rejects_bad_alpha_bar(self, alpha_bar):
        with pytest.raises(ParameterError):
            NoiseSchedule(alpha_bar)

    def test_rejects_bad_horizon(self):
        # one level is a horizon of T = 0
        with pytest.raises(ParameterError, match=r"^alpha_bar must be 1-D with at least 2 levels, got shape \(1,\)$"):
            NoiseSchedule([1.0])

    @pytest.mark.parametrize("T", [2.0, True])
    def test_rejects_non_integer_horizon(self, T):
        with pytest.raises(ParameterError, match=r"^T must be an integer, got (2\.0|True)$"):
            make_schedule(T=T)

    def test_alpha_bar_is_a_read_only_copy(self):
        alpha_bar = np.array([1.0, 0.9, 0.81])
        s = NoiseSchedule(alpha_bar)
        with pytest.raises(ValueError, match="read-only"):
            s.alpha_bar[2] = 0.0
        alpha_bar[2] = 0.5  # the caller's array stays writable and unshared
        assert s.alpha_bar.tolist() == [1.0, 0.9, 0.81]

    def test_numpy_integer_horizon_accepted(self):
        s = make_schedule(np.int64(2))
        assert type(s.T) is int
        x = forward_diffuse(np.ones((1, 2, 2)), s.T, s, RandomSource(0))
        assert np.all(np.isfinite(x))


class TestRandomSource:
    def test_same_seed_bit_identical(self):
        a = RandomSource(99).normal((3, 5, 7))
        b = RandomSource(99).normal((3, 5, 7))
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = RandomSource(1).normal((64,))
        b = RandomSource(2).normal((64,))
        assert not np.array_equal(a, b)

    def test_child_streams_deterministic_and_independent(self):
        root = RandomSource(7)
        c1 = root.child(0, 3).normal((32,))
        # children derive from lineage, not parent draw position
        root.normal((100,))
        c2 = root.child(0, 3).normal((32,))
        assert c1.tobytes() == c2.tobytes()
        other = root.child(0, 4).normal((32,))
        assert not np.array_equal(c1, other)
        assert repr(root.child(0, 3)) == "RandomSource(seed=7, path=(0, 3))"

    def test_rejects_bad_seed(self):
        with pytest.raises(ParameterError):
            RandomSource(-1)
        with pytest.raises(ParameterError):
            RandomSource(1.5)
        with pytest.raises(ParameterError):
            RandomSource(True)
        assert RandomSource(np.int64(3)).seed == 3

    @pytest.mark.parametrize("key", [1.5, True, np.float64(1.9), "1", -1], ids=repr)
    def test_rejects_bad_spawn_key(self, key):
        # int(k) made 1.5, True and 1.9 alias child(1), took "1", and let -1
        # reach numpy's own ValueError
        with pytest.raises(ParameterError, match="^spawn key must"):
            RandomSource(7).child(0, key)

    def test_numpy_integer_spawn_key(self):
        root = RandomSource(7)
        assert root.child(np.int64(1)).path == (1,)
        assert root.child(np.int64(1)).normal((8,)).tobytes() == root.child(1).normal((8,)).tobytes()

    def test_child_needs_a_key(self):
        # child() with no key returned the parent's own stream
        with pytest.raises(ParameterError, match="^child needs at least one spawn key$"):
            RandomSource(5).child()


class TestForwardDiffuse:
    def test_t0_identity(self, desk_schedule):
        rng = RandomSource(0)
        x0 = RandomSource(1).normal((4, 8, 8))
        out = forward_diffuse(x0, 0, desk_schedule, rng)
        assert np.array_equal(out, x0)

    def test_variance_matches_schedule(self, desk_schedule):
        # zero latent: output variance should be 1 - alpha_bar_t within 5%
        x0 = np.zeros((4, 64, 64))  # 16384 elements
        for t in (16, 48, 64):
            out = forward_diffuse(x0, t, desk_schedule, RandomSource(11))
            target = 1.0 - desk_schedule.alpha_bar[t]
            assert abs(out.var() / target - 1.0) < 0.05

    def test_deterministic(self, desk_schedule):
        x0 = RandomSource(3).normal((4, 8, 8))
        a = forward_diffuse(x0, 30, desk_schedule, RandomSource(8))
        b = forward_diffuse(x0, 30, desk_schedule, RandomSource(8))
        assert a.tobytes() == b.tobytes()

    def test_rejects_out_of_range_t(self, desk_schedule):
        x0 = np.zeros((1, 2, 2))
        with pytest.raises(ParameterError):
            forward_diffuse(x0, -1, desk_schedule, RandomSource(0))
        with pytest.raises(ParameterError):
            forward_diffuse(x0, desk_schedule.T + 1, desk_schedule, RandomSource(0))


class TestAllFinite:
    def test_finite_arrays(self):
        assert all_finite(np.zeros((2, 3, 4)))
        assert all_finite(np.zeros(0))
        assert all_finite(np.arange(12).reshape(3, 4))
        # finite even though the sum overflows
        assert all_finite(np.full((4, 8, 8), 1e308))
        assert all_finite(np.full((4, 8, 8), -1e308))
        assert all_finite(np.full((3, 5), np.finfo(np.float32).max, dtype=np.float32))

    def test_non_finite_arrays(self):
        for bad in (np.inf, -np.inf, np.nan):
            x = np.zeros((4, 8, 8))
            x[3, 2, 1] = bad
            assert not all_finite(x)
            assert not all_finite(x.astype(np.float32))
        pair = np.zeros((4, 8, 8))
        pair[0, 0, 0], pair[1, 1, 1] = np.inf, -np.inf  # sums to nan
        assert not all_finite(pair)
        overflow_and_nan = np.full((4, 8, 8), 1e308)
        overflow_and_nan[2, 2, 2] = np.nan
        assert not all_finite(overflow_and_nan)

    def test_non_contiguous(self):
        x = np.zeros((4, 8, 8))
        x[1, 2, 5] = np.nan
        assert not all_finite(x[:, ::2, 1::2])
        assert all_finite(x[:, ::2, ::2])

    @pytest.mark.parametrize("bad", ["inf", "nan", "pair"])
    def test_sequence_keeps_its_message(self, bad):
        x = np.zeros((1, 2, 3, 4))
        if bad == "inf":
            x[0, 1, 1, 1] = np.inf
        elif bad == "nan":
            x[0, 0, 2, 3] = np.nan
        else:
            x[0, 0, 0, 0], x[0, 1, 2, 3] = np.inf, -np.inf
        with pytest.raises(ParameterError, match="^sequence contains non-finite values$"):
            LatentSequence(x)

    def test_sequence_accepts_overflowing_sums(self):
        big = np.full((4, 8, 8), 1e308)
        assert len(LatentSequence(np.stack([big, -big]))) == 2

    @pytest.mark.parametrize("value", [1e200, 1e308, -1e308])
    def test_large_values_accepted_without_warnings(self, value):
        # the sum of squares overflows, which must neither warn nor reject
        x = np.full((4, 8, 8), value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all_finite(x)
            assert check_latent(x) is x
            assert len(LatentSequence(x[None])) == 1

    def test_non_contiguous_view_accepted_without_warnings(self):
        # strided views of unit-scale rows and of rows whose sum of squares overflows
        x = RandomSource(3).normal((4, 16, 16))
        x[:, ::2] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for view in (x[:, 1::2, ::3], x[:, ::2, 1::3]):
                assert not view.flags.c_contiguous
                assert all_finite(view)
                assert np.array_equal(check_latent(view), view)

    @pytest.mark.parametrize("bad", ["inf", "nan", "pair", "big and nan"])
    def test_rejections_keep_their_messages_without_warnings(self, bad):
        x = np.full((2, 3, 4), 1e300 if bad == "big and nan" else 0.5)
        if bad == "inf":
            x[1, 2, 3] = np.inf
        elif bad == "pair":
            x[0, 0, 0], x[1, 1, 1] = np.inf, -np.inf
        else:
            x[0, 1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not all_finite(x)
            with pytest.raises(ParameterError, match="^x0 contains non-finite values$"):
                check_latent(x, "x0")
            with pytest.raises(ParameterError, match="^sequence contains non-finite values$"):
                LatentSequence(x[None])


class TestContainers:
    def test_check_latent_shapes(self):
        with pytest.raises(ParameterError):
            check_latent(np.zeros((4, 4)))
        with pytest.raises(ParameterError):
            check_latent(np.array([[[np.nan]]]))
        out = check_latent(np.zeros((2, 3, 4), dtype=np.float32))
        assert out.dtype == np.float64

    def test_check_latent_takes_the_rank_from_its_axes(self):
        assert check_latent(np.zeros((1, 2, 3, 4)), "stack", "FCHW").shape == (1, 2, 3, 4)
        with pytest.raises(ParameterError, match=r"^stack must be a nonempty \(F, C, H, W\) array, got shape \(2, 3, 4\)$"):
            check_latent(np.zeros((2, 3, 4)), "stack", "FCHW")
        with pytest.raises(ParameterError, match=r"^stack must be a nonempty \(F, C, H, W\) array, got shape \(0, 1, 2, 2\)$"):
            check_latent(np.zeros((0, 1, 2, 2)), "stack", "FCHW")

    def test_sequence_validation(self):
        with pytest.raises(ParameterError):
            LatentSequence(np.zeros((2, 3)))
        with pytest.raises(ParameterError):
            LatentSequence(np.full((1, 1, 2, 2), np.inf))
        seq = LatentSequence(np.stack([np.zeros((2, 4, 4)), np.ones((2, 4, 4))]))
        assert len(seq) == 2
        assert seq.frame(1)[0, 0, 0] == 1.0


class TestCheckMask:
    @pytest.mark.parametrize(
        "bad",
        [
            [[0.0, 0.3]],
            [[np.nan, 1.0]],
            [[np.inf, 0.0]],
            [[-np.inf, 1.0]],
            [[2, 1]],
            [[-1, 0]],
            [[0.5, 0.5]],
            [["1", "0"]],
            [[1j, 0]],
            np.ones((1, 2), dtype=object),
        ],
    )
    def test_other_values_rejected(self, bad):
        with pytest.raises(ParameterError, match="^m values must be exactly 0 or 1$"):
            check_mask(bad, (None, None), "m")

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float32, np.float64])
    def test_values_read_as_bools(self, dtype):
        m = np.array([[1, 0, 1], [0, 0, 1]], dtype=dtype)
        out = check_mask(m, (2, 3), "m")
        assert out.dtype == bool and np.array_equal(out, m == 1)
        assert not np.shares_memory(out, m)

    def test_negative_zero_is_zero(self):
        assert np.array_equal(check_mask([[-0.0, 1.0, 0.0]], (1, 3)), [[False, True, False]])

    @pytest.mark.parametrize("bad", [None, True, np.zeros(4), np.zeros((1, 2, 2)), np.zeros((0, 2)), np.zeros((3, 3))])
    def test_wrong_shape_rejected(self, bad):
        with pytest.raises(ParameterError, match=r"^m must be a nonempty \(\?, 2\) array, got shape "):
            check_mask(bad, (None, 2), "m")


GRID = (4, 4)
REF_MASK = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [1, 1, 0, 0]], dtype=bool)


class FixedSegmenter:
    def __init__(self, m):
        self.m = m

    def segment(self, x):
        return self.m


def tracker_mask(m, _):
    return OverlapTracker(FixedSegmenter(m), 0.0).update(np.zeros((1, *GRID)))[0]


def write_lts_mask(m, tmp_path):
    # a bool array is stored as a mask and read back as one; a numeric 0/1
    # array is stored as a latent and read back as 0.0 and 1.0
    write_lts(tmp_path / "w.lts", [[m]])
    return read_lts(tmp_path / "w.lts")[0, 0] == 1


def save_masks_mask(m, tmp_path):
    save_masks(tmp_path / "m.lts", [m])
    return load_masks(tmp_path / "m.lts")[0]


# Each caller of check_mask, given a mask m for a latent on GRID, returns the
# bool mask it acted on.
MASK_CALLERS = {
    "blend_region": lambda m, _: blend_region(np.zeros((1, *GRID)), np.ones((1, *GRID)), m, BlendParams())[0] == 1.0,
    "OverlapTracker.update": tracker_mask,
    "MaskTrack": lambda m, _: MaskTrack([m]).masks[0],
    "save_masks": save_masks_mask,
    "write_lts": write_lts_mask,
}


def with_cell(value):
    m = np.zeros(GRID)
    m[2, 1] = value
    return m


MASK_CASES = {
    "bool": REF_MASK,
    "int": REF_MASK.astype(np.int64),
    "float": REF_MASK.astype(np.float64),
    "soft": with_cell(0.3),
    "nan": with_cell(np.nan),
    "two": with_cell(2),
    "string": np.full(GRID, "a"),
    "objects": REF_MASK.astype(object),
    "none": None,
    "rank": np.zeros((1, *GRID)),
    "zero_size": np.zeros((0, 4)),
    "off_grid": np.ones((3, 3), dtype=bool),  # for a 4x4 latent
    "ragged": [[1, 0, 0, 1], [0, 1]],
}
ACCEPTED = ("bool", "int", "float")
# MaskTrack and the writers take a mask of any size
ON_ANY_GRID = ("MaskTrack", "save_masks", "write_lts")
# write_lts stores a numeric array as a latent, so 0.3 and 2 are latent
# values to it; save_masks is the writer that holds a numeric stack to 0 or 1
LATENT_VALUES_TO_WRITE_LTS = ("soft", "two")


@pytest.mark.parametrize(
    "caller, case",
    [
        (c, k)
        for c in MASK_CALLERS
        for k in MASK_CASES
        if not (k == "off_grid" and c in ON_ANY_GRID)
        and not (k in LATENT_VALUES_TO_WRITE_LTS and c == "write_lts")
    ],
)
def test_masks_are_bool_or_binary(caller, case, tmp_path):
    if case in ACCEPTED:
        out = MASK_CALLERS[caller](MASK_CASES[case], tmp_path)
        assert out.dtype == bool and np.array_equal(out, REF_MASK)
    else:
        with pytest.raises(ParameterError):
            MASK_CALLERS[caller](MASK_CASES[case], tmp_path)


class RecordingDenoiser:
    def predict_eps(self, x_t, t):
        self.seen = x_t
        return np.zeros_like(x_t)


def momentum_step_latent(x, _):
    den = RecordingDenoiser()
    momentum_step(x, 8, den, make_schedule(8), MomentumState.fresh((2, 3, 4), 8))
    return den.seen


def write_lts_latent(x, tmp_path):
    write_lts(tmp_path / "x.lts", [x])
    return read_lts(tmp_path / "x.lts")[0]


# Each entry point that takes a latent, given an accepted (C, H, W) latent
# x, returns x as the float64 array it acted on.
LATENT_CALLERS = {
    "momentum_step": momentum_step_latent,
    "LatentSequence": lambda x, _: LatentSequence([x]).frame(0),
    "blend_region": lambda x, _: blend_region(x, np.zeros((2, 3, 4)), np.zeros((3, 4)), BlendParams()),
    "forward_diffuse": lambda x, _: forward_diffuse(x, 0, make_schedule(8), RandomSource(0)),
    "write_lts": write_lts_latent,
}

LATENT_CASES = {
    "float32": np.ones((2, 3, 4), dtype=np.float32),
    "int": np.ones((2, 3, 4), dtype=np.int64),
    "complex": np.full((2, 3, 4), 1 + 2j),
    "complex_list": [[[1.0, 1j]]],
    "string": np.full((2, 3, 4), "a"),
    "objects": np.ones((2, 3, 4), dtype=object),
    "dict": {"a": 1},
    "ragged": [[[1.0]], [[1.0, 2.0]]],
}
ACCEPTED_LATENTS = ("float32", "int")


@pytest.mark.parametrize("caller, case", [(c, k) for c in LATENT_CALLERS for k in LATENT_CASES])
def test_latents_are_real_arrays(caller, case, tmp_path):
    # complex input used to lose its imaginary part with only a warning, and
    # strings raised numpy's own ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case in ACCEPTED_LATENTS:
            out = LATENT_CALLERS[caller](LATENT_CASES[case], tmp_path)
            assert out.dtype == np.float64 and np.array_equal(out, np.ones((2, 3, 4)))
        else:
            with pytest.raises(ParameterError, match=" must be a real array, got dtype "):
                LATENT_CALLERS[caller](LATENT_CASES[case], tmp_path)


RNG_SHAPE = (4, 8, 3)


def momentum_step_draw(rng, eta=0.5):
    state = MomentumState.fresh(RNG_SHAPE, 8)
    return momentum_step(np.ones(RNG_SHAPE), 8, RecordingDenoiser(), make_schedule(8), state, eta=eta, rng=rng)[0].x_prev


# Each entry point that draws noise, given an rng, returns an array drawn from it.
RNG_CALLERS = {
    "forward_diffuse": lambda rng: forward_diffuse(np.ones(RNG_SHAPE), 8, make_schedule(8), rng),
    "gamma_residual": lambda rng: gamma_residual(np.ones(RNG_SHAPE), ResidualParams(), rng),
    "reinit_tail_noise": lambda rng: reinit_tail_noise(np.ones(RNG_SHAPE), make_schedule(8), 0.25, rng),
    "momentum_step": momentum_step_draw,
}


@pytest.mark.parametrize("caller", RNG_CALLERS)
@pytest.mark.parametrize("rng", [np.random.default_rng(0), "rng", None], ids=["Generator", "str", "NoneType"])
def test_rng_must_be_a_random_source(caller, rng):
    # a numpy Generator reads normal(shape) as normal(loc=shape): on a
    # (4, 8, 3) latent its "noise" would hold one value per last-axis index
    with pytest.raises(ParameterError, match=f"^rng must be a RandomSource, got {type(rng).__name__}$"):
        RNG_CALLERS[caller](rng)
    out = RNG_CALLERS[caller](RandomSource(0))
    assert out.shape == RNG_SHAPE and np.array_equal(out, RNG_CALLERS[caller](RandomSource(0)))


# Each entry point that takes a NoiseSchedule, given s, returns an array it built with s.
SCHEDULE_CALLERS = {
    "forward_diffuse": lambda s: forward_diffuse(np.ones(RNG_SHAPE), 8, s, RandomSource(0)),
    "reinit_tail_noise": lambda s: reinit_tail_noise(np.ones(RNG_SHAPE), s, 0.25, RandomSource(0)),
    "momentum_step": lambda s: momentum_step(
        np.ones(RNG_SHAPE), 8, RecordingDenoiser(), s, MomentumState.fresh(RNG_SHAPE, 8)
    )[0].x_prev,
    "ddim_sample": lambda s: ddim_sample(np.ones(RNG_SHAPE), RecordingDenoiser(), s, steps=2),
    "ddim_invert": lambda s: ddim_invert(np.ones(RNG_SHAPE), RecordingDenoiser(), s, steps=2).data,
    "oracle_denoiser": lambda s: oracle_denoiser(OracleSpec(np.ones((1, *RNG_SHAPE))), s).predict_eps(
        np.ones(RNG_SHAPE), 8
    ),
}


@pytest.mark.parametrize("caller", SCHEDULE_CALLERS)
@pytest.mark.parametrize("s", [None, object()], ids=["NoneType", "object"])
def test_schedule_must_be_a_noise_schedule(caller, s):
    # each used to end in a bare AttributeError on s.T or s.alpha_bar
    with pytest.raises(ParameterError, match=f"^s must be a NoiseSchedule, got {type(s).__name__}$"):
        SCHEDULE_CALLERS[caller](s)
    assert np.all(np.isfinite(SCHEDULE_CALLERS[caller](make_schedule(8))))


# Each entry point that takes a parameter object, a momentum state or a
# denoiser, given a value of the wrong type, and the start of its message.
TYPED_CALLERS = {
    "blend_region": (
        lambda v: blend_region(np.ones(RNG_SHAPE), np.zeros(RNG_SHAPE), np.ones(RNG_SHAPE[1:]), v),
        "p must be a BlendParams",
    ),
    "gamma_residual": (lambda v: gamma_residual(np.ones(RNG_SHAPE), v, RandomSource(0)), "p must be a ResidualParams"),
    "momentum_step-state": (
        lambda v: momentum_step(np.ones(RNG_SHAPE), 8, RecordingDenoiser(), make_schedule(8), v),
        "state must be a MomentumState",
    ),
    "momentum_step-denoiser": (
        lambda v: momentum_step(np.ones(RNG_SHAPE), 8, v, make_schedule(8), MomentumState.fresh(RNG_SHAPE, 8)),
        "denoiser must have a callable predict_eps",
    ),
    "ddim_sample": (
        lambda v: ddim_sample(np.ones(RNG_SHAPE), v, make_schedule(8), steps=2),
        "denoiser must have a callable predict_eps",
    ),
    "ddim_invert": (
        lambda v: ddim_invert(np.ones(RNG_SHAPE), v, make_schedule(8), steps=2),
        "denoiser must have a callable predict_eps",
    ),
    "oracle_denoiser": (lambda v: oracle_denoiser(v, make_schedule(8)), "spec must be a OracleSpec"),
    # the check comes before the file is opened, so nothing is written
    "save_sequence": (lambda v: save_sequence("unwritten.lts", v), "seq must be a LatentSequence"),
}


@pytest.mark.parametrize("caller", TYPED_CALLERS)
@pytest.mark.parametrize(
    "value",
    [None, 2.0, {"gamma": 0.05}, object(), types.SimpleNamespace(predict_eps=None)],
    ids=["NoneType", "float", "dict", "object", "attribute"],
)
def test_typed_arguments_are_checked(caller, value):
    # each used to end in a bare AttributeError
    call, message = TYPED_CALLERS[caller]
    with pytest.raises(ParameterError, match=f"^{message}, got {type(value).__name__}$"):
        call(value)


# Each value type that holds an array, built twice with equal content.
VALUE_TYPES = {
    "NoiseSchedule": lambda: make_schedule(8),
    "LatentSequence": lambda: LatentSequence(np.ones((2, *RNG_SHAPE))),
    "MomentumState": lambda: MomentumState.fresh(RNG_SHAPE, 8),
    "StepOutput": lambda: momentum_step(
        np.ones(RNG_SHAPE), 8, RecordingDenoiser(), make_schedule(8), MomentumState.fresh(RNG_SHAPE, 8)
    )[0],
    "MaskTrack": lambda: MaskTrack(np.ones((2, 4, 4), dtype=bool)),
    "OracleSpec": lambda: OracleSpec(np.ones((2, *RNG_SHAPE))),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_value_types_compare_by_identity(make):
    # == compared the arrays and raised numpy's ValueError ("truth value of
    # an array ... is ambiguous"), and hash raised TypeError
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)


def test_deterministic_step_leaves_its_rng_unchecked():
    # eta = 0 draws nothing, so the bench's step pays for no check
    assert np.array_equal(momentum_step_draw("unused", eta=0.0), momentum_step_draw(None, eta=0.0))


def test_check_latent_keeps_a_float64_array():
    x = np.zeros((2, 3, 4))
    assert check_latent(x) is x
    assert check_latent(np.ones((1, 2, 2), dtype=bool)).dtype == np.float64


def test_checked_sequences_are_not_scanned_again(monkeypatch, tmp_path):
    # ddim_invert checks every hop's row and read_lts scans the stored
    # payload, so neither wraps its result through check_latent again
    x0 = RandomSource(6).normal((2, 3, 4))
    scans, check_latent = [], core.check_latent

    def counting(x, name="latent", axes="CHW"):
        scans.append(name)
        return check_latent(x, name, axes)

    monkeypatch.setattr(core, "check_latent", counting)
    seq = ddim_invert(x0, RecordingDenoiser(), make_schedule(8), 4)
    save_sequence(tmp_path / "seq.lts", seq)
    back = load_sequence(tmp_path / "seq.lts")
    assert scans == []
    assert back.data.dtype == np.float64 and back.data.shape == (5, 2, 3, 4)
    assert np.array_equal(back.data, seq.data.astype(np.float32))
    LatentSequence(back.data)
    assert scans == ["sequence"]
