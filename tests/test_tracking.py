import types
from collections import deque

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from latentmix.core import LatentSequence
from latentmix import tracking
from latentmix.errors import ParameterError
from latentmix.synth import moving_square_scene
from latentmix.tracking import (
    MaskTrack,
    OverlapTracker,
    ThresholdSegmenter,
    iou,
)


class IdentitySegmenter:
    """Segmenter for tests whose frames already are masks."""

    def segment(self, x):
        return x


def square_mask(grid, row, col, side):
    m = np.zeros((grid, grid), dtype=bool)
    m[row : row + side, col : col + side] = True
    return m


masks_strategy = st.integers(min_value=0, max_value=2**16 - 1).map(
    lambda bits: np.array([(bits >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
)


class TestIou:
    def test_identity(self):
        m = square_mask(8, 1, 1, 3)
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        assert iou(square_mask(8, 0, 0, 2), square_mask(8, 5, 5, 2)) == 0.0

    def test_hand_value(self):
        # 2x2 squares overlapping in a 2x1 strip: 2 / (4 + 4 - 2) = 1/3
        a = square_mask(6, 0, 0, 2)
        b = square_mask(6, 0, 1, 2)
        assert abs(iou(a, b) - 1.0 / 3.0) < 1e-15

    def test_empty_conventions(self):
        empty = np.zeros((4, 4), dtype=bool)
        assert iou(empty, empty) == 1.0
        assert iou(empty, square_mask(4, 0, 0, 2)) == 0.0
        assert iou(square_mask(4, 0, 0, 2), empty) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))

    @settings(max_examples=100, deadline=None)
    @given(a=masks_strategy, b=masks_strategy)
    def test_properties(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        assert iou(a, a) == 1.0


def flood_fill_components(mask):
    """Independent 4-connected component enumeration by BFS."""
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    h, w = mask.shape
    for r in range(h):
        for c in range(w):
            if mask[r, c] and not seen[r, c]:
                comp = []
                q = deque([(r, c)])
                seen[r, c] = True
                while q:
                    y, x = q.popleft()
                    comp.append((y, x))
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            q.append((ny, nx))
                comps.append(comp)
    return comps


def grid(rows):
    """A bool mask from strings of '#' (set) and '.' (clear)."""
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


def snake(h, w):
    """Full even rows joined at alternate ends: one component through every row."""
    rows = []
    for r in range(h):
        if r % 2 == 0:
            rows.append("#" * w)
        else:
            rows.append("." * (w - 1) + "#" if r % 4 == 1 else "#" + "." * (w - 1))
    return rows


CHECKER = ["#.#.#.", ".#.#.#", "#.#.#.", ".#.#.#"]
# name: (mask rows, expected largest component rows)
FIXED_COMPONENT_CASES = {
    "full": (["#" * 64] * 40, ["#" * 64] * 40),
    "one_row": (["##.###.#.##"], ["...###....."]),
    "one_column": ([c for c in "##.###.#.##"], [c for c in "...###....."]),
    "checkerboard": (CHECKER, ["#....."] + ["......"] * 3),  # every component is one pixel
    "tie": (["....#", "....#", "###.#", "....."], ["....#", "....#", "....#", "....."]),
    "snake": (snake(37, 64) + ["." * 64, "##" + "." * 62, "##" + "." * 62], snake(37, 64) + ["." * 64] * 3),
    "empty": (["...", "..."], ["...", "..."]),
}


class TestThresholdSegment:
    def test_zeros(self):
        assert not ThresholdSegmenter(0.5).segment(np.zeros((4, 8, 8))).any()

    def test_recovers_block(self):
        x = np.zeros((4, 8, 8))
        x[:, 2:5, 3:6] = 1.0
        assert np.array_equal(ThresholdSegmenter(0.5).segment(x), square_mask(8, 2, 3, 3))

    def test_uses_absolute_values(self):
        x = np.zeros((2, 4, 4))
        x[:, 1, 1] = -2.0
        assert ThresholdSegmenter(0.5).segment(x)[1, 1]

    def test_largest_component(self):
        x = np.zeros((1, 8, 8))
        x[0, 0:2, 0:2] = 1.0  # 4 px
        x[0, 4:7, 4:7] = 1.0  # 9 px
        out = ThresholdSegmenter(0.5, largest_component=True).segment(x)
        assert np.array_equal(out, square_mask(8, 4, 4, 3))

    def test_largest_component_matches_flood_fill(self):
        # grids up to the video latent's 40x64, from sparse specks to one blob
        rng = np.random.default_rng(33)
        for trial in range(40):
            h, w = 1 + int(40 * rng.random(())), 1 + int(64 * rng.random(()))
            fill = 0.1 + 0.8 * trial / 39
            noise = rng.random((1, h, w))
            out = ThresholdSegmenter(1.0 - fill, largest_component=True).segment(noise)
            expect = np.zeros((h, w), dtype=bool)
            comps = flood_fill_components(noise[0] > 1.0 - fill)
            if comps:
                # max keeps the first of equal components, which BFS finds in raster order
                expect[tuple(np.array(max(comps, key=len)).T)] = True
            assert np.array_equal(out, expect)

    @pytest.mark.parametrize("rows, expect", list(FIXED_COMPONENT_CASES.values()), ids=list(FIXED_COMPONENT_CASES))
    def test_largest_component_fixed_cases(self, rows, expect):
        mask, want = grid(rows), grid(expect)
        assert np.array_equal(ThresholdSegmenter(0.5, largest_component=True).segment(mask[None] * 1.0), want)

    def test_largest_component_tie_goes_to_the_lowest_label(self):
        x = np.zeros((1, 6, 6))
        x[0, 0:2, 4:6] = 1.0  # label 1 in scan order, 4 px
        x[0, 4:6, 0:2] = 1.0  # label 2, 4 px
        assert np.array_equal(ThresholdSegmenter(0.5, largest_component=True).segment(x), square_mask(6, 0, 4, 2))

    def test_largest_component_matches_sum_labels_rule(self):
        rng = np.random.default_rng(34)
        for trial in range(200):
            noise = rng.random((2, 7, 9))
            raw = np.mean(noise, axis=0) > 0.5
            labels, count = ndimage.label(raw)
            expect = raw
            if count > 1:
                sizes = ndimage.sum_labels(raw, labels, index=np.arange(1, count + 1))
                expect = labels == (1 + int(np.argmax(sizes)))
            assert np.array_equal(ThresholdSegmenter(0.5, largest_component=True).segment(noise), expect)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ThresholdSegmenter(0.5).segment(np.zeros((4, 4)))
        with pytest.raises(ParameterError):
            ThresholdSegmenter(-0.1)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, theta):
        # nan or inf would compare false everywhere and give an empty mask
        with pytest.raises(ParameterError, match="^theta must be finite, got "):
            ThresholdSegmenter(theta)

    @pytest.mark.parametrize("theta", [True, "0.5", -0.1, np.nan])
    def test_segmenter_checks_theta_when_built(self, theta):
        # not at its first segment call, partway through a clip
        with pytest.raises(ParameterError, match="^theta must "):
            ThresholdSegmenter(theta)

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, np.array([True])], ids=["str", "0", "1", "None", "array"])
    def test_largest_component_is_a_bool(self, flag):
        # any truthy value used to switch pruning on, so "no" pruned
        with pytest.raises(ParameterError, match="^largest_component is a flag, True or False, got "):
            ThresholdSegmenter(0.5, largest_component=flag)

    def test_largest_component_accepts_numpy_bools(self):
        x = np.zeros((1, 8, 8))
        x[0, 0:2, 0:2] = 1.0
        x[0, 4:7, 4:7] = 1.0
        for flag, keeps in [(np.True_, 9), (np.False_, 13), (True, 9), (False, 13)]:
            seg = ThresholdSegmenter(0.5, largest_component=flag)
            assert type(seg.largest_component) is bool and int(seg.segment(x).sum()) == keeps

    @pytest.mark.parametrize("bad", [[np.inf], [np.nan], [np.inf, -np.inf]])
    def test_non_finite_rejected(self, bad):
        # a non-finite pixel inside the square must not just shrink the mask
        x = np.zeros((1, 8, 8))
        x[0, 2:5, 2:5] = 1.0
        x[0, 3, 3 : 3 + len(bad)] = bad
        with pytest.raises(ParameterError, match="^x contains non-finite values$"):
            ThresholdSegmenter(0.5).segment(x)


def scene_from_masks(masks, value=1.0, channels=2):
    frames = np.zeros((len(masks), channels, *masks[0].shape))
    for k, m in enumerate(masks):
        frames[k, :, m] = value
    return LatentSequence(frames)


def track(seq, seg, tau):
    """Feed every frame of seq to an OverlapTracker and return the tracker."""
    tracker = OverlapTracker(seg, tau)
    for i in range(len(seq)):
        tracker.update(seq.frame(i))
    return tracker


class TestTrackMasks:
    def test_constant_scene_fully_linked(self):
        m = square_mask(8, 2, 2, 3)
        seq = scene_from_masks([m] * 5)
        tracker = track(seq, ThresholdSegmenter(0.5), tau=0.5)
        assert tracker.linked == [True] * 5
        assert np.array_equal(np.stack(tracker.masks), np.stack([m] * 5))

    def test_empty_segmentation_retains_previous(self):
        m = square_mask(8, 1, 1, 3)
        frames = [m, m, np.zeros_like(m), m]
        seq = scene_from_masks(frames)
        tracker = track(seq, ThresholdSegmenter(0.5), tau=0.5)
        assert tracker.linked == [True, True, False, True]
        assert np.array_equal(tracker.masks[2], m)  # retained bit-exact

    def test_jump_rejected_then_reacquired(self):
        a = square_mask(8, 0, 0, 3)
        b = square_mask(8, 5, 5, 3)  # disjoint jump
        seq = scene_from_masks([a, b, b])
        tracker = track(seq, ThresholdSegmenter(0.5), tau=0.5)
        assert tracker.linked[1] is False
        assert np.array_equal(tracker.masks[1], a)
        # frame 2 segments to b again; IoU(b, retained a) still 0 -> retained
        assert tracker.linked[2] is False
        assert np.array_equal(tracker.masks[2], a)

    def test_threshold_is_strict(self):
        # adjacent-frame IoU exactly tau must retain, not accept
        a = square_mask(8, 0, 0, 2)
        b = square_mask(8, 0, 1, 2)  # IoU 1/3
        seq = scene_from_masks([a, b])
        at_tau = track(seq, ThresholdSegmenter(0.5), tau=1.0 / 3.0)
        assert at_tau.linked[1] is False
        below = track(seq, ThresholdSegmenter(0.5), tau=0.33)
        assert below.linked[1] is True

    def test_degenerate_first_frame(self):
        # an empty first mask links nothing after it, so the track stays empty
        m = square_mask(8, 1, 1, 2)
        seq = scene_from_masks([np.zeros_like(m), m])
        tracker = track(seq, ThresholdSegmenter(0.5), tau=0.5)
        assert tracker.linked == [True, False]
        assert not np.stack(tracker.masks).any()

    def test_frame_grid_must_not_change(self):
        # the link compares masks pixel by pixel, so a frame on another grid
        # is rejected rather than broadcast against the track
        tracker = OverlapTracker(IdentitySegmenter(), tau=0.5)
        tracker.update(square_mask(4, 0, 0, 2))
        for other in (np.ones((1, 4), dtype=bool), square_mask(8, 0, 0, 2)):
            with pytest.raises(ParameterError, match=r"^frame grid \(\d+, \d+\) differs from the track's \(4, 4\)$"):
                tracker.update(other)
        assert len(tracker.masks) == 1

    def test_update_checks_each_mask_once(self, monkeypatch):
        # the link reuses the two masks the tracker has already checked
        calls, check_mask = [], tracking.check_mask

        def counting(m, shape, name="mask"):
            calls.append(name)
            return check_mask(m, shape, name)

        monkeypatch.setattr(tracking, "check_mask", counting)
        seq = scene_from_masks([square_mask(8, 0, k, 3) for k in range(4)])
        tracker = track(seq, ThresholdSegmenter(0.5), tau=0.4)
        assert tracker.linked == [True, True, True, True]
        assert calls == ["segmenter output"] * 4

    @pytest.mark.parametrize(
        "segmenter", [object(), None, types.SimpleNamespace(segment=0.5)], ids=["object", "None", "segment-not-callable"]
    )
    def test_segmenter_must_have_a_callable_segment(self, segmenter):
        with pytest.raises(ParameterError, match="^segmenter must have a callable segment, got "):
            OverlapTracker(segmenter, 0.5)

    def test_tau_validation(self):
        seq = scene_from_masks([square_mask(4, 0, 0, 2)])
        with pytest.raises(ParameterError):
            track(seq, ThresholdSegmenter(0.5), tau=1.5)

    @settings(max_examples=60, deadline=None)
    @given(prev=masks_strategy, cand=masks_strategy, data=st.data())
    def test_accepts_monotone_in_tau(self, prev, cand, data):
        # one link decision against a fixed previous mask: raising tau can
        # only turn an accept into a retain
        t1 = data.draw(st.floats(min_value=0.0, max_value=1.0))
        t2 = data.draw(st.floats(min_value=t1, max_value=1.0))
        decisions = []
        for tau in (t1, t2):
            tracker = OverlapTracker(IdentitySegmenter(), tau)
            tracker.update(prev)
            decisions.append(tracker.update(cand)[1])
        lo, hi = decisions
        assert lo or not hi

    def test_sequence_link_count_not_monotone_in_tau(self):
        # A retained mask becomes the next frame's reference, so over a
        # sequence a higher tau can link more frames.  At tau 0 frame 2
        # links (IoU 1/7 with frame 1) and frames 3 and 4 share no pixel
        # with it; at tau 0.25 frame 2 keeps frame 1's mask, which frame 3
        # overlaps with IoU 1/3, and frame 4 repeats frame 3.
        rng = np.random.default_rng(85)
        frames = [square_mask(6, int(3 * u), int(3 * v), 2) for u, v in rng.random((5, 2))]
        seq = scene_from_masks(frames)
        lo = track(seq, ThresholdSegmenter(0.5), tau=0.0)
        hi = track(seq, ThresholdSegmenter(0.5), tau=0.25)
        assert lo.linked == [True, True, True, False, False]
        assert hi.linked == [True, True, False, True, True]


class TestMaskTrack:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MaskTrack(masks=np.zeros((4, 4), dtype=bool))

    def test_stored_masks_are_read_only(self):
        # a write through the returned mask would empty the stored one, and
        # the rejected link below would then keep the empty mask
        a, b = square_mask(8, 0, 0, 3), square_mask(8, 5, 5, 3)
        tracker = OverlapTracker(IdentitySegmenter(), tau=0.5)
        m, _ = tracker.update(a)
        with pytest.raises(ValueError):
            m[:] = False
        kept, linked = tracker.update(b)
        assert not linked and kept is tracker.masks[0]
        assert [int(mask.sum()) for mask in tracker.masks] == [9, 9]

    def test_track_masks_are_read_only(self):
        # a write through track.masks used to empty a finished track in place
        _, ground_truth = moving_square_scene(3, 8, 2, (1, 0))
        given = np.stack([square_mask(8, 1, 1, 2)] * 2)
        for masks_track in (ground_truth, MaskTrack(masks=given)):
            with pytest.raises(ValueError, match="read-only"):
                masks_track.masks[:] = False
            assert masks_track.masks.any()
        assert given.flags.writeable  # the caller's array is not frozen
