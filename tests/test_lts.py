import errno
import hashlib
import os
import re
import struct
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentmix.core import LatentSequence, RandomSource, check_mask
from latentmix.errors import FormatError, ParameterError
from latentmix import ltsio
from latentmix.ltsio import (
    FLAG_MASK,
    atomic_write_bytes,
    load_masks,
    load_sequence,
    read_lts,
    save_masks,
    save_sequence,
    write_lts,
)

from conftest import traced_peak


def test_sequence_round_trip(tmp_path):
    # float32-representable values survive the round trip exactly
    data = RandomSource(4).normal((3, 4, 8, 8)).astype(np.float32).astype(np.float64)
    path = tmp_path / "seq.lts"
    save_sequence(path, LatentSequence(data))
    back = load_sequence(path)
    assert np.array_equal(back.data, data)


def test_header_layout(tmp_path):
    path = tmp_path / "a.lts"
    write_lts(path, np.zeros((2, 3, 4, 5)))
    raw = path.read_bytes()
    magic, f, c, h, w, flags = struct.unpack_from("<4s5I", raw)
    assert magic == b"LTS1"
    assert (f, c, h, w, flags) == (2, 3, 4, 5, 0)
    assert len(raw) == 24 + 4 * 2 * 3 * 4 * 5


def test_file_bytes_pinned(tmp_path):
    # float32-exact values, so the file is fixed by the format alone
    data = (np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5) - 60.0) / 8.0
    path = tmp_path / "pinned.lts"
    write_lts(path, data)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6eb88a2e1036ba8e8df535d5ddb3955d3f37607ee808409a03268f3eb15eea0f"
    )


def test_payload_order_is_frame_major(tmp_path):
    data = np.arange(2 * 1 * 2 * 2, dtype=np.float64).reshape(2, 1, 2, 2)
    path = tmp_path / "o.lts"
    write_lts(path, data)
    raw = np.frombuffer(path.read_bytes()[24:], dtype="<f4")
    assert np.array_equal(raw, np.arange(8, dtype=np.float32))


def test_mask_round_trip(tmp_path):
    masks = np.random.default_rng(9).random((5, 8, 8)) > 0.5
    path = tmp_path / "masks.lts"
    save_masks(path, masks)
    assert struct.unpack_from("<4s5I", path.read_bytes())[5] == FLAG_MASK
    assert np.array_equal(load_masks(path), masks)


def test_read_lts_returns_bool_for_a_mask_file(tmp_path):
    masks = np.random.default_rng(9).random((5, 1, 8, 8)) > 0.5
    path = tmp_path / "masks.lts"
    write_lts(path, masks)
    back = read_lts(path)
    assert back.dtype == bool and np.array_equal(back, masks)
    # a numeric 0/1 array is a latent payload, read back as float32
    write_lts(path, masks.astype(np.float64))
    assert struct.unpack_from("<4s5I", path.read_bytes())[5] == 0
    assert read_lts(path).dtype == np.float32


def test_read_lts_returns_a_latent_file_as_stored(tmp_path):
    # the stored float32 values, bit for bit, with nothing widened
    path = tmp_path / "seq.lts"
    write_lts(path, RandomSource(13).normal((3, 2, 5, 7)) * 3.0)
    raw = path.read_bytes()
    back = read_lts(path)
    assert back.dtype == np.float32
    assert back.tobytes() == np.frombuffer(raw[24:], "<f4").reshape(3, 2, 5, 7).tobytes()


def test_write_rejects_a_size_beyond_the_header(tmp_path):
    # the header stores each size as a u32; a broadcast view allocates nothing
    data = np.broadcast_to(np.float64(1), (2**32, 1, 1, 1))
    with pytest.raises(ParameterError, match=r"^LTS payload must be \(F, C, H, W\), got shape \(4294967296, 1, 1, 1\)$"):
        write_lts(tmp_path / "huge.lts", data)
    assert os.listdir(tmp_path) == []


def test_mask_flag_enforced_on_write(tmp_path):
    # a bool payload is a mask, so it has one channel; nothing may reach the disk
    with pytest.raises(ParameterError, match=r"^LTS payload must be \(F, 1, H, W\), got shape \(1, 2, 2, 2\)$"):
        write_lts(tmp_path / "x.lts", np.ones((1, 2, 2, 2), dtype=bool))
    with pytest.raises(ParameterError, match="^mask stack values must be exactly 0 or 1$"):
        save_masks(tmp_path / "y.lts", np.full((1, 2, 2), 0.5))  # non-binary
    assert os.listdir(tmp_path) == []


def test_save_masks_checks_the_stack_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return check_mask(*args)

    monkeypatch.setattr(ltsio, "check_mask", counted)
    save_masks(tmp_path / "m.lts", np.ones((2, 3, 4), dtype=bool))
    assert calls == ["mask stack"]


def test_read_rejects_undefined_flags(tmp_path):
    path = tmp_path / "f2.lts"
    header = struct.pack("<4s5I", b"LTS1", 1, 1, 1, 1, 2)
    path.write_bytes(header + struct.pack("<f", 0.0))
    with pytest.raises(FormatError, match="unknown flag bits"):
        read_lts(path)


def test_mask_flag_enforced_on_read(tmp_path):
    # a value other than 0.0/1.0, and two channels of valid mask values
    for name, c, values in [("value.lts", 1, [0.25]), ("channels.lts", 2, [1.0, 0.0])]:
        path = tmp_path / name
        header = struct.pack("<4s5I", b"LTS1", 1, c, 1, 1, FLAG_MASK)
        path.write_bytes(header + struct.pack(f"<{c}f", *values))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            read_lts(path)


def test_kind_mismatch_on_load(tmp_path):
    path = tmp_path / "m.lts"
    save_masks(path, np.ones((1, 2, 2), dtype=bool))
    with pytest.raises(FormatError):
        load_sequence(path)
    path2 = tmp_path / "s.lts"
    save_sequence(path2, LatentSequence(np.zeros((1, 1, 2, 2))))
    with pytest.raises(FormatError):
        load_masks(path2)


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.lts"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(FormatError):
        read_lts(path)
    good = tmp_path / "good.lts"
    write_lts(good, np.zeros((1, 1, 2, 2)))
    truncated = tmp_path / "trunc.lts"
    truncated.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(FormatError):
        read_lts(truncated)
    short = tmp_path / "short.lts"
    short.write_bytes(b"LTS")
    with pytest.raises(FormatError):
        read_lts(short)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_read_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "bad.lts"
    header = struct.pack("<4s5I", b"LTS1", 1, 1, 1, 2, 0)
    path.write_bytes(header + struct.pack("<2f", 0.5, bad))
    with pytest.raises(FormatError, match="payload contains non-finite values$"):
        read_lts(path)
    # load_sequence trusts read_lts's scan, so it must raise the same way
    with pytest.raises(FormatError, match="payload contains non-finite values$"):
        load_sequence(path)


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(ParameterError):
        write_lts(tmp_path / "nan.lts", np.full((1, 1, 2, 2), np.nan))


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_write_rejects_values_beyond_float32(tmp_path, value):
    # finite in float64 but inf once stored; nothing may reach the disk
    data = np.zeros((1, 1, 2, 2))
    data[0, 0, 1, 0] = value
    path = tmp_path / "big.lts"
    with pytest.raises(ParameterError, match="non-finite"):
        write_lts(path, data)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, 1e39])
def test_payload_fails_before_any_file_is_touched(tmp_path, monkeypatch, bad):
    # a payload that cannot be stored fails on its own, even aimed at a
    # directory that does not exist, and no file is ever opened
    opened = []
    real_open = os.open

    def recording_open(*args):
        opened.append(args)
        return real_open(*args)

    monkeypatch.setattr(ltsio.os, "open", recording_open)
    data = np.zeros((2, 1, 2, 2))
    data[-1, -1, -1, -1] = bad
    with pytest.raises(ParameterError, match="^LTS payload contains non-finite values$"):
        write_lts(tmp_path / "missing" / "x.lts", data)
    assert opened == []


def test_write_and_read_through_a_bytes_path(tmp_path):
    data = np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5) / 8.0
    path = os.fsencode(tmp_path / "x.lts")
    write_lts(path, data)
    assert np.array_equal(read_lts(path), data)
    assert os.listdir(tmp_path) == ["x.lts"]


F32_MAX = float(np.finfo(np.float32).max)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-F32_MAX, max_value=F32_MAX, allow_nan=False) | st.sampled_from([F32_MAX, -F32_MAX]),
        min_size=1,
        max_size=24,
    )
)
def test_accepted_payload_reads_back(tmp_path_factory, values):
    # every float32-range array the writer takes is one the reader takes,
    # including sums that overflow float32
    data = np.array(values, dtype=np.float64).reshape(len(values), 1, 1, 1)
    path = tmp_path_factory.mktemp("lts") / "seq.lts"
    write_lts(path, data)
    back = read_lts(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, data.astype(np.float32).astype(np.float64))


def test_payload_whose_float32_sum_of_squares_overflows_reads_back(tmp_path):
    # (1e20)^2 is beyond float32, so the finiteness scan's dot product
    # overflows on write and on read; neither may warn or reject
    data = np.full((2, 1, 3, 4), 1e20)
    data[1] = -3e20
    path = tmp_path / "big.lts"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_lts(path, data)
        back = read_lts(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, data.astype(np.float32).astype(np.float64))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "seq.lts"
    for _ in range(3):
        save_sequence(path, LatentSequence(np.zeros((1, 1, 2, 2))))
    assert os.listdir(tmp_path) == ["seq.lts"]


def test_atomic_write_joins_chunks(tmp_path):
    path = tmp_path / "chunks.bin"
    atomic_write_bytes(path, [b"ab", memoryview(b"cd"), np.arange(2, dtype="<f4")])
    assert path.read_bytes() == b"abcd" + np.arange(2, dtype="<f4").tobytes()


def test_atomic_write_failed_chunk_keeps_target(tmp_path):
    path = tmp_path / "target.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, [b"new", object()])  # no buffer: fails before the temp file
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["target.bin"]


def test_atomic_write_failed_generator_keeps_target(tmp_path):
    path = tmp_path / "target.bin"
    path.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise RuntimeError("no more chunks")

    with pytest.raises(RuntimeError, match="no more chunks"):
        atomic_write_bytes(path, chunks())
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["target.bin"]


def test_atomic_write_preallocates_before_writing(tmp_path, monkeypatch):
    path = tmp_path / "traj.lts"
    data = np.zeros((3, 4, 5, 6))
    write_lts(path, data)  # the write replaces an existing file
    calls = []

    def recorder(fd, offset, size):
        st = os.fstat(fd)
        calls.append((st.st_ino, st.st_size, offset, size))

    monkeypatch.setattr(os, "posix_fallocate", recorder, raising=False)
    write_lts(path, data)
    size = 24 + 4 * data.size
    # one call, on the temp file that became path, while it was still empty
    assert calls == [(os.stat(path).st_ino, 0, 0, size)]
    assert path.stat().st_size == size


def failing_allocation(code):
    def allocate(fd, offset, size):
        raise OSError(getattr(errno, code), os.strerror(getattr(errno, code)))

    return allocate


def test_atomic_write_failed_cleanup_keeps_the_chunk_error(tmp_path, monkeypatch):
    # the allocation fails once the temp file exists, and so does its removal
    path = tmp_path / "target.bin"
    path.write_bytes(b"old")
    unlinked = []

    def failing_unlink(name):
        unlinked.append(name)
        raise OSError(errno.EACCES, "unlink refused")

    monkeypatch.setattr(os, "posix_fallocate", failing_allocation("ENOSPC"), raising=False)
    monkeypatch.setattr(ltsio.os, "unlink", failing_unlink)
    with pytest.raises(OSError) as info:
        atomic_write_bytes(path, [b"n", b"ew"])
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == b"old"
    # the temp file the failed unlink left behind is the only other file
    assert [os.path.basename(name) for name in unlinked] == sorted(set(os.listdir(tmp_path)) - {"target.bin"})
    assert len(unlinked) == 1


@pytest.mark.parametrize("code", ["ENOSPC", "EDQUOT"])
def test_atomic_write_allocation_failure_keeps_target(tmp_path, monkeypatch, code):
    path = tmp_path / "traj.lts"
    write_lts(path, np.zeros((2, 1, 2, 2)))
    old = path.read_bytes()
    monkeypatch.setattr(os, "posix_fallocate", failing_allocation(code), raising=False)
    with pytest.raises(OSError) as info:
        write_lts(path, np.ones((2, 1, 2, 2)))
    assert info.value.errno == getattr(errno, code)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["traj.lts"]


@pytest.mark.parametrize("code", ["EINVAL", "EOPNOTSUPP", None], ids=["EINVAL", "EOPNOTSUPP", "no-posix_fallocate"])
def test_write_without_preallocation_stores_the_same_bytes(tmp_path, monkeypatch, code):
    data = RandomSource(13).normal((7, 4, 5, 6))
    write_lts(tmp_path / "allocated.lts", data)
    if code is None:  # as on macOS and Windows
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    else:
        monkeypatch.setattr(os, "posix_fallocate", failing_allocation(code), raising=False)
    write_lts(tmp_path / "plain.lts", data)
    assert (tmp_path / "plain.lts").read_bytes() == (tmp_path / "allocated.lts").read_bytes()


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_written_files_get_the_umask_mode(tmp_path, umask, mode):
    # a renamed mkstemp file used to keep mkstemp's 0o600 under any umask
    previous = os.umask(umask)
    try:
        write_lts(tmp_path / "x.lts", np.zeros((1, 1, 2, 2)))
        atomic_write_bytes(tmp_path / "y.bin", [b"y"])
    finally:
        os.umask(previous)
    for name in ("x.lts", "y.bin"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode


# What a call may hold beyond its input, payload or result: the finiteness
# scan's bool temporary in the worst case, and Python objects.
SLACK = 64 * 1024
TRAJECTORY = (51, 4, 40, 64)  # the bench's 50-hop trajectory at video scale


def test_save_sequence_memory_budget(tmp_path):
    # the float32 payload, cast once; no second copy and no bytes copy
    seq = LatentSequence(RandomSource(10).normal(TRAJECTORY))
    path = tmp_path / "traj.lts"
    save_sequence(path, seq)  # warm-up
    peak = traced_peak(save_sequence, path, seq)
    assert peak <= seq.data.nbytes // 2 + SLACK


def test_read_lts_memory_budget(tmp_path):
    # the float32 result, read into in place; no float64 copy
    seq = LatentSequence(RandomSource(10).normal(TRAJECTORY))
    path = tmp_path / "traj.lts"
    save_sequence(path, seq)
    read_lts(path)  # warm-up
    peak = traced_peak(read_lts, path)
    assert peak <= seq.data.nbytes // 2 + SLACK


def test_read_checks_size_before_allocating(tmp_path):
    # a header claiming 2**48 values over a 24-byte file fails on its size,
    # before the result is allocated
    path = tmp_path / "huge.lts"
    path.write_bytes(struct.pack("<4s5I", b"LTS1", 65535, 65535, 65535, 1, 0))

    def read():
        with pytest.raises(FormatError, match="does not match header"):
            read_lts(path)

    assert traced_peak(read) < 1 << 20


def test_read_rejects_degenerate_dimensions(tmp_path, monkeypatch):
    # a zero dimension passes the payload size check with no payload, so the
    # dimensions are checked first; no array is made before the header is
    # rejected, which taking numpy away from the module shows
    path = tmp_path / "empty.lts"
    path.write_bytes(struct.pack("<4s5I", b"LTS1", 0, 1, 2, 2, 0))
    monkeypatch.setattr(ltsio, "np", None)
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: degenerate dimensions \(0, 1, 2, 2\)$"):
        read_lts(path)


def test_short_read_is_a_format_error(tmp_path, monkeypatch):
    # a file that shrinks after its size was checked ends mid-payload
    path = tmp_path / "short.lts"
    write_lts(path, np.zeros((3, 1, 2, 2)))
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-4])
    monkeypatch.setattr(ltsio.os, "fstat", lambda fd: types.SimpleNamespace(st_size=full))
    with pytest.raises(FormatError, match="payload ends before the size its header gives"):
        read_lts(path)


# large payloads: a 51-frame trajectory at video scale, and two frames of
# 360 KB each.  The test names still say "block" after a fixed I/O block
# the reader and writer no longer have: "frame-above-block" is a frame of
# more than 256 KB, and a "last block" test puts its bad value in the
# payload's last element.
LARGE = [(51, 4, 40, 64), (2, 1, 300, 300)]


@pytest.mark.parametrize("shape", LARGE, ids=["51-frames", "frame-above-block"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, bool])
def test_blocked_write_matches_whole_payload_cast(tmp_path, shape, dtype):
    values = RandomSource(11).normal(shape)
    # not float32-exact, and integers beyond 2**24
    data = {
        np.float64: values * 3.0,
        np.float32: (values * 3.0).astype(np.float32),
        np.int64: (values * 2**40).astype(np.int64),
        bool: values > 0,
    }[dtype]
    if dtype is np.int64:
        # rounds to 2**60 + 2**36 in float64, then to even 2**60 in float32;
        # a direct cast to float32 gives 2**60 + 2**37
        data[-1, -1, -1, -1] = 2**60 + 2**36 + 1
    flags = FLAG_MASK if dtype is bool else 0
    if flags:
        data = data[:, :1]
    path = tmp_path / "large.lts"
    write_lts(path, data)
    stored = np.asarray(data, dtype=np.float64).astype("<f4")
    assert path.read_bytes() == struct.pack("<4s5I", b"LTS1", *data.shape, flags) + stored.tobytes()
    back = read_lts(path)
    assert back.dtype == (bool if flags else np.float32)
    assert np.array_equal(back, data if flags else stored.astype(np.float64))


@pytest.mark.parametrize("shape", LARGE, ids=["51-frames", "frame-above-block"])
@pytest.mark.parametrize("bad", [np.nan, 1e39])
def test_non_finite_in_last_block_leaves_no_file(tmp_path, shape, bad):
    data = np.zeros(shape)
    data[-1, -1, -1, -1] = bad
    path = tmp_path / "traj.lts"
    with pytest.raises(ParameterError, match="non-finite"):
        write_lts(path, data)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("shape", LARGE, ids=["51-frames", "frame-above-block"])
def test_read_rejects_non_finite_in_last_block(tmp_path, shape):
    path = tmp_path / "traj.lts"
    write_lts(path, np.zeros(shape))
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="payload contains non-finite values$"):
        read_lts(path)


# large mask payloads: a 70-frame stack at video scale, and two frames of 360 KB each
MASK_LARGE = [(70, 1, 40, 64), (2, 1, 300, 300)]


@pytest.mark.parametrize("shape", MASK_LARGE, ids=["70-frames", "frame-above-block"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
def test_read_rejects_non_binary_mask_in_last_block(tmp_path, shape, bad):
    path = tmp_path / "masks.lts"
    write_lts(path, np.ones(shape, dtype=bool))
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: mask payload values must be exactly 0 or 1$"):
        read_lts(path)


MASK_STACK = (16, 40, 64)  # the bench's mask stack at video scale


def test_load_masks_memory_budget(tmp_path):
    # the float32 payload, the bool result its check returns and the check's
    # bool temporary; no float64 copy of the stack and no other temporary
    masks = np.random.default_rng(12).random(MASK_STACK) > 0.5
    path = tmp_path / "masks.lts"
    save_masks(path, masks)
    load_masks(path)  # warm-up
    peak = traced_peak(load_masks, path)
    payload = 4 * masks.size
    assert peak <= masks.nbytes + payload + payload // 4 + SLACK
