"""Binary tensor file format for latent sequences and mask stacks.

Layout: magic "LTS1", then five little-endian u32 (F, C, H, W, flags), then
F*C*H*W float32 little-endian values in frame-major, channel, row, column
order.  Flag bit 0 marks a mask payload, and no other bit is defined.

The payload's kind is its array's dtype, so no caller passes flags.  write_lts
takes in two kinds: a bool (F, 1, H, W) array is a mask, flag bit 0 set, and
any other real array is a latent, flags 0, cast once to float64 by
core.as_real_array (a float64 array, as save_sequence passes, is not copied).
Either is stored as float32.  read_lts gives a mask file back as a bool (F, 1,
H, W) array and any other file as float64.  Each payload goes through one
rule, once, block by block.  A latent block is scanned for inf and nan as
stored, on write and on read.  A bool payload needs no scan on write; on read,
each stored mask block must pass core.check_mask (every value exactly 0.0 or
1.0, which also rules out inf and nan).  read_lts raises its failures as
FormatError naming the path.

All writers go through atomic_write_bytes: a temp file in the target's
directory, preallocated to the payload's size, then renamed over the target,
so a reader sees the old file or the new one, never a part.  Nothing is
fsynced: a write survives a crash of the process, not a loss of power.
Because the temp file's blocks are allocated before it is written, ext4's
writeback of a file renamed over another (auto_da_alloc) does not fire; the
library never relied on it, and it cost about 0.7 ms of a 2 MB write (2-vCPU
host, ext4 with default mount options).

The payload moves through one float32 block of whole frames, BLOCK_BYTES or
one frame, whichever is larger: write_lts casts, scans and writes it block by
block, and read_lts reads, checks and converts it block by block into its
result.  So besides its input, cast to float64 when it is a latent, or its
result, a call holds at most one block, max(256 KB, one frame), and its
check's temporaries.
"""

from __future__ import annotations

import errno
import itertools
import math
import os
import struct

import numpy as np

from .core import LatentSequence, _asarray, all_finite, as_real_array, check_level, check_mask, check_type
from .errors import FormatError, ParameterError

MAGIC = b"LTS1"
FLAG_MASK = 1
_HEADER = struct.Struct("<4s5I")
# 256 KB: on a 51x4x40x64 trajectory (2-vCPU host, ext4), save_sequence over
# an existing file took 0.76 ms with 64 KB blocks, 0.52 ms with 256 KB and
# 0.53 ms with 1 MB, and load_sequence 0.36, 0.28 and 0.33 ms: smaller blocks
# pay more calls per payload, larger ones save no time for their memory.
BLOCK_BYTES = 1 << 18


def atomic_write_bytes(path, chunks, size: int) -> None:
    """Write the bytes-like chunks of an iterable, in order, to path via a
    temp file in the same directory + rename.  The chunks must hold exactly
    size bytes in all, which the temp file is allocated up front; otherwise
    ParameterError.  The iterable is consumed lazily, one chunk written
    before the next is asked for, so a generator may hand back one reused
    buffer each time.  A chunk may be any C-contiguous buffer, such as a
    numpy array, and is written without being copied.  If any chunk fails to
    be made or written, or the space cannot be allocated, path is left as it
    was and the temp file is removed.  The file gets the mode open() would
    give it: 0o666 less the umask."""
    size = check_level(size, 0, math.inf, "size")
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    # O_EXCL: never open a file that is already there; O_BINARY exists only on Windows
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            _preallocate(fd, size)
            written = sum(map(fh.write, chunks))
        if written != size:
            raise ParameterError(f"chunks hold {written} bytes, not the {size} given as size")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _preallocate(fd: int, size: int) -> None:
    """Allocate the file's first size bytes in one call, where the platform
    can: a full disk (ENOSPC) or quota (EDQUOT) raises here, before any byte
    is written."""
    allocate = getattr(os, "posix_fallocate", None)  # macOS and Windows have none
    if allocate is None:
        return
    try:
        allocate(fd, 0, size)
    except OSError as e:
        # EINVAL: size 0, or a file system that cannot allocate ahead;
        # EOPNOTSUPP: a C library that does not emulate it there
        if e.errno not in (errno.EINVAL, errno.EOPNOTSUPP):
            raise


def _block(shape: tuple) -> np.ndarray:
    """The (rows, C, H, W) float32 block for a payload of that shape: whole
    frames, at most BLOCK_BYTES of them, but never fewer than one frame."""
    f, c, h, w = shape
    return np.empty((max(1, min(f, BLOCK_BYTES // (4 * c * h * w))), c, h, w), dtype="<f4")


def _encoded(data: np.ndarray):
    """Yield the stored float32 values of a float64 or bool array through one
    reused block, each block cast and scanned before it is handed on."""
    block = _block(data.shape)
    for i in range(0, len(data), len(block)):
        out = block[: len(data) - i]
        with np.errstate(over="ignore"):
            np.copyto(out, data[i : i + len(out)], casting="unsafe")
        # Check what is stored: a finite float64 beyond the float32 range
        # is stored as inf, which read_lts rejects.  A bool block is all
        # 0.0 and 1.0, so it needs no scan.
        if data.dtype != bool and not all_finite(out):
            raise ParameterError("LTS payload contains non-finite values")
        yield out


def write_lts(path, data: np.ndarray) -> None:
    """Serialize a (F, C, H, W) real array; payload is stored as float32.  A
    bool array is a mask payload, (F, 1, H, W), and is flagged FLAG_MASK;
    any other is a latent payload, taken in as float64."""
    data = _asarray(data, "LTS payload")
    flags = FLAG_MASK if data.dtype == bool else 0
    data = data if flags else as_real_array(data, "LTS payload")
    if data.ndim != 4 or min(data.shape) < 1 or flags and data.shape[1] != 1:
        raise ParameterError(f"LTS payload must be (F, {1 if flags else 'C'}, H, W), got shape {data.shape}")
    header = _HEADER.pack(MAGIC, *data.shape, flags)
    atomic_write_bytes(path, itertools.chain((header,), _encoded(data)), len(header) + 4 * data.size)


def read_lts(path) -> np.ndarray:
    """Read an LTS file: a mask file as a bool (F, 1, H, W) array, any other
    as a float64 (F, C, H, W) array.  The header is checked against the
    file's size before anything is allocated."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, f, c, h, w, flags = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if flags & ~FLAG_MASK:
            raise FormatError(f"{path}: unknown flag bits {flags:#x}")
        if min(f, c, h, w) < 1:
            raise FormatError(f"{path}: degenerate dimensions ({f}, {c}, {h}, {w})")
        if flags and c != 1:  # flags is now 0 or FLAG_MASK
            raise FormatError(f"{path}: mask payload must have one channel, got {c}")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != 4 * f * c * h * w:
            raise FormatError(f"{path}: payload size {payload} does not match header")
        data = np.empty((f, c, h, w), dtype=bool if flags else np.float64)
        block = _block(data.shape)
        for i in range(0, f, len(block)):
            stored = block[: f - i]
            if fh.readinto(stored) != stored.nbytes:
                raise FormatError(f"{path}: payload ends before the size its header gives")
            # Check the stored float32 values: widening keeps every inf and
            # nan, and the float32 scan reads half the bytes.  The mask rule
            # admits only 0.0 and 1.0, so a mask needs no finiteness scan.
            if flags:
                try:
                    stored = check_mask(stored, (None, 1, None, None), "mask payload")
                except ParameterError as e:
                    raise FormatError(f"{path}: {e}") from None
            elif not all_finite(stored):
                raise FormatError(f"{path}: payload contains non-finite values")
            data[i : i + len(stored)] = stored
    return data


def save_sequence(path, seq: LatentSequence) -> None:
    write_lts(path, check_type(seq, LatentSequence, "seq").data)


def load_sequence(path) -> LatentSequence:
    data = read_lts(path)
    if data.dtype == bool:
        raise FormatError(f"{path}: expected latent payload, found mask payload")
    return LatentSequence._checked(data)  # read_lts has scanned the payload


def save_masks(path, masks: np.ndarray) -> None:
    """Store a (F, H, W) mask stack, checked by core.check_mask, as a
    mask-flagged LTS file."""
    write_lts(path, check_mask(masks, (None, None, None), "mask stack")[:, None])


def load_masks(path) -> np.ndarray:
    data = read_lts(path)
    if data.dtype != bool:
        raise FormatError(f"{path}: expected mask payload (flag bit 0)")
    return data[:, 0]
