"""Binary tensor file format for latent sequences and mask stacks.

Layout: magic "LTS1", then five little-endian u32 (F, C, H, W, flags), then
F*C*H*W float32 little-endian values in frame-major, channel, row, column
order.  Flag bit 0 marks a mask payload, and no other bit is defined.

The payload's kind is its array's dtype, so no caller passes flags.  write_lts
takes in two kinds: a bool (F, 1, H, W) array is a mask, flag bit 0 set, and
any other real array is a latent, flags 0, cast once to float64 by
core.as_real_array (a float64 array, as save_sequence passes, is not copied).
Either is stored as float32.  A file reads back as it is stored: read_lts
gives a mask file back as a bool (F, 1, H, W) array and any other file as the
stored float32 (F, C, H, W) array, which the library's entry points widen
through core.check_latent when they are given it.  Each payload goes through
one rule, once.  A latent payload is scanned for inf and nan as stored, on
write and on read.  A bool payload needs no scan on write; on read, the stored
mask payload must pass core.check_mask (every value exactly 0.0 or 1.0, which
also rules out inf and nan).  read_lts raises its failures as FormatError
naming the path.

All writers go through atomic_write_bytes: a temp file in the target's
directory, preallocated to the payload's size, then renamed over the target,
so a reader sees the old file or the new one, never a part.  Nothing is
fsynced: a write survives a crash of the process, not a loss of power.
Because the temp file's blocks are allocated before it is written, ext4's
writeback of a file renamed over another (auto_da_alloc) does not fire; the
library never relied on it, and it cost about 0.7 ms of a 2 MB write (2-vCPU
host, ext4 with default mount options).

A read is one readinto of the whole payload into its float32 result, which
the check then scans in place.  So read_lts holds that float32 payload and its
check's temporaries, and for a mask file the bool result as well.  A write is
the mirror image: write_lts casts its input once to the float32 payload, scans
a latent payload once, and hands the header and payload to atomic_write_bytes
in one call, so it holds its input (cast to float64 when it is a latent), the
float32 payload and its scan's temporaries.  Every check of the payload runs
before the first file-system call.
"""

from __future__ import annotations

import errno
import os
import struct

import numpy as np

from .core import LatentSequence, _asarray, all_finite, as_real_array, check_mask, check_type
from .errors import FormatError, ParameterError

MAGIC = b"LTS1"
FLAG_MASK = 1
_HEADER = struct.Struct("<4s5I")


def atomic_write_bytes(path, chunks) -> None:
    """Write the bytes-like chunks of an iterable, in order, to path via a
    temp file in the same directory + rename.  Every chunk is taken in as a
    memoryview before the temp file is created, and the file is allocated up
    front to their total size.  A chunk may be any C-contiguous buffer, such
    as a numpy array, and is written without being copied.  If a chunk is
    not a buffer, nothing is created; if a write fails, or the space cannot
    be allocated, path is left as it was and the temp file is removed.  The
    file gets the mode open() would give it: 0o666 less the umask."""
    views = [memoryview(chunk) for chunk in chunks]
    path = os.fsdecode(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    # O_EXCL: never open a file that is already there; O_BINARY exists only on Windows
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            _preallocate(fd, sum(view.nbytes for view in views))
            fh.writelines(views)
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


def write_lts(path, data: np.ndarray) -> None:
    """Serialize a (F, C, H, W) real array; payload is stored as float32.  A
    bool array is a mask payload, (F, 1, H, W), and is flagged FLAG_MASK;
    any other is a latent payload, taken in as float64.  Each size must lie
    in [1, 2**32 - 1], the range of the header's u32 fields."""
    data = _asarray(data, "LTS payload")
    flags = FLAG_MASK if data.dtype == bool else 0
    data = data if flags else as_real_array(data, "LTS payload")
    if data.ndim != 4 or not 0 < min(data.shape) <= max(data.shape) < 2**32 or flags and data.shape[1] != 1:
        raise ParameterError(f"LTS payload must be (F, {1 if flags else 'C'}, H, W), got shape {data.shape}")
    with np.errstate(over="ignore"):
        payload = data.astype("<f4", order="C")
    # Check what is stored: a finite float64 beyond the float32 range is
    # stored as inf, which read_lts rejects.  A mask payload is all 0.0 and
    # 1.0, so it needs no scan.
    if not flags and not all_finite(payload):
        raise ParameterError("LTS payload contains non-finite values")
    atomic_write_bytes(path, (_HEADER.pack(MAGIC, *data.shape, flags), payload))


def read_lts(path) -> np.ndarray:
    """Read an LTS file: a mask file as a bool (F, 1, H, W) array, any other
    as its stored float32 (F, C, H, W) array.  The header is checked against
    the file's size before anything is allocated, and the payload is read
    with one readinto."""
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
        data = np.empty((f, c, h, w), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise FormatError(f"{path}: payload ends before the size its header gives")
    if flags:
        # the mask rule admits only 0.0 and 1.0, so a mask needs no finiteness scan
        try:
            return check_mask(data, (None, 1, None, None), "mask payload")
        except ParameterError as e:
            raise FormatError(f"{path}: {e}") from None
    if not all_finite(data):
        raise FormatError(f"{path}: payload contains non-finite values")
    return data


def save_sequence(path, seq: LatentSequence) -> None:
    write_lts(path, check_type(seq, LatentSequence, "seq").data)


def load_sequence(path) -> LatentSequence:
    data = read_lts(path)
    if data.dtype == bool:
        raise FormatError(f"{path}: expected latent payload, found mask payload")
    return LatentSequence._checked(data)  # read_lts has scanned the float32 payload


def save_masks(path, masks: np.ndarray) -> None:
    """Store a (F, H, W) mask stack, checked by core.check_mask, as a
    mask-flagged LTS file."""
    write_lts(path, check_mask(masks, (None, None, None), "mask stack")[:, None])


def load_masks(path) -> np.ndarray:
    data = read_lts(path)
    if data.dtype != bool:
        raise FormatError(f"{path}: expected mask payload (flag bit 0)")
    return data[:, 0]
