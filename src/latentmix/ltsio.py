"""Binary tensor file format for latent sequences and mask stacks.

Layout: magic "LTS1", then five little-endian u32 (F, C, H, W, flags), then
F*C*H*W float32 little-endian values in frame-major, channel, row, column
order.  Flag bit 0 marks a mask payload: C must be 1 and every value must be
exactly 0.0 or 1.0.  That is one rule, core.check_mask on shape
(F, 1, H, W): write_lts applies it before writing, and read_lts applies it
to what it read and raises its error as FormatError naming the path.  No
other flag bit is defined, so flags is 0 or 1.

All writers go through an atomic temp-file + rename so a crashed process
never leaves a half-written file behind.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .core import LatentSequence, all_finite, as_real_array, check_level, check_mask
from .errors import FormatError, ParameterError

MAGIC = b"LTS1"
FLAG_MASK = 1
_HEADER = struct.Struct("<4s5I")


def atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like chunks, in order, to path via a temp file in the
    same directory + rename.  A chunk may be any C-contiguous buffer, such
    as a numpy array, and is written without being copied.  If any chunk
    fails to write, path is left as it was and the temp file is removed.
    The file gets the mode open() would give it: 0o666 less the umask."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # O_EXCL: never open a file that is already there; O_BINARY exists only on Windows
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_lts(path, data: np.ndarray, flags: int = 0) -> None:
    """Serialize a (F, C, H, W) float array; payload is stored as float32."""
    flags = check_level(flags, 0, FLAG_MASK, "LTS flags")  # 0 or FLAG_MASK, the one defined bit
    if flags & FLAG_MASK:
        data = check_mask(data, (None, 1, None, None), "mask payload")
    data = as_real_array(data, "LTS payload")
    if data.ndim != 4 or min(data.shape) < 1:
        raise ParameterError(f"LTS payload must be (F, C, H, W), got shape {data.shape}")
    # Check what is stored: a finite float64 beyond the float32 range would
    # be written as inf, which read_lts rejects.
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(data, dtype="<f4")
    if not all_finite(payload):
        raise ParameterError("LTS payload contains non-finite values")
    header = _HEADER.pack(MAGIC, *data.shape, flags)
    atomic_write_bytes(path, header, payload)


def read_lts(path) -> tuple[np.ndarray, int]:
    """Read an LTS file; returns (float64 (F, C, H, W) array, flags)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, f, c, h, w, flags = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if flags & ~FLAG_MASK:
        raise FormatError(f"{path}: unknown flag bits {flags:#x}")
    if min(f, c, h, w) < 1:
        raise FormatError(f"{path}: degenerate dimensions ({f}, {c}, {h}, {w})")
    expected = _HEADER.size + 4 * f * c * h * w
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw) - _HEADER.size} does not match header")
    # Scan the stored float32 values: widening keeps every inf and nan, and
    # the float32 scan reads half the bytes.
    stored = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    if not all_finite(stored):
        raise FormatError(f"{path}: payload contains non-finite values")
    data = stored.astype(np.float64).reshape(f, c, h, w)
    if flags & FLAG_MASK:
        try:
            check_mask(data, (None, 1, None, None), "mask payload")
        except ParameterError as e:
            raise FormatError(f"{path}: {e}") from None
    return data, flags


def save_sequence(path, seq: LatentSequence) -> None:
    write_lts(path, seq.data, flags=0)


def load_sequence(path) -> LatentSequence:
    data, flags = read_lts(path)
    if flags & FLAG_MASK:
        raise FormatError(f"{path}: expected latent payload, found mask payload")
    return LatentSequence._checked(data)  # read_lts has scanned the payload


def save_masks(path, masks: np.ndarray) -> None:
    """Store a (F, H, W) mask stack, checked by core.check_mask, as a
    mask-flagged LTS file."""
    write_lts(path, check_mask(masks, (None, None, None), "mask stack")[:, None], flags=FLAG_MASK)


def load_masks(path) -> np.ndarray:
    data, flags = read_lts(path)
    if not flags & FLAG_MASK:
        raise FormatError(f"{path}: expected mask payload (flag bit 0)")
    return data[:, 0].astype(bool)
