"""Latent containers, noise schedules, the seeded random source, and the
library's rules: check_level, check_levels, check_real, check_type,
check_method, as_real_array, check_latent and check_mask.

Latent frames are plain float64 arrays of shape (C, H, W); sequences stack
them into (F, C, H, W).  A sequence loaded from an LTS file holds the stored
float32 values; every entry point widens a latent it is given to float64
through check_latent.  All stochastic code draws from RandomSource so that
a run is a pure function of its seed.  The package's value types that hold
arrays compare and hash by identity (eq=False): numpy's == on two arrays has
no single truth value.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ParameterError

# scaled_linear over 1000 steps with this beta range is the common latent
# diffusion operating point; used as the config default.
DEFAULT_T = 1000
# make_schedule's peak is about 33 bytes per level, 3.3 MB here; NoiseSchedule has no cap
MAX_T = 100_000
DEFAULT_BETA_START = 0.00085
DEFAULT_BETA_END = 0.012
_FLOAT64 = np.dtype(np.float64)


def all_finite(x: np.ndarray) -> bool:
    """True when no element of x is inf or nan.

    A finite sum of squares implies finite elements, so one BLAS dot
    product with no temporary settles the common case.  Only when it is not
    finite (a non-finite element, or a sum that overflows: |x| beyond about
    1e154 in float64, 1e19 in float32) does the elementwise scan decide.
    np.vdot, unlike np.dot, does not warn when the sum overflows.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _asarray(x, name: str) -> np.ndarray:
    """np.asarray(x).  A ragged nested sequence, which numpy refuses with its
    own ValueError, is rejected as what it would be as an array: dtype object."""
    try:
        return np.asarray(x)
    except ValueError:
        raise ParameterError(f"{name} must be a real array, got dtype object (a ragged sequence)") from None


def as_real_array(x, name: str) -> np.ndarray:
    """x as a float64 array; a float64 array is not copied.  Bools, integers
    and reals are cast.  Complex, string and object input is rejected: the
    cast would drop an imaginary part or raise numpy's own error."""
    x = _asarray(x, name)
    if x.dtype != _FLOAT64:
        if x.dtype.kind not in "biuf":
            raise ParameterError(f"{name} must be a real array, got dtype {x.dtype}")
        x = x.astype(np.float64)
    return x


def check_latent(x, name: str = "latent", axes: str = "CHW") -> np.ndarray:
    """Coerce to a float64 array with one nonempty axis per letter of axes
    and validate finiteness."""
    x = as_real_array(x, name)
    if x.ndim != len(axes) or 0 in x.shape:
        raise ParameterError(f"{name} must be a nonempty ({', '.join(axes)}) array, got shape {x.shape}")
    if not all_finite(x):
        raise ParameterError(f"{name} contains non-finite values")
    return x


def check_mask(m, shape: tuple, name: str = "mask") -> np.ndarray:
    """Return m as a new bool array of the given shape, None for any size >= 1.
    Its values are bools, or numbers exactly 0 or 1 (the LTS mask rule)."""
    m = _asarray(m, name)
    if m.ndim != len(shape) or 0 in m.shape or any(d not in (None, n) for d, n in zip(shape, m.shape)):
        want = ", ".join("?" if d is None else str(d) for d in shape)
        raise ParameterError(f"{name} must be a nonempty ({want}) array, got shape {m.shape}")
    if m.dtype == bool:
        return m.copy()
    if m.dtype.kind in "iuf":
        out = np.equal(m, 1)
        # each value that is not 0 must be 1: 0.5, 2, -1, inf and nan are
        # nonzero but not 1, and -0.0 is 0
        if np.count_nonzero(out) == np.count_nonzero(m):
            return out
    raise ParameterError(f"{name} values must be exactly 0 or 1")


def check_level(t, lo, hi, name) -> int:
    """Return the level, count or horizon t as an int in [lo, hi].  An int
    or numpy integer passes; a bool or a float never does."""
    if type(t) is not int:
        if not isinstance(t, np.integer):
            raise ParameterError(f"{name} must be an integer, got {t!r}")
        t = int(t)
    if lo <= t <= hi:
        return t
    raise ParameterError(f"{name} must lie in [{lo}, {hi}], got {t}")


def check_levels(seq, lo, hi, name, axes, kind) -> tuple:
    """Return seq as a tuple of ints, one per axis, each put in [lo, hi] by
    check_level under the name f"{name} {axis}".  Anything but a tuple, a
    list or a 1-D array of one entry per axis is rejected whole, as not a
    (C, H, W) triple or a (dx, dy) pair: a set iterates in hash order, a
    dict over its keys and a string by character, so none is read as axes."""
    ordered = isinstance(seq, (tuple, list)) or isinstance(seq, np.ndarray) and seq.ndim == 1
    if not ordered or len(seq) != len(axes):
        raise ParameterError(f"{name} must be a ({', '.join(axes)}) {kind}, got {seq!r}")
    # a list, not a generator: MomentumState.fresh runs this for every queue
    # slot, and tuple() of a generator costs about 0.2 us more per call
    return tuple([check_level(n, lo, hi, f"{name} {axis}") for n, axis in zip(seq, axes)])


def check_real(x, lo, hi, name) -> float:
    """Return the weight, scale or threshold x as a float in [lo, hi].  An int,
    float or numpy number passes; a bool, nan or an infinity never does."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
            raise ParameterError(f"{name} must be a number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:  # an int beyond the float range
            raise ParameterError(f"{name} must be finite, got {x!r}") from None
    if not math.isfinite(x):
        raise ParameterError(f"{name} must be finite, got {x}")
    if lo <= x <= hi:
        return x
    raise ParameterError(f"{name} must lie in [{lo}, {hi}], got {x}")


def check_type(x, cls: type, name: str):
    """Return x if it is a cls, such as a schedule, a parameter object or a
    state.  Anything else is rejected before it is used, where it would fail
    with a bare AttributeError or, worse, not fail: a numpy Generator has a
    .normal too, but reads normal(shape) as normal(loc=shape), so an rng must
    be a RandomSource."""
    if isinstance(x, cls):
        return x
    raise ParameterError(f"{name} must be a {cls.__name__}, got {type(x).__name__}")


def check_method(obj, attr: str, name: str):
    """Return obj's attribute attr if it is callable: a denoiser or a
    segmenter is any object with the one method it is called through."""
    method = getattr(obj, attr, None)
    if callable(method):
        return method
    raise ParameterError(f"{name} must have a callable {attr}, got {type(obj).__name__}")


@dataclasses.dataclass(frozen=True, eq=False)
class LatentSequence:
    """Ordered stack of latent frames, shape (F, C, H, W)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", check_latent(self.data, "sequence", "FCHW"))

    @classmethod
    def _checked(cls, data: np.ndarray) -> "LatentSequence":
        """Wrap a (F, C, H, W) array that its producer has already checked
        finite, without scanning it again: float64 from ddim_invert, or the
        stored float32 from ltsio.load_sequence, which entry points widen
        through check_latent."""
        seq = object.__new__(cls)
        seq.__dict__["data"] = data
        return seq

    def __len__(self) -> int:
        return self.data.shape[0]

    def frame(self, i: int) -> np.ndarray:
        return self.data[i]


@dataclasses.dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Variance schedule, held as its cumulative product alpha_bar[t] for
    t=0..T; the horizon T is read off alpha_bar as len(alpha_bar) - 1.

    alpha_bar is a real 1-D array with at least 2 levels, alpha_bar[0] == 1,
    the sequence is strictly decreasing and its last value is positive.  That
    invariant is equivalent to every implied beta_t = 1 - alpha_bar[t] /
    alpha_bar[t-1] lying in (0, 1).  The schedule keeps a read-only copy of
    alpha_bar, so the invariant holds for its life.
    """

    alpha_bar: np.ndarray
    T: int = dataclasses.field(init=False)

    def __post_init__(self):
        ab = as_real_array(self.alpha_bar, "alpha_bar").copy()
        if ab.ndim != 1 or len(ab) < 2:
            raise ParameterError(f"alpha_bar must be 1-D with at least 2 levels, got shape {ab.shape}")
        if ab[0] != 1.0:
            raise ParameterError("alpha_bar[0] must be 1")
        # written so that a nan anywhere fails: every comparison with nan is False
        if not (np.all(np.diff(ab) < 0.0) and ab[-1] > 0.0):
            raise ParameterError("alpha_bar must be strictly decreasing and positive")
        ab.flags.writeable = False
        object.__setattr__(self, "alpha_bar", ab)
        object.__setattr__(self, "T", len(ab) - 1)


def make_schedule(
    T: int = DEFAULT_T,
    beta_start: float = DEFAULT_BETA_START,
    beta_end: float = DEFAULT_BETA_END,
    kind: str = "scaled_linear",
) -> NoiseSchedule:
    """Build a NoiseSchedule.

    kind "linear" interpolates beta directly; "scaled_linear" interpolates
    in sqrt(beta) space and squares, which front-loads smaller betas.
    """
    T = check_level(T, 1, MAX_T, "T")
    beta_start = check_real(beta_start, -math.inf, math.inf, "beta_start")
    beta_end = check_real(beta_end, -math.inf, math.inf, "beta_end")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    if kind not in ("linear", "scaled_linear"):
        raise ParameterError(f"unknown schedule kind {kind!r}")
    if kind == "linear":
        beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    else:
        beta = np.linspace(beta_start**0.5, beta_end**0.5, T, dtype=np.float64) ** 2
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return NoiseSchedule(alpha_bar)


class RandomSource:
    """Deterministic, splittable random stream.

    Backed by numpy's PCG64 generator; normals come from numpy's ziggurat
    implementation, which is stream-stable for a fixed numpy release.  A
    child stream is a pure function of (root seed, spawn path), never of the
    parent's draw position, so streams can be derived in any order.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = check_level(seed, 0, math.inf, "seed")
        self.path = _path
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, key: int) -> "RandomSource":
        """Derive an independent stream keyed by one integer >= 0: its path is
        the parent's plus key, so child(0).child(3) has the path (0, 3)."""
        return RandomSource(self.seed, (*self.path, check_level(key, 0, math.inf, "spawn key")))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"


def forward_diffuse(x0: np.ndarray, t: int, s: NoiseSchedule, rng: RandomSource) -> np.ndarray:
    """Noise a clean latent to level t: sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps.

    Always consumes one normal draw of x0's shape, including at t=0 where the
    output equals x0 exactly.
    """
    x0, s = check_latent(x0, "x0"), check_type(s, NoiseSchedule, "s")
    ab = s.alpha_bar[check_level(t, 0, s.T, "t")]
    eps = check_type(rng, RandomSource, "rng").normal(x0.shape)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
