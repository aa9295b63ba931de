import tracemalloc

import numpy as np
import pytest

from latentmix.core import RandomSource, make_schedule

# Desk-scale schedule: noisy terminal level (alpha_bar_T ~ 7.7e-5) at T=64,
# small enough for exhaustive sweeps in tests.
DESK_T = 64
DESK_SHAPE = (4, 8, 8)


@pytest.fixture
def desk_schedule():
    return make_schedule(DESK_T, 0.02, 0.25, "linear")


@pytest.fixture
def rng():
    return RandomSource(1234)


def random_latent(rng: RandomSource, shape=DESK_SHAPE) -> np.ndarray:
    return rng.normal(shape)


def traced_peak(fn, *args) -> int:
    """Run fn(*args); returns the peak bytes allocated above the level at the
    call, as tracemalloc counts them.  numpy reports its array buffers to
    tracemalloc, so the count is deterministic, unlike a timing."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
