"""Shared channel builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from umco import BSSCParams, bssc_channel, channel_from_kernel

# Property tests draw the same examples on every run (no example database,
# no random seed) and few enough of them to keep the suite fast.
settings.register_profile("deterministic", derandomize=True, database=None, max_examples=40, deadline=None)
settings.load_profile("deterministic")


def bssc(alpha, beta):
    return bssc_channel(BSSCParams(alpha, beta))


def bibo_channel(a1=0.9, a2=0.2, a3=0.1, a4=0.4):
    """Binary unit-memory channel with P(b=0 | b_prev, a) = (a1, a2; a3, a4)."""
    kernel = np.zeros((2, 2, 2))
    kernel[0, 0] = (a1, 1 - a1)
    kernel[0, 1] = (a2, 1 - a2)
    kernel[1, 0] = (a3, 1 - a3)
    kernel[1, 1] = (a4, 1 - a4)
    return channel_from_kernel(kernel, name="bibo")


def embedded_dmc(rows):
    """Memoryless channel P(b|a) embedded as a unit-memory kernel (b_prev ignored)."""
    rows = np.asarray(rows, dtype=float)
    n_out = rows.shape[1]
    kernel = np.broadcast_to(rows, (n_out, *rows.shape)).copy()
    return channel_from_kernel(kernel, name="embedded-dmc")


def bsc_rows(crossover):
    return np.array([[1 - crossover, crossover], [crossover, 1 - crossover]])


def random_channel(rng, n_states=2, n_inputs=2):
    kernel = rng.random((n_states, n_inputs, n_states)) + 1e-3
    kernel /= kernel.sum(axis=2, keepdims=True)
    return channel_from_kernel(kernel)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
