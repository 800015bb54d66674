import numpy as np
import pytest

import compoplab as C


def strip_lattice(x_lo, x_hi, dx, rows):
    """Strip nodes x + iy, x in [x_lo, x_hi] with step dx, y in rows."""
    xs = np.arange(x_lo, x_hi + dx / 2, dx)
    return np.concatenate([xs + 1j * y for y in rows])


@pytest.fixture(scope="session")
def roster():
    return C.shipped_symbols()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
