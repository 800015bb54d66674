"""The sampling circle of the coefficient transform.

The discrete Cauchy integral that recovers the coefficients of the
powers phi^k (`operators._grid_power_columns`) samples phi on a circle
set here.  For a truncation K (coefficients of degree < K, so order
K - 1) the radius is exp(-8/(K-1)) and the sample count is 8K rounded up
to a power of two: 16,384 at K = 2048.  A symbol with real Taylor
coefficients is sampled on the first half of that circle only (the other
half holds the conjugates), and its sections are real float64 matrices.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_ORDER",
    "default_radius",
    "default_sample_count",
]

# Dense-coefficient envelope; operator matrices stay <= MAX_ORDER^2.
MAX_ORDER = 4096


def default_radius(order: int) -> float:
    """Sampling radius exp(-8/order): alias decay ~e^-64 against amplification e^8."""
    return math.exp(-8.0 / max(order, 1))


def default_sample_count(order: int) -> int:
    """8*(order+1) rounded up to a power of two."""
    return 1 << max(3, math.ceil(math.log2(8 * (order + 1))))


def _circle_nodes(radius: float, samples: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(samples) / samples)
