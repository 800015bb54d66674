"""Truncated power series on the unit disk.

`PowerSeries` holds Taylor coefficients and evaluates them by Horner's
rule.  The sampling circle of the discrete Cauchy integral that recovers
the coefficients of the powers phi^k (`operators._grid_power_columns`)
is set here.  For a truncation K (coefficients of degree < K, so order
K - 1) the radius is exp(-8/(K-1)) and the sample count is 8K rounded up
to a power of two: 16,384 at K = 2048.  A symbol with real Taylor
coefficients is sampled on the first half of that circle only (the other
half holds the conjugates), and its sections are real float64 matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_ORDER",
    "PowerSeries",
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


@dataclass(frozen=True)
class PowerSeries:
    """Taylor coefficients c_0..c_K of a truncated power series."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, z):
        """Evaluate the truncated polynomial (Horner)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out


def _circle_nodes(radius: float, samples: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(samples) / samples)
