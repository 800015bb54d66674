"""Closed forms for the composition operator of an affine self-map
phi(z) = a z + b of the disk (|a| + |b| <= 1).

With delta = 2|a| / (1 - |b|^2 + |a|^2) and r = (1 - sqrt(1 - delta^2)) / delta,
the approximation numbers are a_n = ||C_phi|| r^(n-1), where

    ||C_phi||^2 = 2 / (1 + |a|^2 - |b|^2 + sqrt((1 - |a|^2 + |b|^2)^2 - 4|b|^2))

is Cowen's norm of C_phi on H^2, and the Hilbert-Schmidt norm is their
square sum, ||C_phi||_HS^2 = ||C_phi||^2 / (1 - r^2).  Every quantity is
exact, so the sections, the Hilbert-Schmidt partial sums and the kernel
lower bounds of the lab are checked against them without a reference run.
"""

import math

import numpy as np


def affine_norm_sq(a: complex, b: complex) -> float:
    """||C_phi||^2 on H^2(D) for phi(z) = a z + b."""
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    return 2.0 / (1.0 + a2 - b2 + math.sqrt((1.0 - a2 + b2) ** 2 - 4.0 * b2))


def affine_ratio(a: complex, b: complex) -> float:
    """r, the ratio a_(n+1) / a_n of consecutive approximation numbers."""
    delta = 2.0 * abs(a) / (1.0 - abs(b) ** 2 + abs(a) ** 2)
    return (1.0 - math.sqrt(1.0 - delta * delta)) / delta


def affine_approximation_numbers(a: complex, b: complex, count: int) -> np.ndarray:
    """a_1, ..., a_count: ||C_phi|| r^(n-1)."""
    return math.sqrt(affine_norm_sq(a, b)) * affine_ratio(a, b) ** np.arange(count)


def affine_hs_norm_sq(a: complex, b: complex) -> float:
    """||C_phi||_HS^2 = ||C_phi||^2 / (1 - r^2)."""
    return affine_norm_sq(a, b) / (1.0 - affine_ratio(a, b) ** 2)
