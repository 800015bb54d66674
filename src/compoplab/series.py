"""Truncated power series on the unit disk.

Coefficients are recovered from evaluable analytic functions by a discrete
Cauchy integral on an interior circle, and powers are formed by
pointwise powering on the sampling grid (one transform per power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MAX_ORDER",
    "PowerSeries",
    "default_radius",
    "default_sample_count",
    "extract_coefficients",
    "series_mul",
    "series_pow",
]

# Dense-coefficient envelope; operator matrices stay <= MAX_ORDER^2.
MAX_ORDER = 4096


def default_radius(order: int) -> float:
    """Sampling radius exp(-8/K): alias decay ~e^-64 against amplification e^8."""
    return math.exp(-8.0 / max(order, 1))


def default_sample_count(order: int) -> int:
    """8*(K+1) rounded up to a power of two."""
    return 1 << max(3, math.ceil(math.log2(8 * (order + 1))))


@dataclass(frozen=True)
class PowerSeries:
    """Taylor coefficients c_0..c_K plus a bound on their extraction error."""

    coeffs: np.ndarray
    alias_error: float = 0.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        object.__setattr__(self, "coeffs", c)
        if not (np.isfinite(self.alias_error) and self.alias_error >= 0.0):
            raise ValueError(f"alias_error must be finite and >= 0, got {self.alias_error}")

    @property
    def truncation_order(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        """Evaluate the truncated polynomial (Horner)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out


def _circle_nodes(radius: float, samples: int) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(samples) / samples)


def extract_coefficients(
    f: Callable[[np.ndarray], np.ndarray],
    order: int,
    radius: float | None = None,
    samples: int | None = None,
) -> PowerSeries:
    """Discrete Cauchy integral: c_k ~ (1/(M r^k)) sum_m f(r w^m) w^{-km}.

    The alias bound r^M/(1-r^M) assumes sup_D |f| <= 1; two lower bounds of
    sup_D |f| are checked against 1.  Deterministic.
    """
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
    r = default_radius(order) if radius is None else float(radius)
    m = default_sample_count(order) if samples is None else int(samples)
    if not 0.0 < r < 1.0:
        raise ValueError(f"sampling radius must lie in (0, 1), got {r}")
    if m <= order:
        raise ValueError(f"sample count {m} must exceed the order {order}")
    values = np.asarray(f(_circle_nodes(r, m)), dtype=complex)
    if values.shape != (m,):
        raise ValueError("function must evaluate elementwise on a complex grid")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ArithmeticError(
            f"non-finite sample at node {bad} of {m} (radius {r}); "
            "the function was evaluated at or near a singularity"
        )
    hats = np.fft.fft(values)[: order + 1] / (m * r ** np.arange(order + 1))
    # max |f| on the circle and the l2 norm of the coefficients (the H^2
    # norm, up to alias and rounding) both bound sup_D |f| from below
    top = max(float(np.max(np.abs(values))), float(np.linalg.norm(hats)))
    if top > 1.0 + 1e-9:
        raise ArithmeticError(
            f"sup |f| >= {top:.6g} > 1 (sampling circle and coefficient norm); "
            "the alias bound needs sup |f| <= 1"
        )
    rm = r**m
    return PowerSeries(hats, alias_error=rm / (1.0 - rm))


def series_mul(p: PowerSeries, q: PowerSeries, order: int | None = None) -> PowerSeries:
    """Cauchy product truncated at `order` (default: max of the inputs)."""
    if order is None:
        order = max(p.truncation_order, q.truncation_order)
    c = np.convolve(p.coeffs, q.coeffs)[: order + 1]
    if c.size < order + 1:
        c = np.pad(c, (0, order + 1 - c.size))
    # first-order error propagation through the bilinear product
    amp_p = float(np.sum(np.abs(p.coeffs)))
    amp_q = float(np.sum(np.abs(q.coeffs)))
    err = p.alias_error * amp_q + q.alias_error * amp_p
    return PowerSeries(c, alias_error=err)


def series_pow(p: PowerSeries, k: int, order: int | None = None) -> PowerSeries:
    """Coefficients of p(z)^k truncated at `order`.

    Computed by pointwise powering on a sampling circle followed by one
    transform, so the cost is O(M log M) per power instead of k
    convolutions.  For a polynomial input the only error is the mod-z^M
    alias, bounded by P(1)^k r^M/(1-r^M) with P(1) = sum |c_j|.
    """
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    if order is None:
        order = p.truncation_order
    if k == 0:
        one = np.zeros(order + 1, dtype=complex)
        one[0] = 1.0
        return PowerSeries(one, alias_error=0.0)

    # coefficients above `order` cannot reach the kept coefficients of p^k
    coeffs = p.coeffs[: order + 1]
    r = default_radius(order)
    m = default_sample_count(order)
    amp = float(np.sum(np.abs(coeffs)))
    if amp == 0.0:
        return PowerSeries(np.zeros(order + 1, dtype=complex), alias_error=0.0)
    log_amp_k = k * math.log(amp) if amp > 0 else -math.inf
    rm = r**m
    log_alias = log_amp_k + math.log(rm / (1.0 - rm))
    if log_alias > 700.0 or log_amp_k > 700.0:
        raise OverflowError(
            f"p^{k} overflows the grid method (sum|c_j|={amp:.3g}); "
            "reduce the exponent or rescale the series"
        )

    padded = np.zeros(m, dtype=complex)
    padded[: coeffs.size] = coeffs * r ** np.arange(coeffs.size)
    values = np.fft.ifft(padded) * m
    hats = np.fft.fft(values**k)[: order + 1] / (m * r ** np.arange(order + 1))

    alias = math.exp(log_alias)
    inherited = k * max(amp, 1.0) ** (k - 1) * p.alias_error if p.alias_error else 0.0
    return PowerSeries(hats, alias_error=alias + inherited)
