"""Pullback measures on the boundary: windows, rho profiles, level sets.

The pullback measure of a symbol phi is estimated from Q equispaced
boundary samples of the radial-limit proxy (`boundary_values`): phi on
the circle of radius r_b = 1 - 1e-8 (`DEFAULT_BOUNDARY_RADIUS`), with a
cross-check radius of 1 - 1e-6 (`CROSSCHECK_BOUNDARY_RADIUS`).  A window
S(xi, h) collects the samples with |phi* - xi| <= h; rho(h) is the
maximum window mass over a grid of centers at spacing h/4, and the level
quantity is the mass of {|phi*| >= 1 - h}.  Equispaced sampling makes
every estimate a deterministic Riemann sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import Symbol

__all__ = [
    "DEFAULT_BOUNDARY_RADIUS",
    "CROSSCHECK_BOUNDARY_RADIUS",
    "CarlesonProfile",
    "boundary_values",
    "rho_profile",
]

DEFAULT_BOUNDARY_RADIUS = 1.0 - 1e-8
CROSSCHECK_BOUNDARY_RADIUS = 1.0 - 1e-6


@dataclass(frozen=True)
class CarlesonProfile:
    """Sampled h -> rho(h) together with level-set masses."""

    h_grid: np.ndarray
    rho_hat: np.ndarray
    level_hat: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h_grid, dtype=float)
        rho = np.asarray(self.rho_hat, dtype=float)
        lev = np.asarray(self.level_hat, dtype=float)
        if not (h.shape == rho.shape == lev.shape):
            raise ValueError("h_grid, rho_hat and level_hat must have equal shapes")
        if np.any(h <= 0) or np.any(np.diff(h) >= 0):
            raise ValueError("h_grid must be positive and strictly decreasing")
        for name, arr in (("rho_hat", rho), ("level_hat", lev)):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} must take values in [0, 1]")
        # both quantities are monotone masses: non-decreasing in h
        if np.any(np.diff(rho) > 1e-15) or np.any(np.diff(lev) > 1e-15):
            raise ValueError("rho_hat and level_hat must be non-decreasing in h")
        object.__setattr__(self, "h_grid", h)
        object.__setattr__(self, "rho_hat", rho)
        object.__setattr__(self, "level_hat", lev)

    @classmethod
    def synthetic(cls, h_grid, rho_fn) -> "CarlesonProfile":
        """Profile built from a closed-form rho law, with zero level masses."""
        h = np.asarray(h_grid, dtype=float)
        rho = np.clip(np.asarray([rho_fn(x) for x in h], dtype=float), 0.0, 1.0)
        return cls(h, rho, np.zeros_like(h))


def boundary_values(spec: Symbol, samples: int, r_b: float = DEFAULT_BOUNDARY_RADIUS):
    """Radial-limit proxy: phi at r_b e^(2 pi i k / Q), k < Q = `samples`."""
    if not 0.0 < r_b < 1.0:
        raise ValueError(f"boundary radius must lie in (0, 1), got {r_b}")
    t = 2.0 * np.pi * np.arange(samples) / samples
    return spec.evaluate(r_b * np.exp(1j * t))


def _max_window_mass(w: np.ndarray, h: float, centers: int) -> int:
    """Maximum number of samples in a window of size h over equispaced centers.

    A sample w is in S(e^{i b}, h) iff b lies in an arc around arg(w) of
    half-width arccos((|w|^2 + 1 - h^2)/(2|w|)); the max coverage over
    centers is found by a sorted sweep, O(Q log Q + G log G) total.
    """
    m = np.abs(w)
    eligible = m >= max(1.0 - h, 1e-12)
    if not np.any(eligible):
        return 0
    m = m[eligible]
    q = (m * m + 1.0 - h * h) / (2.0 * m)
    always = q < -1.0
    base = int(np.count_nonzero(always))
    arcs = (~always) & (q <= 1.0)
    if not np.any(arcs):
        return base
    psi = np.angle(w[eligible][arcs])
    alpha = np.arccos(np.clip(q[arcs], -1.0, 1.0))
    lo = np.mod(psi - alpha, 2.0 * np.pi)
    hi = np.mod(psi + alpha, 2.0 * np.pi)
    wraps = lo > hi
    starts = np.concatenate([lo[~wraps], lo[wraps], np.zeros(np.count_nonzero(wraps))])
    ends = np.concatenate([hi[~wraps], np.full(np.count_nonzero(wraps), 2.0 * np.pi), hi[wraps]])
    starts.sort()
    ends.sort()
    beta = 2.0 * np.pi * np.arange(centers) / centers
    coverage = np.searchsorted(starts, beta, side="right") - np.searchsorted(
        ends, beta, side="left"
    )
    return base + int(coverage.max())


def rho_profile(
    spec: Symbol,
    h_grid=None,
    *,
    samples: int,
    r_b: float = DEFAULT_BOUNDARY_RADIUS,
) -> CarlesonProfile:
    """Estimate rho(h) and the level mass m({|phi*| >= 1-h}) on a grid of h
    (2^-1 down to 2^-10 by default) from `samples` equispaced boundary angles.

    Window centers are spaced at most h/4 apart.
    """
    if h_grid is None:
        h_grid = 2.0 ** -np.arange(1, 11, dtype=float)
    h_grid = np.sort(np.asarray(h_grid, dtype=float))[::-1]
    w = boundary_values(spec, samples, r_b)
    moduli_sorted = np.sort(np.abs(w))

    rho = np.empty_like(h_grid)
    lev = np.empty_like(h_grid)
    for i, h in enumerate(h_grid):
        centers = max(int(np.ceil(8.0 * np.pi / h)), 8)
        rho[i] = _max_window_mass(w, h, centers) / samples
        lev[i] = (samples - np.searchsorted(moduli_sorted, 1.0 - h, side="left")) / samples

    # enforce exact monotonicity against sweep rounding at repeated masses
    rho = np.maximum.accumulate(rho[::-1])[::-1]
    lev = np.maximum.accumulate(lev[::-1])[::-1]
    return CarlesonProfile(h_grid, rho, lev)
