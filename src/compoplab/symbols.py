"""Analytic self-maps of the unit disk.

Every symbol evaluates vectorized on complex arrays, maps the open disk
into the closed disk, and reports singular evaluations instead of
returning NaN.  Maps that are polynomials (the identity, rotations,
constants) are `ExplicitSeries`.

Principal powers and logarithms are plain `**` and `np.log`: the
arguments 1 +- z of the lens map, (1 - z)/4 of the cusp map and -log g of
the Shapiro-Taylor map (|g| <= eps < 1) have real part > 0 on the open
disk, in float64 too, so they never meet the cut on the negative real
axis.  The one reachable cut is the square root of the half-disk map,
whose argument lies in the closed upper half-plane by construction; at
some points with |z| = 1 - 2^-53 it lands exactly on the negative real
axis, so `_upper_sqrt` takes the root as the limit from above.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .series import _circle_nodes

__all__ = [
    "SingularEvaluationError",
    "Symbol",
    "Lens",
    "Cusp",
    "BlaschkeSquare",
    "ShapiroTaylor",
    "Compose",
    "ExplicitSeries",
    "shipped_symbols",
]


class SingularEvaluationError(ArithmeticError):
    """A symbol was evaluated at or too close to one of its singularities."""


def _upper_sqrt(w: np.ndarray) -> np.ndarray:
    """Square root of a point of the closed upper half-plane, taken from
    above on the negative real axis (where Im w may read -0.0); elsewhere
    the principal root, bit for bit."""
    return np.sqrt(w.real + 1j * np.abs(w.imag))


class Symbol(abc.ABC):
    """Base class: an analytic map of the open disk into the closed disk."""

    @abc.abstractmethod
    def _raw(self, z: np.ndarray) -> np.ndarray:
        """Evaluate without domain or finiteness checks."""

    @property
    def real_coefficients(self) -> bool:
        """True when every Taylor coefficient of phi is real, so that
        phi(conj z) = conj(phi(z)) and the matrix of C_phi is real.  A fact
        about the map, declared by each class; False unless declared."""
        return False

    def evaluate(self, z):
        """Evaluate at points of the open disk (scalar or array)."""
        arr = np.asarray(z, dtype=complex)
        if np.any(np.abs(arr) >= 1.0):
            raise ValueError("evaluation point outside the open unit disk")
        out = self._raw(arr)
        if not np.all(np.isfinite(out)):
            raise SingularEvaluationError(
                f"{type(self).__name__} produced a non-finite value inside the disk"
            )
        if arr.ndim == 0:
            return complex(out)
        return out

    def strip_image(self, alpha):
        """The map in strip coordinates: beta = 2 artanh(phi(tanh(alpha/2))).

        alpha lies in the strip |Im alpha| < pi/2, which tanh(alpha/2) maps
        onto the disk with the points +-1 at Re alpha -> +-inf.  This
        generic form rounds phi near the boundary, so it is accurate only
        away from boundary contact; symbols with contact override it.
        """
        return 2.0 * np.arctanh(self.evaluate(np.tanh(np.asarray(alpha, dtype=complex) / 2.0)))


@dataclass(frozen=True)
class Lens(Symbol):
    """Lens map with contact exponent theta in (0, 1].

    lambda_theta(z) = ((1+z)^theta - (1-z)^theta) / ((1+z)^theta + (1-z)^theta)

    with principal powers.  It fixes +-1, pinches boundary contact like
    |t|^theta, and satisfies the semigroup law
    lambda_theta o lambda_theta' = lambda_{theta*theta'}; theta = 1 is the
    identity.
    """

    theta: float
    real_coefficients = True

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"lens exponent must lie in (0, 1], got {self.theta}")

    def _raw(self, z):
        if self.theta == 1.0:  # by convention the exponent-one lens is the identity
            return z
        a = (1.0 + z) ** self.theta
        b = (1.0 - z) ** self.theta
        return (a - b) / (a + b)

    def strip_image(self, alpha):
        """Exactly theta * alpha: ((1+z)/(1-z))^theta = e^(theta alpha)."""
        return self.theta * np.asarray(alpha, dtype=complex)


@dataclass(frozen=True)
class Cusp(Symbol):
    """Cusp map chi(z) = (w - 1)/(w + 1) with w = -Log((1-z)/4).

    |(1-z)/4| <= 1/2 on the closed disk, so Re w >= log 2 > 0 everywhere
    and the only boundary contact is at z = 1, where
    1 - chi = 2/(w + 1) gives the contact law
    |1 - chi*(e^{it})| ~ 2 / log(1/|t|).  That single logarithmic contact
    makes the pullback mass of a boundary window of size h exponentially
    small (~ e^{-2/h}).  (A denominator of 2 instead of 4 would create a
    second, polynomial contact at z = -1 and destroy this smallness.)
    """

    real_coefficients = True

    def _raw(self, z):
        w = -np.log((1.0 - z) / 4.0)
        return (w - 1.0) / (w + 1.0)


@dataclass(frozen=True)
class BlaschkeSquare(Symbol):
    """B(z) = ((z-a)/(1-az))^2, 0 < a < 1: two-valent, B(D \\ {0}) = D."""

    a: float
    real_coefficients = True

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"Blaschke parameter must lie in (0, 1), got {self.a}")

    def _raw(self, z):
        return ((z - self.a) / (1.0 - self.a * z)) ** 2


def _half_disk_map(z: np.ndarray) -> np.ndarray:
    """Conformal map of the disk onto {Re > 0, |.| < 1}, sending 1 to 0.

    Built from the Moebius map m(z) = (z-i)/(iz-1) (disk onto the upper
    half-plane), its square root (onto the first quadrant), and the
    inverse Moebius map.
    """
    m = (z - 1j) / (1j * z - 1.0)
    s = _upper_sqrt(m)
    return (s - 1j) / (-1j * s + 1.0)


@dataclass(frozen=True)
class ShapiroTaylor(Symbol):
    """Shapiro-Taylor map exp(-f_theta o g_theta), f_theta(z) = z(-log z)^theta.

    g_theta maps the disk onto the half-disk sector V_eps = {Re > 0, |.| < eps};
    the induced composition operator is compact for every theta > 0 and
    Hilbert-Schmidt exactly for theta > 2.
    """

    theta: float
    real_coefficients = True

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError(f"exponent must be positive, got {self.theta}")

    @property
    def eps(self) -> float:
        """min(1/2, e^{-2 theta}): keeps z(-log z)^theta a self-map factory on V_eps."""
        return min(0.5, math.exp(-2.0 * self.theta))

    def _raw(self, z):
        g = self.eps * _half_disk_map(z)
        if np.any(g == 0.0):
            raise SingularEvaluationError("inner map hit the logarithmic singularity at 0")
        f = g * (-np.log(g)) ** self.theta
        return np.exp(-f)

    def strip_image(self, alpha):
        """2 artanh(phi) in strip coordinates, free of cancellation at z = 1.

        With z = tanh(alpha/2): 1 - z = 2/(1 + e^alpha), the Moebius step
        of the half-disk map is -m = tanh(alpha/2 - i pi/4), and the map
        itself is (1-i)(1-z) / ((1-iz)(1+sqrt(-m))^2) with
        sqrt(-m) = -i sqrt(m), the root of m taken from above as in
        `evaluate`, so the closed line Im alpha = pi/2 is a limit from
        inside.  Then 1 - phi = -expm1(-f) and beta = log((1+phi)/(1-phi)).
        """
        alpha = np.asarray(alpha, dtype=complex)
        z = np.tanh(alpha / 2.0)
        root = -1j * _upper_sqrt(-np.tanh(alpha / 2.0 - 0.25j * math.pi))
        g = self.eps * (1.0 - 1.0j) * (2.0 / (1.0 + np.exp(alpha)))
        g = g / ((1.0 - 1.0j * z) * (1.0 + root) ** 2)
        gap = -np.expm1(-g * (-np.log(g)) ** self.theta)
        return np.log((2.0 - gap) / gap)


@dataclass(frozen=True)
class Compose(Symbol):
    outer: Symbol
    inner: Symbol

    @property
    def real_coefficients(self) -> bool:
        return self.outer.real_coefficients and self.inner.real_coefficients

    def _raw(self, z):
        return self.outer._raw(self.inner._raw(z))


@dataclass(frozen=True)
class ExplicitSeries(Symbol):
    """Symbol given by the Taylor coefficients c_0..c_K of a polynomial (a
    non-empty 1-d sequence, cast to complex) and evaluated by Horner's rule;
    rejects a polynomial that leaves the closed disk on a fine circle (its
    maximum modulus lies there)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        object.__setattr__(self, "coeffs", c)
        m = max(1 << 12, 16 * c.size)
        top = float(np.max(np.abs(self._raw(_circle_nodes(1.0, m)))))
        if top > 1.0 + 1e-9:
            raise ValueError(f"polynomial is not a self-map: max |p| = {top:.6g} > 1 on the circle")

    @property
    def real_coefficients(self) -> bool:
        return bool(np.all(self.coeffs.imag == 0.0))

    def _raw(self, z):
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out


def shipped_symbols() -> dict:
    """The roster of evaluable symbols exercised by the test and experiment suite."""
    half = ExplicitSeries([0.0, 0.5])
    return {
        "identity": ExplicitSeries([0.0, 1.0]),
        "rotation": ExplicitSeries([0.0, np.exp(1j * math.pi / math.sqrt(2.0))]),
        "scalar-half": ExplicitSeries([0.5]),
        "half-map": half,
        "lens-half": Lens(0.5),
        "lens-quarter": Lens(0.25),
        "cusp": Cusp(),
        "blaschke-square": BlaschkeSquare(0.5),
        "blaschke-lens": Compose(BlaschkeSquare(0.5), Lens(0.5)),
        "blaschke-half-map": Compose(BlaschkeSquare(0.5), half),
        "shapiro-taylor-2": ShapiroTaylor(2.0),
    }
