"""Walk-on-spheres harmonic measure on a spiral graph channel.

The region of interest is Omega = {x + iy : x > 0, g(x) < y < g(x) + 4pi}
for a continuous decreasing g with g(pi) = pi, g(0+) = +inf, g(inf) = 0
(default g(t) = pi^2/t).  Harmonic measure from the base point pi + 3i pi
is sampled by jumping to uniform points on disks of certified radius
until absorption within eps of the boundary; the boundary set
{e^{-Re w} > 1 - h} then measures the level sets of the induced symbol
e^{-f} without constructing the conformal map f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HarmonicMeasureEstimate",
    "DiskRegion",
    "HalfPlaneRegion",
    "GraphChannel",
    "distance_lower_bound",
    "wos_harmonic_measure",
    "wos_harmonic_measures",
    "level_set_tail",
    "covering_count",
]

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
DEFAULT_ALPHA = 5.0 * math.pi
DEFAULT_BASE = complex(math.pi, 3.0 * math.pi)


@dataclass(frozen=True)
class HarmonicMeasureEstimate:
    """Monte Carlo boundary-hit probability with a 95% normal CI."""

    probability: float
    ci_halfwidth: float
    samples: int
    eps_absorb: float
    seed: int
    n_far_field: int = 0
    n_step_capped: int = 0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.ci_halfwidth < 0.0:
            raise ValueError("ci_halfwidth must be >= 0")


def _default_g(t):
    return math.pi**2 / t


def _default_slope_bound(lo, hi):
    # |g'(t)| = pi^2/t^2 is decreasing, so the sup over [lo, hi] sits at lo
    return math.pi**2 / lo**2


@dataclass(frozen=True)
class DiskRegion:
    """Test harness: disk of known radius, exact distance function."""

    center: complex = 0.0 + 0.0j
    radius: float = 1.0
    base_point: complex = 0.0 + 0.0j

    def contains(self, p) -> np.ndarray:
        return np.abs(np.asarray(p) - self.center) < self.radius

    def distance_vector(self, p: np.ndarray) -> np.ndarray:
        return self.radius - np.abs(p - self.center)

    def far_mask(self, p: np.ndarray) -> np.ndarray:
        return np.zeros(p.shape, dtype=bool)

    def far_scores(self, p, predicates):
        raise RuntimeError("disk region has no far field")


@dataclass(frozen=True)
class HalfPlaneRegion:
    """Test harness: upper half-plane; walks beyond |p| > cutoff score zero.

    Valid for target sets within O(1) of the origin: the chance of
    returning from |p| ~ 1e6 to hit such a set is O(1e-6).
    """

    base_point: complex = 0.0 + 1.0j
    cutoff: float = 1e6

    def contains(self, p) -> np.ndarray:
        return np.asarray(p).imag > 0

    def distance_vector(self, p: np.ndarray) -> np.ndarray:
        return p.imag

    def far_mask(self, p: np.ndarray) -> np.ndarray:
        return np.abs(p) > self.cutoff

    def far_scores(self, p, predicates):
        return [np.zeros(p.shape, dtype=float) for _ in predicates]


@dataclass(frozen=True)
class GraphChannel:
    """Omega = {x + iy : x > 0, g(x) < y < g(x) + 4pi}.

    g and g_slope_bound must accept numpy arrays; g_slope_bound(lo, hi)
    returns a certified bound on sup |g'| over [lo, hi].  Walks past
    x > far_x are scored by the flat channel closed form: exit-top
    probability (y - g(x))/4pi.
    """

    g: Callable = _default_g
    g_slope_bound: Callable = _default_slope_bound
    alpha: float = DEFAULT_ALPHA
    base_point: complex = DEFAULT_BASE
    far_x: float = 1e4

    def __post_init__(self):
        grid = np.geomspace(1e-4, 1e6, 64)
        vals = np.asarray(self.g(grid), dtype=float)
        if np.any(np.diff(vals) >= 0):
            raise ValueError("g must be strictly decreasing")
        if abs(float(self.g(np.array([math.pi]))[0]) - math.pi) > 1e-9:
            raise ValueError("g must be normalized by g(pi) = pi")
        if vals[0] < 100.0 or vals[-1] > 0.1:
            raise ValueError("g must blow up at 0+ and vanish at +inf")
        if not bool(np.all(self.contains(np.asarray([self.base_point])))):
            raise ValueError("base point must lie inside the channel")

    def contains(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=complex)
        x, y = p.real, p.imag
        safe_x = np.where(x > 0, x, 1.0)
        g = np.where(x > 0, self.g(safe_x), np.inf)
        return (x > 0) & (y > g) & (y < g + FOUR_PI)

    def distance_vector(self, p: np.ndarray) -> np.ndarray:
        """Certified lower bound on dist(p, boundary).

        Boundary points with |u - x| > Delta are at least Delta away; those
        within the horizon lie on graphs of slope at most L, so each
        vertical gap shrinks by at most 1/sqrt(1 + L^2).  Three rounds of
        shrinking the horizon to the current candidate distance give a
        fixed point from above.
        """
        x, y = p.real, p.imag
        g = self.g(x)
        gap_lo = y - g
        gap_hi = g + FOUR_PI - y
        gap = np.minimum(gap_lo, gap_hi)
        delta = np.minimum(x * 0.5, gap)
        for _ in range(3):
            slope = self.g_slope_bound(x - delta, x + delta)
            delta = np.minimum(delta, gap / np.sqrt(1.0 + slope * slope))
        return delta

    def far_mask(self, p: np.ndarray) -> np.ndarray:
        return p.real > self.far_x

    def far_scores(self, p: np.ndarray, predicates):
        """Flat-channel closed form: split between top and bottom exits."""
        x, y = p.real, p.imag
        g = self.g(x)
        w_top = np.clip((y - g) / FOUR_PI, 0.0, 1.0)
        top = x + 1j * (g + FOUR_PI)
        bottom = x + 1j * g
        return [
            w_top * pred(top).astype(float) + (1.0 - w_top) * pred(bottom).astype(float)
            for pred in predicates
        ]


def distance_lower_bound(region, p: complex) -> float:
    """Scalar certified distance; rejects points outside the region."""
    arr = np.asarray([p], dtype=complex)
    if not bool(np.all(region.contains(arr))):
        raise ValueError(f"point {p} lies outside the region")
    return float(region.distance_vector(arr)[0])


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(iteration,))
    return np.random.Generator(np.random.Philox(ss))


def wos_harmonic_measures(
    region,
    targets: Sequence[Callable[[np.ndarray], np.ndarray]],
    samples: int = 10**6,
    eps_absorb: float = 1e-6,
    seed: int = 0,
    step_cap: int = 10**6,
) -> list[HarmonicMeasureEstimate]:
    """Walk-on-spheres estimates of several boundary sets from one ensemble.

    All trajectories start at region.base_point, jump to uniform points on
    the circle of certified radius, and are absorbed once the radius drops
    below eps_absorb; each target predicate is scored on the absorbed
    point.  Deterministic given the seed: the angle used by trajectory i at
    step k is a fixed function of (seed, k) and the surviving order.
    """
    if eps_absorb <= 0:
        raise ValueError("eps_absorb must be positive")
    if samples < 1:
        raise ValueError("need at least one trajectory")
    if step_cap < 1:
        raise ValueError(f"step_cap must be >= 1, got {step_cap}")
    scores = np.zeros(len(targets))
    n_far = 0
    n_capped = 0
    iteration = 0
    p = np.full(samples, complex(region.base_point), dtype=complex)
    while True:
        n_active = p.size
        if n_active == 0:
            break
        if iteration >= step_cap:
            n_capped = n_active
            break
        far = region.far_mask(p)
        if np.any(far):
            far_pts = p[far]
            for i, sc in enumerate(region.far_scores(far_pts, targets)):
                scores[i] += float(sc.sum())
            n_far += far_pts.size
            p = p[~far]
            if p.size == 0:
                break
        d = region.distance_vector(p)
        absorb = d < eps_absorb
        if np.any(absorb):
            hit = p[absorb]
            for i, pred in enumerate(targets):
                scores[i] += float(np.count_nonzero(pred(hit)))
            p = p[~absorb]
            d = d[~absorb]
        if p.size:
            rng = _iteration_rng(seed, iteration)
            angles = rng.uniform(0.0, TWO_PI, p.size)
            p = p + d * np.exp(1j * angles)
        iteration += 1

    completed = samples - n_capped
    if completed == 0:
        raise RuntimeError(
            f"all {n_capped} walks hit step_cap={step_cap} before absorption; no estimate"
        )
    out = []
    for i in range(len(targets)):
        prob = scores[i] / completed
        ci = 1.96 * math.sqrt(max(prob * (1.0 - prob), 0.0) / completed)
        out.append(
            HarmonicMeasureEstimate(
                probability=min(max(prob, 0.0), 1.0),
                ci_halfwidth=ci,
                samples=completed,
                eps_absorb=eps_absorb,
                seed=seed,
                n_far_field=n_far,
                n_step_capped=n_capped,
            )
        )
    return out


def wos_harmonic_measure(region, target, **kwargs) -> HarmonicMeasureEstimate:
    return wos_harmonic_measures(region, [target], **kwargs)[0]


def level_set_tail(region: GraphChannel, h: float, **kwargs) -> HarmonicMeasureEstimate:
    """Harmonic measure of {w on the boundary : e^{-Re w} > 1 - h}.

    This equals the level-set mass m({|phi*| > 1 - h}) of the symbol
    phi = e^{-f} by conformal invariance, with no construction of f.
    """
    if not 0.0 < h <= 0.5:
        raise ValueError(f"level parameter must lie in (0, 1/2], got {h}")
    cut = -math.log1p(-h)
    return wos_harmonic_measure(region, lambda pts: pts.real < cut, **kwargs)


def covering_count(region: GraphChannel, w: complex | np.ndarray) -> int | np.ndarray:
    """Number of solutions z in Omega of e^{-z} = w; always 1 or 2.

    Solutions are z = x + iy with x = -log|w| and y = -arg(w) mod 2pi; the
    open vertical section (g(x), g(x) + 4pi) of length exactly 4pi
    contains two such y except when an endpoint collides (then one).
    Accepts a scalar (returns an int) or an array (returns an int array).
    """
    w = np.asarray(w, dtype=complex)
    mod = np.abs(w)
    if not np.all((0.0 < mod) & (mod < 1.0)):
        raise ValueError("argument must lie in the punctured open disk")
    x = -np.log(mod)
    y0 = (-np.arctan2(w.imag, w.real)) % TWO_PI
    lo = region.g(x)
    hi = lo + FOUR_PI
    k_start = np.floor((lo - y0) / TWO_PI) - 1.0
    count = np.zeros(w.shape, dtype=int)
    for k in range(5):
        y = y0 + TWO_PI * (k_start + k)
        count += (lo < y) & (y < hi)
    return int(count) if count.ndim == 0 else count
