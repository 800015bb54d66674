"""Walk-on-spheres harmonic measure on a spiral graph channel.

The region of interest is Omega = {x + iy : x > 0, g(x) < y < g(x) + 4pi}
with the wall g(t) = pi^2/t: decreasing, g(pi) = pi, g(0+) = +inf and
g(inf) = 0.  Both walls are hyperbolas, xy = pi^2 and x(y - 4pi) = pi^2.
Harmonic measure from the base point pi + 3i pi is sampled by jumping to
uniform points on disks of certified radius, read from the two
hyperbolas' quadratics, until absorption within 1e-6 of the boundary;
the boundary set {e^{-Re w} > 1 - h} then measures the level sets of the
induced symbol e^{-f} without constructing the conformal map f.  The
walks run in cohorts, so memory does not grow with their number, and
two threads share each step's draw of angles.  Hits are counted exactly
and far-field scores summed exactly rounded, so the totals do not depend
on how the walks are cut into cohorts and blocks.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HarmonicMeasureEstimate",
    "DiskRegion",
    "HalfPlaneRegion",
    "GraphChannel",
    "wos_harmonic_measures",
    "covering_count",
]

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
PI_SQ = math.pi**2
# times xy + 4pi x + pi^2, twice a bound on the rounding of either wall's F
# in GraphChannel.distance_vector: 16pi x + 5pi^2 + 2xy unit roundoffs,
# for x, y > 0 with xy > pi^2
_F_ROUNDING = 2.0**-50
# a walk is absorbed once its certified radius drops below _EPS_ABSORB; one
# still active after _STEP_CAP steps is stopped and left out of the estimate
_EPS_ABSORB = 1e-6
_STEP_CAP = 10**6
# walks per block of _absorb_and_compact: the temporaries of
# GraphChannel.distance_vector on one block stay in cache instead of
# streaming whole-ensemble arrays
_DISTANCE_BLOCK = 8192
# walks per cohort of wos_harmonic_measures, which sizes the walk state for
# one cohort; each cohort pays its own tail of a few long walks, about 200
# steps of mostly Python overhead, so smaller cohorts cost run time
_COHORT = 2**18
# angles per chunk of one step's draw, which both threads take in turn
_DRAW_CHUNK = 2**15


@dataclass(frozen=True)
class HarmonicMeasureEstimate:
    """Monte Carlo boundary-hit probability with a 95% normal CI."""

    probability: float
    ci_halfwidth: float
    samples: int
    seed: int
    n_far_field: int = 0
    n_step_capped: int = 0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.ci_halfwidth < 0.0:
            raise ValueError("ci_halfwidth must be >= 0")


class DiskRegion:
    """Test harness: the unit disk at the origin, exact distance function."""

    base_point = 0.0 + 0.0j

    def distance_vector(self, p: np.ndarray) -> np.ndarray:
        return 1.0 - np.abs(p)

    def far_mask(self, p: np.ndarray) -> np.ndarray:
        return np.zeros(p.shape, dtype=bool)

    def far_scores(self, p, predicates):
        raise RuntimeError("disk region has no far field")


class HalfPlaneRegion:
    """Test harness: upper half-plane; walks beyond |p| > cutoff score zero.

    Valid for target sets within O(1) of the origin: the chance of
    returning from |p| ~ 1e6 to hit such a set is O(1e-6).
    """

    base_point = 1j
    cutoff = 1e6

    def distance_vector(self, p: np.ndarray) -> np.ndarray:
        return p.imag

    def far_mask(self, p: np.ndarray) -> np.ndarray:
        return np.abs(p) > self.cutoff

    def far_scores(self, p, predicates):
        return [np.zeros(p.shape, dtype=float) for _ in predicates]


class GraphChannel:
    """Omega = {x + iy : x > 0, g(x) < y < g(x) + 4pi}, g(t) = pi^2/t.

    Walks start at pi + 3i pi.  Walks past x > far_x are scored by the
    flat channel closed form: exit-top probability (y - g(x))/4pi.  The
    spiral experiment's tail sets are Im w > alpha + 1, 2, 3.
    """

    base_point = complex(math.pi, 3.0 * math.pi)
    alpha = 5.0 * math.pi
    far_x = 1e4

    def g(self, t):
        """The lower wall pi^2/t, on arrays."""
        return PI_SQ / t

    def distance_vector(self, p: np.ndarray) -> np.ndarray:
        """Certified lower bound on dist(p, boundary), read from the walls.

        Both walls are hyperbolas, xy = pi^2 and x(y - 4pi) = pi^2, so Omega
        is {F_lo > 0} and {F_up > 0} with F_lo = xy - pi^2 and
        F_up = pi^2 - x(y - 4pi); for x <= 0 the two contradict each other.
        Each F is a quadratic whose second-order part, +-dx dy, is at least
        -r^2/2 on the disk |d| <= r, so F(p + d) >= F - G r - r^2/2 with
        G = |grad F(p)|, |p| for the lower wall and |p - 4pi i| for the
        upper.  The disk stays inside while r <= 2F/(G + sqrt(G^2 + 2F)),
        the radius given for each wall; the smaller of the two is returned.
        Each F is first lowered by 2^-50 (xy + 4pi x + pi^2), twice a bound
        on its rounding for x, y > 0: near a wall F cancels to G times the
        distance, so that rounding would otherwise stand in the radius.
        The rest of the rounding is relative, a few ulps of the radius.
        """
        x, y = p.real, p.imag
        xy = x * y
        s = FOUR_PI * x + PI_SQ
        margin = (xy + s) * _F_ROUNDING
        xx = x * x
        lower = _wall_radius(xy - PI_SQ - margin, xx + y * y)
        upper = _wall_radius(s - xy - margin, xx + (y - FOUR_PI) ** 2)
        return np.minimum(lower, upper)

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


def _wall_radius(f: np.ndarray, g_sq: np.ndarray) -> np.ndarray:
    """The largest r with f - G r - r^2/2 >= 0, G = sqrt(g_sq), in the form
    2f/(G + sqrt(G^2 + 2f)) that does not cancel when f is small."""
    f2 = f + f
    return f2 / (np.sqrt(g_sq) + np.sqrt(g_sq + f2))


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(iteration,))
    return np.random.Generator(np.random.Philox(ss))


def _unit_steps(seed: int, iteration: int, offset: int, out: np.ndarray) -> None:
    """Write into out[0] and out[1] the cos and sin of the out.shape[1]
    angles Philox draws for (seed, iteration), from the offset-th on.  The
    angles are random() * 2pi, the bits of uniform(0, 2pi), which adds 0 to
    that product.  One Philox counter step yields 4 uint64, one per double."""
    angles, sin = out
    rng = _iteration_rng(seed, iteration)
    rng.bit_generator.advance(offset // 4)
    rng.bit_generator.random_raw(offset % 4)
    rng.random(out=angles)
    angles *= TWO_PI
    np.sin(angles, out=sin)
    np.cos(angles, out=angles)


class _StepDraw:
    """The draw of step `iteration` into out, cut into chunks of _DRAW_CHUNK
    columns that threads take from one cursor: column j gets the cos and
    sin of angle offset + j of the step's Philox stream, whichever thread
    draws it."""

    def __init__(self, seed: int, iteration: int, offset: int, out: np.ndarray):
        self.seed, self.iteration, self.offset, self.out = seed, iteration, offset, out
        self.stop = out.shape[1]
        self.cursor = 0
        self.lock = threading.Lock()

    def run(self) -> None:
        """Draw chunks until the cursor reaches the stop."""
        while True:
            with self.lock:
                start = self.cursor
                if start >= self.stop:
                    return
                self.cursor = end = min(start + _DRAW_CHUNK, self.stop)
            _unit_steps(self.seed, self.iteration, self.offset + start, self.out[:, start:end])

    def finish(self, n: int) -> None:
        """Stop the cursor at column n, then draw what is left before it."""
        with self.lock:
            self.stop = min(self.stop, n)
        self.run()


def _absorb_and_compact(region, p: np.ndarray, d: np.ndarray, n: int):
    """Stop the walks p[:n] in the far field and absorb those closer than
    _EPS_ABSORB to the boundary, one _DISTANCE_BLOCK at a time; a far walk
    is not also absorbed.  The survivors' distances and positions move to
    the front of d and p, in order.  Returns the survivor count and the
    far-field and absorbed positions, in order, as two lists of per-block
    arrays."""
    fars, hits = [], []
    m = 0
    for start in range(0, n, _DISTANCE_BLOCK):
        block = p[start : min(start + _DISTANCE_BLOCK, n)]
        dist = region.distance_vector(block)
        far = region.far_mask(block)
        gone = far | (dist < _EPS_ABSORB)
        # dist may be a view of the block, so it moves before the positions
        if np.any(gone):
            for out, pick in ((fars, far), (hits, gone & ~far)):
                if np.any(pick):
                    out.append(block[pick])
            keep = ~gone
            # a Python int: the count reaches Philox.advance, which refuses
            # numpy integers
            end = m + int(np.count_nonzero(keep))
            d[m:end] = dist[keep]
            p[m:end] = block[keep]
        else:
            end = m + block.size
            d[m:end] = dist
            if m != start:
                p[m:end] = block
        m = end
    return m, fars, hits


def wos_harmonic_measures(
    region,
    targets: Sequence[Callable[[np.ndarray], np.ndarray]],
    samples: int = 10**6,
    seed: int = 0,
) -> list[HarmonicMeasureEstimate]:
    """Walk-on-spheres estimates of several boundary sets from one ensemble.

    All trajectories start at region.base_point, jump to uniform points on
    the circle of certified radius, and are absorbed once the radius drops
    below _EPS_ABSORB; each target predicate is scored on the absorbed
    point.  Walks still active after _STEP_CAP steps are stopped and
    counted apart.  Deterministic given the seed: the angle used by
    trajectory i at step k is the i-th Philox uniform keyed by (seed, k),
    i counting the surviving order.

    The region provides base_point; distance_vector(p), a certified lower
    bound on the distance of each point of p to the boundary, which may be
    a view of p; far_mask(p), the walks to stop and score in closed form;
    and far_scores(p, targets), one array of scores per target for them.

    The walks run in cohorts of _COHORT, one after another, in buffers
    sized for one cohort, 56 bytes per walk: positions (complex128),
    distances (float64) and two draw buffers of cos and sin (2 x 2
    float64).  At step k a cohort enters the Philox stream of (seed, k) at
    the count of earlier cohorts' walks that drew at step k.  A draw of n
    values begins with the draw of any m <= n, so one worker thread starts
    to fill one draw buffer for the n walks active at step k while the
    calling thread applies step k - 1 from the other, then stops far-field
    walks and absorbs, one _DISTANCE_BLOCK at a time; the m survivors of
    step k use the first m.  The draw is cut into chunks of _DRAW_CHUNK
    angles that both threads take from one cursor, each chunk entering the
    stream at its own offset: once its absorb pass is done, the calling
    thread stops the cursor at m and draws beside the worker.  Each
    target's hits are counted exactly and its far-field scores are summed
    once, exactly rounded by math.fsum, so the estimates do not depend on
    the cohort, block or walk order of the additions.
    """
    if samples < 1:
        raise ValueError("need at least one trajectory")
    # per step k, the walks of earlier cohorts that drew; per target, the
    # far-field score arrays and the hit count
    drawn = {}
    far_arrays = [[] for _ in targets]
    hit_counts = [0] * len(targets)
    n_far = 0
    n_capped = 0
    size = min(samples, _COHORT)
    p = np.empty(size, dtype=complex)
    d = np.empty(size)
    # draws[k % 2] holds the cos (row 0) and sin (row 1) of step k
    draws = np.empty((2, 2, size))
    with ThreadPoolExecutor(max_workers=1) as pool:
        for first in range(0, samples, size):
            n = min(size, samples - first)
            p[:n] = region.base_point
            iteration = 0
            draw = _StepDraw(seed, 0, drawn.get(0, 0), draws[0, :, :n])
            steps = pool.submit(draw.run)
            while True:
                n, fars, hits = _absorb_and_compact(region, p, d, n)
                if fars:
                    far_pts = np.concatenate(fars)
                    for got, sc in zip(far_arrays, region.far_scores(far_pts, targets)):
                        got.append(sc)
                    n_far += far_pts.size
                if hits:
                    hit = np.concatenate(hits)
                    for i, pred in enumerate(targets):
                        hit_counts[i] += int(np.count_nonzero(pred(hit)))
                drawn[iteration] = drawn.get(iteration, 0) + n
                draw.finish(n)
                steps.result()
                cos_a, sin_a = draws[iteration % 2, :, :n]
                iteration += 1
                if n == 0:
                    break
                if iteration >= _STEP_CAP:
                    n_capped += n
                    break
                # the next step's draw starts while this one is applied
                draw = _StepDraw(
                    seed, iteration, drawn.get(iteration, 0), draws[iteration % 2, :, :n]
                )
                steps = pool.submit(draw.run)
                np.multiply(d[:n], cos_a, out=cos_a)
                np.multiply(d[:n], sin_a, out=sin_a)
                p[:n].real += cos_a
                p[:n].imag += sin_a

    completed = samples - n_capped
    if completed == 0:
        raise RuntimeError(
            f"all {n_capped} walks hit the step cap of {_STEP_CAP} before absorption; no estimate"
        )
    out = []
    for far, hit in zip(far_arrays, hit_counts):
        prob = (math.fsum(itertools.chain.from_iterable(far)) + hit) / completed
        ci = 1.96 * math.sqrt(max(prob * (1.0 - prob), 0.0) / completed)
        out.append(
            HarmonicMeasureEstimate(
                probability=min(max(prob, 0.0), 1.0),
                ci_halfwidth=ci,
                samples=completed,
                seed=seed,
                n_far_field=n_far,
                n_step_capped=n_capped,
            )
        )
    return out


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
