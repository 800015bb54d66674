import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from compoplab import harmonic
from compoplab.experiments import harness_pair, spiral_ensemble, tail_slope
from compoplab.harmonic import (
    _DISTANCE_BLOCK,
    _F_ROUNDING,
    _iteration_rng,
    _unit_steps,
    FOUR_PI,
    PI_SQ,
    TWO_PI,
    DiskRegion,
    GraphChannel,
    HalfPlaneRegion,
    HarmonicMeasureEstimate,
    covering_count,
    wos_harmonic_measures,
)

PI = math.pi


@pytest.fixture(scope="module")
def channel():
    return GraphChannel()


def _variant(cls, **attributes):
    """An instance of a subclass of `cls` that sets `attributes` (class
    attributes, or methods given as functions of self)."""
    return type(cls.__name__, (cls,), attributes)()


def _contains(channel, p) -> np.ndarray:
    """Whether each point lies in the channel: x > 0, g(x) < y < g(x) + 4pi."""
    p = np.asarray(p, dtype=complex)
    x, y = p.real, p.imag
    g = np.where(x > 0, channel.g(np.where(x > 0, x, 1.0)), np.inf)
    return (x > 0) & (y > g) & (y < g + FOUR_PI)


def _wall_contract_breaches(channel) -> list:
    """The clauses of the wall contract the far-field scores and covering
    counts rest on that `channel` breaks, on 64 log-spaced points of
    [1e-4, 1e6]: g strictly decreasing, g(pi) = pi, g blowing up at 0+ and
    vanishing at infinity, and the base point inside the channel."""
    grid = np.geomspace(1e-4, 1e6, 64)
    vals = np.asarray(channel.g(grid), dtype=float)
    clauses = {
        "decreasing": np.all(np.diff(vals) < 0),
        "g(pi) = pi": abs(float(channel.g(np.array([PI]))[0]) - PI) <= 1e-9,
        "blow-up and decay": vals[0] >= 100.0 and vals[-1] <= 0.1,
        "base point inside": _contains(channel, [channel.base_point])[0],
    }
    return [name for name, ok in clauses.items() if not ok]


def test_default_channel_meets_the_wall_contract(channel):
    assert _wall_contract_breaches(channel) == []


def test_channel_validation():
    # the contract check can fail: an increasing wall, and a base point on it
    increasing = _variant(GraphChannel, g=lambda self, t: t)
    assert "decreasing" in _wall_contract_breaches(increasing)
    on_wall = _variant(GraphChannel, base_point=complex(PI, PI))
    assert _wall_contract_breaches(on_wall) == ["base point inside"]


def test_channel_is_where_both_wall_quadratics_are_positive(channel, rng):
    # the certificate's premise: Omega = {F_lo > 0} and {F_up > 0}, with
    # F_lo = xy - pi^2 and F_up = pi^2 - x(y - 4pi), on points inside, on
    # either side of either wall, and at x < 0, where F_lo > 0 needs
    # y < pi^2/x but F_up > 0 needs y > pi^2/x + 4pi
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 3000))
    offset = rng.uniform(-4 * PI, 8 * PI, x.size)
    left = -np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 1000))
    p = np.concatenate(
        [x + 1j * (channel.g(x) + offset), left + 1j * rng.uniform(-100.0, 100.0, left.size)]
    )
    x, y = p.real, p.imag
    quadratics = (x * y - PI**2 > 0) & (PI**2 - x * (y - 4 * PI) > 0)
    inside = _contains(channel, p)
    assert np.array_equal(quadratics, inside)
    # a third of the points right of x = 0 lie between the walls
    assert 800 < np.count_nonzero(inside) < 1200


def _distance(channel, p):
    arr = np.array([p], dtype=complex)
    assert bool(_contains(channel, arr)[0])
    return float(channel.distance_vector(arr)[0])


def test_distance_at_base_point(channel):
    d = _distance(channel, channel.base_point)
    # both vertical gaps at the base point equal 2 pi
    assert 0.0 < d <= 2 * PI


def test_distance_flat_channel_limit(channel):
    p = complex(2000.0, float(channel.g(np.array([2000.0]))[0]) + 2 * PI)
    d = _distance(channel, p)
    assert d == pytest.approx(2 * PI, rel=1e-2)


def _wall_distance(p) -> float:
    """dist(p, boundary) in 40 digits.  Along the wall (u, pi^2/u + s),
    s = 0 or 4pi, the squared distance to p = x + iy is least at one of its
    critical points, the positive real roots of
    u^4 - x u^3 + pi^2 (y - s) u - pi^4 = 0.  mpmath's Durand-Kerner
    iteration, started from numpy's float roots, refines all four to the
    working precision or raises."""
    x, y = float(p.real), float(p.imag)
    best = mpmath.inf
    with mpmath.workdps(40):
        pi_sq = mpmath.pi**2
        for shift, s in ((0.0, mpmath.mpf(0)), (4 * PI, 4 * mpmath.pi)):
            start = np.roots([1.0, -x, 0.0, PI**2 * (y - shift), -(PI**4)])
            coeffs = [1, -x, 0, pi_sq * (y - s), -pi_sq * pi_sq]
            for u in mpmath.polyroots(coeffs, roots_init=start):
                if isinstance(u, mpmath.mpf) and u > 0:
                    best = min(best, (u - x) ** 2 + (pi_sq / u + s - y) ** 2)
        return float(mpmath.sqrt(best))


def _certified_radius(p, mutant=None):
    """GraphChannel.distance_vector, the same operations in the same order,
    or one of its mutants: "linear" drops the r^2/2 term (r = F/G),
    "half-gradient" halves G, and "no-margin" leaves F unlowered."""
    x, y = p.real, p.imag
    xy = x * y
    s = FOUR_PI * x + PI_SQ
    margin = 0.0 if mutant == "no-margin" else (xy + s) * _F_ROUNDING
    xx = x * x
    radii = []
    for f, g_sq in ((xy - PI_SQ - margin, xx + y * y), (s - xy - margin, xx + (y - FOUR_PI) ** 2)):
        if mutant == "half-gradient":
            g_sq = g_sq * 0.25
        f2 = f + f
        if mutant == "linear":
            radii.append(f / np.sqrt(g_sq))
        else:
            radii.append(f2 / (np.sqrt(g_sq) + np.sqrt(g_sq + f2)))
    return np.minimum(*radii)


@pytest.fixture(scope="module")
def wall_points():
    """(points, their exact distances): 400 interior points at x in
    [0.05, 50], then 200 points 1e-5 to 1e-2 above the lower wall or below
    the upper one, then 100 points 1e-12 to 1e-9 from a wall, where the
    rounding of F shows."""
    rng = np.random.default_rng(20261021)
    channel = GraphChannel()
    x = np.exp(rng.uniform(math.log(0.05), math.log(50.0), 700))
    y = channel.g(x) + rng.uniform(0.0, 1.0, x.size) * 4 * PI
    gap = np.exp(
        np.concatenate(
            [
                rng.uniform(math.log(1e-5), math.log(1e-2), 200),
                rng.uniform(math.log(1e-12), math.log(1e-9), 100),
            ]
        )
    )
    upper = rng.uniform(size=gap.size) < 0.5
    y[400:] = channel.g(x[400:]) + np.where(upper, 4 * PI - gap, gap)
    p = x + 1j * y
    assert np.all(_contains(channel, p))
    return p, np.array([_wall_distance(q) for q in p])


def _certificate_breaches(d, p, true) -> list:
    """The clauses of the distance certificate that radii d break at the
    points p of wall_points, whose distances are true."""
    # up to the rounding of the walls' heights, which is all p resolves
    slack = 4.0 * np.spacing(np.abs(p.imag))
    clauses = {
        "positive": np.all(d > 0.0),
        "at most the distance": np.all(d <= true + slack),
        "at most the distance within 1e-9 of a wall": np.all(d[600:] <= true[600:]),
        # 1e-5 to 1e-2 from a wall the certificate is tight to within O(gap);
        # it reads at least 0.9991 there, the slope bound's at least 0.9
        "tight near the walls": np.min(d[400:600] / true[400:600]) > 0.99,
    }
    return [name for name, ok in clauses.items() if not ok]


@pytest.mark.parametrize(
    "mutant, breaches",
    [
        (None, []),
        ("linear", ["at most the distance"]),
        ("half-gradient", ["at most the distance", "at most the distance within 1e-9 of a wall"]),
        ("no-margin", ["at most the distance within 1e-9 of a wall"]),
    ],
    ids=["default", "linear", "half-gradient", "no-margin"],
)
def test_distance_is_certified_lower_bound(channel, wall_points, mutant, breaches):
    # the channel's own radius meets every clause; each mutant of its
    # formula breaks some
    p, true = wall_points
    d = channel.distance_vector(p) if mutant is None else _certified_radius(p, mutant)
    assert _certificate_breaches(d, p, true) == breaches


class _RecordingRegion:
    """A region that keeps every point its distance bound is asked for."""

    def __init__(self, region):
        self.region = region
        self.points = []

    def __getattr__(self, name):
        return getattr(self.region, name)

    def distance_vector(self, p):
        self.points.append(p.copy())
        return self.region.distance_vector(p)


def test_distance_is_tight_where_walks_step(channel):
    # most walk steps are taken at x in [0.5, 2], where the wall is steep;
    # there the radius is a median 0.9997 of the true distance (the slope
    # bound read 0.990), and without the rounding margin one of these
    # positions, 2.9e-8 from a wall, reads 1 + 1.1e-9
    region = _RecordingRegion(channel)
    wos_harmonic_measures(region, [lambda p: p.imag > 0], samples=500, seed=3)
    positions = np.concatenate(region.points)
    steep = positions[(positions.real >= 0.5) & (positions.real <= 2.0)]
    assert steep.size > 0.5 * positions.size
    sample = steep[:: steep.size // 300][:300]
    ratio = channel.distance_vector(sample) / [_wall_distance(q) for q in sample]
    assert np.all(ratio <= 1.0)
    assert np.median(ratio) >= 0.999, np.median(ratio)


@pytest.fixture(scope="module")
def spiral_walks():
    """The walk positions of the spiral ensemble at 2x10^4 walks, seed 2028,
    on the default channel, as the list of blocks asked for distances."""
    region = _RecordingRegion(GraphChannel())
    spiral_ensemble(region, 2 * 10**4, seed=2028)
    return region.points


def test_spiral_ensemble_step_budget(spiral_walks):
    # the first shrink of the slope-bound horizon alone took 114.2 steps
    # per walk on this ensemble
    assert sum(p.size for p in spiral_walks) / (2 * 10**4) <= 50.0


def test_spiral_ensemble_steps_on_the_wall_hyperbolas(spiral_walks):
    # 29.54 distance evaluations per walk on this ensemble; the slope bound
    # took 36.54
    steps = sum(p.size for p in spiral_walks) / (2 * 10**4)
    assert steps <= 30.0, steps


def test_distance_rejects_outside_points(channel):
    # left of the channel, and below its lower wall
    assert not np.any(_contains(channel, [complex(-1.0, 10.0), complex(10.0, 0.0)]))


@pytest.fixture(scope="module")
def harnesses():
    """The disk half-arc at seed 11 and the half-plane segment at seed 12."""
    return harness_pair(10**5, 11)


def test_disk_harness_half_arc(harnesses):
    disk, _, ok = harnesses
    assert ok[0], disk.probability


def test_half_plane_harness_segment(harnesses):
    # Poisson kernel from i: (arctan 1 - arctan(-1))/pi = 1/2
    _, half, ok = harnesses
    assert ok[1], half.probability


def test_channel_tail_decays_exponentially(channel):
    ys = [channel.alpha + 1.0, channel.alpha + 2.0]
    tails = wos_harmonic_measures(
        channel,
        [(lambda p, yy=y: p.imag > yy) for y in ys],
        samples=2 * 10**5,
        seed=13,
    )
    slope, positive, ok = tail_slope(ys, tails)
    assert positive == 2 and ok, slope


def test_multi_target_matches_single_target(channel):
    y = channel.alpha + 1.0
    single = wos_harmonic_measures(channel, [lambda p: p.imag > y], samples=20000, seed=5)[0]
    multi = wos_harmonic_measures(
        channel, [lambda p: p.imag > y, lambda p: p.imag > y + 1.0], samples=20000, seed=5
    )
    assert single.probability == multi[0].probability
    assert multi[1].probability <= multi[0].probability


def test_absorption_tolerance_sensitivity(channel, monkeypatch):
    y = channel.alpha + 1.0
    a = wos_harmonic_measures(channel, [lambda p: p.imag > y], samples=3 * 10**4, seed=21)[0]
    monkeypatch.setattr(harmonic, "_EPS_ABSORB", 5e-7)
    b = wos_harmonic_measures(channel, [lambda p: p.imag > y], samples=3 * 10**4, seed=21)[0]
    assert abs(a.probability - b.probability) <= 2.0 * (a.ci_halfwidth + b.ci_halfwidth)


def test_level_set_tail_contract(channel):
    # the level set {|e^-w| > 1 - h} is {Re w < -log(1 - h)}, shrinking with h
    def level(h):
        cut = -math.log1p(-h)
        target = [lambda p: p.real < cut]
        return wos_harmonic_measures(channel, target, samples=2 * 10**4, seed=31)[0]

    # one seed scores every target on the same walks, so nested level sets
    # give exactly non-increasing hit counts
    estimates = [level(h) for h in (0.9, 0.75, 0.5)]
    assert len({e.samples for e in estimates}) == 1
    hits = [round(e.probability * e.samples) for e in estimates]
    assert hits == sorted(hits, reverse=True), hits
    assert hits[-1] > 0, hits


def test_wos_deterministic_given_seed(channel):
    y = channel.alpha + 1.0
    a = wos_harmonic_measures(channel, [lambda p: p.imag > y], samples=10**4, seed=77)[0]
    b = wos_harmonic_measures(channel, [lambda p: p.imag > y], samples=10**4, seed=77)[0]
    assert a.probability == b.probability
    assert a.samples == b.samples


def test_covering_count_examples(channel):
    w = cmath_from_polar(math.exp(-PI), -PI / 2)
    assert covering_count(channel, w) == 2
    assert type(covering_count(channel, w)) is int
    assert covering_count(channel, -math.exp(-PI)) == 1
    with pytest.raises(ValueError):
        covering_count(channel, 0.0)
    with pytest.raises(ValueError):
        covering_count(channel, 1.5)
    with pytest.raises(ValueError):
        covering_count(channel, np.array([w, 1.5]))
    with pytest.raises(ValueError):
        covering_count(channel, np.array([w, complex("nan")]))


def cmath_from_polar(r, phi):
    return complex(r * math.cos(phi), r * math.sin(phi))


def scalar_covering_count(region, w: complex) -> int:
    """Per-point reference: the definition in scalar math.log/math.atan2."""
    x = -math.log(abs(w))
    y0 = (-math.atan2(w.imag, w.real)) % (2 * PI)
    lo = region.g(x)
    k_start = math.floor((lo - y0) / (2 * PI)) - 1
    return sum(
        1 for k in range(k_start, k_start + 5) if lo < y0 + 2 * PI * k < lo + 4 * PI
    )


def test_covering_count_random_sweep(channel, rng):
    radii = np.sqrt(rng.uniform(1e-12, 1.0, 10**4))
    angles = rng.uniform(0.0, 2 * PI, 10**4)
    points = [cmath_from_polar(r, a) for r, a in zip(radii, angles)]
    counts = covering_count(channel, np.array(points))
    assert counts.shape == (10**4,)
    assert np.array_equal(counts, [scalar_covering_count(channel, w) for w in points])
    assert counts[17] == covering_count(channel, points[17])
    assert counts.min() >= 1
    assert counts.max() <= 2
    assert np.mean(counts == 2) > 0.999


def test_estimate_validation():
    with pytest.raises(ValueError):
        HarmonicMeasureEstimate(1.5, 0.0, 10, 0)
    with pytest.raises(ValueError):
        HarmonicMeasureEstimate(0.5, -0.1, 10, 0)
    with pytest.raises(ValueError):
        wos_harmonic_measures(DiskRegion(), [lambda p: p.real > 0], samples=0)


def test_every_walk_capped_names_the_count(monkeypatch):
    # from the center of the unit disk no walk is absorbed in one step
    monkeypatch.setattr(harmonic, "_STEP_CAP", 1)
    with pytest.raises(RuntimeError, match="all 100 walks hit the step cap of 1 "):
        wos_harmonic_measures(DiskRegion(), [lambda p: p.real > 0], samples=100)
    # a cap that lets some walks finish still gives an estimate over them;
    # from the center every walk lands on the circle at once, so start off it
    monkeypatch.setattr(harmonic, "_STEP_CAP", 20)
    est = wos_harmonic_measures(
        _variant(DiskRegion, base_point=0.5), [lambda p: p.real > 0], samples=100
    )[0]
    assert est.samples + est.n_step_capped == 100 and est.samples > 0 and est.n_step_capped > 0


def _reference_walks(region, targets, samples, seed, step_cap):
    """The engine before its angle draws moved to a worker thread: Philox
    angles drawn for the survivors only, a complex-exp step, and the
    test-side copy of the channel distance.  Each target's score is its
    integer hit count added to the math.fsum of all its far-field scores.
    Returns (scores, n_far, n_capped)."""
    if isinstance(region, GraphChannel):
        distance = _certified_radius
    else:
        distance = region.distance_vector
    far_scores = [[] for _ in targets]
    hits = [0] * len(targets)
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
                far_scores[i].extend(sc.tolist())
            n_far += far_pts.size
            p = p[~far]
            if p.size == 0:
                break
        d = distance(p)
        absorb = d < 1e-6
        if np.any(absorb):
            hit = p[absorb]
            for i, pred in enumerate(targets):
                hits[i] += int(np.count_nonzero(pred(hit)))
            p = p[~absorb]
            d = d[~absorb]
        if p.size:
            rng = _iteration_rng(seed, iteration)
            angles = rng.uniform(0.0, TWO_PI, p.size)
            p = p + d * np.exp(1j * angles)
        iteration += 1
    scores = [math.fsum(far) + hit for far, hit in zip(far_scores, hits)]
    return scores, n_far, n_capped


def _recording_targets(log, predicates):
    """Wrap predicates so the first one logs a copy of every absorbed batch."""

    def first(pts, pred=predicates[0]):
        log.append(pts.copy())
        return pred(pts)

    return [first, *predicates[1:]]


def _tail(p):
    return p.imag > 5 * PI + 1.0


# three full distance blocks and a partial one
_CHANNEL_WALKS = 3 * _DISTANCE_BLOCK + 5


_ENGINE_CASES = pytest.mark.parametrize(
    "region, predicates, samples, step_cap",
    [
        # the cap stops about 3% of the walks
        (GraphChannel(), [_tail, lambda p: p.real < 0.1], _CHANNEL_WALKS, 80),
        (GraphChannel(), [_tail], _CHANNEL_WALKS, 10**6),
        # off-center, so walks take many steps before absorption
        (
            _variant(DiskRegion, base_point=0.3 + 0.1j),
            [lambda p: p.real > 0, lambda p: p.imag > 0.5],
            10**4,
            10**6,
        ),
        (_variant(HalfPlaneRegion, cutoff=3.0), [lambda p: np.abs(p.real) < 1.0], 10**4, 10**6),
        # most walks end in the far field; the second target scores the
        # top exit, a fraction, so the order of the float additions shows
        (
            _variant(GraphChannel, far_x=5.0),
            [_tail, lambda p: p.imag > 4 * PI],
            _CHANNEL_WALKS,
            10**6,
        ),
    ],
    ids=[
        "channel-capped",
        "channel",
        "disk",
        "half-plane-far-field",
        "channel-fractional-far-field",
    ],
)


def _same_bits(got, want):
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _assert_walks_are_the_reference(region, predicates, samples, step_cap, monkeypatch):
    """The engine's estimates equal those of _reference_walks bit for bit,
    and its absorbed points are the reference's.  Returns the two logs of
    absorbed batches, the engine's and the reference's."""
    ref_log, log = [], []
    ref_scores, ref_far, ref_capped = _reference_walks(
        region, _recording_targets(ref_log, predicates), samples, seed=41, step_cap=step_cap
    )
    monkeypatch.setattr(harmonic, "_STEP_CAP", step_cap)
    estimates = wos_harmonic_measures(
        region, _recording_targets(log, predicates), samples=samples, seed=41
    )
    assert log and ref_log
    assert _same_bits(np.sort(np.concatenate(log)), np.sort(np.concatenate(ref_log)))
    completed = samples - ref_capped
    for est, score in zip(estimates, ref_scores):
        assert est.probability == score / completed
        assert est.samples == completed
        assert est.n_far_field == ref_far
        assert est.n_step_capped == ref_capped
    if step_cap < 10**6:
        assert 0 < ref_capped < samples
    if isinstance(region, HalfPlaneRegion):
        assert ref_far > 0
    if getattr(region, "far_x", math.inf) < 10:
        assert ref_far > 0 and any(score % 1.0 for score in ref_scores)
    return log, ref_log


@_ENGINE_CASES
def test_walks_bit_identical_to_reference_engine(
    region, predicates, samples, step_cap, monkeypatch
):
    log, ref_log = _assert_walks_are_the_reference(
        region, predicates, samples, step_cap, monkeypatch
    )
    # one cohort: the hits of each step are scored in one batch, in order
    assert samples <= harmonic._COHORT
    assert len(log) == len(ref_log)
    assert all(_same_bits(got, want) for got, want in zip(log, ref_log))


@_ENGINE_CASES
def test_cohorts_bit_identical_to_reference_engine(
    region, predicates, samples, step_cap, monkeypatch
):
    # a multiple of neither the 4 doubles of one Philox counter step nor
    # _DISTANCE_BLOCK; the last cohort is short
    monkeypatch.setattr(harmonic, "_COHORT", 5003)
    assert samples > 5003 and samples % 5003
    _assert_walks_are_the_reference(region, predicates, samples, step_cap, monkeypatch)


def _drawing_threads(monkeypatch) -> set:
    """The set, filled as the engine runs, of the threads that draw chunks."""
    threads = set()
    draw = harmonic._unit_steps

    def recorded(*args):
        threads.add(threading.get_ident())
        draw(*args)

    monkeypatch.setattr(harmonic, "_unit_steps", recorded)
    return threads


# a multiple of neither the 4 doubles of one Philox counter step nor the
# cohort, and small, so both threads draw several chunks in most steps
_SMALL_CHUNK = 997


@_ENGINE_CASES
def test_walks_bit_identical_in_shared_draw_chunks(
    region, predicates, samples, step_cap, monkeypatch
):
    monkeypatch.setattr(harmonic, "_DRAW_CHUNK", _SMALL_CHUNK)
    threads = _drawing_threads(monkeypatch)
    test_walks_bit_identical_to_reference_engine(
        region, predicates, samples, step_cap, monkeypatch
    )
    assert len(threads) == 2


@_ENGINE_CASES
def test_cohorts_bit_identical_in_shared_draw_chunks(
    region, predicates, samples, step_cap, monkeypatch
):
    monkeypatch.setattr(harmonic, "_DRAW_CHUNK", _SMALL_CHUNK)
    threads = _drawing_threads(monkeypatch)
    test_cohorts_bit_identical_to_reference_engine(
        region, predicates, samples, step_cap, monkeypatch
    )
    assert len(threads) == 2


def test_step_draw_hands_out_each_column_once(monkeypatch):
    # three threads and the caller, on two cores, take 7-angle chunks of one
    # step's draw while switching every microsecond.  The threads each hold
    # a chunk when the caller stops the cursor at 3001 of 4000 columns, and
    # go on once the caller draws; every column before the stop is drawn
    # once, by whichever thread, as the stream's angle at its offset
    monkeypatch.setattr(harmonic, "_DRAW_CHUNK", 7)
    calling = threading.get_ident()
    chunks = []
    held = threading.Semaphore(0)
    go = threading.Event()
    draw = harmonic._unit_steps

    def recorded(seed, iteration, offset, out):
        chunks.append((offset - 11, out.shape[1]))
        if threading.get_ident() == calling:
            go.set()
        elif not go.is_set():
            held.release()
            go.wait(timeout=60)
        draw(seed, iteration, offset, out)

    monkeypatch.setattr(harmonic, "_unit_steps", recorded)
    out = np.full((2, 4000), np.nan)
    step = harmonic._StepDraw(7, 3, 11, out)
    workers = [threading.Thread(target=step.run) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        assert all(held.acquire(timeout=60) for _ in workers)
        step.finish(3001)
        for worker in workers:
            worker.join(timeout=60)
    finally:
        go.set()
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    # 428 chunks of 7 and a last one of 5
    assert sorted(chunks) == [(start, min(7, 3001 - start)) for start in range(0, 3001, 7)]
    want = np.empty((2, 3001))
    _unit_steps(7, 3, 11, want)
    assert _same_bits(out[:, :3001], want)
    assert np.all(np.isnan(out[:, 3001:]))


@pytest.mark.parametrize("n", [1, 2, 8192, 10**5])
def test_philox_draw_begins_with_every_shorter_draw(n):
    offsets = (0, 1, 2, 3, 4, 5, 8191)
    full = _iteration_rng(7, 3).uniform(0.0, TWO_PI, n + max(offsets))
    for m in sorted({0, 1, n // 2, n}):
        prefix = _iteration_rng(7, 3).uniform(0.0, TWO_PI, m)
        assert _same_bits(full[:m], prefix)
        # the buffered draw entered at an offset writes the cos and sin of
        # the angles from that offset on into the first m columns of a
        # wider buffer, as the engine's are, and leaves the rest alone
        for offset in offsets:
            draws = np.full((2, n), np.nan)
            _unit_steps(7, 3, offset, draws[:, :m])
            angles = full[offset : offset + m]
            assert _same_bits(draws[:, :m], np.stack([np.cos(angles), np.sin(angles)]))
            assert np.all(np.isnan(draws[:, m:]))


def test_walk_state_is_fixed_buffers(channel):
    # positions, distances and two cos/sin draw buffers take 56 bytes per
    # walk; a copy of the positions to compact them would add 16
    samples = 4 * 10**5
    # one-time set-up of the first call (about 2 bytes per walk) is not
    # walk state
    wos_harmonic_measures(channel, [_tail], samples=1000, seed=5)
    tracemalloc.start()
    try:
        wos_harmonic_measures(channel, [_tail], samples=samples, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / samples <= 64.0, peak / samples


def test_walk_state_holds_when_walks_leave_through_the_far_field():
    # a third of the walks from i leave the half-plane past |p| = 3.  They
    # are stopped one distance block at a time, so the peak is the 56 bytes
    # per walk of the buffers, 2.8 of the kept far-field scores and block
    # temporaries: 64.4 bytes per walk measured in one cohort of 2^17.  A
    # far mask and a copy of the survivors over the whole cohort would add
    # about 11 (75.2 measured)
    region = _variant(HalfPlaneRegion, cutoff=3.0)
    targets = [lambda p: np.abs(p.real) < 1.0]
    samples = 2**17
    assert samples <= harmonic._COHORT
    wos_harmonic_measures(region, targets, samples=1000, seed=5)
    tracemalloc.start()
    try:
        est = wos_harmonic_measures(region, targets, samples=samples, seed=5)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_far_field > samples // 4
    assert peak / samples <= 68.0, peak / samples


def test_walk_state_does_not_grow_with_the_ensemble(monkeypatch):
    # walks from the disk's center are absorbed on their second step, so
    # one cohort's state, not a tail of long walks, sets the peak: 56 bytes
    # per walk of the cohort, plus the copies of one cohort's hits and the
    # distance temporaries, 1.92 x 56 x cohort in all.  The peaks at 8 and
    # 32 cohorts were 0.8 kB apart; one ensemble of all the walks would
    # read 2.9 MB and 11.8 MB
    cohort = 4096
    monkeypatch.setattr(harmonic, "_COHORT", cohort)
    targets = [lambda p: p.real > 0]
    wos_harmonic_measures(DiskRegion(), targets, samples=1000, seed=5)
    peaks = []
    for cohorts in (8, 32):
        tracemalloc.start()
        try:
            wos_harmonic_measures(DiskRegion(), targets, samples=cohorts * cohort, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 4096, peaks
    assert max(peaks) <= 2.5 * 56 * cohort, peaks


@pytest.mark.parametrize(
    "size", [0, 1, _DISTANCE_BLOCK - 1, _DISTANCE_BLOCK, _DISTANCE_BLOCK + 1, _CHANNEL_WALKS]
)
def test_blocked_channel_distance_is_the_unblocked_formula(channel, rng, size):
    x = np.geomspace(1e-2, 2e4, size)
    rng.shuffle(x)
    y = channel.g(x) + rng.uniform(0.0, 1.0, size) * 4 * PI
    p = x + 1j * y
    got = channel.distance_vector(p)
    want = _certified_radius(p)
    assert got.shape == want.shape == (size,)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_worker_thread_ends_on_every_exit(monkeypatch):
    before = threading.active_count()

    def failing(pts):
        raise ValueError("predicate failed")

    with pytest.raises(ValueError, match="predicate failed"):
        wos_harmonic_measures(DiskRegion(), [failing], samples=1000, seed=2)
    assert threading.active_count() == before
    wos_harmonic_measures(DiskRegion(), [lambda p: p.real > 0], samples=1000, seed=2)
    assert threading.active_count() == before
    # a draw that fails in the calling thread, while the worker holds
    # chunks of the same step
    calling = threading.get_ident()
    draw = harmonic._unit_steps

    def failing_draw(*args):
        if threading.get_ident() == calling:
            raise ValueError("draw failed")
        draw(*args)

    monkeypatch.setattr(harmonic, "_DRAW_CHUNK", _SMALL_CHUNK)
    monkeypatch.setattr(harmonic, "_unit_steps", failing_draw)
    with pytest.raises(ValueError, match="draw failed"):
        wos_harmonic_measures(DiskRegion(), [lambda p: p.real > 0], samples=10**5, seed=2)
    assert threading.active_count() == before
    monkeypatch.setattr(harmonic, "_unit_steps", draw)
    monkeypatch.setattr(harmonic, "_STEP_CAP", 1)
    with pytest.raises(RuntimeError, match="all 100 walks hit the step cap of 1 "):
        wos_harmonic_measures(DiskRegion(), [lambda p: p.real > 0], samples=100)
    assert threading.active_count() == before
