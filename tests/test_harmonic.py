import math

import numpy as np
import pytest

from compoplab.harmonic import (
    DiskRegion,
    GraphChannel,
    HalfPlaneRegion,
    HarmonicMeasureEstimate,
    covering_count,
    distance_lower_bound,
    level_set_tail,
    wos_harmonic_measure,
    wos_harmonic_measures,
)

PI = math.pi


@pytest.fixture(scope="module")
def channel():
    return GraphChannel()


def _boundary_points(channel, count=10**4):
    x = np.geomspace(5e-2, 5e3, count // 2)
    g = channel.g(x)
    lower = x + 1j * g
    upper = x + 1j * (g + 4 * PI)
    return np.concatenate([lower, upper])


def test_distance_at_base_point(channel):
    d = distance_lower_bound(channel, channel.base_point)
    # both vertical gaps at the base point equal 2 pi
    assert 0.0 < d <= 2 * PI


def test_distance_flat_channel_limit(channel):
    p = complex(2000.0, float(channel.g(np.array([2000.0]))[0]) + 2 * PI)
    d = distance_lower_bound(channel, p)
    assert d == pytest.approx(2 * PI, rel=1e-2)


def test_distance_is_certified_lower_bound(channel, rng):
    boundary = _boundary_points(channel)
    xs = rng.uniform(0.2, 50.0, 300)
    for x in xs:
        g = float(channel.g(np.array([x]))[0])
        y = g + rng.uniform(0.05, 1.0) * 4 * PI
        p = complex(x, y)
        if not bool(channel.contains(np.array([p]))[0]):
            continue
        d = distance_lower_bound(channel, p)
        assert d > 0.0
        assert d <= np.min(np.abs(boundary - p)) + 1e-9


def test_distance_rejects_outside_points(channel):
    with pytest.raises(ValueError):
        distance_lower_bound(channel, complex(-1.0, 10.0))
    with pytest.raises(ValueError):
        distance_lower_bound(channel, complex(10.0, 0.0))


def test_channel_validation():
    with pytest.raises(ValueError):
        GraphChannel(g=lambda t: t, g_slope_bound=lambda lo, hi: 1.0)
    with pytest.raises(ValueError):
        GraphChannel(base_point=complex(PI, 0.0))


def test_disk_harness_half_arc():
    est = wos_harmonic_measure(
        DiskRegion(),
        lambda p: np.abs(np.angle(p)) <= PI / 2,
        samples=10**5,
        seed=11,
    )
    assert abs(est.probability - 0.5) <= 3.0 * est.ci_halfwidth


def test_half_plane_harness_segment():
    est = wos_harmonic_measure(
        HalfPlaneRegion(),
        lambda p: np.abs(p.real) < 1.0,
        samples=10**5,
        seed=12,
    )
    # Poisson kernel from i: (arctan 1 - arctan(-1))/pi = 1/2
    assert abs(est.probability - 0.5) <= 3.0 * est.ci_halfwidth


def test_channel_tail_decays_exponentially(channel):
    ys = [channel.alpha + 1.0, channel.alpha + 2.0]
    tails = wos_harmonic_measures(
        channel,
        [(lambda p, yy=y: p.imag > yy) for y in ys],
        samples=2 * 10**5,
        seed=13,
    )
    probs = np.array([e.probability for e in tails])
    assert np.all(probs > 0)
    slope = (math.log(probs[1]) - math.log(probs[0])) / (ys[1] - ys[0])
    assert slope <= -0.9


def test_multi_target_matches_single_target(channel):
    y = channel.alpha + 1.0
    single = wos_harmonic_measure(channel, lambda p: p.imag > y, samples=20000, seed=5)
    multi = wos_harmonic_measures(
        channel, [lambda p: p.imag > y, lambda p: p.imag > y + 1.0], samples=20000, seed=5
    )
    assert single.probability == multi[0].probability
    assert multi[1].probability <= multi[0].probability


def test_absorption_tolerance_sensitivity(channel):
    y = channel.alpha + 1.0
    a = wos_harmonic_measure(channel, lambda p: p.imag > y, samples=3 * 10**4, seed=21)
    b = wos_harmonic_measure(
        channel, lambda p: p.imag > y, samples=3 * 10**4, seed=21, eps_absorb=5e-7
    )
    assert abs(a.probability - b.probability) <= 2.0 * (a.ci_halfwidth + b.ci_halfwidth)


def test_level_set_tail_contract(channel):
    est = level_set_tail(channel, 0.5, samples=2 * 10**4, seed=31)
    assert 0.0 <= est.probability <= 1.0
    small = level_set_tail(channel, 0.05, samples=2 * 10**4, seed=31)
    smaller = level_set_tail(channel, 0.025, samples=2 * 10**4, seed=31)
    assert small.probability >= smaller.probability - 2.0 * (
        small.ci_halfwidth + smaller.ci_halfwidth
    )
    with pytest.raises(ValueError):
        level_set_tail(channel, 0.9)


def test_wos_deterministic_given_seed(channel):
    y = channel.alpha + 1.0
    a = wos_harmonic_measure(channel, lambda p: p.imag > y, samples=10**4, seed=77)
    b = wos_harmonic_measure(channel, lambda p: p.imag > y, samples=10**4, seed=77)
    assert a.probability == b.probability
    assert a.samples == b.samples


def test_covering_count_examples(channel):
    w = cmath_from_polar(math.exp(-PI), -PI / 2)
    assert covering_count(channel, w) == 2
    assert covering_count(channel, -math.exp(-PI)) == 1
    with pytest.raises(ValueError):
        covering_count(channel, 0.0)
    with pytest.raises(ValueError):
        covering_count(channel, 1.5)


def cmath_from_polar(r, phi):
    return complex(r * math.cos(phi), r * math.sin(phi))


def test_covering_count_random_sweep(channel, rng):
    radii = np.sqrt(rng.uniform(1e-12, 1.0, 10**4))
    angles = rng.uniform(0.0, 2 * PI, 10**4)
    counts = np.array(
        [covering_count(channel, cmath_from_polar(r, a)) for r, a in zip(radii, angles)]
    )
    assert counts.min() >= 1
    assert counts.max() <= 2
    assert np.mean(counts == 2) > 0.999


def test_estimate_validation():
    with pytest.raises(ValueError):
        HarmonicMeasureEstimate(1.5, 0.0, 10, 1e-6, 0)
    with pytest.raises(ValueError):
        HarmonicMeasureEstimate(0.5, -0.1, 10, 1e-6, 0)
    with pytest.raises(ValueError):
        wos_harmonic_measure(DiskRegion(), lambda p: p.real > 0, samples=0)
    with pytest.raises(ValueError):
        wos_harmonic_measure(DiskRegion(), lambda p: p.real > 0, eps_absorb=0.0)


def test_step_cap_below_one_is_rejected():
    for cap in (0, -3):
        with pytest.raises(ValueError, match="step_cap"):
            wos_harmonic_measure(DiskRegion(), lambda p: p.real > 0, samples=100, step_cap=cap)


def test_every_walk_capped_names_the_count():
    # from the center of the unit disk no walk is absorbed in one step
    with pytest.raises(RuntimeError, match="all 100 walks hit step_cap=1"):
        wos_harmonic_measure(DiskRegion(), lambda p: p.real > 0, samples=100, step_cap=1)
    # a cap that lets some walks finish still gives an estimate over them
    est = wos_harmonic_measure(DiskRegion(), lambda p: p.real > 0, samples=100, step_cap=40)
    assert est.samples + est.n_step_capped == 100 and est.samples > 0
