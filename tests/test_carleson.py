import math

import numpy as np
import pytest

from compoplab.carleson import (
    CROSSCHECK_BOUNDARY_RADIUS,
    DEFAULT_BOUNDARY_RADIUS,
    CarlesonProfile,
    boundary_values,
    rho_profile,
)
from compoplab.experiments import radius_stability
from compoplab.spectra import linear_fit
from compoplab.symbols import (
    Cusp,
    ExplicitSeries,
    Lens,
    ShapiroTaylor,
)

Q = 1 << 18
# boundary grid fine enough to reach angles of 6e-6 (index 1) near contact
FINE = 1 << 20


def _angles(indices):
    return 2.0 * np.pi * np.asarray(indices) / FINE


def test_boundary_values_are_the_symbol_on_the_proxy_circle():
    t = 2.0 * np.pi * np.arange(1000) / 1000
    for spec in (Lens(0.5), Cusp(), ExplicitSeries([0.1j, 0.5])):
        want = spec.evaluate(DEFAULT_BOUNDARY_RADIUS * np.exp(1j * t))
        assert np.array_equal(boundary_values(spec, 1000), want)
    assert np.array_equal(boundary_values(Cusp(), 1000, 0.5), Cusp().evaluate(0.5 * np.exp(1j * t)))


def test_default_boundary_radius_matches_contract():
    assert DEFAULT_BOUNDARY_RADIUS == 1 - 1e-8
    assert CROSSCHECK_BOUNDARY_RADIUS == 1 - 1e-6
    for r_b in (0.0, -0.5, 1.0, 1.5):
        with pytest.raises(ValueError, match="boundary radius"):
            boundary_values(ExplicitSeries([0, 1]), 16, r_b)


def test_boundary_eval_identity():
    # proxy radius 1 - 1e-8 puts the value within 1e-8 of the true limit
    assert abs(boundary_values(ExplicitSeries([0, 1]), 1)[0] - 1.0) <= 1.01e-8


def test_lens_boundary_contact_exponent():
    ks = np.array([1, 1 << 6, 1 << 12])  # t = 6.0e-6, 3.8e-4, 2.5e-2
    gaps = 1.0 - np.abs(boundary_values(Lens(0.5), FINE)[ks])
    slope = linear_fit(np.log(_angles(ks)), np.log(gaps))[0]
    assert abs(slope - 0.5) <= 0.05


def test_shapiro_taylor_boundary_tends_to_one():
    ks = [1 << 12, 1 << 8, 1 << 4]  # t = 2.5e-2, 1.5e-3, 9.6e-5
    mods = np.abs(boundary_values(ShapiroTaylor(2.0), FINE)[ks])
    assert mods[0] < mods[1] < mods[2]
    assert mods[-1] > 0.999


def test_cusp_contact_stable_across_radii():
    ks = np.array([1 << 11, 1 << 8])  # t = 1.2e-2, 1.5e-3
    vals = [
        np.abs(1 - boundary_values(Cusp(), FINE, r_b)[ks]) * np.log(1.0 / _angles(ks))
        for r_b in (1 - 1e-6, 1 - 1e-8)
    ]
    assert np.all(np.abs(vals[0] - vals[1]) < 1e-3)
    assert 1.0 <= np.min(vals) and np.max(vals) <= 2.5


def test_cusp_windows_are_exponentially_small():
    # rho is the largest window mass over all centers, not only xi = 1
    prof = rho_profile(Cusp(), h_grid=(0.2, 0.1, 0.05), samples=1 << 20)
    masses = dict(zip(prof.h_grid, prof.rho_hat))
    positive = {h: m for h, m in masses.items() if m > 0}
    assert positive, "no mass resolved at all"
    c_hat = min(-h * math.log(m) for h, m in positive.items())
    assert c_hat > 0
    for h, m in masses.items():
        assert m <= math.exp(-c_hat / h) * (1 + 1e-9)


def test_identity_profile_matches_chord_oracle():
    prof = rho_profile(ExplicitSeries([0, 1]), samples=Q)
    oracle = (2.0 / np.pi) * np.arcsin(prof.h_grid / 2.0)
    assert np.max(np.abs(prof.rho_hat - oracle)) <= 2.0 / Q
    positive = prof.rho_hat > 0
    assert np.count_nonzero(positive) >= 4
    slope = linear_fit(np.log(prof.h_grid[positive]), np.log(prof.rho_hat[positive]))[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_lens_level_sets_scale_quadratically():
    prof = rho_profile(Lens(0.5), h_grid=np.geomspace(0.25, 0.02, 8), samples=Q)
    slope = linear_fit(np.log(prof.h_grid), np.log(prof.level_hat))[0]
    assert abs(slope - 2.0) <= 0.1


def test_lens_window_order_is_two():
    prof = rho_profile(Lens(0.5), h_grid=np.geomspace(0.25, 0.02, 8), samples=1 << 19)
    positive = prof.rho_hat > 0
    assert np.count_nonzero(positive) >= 4
    slope = linear_fit(np.log(prof.h_grid[positive]), np.log(prof.rho_hat[positive]))[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_cusp_profile_beats_every_polynomial_order():
    prof = rho_profile(Cusp(), h_grid=np.array([0.1, 0.05]), samples=1 << 20)
    for n_exp in range(1, 7):
        assert np.all(prof.rho_hat <= prof.h_grid**n_exp + 1e-15)


def test_profile_monotone_in_h(roster):
    for name, spec in roster.items():
        prof = rho_profile(spec, samples=1 << 16)
        assert np.all(np.diff(prof.rho_hat) <= 1e-15), name
        assert np.all(np.diff(prof.level_hat) <= 1e-15), name


def test_level_set_dominated_by_window_net():
    # {|phi*| >= 1-h} is covered by ceil(2pi/h) windows of size 2h
    grid = np.array([0.5, 0.25, 0.125, 0.0625])
    for spec in (Cusp(), Lens(0.5), ExplicitSeries([0, np.exp(1j * 1.1)])):
        prof = rho_profile(spec, h_grid=grid, samples=1 << 16)
        for h in (0.25, 0.0625):
            i = int(np.argmin(np.abs(grid - h)))
            i2 = int(np.argmin(np.abs(grid - 2 * h)))
            net = math.ceil(2.0 * math.pi / h)
            assert prof.level_hat[i] <= net * prof.rho_hat[i2] + 1e-12


def test_compactness_heuristic_ratio():
    inside = rho_profile(ExplicitSeries([0, 0.5]), samples=1 << 16)
    assert inside.rho_hat[-1] / inside.h_grid[-1] == 0.0
    rot = rho_profile(ExplicitSeries([0, np.exp(1j * 0.37)]), samples=1 << 16)
    assert rot.rho_hat[-1] / rot.h_grid[-1] > 0.25


def test_profiles_stable_under_boundary_radius(roster):
    for name, spec in roster.items():
        _, gap, ok = radius_stability(spec, 1 << 16)
        assert ok, (name, gap)


def test_radius_cross_check_fails_on_a_map_the_radii_tell_apart():
    # |z^n| = r_b^n on the proxy circle: 1 - 1e-5 and 1 - 1e-3 at n = 1000,
    # so the level mass at h = 2^-10 is 1 at one radius and 0 at the other
    def power(n):
        return ExplicitSeries(np.eye(n + 1)[n])

    _, gap, ok = radius_stability(power(1000), 1 << 16)
    assert not ok and gap == 1.0
    _, gap, ok = radius_stability(power(100), 1 << 16)
    assert ok, gap


def test_profile_validation():
    with pytest.raises(ValueError):
        CarlesonProfile(
            h_grid=np.array([0.1, 0.5]),  # increasing grid
            rho_hat=np.array([0.1, 0.2]),
            level_hat=np.array([0.1, 0.2]),
        )
    with pytest.raises(ValueError):
        CarlesonProfile(
            h_grid=np.array([0.5, 0.1]),
            rho_hat=np.array([0.1, 0.2]),  # increasing as h decreases
            level_hat=np.array([0.2, 0.1]),
        )
