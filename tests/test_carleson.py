import math

import numpy as np
import pytest

from compoplab.carleson import CarlesonProfile, rho_profile
from compoplab.experiments import radius_stability
from compoplab.spectra import linear_fit
from compoplab.symbols import (
    Cusp,
    ExplicitSeries,
    Lens,
)

Q = 1 << 18


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
