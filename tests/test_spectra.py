import math

import numpy as np
import pytest

import compoplab as C
from compoplab.carleson import CarlesonProfile
from compoplab.operators import build_matrix
from compoplab.series import PowerSeries
from compoplab.spectra import (
    Schedule,
    SingularSpectrum,
    beta_estimate,
    classify_series_convergence,
    decay_fit,
    extremal_pair_count,
    extremal_spectrum,
    find_M,
    linear_fit,
    nu_count,
    nu_count_bruteforce,
    schatten_membership,
    singular_values,
    tensor_lemma_report,
    tensor_merge,
    upper_bound_plain,
    upper_bound_weighted,
)
from compoplab.symbols import ExplicitSeries, Lens, Rotation, Scalar


def test_singular_values_of_geometric_diagonal():
    m = np.diag(2.0 ** -np.arange(12))
    s = singular_values(m)
    assert np.allclose(s.values, 2.0 ** -np.arange(12))
    assert s.semantics == "lower_bound_of_a_n"
    assert s.a(3) == pytest.approx(0.25)


def test_singular_values_rank_one_constant_symbol():
    s = singular_values(build_matrix(Scalar(0.5), 64))
    # the norm of a rank-one composition with constant value c is the
    # kernel norm (1-|c|^2)^(-1/2)
    assert s.a(1) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    assert s.a(2) <= 1e-12


def test_lens_section_decays_at_least_sqrt_exponentially():
    # the two-sided sqrt-exponential law is not visible on desk-scale
    # sections (they are lower bounds and keep rising with K); what a
    # section must show is decay at least this fast on its clean range
    s = singular_values(build_matrix(Lens(0.5), 512))
    fit = decay_fit(s, "stretched_exp", (20, 100))
    assert fit.params["rate"] > 0
    assert fit.params["exponent"] >= 0.45
    assert fit.r_squared >= 0.98


def test_merge_small_exact():
    merged = tensor_merge([[1.0, 0.5], [1.0, 1.0 / 3.0]], 4)
    assert np.allclose(merged.values, [1.0, 0.5, 1.0 / 3.0, 1.0 / 6.0])


def test_merge_matches_kronecker_svd(rng):
    worst = 0.0
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        merged = tensor_merge([sa, sb], 30)
        kron = np.linalg.svd(np.kron(a, b), compute_uv=False)
        worst = max(worst, float(np.max(np.abs(merged.values - kron))))
    assert worst < 1e-10 * kron[0]


def test_merge_multiset_equality_exhaustive(rng):
    s = np.sort(rng.uniform(0.1, 1.0, 12))[::-1]
    t = np.sort(rng.uniform(0.1, 1.0, 11))[::-1]
    merged = tensor_merge([s, t], s.size * t.size)
    brute = np.sort(np.outer(s, t).ravel())[::-1]
    assert np.allclose(merged.values, brute, atol=0.0, rtol=0.0)


def test_merge_supermultiplicativity():
    s = np.exp(-np.sqrt(np.arange(1, 25, dtype=float)))
    t = np.exp(-0.3 * np.arange(1, 25, dtype=float) ** 0.7)
    merged = tensor_merge([s, t], 600)
    for n in range(1, 21):
        for m in range(1, 21):
            assert merged.a(n * m) >= s[n - 1] * t[m - 1]


def test_merge_rejects_empty():
    with pytest.raises(ValueError):
        tensor_merge([], 5)
    with pytest.raises(ValueError):
        tensor_merge([[1.0]], 0)


def test_nu_count_trivial_and_synthetic():
    assert nu_count([1.0], [1.0], 2.0, 3) == 1
    for c in (1.0, 0.37):
        s = extremal_spectrum(2.0, c, 15)
        t = extremal_spectrum(1.0, c, 15)
        for n in (5, 10):
            assert nu_count(s, t, c, n) == nu_count_bruteforce(s, t, c, n)


def test_extremal_pair_count_matches_integer_loop():
    # the float-free combinatorial identity: pairs with
    # ceil(j^(1/A)) + ceil(k^(1/B)) <= n-1, counted by multiplicities
    for a_exp, b_exp in ((2.0, 1.0), (1.5, 2.25)):
        cnt_a = np.diff(np.floor(np.arange(0, 31, dtype=float) ** a_exp).astype(int))
        cnt_b = np.diff(np.floor(np.arange(0, 31, dtype=float) ** b_exp).astype(int))
        for n in (4, 9, 17):
            brute = sum(
                int(cnt_a[p - 1]) * int(cnt_b[q - 1])
                for p in range(1, n)
                for q in range(1, n)
                if p + q <= n - 1
            )
            assert extremal_pair_count(a_exp, b_exp, n) == brute


def test_nu_count_requires_normalized_heads():
    with pytest.raises(ValueError):
        nu_count([2.0], [1.0], 1.0, 1)


def test_find_m_values_and_certificate():
    assert find_M(1.0, 1.0) == 2
    m = find_M(2.0, 1.0)
    for n in range(1, 101):
        l = np.arange(1, n + 1, dtype=float)
        total = float(np.sum((n - l + 1.0) ** 2.0))
        assert total <= m * float(n) ** 3 - 1.0
    assert find_M(0.5, 3.0) >= 1
    with pytest.raises(ValueError):
        find_M(-1.0, 1.0)


def test_tensor_lemma_rank_bound_all_pairs():
    for a_exp, b_exp in [(2.0, 1.0), (1.5, 2.25), (2.0, 2.0), (2.0, 4.0)]:
        report = tensor_lemma_report(a_exp, b_exp, n_max=30)
        assert report.passed, (a_exp, b_exp)


def test_tensor_lemma_direct_merge_route():
    a_exp, b_exp, c = 2.0, 1.0, 1.0
    m_const = find_M(a_exp, b_exp)
    s = extremal_spectrum(a_exp, c, 31)
    t = extremal_spectrum(b_exp, c, 31)
    merged = tensor_merge([s, t], m_const * 30**3)
    for n in range(1, 31):
        rank = min(m_const * n**3, len(merged))
        assert merged.a(rank) <= math.exp(-c * n) * (1 + 1e-12)


def test_upper_bound_plain_zero_profile():
    h = np.linspace(0.99, 0.01, 50)[::1]
    prof = CarlesonProfile.synthetic(np.sort(h)[::-1], lambda x: 0.0)
    assert upper_bound_plain(prof, 10) == pytest.approx(math.exp(-9.9), rel=1e-12)


def test_upper_bound_plain_exponential_profile_oracle():
    # rho(h) = h e^{-2/h}: equalizing e^{-nh} with e^{-1/h} puts the grid
    # minimum near 2 e^{-sqrt(n)}; cross-checked against a dense search
    prof = CarlesonProfile.synthetic(
        np.geomspace(0.9, 1e-3, 400), lambda h: h * math.exp(-2.0 / h)
    )
    for n in (50, 100, 200):
        bound = upper_bound_plain(prof, n)
        dense = np.geomspace(0.9, 1e-4, 20000)
        oracle = float(np.min(np.exp(-n * dense) + np.exp(-1.0 / dense)))
        assert bound <= 2.0 * oracle
        assert -1.05 <= math.log(bound) / math.sqrt(n) <= -0.80


def test_upper_bound_plain_schedule_calibration():
    eps = Schedule.epsilon_power(0.5)
    delta = Schedule.delta_from_epsilon(eps, n_max=4096)
    probes = np.array([16, 64, 256, 1024])
    eps_vals = eps.epsilon(probes)
    h_grid = np.unique(np.concatenate([np.geomspace(0.9, 1e-3, 30), eps_vals]))[::-1]
    prof = CarlesonProfile.synthetic(h_grid, lambda h: h * float(delta.delta(h)) ** 2)
    for n, e in zip(probes, eps_vals):
        assert upper_bound_plain(prof, int(n)) <= 2.0 * math.exp(-n * e) * (1 + 1e-12)


def test_upper_bound_weighted_shapes():
    grid = np.geomspace(0.9, 1e-3, 200)
    cusp_like = CarlesonProfile.synthetic(grid, lambda h: math.exp(-2.0 / h))
    shapes = [
        math.log(upper_bound_weighted(cusp_like, n, 0.0)) / math.sqrt(n)
        for n in (16, 64, 256, 1024, 4096)
    ]
    assert max(shapes) <= -0.4

    square_law = CarlesonProfile.synthetic(grid, lambda h: h * h * math.exp(-2.0 / h**2))
    shapes = [
        math.log(upper_bound_weighted(square_law, n, 0.0)) / n ** (2.0 / 3.0)
        for n in (16, 64, 256, 1024, 4096)
    ]
    assert max(shapes) <= -0.7


def test_upper_bound_weighted_reduces_to_plain_at_hardy_weight():
    prof = CarlesonProfile.synthetic(np.geomspace(0.9, 1e-3, 100), lambda h: h * h)
    for n in (3, 37, 200):
        assert upper_bound_weighted(prof, n, -1.0) == pytest.approx(
            upper_bound_plain(prof, n), rel=1e-14
        )


def test_beta_estimate_exact_laws():
    n = np.arange(1, 401, dtype=float)
    stretched = np.exp(-np.sqrt(n))
    est = beta_estimate(stretched, 2, (100, 400))
    assert est.beta_minus_hat == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert est.beta_plus_hat == pytest.approx(math.exp(-1.0), abs=1e-12)

    slow_poly = n**-0.1
    est = beta_estimate(slow_poly, 2, (100, 400))
    assert est.beta_minus_hat >= 0.95  # polynomial decay has beta limit 1

    steep = np.exp(-n)
    est = beta_estimate(steep, 2, (100, 400))
    assert est.beta_plus_hat <= math.exp(-10.0) * (1 + 1e-12)


def test_beta_estimate_poly_windows_increase_toward_one():
    n = np.arange(1, 20001, dtype=float)
    vals = n**-1.5
    windows = [beta_estimate(vals, 2, (m // 2, m)).beta_minus_hat for m in (400, 4000, 20000)]
    assert windows[0] < windows[1] < windows[2]


def test_beta_estimate_degenerate_and_window_checks():
    est = beta_estimate(np.array([1.0, 0.5, 0.0]), 2, (1, 3))
    assert est.degenerate
    with pytest.raises(ValueError):
        beta_estimate(np.array([1.0, 0.5]), 2, (1, 5))


def test_decay_fit_exact_models():
    n = np.arange(1, 200, dtype=float)
    stretched = np.exp(-2.0 * np.sqrt(n))
    fit = decay_fit(stretched, "stretched_exp", (1, 199))
    assert fit.params["exponent"] == pytest.approx(0.5, abs=1e-6)
    assert fit.params["rate"] == pytest.approx(2.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    poly = n**-1.5
    fit = decay_fit(poly, "poly", (1, 199))
    assert fit.params["power"] == pytest.approx(1.5, abs=1e-6)

    expo = 3.0 * np.exp(-0.25 * n)
    fit = decay_fit(expo, "exp_linear", (1, 199))
    assert fit.params["rate"] == pytest.approx(0.25, abs=1e-8)


def test_decay_fit_guards():
    with pytest.raises(ValueError):
        decay_fit(np.array([1.0, 0.5, 0.4]), "poly", (1, 3))
    with pytest.raises(ValueError):
        decay_fit(np.exp(-np.arange(1.0, 10.0)), "unknown", (1, 9))
    # a range past the end of the spectrum is refused, not shrunk
    with pytest.raises(ValueError):
        decay_fit(np.exp(-np.arange(1.0, 51.0)), "exp_linear", (1, 100))


def test_schatten_membership_classification():
    n = np.arange(1, (1 << 16) + 1, dtype=float)
    with np.errstate(under="ignore"):
        assert schatten_membership(np.exp(-np.sqrt(n)), 0.1) == "summable"
    assert schatten_membership(1.0 / n, 1.0) == "not_summable"
    assert schatten_membership(1.0 / n**2, 1.0) == "summable"
    assert schatten_membership(Schedule.epsilon_power(0.5), 0.1) == "summable"
    with pytest.raises(ValueError):
        schatten_membership(1.0 / n, 0.0)


def test_classifier_growing_blocks():
    assert classify_series_convergence(np.ones(1 << 12)) == "not_summable"


def test_schedule_validation_and_delta_construction():
    with pytest.raises(ValueError):
        Schedule("epsilon_n", lambda n: -1.0 / n)
    with pytest.raises(ValueError):
        Schedule.epsilon_power(-0.5)
    eps = Schedule.epsilon_power(0.5)
    delta = Schedule.delta_from_epsilon(eps, n_max=1 << 12)
    ns = np.array([2, 7, 100, 1000], dtype=float)
    eps_vals = eps.epsilon(ns)
    assert np.all(delta.delta(eps_vals) <= np.exp(-ns * eps_vals) * (1 + 1e-12))
    grid = np.geomspace(1e-3, 0.8, 50)
    vals = delta.delta(grid)
    assert np.all(np.diff(vals) >= -1e-18)
    with pytest.raises(ValueError):
        delta.epsilon(ns)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([0.5, 1.0]), truncation=2)
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, -0.5]), truncation=2)
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, 0.5]), truncation=2, semantics="nope")
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, 0.5]), truncation=2, floor=0.5)


def test_svd_error_diagnostics():
    bad = np.full((4, 4), np.nan)
    with pytest.raises((C.spectra.SvdError, ValueError)):
        singular_values(bad)


def test_singular_values_respects_n_max():
    m = np.diag([4.0, 3.0, 2.0, 1.0])
    s = singular_values(m, n_max=2)
    assert np.allclose(s.values, [4.0, 3.0])
    with pytest.raises(ValueError):
        singular_values(m, n_max=9)


def test_upper_bound_plain_accepts_delta_schedule():
    eps = Schedule.epsilon_power(0.5)
    delta = Schedule.delta_from_epsilon(eps, n_max=1 << 12)
    value = upper_bound_plain(delta, 100)
    assert 0.0 < value < 1.0


def test_linear_fit_line_constant_and_noise(rng):
    x = np.linspace(-3.0, 5.0, 17)
    slope, intercept, r2 = linear_fit(x, 2.5 * x - 0.75)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert intercept == pytest.approx(-0.75, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    # constant y: nothing to explain, the ss_tot == 0 branch reports R^2 = 1
    slope, intercept, r2 = linear_fit(x, np.full(x.size, 4.0))
    assert r2 == 1.0
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(4.0, abs=1e-12)
    # for a least-squares line R^2 is the squared correlation coefficient
    y = x + rng.normal(size=x.size)
    assert linear_fit(x, y)[2] == pytest.approx(np.corrcoef(x, y)[0, 1] ** 2, rel=1e-12)
