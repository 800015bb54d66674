import math

import numpy as np
import pytest

from compoplab import spectra
from compoplab.carleson import CarlesonProfile
from compoplab.experiments import kronecker_gap, schedule_route, section_decay
from compoplab.operators import build_matrix
from compoplab.spectra import (
    SingularSpectrum,
    SvdError,
    beta_estimate,
    classify_series_convergence,
    decay_fit,
    delta_from_epsilon,
    epsilon_power,
    extremal_pair_count,
    extremal_spectrum,
    find_M,
    linear_fit,
    nu_count,
    nu_count_bruteforce,
    singular_values,
    tensor_lemma_report,
    tensor_merge,
    upper_bound_plain,
    upper_bound_weighted,
)
from compoplab.symbols import ExplicitSeries, Lens
from conftest import integer_pair_count, supermultiplicativity_gaps


def test_singular_values_of_geometric_diagonal():
    m = np.diag(2.0 ** -np.arange(12))
    s = singular_values(m)
    assert np.allclose(s.values, 2.0 ** -np.arange(12))
    assert s.semantics == "lower_bound_of_a_n"
    assert s.a(3) == pytest.approx(0.25)


def test_singular_values_rank_one_constant_symbol():
    s = singular_values(build_matrix(ExplicitSeries([0.5]), 64))
    # the norm of a rank-one composition with constant value c is the
    # kernel norm (1-|c|^2)^(-1/2)
    assert s.a(1) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    assert s.a(2) <= 1e-12


def test_lens_section_decays_at_least_sqrt_exponentially():
    # the two-sided sqrt-exponential law is not visible on desk-scale
    # sections (they are lower bounds and keep rising with K); what a
    # section must show is decay at least this fast on its clean range
    s = singular_values(build_matrix(Lens(0.5), 512))
    _, _, detail, ok = section_decay(s, (20, 100), 0.45)
    assert ok, detail


def test_merge_small_exact():
    merged = tensor_merge([[1.0, 0.5], [1.0, 1.0 / 3.0]], 4)
    assert np.allclose(merged.values, [1.0, 0.5, 1.0 / 3.0, 1.0 / 6.0])


def test_merge_matches_kronecker_svd(rng):
    worst, ok = kronecker_gap([rng] * 10)  # ten pairs drawn in turn from one generator
    assert ok, worst


def test_merge_multiset_equality_exhaustive(rng):
    s = np.sort(rng.uniform(0.1, 1.0, 12))[::-1]
    t = np.sort(rng.uniform(0.1, 1.0, 11))[::-1]
    merged = tensor_merge([s, t], s.size * t.size)
    brute = np.sort(np.outer(s, t).ravel())[::-1]
    assert np.allclose(merged.values, brute, atol=0.0, rtol=0.0)


def test_merge_supermultiplicativity():
    s = np.exp(-np.sqrt(np.arange(1, 25, dtype=float)))
    t = np.exp(-0.3 * np.arange(1, 25, dtype=float) ** 0.7)
    assert supermultiplicativity_gaps(tensor_merge([s, t], 600), s, t) == []


def test_merge_takes_the_weakest_factor_semantics():
    diag = singular_values(np.diag([1.0, 0.5, 0.25]))
    exact = SingularSpectrum(np.array([1.0, 0.5]), truncation=2, semantics="exact")
    synthetic = SingularSpectrum(np.array([1.0, 0.3]), truncation=2)
    bare = np.array([1.0, 0.2])
    for pair, expected in (
        ((diag, bare), "synthetic"),
        ((diag, synthetic), "synthetic"),
        ((diag, exact), "lower_bound_of_a_n"),
        ((exact, exact), "exact"),
    ):
        for factors in (pair, pair[::-1]):
            assert tensor_merge(list(factors), 4).semantics == expected, factors


def test_merge_cut_inside_a_tie_group():
    # products 1.0 (6 pairs), 0.5 (13 pairs), 0.25 (6 pairs): every n_max
    # from 7 to 18 cuts inside the group of 0.5
    s = np.repeat([1.0, 0.5], [2, 3])
    t = np.repeat([1.0, 0.5], [3, 2])
    assert np.array_equal(tensor_merge([s, t], 10).values, np.repeat([1.0, 0.5], [6, 4]))
    brute = np.sort(np.outer(s, t).ravel())[::-1]
    for n in range(1, 30):
        assert np.array_equal(tensor_merge([s, t], n).values, brute[:n]), n


def test_merge_of_all_distinct_factors_against_the_full_outer_product():
    # 2,000 distinct values each: every group has one member, so the merge
    # keeps only the pairs j*k <= n_max of the 4,000,000 products
    rng = np.random.default_rng(2000)
    s = np.sort(rng.uniform(0.0, 1.0, 2000))[::-1]
    t = np.sort(rng.uniform(0.0, 1.0, 2000))[::-1]
    assert np.unique(s).size == np.unique(t).size == 2000
    brute = np.sort(np.outer(s, t).ravel())[::-1][:2000]
    assert np.array_equal(tensor_merge([s, t], 2000).values, brute)


def test_order_dependent_functions_reject_unsorted_bare_arrays():
    # each input increases somewhere; read in order, the answers were wrong
    # (0, 0 and [1.0, 0.1] against 2, 2 and [1.0, 0.9])
    assert nu_count_bruteforce([0.1, 1.0], [1.0, 0.9], 1.0, 1) == 2
    assert nu_count_bruteforce([1.0, 0.5], [0.2, 1.0], 1.0, 1) == 2
    for call in (
        lambda: nu_count([0.1, 1.0], [1.0, 0.9], 1.0, 1),
        lambda: nu_count([1.0, 0.5], [0.2, 1.0], 1.0, 1),
        lambda: tensor_merge([[0.1, 1.0], [1.0, 0.9]], 2),
    ):
        with pytest.raises(ValueError, match="non-increasing"):
            call()
    with pytest.raises(ValueError, match="non-negative"):
        nu_count([1.0, -0.5], [1.0], 1.0, 1)
    with pytest.raises(ValueError, match="non-negative"):
        tensor_merge([[1.0], [1.0, -0.5]], 2)


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
    # criterion 5's pairs at every n it reports, including n < 3 (no pairs);
    # the report reads the same counts from level sizes built once for n = 30
    for a_exp, b_exp in ((2.0, 1.0), (1.5, 2.25), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0)):
        report = tensor_lemma_report(a_exp, b_exp, 30)
        for n in range(1, 31):
            count = extremal_pair_count(a_exp, b_exp, n)
            assert count == integer_pair_count(a_exp, b_exp, n), (a_exp, b_exp, n)
            assert (count == 0) == (n < 3), (a_exp, b_exp, n)
            assert report.nu[n - 1] == count, (a_exp, b_exp, n)


def test_nu_count_also_counts_level_pairs_whose_product_rounds_above():
    # criterion 5's oracle sequences: (A, B) = (2, 1), rate 1, 31 levels.
    # Every pair nu_count finds beyond the exact count lies on p + q = n,
    # where the float product e^-p e^-q rounds above e^-n
    s = extremal_spectrum(2.0, 1.0, 31)
    t = extremal_spectrum(1.0, 1.0, 31)
    level = np.exp(-np.arange(1.0, 32))
    ties_at = {
        5: (22, 14, [(2, 3), (3, 2)]),
        9: (140, 140, []),
        14: (741, 650, [(2, 12), (5, 9), (6, 8), (7, 7), (8, 6), (9, 5), (12, 2)]),
    }
    for n, (counted, exact, ties) in ties_at.items():
        assert nu_count(s, t, 1.0, n) == nu_count_bruteforce(s, t, 1.0, n) == counted
        assert extremal_pair_count(2.0, 1.0, n) == exact
        tie = [(p, n - p) for p in range(1, n) if level[p - 1] * level[n - p - 1] > math.exp(-n)]
        assert tie == ties
        # the tie pairs, weighted by their level sizes, are the whole difference
        sizes = [np.count_nonzero(s == level[p - 1]) * np.count_nonzero(t == level[q - 1])
                 for p, q in tie]
        assert counted - exact == sum(sizes)


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


def find_m_loop(a_exp, b_exp):
    """find_M's definition checked one n at a time: the smallest M >= 1 with
    T(n) + 1 <= M n^(A+B) for n <= 100, certified by the Riemann limit
    Beta(A+1, B) < M and by the ratios of n = 91..100 moving monotonically."""
    best, tail = 1, []
    for n in range(1, 101):
        l = np.arange(1, n + 1, dtype=float)
        total = float(np.sum((n - l + 1.0) ** a_exp * l ** (b_exp - 1.0)))
        ratio = (total + 1.0) / float(n) ** (a_exp + b_exp)
        best = max(best, math.ceil(ratio - 1e-12))
        if n > 90:
            tail.append(ratio)
    limit = math.gamma(a_exp + 1.0) * math.gamma(b_exp) / math.gamma(a_exp + b_exp + 1.0)
    rising = all(x <= y for x, y in zip(tail, tail[1:]))
    falling = all(x >= y for x, y in zip(tail, tail[1:]))
    if best <= limit or not (rising or falling):
        raise ArithmeticError("no certificate")
    return best


def test_find_m_equals_the_per_n_loop():
    # A in [0.25, 4] and B in [0.25, 4.5] in steps of 0.25, and the pairs the
    # registry, the criteria and the benchmark use
    grid = [(0.25 * i, 0.25 * j) for i in range(1, 17) for j in range(1, 19)]
    grid += [(2.0, 1.0), (1.5, 2.25), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0), (0.5, 3.0)]
    refused = 0
    for a_exp, b_exp in grid:
        try:
            want = find_m_loop(a_exp, b_exp)
        except ArithmeticError:
            refused += 1
            with pytest.raises(ArithmeticError):
                find_M(a_exp, b_exp)
            continue
        assert find_M(a_exp, b_exp) == want, (a_exp, b_exp)
    # both outcomes are exercised
    assert 0 < refused < len(grid) // 2


def test_find_m_refuses_a_turning_tail(monkeypatch):
    # at n <= 15 the ratios of (0.5, 0.5) fall to 1.3396 at n = 9 and rise
    # after it, although their largest value and the limit pi/2 fit M = 2
    monkeypatch.setattr(spectra, "_FIND_M_N", 15)
    with pytest.raises(ArithmeticError):
        find_M(0.5, 0.5)


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
    _, _, plain, target, ok = schedule_route(epsilon_power(0.5), 30)
    assert ok, plain / target - 1.0


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
    assert (est.beta_minus_hat, est.beta_plus_hat) == (0.0, 0.0)
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


def test_decay_fit_guards():
    with pytest.raises(ValueError):
        decay_fit(np.array([1.0, 0.5, 0.4]), "poly", (1, 3))
    with pytest.raises(ValueError):
        decay_fit(np.exp(-np.arange(1.0, 10.0)), "unknown", (1, 9))
    # a range past the end of the spectrum is refused, not shrunk
    with pytest.raises(ValueError):
        decay_fit(np.exp(-np.arange(1.0, 51.0)), "poly", (1, 100))


def test_schatten_membership_classification():
    # s lies in the Schatten class S_p iff sum s_n^p converges
    n = np.arange(1, (1 << 16) + 1, dtype=float)
    with np.errstate(under="ignore"):
        schedule = np.exp(-n * epsilon_power(0.5)(n))
        for values, p, verdict in (
            (np.exp(-np.sqrt(n)), 0.1, "converging"),
            (schedule, 0.1, "converging"),
            (1.0 / n, 1.0, "diverging"),
            (1.0 / n**2, 1.0, "converging"),
        ):
            assert classify_series_convergence(values**p) == verdict


def test_classifier_growing_blocks():
    assert classify_series_convergence(np.ones(1 << 12)) == "diverging"


def test_schedule_validation_and_delta_construction():
    with pytest.raises(ValueError):
        epsilon_power(-0.5)
    eps = epsilon_power(0.5)
    delta = delta_from_epsilon(eps, n_max=1 << 12)
    ns = np.array([2, 7, 100, 1000], dtype=float)
    eps_vals = eps(ns)
    assert np.all(delta(eps_vals) <= np.exp(-ns * eps_vals) * (1 + 1e-12))
    grid = np.geomspace(1e-3, 0.8, 50)
    vals = delta(grid)
    assert np.all(np.diff(vals) >= -1e-18)


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
    with pytest.raises(SvdError, match="finite=False"):
        singular_values(bad)


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
