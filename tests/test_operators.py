import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import compoplab as C
from compoplab import operators
from compoplab.operators import (
    build_matrix,
    hs_norm_sq,
    kernel_lower_bound,
    kernel_ratio,
    multiplicity_weights,
    strip_lattice,
    unboundedness_witness,
)
from compoplab.series import _circle_nodes, default_radius, default_sample_count
from compoplab.symbols import (
    Compose,
    Cusp,
    ExplicitSeries,
    Lens,
    ShapiroTaylor,
    SingularEvaluationError,
    Symbol,
)
from compoplab.spectra import singular_values, tensor_merge
from affine_oracle import affine_approximation_numbers, affine_hs_norm_sq
from polydisk_oracle import SizeGuardError, multi_index_oracle

HALF = ExplicitSeries([0, 0.5])
IDENTITY = ExplicitSeries([0, 1])
ROTATION = ExplicitSeries([0, np.exp(0.3j)])


def _per_column_reference(spec, truncation):
    """Coefficients of phi^k below degree K for k < K, one FFT per column:
    the circle transform as a plain loop.  A symbol that declares real
    coefficients is sampled on the first M/2 + 1 nodes and each column is
    the Hermitian FFT `np.fft.hfft` of its powers; any other symbol is
    sampled on the whole circle and each column is `np.fft.fft`."""
    r = default_radius(truncation - 1)
    m = default_sample_count(truncation - 1)
    nodes = _circle_nodes(r, m)
    if spec.real_coefficients:
        nodes, transform = nodes[: m // 2 + 1], lambda row: np.fft.hfft(row, n=m)
    else:
        transform = np.fft.fft
    values = np.asarray(spec.evaluate(nodes), dtype=complex)
    unscale = 1.0 / (m * r ** np.arange(truncation))
    running = np.ones(values.size, dtype=complex)
    cols = []
    for k in range(truncation):
        if k:
            running = running * values
        cols.append(transform(running)[:truncation] * unscale)
    return cols


@dataclass(frozen=True)
class _FullCircle(Symbol):
    """`spec` without its declaration of real coefficients, so its columns
    come from the full-circle complex transform."""

    spec: Symbol

    def _raw(self, z):
        return self.spec._raw(z)


def test_identity_matrix():
    m = build_matrix(IDENTITY, 16)
    assert np.max(np.abs(m - np.eye(16))) < 1e-12


def test_half_map_matrix_is_geometric_diagonal():
    m = build_matrix(HALF, 24)
    expected = np.diag(2.0 ** -np.arange(24))
    assert np.max(np.abs(m - expected)) < 1e-12


def test_rotation_matrix_is_unitary_diagonal():
    alpha = 0.73
    m = build_matrix(ExplicitSeries([0, np.exp(1j * alpha)]), 16)
    expected = np.diag(np.exp(1j * alpha * np.arange(16)))
    assert np.max(np.abs(m - expected)) < 1e-12


def test_diagonal_polydisk_dimension_one_is_plain_matrix():
    for k in (1, 32, 1024, 4096):
        assert np.all(multiplicity_weights(k, 1) == 1.0)
    # exact integer binomials: C(k+1, 1) = k+1 and C(k+2, 2) = (k+1)(k+2)/2
    k = np.arange(1024)
    assert np.array_equal(multiplicity_weights(1024, 2), np.sqrt(np.arange(1, 1025)))
    assert np.array_equal(multiplicity_weights(1024, 3), np.sqrt((k + 1) * (k + 2) / 2))
    a = build_matrix(Lens(0.25), 32)
    assert np.array_equal(a * multiplicity_weights(32, 1), a)
    with pytest.raises(ValueError):
        multiplicity_weights(32, 0)


def test_diagonal_polydisk_half_map_closed_form():
    m = build_matrix(HALF, 16) * multiplicity_weights(16, 2)
    k = np.arange(16)
    expected = np.diag(2.0**-k * np.sqrt(k + 1.0))
    assert np.max(np.abs(m - expected)) < 1e-12
    s = singular_values(m)
    assert s.a(1) == pytest.approx(1.0, abs=1e-12)
    assert s.a(2) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    assert s.a(3) == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-12)


def test_multi_index_oracle_identity_map():
    m = multi_index_oracle(((1, IDENTITY), (2, IDENTITY)), 3)
    assert np.max(np.abs(m - np.eye(m.shape[0]))) < 1e-10


def test_oracle_matches_diagonal_reduction_half_map():
    oracle = singular_values(multi_index_oracle(((1, HALF),) * 2, 6))
    direct = singular_values(build_matrix(HALF, 7) * multiplicity_weights(7, 2))
    assert np.max(np.abs(oracle.values[:7] - direct.values)) < 1e-10
    assert np.max(oracle.values[7:]) < 1e-10


@pytest.mark.parametrize("spec", [HALF, Lens(0.25), Compose(C.BlaschkeSquare(0.5), HALF)])
@pytest.mark.parametrize("dim", [2, 3])
def test_oracle_equivalence_across_symbols(spec, dim):
    oracle = singular_values(multi_index_oracle(((1, spec),) * dim, 6))
    direct = singular_values(build_matrix(spec, 7) * multiplicity_weights(7, dim))
    assert np.max(np.abs(oracle.values[:7] - direct.values)) < 1e-8
    assert np.max(oracle.values[7:]) < 1e-8


def test_oracle_cross_validates_tensor_merge():
    # mixed map (lens(z1), lens(z1), z3/2): a product of a 2-d diagonal
    # block and a 1-d contraction.  The simplex-truncated oracle is
    # dominated by the merge of box-truncated factors, and the leading
    # values agree.
    lens = Lens(0.2)
    oracle = singular_values(multi_index_oracle(((1, lens), (1, lens), (3, HALF)), 6))
    factor_a = singular_values(build_matrix(lens, 7) * multiplicity_weights(7, 2))
    factor_b = singular_values(build_matrix(HALF, 7))
    merged = tensor_merge([factor_a, factor_b], len(oracle))
    k = min(len(merged), len(oracle))
    assert np.all(oracle.values[:k] <= merged.values[:k] + 1e-10)
    assert np.max(np.abs(oracle.values[:5] - merged.values[:5])) < 0.05 * merged.a(1)


def test_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        multi_index_oracle(((1, IDENTITY),) * 3, 26)


def test_hs_partial_sum_half_map():
    # at K = 2048 every sample of (z/2)^k lies below the smallest normal
    # float64 past k ~ 1016, so the blocks past it transform subnormals
    for truncation in (64, 2048):
        rep = hs_norm_sq(HALF, truncation)
        assert abs(rep.partial - 4.0 / 3.0) < 1e-12
        assert rep.trend == "converging"
    reference = np.stack(_per_column_reference(HALF, 2048), axis=1)
    assert np.array_equal(build_matrix(HALF, 2048), reference)


def test_hs_trend_rotation_diverges():
    assert hs_norm_sq(ROTATION, 256).trend == "diverging"
    with pytest.raises(ValueError):
        hs_norm_sq(HALF, 32)


class _HighPeak(Symbol):
    """0.9 + 0.9 z^20: the sampling circle of K = 64 (radius 0.881) sees at
    most modulus 0.971, but the coefficients have l2 norm 0.9 sqrt(2) = 1.27,
    so the map leaves the disk."""

    def _raw(self, z):
        return 0.9 + 0.9 * z**20


@pytest.mark.parametrize(
    "spec, truncation",
    [
        (Cusp(), 256),
        (Lens(0.5), 512),
        (ShapiroTaylor(3.0), 2048),  # about half the samples underflow past k ~ 1500
        (Cusp(), 1001),  # not a multiple of the block rows
        (Lens(0.5), 1),
        (Lens(0.5), 2),
        (ROTATION, 256),  # complex coefficients: the full circle
        (ExplicitSeries([0.1j, 0.5, 0.2 - 0.1j]), 300),
    ],
)
def test_blocked_columns_match_the_per_column_loop(spec, truncation):
    cols = _per_column_reference(spec, truncation)
    assert np.array_equal(build_matrix(spec, truncation), np.stack(cols, axis=1))
    if truncation >= 64:
        norms = np.array([np.sum(np.abs(col) ** 2) for col in cols])
        assert hs_norm_sq(spec, truncation).partial == float(norms.sum())
    if truncation <= 512:
        oracle = multi_index_oracle(((1, spec),), truncation - 1)
        assert np.array_equal(oracle, np.stack(cols, axis=1))


@pytest.mark.parametrize(
    "spec, truncation",
    [(C.BlaschkeSquare(0.5), 256), (Cusp(), 1024), (ShapiroTaylor(3.0), 2048)],
)
def test_hermitian_columns_agree_with_the_full_circle_transform(spec, truncation):
    # one rounding of a sample, amplified by the radius factor r^-k <= e^8;
    # measured 3.8e-13 for the Blaschke square, 1.9e-14 for Shapiro-Taylor
    real = build_matrix(spec, truncation)
    full = build_matrix(_FullCircle(spec), truncation)
    assert real.dtype == np.float64 and full.dtype == np.complex128
    assert np.max(np.abs(real - full)) <= np.finfo(float).eps * math.exp(8.0)


def test_sections_are_real_exactly_for_real_coefficients(roster):
    for name, spec in roster.items():
        want = np.float64 if spec.real_coefficients else np.complex128
        assert build_matrix(spec, 64).dtype == want, name
    # the registry's sections are real, so their SVDs run LAPACK's real dgesdd
    for spec in (Cusp(), Lens(0.25), ShapiroTaylor(2.0)):
        assert (build_matrix(spec, 64) * multiplicity_weights(64, 2)).dtype == np.float64
    assert build_matrix(ExplicitSeries([0.25, 0.5j]), 64).dtype == np.complex128


class _WideLine(Symbol):
    """0.8 + 0.8 z: modulus at most 0.8 (1 + e^-8) < 1 on the sampling
    circle of K = 1 and K = 2, but its coefficients have l2 norm 1.13."""

    def _raw(self, z):
        return 0.8 + 0.8 * z


def test_columns_reject_a_map_that_leaves_the_disk_off_the_circle():
    spec = _HighPeak()
    circle = 0.9 * (1.0 + math.exp(-8.0 / 63.0) ** 20)
    assert circle < 0.98
    with pytest.raises(SingularEvaluationError, match="l2 norm 1.27"):
        build_matrix(spec, 64)
    with pytest.raises(SingularEvaluationError, match="l2 norm 1.27"):
        hs_norm_sq(spec, 64)
    # K = 2 is the first truncation with a column 1 to check; K = 1 has none
    with pytest.raises(SingularEvaluationError, match="l2 norm 1.13"):
        build_matrix(_WideLine(), 2)
    assert np.array_equal(build_matrix(_WideLine(), 1), [[1.0]])


def _record_blocks(monkeypatch, cores):
    """Run the circle transform as if on `cores` cores; the returned list
    gathers the first power k0 of every block it transforms."""
    monkeypatch.setattr(operators, "_core_count", lambda: cores)
    seen = []
    transform = operators._transform_block

    def record(block, real_out, unscale, k0, sink):
        seen.append(k0)
        transform(block, real_out, unscale, k0, sink)

    monkeypatch.setattr(operators, "_transform_block", record)
    return seen


@pytest.mark.parametrize(
    "spec, truncation, cores, bounds",
    [
        # blocks of 4 rows, a multiple of the 2 threads
        (ShapiroTaylor(3.0), 2048, 2, (*range(0, 2048, 4), 2048)),
        # blocks of 8 rows, the last one short
        (Cusp(), 1001, 3, (*range(0, 1001, 8), 1001)),
        (Lens(0.5), 64, 4, (0, 64)),  # the powers fill one block: one thread
        (ROTATION, 1001, 3, (*range(0, 1001, 8), 1001)),  # the full-circle transform
    ],
)
def test_core_count_does_not_change_the_columns(monkeypatch, spec, truncation, cores, bounds):
    monkeypatch.setattr(operators, "_core_count", lambda: 1)
    matrix, report = build_matrix(spec, truncation), hs_norm_sq(spec, truncation)
    seen = _record_blocks(monkeypatch, cores)
    assert np.array_equal(build_matrix(spec, truncation), matrix)
    # every block start is transformed exactly once per call
    assert sorted(seen) == list(bounds[:-1])
    seen.clear()
    assert hs_norm_sq(spec, truncation) == report
    assert sorted(seen) == list(bounds[:-1])


def test_a_map_off_the_disk_submits_no_block(monkeypatch):
    seen = _record_blocks(monkeypatch, 4)
    pools = []

    def pool(*args, **kwargs):
        pools.append(args)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(operators, "ThreadPoolExecutor", pool)
    for call, spec, truncation, message in (
        (build_matrix, _HighPeak(), 64, "l2 norm 1.27"),
        (hs_norm_sq, _HighPeak(), 64, "l2 norm 1.27"),
        (build_matrix, _WideLine(), 2, "l2 norm 1.13"),
    ):
        with pytest.raises(SingularEvaluationError, match=message):
            call(spec, truncation)
    assert seen == [] and pools == []


@pytest.mark.parametrize(
    "spec, truncation",
    [(Lens(0.5), 512), (ROTATION, 256), (ExplicitSeries([0.1j, 0.5, 0.2 - 0.1j]), 300)],
)
def test_the_up_front_norm_is_the_norm_of_column_one(monkeypatch, spec, truncation):
    norms = []
    norm = operators._coefficient_norm

    def record(*args):
        norms.append(norm(*args))
        return norms[-1]

    monkeypatch.setattr(operators, "_coefficient_norm", record)
    column = build_matrix(spec, truncation)[:, 1]
    assert norms == [float(np.linalg.norm(column))]


def test_kernel_ratio_at_origin():
    assert kernel_ratio(Lens(0.5), 3, 0.0) == pytest.approx(1.0)


def test_kernel_ratio_identity_map_closed_form():
    # Phi(z) = (z_1, z_1): sqrt((1 - r^2) / (1 - r^2)^2) = (1 - r^2)^(-1/2)
    r = 0.9
    assert kernel_ratio(IDENTITY, 2, r) == pytest.approx((1 - r * r) ** -0.5, rel=1e-12)


def test_kernel_ratio_rejects_near_boundary():
    for r in (1 - 1e-13, 1.0):
        with pytest.raises(ValueError):
            kernel_ratio(IDENTITY, 2, r)


DILATION = ExplicitSeries([0, 0.8])
DILATION_EXACT = 0.8 ** np.arange(200)  # a_n = 0.8^(n-1): C_phi z^k = 0.8^k z^k


def test_kernel_lower_bound_matches_the_dilation():
    # 48 kernels on |a| = 0.9 span {sum_k 0.9^k d_(k mod 48) z^k}, on which
    # the values are 0.8^l (1 - O(0.9^96)); their strip nodes reach
    # Im alpha = 1.48
    nodes = 2.0 * np.arctanh(0.9 * np.exp(2j * np.pi * (np.arange(48) + 0.5) / 48))
    bound = kernel_lower_bound(DILATION, nodes)
    exact = DILATION_EXACT[: len(bound)]
    assert bound.semantics == "lower_bound_of_a_n"
    assert bound.truncation == 48 and len(bound) == 48
    assert np.all(bound.values <= exact)
    assert np.max(np.abs(bound.values[:20] / exact[:20] - 1.0)) <= 1e-4


def test_kernel_lower_bound_floor_cuts_an_over_dense_lattice():
    # cond(R) ~ 1e15 here, so only the leading values clear the floor; they
    # carry rounding near 1e-3 relative
    bound = kernel_lower_bound(DILATION, strip_lattice(-6.0, 6.0, 0.35, (0.0, 0.4, -0.4)))
    assert 0 < len(bound) < bound.truncation
    assert np.all(bound.values > bound.floor)
    assert np.all(bound.values <= DILATION_EXACT[: len(bound)] * (1.0 + 1e-2))


def test_kernel_lower_bound_lens_norm_and_second_value():
    bound = kernel_lower_bound(Lens(0.5), strip_lattice(-20.0, 20.0, 0.9, (0.0, 0.6, -0.6)))
    # lambda(0) = 0 forces ||C_lambda|| = 1
    assert bound.a(1) == pytest.approx(1.0, abs=1e-6)
    section = singular_values(build_matrix(Lens(0.5), 1024))
    assert bound.a(2) == pytest.approx(section.a(2), rel=1e-5)


# polynomials of degree <= 3 with coefficient l1 norm at most 0.8: no
# boundary contact, so the K = 256 section has converged to a_n
def _polynomial_of_l1_norm(coeffs, l1):
    return ExplicitSeries(np.array(coeffs) * (l1 / sum(map(abs, coeffs))))


_COEFF = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_SMALL_POLYNOMIALS = st.builds(
    _polynomial_of_l1_norm,
    st.lists(_COEFF, min_size=1, max_size=4).filter(lambda c: sum(map(abs, c)) >= 1e-3),
    st.floats(0.05, 0.8),
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_SMALL_POLYNOMIALS)
def test_kernel_lower_bound_stays_below_converged_sections(spec):
    bound = kernel_lower_bound(spec, strip_lattice(-8.0, 8.0, 0.5, (0.0, 0.6, -0.6, 1.1, -1.1)))
    section = singular_values(build_matrix(spec, 256))
    assert np.all(bound.values <= section.values[: len(bound)] + bound.floor)


def _reference_values(alpha, beta, count):
    """Top `count` values of the kernel bound from the Gram matrices in
    40-digit arithmetic: G_U = C_alpha and G_V = T C_beta T^H (the unit
    phases cancel); the values are the square roots of the eigenvalues of
    L^-1 G_V L^-H with G_U = L L^H."""
    with mp.workdps(40):
        a = [mp.mpc(complex(x)) for x in alpha]
        b = [mp.mpc(complex(x)) for x in beta]

        def cauchy(z):
            scale = [mp.sqrt(mp.cos(p.imag)) for p in z]
            return mp.matrix(
                [
                    [si * sj / mp.cosh((p - mp.conj(q)) / 2) for q, sj in zip(z, scale)]
                    for p, si in zip(z, scale)
                ]
            )

        t = mp.diag(
            [
                mp.sqrt(mp.cos(x.imag) / mp.cos(y.imag)) * mp.cosh(y / 2) / mp.cosh(x / 2)
                for x, y in zip(a, b)
            ]
        )
        l_inv = mp.inverse(mp.cholesky(cauchy(a)))
        squares = mp.eighe(l_inv * t * cauchy(b) * t.H * l_inv.H, eigvals_only=True)
        return np.sqrt(sorted((float(v) for v in squares), reverse=True)[:count])


@pytest.mark.parametrize(
    "spec, nodes",
    [
        (Lens(0.5), strip_lattice(-6.0, 6.0, 1.0, (0.0, 0.9, -0.9))),
        (ShapiroTaylor(2.0), strip_lattice(-6.0, 20.0, 2.0, (0.3, -0.3))),
    ],
    ids=["lens", "shapiro-taylor"],
)
def test_kernel_lower_bound_matches_a_40_digit_gram_reference(spec, nodes):
    # the strip images are taken as exact; the smallest kept values are
    # 1.5e-6 (lens) and 6.4e-14 (Shapiro-Taylor)
    bound = kernel_lower_bound(spec, nodes)
    reference = _reference_values(nodes, spec.strip_image(nodes), len(bound))
    assert np.max(np.abs(bound.values / reference - 1.0)) <= 1e-8


# phi(z) = a z + b with real and with complex coefficients, so the sections
# take the half-circle real transform and the full-circle complex one
AFFINE = [(0.5, 0.3), (0.3, 0.6), (0.5, -0.3 + 0.2j)]


def _affine_section_error(section, a, b):
    """Largest relative distance of the singular values of `section` from the
    exact a_n, over every a_n >= 1e-12 a_1."""
    exact = affine_approximation_numbers(a, b, section.shape[0])
    kept = exact >= 1e-12 * exact[0]
    return np.max(np.abs(singular_values(section).values[kept] / exact[kept] - 1.0))


@pytest.mark.parametrize("a, b", AFFINE)
def test_affine_sections_hs_sums_and_kernel_bounds_meet_the_closed_forms(a, b):
    # measured: sections 3.2e-9, 5.0e-7 and 1.1e-8 off over 50, 43 and 57
    # values; HS sums within 2.2e-16; kernel values at most a_n (1 - 2.0e-11)
    spec = ExplicitSeries([b, a])
    section = build_matrix(spec, 512)
    assert section.dtype == (np.float64 if b.imag == 0.0 else np.complex128)
    assert _affine_section_error(section, a, b) <= 1e-6
    assert abs(hs_norm_sq(spec, 256).partial / affine_hs_norm_sq(a, b) - 1.0) <= 1e-14
    bound = kernel_lower_bound(spec, strip_lattice(-20, 20, 0.9, (0, 0.6, -0.6))).values
    assert np.all(bound <= affine_approximation_numbers(a, b, bound.size))


def test_affine_oracle_rejects_a_section_that_keeps_the_radius_powers():
    # row j scaled by r^j, the power of the sampling radius the transform
    # divides out: 0.58 off
    section = build_matrix(ExplicitSeries([0.3, 0.5]), 512)
    rows = default_radius(511) ** np.arange(512)[:, None]
    assert _affine_section_error(section * rows, 0.5, 0.3) > 0.5


def test_kernel_lower_bound_rejects_bad_nodes():
    with pytest.raises(ValueError):
        kernel_lower_bound(Lens(0.5), np.array([0.0, 1.0 + 1.6j]))
    with pytest.raises(ValueError):
        kernel_lower_bound(Lens(0.5), np.array([], dtype=complex))
    with pytest.raises(ValueError):
        kernel_lower_bound(Lens(0.5), np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):  # cosh of half the Re spread would reach 710
        kernel_lower_bound(Lens(0.5), np.array([0.0, 1420.0]))


def test_witness_exact_values():
    w1 = unboundedness_witness(1)
    assert w1.norm_f == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert w1.norm_cf == 1.0
    w2 = unboundedness_witness(2)
    assert w2.norm_f == pytest.approx(math.sqrt(6.0 / 16.0), abs=1e-14)


def test_witness_rejects_out_of_range():
    with pytest.raises(ValueError):
        unboundedness_witness(0)
    with pytest.raises(ValueError):
        unboundedness_witness(10**6 + 1)


def test_finite_section_monotone_in_truncation(roster):
    for name in ("lens-half", "cusp", "blaschke-lens", "half-map"):
        spec = roster[name]
        small = singular_values(build_matrix(spec, 64))
        large = singular_values(build_matrix(spec, 128))
        assert np.all(small.values <= large.values[:64] + 1e-12), name


def test_norm_bounded_by_classical_envelope(roster):
    for name, spec in roster.items():
        top = singular_values(build_matrix(spec, 128)).a(1)
        phi0 = abs(spec.evaluate(0.0))
        bound = math.sqrt((1 + phi0) / (1 - phi0))
        assert top <= bound + 1e-6, name


def test_build_rejects_non_self_map():
    class Doubling(Symbol):
        def _raw(self, z):
            return 2.0 * z

    with pytest.raises(ArithmeticError):
        build_matrix(Doubling(), 16)


def test_explicit_series_rejects_non_self_map():
    with pytest.raises(ValueError, match="not a self-map"):
        ExplicitSeries([1.2])
    with pytest.raises(ValueError, match="not a self-map"):
        ExplicitSeries([0.5, 0.6])
    # |0.5 + 0.5 z| reaches 1 only at z = 1
    assert ExplicitSeries([0.5, 0.5]).evaluate(0.0) == 0.5
