"""Matrices of composition operators in orthonormal monomial bases.

Column k of the matrix of C_phi is the coefficient vector of phi^k.  One
circle transform (`_grid_power_columns`) gives every such column, for
`build_matrix` and `hs_norm_sq` alike.  The calling thread computes the
one chain of powers in blocks and a pool of threads, one per core, runs
their FFTs, so the columns do not depend on the core count, bit for bit.
A symbol that declares real Taylor coefficients
(`Symbol.real_coefficients`) has Hermitian samples on the circle, so the
transform samples half of it and its columns, and the sections built
from them, are real float64; every other symbol gives complex128
columns.  The diagonal polydisk map Phi(z) = (phi(z_1), ..., phi(z_1))
on H^2(D^N) reduces exactly to the one-variable section with column k
scaled by the multiplicity weight sqrt(C(k+N-1, N-1)):
`build_matrix(spec, K) * multiplicity_weights(K, N)`.

Sections are lower bounds of the approximation numbers that converge
slowly for boundary-touching symbols; `kernel_lower_bound` gives lower
bounds from reproducing kernels instead, which reach the contact points.
Their Gram matrices are scaled Cauchy matrices in strip coordinates, so
they are factored exactly, from products alone (`_cauchy_factor`).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .series import MAX_ORDER, _circle_nodes, default_radius, default_sample_count
from .spectra import SingularSpectrum, classify_series_convergence
from .symbols import SingularEvaluationError, Symbol

__all__ = [
    "HsReport",
    "WitnessNorms",
    "build_matrix",
    "multiplicity_weights",
    "hs_norm_sq",
    "kernel_ratio",
    "kernel_lower_bound",
    "strip_lattice",
    "unboundedness_witness",
]

# Bytes of one block of powers, at 16 bytes per sample of the M-point
# circle: 4 power rows at K = 2048 and 8 at K = 1024.  A Hermitian row holds
# the same bytes, M/2 + 1 complex samples and M real outputs.  Each thread
# of `_grid_power_columns`'s pool owns one such block; each FFT row is
# computed alone, so the columns do not depend on the block size.
_BLOCK_BYTES = 1 << 20


def _core_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _transform_block(block, real_out, unscale, k0, sink):
    """Pass (k0, cols) to `sink`, cols[i] the coefficients of the power in
    row i of `block`, phi^(k0+i), from one batched FFT.

    With `real_out` None the rows are the full circle and the FFT runs in
    place.  Otherwise the rows are the conjugated powers on the half circle,
    and the unscaled inverse real FFT into `real_out` is the FFT of the
    Hermitian row, bit for bit `np.fft.hfft` of the unconjugated powers
    (negation is exact, so the powers of the conjugates are the conjugated
    powers).
    """
    # into a preallocated output (needs numpy >= 2.0): a fresh output per
    # block cost more than the FFT
    if real_out is None:
        cols = np.fft.fft(block, axis=1, out=block)
    else:
        cols = np.fft.irfft(block, real_out.shape[1], axis=1, norm="forward", out=real_out)
    sink(k0, cols[:, : unscale.size] * unscale)


def _coefficient_norm(values, m, unscale) -> float:
    """l2 norm of column 1 of the transform (the H^2 norm of phi, up to alias
    and rounding), from the samples as it powers them: all M = `m` nodes of
    the circle, or the conjugates on its first M/2 + 1."""
    coeffs = np.fft.fft(values) if values.size == m else np.fft.irfft(values, m, norm="forward")
    return float(np.linalg.norm(coeffs[: unscale.size] * unscale))


def _grid_power_columns(spec: Symbol, truncation: int, sink) -> None:
    """Call sink(k0, cols), where cols[i] holds the coefficients of
    phi^(k0+i) below degree K = `truncation`, until every k < K is covered.

    One evaluation of phi on the sampling circle (radius exp(-8/(K-1)),
    8K samples rounded up to a power of two: 16,384 at K = 2048), then
    pointwise powers and their FFTs: the discrete Cauchy integral
    c_k ~ (1/(M r^k)) sum_m f(r w^m) w^(-km) (Bornemann, Found. Comput.
    Math. 11, 2011).  When `spec.real_coefficients`, phi(conj z) =
    conj(phi(z)), so the samples of phi^k are Hermitian: phi is evaluated
    and powered on the first M/2 + 1 nodes only, and a Hermitian FFT
    (`np.fft.hfft`) gives the coefficients exactly real, as float64
    columns; otherwise the columns are complex128 from full-circle FFTs.
    The calling thread computes the one chain of powers, row k = row k-1
    times the samples from a row of ones, in blocks of `_BLOCK_BYTES`, and
    hands each block to a pool of min(cores, blocks) threads that run its
    batched FFT and `sink` (`_transform_block`), so `sink` must write each
    call into its own slice.  Each pool thread owns one block, refilled
    once its previous transform is done.  With one chain, and every FFT
    row computed alone, the columns equal those of one FFT per column bit
    for bit, whatever the core count.  The alias bound holds uniformly in
    k only for sup |phi| <= 1, so two lower bounds of sup |phi| are
    checked against 1 on the calling thread before any power is taken:
    the maximum modulus on the circle and `_coefficient_norm`.
    """
    order = truncation - 1
    r = default_radius(order)
    m = default_sample_count(order)
    hermitian = spec.real_coefficients
    nodes = _circle_nodes(r, m)
    values = np.asarray(spec.evaluate(nodes[: m // 2 + 1] if hermitian else nodes), dtype=complex)
    top = float(np.max(np.abs(values)))
    if top > 1.0 + 1e-9:
        raise SingularEvaluationError(
            f"symbol is not a self-map on the sampling circle (max modulus {top:.6g})"
        )
    if hermitian:
        values = np.conj(values)
    unscale = 1.0 / (m * r ** np.arange(truncation))
    norm = _coefficient_norm(values, m, unscale)
    if norm > 1.0 + 1e-9:
        raise SingularEvaluationError(
            f"symbol is not a self-map: its coefficients have l2 norm {norm:.6g} > 1"
        )
    rows = min(truncation, max(1, _BLOCK_BYTES // (16 * m)))
    starts = range(0, truncation, rows)
    slots = min(_core_count(), len(starts))
    blocks = np.empty((slots, rows, values.size), dtype=complex)
    running = np.empty(values.size, dtype=complex)
    real_out = np.empty((slots, rows, m)) if hermitian else None
    futures = []
    with ThreadPoolExecutor(max_workers=slots) as pool:
        for j, k0 in enumerate(starts):
            if j >= slots:
                futures[j - slots].result()  # the slot's previous block is done
            b = min(rows, truncation - k0)
            block = blocks[j % slots, :b]
            if k0:
                np.multiply(running, values, out=block[0])
            else:
                block[0] = 1.0
            for i in range(1, b):
                np.multiply(block[i - 1], values, out=block[i])
            running[:] = block[b - 1]
            out = real_out[j % slots, :b] if hermitian else None
            futures.append(pool.submit(_transform_block, block, out, unscale, k0, sink))
        for future in futures:
            future.result()


def multiplicity_weights(truncation: int, dimension: int) -> np.ndarray:
    """sqrt(C(k+N-1, N-1)) for k < K, from exact integer binomials; exactly
    1.0 at N = 1.

    `build_matrix(spec, K) * multiplicity_weights(K, N)` scales column k of
    the section of C_phi and is the K x K section of C_Phi for the diagonal
    map Phi = (phi(z_1), ..., phi(z_1)) on H^2(D^N).  With J h (z) = h(z_1)
    and (M f)(z) = f(z, ..., z) one has C_Phi = J C_phi M.  J is an
    isometry, and on the monomial basis of H^2(D^N) the operator M M* is
    diagonal with eigenvalue C(n+N-1, N-1) (the number of monomials of
    total degree n), so the singular values of C_Phi coincide with those of
    C_phi (M M*)^(1/2).  Finite sections increase monotonically to the
    approximation numbers.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return np.sqrt([float(math.comb(k + dimension - 1, dimension - 1)) for k in range(truncation)])


def build_matrix(spec: Symbol, truncation: int) -> np.ndarray:
    """K x K section of C_phi on H^2(D): column k holds the coefficients of
    phi^k below degree K = `truncation`.

    float64 when `spec.real_coefficients`, complex128 otherwise.  For the
    diagonal polydisk map scale it by `multiplicity_weights`.
    """
    if not 1 <= truncation <= MAX_ORDER:
        raise ValueError(f"truncation must lie in [1, {MAX_ORDER}]")
    dtype = float if spec.real_coefficients else complex
    entries = np.empty((truncation, truncation), dtype=dtype)

    def put(k0, cols):
        entries[:, k0 : k0 + len(cols)] = cols.T

    _grid_power_columns(spec, truncation, put)
    return entries


@dataclass(frozen=True)
class HsReport:
    """Partial Hilbert-Schmidt sum sum_{k<K} ||phi^k||^2 and its dyadic trend."""

    partial: float
    trend: str  # "converging" | "diverging" | "inconclusive"


def hs_norm_sq(spec: Symbol, truncation: int) -> HsReport:
    """||C_phi||_HS^2 partial sums via sum_k ||phi^k||_{H^2}^2, truncated.

    The column norms are truncated below degree K: each sums |c_j|^2 of
    phi^k over j < K only, so it is a lower bound of ||phi^k||^2, and the
    gap grows with k.  For Shapiro-Taylor theta = 3 at K = 2048 the full
    norm is 1.2 times the truncated one at k = 1000 and 182 times at
    k = 2047.  Those full norms are the boundary integrals
    (1/2pi) int |phi|^(2k) dt, taken in strip coordinates (dt = du/cosh u)
    on the lines Im alpha = +-(pi/2 - 1e-9) by the trapezoid rule on
    u in [-40, 700) with step 5e-4; at k = 1 and k = 100 they agree with
    the truncated norms to 4 digits.  ROADMAP item 2 plans full norms.
    The trend compares dyadic blocks of k: block sums decaying faster than
    1/j are summable, flat or growing blocks are not.
    """
    if truncation < 64:
        raise ValueError("Hilbert-Schmidt trend needs truncation >= 64")
    norms = np.empty(truncation)

    def put(k0, cols):
        norms[k0 : k0 + len(cols)] = np.sum(np.abs(cols) ** 2, axis=1)

    _grid_power_columns(spec, truncation, put)
    return HsReport(partial=float(norms.sum()), trend=classify_series_convergence(norms))


def kernel_ratio(spec: Symbol, dimension: int, r: float) -> float:
    """||C_Phi* K_a|| / ||K_a|| for the diagonal map Phi(z) = (phi(z_1), ...,
    phi(z_1)) of D^N, N = dimension, at the kernel point a = (r, 0, ..., 0).

    C_Phi* K_a = K_{Phi(a)} and ||K_b||^2 = prod_j 1/(1-|b_j|^2); every
    coordinate of Phi(a) is phi(r), so the ratio is
    sqrt((1-r^2) / (1-|phi(r)|^2)^N).
    """
    if abs(r) >= 1.0 - 1e-12:
        raise ValueError("kernel point too close to the boundary for float safety")
    gap = 1.0 - abs(spec.evaluate(r)) ** 2
    if gap <= 0.0:
        raise SingularEvaluationError("image point reached the boundary")
    return math.exp(0.5 * (math.log1p(-abs(r) ** 2) - dimension * math.log(gap)))


def _log_cosh(z: np.ndarray) -> np.ndarray:
    """log cosh z without overflow, for |Im z| < pi/2."""
    w = np.where(z.real < 0.0, -z, z)
    return w + np.log1p(np.exp(-2.0 * w)) - math.log(2.0)


def _cauchy_factor(alpha: np.ndarray):
    """R with R^H R = C, C_ij = sqrt(cos y_i cos y_j) / cosh((alpha_i - conj(alpha_j))/2).

    Diagonally pivoted LDL^H of the scaled Cauchy matrix C (y = Im alpha),
    built from products alone (Demmel, SIAM J. Matrix Anal. Appl. 21,
    1999).  C_ij = g_i conj(g_j) / cosh((alpha_i - conj(alpha_j))/2) with
    g = sqrt(cos y); eliminating pivot p leaves the same form with g_i
    multiplied by sinh((alpha_i - alpha_p)/2) / cosh((alpha_i - conj(alpha_p))/2)
    (up to a unit factor common to all i), and row p of R = D^(1/2) L^H is
    sqrt(cos y_p) (g_p/|g_p|) conj(g_i) / cosh((alpha_p - conj(alpha_i))/2).
    Each pivot is the largest diagonal entry |g_i|^2 / cos y_i left.  The
    generators shrink at every elimination and underflow in linear scale
    (clustered images do), so they are kept as log-modulus and phase.
    Rows of R follow the pivot order and columns the node order; `order`
    lists the pivots, so R[:, order] is upper triangular.
    """
    n = alpha.size
    order = np.arange(n)
    a = alpha.copy()
    log_cos = np.log(np.cos(a.imag))
    log_g = 0.5 * log_cos
    phase = np.zeros(n)
    r = np.zeros((n, n), dtype=complex)
    # coinciding images give a generator of modulus exactly 0 (log -inf)
    with np.errstate(divide="ignore"):
        for k in range(n):
            p = k + int(np.argmax(2.0 * log_g[k:] - log_cos[k:]))
            for arr in (order, a, log_cos, log_g, phase):
                arr[k], arr[p] = arr[p], arr[k]
            c = np.cosh((a[k] - np.conj(a[k:])) / 2.0)
            log_row = 0.5 * log_cos[k] + log_g[k:] + 1j * (phase[k] - phase[k:])
            r[k, order[k:]] = np.exp(log_row) / c
            ratio = np.sinh((a[k + 1 :] - a[k]) / 2.0) / np.conj(c[1:])
            log_g[k + 1 :] += np.log(np.abs(ratio))
            phase[k + 1 :] = np.remainder(phase[k + 1 :] + np.angle(ratio), 2.0 * math.pi)
    return r, order


def strip_lattice(x_lo, x_hi, dx, rows):
    """Strip nodes x + iy for `kernel_lower_bound`: x in [x_lo, x_hi] with
    step dx, on each row y in `rows`."""
    xs = np.arange(x_lo, x_hi + dx / 2, dx)
    return np.concatenate([xs + 1j * y for y in rows])


def kernel_lower_bound(spec: Symbol, nodes):
    """Lower bounds of the approximation numbers a_n(C_phi) on H^2(D) from
    normalised reproducing kernels (Li, Queffelec & Rodriguez-Piazza, J.
    Approx. Theory 164, 2012).

    nodes are strip coordinates alpha_j, |Im alpha_j| < pi/2, of the kernel
    points a_j = tanh(alpha_j/2); the contact points +-1 sit at
    Re alpha -> +-inf, so nodes may lie far beyond the float64 resolution
    of the disk.  C_phi* k_a = sqrt(1-|a|^2) K_phi(a), so by min-max the
    singular values of C_phi* restricted to span{k_a_j} are lower bounds of
    a_n.  The image nodes beta_j = alpha(phi(a_j)) come from
    `spec.strip_image`.

    In strip coordinates 1 - conj(a_j) a_i =
    cosh((alpha_i - conj(alpha_j))/2) / (cosh(conj(alpha_j)/2) cosh(alpha_i/2)),
    so the Gram matrices of the k_a_j and of their images are
    G_U = W C_alpha W^H and G_V = W T C_beta T^H W^H, with the scaled
    Cauchy matrices of `_cauchy_factor`, W the unit phases of
    cosh(alpha/2), and T = diag(sqrt(cos Im alpha / cos Im beta)
    cosh(beta/2) / cosh(alpha/2)).  With C_alpha = R_u^H R_u and
    C_beta = R_v^H R_v the values are svd(R_v T^H R_u^-1), where R_u is
    the R factor of the kernel vectors up to a unitary factor.  Values at
    or below the float floor eps * cond(R_u) * s_1 are dropped, but the
    floor does not bound the error of the values it keeps: on the 105-node
    over-dense lattice of the tests
    (`test_kernel_lower_bound_floor_cuts_an_over_dense_lattice`, dilation
    0.8 z, where a_1 = 1) the kept s_1 is 1.00099, above the number it
    bounds.  ROADMAP item 1(a) plans a level that bounds it.

    Returns a SingularSpectrum with semantics "lower_bound_of_a_n",
    truncation equal to the node count and `floor` set to that floor.
    """
    from scipy.linalg import solve_triangular, svdvals

    alpha = np.asarray(nodes, dtype=complex).ravel()
    if alpha.size == 0 or not np.all(np.isfinite(alpha)):
        raise ValueError("nodes must be a non-empty array of finite strip coordinates")
    if np.any(np.abs(alpha.imag) >= math.pi / 2):
        raise ValueError("nodes must lie in the open strip |Im alpha| < pi/2")
    if np.unique(alpha).size < alpha.size:
        raise ValueError("nodes must be distinct")
    beta = np.asarray(spec.strip_image(alpha), dtype=complex)
    if not np.all(np.isfinite(beta)) or np.any(np.abs(beta.imag) >= math.pi / 2):
        raise SingularEvaluationError("the image of a node left the open strip")
    if max(np.ptp(alpha.real), np.ptp(beta.real)) > 1400.0:
        # cosh and sinh of half a difference overflow float64 past 710
        raise ValueError("nodes and their images must each span at most 1400 in Re")

    log_t = 0.5 * (np.log(np.cos(alpha.imag)) - np.log(np.cos(beta.imag)))
    t_conj = np.conj(np.exp(log_t + _log_cosh(beta / 2.0) - _log_cosh(alpha / 2.0)))
    r_u, order = _cauchy_factor(alpha)
    for row in r_u:  # columns into pivot order: upper triangular, in place
        row[:] = row[order]
    r_v, _ = _cauchy_factor(beta[order])
    r_v *= t_conj[order]
    # (R_v T^H R_u^-1)^T from one triangular solve on Fortran-ordered views
    compressed = solve_triangular(r_u.T, r_v.T, lower=True, overwrite_b=True, check_finite=False)
    values = svdvals(compressed, overwrite_a=True, check_finite=False)
    cond = svdvals(r_u.T, overwrite_a=True, check_finite=False)
    floor = float(np.finfo(float).eps * cond[0] / cond[-1] * values[0])
    kept = values[values > floor]
    if kept.size == 0:
        raise ValueError("no value lies above the float floor; the nodes are too dense")
    return SingularSpectrum(
        kept, truncation=alpha.size, semantics="lower_bound_of_a_n", floor=floor
    )


@dataclass(frozen=True)
class WitnessNorms:
    norm_f: float
    norm_cf: float

    @property
    def ratio(self) -> float:
        return self.norm_cf / self.norm_f


def unboundedness_witness(n: int) -> WitnessNorms:
    """Norms of f_n = ((z_1+z_2)/2)^n and of its pullback by (z_1, ..., z_1).

    ||f_n||^2 = 4^-n C(2n, n) ~ 1/sqrt(pi n) while the pullback is z_1^n of
    norm one, so the ratio grows like n^(1/4); computed in log space.
    """
    if n < 1:
        raise ValueError("witness degree must be >= 1")
    if n > 10**6:
        raise ValueError("witness degree capped at 1e6")
    log_norm_sq = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1) - n * math.log(4.0)
    return WitnessNorms(norm_f=math.exp(0.5 * log_norm_sq), norm_cf=1.0)
