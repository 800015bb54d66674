"""Matrices of composition operators in orthonormal monomial bases.

Column k of the matrix of C_phi is the coefficient vector of phi^k.  The
diagonal polydisk map Phi(z) = (phi(z_1), ..., phi(z_1)) on H^2(D^N)
reduces exactly to a one-variable matrix whose column k carries the
multiplicity weight sqrt(C(k+N-1, N-1)); see `build_matrix`.

Sections are lower bounds of the approximation numbers that converge
slowly for boundary-touching symbols; `kernel_lower_bound` gives lower
bounds from reproducing kernels instead, which reach the contact points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .series import (
    MAX_ORDER,
    default_radius,
    default_sample_count,
    extract_coefficients,
    series_pow,
)
from .spectra import SingularSpectrum, classify_series_convergence
from .symbols import KernelPoint, PolydiskMap, SingularEvaluationError, Symbol

__all__ = [
    "OperatorMatrix",
    "SizeGuardError",
    "HsReport",
    "WitnessNorms",
    "build_matrix",
    "multiplicity_weights",
    "multi_index_oracle",
    "hs_norm_sq",
    "kernel_ratio",
    "kernel_lower_bound",
    "unboundedness_witness",
]

ORACLE_SIZE_CAP = 3000


class SizeGuardError(ValueError):
    """A brute-force construction would exceed its size envelope."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Finite section of a composition operator in orthonormal bases."""

    entries: np.ndarray
    symbol: object
    truncation: int

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2:
            raise ValueError("entries must be a 2-d matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", m)

    @property
    def shape(self):
        return self.entries.shape


def _grid_power_columns(spec: Symbol, truncation: int):
    """Yield (k, coeffs of phi^k truncated below `truncation`) for k = 0..K-1.

    One evaluation of phi on the sampling circle, then pointwise powers and
    one FFT per column.  Requires sup |phi| <= 1 so the alias bound holds
    uniformly in k.
    """
    order = truncation - 1
    r = default_radius(order)
    m = default_sample_count(order)
    nodes = r * np.exp(2j * np.pi * np.arange(m) / m)
    values = np.asarray(spec.evaluate(nodes), dtype=complex)
    top = float(np.max(np.abs(values)))
    if top > 1.0 + 1e-9:
        raise SingularEvaluationError(
            f"symbol is not a self-map on the sampling circle (max modulus {top:.6g})"
        )
    unscale = 1.0 / (m * r ** np.arange(truncation))
    running = np.ones(m, dtype=complex)
    for k in range(truncation):
        if k:
            running = running * values
        yield k, np.fft.fft(running)[:truncation] * unscale


def multiplicity_weights(truncation: int, dimension: int) -> np.ndarray:
    """sqrt(C(k+N-1, N-1)) for k < K in log space; safe up to K=4096, N large.

    Exactly 1.0 at N = 1.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    k = np.arange(truncation, dtype=float)
    n = float(dimension)
    return np.exp(0.5 * (gammaln(k + n) - gammaln(k + 1.0) - gammaln(n)))


def build_matrix(spec: Symbol, truncation: int, dimension: int = 1) -> OperatorMatrix:
    """K x K matrix of C_Phi for Phi = (phi(z_1), ..., phi(z_1)) on H^2(D^N).

    Column k is sqrt(C(k+N-1, N-1)) times the coefficients of phi^k; at
    N = 1 the weights are exactly 1, which is the matrix of C_phi on H^2(D).
    With J h (z) = h(z_1) and (M f)(z) = f(z, ..., z) one has
    C_Phi = J C_phi M.  J is an isometry, and on the monomial basis of
    H^2(D^N) the operator M M* is diagonal with eigenvalue C(n+N-1, N-1)
    (the number of monomials of total degree n), so the singular values of
    C_Phi coincide with those of C_phi (M M*)^(1/2).  Finite sections
    increase monotonically to the approximation numbers.  Scaling the
    entries of the N = 1 matrix by `multiplicity_weights(K, N)` gives the
    same matrix bit for bit, without extracting the columns again.
    """
    if not 1 <= truncation <= MAX_ORDER:
        raise ValueError(f"truncation must lie in [1, {MAX_ORDER}]")
    weights = multiplicity_weights(truncation, dimension)
    entries = np.empty((truncation, truncation), dtype=complex)
    for k, col in _grid_power_columns(spec, truncation):
        entries[:, k] = col * weights[k]
    symbol = spec if dimension == 1 else PolydiskMap.diagonal(spec, dimension)
    return OperatorMatrix(entries, symbol=symbol, truncation=truncation)


def multi_indices(dimension: int, degree_cap: int):
    """All alpha in N^dimension with |alpha| <= degree_cap, graded lexicographic."""
    out = []
    for total in range(degree_cap + 1):
        for cuts in itertools.combinations(range(total + dimension - 1), dimension - 1):
            alpha = []
            prev = -1
            for c in cuts:
                alpha.append(c - prev - 1)
                prev = c
            alpha.append(total + dimension - 1 - prev - 1)
            out.append(tuple(alpha))
    return out


def multi_index_oracle(poly: PolydiskMap, degree_cap: int) -> OperatorMatrix:
    """Brute-force section of C_Phi on the monomial basis {z^alpha : |alpha| <= D}.

    Entry (beta, alpha) is the coefficient of z^beta in
    prod_j map_j(z_{source_j})^{alpha_j}.  Independent of the diagonal
    reduction; used as a test oracle only.
    """
    n = poly.dimension
    basis = multi_indices(n, degree_cap)
    side = len(basis)
    if side > ORACLE_SIZE_CAP:
        raise SizeGuardError(
            f"oracle basis has {side} monomials; cap is {ORACLE_SIZE_CAP}"
        )
    # 1-d coefficient table: powers[j][k] = coefficients of map_j^k, degree <= D
    powers = []
    for _, spec in poly.coords:
        base = extract_coefficients(spec.evaluate, degree_cap)
        powers.append([series_pow(base, k, degree_cap).coeffs for k in range(degree_cap + 1)])

    beta_mat = np.asarray(basis, dtype=int)  # (side, n)
    entries = np.empty((side, side), dtype=complex)
    for col, alpha in enumerate(basis):
        # group output coordinates by their source variable
        per_source = {}
        for j, (src, _) in enumerate(poly.coords):
            coeffs = powers[j][alpha[j]]
            if src in per_source:
                per_source[src] = np.convolve(per_source[src], coeffs)[: degree_cap + 1]
            else:
                per_source[src] = coeffs
        column = np.ones(side, dtype=complex)
        for src in range(1, n + 1):
            factor = per_source.get(src)
            if factor is None:
                # unused source variable: factor is the constant series 1
                factor = np.zeros(degree_cap + 1, dtype=complex)
                factor[0] = 1.0
            column = column * factor[beta_mat[:, src - 1]]
        entries[:, col] = column
    return OperatorMatrix(entries, symbol=poly, truncation=degree_cap)


@dataclass(frozen=True)
class HsReport:
    """Partial Hilbert-Schmidt sum sum_{k<K} ||phi^k||^2 and its dyadic trend."""

    partial: float
    trend: str  # "converging" | "diverging" | "inconclusive"


def hs_norm_sq(spec: Symbol, truncation: int) -> HsReport:
    """||C_phi||_HS^2 partial sums via sum_k ||phi^k||_{H^2}^2.

    Column norms use coefficients of degree < K; for the boundary-contact
    symbols in scope the discarded coefficient tail of phi^k (k < K) is
    dominated by exp(-2k(1 - |phi|_{1-1/K})) and is negligible.  The trend
    compares dyadic blocks of k: block sums decaying faster than 1/j are
    summable, flat or growing blocks are not.
    """
    if truncation < 64:
        raise ValueError("Hilbert-Schmidt trend needs truncation >= 64")
    norms = np.empty(truncation)
    for k, col in _grid_power_columns(spec, truncation):
        norms[k] = float(np.sum(np.abs(col) ** 2))
    verdict = classify_series_convergence(norms)
    trend = {"summable": "converging", "not_summable": "diverging"}.get(verdict, "inconclusive")
    return HsReport(partial=float(norms.sum()), trend=trend)


def kernel_ratio(poly: PolydiskMap, point: KernelPoint) -> float:
    """||C_Phi* K_a|| / ||K_a|| for a polydisk reproducing kernel at a.

    C_Phi* K_a = K_{Phi(a)} and ||K_b||^2 = prod_j 1/(1-|b_j|^2), so the
    ratio is sqrt(prod_j (1-|a_j|^2) / prod_j (1-|m_j(a_{src_j})|^2)).
    """
    if len(point) != poly.dimension:
        raise ValueError("kernel point dimension does not match the map")
    if any(abs(v) >= 1.0 - 1e-12 for v in point.values):
        raise ValueError("kernel point too close to the boundary for float safety")
    log_num = sum(math.log1p(-abs(v) ** 2) for v in point.values)
    log_den = 0.0
    for src, spec in poly.coords:
        w = spec.evaluate(point.values[src - 1])
        gap = 1.0 - abs(w) ** 2
        if gap <= 0.0:
            raise SingularEvaluationError("image point reached the boundary")
        log_den += math.log(gap)
    return math.exp(0.5 * (log_num - log_den))


# Trapezoid step of kernel_lower_bound: half the distance d from the nodes
# and their images to the boundary lines (aliasing error ~ e^(-2 pi d/step)
# = e^(-4 pi)), and at most 0.15, which resolves the unit-scale kernels
# themselves (for the lens, step 0.1 moves s_1..s_300 by < 1e-5; 0.3 moves
# s_300 by 20%).
KERNEL_STEP_CAP = 0.15
# Kernel samples decay like e^(-|x - Re alpha|/2): a margin of 60 beyond the
# outermost node or image leaves e^(-30) of each sample.
KERNEL_MARGIN = 60.0


def _kernel_r(zeta: np.ndarray, points: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """R factor of the tall matrix scale_j / cosh((zeta_t - conj(p_j))/2).

    Rows are generated and folded into R one block at a time (LAPACK
    tpqrt on [R; block]), so memory stays O(n^2) for any number of rows
    and the flop count is that of a single QR.
    """
    from scipy.linalg.lapack import ztpqrt

    n = points.size
    r = np.zeros((n, n), dtype=complex, order="F")
    shift = -np.conj(points) / 2.0
    for start in range(0, zeta.size, n):
        # built transposed so the block is Fortran-ordered for LAPACK
        block = np.add.outer(shift, zeta[start : start + n] / 2.0).T
        np.cosh(block, out=block)
        np.divide(scale, block, out=block)
        r, _, _, info = ztpqrt(0, min(n, 32), r, block, overwrite_a=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"tpqrt failed with info={info}")
    return np.triu(r)


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

    Both factors are sampled by the trapezoid rule on the boundary lines
    zeta = x +- i pi/2, where the H^2 measure is dx / (2 pi cosh x) and
    1 - conj(a) z = cosh((zeta - conj(alpha))/2) / (cosh(conj(alpha)/2) cosh(zeta/2))
    has no cancellation: U holds the k_a_j, V their images.  With U = QR
    the values are svd(V R^-1), reduced block by block; no Gram matrix is
    formed, so values down to the float floor eps * cond(R) * s_1 are
    resolved.  Values at or below that floor are dropped.

    Returns a SingularSpectrum with semantics "lower_bound_of_a_n",
    truncation equal to the node count and `floor` set to that floor.
    """
    from scipy.linalg import solve_triangular, svdvals

    alpha = np.asarray(nodes, dtype=complex).ravel()
    if alpha.size == 0 or not np.all(np.isfinite(alpha)):
        raise ValueError("nodes must be a non-empty array of finite strip coordinates")
    if np.any(np.abs(alpha.imag) >= math.pi / 2):
        raise ValueError("nodes must lie in the open strip |Im alpha| < pi/2")
    beta = np.asarray(spec.strip_image(alpha), dtype=complex)
    if not np.all(np.isfinite(beta)) or np.any(np.abs(beta.imag) >= math.pi / 2):
        raise SingularEvaluationError("the image of a node left the open strip")

    gap = math.pi / 2 - max(np.max(np.abs(alpha.imag)), np.max(np.abs(beta.imag)))
    step = min(KERNEL_STEP_CAP, gap / 2.0)
    lo = min(alpha.real.min(), beta.real.min()) - KERNEL_MARGIN
    hi = max(alpha.real.max(), beta.real.max()) + KERNEL_MARGIN
    if max(-lo, hi) > 700.0:
        # keeps every cosh argument below its float64 overflow at 710
        raise ValueError("nodes and their images must satisfy |Re alpha| <= 640")
    x = lo + step * np.arange(int(math.ceil((hi - lo) / step)) + 1)
    zeta = np.concatenate([x + 0.5j * math.pi, x - 0.5j * math.pi])
    if zeta.size < alpha.size:
        raise ValueError("more nodes than quadrature rows")

    # Sampled k_a and sqrt(1-|a|^2) K_phi(a) carry, in row t, the factor
    # sqrt(step / (2 pi cosh x_t)) cosh(zeta_t/2) of constant modulus
    # sqrt(step / (4 pi)), and in column j the unit phase
    # cosh(conj(alpha_j)/2) / |cosh(alpha_j/2)|, in U and V alike.  Dropping
    # both phases leaves svd(V R^-1) unchanged and leaves, with
    # w_j = sqrt(step / (4 pi)) sqrt(cos Im alpha_j):
    #   U_tj = w_j / cosh((zeta_t - conj(alpha_j))/2)
    #   V_tj = w_j cosh(conj(beta_j)/2) / cosh(conj(alpha_j)/2) / cosh((zeta_t - conj(beta_j))/2)
    weight = math.sqrt(step / (4.0 * math.pi)) * np.sqrt(np.cos(alpha.imag))
    r_u = _kernel_r(zeta, alpha, weight)
    v_factor = np.cosh(np.conj(beta) / 2.0) / np.cosh(np.conj(alpha) / 2.0)
    r_v = _kernel_r(zeta, beta, weight * v_factor)
    # V R_u^-1 = Q_v R_v R_u^-1; its transpose comes out of one triangular solve
    compressed = solve_triangular(r_u, r_v.T, trans="T", overwrite_b=True, check_finite=False)
    values = svdvals(compressed, overwrite_a=True, check_finite=False)
    cond = svdvals(r_u, overwrite_a=True, check_finite=False)
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
