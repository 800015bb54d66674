"""Brute-force multi-index section of a polydisk composition operator.

A test oracle for the diagonal reduction
`build_matrix(spec, K) * multiplicity_weights(K, N)` of `compoplab.operators`:
it builds the section on every monomial z^alpha, |alpha| <= D, from the 1-d
power columns of `build_matrix` alone, so it shares neither the reduction
nor its multiplicity weights.
"""

import itertools

import numpy as np

from compoplab.operators import build_matrix

ORACLE_SIZE_CAP = 3000


class SizeGuardError(ValueError):
    """A brute-force construction would exceed its size envelope."""


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


def multi_index_oracle(coords, degree_cap: int) -> np.ndarray:
    """Brute-force section of C_Phi on the monomial basis {z^alpha : |alpha| <= D}
    for the coordinate map Phi of D^N, N = len(coords), whose output j is
    map_j(z_{source_j}), coords[j] = (source_j, map_j) with 1-based sources.

    Entry (beta, alpha) is the coefficient of z^beta in
    prod_j map_j(z_{source_j})^{alpha_j}.  The 1-d power columns come from
    `build_matrix(spec, D + 1)`, the section of C_phi on H^2(D).
    """
    n = len(coords)
    basis = multi_indices(n, degree_cap)
    side = len(basis)
    if side > ORACLE_SIZE_CAP:
        raise SizeGuardError(f"oracle basis has {side} monomials; cap is {ORACLE_SIZE_CAP}")
    # 1-d coefficient table: powers[j][k] = coefficients of map_j^k, degree <= D
    powers = [build_matrix(spec, degree_cap + 1).T for _, spec in coords]

    beta_mat = np.asarray(basis, dtype=int)  # (side, n)
    entries = np.empty((side, side), dtype=complex)
    for col, alpha in enumerate(basis):
        # group output coordinates by their source variable
        per_source = {}
        for j, (src, _) in enumerate(coords):
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
    return entries
