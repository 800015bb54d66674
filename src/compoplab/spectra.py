"""Approximation numbers from matrices, tensor s-number calculus, upper-bound
functionals and decay-law fitting.

Spectra extracted from finite sections are labelled lower bounds: the
singular values of a section P_K T P_K increase to those of T.  The merge
of factor spectra realizes the fact that the singular numbers of a tensor
product are the non-increasing rearrangement of the pairwise products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SingularSpectrum",
    "DecayFit",
    "BetaEstimate",
    "TensorLemmaReport",
    "SvdError",
    "singular_values",
    "tensor_merge",
    "nu_count",
    "nu_count_bruteforce",
    "extremal_spectrum",
    "extremal_pair_count",
    "find_M",
    "tensor_lemma_report",
    "upper_bound_plain",
    "upper_bound_weighted",
    "epsilon_power",
    "epsilon_tensor",
    "delta_from_epsilon",
    "beta_estimate",
    "decay_fit",
    "linear_fit",
    "classify_series_convergence",
]


# distinct products per row block of nu_count_bruteforce
_ORACLE_BLOCK = 1 << 18
# spectrum semantics, from the strongest claim to the weakest
_SEMANTICS = ("exact", "lower_bound_of_a_n", "synthetic")


class SvdError(RuntimeError):
    """SVD failed to converge; carries size/scale diagnostics."""


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing s-numbers s_1 >= s_2 >= ... with truncation metadata.

    semantics is "lower_bound_of_a_n" for finite-section spectra, "exact"
    for closed forms, "synthetic" for constructed test sequences.  floor
    is the absolute float64 floor below which values were dropped (0 when
    none were); every value lies above it.
    """

    values: np.ndarray
    truncation: int
    semantics: str = "synthetic"
    floor: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a non-empty 1-d array")
        if (v < 0.0).any():
            raise ValueError("s-numbers must be non-negative")
        tol = 1e-12 * max(float(v[0]), 1.0)
        if (v[1:] - v[:-1] > tol).any():
            raise ValueError("s-numbers must be non-increasing")
        v = np.minimum.accumulate(v) if (v[1:] > v[:-1]).any() else v.copy()
        if self.semantics not in _SEMANTICS:
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if not (math.isfinite(self.floor) and self.floor >= 0.0):
            raise ValueError(f"floor must be finite and >= 0, got {self.floor}")
        if self.floor > 0.0 and v[-1] <= self.floor:
            raise ValueError("every value must lie above the floor")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size

    def a(self, n: int) -> float:
        """n-th s-number, 1-based."""
        return float(self.values[n - 1])


def singular_values(matrix) -> SingularSpectrum:
    """Singular values of a finite section (lower bounds of a_n)."""
    matrix = np.asarray(matrix)
    try:
        s = np.linalg.svd(matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        finite = bool(np.all(np.isfinite(matrix)))
        raise SvdError(
            f"SVD did not converge on a {matrix.shape} section "
            f"(finite={finite}, max|entry|={np.max(np.abs(matrix)):.3g})"
        ) from exc
    return SingularSpectrum(s, truncation=matrix.shape[0], semantics="lower_bound_of_a_n")


def _as_array(spectrum) -> np.ndarray:
    if isinstance(spectrum, SingularSpectrum):
        return spectrum.values
    return np.asarray(spectrum, dtype=float)


def _spectrum(f) -> SingularSpectrum:
    """f, or a bare array read as a synthetic SingularSpectrum (so it must be ordered)."""
    return f if isinstance(f, SingularSpectrum) else SingularSpectrum(f, truncation=np.size(f))


def _groups(v: np.ndarray):
    """Distinct values of a non-increasing array, where each starts and its multiplicity."""
    new = np.ones(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=new[1:])
    starts = new.nonzero()[0]
    return v[starts], starts, np.diff(starts, append=v.size)


def _merge_two(s: np.ndarray, t: np.ndarray, n_max: int) -> np.ndarray:
    """Top n_max products s_j t_k in non-increasing order.

    A pair (j, k) (1-based) among the top n_max has j*k <= n_max: the j*k
    pairs (j', k') with j' <= j, k' <= k are each at least as large, since
    rounding a product is monotone.  Equal values give equal products, so the
    candidates are the products of distinct values whose groups start at
    j0*k0 <= n_max, sorted and expanded by multiplicity up to n_max.
    """
    (s_vals, s_start, s_mult), (t_vals, t_start, t_mult) = _groups(s[:n_max]), _groups(t[:n_max])
    reach = t_start.searchsorted(n_max // (s_start + 1))
    rows = np.arange(s_vals.size).repeat(reach)
    cols = np.arange(rows.size) - (reach.cumsum() - reach)[rows]
    products, mult = s_vals[rows] * t_vals[cols], s_mult[rows] * t_mult[cols]
    order = products.argsort()[::-1]
    counts = np.minimum(mult[order].cumsum(), n_max)
    counts[1:] -= counts[:-1]
    return products[order].repeat(counts)


def tensor_merge(factors: Sequence, n_max: int) -> SingularSpectrum:
    """Non-increasing rearrangement of all products over the factor spectra.

    Pairwise folding with truncation at n_max is exact for the leading
    n_max values: the top n products of (A x B) x C only involve the top n
    products of A x B.  Each fold keeps the products s_j t_k with
    j*k <= n_max, which hold its top n_max values (see `_merge_two`).
    The result carries the weakest semantics of its factors, a bare
    array counting as synthetic (and so ordered as a SingularSpectrum).
    """
    if not factors:
        raise ValueError("need at least one factor spectrum")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    spectra = [_spectrum(f) for f in factors]
    semantics = max((f.semantics for f in spectra), key=_SEMANTICS.index)
    merged = spectra[0].values[:n_max]
    for nxt in spectra[1:]:
        merged = _merge_two(merged, nxt.values, n_max)
    return SingularSpectrum(merged, truncation=merged.size, semantics=semantics)


def nu_count(s, t, c: float, n: int) -> int:
    """Number of pairs (j, k) with s_j t_k > e^{-cn}; s_1, t_1 <= 1, bare arrays ordered."""
    sv, tv = _spectrum(s).values, _spectrum(t).values
    if sv[0] > 1.0 + 1e-12 or tv[0] > 1.0 + 1e-12:
        raise ValueError("factor spectra must be normalized to s_1, t_1 <= 1")
    threshold = math.exp(-c * n)
    # per distinct s_j, searchsorted on the reversed tail gives a near-boundary
    # guess and a local fix-up decides ties by the product itself, so the count
    # agrees exactly with the double-loop definition s_j t_k > threshold
    t_rev = tv[::-1]
    count = 0
    s_vals, _, s_mult = _groups(sv)
    for sj, mult in zip(s_vals, s_mult.tolist()):
        if not sj * tv[0] > threshold:
            break
        k = tv.size - int(np.searchsorted(t_rev, threshold / sj, side="right"))
        while k > 0 and not sj * tv[k - 1] > threshold:
            k -= 1
        while k < tv.size and sj * tv[k] > threshold:
            k += 1
        count += mult * k
    return count


def nu_count_bruteforce(s, t, c: float, n: int) -> int:
    """Oracle for nu_count: every product s_j t_k compared with e^{-cn}.

    Equal values give equal products, so each factor is grouped into its
    distinct values and their multiplicities, and the predicate is
    evaluated once per pair of distinct values: O(distinct(s) distinct(t)),
    in row blocks of about _ORACLE_BLOCK products, with no use of input
    order.  The tensor-lemma experiment checks nu_count against it.
    """
    sv, tv = _as_array(s), _as_array(t)
    threshold = math.exp(-c * n)
    s_vals, s_mult = np.unique(sv, return_counts=True)
    t_vals, t_mult = np.unique(tv, return_counts=True)
    rows = max(1, _ORACLE_BLOCK // max(t_vals.size, 1))
    count = 0
    for start in range(0, s_vals.size, rows):
        above = np.multiply.outer(s_vals[start : start + rows], t_vals) > threshold
        count += int(s_mult[start : start + rows] @ (above @ t_mult))
    return count


def _level_sizes(exponent: float, levels: int) -> np.ndarray:
    """Sizes floor(p^A) - floor((p-1)^A) of the levels p = 1..levels."""
    return np.diff(np.floor(np.arange(0, levels + 1, dtype=float) ** exponent).astype(int))


def extremal_spectrum(exponent: float, c: float, levels: int) -> np.ndarray:
    """s_j = e^{-c * ceil(j^(1/A))}: the extremal sequence with a_{[n^A]} <= e^{-cn}."""
    if exponent <= 0 or c <= 0:
        raise ValueError("exponent and rate must be positive")
    return np.repeat(np.exp(-c * np.arange(1.0, levels + 1)), _level_sizes(exponent, levels))


def _pair_count(sizes_a: np.ndarray, sizes_b: np.ndarray, n: int) -> int:
    """Level pairs p + q <= n - 1 weighted by their sizes (see extremal_pair_count)."""
    return int(np.dot(sizes_a[: max(n - 2, 0)], np.cumsum(sizes_b[: max(n - 2, 0)])[::-1]))


def extremal_pair_count(a_exp: float, b_exp: float, n: int) -> int:
    """Exact count of pairs with ceil(j^(1/A)) + ceil(k^(1/B)) <= n - 1.

    Level p of the first sequence pairs with the levels q <= n - 1 - p of
    the second, so the count is a dot product of the level sizes with the
    reversed cumulative sizes, in int64 (0 for n < 3).  In exact
    arithmetic this is nu_count on the extremal sequences for any rate
    c > 0.  In floats it is not: nu_count and its oracle also count the
    pairs on p + q = n whose product e^{-cp} e^{-cq} rounds above e^{-cn}.
    At (A, B) = (2, 1), rate 1 and 31 levels, nu_count reads 22 at n = 5
    and 741 at n = 14 against the exact 14 and 650; at n = 9 both read 140.
    """
    return _pair_count(_level_sizes(a_exp, n - 1), _level_sizes(b_exp, n - 1), n)


# last n at which find_M checks its inequality directly
_FIND_M_N = 100


def find_M(a_exp: float, b_exp: float) -> int:
    """Smallest integer M with sum_{l<=n} (n-l+1)^A l^(B-1) <= M n^(A+B) - 1
    for all n <= 100; these sums T(n) are the head of one convolution.

    The certificate that M keeps working beyond n = 100 checks two things:
    the Riemann-sum limit Beta(A+1, B) of the normalized sums T(n)/n^(A+B)
    lies below M, and the ratios (T(n) + 1)/n^(A+B) of the last ten n move
    monotonically, so they are settling on that limit rather than still
    turning.  It is evidence, not a proof; M is refused without it.
    """
    if a_exp <= 0 or b_exp <= 0:
        raise ValueError("exponents must be positive")
    i = np.arange(1, _FIND_M_N + 1, dtype=float)
    totals = np.convolve(i**a_exp, i ** (b_exp - 1.0))[:_FIND_M_N]
    ratios = (totals + 1.0) / i ** (a_exp + b_exp)
    best = max(1, math.ceil(float(ratios.max()) - 1e-12))
    # Beta(A+1, B) = Gamma(A+1) Gamma(B) / Gamma(A+B+1)
    limit = math.exp(
        math.lgamma(a_exp + 1.0) + math.lgamma(b_exp) - math.lgamma(a_exp + b_exp + 1.0)
    )
    steps = np.diff(ratios[-10:])
    if best <= limit or not (np.all(steps >= 0.0) or np.all(steps <= 0.0)):
        raise ArithmeticError(
            f"cannot certify M={best} beyond n={_FIND_M_N}: Riemann limit {limit:.4g}"
        )
    return best


@dataclass(frozen=True)
class TensorLemmaReport:
    """Merged-rank bound check on extremal sequences.

    For each n = 1..len(nu) the pair count nu_n must stay below M*floor(n^(A+B)),
    which is equivalent to merged[M*floor(n^(A+B))] <= e^{-cn}.
    """

    m_const: int
    nu: np.ndarray
    rank_budget: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(np.all(self.nu <= self.rank_budget - 1))


def tensor_lemma_report(a_exp: float, b_exp: float, n_max: int = 30) -> TensorLemmaReport:
    m_const = find_M(a_exp, b_exp)
    sizes_a, sizes_b = _level_sizes(a_exp, n_max - 1), _level_sizes(b_exp, n_max - 1)
    ns = range(1, n_max + 1)
    nu = np.array([_pair_count(sizes_a, sizes_b, n) for n in ns], dtype=int)
    budget = np.array([m_const * int(float(n) ** (a_exp + b_exp)) for n in ns], dtype=int)
    return TensorLemmaReport(m_const, nu, budget)


def epsilon_power(beta: float) -> Callable:
    """n -> eps_n = n^-beta: positive and decreasing to 0."""
    if beta <= 0:
        raise ValueError("power must be positive")
    return lambda n: np.asarray(n, dtype=float) ** (-beta)


def epsilon_tensor(dimension: int) -> Callable:
    """n -> eps_n = n^(-1/(4N-7)), the polydisk tensor-route schedule (N >= 2)."""
    if 4 * dimension - 7 <= 0:
        raise ValueError("dimension must be >= 2")
    return epsilon_power(1.0 / (4.0 * dimension - 7.0))


def delta_from_epsilon(eps: Callable, n_max: int) -> Callable:
    """h -> delta(h), the step function with delta(eps_n) = e^{-n eps_n}.

    On [eps_n, eps_{n-1}) the value is e^{-n eps_n}; below eps_{n_max}
    the last value is extended.  The running minimum makes delta
    non-decreasing (a valid minorant), and the clamp at 1e-300 keeps it
    positive; every value lies below 1 since n eps_n > 0.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    eps_vals = eps(n)
    with np.errstate(under="ignore"):
        levels = np.exp(-n * eps_vals)
    levels = np.maximum(np.minimum.accumulate(levels), 1e-300)
    thresholds = eps_vals[::-1]  # increasing
    levels_rev = levels[::-1]

    def delta(h):
        idx = np.searchsorted(thresholds, np.asarray(h, dtype=float), side="right")
        return levels_rev[np.clip(idx, 1, thresholds.size) - 1]

    return delta


def upper_bound_plain(profile, n: int) -> float:
    """min over the h grid of e^{-nh} + sqrt(rho(h)/h), up to an absolute
    constant."""
    h, rho = profile.h_grid, profile.rho_hat
    if h.size == 0:
        raise ValueError("empty profile grid")
    return float(np.min(np.exp(-float(n) * h) + np.sqrt(rho / h)))


def upper_bound_weighted(profile, n: int, gamma: float) -> float:
    """min over h of (n+1)^((gamma+1)/2) e^{-nh} + sup_{t<=h} sqrt(rho(t)/t^(2+gamma)).

    The inner sup is the running maximum over the grid, so the grid must
    resolve every t <= h of interest.
    """
    h, rho = profile.h_grid, profile.rho_hat
    if h.size == 0:
        raise ValueError("empty profile grid")
    order = np.argsort(h)
    h_inc, rho_inc = h[order], rho[order]
    inner = np.sqrt(rho_inc / h_inc ** (2.0 + gamma))
    running = np.maximum.accumulate(inner)
    first = (float(n) + 1.0) ** ((gamma + 1.0) / 2.0) * np.exp(-float(n) * h_inc)
    return float(np.min(first + running))


@dataclass(frozen=True)
class BetaEstimate:
    """Window statistics of s_n^(1/n^(1/N)) (proxies for liminf/limsup);
    both are 0.0 when the window holds a zero value."""

    beta_minus_hat: float
    beta_plus_hat: float
    window: tuple


def beta_estimate(spectrum, dimension: int, window: tuple) -> BetaEstimate:
    values = _as_array(spectrum)
    lo, hi = window
    if not 1 <= lo <= hi <= values.size:
        raise ValueError(f"window {window} outside available indices 1..{values.size}")
    vals = values[lo - 1 : hi]
    if np.any(vals <= 0.0):
        return BetaEstimate(0.0, 0.0, (lo, hi))
    n = np.arange(lo, hi + 1, dtype=float)
    stats = vals ** (1.0 / n ** (1.0 / dimension))
    return BetaEstimate(
        beta_minus_hat=float(stats.min()),
        beta_plus_hat=float(stats.max()),
        window=(lo, hi),
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of a decay law in transformed coordinates.

    params: stretched_exp -> {log_amplitude, rate, exponent} for
    s_n ~ C e^{-c n^alpha}; poly -> {log_amplitude, power}.
    """

    params: dict
    r_squared: float
    fit_range: tuple


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept: (slope, intercept, R^2).

    R^2 is 1 when y is constant (nothing left to explain).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def decay_fit(spectrum, model: str, fit_range: tuple) -> DecayFit:
    """Fit a decay law to s_lo..s_hi (1-based, inclusive).

    A range reaching past the spectrum raises instead of shrinking, so a
    spectrum cut short (at a float floor, say) cannot pass for a fit of
    the requested range.
    """
    values = _as_array(spectrum)
    lo, hi = fit_range
    if hi > values.size:
        raise ValueError(
            f"fit range {tuple(fit_range)} reaches past the {values.size} values of the spectrum"
        )
    n = np.arange(lo, hi + 1, dtype=float)
    vals = values[lo - 1 : hi]
    if vals.size < 6:
        raise ValueError("need at least 6 points to fit a decay law")
    if np.any(vals <= 0.0):
        raise ValueError("decay fits need strictly positive values")
    logs = np.log(vals)

    if model == "poly":
        slope, intercept, r2 = linear_fit(np.log(n), logs)
        return DecayFit({"log_amplitude": intercept, "power": -slope}, r2, (lo, hi))
    if model != "stretched_exp":
        raise ValueError(f"unknown decay model {model!r}")

    # coarse alpha scan, then golden-section refinement of R^2(alpha)
    alphas = np.arange(0.05, 0.951, 0.05)
    scores = [linear_fit(n**a, logs)[2] for a in alphas]
    best = int(np.argmax(scores))
    lo_a = alphas[max(best - 1, 0)]
    hi_a = alphas[min(best + 1, alphas.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_a, hi_a
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = linear_fit(n**x1, logs)[2]
    f2 = linear_fit(n**x2, logs)[2]
    for _ in range(60):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = linear_fit(n**x2, logs)[2]
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = linear_fit(n**x1, logs)[2]
    alpha = 0.5 * (a + b)
    slope, intercept, r2 = linear_fit(n**alpha, logs)
    return DecayFit(
        {"log_amplitude": intercept, "rate": -slope, "exponent": float(alpha)},
        r2,
        (lo, hi),
    )


def classify_series_convergence(terms) -> str:
    """Dyadic-block ratio/slope test on sum_n terms[n]: "converging",
    "diverging" or "inconclusive".

    Blocks B_j = sum over n in [2^j, 2^(j+1)); power-law blocks B_j ~ j^-q
    are summable iff q > 1, so the classifier fits q on the trailing
    blocks, with shortcuts for geometric decay and for growing blocks.
    """
    t = np.asarray(terms, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("series terms must be non-negative")
    blocks = []
    j = 1
    while 2 ** (j + 1) <= t.size:
        blocks.append(float(t[2**j : 2 ** (j + 1)].sum()))
        j += 1
    blocks = np.asarray(blocks)
    if blocks.size < 3:
        return "inconclusive"
    total = float(t.sum())
    if blocks[-1] <= 1e-30 * max(total, 1e-300):
        return "converging"
    tail = blocks[-min(6, blocks.size) :]
    idx = np.arange(blocks.size - tail.size + 1, blocks.size + 1, dtype=float)
    if np.any(tail <= 0.0):
        return "converging" if tail[-1] == 0.0 else "inconclusive"
    slope, _, _ = linear_fit(np.log(idx), np.log(tail))
    q = -slope
    if q >= 1.15:
        return "converging"
    if q <= 0.85:
        return "diverging"
    return "inconclusive"
