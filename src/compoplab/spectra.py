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
from scipy.special import beta as beta_integral

__all__ = [
    "SingularSpectrum",
    "Schedule",
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
    "beta_estimate",
    "decay_fit",
    "linear_fit",
    "schatten_membership",
    "classify_series_convergence",
]


# products per row block of nu_count_bruteforce (2 MB of float64)
_ORACLE_BLOCK = 1 << 18


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
        if np.any(v < 0.0):
            raise ValueError("s-numbers must be non-negative")
        tol = 1e-12 * max(float(v[0]), 1.0)
        if np.any(np.diff(v) > tol):
            raise ValueError("s-numbers must be non-increasing")
        v = np.minimum.accumulate(v)
        if self.semantics not in ("lower_bound_of_a_n", "exact", "synthetic"):
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

    @classmethod
    def from_values(cls, values, semantics: str = "synthetic") -> "SingularSpectrum":
        values = np.asarray(values, dtype=float)
        return cls(values, truncation=values.size, semantics=semantics)


def singular_values(matrix, n_max: int | None = None) -> SingularSpectrum:
    """First n_max singular values of a finite section (lower bounds of a_n)."""
    entries = getattr(matrix, "entries", matrix)
    entries = np.asarray(entries)
    try:
        s = np.linalg.svd(entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        finite = bool(np.all(np.isfinite(entries)))
        raise SvdError(
            f"SVD did not converge on a {entries.shape} section "
            f"(finite={finite}, max|entry|={np.max(np.abs(entries)):.3g})"
        ) from exc
    if n_max is not None:
        if n_max > s.size:
            raise ValueError(f"n_max={n_max} exceeds section size {s.size}")
        s = s[:n_max]
    return SingularSpectrum(s, truncation=entries.shape[0], semantics="lower_bound_of_a_n")


def _as_array(spectrum) -> np.ndarray:
    if isinstance(spectrum, SingularSpectrum):
        return spectrum.values
    return np.asarray(spectrum, dtype=float)


def _merge_two(s: np.ndarray, t: np.ndarray, n_max: int) -> np.ndarray:
    """Top n_max products s_j t_k in non-increasing order.

    A pair (j, k) (1-based) among the top n_max has j*k <= n_max: the j*k
    pairs (j', k') with j' <= j, k' <= k are each at least as large, since
    rounding a product is monotone.  The candidates s_j * t[:n_max // j]
    for j <= n_max therefore hold the top-n_max multiset, ties included.
    """
    candidates = np.concatenate(
        [s[j - 1] * t[: n_max // j] for j in range(1, min(s.size, n_max) + 1)]
    )
    cut = candidates.size - min(n_max, candidates.size)
    return np.sort(np.partition(candidates, cut)[cut:])[::-1]


def tensor_merge(factors: Sequence, n_max: int) -> SingularSpectrum:
    """Non-increasing rearrangement of all products over the factor spectra.

    Pairwise folding with truncation at n_max is exact for the leading
    n_max values: the top n products of (A x B) x C only involve the top n
    products of A x B.  Each fold keeps the products s_j t_k with
    j*k <= n_max, which hold its top n_max values (see `_merge_two`).
    """
    if not factors:
        raise ValueError("need at least one factor spectrum")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    arrays = [_as_array(f) for f in factors]
    semantics = "exact"
    for f in factors:
        if isinstance(f, SingularSpectrum) and f.semantics != "exact":
            semantics = f.semantics
        elif not isinstance(f, SingularSpectrum):
            semantics = "synthetic"
    merged = arrays[0][:n_max]
    for nxt in arrays[1:]:
        merged = _merge_two(merged, nxt, n_max)
    return SingularSpectrum(merged, truncation=merged.size, semantics=semantics)


def nu_count(s, t, c: float, n: int) -> int:
    """Number of pairs (j, k) with s_j t_k > e^{-cn}; s_1, t_1 <= 1 required."""
    sv, tv = _as_array(s), _as_array(t)
    if sv[0] > 1.0 + 1e-12 or tv[0] > 1.0 + 1e-12:
        raise ValueError("factor spectra must be normalized to s_1, t_1 <= 1")
    threshold = math.exp(-c * n)
    # searchsorted on the reversed tail gives a near-boundary guess; a local
    # fix-up then decides ties by the product itself, so the count agrees
    # exactly with the double-loop definition s_j t_k > threshold
    t_rev = tv[::-1]
    count = 0
    for sj in sv:
        if not sj * tv[0] > threshold:
            break
        k = tv.size - int(np.searchsorted(t_rev, threshold / sj, side="right"))
        while k > 0 and not sj * tv[k - 1] > threshold:
            k -= 1
        while k < tv.size and sj * tv[k] > threshold:
            k += 1
        count += k
    return int(count)


def nu_count_bruteforce(s, t, c: float, n: int) -> int:
    """Oracle for nu_count: every product s_j t_k compared with e^{-cn}.

    O(|s||t|), with no use of sortedness, in row blocks of about
    _ORACLE_BLOCK products.  The tensor-lemma experiment checks nu_count
    against it.
    """
    sv, tv = _as_array(s), _as_array(t)
    threshold = math.exp(-c * n)
    rows = max(1, _ORACLE_BLOCK // max(tv.size, 1))
    count = 0
    for start in range(0, sv.size, rows):
        count += int(np.count_nonzero(np.multiply.outer(sv[start : start + rows], tv) > threshold))
    return count


def extremal_spectrum(exponent: float, c: float, levels: int) -> np.ndarray:
    """s_j = e^{-c * ceil(j^(1/A))}: the extremal sequence with a_{[n^A]} <= e^{-cn}."""
    if exponent <= 0 or c <= 0:
        raise ValueError("exponent and rate must be positive")
    sizes = np.diff(np.floor(np.arange(0, levels + 1, dtype=float) ** exponent).astype(int))
    return np.repeat(np.exp(-c * np.arange(1, levels + 1, dtype=float)), sizes)


def extremal_pair_count(a_exp: float, b_exp: float, n: int) -> int:
    """Exact count of pairs with ceil(j^(1/A)) + ceil(k^(1/B)) <= n - 1.

    This equals nu_count on the extremal sequences for any rate c > 0.
    """
    count_a = np.diff(np.floor(np.arange(0, n, dtype=float) ** a_exp).astype(int))
    count_b = np.diff(np.floor(np.arange(0, n, dtype=float) ** b_exp).astype(int))
    total = 0
    for p in range(1, n - 1):
        q_max = n - 1 - p
        if q_max < 1:
            break
        total += int(count_a[p - 1]) * int(count_b[:q_max].sum())
    return total


def find_M(a_exp: float, b_exp: float, n_max: int = 100) -> int:
    """Smallest integer M with sum_{l<=n} (n-l+1)^A l^(B-1) <= M n^(A+B) - 1
    for all n <= n_max.

    The certificate that M keeps working beyond n_max: the normalized sums
    T(n)/n^(A+B) converge to the Riemann-sum limit Beta(A+1, B) and their
    tail is already below M - 1/n^(A+B).
    """
    if a_exp <= 0 or b_exp <= 0:
        raise ValueError("exponents must be positive")
    best = 1
    tail_ratios = []
    for n in range(1, n_max + 1):
        l = np.arange(1, n + 1, dtype=float)
        total = float(np.sum((n - l + 1.0) ** a_exp * l ** (b_exp - 1.0)))
        ratio = (total + 1.0) / float(n) ** (a_exp + b_exp)
        best = max(best, math.ceil(ratio - 1e-12))
        if n > n_max - 10:
            tail_ratios.append(ratio)
    limit = float(beta_integral(a_exp + 1.0, b_exp))
    if best <= limit or max(tail_ratios) > best:
        raise ArithmeticError(
            f"cannot certify M={best} beyond n_max={n_max}: Riemann limit {limit:.4g}"
        )
    return best


@dataclass(frozen=True)
class TensorLemmaReport:
    """Merged-rank bound check on extremal sequences.

    For each n <= n_max the pair count nu_n must stay below M*floor(n^(A+B)),
    which is equivalent to merged[M*floor(n^(A+B))] <= e^{-cn}.
    """

    a_exp: float
    b_exp: float
    c: float
    m_const: int
    n_max: int
    nu: np.ndarray
    rank_budget: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(np.all(self.nu <= self.rank_budget - 1))


def tensor_lemma_report(
    a_exp: float, b_exp: float, c: float = 1.0, n_max: int = 30
) -> TensorLemmaReport:
    m_const = find_M(a_exp, b_exp)
    nu = np.empty(n_max, dtype=int)
    budget = np.empty(n_max, dtype=int)
    for n in range(1, n_max + 1):
        nu[n - 1] = extremal_pair_count(a_exp, b_exp, n)
        budget[n - 1] = m_const * int(float(n) ** (a_exp + b_exp))
    return TensorLemmaReport(a_exp, b_exp, c, m_const, n_max, nu, budget)


@dataclass(frozen=True)
class Schedule:
    """Decay schedule: either n -> eps_n (positive, decreasing to 0) or
    h -> delta(h) (non-decreasing, values in (0, 1))."""

    kind: str  # "epsilon_n" | "delta_h"
    fn: Callable
    label: str = ""

    def __post_init__(self):
        if self.kind == "epsilon_n":
            n = np.array([1, 4, 16, 256, 65536], dtype=float)
            vals = self.fn(n)
            if np.any(vals <= 0) or np.any(np.diff(vals) > 0):
                raise ValueError("epsilon schedule must be positive and non-increasing")
        elif self.kind == "delta_h":
            h = np.geomspace(1e-6, 0.9, 25)
            vals = self.fn(h)
            if np.any(vals <= 0) or np.any(vals >= 1) or np.any(np.diff(vals) < -1e-15):
                raise ValueError("delta schedule must be non-decreasing with values in (0,1)")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    def epsilon(self, n):
        if self.kind != "epsilon_n":
            raise ValueError("not an epsilon schedule")
        return self.fn(np.asarray(n, dtype=float))

    def delta(self, h):
        if self.kind != "delta_h":
            raise ValueError("not a delta schedule")
        return self.fn(np.asarray(h, dtype=float))

    @classmethod
    def epsilon_power(cls, beta: float) -> "Schedule":
        """eps_n = n^-beta."""
        if beta <= 0:
            raise ValueError("power must be positive")
        return cls("epsilon_n", lambda n: n ** (-beta), label=f"n^-{beta:g}")

    @classmethod
    def epsilon_tensor(cls, dimension: int) -> "Schedule":
        """eps_n = n^(-1/(4N-7)), the polydisk tensor-route schedule (N >= 2)."""
        if 4 * dimension - 7 <= 0:
            raise ValueError("dimension must be >= 2")
        return cls.epsilon_power(1.0 / (4.0 * dimension - 7.0))

    @classmethod
    def delta_from_epsilon(cls, eps: "Schedule", n_max: int = 1 << 16) -> "Schedule":
        """Step function delta with delta(eps_n) = e^{-n eps_n}, non-decreasing.

        On [eps_n, eps_{n-1}) the value is e^{-n eps_n}; below eps_{n_max}
        the last value is extended (a valid non-decreasing minorant).
        """
        n = np.arange(1, n_max + 1, dtype=float)
        eps_vals = eps.epsilon(n)
        with np.errstate(under="ignore"):
            levels = np.exp(-n * eps_vals)
        if np.any(np.diff(levels) > 0):
            levels = np.minimum.accumulate(levels)
        levels = np.maximum(levels, 1e-300)  # keep the step function positive
        thresholds = eps_vals[::-1]  # increasing
        levels_rev = levels[::-1]

        def fn(h):
            h = np.asarray(h, dtype=float)
            idx = np.searchsorted(thresholds, h, side="right")
            idx = np.clip(idx, 1, thresholds.size)
            return levels_rev[idx - 1]

        return cls("delta_h", fn, label=f"step from {eps.label}")


def _profile_arrays(profile):
    h = np.asarray(profile.h_grid, dtype=float)
    rho = np.asarray(profile.rho_hat, dtype=float)
    return h, rho


def upper_bound_plain(source, n: int) -> float:
    """min over the h grid of e^{-nh} + sqrt(rho(h)/h), up to an absolute
    constant.  Accepts a CarlesonProfile or a delta schedule (for which
    rho(h) = h delta(h)^2, i.e. the second term IS delta(h))."""
    if isinstance(source, Schedule):
        h = np.geomspace(1e-4, 0.99, 400)
        second = source.delta(h)
    else:
        h, rho = _profile_arrays(source)
        if h.size == 0:
            raise ValueError("empty profile grid")
        second = np.sqrt(rho / h)
    return float(np.min(np.exp(-float(n) * h) + second))


def upper_bound_weighted(profile, n: int, gamma: float) -> float:
    """min over h of (n+1)^((gamma+1)/2) e^{-nh} + sup_{t<=h} sqrt(rho(t)/t^(2+gamma)).

    The inner sup is the running maximum over the grid, so the grid must
    resolve every t <= h of interest.
    """
    h, rho = _profile_arrays(profile)
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
    """Window statistics of s_n^(1/n^(1/N)) (proxies for liminf/limsup)."""

    dimension: int
    beta_minus_hat: float
    beta_plus_hat: float
    window: tuple
    degenerate: bool = False


def beta_estimate(spectrum, dimension: int, window: tuple | None = None) -> BetaEstimate:
    values = _as_array(spectrum)
    if window is None:
        window = (max(1, values.size // 2), values.size)
    lo, hi = window
    if not 1 <= lo <= hi <= values.size:
        raise ValueError(f"window {window} outside available indices 1..{values.size}")
    vals = values[lo - 1 : hi]
    if np.any(vals <= 0.0):
        return BetaEstimate(dimension, 0.0, 0.0, (lo, hi), degenerate=True)
    n = np.arange(lo, hi + 1, dtype=float)
    stats = vals ** (1.0 / n ** (1.0 / dimension))
    return BetaEstimate(
        dimension,
        beta_minus_hat=float(stats.min()),
        beta_plus_hat=float(stats.max()),
        window=(lo, hi),
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of a decay law in transformed coordinates.

    params: stretched_exp -> {log_amplitude, rate, exponent} for
    s_n ~ C e^{-c n^alpha}; poly -> {log_amplitude, power}; exp_linear ->
    {log_amplitude, rate}.
    """

    model: str
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


def _stretched_r2(n: np.ndarray, logs: np.ndarray, alpha: float):
    return linear_fit(n**alpha, logs)


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
        return DecayFit(model, {"log_amplitude": intercept, "power": -slope}, r2, (lo, hi))
    if model == "exp_linear":
        slope, intercept, r2 = linear_fit(n, logs)
        return DecayFit(model, {"log_amplitude": intercept, "rate": -slope}, r2, (lo, hi))
    if model != "stretched_exp":
        raise ValueError(f"unknown decay model {model!r}")

    # coarse alpha scan, then golden-section refinement of R^2(alpha)
    alphas = np.arange(0.05, 0.951, 0.05)
    scores = [_stretched_r2(n, logs, a)[2] for a in alphas]
    best = int(np.argmax(scores))
    lo_a = alphas[max(best - 1, 0)]
    hi_a = alphas[min(best + 1, alphas.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_a, hi_a
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = _stretched_r2(n, logs, x1)[2]
    f2 = _stretched_r2(n, logs, x2)[2]
    for _ in range(60):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = _stretched_r2(n, logs, x2)[2]
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = _stretched_r2(n, logs, x1)[2]
    alpha = 0.5 * (a + b)
    slope, intercept, r2 = _stretched_r2(n, logs, alpha)
    return DecayFit(
        "stretched_exp",
        {"log_amplitude": intercept, "rate": -slope, "exponent": float(alpha)},
        r2,
        (lo, hi),
    )


def classify_series_convergence(terms) -> str:
    """Dyadic-block ratio/slope test on sum_n terms[n].

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
        return "summable"
    tail = blocks[-min(6, blocks.size) :]
    idx = np.arange(blocks.size - tail.size + 1, blocks.size + 1, dtype=float)
    if np.any(tail <= 0.0):
        return "summable" if tail[-1] == 0.0 else "inconclusive"
    slope, _, _ = linear_fit(np.log(idx), np.log(tail))
    q = -slope
    if q >= 1.15:
        return "summable"
    if q <= 0.85:
        return "not_summable"
    return "inconclusive"


def schatten_membership(source, p: float, n_max: int = 1 << 16) -> str:
    """Dyadic-block test of sum_n s_n^p: summable / not_summable / inconclusive."""
    if p <= 0:
        raise ValueError("Schatten exponent must be positive")
    if isinstance(source, Schedule):
        n = np.arange(1, n_max + 1, dtype=float)
        values = np.exp(-n * source.epsilon(n))
    else:
        values = _as_array(source)
    with np.errstate(under="ignore"):
        return classify_series_convergence(values**p)
