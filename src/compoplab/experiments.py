"""Experiment registry: desk-scale reproductions of the quantitative claims.

Every experiment writes CSV tables (one '#'-prefixed JSON header line,
then rows) plus a manifest with per-table checksums; tables are byte-
reproducible for a fixed configuration.  In-experiment assertions are
collected and reported, never raised.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .carleson import CROSSCHECK_BOUNDARY_RADIUS, CarlesonProfile, boundary_values, rho_profile
from .harmonic import (
    DiskRegion,
    GraphChannel,
    HalfPlaneRegion,
    covering_count,
    wos_harmonic_measures,
)
from .operators import (
    build_matrix,
    hs_norm_sq,
    kernel_lower_bound,
    kernel_ratio,
    multiplicity_weights,
    strip_lattice,
    unboundedness_witness,
)
from .spectra import (
    beta_estimate,
    decay_fit,
    delta_from_epsilon,
    epsilon_power,
    epsilon_tensor,
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
from .symbols import BlaschkeSquare, Cusp, Lens, ShapiroTaylor

__all__ = [
    "ExperimentConfig",
    "Assertion",
    "RunManifest",
    "REGISTRY",
    "run",
    "kernel_sweep",
    "kernel_slope",
    "kronecker_gap",
    "pair_count_agrees",
    "merge_check",
    "harness_pair",
    "spiral_ensemble",
    "tail_slope",
    "level_constant",
    "covering_sample",
    "witness_growth",
    "section_decay",
    "kernel_law",
    "hs_dichotomy",
    "blaschke_passage",
    "contraction_floor",
    "schedule_route",
    "radius_stability",
]


@dataclass
class ExperimentConfig:
    experiment: str
    out: str = "runs"
    seed: int = 0
    samples: int | None = None


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunManifest:
    experiment: str
    config: dict
    version: str
    status: str
    wall_time_s: float
    tables: dict
    assertions: list
    out_dir: str


class _Recorder:
    """Collects tables and assertions for one experiment run."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.tables: dict[str, tuple] = {}
        self.assertions: list[Assertion] = []

    def table(self, name: str, columns, rows):
        self.tables[name] = (list(columns), [tuple(r) for r in rows])

    def check(self, name: str, passed: bool, detail: str = ""):
        self.assertions.append(Assertion(name, bool(passed), detail))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# ---------------------------------------------------------------------------
# experiment bodies


def _exp_cusp_diagonal(rec: _Recorder):
    truncation = 1024
    # the N-sweep scales the N = 1 columns instead of extracting them again
    base = build_matrix(Cusp(), truncation)
    profile, radius_gap, ok = radius_stability(Cusp(), 1 << 18)
    rec.check(
        "boundary-radius stability of the measured profile",
        ok,
        f"max shift {radius_gap:.2e} between r_b=1-1e-8 and 1-1e-6 (need < 1e-3)",
    )
    fits = []
    for dim in (1, 2, 3):
        spec = singular_values(base * multiplicity_weights(truncation, dim))
        fit, _, detail, ok = section_decay(spec, (20, 300), 0.45)
        rows = [(n, spec.a(n)) for n in range(1, 401)]
        rec.table(f"spectrum_n{dim}", ["n", "s_n"], rows)
        fits.append(
            (
                dim,
                fit.params["exponent"],
                fit.params["rate"],
                fit.r_squared,
                fit.fit_range[0],
                fit.fit_range[1],
            )
        )
        if dim >= 2:
            rec.check(f"cusp-diagonal N={dim}: sqrt-exponential decay", ok, detail)
            gamma = dim - 2
            ns = [16, 32, 64, 128, 256]
            bound_rows = []
            for n in ns:
                bound = upper_bound_weighted(profile, n, gamma)
                bound_rows.append((n, spec.a(n), bound))
            rec.table(
                f"bound_comparison_n{dim}", ["n", "s_n", "weighted_bound"], bound_rows
            )
    rec.table(
        "fits",
        ["N", "alpha", "rate", "r_squared", "n_lo", "n_hi"],
        fits,
    )


# ---------------------------------------------------------------------------
# measurements shared by the experiment bodies, the acceptance criteria and
# the unit tests; each caller passes its own sample counts, seeds and ranges.
# A function that judges a claim returns its verdict last, beside its values,
# so each rule and threshold is written here once.


def kernel_sweep(spec, dimension: int):
    """Rows (j, r, kernel ratio) of the diagonal map of `spec` on D^dimension at
    the kernel points (r, 0, ..., 0), r = 1 - 2^-j, j <= 30."""
    rows = []
    for j in range(1, 31):
        r = 1.0 - 2.0**-j
        rows.append((j, r, kernel_ratio(spec, dimension, r)))
    return rows


def kernel_slope(rows, n_theta: float):
    """(slope, target, min/median of the ratios, verdict) of the lens kernel-ratio
    regime N theta >= 1.  The slope is that of log ratio against
    log 1/(1-r) = j log 2 over the rows with j >= 10.  Above N theta = 1 the
    ratio grows: the slope must lie within 0.05 of (N theta - 1)/2.  At
    N theta = 1 it stays in a band: the slope within 0.02 of 0, and no ratio
    below half the median.  Below 1 the operator is compact and has no rule here."""
    js = np.array([r[0] for r in rows])
    ratios = np.array([r[2] for r in rows])
    window = js >= 10
    slope = linear_fit(js[window] * math.log(2.0), np.log(ratios[window]))[0]
    band = ratios.min() / np.median(ratios)
    if abs(n_theta - 1.0) <= 1e-9:
        flat = abs(slope) <= 0.02
        return slope, 0.0, band, bool(flat and ratios.min() >= 0.5 * np.median(ratios))
    if n_theta < 1.0:
        raise ValueError("the kernel-ratio rule needs N theta >= 1")
    target = (n_theta - 1.0) / 2.0
    return slope, target, band, bool(abs(slope - target) <= 0.05)


def kronecker_gap(rngs):
    """(max |merged - kron| / kron[0] over one random 5x5 (x) 6x6 complex pair per
    generator, drawing a then b, whether it is below 1e-10); one stacked SVD each."""
    draws = [
        [g.standard_normal((m, m)) + 1j * g.standard_normal((m, m)) for m in (5, 6)] for g in rngs
    ]
    sa, sb = (np.linalg.svd(np.array(x), compute_uv=False) for x in zip(*draws))
    kron = np.linalg.svd(np.array([np.kron(a, b) for a, b in draws]), compute_uv=False)
    gaps = [np.abs(tensor_merge([x, y], 30).values - k).max() / k[0] for x, y, k in zip(sa, sb, kron)]
    worst = float(max(gaps))
    return worst, worst < 1e-10


def pair_count_agrees(a_exp: float, b_exp: float, ns) -> bool:
    """nu_count equals the double-loop oracle on the extremal sequences (rate 1,
    31 levels) at every n in ns."""
    s = extremal_spectrum(a_exp, 1.0, 31)
    t = extremal_spectrum(b_exp, 1.0, 31)
    return all(nu_count(s, t, 1.0, n) == nu_count_bruteforce(s, t, 1.0, n) for n in ns)


def merge_check(a_exp: float, b_exp: float):
    """(M, rows (n, rank, merged value, target e^(-n)), whether every value is within
    1e-12 of its target): the merged extremal spectrum at rank M n^(A+B), n <= 30."""
    m_const = find_M(a_exp, b_exp)
    s = extremal_spectrum(a_exp, 1.0, levels=31)
    t = extremal_spectrum(b_exp, 1.0, levels=31)
    power = int(a_exp + b_exp)
    merged = tensor_merge([s, t], m_const * 30**power)
    ok = True
    rows = []
    for n in range(1, 31):
        rank = m_const * n**power
        value = merged.a(min(rank, len(merged)))
        bound = math.exp(-n)
        rows.append((n, rank, value, bound))
        ok = ok and value <= bound * (1.0 + 1e-12)
    return m_const, rows, ok


def harness_pair(samples: int, seed: int):
    """Walk-on-spheres calibration: (the disk half-arc estimate at `seed`, the
    half-plane segment (-1, 1) estimate at `seed + 1`, whether each lies within
    3 half-widths of its exact measure 1/2)."""
    disk = wos_harmonic_measures(
        DiskRegion(), [lambda p: np.abs(np.angle(p)) <= math.pi / 2.0], samples=samples, seed=seed
    )[0]
    half = wos_harmonic_measures(
        HalfPlaneRegion(), [lambda p: np.abs(p.real) < 1.0], samples=samples, seed=seed + 1
    )[0]
    ok = tuple(bool(abs(e.probability - 0.5) <= 3.0 * e.ci_halfwidth) for e in (disk, half))
    return disk, half, ok


def spiral_ensemble(region: GraphChannel, samples: int, seed: int):
    """(ys, hs, tail estimates, level estimates) from one walk ensemble scored on the
    tails Im w > y, y = alpha + 1, 2, 3, and the level sets Re w < -log(1 - h)."""
    ys = [region.alpha + 1.0, region.alpha + 2.0, region.alpha + 3.0]
    hs = [0.1, 0.05, 0.025]
    targets = [(lambda pts, yy=y: pts.imag > yy) for y in ys]
    targets += [(lambda pts, hh=h: pts.real < -math.log1p(-hh)) for h in hs]
    estimates = wos_harmonic_measures(region, targets, samples=samples, seed=seed)
    return ys, hs, estimates[: len(ys)], estimates[len(ys) :]


def tail_slope(ys, tails):
    """(slope of log p against y over the positive estimates, their count, whether
    at least two are positive and the slope is at most -0.9); the slope is nan
    when fewer than two are positive."""
    probs = np.array([e.probability for e in tails])
    positive = probs > 0
    count = int(np.count_nonzero(positive))
    if count < 2:
        return float("nan"), count, False
    slope = linear_fit(np.asarray(ys)[positive], np.log(probs[positive]))[0]
    return slope, count, bool(slope <= -0.9)


def level_constant(region: GraphChannel, hs, levels):
    """(shape e^(alpha - g(2h)), level probabilities, fitted constant c_hat,
    a note, whether c_hat is finite and every probability is at most 1e-3
    and at most max(c_hat, 1) * shape + 1e-15).  c_hat is the largest
    p/shape, so on positive shapes the last clause holds by construction;
    the note says so, then adds " (vacuous)" when no level target has a hit."""
    g2h = region.g(2.0 * np.asarray(hs))
    shape = np.exp(region.alpha - g2h)
    probs = np.array([e.probability for e in levels])
    with np.errstate(divide="ignore", invalid="ignore"):
        c_hat = float(np.max(np.where(shape > 0, probs / shape, 0.0)))
    note = " (one constant: implied by c_hat)" + ("" if np.any(probs > 0) else " (vacuous)")
    single = np.all(probs <= max(c_hat, 1.0) * shape + 1e-15)
    return shape, probs, c_hat, note, bool(single and np.all(probs <= 1e-3) and math.isfinite(c_hat))


def covering_sample(region: GraphChannel, seed: int):
    """(covering counts of e^(-z) at 1e5 uniform points of the punctured disk, the
    frequency of count 2, whether every count lies in [1, 2] and that frequency
    exceeds 0.999)."""
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(1e-12, 1.0, 10**5))
    angles = rng.uniform(0.0, 2.0 * math.pi, 10**5)
    counts = covering_count(region, radii * np.cos(angles) + 1j * (radii * np.sin(angles)))
    freq2 = float(np.mean(counts == 2))
    return counts, freq2, bool(counts.min() >= 1 and counts.max() <= 2 and freq2 > 0.999)


def witness_growth(points: int):
    """(ns, witnesses, slope, whether the slope is within 0.03 of 1/4): unboundedness
    witnesses at `points` log-spaced n in [10, 1e4] and the log-log slope of their ratio."""
    ns = np.unique(np.geomspace(10, 10**4, points).astype(int))
    witnesses = [unboundedness_witness(int(n)) for n in ns]
    slope = linear_fit(np.log(ns), np.log([w.ratio for w in witnesses]))[0]
    return ns, witnesses, slope, bool(abs(slope - 0.25) <= 0.03)


def _under_float_floor(spec, lo: int, hi: int):
    """(the first n with s_n under the float floor 1e-13 s_1, None if none is,
    and how many of s_lo..s_hi lie under it)."""
    under = np.flatnonzero(spec.values < 1e-13 * spec.values[0]) + 1
    first = int(under[0]) if under.size else None
    return first, int(np.count_nonzero((under >= lo) & (under <= hi)))


def section_decay(spec, fit_range, min_exponent: float):
    """(stretched-exponential fit of s_n on `fit_range`, d = -slope of log s_n
    against sqrt n there, a detail line, whether the rate and d are positive, the
    exponent is at least `min_exponent` and R^2 >= 0.98).  The detail also marks
    the fitted points under the float floor 1e-13 s_1; the floor is not gated."""
    lo, hi = fit_range
    fit = decay_fit(spec, "stretched_exp", fit_range)
    logs = np.log(spec.values[lo - 1 : hi])
    d_rate = -linear_fit(np.sqrt(np.arange(lo, hi + 1, dtype=float)), logs)[0]
    first, fitted = _under_float_floor(spec, lo, hi)
    alpha, rate = fit.params["exponent"], fit.params["rate"]
    detail = (
        f"alpha={alpha:.3f} rate={rate:.3f} d={d_rate:.2f} R2={fit.r_squared:.4f}, "
        f"s_n < 1e-13*s_1 from n={first}, {fitted}/{hi - lo + 1} fitted points under it"
    )
    ok = rate > 0 and d_rate > 0 and alpha >= min_exponent and fit.r_squared >= 0.98
    return fit, d_rate, detail, bool(ok)


def kernel_law(symbol, nodes, extra, model: str, hi: int):
    """(the kernel lower bound of `symbol` on `nodes`, the bound on `nodes` and
    `extra` together, the `model` fit of the first on [20, hi], the largest
    relative move of s_20..s_hi from the first bound to the second, a detail
    line, whether the first bound keeps at least hi values and the move is
    below 1e-2).  The move is inf when the refined bound keeps fewer than hi
    values.  A first bound shorter than hi fails at once, with no refinement
    and no fit (None, None, inf).  The float floor of a kept s_hi lies below
    it, since a spectrum keeps no value at or below its floor, so the detail
    prints the floor and the verdict does not read it."""
    spectrum = kernel_lower_bound(symbol, nodes)
    detail = f"kernel lower bound keeps {len(spectrum)} values (need >= {hi})"
    if len(spectrum) < hi:
        return spectrum, None, None, math.inf, detail, False
    fit = decay_fit(spectrum, model, (20, hi))
    refined = kernel_lower_bound(symbol, np.append(nodes, extra))
    move = math.inf
    if len(refined) >= hi:
        move = float(np.max(np.abs(refined.values[19:hi] / spectrum.values[19:hi] - 1.0)))
    detail += (
        f" on {spectrum.truncation} nodes, float floor {spectrum.floor:.1e} "
        f"vs s_{hi}={spectrum.a(hi):.3e} (implied by the kept count), "
        f"+{extra.size} nodes at Im=+-{extra.imag.max():g} "
        f"move s_n on [20,{hi}] by {move:.1e} relative (need < 1e-2)"
    )
    return spectrum, refined, fit, move, detail, bool(move < 0.01)


def hs_dichotomy(thetas, truncation: int):
    """(Hilbert-Schmidt reports of ShapiroTaylor(theta) at `truncation`, the trend
    each must read ("diverging" below theta = 2, "converging" above, None at 2),
    whether each report reads it)."""
    reports = [hs_norm_sq(ShapiroTaylor(theta), truncation) for theta in thetas]
    expected = [None if t == 2.0 else "diverging" if t < 2.0 else "converging" for t in thetas]
    oks = tuple(e is None or r.trend == e for r, e in zip(reports, expected))
    return reports, expected, oks


_BLASCHKE_ZERO = 0.5  # a of the Blaschke square both Blaschke checks use


def blaschke_passage(samples: int, hs):
    """(rows (inner, h, m(|B o sigma| > 1 - h), m(1 - |sigma| <= kappa h), kappa),
    kappa = 4/(1 - a^2), whether every first mass is at most the second + 1e-15):
    the level-set passage under the Blaschke square B of zero a = 0.5, on `samples`
    equispaced boundary points of the cusp and of Lens(0.5)."""
    a = _BLASCHKE_ZERO
    kappa = 4.0 / (1.0 - a * a)
    blaschke = BlaschkeSquare(a)
    rows = []
    for name, inner in (("cusp", Cusp()), ("lens-half", Lens(0.5))):
        sigma_vals = boundary_values(inner, samples)
        psi_vals = blaschke.evaluate(sigma_vals)
        for h in hs:
            lhs = float(np.mean(np.abs(psi_vals) > 1.0 - h))
            rhs = float(np.mean(1.0 - np.abs(sigma_vals) <= kappa * h))
            rows.append((name, h, lhs, rhs, kappa))
    return rows, kappa, all(row[2] <= row[3] + 1e-15 for row in rows)


def contraction_floor(points):
    """(smallest Blaschke contraction ratio (1 - |B(z)|)/(1 - |z|) over `points`,
    the floor (1 - a^2)/4, whether the ratio is at least the floor - 1e-12), a = 0.5."""
    a = _BLASCHKE_ZERO
    z = np.asarray(points, dtype=complex)
    ratio = float(np.min((1.0 - np.abs(BlaschkeSquare(a).evaluate(z))) / (1.0 - np.abs(z))))
    floor = (1.0 - a * a) / 4.0
    return ratio, floor, bool(ratio >= floor - 1e-12)


def schedule_route(eps, grid_points: int):
    """(probes n = 16, 64, 256, 1024, eps_n, plain bounds, targets 2 e^(-n eps_n),
    whether every bound is at most its target (1 + 1e-12)): `upper_bound_plain` of
    the profile h delta(h)^2, delta calibrated by the schedule `eps`, on
    `grid_points` log-spaced h in [1e-3, 0.9] joined by the eps_n, so the infimum
    reaches the adjusted choice h = eps_n."""
    delta = delta_from_epsilon(eps, n_max=4096)
    n_probe = np.array([16, 64, 256, 1024])
    eps_vals = eps(n_probe)
    h_grid = np.unique(np.concatenate([np.geomspace(0.9, 1e-3, grid_points), eps_vals]))[::-1]
    profile = CarlesonProfile.synthetic(h_grid, lambda h: h * float(delta(h)) ** 2)
    plain = np.array([upper_bound_plain(profile, int(n)) for n in n_probe])
    target = 2.0 * np.exp(-n_probe * eps_vals)
    return n_probe, eps_vals, plain, target, bool(np.all(plain <= target * (1.0 + 1e-12)))


def radius_stability(spec, samples: int):
    """(`rho_profile` of `spec` at the default boundary radius 1 - 1e-8, the largest
    shift of its window and level masses at r_b = 1 - 1e-6, whether it is below 1e-3)."""
    profile = rho_profile(spec, samples=samples)
    crosscheck = rho_profile(spec, samples=samples, r_b=CROSSCHECK_BOUNDARY_RADIUS)
    gap = float(
        max(
            np.max(np.abs(profile.rho_hat - crosscheck.rho_hat)),
            np.max(np.abs(profile.level_hat - crosscheck.level_hat)),
        )
    )
    return profile, gap, gap < 1e-3


def _exp_lens_trichotomy(rec: _Recorder):
    dim = 2
    for theta in (0.25, 0.5, 1.0):
        rows = kernel_sweep(Lens(theta), dim)
        rec.table(
            f"kernel_ratio_theta{theta:.4f}".replace(".", "p"),
            ["j", "r", "ratio"],
            rows,
        )
        if dim * theta >= 1.0 - 1e-9:
            slope, target, band, ok = kernel_slope(rows, dim * theta)
            if target > 0.0:
                rec.check(
                    f"theta={theta:g}: unbounded kernel growth",
                    ok,
                    f"slope={slope:.4f} target={target:.4f}",
                )
            else:
                rec.check(
                    f"theta={theta:g}: bounded non-vanishing band",
                    ok,
                    f"slope={slope:.4f} min/median={band:.3f}",
                )
        else:
            spec = singular_values(build_matrix(Lens(theta), 512) * multiplicity_weights(512, dim))
            _, _, detail, ok = section_decay(spec, (20, 200), 0.4)
            rec.table(
                f"spectrum_theta{theta:.4f}".replace(".", "p"),
                ["n", "s_n"],
                [(n, spec.a(n)) for n in range(1, 301)],
            )
            rec.check(f"theta={theta:g}: compact sqrt-exponential decay", ok, detail)


def _exp_tensor_lemma(rec: _Recorder):
    m_rows = []
    nu_rows = []
    for a_exp, b_exp in ((2.0, 1.0), (1.5, 2.25)):
        report = tensor_lemma_report(a_exp, b_exp, n_max=30)
        m_rows.append((a_exp, b_exp, report.m_const, int(report.passed)))
        for n in range(2, 31):
            nu_rows.append((a_exp, b_exp, n, int(report.nu[n - 1]), int(report.rank_budget[n - 1])))
        rec.check(
            f"rank bound A={a_exp:g} B={b_exp:g}",
            report.passed,
            f"M={report.m_const}",
        )
    rec.table("find_m", ["A", "B", "M", "passed"], m_rows)
    rec.table("nu_counts", ["A", "B", "n", "nu_n", "rank_budget"], nu_rows)

    # direct merged-spectrum verification for the smallest pair
    rec.check(
        "pair count agrees with the double-loop oracle",
        pair_count_agrees(2.0, 1.0, (5, 9, 14)),
        "A=2, B=1",
    )
    m_const, rows, ok = merge_check(2.0, 1.0)
    rec.table("merge_check", ["n", "rank", "merged_value", "target"], rows)
    rec.check("direct merge bound A=2 B=1", ok, f"M={m_const}")

    # merged spectra agree with Kronecker-product singular values
    rng = np.random.default_rng(rec.config.seed)
    worst, ok = kronecker_gap([rng] * 10)  # ten pairs drawn in turn from one generator
    rec.check("merge equals Kronecker SVD", ok, f"max gap {worst:.2e}")


def _exp_spiral_harmonic(rec: _Recorder):
    cfg = rec.config
    samples = cfg.samples or 10**6
    region = GraphChannel()

    disk, half, harness_ok = harness_pair(max(samples // 10, 10**4), cfg.seed)
    rec.table(
        "harness",
        ["region", "target", "probability", "ci", "exact"],
        [
            ("disk", "half-arc", disk.probability, disk.ci_halfwidth, 0.5),
            ("half-plane", "segment(-1,1)", half.probability, half.ci_halfwidth, 0.5),
        ],
    )
    rec.check("disk harness", harness_ok[0], f"p={disk.probability:.4f}")
    rec.check("half-plane harness", harness_ok[1], f"p={half.probability:.4f}")

    ys, hs, tail, level = spiral_ensemble(region, samples, cfg.seed + 2)

    rec.table(
        "tails",
        ["y", "probability", "ci", "samples", "seed", "far_field", "step_capped"],
        [
            (y, e.probability, e.ci_halfwidth, e.samples, e.seed, e.n_far_field, e.n_step_capped)
            for y, e in zip(ys, tail)
        ],
    )
    slope, positive, ok = tail_slope(ys, tail)
    rec.check(
        "exponential tail slope <= -0.9",
        ok,
        "vanishing tail estimate" if math.isnan(slope) else f"slope={slope:.3f} on {positive} points",
    )

    bound, level_p, c_hat, note, ok = level_constant(region, hs, level)
    rows = [
        (h, e.probability, e.ci_halfwidth, b, c_hat)
        for h, e, b in zip(hs, level, bound)
    ]
    rec.table("level_tail", ["h", "probability", "ci", "bound_shape", "c_hat"], rows)
    rec.check(
        "level-set bound with one constant",
        ok,
        f"c_hat={c_hat:.3g} max_p={level_p.max():.2e}{note}",
    )

    # schedule calibration: the default g(t) = pi^2/t satisfies
    # e^{g(t)} >= C e^{alpha}/delta(t/2) exactly where
    # pi^2/t - alpha + log delta(t/2) >= log C, alpha = 5pi; for any target
    # schedule this pins the usable range of t
    delta = delta_from_epsilon(epsilon_power(0.5), n_max=4096)
    t_grid = np.geomspace(1e-3, 1.0, 40)
    margin = region.g(t_grid) - region.alpha + np.log(delta(t_grid / 2.0))
    rec.table(
        "schedule_calibration",
        ["t", "log_margin"],
        [(t, m) for t, m in zip(t_grid, margin)],
    )
    rec.check(
        "default g calibrates the target schedule for small t",
        bool(np.all(margin[t_grid <= 0.05] >= 0.0)),
        f"margin at t=1e-3: {margin[0]:.1f}",
    )

    counts, freq2, ok = covering_sample(region, cfg.seed + 3)
    rec.table(
        "covering",
        ["count", "frequency"],
        [(k, float(np.mean(counts == k))) for k in (0, 1, 2, 3)],
    )
    rec.check("two-valent covering", ok, f"freq2={freq2:.5f}")


def _exp_blaschke_passage(rec: _Recorder):
    cfg = rec.config
    hs = 2.0 ** -np.arange(1, 9, dtype=float)
    rows, kappa, ok = blaschke_passage(cfg.samples or (1 << 18), hs)
    rec.table("level_domination", ["inner", "h", "mass_psi", "mass_sigma_scaled", "kappa"], rows)
    rec.check("level-set passage under the Blaschke square", ok, f"kappa={kappa:g}")

    rng = np.random.default_rng(cfg.seed)
    z = rng.uniform(-0.99, 0.99, 10**4) + 1j * rng.uniform(-0.99, 0.99, 10**4)
    z = z[np.abs(z) < 0.999]
    ratio, floor, ok = contraction_floor(z[:2000])
    rec.table("contraction", ["min_ratio", "floor"], [(ratio, floor)])
    rec.check("contraction ratio floor", ok, f"min={ratio:.4f} floor={floor:.4f}")


def _exp_polydisk_pairs(rec: _Recorder):
    dim = 3

    # item 1: exact unboundedness witness, ratio ~ n^(1/4)
    ns, witnesses, slope, ok = witness_growth(25)
    rows = [(int(n), w.norm_f, w.norm_cf, w.ratio) for n, w in zip(ns, witnesses)]
    rec.table("witness", ["n", "norm_f", "norm_cf", "ratio"], rows)
    rec.check("witness growth exponent 1/4", ok, f"slope={slope:.4f}")

    # item 2: lens diagonal at the critical exponent vs the surjective route
    theta = 1.0 / dim
    krows = kernel_sweep(Lens(theta), dim)
    rec.table("critical_kernel", ["j", "r", "ratio"], krows)
    slope, _, band, ok = kernel_slope(krows, dim * theta)
    rec.check(
        "critical lens band bounded and non-vanishing",
        ok,
        f"min/median={band:.3f} slope={slope:.4f}",
    )
    h_grid = np.geomspace(0.5, 1e-2, 24)
    sigma_profile = CarlesonProfile.synthetic(
        h_grid, lambda h: min(h**dim * math.exp(-2.0 / h**2), 1.0)
    )
    ns_b = np.array([16, 64, 256, 1024, 4096])
    bounds = np.array([upper_bound_weighted(sigma_profile, int(n), dim - 2) for n in ns_b])
    rec.table(
        "surjective_route_bound",
        ["n", "bound", "log_bound_over_n23"],
        [(int(n), b, math.log(b) / n ** (2.0 / 3.0)) for n, b in zip(ns_b, bounds)],
    )
    shape = np.log(bounds) / ns_b ** (2.0 / 3.0)
    rec.check(
        "surjective route decays like exp(-c n^(2/3))",
        bool(np.max(shape[1:]) <= -0.25),
        f"max shape={np.max(shape[1:]):.3f}",
    )
    betas = [
        beta_estimate(np.exp(-0.5 * np.arange(1, m + 1) ** (2.0 / 3.0)), dim, (m // 2, m))
        for m in (200, 800, 3200)
    ]
    rec.table(
        "beta_window_item2",
        ["window_hi", "beta_plus"],
        [(b.window[1], b.beta_plus_hat) for b in betas],
    )
    rec.check(
        "beta windows shrink to zero (item 2 compact route)",
        betas[-1].beta_plus_hat < betas[0].beta_plus_hat and betas[-1].beta_plus_hat < 0.5,
        f"last={betas[-1].beta_plus_hat:.3f}",
    )

    # item 3: tensor route with the schedule eps_n = n^(-1/(4N-7))
    n_probe, eps_vals, plain, target, ok = schedule_route(epsilon_tensor(dim), 25)
    rec.table(
        "schedule_route",
        ["n", "eps_n", "plain_bound", "schedule_target"],
        [(int(n), e, b, tt) for n, e, b, tt in zip(n_probe, eps_vals, plain, target)],
    )
    rec.check(
        "schedule-calibrated bound",
        ok,
        f"plain bound within 2 e^{{-n eps_n}}: max bound/target - 1 = "
        f"{np.max(plain / target - 1.0):.1e} (slack 1e-12)",
    )
    a_exp, b_exp = 1.5, dim - 7.0 / 4.0
    report = tensor_lemma_report(a_exp, b_exp, n_max=20)
    rec.check(
        f"tensor rank bound A=3/2 B=N-7/4 (N={dim})",
        report.passed,
        f"M={report.m_const}",
    )
    decay_exp = 4.0 / (4.0 * dim - 1.0)
    synth = np.exp(-np.arange(1, 4001, dtype=float) ** decay_exp)
    b_small = beta_estimate(synth, dim, (100, 400)).beta_plus_hat
    b_large = beta_estimate(synth, dim, (2000, 4000)).beta_plus_hat
    rec.check(
        "merged route beta -> 0 (item 3)",
        b_large < b_small,
        f"{b_small:.3f} -> {b_large:.3f}",
    )

    # item 4: Shapiro-Taylor pair.  Finite sections are lower bounds whose
    # beta windows underestimate badly at desk scale, so the section
    # windows are reported as data while the beta contrast is asserted on
    # the decay laws themselves (n^(-theta/2) vs exp(-c n^(2/3))).
    theta = 2.0
    spec = singular_values(build_matrix(ShapiroTaylor(theta), 512))
    beta_windows = [beta_estimate(spec, dim, (m // 2, m)) for m in (64, 128, 256, 400)]
    rec.table(
        "shapiro_taylor_beta_sections",
        ["window_hi", "beta_minus", "beta_plus"],
        [(b.window[1], b.beta_minus_hat, b.beta_plus_hat) for b in beta_windows],
    )
    n_long = np.arange(1, 20001, dtype=float)
    poly_side = [
        beta_estimate(n_long ** (-theta / 2.0), dim, (m // 2, m)) for m in (500, 2000, 20000)
    ]
    rec.table(
        "beta_contrast_item4",
        ["window_hi", "poly_side_beta_minus"],
        [(b.window[1], b.beta_minus_hat) for b in poly_side],
    )
    rec.check(
        "polynomial-decay law has beta window -> 1",
        poly_side[-1].beta_minus_hat > poly_side[0].beta_minus_hat
        and poly_side[-1].beta_minus_hat > 0.6,
        f"windows {[round(b.beta_minus_hat, 3) for b in poly_side]}",
    )
    composed = np.exp(-0.4 * np.arange(1, 2001, dtype=float) ** (2.0 / 3.0))
    rec.check(
        "composed side has beta -> 0",
        beta_estimate(composed, dim, (1000, 2000)).beta_plus_hat
        < beta_estimate(composed, dim, (100, 200)).beta_plus_hat,
        "synthetic surjective composition route",
    )


def _exp_shapiro_taylor(rec: _Recorder):
    fit_rows = []
    for theta in (1.5, 2.0, 3.0):
        spec = singular_values(build_matrix(ShapiroTaylor(theta), 512))
        rec.table(
            f"spectrum_theta{theta:g}".replace(".", "p"),
            ["n", "s_n"],
            [(n, spec.a(n)) for n in range(1, 301)],
        )
        # poly fits are emitted as data; sections are lower bounds of a_n
        # and cannot witness the two-sided polynomial law at this scale
        fit = decay_fit(spec, "poly", (20, 200))
        scaled = np.arange(20, 201) ** (theta / 2.0) * spec.values[19:200]
        fit_rows.append((theta, fit.params["power"], fit.r_squared, float(scaled.min())))
        # the collapse is read below the float floor, which the detail marks
        first, under = _under_float_floor(spec, 1, 200)
        rec.check(
            f"theta={theta:g}: compact spectrum collapses",
            spec.a(200) < 1e-6 * spec.a(1),
            f"s_200/s_1={spec.a(200) / spec.a(1):.2e}, s_n < 1e-13*s_1 from n={first}, "
            f"{under}/200 of s_1..s_200 under it",
        )
    rec.table("poly_fits", ["theta", "power", "r_squared", "min_scaled"], fit_rows)

    thetas = (1.5, 2.0, 3.0)
    reports, expected, oks = hs_dichotomy(thetas, 2048)
    for theta, report, trend, ok in zip(thetas, reports, expected, oks):
        if trend:
            name = f"theta={theta:g}: Hilbert-Schmidt trend {trend}"
            rec.check(name, ok, f"trend={report.trend}")
    rec.table(
        "hs_trends",
        ["theta", "partial", "trend"],
        [(theta, r.partial, r.trend) for theta, r in zip(thetas, reports)],
    )


def _lens_law(symbol, spectrum, fit):
    """Criterion 1's law: (the stretched exponent, whether it lies in
    [0.45, 0.55] with R^2 >= 0.98, a detail line)."""
    alpha = fit.params["exponent"]
    ok = 0.45 <= alpha <= 0.55 and fit.r_squared >= 0.98
    detail = f"alpha={alpha:.4f} (window [0.45,0.55]), R2={fit.r_squared:.4f} (need >= 0.98)"
    return alpha, ok, detail


def _shapiro_taylor_law(symbol, spectrum, fit):
    """Criterion 11's law: (the power p, whether p <= theta/2 + 0.3 and
    n^(theta/2) s_n on [20, 200] stays at or above a quarter of its first
    value, a detail line)."""
    theta, power = symbol.theta, fit.params["power"]
    scaled = np.arange(20, 201, dtype=float) ** (theta / 2.0) * spectrum.values[19:200]
    ratio = float(scaled.min() / scaled[0])
    ok = power <= theta / 2.0 + 0.3 and ratio >= 0.25
    detail = (
        f"theta={theta:g}: p={power:.2f} (need <= {theta / 2 + 0.3:.2f}), "
        f"min scaled/first={ratio:.2f} (need >= 0.25)"
    )
    return power, ok, detail


def _record_law(rec: _Recorder, name, check, symbol, lattice, model, hi, law):
    """Run `kernel_law` and the `law` clauses for `symbol` on `lattice` (nodes,
    refinement), record the check `check` and the table `spectrum_<name>`, and
    return the row of the `laws` table."""
    nodes, extra = lattice
    spectrum, refined, fit, move, detail, ok = kernel_law(symbol, nodes, extra, model, hi)
    param = r_squared = math.nan
    if fit is not None:
        param, law_ok, law_detail = law(symbol, spectrum, fit)
        ok, detail, r_squared = ok and law_ok, f"{law_detail}, {detail}", fit.r_squared
        fine = np.full(hi, math.nan)
        fine[: min(hi, len(refined))] = refined.values[:hi]
        rec.table(
            f"spectrum_{name}",
            ["n", "s_n", "refined_s_n"],
            [(n, spectrum.a(n), fine[n - 1]) for n in range(1, hi + 1)],
        )
    rec.check(check, ok, detail)
    n_refined = 0 if refined is None else len(refined)
    return symbol, nodes.size, len(spectrum), spectrum.floor, n_refined, move, param, r_squared


def _exp_kernel_laws(rec: _Recorder):
    # criterion 1: Lens(1/2) on 1,781 nodes, refined by 446 at Im = +-1.35
    lens_nodes = np.concatenate(
        [
            strip_lattice(-200.0, 200.0, 0.9, (0.0, 0.6, -0.6)),
            strip_lattice(-200.0, 200.0, 1.8, (1.1, -1.1)),
        ]
    )
    lens_lattice = (lens_nodes, strip_lattice(-200.0, 200.0, 1.8, (1.35, -1.35)))
    check = "lens decay law, kernel lower bound, fit on [20,300]"
    rows = [
        _record_law(rec, "lens", check, Lens(0.5), lens_lattice, "stretched_exp", 300, _lens_law)
    ]
    # criterion 11: Shapiro-Taylor on 790 nodes, refined by 316 at Im = +-1.2
    st_lattice = (
        strip_lattice(-10.0, 100.0, 0.7, (0.0, 0.45, -0.45, 0.9, -0.9)),
        strip_lattice(-10.0, 100.0, 0.7, (1.2, -1.2)),
    )
    for theta in (1.5, 2.0):
        name = f"shapiro_taylor_theta{theta:g}".replace(".", "p")
        check = f"Shapiro-Taylor polynomial law, theta={theta:g}"
        symbol = ShapiroTaylor(theta)
        rows.append(
            _record_law(rec, name, check, symbol, st_lattice, "poly", 200, _shapiro_taylor_law)
        )
    columns = ["symbol", "nodes", "kept", "floor", "refined_kept", "refinement_move"]
    rec.table("laws", columns + ["exponent_or_power", "r_squared"], rows)


REGISTRY = {
    "cusp-diagonal": _exp_cusp_diagonal,
    "lens-trichotomy": _exp_lens_trichotomy,
    "tensor-lemma": _exp_tensor_lemma,
    "spiral-harmonic": _exp_spiral_harmonic,
    "blaschke-passage": _exp_blaschke_passage,
    "polydisk-pairs": _exp_polydisk_pairs,
    "shapiro-taylor": _exp_shapiro_taylor,
    "kernel-laws": _exp_kernel_laws,
}

# the experiments that read `ExperimentConfig.samples`; the others reject it
_SAMPLED = ("spiral-harmonic", "blaschke-passage")


def _write_table(path: Path, columns, rows, meta: dict) -> str:
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: ExperimentConfig) -> RunManifest:
    """Execute a registry experiment, write its tables and manifest."""
    if config.experiment not in REGISTRY:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; "
            f"known: {', '.join(sorted(REGISTRY))}"
        )
    if config.samples is not None and config.experiment not in _SAMPLED:
        raise ValueError(
            f"samples is read only by {' and '.join(_SAMPLED)}, not by {config.experiment}"
        )
    if config.samples is not None and config.samples < 1:
        raise ValueError(f"samples must be >= 1, got {config.samples}")
    out_dir = Path(config.out) / config.experiment
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = _Recorder(config)
    start = time.perf_counter()
    status = "pass"
    try:
        REGISTRY[config.experiment](rec)
    except Exception as exc:  # experiment crashed: flag, keep partial state
        status = "error"
        rec.check("experiment completed", False, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start

    public = asdict(config)
    meta = {
        "experiment": config.experiment,
        "seed": config.seed,
        # the fields that determine the numbers, not where they are written
        "config": {k: v for k, v in public.items() if k != "out"},
        "version": __version__,
    }
    checksums = {}
    for name, (columns, rows) in rec.tables.items():
        checksums[name] = _write_table(out_dir / f"{name}.csv", columns, rows, meta)
    if status != "error" and any(not a.passed for a in rec.assertions):
        status = "fail"
    manifest = RunManifest(
        experiment=config.experiment,
        config=public,
        version=__version__,
        status=status,
        wall_time_s=wall,
        tables=checksums,
        assertions=[asdict(a) for a in rec.assertions],
        out_dir=str(out_dir),
    )
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
    return manifest
