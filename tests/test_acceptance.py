"""Acceptance gate: one test per quantitative criterion, each printing a
PASS/FAIL line with the measured quantities.

Criteria 1 and 11 assert two-sided decay laws for boundary-touching
symbols.  Monomial sections are lower bounds that have not converged in
the stated ranges and fall under the float64 floor inside them, so these
two criteria read their spectrum from the reproducing-kernel lower bound
`kernel_lower_bound` on a lattice of strip nodes instead.  Each fits its
full requested range, keeps the bound's float floor below every fitted
value, and checks that a nested refinement of the lattice moves the
fitted values by less than 1%.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import compoplab as C
from compoplab.carleson import rho_profile
from compoplab.experiments import ExperimentConfig, run
from compoplab.harmonic import GraphChannel, covering_count, wos_harmonic_measures
from compoplab.operators import (
    build_matrix,
    hs_norm_sq,
    kernel_lower_bound,
    kernel_ratio,
    multi_index_oracle,
    multiplicity_weights,
    unboundedness_witness,
)
from compoplab.series import PowerSeries
from compoplab.spectra import (
    decay_fit,
    extremal_pair_count,
    extremal_spectrum,
    find_M,
    linear_fit,
    nu_count,
    nu_count_bruteforce,
    singular_values,
    tensor_merge,
    upper_bound_plain,
)
from compoplab.symbols import (
    Cusp,
    ExplicitSeries,
    KernelPoint,
    Lens,
    PolydiskMap,
    ShapiroTaylor,
    shipped_symbols,
)
from conftest import strip_lattice


def _report(idx: int, name: str, ok: bool, detail: str = "") -> bool:
    flag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {idx:02d} [{flag}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    return ok


@pytest.fixture(scope="module")
def spiral_ensemble():
    """One million walk-on-spheres trajectories scored on the tail and
    level targets simultaneously (criteria 7 and 8)."""
    region = GraphChannel()
    ys = [region.alpha + 1.0, region.alpha + 2.0, region.alpha + 3.0]
    hs = [0.1, 0.05, 0.025]
    targets = [(lambda p, yy=y: p.imag > yy) for y in ys]
    targets += [(lambda p, hh=h: p.real < -math.log1p(-hh)) for h in hs]
    start = time.perf_counter()
    estimates = wos_harmonic_measures(region, targets, samples=10**6, seed=2026)
    elapsed = time.perf_counter() - start
    return region, ys, hs, estimates[:3], estimates[3:], elapsed


def _refinement_delta(coarse, fine, hi):
    """Largest relative move of s_20..s_hi under a nested node refinement."""
    if len(fine) < hi:
        return math.inf
    return float(np.max(np.abs(fine.values[19:hi] / coarse.values[19:hi] - 1.0)))


def test_criterion_01_lens_decay_law():
    lens = Lens(0.5)
    nodes = np.concatenate(
        [
            strip_lattice(-200.0, 200.0, 0.9, (0.0, 0.6, -0.6)),
            strip_lattice(-200.0, 200.0, 1.8, (1.1, -1.1)),
        ]
    )
    start = time.perf_counter()
    spectrum = kernel_lower_bound(lens, nodes)
    fit = decay_fit(spectrum, "stretched_exp", (20, 300))
    elapsed = time.perf_counter() - start
    extra = strip_lattice(-200.0, 200.0, 1.8, (1.35, -1.35))
    delta = _refinement_delta(spectrum, kernel_lower_bound(lens, np.append(nodes, extra)), 300)
    alpha = fit.params["exponent"]
    ok = (
        0.45 <= alpha <= 0.55
        and fit.r_squared >= 0.98
        and elapsed <= 120.0
        and fit.fit_range == (20, 300)
        and spectrum.floor < spectrum.a(300)
        and delta < 0.01
    )
    detail = (
        f"alpha={alpha:.4f} (window [0.45,0.55]), R2={fit.r_squared:.4f} (need >= 0.98), "
        f"{elapsed:.0f}s (budget 120s); kernel lower bound on {spectrum.truncation} nodes, "
        f"float floor {spectrum.floor:.1e} vs s_300={spectrum.a(300):.3e}; "
        f"+{extra.size} nodes at Im=+-1.35 move s_n on [20,300] by {delta:.1e} relative "
        f"(need < 1e-2)"
    )
    assert _report(1, "lens decay law, kernel lower bound, fit on [20,300]", ok, detail), detail


def test_criterion_02_cusp_diagonal():
    start = time.perf_counter()
    base = build_matrix(Cusp(), 1024).entries
    ok = True
    details = []
    for dim in (2, 3):
        spectrum = singular_values(base * multiplicity_weights(1024, dim))
        fit = decay_fit(spectrum, "stretched_exp", (20, 300))
        n = np.arange(20, 301, dtype=float)
        logs = np.log(spectrum.values[19:300])
        d_rate = -linear_fit(np.sqrt(n), logs)[0]
        ok = ok and d_rate > 0.0 and fit.params["exponent"] >= 0.45
        details.append(
            f"N={dim}: d={d_rate:.2f}, alpha={fit.params['exponent']:.3f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 300.0
    detail = "; ".join(details) + f"; {elapsed:.0f}s"
    assert _report(2, "cusp diagonal sqrt-exponential bound, N in {2,3}", ok, detail), detail


def test_criterion_03_lens_trichotomy():
    ok = True
    details = []
    js = np.arange(1, 31)
    u = js * math.log(2.0)
    window = js >= 10
    for dim in (2, 3):
        for theta, regime in ((2.0 / dim, "super"), (1.0 / dim, "critical")):
            poly = PolydiskMap.diagonal(Lens(theta), dim)
            ratios = np.array(
                [
                    kernel_ratio(poly, KernelPoint((1 - 2.0**-j,) + (0,) * (dim - 1)))
                    for j in js
                ]
            )
            slope = linear_fit(u[window], np.log(ratios[window]))[0]
            if regime == "super":
                target = (dim * theta - 1.0) / 2.0
                good = abs(slope - target) <= 0.05
                details.append(f"N={dim} theta=2/N slope={slope:.3f}")
            else:
                flat = abs(slope) <= 0.02
                non_vanishing = ratios.min() >= 0.5 * float(np.median(ratios))
                good = flat and non_vanishing
                details.append(
                    f"N={dim} theta=1/N slope={slope:.3f} min/med="
                    f"{ratios.min() / np.median(ratios):.2f}"
                )
            ok = ok and good
    detail = "; ".join(details)
    assert _report(3, "lens trichotomy kernel-ratio slopes", ok, detail), detail


def test_criterion_04_tensor_merge_correctness():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        merged = tensor_merge([sa, sb], 30)
        kron = np.linalg.svd(np.kron(a, b), compute_uv=False)
        worst = max(worst, float(np.max(np.abs(merged.values - kron))) / kron[0])
    super_ok = True
    s = np.exp(-np.sqrt(np.arange(1, 25, dtype=float)))
    t = np.exp(-0.4 * np.arange(1, 25, dtype=float) ** 0.6)
    merged = tensor_merge([s, t], 600)
    for n in range(1, 21):
        for m in range(1, 21):
            if merged.a(n * m) < s[n - 1] * t[m - 1]:
                super_ok = False
    ok = worst < 1e-10 and super_ok
    detail = f"max relative gap to Kronecker SVD {worst:.2e}; supermultiplicativity exact"
    assert _report(4, "tensor merge equals Kronecker SVD", ok, detail), detail


def test_criterion_05_tensor_lemma():
    ok = True
    details = []
    for a_exp, b_exp in [(2.0, 1.0), (1.5, 2.25), (2.0, 1.0), (2.0, 2.0), (2.0, 3.0), (2.0, 4.0)]:
        m_const = find_M(a_exp, b_exp)
        levels = 31
        s = extremal_spectrum(a_exp, 1.0, levels)
        t = extremal_spectrum(b_exp, 1.0, levels)
        # the fast pair count agrees with the double-loop oracle on floats,
        # and the combinatorial count with an integer loop
        cnt_a = np.diff(np.floor(np.arange(0, 12, dtype=float) ** a_exp).astype(int))
        cnt_b = np.diff(np.floor(np.arange(0, 12, dtype=float) ** b_exp).astype(int))
        for n in (5, 9):
            if nu_count(s, t, 1.0, n) != nu_count_bruteforce(s, t, 1.0, n):
                ok = False
            integer_loop = sum(
                int(cnt_a[p - 1]) * int(cnt_b[q - 1])
                for p in range(1, n)
                for q in range(1, n)
                if p + q <= n - 1
            )
            if extremal_pair_count(a_exp, b_exp, n) != integer_loop:
                ok = False
        for n in range(2, 31):
            nu = extremal_pair_count(a_exp, b_exp, n)
            if nu > m_const * int(float(n) ** (a_exp + b_exp)) - 1:
                ok = False
        details.append(f"A={a_exp:g},B={b_exp:g}: M={m_const}")
    # direct merged-spectrum confirmation for the smallest pair
    m_const = find_M(2.0, 1.0)
    s = extremal_spectrum(2.0, 1.0, 31)
    t = extremal_spectrum(1.0, 1.0, 31)
    merged = tensor_merge([s, t], m_const * 30**3)
    for n in range(1, 31):
        if merged.a(min(m_const * n**3, len(merged))) > math.exp(-n) * (1 + 1e-12):
            ok = False
    detail = "; ".join(details) + " (pair counts brute-force verified; N=2 gives B=0, outside A,B>0)"
    assert _report(5, "tensor-product rank lemma on extremal sequences", ok, detail), detail


def test_criterion_06_diagonal_polydisk_exactness():
    half = ExplicitSeries(PowerSeries([0, 0.5]))
    worst = 0.0
    for spec in (half, Lens(0.25)):
        for dim in (2, 3):
            oracle = singular_values(multi_index_oracle(PolydiskMap.diagonal(spec, dim), 8))
            direct = singular_values(build_matrix(spec, 9, dim))
            worst = max(worst, float(np.max(np.abs(oracle.values[:9] - direct.values))))
            worst = max(worst, float(np.max(oracle.values[9:], initial=0.0)))
    ok = worst < 1e-8
    detail = f"max singular value gap {worst:.2e} at D=8, N in {{2,3}}"
    assert _report(6, "diagonal-polydisk reduction equals brute-force oracle", ok, detail), detail


def test_criterion_07_spiral_harmonic_tail(spiral_ensemble):
    region, ys, _, tails, _, elapsed = spiral_ensemble
    probs = np.array([e.probability for e in tails])
    positive = probs > 0
    slope_ok = False
    slope = float("nan")
    if int(np.count_nonzero(positive)) >= 2:
        slope = linear_fit(np.asarray(ys)[positive], np.log(probs[positive]))[0]
        slope_ok = slope <= -0.9
    disk = C.wos_harmonic_measure(
        C.DiskRegion(), lambda p: np.abs(np.angle(p)) <= math.pi / 2, samples=2 * 10**5, seed=41
    )
    half = C.wos_harmonic_measure(
        C.HalfPlaneRegion(), lambda p: np.abs(p.real) < 1.0, samples=2 * 10**5, seed=42
    )
    harness_ok = (
        abs(disk.probability - 0.5) <= 3 * disk.ci_halfwidth
        and abs(half.probability - 0.5) <= 3 * half.ci_halfwidth
    )
    ok = slope_ok and harness_ok and elapsed <= 600.0
    detail = (
        f"slope={slope:.2f} on {int(positive.sum())} positive points, "
        f"disk={disk.probability:.4f}, half-plane={half.probability:.4f}, "
        f"{elapsed:.0f}s for 1e6 walks"
    )
    assert _report(7, "spiral harmonic-measure tail and harnesses", ok, detail), detail


def test_criterion_08_level_set_bound(spiral_ensemble):
    region, _, hs, _, levels, _ = spiral_ensemble
    g2h = np.array([float(region.g(np.array([2.0 * h]))[0]) for h in hs])
    bound_shape = np.exp(5.0 * math.pi - g2h)
    probs = np.array([e.probability for e in levels])
    with np.errstate(divide="ignore", invalid="ignore"):
        c_hat = float(np.max(np.where(bound_shape > 0, probs / bound_shape, 0.0)))
    single_constant = bool(np.all(probs <= max(c_hat, 1.0) * bound_shape + 1e-15))
    tiny = bool(np.all(probs <= 1e-3))
    ok = single_constant and tiny and np.isfinite(c_hat)
    detail = f"C_hat={c_hat:.3g}, probabilities {probs.tolist()} (theory scale e^(5pi-g(2h)))"
    assert _report(8, "level-set tail bounded by e^(5pi - g(2h))", ok, detail), detail


def test_criterion_09_covering_two_valence():
    region = GraphChannel()
    rng = np.random.default_rng(99)
    radii = np.sqrt(rng.uniform(1e-12, 1.0, 10**5))
    angles = rng.uniform(0.0, 2.0 * math.pi, 10**5)
    counts = covering_count(region, radii * np.cos(angles) + 1j * (radii * np.sin(angles)))
    freq2 = float(np.mean(counts == 2))
    ok = counts.min() >= 1 and counts.max() <= 2 and freq2 > 0.999
    detail = f"counts in [{counts.min()},{counts.max()}], freq(2)={freq2:.5f} on 1e5 points"
    assert _report(9, "exponential map is onto and two-valent on the channel", ok, detail), detail


def test_criterion_10_unboundedness_witness():
    ns = np.unique(np.geomspace(10, 10**4, 30).astype(int))
    ratios = [unboundedness_witness(int(n)).ratio for n in ns]
    slope = linear_fit(np.log(ns), np.log(ratios))[0]
    ok = abs(slope - 0.25) <= 0.03
    detail = f"log-log slope {slope:.4f} over n in [10, 1e4] (exact binomials, log space)"
    assert _report(10, "diagonal witness ratio grows like n^(1/4)", ok, detail), detail


def test_criterion_11_shapiro_taylor():
    ok = True
    details = []
    nodes = strip_lattice(-10.0, 100.0, 0.7, (0.0, 0.45, -0.45, 0.9, -0.9))
    extra = strip_lattice(-10.0, 100.0, 0.7, (1.2, -1.2))
    for theta in (1.5, 2.0):
        spectrum = kernel_lower_bound(ShapiroTaylor(theta), nodes)
        fit = decay_fit(spectrum, "poly", (20, 200))
        n = np.arange(20, 201, dtype=float)
        scaled = n ** (theta / 2.0) * spectrum.values[19:200]
        delta = _refinement_delta(
            spectrum, kernel_lower_bound(ShapiroTaylor(theta), np.append(nodes, extra)), 200
        )
        power_ok = fit.params["power"] <= theta / 2.0 + 0.3
        scaled_ok = float(scaled.min()) >= 0.25 * float(scaled[0])
        ok = (
            ok
            and power_ok
            and scaled_ok
            and fit.fit_range == (20, 200)
            and spectrum.floor < spectrum.a(200)
            and delta < 0.01
        )
        details.append(
            f"theta={theta:g}: p={fit.params['power']:.2f} "
            f"(need <= {theta / 2 + 0.3:.2f}), min scaled/first="
            f"{scaled.min() / scaled[0]:.2f} (need >= 0.25), {spectrum.truncation} nodes, "
            f"float floor {spectrum.floor:.1e} vs s_200={spectrum.a(200):.3e}, "
            f"+{extra.size} nodes at Im=+-1.2 move s_n by {delta:.1e} relative (need < 1e-2)"
        )
    hs_div = hs_norm_sq(ShapiroTaylor(1.5), 2048).trend
    hs_conv = hs_norm_sq(ShapiroTaylor(3.0), 2048).trend
    hs_ok = hs_div == "diverging" and hs_conv == "converging"
    ok = ok and hs_ok
    details.append(f"HS trends: theta=1.5 {hs_div}, theta=3 {hs_conv}")
    detail = "; ".join(details)
    assert _report(11, "Shapiro-Taylor polynomial law and HS dichotomy", ok, detail), detail


def test_criterion_12_bound_functional_consistency():
    ok = True
    worst = {}
    for name, spec in shipped_symbols().items():
        profile = rho_profile(spec, samples=1 << 18)
        spectrum = singular_values(build_matrix(spec, 256))
        bounds = np.array([upper_bound_plain(profile, n) for n in range(1, 257)])
        ratios = spectrum.values / bounds
        c_fit = float(np.max(ratios))
        if not np.isfinite(c_fit):
            ok = False
        dominated = bool(np.all(spectrum.values <= c_fit * bounds * (1 + 1e-12)))
        ok = ok and dominated
        worst[name] = c_fit
    detail = "fitted constants: " + ", ".join(f"{k}={v:.3g}" for k, v in worst.items())
    assert _report(12, "plain upper bound dominates sections after one constant", ok, detail), detail


def test_criterion_13_determinism(tmp_path):
    ok = True
    for experiment, kwargs in (
        ("spiral-harmonic", {"samples": 20000}),
        ("tensor-lemma", {}),
    ):
        man_a = run(
            ExperimentConfig(experiment=experiment, out=str(tmp_path / "a"), seed=9, **kwargs)
        )
        man_b = run(
            ExperimentConfig(experiment=experiment, out=str(tmp_path / "b"), seed=9, **kwargs)
        )
        if man_a.tables != man_b.tables:
            ok = False
        for name in man_a.tables:
            a = (Path(man_a.out_dir) / f"{name}.csv").read_bytes()
            b = (Path(man_b.out_dir) / f"{name}.csv").read_bytes()
            if a != b:
                ok = False
    detail = "spiral-harmonic and tensor-lemma re-runs byte-identical"
    assert _report(13, "experiment re-runs reproduce CSV byte-identically", ok, detail), detail
