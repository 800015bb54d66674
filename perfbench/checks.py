"""Comparison of experiment outputs and verification results with a stored reference.

Rules, per cell of a CSV table (the JSON header line is not compared):

* integers and strings are compared exactly;
* a singular value (`s_n` column) above the float64 floor 1e-13*s_1 is
  compared at relative tolerance SPECTRUM_RTOL; one below the floor is only
  checked to stay below it;
* columns derived from section spectra, whose fits include sub-floor
  values, are compared at DERIVED_RTOL;
* a Monte Carlo probability must lie within twice the reference's 95%
  half-width of the reference value, rescaled to a family-wise level over
  all Monte Carlo cells of the workload (Bonferroni).  The band is built
  from the reference alone, so a run cannot widen it; a reference with no
  hits has an empty band.  The run's half-width must be the one its
  probability gives at the reference's sample count;
* a Monte Carlo target with zero hits in both the run and the reference
  is counted as a zero-hit target and left unchecked, never as agreement;
* every other float is compared at relative tolerance FLOAT_RTOL, with an
  absolute slack of FLOAT_ATOL times the largest magnitude of its column.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

FLOOR = 1e-13
SPECTRUM_RTOL = 1e-3
DERIVED_RTOL = 2e-2
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12
FAMILY_LEVEL = 0.95
Z95 = 1.959963984540054

# Column rules that differ from the defaults, by (experiment, table prefix).
# "derived": fit or window statistic of a section spectrum; "mc": Monte
# Carlo probability with its 95% half-width in the "ci" column; "mc_count":
# Monte Carlo count out of the "samples" column; "fraction:<n>": empirical
# frequency over n random points; "at_least:<column>": a seeded extreme
# value, checked only against the bound in the named column of its row;
# "skip": not compared, with the reason.
RULES = {
    ("cusp-diagonal", "fits"): {"alpha": "derived", "rate": "derived", "r_squared": "derived"},
    ("shapiro-taylor", "poly_fits"): {
        "power": "derived",
        "r_squared": "derived",
        "min_scaled": "derived",
    },
    ("polydisk-pairs", "shapiro_taylor_beta_sections"): {
        "beta_minus": "derived",
        "beta_plus": "derived",
    },
    ("spiral-harmonic", "harness"): {"probability": "mc", "ci": "skip:checked with its probability"},
    ("spiral-harmonic", "tails"): {
        "probability": "mc",
        "ci": "skip:checked with its probability",
        "seed": "skip:records the run's seed",
        "far_field": "mc_count",
    },
    ("spiral-harmonic", "level_tail"): {
        "probability": "mc",
        "ci": "skip:checked with its probability",
        "c_hat": "skip:derived from the checked probabilities",
    },
    ("spiral-harmonic", "covering"): {"frequency": "fraction:100000"},
    ("blaschke-passage", "contraction"): {"min_ratio": "at_least:floor"},
}


@dataclass
class TableResult:
    problems: list = field(default_factory=list)
    identical: bool = False
    zero_hit: int = 0


def read_table(path: Path):
    """Return (body bytes below the header line, column names, rows)."""
    raw = Path(path).read_bytes()
    head, _, body = raw.partition(b"\n")
    if not head.startswith(b"# "):
        raise ValueError(f"{path}: missing JSON header line")
    json.loads(head[2:])
    rows = list(csv.reader(io.StringIO(body.decode())))
    if not rows:
        raise ValueError(f"{path}: no column line")
    return body, rows[0], rows[1:]


def _rules_for(experiment: str, table: str) -> dict:
    for (exp, prefix), rules in RULES.items():
        if exp == experiment and table.startswith(prefix):
            return rules
    return {}


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def family_z(cells: int) -> float:
    """Two-sided normal quantile that keeps `cells` checks at FAMILY_LEVEL."""
    alpha = (1.0 - FAMILY_LEVEL) / max(cells, 1)
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def mc_agrees(p: float, p_ref: float, ci_ref: float, z: float) -> bool:
    """True when p lies within twice the reference's 95% half-width, rescaled to z.

    At equal sample counts this is the overlap of the two 95% intervals.
    """
    return abs(p - p_ref) <= 2.0 * ci_ref * z / Z95


def mc_halfwidth(p: float, p_ref: float, ci_ref: float) -> float:
    """The 95% half-width of p at the sample count behind (p_ref, ci_ref)."""
    spread_ref = p_ref * (1.0 - p_ref)
    return ci_ref * math.sqrt(max(p * (1.0 - p), 0.0) / spread_ref) if spread_ref > 0 else 0.0


def binomial_ci(p: float, n: int) -> float:
    return Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def count_mc_cells(experiment: str, table: str, columns, rows) -> int:
    """Number of Monte Carlo cells of a reference table that will be compared."""
    rules = _rules_for(experiment, table)
    cells = 0
    for col, rule in rules.items():
        if col not in columns or not (rule in ("mc", "mc_count") or rule.startswith("fraction")):
            continue
        i = columns.index(col)
        cells += sum(1 for r in rows if float(r[i]) > 0.0)
    return cells


def compare_table(experiment: str, table: str, got, ref, z: float, floor=None) -> TableResult:
    """Compare one table (body, columns, rows) against its reference.

    `floor` is the float floor of the spectrum the table's s_n come from;
    without one, every s_n is compared at the relative tolerance.
    """
    body, columns, rows = got
    ref_body, ref_columns, ref_rows = ref
    res = TableResult(identical=body == ref_body)
    if columns != ref_columns:
        res.problems.append(f"{table}: columns {columns} != {ref_columns}")
        return res
    if len(rows) != len(ref_rows):
        res.problems.append(f"{table}: {len(rows)} rows != {len(ref_rows)}")
        return res
    rules = _rules_for(experiment, table)
    for j, col in enumerate(columns):
        got_col = [r[j] for r in rows]
        ref_col = [r[j] for r in ref_rows]
        if col == "s_n" and col not in rules:
            _compare_spectrum(res, f"{table}.{col}", got_col, ref_col, floor)
        else:
            rule = rules.get(col, "default")
            _compare_column(res, table, col, rule, got_col, ref_col, rows, ref_rows, columns, z)
    return res


def _compare_column(res, table, col, rule, got_col, ref_col, rows, ref_rows, columns, z):
    where = f"{table}.{col}"
    if rule.startswith("skip"):
        return
    if rule.startswith("at_least"):
        bound_i = columns.index(rule.split(":")[1])
        for k, g in enumerate(got_col):
            value = _as_float(g)
            if value is None or not value >= float(rows[k][bound_i]) - FLOAT_ATOL:
                res.problems.append(f"{where}[{k}]: {g} below its bound {rows[k][bound_i]}")
        return
    if rule == "mc":
        ci_i = columns.index("ci")
        for k, (g, r) in enumerate(zip(got_col, ref_col)):
            p, p_ref = float(g), float(r)
            if p == 0.0 and p_ref == 0.0:
                res.zero_hit += 1
                continue
            ci, ci_ref = float(rows[k][ci_i]), float(ref_rows[k][ci_i])
            if not mc_agrees(p, p_ref, ci_ref, z):
                res.problems.append(f"{where}[{k}]: {p!r} outside the band of {p_ref!r} (+-{ci_ref:.3g} at 95%)")
            elif not abs(ci - mc_halfwidth(p, p_ref, ci_ref)) <= FLOAT_RTOL * ci_ref:
                res.problems.append(f"{table}.ci[{k}]: {ci!r} is not the half-width of {p!r}")
        return
    if rule == "mc_count" or rule.startswith("fraction"):
        for k, (g, r) in enumerate(zip(got_col, ref_col)):
            if rule == "mc_count":
                n_ref = int(ref_rows[k][columns.index("samples")])
                p, p_ref = int(g) / int(rows[k][columns.index("samples")]), int(r) / n_ref
            else:
                n_ref = int(rule.split(":")[1])
                p, p_ref = float(g), float(r)
            if p == p_ref:
                continue
            if not mc_agrees(p, p_ref, binomial_ci(p_ref, n_ref), z):
                res.problems.append(f"{where}[{k}]: {g} outside the band of {r}")
        return
    if all(_is_int(r) for r in ref_col) and rule == "default":
        for k, (g, r) in enumerate(zip(got_col, ref_col)):
            if g != r:
                res.problems.append(f"{where}[{k}]: {g} != {r}")
        return
    ref_vals = [_as_float(r) for r in ref_col]
    if any(v is None for v in ref_vals):
        for k, (g, r) in enumerate(zip(got_col, ref_col)):
            if g != r:
                res.problems.append(f"{where}[{k}]: {g!r} != {r!r}")
        return
    got_vals = [_as_float(g) for g in got_col]
    if any(v is None or not math.isfinite(v) for v in got_vals):
        res.problems.append(f"{where}: non-numeric or non-finite value")
        return
    rtol = DERIVED_RTOL if rule == "derived" else FLOAT_RTOL
    atol = FLOAT_ATOL * max(abs(v) for v in ref_vals)
    for k, (g, r) in enumerate(zip(got_vals, ref_vals)):
        if abs(g - r) > rtol * abs(r) + atol:
            res.problems.append(f"{where}[{k}]: {g!r} differs from {r!r} beyond rtol {rtol:g}")


def _compare_spectrum(res, where, got_col, ref_col, floor):
    """Singular values: relative tolerance above the floor; below it, only below it.

    Without a known floor every value is compared at the relative tolerance.
    """
    for k, (g_text, r_text) in enumerate(zip(got_col, ref_col)):
        g, r = _as_float(g_text), float(r_text)
        if g is None or not math.isfinite(g):
            res.problems.append(f"{where}[{k}]: non-numeric or non-finite value {g_text!r}")
        elif floor is not None and r < floor:
            if g >= floor:
                res.problems.append(f"{where}[{k}]: {g!r} rose above the float floor {floor:.3g}")
        elif abs(g - r) > SPECTRUM_RTOL * abs(r):
            res.problems.append(f"{where}[{k}]: {g!r} differs from {r!r} beyond rtol {SPECTRUM_RTOL:g}")


@dataclass
class ExperimentCheck:
    problems: list
    tables: int
    identical: int
    zero_hit: int
    table_bytes: int


def spectrum_floors(ref_dir: Path, tables) -> dict:
    """Float floor 1e-13*s_1 of each reference spectrum table, keyed by its suffix.

    A table `bound_comparison_n2` takes the floor of `spectrum_n2`.
    """
    floors = {}
    for name in tables:
        if name.startswith("spectrum"):
            _, columns, rows = read_table(ref_dir / f"{name}.csv")
            if rows and "s_n" in columns:
                floors[name[len("spectrum"):]] = FLOOR * abs(float(rows[0][columns.index("s_n")]))
    return floors


def check_experiment(experiment: str, rc, out_dir: Path, ref_dir: Path, expected: dict, z: float):
    """Check exit status, manifest status and every table of one experiment run."""
    problems = []
    if rc != expected["exit"]:
        problems.append(f"exit status {rc!r}, expected {expected['exit']}")
    manifest_path = out_dir / "manifest.json"
    status = None
    if manifest_path.is_file():
        status = json.loads(manifest_path.read_text()).get("status")
    if status != expected["status"]:
        problems.append(f"manifest status {status!r}, expected {expected['status']!r}")
    names = sorted(p.stem for p in out_dir.glob("*.csv")) if out_dir.is_dir() else []
    tables = sorted(expected["tables"])
    if names != tables:
        problems.append(f"tables {names} != {tables}")
    floors = spectrum_floors(ref_dir, tables)
    identical = zero_hit = nbytes = 0
    for name in tables:
        path = out_dir / f"{name}.csv"
        if not path.is_file():
            continue
        nbytes += path.stat().st_size
        try:
            got = read_table(path)
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        ref = read_table(ref_dir / f"{name}.csv")
        suffix = name[name.rfind("_"):] if "_" in name else ""
        try:
            result = compare_table(experiment, name, got, ref, z, floors.get(suffix))
        except (ValueError, IndexError) as exc:  # a malformed cell fails the table
            problems.append(f"{name}: unreadable value ({exc})")
            continue
        problems.extend(result.problems)
        identical += int(result.identical)
        zero_hit += result.zero_hit
    return ExperimentCheck(problems, len(tables), identical, zero_hit, nbytes)
