"""The four workloads: what one pass runs and how its outputs are checked.

A pass runs registry experiments through the in-process CLI entry point
(`compoplab.cli.main`) with the workload seed, and for `pairs` also the
criterion-5 verification through public `compoplab.spectra` functions.
One operation is one experiment run or one verification call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks

EXPERIMENTS = {
    "sections": ("cusp-diagonal", "lens-trichotomy", "polydisk-pairs", "blaschke-passage"),
    "columns": ("shapiro-taylor",),
    "walks": ("spiral-harmonic",),
    "pairs": ("tensor-lemma",),
}
WORKLOADS = tuple(EXPERIMENTS)

# criterion-5 verification; (2, 4) is left out, see README.md
PAIRS = ((2.0, 1.0), (1.5, 2.25), (2.0, 2.0), (2.0, 3.0))
ORACLE_N = (5, 9)
N_MAX = 30
LEVELS = 31
RATE = 1.0
MERGE_PAIR = (2.0, 1.0)
PAIRS_API = (
    "find_M",
    "extremal_spectrum",
    "nu_count",
    "nu_count_bruteforce",
    "extremal_pair_count",
    "tensor_merge",
)


@dataclass
class PassCheck:
    attempted: int = 0
    failures: list = field(default_factory=list)
    tables: int = 0
    identical: int = 0
    zero_hit: int = 0
    table_bytes: int = 0


def _op(results: dict, key, fn):
    try:
        results[key] = fn()
    except Exception as exc:  # a failed operation is counted, not raised
        results[key] = exc


def run_pairs(api) -> dict:
    """The criterion-5 verification; returns operation key -> result or exception."""
    out = {}
    for a_exp, b_exp in PAIRS:
        _op(out, ("find_M", a_exp, b_exp), lambda: int(api.find_M(a_exp, b_exp)))
        try:
            s = api.extremal_spectrum(a_exp, RATE, LEVELS)
            t = api.extremal_spectrum(b_exp, RATE, LEVELS)
        except Exception as exc:  # every operation on this pair fails
            s = t = exc
        for n in ORACLE_N:
            _op(out, ("oracle", a_exp, b_exp, n), lambda: _oracle_pair(api, s, t, n))
        _op(
            out,
            ("pair_count", a_exp, b_exp),
            lambda: [int(api.extremal_pair_count(a_exp, b_exp, n)) for n in range(2, N_MAX + 1)],
        )
    _op(out, ("merge",), lambda: _merged_values(api))
    return out


def _oracle_pair(api, s, t, n):
    if isinstance(s, Exception):
        raise s
    return int(api.nu_count(s, t, RATE, n)), int(api.nu_count_bruteforce(s, t, RATE, n))


def _merged_values(api):
    a_exp, b_exp = MERGE_PAIR
    m_const = int(api.find_M(a_exp, b_exp))
    s = api.extremal_spectrum(a_exp, RATE, LEVELS)
    t = api.extremal_spectrum(b_exp, RATE, LEVELS)
    power = int(a_exp + b_exp)
    merged = api.tensor_merge([s, t], m_const * N_MAX**power)
    return [merged.a(min(m_const * n**power, len(merged))) for n in range(1, N_MAX + 1)]


def pairs_reference(results: dict) -> dict:
    """Reference record of a verification pass (used when writing the reference)."""
    ref = {"pairs": [], "merge": results[("merge",)]}
    for a_exp, b_exp in PAIRS:
        ref["pairs"].append(
            {
                "A": a_exp,
                "B": b_exp,
                "M": results[("find_M", a_exp, b_exp)],
                "oracle": {str(n): results[("oracle", a_exp, b_exp, n)][1] for n in ORACLE_N},
                "nu": results[("pair_count", a_exp, b_exp)],
            }
        )
    return ref


def check_pairs(results: dict, ref: dict) -> list:
    """Failure messages for the verification; one entry per failed operation."""
    failures = []
    by_pair = {(p["A"], p["B"]): p for p in ref["pairs"]}
    for key, value in results.items():
        if isinstance(value, Exception):
            failures.append(f"pairs {key}: {type(value).__name__}: {value}")
            continue
        kind = key[0]
        if kind == "merge":
            bad = [
                n
                for n, (v, r) in enumerate(zip(value, ref["merge"]), start=1)
                if not v <= math.exp(-RATE * n) * (1.0 + 1e-12)
                or abs(v - r) > checks.FLOAT_RTOL * abs(r)
            ]
            if bad or len(value) != len(ref["merge"]):
                failures.append(f"pairs merge: values at n={bad} break the bound or the reference")
            continue
        want = by_pair[(key[1], key[2])]
        if kind == "find_M" and value != want["M"]:
            failures.append(f"pairs {key}: M={value}, reference {want['M']}")
        elif kind == "oracle":
            fast, brute = value
            if not fast == brute == want["oracle"][str(key[3])]:
                failures.append(f"pairs {key}: nu_count={fast} oracle={brute} reference {want['oracle'][str(key[3])]}")
        elif kind == "pair_count":
            power = key[1] + key[2]
            over = [
                n
                for n, nu in enumerate(value, start=2)
                if nu > want["M"] * int(float(n) ** power) - 1
            ]
            if value != want["nu"] or over:
                failures.append(f"pairs {key}: counts differ from the reference or exceed the budget at n={over}")
    return failures


class Workload:
    """One workload bound to a seed, an output directory and the reference."""

    def __init__(self, name: str, seed: int, ref_dir: Path):
        import compoplab.cli
        import compoplab.experiments
        import compoplab.spectra

        if name not in EXPERIMENTS:
            raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.cli = compoplab.cli
        self.experiments_module = compoplab.experiments
        self.experiments = EXPERIMENTS[name]
        self.pairs_api = SimpleNamespace(
            **{n: getattr(compoplab.spectra, n) for n in PAIRS_API if hasattr(compoplab.spectra, n)}
        )
        self.ref_dir = ref_dir
        self.expected = json.loads((ref_dir / "expected.json").read_text())
        cells = 0
        for exp in self.experiments:
            for table in self.expected["experiments"][exp]["tables"]:
                _, columns, rows = checks.read_table(ref_dir / exp / f"{table}.csv")
                cells += checks.count_mc_cells(exp, table, columns, rows)
        self.z = checks.family_z(cells)

    def namespaces(self) -> dict:
        """Where the traced calls are bound, for `tracing.Tracer.install`."""
        return {"cli": self.cli, "experiments": self.experiments_module, "pairs": self.pairs_api}

    def run_pass(self, out_dir: Path) -> dict:
        """One pass; returns the raw outcome for `check_pass`.  This is what is timed."""
        rcs = {}
        sink = io.StringIO()
        for exp in self.experiments:
            argv = ["--experiment", exp, "--out", str(out_dir), "--seed", str(self.seed), "--json"]
            try:
                with contextlib.redirect_stdout(sink):
                    rcs[exp] = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rcs[exp] = exc.code
            except Exception as exc:  # recorded as a failed operation
                rcs[exp] = exc
        pairs = run_pairs(self.pairs_api) if self.name == "pairs" else None
        return {"rcs": rcs, "pairs": pairs}

    def check_pass(self, raw: dict, out_dir: Path) -> PassCheck:
        result = PassCheck()
        for exp in self.experiments:
            result.attempted += 1
            rc = raw["rcs"][exp]
            if isinstance(rc, Exception):
                result.failures.append(f"{exp}: {type(rc).__name__}: {rc}")
                continue
            got = checks.check_experiment(
                exp, rc, out_dir / exp, self.ref_dir / exp, self.expected["experiments"][exp], self.z
            )
            if got.problems:
                result.failures.append(f"{exp}: " + "; ".join(got.problems[:5]))
            result.tables += got.tables
            result.identical += got.identical
            result.zero_hit += got.zero_hit
            result.table_bytes += got.table_bytes
        if raw["pairs"] is not None:
            result.attempted += len(raw["pairs"])
            result.failures.extend(check_pairs(raw["pairs"], self.expected["pairs"]))
        return result
