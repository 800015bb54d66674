import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from compoplab.cli import build_parser, main
from compoplab.experiments import REGISTRY, ExperimentConfig, kernel_law, level_constant, run
from compoplab.harmonic import GraphChannel, HarmonicMeasureEstimate
from compoplab.operators import strip_lattice
from compoplab.symbols import Lens


EXPECTED_IDS = {
    "cusp-diagonal",
    "lens-trichotomy",
    "tensor-lemma",
    "spiral-harmonic",
    "blaschke-passage",
    "polydisk-pairs",
    "shapiro-taylor",
    "kernel-laws",
}


def test_registry_contents():
    assert set(REGISTRY) == EXPECTED_IDS


def test_level_constant_marks_the_clause_its_fit_implies():
    # c_hat is the largest p/shape, so the one-constant clause holds on any
    # probabilities; the note says so on every run, and the 1e-3 ceiling
    # still gates.  The shapes at h = 0.1, 0.05, 0.025 are all positive
    def levels(probs):
        return [HarmonicMeasureEstimate(p, 0.0, 10**6, 0) for p in probs]

    hs = (0.1, 0.05, 0.025)
    shape, _, c_hat, note, ok = level_constant(GraphChannel(), hs, levels([2e-4, 1e-5, 0.0]))
    assert np.all(shape > 0) and c_hat == max(2e-4 / shape[0], 1e-5 / shape[1])
    assert ok and note == " (one constant: implied by c_hat)"
    *_, note, ok = level_constant(GraphChannel(), hs, levels([0.0] * 3))
    assert ok and note == " (one constant: implied by c_hat) (vacuous)"
    assert not level_constant(GraphChannel(), hs, levels([2e-3, 0.0, 0.0]))[-1]


def test_tensor_lemma_run_writes_tables_and_manifest(tmp_path):
    cfg = ExperimentConfig(experiment="tensor-lemma", out=str(tmp_path), seed=3)
    manifest = run(cfg)
    assert manifest.status == "pass"
    out = Path(manifest.out_dir)
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "pass"
    assert doc["tables"]
    for name, digest in doc["tables"].items():
        payload = (out / f"{name}.csv").read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest
        first = payload.decode().splitlines()[0]
        assert first.startswith("# ")
        meta = json.loads(first[2:])
        assert meta["experiment"] == "tensor-lemma"
        assert meta["seed"] == 3


# a 135-node lens lattice, far sparser than criterion 1's 1,781 nodes, and
# its refinement by the rows Im = +-1.1 at the same step
SPARSE_LENS = (
    strip_lattice(-20.0, 20.0, 0.9, (0.0, 0.6, -0.6)),
    strip_lattice(-20.0, 20.0, 0.9, (1.1, -1.1)),
)


def test_kernel_law_fails_on_a_bound_shorter_than_its_range():
    law = kernel_law(Lens(0.5), *SPARSE_LENS, "stretched_exp", 300)
    spectrum, refined, fit, _, detail, ok = law
    assert len(spectrum) == 135 and not ok, detail
    assert refined is None and fit is None


def test_kernel_law_fails_when_the_refinement_moves_the_fitted_values():
    # the refinement moves s_20..s_40 by 1.5e-2, over the 1e-2 gate
    law = kernel_law(Lens(0.5), *SPARSE_LENS, "stretched_exp", 40)
    spectrum, refined, fit, move, detail, ok = law
    assert len(spectrum) >= 40 and len(refined) >= 40 and fit is not None
    assert 1e-2 < move < 2e-2 and not ok, detail


ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_pass_at_seed_0_is_correct(workload, tmp_path, monkeypatch):
    # one pass of the benchmark workload, checked as the benchmark checks it:
    # exit codes, manifest statuses, table names and every cell against
    # perfbench/reference/
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import Workload

    bench = Workload(workload, 0, ROOT / "perfbench" / "reference")
    checked = bench.check_pass(bench.run_pass(tmp_path), tmp_path)
    assert checked.attempted and not checked.failures, checked.failures


def test_unknown_experiment_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        run(ExperimentConfig(experiment="bogus", out=str(tmp_path)))


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    rc = main(
        ["--experiment", "tensor-lemma", "--out", str(tmp_path / "ok"), "--seed", "1", "--json"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "pass"

    def failing(rec):
        rec.check("always fails", False, "synthetic failure")

    monkeypatch.setitem(REGISTRY, "tensor-lemma", failing)
    rc = main(["--experiment", "tensor-lemma", "--out", str(tmp_path / "fail")])
    assert rc == 2

    def crashing(rec):
        raise RuntimeError("boom")

    monkeypatch.setitem(REGISTRY, "tensor-lemma", crashing)
    rc = main(["--experiment", "tensor-lemma", "--out", str(tmp_path / "err")])
    assert rc == 1
    doc = json.loads((tmp_path / "err" / "tensor-lemma" / "manifest.json").read_text())
    assert doc["status"] == "error"


def test_cli_rejects_unknown_experiment():
    # exit 2 is a failed assertion; a rejected argument is a configuration error
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "nope"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [[], ["--experiment", "tensor-lemma", "--samples", "x"]])
def test_cli_rejects_missing_or_malformed_arguments(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "experiment, samples",
    # a count given to an experiment that does not sample would change nothing
    [
        ("blaschke-passage", 0),
        ("blaschke-passage", -3),
        ("tensor-lemma", 5),
        ("kernel-laws", 5),
    ],
    ids=["0", "-3", "tensor-lemma-5", "kernel-laws-5"],
)
def test_samples_below_one_is_a_configuration_error(experiment, samples, tmp_path):
    with pytest.raises(ValueError, match="samples"):
        run(ExperimentConfig(experiment=experiment, out=str(tmp_path), samples=samples))
    rc = main(["--experiment", experiment, "--out", str(tmp_path), "--samples", str(samples)])
    assert rc == 1
    assert not (tmp_path / experiment).exists()


def test_rerun_reproduces_tables_byte_identically(tmp_path):
    cfg_a = ExperimentConfig(
        experiment="blaschke-passage", out=str(tmp_path / "a"), seed=5, samples=1 << 14
    )
    cfg_b = ExperimentConfig(
        experiment="blaschke-passage", out=str(tmp_path / "b"), seed=5, samples=1 << 14
    )
    man_a = run(cfg_a)
    man_b = run(cfg_b)
    assert man_a.status == man_b.status == "pass"
    assert man_a.tables == man_b.tables  # checksums, hence bytes
    for name in man_a.tables:
        a = (Path(man_a.out_dir) / f"{name}.csv").read_bytes()
        b = (Path(man_b.out_dir) / f"{name}.csv").read_bytes()
        assert a == b


def test_assertions_recorded_in_manifest(tmp_path):
    cfg = ExperimentConfig(
        experiment="spiral-harmonic", out=str(tmp_path), seed=2, samples=20000
    )
    manifest = run(cfg)
    names = {a["name"] for a in manifest.assertions}
    assert "disk harness" in names
    assert "two-valent covering" in names
    doc = json.loads((Path(manifest.out_dir) / "manifest.json").read_text())
    assert doc["assertions"] == manifest.assertions
    assert doc["config"]["samples"] == 20000


def _config_callers() -> set:
    """Config fields some caller sets: an `ExperimentConfig(...)` keyword in
    tests/, or a `--flag` in a literal argv list in tests/ or perfbench/."""
    paths = [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    set_fields = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExperimentConfig":
                set_fields |= {kw.arg for kw in node.keywords if kw.arg}
            elif isinstance(node, ast.List):
                set_fields |= {
                    elt.value[2:].replace("-", "_")
                    for elt in node.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                    and elt.value.startswith("--")
                }
    return set_fields


def test_every_config_field_has_a_caller_and_every_flag_a_field():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unset = sorted(fields - {"experiment", "out"} - _config_callers())
    assert not unset, f"ExperimentConfig fields no caller outside the CLI sets: {unset}"
    # --json selects the output format and is not part of the configuration
    dests = {a.dest for a in build_parser()._actions if a.option_strings} - {"help", "json"}
    assert dests == fields
