"""Tests of the benchmark's own checks and span arithmetic (no experiment runs).

    python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = BENCH / "reference"
EXPECTED = json.loads((REFERENCE / "expected.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy_run(tmp_path, experiment, status="pass"):
    """An output directory equal to the reference, as a run would leave it."""
    out = tmp_path / experiment
    shutil.copytree(REFERENCE / experiment, out)
    (out / "manifest.json").write_text(json.dumps({"status": status}))
    return out


def _rewrite_cell(path, row, column, transform):
    lines = path.read_text().splitlines(keepends=True)
    header, names = lines[0], lines[1].rstrip("\n").split(",")
    cells = lines[2 + row].rstrip("\n").split(",")
    i = names.index(column)
    cells[i] = transform(cells[i])
    lines[2 + row] = ",".join(cells) + "\n"
    path.write_text(header + "".join(lines[1:]))


def _check(experiment, out, rc=0):
    return checks.check_experiment(
        experiment, rc, out, REFERENCE / experiment, EXPECTED["experiments"][experiment], checks.family_z(6)
    )


def test_reference_copy_passes_and_is_identical(tmp_path):
    out = _copy_run(tmp_path, "cusp-diagonal")
    result = _check("cusp-diagonal", out)
    assert result.problems == []
    assert result.identical == result.tables == len(EXPECTED["experiments"]["cusp-diagonal"]["tables"])


def test_perturbed_singular_value_fails(tmp_path):
    out = _copy_run(tmp_path, "cusp-diagonal")
    _rewrite_cell(out / "spectrum_n1.csv", 4, "s_n", lambda v: repr(float(v) * 1.01))
    result = _check("cusp-diagonal", out)
    assert len(result.problems) == 1 and "spectrum_n1.s_n[4]" in result.problems[0]
    assert result.identical == result.tables - 1


def test_value_below_the_float_floor_may_move_but_not_rise_above_it(tmp_path):
    out = _copy_run(tmp_path, "cusp-diagonal")
    _rewrite_cell(out / "spectrum_n1.csv", 399, "s_n", lambda v: repr(float(v) * 3.0))
    assert _check("cusp-diagonal", out).problems == []
    _rewrite_cell(out / "spectrum_n1.csv", 399, "s_n", lambda v: "1e-3")
    assert any("float floor" in p for p in _check("cusp-diagonal", out).problems)


def test_perturbed_integer_count_fails(tmp_path):
    out = _copy_run(tmp_path, "tensor-lemma")
    _rewrite_cell(out / "nu_counts.csv", 10, "nu_n", lambda v: str(int(v) + 1))
    assert any("nu_counts.nu_n[10]" in p for p in _check("tensor-lemma", out).problems)


@pytest.mark.parametrize("rc, status", [(2, "pass"), (0, "fail"), (1, "error")])
def test_wrong_exit_or_manifest_status_fails(tmp_path, rc, status):
    out = _copy_run(tmp_path, "tensor-lemma", status=status)
    assert _check("tensor-lemma", out, rc=rc).problems


def test_monte_carlo_probability_outside_its_band_fails(tmp_path):
    out = _copy_run(tmp_path, "spiral-harmonic")
    assert _check("spiral-harmonic", out).zero_hit == 3
    _rewrite_cell(out / "tails.csv", 0, "probability", lambda v: repr(float(v) * 1.5))
    problems = _check("spiral-harmonic", out).problems
    assert len(problems) == 1 and "tails.probability[0]" in problems[0]


def test_inflated_half_width_fails_and_does_not_widen_the_band(tmp_path):
    out = _copy_run(tmp_path, "spiral-harmonic")
    _rewrite_cell(out / "harness.csv", 0, "ci", lambda v: repr(float(v) * 2.0))
    problems = _check("spiral-harmonic", out).problems
    assert len(problems) == 1 and "harness.ci[0]" in problems[0]
    _rewrite_cell(out / "tails.csv", 0, "ci", lambda v: repr(float(v) * 100.0))
    _rewrite_cell(out / "tails.csv", 0, "probability", lambda v: repr(float(v) * 1.5))
    assert any("tails.probability[0]" in p for p in _check("spiral-harmonic", out).problems)


def test_hits_where_the_reference_has_none_fail(tmp_path):
    out = _copy_run(tmp_path, "spiral-harmonic")
    _rewrite_cell(out / "level_tail.csv", 0, "probability", lambda v: "1e-06")
    result = _check("spiral-harmonic", out)
    assert result.zero_hit == 2 and any("level_tail.probability[0]" in p for p in result.problems)


def test_zero_hit_targets_are_counted_not_agreed(tmp_path):
    out = _copy_run(tmp_path, "spiral-harmonic")
    _rewrite_cell(out / "tails.csv", 0, "seed", lambda v: "99")  # body differs, values agree
    result = _check("spiral-harmonic", out)
    assert result.problems == [] and result.zero_hit == 3


def test_mc_agreement_rule():
    z = checks.family_z(1)
    assert z == pytest.approx(checks.Z95)
    assert checks.mc_agrees(0.505, 0.50, 0.003, z)
    assert not checks.mc_agrees(0.507, 0.50, 0.003, z)
    assert not checks.mc_agrees(1e-6, 0.0, 0.0, z)
    assert checks.family_z(5) > z
    assert checks.mc_halfwidth(0.5, 0.5, 0.003) == pytest.approx(0.003)
    assert checks.mc_halfwidth(0.1, 0.5, 0.003) == pytest.approx(0.003 * 0.6)


def _pairs_results():
    ref = EXPECTED["pairs"]
    out = {("merge",): list(ref["merge"])}
    for p in ref["pairs"]:
        a, b = p["A"], p["B"]
        out[("find_M", a, b)] = p["M"]
        for n, count in p["oracle"].items():
            out[("oracle", a, b, int(n))] = (count, count)
        out[("pair_count", a, b)] = list(p["nu"])
    return out


def test_pairs_check_fails_on_each_perturbation():
    results = _pairs_results()
    assert workloads.check_pairs(results, EXPECTED["pairs"]) == []
    first = EXPECTED["pairs"]["pairs"][0]
    key = (first["A"], first["B"])
    for mutate in (
        lambda r: r.__setitem__(("find_M",) + key, first["M"] + 1),
        lambda r: r.__setitem__(("oracle",) + key + (5,), (1, 2)),
        lambda r: r[("pair_count",) + key].__setitem__(3, r[("pair_count",) + key][3] + 1),
        lambda r: r[("merge",)].__setitem__(0, 1.0),
        lambda r: r.__setitem__(("find_M",) + key, ArithmeticError("no certificate")),
    ):
        broken = _pairs_results()
        mutate(broken)
        assert len(workloads.check_pairs(broken, EXPECTED["pairs"])) == 1


def _span(sid, parent, layer, start, end, pass_id=0):
    return (sid, parent, layer, "f", start, end, pass_id)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, -1, "experiments.run", 0.0, 10.0),
        _span(1, 0, "operators.build", 1.0, 4.0),
        _span(2, 1, "symbols.eval", 1.5, 2.0),
        _span(3, 0, "spectra.svd", 5.0, 9.0),
        _span(4, 3, "spectra.svd", 6.0, 7.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.5, 2: 0.5, 3: 3.0, 4: 1.0})


def test_nested_spans_of_one_layer_count_once():
    spans = [
        _span(0, -1, "spectra.svd", 0.0, 4.0),
        _span(1, 0, "spectra.svd", 1.0, 2.0),
        _span(2, -1, "spectra.svd", 5.0, 6.0),
        _span(3, -1, "spectra.svd", 0.0, 1.0, pass_id=1),
    ]
    times = tracing.layer_times(spans)
    assert times[(0, "spectra.svd")] == pytest.approx(5.0)
    assert times[(1, "spectra.svd")] == pytest.approx(1.0)


def test_missing_target_name_is_reported_absent_and_zero_metrics_are_reported():
    calls = []

    def singular_values(matrix, n_max=None):
        calls.append(matrix)
        return [1.0]

    def decay_fit(values):  # hooked, never called: spectra.fit_s is zero
        raise AssertionError

    experiments = SimpleNamespace(singular_values=singular_values, decay_fit=decay_fit)
    tracer = tracing.Tracer().install({"experiments": experiments})
    try:
        assert "experiments.hs_norm_sq" in tracer.missing
        tracer.enabled, tracer.pass_id = True, 0
        experiments.singular_values([[1.0]])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert experiments.singular_values is singular_values and calls == [[[1.0]]]
    detail = {}
    run = _load_run()
    passes = [workloads.PassCheck(), workloads.PassCheck()]
    metrics = run.traced_metrics(tracer, [1.0, 0.5], [True, False], passes, detail)
    assert "operators.hs_s" not in metrics and "operators.hs_s" in detail["missing_metrics"]
    assert "harmonic.walk_steps" in detail["missing_metrics"]
    assert metrics["spectra.fit_s"]["value"] == 0 and "spectra.fit_s" in detail["zero_metrics"]
    assert "experiments.table_bytes" in detail["zero_metrics"]
    assert set(metrics) == set(tracing.METRICS) - set(detail["missing_metrics"])
    assert all(metrics[name]["value"] == 0 for name in detail["zero_metrics"])
    assert metrics["spectra.svd_calls"]["value"] == 1
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.5)
    assert detail["harmonic.far_field"] == 0


def test_metric_table_matches_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {n: u for n, (u, _k, _l) in tracing.METRICS.items()}


def test_timed_subclass_overrides_only_named_methods():
    class Region:
        def distance_vector(self, p):
            return p

        def contains(self, p):
            return True

    tracer = tracing.Tracer()
    timed = tracer.timed_subclass(Region, {"distance_vector": "harmonic.distance", "far_mask": "harmonic.far"})
    assert "contains" not in vars(timed) and "distance_vector" in vars(timed)
    assert "Region.far_mask" in tracer.missing
    tracer.enabled, tracer.pass_id = True, 0
    assert timed().distance_vector([1, 2, 3]) == [1, 2, 3]
    assert tracer.counters[0]["harmonic.walk_steps"] == 3


def test_svd_flop_formula():
    assert tracing.svd_flops(4, 4, False) == pytest.approx(4 * 64 - 4 * 64 / 3)
    assert tracing.svd_flops(4, 4, True) == pytest.approx(4 * tracing.svd_flops(4, 4, False))
