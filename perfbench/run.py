"""Outside-in benchmark of compoplab.

    python3 perfbench/run.py --workload sections --seed 1 --seconds 15 --trace 0

Runs one workload in a closed loop with one caller (each pass starts when
the previous one returns) for --seconds and at least MIN_PASSES passes,
checks every pass against the stored reference, and prints as its last
line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones (setup_s,
run_s, peak_rss_mb); with --trace 1 they are the per-layer ones, from a
run that alternates traced and untraced passes.  The line before it holds
the details: fail_ratio, pass times, failures, the environment
fingerprint and, when traced, layer shares and the per-layer metrics that
are missing (left out of metrics) or zero (reported as 0).  Outputs go
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from fingerprint import fingerprint, set_blas_threads
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
SETUP_STARTS = 9
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60

# Cold start of one CLI process: interpreter, package import, first FFT and
# first SVD.  Prints the package path so the parent can check which
# sources it imported.
SETUP_PROBE = """
import sys
import numpy as np
import compoplab
import compoplab.cli
np.fft.fft(np.ones(64, dtype=complex))
np.linalg.svd(np.ones((8, 8), dtype=complex), compute_uv=False)
sys.stdout.write(compoplab.__file__ + "\\n")
sys.stdout.flush()
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _under(path: str, directory: Path) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def measure_setup(env: dict) -> list:
    """Seconds from spawning a process until it has imported compoplab and
    returned from its first FFT and SVD, for SETUP_STARTS cold starts."""
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out")
        if proc.returncode != 0 or not _under(line.strip(), ROOT / "src"):
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-400:]}")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "compoplab" / "__init__.py").is_file():
        print(f"error: no compoplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (REFERENCE / "expected.json").is_file():
        print(f"error: no reference outputs under {REFERENCE}", file=sys.stderr)
        return 2

    threads = set_blas_threads()
    child_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup = [] if args.trace else measure_setup(child_env)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import compoplab

    if not _under(compoplab.__file__, ROOT / "src"):
        print(f"error: imported compoplab from {compoplab.__file__}", file=sys.stderr)
        return 2
    np.fft.fft(np.ones(64, dtype=complex))
    np.linalg.svd(np.ones((8, 8), dtype=complex), compute_uv=False)

    workload = Workload(args.workload, args.seed, REFERENCE)
    tracer = None
    if args.trace:
        import compoplab.series

        sample_count = getattr(compoplab.series, "default_sample_count", None)
        tracer = tracing.Tracer(sample_count).install(workload.namespaces())

    pass_dir = OUT / f"pass-{args.workload}"
    times, traced, checks_ = [], [], []
    try:
        # no separate warm-up: whatever the first pass pays for lazy set-up
        # is left out by the median over at least MIN_PASSES passes
        deadline = time.perf_counter() + args.seconds
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            shutil.rmtree(pass_dir, ignore_errors=True)
            pass_id = len(times)
            is_traced = tracer is not None and pass_id % 2 == 0
            if tracer is not None:
                tracer.pass_id, tracer.enabled = pass_id, is_traced
            start = time.perf_counter()
            raw = workload.run_pass(pass_dir)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            times.append(elapsed)
            traced.append(is_traced)
            checks_.append(workload.check_pass(raw, pass_dir))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(pass_dir, ignore_errors=True)

    attempted = sum(c.attempted for c in checks_)
    failures = [f for c in checks_ for f in c.failures]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(times),
        "pass_s": times,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "tables": checks_[0].tables,
        "tables_identical": statistics.median(c.identical for c in checks_),
        "zero_hit_targets": checks_[0].zero_hit,
        "fingerprint": fingerprint(ROOT, threads),
    }
    if tracer is None:
        detail["setup_s"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        metrics = traced_metrics(tracer, times, traced, checks_, detail)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, {"detail": detail})
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


def traced_metrics(tracer, times, traced, checks_, detail) -> dict:
    """Per-layer metrics: medians over the traced passes.

    Every metric whose hooks are installed is reported, also when it is 0
    because the workload does not call its layer; the detail line lists the
    zero ones.  A metric whose hooks are missing is left out and listed in
    the detail line, so a renamed public function never crashes the run.
    """
    times_by_layer = tracing.layer_times(tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    per_pass = []
    for pass_id, (is_traced, check) in enumerate(zip(traced, checks_)):
        if not is_traced:
            continue
        m = tracing.pass_metrics(tracer, pass_id, times_by_layer, selfs)
        m["experiments.table_bytes"] = check.table_bytes
        m["experiments.tables_identical"] = check.identical
        per_pass.append(m)
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    run_traced = statistics.median(t for t, tr in zip(times, traced) if tr)
    run_plain = statistics.median(t for t, tr in zip(times, traced) if not tr)
    values["trace.overhead_s"] = run_traced - run_plain
    metrics, missing, zero = {}, [], []
    for name, (unit, _kind, _layers) in tracing.METRICS.items():
        if not tracer.available(name):
            missing.append(name)
            continue
        if values[name] == 0:
            zero.append(name)
        metrics[name] = {"value": values[name], "unit": unit}
    detail["missing_metrics"] = missing
    detail["zero_metrics"] = zero
    detail["missing_hooks"] = tracer.missing
    detail["traced_run_s"] = run_traced
    detail["untraced_run_s"] = run_plain
    detail["spans"] = len(tracer.spans)
    for name in tracing.DETAIL_COUNTS:
        detail[name] = values[name]
    detail["layer_shares"] = {
        name: metrics[name]["value"] / run_traced
        for name in ("spectra.svd_s", "operators.hs_s", "harmonic.wos_s", "spectra.oracle_s")
        if name in metrics
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
