"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs one pass of every workload at seed REFERENCE_SEED with the
benchmark's thread setting and stores its tables, exit and manifest
statuses and the criterion-5 verification results under
perfbench/reference/.  Regenerate only when
the numbers are meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from types import SimpleNamespace

from fingerprint import fingerprint, set_blas_threads
from run import OUT, REFERENCE, ROOT
from workloads import EXPERIMENTS, pairs_reference, run_pairs

REFERENCE_SEED = 0


def main() -> int:
    threads = set_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import compoplab.cli
    import compoplab.spectra

    out = OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(REFERENCE, ignore_errors=True)
    expected = {"seed": REFERENCE_SEED, "experiments": {}, "fingerprint": fingerprint(ROOT, threads)}
    for experiments in EXPERIMENTS.values():
        for exp in experiments:
            argv = ["--experiment", exp, "--out", str(out), "--seed", str(REFERENCE_SEED), "--json"]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = compoplab.cli.main(argv)
            manifest = json.loads((out / exp / "manifest.json").read_text())
            tables = sorted(manifest["tables"])
            (REFERENCE / exp).mkdir(parents=True)
            for name in tables:
                shutil.copyfile(out / exp / f"{name}.csv", REFERENCE / exp / f"{name}.csv")
            expected["experiments"][exp] = {"exit": rc, "status": manifest["status"], "tables": tables}
            print(f"{exp}: exit {rc}, status {manifest['status']}, {len(tables)} tables")
    api = SimpleNamespace(**{n: getattr(compoplab.spectra, n) for n in dir(compoplab.spectra)})
    expected["pairs"] = pairs_reference(run_pairs(api))
    (REFERENCE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
