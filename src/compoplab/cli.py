"""Command-line front end for the experiment registry.

Exit codes: 0 when every in-experiment assertion passes, 2 when an
assertion fails, 1 on configuration or runtime error (an argument the
parser rejects, a sample count below 1, or one given to an experiment
that does not sample, included).
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import REGISTRY, ExperimentConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compoplab",
        description="Desk-scale experiments on composition-operator spectra.",
    )
    parser.add_argument(
        "--experiment",
        required=True,
        choices=sorted(REGISTRY),
        help="registry entry to run",
    )
    parser.add_argument("--out", default="runs", help="output directory root")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=None, help="sample count")
    parser.add_argument(
        "--json", action="store_true", help="print a machine-readable summary to stdout"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a rejected argument, the code of a failed
        # assertion here: report it as the configuration error it is
        if exc.code == 2:
            raise SystemExit(1) from None
        raise
    config = ExperimentConfig(
        experiment=args.experiment,
        out=args.out,
        seed=args.seed,
        samples=args.samples,
    )
    try:
        manifest = run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {
        "experiment": manifest.experiment,
        "status": manifest.status,
        "out_dir": manifest.out_dir,
        "tables": sorted(manifest.tables),
        "assertions": manifest.assertions,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for a in manifest.assertions:
            flag = "PASS" if a["passed"] else "FAIL"
            detail = f" ({a['detail']})" if a["detail"] else ""
            print(f"[{flag}] {a['name']}{detail}")
        print(f"status: {manifest.status}; tables in {manifest.out_dir}")
    if manifest.status == "pass":
        return 0
    if manifest.status == "fail":
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
