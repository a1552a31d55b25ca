#!/usr/bin/env python3
"""Run the registered experiments and write one JSON report per run.

Each status line ends with the sha256 of the experiment's replay payload, so
two checkouts can be compared for byte-identical results by their output.

Examples::

    python3 scripts/run_experiments.py                  # everything, ./reports
    python3 scripts/run_experiments.py E1 E4 --seed 11
    python3 scripts/run_experiments.py E4 --out-dir /tmp/reports --csv
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from walklab import experiments


def main(argv: list[str] | None = None) -> int:
    known = [ident for ident, _ in experiments.list_experiments()]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help=f"experiment ids (default: all of {' '.join(known)})")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", type=Path, default=Path("reports"))
    parser.add_argument("--csv", action="store_true",
                        help="also write the entropy-ladder tables as CSV")
    args = parser.parse_args(argv)

    ids = args.ids or known
    unknown = [i for i in ids if i not in known]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    all_passed = True
    for ident in ids:
        t0 = time.perf_counter()
        report = experiments.run_experiment(
            experiments.ExperimentConfig(ident, seed=args.seed))
        elapsed = time.perf_counter() - t0
        path = args.out_dir / f"{ident.lower()}.json"
        path.write_text(report.to_json() + "\n")
        if args.csv:
            csv = report.ladder_csv()
            if csv.count("\n") > 1:
                (args.out_dir / f"{ident.lower()}_ladders.csv").write_text(csv)
        status = "ok" if report.passed else "FAILED EXPECTATIONS"
        digest = hashlib.sha256(report.replay_payload().encode()).hexdigest()
        print(f"{ident}: {status} in {elapsed:.1f}s -> {path} "
              f"replay sha256 {digest}")
        for exp in report.expectations:
            mark = "+" if exp["passed"] else "-"
            print(f"  [{mark}] {exp['name']}: {exp['detail']}")
        all_passed &= report.passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
