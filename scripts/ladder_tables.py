#!/usr/bin/env python3
"""Print exact entropy-ladder tables for a family grid.

Examples::

    python3 scripts/ladder_tables.py dinf --k 1 2 4 8 --nmax 10
    python3 scripts/ladder_tables.py lamplighter --k 2 8 32 --limit --nmax 12
    python3 scripts/ladder_tables.py bs11 --k 2 4 --p 2/3 --format csv
    python3 scripts/ladder_tables.py z_drift --k 2 4 --limit   # takes no --p
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from walklab import parsing, walks


def family_text(name: str, p: Fraction | None, k: int | None) -> str:
    index = "k=limit" if k is None else f"k={k}"
    if p is None:
        return f"{name}({index})"
    return f"{name}(p={p}, {index})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=parsing.FAMILIES)
    parser.add_argument("--k", type=int, nargs="+", default=[1, 2, 4],
                        help="family depths (default 1 2 4)")
    parser.add_argument("--limit", action="store_true",
                        help="include the limit measure")
    parser.add_argument("--p", type=Fraction, default=None,
                        help="family parameter (default 3/4; not for "
                             "families without one, such as z_drift)")
    parser.add_argument("--nmax", type=int, default=8)
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    args = parser.parse_args(argv)
    if not parsing.FAMILIES[args.family][1]:  # the family takes no p
        if args.p is not None:
            parser.error(f"{args.family} takes no --p")
    elif args.p is None:
        args.p = Fraction(3, 4)

    grid: list[int | None] = list(args.k)
    if args.limit:
        grid.append(None)

    if args.format == "csv":
        print("measure,n,H,ratio,diff")
    for k in grid:
        text = family_text(args.family, args.p, k)
        ladder = walks.entropy_ladder(parsing.family_measure(text), args.nmax,
                                      label=text)
        summary = ladder.summary()
        bad = summary["failed_checks"]
        if args.format == "table":
            print(f"\n{text}   "
                  f"(invariants: {'ok' if not bad else f'{len(bad)} failing'})")
            print(f"{'n':>4} {'H':>12} {'H/n':>12} {'diff':>12}")
            for row in summary["rows"]:
                ratio = f"{row['ratio']:.8f}" if row["n"] else "-"
                diff = (f"{row['diff']:.8f}"
                        if row["n"] < ladder.n_max else "-")
                print(f"{row['n']:>4} {row['H']:>12.8f} {ratio:>12} {diff:>12}")
        else:
            for row in summary["rows"]:
                print(f"{text},{walks.csv_row(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
