#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks its runs against.

    PYTHONPATH=src python3 perfbench/record_references.py

Writes ``perfbench/references.json``:

* ``ladder-wreath``, per p in ``LADDER_P``: E4's and E5's pass flags,
  expectation names, failing ladder checks and 45-digit fingerprints of
  E4's exact ladder forms.  None of these depend on the seed.
* ``suite-small``: the same for E1, E6 and E7 (E1's ladders fingerprinted).
  These do not depend on the seed either.
* ``escape-mc``, at the default seed only: every Monte Carlo checkpoint
  value and range rate, which reproduce bit for bit.  Other seeds are
  checked against invariants instead.

Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json

from walklab import experiments

import workloads


def observe(workload: workloads.Workload, seed: int) -> dict:
    experiments._LADDER_CACHE.clear()
    ops = workload.setup(seed)
    return {op.name: workload.observe(op.run(), True) for op in ops}


def main() -> None:
    wl = workloads.WORKLOADS
    refs = {
        "ladder-wreath": {
            f"p={p}": observe(wl["ladder-wreath"], seed)
            for seed, p in enumerate(workloads.LADDER_P)},
        "suite-small": {
            "any-seed": observe(wl["suite-small"], workloads.DEFAULT_SEED)},
        "escape-mc": {
            f"seed={workloads.DEFAULT_SEED}": observe(
                wl["escape-mc"], workloads.DEFAULT_SEED)},
    }
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
