#!/usr/bin/env python3
"""walklab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ladder-wreath --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; walklab is imported from its ``src``.

Workloads (closed loop: one caller, the next operation starts when the last
ends, no extra threads):

* ``ladder-wreath``: E4 then E5, the exact ladder pipeline at its largest
  supports and forms.  The seed picks p and sets the config seed.
* ``escape-mc``: Monte Carlo escape on BS(1,-1), Dinf and Z to horizon 1e5,
  and range rates.  The seed keys the Philox streams.
* ``suite-small``: E1, E6 and E7 at their default configs and the seed.

Every timed body runs in a fresh interpreter, as a command-line user's
does, so walklab's process-global caches start empty.  This process only
starts those interpreters one after another and waits for each.  With
``--trace 0`` it repeats the body until ``--seconds`` are spent (at least
``MIN_BODIES`` times) and reports the end-to-end metrics:

* ``wall_s``: wall time of the timed body, the median over the run's
  bodies.  The fastest body, the highest percentile with at least ten
  bodies beyond it (once there are eleven) and the body count go to the
  run record;
* ``setup_s``: interpreter start until the inputs are ready (imports,
  parsing, law construction), the median over the bodies' interpreters and
  ``SETUPS_PER_BODY`` set-up-only interpreters after each body;
* ``peak_rss_mb``: peak resident set of the body's process, the median.

With ``--trace 1`` it runs the body untraced and traced (per-layer spans,
see ``tracer.py``) in turn, ``OVERHEAD_PAIRS`` times, then the
micro-benchmarks (``micro.py``), and reports the per-layer metrics of the
first traced body, the tracing overhead and the micro-benchmarks.  Every output is checked (``workloads.py``);
the last line of standard output is the JSON result.  A record of the run,
with the machine's state, is written to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

MIN_BODIES = 2
SETUPS_PER_BODY = 3
OVERHEAD_PAIRS = 2
DEADLINE_S = 170.0   # a run must end within 180 s
BUSY_LOAD_PER_CPU = 0.75


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# machine record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    load = os.getloadavg()[0]
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "load1_start": load,
            "busy_at_start": load >= BUSY_LOAD_PER_CPU * nproc}


# ---------------------------------------------------------------------------
# child interpreters


class Children:
    """Starts worker interpreters one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ,
                        PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, mode: str, **extra) -> dict:
        request = {"workload": self.workload, "seed": self.seed, "mode": mode,
                   **extra}
        request["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the run's deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                             + proc.stderr[-4000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(bodies: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over the operations of the bodies."""
    attempted = failed = 0
    reasons: list[str] = []
    for body in bodies:
        if "invalid" in body:
            raise BenchError(body["invalid"])
        for op in body["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                reasons.append(op["reason"])
    return attempted, failed, reasons


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    q = (n - 10) / n
    return {"q": q, "value": sorted(values)[n - 10 - 1]}


def timed_run(children: Children, seconds: float) -> tuple[dict, dict]:
    children.run("setup")                    # warm the file cache, compile
    bodies: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        # only the first body fingerprints every exact form; later bodies
        # repeat the same inputs and check flags, verdicts and estimates
        bodies.append(children.run("timed", full_check=not bodies))
        setups.append(bodies[-1]["setup_s"])
        setups += [children.run("setup")["setup_s"]
                   for _ in range(SETUPS_PER_BODY)]
        took = time.monotonic() - t0
        spent = time.monotonic() - start
        if len(bodies) >= MIN_BODIES and spent + took > seconds:
            break
        if took * 1.5 > children.remaining():
            break
    walls = [b["wall_s"] for b in bodies]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in bodies),
    }
    detail = {"wall_s": {"bodies": walls, "fastest": min(walls),
                         "tail": tail_percentile(walls)},
              "setup_s": setups, "peak_rss_mb": [b["peak_rss_mb"] for b in bodies],
              "bodies": bodies}
    return metrics, detail


def traced_run(children: Children) -> tuple[dict, dict]:
    # untraced and traced bodies alternate, so that both sides of the
    # overhead ratio see the same share of the machine's load swings
    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        plain.append(children.run("timed"))
        traced.append(children.run("traced"))
    micro = children.run("micro")
    metrics = dict(traced[0]["metrics"])
    metrics["trace.wall_s"] = traced[0]["wall_s"]
    metrics["trace.overhead_frac"] = (sum(b["wall_s"] for b in traced)
                                      / sum(b["wall_s"] for b in plain) - 1)
    metrics.update(micro["metrics"])
    return metrics, {"bodies": plain + traced}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "walklab" / "__init__.py").is_file():
        print(f"run.py: no walklab sources under {SRC}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": datetime.now(timezone.utc).isoformat(),
              "machine": machine_record()}
    children = Children(args.workload, args.seed)
    try:
        if args.trace:
            values, detail = traced_run(children)
        else:
            values, detail = timed_run(children, args.seconds)
        attempted, failed, reasons = _tally(detail["bodies"])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    record["machine"]["load1_end"] = os.getloadavg()[0]
    record.update(detail, values=values, ops_failed_frac=failed / attempted,
                  failures=reasons)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record["result"] = result
    RUNS.mkdir(exist_ok=True)
    stamp = record["started"].replace(":", "").replace("+", "Z")[:17]
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    machine = record["machine"]
    if not args.trace:
        walls = detail["wall_s"]
        print(f"wall_s: median {values['wall_s']:.3f} s, fastest "
              f"{walls['fastest']:.3f} s, over {len(walls['bodies'])} bodies")
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed; "
          f"load {machine['load1_start']:.2f} -> {machine['load1_end']:.2f}"
          f"{' (busy at start)' if machine['busy_at_start'] else ''}; "
          f"record {path.relative_to(ROOT)}")
    for reason in reasons:
        print(f"  failed: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
