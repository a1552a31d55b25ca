"""One benchmark process: set up a workload, run its timed body once, check it.

Usage (as ``run.py`` starts it, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py '{"workload": "escape-mc", "seed": 7,
        "mode": "timed", "spawned": <time.monotonic() before the spawn>}'

Modes: ``setup`` stops once the inputs are ready; ``timed`` runs the body
untraced; ``traced`` runs it under :class:`tracer.Tracer`; ``micro`` runs
the layer micro-benchmarks.  The process prints one JSON object as its last
line.  Each process starts with walklab's process-global caches empty, as a
command-line user's does; a body that finds them warm is refused.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import Any

import workloads
from tracer import Tracer, layer_metrics, self_times


def run_body(ops: list[workloads.Op]) -> list[tuple[Any, str | None, float]]:
    """Run each operation in order: (result, error, seconds) per operation.
    An exception fails only its own operation."""
    out = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, err = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            result, err = None, f"{op.name} raised {exc!r}"
        out.append((result, err, time.perf_counter() - t0))
    return out


def check_outputs(workload: workloads.Workload, seed: int,
                  ops: list[workloads.Op], outputs: list, full: bool) -> list[dict]:
    """Per operation: whether it ran and its output passed the checks."""
    names = [op.name for op in ops]
    reasons = [err for _, err, _ in outputs]
    observations: list[dict | None] = [None] * len(ops)
    for i, (result, err, _) in enumerate(outputs):
        if err is None:
            try:
                observations[i] = workload.observe(result, full)
            except Exception as exc:  # an unreadable output fails its operation
                reasons[i] = f"{names[i]}: output not readable: {exc!r}"
    good = [i for i, reason in enumerate(reasons) if reason is None]
    try:
        verdicts = workload.check(seed, [names[i] for i in good],
                                  [observations[i] for i in good],
                                  workloads.load_references())
    except Exception as exc:  # e.g. an output the references do not cover
        verdicts = [f"check raised {exc!r}"] * len(good)
    for i, verdict in zip(good, verdicts):
        reasons[i] = verdict
    return [{"name": names[i], "ok": reasons[i] is None, "reason": reasons[i],
             "s": seconds, "observation": observations[i]}
            for i, (_, _, seconds) in enumerate(outputs)]


def main(request: dict) -> dict:
    mode = request["mode"]
    if mode == "micro":
        import micro
        return {"metrics": micro.run_all()}
    workload = workloads.WORKLOADS[request["workload"]]
    seed = request["seed"]
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    ops = workload.setup(seed)
    setup_s = time.monotonic() - request["spawned"]
    if mode == "setup":
        return {"setup_s": setup_s}
    warm = workloads.warm_caches()
    if warm:
        return {"setup_s": setup_s, "invalid": f"caches warm before the body: {warm}"}
    body = tracer.wrap("body", run_body) if tracer else run_body
    first_span = len(tracer.spans) if tracer else 0
    t0 = time.perf_counter()
    outputs = body(ops)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.uninstall()
        metrics = layer_metrics(tracer)
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.self_sum_s"] = sum(self_times(tracer.spans)[first_span:])
        result["metrics"] = metrics
    result["ops"] = check_outputs(workload, seed, ops, outputs,
                                  full=request.get("full_check", True))
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
