"""Cross-checks of the benchmark itself, on small-size smoke runs.

    python3 -m pytest perfbench -q

The traced counts must equal their closed forms, span self times must add
up to the traced wall time, and the output checks must catch wrong outputs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from walklab import exact_entropy, experiments, measures, parsing

import workloads
import worker
from tracer import Tracer, layer_metrics, self_times

ROOT = workloads.REFERENCES.parent.parent


def ladder_checks(depth: int) -> int:
    """Checks of a depth-N ladder: subadditivity pairs, then N-1 of each
    increment check."""
    return depth * (depth - 1) // 2 + 2 * (depth - 1)


@pytest.fixture(autouse=True)
def cold_caches():
    for mod, attr in workloads.CACHES:
        getattr(mod, attr).clear()
    yield
    for mod, attr in workloads.CACHES:
        getattr(mod, attr).clear()


def traced_body(workload: workloads.Workload, seed: int):
    """Set up and run a workload's body under a tracer, like worker.py."""
    with Tracer() as tracer:
        ops = workload.setup(seed)
        first_span = len(tracer.spans)
        body = tracer.wrap("body", worker.run_body)
        t0 = time.perf_counter()
        outputs = body(ops)
        wall = time.perf_counter() - t0
    assert all(err is None for _, err, _ in outputs)
    return tracer, [r for r, _, _ in outputs], wall, first_span


def assert_self_times_cover(tracer: Tracer, wall: float, first_span: int):
    covered = sum(self_times(tracer.spans)[first_span:])
    assert covered == pytest.approx(wall, rel=0.03)


def test_closed_form_matches_roadmap_probe():
    assert ladder_checks(12) == 88
    assert ladder_checks(16) == 150


def test_ladder_wreath_counts(monkeypatch):
    depth = 5
    monkeypatch.setattr(workloads, "LADDER_N_MAX", depth)
    seed = 2
    tracer, _, wall, first = traced_body(workloads.WORKLOADS["ladder-wreath"], seed)
    m = layer_metrics(tracer)
    # E4 verifies 4 ladders; E5 the free factor and 4 product ladders
    assert m["walks.verify.calls"] == 9
    assert m["walks.verify.checks"] == 9 * ladder_checks(depth)
    assert m["exact_entropy.sign.calls"] == m["walks.verify.checks"]
    # E4 builds its 4 ladders; E5 finds them, plus one more lookup
    assert m["experiments.cached_exact_ladder.calls"] == 9
    assert m["experiments.cached_exact_ladder.hit_ratio"] == pytest.approx(5 / 9)
    p = workloads.LADDER_P[seed % len(workloads.LADDER_P)]
    laws = [parsing.lamplighter_family(p, k) for k in (2, 8, 32, None)]
    pairs = sum(len(measures.convolution_power(mu, n)) * len(mu)
                for mu in laws for n in range(1, depth))
    # E5's direct-product ladders: f2-uniform and f2product to n = 3
    for mu in (parsing.f2_uniform(), parsing.f2product_family(p, 2)):
        pairs += sum(len(measures.convolution_power(mu, n)) * len(mu)
                     for n in range(1, 3))
    assert m["measures.convolve.pairs"] == pairs
    assert m["groups.multiply.calls"] == pairs
    assert m["walks.free_group_srw_ladder.s"] > 0
    assert_self_times_cover(tracer, wall, first)


def test_escape_mc_counts(monkeypatch):
    samples, horizon, range_steps, range_samples = 10, 2_000, 500, 3
    monkeypatch.setattr(workloads, "MC_SAMPLES", samples)
    monkeypatch.setattr(workloads, "MC_HORIZON", horizon)
    monkeypatch.setattr(workloads, "MC_CHECKPOINTS", (100, 1_000, 2_000))
    monkeypatch.setattr(workloads, "RANGE_STEPS", range_steps)
    monkeypatch.setattr(workloads, "RANGE_SAMPLES", range_samples)
    tracer, results, wall, first = traced_body(workloads.WORKLOADS["escape-mc"], 3)
    m = layer_metrics(tracer)
    mc, ranges = len(workloads.MC_SPECS), len(workloads.RANGE_SPECS)
    # one Philox stream per sample
    assert m["rng.sample_stream.calls"] == mc * samples + ranges * range_samples
    assert m["escape.range_rate.steps"] == ranges * range_steps * range_samples
    escaped = sum(r.value for r in results[:mc]) / mc
    assert m["escape.first_return_times.return_frac"] == pytest.approx(1 - escaped)
    assert m["escape.first_return_times.steps"] <= mc * samples * horizon
    assert m["groups.multiply.calls"] == 0
    assert m["parsing.family_measure.s"] > 0  # the set-up parses the laws
    assert_self_times_cover(tracer, wall, first)


def test_suite_small_counts(monkeypatch):
    depth = 6
    wl = workloads.WORKLOADS["suite-small"]
    configs = wl.configs

    def small(seed):
        cfgs = configs(seed)
        return [experiments.ExperimentConfig(c.experiment, seed=c.seed,
                                             n_max=depth if c.experiment == "E1" else None,
                                             samples=50 if c.experiment == "E7" else None)
                for c in cfgs]

    monkeypatch.setattr(wl, "configs", small)
    tracer, _, wall, first = traced_body(wl, 11)
    m = layer_metrics(tracer)
    e1_ladders = 2 * 7          # two panels, six k values and the limit
    e7_depth, e7_ladders = 5, 4
    assert m["exact_entropy.sign.calls"] == e1_ladders * ladder_checks(depth)
    assert m["walks.verify.checks"] == (e1_ladders * ladder_checks(depth)
                                        + e7_ladders * ladder_checks(e7_depth))
    assert m["experiments.cached_exact_ladder.calls"] == e1_ladders
    assert m["magnus.magnus_embed.calls"] > 0
    assert m["escape.exact_escape_drifted_z.terms"] > 0
    assert_self_times_cover(tracer, wall, first)


def test_tracer_restores_every_binding():
    from walklab import escape, groups, rng
    originals = (groups.multiply, rng.sample_stream, escape.sample_stream,
                 exact_entropy.LogLinear.__add__)
    with Tracer():
        assert escape.sample_stream is not originals[2]
    assert (groups.multiply, rng.sample_stream, escape.sample_stream,
            exact_entropy.LogLinear.__add__) == originals


def test_warm_cache_is_detected():
    assert workloads.warm_caches() == []
    exact_entropy.factorize(12)
    assert workloads.warm_caches() == ["walklab.exact_entropy._FACTOR_CACHE"]


def test_limit_band_meets_its_miss_rate():
    n = workloads.MC_SAMPLES
    miss = workloads.BAND_MISS / len(workloads.MC_LIMITS)
    band = workloads.limit_band(n)

    def outside(d):  # P(|X/n - 1/2| > d), X ~ Bin(n, 1/2)
        return sum(math.comb(n, k) for k in range(n + 1)
                   if abs(k / n - 0.5) > d + 1e-12) / 2 ** n

    assert outside(band) <= miss
    assert outside(band - 1 / n) > miss


def test_checks_catch_wrong_outputs():
    refs = workloads.load_references()
    ref = refs["escape-mc"][f"seed={workloads.DEFAULT_SEED}"]
    name = "mc bs11(k=2)"
    good = ref[name]
    assert workloads.check_estimate(name, good, good) is None
    shifted = {"checkpoints": [[h, v + 1 / 300] for h, v in good["checkpoints"]]}
    assert workloads.check_estimate(name, shifted, good) is not None
    rising = {"checkpoints": [[1, 0.2], [2, 0.3]]}
    assert workloads.check_estimate(name, rising, None) is not None
    far = {"checkpoints": [[1, 0.9], [2, 0.9]]}
    assert workloads.check_estimate("mc z_drift(k=limit)", far, None) is not None

    e4 = refs["ladder-wreath"]["p=3/4"]["E4"]
    assert workloads.check_report(e4, e4) is None
    label = sorted(e4["forms"])[0]
    bent = json.loads(json.dumps(e4))
    bent["forms"][label][3] = str(Fraction(bent["forms"][label][3]) + Fraction(1, 10**30))
    assert workloads.check_report(bent, e4) is not None
    failing = dict(e4, failed_checks={label: ["subadditivity(1, 2)"]})
    assert workloads.check_report(failing, e4) is not None


def test_mirror_laws_have_equal_ladders():
    refs = workloads.load_references()["ladder-wreath"]
    assert refs["p=3/4"] == refs["p=1/4"]
    assert refs["p=2/3"] == refs["p=1/3"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "escape-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
