"""Layer micro-benchmarks, run in their own process during the traced run.

Inputs are fixed, not seeded, so these figures compare one commit's layers
with another's on identical work:

* ``groups.multiply`` per spec, on pairs (support atom, step atom) drawn from
  the supports the workloads convolve;
* ``first_return_times`` in Msteps/s per spec;
* the ladder probe of ``lamplighter(p=3/4, k=32)`` to n = 12: convolution,
  entropy-form and verify seconds, sign decisions and the largest entropy
  form;
* ``LogLinear.sign`` per call on the check forms the probe's verify decided.

Each timing is the median of ``REPEATS`` passes over ``time.perf_counter``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from random import Random

import numpy as np

from walklab import escape, experiments, groups, magnus, measures, parsing, walks
from walklab.exact_entropy import LogLinear
from walklab.measures import FiniteMeasure

REPEATS = 5
PAIRS = 4000
PROBE_N = 12
MC_HORIZON = 100_000
STEP_LAWS = {  # spec name -> (family, samples)
    "bs11": ("bs11(k=2)", 12),
    "dinf": ("dinf(p=3/4, k=limit)", 12),
    "z1": ("z_drift(k=limit)", 48),
}


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _pairs(mu: FiniteMeasure, power: int, rng: Random) -> list[tuple]:
    support = list(measures.convolution_power(mu, power).support())
    steps = mu.support()
    return [(rng.choice(support), rng.choice(steps)) for _ in range(PAIRS)]


def _multiply_laws() -> dict[str, tuple[FiniteMeasure, int]]:
    """The law each workload convolves on the spec, and a typical power."""
    _, limit, spread, _ = experiments._e1_panels()[0]   # E1's Z panel
    e1_z = measures.mix(limit, spread, Fraction(1, 4))
    gens = [magnus.magnus_embed((s * i,), 3, 2) for i in (1, 2, 3) for s in (1, -1)]
    e7 = FiniteMeasure.from_pairs(magnus.sdm_spec(3, 2),
                                  [(g, 1.0 / 6.0) for g in gens], exact=False)
    return {
        "wreath_c2_dinf": (parsing.lamplighter_family(Fraction(3, 4), 32), 8),
        "sdm_3_2": (e7, 4),
        "z1": (e1_z, 12),
    }


def multiply_ns() -> dict[str, float]:
    rng = Random(0)
    out = {}
    for name, (mu, power) in _multiply_laws().items():
        spec, pairs = mu.spec, _pairs(mu, power, rng)
        mul = groups.multiply

        def loop():
            for g, h in pairs:
                mul(spec, g, h)

        out[f"groups.multiply.ns.{name}"] = _median_time(loop) / PAIRS * 1e9
    return out


def msteps_per_s() -> dict[str, float]:
    out = {}
    for name, (family, samples) in STEP_LAWS.items():
        mu = parsing.family_measure(family)
        taus = escape.first_return_times(mu, MC_HORIZON, samples, 1)
        steps = int(np.minimum(taus, MC_HORIZON).sum())
        elapsed = _median_time(
            lambda: escape.first_return_times(mu, MC_HORIZON, samples, 1), 3)
        out[f"escape.first_return_times.msteps_per_s.{name}"] = steps / elapsed / 1e6
    return out


def ladder_probe() -> dict[str, float]:
    """The exact ladder of lamplighter(p=3/4, k=32), layer by layer."""
    mu = parsing.lamplighter_family(Fraction(3, 4), 32)
    conv_s = form_s = 0.0
    cur = mu
    values, forms = [0.0], [LogLinear.zero()]
    for n in range(1, PROBE_N + 1):
        if n > 1:
            t0 = time.perf_counter()
            cur = measures.convolve(cur, mu)
            conv_s += time.perf_counter() - t0
        values.append(measures.entropy(cur))
        t0 = time.perf_counter()
        forms.append(measures.exact_entropy(cur))
        form_s += time.perf_counter() - t0
    ladder = walks.EntropyLadder("probe", values, forms)
    decided: list[LogLinear] = []
    sign = LogLinear.sign

    def recording_sign(form):
        decided.append(form)
        return sign(form)

    LogLinear.sign = recording_sign
    try:
        t0 = time.perf_counter()
        ladder.verify()
        verify_s = time.perf_counter() - t0
    finally:
        LogLinear.sign = sign
    per_call = []
    for form in decided:
        t0 = time.perf_counter()
        form.sign()
        per_call.append(time.perf_counter() - t0)
    return {
        "probe.convolve_s": conv_s,
        "probe.entropy_form_s": form_s,
        "probe.verify_s": verify_s,
        "probe.decisions": len(decided),
        "probe.entropy_form_terms_max": max(len(f.coeffs) for f in forms),
        "probe.support": len(cur),
        "exact_entropy.sign.us_per_call": statistics.median(per_call) * 1e6,
    }


def run_all() -> dict[str, float]:
    return {**multiply_ns(), **msteps_per_s(), **ladder_probe()}
