"""The benchmark's three workloads and the checks on their outputs.

Each workload turns a seed into a list of operations (set-up), runs them in
order (the timed body), and reduces each result to a small JSON
observation that is compared with ``references.json`` or, where no
reference applies, with invariants.  An operation is one experiment report
or one escape estimate; it fails if it raises or if its check fails.

Every call into walklab goes through a module attribute at call time, so
the traced run's wrappers see it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import mpmath

from walklab import escape, exact_entropy, experiments, parsing

DEFAULT_SEED = 7
REFERENCES = Path(__file__).with_name("references.json")

# ladder-wreath: p and 1-p give mirror-image laws on the dihedral base, so
# the two members of each pair do identical work.
LADDER_P = (Fraction(3, 4), Fraction(1, 4), Fraction(2, 3), Fraction(1, 3))
LADDER_N_MAX = 9

# escape-mc: E3's horizon and checkpoints.
MC_SPECS = ("bs11(k=2)", "bs11(k=4)", "dinf(p=3/4, k=limit)", "z_drift(k=limit)")
MC_LIMITS = ("dinf(p=3/4, k=limit)", "z_drift(k=limit)")  # escape exactly 1/2
MC_HORIZON = 100_000
MC_CHECKPOINTS = (1_000, 10_000, 100_000)
MC_SAMPLES = 300
RANGE_SPECS = ("z_drift(k=limit)", "bs11(k=2)")
RANGE_STEPS = 10_000
RANGE_SAMPLES = 20
# chance that a correct sampler leaves the band around 1/2, per run
BAND_MISS = 1e-4

SUITE_IDS = ("E1", "E6", "E7")

FORM_PREC = 192     # bits used to fingerprint exact ladder forms
FORM_DIGITS = 45
FORM_RTOL = mpmath.mpf(10) ** -40

CACHES = ((experiments, "_LADDER_CACHE"), (exact_entropy, "_LOG_CACHE"),
          (exact_entropy, "_FACTOR_CACHE"))


def warm_caches() -> list[str]:
    """Names of walklab's process-global caches that are not empty."""
    return [f"{mod.__name__}.{attr}" for mod, attr in CACHES
            if getattr(mod, attr, None)]


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]


# ---------------------------------------------------------------------------
# observations


def _form_fingerprint(forms) -> list[str]:
    with mpmath.workprec(FORM_PREC):
        return [mpmath.nstr(f.evaluate(FORM_PREC)[0], FORM_DIGITS) for f in forms]


def observe_report(report: experiments.ExperimentReport,
                   with_forms: bool) -> dict:
    """Pass flags, expectation names, failing ladder checks and, optionally,
    fingerprints of the exact ladders this experiment cached."""
    failed = {}
    for row in report.results:
        ladder = row.get("ladder")
        if ladder:
            failed[ladder["measure"]] = ladder["failed_checks"]
    obs: dict[str, Any] = {
        "passed": report.passed,
        "expectations": [[e["name"], e["passed"]] for e in report.expectations],
        "failed_checks": failed,
    }
    if with_forms:
        prefix = report.experiment.lower() + "-"
        obs["forms"] = {
            label: _form_fingerprint(ladder.forms)
            for (label, _), ladder in sorted(experiments._LADDER_CACHE.items())
            if label.startswith(prefix) and ladder.forms is not None}
    return obs


def observe_estimate(est: escape.EscapeEstimate) -> dict:
    if est.method == "monte-carlo":
        return {"checkpoints": [[c["horizon"], c["value"]]
                                for c in est.details["checkpoints"]]}
    return {"value": est.value}


def _forms_differ(got: dict, ref: dict) -> str | None:
    if sorted(got) != sorted(ref):
        return f"cached ladders {sorted(got)} != {sorted(ref)}"
    with mpmath.workprec(FORM_PREC):
        for label, values in ref.items():
            if len(got[label]) != len(values):
                return f"{label}: depth {len(got[label]) - 1} != {len(values) - 1}"
            for n, (a, b) in enumerate(zip(got[label], values)):
                a, b = mpmath.mpf(a), mpmath.mpf(b)
                if abs(a - b) > FORM_RTOL * max(1, abs(b)):
                    return f"{label}: H_{n} = {a} != {b}"
    return None


def check_report(obs: dict, ref: dict) -> str | None:
    """Reason the report differs from its reference, or None."""
    if not obs["passed"]:
        return "expectations failed: " + ", ".join(
            name for name, ok in obs["expectations"] if not ok)
    for key in ("expectations", "failed_checks"):
        if obs[key] != ref[key]:
            return f"{key} differ from the reference"
    if "forms" in obs:
        return _forms_differ(obs["forms"], ref["forms"])
    return None


def limit_band(samples: int, miss: float = BAND_MISS / len(MC_LIMITS)) -> float:
    """Smallest half-width d with P(|X/n - 1/2| > d) <= miss, X ~ Bin(n, 1/2)."""
    total = 2 ** samples
    tail = 0  # P(X <= k) * 2^n
    for k in range(samples // 2 + 1):
        tail += math.comb(samples, k)
        if 2 * tail / total > miss:
            return (samples / 2 - k) / samples
    return 0.5


def check_estimate(name: str, obs: dict, ref: dict | None) -> str | None:
    """Reason the estimate ``"mc <family>"`` or ``"range <family>"`` is
    wrong, or None."""
    if ref is not None and obs != ref:
        return f"{name}: {obs} != reference {ref}"
    if "value" in obs:
        return None if 0 <= obs["value"] <= 1 else f"{name}: rate {obs['value']}"
    values = [v for _, v in obs["checkpoints"]]
    if any(a < b for a, b in zip(values, values[1:])):
        return f"{name}: checkpoint estimates increase: {values}"
    if name.split(" ", 1)[1] in MC_LIMITS:
        band = limit_band(MC_SAMPLES)
        if abs(values[-1] - 0.5) > band:
            return f"{name}: escape {values[-1]} outside 1/2 +- {band:.4f}"
    return None


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str

    def setup(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def observe(self, result: Any, full: bool) -> dict:
        """JSON summary of one operation's result, compared by ``check``."""
        raise NotImplementedError

    def check(self, seed: int, names: list[str], observations: list[dict],
              refs: dict) -> list[str | None]:
        """Per operation, the reason its output is wrong, or None."""
        raise NotImplementedError


class _Experiments(Workload):
    """Workloads made of whole experiment runs."""

    def configs(self, seed: int) -> list[experiments.ExperimentConfig]:
        raise NotImplementedError

    def reference_key(self, seed: int) -> str:
        raise NotImplementedError

    def setup(self, seed: int) -> list[Op]:
        return [Op(cfg.experiment,
                   lambda cfg=cfg: experiments.run_experiment(cfg))
                for cfg in self.configs(seed)]

    def observe(self, result, full):
        return observe_report(result, full)

    def check(self, seed, names, observations, refs):
        ref = refs[self.name][self.reference_key(seed)]
        return [check_report(obs, ref[name])
                for name, obs in zip(names, observations)]


class LadderWreath(_Experiments):
    """E4 then E5 in one process, to depth ``LADDER_N_MAX``; E5 reuses E4's
    cached ladders.  The seed picks p and sets the config seed."""

    name = "ladder-wreath"

    def configs(self, seed):
        p = LADDER_P[seed % len(LADDER_P)]
        return [experiments.ExperimentConfig(e, seed=seed, n_max=LADDER_N_MAX, p=p)
                for e in ("E4", "E5")]

    def reference_key(self, seed):
        return f"p={LADDER_P[seed % len(LADDER_P)]}"


class SuiteSmall(_Experiments):
    """E1, E6 and E7 at their default configs and the seed."""

    name = "suite-small"

    def configs(self, seed):
        return [experiments.ExperimentConfig(e, seed=seed) for e in SUITE_IDS]

    def reference_key(self, seed):
        # the observed outputs (flags, names, ladders) do not depend on the seed
        return "any-seed"


class EscapeMC(Workload):
    """``mc_escape`` on ``MC_SPECS`` and ``range_rate`` on ``RANGE_SPECS``;
    the seed keys the Philox streams."""

    name = "escape-mc"

    def setup(self, seed):
        laws = {spec: parsing.family_measure(spec)
                for spec in dict.fromkeys(MC_SPECS + RANGE_SPECS)}
        ops = [Op(f"mc {spec}",
                  lambda mu=laws[spec], s=seed * 65536 + i: escape.mc_escape(
                      mu, MC_HORIZON, MC_SAMPLES, s, checkpoints=MC_CHECKPOINTS))
               for i, spec in enumerate(MC_SPECS)]
        ops += [Op(f"range {spec}",
                   lambda mu=laws[spec], s=seed * 65536 + 100 + i: escape.range_rate(
                       mu, RANGE_STEPS, RANGE_SAMPLES, s))
                for i, spec in enumerate(RANGE_SPECS)]
        return ops

    def observe(self, result, full):
        return observe_estimate(result)

    def check(self, seed, names, observations, refs):
        ref = refs[self.name].get(f"seed={seed}")
        return [check_estimate(name, obs, ref[name] if ref else None)
                for name, obs in zip(names, observations)]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (LadderWreath(), EscapeMC(), SuiteSmall())}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
