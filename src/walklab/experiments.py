"""Seeded, declarative experiment suite.

Seven packaged experiments exhibit the continuity and discontinuity
behaviour of escape probabilities and entropy ladders at desk scale:

* E1 escape-continuity: interpolation families with fixed support on the
  1-d and 2-d lattices; escape probabilities converge to the limit law's.
* E2 escape-discontinuity-drift: mean-zero laws (exactly checked) whose
  Monte Carlo escape decays with the horizon, while the limit law has a
  rigorous escape interval around 1/2.
* E3 escape-discontinuity-presentations: the dihedral and Baumslag-Solitar
  families; per-k walks are recurrent, the limit laws are transient and
  their escape is bracketed on their lattice normal form.
* E4 entropy-discontinuity-lamplighter: exact entropy ladders for the
  half-lamp/half-base mixtures over the infinite dihedral base; the
  k-versus-limit ladder gap is reported, not asserted.
* E5 positive-entropy-discontinuity: product laws on (free group) x
  (lamplighter); ladders decompose as exact sums, and the free factor's
  increment sequence plateaus near (1/2) log 3.
* E6 expected-visits: transient 1-d walks; the exact visit series against
  the reciprocal of the escape probability.
* E7 magnus-suite: homomorphism / kernel / tower checks for the wreath
  embedding of free solvable groups, plus ladders under small pointwise
  perturbations on the rank-3, derived-length-2 group.

Each experiment owns deterministic defaults; every Monte Carlo step derives
its streams from (config seed, grid index, sample index).  Reports are
plain JSON-able dictionaries; rerunning a config reproduces the report
byte-for-byte apart from the timestamp and wall-clock fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from math import exp, fsum, inf, isfinite, log
from random import Random
from typing import Any, Callable

from mpmath.libmp import to_rational

from . import __version__
from . import escape, groups, magnus, measures, walks
from .exact_entropy import _log_at
from .measures import FiniteMeasure
from .walks import EntropyLadder

_Z1 = groups.IntegerLattice(1)
_Z2 = groups.IntegerLattice(2)

HALF_LOG_3 = 0.5 * log(3.0)


def json_safe(obj: Any) -> Any:
    """Replace non-finite floats with ``None`` so output is strict JSON."""
    if isinstance(obj, float):
        return obj if isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run; unset numeric fields fall back to the
    experiment's documented defaults, and set ones must be positive and
    finite."""

    experiment: str
    seed: int = 7
    k_grid: tuple[int, ...] = ()
    n_max: int | None = None
    radial_n_max: int | None = None
    horizon: int | None = None
    samples: int | None = None
    cap: int | None = None
    p: Fraction = Fraction(3, 4)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"known: {', '.join(sorted(EXPERIMENTS))}")
        if any(k < 1 for k in self.k_grid):
            raise ConfigError("grid indices must be >= 1")
        for name in ("n_max", "radial_n_max", "horizon", "samples", "cap"):
            value = getattr(self, name)
            if value is not None and not 0 < value < inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {value}")
        if not 0 <= self.p <= 1:
            raise ConfigError(f"p must lie in [0, 1], got {self.p}")

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse the ``key = value`` config format ('#' starts a comment)."""
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            raw[key] = value
        kwargs: dict[str, Any] = {}
        converters: dict[str, Callable[[str], Any]] = {
            "experiment": str,
            "seed": int,
            "k_grid": lambda s: tuple(int(x) for x in s.split(",") if x.strip()),
            "n_max": int,
            "radial_n_max": int,
            "horizon": int,
            "samples": int,
            "cap": int,
            "p": Fraction,
        }
        for key, value in raw.items():
            if key not in converters:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                kwargs[key] = converters[key](value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})")
        if "experiment" not in kwargs:
            raise ConfigError("config must set 'experiment'")
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["p"] = str(self.p)
        data["k_grid"] = list(self.k_grid)
        return data


@dataclass
class ExperimentReport:
    """Echo of the config, ordered per-grid results, and the pass/fail of
    the experiment's declared expectations."""

    experiment: str
    config: dict[str, Any]
    results: list[dict[str, Any]]
    expectations: list[dict[str, Any]]
    passed: bool
    version: str
    wall_clock_s: float
    timestamp: str

    def _json(self, *drop: str) -> str:
        body = asdict(self)
        for key in drop:
            del body[key]
        return json.dumps(json_safe(body), sort_keys=True, indent=2,
                          default=str)

    def replay_payload(self) -> str:
        """Deterministic JSON: everything except timing fields."""
        return self._json("wall_clock_s", "timestamp")

    def to_json(self) -> str:
        return self._json()

    def ladder_csv(self) -> str:
        """CSV rows (n, H, ratio, diff) for every ladder in the results."""
        lines = ["measure,n,H,ratio,diff"]
        for ladder in _ladders(self.results):
            lines += [f"{ladder['measure']},{walks.csv_row(rec)}"
                      for rec in ladder["rows"]]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared helpers


_LADDER_CACHE: dict[tuple[str, int], EntropyLadder] = {}
# (step law, support cap, ladder) per key; holding the ladder too means an
# entry of _LADDER_CACHE that was replaced from outside is never taken as
# checked.
_LADDER_LAWS: dict[tuple[str, int], tuple[dict, int, EntropyLadder]] = {}


def _stale(key: tuple[str, int], law: dict, cap: int) -> bool:
    """Whether the cache lacks a ladder for ``key`` built from ``law``
    under ``cap``."""
    found = _LADDER_CACHE.get(key)
    return found is None or _LADDER_LAWS.get(key) != (law, cap, found)


def _store(key: tuple[str, int], law: dict, cap: int,
           ladder: EntropyLadder) -> None:
    _LADDER_CACHE[key] = ladder
    _LADDER_LAWS[key] = (law, cap, ladder)


def cached_exact_ladder(mu: FiniteMeasure, n_max: int, label: str,
                        cap: int) -> EntropyLadder:
    """Exact ladders are the dominant cost; reuse them across experiments
    within a process (keyed by label and depth).  An entry is reused only
    for the law and the support cap it was built under, since labels do not
    name every parameter (E3 and E4 leave out p) and a smaller cap must
    still raise its ``SupportCapError``."""
    key = (label, n_max)
    law = dict(mu.atoms())
    if _stale(key, law, cap):
        _store(key, law, cap,
               walks.entropy_ladder(mu, n_max, cap=cap, label=label))
    return _LADDER_CACHE[key]


def _cache_exact_ladders(laws: list[tuple[str, FiniteMeasure]], n_max: int,
                         cap: int) -> None:
    """Put in the cache every ``(label, law)`` ladder that
    :func:`cached_exact_ladder` would build, building the missing ones as
    families (:func:`walks.entropy_ladders`)."""
    missing = []
    for label, mu in laws:
        law = dict(mu.atoms())
        if _stale((label, n_max), law, cap):
            missing.append((label, mu, law))
    if not missing:
        return
    ladders = walks.entropy_ladders([mu for _, mu, _ in missing], n_max, cap,
                                    [label for label, _, _ in missing])
    for (label, _, law), ladder in zip(missing, ladders):
        _store((label, n_max), law, cap, ladder)


def _grid_seed(seed: int, index: int) -> int:
    """Per-grid-point seed; sample streams then key on (this, sample)."""
    return seed * 65536 + index


def _expect(name: str, passed: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _ladders(results: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The ladder summaries of result rows, in row order."""
    return [row["ladder"] for row in results if row.get("ladder")]


def _ladder_expectation(name: str, summaries: list[dict[str, Any]]) -> dict[str, Any]:
    bad = [s["measure"] for s in summaries if not s["invariants_pass"]]
    return _expect(
        name, not bad,
        "subadditivity, nonincreasing increments, increment <= running mean"
        + (f"; failing: {', '.join(bad)}" if bad else ""))


def _mc_estimate(cfg: ExperimentConfig, samples: int) -> Callable:
    """Monte Carlo escape at the grid seed, checkpointed at 10^3..10^5."""
    horizon = cfg.horizon or 100_000
    points = sorted({min(10 ** i, horizon) for i in (3, 4, 5)} | {horizon})
    return lambda mu, seed: escape.mc_escape(
        mu, horizon, cfg.samples or samples, seed, checkpoints=points)


def _family_rows(cfg: ExperimentConfig,
                 laws: list[tuple[str, str, str, FiniteMeasure]],
                 estimate: Callable, n_max: int, group: str,
                 seed_base: int = 0) -> tuple[list[dict], list]:
    """One row per ``(grid, ladder label, measure text, law)``: the escape
    record of ``estimate(law, grid seed)``, its checkpoints when sampled,
    and the summary of the law's cached exact ladder, the missing ladders
    being built first as families.  Returns the rows and the estimates."""
    cap = cfg.cap or measures.DEFAULT_SUPPORT_CAP
    _cache_exact_ladders([(label, mu) for _, label, _, mu in laws], n_max, cap)
    rows, estimates = [], []
    for idx, (grid, label, text, mu) in enumerate(laws):
        est = estimate(mu, _grid_seed(cfg.seed, seed_base + idx))
        row = {"grid": grid, "escape": est.to_record(group=group, measure=text)}
        if est.method == "monte-carlo":
            row["checkpoints"] = est.details["checkpoints"]
        row["ladder"] = cached_exact_ladder(mu, n_max, label, cap).summary()
        rows.append(row)
        estimates.append(est)
    return rows, estimates


def _mc_expectations(prefix: str, k_grid: tuple[int, ...],
                     estimates: list[escape.EscapeEstimate]) -> list[dict]:
    """Checkpoint estimates nonincreasing over nested horizons, and every
    final-horizon estimate below 0.1 (an unprefixed name is E2's)."""
    values = [[c["value"] for c in est.details["checkpoints"]]
              for est in estimates]
    mono = all(v[i] >= v[i + 1] for v in values for i in range(len(v) - 1))
    finals = [(k, v[-1]) for k, v in zip(k_grid, values)]
    return [
        _expect(f"{prefix}-mc-nonincreasing" if prefix
                else "mc-nonincreasing-in-horizon", mono,
                "checkpoint estimates evaluated on shared sample paths"),
        _expect(f"{prefix}-mc-final-below-0.1" if prefix
                else "mc-final-below-0.1", all(v < 0.1 for _, v in finals),
                f"final-horizon estimates {[(k, round(v, 5)) for k, v in finals]}"),
    ]


# ---------------------------------------------------------------------------
# E1: escape continuity on the 1-d and 2-d lattices


def _e1_panels() -> list[tuple[str, FiniteMeasure, FiniteMeasure, int]]:
    """(panel, limit law, spreading law, default ladder depth) per panel."""
    drift1 = FiniteMeasure.from_pairs(
        _Z1, [((1,), Fraction(3, 4)), ((-1,), Fraction(1, 4))])
    spread1 = measures.uniform_measure(_Z1, [(1,), (-1,)])
    drift2 = FiniteMeasure.from_pairs(
        _Z2, [((1, 0), Fraction(3, 8)), ((-1, 0), Fraction(1, 8)),
              ((0, 1), Fraction(1, 4)), ((0, -1), Fraction(1, 4))])
    spread2 = measures.uniform_measure(
        _Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    return [("Z", drift1, spread1, 16), ("Z2", drift2, spread2, 16)]


def _run_e1(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    k_grid = cfg.k_grid or (1, 2, 4, 8, 16, 32)
    results: list[dict] = []
    expectations: list[dict] = []
    for panel, limit_mu, spread_mu, depth in _e1_panels():
        laws = [(f"{panel} k={k}", f"e1-{panel}(k={k})", f"mix(1/{k})",
                 measures.mix(limit_mu, spread_mu, Fraction(1, k)))
                for k in k_grid]
        laws.append((f"{panel} limit", f"e1-{panel}(limit)", "limit", limit_mu))
        rows, ests = _family_rows(
            cfg, laws, lambda mu, _: escape.auto_escape(mu),
            cfg.n_max or depth, panel)
        limit_est = ests.pop()
        gaps = [(abs(est.value - limit_est.value),
                 (est.hi - est.lo) + (limit_est.hi - limit_est.lo))
                for est in ests]
        for row, (gap, _) in zip(rows, gaps):
            row["gap_to_limit"] = gap
        results += rows
        # the grid is ordered by increasing k, so gaps should shrink
        mono = all(gaps[i + 1][0] <= gaps[i][0] + gaps[i][1] + gaps[i + 1][1]
                   for i in range(len(gaps) - 1))
        closing = gaps[-1][0] < gaps[0][0] if len(gaps) > 1 else True
        expectations.append(_expect(
            f"escape-gap-shrinks-{panel}", mono and closing,
            f"gaps {[round(g, 6) for g, _ in gaps]} along k grid {list(k_grid)}"))
    expectations.append(_ladder_expectation("ladder-invariants",
                                            _ladders(results)))
    return results, expectations


# ---------------------------------------------------------------------------
# E2: discontinuity via mean-zero drift family on the 1-d lattice


def _run_e2(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    k_grid = cfg.k_grid or (1, 2, 4)
    n_max = cfg.n_max or 24
    laws = [(f"k={k}", f"e2-mu(k={k})", f"z_drift(k={k})",
             measures.z_drift_family(k)) for k in k_grid]
    means = [escape.drift_bound_z(mu).mean for *_, mu in laws]
    results, ests = _family_rows(cfg, laws, _mc_estimate(cfg, 10_000),
                                 n_max, "Z")
    for row, mean in zip(results, means):
        row["mean"] = str(mean)
    limit_rows, (limit_est,) = _family_rows(
        cfg, [("limit", "e2-mu(limit)", "z_drift(limit)",
               measures.z_drift_family())],
        lambda mu, _: escape.exact_escape_drifted_z(mu), n_max, "Z")
    results += limit_rows
    expectations = [
        _expect("mean-zero-each-k", all(mean == 0 for mean in means),
                f"exact step means vanish for k in {list(k_grid)}"),
        *_mc_expectations("", k_grid, ests),
        _expect("limit-interval-above-0.45", limit_est.lo > 0.45,
                f"rigorous interval [{limit_est.lo:.8f}, {limit_est.hi:.8f}]"),
        _ladder_expectation("ladder-invariants", _ladders(results)),
    ]
    return results, expectations


# ---------------------------------------------------------------------------
# E3: discontinuity on the dihedral and Baumslag-Solitar presentations


def _run_e3(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    k_grid = cfg.k_grid or (1, 2, 4)
    n_max = cfg.n_max or 20
    p = cfg.p
    results: list[dict] = []
    expectations: list[dict] = []
    panels = [("dinf", "Dinf", measures.dinf_family),
              ("bs11", "BS(1,-1)", measures.bs11_family)]
    for panel_idx, (panel, group_text, member) in enumerate(panels):
        laws = [(f"{panel} k={k}", f"e3-{panel}(k={k})",
                 f"{panel}(p={p}, k={k})", member(p, k)) for k in k_grid]
        rows, ests = _family_rows(cfg, laws, _mc_estimate(cfg, 3_000), n_max,
                                  group_text, seed_base=100 * panel_idx)
        limit_rows, (limit_est,) = _family_rows(
            cfg, [(f"{panel} limit", f"e3-{panel}(limit)",
                   f"{panel}(p={p}, limit)", member(p))],
            lambda mu, _: escape.auto_escape(mu), n_max, group_text)
        results += rows + limit_rows
        expectations += _mc_expectations(panel, k_grid, ests)
        expectations.append(_expect(
            f"{panel}-limit-interval-above-0.45", limit_est.lo > 0.45,
            f"rigorous interval [{limit_est.lo:.8f}, {limit_est.hi:.8f}] "
            "via escape.lattice_law (the lattice normal form)"))
        if panel == "dinf":
            target = float(abs(1 - 2 * p))
            expectations.append(_expect(
                "dinf-limit-matches-drift-formula",
                limit_est.lo <= target <= limit_est.hi,
                f"reduced 1-d walk: |1 - 2p| = {target} inside the interval"))
    expectations.append(_ladder_expectation("ladder-invariants",
                                            _ladders(results)))
    return results, expectations


# ---------------------------------------------------------------------------
# E4: entropy discontinuity for lamp/base mixtures over the dihedral base


def _lamplighter_ladder(cfg: ExperimentConfig,
                        k: int | None = None) -> EntropyLadder:
    """E4's exact ladder of the lamplighter law at depth k (the limit for
    None); E5 reuses the same ladders as its base factors."""
    index = "limit" if k is None else f"k={k}"
    return cached_exact_ladder(
        measures.lamplighter_family(cfg.p, k), cfg.n_max or 12,
        f"e4-nu({index})", cfg.cap or measures.DEFAULT_SUPPORT_CAP)


def _run_e4(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    k_grid = cfg.k_grid or (2, 8, 32)
    # every ladder is built before any is verified, which keeps the sign
    # machinery's caches out of the convolutions' peak memory
    limit_ladder = _lamplighter_ladder(cfg)
    ladders = [(f"k={k}", _lamplighter_ladder(cfg, k)) for k in k_grid]
    results: list[dict] = [{
        "grid": grid,
        "ladder": ladder.summary(),
        "gap_vs_limit": [
            ladder.values[n] - limit_ladder.values[n]
            for n in range(min(ladder.n_max, limit_ladder.n_max) + 1)],
    } for grid, ladder in ladders]
    results.append({"grid": "limit", "ladder": limit_ladder.summary()})
    expectations = [
        _ladder_expectation("ladder-invariants", _ladders(results)),
        _expect("gap-reported-not-asserted", True,
                "finite-depth ladders cannot certify the limit gap; "
                "per-n gaps appear in the results"),
    ]
    return results, expectations


# ---------------------------------------------------------------------------
# E5: positive-entropy discontinuity via products with a free factor


def _run_e5(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    k_grid = cfg.k_grid or (2, 8, 32)
    radial_n = cfg.radial_n_max or 2000
    p = cfg.p
    bases = [(f"k={k}", _lamplighter_ladder(cfg, k)) for k in k_grid]
    bases.append(("limit", _lamplighter_ladder(cfg)))
    free_exact = walks.free_group_srw_ladder(2, bases[0][1].n_max, exact=True)
    results: list[dict] = [{"grid": "free-factor",
                            "ladder": free_exact.summary()}]
    expectations: list[dict] = []
    for grid, base_ladder in bases:
        product_ladder = EntropyLadder.sum_of(
            free_exact, base_ladder, f"e5-product({grid})")
        results.append({"grid": f"product {grid}",
                        "ladder": product_ladder.summary()})
    # honest decomposition check: direct convolution on the product group
    check_n = 3
    direct_nu = measures.f2product_family(p, k_grid[0])
    eta_l = walks.entropy_ladder(measures.f2_uniform(), check_n,
                                 label="f2-uniform")
    mu_l = _lamplighter_ladder(cfg, k_grid[0])
    direct_l = walks.entropy_ladder(
        direct_nu, check_n, cap=cfg.cap or measures.DEFAULT_SUPPORT_CAP,
        label="direct-product")
    decompose_ok = all(
        (direct_l.forms[n] - (eta_l.forms[n] + mu_l.forms[n])).is_zero()
        for n in range(check_n + 1))
    expectations.append(_expect(
        "product-ladder-equals-factor-sum", decompose_ok,
        f"direct convolution against factor-ladder sum, exact, n <= {check_n}"))
    radial = walks.free_group_srw_ladder(2, radial_n, exact=False)
    diffs = radial.diffs()
    # d_i - d_(i+1) = 2 H_(i+1) - H_i - H_(i+2), bounded below from the
    # binary64 ends; fsum rounds that bound once, so its sign is exact
    lo, hi = zip(*radial.bounds)
    undecided = [i for i in range(radial_n - 1)
                 if fsum((2 * lo[i + 1], -hi[i], -hi[i + 2])) <= 0]
    probe = min(1000, radial_n)
    # d_(probe-1) - (1/2) log 3 over the ends of H and of log 3, exactly
    log3_lo, log3_hi = (Fraction(*to_rational(x)) for x in _log_at(3, 80))
    plateau_gap = max(
        Fraction(hi[probe]) - Fraction(lo[probe - 1]) - log3_lo / 2,
        log3_hi / 2 - Fraction(lo[probe]) + Fraction(hi[probe - 1]))
    results.append({
        "grid": "radial-free-ladder",
        "n_max": radial_n,
        "diff_at_1000": diffs[probe - 1],
        "half_log_3": HALF_LOG_3,
        "ratio_at_end": radial.values[-1] / radial_n,
    })
    expectations.append(_expect(
        "radial-increments-nonincreasing", not undecided,
        f"enclosed ladder to n = {radial_n}: "
        + (f"d_i > d_(i+1) not certified at i = {undecided[0]}" if undecided
           else "every d_i > d_(i+1) certified")))
    expectations.append(_expect(
        "radial-plateau-near-half-log3", plateau_gap <= Fraction(1, 50),
        f"|d_{probe} - {HALF_LOG_3:.6f}| <= {float(plateau_gap):.6f} "
        "on the enclosure"))
    expectations.append(_ladder_expectation("ladder-invariants",
                                            _ladders(results)))
    return results, expectations


# ---------------------------------------------------------------------------
# E6: expected visits against the escape probability


def _e6_walks() -> list[tuple[str, FiniteMeasure]]:
    def z_measure(pairs):
        return FiniteMeasure.from_pairs(
            _Z1, [((x,), w) for x, w in pairs])

    return [
        ("3/4-1/4", z_measure([(1, Fraction(3, 4)), (-1, Fraction(1, 4))])),
        ("2/3-1/3", z_measure([(1, Fraction(2, 3)), (-1, Fraction(1, 3))])),
        ("jump2-half", z_measure([(2, Fraction(1, 2)), (-1, Fraction(1, 2))])),
    ]


def _run_e6(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    hoeff_n = cfg.n_max or 40
    results: list[dict] = []
    hoeff_ok: list[bool] = []
    inverse_ok: list[bool] = []
    for name, mu in _e6_walks():
        est = escape.exact_escape_drifted_z(mu)
        bound = escape.drift_bound_z(mu)
        masses = escape.return_mass_series_z(mu, hoeff_n)
        hoeff_ok.append(all(
            masses[n] <= escape.hoeffding_return_bound(bound, n)
            for n in range(1, hoeff_n + 1)))
        s_lo, s_hi = est.details["series_lo"], est.details["series_hi"]
        partial, q = sum(masses), exp(-bound.rate)
        inverse_ok.append(partial <= s_lo and s_hi <= float(partial)
                          + 2 * q ** (hoeff_n + 1) / (1 - q))
        results.append({"walk": name,
                        "escape": est.to_record(group="Z", measure=name),
                        "hoeffding_dominated_to_n": hoeff_n})
    anchor = results[0]["escape"]  # the 3/4-1/4 walk
    s_lo, s_hi = anchor["detail_series_lo"], anchor["detail_series_hi"]
    expectations = [
        _expect("gambler-ruin-series-near-2",
                2 - 1e-5 <= s_lo and s_hi <= 2 + 1e-5,
                f"visit-series bracket [{s_lo:.8f}, {s_hi:.8f}]"),
        _expect("interval-contains-half",
                anchor["lo"] <= 0.5 <= anchor["hi"]
                and anchor["hi"] - anchor["lo"] <= 1e-6,
                "3/4-1/4 walk, rigorous interval of width <= 1e-6"),
        _expect("hoeffding-dominance", all(hoeff_ok),
                f"exact return mass <= concentration bound, n <= {hoeff_n}"),
        _expect("series-inverse-consistency", all(inverse_ok),
                f"S_{hoeff_n} <= G <= S_{hoeff_n} + concentration tail, for the "
                "visit-series partial sum S and G from the closed form"),
    ]
    return results, expectations


# ---------------------------------------------------------------------------
# E7: the wreath-embedding suite for free solvable groups


def _run_e7(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    pairs_per = cfg.samples or 1000
    word_len = 12
    n_max = cfg.n_max or 5
    cap = cfg.cap or measures.DEFAULT_SUPPORT_CAP
    rng = Random(cfg.seed)
    results: list[dict] = []
    hom_fail = 0
    hom_total = 0
    for d in (2, 3):
        for m in (2, 3):
            fails = 0
            for _ in range(pairs_per):
                lu = rng.randint(1, word_len)
                lv = rng.randint(1, word_len)
                u = magnus.random_reduced_word(d, lu, rng)
                v = magnus.random_reduced_word(d, lv, rng)
                image = groups.multiply(
                    magnus.sdm_spec(d, m), magnus.magnus_embed(u, d, m),
                    magnus.magnus_embed(v, d, m))
                if image != magnus.magnus_embed(
                        magnus.concat_words(u, v), d, m):
                    fails += 1
            hom_fail += fails
            hom_total += pairs_per
            results.append({"check": f"homomorphism d={d} m={m}",
                            "pairs": pairs_per, "failures": fails})
    kernel_ok: dict[int, bool] = {}
    witness_counts: dict[int, int] = {}
    for m in (2, 3):
        kernel_ok[m] = all([
            magnus.is_identity(magnus.random_derived_series_word(2, m, 2, rng),
                               2, m)
            for _ in range(100)])
        witnesses = 0
        for _ in range(20):
            w = magnus.random_derived_series_word(2, m - 1, 2, rng)
            if not magnus.is_identity(w, 2, m):
                witnesses += 1
        witness_counts[m] = witnesses
        results.append({"check": f"kernel level {m}", "words": 100,
                        "all_identity": kernel_ok[m],
                        "strictness_witnesses_level_below": witnesses})
    anchor_ok = (not magnus.is_identity((1, 2, -1, -2), 2, 2)
                 and magnus.is_identity((1, 2, -1, -2), 2, 1))
    tower_ok = True
    abel_ok = True
    for _ in range(200):
        d = rng.choice((2, 3))
        m = rng.choice((2, 3))
        w = magnus.random_reduced_word(d, rng.randint(1, word_len), rng)
        img = magnus.magnus_embed(w, d, m)
        # a level-m element is (lamps, level-(m-1) position)
        if img[1] != magnus.magnus_embed(w, d, m - 1):
            tower_ok = False
        if m == 2 and img[1] != magnus.abelianize_word(w, d):
            abel_ok = False
    results.append({"check": "tower-projection", "words": 200,
                    "pass": tower_ok and abel_ok})
    # ladders under small pointwise perturbations, rank 3, derived length 2
    sdm = magnus.sdm_spec(3, 2)
    gens = [magnus.magnus_embed((s * i,), 3, 2)
            for i in (1, 2, 3) for s in (1, -1)]
    base_sixth = 1.0 / 6.0
    eps_denoms = (12, 24, 48)
    laws = [FiniteMeasure.from_pairs(
        sdm, [(g, base_sixth) for g in gens], exact=False)]
    labels = ["s32-uniform"]
    for eps_denom in eps_denoms:
        eps = 1.0 / eps_denom
        pairs = [(g, base_sixth) for g in gens[2:]]
        pairs.append((gens[0], base_sixth + eps))
        pairs.append((gens[1], base_sixth - eps))
        laws.append(FiniteMeasure.from_pairs(sdm, pairs, exact=False))
        labels.append(f"s32-perturbed(1/{eps_denom})")
    # one family: the laws share their support
    ladder0, *perturbed = walks.entropy_ladders(laws, n_max, cap, labels)
    summaries = [ladder.summary() for ladder in (ladder0, *perturbed)]
    tables = []
    sups = []
    for eps_denom, ladder in zip(eps_denoms, perturbed):
        eps = 1.0 / eps_denom
        gap = [abs(ladder.values[n] - ladder0.values[n])
               for n in range(n_max + 1)]
        tables.append({"epsilon": eps, "ladder_gap": gap,
                       "pointwise_gap": eps})
        sups.append(max(gap))
    results.append({
        "check": "perturbation-ladders",
        "note": ("proximity under perturbation is reported only; "
                 "no prescribed tolerance exists for it"),
        "tables": tables,
    })
    shrinking = all(sups[i] > sups[i + 1] for i in range(len(sups) - 1))
    expectations = [
        _expect("homomorphism-pairs", hom_fail == 0,
                f"{hom_total} random pairs across d in (2,3), m in (2,3)"),
        _expect("kernel-words-identity", all(kernel_ok.values()),
                "level-m derived-series words embed to the identity"),
        _expect("strictness-witness",
                all(v >= 1 for v in witness_counts.values()),
                f"non-identity lower-level words per level: {witness_counts}"),
        _expect("derived-anchor-word", anchor_ok,
                "x1 x2 x1^-1 x2^-1: nontrivial at depth 2, trivial at depth 1"),
        _expect("tower-and-abelianization-consistency", tower_ok and abel_ok,
                "base projection and position vector agree across levels"),
        _ladder_expectation("ladder-invariants-float", summaries),
        _expect("perturbation-gap-shrinks", shrinking,
                f"sup ladder gaps {[round(s, 6) for s in sups]} for "
                "epsilon = 1/12, 1/24, 1/48 (engineering observation)"),
    ]
    return results, expectations


# ---------------------------------------------------------------------------
# registry and runner


#: experiment id -> (description, runner)
EXPERIMENTS: dict[str, tuple[str, Callable[[ExperimentConfig],
                                           tuple[list[dict], list[dict]]]]] = {
    "E1": ("escape continuity for interpolation families on the 1-d and "
           "2-d lattices", _run_e1),
    "E2": ("escape discontinuity: mean-zero drift family against its "
           "drifted limit", _run_e2),
    "E3": ("escape discontinuity on the dihedral and Baumslag-Solitar "
           "presentations", _run_e3),
    "E4": ("entropy ladders for lamp/base mixtures over the dihedral base "
           "(gap reported)", _run_e4),
    "E5": ("positive-entropy discontinuity via products with a free factor",
           _run_e5),
    "E6": ("expected visit series against escape probabilities on "
           "transient 1-d walks", _run_e6),
    "E7": ("wreath-embedding suite for free solvable groups with "
           "perturbation ladders", _run_e7),
}


def list_experiments() -> list[tuple[str, str]]:
    return [(ident, description)
            for ident, (description, _) in EXPERIMENTS.items()]


def run_experiment(config: ExperimentConfig | str) -> ExperimentReport:
    if isinstance(config, str):
        config = ExperimentConfig(experiment=config)
    start = time.perf_counter()
    results, expectations = EXPERIMENTS[config.experiment][1](config)
    elapsed = time.perf_counter() - start
    return ExperimentReport(
        experiment=config.experiment,
        config=config.to_dict(),
        results=results,
        expectations=expectations,
        passed=all(e["passed"] for e in expectations),
        version=__version__,
        wall_clock_s=elapsed,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
