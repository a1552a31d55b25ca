"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line in the terminal summary with its runtime."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from walklab import escape, groups, magnus, measures, parsing, walks
from walklab.exact_entropy import LogLinear
from walklab.groups import IntegerLattice
from walklab.measures import FiniteMeasure

F = Fraction
Z = IntegerLattice(1)
LOG2 = LogLinear.of_log(2)


def drifted_walk():
    return FiniteMeasure.from_pairs(Z, [((1,), F(3, 4)), ((-1,), F(1, 4))])


def test_criterion_01_exact_escape_interval(criterion):
    def run():
        est = escape.exact_escape_drifted_z(drifted_walk())
        assert est.hi - est.lo <= 1e-6, f"width {est.hi - est.lo:.2e}"
        assert est.lo <= 0.5 <= est.hi, f"[{est.lo}, {est.hi}] misses 0.5"
        s_lo, s_hi = est.details["series_lo"], est.details["series_hi"]
        assert 2 - 1e-5 <= s_lo <= s_hi <= 2 + 1e-5, \
            f"visit series [{s_lo}, {s_hi}]"
        return (f"interval [{est.lo:.9f}, {est.hi:.9f}] after {est.n} bisection steps; "
                f"visit series in [2 - 1e-5, 2 + 1e-5]")

    criterion(1, "exact escape interval brackets 1/2", run, budget=5)


def test_criterion_02_concentration_dominates(criterion):
    def run():
        mu = drifted_walk()
        bound = escape.drift_bound_z(mu)
        masses = escape.return_mass_series_z(mu, 40)
        for n, mass in enumerate(masses):
            cap = escape.hoeffding_return_bound(bound, n)
            assert float(mass) <= cap + 1e-15, \
                f"n={n}: mass {float(mass):.3e} above bound {cap:.3e}"
        return "exact return masses below the concentration bound, n <= 40"

    criterion(2, "concentration bound dominates the return masses", run,
              budget=1)


def test_criterion_03_sampling_estimators(criterion):
    def run():
        mu = drifted_walk()
        mc = escape.mc_escape(mu, 10_000, 100_000, seed=7)
        assert mc.lo <= 0.5 <= mc.hi, f"mc CI [{mc.lo:.5f}, {mc.hi:.5f}]"
        rr = escape.range_rate(mu, 10_000, 10_000, seed=7)
        assert rr.lo <= 0.5 <= rr.hi, f"range CI [{rr.lo:.5f}, {rr.hi:.5f}]"
        return (f"mc CI [{mc.lo:.5f}, {mc.hi:.5f}], "
                f"range CI [{rr.lo:.5f}, {rr.hi:.5f}], both contain 1/2")

    criterion(3, "Monte Carlo and range-rate intervals cover 1/2", run,
              budget=60)


def test_criterion_04_solvable_embedding(criterion):
    def run():
        rng = random.Random(2024)
        pairs = 1000
        for d in (2, 3):
            for m in (2, 3):
                for _ in range(pairs):
                    u = magnus.random_reduced_word(d, rng.randint(1, 12), rng)
                    v = magnus.random_reduced_word(d, rng.randint(1, 12), rng)
                    uv = magnus.concat_words(u, v)
                    lhs = magnus.magnus_embed(uv, d, m)
                    rhs = groups.multiply(
                        magnus.sdm_spec(d, m), magnus.magnus_embed(u, d, m),
                        magnus.magnus_embed(v, d, m))
                    assert lhs == rhs, f"homomorphism broke at d={d}, m={m}"

        comm = parsing.parse_word("[x1, x2]", 2)
        img = magnus.magnus_embed(comm, 2, 2)
        lamps, pos = img
        assert dict(lamps) == {(0, 0): (1, -1), (1, 0): (0, 1),
                               (0, 1): (-1, 0)} and pos == (0, 0), \
            f"commutator image changed: {img}"
        assert magnus.matrix_embed(comm, 2, 2).as_wreath() == img, \
            "matrix-form oracle disagrees on the commutator"
        for _ in range(50):
            w = magnus.random_reduced_word(2, rng.randint(1, 8), rng)
            assert (magnus.matrix_embed(w, 2, 2).as_wreath()
                    == magnus.magnus_embed(w, 2, 2))

        for m in (1, 2, 3):
            for _ in range(100):
                w = magnus.random_derived_series_word(2, m, 2, rng)
                assert magnus.is_identity(w, 2, m), \
                    f"derived-level-{m} word not killed at level {m}"
            witness = False
            for _ in range(20):
                w = magnus.random_derived_series_word(2, m - 1, 2, rng)
                if w and not magnus.is_identity(w, 2, m):
                    witness = True
                    break
            assert witness, f"no level-{m - 1} word separates level {m}"
        assert not magnus.is_identity(comm, 2, 2)
        assert magnus.is_identity(comm, 2, 1)
        return (f"{4 * pairs} products preserved (d, m in {{2, 3}}); "
                "commutator image frozen and matched by the matrix oracle; "
                "kernel = derived series with strictness witnesses")

    criterion(4, "wreath equivalent of the free solvable group", run,
              budget=30)


def test_criterion_05_conditional_entropy_rules(criterion):
    def run():
        specs = [
            ("uniform-z", measures.uniform_measure(Z, [(1,), (-1,)])),
            ("dinf-family", measures.dinf_family(F(3, 4), 3)),
        ]
        n = 3
        triples = [
            (walks.position_view(1), walks.position_view(2),
             walks.position_view(n)),
            (walks.increment_view(2), walks.endpoint_view(),
             walks.position_view(1)),
            (walks.coarse_view(2), walks.increment_view(1),
             walks.endpoint_view()),
        ]
        checked = 0
        for name, mu in specs:
            enum = walks.TrajectoryEnumeration(mu, n)
            for rho, gamma, delta in triples:
                joint = walks.joint_view
                cef = walks.conditional_entropy_form
                chain = (cef(enum, joint(rho, gamma), delta)
                         - cef(enum, rho, joint(gamma, delta))
                         - cef(enum, gamma, delta))
                assert chain.is_zero(), f"chain rule failed on {name}"
                refine = (cef(enum, joint(rho, delta), gamma)
                          - cef(enum, rho, gamma))
                assert refine.sign() >= 0, f"refinement failed on {name}"
                condition = (cef(enum, rho, gamma)
                             - cef(enum, rho, joint(gamma, delta)))
                assert condition.sign() >= 0, f"conditioning failed on {name}"
                checked += 3
        return (f"{checked} identities decided exactly over two step laws, "
                f"three view triples each, n = {n}")

    criterion(5, "conditional-entropy rules hold exactly", run, budget=10)


def test_criterion_06_coarse_record_identity(criterion):
    def run():
        mu = measures.uniform_measure(Z, [(1,), (-1,)])
        for n, t0 in ((4, 2), (6, 2), (6, 3)):
            form = walks.coarse_entropy_form(mu, n, t0)
            block = measures.exact_entropy(
                measures.convolution_power(mu, t0)).scale(n // t0)
            assert (form - block).is_zero(), f"(n, t0) = ({n}, {t0})"
            enum = walks.TrajectoryEnumeration(mu, n)
            via_view = walks.view_entropy_form(enum, walks.coarse_view(t0))
            assert (form - via_view).is_zero(), \
                f"enumerated view disagrees at (n, t0) = ({n}, {t0})"
        four_two = walks.coarse_entropy_form(mu, 4, 2)
        assert four_two == LOG2.scale(3), "H(coarse(4, 2)) != 3 log 2"
        assert abs(walks.coarse_entropy(mu, 4, 2) - 3 * math.log(2)) <= 1e-12
        return ("block formula = enumerated view entropy on (4,2), (6,2), "
                "(6,3); (4,2) equals 3 log 2 exactly")

    criterion(6, "coarse-record entropy identity", run, budget=10)


def test_criterion_07_product_additivity(criterion):
    def run():
        eta = parsing.f2_uniform()
        mu = measures.dinf_family(F(3, 4), 5)
        product = measures.product_measure(eta, mu)
        n = 5
        pl = walks.entropy_ladder(product, n)
        el = walks.entropy_ladder(eta, n)
        ml = walks.entropy_ladder(mu, n)
        for i in range(n + 1):
            gap = pl.forms[i] - (el.forms[i] + ml.forms[i])
            assert gap.is_zero(), f"additivity failed at n = {i}"
        return (f"H((eta x mu)^n) = H(eta^n) + H(mu^n) exactly for n <= {n}; "
                f"product support at n={n}: "
                f"{len(measures.convolution_power(product, n))}")

    criterion(7, "entropy adds over independent product factors", run,
              budget=60)


def test_criterion_08_radial_ladder_plateau(criterion):
    def run():
        ladder = walks.free_group_srw_ladder(2, 1000)
        diffs = ladder.diffs()
        target = 0.549306
        gap = abs(diffs[-1] - target)
        assert gap <= 0.02, f"|d_1000 - {target}| = {gap:.6f}"
        assert all(diffs[i + 1] <= diffs[i] + 1e-9
                   for i in range(len(diffs) - 1)), "increments not monotone"
        return (f"d_1000 = {diffs[-1]:.6f}, within 0.02 of {target}; "
                "increments nonincreasing")

    criterion(8, "radial free-group ladder reaches its plateau", run,
              budget=30)


def test_criterion_09_grid_ladder_invariants(criterion, experiment_reports):
    reports, timings = experiment_reports

    def run():
        count = 0
        for ident, report in sorted(reports.items()):
            for exp in report.expectations:
                if exp["name"] == "ladder-invariants":
                    assert exp["passed"], f"{ident}: {exp['detail']}"
            for row in report.results:
                ladder = row.get("ladder")
                if not ladder:
                    continue
                count += 1
                assert ladder["exact"], \
                    f"{ident} {ladder['measure']}: not exact"
                assert ladder["invariants_pass"], \
                    f"{ident} {ladder['measure']}: {ladder['failed_checks']}"
        return (f"{count} exact ladders across the experiment grids verified "
                "(subadditivity, monotone increments, increment <= mean)")

    criterion(9, "every grid ladder satisfies the exact invariants", run,
              budget=600, precomputed=sum(timings.values()))


def test_criterion_10a_vanishing_mc_escape(criterion, experiment_reports):
    reports, timings = experiment_reports

    def run():
        required = {
            "E2": ["mc-nonincreasing-in-horizon", "mc-final-below-0.1",
                   "limit-interval-above-0.45"],
            "E3": ["dinf-mc-nonincreasing", "dinf-mc-final-below-0.1",
                   "dinf-limit-interval-above-0.45", "bs11-mc-nonincreasing",
                   "bs11-mc-final-below-0.1",
                   "bs11-limit-interval-above-0.45"],
        }
        failures = []
        details = []
        for ident, names in required.items():
            have = {e["name"]: e for e in reports[ident].expectations}
            for name in names:
                exp = have[name]
                if "final" in name:
                    details.append(f"{ident} {name}: {exp['detail']}")
                if not exp["passed"]:
                    failures.append(f"{ident} {name}: {exp['detail']}")
        assert not failures, "; ".join(failures)
        return "; ".join(details)

    criterion(10, "part-a: sampled escape vanishes at every fixed depth", run,
              budget=900, precomputed=timings["E2"] + timings["E3"])


def test_criterion_10b_depth_ladders_and_gap(criterion, experiment_reports):
    reports, timings = experiment_reports

    def run():
        report = reports["E4"]
        have = {e["name"]: e for e in report.expectations}
        assert have["ladder-invariants"]["passed"], \
            have["ladder-invariants"]["detail"]
        assert have["gap-reported-not-asserted"]["passed"]
        grids = []
        last_gap = None
        for row in report.results:
            grids.append(row["grid"])
            assert row["ladder"]["n_max"] == 12
            assert row["ladder"]["exact"]
            if "gap_vs_limit" in row:
                assert len(row["gap_vs_limit"]) == 13
                last_gap = row["gap_vs_limit"][-1]
        assert grids == ["k=2", "k=8", "k=32", "limit"]
        return (f"exact ladders to n = 12 on k in {{2, 8, 32}} and the limit; "
                f"gap at n=12 for k=32: {last_gap:+.6f} (reported only)")

    criterion(10, "part-b: depth ladders verified, limit gap reported", run,
              budget=900, precomputed=timings["E4"])
