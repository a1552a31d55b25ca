"""Escape estimators: closed forms, exact visit series, concentration bounds,
samplers, lattice normal form."""

from __future__ import annotations

import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import exp, nextafter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from walklab import cli, escape, groups, measures, rng
from walklab.escape import (
    DriftBound,
    EscapeError,
    auto_escape,
    drift_bound_z,
    exact_escape_drifted_z,
    exact_escape_drifted_z2,
    first_return_times,
    hoeffding_return_bound,
    lattice_law,
    mc_escape,
    range_rate,
    recurrence_zero,
    return_mass_series_z,
)
from walklab.groups import BS11, DINF, IntegerLattice
from walklab.measures import FiniteMeasure, MeasureError, uniform_measure

F = Fraction
Z = IntegerLattice(1)
Z2 = IntegerLattice(2)


def biased_pm1(p):
    return FiniteMeasure.from_pairs(Z, [((1,), F(p)), ((-1,), 1 - F(p))])


def z2_drift():
    return FiniteMeasure.from_pairs(
        Z2, [((1, 0), F(3, 8)), ((-1, 0), F(1, 8)),
             ((0, 1), F(1, 4)), ((0, -1), F(1, 4))])


def z2_weak_drift():
    """Drift 1/50 along x: a visit series would need about 99,000 terms."""
    return FiniteMeasure.from_pairs(
        Z2, [((1, 0), F(13, 50)), ((-1, 0), F(12, 50)),
             ((0, 1), F(1, 4)), ((0, -1), F(1, 4))])


# ---------------------------------------------------------------------------
# drift bounds and return-mass series


def test_drift_bound_fields():
    b = drift_bound_z(biased_pm1(F(3, 4)))
    assert (b.lo, b.hi, b.mean) == (F(-1), F(1), F(1, 2))
    assert b.rate == 0.125


def test_drift_bound_rejects_mean_outside_support():
    with pytest.raises(EscapeError):
        DriftBound(F(0), F(1), F(2))


def float_pm1():
    return FiniteMeasure.from_pairs(Z, [((1,), 0.75), ((-1,), 0.25)],
                                    exact=False)


def test_drift_bound_rejects_wrong_spec_and_float_mode():
    with pytest.raises(EscapeError):
        drift_bound_z(uniform_measure(Z2, [(1, 0), (-1, 0)]))
    with pytest.raises(MeasureError, match="rational weights"):
        drift_bound_z(float_pm1())


def test_hoeffding_bound_value():
    b = drift_bound_z(biased_pm1(F(3, 4)))
    assert hoeffding_return_bound(b, 8) == pytest.approx(
        0.7357588823428847, abs=1e-15)


def test_hoeffding_degenerate_widths():
    assert hoeffding_return_bound(DriftBound(F(1), F(1), F(1)), 5) == 0.0
    assert hoeffding_return_bound(DriftBound(F(0), F(0), F(0)), 5) == 2.0


def test_return_mass_series_fair_coin():
    masses = return_mass_series_z(uniform_measure(Z, [(1,), (-1,)]), 4)
    assert masses == [F(1), F(0), F(1, 2), F(0), F(3, 8)]


def test_return_mass_series_biased():
    masses = return_mass_series_z(biased_pm1(F(3, 4)), 4)
    assert masses[2] == F(3, 8)
    assert masses[4] == F(27, 128)


def test_hoeffding_dominates_exact_masses():
    mu = biased_pm1(F(3, 4))
    b = drift_bound_z(mu)
    masses = return_mass_series_z(mu, 40)
    for n, mass in enumerate(masses):
        assert float(mass) <= hoeffding_return_bound(b, n) + 1e-15


def fraction_masses(mu):
    """mu^{*n}(0) for n = 1, 2, ... by the dict-of-Fraction convolution that
    the integer generator replaced (the reference)."""
    dist = {0: F(1)}
    while True:
        nxt = {}
        for pos, w in dist.items():
            for (x,), wx in mu.atoms():
                nxt[pos + x] = nxt.get(pos + x, F(0)) + w * wx
        dist = nxt
        yield dist.get(0, F(0))


def z_law(steps, counts):
    total = sum(counts)
    return FiniteMeasure.from_pairs(
        Z, [((x,), F(c, total)) for x, c in zip(steps, counts)])


z_laws = st.integers(1, 5).flatmap(lambda size: st.builds(
    z_law, st.lists(st.integers(-3, 3), min_size=size, max_size=size, unique=True),
    st.lists(st.integers(1, 12), min_size=size, max_size=size)))


@given(z_laws)
@example(z_law((1, 0, -1, 2), (3, 4, 2, 3)))  # 1/4, 1/3, 1/6, 1/4: lcm 12
@example(z_law((0,), (1,)))
@settings(max_examples=60, deadline=None)
def test_return_masses_match_fraction_convolution(mu):
    assert return_mass_series_z(mu, 30) == [F(1), *islice(fraction_masses(mu), 30)]


def test_return_masses_stay_sparse_for_wide_steps():
    mu = FiniteMeasure.from_pairs(
        Z, [((2 ** 40,), F(1, 4)), ((-2 ** 40,), F(1, 6)), ((1,), F(1, 3)),
            ((-1,), F(1, 4))])
    masses = return_mass_series_z(mu, 30)
    assert masses == [F(1), *islice(fraction_masses(mu), 30)]
    assert masses[2] == 2 * (F(1, 4) * F(1, 6) + F(1, 3) * F(1, 4))


def concentration_q(mu):
    """``exp(-rate)`` rounded up, exactly: ``mu^{*n}(0) <= 2 q^n``."""
    return F(nextafter(exp(-drift_bound_z(mu).rate), 1.0))


def series_window(mu, n_terms):
    """``[1/(S + t), 1/S]``, which holds the escape probability: S sums the
    exact masses mu^{*n}(0) for n <= n_terms and t bounds the rest by the
    concentration tail ``sum_{n > n_terms} 2 q^n``."""
    partial = sum(return_mass_series_z(mu, n_terms))
    q = concentration_q(mu)
    return 1 / (partial + 2 * q ** (n_terms + 1) / (1 - q)), 1 / partial


def meets(est, window):
    """The estimate's bracket meets the exact window ``(lo, hi)``."""
    return F(est.lo) <= window[1] and window[0] <= F(est.hi)


@pytest.mark.parametrize("steps,counts", [
    ((1, -1), (3, 1)),
    ((2, -1), (1, 1)),
    ((1, 0, -1), (6, 1, 1)),
], ids=["3/4-1/4", "jump2-half", "identity-atom"])
def test_exact_escape_matches_the_fraction_series(steps, counts):
    """The root bracket meets the window of 500 exact masses, which is
    under 1e-9 wide for these laws: the closed form and the visit series
    agree to that width."""
    mu = z_law(steps, counts)
    est = exact_escape_drifted_z(mu)
    window = series_window(mu, 500)
    assert window[1] - window[0] < F(1, 10 ** 9)
    assert meets(est, window)
    assert est.method == "root-closed-form" and est.hi - est.lo <= 1e-12


@st.composite
def skip_free_laws(draw):
    """Drifted laws with a step -1, steps up to 3 and perhaps an identity
    atom, over a denominator up to 1000, reflected or not; the drift points
    away from the -1 step, so the law is skip-free either way."""
    steps = [-1, *draw(st.lists(st.integers(1, 3), min_size=1, max_size=3,
                                unique=True))]
    if draw(st.booleans()):
        steps.append(0)
    den = draw(st.integers(len(steps), 1000))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1),
                                min_size=len(steps) - 1,
                                max_size=len(steps) - 1, unique=True)))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    assume(sum(x * c for x, c in zip(steps, counts)) > 0)
    sign = draw(st.sampled_from((1, -1)))
    return FiniteMeasure.from_pairs(
        Z, [((sign * x,), F(c, den)) for x, c in zip(steps, counts)])


@given(skip_free_laws())
@example(z_law((1, -1), (51, 49)))
@example(z_law((-3, 0, 1), (7, 2, 1)))  # drift -2, reflected
@settings(max_examples=30, deadline=None)
def test_root_bracket_meets_the_visit_series_of_random_skip_free_laws(mu):
    """Drifts of both signs and sizes: the root bracket meets the window of
    200 exact masses closed by their concentration tail, and is at most
    1e-12 wide."""
    est = exact_escape_drifted_z(mu)
    assert meets(est, series_window(mu, 200))
    assert est.hi - est.lo <= 1e-12


def _fraction_step_root(mu):
    """The root bracket by bisection on Fractions: ``(lo, hi, n)``."""
    den, steps = escape._z1_steps(mu)
    if sum(x * a for x, a in steps) < 0:
        steps = [(-x, a) for x, a in steps]
    coeffs = [0] * (max(1, max(x for x, _ in steps) + 1) + 1)
    coeffs[1] = den
    for x, a in steps:
        coeffs[x + 1] -= a
    slope = escape._derivative(coeffs)
    bend = -sum(escape._derivative(slope))
    lo, hi, n = F(0), F(1 if coeffs[0] else 0), 0
    while ((hi - lo) * bend > escape._ROOT_WIDTH * den
           or escape._horner(slope, hi) <= 0):
        mid, n = (lo + hi) / 2, n + 1
        sign = escape._horner(coeffs, mid)
        lo = mid if sign <= 0 else lo
        hi = mid if sign >= 0 else hi
    return lo, hi, n


@given(skip_free_laws())
@example(z_law((1, -1), (51, 49)))
@example(z_law((1, -1), (3, 1)))      # the root 1/3 is not dyadic
@example(z_law((1, -1), (2, 1)))      # the root 1/2 is hit exactly
@example(z_law((1, 0), (1, 1)))       # no step against the drift: z_1 = 0
@settings(max_examples=60, deadline=None)
def test_dyadic_root_bisection_equals_the_fraction_bisection(mu):
    assert escape._step_root(mu)[2:] == _fraction_step_root(mu)


# ---------------------------------------------------------------------------
# closed forms


def test_exact_escape_frozen_interval():
    est = exact_escape_drifted_z(biased_pm1(F(3, 4)))
    assert est.method == "root-closed-form"
    assert (est.lo, est.hi) == (0.49999999999999994, 0.5000000000000001)
    assert est.n == 61
    assert (est.details["series_lo"], est.details["series_hi"]) == (
        1.9999999999999998, 2.0000000000000004)


@pytest.mark.parametrize("p", [F(2, 3), F(3, 4), F(7, 8), F(1, 3)])
def test_exact_escape_matches_gamblers_ruin(p):
    # For the +1/-1 walk the escape probability is |p - q| in closed form.
    est = exact_escape_drifted_z(biased_pm1(p))
    assert est.hi - est.lo <= 1e-12
    assert F(est.lo) <= abs(2 * p - 1) <= F(est.hi)


def test_exact_escape_transient_support_is_one():
    est = exact_escape_drifted_z(measures.point_mass(Z, (1,)))
    assert (est.value, est.lo, est.hi) == (1.0, 1.0, 1.0)
    assert est.n == 0


def test_exact_escape_rejects_mean_zero():
    with pytest.raises(EscapeError):
        exact_escape_drifted_z(uniform_measure(Z, [(1,), (-1,)]))


def test_exact_escape_z2_frozen_value():
    est = exact_escape_drifted_z2(z2_drift())
    assert est.method == "agm-closed-form"
    assert est.hi - est.lo <= 1e-12
    assert est.lo == pytest.approx(0.6383764921089116, abs=1e-15)
    assert est.hi == pytest.approx(0.6383764921089117, abs=1e-15)
    again = exact_escape_drifted_z2(z2_drift())
    assert (again.lo, again.hi) == (est.lo, est.hi)


def test_exact_escape_z2_one_signed_axis():
    # x only grows, so a return needs every step vertical: the visit series
    # is sum_m C(2m, m) 16^-m = 2 / sqrt(3)
    mu = FiniteMeasure.from_pairs(Z2, [((1, 0), F(1, 2)), ((0, 1), F(1, 4)),
                                       ((0, -1), F(1, 4))])
    est = exact_escape_drifted_z2(mu)
    assert F(est.lo) ** 2 <= F(3, 4) <= F(est.hi) ** 2
    assert est.hi - est.lo <= 1e-12


def nearest_neighbour_law(east, west, north, south):
    total = east + west + north + south
    return FiniteMeasure.from_pairs(Z2, [
        (step, F(w, total)) for step, w in
        (((1, 0), east), ((-1, 0), west), ((0, 1), north), ((0, -1), south))
        if w])


def escape_by_quadrature(law: FiniteMeasure) -> mpmath.mpf:
    """1/G at 30 digits, with G = int_0^oo e^-t I_0(at) I_0(bt) dt,
    a = 2 sqrt(p_E p_W) and b = 2 sqrt(p_N p_S), by numerical quadrature."""
    def twice_root(q):
        return 2 * mpmath.sqrt(mpmath.mpf(q.numerator) / q.denominator)

    w = law.weight_of
    with mpmath.workdps(30):
        a = twice_root(w((1, 0)) * w((-1, 0)))
        b = twice_root(w((0, 1)) * w((0, -1)))
        return 1 / mpmath.quad(lambda t: mpmath.exp(-t) * mpmath.besseli(0, a * t)
                               * mpmath.besseli(0, b * t), [0, mpmath.inf])


axis_weights = st.tuples(st.integers(0, 6), st.integers(0, 6))
nearest_neighbour_laws = st.one_of(
    st.tuples(axis_weights, st.just((0, 0))),  # one axis
    st.tuples(axis_weights, axis_weights),
).filter(lambda w: w[0][0] != w[0][1] or w[1][0] != w[1][1]).map(
    lambda w: nearest_neighbour_law(*w[0], *w[1]))


@given(nearest_neighbour_laws)
@example(z2_weak_drift())
@example(nearest_neighbour_law(6, 5, 6, 6))
@settings(max_examples=15, deadline=None)
def test_exact_escape_z2_contains_the_quadrature_of_its_green_function(mu):
    """The closed form against an independent reference: the bracket holds
    1/G with G integrated by ``mpmath.quad``, and is at most 1e-12 wide."""
    est = exact_escape_drifted_z2(mu)
    assert est.method == "agm-closed-form"
    assert est.lo <= escape_by_quadrature(mu) <= est.hi
    assert est.hi - est.lo <= 1e-12


def test_exact_escape_z2_rejects_diagonal_and_mean_zero():
    diag = uniform_measure(Z2, [(1, 1), (-1, -1)])
    with pytest.raises(EscapeError):
        exact_escape_drifted_z2(diag)
    fair = uniform_measure(Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    with pytest.raises(EscapeError):
        exact_escape_drifted_z2(fair)


def test_recurrence_certificate():
    est = recurrence_zero(uniform_measure(Z, [(1,), (-1,)]), "mean zero")
    assert (est.method, est.value, est.lo, est.hi) == \
        ("recurrence-zero", 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo samplers


def test_first_return_times_deterministic():
    mu = biased_pm1(F(3, 4))
    a = first_return_times(mu, 200, 50, seed=4)
    b = first_return_times(mu, 200, 50, seed=4)
    c = first_return_times(mu, 200, 50, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_first_return_times_parity_on_the_line():
    taus = first_return_times(uniform_measure(Z, [(1,), (-1,)]),
                              400, 500, seed=2)
    returned = taus[taus <= 400]
    assert returned.size > 0
    assert np.all(returned % 2 == 0)
    frac_two = float(np.mean(taus == 2))
    assert abs(frac_two - 0.5) < 0.05


def test_first_return_times_validation():
    with pytest.raises(EscapeError):
        first_return_times(biased_pm1(F(3, 4)), 0, 10, seed=1)


def test_mc_escape_never_returning_walk():
    est = mc_escape(measures.point_mass(Z, (1,)), 100, 64, seed=9)
    assert (est.value, est.lo, est.hi) == (1.0, 1.0, 1.0)


def test_mc_escape_ci_covers_known_value():
    est = mc_escape(biased_pm1(F(3, 4)), 4000, 3000, seed=11,
                    checkpoints=[10, 100, 1000])
    assert est.lo <= 0.5 <= est.hi
    ladder = est.details["checkpoints"]
    values = [row["value"] for row in ladder]
    assert [row["horizon"] for row in ladder] == [10, 100, 1000, 4000]
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_mc_escape_checkpoint_validation(monkeypatch):
    """Checkpoints are refused before any path is sampled."""
    def sample(*args):
        raise AssertionError("sampled before the checkpoints were checked")

    monkeypatch.setattr(escape, "first_return_times", sample)
    for bad in ([200], [0, 50]):
        with pytest.raises(EscapeError, match="checkpoints"):
            mc_escape(biased_pm1(F(3, 4)), 100, 10, seed=0, checkpoints=bad)


def test_mc_overlaps_exact_on_multistep_walk():
    # Steps +2 / -1: no simple closed form, so cross-check the two estimators.
    mu = FiniteMeasure.from_pairs(Z, [((2,), F(1, 2)), ((-1,), F(1, 2))])
    series = exact_escape_drifted_z(mu)
    mc = mc_escape(mu, 3000, 3000, seed=17)
    assert mc.lo <= series.value <= mc.hi


def test_range_rate_straight_line_walk():
    est = range_rate(measures.point_mass(Z, (1,)), 50, 8, seed=1)
    assert est.value == pytest.approx(51 / 50, abs=1e-15)
    assert est.details["bias_bound"] == pytest.approx(1 / 50, abs=1e-15)
    assert est.lo <= 1.0 <= est.hi


def test_range_rate_lazy_walk():
    est = range_rate(measures.point_mass(Z, (0,)), 40, 8, seed=1)
    assert est.value == pytest.approx(1 / 40, abs=1e-15)
    assert "bias_bound" not in est.details


def test_range_rate_ci_covers_known_value():
    est = range_rate(biased_pm1(F(3, 4)), 2000, 500, seed=3)
    assert est.lo <= 0.5 <= est.hi
    assert est.value >= 0.5 - 0.01  # upward-biased point estimate
    assert est.details["bias_bound"] < 0.01


@pytest.mark.parametrize("p", [F(3, 4), F(3, 5)])
def test_range_bias_bound_covers_a_long_partial_sum(p):
    """Two-sided: the bias bound is at least (1 + sum_{2<=i<=N} (i-1) m_i)/n
    with the exact return masses m_i, N = 2,000, and at most that plus the
    concentration tail sum_{i>N} (i-1) 2 q^i, up to the rounding of its
    binary64 end (a relative 1e-12)."""
    mu, n, big_n = biased_pm1(p), 100, 2000
    masses = return_mass_series_z(mu, big_n)
    partial = 1 + sum((i - 1) * masses[i] for i in range(2, big_n + 1))
    q, c = concentration_q(mu), big_n + 1
    tail = 2 * q ** c * ((c - 1) * (1 - q) + q) / (1 - q) ** 2
    bound = F(range_rate(mu, n, 2, seed=0).details["bias_bound"])
    assert partial / n <= bound <= (partial + tail) * (1 + F(1, 10 ** 12)) / n


def test_range_bias_bound_of_a_law_that_is_not_skip_free():
    """Steps +2, -2, -1 have no root closed form: the bound is the
    concentration sum (1 + 2 q^2 / (1-q)^2) / n, above a long partial sum,
    and costs no series."""
    mu, n = uniform_measure(Z, [(2,), (-2,), (-1,)]), 100
    start = time.perf_counter()
    bound = escape._range_bias_bound_z(mu, n)
    assert time.perf_counter() - start < 0.1
    q = exp(-drift_bound_z(mu).rate)
    assert bound == pytest.approx((1 + 2 * q * q / (1 - q) ** 2) / n,
                                  rel=1e-12)
    masses = return_mass_series_z(mu, 300)
    assert 1 + sum((i - 1) * masses[i] for i in range(2, 301)) <= n * F(bound)
    assert range_rate(mu, n, 2, seed=0).details["bias_bound"] == bound


def test_range_rate_validation():
    with pytest.raises(EscapeError):
        range_rate(biased_pm1(F(3, 4)), 0, 10, seed=0)


def test_range_rate_refuses_paths_past_its_cap(capsys):
    """A path longer than ``_RANGE_STEPS`` is refused before any buffer for
    it is allocated (tracemalloc sees numpy's allocations), and the command
    line exits with status 2."""
    mu = measures.bs11_family(F(3, 4), 2)
    tracemalloc.start()
    try:
        with pytest.raises(EscapeError, match="capped"):
            range_rate(mu, escape._RANGE_STEPS + 1, 10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cli.main(["escape", "bs11(k=2)", "--method", "range",
                     "--horizon", "100000000"]) == 2
    assert "capped" in capsys.readouterr().err


def test_range_rate_refuses_multiply_paths_past_their_cap(capsys):
    """On a group walked one ``groups.multiply`` a step, whose visited
    states take about 700 bytes each, a path longer than
    ``_MULTIPLY_RANGE_STEPS`` is refused before any step, allocating
    under 1 MiB, and the command line exits with status 2."""
    mu = measures.lamplighter_family(F(3, 4), 2)
    tracemalloc.start()
    try:
        with pytest.raises(EscapeError, match="capped"):
            range_rate(mu, escape._MULTIPLY_RANGE_STEPS + 1, 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cli.main(["escape", "lamplighter(k=2, p=3/4)", "--method", "range",
                     "--horizon", "4000000", "--samples", "1"]) == 2
    assert "capped" in capsys.readouterr().err


@pytest.mark.parametrize("horizon, samples, traced", [
    (10, 100_000_000_000_000, False),
    (10, 10 ** 30, False),
    (100_000_000_000_000_000_000, 4, True),
    (2 ** 63 - 1, 4, True),
    (2 ** 63 - 2, 4, True),
], ids=["samples-past-memory", "samples-past-numpy", "horizon-past-int64",
        "horizon-plus-one-past-int64", "steps-past-budget"])
def test_monte_carlo_refuses_inputs_it_cannot_hold(horizon, samples, traced,
                                                   capsys, monkeypatch):
    """A sample count whose result array cannot be allocated, a horizon
    whose horizon + 1 does not fit the int64 result, and more than 2^40
    steps in all are refused before any stream is keyed, and the command
    line exits with status 2.  A horizon is refused allocating under 1 MiB
    (numpy reports the request of an allocation that fails to tracemalloc,
    so the sample count's refusal is not measured there)."""
    def keyed(*args):
        raise AssertionError("a stream was keyed")

    monkeypatch.setattr(escape, "sample_stream", keyed)
    mu = measures.z_drift_family()
    tracemalloc.start()
    try:
        with pytest.raises(EscapeError):
            first_return_times(mu, horizon, samples, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 or not traced
    assert cli.main(["escape", "z_drift(k=limit)", "--method", "mc",
                     "--horizon", str(horizon), "--samples", str(samples),
                     "--seed", "4"]) == 2
    assert "error" in capsys.readouterr().err


def _reference_path(mu, seed, index, n):
    """States of the first ``n`` steps of the (seed, index) walk, built step
    by step with ``groups.multiply`` from atoms drawn by binary search in
    one block (a stream's uniforms do not depend on how its draws are
    split, see ``test_draw_into_shared_buffers_matches_a_fresh_draw``)."""
    elems, cum = rng.cumulative(mu)
    u = rng.sample_stream(seed, index).random(n)
    idx = np.minimum(np.searchsorted(cum, u, "right"), len(cum) - 1)
    state = groups.identity(mu.spec)
    states = []
    for i in idx.tolist():
        state = groups.multiply(mu.spec, state, elems[i])
        states.append(state)
    return states


def _reference_first_returns(mu, horizon, samples, seed):
    ident = groups.identity(mu.spec)
    return [next((t for t, g in enumerate(_reference_path(mu, seed, i,
                                                          horizon), 1)
                  if g == ident), horizon + 1)
            for i in range(samples)]


class CountingStream:
    """A sample stream that counts the raw words drawn from it; it is its
    own ``bit_generator``, and has no other draw a sampler could use."""

    def __init__(self, gen, drawn):
        self.gen, self.drawn = gen, drawn
        self.bit_generator = self

    def random_raw(self, size=None):
        self.drawn.append(size)
        return self.gen.bit_generator.random_raw(size)


def count_draws(monkeypatch):
    """Patch ``escape.sample_stream``; returns the list of blocks drawn,
    one list of sizes per stream keyed."""
    blocks = []
    stream = escape.sample_stream

    def counted(seed, index, gen=None):
        blocks.append([])
        return CountingStream(
            stream(seed, index, gen.gen if gen is not None else None),
            blocks[-1])

    monkeypatch.setattr(escape, "sample_stream", counted)
    return blocks


@pytest.mark.parametrize("mu", [
    measures.z_drift_family(2),
    measures.z_drift_family(),
    measures.dinf_family(F(3, 4), 2),
    measures.dinf_family(F(3, 4)),
    measures.bs11_family(F(3, 4), 2),
    measures.bs11_family(F(1, 3), 1),
    FiniteMeasure.from_pairs(DINF, [((1, 0), F(3, 4)), ((1, 1), F(1, 4))]),
    uniform_measure(BS11, [(1, 1), (-1, 0), (0, -1)]),
    uniform_measure(Z, [(1 << 62,), (-1 << 62,)]),
    measures.lamplighter_family(F(3, 4), 2),
    z2_weak_drift(),
], ids=["z_drift(k=2)", "z_drift", "dinf(k=2)", "dinf", "bs11(k=2)",
        "bs11(p=1/3,k=1)", "dinf-reflection", "bs11-twisted-step",
        "z-steps-2^62", "lamplighter(k=2)", "z2-weak-drift"])
def test_samplers_match_a_reference_walk(mu, monkeypatch):
    """First returns and range rates equal those of the plain group walk on
    the same streams, and some sample draws at least three blocks.  The
    reflection and twisted-step laws move and flip in one atom, and some of
    their paths cross a block boundary flipped; steps too long for int64
    prefix sums are walked exactly too, and the lamplighter law over Dinf
    takes both samplers' ``groups.multiply`` branch."""
    horizon, samples, n = 3000, 4, 3000
    ident = groups.identity(mu.spec)
    blocks = count_draws(monkeypatch)
    for seed in (1, 7, 29):
        taus = first_return_times(mu, horizon, samples, seed)
        assert taus.tolist() == _reference_first_returns(mu, horizon, samples,
                                                         seed), seed
        rates = np.array([len({ident, *_reference_path(mu, seed, i, n)}) / n
                          for i in range(samples)])
        assert range_rate(mu, n, samples, seed).value == float(rates.mean())
    assert max(map(len, blocks)) >= 3


@pytest.mark.parametrize("mu", [
    measures.dinf_family(F(3, 4), 2),
    measures.bs11_family(F(3, 4), 2),
    FiniteMeasure.from_pairs(DINF, [((1, 0), F(3, 4)), ((1, 1), F(1, 4))]),
    uniform_measure(BS11, [(1, 1), (-1, 0), (0, -1)]),
], ids=["dinf(k=2)", "bs11(k=2)", "dinf-reflection", "bs11-twisted-step"])
def test_flipping_paths_are_the_reference_walks_states(mu):
    """A scanned path of a flipping law, its a-moves signed by the flip bit
    before each step, is the plain group walk written as twisted-lattice
    states, not only its mirror image."""
    n, seed = 2000, 11
    path = walk_of(mu, n).path(rng.sample_stream(seed, 0), n, (0, 0, 0))
    states = list(zip(*(c.tolist() for c in path)))
    assert states[1:] == escape._twisted_steps(
        mu.spec, _reference_path(mu, seed, 0, n))


def test_samplers_walk_the_plane_by_prefix_scans(monkeypatch):
    def multiply(*args):
        raise AssertionError("stepped with groups.multiply")

    monkeypatch.setattr(groups, "multiply", multiply)
    assert first_return_times(z2_weak_drift(), 500, 4, 3).shape == (4,)
    assert 0 < range_rate(z2_weak_drift(), 500, 4, 3).value <= 1


# ---------------------------------------------------------------------------
# the lattice normal form and the dispatcher


def test_lattice_law_maps_translations_to_the_line():
    mu = FiniteMeasure.from_pairs(
        DINF, [((-1, 0), F(1, 2)), ((1, 0), F(1, 2))])
    red = lattice_law(mu)
    assert red.spec == Z
    assert red.weight_of((1,)) == F(1, 2)
    assert red.support() == [(-1,), (1,)]
    with_flip = uniform_measure(DINF, [(0, 1), (1, 0)])
    with pytest.raises(EscapeError):
        lattice_law(with_flip)
    with pytest.raises(EscapeError):
        lattice_law(uniform_measure(groups.FreeGroup(2), [(1,), (-1,)]))


def test_lattice_law_halves_vertical_exponent():
    mu = FiniteMeasure.from_pairs(
        BS11, [((1, 0), F(1, 2)), ((0, 2), F(1, 2))])
    red = lattice_law(mu)
    assert red.spec == Z2
    assert red.weight_of((1, 0)) == F(1, 2)
    assert red.weight_of((0, 1)) == F(1, 2)
    odd = FiniteMeasure.from_pairs(BS11, [((0, 1), F(1))])
    with pytest.raises(EscapeError):
        lattice_law(odd)
    planar = z2_drift()
    assert lattice_law(planar) is planar


def flip_free_law(spec, steps, counts):
    total = sum(counts)
    if spec == DINF:
        elems = [(t, 0) for t, _ in steps]
    else:
        elems = [(m, 2 * k) for m, k in steps]
    return FiniteMeasure.from_pairs(
        spec, [(g, F(c, total)) for g, c in zip(elems, counts)])


flip_free_laws = st.tuples(st.sampled_from([DINF, BS11]), st.integers(1, 4)).flatmap(
    lambda spec_size: st.builds(
        flip_free_law, st.just(spec_size[0]),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                 min_size=spec_size[1], max_size=spec_size[1], unique=True),
        st.lists(st.integers(1, 12), min_size=spec_size[1],
                 max_size=spec_size[1])))


@given(flip_free_laws)
@settings(max_examples=40, deadline=None)
def test_lattice_law_walks_return_at_the_same_times(mu):
    """The normal form is the same walk: on the same streams it returns at
    the same steps, the Dinf and BS(1,-1) laws by the twisted scan and
    their Z^2 forms by ``groups.multiply``, across block boundaries."""
    law = lattice_law(mu)
    for seed in (1, 2):
        assert (first_return_times(law, 600, 3, seed).tolist()
                == first_return_times(mu, 600, 3, seed).tolist())


def test_auto_escape_reduces_a_bs11_law_without_b_steps_to_the_line():
    drifted = auto_escape(FiniteMeasure.from_pairs(
        BS11, [((1, 0), F(3, 4)), ((-1, 0), F(1, 4))]))
    assert drifted.method == "root-closed-form"
    assert drifted.lo <= 0.5 <= drifted.hi
    fair = auto_escape(uniform_measure(BS11, [(1, 0), (-1, 0)]))
    assert fair.method == "recurrence-zero"
    assert fair.details["justification"] == (
        "mean-zero finite-support walk on the line is recurrent")


def test_auto_escape_falls_back_when_the_exact_route_raises():
    # float weights are refused, not sampled: Monte Carlo needs them too
    with pytest.raises(MeasureError, match="rational weights"):
        auto_escape(float_pm1(), horizon=50, samples=40, seed=1)
    # steps +2, -2, -1 with drift -1/3: the -2 step against the drift
    # leaves the walk without a root closed form
    skipping = uniform_measure(Z, [(2,), (-2,), (-1,)])
    with pytest.raises(EscapeError, match="skip-free"):
        exact_escape_drifted_z(skipping)
    est = auto_escape(skipping, horizon=50, samples=40, seed=1)
    assert est.method == "monte-carlo"


def test_exact_escape_weak_drift_on_the_line_is_in_closed_form(monkeypatch):
    """Drift 1/50, which a visit series would need about 10^5 terms for,
    gets the closed form 1/50 and samples nothing."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("fell back to Monte Carlo")

    monkeypatch.setattr(escape, "mc_escape", no_sampling)
    weak = biased_pm1(F(51, 100))
    est = auto_escape(weak, horizon=50, samples=40, seed=1)
    assert est.method == "root-closed-form"
    assert F(est.lo) <= F(1, 50) <= F(est.hi)
    assert est.hi - est.lo <= 1e-12
    # for the +1/-1 walk z_1 = q/p, so the bias bound's n-multiple
    # 1 + (1/g - 1)^2 + 2q/g^3 is 1 + 49^2 + 0.98 * 50^3 at g = 1/50
    assert escape._range_bias_bound_z(weak, 1) == pytest.approx(124_902,
                                                                rel=1e-12)


def test_exact_escape_z2_weak_drift_is_in_closed_form(monkeypatch):
    """Drift 1/50 along x, which a series would need about 99,000 terms
    for, gets the closed form and samples nothing."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("fell back to Monte Carlo")

    monkeypatch.setattr(escape, "mc_escape", no_sampling)
    est = auto_escape(z2_weak_drift(), horizon=50, samples=40, seed=1)
    assert est.method == "agm-closed-form"
    assert est.lo <= 0.3171765755957115 <= est.hi
    assert est.hi - est.lo <= 1e-12


@pytest.mark.parametrize("steps", [
    [((2, 0), F(1, 4)), ((-1, 0), F(1, 4)), ((0, 1), F(1, 4)),
     ((0, -1), F(1, 4))],
    [((0, 0), F(1, 4)), ((1, 0), F(3, 8)), ((-1, 0), F(1, 8)),
     ((0, 1), F(1, 8)), ((0, -1), F(1, 8))],
], ids=["long-step", "identity-atom"])
def test_exact_escape_z2_needs_a_nearest_neighbour_walk(steps):
    """The closed form is for the four unit steps alone: other drifted laws
    on Z^2 raise, and the dispatcher samples them."""
    mu = FiniteMeasure.from_pairs(Z2, steps)
    with pytest.raises(EscapeError, match="not a unit step"):
        exact_escape_drifted_z2(mu)
    est = auto_escape(mu, horizon=50, samples=40, seed=1)
    assert est.method == "monte-carlo"


def test_auto_escape_dispatch():
    drifted = auto_escape(biased_pm1(F(3, 4)))
    assert drifted.method == "root-closed-form"
    assert drifted.lo <= 0.5 <= drifted.hi

    fair = auto_escape(uniform_measure(Z, [(1,), (-1,)]))
    assert (fair.method, fair.value) == ("recurrence-zero", 0.0)

    planar_fair = auto_escape(
        uniform_measure(Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)]))
    assert planar_fair.method == "recurrence-zero"

    planar_drift = auto_escape(z2_drift())
    assert planar_drift.method == "agm-closed-form"

    dinf_translations = auto_escape(FiniteMeasure.from_pairs(
        DINF, [((1, 0), F(3, 4)), ((-1, 0), F(1, 4))]))
    assert dinf_translations.method == "root-closed-form"
    assert dinf_translations.lo <= 0.5 <= dinf_translations.hi

    dinf_flips = auto_escape(uniform_measure(DINF, [(0, 1), (1, 1)]),
                             horizon=50, samples=40, seed=1)
    assert dinf_flips.method == "monte-carlo"

    bs_even = auto_escape(FiniteMeasure.from_pairs(
        BS11, [((1, 0), F(3, 8)), ((-1, 0), F(1, 8)),
               ((0, 2), F(1, 4)), ((0, -2), F(1, 4))]))
    assert (bs_even.method, bs_even.lo, bs_even.hi) == (
        planar_drift.method, planar_drift.lo, planar_drift.hi)

    free = auto_escape(uniform_measure(groups.FreeGroup(2),
                                       [(1,), (-1,), (2,), (-2,)]),
                       horizon=50, samples=40, seed=1)
    assert free.method == "monte-carlo"


# ---------------------------------------------------------------------------
# early stop, reused buffers and pruned return masses


def twisted_law(spec, steps, counts):
    """A law on Z, Z^2, Dinf or BS(1,-1) from (u, v) pairs in [-3, 3]^2:
    Z reads u, Z^2 (u, v), Dinf (u, v mod 2) and BS(1,-1) (u, v)."""
    total = sum(counts)
    if spec == Z:
        elems = [(u,) for u, _ in steps]
    elif spec == DINF:
        elems = [(u, v & 1) for u, v in steps]
    else:
        elems = list(steps)
    weights = {}
    for g, c in zip(elems, counts):
        weights[g] = weights.get(g, 0) + F(c, total)
    return FiniteMeasure.from_pairs(spec, list(weights.items()))


twisted_laws = st.tuples(st.sampled_from([Z, Z2, DINF, BS11]),
                         st.integers(1, 5)).flatmap(
    lambda spec_size: st.builds(
        twisted_law, st.just(spec_size[0]),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                 min_size=spec_size[1], max_size=spec_size[1]),
        st.lists(st.integers(1, 12), min_size=spec_size[1],
                 max_size=spec_size[1])))


@given(twisted_laws, st.integers(600, 2600), st.integers(0, 3))
@example(twisted_law(Z, [(3, 0), (-1, 0)], [3, 1]), 2600, 1)
@example(twisted_law(Z2, [(1, 0), (0, 2), (-1, -1)], [1, 4, 2]), 1500, 2)
@example(twisted_law(BS11, [(2, 2), (0, 1), (-1, 0)], [6, 1, 1]), 2600, 3)
@example(twisted_law(DINF, [(3, 0), (-2, 1)], [5, 1]), 900, 0)
@settings(max_examples=40, deadline=None)
def test_early_stop_keeps_first_returns_of_the_reference_walk(mu, horizon, seed):
    """Random steps of size up to 3 with flips, b-moves and Z^2 steps: the
    first returns equal those of the plain group walk on the same streams
    whether or not a sample stops early, mid-block or between blocks."""
    assert (first_return_times(mu, horizon, 4, seed).tolist()
            == _reference_first_returns(mu, horizon, 4, seed))


POOL = escape._POOL


@given(twisted_laws,
       st.sampled_from([1, POOL - 1, POOL + 1, 3 * POOL + 2]),
       st.integers(1, 63).filter(lambda h: h % 4), st.integers(0, 3))
@example(twisted_law(BS11, [(1, 1), (-1, 0), (0, -1)], [1, 1, 1]),
         3 * POOL + 2, 63, 1)
@settings(max_examples=12, deadline=None)
def test_rounds_keep_first_returns_of_the_reference_walk(mu, samples, horizon,
                                                         seed):
    """Fewer samples than the pool, a pool and one over, and three pools
    and two over, each sample one short block: streams are re-keyed to the
    next sample as theirs end, and the first returns equal those of the
    plain group walk on the same streams."""
    assert (first_return_times(mu, horizon, samples, seed).tolist()
            == _reference_first_returns(mu, horizon, samples, seed))


def test_rounds_key_each_sample_once_and_draw_at_most_a_block(monkeypatch):
    """Every sample keys exactly one stream, a round batches the blocks of
    many streams, and no round draws more than 65,536 words, however many
    streams are live."""
    blocks = count_draws(monkeypatch)
    counting, keyed = escape.sample_stream, []

    def stream(seed, index, gen=None):
        keyed.append(index)
        return counting(seed, index, gen)

    monkeypatch.setattr(escape, "sample_stream", stream)
    words, play = [], escape._Rounds.round

    def round_(self):
        before = sum(map(sum, blocks))
        play(self)
        words.append(sum(map(sum, blocks)) - before)

    monkeypatch.setattr(escape._Rounds, "round", round_)
    samples = POOL + 88
    for mu in (measures.bs11_family(F(3, 4), 2), measures.z_drift_family()):
        for log in (blocks, keyed, words):
            log.clear()
        first_return_times(mu, 100_000, samples, seed=3)
        assert sorted(keyed) == list(range(samples))
        assert len(blocks) == samples
        assert max(words) <= 65_536
        assert len(words) < sum(map(len, blocks)) / 4


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 30),
       st.integers(0, 3), st.integers(0, 3))
def test_free_steps_is_the_last_block_before_a_stop_can_fire(a, b, left,
                                                               reach_a, reach_b):
    """-1 exactly when no return is possible in ``left`` steps; otherwise
    the most steps after which a return is still possible however the walk
    moved, so one more could make it impossible.  A coordinate no step
    moves stays 0."""
    a, b = (a if reach_a else 0), (b if reach_b else 0)

    def possible(a, b, left):
        return abs(a) <= left * reach_a and abs(b) <= left * reach_b

    free = escape._free_steps((a, b, 0), left, [reach_a, reach_b])
    assert (free >= 0) == possible(a, b, left)
    if free >= 0:
        assert free <= left

        def worst(s):  # s steps each moving both coordinates away from 0
            return possible(abs(a) + s * reach_a, abs(b) + s * reach_b, left - s)

        assert worst(free)
        assert free == left or not worst(free + 1)


def test_a_sample_stops_once_a_return_is_impossible(monkeypatch):
    """An always-+1 walk cannot return once it is past half the horizon,
    and it stops within one ``_MIN_SUMMED`` block of that point (the
    shortest block it sums once it is that far out)."""
    blocks = count_draws(monkeypatch)
    horizon = 100_000
    taus = first_return_times(measures.point_mass(Z, (1,)), horizon, 3, seed=5)
    assert taus.tolist() == [horizon + 1] * 3
    for drawn in blocks:
        assert horizon / 2 < sum(drawn) <= horizon / 2 + escape._MIN_SUMMED


def walk_of(mu, size):
    elems, cum = rng.cumulative(mu)
    return escape._TwistedWalk.of(mu.spec, elems, rng.BucketTable(cum), size)


def last_state(path):
    return tuple(int(c[-1]) for c in path)


flip_free_walk_laws = st.one_of(
    flip_free_laws,
    st.tuples(st.sampled_from([Z, Z2]), st.integers(1, 5)).flatmap(
        lambda spec_size: st.builds(
            twisted_law, st.just(spec_size[0]),
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                     min_size=spec_size[1], max_size=spec_size[1]),
            st.lists(st.integers(1, 12), min_size=spec_size[1],
                     max_size=spec_size[1]))))


@given(flip_free_walk_laws, st.integers(-50, 50), st.integers(-25, 25),
       st.integers(1, 3000), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_a_summed_block_ends_where_the_path_does(mu, a, b, n, seed):
    """A law with no flipping step: the end state from atom counts equals
    the last state of the scanned path on the same stream."""
    walk = walk_of(mu, 3000)
    assert walk.moves is not None
    if walk.db is None:  # b stays 0
        b = 0
    elif mu.spec == BS11:  # every b-step is even
        b *= 2
    start = (a, b, 0)
    [end] = walk.end([rng.sample_stream(seed, 0)], [n], [start])
    assert end == last_state(walk.path(rng.sample_stream(seed, 0), n, start))


planar_laws = st.tuples(st.sampled_from([Z2, BS11]), st.integers(1, 5)).flatmap(
    lambda spec_size: st.builds(
        twisted_law, st.just(spec_size[0]),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                 min_size=spec_size[1], max_size=spec_size[1]),
        st.lists(st.integers(1, 12), min_size=spec_size[1],
                 max_size=spec_size[1])))


@given(planar_laws, st.integers(-6, 6), st.integers(-6, 6),
       st.integers(1, 700), st.integers(0, 3))
@example(twisted_law(BS11, [(1, 1), (-1, 1), (0, -1)], [1, 1, 2]), 1, -1, 1, 0)
@example(twisted_law(Z2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [1] * 4),
         0, 0, 64, 1)
@settings(max_examples=80, deadline=None)
def test_a_at_the_zeros_of_b_finds_the_first_hit_of_the_path(mu, a, b, n, seed):
    """On Z^2 and BS(1,-1), reading a only where b = 0 gives the path's
    first visit to the identity (0 when there is none) and its last state;
    on BS(1,-1) the f column of the path is b's parity."""
    walk = walk_of(mu, 700)
    start = (a, b, b & 1 if walk.df is not None else 0)
    [hit], [end] = walk.first_hit([rng.sample_stream(seed, 0)], [n], [start])
    path = walk.path(rng.sample_stream(seed, 0), n, start)
    states = list(zip(*(c.tolist() for c in path)))
    assert hit == next((j for j in range(1, n + 1)
                        if states[j] == (0, 0, 0)), 0)
    assert end == last_state(path)
    if walk.df is not None:
        assert np.array_equal(path[2], path[1] & 1)


@pytest.mark.parametrize("mu", [
    measures.z_drift_family(),
    measures.dinf_family(F(3, 4)),
    measures.bs11_family(F(3, 4)),
], ids=["z_drift", "dinf", "bs11"])
def test_summed_blocks_keep_first_returns_of_the_reference_walk(mu,
                                                                monkeypatch):
    """Drifted flip-free laws far enough out to sum whole blocks: the first
    returns still equal the plain group walk's, and blocks were summed."""
    summed = []
    end = escape._TwistedWalk.end

    def counted(self, gen, n, start):
        summed.append(n)
        return end(self, gen, n, start)

    monkeypatch.setattr(escape._TwistedWalk, "end", counted)
    horizon, samples, seed = 20_000, 3, 4
    assert (first_return_times(mu, horizon, samples, seed).tolist()
            == _reference_first_returns(mu, horizon, samples, seed))
    assert summed


@pytest.mark.parametrize("op, undo, dtype", [
    (np.add, np.subtract, np.int64),
    (np.bitwise_xor, np.bitwise_xor, np.int8),
], ids=["add", "xor"])
@pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 20_001])
def test_segmented_scans_equal_a_scan_per_segment(op, undo, dtype, size):
    """Flat and paired-column scans, one segment or many (one of a single
    slot among them), equal ``op.accumulate`` run on each segment from its
    start."""
    gen = np.random.default_rng(size)
    x = gen.integers(-3, 4, size).astype(dtype)
    cuts = gen.integers(1, size, 9).tolist() if size > 1 else []
    for offsets in ([0], sorted({0, *cuts})):
        offsets = np.array(offsets)
        starts = gen.integers(-9, 10, offsets.size).astype(dtype).tolist()
        edges = [*offsets.tolist(), size]
        expected = []
        for start, lo, hi in zip(starts, edges, edges[1:]):
            segment = x[lo:hi].copy()
            segment[0] = start
            expected.append(op.accumulate(segment))
        got = x.copy()
        ends = escape._segmented_scan(op, undo, got, offsets, starts,
                                      np.empty(size, dtype=dtype))
        assert np.array_equal(got, np.concatenate(expected))
        assert np.array_equal(ends, [e[-1] for e in expected])


@pytest.mark.parametrize("spans", [(1, 1, 1), (40, 1, 1), (9, 7, 2),
                                   (200, 150, 2)],
                         ids=["one-site", "line", "plane", "wide"])
def test_distinct_states_count_the_set_of_states(spans):
    """Range sites counted in the presence array, and by sorting keys when
    the spans are wider than it (the last case), equal the size of the set
    of states; the first state is visited once."""
    n = 400
    gen = np.random.default_rng(sum(spans))
    path = [gen.integers(-(s // 2), s - s // 2, n + 1) for s in spans]
    path[0][0] = path[0].min() - 1
    key = np.empty(n + 1, dtype=np.int64)
    present = np.empty(escape._PRESENCE_CELLS * (n + 1), dtype=bool)
    cells = np.prod([int(c.max()) - int(c.min()) + 1 for c in path])
    count = escape._distinct_states(path, key, present)
    assert count == len(set(zip(*(c.tolist() for c in path))))
    if spans == (200, 150, 2):
        assert cells > present.size
    else:  # the marks are the count
        assert np.count_nonzero(present[:cells]) == count


def unpruned_numerators(mu):
    """The numerators of mu^{*n}(0) over D^n from the full sparse dict,
    every position kept (the reference)."""
    steps = [(x, a) for (x,), a in mu._atoms.items()]
    dist = {0: 1}
    while True:
        nxt = {}
        for pos, c in dist.items():
            for x, a in steps:
                nxt[pos + x] = nxt.get(pos + x, 0) + c * a
        dist = nxt
        yield dist.get(0, 0)


@given(z_laws, st.integers(1, 60))
@example(z_law((1, 2), (1, 1)), 10)  # one-way: nothing is ever kept
@example(z_law((0, 3), (1, 1)), 10)  # 0 is the lowest step
@settings(max_examples=60, deadline=None)
def test_pruned_return_masses_equal_the_full_convolution(mu, n_terms):
    den, masses = escape._return_masses(mu, n_terms)
    assert den == mu.denom
    assert list(masses) == list(islice(unpruned_numerators(mu), n_terms))
