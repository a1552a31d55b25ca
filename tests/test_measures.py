"""Measures: construction, convolution, products, families, distances."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import cli, escape, groups, measures, parsing, walks
from walklab.exact_entropy import LogLinear, entropy_form
from walklab.groups import (
    BS11,
    DINF,
    DINF_A,
    Cyclic,
    DirectProduct,
    FreeGroup,
    IntegerLattice,
    Wreath,
)
from walklab.measures import (
    DINF_AB,
    DINF_BA,
    FiniteMeasure,
    MeasureError,
    bs11_family,
    convolution_power,
    convolve,
    dinf_family,
    entropy,
    exact_entropy,
    lamplighter_mix,
    mix,
    point_mass,
    product_measure,
    total_variation,
    uniform_measure,
    z_drift_family,
)

F = Fraction
Z = IntegerLattice(1)
F2 = FreeGroup(2)
WREATH_DINF = Wreath(Cyclic(2), DINF)


def uniform_pm1():
    return uniform_measure(Z, [(1,), (-1,)])


# ---------------------------------------------------------------------------
# construction invariants


def test_weights_must_sum_to_one_exactly():
    with pytest.raises(MeasureError):
        FiniteMeasure.from_pairs(Z, [((0,), F(1, 2)), ((1,), F(1, 3))])


def test_constructor_drops_zero_weights_and_refuses_negative_ones():
    mu = FiniteMeasure(Z, {(0,): F(0), (1,): F(1)})
    assert len(mu) == 1 and mu.support() == [(1,)]
    assert entropy(mu) == 0
    assert exact_entropy(mu).is_zero()
    assert walks.entropy_ladder(mu, 3).values == [0.0] * 4
    with pytest.raises(MeasureError, match="negative weight"):
        FiniteMeasure(Z, {(0,): F(-1, 2), (1,): F(3, 2)})
    with pytest.raises(MeasureError, match="nonempty support"):
        FiniteMeasure(Z, {(0,): F(0)})


def test_weights_must_sum_to_one_in_float_mode():
    FiniteMeasure.from_pairs(Z, [((0,), 0.5), ((1,), 0.5 + 1e-13)],
                             exact=False)
    with pytest.raises(MeasureError):
        FiniteMeasure.from_pairs(Z, [((0,), 0.5), ((1,), 0.51)], exact=False)


# What a float measure may do; every operation in _FLOAT_REFUSES needs
# rational weights.
_FLOAT_WORKS = {
    "convolve": lambda mu: convolve(mu, mu),
    "convolution_power": lambda mu: convolution_power(mu, 4),
    "entropy": entropy,
    "entropy_ladder": lambda mu: walks.entropy_ladder(mu, 4),
}
_FLOAT_REFUSES = {
    "atoms": lambda mu: mu.atoms(),
    "weight_of": lambda mu: mu.weight_of((1,)),
    "mix": lambda mu: mix(mu, mu, F(1, 2)),
    "total_variation": lambda mu: total_variation(mu, mu),
    "product_measure": lambda mu: product_measure(mu, mu),
    "lamplighter_mix": lambda mu: lamplighter_mix(measures.uniform_flip(), mu),
    "exact_entropy": exact_entropy,
    "TrajectoryEnumeration": lambda mu: walks.TrajectoryEnumeration(mu, 2),
    "mc_escape": lambda mu: escape.mc_escape(mu, 10, 5, 0),
    "range_rate": lambda mu: escape.range_rate(mu, 10, 5, 0),
}


@pytest.mark.parametrize("op", [*_FLOAT_WORKS, *_FLOAT_REFUSES])
def test_float_measures_only_convolve_and_take_entropy(op):
    flt = FiniteMeasure.from_pairs(Z, [((1,), 0.75), ((-1,), 0.25)],
                                   exact=False)
    if op in _FLOAT_REFUSES:
        with pytest.raises(MeasureError, match="rational weights"):
            _FLOAT_REFUSES[op](flt)
        return
    rational = FiniteMeasure.from_pairs(Z, [((1,), F(3, 4)), ((-1,), F(1, 4))])
    got, want = _FLOAT_WORKS[op](flt), _FLOAT_WORKS[op](rational)
    if isinstance(got, FiniteMeasure):
        assert not got.exact and got.support() == want.support()
        got, want = entropy(got), entropy(want)
    elif isinstance(got, walks.EntropyLadder):
        assert got.forms is None and want.forms is not None
        got, want = got.values, want.values
    assert got == pytest.approx(want, rel=1e-12)


def test_negative_and_zero_weights():
    with pytest.raises(MeasureError):
        FiniteMeasure.from_pairs(Z, [((0,), F(3, 2)), ((1,), F(-1, 2))])
    mu = FiniteMeasure.from_pairs(Z, [((0,), 1), ((1,), 0)])
    assert mu.support() == [(0,)]


def test_duplicate_atoms_merge():
    mu = FiniteMeasure.from_pairs(Z, [((2,), F(1, 4)), ((2,), F(1, 4)),
                                      ((0,), F(1, 2))])
    assert mu.weight_of((2,)) == F(1, 2)
    assert len(mu) == 2


def test_empty_support_rejected():
    with pytest.raises(MeasureError):
        FiniteMeasure.from_pairs(Z, [])


def test_atoms_validate_against_spec():
    with pytest.raises(groups.GroupError):
        FiniteMeasure.from_pairs(Z, [((0, 0), 1)])


# ---------------------------------------------------------------------------
# entropy


def test_entropy_point_mass_is_zero():
    assert entropy(point_mass(Z, (7,))) == 0.0
    assert exact_entropy(point_mass(Z, (7,))).is_zero()


def test_entropy_uniform_two():
    mu = uniform_pm1()
    assert abs(entropy(mu) - math.log(2)) < 1e-15
    assert exact_entropy(mu) == LogLinear.of_log(2)


def test_entropy_uniform_four_generators():
    eta = uniform_measure(F2, [(1,), (-1,), (2,), (-2,)])
    assert abs(entropy(eta) - math.log(4)) < 1e-15
    assert exact_entropy(eta) == LogLinear.of_log(2, 2)


# ---------------------------------------------------------------------------
# convolution


def test_convolve_point_masses():
    mu = point_mass(DINF, DINF_A)
    nu = point_mass(DINF, groups.DINF_B)
    out = convolve(mu, nu)
    assert out.support() == [groups.multiply(DINF, DINF_A, groups.DINF_B)]
    assert out.weight_of((-1, 0)) == 1


def test_convolve_uniform_walk_two_steps():
    two = convolve(uniform_pm1(), uniform_pm1())
    assert two.weight_of((-2,)) == F(1, 4)
    assert two.weight_of((0,)) == F(1, 2)
    assert two.weight_of((2,)) == F(1, 4)


def test_convolve_with_identity_is_neutral():
    mu = dinf_family(F(3, 4), 5)
    delta = point_mass(DINF, groups.identity(DINF))
    assert dict(convolve(mu, delta).atoms()) == dict(mu.atoms())
    assert dict(convolve(delta, mu).atoms()) == dict(mu.atoms())


def test_convolution_power_small_cases():
    mu = uniform_pm1()
    assert convolution_power(mu, 0).support() == [(0,)]
    assert dict(convolution_power(mu, 1).atoms()) == dict(mu.atoms())
    assert convolution_power(mu, 4).weight_of((0,)) == F(6, 16)


def test_convolution_power_rejects_negative():
    with pytest.raises(MeasureError):
        convolution_power(uniform_pm1(), -1)


def test_convolution_support_cap():
    mu = uniform_measure(IntegerLattice(2),
                         [(1, 0), (-1, 0), (0, 1), (0, -1)])
    with pytest.raises(measures.SupportCapError):
        convolution_power(mu, 6, cap=10)


def test_convolution_associativity_random():
    rng = Random(43)
    elems = [groups.random_element(DINF, rng, 3) for _ in range(12)]
    for _ in range(60):
        picks = [uniform_measure(DINF, rng.sample(elems, 3))
                 for _ in range(3)]
        mu, nu, lam = picks
        left = convolve(convolve(mu, nu), lam)
        right = convolve(mu, convolve(nu, lam))
        assert dict(left.atoms()) == dict(right.atoms())


def test_convolution_specs_must_match():
    with pytest.raises(MeasureError):
        convolve(uniform_pm1(), point_mass(DINF, DINF_A))


# ---------------------------------------------------------------------------
# product measures


def test_product_of_point_masses():
    nu = product_measure(point_mass(Z, (3,)), point_mass(DINF, DINF_A))
    assert nu.support() == [((3,), DINF_A)]


def test_product_entropy_additivity_exact():
    eta = uniform_measure(F2, [(1,), (-1,), (2,), (-2,)])
    mu = dinf_family(F(3, 4), 5)
    nu = product_measure(eta, mu)
    assert exact_entropy(nu) == exact_entropy(eta) + exact_entropy(mu)


def test_product_convolution_factorises():
    eta = uniform_pm1()
    mu = dinf_family(F(3, 4), 3)
    nu = product_measure(eta, mu)
    for n in (2, 3):
        lhs = convolution_power(nu, n)
        rhs = product_measure(convolution_power(eta, n),
                              convolution_power(mu, n))
        assert dict(lhs.atoms()) == dict(rhs.atoms())


# ---------------------------------------------------------------------------
# distances


def test_total_variation_identity_and_disjoint():
    mu = uniform_pm1()
    assert total_variation(mu, mu) == 0
    assert total_variation(point_mass(Z, (0,)), point_mass(Z, (1,))) == 1


def test_total_variation_of_family_vs_limit():
    for k in (1, 2, 4, 10, 50):
        mu_k = dinf_family(1, k)
        assert total_variation(mu_k, dinf_family(1)) == F(1, k)


def test_family_tv_nonincreasing_and_small_beyond_threshold():
    prev = None
    limit = dinf_family(F(3, 4))
    for k in range(1, 31):
        tv = total_variation(dinf_family(F(3, 4), k), limit)
        if prev is not None:
            assert tv <= prev
        prev = tv
    for eps in (F(1, 2), F(1, 10), F(1, 100)):
        k = int(2 / eps) + 1
        assert total_variation(dinf_family(F(3, 4), k), limit) < eps


# ---------------------------------------------------------------------------
# families


def test_dinf_family_weights():
    mu = dinf_family(F(3, 4), 10)
    assert mu.weight_of(DINF_AB) == F(9, 10) * F(3, 4)
    assert mu.weight_of(DINF_BA) == F(9, 10) * F(1, 4)
    assert mu.weight_of(DINF_A) == F(1, 10)


def test_dinf_family_k1_degenerates_to_point_mass():
    mu = dinf_family(F(3, 4), 1)
    assert mu.support() == [DINF_A]
    assert mu.weight_of(DINF_A) == 1


def test_dinf_limit_weights():
    mu = dinf_family(F(3, 4))
    assert mu.weight_of(DINF_AB) == F(3, 4)
    assert mu.weight_of(DINF_BA) == F(1, 4)
    # samplers build their CDF in atom order, so the order is part of the law
    assert mu.support() == [DINF_AB, DINF_BA]


def test_z_drift_family_weights_and_merge():
    mu2 = z_drift_family(2)
    assert mu2.weight_of((1,)) == F(3, 4) * F(4, 5)
    assert mu2.weight_of((-1,)) == F(1, 4) * F(4, 5)
    assert mu2.weight_of((-2,)) == F(1, 5)
    # k = 1 merges the far atom with -1 into a fair coin.
    mu1 = z_drift_family(1)
    assert mu1.weight_of((1,)) == F(1, 2)
    assert mu1.weight_of((-1,)) == F(1, 2)
    assert len(mu1) == 2


def test_z_drift_family_mean_zero_all_k():
    for k in range(1, 101):
        mean = sum(w * g[0] for g, w in z_drift_family(k).atoms())
        assert mean == 0


def test_z_drift_limit_weights():
    mu = z_drift_family()
    assert mu.weight_of((1,)) == F(3, 4)
    assert mu.weight_of((-1,)) == F(1, 4)
    assert mu.support() == [(1,), (-1,)]


def test_bs11_family_weights():
    mu = bs11_family(F(3, 4), 2)
    b2 = (0, 2)
    b2i = (0, -2)
    a = (1, 0)
    ai = (-1, 0)
    b = (0, 1)
    bi = (0, -1)
    half_third = F(1, 3) * F(1, 2)
    assert mu.weight_of(b2) == half_third
    assert mu.weight_of(b2i) == half_third
    assert mu.weight_of(a) == half_third * F(3, 4)
    assert mu.weight_of(ai) == half_third * F(1, 4)
    assert mu.weight_of(b) == F(1, 4)
    assert mu.weight_of(bi) == F(1, 4)
    limit = bs11_family(F(3, 4))
    assert list(limit.atoms()) == [(b2, F(1, 3)), (b2i, F(1, 3)),
                                   (a, F(1, 4)), (ai, F(1, 12))]


def test_bs11_vertical_exponent_mean_zero():
    for k in (1, 2, 3, 10, 40):
        mu = bs11_family(F(3, 4), k)
        mean = sum(w * g[1] for g, w in mu.atoms())
        assert mean == 0


def test_family_support_stability():
    dinf_allowed = set(dinf_family(F(3, 4), 2).support()) | \
        set(dinf_family(F(3, 4)).support())
    bs_allowed = set(bs11_family(F(3, 4), 2).support()) | \
        set(bs11_family(F(3, 4)).support())
    for k in range(2, 40):
        assert set(dinf_family(F(3, 4), k).support()) <= dinf_allowed
        assert set(bs11_family(F(3, 4), k).support()) <= bs_allowed


def test_family_parameter_validation():
    with pytest.raises(MeasureError):
        dinf_family(F(3, 4), 0)
    with pytest.raises(MeasureError):
        dinf_family(F(5, 4), 2)
    with pytest.raises(MeasureError):
        bs11_family(-1, 2)
    with pytest.raises(MeasureError):
        z_drift_family(0)


def test_lamplighter_mix_atoms():
    eta = uniform_measure(Cyclic(2), [0, 1])
    nu = lamplighter_mix(eta, dinf_family(F(3, 4), 2))
    spec = nu.spec
    assert spec == WREATH_DINF
    e_dinf = groups.identity(DINF)
    # Half the lamp law: identity keeps eta(0)/2, the lit lamp gets eta(1)/2.
    assert nu.weight_of(groups.identity(spec)) == F(1, 4)
    assert nu.weight_of((((e_dinf, 1),), e_dinf)) == F(1, 4)
    # Half the base law, included with empty lamps.
    assert nu.weight_of(((), DINF_AB)) == F(1, 2) * F(3, 8)
    assert nu.weight_of(((), DINF_BA)) == F(1, 2) * F(1, 8)
    assert nu.weight_of(((), DINF_A)) == F(1, 2) * F(1, 2)


def test_mix_convex_combination():
    mu = point_mass(Z, (1,))
    nu = uniform_pm1()
    out = mix(mu, nu, F(1, 3))
    assert out.weight_of((1,)) == F(2, 3) + F(1, 3) * F(1, 2)
    assert out.weight_of((-1,)) == F(1, 6)


def test_mix_drops_cancelled_atoms():
    mu = uniform_pm1()
    out = mix(mu, mu, F(1, 2))
    assert dict(out.atoms()) == dict(mu.atoms())


# ---------------------------------------------------------------------------
# property-based checks


@st.composite
def z_measures(draw):
    n = draw(st.integers(1, 4))
    sites = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n,
                          unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(raw)
    return FiniteMeasure.from_pairs(
        Z, [((s,), F(r, total)) for s, r in zip(sites, raw)])


@given(z_measures(), z_measures())
@settings(max_examples=60, deadline=None)
def test_convolution_mass_is_preserved(mu, nu):
    out = convolve(mu, nu)
    assert sum(w for _, w in out.atoms()) == 1


@given(z_measures(), z_measures())
@settings(max_examples=60, deadline=None)
def test_entropy_of_convolution_at_least_factors_max(mu, nu):
    # Convolving with a fixed measure cannot lose entropy on an abelian
    # group: H(mu * nu) >= max(H(mu), H(nu)) there.
    h = entropy(convolve(mu, nu))
    assert h >= max(entropy(mu), entropy(nu)) - 1e-12


def _rational_law(draw, spec, sites):
    """A law on ``spec`` with random rational weights on distinct sites."""
    picked = draw(st.lists(st.sampled_from(sites), min_size=1, max_size=4,
                           unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(picked),
                        max_size=len(picked)))
    total = sum(raw)
    return FiniteMeasure.from_pairs(
        spec, [(g, F(r, total)) for g, r in zip(picked, raw)])


@st.composite
def rational_laws(draw):
    """Small rational laws on Z, Dinf or the lamplighter C2 wr Dinf."""
    dinf_sites = [(t, f) for t in range(-2, 3) for f in (0, 1)]
    kind = draw(st.sampled_from(["Z", "Dinf", "C2 wr Dinf"]))
    if kind == "Z":
        return _rational_law(draw, Z, [(s,) for s in range(-3, 4)])
    if kind == "Dinf":
        return _rational_law(draw, DINF, dinf_sites)
    return lamplighter_mix(_rational_law(draw, Cyclic(2), [0, 1]),
                           _rational_law(draw, DINF, dinf_sites))


def _reference_powers(mu, n):
    """mu^{*1} .. mu^{*n} as dicts of Fractions, by the plain product loop."""
    step = dict(mu.atoms())
    powers = [step]
    for _ in range(n - 1):
        nxt: dict = {}
        for g, wg in powers[-1].items():
            for h, wh in step.items():
                prod = groups.multiply(mu.spec, g, h)
                nxt[prod] = nxt.get(prod, 0) + wg * wh
        powers.append(nxt)
    return powers


@given(rational_laws(), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_exact_powers_match_the_fraction_loop(mu, cap):
    n_max = 4
    reference = _reference_powers(mu, n_max)
    power = mu
    for n, ref in enumerate(reference, start=1):
        if n > 1:
            power = convolve(power, mu)
        assert list(power.atoms()) == list(ref.items())
        assert entropy(power) == -sum(float(w) * math.log(float(w))
                                      for w in ref.values())
        diff = exact_entropy(power) - entropy_form(ref.values())
        assert diff.sign() == 0
    # the first power past the cap ends the ladder; power 1 is the law itself
    over = [n for n, ref in enumerate(reference, start=1)
            if n > 1 and len(ref) > cap]
    if not over:
        assert walks.entropy_ladder(mu, n_max, cap=cap).n_max == n_max
        return
    with pytest.raises(measures.SupportCapError) as info:
        walks.entropy_ladder(mu, n_max, cap=cap)
    assert info.value.completed == over[0] - 1
    assert f"(largest completed power {over[0] - 1})" in str(info.value)


# ---------------------------------------------------------------------------
# families: laws that share a support, convolved through one product table


_PRIME = 2 ** 31 - 1   # a prime denominator: D^3 passes 2^63

ROW_SPECS = ["Z", "Z2", "Z3", "Dinf", "BS(1,-1)", "S(2,2)", "S(3,2)"]


def _family_supports():
    """Candidate atoms on every spec with a row encoding."""
    from walklab import magnus

    def images(d):
        return [magnus.magnus_embed(w, d, 2) for w in
                [(1,), (-1,), (2,), (-2,), (1, 2), (2, -1, -1), (-2, 1, 2)]
                + ([(3,), (-3,), (1, -3)] if d == 3 else [])]

    return {
        "Z": (Z, [(a,) for a in range(-2, 3)]),
        "Z2": (IntegerLattice(2), [(x, y) for x in range(-1, 2)
                                   for y in range(-1, 2)]),
        "Z3": (IntegerLattice(3), [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, 0, -1), (1, 1, 1), (0, 0, 0)]),
        "Dinf": (DINF, [(t, f) for t in range(-2, 3) for f in (0, 1)]),
        "BS(1,-1)": (BS11, [(m, n) for m in range(-1, 2)
                            for n in range(-1, 2)]),
        "S(2,2)": (magnus.sdm_spec(2, 2), images(2)),
        "S(3,2)": (magnus.sdm_spec(3, 2), images(3)),
    }


@st.composite
def law_families(draw):
    """One to four laws on one support, each with its own atom order and
    weights: exact with small denominators (int64 numerators), exact over a
    prime near 2^31 (D^n passes 2^63 at n = 3), or float."""
    spec, sites = _family_supports()[draw(st.sampled_from(ROW_SPECS))]
    support = draw(st.lists(st.sampled_from(sites), min_size=1,
                            max_size=min(len(sites), 5), unique=True))
    mode = draw(st.sampled_from(["int64", "huge", "float"]))
    laws = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(support))
        if mode == "huge":
            cuts = sorted(draw(st.lists(st.integers(1, _PRIME - 1),
                                        min_size=len(order) - 1,
                                        max_size=len(order) - 1, unique=True)))
            raw = [b - a for a, b in zip([0] + cuts, cuts + [_PRIME])]
        else:
            raw = draw(st.lists(st.integers(1, 9), min_size=len(order),
                                max_size=len(order)))
        total = sum(raw)
        weights = [r / total if mode == "float" else F(r, total) for r in raw]
        laws.append(FiniteMeasure.from_pairs(spec, zip(order, weights),
                                             exact=mode != "float"))
    return laws


def test_family_members_must_share_their_support():
    """On a spec without rows, where the family convolves law by law."""
    assert groups.row_code(WREATH_DINF) is None
    up, down, flip = ((), (1, 0)), ((), (-1, 0)), ((), (0, 1))
    a = uniform_measure(WREATH_DINF, [up, down])
    b = uniform_measure(WREATH_DINF, [up, flip])
    c = uniform_measure(WREATH_DINF, [up, down, flip])
    for other in (b, c):
        with pytest.raises(MeasureError, match="support"):
            next(measures.family_powers([a, other], 2))
    floats = FiniteMeasure.from_pairs(WREATH_DINF, [(up, 0.5), (down, 0.5)],
                                      exact=False)
    with pytest.raises(MeasureError, match="weight-mode"):
        next(measures.family_powers([a, floats], 2))


def test_family_convolution_keeps_the_support_cap():
    up, down = ((), (1, 0)), ((), (-1, 0))
    laws = [uniform_measure(WREATH_DINF, [up, down]), mix(
        uniform_measure(WREATH_DINF, [up, down]), point_mass(WREATH_DINF, up),
        F(1, 3))]
    powers = list(measures.family_powers(laws, 2, cap=3))
    assert [len(w) for w, _ in powers[1]] == [3, 3]
    with pytest.raises(measures.SupportCapError):
        list(measures.family_powers(laws, 2, cap=2))


# ---------------------------------------------------------------------------
# families on integer rows


def _powers_by_convolve(laws, depth):
    """Per power 1 .. depth, each law's weights in atom order and its
    denominator, law by law with ``convolve``."""
    own, out = list(laws), []
    for n in range(1, depth + 1):
        if n > 1:
            own = [convolve(p, mu) for p, mu in zip(own, laws)]
        out.append([(list(p._atoms.values()), p.denom) for p in own])
    return out


@given(law_families(), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_row_powers_equal_each_members_own_convolution(laws, cap):
    """On every encoded spec, each member's power on rows, a law alone as
    in a family, equals its own ``convolve`` power: weights in its atom
    order (int64 while the mass fits, Python ints beyond) and denominator;
    a cap raises at the same power as law by law."""
    depth = 4
    assert measures._family_code(laws, depth) is not None
    ref = _powers_by_convolve(laws, depth)
    over = next((n for n in range(2, depth + 1) if len(ref[n - 1][0][0]) > cap),
                None)
    got = []
    try:
        for power in measures.family_powers(laws, depth, cap):
            got.append([(w.tolist(), denom) for w, denom in power])
            if laws[0].exact:
                assert all((w.dtype == object) == (denom > 2 ** 63 - 1)
                           for w, denom in power)
    except measures.SupportCapError as exc:
        assert exc.completed == over - 1
        assert f"largest completed power {over - 1}" in str(exc)
    else:
        assert over is None
    assert got == ref[:len(got)]


@pytest.mark.parametrize("case", ["overflow", "unencoded"])
def test_families_off_the_rows_equal_their_own_convolutions(case, monkeypatch):
    """A family whose coordinates would leave the row fields, and one on a
    spec without rows (C2 wr Dinf), convolve law by law."""
    if case == "overflow":
        atoms = [(2 ** 62,), (-1,), (3,)]
        laws = [FiniteMeasure.from_pairs(Z, zip(atoms, [F(1, 2), F(1, 3), F(1, 6)])),
                FiniteMeasure.from_pairs(Z, zip(atoms[::-1], [F(1, 5), F(3, 5), F(1, 5)]))]
    else:
        laws = [measures.lamplighter_family(F(3, 4), k) for k in (2, 8)]
    assert measures._family_code(laws, 4) is None
    calls = []
    real = measures.convolve
    monkeypatch.setattr(measures, "convolve",
                        lambda *a: calls.append(1) or real(*a))
    got = [[(w.tolist(), d) for w, d in power]
           for power in measures.family_powers(laws, 4)]
    assert len(calls) == 3 * len(laws)
    assert got == _powers_by_convolve(laws, 4)


def test_row_table_past_its_byte_budget_is_refused_before_allocating(
        capsys, monkeypatch):
    """A power whose product table would pass ``MAX_ROW_TABLE_BYTES`` raises
    :class:`SupportCapError` naming the largest completed power, allocating
    less than that table would (tracemalloc sees numpy's allocations), and
    ``walklab ladder`` exits with status 2."""
    monkeypatch.setattr(measures, "MAX_ROW_TABLE_BYTES", 4 << 20)
    literal = "measure { %s }" % " ".join(
        f'atom "{x}" 1/6;' for x in ("x1", "X1", "x2", "X2", "x3", "X3"))
    mu = parsing.parse_measure_or_family("S(3,2)", literal)
    sixth = convolution_power(mu, 6)
    # power 7's table: 6 steps of every atom of power 6, 8 int64 columns
    refused = len(sixth) * 6 * 8 * 8
    assert refused > measures.MAX_ROW_TABLE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(measures.SupportCapError) as info:
            walks.entropy_ladder(mu, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.completed == 6
    assert "largest completed power 6" in str(info.value)
    assert peak < refused
    assert cli.main(["ladder", literal, "--group", "S(3,2)",
                     "--nmax", "8"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "bytes" in err


def test_distinct_rows_make_no_sorted_copy_of_the_table():
    """``_distinct`` gives the distinct rows in first-occurrence order and
    the index of every row; on a table of many duplicate rows it allocates
    less than the table, which a sorted copy of it alone would take."""
    rng = np.random.default_rng(5)
    base = rng.integers(-4, 5, size=(500, 12))
    table = base[rng.integers(0, len(base), size=100_000)]
    tracemalloc.start()
    try:
        rows, inverse = measures._distinct(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes
    _, first = np.unique(table, axis=0, return_index=True)
    assert (rows == table[np.sort(first)]).all()
    assert (rows[inverse] == table).all()


def test_float_weights_round_each_numerator_once():
    rng = Random(3)
    for denom in (6, 2 ** 53, 2 ** 53 + 1, 3 ** 40, 7 ** 30):
        nums = [rng.randrange(1, denom) for _ in range(50)]
        mass = sum(nums)
        w = np.array(nums, dtype=np.int64 if mass < 2 ** 63 else object)
        assert (measures.float_weights(w, denom).tolist()
                == [a / denom for a in nums])


def test_convolve_cap_counts_distinct_products():
    mu = uniform_measure(IntegerLattice(2), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert len(convolve(mu, mu, cap=9)) == 9
    with pytest.raises(measures.SupportCapError):
        convolve(mu, mu, cap=8)
