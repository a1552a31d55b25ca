"""Entropy ladders, trajectory enumeration, partition views, coarse records."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import groups, measures, walks
from walklab.exact_entropy import LogLinear
from walklab.groups import IntegerLattice
from walklab.measures import (
    FiniteMeasure,
    MeasureError,
    convolution_power,
    dinf_family,
    point_mass,
    product_measure,
    uniform_measure,
)
from walklab.walks import (
    EntropyLadder,
    TrajectoryEnumeration,
    coarse_entropy,
    coarse_entropy_form,
    coarse_view,
    conditional_entropy_form,
    endpoint_view,
    entropy_ladder,
    free_group_srw_ladder,
    increment_view,
    joint_view,
    position_view,
    sphere_size,
    view_entropy_form,
)

F = Fraction
Z = IntegerLattice(1)
LOG2 = LogLinear.of_log(2)


def uniform_pm1():
    return uniform_measure(Z, [(1,), (-1,)])


# ---------------------------------------------------------------------------
# entropy ladders


def test_point_mass_ladder_is_zero():
    ladder = entropy_ladder(point_mass(Z, (3,)), 6)
    assert ladder.values == [0.0] * 7
    assert all(f.is_zero() for f in ladder.forms)
    assert all(c.ok for c in ladder.verify())


def test_uniform_walk_second_step_entropy():
    ladder = entropy_ladder(uniform_pm1(), 4)
    assert ladder.forms[1] == LOG2
    assert ladder.forms[2] == LOG2.scale(F(3, 2))
    assert abs(ladder.values[2] - 1.5 * math.log(2)) < 1e-12


def test_ladder_invariants_on_family_measure():
    ladder = entropy_ladder(dinf_family(F(3, 4), 3), 8)
    checks = ladder.verify()
    assert checks and all(c.ok for c in checks)


def bad_ladder(exact: bool) -> EntropyLadder:
    """H = (0, log 2, 3 log 2): every invariant at depth 2 fails by log 2."""
    forms = [LogLinear.zero(), LOG2, LOG2.scale(3)]
    values = [0.0, math.log(2), 3 * math.log(2)]
    return EntropyLadder("bad", values, forms if exact else None)


@pytest.mark.parametrize("exact", [True, False])
def test_verify_reports_each_violated_invariant(exact):
    detail = "exact sign -1" if exact else "value -6.931e-01"
    failed = [(c.name, c.index, c.detail)
              for c in bad_ladder(exact).verify() if not c.ok]
    assert failed == [("subadditivity", (1, 1), detail),
                      ("diff-nonincreasing", (0,), detail),
                      ("diff-below-average", (1,), detail)]


@pytest.mark.parametrize("exact", [True, False])
def test_ladder_summary_lists_failed_checks(exact):
    summary = bad_ladder(exact).summary()
    assert summary["measure"] == "bad" and summary["n_max"] == 2
    assert summary["exact"] is exact
    assert not summary["invariants_pass"]
    assert summary["failed_checks"] == [
        "subadditivity(1, 1)", "diff-nonincreasing(0,)", "diff-below-average(1,)"]


def test_subadditivity_tie_reaches_the_zero_test(monkeypatch):
    """H = (0, log 2, log 4): H_1 + H_1 - H_2 is 0, but not term by term, so
    its inherited enclosure contains 0 and the decision needs ``is_zero``."""
    zero_tests = []
    is_zero = LogLinear.is_zero

    def counting(form):
        zero_tests.append(form)
        return is_zero(form)

    monkeypatch.setattr(LogLinear, "is_zero", counting)
    forms = [LogLinear.zero(), LOG2, LogLinear.of_log(4)]
    ladder = EntropyLadder("tie", [0.0, math.log(2), math.log(4)], forms)
    checks = ladder.verify()
    assert [(c.name, c.index, c.ok) for c in checks] == [
        ("subadditivity", (1, 1), True),
        ("diff-nonincreasing", (0,), True),
        ("diff-below-average", (1,), True)]
    assert all(f.enclosure is not None for f in forms)
    assert len(zero_tests) == 3  # every check of this ladder is a tie


def test_ladder_checks_settle_from_the_enclosed_values(monkeypatch):
    """Each check inherits an enclosure from H_0..H_n that excludes 0, so no
    check's terms are evaluated again."""
    ladder = entropy_ladder(dinf_family(F(3, 4), 3), 7)

    def evaluate(form, prec=80):
        raise AssertionError(f"evaluated {form!r} at {prec} bits")

    monkeypatch.setattr(LogLinear, "evaluate", evaluate)
    checks = ladder.verify()
    assert len(checks) == 7 * 6 // 2 + 2 * 6
    assert all(c.ok for c in checks)


class _NoArithmetic(LogLinear):
    """A form whose sums, differences and multiples raise."""

    __slots__ = ()

    def __add__(self, other):
        raise AssertionError(f"built a check's form from {self!r}")

    __sub__ = __add__
    scale = __add__


def test_verify_builds_no_form_for_checks_settled_by_enclosures():
    """Every check of this ladder has an enclosure that excludes 0, so
    ``verify`` must decide it without combining the forms' coefficients."""
    ladder = entropy_ladder(dinf_family(F(3, 4), 3), 7)
    forms = [_NoArithmetic(form.coeffs).enclose() for form in ladder.forms]
    checks = EntropyLadder("no-arithmetic", ladder.values, forms).verify()
    assert len(checks) == 7 * 6 // 2 + 2 * 6
    assert all(c.ok for c in checks)


def test_ladder_requires_positive_length():
    with pytest.raises(MeasureError):
        entropy_ladder(uniform_pm1(), 0)


def test_ladder_sum_matches_product_measure():
    eta = uniform_pm1()
    mu = dinf_family(F(3, 4), 3)
    product = product_measure(eta, mu)
    direct = entropy_ladder(product, 4)
    summed = EntropyLadder.sum_of(entropy_ladder(eta, 4),
                                  entropy_ladder(mu, 4), "sum")
    for n in range(5):
        assert (direct.forms[n] - summed.forms[n]).is_zero()


def test_ladder_truncation_annotates_cap():
    mu = uniform_measure(IntegerLattice(2),
                         [(1, 0), (-1, 0), (0, 1), (0, -1)])
    with pytest.raises(measures.SupportCapError) as info:
        entropy_ladder(mu, 8, cap=20)
    assert info.value.completed < 8
    assert f"largest completed power {info.value.completed}" in str(info.value)


@st.composite
def mixed_families(draw):
    """Laws on Z^2 over one or two supports, all exact or all float, each
    with its own atom order and weights."""
    sites = [(x, y) for x in range(-1, 2) for y in range(-1, 2)]
    exact = draw(st.booleans())
    laws = []
    for _ in range(draw(st.integers(1, 2))):
        support = draw(st.lists(st.sampled_from(sites), min_size=1,
                                max_size=4, unique=True))
        for _ in range(draw(st.integers(1, 3))):
            order = draw(st.permutations(support))
            raw = draw(st.lists(st.integers(1, 9), min_size=len(order),
                                max_size=len(order)))
            weights = [F(r, sum(raw)) if exact else r / sum(raw) for r in raw]
            laws.append(FiniteMeasure.from_pairs(
                IntegerLattice(2), zip(order, weights), exact=exact))
    return draw(st.permutations(laws))


def _convolved_ladder(mu, n_max, cap=measures.DEFAULT_SUPPORT_CAP):
    """Values and, for an exact law, form coefficients of ``mu``'s ladder
    read off its powers by :func:`convolution_power`, which convolves pair
    by pair with ``groups.multiply``: a reference apart from the rows."""
    powers = [convolution_power(mu, n, cap) for n in range(1, n_max + 1)]
    coeffs = ([measures.exact_entropy(p).coeffs for p in powers]
              if mu.exact else None)
    return [0.0] + [measures.entropy(p) for p in powers], coeffs


@given(mixed_families())
@settings(max_examples=30, deadline=None)
def test_family_ladders_equal_each_laws_own_ladder(laws):
    """Values bit for bit and form coefficients equal those read off each
    law's :func:`convolution_power`; enclosures are the same in a family as
    for the law alone."""
    ladders = walks.entropy_ladders(laws, 4, labels=[f"law {i}"
                                                     for i in range(len(laws))])
    for i, (mu, ladder) in enumerate(zip(laws, ladders)):
        own = entropy_ladder(mu, 4, label=f"law {i}")
        values, coeffs = _convolved_ladder(mu, 4)
        assert ladder.label == own.label
        assert ladder.values == own.values == values
        if own.forms is None:
            assert ladder.forms is None and coeffs is None
            continue
        assert [f.coeffs for f in ladder.forms[1:]] == coeffs
        assert [f.coeffs for f in own.forms[1:]] == coeffs
        assert ([f.enclosure for f in ladder.forms]
                == [f.enclosure for f in own.forms])


def test_laws_with_different_supports_form_separate_families(monkeypatch):
    sizes = []
    family_powers = measures.family_powers

    def recorded(laws, n_max, cap):
        sizes.append(len(laws))
        return family_powers(laws, n_max, cap)

    monkeypatch.setattr(measures, "family_powers", recorded)
    a = uniform_pm1()
    b = FiniteMeasure.from_pairs(Z, [((1,), F(1, 3)), ((-1,), F(2, 3))])
    c = uniform_measure(Z, [(1,), (-2,)])
    ladders = walks.entropy_ladders([a, c, b], 3)
    assert sorted(sizes) == [1, 2]
    assert ([ladder.values for ladder in ladders]
            == [_convolved_ladder(mu, 3)[0] for mu in (a, c, b)])


def test_family_truncation_annotates_every_member():
    """The family stops at the power past which each member's own
    :func:`convolution_power` passes the cap."""
    z2 = IntegerLattice(2)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    laws = [uniform_measure(z2, steps),
            FiniteMeasure.from_pairs(z2, zip(steps[::-1], [F(1, 8), F(1, 8),
                                                           F(1, 4), F(1, 2)]))]
    with pytest.raises(measures.SupportCapError) as info:
        walks.entropy_ladders(laws, 8, cap=20)
    completed = info.value.completed
    assert f"largest completed power {completed}" in str(info.value)
    for mu in laws:
        convolution_power(mu, completed, cap=20)
        with pytest.raises(measures.SupportCapError):
            convolution_power(mu, completed + 1, cap=20)


def _s32_laws(exact):
    """Item 7's laws on S(3, 2): uniform on the six generator images, and
    eps = 1/12, 1/24, 1/48 of mass moved from x1^-1 to x1 (E7's, in binary64
    when ``exact`` is false)."""
    from walklab import magnus
    sdm = magnus.sdm_spec(3, 2)
    gens = [magnus.magnus_embed((s * i,), 3, 2) for i in (1, 2, 3)
            for s in (1, -1)]
    sixth = F(1, 6) if exact else 1.0 / 6.0
    laws = [FiniteMeasure.from_pairs(sdm, [(g, sixth) for g in gens], exact)]
    for d in (12, 24, 48):
        eps = F(1, d) if exact else 1.0 / d
        pairs = [(g, sixth) for g in gens[2:]]
        pairs += [(gens[0], sixth + eps), (gens[1], sixth - eps)]
        laws.append(FiniteMeasure.from_pairs(sdm, pairs, exact))
    return laws


@pytest.mark.parametrize("exact", [False, True])
def test_s32_family_ladders_make_no_multiply(exact, monkeypatch):
    """E7's perturbation family (float) and item 7's exact laws build their
    ladders on rows, together and each alone, with no ``groups.multiply``,
    and equal each law's ladder read off ``convolution_power``: values bit
    for bit, and form coefficients; a law's enclosures are the same in its
    family as alone."""
    laws = _s32_laws(exact)
    calls = []
    multiply = groups.multiply
    monkeypatch.setattr(groups, "multiply",
                        lambda *a: calls.append(a) or multiply(*a))
    ladders = walks.entropy_ladders(laws, 4)
    alone = [entropy_ladder(mu, 4) for mu in laws]
    assert calls == []
    for mu, ladder, own in zip(laws, ladders, alone):
        values, coeffs = _convolved_ladder(mu, 4)
        assert ladder.values == own.values == values
        if exact:
            assert [f.coeffs for f in ladder.forms[1:]] == coeffs
            assert [f.coeffs for f in own.forms[1:]] == coeffs
            assert ([f.enclosure for f in ladder.forms]
                    == [f.enclosure for f in own.forms])
    # _convolved_ladder(mu, 4) multiplies mu^k by mu for k < n, n = 1 .. 4
    made = len(calls)
    assert made == sum(len(convolution_power(mu, k)) * len(mu) * (4 - k)
                       for mu in laws for k in range(1, 4))


def test_ladder_rows_and_ratios():
    ladder = entropy_ladder(uniform_pm1(), 3)
    rows = ladder.to_rows()
    assert [r["n"] for r in rows] == [0, 1, 2, 3]
    assert math.isnan(rows[0]["ratio"])
    assert rows[1]["ratio"] == ladder.values[1]
    assert ladder.diffs()[0] == ladder.values[1]


# ---------------------------------------------------------------------------
# enclosures of exact ladders from their binary64 weights


@st.composite
def many_atom_laws(draw):
    """Numerators over their sum: a point mass, a weight near 1 beside unit
    weights, or a few distinct values each repeated up to a few thousand
    times (few distinct logs keep the 2560-bit reference cheap)."""
    shape = draw(st.sampled_from(["point", "near-one", "repeated"]))
    if shape == "point":
        return [draw(st.integers(1, 10 ** 6))]
    if shape == "near-one":
        return [draw(st.integers(10 ** 5, 10 ** 6))] + [1] * draw(
            st.integers(1, 3000))
    values = draw(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6))
    counts = draw(st.lists(st.integers(1, 1000), min_size=len(values),
                           max_size=len(values)))
    return [v for v, c in zip(values, counts) for _ in range(c)]


@given(many_atom_laws())
@settings(max_examples=60, deadline=None)
def test_weight_brackets_contain_the_entropy_and_are_tight(nums):
    denom = sum(nums)
    mu = FiniteMeasure(Z, {(i,): F(a, denom) for i, a in enumerate(nums)})
    form = entropy_ladder(mu, 1).forms[1]
    lo, hi = (mpmath.mp.make_mpf(x) for x in form.enclosure)
    with mpmath.workprec(2560):
        mid, rad = form.evaluate(2560)
        assert lo <= mid - rad and mid + rad <= hi
    assert hi - lo <= (len(nums) + 300) * 2.0 ** -52 * (float(mid) + 1)


def test_weights_below_2_to_the_minus_1000_fall_back_to_the_coefficients():
    tiny = F(1, 2 ** 1001)
    mu = FiniteMeasure(Z, {(0,): F(1, 2), (1,): F(1, 2) - tiny, (2,): tiny})
    ladder = entropy_ladder(mu, 3)  # tiny^2 underflows: its term adds 0
    assert [f.enclosure for f in ladder.forms[1:]] == [None] * 3
    assert all(c.ok for c in ladder.verify())
    assert ladder.values == pytest.approx([f.to_float() for f in ladder.forms],
                                          rel=1e-15)


@pytest.mark.parametrize("k", [2, 8, 32, None])
def test_weight_brackets_settle_the_checks_80_bit_enclosures_settle(k):
    """E4's lamplighter ladder at n = 9: each check's sign on the binary64
    weight brackets is the sign on the 80-bit coefficient enclosures."""
    ladder = entropy_ladder(measures.lamplighter_family(F(3, 4), k), 9)
    assert all(f.enclosure is not None for f in ladder.forms[1:])
    weights = [f.enclosure_only() for f in ladder.forms]
    coefficients = [LogLinear(f.coeffs).enclosure_only() for f in ladder.forms]
    signs = [(expr(weights).enclosure_sign(),
              expr(coefficients).enclosure_sign())
             for _, _, expr in walks._ladder_checks(ladder.n_max)]
    assert all(a == b for a, b in signs)
    assert any(a for a, _ in signs)


def test_exact_radial_brackets_contain_the_entropy():
    ladder = free_group_srw_ladder(3, 40, exact=True)
    for n in (1, 2, 3, 39, 40):
        form = ladder.forms[n]
        lo, hi = (mpmath.mp.make_mpf(x) for x in form.enclosure)
        with mpmath.workprec(2560):
            mid, rad = form.evaluate(2560)
            assert lo <= mid - rad and mid + rad <= hi
        assert hi - lo <= (n + 300) * 2.0 ** -52 * (float(mid) + 1)


# ---------------------------------------------------------------------------
# the radial free-group ladder


def test_radial_first_step():
    ladder = free_group_srw_ladder(2, 3, exact=True)
    assert ladder.forms[1] == LogLinear.of_log(4)


def _distance_law(rank, n):
    """The exact law of the word length after ``n`` steps, on the lengths
    ``n % 2, n % 2 + 2, ..., n``."""
    return next(islice(walks._radial_chain(rank, True), n, None)).tolist()


def test_radial_distance_law_small_n():
    assert _distance_law(2, 2) == [F(1, 4), F(3, 4)]  # lengths 0 and 2
    assert _distance_law(2, 3) == [F(7, 16), F(9, 16)]  # lengths 1 and 3


def test_sphere_sizes():
    assert [sphere_size(2, k) for k in range(4)] == [1, 4, 12, 36]


def test_radial_ladder_matches_direct_convolution():
    # The radial chain and the honest free-group convolution must agree.
    eta = measures.uniform_measure(groups.FreeGroup(2),
                                   [(1,), (-1,), (2,), (-2,)])
    direct = entropy_ladder(eta, 5)
    radial = free_group_srw_ladder(2, 5, exact=True)
    for n in range(6):
        assert (direct.forms[n] - radial.forms[n]).is_zero()


def test_radial_increments_nonincreasing_to_plateau():
    ladder = free_group_srw_ladder(2, 400)
    diffs = ladder.diffs()
    assert all(diffs[i + 1] <= diffs[i] + 1e-9 for i in range(len(diffs) - 1))
    assert abs(diffs[-1] - 0.5 * math.log(3)) < 0.03


@pytest.mark.parametrize("rank", [2, 3])
def test_float_radial_brackets_contain_the_entropy(rank):
    """Each binary64 bracket holds H_n of the exact distance law, with its
    logs taken at 200 bits."""
    ladder = free_group_srw_ladder(rank, 300)
    with mpmath.workprec(200):
        for n in (1, 2, 3, 50, 300):
            h = mpmath.fsum(
                mpmath.mpf(q.numerator) / q.denominator
                * (mpmath.log(sphere_size(rank, k) * q.denominator)
                   - mpmath.log(q.numerator))
                for k, q in zip(range(n % 2, n + 1, 2),
                                _distance_law(rank, n)))
            lo, hi = ladder.bounds[n]
            assert lo <= h <= hi, (n, lo, h, hi)
            assert ladder.values[n] == (lo + hi) / 2


def test_float_radial_bracket_at_2000_steps_decides_the_increments():
    lo, hi = free_group_srw_ladder(2, 2000).bounds[2000]
    assert 0 < hi - lo <= 1e-8


def test_float_radial_ladder_past_underflow_matches_the_math_log_loop():
    """Past n = 2,400 chain entries fall below 2^-1000 and then underflow;
    the brackets stay finite and their midpoints agree with the loop that
    took every log with math.log (the reference)."""
    rank, n_max = 2, 2600
    log_spheres = np.array([math.log(sphere_size(rank, k))
                            for k in range(n_max + 1)])
    expected = [0.0]
    chain = islice(walks._radial_chain(rank, False), 1, n_max + 1)
    for n, dist in enumerate(chain, 1):
        ks = np.flatnonzero(dist > 0)
        q = dist[ks]
        ks = 2 * ks + n % 2  # the lengths
        log_q = np.fromiter(map(math.log, q.tolist()), float, len(q))
        expected.append(float(np.cumsum(-q * log_q + q * log_spheres[ks])[-1]))
    ladder = free_group_srw_ladder(rank, n_max)
    lo, hi = (np.array(side) for side in zip(*ladder.bounds))
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    assert (lo <= hi).all()
    np.testing.assert_allclose(ladder.values, expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize("exact", [False, True])
def test_radial_ladder_refuses_bad_arguments_before_any_arithmetic(exact):
    with pytest.raises(MeasureError, match="rank must be >= 1"):
        free_group_srw_ladder(0, 3, exact=exact)
    with pytest.raises(MeasureError, match="n_max must be >= 0"):
        free_group_srw_ladder(2, -1, exact=exact)
    assert free_group_srw_ladder(2, 0, exact=exact).values == [0.0]


# ---------------------------------------------------------------------------
# trajectories


def test_enumeration_exhausts_sequences():
    mu = uniform_pm1()
    enum = TrajectoryEnumeration(mu, 2)
    assert len(enum.seqs) == 4
    assert all(w == F(1, 4) for w in enum.weights)
    assert enum.total() == 1


def test_enumeration_zero_steps_is_single_empty_path():
    enum = TrajectoryEnumeration(uniform_pm1(), 0)
    assert enum.seqs == [()]
    assert enum.weights == [F(1)]
    assert enum.positions == [()]
    assert enum.total() == 1


def test_enumeration_rejects_negative_length():
    with pytest.raises(MeasureError):
        TrajectoryEnumeration(uniform_pm1(), -1)


def test_enumeration_respects_cap():
    mu = dinf_family(F(3, 4), 3)
    with pytest.raises(measures.SupportCapError):
        TrajectoryEnumeration(mu, 10, cap=100)


def test_enumeration_weights_multiply():
    mu = measures.FiniteMeasure.from_pairs(
        Z, [((1,), F(3, 4)), ((-1,), F(1, 4))])
    enum = TrajectoryEnumeration(mu, 3)
    assert enum.total() == 1
    for seq, w in zip(enum.seqs, enum.weights):
        expected = F(1)
        for idx in seq:
            expected *= enum.atom_weights[idx]
        assert w == expected


# ---------------------------------------------------------------------------
# partition views and conditional entropy


def _enum_pm1(n):
    return TrajectoryEnumeration(uniform_pm1(), n)


def test_view_entropy_of_first_position():
    enum = _enum_pm1(3)
    assert view_entropy_form(enum, position_view(1)) == LOG2


def test_conditional_entropy_of_view_on_itself():
    enum = _enum_pm1(3)
    w2 = position_view(2)
    assert conditional_entropy_form(enum, w2, w2).is_zero()


def _triples(n):
    return [
        (position_view(1), position_view(2), position_view(n)),
        (increment_view(2), endpoint_view(), position_view(1)),
        (coarse_view(2), increment_view(1), endpoint_view()),
    ]


@pytest.mark.parametrize("make_mu", [uniform_pm1,
                                     lambda: dinf_family(F(3, 4), 3)],
                         ids=["uniform-z", "dinf-family"])
def test_conditional_entropy_identities_exact(make_mu):
    # Chain rule and the two monotonicity inequalities, decided exactly.
    enum = TrajectoryEnumeration(make_mu(), 3)
    for rho, gamma, delta in _triples(3):
        chain_lhs = conditional_entropy_form(enum, joint_view(rho, gamma),
                                             delta)
        chain_rhs = (conditional_entropy_form(enum, rho,
                                              joint_view(gamma, delta))
                     + conditional_entropy_form(enum, gamma, delta))
        assert (chain_lhs - chain_rhs).is_zero()
        refine = (conditional_entropy_form(enum, joint_view(rho, delta),
                                           gamma)
                  - conditional_entropy_form(enum, rho, gamma))
        assert refine.sign() >= 0
        condition = (conditional_entropy_form(enum, rho, gamma)
                     - conditional_entropy_form(enum, rho,
                                                joint_view(gamma, delta)))
        assert condition.sign() >= 0


def test_joint_view_symmetry():
    enum = _enum_pm1(3)
    a, b = position_view(1), position_view(3)
    ab = view_entropy_form(enum, joint_view(a, b))
    ba = view_entropy_form(enum, joint_view(b, a))
    assert (ab - ba).is_zero()


def test_view_index_validation():
    with pytest.raises(MeasureError):
        position_view(0)
    with pytest.raises(MeasureError):
        increment_view(0)
    with pytest.raises(MeasureError):
        coarse_view(0)


# ---------------------------------------------------------------------------
# coarse entropy


def test_coarse_entropy_single_block():
    mu = uniform_pm1()
    for n in (2, 3, 4):
        block = measures.exact_entropy(convolution_power(mu, n))
        assert (coarse_entropy_form(mu, n, n) - block).is_zero()


def test_coarse_entropy_fair_walk_values():
    mu = uniform_pm1()
    form = coarse_entropy_form(mu, 4, 2)
    assert form == LOG2.scale(3)
    assert abs(coarse_entropy(mu, 4, 2) - 3 * math.log(2)) < 1e-12


@pytest.mark.parametrize("n,t0", [(4, 2), (6, 2), (6, 3)])
def test_coarse_entropy_matches_enumerated_view(n, t0):
    mu = uniform_pm1()
    enum = TrajectoryEnumeration(mu, n)
    via_view = view_entropy_form(enum, coarse_view(t0))
    assert (coarse_entropy_form(mu, n, t0) - via_view).is_zero()


def test_determined_views_have_zero_conditional_entropy():
    # The first increment and the first position determine each other.
    enum = _enum_pm1(4)
    g1, w1 = increment_view(1), position_view(1)
    assert conditional_entropy_form(enum, g1, w1).is_zero()
    assert conditional_entropy_form(enum, w1, g1).is_zero()
    # The coarse t0=2 record is a function of the full position record.
    full = joint_view(*(position_view(i) for i in range(1, 5)))
    assert conditional_entropy_form(enum, coarse_view(2), full).is_zero()


def test_coarse_entropy_argument_validation():
    mu = uniform_pm1()
    with pytest.raises(MeasureError):
        coarse_entropy(mu, 3, 0)
    with pytest.raises(MeasureError):
        coarse_entropy(mu, 2, 3)
