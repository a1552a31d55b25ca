"""Exact log-linear arithmetic: signs, zero tests, entropy forms."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.exact_entropy import LogLinear, entropy_form, factorize

F = Fraction


# ---------------------------------------------------------------------------
# algebra


def test_zero_form():
    z = LogLinear.zero()
    assert z.is_zero()
    assert z.sign() == 0
    assert z.to_float() == 0.0


def test_log_of_one_vanishes():
    assert LogLinear.of_log(1).is_zero()


def test_addition_and_scaling():
    a = LogLinear.of_log(2, F(3, 2))
    b = LogLinear.of_log(3, 1)
    s = a + b
    assert s.coeffs == {2: F(3, 2), 3: F(1)}
    assert (s - b).coeffs == {2: F(3, 2)}
    assert (-a).coeffs == {2: F(-3, 2)}
    assert a.scale(F(2, 3)).coeffs == {2: F(1)}


def test_log_argument_must_be_positive():
    with pytest.raises(ValueError):
        LogLinear({0: F(1)})
    with pytest.raises(ValueError):
        LogLinear({-3: F(1)})


# ---------------------------------------------------------------------------
# exact zero and sign decisions


def test_multiplicative_relations_collapse_to_zero():
    assert (LogLinear.of_log(8) - LogLinear.of_log(2, 3)).is_zero()
    assert (LogLinear.of_log(6) - LogLinear.of_log(2)
            - LogLinear.of_log(3)).is_zero()
    assert (LogLinear.of_log(12, F(1, 2)) - LogLinear.of_log(2)
            - LogLinear.of_log(3, F(1, 2))).is_zero()


def test_semantic_equality():
    assert LogLinear.of_log(8) == LogLinear.of_log(2, 3)
    assert LogLinear.of_log(2) != LogLinear.of_log(3)


def test_signs_of_simple_combinations():
    assert (LogLinear.of_log(3) - LogLinear.of_log(2)).sign() == 1
    assert (LogLinear.of_log(2) - LogLinear.of_log(3)).sign() == -1
    assert (LogLinear.of_log(4) - LogLinear.of_log(2, 2)).sign() == 0


def test_sign_of_a_tight_combination():
    # 485 log 2 - 306 log 3 is about 1.0e-3: well below any naive tolerance,
    # still decided exactly by the escalating-precision machinery.
    form = LogLinear.of_log(2, 485) - LogLinear.of_log(3, 306)
    assert not form.is_zero()
    assert form.sign() == 1
    assert (-form).sign() == -1


def test_to_float_accuracy():
    assert abs(LogLinear.of_log(2).to_float() - math.log(2)) < 1e-15
    val = (LogLinear.of_log(3, F(5, 7)) - LogLinear.of_log(5, F(2, 9)))
    expected = 5 / 7 * math.log(3) - 2 / 9 * math.log(5)
    assert abs(val.to_float() - expected) < 1e-14


def test_exact_tie_of_enclosed_operands_reaches_the_zero_test(monkeypatch):
    zero_tests = []
    is_zero = LogLinear.is_zero
    monkeypatch.setattr(LogLinear, "is_zero",
                        lambda form: zero_tests.append(form) or is_zero(form))
    tie = LogLinear.of_log(4).enclose() - LogLinear.of_log(2, 2).enclose()
    lo, hi = (mpmath.mp.make_mpf(x) for x in tie.enclosure)
    assert lo < 0 < hi
    assert tie.sign() == 0
    assert zero_tests == [tie]


def test_combinations_inherit_enclosures_only_from_enclosed_operands():
    a = LogLinear.of_log(3).enclose()
    b = LogLinear.of_log(2)
    assert (a + b).enclosure is None and (b - a).enclosure is None
    b.enclose()
    for form in (a + b, a - b, -a, a.scale(F(-2, 3)), a / 5):
        assert form.enclosure is not None
    assert LogLinear.zero().enclose().enclosure == (mpmath.libmp.fzero,) * 2


# ---------------------------------------------------------------------------
# enclosures


PRECISE = 2560
log_args = st.integers(2, 12)
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
small_forms = st.dictionaries(log_args, coefficients, max_size=4).map(LogLinear)


def _tie(m1: int, m2: int, c: Fraction) -> LogLinear:
    """c log(m1 m2) - c log m1 - c log m2, from enclosed operands."""
    return (LogLinear.of_log(m1 * m2, c).enclose()
            - LogLinear.of_log(m1, c).enclose() - LogLinear.of_log(m2, c).enclose())


ties = st.builds(_tie, log_args, log_args, coefficients.filter(bool))


@functools.cache
def precise_log(m: int) -> mpmath.mpf:
    with mpmath.workprec(PRECISE):
        return mpmath.log(m)


def precise_value(form: LogLinear) -> mpmath.mpf:
    with mpmath.workprec(PRECISE):
        return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * precise_log(m)
                           for m, c in form.coeffs.items())


def assert_encloses(form: LogLinear, value: mpmath.mpf) -> None:
    lo, hi = (mpmath.mp.make_mpf(x) for x in form.enclosure)
    assert lo <= value <= hi
    mid, rad = form.evaluate()  # from the coefficients, at 80 bits
    with mpmath.workprec(PRECISE):
        assert mid - rad <= value <= mid + rad


def assert_sign_of(form: LogLinear, value: mpmath.mpf) -> None:
    if form.is_zero():
        assert form.sign() == 0
    else:
        assert abs(value) > mpmath.mpf(2) ** -2000
        assert form.sign() == (1 if value > 0 else -1)


@given(small_forms, small_forms, ties, coefficients.filter(bool),
       st.integers(1, 9))
@settings(max_examples=100)
def test_enclosures_contain_the_precise_value(a, b, tie, q, n):
    """Own and inherited enclosures contain the 2560-bit value, and sign()
    agrees with its sign, 0 exactly on ties such as log 6 - log 2 - log 3."""
    a.enclose()
    b.enclose()
    for form in (a, b, tie, a + b, a - b + tie, -a, a.scale(q), a / n,
                 (a - b) / n - b):
        value = precise_value(form)
        assert_encloses(form, value)
        assert_sign_of(form, value)
        assert_sign_of(LogLinear(form.coeffs), value)  # no inherited enclosure


@given(small_forms, small_forms, st.integers(1, 9))
@settings(max_examples=50)
def test_enclosure_only_values_combine_like_their_forms(a, b, n):
    """A check over enclosure-only values gets the enclosure that the same
    check over the enclosed forms inherits, and the same sign wherever that
    enclosure excludes 0."""
    ao, bo = a.enclosure_only(), b.enclosure_only()
    assert not ao.coeffs and ao.enclosure == a.enclosure
    for form, only in ((a + b, ao + bo), ((a - b) / n - b, (ao - bo) / n - bo),
                       (-a, -ao)):
        assert only.enclosure == form.enclosure
        assert only.enclosure_sign() == form.enclosure_sign()
        if only.enclosure_sign():
            assert only.sign() == form.sign() == only.enclosure_sign()


def test_values_known_only_by_their_enclosure_decide_only_what_it_settles():
    """log 2 and log 3 by their enclosures are not equal as exact forms, and
    log 2 - log 2 with one side known only by its enclosure is not an exact
    nonzero: each question the enclosure cannot settle raises."""
    two = LogLinear.of_log(2).enclosure_only()
    three = LogLinear.of_log(3).enclosure_only()
    tie = two + LogLinear.of_log(2, -1).enclose()
    undecidable = [lambda: two == three, lambda: two != three, tie.sign,
                   tie.is_zero, (-tie / 3).sign, tie.to_float,
                   (LogLinear.of_log(2).enclose() - two).sign,
                   (LogLinear.of_log(3) + two).enclose]
    for question in undecidable:
        with pytest.raises(ArithmeticError, match="known only by its enclosure"):
            question()
    assert (three - two).sign() == 1 and (two - three).scale(2).sign() == -1


# ---------------------------------------------------------------------------
# entropy forms


def test_entropy_form_point_mass():
    assert entropy_form([F(1)]).is_zero()


def test_entropy_form_uniform():
    assert entropy_form([F(1, 2)] * 2) == LogLinear.of_log(2)
    assert entropy_form([F(1, 4)] * 4) == LogLinear.of_log(2, 2)
    assert entropy_form([F(1, 3)] * 3) == LogLinear.of_log(3)


def test_entropy_form_binary_mixture():
    # {1/2, 1/4, 1/4} has entropy (3/2) log 2.
    form = entropy_form([F(1, 2), F(1, 4), F(1, 4)])
    assert form == LogLinear.of_log(2, F(3, 2))


def test_entropy_form_skips_zero_weights():
    assert entropy_form([F(1), F(0)]).is_zero()


def test_entropy_form_rejects_negative_weights():
    with pytest.raises(ValueError):
        entropy_form([F(3, 2), F(-1, 2)])


def test_entropy_form_matches_float_entropy():
    weights = [F(3, 8), F(1, 8), F(1, 4), F(1, 4)]
    direct = -sum(float(w) * math.log(float(w)) for w in weights)
    assert abs(entropy_form(weights).to_float() - direct) < 1e-12


# ---------------------------------------------------------------------------
# factorisation


def test_factorize_small_numbers():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2 ** 10 * 3 ** 5) == {2: 10, 3: 5}


def test_factorize_large_prime():
    p = 1_000_000_007
    assert factorize(p) == {p: 1}


def test_factorize_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


@given(st.integers(2, 10 ** 6))
@settings(max_examples=200)
def test_factorize_reconstructs(n):
    product = 1
    for p, e in factorize(n).items():
        product *= p ** e
    assert product == n


# ---------------------------------------------------------------------------
# property-based checks


small_weights = st.lists(st.integers(1, 30), min_size=1, max_size=6)


@given(small_weights)
@settings(max_examples=200)
def test_entropy_form_is_nonnegative(raw):
    total = sum(raw)
    weights = [F(r, total) for r in raw]
    form = entropy_form(weights)
    assert form.sign() >= 0
    direct = -sum(float(w) * math.log(float(w)) for w in weights if w > 0)
    assert abs(form.to_float() - direct) < 1e-12


@given(small_weights, small_weights)
@settings(max_examples=100)
def test_entropy_form_additive_over_products(raw_a, raw_b):
    # Independent products: H(product weights) = H(a) + H(b).
    ta, tb = sum(raw_a), sum(raw_b)
    wa = [F(r, ta) for r in raw_a]
    wb = [F(r, tb) for r in raw_b]
    product = [x * y for x in wa for y in wb]
    assert entropy_form(product) == entropy_form(wa) + entropy_form(wb)
