"""Outward-rounded brackets: each operation contains the exact rational result."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_int, from_rational, fzero, round_ceiling,
                          round_floor, to_rational)
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_mul

from walklab.intervals import Bracket

F = Fraction
ONE = Bracket(from_int(1), from_int(1))
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=97)
positives = st.fractions(min_value=F(1, 97), max_value=50, max_denominator=97)
precs = st.sampled_from([4, 7, 12, 53])


def exact(x: tuple) -> Fraction:
    return Fraction(*to_rational(x))


def bracket_of(q: Fraction, prec: int) -> Bracket:
    """A ``prec``-bit bracket of ``q``, by scaling the point 1."""
    return ONE.scale(q, prec)


def assert_contains(b: Bracket, value: Fraction) -> None:
    lo, hi = b  # unpacks as a pair
    assert exact(lo) <= value <= exact(hi)


@given(rationals, rationals, rationals, precs)
@settings(max_examples=200)
def test_operations_contain_the_exact_result(x, y, q, prec):
    bx, by = bracket_of(x, prec), bracket_of(y, prec)
    assert_contains(bx, x)
    assert_contains(bx.add(by, prec), x + y)
    assert_contains(bx.sub(by, prec), x - y)
    assert_contains(bx.scale(q, prec), q * x)
    assert_contains(Bracket.combination([q, -q, 3], [bx, by, ONE], prec),
                    q * x - q * y + 3)
    mid, rad = bx.mid_rad(prec)
    assert exact(mid) - exact(rad) <= exact(bx.lo)
    assert exact(bx.hi) <= exact(mid) + exact(rad)
    sign = bx.sign()
    assert sign == 0 or sign * x > 0
    assert sign != 0 or exact(bx.lo) <= 0 <= exact(bx.hi)


def stepwise_combination(coeffs, xs, prec):
    """The reference: one outward-rounded product, quotient and sum a term."""
    total = (fzero, fzero)
    for q, x in zip(coeffs, xs):
        n, d = from_int(q.numerator), from_int(q.denominator)
        term = mpi_div(mpi_mul(x, (n, n), prec), (d, d), prec)
        total = mpi_add(total, term, prec)
    return total


coefficients = st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                         st.integers(1, 10 ** 6))
ends = st.tuples(rationals, rationals, st.sampled_from([4, 12, 53, 80]))


@given(st.lists(st.tuples(coefficients, ends), max_size=8), precs)
@settings(max_examples=100)
def test_combination_is_the_rounded_exact_sum_inside_the_stepwise_one(terms, prec):
    coeffs = [q for q, _ in terms]
    xs = [Bracket(from_rational(min(a, b).numerator, min(a, b).denominator,
                                bits, round_floor),
                  from_rational(max(a, b).numerator, max(a, b).denominator,
                                bits, round_ceiling))
          for _, (a, b, bits) in terms]
    low = sum((q * exact(x.lo if q > 0 else x.hi) for q, x in zip(coeffs, xs)), F(0))
    high = sum((q * exact(x.hi if q > 0 else x.lo) for q, x in zip(coeffs, xs)), F(0))
    out = Bracket.combination(coeffs, xs, prec)
    assert exact(out.lo) <= low <= high <= exact(out.hi)
    ref_lo, ref_hi = stepwise_combination(coeffs, xs, prec)
    assert exact(ref_lo) <= exact(out.lo) and exact(out.hi) <= exact(ref_hi)


@given(rationals, positives, precs)
@settings(max_examples=200)
def test_products_roots_and_float_ends_contain_the_exact_result(x, y, prec):
    bx, by = Bracket.of(x, prec), Bracket.of(y, prec)
    assert_contains(bx, x)
    assert_contains(bx.mul(by, prec), x * y)
    assert_contains(bx.div(by, prec), x / y)
    root = by.sqrt(prec)
    assert exact(root.lo) ** 2 <= y <= exact(root.hi) ** 2
    lo, hi = bx.floats()
    assert F(lo) <= exact(bx.lo) and exact(bx.hi) <= F(hi)


@given(positives, positives, precs)
@settings(max_examples=100)
def test_agm_contains_the_mean(x, y, prec):
    mean = Bracket.of(x, prec).agm(Bracket.of(y, prec), prec)
    with mpmath.workprec(300):
        reference = mpmath.agm(mpmath.mpf(x.numerator) / x.denominator,
                               mpmath.mpf(y.numerator) / y.denominator)
        assert mpmath.mpf(mean.lo) <= reference <= mpmath.mpf(mean.hi)
    assert min(x, y) <= exact(mean.hi) and exact(mean.lo) <= max(x, y)


def test_agm_refuses_a_bracket_reaching_zero():
    # AGM(x, 0) = 0 is never reached by the steps, which would run forever
    with pytest.raises(ValueError, match="positive"):
        ONE.agm(Bracket(fzero, from_int(1)), 53)


def test_a_bracket_is_its_pair():
    b = bracket_of(F(1, 3), 10)
    assert b == (b.lo, b.hi) and tuple(b) == (b.lo, b.hi)
    assert Bracket(fzero, fzero).sign() == 0
    assert bracket_of(F(-1, 3), 10).sign() == -1
    assert bracket_of(F(1, 3), 10).sign() == 1
    assert Bracket(fzero, from_int(1)).sign() == 0  # an endpoint at 0 settles nothing
