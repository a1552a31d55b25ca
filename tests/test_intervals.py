"""Outward-rounded brackets: each operation contains the exact rational result."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, fzero, to_rational

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
