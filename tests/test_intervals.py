"""Outward-rounded brackets: each operation contains the exact rational result."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, fzero, to_rational

from walklab.intervals import Bracket

F = Fraction
ONE = Bracket(from_int(1), from_int(1))
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=97)
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


def test_a_bracket_is_its_pair():
    b = bracket_of(F(1, 3), 10)
    assert b == (b.lo, b.hi) and tuple(b) == (b.lo, b.hi)
    assert Bracket(fzero, fzero).sign() == 0
    assert bracket_of(F(-1, 3), 10).sign() == -1
    assert bracket_of(F(1, 3), 10).sign() == 1
    assert Bracket(fzero, from_int(1)).sign() == 0  # an endpoint at 0 settles nothing
