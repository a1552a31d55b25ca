"""Outward-rounded brackets of real numbers.

A :class:`Bracket` is a closed interval ``[lo, hi]`` with raw mpmath float
endpoints.  Each operation takes its precision in bits and rounds every
endpoint away from the interval (``mpmath.libmp.libmpi``), so a bracket
computed from brackets of the operands contains the exact result.  No
global mpmath state is read or set.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple

from mpmath.libmp import (from_int, from_man_exp, from_rational, mpf_cmp,
                          mpf_div, mpf_sign, mpf_sub, round_ceiling,
                          round_floor, to_float)
from mpmath.libmp.libmpi import (mpi_add, mpi_div, mpi_mid, mpi_mul, mpi_shift,
                                 mpi_sqrt, mpi_sub)

Pair = tuple[tuple, tuple]  # the endpoints (lo, hi) of a bracket


def _scaled(x: Pair, q: Fraction, prec: int) -> Pair:
    n, d = from_int(q.numerator), from_int(q.denominator)
    out = mpi_mul(x, (n, n), prec)
    return out if q.denominator == 1 else mpi_div(out, (d, d), prec)


class Bracket(NamedTuple):
    """The interval ``[lo, hi]``, ``lo <= hi``, as raw mpf endpoints."""

    lo: tuple
    hi: tuple

    @staticmethod
    def of(q: Fraction, prec: int) -> "Bracket":
        """The ``prec``-bit bracket of the rational ``q``."""
        n, d = q.numerator, q.denominator
        return Bracket(from_rational(n, d, prec, round_floor),
                       from_rational(n, d, prec, round_ceiling))

    def add(self, other: "Bracket", prec: int) -> "Bracket":
        return Bracket(*mpi_add(self, other, prec))

    def sub(self, other: "Bracket", prec: int) -> "Bracket":
        return Bracket(*mpi_sub(self, other, prec))

    def mul(self, other: "Bracket", prec: int) -> "Bracket":
        return Bracket(*mpi_mul(self, other, prec))

    def div(self, other: "Bracket", prec: int) -> "Bracket":
        """A bracket of ``x / y``; ``other`` must exclude 0."""
        return Bracket(*mpi_div(self, other, prec))

    def sqrt(self, prec: int) -> "Bracket":
        """A bracket of ``sqrt(x)``; this bracket must lie in ``[0, oo)``."""
        return Bracket(*mpi_sqrt(self, prec))

    def agm(self, other: "Bracket", prec: int) -> "Bracket":
        """A bracket of the arithmetic-geometric mean of ``x`` and ``y``, for
        ``x`` in this bracket and ``y`` in ``other``, both with ``lo > 0``.

        The means ``A, B`` are stepped on brackets.  From the first step on,
        the exact mean of each pair lies between its ``b_n`` and ``a_n``,
        hence in ``[B.lo, A.hi]``; the steps stop once ``A`` and ``B``
        overlap, when the gap ``a_n - b_n`` is down to their rounding.
        """
        if mpf_sign(self.lo) <= 0 or mpf_sign(other.lo) <= 0:
            raise ValueError("agm needs brackets with positive lower ends")
        a, b = self, other
        while True:
            a, b = (mpi_shift(mpi_add(a, b, prec), -1),
                    mpi_sqrt(mpi_mul(a, b, prec), prec))
            if mpf_cmp(a[0], b[1]) <= 0:
                return Bracket(b[0], a[1])

    def scale(self, q: Fraction, prec: int) -> "Bracket":
        """A bracket of ``q * x`` for every ``x`` in this one."""
        return Bracket(*_scaled(self, q, prec))

    @staticmethod
    def combination(coeffs: Iterable[Fraction], xs: Iterable[Pair],
                    prec: int) -> "Bracket":
        """A bracket of ``sum q_i x_i`` for every ``x_i`` in the bracket
        ``xs[i]`` (finite ends): the tightest one with ``prec``-bit ends.

        Over the lcm ``D`` of the denominators, ``q_i = a_i / D``.  The lower
        end takes each ``x_i`` at its lower end where ``a_i > 0`` and at its
        upper end otherwise, the upper end the reverse; every end is an
        integer times ``2^e`` at the smallest exponent ``e`` present, so both
        numerators are exact integer sums.  Each is divided by ``D`` and
        rounded once, down or up.
        """
        terms = [(q, (lo, hi) if q > 0 else (hi, lo))
                 for q, (lo, hi) in zip(coeffs, xs) if q]
        denom = lcm(*(q.denominator for q, _ in terms))
        exp = min((x[2] for _, ends in terms for x in ends if x[1]), default=0)
        sums = [0, 0]
        for q, ends in terms:
            a = q.numerator * (denom // q.denominator)
            for side, (sign, man, e, _) in enumerate(ends):
                if man:
                    sums[side] += (-a if sign else a) * (man << (e - exp))
        d = from_int(denom)
        return Bracket(mpf_div(from_man_exp(sums[0], exp), d, prec, round_floor),
                       mpf_div(from_man_exp(sums[1], exp), d, prec, round_ceiling))

    def sign(self) -> int:
        """+1 or -1 when the bracket excludes 0, else 0."""
        return (mpf_sign(self.lo) > 0) - (mpf_sign(self.hi) < 0)

    def floats(self) -> tuple[float, float]:
        """The ends rounded outward to binary64."""
        return (to_float(self.lo, rnd=round_floor),
                to_float(self.hi, rnd=round_ceiling))

    def mid_rad(self, prec: int) -> Pair:
        """The midpoint, rounded to nearest, and an upward-rounded radius:
        the bracket lies in ``[mid - rad, mid + rad]``."""
        mid = mpi_mid(self, prec)
        above = mpf_sub(self.hi, mid, prec, round_ceiling)
        below = mpf_sub(mid, self.lo, prec, round_ceiling)
        return mid, above if mpf_cmp(above, below) >= 0 else below
