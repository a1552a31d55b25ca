"""Outward-rounded brackets of real numbers.

A :class:`Bracket` is a closed interval ``[lo, hi]`` with raw mpmath float
endpoints.  Each operation takes its precision in bits and rounds every
endpoint away from the interval (``mpmath.libmp.libmpi``), so a bracket
computed from brackets of the operands contains the exact result.  No
global mpmath state is read or set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from mpmath.libmp import (from_int, fzero, mpf_cmp, mpf_sign, mpf_sub,
                          round_ceiling)
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_mid, mpi_mul, mpi_sub

Pair = tuple[tuple, tuple]  # the endpoints (lo, hi) of a bracket


def _scaled(x: Pair, q: Fraction, prec: int) -> Pair:
    n, d = from_int(q.numerator), from_int(q.denominator)
    out = mpi_mul(x, (n, n), prec)
    return out if q.denominator == 1 else mpi_div(out, (d, d), prec)


class Bracket(NamedTuple):
    """The interval ``[lo, hi]``, ``lo <= hi``, as raw mpf endpoints."""

    lo: tuple
    hi: tuple

    def add(self, other: "Bracket", prec: int) -> "Bracket":
        return Bracket(*mpi_add(self, other, prec))

    def sub(self, other: "Bracket", prec: int) -> "Bracket":
        return Bracket(*mpi_sub(self, other, prec))

    def scale(self, q: Fraction, prec: int) -> "Bracket":
        """A bracket of ``q * x`` for every ``x`` in this one."""
        return Bracket(*_scaled(self, q, prec))

    @staticmethod
    def combination(coeffs: Iterable[Fraction], xs: Iterable[Pair],
                    prec: int) -> "Bracket":
        """A bracket of ``sum q_i x_i``; the terms stay plain pairs."""
        total = (fzero, fzero)
        for q, x in zip(coeffs, xs):
            total = mpi_add(total, _scaled(x, q, prec), prec)
        return Bracket(*total)

    def sign(self) -> int:
        """+1 or -1 when the bracket excludes 0, else 0."""
        return (mpf_sign(self.lo) > 0) - (mpf_sign(self.hi) < 0)

    def mid_rad(self, prec: int) -> Pair:
        """The midpoint, rounded to nearest, and an upward-rounded radius:
        the bracket lies in ``[mid - rad, mid + rad]``."""
        mid = mpi_mid(self, prec)
        above = mpf_sub(self.hi, mid, prec, round_ceiling)
        below = mpf_sub(mid, self.lo, prec, round_ceiling)
        return mid, above if mpf_cmp(above, below) >= 0 else below
