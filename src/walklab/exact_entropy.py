"""Exact Shannon-entropy values for rational distributions.

The entropy of a finitely supported rational distribution is a finite sum
``sum_i c_i * log(m_i)`` with rational ``c_i`` and integers ``m_i >= 2``
(natural logarithm).  :class:`LogLinear` stores that form so that entropy
identities can be decided without rounding:

* equality with zero is decided on a coprime base of the log arguments,
  built with gcds alone (logs of pairwise coprime integers above 1 are
  linearly independent over the rationals);
* the sign of a nonzero form is read off an outward-rounded ``Bracket``
  (``walklab.intervals``) of its terms, each log(m) bracketed by ``_log_at``.
  A form may carry a bracket of its value as its enclosure: one its maker
  attached (the exact entropy ladders attach binary64 brackets computed
  from their weight vectors, ``walklab.walks``), or else its terms' bracket
  at 80 bits (:meth:`LogLinear.enclose`).  Sums, differences and rational
  multiples of enclosed forms inherit the combination of their operands'
  enclosures, so a ladder's values are enclosed once and every check built
  from them is decided without evaluating its terms.  Forms whose
  inherited enclosure contains 0 are enclosed afresh from their own
  coefficients at increasing precision.
* a value known only by its enclosure (``enclosure_only``), and any
  combination with one, has no coefficients to fall back on: its sign is
  decided only by an enclosure that excludes 0, else ``ArithmeticError``.

The zero test runs only on candidate ties; it factors nothing, so it ends
on arguments of any size.  ``factorize`` stays for perfbench, whose tracer
and cache check name it and ``_FACTOR_CACHE``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Iterable, Mapping

import mpmath
from mpmath.libmp import (from_int, from_man_exp, mpf_add, mpf_log, mpf_sub,
                          round_ceiling, round_floor, round_nearest)

from .intervals import Bracket, Pair

_SIGN_PRECS = (80, 160, 320, 640, 1280, 2560)
_ENCLOSURE_PREC = _SIGN_PRECS[0]
# (m, prec) -> the lower end of the bracket of log(m) at prec bits
_LOG_CACHE: dict[tuple[int, int], tuple] = {}


def _ulps(x: tuple, prec: int, k: int) -> tuple:
    """``k`` units in the last place of the positive mpf ``x`` at ``prec``
    bits."""
    _, _, exp, bc = x
    return from_man_exp(k, exp + bc - prec)


def _log_at(m: int, prec: int) -> Pair:
    """A bracket with ``prec``-bit endpoints that contains ``log(m)``.

    ``mpf_log`` rounds an approximation carried with 20 guard bits, so its
    directed roundings are not proven.  Its value rounded to nearest at
    ``prec + 40`` bits is within one unit of that precision of ``log(m)``
    (the guard bits leave an error far below a unit), so one such unit
    below it, rounded down to ``prec`` bits, is a lower end ``lo``, and
    ``log(m) < lo + 2`` units of ``prec`` bits.  Only ``lo`` is cached.
    """
    key = (m, prec)
    lo = _LOG_CACHE.get(key)
    if lo is None:
        wp = prec + 40
        approx = mpf_log(from_int(m), wp, round_nearest)
        lo = mpf_sub(approx, _ulps(approx, wp, 1), prec, round_floor)
        _LOG_CACHE[key] = lo
    return lo, mpf_add(lo, _ulps(lo, prec, 2), prec, round_ceiling)


class LogLinear:
    """A value ``sum c_m * log(m)`` with rational coefficients.

    ``enclosure`` is None or a :class:`Bracket` that contains the value
    (:meth:`enclose`); ``incomplete`` is True when the value is known only
    by its enclosure and ``coeffs`` do not sum to it (:meth:`enclosure_only`).
    """

    __slots__ = ("coeffs", "enclosure", "incomplete")

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        coeffs = coeffs or {}
        if min(coeffs, default=1) <= 0:
            raise ValueError(f"log argument must be positive, got {min(coeffs)}")
        self.coeffs = {m: Fraction(c) for m, c in coeffs.items() if m != 1 and c}
        self.enclosure: Bracket | None = None
        self.incomplete = False

    @classmethod
    def _of(cls, coeffs: dict[int, Fraction], enclosure: Bracket | None,
            incomplete: bool) -> "LogLinear":
        """A form from the coefficients of clean forms, zeros dropped."""
        out = cls.__new__(cls)
        out.coeffs = {m: c for m, c in coeffs.items() if c}
        out.enclosure = enclosure
        out.incomplete = incomplete
        return out

    @classmethod
    def zero(cls) -> "LogLinear":
        return cls()

    @classmethod
    def of_log(cls, m: int, c: Fraction | int = 1) -> "LogLinear":
        return cls({m: Fraction(c)})

    def _combined(self, other: "LogLinear", coeffs: dict, op) -> "LogLinear":
        a, b = self.enclosure, other.enclosure
        enc = None if a is None or b is None else op(a, b, _ENCLOSURE_PREC)
        return LogLinear._of(coeffs, enc, self.incomplete or other.incomplete)

    def __add__(self, other: "LogLinear") -> "LogLinear":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return self._combined(other, out, Bracket.add)

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return self._combined(other, out, Bracket.sub)

    def __neg__(self) -> "LogLinear":
        return self.scale(-1)

    def scale(self, q: Fraction | int) -> "LogLinear":
        q = Fraction(q)
        enc = self.enclosure
        enc = None if enc is None else enc.scale(q, _ENCLOSURE_PREC)
        return LogLinear._of({m: c * q for m, c in self.coeffs.items()}, enc,
                             self.incomplete)

    def __truediv__(self, n: int) -> "LogLinear":
        return self.scale(Fraction(1, n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogLinear):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # value equality is semantic; forms are not dict keys

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LogLinear(0)"
        parts = [f"{c}*log({m})" for m, c in sorted(self.coeffs.items())]
        return "LogLinear(" + " + ".join(parts) + ")"

    # -- numeric evaluation -------------------------------------------------

    def _coefficients(self) -> dict[int, Fraction]:
        """``coeffs``; raises when they do not sum to the value."""
        if self.incomplete:
            raise ArithmeticError("value known only by its enclosure")
        return self.coeffs

    def _interval(self, prec: int) -> Bracket:
        """Outward-rounded bracket of the value from the coefficients, with
        every operation at ``prec`` bits."""
        coeffs = self._coefficients()
        return Bracket.combination(coeffs.values(),
                                   (_log_at(m, prec) for m in coeffs), prec)

    def enclose(self) -> "LogLinear":
        """Fill :attr:`enclosure` at 80 bits, once; returns ``self``."""
        if self.enclosure is None:
            self.enclosure = self._interval(_ENCLOSURE_PREC)
        return self

    def enclosure_only(self) -> "LogLinear":
        """This value known by its enclosure alone (filled by
        :meth:`enclose`), with no coefficients carried.

        Combinations with such values are incomplete too: their
        :meth:`sign` is the combined enclosure's where that excludes 0, and
        it, :meth:`is_zero` and ``==`` raise ``ArithmeticError`` otherwise.
        """
        return LogLinear._of({}, self.enclose().enclosure, True)

    def evaluate(self, prec: int = 80) -> tuple["mpmath.mpf", "mpmath.mpf"]:
        """Midpoint and radius of a bracket of the value from the coefficients
        at ``prec`` bits: the value lies in ``[mid - rad, mid + rad]``."""
        mid, rad = self._interval(prec).mid_rad(prec)
        return mpmath.mp.make_mpf(mid), mpmath.mp.make_mpf(rad)

    def to_float(self) -> float:
        return float(self.evaluate(113)[0])

    def enclosure_sign(self) -> int:
        """The sign :attr:`enclosure` certifies; 0 also without one."""
        return 0 if self.enclosure is None else self.enclosure.sign()

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1.

        Decided by the inherited enclosure when it excludes 0, else by
        enclosures of the coefficients at increasing precision, and for a
        candidate tie by :meth:`is_zero`.  Raises ``ArithmeticError`` for an
        incomplete form whose enclosure contains 0.
        """
        settled = self.enclosure_sign()
        if settled or not self._coefficients():
            return settled
        for i, prec in enumerate(_SIGN_PRECS):
            if i == 3 and self.is_zero():  # test for a tie before 640 bits
                return 0
            value, err = self.evaluate(prec)
            if abs(value) > err:
                return 1 if value > 0 else -1
        raise ArithmeticError(f"sign undecided for {self!r}")

    def is_zero(self) -> bool:
        """Exact zero test on a coprime base of the log arguments.

        Each argument is a product of powers of the pairwise coprime
        integers :func:`coprime_base` returns, and logs of pairwise coprime
        integers above 1 are linearly independent over the rationals (no
        prime divides two of them), so the form is zero exactly when its
        coefficient on each base element vanishes.
        """
        coeffs = self._coefficients()
        acc: dict[int, Fraction] = {}
        for b in coprime_base(coeffs):
            for m, c in coeffs.items():
                e = 0
                while m % b == 0:
                    m //= b
                    e += 1
                if e:
                    acc[b] = acc.get(b, 0) + e * c
        return not any(acc.values())


def entropy_form(weights: Iterable[Fraction] | Iterable[int],
                 denom: int | None = None) -> LogLinear:
    """Entropy ``-sum w log w`` as a log-linear form, of rational weights or,
    when ``denom`` is given, of the weights ``a / denom`` for the integer
    numerators ``a``.

    Equal weights are counted once.  Each distinct ``a / denom = r / q`` in
    lowest terms (one gcd) contributes its total mass times
    ``log q - log r``; every coefficient is a sum of such masses over
    ``denom``, so it is accumulated as an integer numerator.
    """
    if denom is None:
        weights = list(weights)
        denom = lcm(*(w.denominator for w in weights))
        weights = [w.numerator * (denom // w.denominator) for w in weights]
    sums: dict[int, int] = {}
    for a, count in Counter(weights).items():
        if a < 0:
            raise ValueError("weights must be nonnegative")
        if a == 0:
            continue
        g = gcd(a, denom)
        mass = count * a
        q, r = denom // g, a // g
        if q > 1:
            sums[q] = sums.get(q, 0) + mass
        if r > 1:
            sums[r] = sums.get(r, 0) - mass
    return LogLinear._of({m: Fraction(c, denom) for m, c in sums.items()},
                         None, False)


def coprime_base(ms: Iterable[int]) -> list[int]:
    """Pairwise coprime integers above 1 of which each of the positive
    integers ``ms`` is a product of powers, found with gcds alone (Bach,
    Driscoll & Shallit, J. Algorithms 15 (1993); Bernstein, J. Algorithms
    54 (2005)).

    Each integer joins the base in turn: where it shares a factor ``g > 1``
    with a base element ``b``, ``b`` leaves and ``g``, ``b / g`` and the
    integer over ``g`` join in its place.  Every split divides the product
    of all pending and base integers by ``g``, so the refinement ends, and
    each integer seen stays a product of the integers that replace it.
    """
    base: list[int] = []
    for m in ms:
        pending = [m]
        while pending:
            x = pending.pop()
            if x == 1:
                continue
            for i, b in enumerate(base):
                g = gcd(x, b)
                if g > 1:
                    del base[i]
                    pending += (g, b // g, x // g)
                    break
            else:
                base.append(x)
    return base


# ---------------------------------------------------------------------------
# integer factorisation (trial division + Miller-Rabin + Pollard rho)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # deterministic for n < 3.3e24 with these witnesses
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: Random) -> int:
    if n % 2 == 0:
        return 2
    while True:
        x = rng.randrange(2, n - 1)
        y = x
        c = rng.randrange(1, n - 1)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


_FACTOR_CACHE: dict[int, dict[int, int]] = {}


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of ``n >= 1`` as ``{prime: exponent}``."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    cached = _FACTOR_CACHE.get(n)
    if cached is not None:
        return dict(cached)
    original = n
    out: dict[int, int] = {}
    for p in range(2, 10_000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        rng = Random(0xFAC70)
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if _is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m, rng)
            stack.append(d)
            stack.append(m // d)
    if len(_FACTOR_CACHE) < 200_000:
        _FACTOR_CACHE[original] = dict(out)
    return out
