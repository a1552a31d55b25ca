"""Exact Shannon-entropy values for rational distributions.

The entropy of a finitely supported rational distribution is a finite sum
``sum_i c_i * log(m_i)`` with rational ``c_i`` and integers ``m_i >= 2``
(natural logarithm).  :class:`LogLinear` stores that form so that entropy
identities can be decided without rounding:

* equality with zero reduces to an integer-factorisation argument (logs of
  distinct primes are linearly independent over the rationals);
* the sign of a nonzero form is certified by evaluating at increasing
  precision with an explicit accumulated error bound.

Factoring only ever runs on candidate ties, whose integers are desk scale.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from random import Random
from typing import Iterable, Mapping

import mpmath

_SIGN_PRECS = (80, 160, 320, 640, 1280, 2560)
_LOG_CACHE: dict[tuple[int, int], "mpmath.mpf"] = {}


def _log_at(m: int, prec: int) -> "mpmath.mpf":
    key = (m, prec)
    val = _LOG_CACHE.get(key)
    if val is None:
        with mpmath.workprec(prec):
            val = mpmath.log(m)
        _LOG_CACHE[key] = val
    return val


class LogLinear:
    """A value ``sum c_m * log(m)`` with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for m, c in coeffs.items():
                if m <= 0:
                    raise ValueError(f"log argument must be positive, got {m}")
                if m == 1 or c == 0:
                    continue
                clean[m] = Fraction(c)
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "LogLinear":
        return cls()

    @classmethod
    def of_log(cls, m: int, c: Fraction | int = 1) -> "LogLinear":
        return cls({m: Fraction(c)})

    def __add__(self, other: "LogLinear") -> "LogLinear":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return LogLinear(out)

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) - c
        return LogLinear(out)

    def __neg__(self) -> "LogLinear":
        return LogLinear({m: -c for m, c in self.coeffs.items()})

    def scale(self, q: Fraction | int) -> "LogLinear":
        q = Fraction(q)
        return LogLinear({m: c * q for m, c in self.coeffs.items()})

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

    def evaluate(self, prec: int = 80) -> tuple["mpmath.mpf", "mpmath.mpf"]:
        """Value and a rigorous-in-spirit rounding bound at ``prec`` bits."""
        with mpmath.workprec(prec):
            total = mpmath.mpf(0)
            scale = mpmath.mpf(0)
            for m, c in self.coeffs.items():
                term = mpmath.mpf(c.numerator) / c.denominator * _log_at(m, prec)
                total += term
                scale += abs(term)
            err = (scale + 1) * mpmath.mpf(2) ** (6 - prec) * (len(self.coeffs) + 4)
        return total, err

    def to_float(self) -> float:
        value, _ = self.evaluate(113)
        return float(value)

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        if not self.coeffs:
            return 0
        for prec in _SIGN_PRECS[:3]:
            value, err = self.evaluate(prec)
            if abs(value) > err:
                return 1 if value > 0 else -1
        if self.is_zero():
            return 0
        for prec in _SIGN_PRECS[3:]:
            value, err = self.evaluate(prec)
            if abs(value) > err:
                return 1 if value > 0 else -1
        raise ArithmeticError(f"sign undecided for {self!r}")

    def is_zero(self) -> bool:
        """Exact zero test via factorisation of the log arguments."""
        if not self.coeffs:
            return True
        acc: dict[int, Fraction] = {}
        for m, c in self.coeffs.items():
            for p, e in factorize(m).items():
                acc[p] = acc.get(p, Fraction(0)) + e * c
        return all(c == 0 for c in acc.values())


def entropy_form(weights: Iterable[Fraction]) -> LogLinear:
    """Entropy ``-sum w log w`` of rational weights, as a log-linear form."""
    coeffs: dict[int, Fraction] = {}
    for w, count in Counter(weights).items():
        if w < 0:
            raise ValueError("weights must be nonnegative")
        if w == 0:
            continue
        a, b = w.numerator, w.denominator
        coef = count * w
        if b > 1:
            coeffs[b] = coeffs.get(b, Fraction(0)) + coef
        if a > 1:
            coeffs[a] = coeffs.get(a, Fraction(0)) - coef
    return LogLinear(coeffs)


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
