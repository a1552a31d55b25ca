"""Finitely supported probability measures on group specs.

A :class:`FiniteMeasure` is a sparse map from canonical elements to
rational weights, held as integer numerators over one denominator shared
by every atom.  Convolution multiplies numerators and multiplies
denominators with no gcd: the n-th convolution power of a law whose
weights have lcm denominator D is kept over D^n.  Weights leave the class as reduced
:class:`fractions.Fraction` values, and entropies are read straight off the
numerators.  Convolution walks the support product and enforces a hard
support cap.

``FiniteMeasure.from_pairs`` with ``exact`` false builds a measure with
binary64 weights instead.  Such a measure is only constructed, convolved
(``convolve``, ``convolution_power``) and measured by ``entropy``; every
other operation needs rational weights and raises :class:`MeasureError`
on it, through :meth:`FiniteMeasure.exact_denom`.

The family constructors at the bottom build every step law the experiments
and the family grammar name: one constructor per law, whose ``k=None``
member is the limit law.  Their atoms are merged on construction, so e.g.
the drifted-lattice family at its first parameter collapses cleanly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, log
from typing import Any, Iterable, Iterator

from . import groups
from .exact_entropy import LogLinear, entropy_form
from .groups import (
    BS11,
    BS_A,
    BS_B,
    DINF,
    DINF_A,
    DINF_B,
    Cyclic,
    FreeGroup,
    GroupElement,
    GroupSpec,
    IntegerLattice,
    Wreath,
)

DEFAULT_SUPPORT_CAP = 5_000_000


class MeasureError(ValueError):
    """Invalid weights, mismatched specs, or malformed atoms."""


class SupportCapError(RuntimeError):
    """Convolution support grew past the configured cap."""

    def __init__(self, message: str, completed: int | None = None):
        super().__init__(message)
        self.completed = completed


class FiniteMeasure:
    """Finitely supported (sub-)probability measure on a group spec.

    ``denom`` is a positive integer and ``_atoms`` maps each atom to the
    integer numerator of its weight over ``denom``; the constructor brings
    rational weights over their lcm denominator, drops zero weights and
    refuses negative ones and an empty support.  A float measure has
    ``denom`` None and float weights in ``_atoms``.
    """

    __slots__ = ("spec", "_atoms", "denom")

    def __init__(self, spec: GroupSpec, atoms: dict[GroupElement, Fraction]):
        for g, w in atoms.items():
            if w < 0:
                raise MeasureError(f"negative weight {w} at {g!r}")
        atoms = {g: w for g, w in atoms.items() if w}
        if not atoms:
            raise MeasureError("measure must have nonempty support")
        self.spec = spec
        denom = lcm(*(w.denominator for w in atoms.values()))
        self._atoms = {g: w.numerator * (denom // w.denominator)
                       for g, w in atoms.items()}
        self.denom = denom

    @classmethod
    def _over(cls, spec: GroupSpec, atoms: dict[GroupElement, Any],
              denom: int | None) -> "FiniteMeasure":
        """A measure from numerators over ``denom`` (float weights if None)."""
        out = cls.__new__(cls)
        out.spec = spec
        out._atoms = atoms
        out.denom = denom
        return out

    @property
    def exact(self) -> bool:
        return self.denom is not None

    def exact_denom(self) -> int:
        """The shared denominator; raises for float weights, which only
        convolve and take entropy."""
        if self.denom is None:
            raise MeasureError("this operation needs rational weights; "
                               "float measures only convolve and take entropy")
        return self.denom

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pairs(cls, spec: GroupSpec,
                   pairs: Iterable[tuple[GroupElement, Any]],
                   exact: bool = True) -> "FiniteMeasure":
        """Build a measure, merging duplicate atoms and validating weights;
        ``exact`` false keeps binary64 weights (see the module docstring)."""
        atoms: dict[GroupElement, Any] = {}
        for elem, w in pairs:
            groups.validate(spec, elem)
            w = Fraction(w) if exact else float(w)
            if w < 0:
                raise MeasureError(f"negative weight {w} at {elem!r}")
            if w == 0:
                continue
            if elem in atoms:
                atoms[elem] += w
            else:
                atoms[elem] = w
        if not atoms:
            raise MeasureError("measure must have nonempty support")
        total = sum(atoms.values())
        if exact:
            if total != 1:
                raise MeasureError(f"weights must sum to 1 exactly, got {total}")
            return cls(spec, atoms)
        if abs(total - 1.0) > 1e-12:
            raise MeasureError(f"weights must sum to 1 within 1e-12, got {total}")
        return cls._over(spec, atoms, None)

    # -- views --------------------------------------------------------------

    def atoms(self) -> Iterator[tuple[GroupElement, Fraction]]:
        denom = self.exact_denom()
        return ((g, Fraction(a, denom)) for g, a in self._atoms.items())

    def support(self) -> list[GroupElement]:
        return list(self._atoms)

    def weight_of(self, elem: GroupElement) -> Fraction:
        return Fraction(self._atoms.get(elem, 0), self.exact_denom())

    def __len__(self) -> int:
        return len(self._atoms)

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"<FiniteMeasure on {self.spec!r}, {len(self)} atoms, {mode}>"


def point_mass(spec: GroupSpec, elem: GroupElement) -> FiniteMeasure:
    return FiniteMeasure.from_pairs(spec, [(elem, 1)])


def uniform_measure(spec: GroupSpec,
                    elems: Iterable[GroupElement]) -> FiniteMeasure:
    elems = list(elems)
    w = Fraction(1, len(elems))
    return FiniteMeasure.from_pairs(spec, [(g, w) for g in elems])


# ---------------------------------------------------------------------------
# entropy


def entropy(mu: FiniteMeasure) -> float:
    """Shannon entropy in nats, summed in atom order.

    Rational weights are rounded to floats by int true division, which
    rounds correctly, so the value is that of the reduced fractions.  A
    weight that rounds to 0 in binary64 adds 0.
    """
    denom = mu.denom
    weights = (mu._atoms.values() if denom is None
               else (a / denom for a in mu._atoms.values()))
    return -sum(w * log(w) for w in weights if w > 0)


def exact_entropy(mu: FiniteMeasure) -> LogLinear:
    """Entropy as an exact log-linear form."""
    return entropy_form(mu._atoms.values(), mu.exact_denom())


# ---------------------------------------------------------------------------
# convolution and friends


def _check_same(mu: FiniteMeasure, nu: FiniteMeasure) -> None:
    if mu.spec != nu.spec:
        raise MeasureError(f"spec mismatch: {mu.spec!r} vs {nu.spec!r}")
    if mu.exact != nu.exact:
        raise MeasureError("weight-mode mismatch between operands")


def convolve(mu: FiniteMeasure, nu: FiniteMeasure,
             cap: int = DEFAULT_SUPPORT_CAP) -> FiniteMeasure:
    """Convolution: the law of g*h with g ~ mu and h ~ nu independently.

    Weights multiply as they are stored: rational numerators, whose
    denominators then multiply, or floats.
    """
    _check_same(mu, nu)
    spec = mu.spec
    multiply = groups.multiply
    out: dict[GroupElement, Any] = {}
    get = out.get
    for g, wg in mu._atoms.items():
        for h, wh in nu._atoms.items():
            prod = multiply(spec, g, h)
            w = wg * wh
            cur = get(prod)
            if cur is not None:
                out[prod] = cur + w
            else:
                out[prod] = w
                if len(out) > cap:
                    raise SupportCapError(
                        f"convolution support exceeded cap {cap}")
    return FiniteMeasure._over(
        spec, out, None if mu.denom is None else mu.denom * nu.denom)


def convolution_power(mu: FiniteMeasure, n: int,
                      cap: int = DEFAULT_SUPPORT_CAP) -> FiniteMeasure:
    """n-fold convolution power, one step at a time: each step costs
    |mu^k| * |mu| products, where squaring mu^k would cost |mu^k|^2.
    The 0-th power is the rational point mass at the identity."""
    if n < 0:
        raise MeasureError("convolution power needs n >= 0")
    if n == 0:
        return point_mass(mu.spec, groups.identity(mu.spec))
    acc = mu
    for _ in range(n - 1):
        acc = convolve(acc, mu, cap)
    return acc


def product_measure(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """Independent product on the direct product of the two specs."""
    spec = groups.DirectProduct(mu.spec, nu.spec)
    out: dict[GroupElement, Fraction] = {}
    for g, wg in mu.atoms():
        for h, wh in nu.atoms():
            out[(g, h)] = wg * wh
    return FiniteMeasure(spec, out)


def mix(mu: FiniteMeasure, nu: FiniteMeasure, weight_nu: Any) -> FiniteMeasure:
    """Convex combination (1 - t) mu + t nu of step laws on one spec."""
    _check_same(mu, nu)
    t = Fraction(weight_nu)
    if not 0 <= t <= 1:
        raise MeasureError(f"mixture weight must lie in [0, 1], got {t}")
    a, b = dict(mu.atoms()), dict(nu.atoms())
    out: dict[GroupElement, Fraction] = {}
    for g in set(a) | set(b):
        w = (1 - t) * a.get(g, 0) + t * b.get(g, 0)
        if w > 0:
            out[g] = w
    return FiniteMeasure(mu.spec, out)


def total_variation(mu: FiniteMeasure, nu: FiniteMeasure) -> Fraction:
    """(1/2) sum |mu - nu| over the union support."""
    _check_same(mu, nu)
    a, b = dict(mu.atoms()), dict(nu.atoms())
    return sum(abs(a.get(g, 0) - b.get(g, 0)) for g in set(a) | set(b)) / 2


# ---------------------------------------------------------------------------
# named elements used by the families

DINF_AB = groups.multiply(DINF, DINF_A, DINF_B)   # translation (-1, 0)
DINF_BA = groups.multiply(DINF, DINF_B, DINF_A)   # translation (+1, 0)
_BS_B2 = groups.multiply(BS11, BS_B, BS_B)
_BS_B2I = groups.inverse(BS11, _BS_B2)
_BS_BI = groups.inverse(BS11, BS_B)
_BS_AI = groups.inverse(BS11, BS_A)


def _probability(p: Any) -> Fraction:
    p = p if isinstance(p, Fraction) else Fraction(p)
    if not 0 <= p <= 1:
        raise MeasureError(f"p must lie in [0, 1], got {p}")
    return p


def _leak(k: int | None) -> Fraction:
    """1/k for the family member at depth ``k``; 0 for the limit (``None``)."""
    if k is None:
        return Fraction(0)
    if k < 1:
        raise MeasureError(f"k must be >= 1, got {k}")
    return Fraction(1, k)


def dinf_family(p: Any, k: int | None = None) -> FiniteMeasure:
    """Step law (1-1/k)(p ab + (1-p) ba) + (1/k) a on the infinite dihedral group.

    The limit (``k=None``) is supported on the translation subgroup; each
    member leaks 1/k of its mass onto the involution ``a``.  ``k = 1`` is the
    point mass at ``a``.
    """
    p = _probability(p)
    leak = _leak(k)
    return FiniteMeasure.from_pairs(DINF, [
        (DINF_AB, (1 - leak) * p),
        (DINF_BA, (1 - leak) * (1 - p)),
        (DINF_A, leak),
    ])


def bs11_family(p: Any, k: int | None = None) -> FiniteMeasure:
    """Step law mixing b^{+-2} and a^{+-1} with 1/(2k) mass on b^{+-1}.

    The limit (``k=None``) puts no mass on b^{+-1}.
    """
    p = _probability(p)
    leak = _leak(k)
    bulk = Fraction(1, 3) * (1 - leak)
    return FiniteMeasure.from_pairs(BS11, [
        (_BS_B2, bulk),
        (_BS_B2I, bulk),
        (BS_A, bulk * p),
        (_BS_AI, bulk * (1 - p)),
        (BS_B, leak / 2),
        (_BS_BI, leak / 2),
    ])


_Z1 = IntegerLattice(1)


def z_drift_family(k: int | None = None) -> FiniteMeasure:
    """Mean-zero lattice walk whose mass escapes to a far-away atom -k.

    Each member has mean exactly zero; the weak limit (``k=None``) is the
    drifted (3/4, 1/4) walk.  At ``k = 1`` the far atom merges with -1,
    giving the symmetric simple walk.
    """
    leak = _leak(k)
    far = leak / (2 + leak)  # 1/(1 + 2k), which keeps the mean at zero
    pairs = [((1,), Fraction(3, 4) * (1 - far)),
             ((-1,), Fraction(1, 4) * (1 - far))]
    if k is not None:
        pairs.append(((-k,), far))
    return FiniteMeasure.from_pairs(_Z1, pairs)


def uniform_flip() -> FiniteMeasure:
    """Uniform lamp-increment law on the order-2 group."""
    return uniform_measure(Cyclic(2), [0, 1])


def f2_uniform() -> FiniteMeasure:
    """Uniform law on the four free generators of the rank-2 free group."""
    return uniform_measure(FreeGroup(2), [(1,), (-1,), (2,), (-2,)])


def lamplighter_family(p: Any, k: int | None = None) -> FiniteMeasure:
    """Half a uniform lamp flip, half a dihedral base move (or its limit)."""
    return lamplighter_mix(uniform_flip(), dinf_family(p, k))


def f2product_family(p: Any, k: int | None = None) -> FiniteMeasure:
    """Independent product of the free-group uniform law with the
    lamplighter-over-dihedral family member."""
    return product_measure(f2_uniform(), lamplighter_family(p, k))


def lamplighter_mix(eta: FiniteMeasure, mu: FiniteMeasure) -> FiniteMeasure:
    """Lamp/base mixture (1/2) eta-hat + (1/2) mu-hat on  lamp wr base.

    ``eta`` lives on the lamp group and is planted at the base identity;
    ``mu`` lives on the base group and moves the walker.
    """
    spec = Wreath(eta.spec, mu.spec)
    base_id = groups.identity(mu.spec)
    lamp_id = groups.identity(eta.spec)
    out: dict[GroupElement, Fraction] = {}
    for a, w in eta.atoms():
        lamps = () if a == lamp_id else ((base_id, a),)
        elem = (lamps, base_id)
        out[elem] = out.get(elem, 0) + w / 2
    for b, w in mu.atoms():
        elem = ((), b)
        out[elem] = out.get(elem, 0) + w / 2
    return FiniteMeasure(spec, out)

