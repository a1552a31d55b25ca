"""Finitely supported probability measures on group specs.

A :class:`FiniteMeasure` is a sparse map from canonical elements to
rational weights, held as integer numerators over one denominator shared
by every atom.  Convolution multiplies numerators and multiplies
denominators with no gcd: the n-th convolution power of a law whose
weights have lcm denominator D is kept over D^n.  Weights leave the class as reduced
:class:`fractions.Fraction` values, and entropies are read straight off the
numerators.  Convolution walks the support product and enforces a hard
support cap.

Laws that share a support set form a family.  On a spec with an integer row
encoding (:func:`groups.row_code`: lattices, Dinf, BS(1,-1) and S(d, 2)),
``family_powers`` keeps a family's powers as one int64 array of distinct
rows and, per member, an atom order and a weight array: int64 numerators
while they fit, Python ints beyond, or float64.  Each power is one product
table of every row with every step atom; its distinct rows, by a lexsort and
a first-difference test, are the next atoms, and each member adds its own
weights with one ``np.add.at`` in its own (atom, step) order, so every
member's power equals its own ``convolve`` in atoms, order, weights and
denominator.  No product goes through ``groups.multiply`` and no dict is
built.  Any other family, and a family of one, convolves law by law.

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
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

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
    return entropy_of(mu._atoms.values() if denom is None
                      else (a / denom for a in mu._atoms.values()))


def entropy_of(weights: Iterable[float]) -> float:
    """``-sum w log w`` over binary64 weights, added in their order; a
    weight of 0 adds 0."""
    return -sum(w * log(w) for w in weights if w > 0)


def float_weights(weights: np.ndarray, denom: int | None) -> np.ndarray:
    """Binary64 weights from an array of floats (``denom`` None) or of
    integer numerators over ``denom``, each ``a / denom`` rounded correctly:
    one division of exact binary64 values when ``a`` and ``denom`` are at
    most 2^53, Python's int true division otherwise."""
    if denom is None:
        return weights
    if (denom <= 2 ** 53 and weights.dtype == np.int64
            and weights.max() <= 2 ** 53):
        return weights / denom
    return np.fromiter((a / denom for a in weights.tolist()), np.float64,
                       len(weights))


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
    denominators then multiply, or floats.  Each pair costs one
    ``groups.multiply`` and one dict lookup, which gives the product's slot
    in a weight list; the atoms keep their order of first occurrence, and
    the weights are summed in pair order.
    """
    _check_same(mu, nu)
    spec = mu.spec
    multiply = groups.multiply
    index: dict[GroupElement, int] = {}
    slot = index.setdefault
    weights: list[Any] = []
    steps = list(nu._atoms.items())
    n = 0
    for g, wg in mu._atoms.items():
        for h, wh in steps:
            i = slot(multiply(spec, g, h), n)
            if i < n:
                weights[i] += wg * wh
            else:
                weights.append(wg * wh)
                n += 1
                if n > cap:
                    raise SupportCapError(
                        f"convolution support exceeded cap {cap}")
    for prod, i in index.items():   # the index becomes the result
        index[prod] = weights[i]
    return FiniteMeasure._over(
        spec, index, None if mu.denom is None else mu.denom * nu.denom)


# ---------------------------------------------------------------------------
# families on integer rows

_INT64_MAX = int(np.iinfo(np.int64).max)


class _RowFamily:
    """One measure per member of a family, on integer rows: ``rows`` holds
    the atoms once, in the first member's order; member ``j`` lists its atoms
    as ``orders[j]`` (indices into ``rows``, None for ``rows``' own order)
    and its weights in that order as ``weights[j]``, over ``denoms[j]``;
    ``masses[j]`` is the sum of its weights for exact members."""

    __slots__ = ("rows", "orders", "weights", "denoms", "masses")

    def __init__(self, rows, orders, weights, denoms, masses):
        self.rows = rows
        self.orders = orders
        self.weights = weights
        self.denoms = denoms
        self.masses = masses


def _weight_array(mu: FiniteMeasure) -> np.ndarray:
    """``mu``'s weights in atom order: float64, int64 numerators while their
    sum fits, else Python ints in an object array."""
    values = mu._atoms.values()
    dtype = (np.float64 if mu.denom is None
             else np.int64 if sum(values) <= _INT64_MAX else object)
    return np.fromiter(values, dtype, len(values))


def _member_orders(mus: Sequence[FiniteMeasure]
                   ) -> tuple[list[GroupElement], list[np.ndarray | None]]:
    """The first member's atoms, and each member's atom order as indices
    into them (None for their own order; equal orders share one array).
    Raises :class:`MeasureError` unless the members share a spec, a weight
    mode and their support."""
    atoms = list(mus[0]._atoms)
    index = {g: i for i, g in enumerate(atoms)}
    shared: dict[tuple[int, ...], np.ndarray | None] = {
        tuple(range(len(atoms))): None}
    orders = []
    for mu in mus:
        _check_same(mus[0], mu)
        try:
            order = tuple(index[g] for g in mu._atoms)
        except KeyError as exc:
            raise MeasureError("family members differ in support") from exc
        if len(order) != len(atoms):
            raise MeasureError("family members differ in support")
        if order not in shared:
            shared[order] = np.array(order, dtype=np.intp)
        orders.append(shared[order])
    return atoms, orders


def _distinct(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``table`` in order of first occurrence, and the
    index among them of every row of ``table``.

    A stable lexsort brings equal rows together, each run led by its first
    occurrence; a first-difference test marks where each run starts.
    """
    order = np.lexsort(table.T)
    ordered = table[order]
    starts = np.empty(len(table), dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    first = order[starts]
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    inverse = np.empty(len(table), dtype=np.intp)
    inverse[order] = rank[np.cumsum(starts) - 1]
    return table[np.sort(first)], inverse


def _first_occurrences(index: np.ndarray) -> np.ndarray:
    """The values of ``index``, which covers ``0 .. m - 1``, in order of
    first occurrence."""
    return np.argsort(np.unique(index, return_index=True)[1])


def _row_step(code: groups.RowCode, power: _RowFamily, steps: _RowFamily,
              cap: int) -> _RowFamily:
    """Each member's power convolved with its own step law.

    One product table holds every (atom, step atom) product in the first
    member's order; its distinct rows, in first-occurrence order, are the
    new atoms.  Each member adds its products' weights with one
    ``np.add.at`` over the table's index, in its own (atom, step) order, so
    its result equals its own :func:`convolve` in atoms, their order,
    weights and denominator.
    """
    size, count = len(power.rows), len(steps.rows)
    first = code.product(power.rows, steps.rows[0])
    table = np.empty((size, count, first.shape[1]), dtype=np.int64)
    table[:, 0] = first
    for c in range(1, count):
        table[:, c] = code.product(power.rows, steps.rows[c])
    table = table.reshape(size * count, -1)
    width = table.shape[1]
    while width > 1 and (table[:, width - 1] == groups.SENTINEL).all():
        width -= 1
    rows, inverse = _distinct(table[:, :width])
    del table
    if len(rows) > cap:
        raise SupportCapError(f"convolution support exceeded cap {cap}")
    inverse = inverse.reshape(size, count)
    walks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray | None]] = {}
    orders, weights, denoms, masses = [], [], [], []
    for j, (w, s) in enumerate(zip(power.weights, steps.weights)):
        atom_order, step_order = power.orders[j], steps.orders[j]
        key = (id(atom_order), id(step_order))
        if key not in walks:
            index = inverse if atom_order is None else inverse[atom_order]
            if step_order is not None:
                index = index[:, step_order]
            index = index.ravel()
            walks[key] = (index, None if atom_order is None
                          and step_order is None
                          else _first_occurrences(index))
        index, order = walks[key]
        mass = None if power.masses[j] is None else (power.masses[j]
                                                      * steps.masses[j])
        if mass is not None and mass > _INT64_MAX:
            w, s = w.astype(object), s.astype(object)
        acc = np.zeros(len(rows), dtype=w.dtype)
        np.add.at(acc, index, np.multiply.outer(w, s).ravel())
        orders.append(order)
        weights.append(acc if order is None else acc[order])
        denoms.append(None if power.denoms[j] is None
                      else power.denoms[j] * steps.denoms[j])
        masses.append(mass)
    return _RowFamily(rows, orders, weights, denoms, masses)


def _family_code(laws: Sequence[FiniteMeasure],
                 n_max: int) -> groups.RowCode | None:
    """The row code on which a family's powers to ``n_max`` are built: None
    for a family of one, a spec without rows, or coordinates (at most
    ``n_max`` times the laws' largest) that would not fit the code's
    fields."""
    code = groups.row_code(laws[0].spec)
    if len(laws) == 1 or code is None:
        return None
    reach = n_max * max(map(code.bound, laws[0]._atoms))
    return code if reach <= code.limit else None


def family_powers(laws: Sequence[FiniteMeasure], n_max: int,
                  cap: int = DEFAULT_SUPPORT_CAP
                  ) -> Iterator[list[tuple[np.ndarray, int | None]]]:
    """Per power ``n = 1 .. n_max`` of laws that share a spec, a weight mode
    and a support set: each law's weights in its atom order (float64, int64
    numerators, or Python ints beyond int64) and its denominator.

    Each power equals the law's own :func:`convolution_power` in atoms,
    order, weights and denominator.  A family whose spec encodes as rows
    and whose coordinates stay within the fields to ``n_max`` keeps its
    powers as rows and weight arrays, one product table a power
    (:func:`_row_step`), and builds no dict; any other family calls
    :func:`convolve` law by law, a power at a time.  The family is checked
    once, before the first power: powers of laws with one support set share
    their support.  If the support cap is hit, the :class:`SupportCapError`
    names the largest completed power.
    """
    atoms, orders = _member_orders(laws)
    code = _family_code(laws, n_max)
    if code is not None:
        steps = power = _RowFamily(
            code.encode(atoms), orders, [_weight_array(mu) for mu in laws],
            [mu.denom for mu in laws],
            [None if mu.denom is None else sum(mu._atoms.values())
             for mu in laws])
    powers = laws
    for n in range(1, n_max + 1):
        try:
            if code is not None and n > 1:
                power = _row_step(code, power, steps, cap)
            elif n > 1:
                powers = [convolve(p, law, cap)
                          for p, law in zip(powers, laws)]
        except SupportCapError as exc:
            raise SupportCapError(f"{exc} (largest completed power {n - 1})",
                                  completed=n - 1) from exc
        if code is not None:
            yield list(zip(power.weights, power.denoms))
        else:
            yield [(_weight_array(p), p.denom) for p in powers]


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

