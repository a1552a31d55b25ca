"""Exact arithmetic and canonical normal forms for the lab's groups.

Every group is described by a small immutable spec value; elements are plain
hashable Python values (ints and nested tuples), so equality of elements is
structural equality of canonical forms.  All operations are pure functions
dispatching on the spec.  Each spec builds its product once, as a function
of two elements made from its parts' products (:func:`multiply` looks it up
and calls it), so a nested product never dispatches again.

Conventions the rest of the package relies on:

* ``IntegerLattice(d)`` elements are length-``d`` int tuples.
* ``Cyclic(q)`` elements are residues in ``range(q)``.
* ``FreeGroup(r)`` elements are freely reduced words: tuples of nonzero
  letters ``+-1 .. +-r``.
* ``Dihedral`` elements are pairs ``(t, f)`` in the semidirect form
  ``Z x| Z/2``; the involution generator is ``a = (0, 1)`` and the reflection
  ``b = (1, 1)``, so ``(t, f)(u, g) = (t + (-1)**f * u, f ^ g)`` and the
  product ``a*b`` is the translation ``(-1, 0)``.
* ``BaumslagSolitar`` (the (1, -1) case) elements are pairs ``(m, n)``
  meaning ``a^m b^n`` with defining relation ``b a b^-1 = a^-1``, hence
  ``(m, n)(m', n') = (m + (-1)**n * m', n + n')``.
* ``Wreath(lamp, base)`` elements are ``(lamps, pos)``: ``lamps`` is a tuple
  of ``(site, value)`` pairs sorted by site, identity values never stored,
  sites are base elements and ``pos`` is a base element.
* ``FreeSolvable(r, m)`` is realised by its lattice tower
  ``Z^r wr ... wr Z^r`` of height ``m`` (:func:`lattice_tower`): elements,
  arithmetic and validation are the tower's, so level 1 is ``Z^r`` and
  level ``m >= 2`` holds wreath values with integer-vector lamps over level
  ``m - 1``.  Membership in the embedded subgroup is not a local property
  of the tuple, so ``validate`` only checks structure; the arithmetic never
  leaves the subgroup when inputs come from the embedding in
  :mod:`walklab.magnus`.  The step laws on these groups are built in
  :mod:`walklab.measures`.

Lattices, Dinf, BS(1,-1) and ``Z^d wr Z^d`` (so S(d, 2)) also write their
elements as int64 rows (:func:`row_code`), with a product of every row by
one element in a few array operations; the family convolutions of
:mod:`walklab.measures` run on them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from random import Random
from typing import Any, Callable, Iterable, Sequence, Union

import numpy as np

GroupElement = Any
Product = Callable[[GroupElement, GroupElement], GroupElement]


#: Deepest nesting of specs and words read from text, and the largest derived
#: length of S(d, m): recursion over either stays well inside Python's stack.
MAX_NESTING = 100


class GroupError(ValueError):
    """Invalid element for a spec, mismatched specs, or unsupported operation."""


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class IntegerLattice:
    """Z^dim under coordinatewise addition."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise GroupError(f"lattice dimension must be >= 1, got {self.dim}")

    @cached_property
    def _product(self) -> Product:
        return lattice_add(self.dim)

    @cached_property
    def _rows(self) -> "RowCode":
        return _TupleRows(self.dim, _lattice_rows)


@dataclass(frozen=True)
class Cyclic:
    """Z/modulus under addition."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise GroupError(f"cyclic modulus must be >= 2, got {self.modulus}")

    @cached_property
    def _product(self) -> Product:
        q = self.modulus
        return lambda g, h: (g + h) % q


@dataclass(frozen=True)
class FreeGroup:
    """Free group on ``rank`` generators; elements are reduced words."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise GroupError(f"free rank must be >= 1, got {self.rank}")

    @cached_property
    def _product(self) -> Product:
        return concat_words


@dataclass(frozen=True)
class Dihedral:
    """The infinite dihedral group, generated by two involutions a, b."""

    @cached_property
    def _product(self) -> Product:
        return _dihedral_product

    @cached_property
    def _rows(self) -> "RowCode":
        return _TupleRows(2, _dihedral_rows)


@dataclass(frozen=True)
class BaumslagSolitar:
    """The soluble Baumslag-Solitar group with relation b a b^-1 = a^-1."""

    @cached_property
    def _product(self) -> Product:
        return _bs11_product

    @cached_property
    def _rows(self) -> "RowCode":
        return _TupleRows(2, _bs11_rows)


@dataclass(frozen=True)
class DirectProduct:
    left: "GroupSpec"
    right: "GroupSpec"

    @cached_property
    def _product(self) -> Product:
        left, right = self.left._product, self.right._product
        return lambda g, h: (left(g[0], h[0]), right(g[1], h[1]))


@dataclass(frozen=True)
class Wreath:
    """Restricted wreath product lamp wr base."""

    lamp: "GroupSpec"
    base: "GroupSpec"

    @cached_property
    def _product(self) -> Product:
        return _wreath_product(self.lamp._product, identity(self.lamp),
                               self.base._product)

    @cached_property
    def _rows(self) -> "RowCode | None":
        lamp = self.lamp
        # a lamp's 2d fields get at least 4 of 62 bits each up to d = 7
        if type(lamp) is IntegerLattice and lamp == self.base and lamp.dim <= 7:
            return _LatticeWreathRows(lamp.dim)
        return None


@dataclass(frozen=True)
class FreeSolvable:
    """Free solvable group of given rank and derived length (level)."""

    rank: int
    length: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise GroupError(f"free solvable rank must be >= 1, got {self.rank}")
        if not 1 <= self.length <= MAX_NESTING:
            raise GroupError(f"derived length must lie in 1..{MAX_NESTING}, "
                             f"got {self.length}")

    @cached_property
    def _product(self) -> Product:
        return _lattice_tower(self.rank, self.length)._product

    @cached_property
    def _rows(self) -> "RowCode | None":
        return row_code(_lattice_tower(self.rank, self.length))


GroupSpec = Union[
    IntegerLattice,
    Cyclic,
    FreeGroup,
    Dihedral,
    BaumslagSolitar,
    DirectProduct,
    Wreath,
    FreeSolvable,
]

DINF = Dihedral()
BS11 = BaumslagSolitar()

#: Generators in the conventions documented above.
DINF_A = (0, 1)
DINF_B = (1, 1)
BS_A = (1, 0)
BS_B = (0, 1)


def wreath_tower(lamps: Sequence[GroupSpec], base: GroupSpec) -> GroupSpec:
    """Iterated wreath product; ``lamps`` are applied inner-to-outer.

    ``wreath_tower([], B)`` is ``B`` itself and ``wreath_tower([A], B)`` is
    ``Wreath(A, B)``; each further lamp wraps the tower built so far.
    """
    spec = base
    for lamp in lamps:
        spec = Wreath(lamp, spec)
    return spec


def tower_height(spec: GroupSpec) -> int:
    """Number of levels when the spec is read as an iterated wreath tower."""
    if isinstance(spec, Wreath):
        return 1 + tower_height(spec.base)
    if isinstance(spec, FreeSolvable):
        return spec.length
    return 1


def lattice_tower(spec: FreeSolvable) -> GroupSpec:
    """The tower ``Z^r wr ... wr Z^r`` of height ``m`` realising S(r, m)."""
    return _lattice_tower(spec.rank, spec.length)


@lru_cache(maxsize=None)
def _lattice_tower(rank: int, length: int) -> GroupSpec:
    # Keyed on ints, not on the spec: the spec's dataclass ``__hash__`` is
    # Python code, and S(d, m) inverses look their tower up on every call.
    lattice = IntegerLattice(rank)
    return wreath_tower([lattice] * (length - 1), lattice)


# ---------------------------------------------------------------------------
# elementary operations


@lru_cache(maxsize=None)
def identity(spec: GroupSpec) -> GroupElement:
    t = type(spec)
    if t is IntegerLattice:
        return (0,) * spec.dim
    if t is Cyclic:
        return 0
    if t is FreeGroup:
        return ()
    if t is Dihedral:
        return (0, 0)
    if t is BaumslagSolitar:
        return (0, 0)
    if t is DirectProduct:
        return (identity(spec.left), identity(spec.right))
    if t is Wreath:
        return ((), identity(spec.base))
    if t is FreeSolvable:
        return identity(lattice_tower(spec))
    raise GroupError(f"unknown spec {spec!r}")


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a sequence of nonzero signed letters."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise GroupError("free-word letters must be nonzero")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def concat_words(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two freely reduced words, cancelling at the seam."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def invert_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a freely reduced word."""
    return tuple(-letter for letter in reversed(w))


# ---------------------------------------------------------------------------
# products


@lru_cache(maxsize=None)
def lattice_add(dim: int) -> Product:
    """The sum of two Z^dim vectors, written out for dim <= 3."""
    if dim == 1:
        return lambda g, h: (g[0] + h[0],)
    if dim == 2:
        return lambda g, h: (g[0] + h[0], g[1] + h[1])
    if dim == 3:
        return lambda g, h: (g[0] + h[0], g[1] + h[1], g[2] + h[2])
    return lambda g, h: tuple(map(add, g, h))


def _dihedral_product(g: GroupElement, h: GroupElement) -> GroupElement:
    tg, fg = g
    th, fh = h
    return (tg - th if fg else tg + th, fg ^ fh)


def _bs11_product(g: GroupElement, h: GroupElement) -> GroupElement:
    mg, ng = g
    mh, nh = h
    return (mg - mh if ng & 1 else mg + mh, ng + nh)


def _wreath_product(lamp_mul: Product, lamp_id: GroupElement,
                    base_mul: Product) -> Product:
    """The product of a wreath over its lamp's and base's products: each
    lamp of ``h``, moved by ``g``'s position, is placed into ``g``'s sorted
    lamp list by bisection."""

    def product(g: GroupElement, h: GroupElement) -> GroupElement:
        lamps_g, x = g
        lamps_h, y = h
        if not lamps_h:
            return (lamps_g, base_mul(x, y))
        lamps = list(lamps_g)
        for site, val in lamps_h:
            moved = base_mul(x, site)
            k = bisect_left(lamps, (moved,))   # (moved,) sorts before (moved, v)
            if k < len(lamps) and lamps[k][0] == moved:
                prod = lamp_mul(lamps[k][1], val)
                if prod == lamp_id:
                    del lamps[k]
                else:
                    lamps[k] = (moved, prod)
            else:
                lamps.insert(k, (moved, val))
        return (tuple(lamps), base_mul(x, y))

    return product


def multiply(spec: GroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    """The product ``g h``, by the function the spec built once."""
    try:
        product = spec._product
    except AttributeError:
        raise GroupError(f"unknown spec {spec!r}") from None
    return product(g, h)


# ---------------------------------------------------------------------------
# integer rows

#: Pads a row of lamp codes; above every lamp code, so it sorts last.
SENTINEL = np.iinfo(np.int64).max


class RowCode:
    """An int64 row encoding of a spec's elements, for products in bulk.

    ``encode`` makes one row per element (a 2-d array), ``decode`` gives the
    elements back, and ``product(rows, step)`` holds the row of ``g h`` for
    every row ``g`` and one encoded element ``h``.  Equal elements of equal
    row width have equal rows.  The fields hold coordinates up to ``limit``
    in absolute value, ``bound(g)`` is the largest of ``g``'s, and the
    caller keeps every product within ``limit``: nothing here checks.
    """

    limit: int

    def encode(self, elems: Sequence[GroupElement]) -> np.ndarray:
        raise NotImplementedError

    def decode(self, rows: np.ndarray) -> list[GroupElement]:
        raise NotImplementedError

    def bound(self, g: GroupElement) -> int:
        raise NotImplementedError

    def product(self, rows: np.ndarray, step: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def row_code(spec: GroupSpec) -> RowCode | None:
    """The spec's row encoding, or None if it has none."""
    return getattr(spec, "_rows", None)


class _TupleRows(RowCode):
    """Elements that are int tuples of one length, one column each."""

    limit = 2 ** 62

    def __init__(self, width: int,
                 product: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.width = width
        self.product = product

    def encode(self, elems):
        return np.array(elems, dtype=np.int64).reshape(len(elems), self.width)

    def decode(self, rows):
        return list(map(tuple, rows.tolist()))

    def bound(self, g):
        return max(map(abs, g))


def _lattice_rows(rows: np.ndarray, step: np.ndarray) -> np.ndarray:
    return rows + step


def _dihedral_rows(rows: np.ndarray, step: np.ndarray) -> np.ndarray:
    t, f = rows[:, 0], rows[:, 1]
    return np.column_stack((t + np.where(f, -step[0], step[0]), f ^ step[1]))


def _bs11_rows(rows: np.ndarray, step: np.ndarray) -> np.ndarray:
    m, n = rows[:, 0], rows[:, 1]
    return np.column_stack((m + np.where(n & 1, -step[0], step[0]),
                            n + step[1]))


class _LatticeWreathRows(RowCode):
    """``Z^d wr Z^d``: a position code, then one code per lamp, sorted and
    padded with :data:`SENTINEL`.

    A vector packs into ``d`` fields of ``b`` bits, each holding its
    coordinate plus ``2^(b-1)``, the first coordinate highest; a lamp packs
    its site's fields above its value's, so lamp codes sort by site as the
    lamp tuples do.  Packing is affine while every coordinate fits, so
    adding packed vectors (less the packed zero) adds the vectors: moving a
    lamp's site or adding to its value is one integer sum.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.bits = bits = 62 // (2 * dim)
        self.limit = (1 << (bits - 1)) - 1
        self.zero = self._pack((0,) * dim)
        self.site_shift = bits * dim
        self.site_unit = 1 << (bits * dim)

    def _pack(self, v: tuple[int, ...]) -> int:
        code = 0
        for a in v:
            code = (code << self.bits) | (a + self.limit + 1)
        return code

    def _unpack(self, code: int) -> tuple[int, ...]:
        bits, mask, bias = self.bits, (1 << self.bits) - 1, self.limit + 1
        return tuple(((code >> (bits * i)) & mask) - bias
                     for i in range(self.dim - 1, -1, -1))

    def encode(self, elems):
        width = 1 + max(len(lamps) for lamps, _ in elems)
        out = np.full((len(elems), width), SENTINEL, dtype=np.int64)
        unit, pack = self.site_unit, self._pack
        for row, (lamps, pos) in zip(out, elems):
            row[:1 + len(lamps)] = [pack(pos)] + [pack(s) * unit + pack(v)
                                                  for s, v in lamps]
        return out

    def decode(self, rows):
        unit, unpack = self.site_unit, self._unpack
        return [(tuple((unpack(c // unit), unpack(c % unit))
                       for c in row[1:] if c != SENTINEL), unpack(row[0]))
                for row in rows.tolist()]

    def bound(self, g):
        lamps, pos = g
        return max(map(abs, (*pos, *(a for s, v in lamps for a in (*s, *v)))))

    def product(self, rows, step):
        unit, zero, shift_bits = self.site_unit, self.zero, self.site_shift
        pos, lamps = rows[:, 0], rows[:, 1:]
        shift = (pos - zero) * unit       # moves a lamp's site by pos
        out = np.full((len(rows), rows.shape[1] + len(step) - 1), SENTINEL,
                      dtype=np.int64)
        out[:, 0] = pos + (int(step[0]) - zero)
        for lamp in step[1:].tolist():
            if lamp == SENTINEL:
                break
            moved = lamp + shift
            hit = lamps >> shift_bits == (moved >> shift_bits)[:, None]
            lamps = lamps + hit * (lamp % unit - zero)
            lamps[hit & (lamps & (unit - 1) == zero)] = SENTINEL
            new = np.where(hit.any(axis=1), SENTINEL, moved)
            lamps = np.concatenate((lamps, new[:, None]), axis=1)
            lamps.sort(axis=1)
        out[:, 1:1 + lamps.shape[1]] = lamps
        return out


def inverse(spec: GroupSpec, g: GroupElement) -> GroupElement:
    t = type(spec)
    if t is IntegerLattice:
        return tuple(-a for a in g)
    if t is Cyclic:
        return (-g) % spec.modulus
    if t is FreeGroup:
        return invert_word(g)
    if t is Dihedral:
        tg, fg = g
        return (tg, 1) if fg else (-tg, 0)
    if t is BaumslagSolitar:
        mg, ng = g
        return (mg if ng & 1 else -mg, -ng)
    if t is DirectProduct:
        return (inverse(spec.left, g[0]), inverse(spec.right, g[1]))
    if t is Wreath:
        lamps, x = g
        xi = inverse(spec.base, x)
        moved = [(multiply(spec.base, xi, site), inverse(spec.lamp, val))
                 for site, val in lamps]
        return (tuple(sorted(moved)), xi)
    if t is FreeSolvable:
        return inverse(lattice_tower(spec), g)
    raise GroupError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# validation


def validate(spec: GroupSpec, g: GroupElement) -> None:
    """Raise :class:`GroupError` unless ``g`` is a canonical element of ``spec``."""
    t = type(spec)
    if t is IntegerLattice:
        if not (isinstance(g, tuple) and len(g) == spec.dim
                and all(isinstance(a, int) for a in g)):
            raise GroupError(
                f"expected {spec.dim}-tuple of ints for {spec!r}, got {g!r}")
        return
    if t is Cyclic:
        if not (isinstance(g, int) and 0 <= g < spec.modulus):
            raise GroupError(f"expected residue in range({spec.modulus}), got {g!r}")
        return
    if t is FreeGroup:
        if not (isinstance(g, tuple) and all(isinstance(a, int) for a in g)):
            raise GroupError(f"expected letter tuple for {spec!r}, got {g!r}")
        for letter in g:
            if letter == 0 or abs(letter) > spec.rank:
                raise GroupError(f"letter {letter} out of range for rank {spec.rank}")
        if g != reduce_letters(g):
            raise GroupError(f"word {g!r} is not freely reduced")
        return
    if t is Dihedral:
        if not (isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], int)
                and g[1] in (0, 1)):
            raise GroupError(f"expected (translation, flip) pair, got {g!r}")
        return
    if t is BaumslagSolitar:
        if not (isinstance(g, tuple) and len(g) == 2
                and all(isinstance(a, int) for a in g)):
            raise GroupError(f"expected (m, n) int pair, got {g!r}")
        return
    if t is DirectProduct:
        if not (isinstance(g, tuple) and len(g) == 2):
            raise GroupError(f"expected element pair, got {g!r}")
        validate(spec.left, g[0])
        validate(spec.right, g[1])
        return
    if t is Wreath:
        lamp_spec, base_spec = spec.lamp, spec.base
        if not (isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], tuple)):
            raise GroupError(f"expected (lamps, position) pair, got {g!r}")
        lamps, pos = g
        lamp_id = identity(lamp_spec)
        sites = []
        for entry in lamps:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise GroupError(f"bad lamp entry {entry!r}")
            site, val = entry
            validate(base_spec, site)
            validate(lamp_spec, val)
            if val == lamp_id:
                raise GroupError("identity lamp values must not be stored")
            sites.append(site)
        if sorted(lamps) != list(lamps):
            raise GroupError("lamp entries must be sorted by site")
        if len(set(sites)) != len(sites):
            raise GroupError("duplicate lamp sites")
        validate(base_spec, pos)
        return
    if t is FreeSolvable:
        validate(lattice_tower(spec), g)
        return
    raise GroupError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# random elements (test/experiment plumbing)


def random_element(spec: GroupSpec, rng: Random, size: int = 5) -> GroupElement:
    """A random canonical element with coordinates bounded by ``size``.

    Free solvable specs are not supported here: their elements live in an
    embedded subgroup, so sample those through the level embedding instead.
    """
    t = type(spec)
    if t is IntegerLattice:
        return tuple(rng.randint(-size, size) for _ in range(spec.dim))
    if t is Cyclic:
        return rng.randrange(spec.modulus)
    if t is FreeGroup:
        letters: list[int] = []
        for _ in range(rng.randint(0, size)):
            letter = rng.choice([i for i in range(-spec.rank, spec.rank + 1) if i])
            if letters and letters[-1] == -letter:
                letters.pop()
            else:
                letters.append(letter)
        return tuple(letters)
    if t is Dihedral:
        return (rng.randint(-size, size), rng.randint(0, 1))
    if t is BaumslagSolitar:
        return (rng.randint(-size, size), rng.randint(-size, size))
    if t is DirectProduct:
        return (random_element(spec.left, rng, size),
                random_element(spec.right, rng, size))
    if t is Wreath:
        lamp_id = identity(spec.lamp)
        sites: dict[GroupElement, GroupElement] = {}
        for _ in range(rng.randint(0, max(1, size // 2))):
            site = random_element(spec.base, rng, size)
            val = random_element(spec.lamp, rng, size)
            if val != lamp_id:
                sites[site] = val
        return (tuple(sorted(sites.items())), random_element(spec.base, rng, size))
    if t is FreeSolvable:
        raise GroupError("sample free solvable elements via the level embedding")
    raise GroupError(f"unknown spec {spec!r}")
