"""Free words and the wreath-tower realisation of free solvable groups.

A free word is a tuple of nonzero signed letters (``+i`` for the i-th
generator, ``-i`` for its inverse), always freely reduced; word text is
read by :func:`walklab.parsing.parse_word`.  The level-``m`` image of a word
``w = x_{i_1}^{s_1} ... x_{i_n}^{s_n}`` is computed by a Fox-derivative
prefix scan, level by level, with ``pi_k`` the level-``k`` image:

* level 1 is abelianisation to the integer lattice: the letter-count vector;
* level ``m >= 2`` is the wreath element ``(lamps, pi_{m-1}(w))``.  The lamp
  at site ``s`` is ``e_i`` summed over the letters ``x_i`` at positions ``j``
  with ``pi_{m-1}(w[:j]) = s``, less ``e_i`` summed over the letters
  ``x_i^-1`` with ``pi_{m-1}(w[:j+1]) = s``; zero lamps are dropped.

Each level below the top needs the images of every prefix; the top level
needs only the image of the whole word.  This is the product of the
generator images ``x_i -> (e_i at the identity site, pi_{m-1}(x_i))`` taken
in the tower, without multiplying there.  The images nest, so their size
multiplies with each level; :func:`is_identity` and the size check of
:func:`capped_embed` run the same scan on integer prefix-class ids.

The scan realises the classical embedding of the rank-``d``, derived
length-``m`` free solvable group into  Z^d wr (level m-1); its kernel at
level ``m`` is the m-th derived subgroup.  A matrix-shaped implementation
(2x2 upper-triangular over the group ring) is provided as an independent
cross-check of the scan and is used by the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import add
from random import Random
from types import MappingProxyType
from typing import Mapping

from . import groups
from .groups import FreeSolvable, GroupElement, concat_words, invert_word

FreeWord = tuple[int, ...]

#: Most lamps, at every depth, in an image :func:`capped_embed` builds.  A
#: printed lamp takes about 22 characters, so the cap is about 2.2 MB of
#: text, written in under a second; the tests' largest printed image has
#: 8,885 lamps, and E7 embeds words of 12 letters at m <= 3.
MAX_IMAGE_LAMPS = 100_000


class WordError(ValueError):
    """Out-of-range letters or bad word-sampling arguments."""


# ---------------------------------------------------------------------------
# word utilities


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    return concat_words(concat_words(u, v),
                        concat_words(invert_word(u), invert_word(v)))


def word_to_text(w: FreeWord) -> str:
    if not w:
        return "e"
    return " ".join(f"x{letter}" if letter > 0 else f"X{-letter}" for letter in w)


# ---------------------------------------------------------------------------
# the level embedding


@lru_cache(maxsize=None)
def sdm_spec(rank: int, length: int) -> FreeSolvable:
    return FreeSolvable(rank, length)


def abelianize_word(w: FreeWord, rank: int) -> tuple[int, ...]:
    """Letter-count vector of a word, computed without the tower so that E7
    and the tests can use it as an independent oracle for level 1."""
    vec = [0] * rank
    for letter in w:
        if abs(letter) > rank:
            raise WordError(f"letter {letter} out of range for rank {rank}")
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(vec)


@lru_cache(maxsize=None)
def _units(rank: int) -> Mapping[int, tuple[int, ...]]:
    """The signed unit vector of Z^rank for each letter: ``e_i`` for ``i``,
    ``-e_i`` for ``-i``.  Letter 0 and letters beyond the rank are absent."""
    units = {}
    for i in range(1, rank + 1):
        e_i = (0,) * (i - 1) + (1,) + (0,) * (rank - i)
        units[i] = e_i
        units[-i] = tuple(-c for c in e_i)
    return MappingProxyType(units)


def _prefix_counts(w: FreeWord, rank: int) -> list[tuple[int, ...]]:
    """Level-1 images of every prefix of a word: its letter-count vectors."""
    vec = [0] * rank
    counts = [tuple(vec)]
    for letter in w:
        if 0 < letter <= rank:
            vec[letter - 1] += 1
        elif 0 < -letter <= rank:
            vec[-letter - 1] -= 1
        else:
            raise WordError(f"letter {letter} out of range for rank {rank}")
        counts.append(tuple(vec))
    return counts


def _lamp_scan(w: FreeWord, below: list[GroupElement], rank: int,
               every_prefix: bool) -> list[GroupElement]:
    """Images one level up from the prefix images ``below`` one level down
    (or from any keys that are equal exactly where those images are): the
    images of every prefix, or of the whole word only.  The lamps stay
    sorted by site: each letter updates its site's lamp in place, or
    inserts it at the place ``bisect_left`` finds in the parallel sites."""
    units = _units(rank)
    sites: list[GroupElement] = []
    lamps: list[tuple[GroupElement, tuple[int, ...]]] = []
    out = [((), below[0])]
    for j, letter in enumerate(w):
        site = below[j] if letter > 0 else below[j + 1]
        k = bisect_left(sites, site)
        if k < len(sites) and sites[k] == site:
            vec = tuple(map(add, lamps[k][1], units[letter]))
            if any(vec):
                lamps[k] = (site, vec)
            else:
                del sites[k], lamps[k]
        else:
            sites.insert(k, site)
            lamps.insert(k, (site, units[letter]))
        if every_prefix:
            out.append((tuple(lamps), below[j + 1]))
    return out if every_prefix else [(tuple(lamps), below[-1])]


def magnus_embed(w: FreeWord, rank: int, length: int) -> GroupElement:
    """Image of a word (reduced or not) at the given level, by the
    Fox-derivative prefix scan described in the module docstring."""
    sdm_spec(rank, length)  # GroupError on a bad rank or level
    images = _prefix_counts(w, rank)
    for level in range(2, length + 1):
        images = _lamp_scan(w, images, rank, every_prefix=level < length)
    return images[-1]


def _class_scan(w: FreeWord, rank: int, length: int
                ) -> tuple[list[GroupElement], list[int]]:
    """The scan of :func:`magnus_embed` on prefix classes: each level's
    prefix images are replaced by integer ids, equal exactly where the
    images are (the empty prefix's is 0), before the scan one level up, so
    a level costs the same at any depth.  Returns the top level's keys and
    the lamps, at every depth, of their images: 1 plus the lamps of the
    site's image per lamp, plus those of the position's image."""
    sdm_spec(rank, length)  # GroupError on a bad rank or level
    keys = _prefix_counts(w, rank)
    sizes = [0] * len(keys)
    for level in range(2, length + 1):
        table: dict[GroupElement, int] = {}
        ids = [table.setdefault(key, len(table)) for key in keys]
        below = dict(zip(ids, sizes))
        keys = _lamp_scan(w, ids, rank, every_prefix=level < length)
        sizes = [sum(1 + below[site] for site, _ in lamps) + below[position]
                 for lamps, position in keys]
    return keys, sizes


def is_identity(w: FreeWord, rank: int, length: int) -> bool:
    """Whether the word maps to the identity at the given level: whether
    its key in :func:`_class_scan` is the empty prefix's."""
    keys, _ = _class_scan(w, rank, length)
    return keys[-1] == (keys[0] if length == 1 else ((), 0))


def capped_embed(w: FreeWord, rank: int, length: int) -> GroupElement:
    """:func:`magnus_embed`, refused with :class:`WordError` when the image
    would hold more than ``MAX_IMAGE_LAMPS`` lamps, counted first on prefix
    classes by :func:`_class_scan`."""
    lamps = _class_scan(w, rank, length)[1][-1]
    if lamps > MAX_IMAGE_LAMPS:
        raise WordError(f"the level-{length} image has {lamps} lamps, above "
                        f"the cap of {MAX_IMAGE_LAMPS}")
    return magnus_embed(w, rank, length)


# ---------------------------------------------------------------------------
# random words in the derived series


def random_reduced_word(rank: int, length: int, rng: Random) -> FreeWord:
    """A random nonempty reduced word of exactly ``length`` letters.

    E7's stream of random words depends on these exact draws, so this stays
    apart from ``groups.random_element``."""
    if length < 1:
        raise WordError("length must be >= 1")
    letters: list[int] = []
    alphabet = [i for i in range(-rank, rank + 1) if i]
    while len(letters) < length:
        letter = rng.choice(alphabet)
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return tuple(letters)


def random_derived_series_word(rank: int, level: int, budget: int,
                               rng: Random, _attempts: int = 64) -> FreeWord:
    """A random nontrivial word in the ``level``-th derived subgroup.

    Level 0 is a plain reduced word of ``budget`` letters; level ``r`` is a
    commutator of two independent level ``r - 1`` words.  Such a word maps to
    the identity at embedding level ``r`` and generically survives at level
    ``r + 1``.
    """
    if level < 0:
        raise WordError("level must be >= 0")
    if budget < 2:
        raise WordError("budget must be >= 2 to build nontrivial commutators")
    if level == 0:
        return random_reduced_word(rank, budget, rng)
    for _ in range(_attempts):
        u = random_derived_series_word(rank, level - 1, budget, rng)
        v = random_derived_series_word(rank, level - 1, budget, rng)
        w = commutator(u, v)
        if w:
            return w
    raise WordError(f"could not build a nontrivial level-{level} word "
                    f"within {_attempts} attempts (budget {budget})")


# ---------------------------------------------------------------------------
# matrix-shaped cross-check
#
# The embedding can equally be written with 2x2 upper-triangular matrices
#     [[ pi(w), t ], [0, 1]]
# over the integral group ring of the level below, with the module T free on
# t_1 .. t_d.  The classes below implement that shape directly (group-ring
# vectors with explicit left translation) and are used in tests to
# cross-check the prefix scan.


class MagnusMatrix:
    """Upper-triangular matrix [[g, t], [0, 1]] over the level-below ring."""

    __slots__ = ("rank", "length", "g", "t")

    def __init__(self, rank: int, length: int, g: GroupElement,
                 t: dict[GroupElement, tuple[int, ...]]):
        self.rank = rank
        self.length = length
        self.g = g          # element of the level length-1 group
        self.t = t          # site -> integer coefficient vector (module element)

    @classmethod
    def identity(cls, rank: int, length: int) -> "MagnusMatrix":
        below = sdm_spec(rank, length - 1)
        return cls(rank, length, groups.identity(below), {})

    @classmethod
    def generator(cls, rank: int, length: int, letter: int) -> "MagnusMatrix":
        if letter == 0 or abs(letter) > rank:
            raise WordError(f"letter {letter} out of range for rank {rank}")
        below = sdm_spec(rank, length - 1)
        i = abs(letter)
        e_i = tuple(1 if j == i - 1 else 0 for j in range(rank))
        pi = magnus_embed((i,), rank, length - 1)
        if letter > 0:
            return cls(rank, length, pi, {groups.identity(below): e_i})
        # inverse matrix: [[g, t],[0,1]]^-1 = [[g^-1, -(g^-1 . t)],[0,1]]
        pi_inv = groups.inverse(below, pi)
        neg = tuple(-c for c in e_i)
        return cls(rank, length, pi_inv, {pi_inv: neg})

    def __matmul__(self, other: "MagnusMatrix") -> "MagnusMatrix":
        below = sdm_spec(self.rank, self.length - 1)
        # t_new = t + g . t'   (left translation of the module element)
        t_new = dict(self.t)
        for site, vec in other.t.items():
            moved = groups.multiply(below, self.g, site)
            cur = t_new.get(moved)
            if cur is None:
                t_new[moved] = vec
            else:
                summed = tuple(a + b for a, b in zip(cur, vec))
                if any(summed):
                    t_new[moved] = summed
                else:
                    del t_new[moved]
        return MagnusMatrix(self.rank, self.length,
                            groups.multiply(below, self.g, other.g), t_new)

    def as_wreath(self) -> GroupElement:
        """Reshape to the wreath normal form used by the prefix scan."""
        lamps = tuple(sorted(self.t.items()))
        return (lamps, self.g)


def matrix_embed(w: FreeWord, rank: int, length: int) -> MagnusMatrix:
    """Matrix-form image of a word (length >= 2)."""
    if length < 2:
        raise WordError("matrix form applies to levels >= 2")
    acc = MagnusMatrix.identity(rank, length)
    for letter in w:
        acc = acc @ MagnusMatrix.generator(rank, length, letter)
    return acc
