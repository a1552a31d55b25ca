"""Text grammars for group specs, group elements, and step-law literals.

Group specs::

    Z            integers            C5           cyclic of order 5
    Z^3          rank-3 lattice      F2           free group of rank 2
    Dinf         infinite dihedral   BS(1,-1)     soluble Baumslag-Solitar
    S(3,2)       free solvable, rank 3, derived length 2
    wreath(C2, Dinf)                 restricted wreath product
    tower(Z^2; Z^2; Z^2)             iterated wreath, outermost lamp first,
                                     last entry is the base
    product(F2, wreath(C2, Dinf))    direct product

Specs and ``[u, v]`` nest at most ``groups.MAX_NESTING`` levels deep (a
tower's i-th entry counts as i levels); deeper text is a GrammarError.

Elements (per spec):

* lattice / cyclic: ``3``, ``(1, -2)``; ``e`` is always the identity
* words, one grammar for free, free solvable, dihedral and Baumslag-Solitar
  groups: letters and commutators ``[u, v]``, each with an optional integer
  power, e.g. ``x1 X2 x3^-1 [x1, x2]^2``; ``*`` and ``e`` may appear
  anywhere and mean nothing.  The letters are ``x1..xd`` and their inverses
  ``X1..Xd`` (which take no power) in ``Fd`` and ``S(d, m)``, and ``a``,
  ``b`` in Dinf and BS(1,-1) (``a b^-2``).  A free solvable word is read as
  a free word and then embedded (:func:`walklab.magnus.magnus_embed`).
* dihedral and Baumslag-Solitar also take the normal-form pair ``(t, f)`` /
  ``(m, n)``; level-1 free solvable groups take the lattice vector ``(2, -1)``
* direct products: ``(left | right)``
* wreath products: products of factors ``lamp(site: value)`` and
  ``base(position)``, e.g. ``lamp(0: 1) lamp(2: 1) base(-1)``

Measure literals::

    measure { atom "ab" 1/2; atom "ba" 0.5 }

Weights may be fractions, decimals, or integers and are read exactly.

Family references: ``dinf(p=3/4, k=5)``, ``bs11(p=3/4, k=2)``,
``z_drift(k=3)``, ``lamplighter(k=8, p=3/4)``, ``f2product(k=8, p=3/4)``;
``k=limit`` (or omitting ``k``) selects the limit measure.  ``z_drift``
takes no ``p``.  The laws themselves are built in :mod:`walklab.measures`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import groups, magnus, measures
from .groups import (
    BaumslagSolitar,
    Cyclic,
    Dihedral,
    DirectProduct,
    FreeGroup,
    FreeSolvable,
    GroupElement,
    GroupSpec,
    IntegerLattice,
    Wreath,
)
from .magnus import FreeWord
# f2_uniform is unused here; it is re-exported so that all the family laws
# stay importable from this module as well as from measures.
from .measures import (  # noqa: F401
    FiniteMeasure,
    f2_uniform,
    f2product_family,
    lamplighter_family,
)


class GrammarError(ValueError):
    """Malformed group, element, measure, or family text."""


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # nesting levels entered and not yet left

    def enter(self) -> None:
        """Go one nesting level deeper, up to ``groups.MAX_NESTING``."""
        self.depth += 1
        if self.depth > groups.MAX_NESTING:
            raise self.error(f"nesting deeper than {groups.MAX_NESTING} levels")

    def leave(self, levels: int = 1) -> None:
        self.depth -= levels

    def error(self, message: str) -> GrammarError:
        return GrammarError(f"{message} at offset {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_lit(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str) -> None:
        if not self.try_lit(lit):
            raise self.error(f"expected {lit!r}")

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalpha()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def ident(self) -> str:
        """Like ``name`` but digits are allowed after the first letter."""
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (self.text[self.pos].isalpha()
                                          or self.text[self.pos] == "_"):
            self.pos += 1
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "_"):
                self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def number(self) -> Fraction:
        """Integer, fraction a/b, or decimal — read exactly."""
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] in "./"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            return Fraction(self.text[start:self.pos])
        except (ValueError, ZeroDivisionError) as exc:
            raise self.error(f"bad number ({exc})") from None

    def quoted(self) -> str:
        self.skip_ws()
        if self.peek() != '"':
            raise self.error("expected a quoted string")
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            raise self.error("unterminated quoted string")
        out = self.text[self.pos + 1:end]
        self.pos = end + 1
        return out


# ---------------------------------------------------------------------------
# group specs


def _group(sc: _Scanner) -> GroupSpec:
    sc.skip_ws()
    word = sc.name()
    if word == "Z":
        if sc.try_lit("^"):
            return IntegerLattice(sc.integer())
        return IntegerLattice(1)
    if word == "C":
        return Cyclic(sc.integer())
    if word == "F":
        return FreeGroup(sc.integer())
    if word in ("Dinf", "dinf"):
        return Dihedral()
    if word == "BS":
        sc.expect("(")
        if sc.integer() != 1:
            raise sc.error("only BS(1,-1) is supported")
        sc.expect(",")
        if sc.integer() != -1:
            raise sc.error("only BS(1,-1) is supported")
        sc.expect(")")
        return BaumslagSolitar()
    if word == "S":
        sc.expect("(")
        rank = sc.integer()
        sc.expect(",")
        length = sc.integer()
        sc.expect(")")
        return FreeSolvable(rank, length)
    if word in ("wreath", "product"):
        sc.expect("(")
        sc.enter()
        left = _group(sc)
        sc.expect(",")
        right = _group(sc)
        sc.leave()
        sc.expect(")")
        return (Wreath if word == "wreath" else DirectProduct)(left, right)
    if word == "tower":
        sc.expect("(")
        parts = []
        while not parts or sc.try_lit(";"):
            sc.enter()  # the i-th entry ends up i levels down in the tower
            parts.append(_group(sc))
        sc.leave(len(parts))
        sc.expect(")")
        if len(parts) < 2:
            raise sc.error("tower needs at least one lamp and a base")
        # listed outermost-lamp first; the builder takes lamps inner-to-outer
        return groups.wreath_tower(list(reversed(parts[:-1])), parts[-1])
    raise sc.error(f"unknown group {word!r}")


def parse_group(text: str) -> GroupSpec:
    sc = _Scanner(text)
    spec = _group(sc)
    if not sc.eof():
        raise sc.error("trailing input after group spec")
    return spec


def spec_to_text(spec: GroupSpec) -> str:
    t = type(spec)
    if t is IntegerLattice:
        return "Z" if spec.dim == 1 else f"Z^{spec.dim}"
    if t is Cyclic:
        return f"C{spec.modulus}"
    if t is FreeGroup:
        return f"F{spec.rank}"
    if t is Dihedral:
        return "Dinf"
    if t is BaumslagSolitar:
        return "BS(1,-1)"
    if t is FreeSolvable:
        return f"S({spec.rank},{spec.length})"
    if t is Wreath:
        return f"wreath({spec_to_text(spec.lamp)}, {spec_to_text(spec.base)})"
    if t is DirectProduct:
        return f"product({spec_to_text(spec.left)}, {spec_to_text(spec.right)})"
    raise GrammarError(f"no textual form for {spec!r}")


# ---------------------------------------------------------------------------
# elements


def _int_tuple(sc: _Scanner, dim: int) -> tuple[int, ...]:
    if sc.peek() == "(":
        sc.expect("(")
        out = [sc.integer()]
        while sc.try_lit(","):
            out.append(sc.integer())
        sc.expect(")")
    else:
        out = [sc.integer()]
    if len(out) != dim:
        raise sc.error(f"expected {dim} coordinates, got {len(out)}")
    return tuple(out)


_LETTERS = {Dihedral: {"a": groups.DINF_A, "b": groups.DINF_B},
            BaumslagSolitar: {"a": groups.BS_A, "b": groups.BS_B}}


def _power(spec: GroupSpec, g: GroupElement, n: int) -> GroupElement:
    """g^n by square-and-multiply (linear in the result for free words)."""
    if n < 0:
        g, n = groups.inverse(spec, g), -n
    out = groups.identity(spec)
    while n:
        if n & 1:
            out = groups.multiply(spec, out, g)
        n >>= 1
        if n:
            g = groups.multiply(spec, g, g)
    return out


def _word(sc: _Scanner, spec: GroupSpec) -> GroupElement:
    """The product, left to right, of the factors at ``sc``: letters and
    commutators ``[u, v]`` (= u v u^-1 v^-1), each with an optional integer
    power ``^n``, and the no-op factors ``*`` and ``e``.  Letters are
    ``x<i>`` and its inverse ``X<i>`` (no power) in ``FreeGroup(d)``, and
    ``a``, ``b`` in Dinf and BS(1,-1).  Stops before the first character
    that starts no factor; reads nothing on empty input."""
    letters = _LETTERS.get(type(spec), {})
    out = groups.identity(spec)
    while True:
        c = sc.peek()
        if c in ("*", "e"):
            sc.pos += 1
            continue
        if c == "[":
            sc.pos += 1
            sc.enter()
            u = _word(sc, spec)
            sc.expect(",")
            v = _word(sc, spec)
            sc.leave()
            sc.expect("]")
            g = groups.multiply(spec, groups.multiply(spec, u, v),
                                groups.inverse(spec, groups.multiply(spec, v, u)))
        elif c in ("x", "X") and type(spec) is FreeGroup:
            sc.pos += 1
            digits = sc.pos
            while sc.pos < len(sc.text) and sc.text[sc.pos].isdecimal():
                sc.pos += 1
            if sc.pos == digits:
                raise sc.error("expected a letter index")
            index = int(sc.text[digits:sc.pos])
            if not 1 <= index <= spec.rank:
                raise sc.error(f"letter index {index} out of range 1..{spec.rank}")
            g = (index,) if c == "x" else (-index,)
        elif c in letters:
            sc.pos += 1
            g = letters[c]
        else:
            return out
        if sc.try_lit("^"):
            if c == "X":
                raise sc.error("write either X1 or x1^-1, not both")
            g = _power(spec, g, sc.integer())
        out = groups.multiply(spec, out, g)


def parse_word(text: str, rank: int) -> FreeWord:
    """A word of ``FreeGroup(rank)`` as a reduced letter tuple (see
    :func:`_word`); empty text is the empty word."""
    sc = _Scanner(text)
    w = _word(sc, FreeGroup(rank))
    if not sc.eof():
        raise sc.error("trailing input after word")
    return w


#: Specs whose elements are read as words, where ``e`` is a no-op factor.
_WORD_SPECS = (FreeGroup, FreeSolvable, Dihedral, BaumslagSolitar)


def _element(sc: _Scanner, spec: GroupSpec) -> GroupElement:
    t = type(spec)
    if sc.peek() == "e" and t not in _WORD_SPECS:
        nxt = sc.pos + 1
        rest = sc.text[nxt:nxt + 1]
        if not (rest.isalnum() or rest == "_"):
            sc.expect("e")
            return groups.identity(spec)
    if t is IntegerLattice:
        return _int_tuple(sc, spec.dim)
    if t is Cyclic:
        return sc.integer() % spec.modulus
    if t is FreeSolvable and spec.length == 1 and sc.peek() in "(+-0123456789":
        return _int_tuple(sc, spec.rank)
    if t in (Dihedral, BaumslagSolitar) and sc.peek() == "(":
        pair = _int_tuple(sc, 2)
        if t is Dihedral and pair[1] not in (0, 1):
            raise sc.error("flip bit must be 0 or 1")
        return pair
    if t in _WORD_SPECS:
        start = sc.pos
        g = _word(sc, FreeGroup(spec.rank) if t is FreeSolvable else spec)
        if sc.pos == start:
            raise sc.error("expected a word")
        if t is FreeSolvable:
            return magnus.magnus_embed(g, spec.rank, spec.length)
        return g
    if t is DirectProduct:
        sc.expect("(")
        left = _element(sc, spec.left)
        sc.expect("|")
        right = _element(sc, spec.right)
        sc.expect(")")
        return (left, right)
    if t is Wreath:
        out = groups.identity(spec)
        seen = False
        while True:
            if sc.try_lit("lamp"):
                sc.expect("(")
                site = _element(sc, spec.base)
                sc.expect(":")
                value = _element(sc, spec.lamp)
                sc.expect(")")
                factor = ((() if value == groups.identity(spec.lamp)
                           else ((site, value),)), groups.identity(spec.base))
                out = groups.multiply(spec, out, factor)
                seen = True
                continue
            if sc.try_lit("base"):
                sc.expect("(")
                pos = _element(sc, spec.base)
                sc.expect(")")
                out = groups.multiply(spec, out, ((), pos))
                seen = True
                continue
            break
        if not seen:
            raise sc.error("expected lamp(...)/base(...) factors")
        return out
    raise sc.error(f"no element grammar for {spec!r}")


def parse_element(spec: GroupSpec, text: str) -> GroupElement:
    sc = _Scanner(text)
    g = _element(sc, spec)
    if not sc.eof():
        raise sc.error("trailing input after element")
    groups.validate(spec, g)
    return g


def element_to_text(spec: GroupSpec, g: GroupElement) -> str:
    t = type(spec)
    if g == groups.identity(spec):
        return "e"
    if t is IntegerLattice:
        return str(g[0]) if spec.dim == 1 else "(" + ", ".join(map(str, g)) + ")"
    if t is Cyclic:
        return str(g)
    if t is FreeGroup:
        return magnus.word_to_text(g)
    if t in (Dihedral, BaumslagSolitar):
        return f"({g[0]}, {g[1]})"
    if t is DirectProduct:
        return (f"({element_to_text(spec.left, g[0])} | "
                f"{element_to_text(spec.right, g[1])})")
    if t is Wreath:
        lamps, pos = g
        parts = [f"lamp({element_to_text(spec.base, site)}: "
                 f"{element_to_text(spec.lamp, value)})"
                 for site, value in lamps]
        if pos != groups.identity(spec.base):
            parts.append(f"base({element_to_text(spec.base, pos)})")
        return " ".join(parts)
    if t is FreeSolvable:
        return element_to_text(groups.lattice_tower(spec), g)
    raise GrammarError(f"no textual form for elements of {spec!r}")


# ---------------------------------------------------------------------------
# measures and families


def parse_measure(spec: GroupSpec, text: str) -> FiniteMeasure:
    sc = _Scanner(text)
    sc.expect("measure")
    sc.expect("{")
    pairs: list[tuple[GroupElement, Fraction]] = []
    while not sc.try_lit("}"):
        sc.expect("atom")
        g = parse_element(spec, sc.quoted())
        pairs.append((g, sc.number()))
        if not sc.try_lit(";"):
            sc.expect("}")
            break
    if not sc.eof():
        raise sc.error("trailing input after measure literal")
    return FiniteMeasure.from_pairs(spec, pairs)


def _family_params(sc: _Scanner) -> dict[str, Fraction | str]:
    params: dict[str, Fraction | str] = {}
    if not sc.try_lit("("):
        return params
    if sc.try_lit(")"):
        return params
    while True:
        key = sc.name()
        sc.expect("=")
        if sc.peek().isalpha():
            params[key] = sc.name()
        else:
            params[key] = sc.number()
        if sc.try_lit(")"):
            return params
        sc.expect(",")


def _family_k(params: dict) -> int | None:
    k = params.pop("k", "limit")
    if isinstance(k, str):
        if k not in ("limit", "inf"):
            raise GrammarError(f"bad family index {k!r}")
        return None
    if k != int(k):
        raise GrammarError(f"family index must be an integer, got {k}")
    return int(k)


# family name -> (constructor, whether the family takes the parameter p)
_FAMILIES: dict[str, tuple[Callable[..., FiniteMeasure], bool]] = {
    "dinf": (measures.dinf_family, True),
    "bs11": (measures.bs11_family, True),
    "z_drift": (measures.z_drift_family, False),
    "lamplighter": (lamplighter_family, True),
    "f2product": (f2product_family, True),
}


def family_measure(text: str) -> FiniteMeasure:
    """Resolve a family reference like ``dinf(p=3/4, k=5)`` to a measure."""
    sc = _Scanner(text)
    sc.try_lit("family")
    name = sc.ident()
    params = _family_params(sc)
    if not sc.eof():
        raise sc.error("trailing input after family reference")
    if name not in _FAMILIES:
        raise GrammarError(f"unknown family {name!r}")
    make, takes_p = _FAMILIES[name]
    args: list[Fraction] = []
    if takes_p:
        p = params.pop("p", Fraction(3, 4))
        if isinstance(p, str):
            raise GrammarError(f"parameter p must be a number, got {p!r}")
        args.append(p)
    k = _family_k(params)
    if params:
        raise GrammarError(f"unknown parameters {sorted(params)} "
                           f"for family {name!r}")
    return make(*args, k)


def parse_measure_or_family(spec_text: str | None, text: str) -> FiniteMeasure:
    """Accept either a measure literal (needs a group) or a family reference."""
    stripped = text.strip()
    if not stripped.startswith("measure"):
        return family_measure(stripped)
    if spec_text is None:
        raise GrammarError("a measure literal needs a group spec")
    return parse_measure(parse_group(spec_text), stripped)
