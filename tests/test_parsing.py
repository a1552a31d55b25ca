"""Text grammars: group specs, elements, measure literals, family references."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from walklab import groups, magnus, measures, parsing
from walklab.groups import (
    BS11,
    DINF,
    Cyclic,
    DirectProduct,
    FreeGroup,
    FreeSolvable,
    IntegerLattice,
    Wreath,
)
from walklab.parsing import (
    GrammarError,
    element_to_text,
    family_measure,
    parse_element,
    parse_group,
    parse_measure,
    parse_measure_or_family,
    parse_word,
    spec_to_text,
)

F = Fraction

SPEC_TEXTS = [
    "Z",
    "Z^3",
    "C5",
    "F2",
    "Dinf",
    "BS(1,-1)",
    "S(3,2)",
    "wreath(C2, Dinf)",
    "tower(Z^2; Z^2; Z^2)",
    "product(F2, wreath(C2, Dinf))",
]


# ---------------------------------------------------------------------------
# group specs


@pytest.mark.parametrize("text", SPEC_TEXTS)
def test_spec_round_trip(text):
    spec = parse_group(text)
    assert parse_group(spec_to_text(spec)) == spec


def test_spec_examples():
    assert parse_group("Z^3") == IntegerLattice(3)
    assert parse_group("C5") == Cyclic(5)
    assert parse_group("Dinf") == DINF
    assert parse_group("BS(1,-1)") == BS11
    assert parse_group("S(3,2)") == FreeSolvable(3, 2)
    assert parse_group("wreath(C2, Dinf)") == Wreath(Cyclic(2), DINF)
    assert parse_group(" product( F2 , Dinf ) ") == DirectProduct(FreeGroup(2),
                                                                 DINF)


def test_tower_lists_outermost_lamp_first():
    spec = parse_group("tower(C2; C3; Z)")
    assert spec == Wreath(Cyclic(2), Wreath(Cyclic(3), IntegerLattice(1)))
    assert parse_group("tower(Z^2; Z^2; Z^2)") == groups.wreath_tower(
        [IntegerLattice(2), IntegerLattice(2)], IntegerLattice(2))


@pytest.mark.parametrize("text", [
    "Q5", "Z^", "BS(1,2)", "BS(2,-1)", "Z junk", "tower(Z)",
    "wreath(C2)", "product(Z)",
])
def test_bad_spec_texts(text):
    with pytest.raises(GrammarError):
        parse_group(text)


def test_nested_wreath_and_product_specs_are_bounded():
    lamp = "wreath(C2, "
    spec = parse_group(lamp * 50 + "Dinf" + ")" * 50)
    assert groups.tower_height(spec) == 51
    deepest = lamp * groups.MAX_NESTING + "Dinf" + ")" * groups.MAX_NESTING
    assert groups.tower_height(parse_group(deepest)) == groups.MAX_NESTING + 1
    for head in (lamp, "product(Z, "):
        with pytest.raises(GrammarError, match="nesting deeper than 100"):
            parse_group(head * 3000 + "Z" + ")" * 3000)
    # siblings each 60 deep: depth is left again at every ')'
    sixty = lamp * 60 + "Z" + ")" * 60
    assert parse_group(f"product({sixty}, {sixty})") == DirectProduct(
        parse_group(sixty), parse_group(sixty))


def test_tower_entry_count_is_bounded():
    spec = parse_group("tower(" + "; ".join(["Z"] * groups.MAX_NESTING) + ")")
    assert groups.tower_height(spec) == groups.MAX_NESTING
    sixty = "tower(" + "; ".join(["Z"] * 60) + ")"
    assert parse_group(f"product({sixty}, {sixty})") == DirectProduct(
        parse_group(sixty), parse_group(sixty))
    for entries in (groups.MAX_NESTING + 1, 2000):
        with pytest.raises(GrammarError, match="nesting deeper than 100"):
            parse_group("tower(" + "; ".join(["Z"] * entries) + ")")
    # the i-th entry sits i levels down, so its own nesting adds to i
    deep_base = "wreath(C2, " * 60 + "Z" + ")" * 60
    assert groups.tower_height(parse_group(f"tower({deep_base}; Z)")) == 2
    with pytest.raises(GrammarError, match="nesting deeper than 100"):
        parse_group("tower(" + "Z; " * 60 + deep_base + ")")


def test_free_solvable_derived_length_is_bounded():
    assert parse_group(f"S(2,{groups.MAX_NESTING})") == FreeSolvable(
        2, groups.MAX_NESTING)
    for length in (groups.MAX_NESTING + 1, 3000):
        with pytest.raises(groups.GroupError, match="derived length"):
            parse_group(f"S(2,{length})")


# ---------------------------------------------------------------------------
# elements


def test_lattice_and_cyclic_elements():
    assert parse_element(IntegerLattice(3), "(1, -2, 3)") == (1, -2, 3)
    assert parse_element(IntegerLattice(1), "7") == (7,)
    assert parse_element(IntegerLattice(1), "e") == (0,)
    assert parse_element(Cyclic(5), "8") == 3
    assert element_to_text(IntegerLattice(3), (1, -2, 3)) == "(1, -2, 3)"
    assert element_to_text(IntegerLattice(1), (0,)) == "e"


def test_free_group_words():
    assert parse_element(FreeGroup(2), "x1 X2") == (1, -2)
    assert parse_element(FreeGroup(2), "x1^3 X2") == (1, 1, 1, -2)
    assert parse_element(FreeGroup(2), "[x1, x2]") == (1, 2, -1, -2)
    assert parse_element(FreeGroup(2), "x1 X1") == ()
    assert element_to_text(FreeGroup(2), ()) == "e"


def test_dihedral_letter_words_and_pairs():
    assert parse_element(DINF, "a b") == (-1, 0)
    assert parse_element(DINF, "b a") == (1, 0)
    assert parse_element(DINF, "a^3") == (0, 1)
    assert parse_element(DINF, "b^-2") == (0, 0)
    assert parse_element(DINF, "(2, 1)") == (2, 1)
    assert parse_element(DINF, "e") == (0, 0)
    assert element_to_text(DINF, (-1, 0)) == "(-1, 0)"


def test_bs_letter_words_and_pairs():
    assert parse_element(BS11, "a b^2") == (1, 2)
    assert parse_element(BS11, "b a") == (-1, 1)
    assert parse_element(BS11, "b a b^-1") == (-1, 0)
    assert parse_element(BS11, "(2, -1)") == (2, -1)


def test_wreath_factor_products():
    lamplighter = Wreath(Cyclic(2), IntegerLattice(1))
    g = parse_element(lamplighter, "lamp(0: 1) lamp(2: 1) base(-1)")
    assert g == ((((0,), 1), ((2,), 1)), (-1,))
    # factors compose by the group law: a base move shifts later lamps
    h = parse_element(lamplighter, "base(1) lamp(0: 1)")
    assert h == ((((1,), 1),), (1,))
    # identity-valued lamps vanish
    assert parse_element(lamplighter, "lamp(3: 0)") == ((), (0,))


def test_wreath_over_dihedral_round_trip():
    spec = Wreath(Cyclic(2), DINF)
    g = parse_element(spec, "lamp((2, 0): 1) base(a)")
    assert g == ((((2, 0), 1),), (0, 1))
    assert parse_element(spec, element_to_text(spec, g)) == g


def test_free_solvable_elements():
    s22 = FreeSolvable(2, 2)
    word = parsing.parse_word("x1 [x1, x2]", 2)
    assert parse_element(s22, "x1 [x1, x2]") == magnus.magnus_embed(word, 2, 2)
    assert parse_element(s22, "e") == groups.identity(s22)
    # level 1 is the abelianization; vectors are accepted there
    s21 = FreeSolvable(2, 1)
    assert parse_element(s21, "(2, -1)") == (2, -1)
    assert parse_element(s21, "x1 x1 X2") == (2, -1)


def test_product_elements():
    spec = DirectProduct(FreeGroup(2), Wreath(Cyclic(2), DINF))
    g = parse_element(spec, "(x1 X2 | lamp((0, 0): 1))")
    assert g == ((1, -2), ((((0, 0), 1),), (0, 0)))
    assert parse_element(spec, element_to_text(spec, g)) == g


def _round_trip_specs():
    return [
        IntegerLattice(1),
        IntegerLattice(3),
        Cyclic(5),
        FreeGroup(2),
        DINF,
        BS11,
        Wreath(Cyclic(2), IntegerLattice(1)),
        Wreath(Cyclic(2), DINF),
        groups.wreath_tower([IntegerLattice(2)], IntegerLattice(2)),
        DirectProduct(FreeGroup(2), DINF),
    ]


@pytest.mark.parametrize("spec", _round_trip_specs(),
                         ids=[spec_to_text(s) for s in _round_trip_specs()])
def test_random_element_round_trip(spec):
    rng = random.Random(23)
    for _ in range(50):
        g = groups.random_element(spec, rng)
        text = element_to_text(spec, g)
        assert parse_element(spec, text) == g


def test_free_solvable_round_trip_one_way():
    # Solvable elements parse from words; they render in lamp/base form.
    rng = random.Random(5)
    for _ in range(20):
        w = magnus.random_reduced_word(2, rng.randint(1, 6), rng)
        g = magnus.magnus_embed(w, 2, 2)
        text = element_to_text(FreeSolvable(2, 2), g)
        assert ("lamp(" in text) or text == "e"


# texts that are no word of rank 2: index out of range, X with a power,
# unbalanced brackets, a stray comma, a one-part commutator, a foreign letter
BAD_FREE_WORDS = ["x3", "x0", "X1^-1", "x1]", "x1,", "[x1]", "[x1, x2",
                  "[x1, x2, x1]", "y1", "x1^2^3"]


@pytest.mark.parametrize("spec,text", [
    (Cyclic(5), "x1"),
    (FreeGroup(2), "x3"),
    (FreeGroup(2), "[x1, x2"),
    (DINF, "(1, 2)"),
    (DINF, "c"),
    (IntegerLattice(2), "(1, 2, 3)"),
    (Wreath(Cyclic(2), IntegerLattice(1)), "lamp(0 1)"),
    (IntegerLattice(1), "4 trailing"),
    *[(spec, text) for spec in (FreeGroup(2), FreeSolvable(2, 2))
      for text in BAD_FREE_WORDS + ["", "  "]
      if spec == FreeSolvable(2, 2) or text not in ("x3", "[x1, x2")],
    *[(spec, text) for spec in (DINF, BS11)
      for text in ["", "  ", "a]", "a,", "[a]", "[a, b", "x1", "a^\u00b2"]],
])
def test_bad_element_texts(spec, text):
    with pytest.raises(GrammarError):
        parse_element(spec, text)


# ---------------------------------------------------------------------------
# one word grammar, against an independent fold of the word's structure
#
# A word is a list of factors: ("letter", (text, element, takes_power),
# power), ("comm", u, v, power) or ("noop", "*" | "e"); power is None or an
# integer.


def _free_letters(rank, image):
    return [(f"{c}{i}", image(s * i), c == "x")
            for i in range(1, rank + 1) for c, s in (("x", 1), ("X", -1))]


WORD_SPECS = {
    "F2": (FreeGroup(2), _free_letters(2, lambda letter: (letter,))),
    "F3": (FreeGroup(3), _free_letters(3, lambda letter: (letter,))),
    "S(2,2)": (FreeSolvable(2, 2), _free_letters(
        2, lambda letter: magnus.magnus_embed((letter,), 2, 2))),
    "Dinf": (DINF, [("a", groups.DINF_A, True), ("b", groups.DINF_B, True)]),
    "BS(1,-1)": (BS11, [("a", groups.BS_A, True), ("b", groups.BS_B, True)]),
}


def _random_word(rnd, letters, depth=2, head=True):
    """A random word; with ``head`` it is nonempty."""
    word = []
    for _ in range(rnd.randint(1 if head else 0, 4)):
        kind = rnd.random()
        if kind < 0.2:
            word.append(("noop", rnd.choice("*e")))
            continue
        power = rnd.choice([None, None, -3, -2, -1, 0, 1, 2, 3])
        if depth and kind < 0.45:
            u = _random_word(rnd, letters, depth - 1, head=False)
            v = _random_word(rnd, letters, depth - 1, head=False)
            word.append(("comm", u, v, power))
        else:
            letter = rnd.choice(letters)
            word.append(("letter", letter, power if letter[2] else None))
    return word


def _render(word, rnd):
    def gap():
        return rnd.choice(["", " ", "  ", "\t"])

    out = []
    for f in word:
        if f[0] == "noop":
            out.append(gap() + f[1])
            continue
        if f[0] == "letter":
            text = f[1][0]
        else:
            text = (f"[{gap()}{_render(f[1], rnd)}{gap()},{gap()}"
                    f"{_render(f[2], rnd)}{gap()}]")
        if f[-1] is not None:
            sign = "+" if f[-1] >= 0 and rnd.random() < 0.3 else ""
            text += f"{gap()}^{gap()}{sign}{f[-1]}"
        out.append(gap() + text)
    return "".join(out) + gap()


def _fold(spec, word):
    out = groups.identity(spec)
    for f in word:
        if f[0] == "noop":
            continue
        if f[0] == "letter":
            g = f[1][1]
        else:
            u, v = _fold(spec, f[1]), _fold(spec, f[2])
            g = groups.identity(spec)
            for h in (u, v, groups.inverse(spec, u), groups.inverse(spec, v)):
                g = groups.multiply(spec, g, h)
        power = 1 if f[-1] is None else f[-1]
        step = g if power >= 0 else groups.inverse(spec, g)
        for _ in range(abs(power)):
            out = groups.multiply(spec, out, step)
    return out


@pytest.mark.parametrize("name", list(WORD_SPECS))
def test_words_parse_to_the_folded_structure(name):
    spec, letters = WORD_SPECS[name]
    rnd = random.Random(name)
    for _ in range(300):
        word = _random_word(rnd, letters)
        text = _render(word, rnd)
        expected = _fold(spec, word)
        assert parse_element(spec, text) == expected, text
        if type(spec) is FreeGroup:
            assert parse_word(text, spec.rank) == expected, text
            assert parse_word("e * " + text, spec.rank) == expected, text


def test_nested_commutators_are_bounded():
    # [a, [a, ... [a, b] ...]] in Dinf stays short, unlike free words,
    # whose length doubles with each level
    expected = groups.DINF_B
    for _ in range(50):
        a = groups.DINF_A
        expected = groups.multiply(DINF, groups.multiply(DINF, a, expected),
                                   groups.inverse(DINF, groups.multiply(
                                       DINF, expected, a)))
    assert parse_element(DINF, "[a, " * 50 + "b" + "]" * 50) == expected
    # depth is left again at every ']', so a long run of commutators is fine
    ab = parse_element(DINF, "[a, b]")
    assert parse_element(DINF, "[a, b] " * 150) == parse_element(
        DINF, f"({ab[0] * 150}, 0)")
    for depth in (groups.MAX_NESTING + 1, 3000):
        with pytest.raises(GrammarError, match="nesting deeper than 100"):
            parse_word("[" * depth, 2)
        with pytest.raises(GrammarError, match="nesting deeper than 100"):
            parse_element(DINF, "[a, " * depth + "b" + "]" * depth)


def test_word_grammar_examples():
    assert parse_word("", 2) == parse_word(" e * ", 2) == ()
    assert parse_word("x1 ^ -1", 2) == parse_word("x1^+1 X1 X1", 2) == (-1,)
    assert parse_word("[x1, x2]^2", 2) == (1, 2, -1, -2) * 2
    assert parse_word("[[x1, x2], x1]", 2) == magnus.commutator(
        magnus.commutator((1,), (2,)), (1,))
    assert parse_word("x1^1000", 1) == (1,) * 1000
    # Dinf and BS(1,-1) read the same grammar over a and b
    assert parse_element(DINF, "[a, b]") == parse_element(DINF, "a b a^-1 b^-1")
    assert parse_element(BS11, "a * b^2 e") == (1, 2)
    # e is a no-op factor wherever it stands
    assert parse_element(FreeGroup(2), "e x1") == (1,)
    assert parse_element(FreeGroup(2), "x1 e") == (1,)
    s22 = FreeSolvable(2, 2)
    assert parse_element(s22, "e x1") == parse_element(s22, "x1")


@pytest.mark.parametrize("text", SPEC_TEXTS)
def test_lone_e_is_the_identity(text):
    spec = parse_group(text)
    assert parse_element(spec, "e") == parse_element(spec, " e ") \
        == groups.identity(spec)


# ---------------------------------------------------------------------------
# measure literals


def test_measure_literal_reads_weights_exactly():
    mu = parse_measure(DINF, 'measure { atom "ab" 1/2; atom "ba" 0.5 }')
    assert mu.exact
    assert mu.weight_of((-1, 0)) == F(1, 2)
    assert mu.weight_of((1, 0)) == F(1, 2)


def test_measure_literal_float_mode():
    mu = parse_measure(DINF, 'measure { atom "ab" 1/2; atom "ba" 1/2 }',
                       exact=False)
    assert not mu.exact
    assert mu.weight_of((-1, 0)) == 0.5


def test_measure_literal_errors():
    with pytest.raises(GrammarError):
        parse_measure(DINF, 'measure { atom "ab" }')
    with pytest.raises(GrammarError):
        parse_measure(DINF, 'atom "ab" 1')
    with pytest.raises(GrammarError):
        parse_measure(DINF, 'measure { atom "ab" 1; } extra')


# ---------------------------------------------------------------------------
# family references


def _same_atoms(a, b):
    return list(a.atoms()) == list(b.atoms()) and a.spec == b.spec


def test_family_references_match_constructors():
    assert _same_atoms(family_measure("dinf(p=3/4, k=5)"),
                       measures.dinf_family(F(3, 4), 5))
    assert _same_atoms(family_measure("dinf(k=5)"),
                       measures.dinf_family(F(3, 4), 5))
    assert _same_atoms(family_measure("dinf(p=1/2)"),
                       measures.dinf_family(F(1, 2)))
    assert _same_atoms(family_measure("dinf(k=limit)"),
                       measures.dinf_family(F(3, 4)))
    assert _same_atoms(family_measure("family bs11(p=1/2, k=2)"),
                       measures.bs11_family(F(1, 2), 2))
    assert _same_atoms(family_measure("z_drift(k=3)"),
                       measures.z_drift_family(3))
    assert _same_atoms(family_measure("z_drift()"),
                       measures.z_drift_family())
    assert _same_atoms(family_measure("lamplighter(k=4)"),
                       measures.lamplighter_mix(measures.uniform_flip(),
                                                measures.dinf_family(F(3, 4), 4)))
    assert _same_atoms(family_measure("f2product(k=2)"),
                       measures.product_measure(
                           measures.f2_uniform(),
                           measures.lamplighter_family(F(3, 4), 2)))


def test_family_reference_errors():
    for text in ["gauss(k=2)", "dinf(q=1)", "dinf(k=x)", "dinf(p=abc)",
                 "dinf(k=2) extra", "dinf(k=1/2)",
                 "z_drift(p=1/2, k=3)", "z_drift(p=7)"]:
        with pytest.raises(GrammarError):
            family_measure(text)


def test_parse_measure_or_family_dispatch():
    lit = parse_measure_or_family("Dinf", 'measure { atom "a" 1 }')
    assert lit.weight_of((0, 1)) == 1
    fam = parse_measure_or_family(None, "dinf(k=2)")
    assert _same_atoms(fam, measures.dinf_family(F(3, 4), 2))
    as_float = parse_measure_or_family(None, "dinf(k=2)", exact=False)
    assert not as_float.exact
    with pytest.raises(GrammarError):
        parse_measure_or_family(None, 'measure { atom "a" 1 }')
