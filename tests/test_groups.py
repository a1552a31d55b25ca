"""Group arithmetic: laws, normal forms, coordinate maps."""

from __future__ import annotations

import gc
import weakref
from bisect import bisect_left
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import groups, magnus
from walklab.groups import (
    BS11,
    BS_A,
    BS_B,
    DINF,
    DINF_A,
    DINF_B,
    BaumslagSolitar,
    Cyclic,
    Dihedral,
    DirectProduct,
    FreeGroup,
    GroupError,
    IntegerLattice,
    Wreath,
    identity,
    inverse,
    multiply,
    wreath_tower,
)
from walklab.parsing import parse_group

Z = IntegerLattice(1)
Z2 = IntegerLattice(2)
C5 = Cyclic(5)
F2 = FreeGroup(2)
LAMPLIGHTER = Wreath(Cyclic(2), Z)
WREATH_DINF = Wreath(Cyclic(2), DINF)
TOWER = wreath_tower([Z2, Z2], Z2)
PRODUCT = DirectProduct(F2, WREATH_DINF)

ALL_SPECS = [Z, Z2, C5, F2, DINF, BS11, LAMPLIGHTER, WREATH_DINF, TOWER,
             PRODUCT]


def sample(spec, rng, size=4):
    return groups.random_element(spec, rng, size=size)


# ---------------------------------------------------------------------------
# identity / inverse / associativity


@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_identity_laws(spec):
    rng = Random(11)
    e = identity(spec)
    assert multiply(spec, e, e) == e
    for _ in range(100):
        g = sample(spec, rng)
        assert multiply(spec, e, g) == g
        assert multiply(spec, g, e) == g


@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_inverse_laws(spec):
    rng = Random(13)
    e = identity(spec)
    assert inverse(spec, e) == e
    for _ in range(100):
        g = sample(spec, rng)
        assert multiply(spec, g, inverse(spec, g)) == e
        assert multiply(spec, inverse(spec, g), g) == e
        assert inverse(spec, inverse(spec, g)) == g


@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_associativity_bulk(spec):
    rng = Random(17)
    for _ in range(10_000):
        g = sample(spec, rng, size=3)
        h = sample(spec, rng, size=3)
        k = sample(spec, rng, size=3)
        left = multiply(spec, multiply(spec, g, h), k)
        right = multiply(spec, g, multiply(spec, h, k))
        assert left == right


@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_random_elements_are_canonical(spec):
    rng = Random(19)
    for _ in range(200):
        groups.validate(spec, sample(spec, rng))


# ---------------------------------------------------------------------------
# infinite dihedral and Baumslag-Solitar hand checks


def test_dinf_generators_are_involutions():
    e = identity(DINF)
    assert multiply(DINF, DINF_A, DINF_A) == e
    assert multiply(DINF, DINF_B, DINF_B) == e
    assert inverse(DINF, DINF_A) == DINF_A
    assert inverse(DINF, DINF_B) == DINF_B


def test_dinf_products_are_translations():
    assert multiply(DINF, DINF_A, DINF_B) == (-1, 0)
    assert multiply(DINF, DINF_B, DINF_A) == (1, 0)
    ab = multiply(DINF, DINF_A, DINF_B)
    ba = multiply(DINF, DINF_B, DINF_A)
    assert multiply(DINF, ab, ba) == identity(DINF)


def test_bs_defining_relation():
    e = identity(BS11)
    conj = multiply(BS11, multiply(BS11, BS_B, BS_A), inverse(BS11, BS_B))
    assert conj == inverse(BS11, BS_A) == (-1, 0)
    relator = multiply(BS11, conj, BS_A)
    assert relator == e


def _rewrite_c2_star_c2(word: str) -> str:
    """Free-product normal form for the presentation <a, b | a^2, b^2>.

    Generators are involutions, so inverse letters equal the letters and a
    word reduces by repeatedly deleting adjacent equal pairs.
    """
    out: list[str] = []
    for ch in word.lower():
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _rewrite_klein(word: str) -> str:
    """Normal form a^m b^n for the presentation <a, b | b a b^-1 = a^-1>.

    Brute-force rewriting: cancel inverse pairs and push a-type letters left
    past b-type letters (each pass over b inverts a) until a fixed point.
    """
    letters = list(word)
    swaps = {("b", "a"): ("A", "b"), ("b", "A"): ("a", "b"),
             ("B", "a"): ("A", "B"), ("B", "A"): ("a", "B")}
    cancels = {("a", "A"), ("A", "a"), ("b", "B"), ("B", "b")}
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(letters):
            pair = (letters[i], letters[i + 1])
            if pair in cancels:
                del letters[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            elif pair in swaps:
                letters[i], letters[i + 1] = swaps[pair]
                changed = True
                i += 1
            else:
                i += 1
    m = letters.count("a") - letters.count("A")
    n = letters.count("b") - letters.count("B")
    return f"a^{m} b^{n}"


def _letter_elements(spec, a, b):
    return {"a": a, "A": inverse(spec, a), "b": b, "B": inverse(spec, b)}


def _all_words(max_len: int):
    stack = [""]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            stack.extend(w + ch for ch in "aAbB")


@pytest.mark.parametrize(
    "spec,a,b,oracle",
    [(DINF, DINF_A, DINF_B, _rewrite_c2_star_c2),
     (BS11, BS_A, BS_B, _rewrite_klein)],
    ids=["dinf", "bs11"])
def test_normal_form_matches_rewriting_oracle(spec, a, b, oracle):
    # Every product of at most 6 generators: the normal form must collapse
    # two words exactly when the presentation's rewriting system does.
    gens = _letter_elements(spec, a, b)
    nf_by_oracle: dict[str, object] = {}
    oracle_by_nf: dict[object, str] = {}
    count = 0
    for word in _all_words(6):
        g = identity(spec)
        for ch in word:
            g = multiply(spec, g, gens[ch])
        canon = oracle(word)
        if canon in nf_by_oracle:
            assert nf_by_oracle[canon] == g, (word, canon)
        else:
            nf_by_oracle[canon] = g
        if g in oracle_by_nf:
            assert oracle_by_nf[g] == canon, (word, g)
        else:
            oracle_by_nf[g] = canon
        count += 1
    assert count == sum(4 ** i for i in range(7))
    assert len(nf_by_oracle) == len(oracle_by_nf)


# ---------------------------------------------------------------------------
# wreath arithmetic


def test_lamplighter_product_merges_lamps():
    g = ((((0,), 1),), (1,))
    h = ((((0,), 1),), (-1,))
    assert multiply(LAMPLIGHTER, g, h) == ((((0,), 1), ((1,), 1)), (0,))


def test_lamplighter_inverse_translates_lamp():
    g = ((((0,), 1),), (1,))
    assert inverse(LAMPLIGHTER, g) == ((((-1,), 1),), (-1,))
    assert multiply(LAMPLIGHTER, g, inverse(LAMPLIGHTER, g)) == \
        identity(LAMPLIGHTER)


def test_wreath_identity_has_no_lamps():
    assert identity(LAMPLIGHTER) == ((), (0,))
    assert identity(WREATH_DINF) == ((), (0, 0))


# ---------------------------------------------------------------------------
# coordinate maps


def _coordinate_cases():
    """(id, spec, i, target, draw): ``g -> g[i]`` maps spec onto target."""
    rng = Random(41)

    def rand(spec):
        return lambda: sample(spec, rng, size=3)

    def rand_sdm():
        w = magnus.random_reduced_word(2, rng.randint(1, 8), rng)
        return magnus.magnus_embed(w, 2, 2)

    return [
        ("wreath-to-base", WREATH_DINF, 1, DINF, rand(WREATH_DINF)),
        ("tower-to-level", TOWER, 1, TOWER.base, rand(TOWER)),
        ("product-left", PRODUCT, 0, PRODUCT.left, rand(PRODUCT)),
        ("product-right", PRODUCT, 1, PRODUCT.right, rand(PRODUCT)),
        ("free-solvable-to-level", groups.FreeSolvable(2, 2), 1,
         groups.FreeSolvable(2, 1), rand_sdm),
    ]


@pytest.mark.parametrize("case", _coordinate_cases(), ids=lambda c: c[0])
def test_projections_are_homomorphisms(case):
    # the base of a wreath or tower, S(2,2) one level down, product factors
    _, spec, i, target, draw = case
    for _ in range(10_000):
        g, h = draw(), draw()
        assert multiply(spec, g, h)[i] == multiply(target, g[i], h[i])


@pytest.mark.parametrize("case", _coordinate_cases(), ids=lambda c: c[0])
def test_projections_preserve_identity(case):
    _, spec, i, target, _ = case
    assert identity(spec)[i] == identity(target)


def test_tower_projection_composes():
    # two levels down the height-3 tower is its Z^2 base
    rng = Random(37)
    for _ in range(200):
        g, h = sample(TOWER, rng, size=2), sample(TOWER, rng, size=2)
        assert multiply(TOWER, g, h)[1][1] == multiply(Z2, g[1][1], h[1][1])


# ---------------------------------------------------------------------------
# validation errors


def test_validate_rejects_bad_elements():
    with pytest.raises(GroupError):
        groups.validate(Z, (0.5,))
    with pytest.raises(GroupError):
        groups.validate(C5, 7)
    with pytest.raises(GroupError):
        groups.validate(F2, (1, -1))
    with pytest.raises(GroupError):
        groups.validate(F2, (3,))
    with pytest.raises(GroupError):
        groups.validate(DINF, (0, 2))
    with pytest.raises(GroupError):
        groups.validate(LAMPLIGHTER, ((((0,), 0),), (0,)))  # identity lamp
    with pytest.raises(GroupError):
        groups.validate(LAMPLIGHTER,
                        ((((2,), 1), ((0,), 1)), (0,)))  # unsorted sites


def test_spec_constructors_validate():
    with pytest.raises(GroupError):
        IntegerLattice(0)
    with pytest.raises(GroupError):
        Cyclic(1)
    with pytest.raises(GroupError):
        FreeGroup(0)


# ---------------------------------------------------------------------------
# property-based spot checks


dihedral_elements = st.tuples(st.integers(-50, 50), st.integers(0, 1))
bs_elements = st.tuples(st.integers(-50, 50), st.integers(-20, 20))


@given(dihedral_elements, dihedral_elements, dihedral_elements)
def test_dinf_associativity_property(g, h, k):
    assert multiply(DINF, multiply(DINF, g, h), k) == \
        multiply(DINF, g, multiply(DINF, h, k))


@given(bs_elements, bs_elements, bs_elements)
def test_bs_associativity_property(g, h, k):
    assert multiply(BS11, multiply(BS11, g, h), k) == \
        multiply(BS11, g, multiply(BS11, h, k))


# ---------------------------------------------------------------------------
# the wreath product against a dict-and-sort reference


def _dict_sorted_multiply(spec, g, h):
    """Reference product: on a wreath spec, the lamps of ``g`` and the moved
    lamps of ``h`` are merged in a dict and the result sorted by site."""
    if type(spec) is groups.FreeSolvable:
        spec = groups.lattice_tower(spec)
    if type(spec) is not Wreath:
        return multiply(spec, g, h)
    (lamps_g, x), (lamps_h, y) = g, h
    merged = dict(lamps_g)
    for site, val in lamps_h:
        moved = _dict_sorted_multiply(spec.base, x, site)
        cur = merged.get(moved)
        if cur is None:
            merged[moved] = val
        else:
            prod = _dict_sorted_multiply(spec.lamp, cur, val)
            if prod == identity(spec.lamp):
                del merged[moved]
            else:
                merged[moved] = prod
    return (tuple(sorted(merged.items())), _dict_sorted_multiply(spec.base, x, y))


WREATH_SPECS = [WREATH_DINF, Wreath(Z2, Z), Wreath(Cyclic(3), F2)]


@given(st.sampled_from(WREATH_SPECS), st.randoms(use_true_random=False),
       st.integers(1, 40))
def test_wreath_product_matches_the_dict_and_sort_reference(spec, rng, size):
    """``h`` is random (up to ``size // 2`` lamps), a product of several
    random elements (many lamps), or ``g^-1 k`` and ``g^-1``, whose lamps
    cancel lamps of ``g`` to the identity."""
    g = sample(spec, rng, size)
    k = sample(spec, rng, size)
    many = identity(spec)
    for _ in range(6):
        many = multiply(spec, many, sample(spec, rng, size))
    for h in (k, many, multiply(spec, inverse(spec, g), k), inverse(spec, g)):
        prod = multiply(spec, g, h)
        assert prod == _dict_sorted_multiply(spec, g, h)
        groups.validate(spec, prod)
    assert multiply(spec, g, multiply(spec, inverse(spec, g), k)) == k


S33 = groups.FreeSolvable(3, 3)
s33_letters = st.integers(-3, 3).filter(bool)


@given(st.lists(s33_letters, max_size=12), st.lists(s33_letters, max_size=12),
       st.integers(0, 12))
def test_sdm_product_matches_the_dict_and_sort_reference(u, v, cut):
    """Magnus images in S(3, 3); ``h`` also undoes a suffix of ``u``."""
    u, v = tuple(u), tuple(v)
    undo = tuple(-a for a in reversed(u[cut:])) + v
    g = magnus.magnus_embed(u, 3, 3)
    for word in (v, undo):
        h = magnus.magnus_embed(word, 3, 3)
        prod = multiply(S33, g, h)
        assert prod == _dict_sorted_multiply(S33, g, h)
        assert prod == magnus.magnus_embed(u + word, 3, 3)
        groups.validate(S33, prod)


# ---------------------------------------------------------------------------
# each spec's product against a dispatch on the spec's type


def _reference_multiply(spec, g, h):
    """The product by dispatch on the spec's type; every nested product
    dispatches again."""
    t = type(spec)
    if t is IntegerLattice:
        return tuple(a + b for a, b in zip(g, h))
    if t is Cyclic:
        return (g + h) % spec.modulus
    if t is FreeGroup:
        return groups.reduce_letters(g + h)
    if t is Dihedral:
        return (g[0] + (-1) ** g[1] * h[0], g[1] ^ h[1])
    if t is BaumslagSolitar:
        return (g[0] + (-1) ** g[1] * h[0], g[1] + h[1])
    if t is DirectProduct:
        return (_reference_multiply(spec.left, g[0], h[0]),
                _reference_multiply(spec.right, g[1], h[1]))
    if t is groups.FreeSolvable:
        return _reference_multiply(groups.lattice_tower(spec), g, h)
    assert t is Wreath
    (lamps_g, x), (lamps_h, y) = g, h
    lamps = list(lamps_g)
    for site, val in lamps_h:
        moved = _reference_multiply(spec.base, x, site)
        k = bisect_left(lamps, (moved,))
        if k < len(lamps) and lamps[k][0] == moved:
            prod = _reference_multiply(spec.lamp, lamps[k][1], val)
            if prod == identity(spec.lamp):
                del lamps[k]
            else:
                lamps[k] = (moved, prod)
        else:
            lamps.insert(k, (moved, val))
    return (tuple(lamps), _reference_multiply(spec.base, x, y))


REFERENCE_SPECS = [
    *(IntegerLattice(d) for d in (1, 2, 3, 4)), Cyclic(2), C5,
    FreeGroup(1), F2, FreeGroup(3), DINF, BS11, PRODUCT,
    DirectProduct(IntegerLattice(4), Cyclic(3)), WREATH_DINF, TOWER,
    *(groups.FreeSolvable(d, m) for d in (2, 3) for m in (2, 3))]


def _element(spec, rng, size):
    """A random element; in S(d, m), the Magnus image of a random word."""
    if type(spec) is not groups.FreeSolvable:
        return sample(spec, rng, size)
    letters = [rng.choice([a for a in range(-spec.rank, spec.rank + 1) if a])
               for _ in range(rng.randint(0, size))]
    return magnus.magnus_embed(tuple(letters), spec.rank, spec.length)


@given(st.sampled_from(REFERENCE_SPECS), st.randoms(use_true_random=False),
       st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_multiply_matches_the_reference_dispatch(spec, rng, size):
    """``h`` is random, ``g^-1`` or ``g^-1 k``, so lamps also cancel."""
    g, k = _element(spec, rng, size), _element(spec, rng, size)
    for h in (k, inverse(spec, g), multiply(spec, inverse(spec, g), k)):
        assert multiply(spec, g, h) == _reference_multiply(spec, g, h)


def test_a_spec_builds_its_product_once(monkeypatch):
    built = []
    real = groups._wreath_product

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(groups, "_wreath_product", counting)
    spec = Wreath(Cyclic(2), Wreath(Z2, Z))
    rng = Random(5)
    for _ in range(100):
        multiply(spec, sample(spec, rng), sample(spec, rng))
    assert len(built) == 2   # one per wreath level
    assert spec._product is spec._product
    sdm = groups.FreeSolvable(2, 3)
    assert sdm._product is groups.lattice_tower(sdm)._product


def test_parsing_a_group_text_again_leaves_no_growing_table():
    """A thousand parses of one text, each multiplied in: no cache gains an
    entry after the first, and the specs are freed but for the one that
    keys ``identity``'s cache."""
    def parse_and_multiply():
        spec = parse_group("wreath(C2, wreath(Z^2, Dinf))")
        multiply(spec, identity(spec), identity(spec))
        return weakref.ref(spec)

    first = parse_and_multiply()
    sizes = groups.identity.cache_info().currsize
    refs = [parse_and_multiply() for _ in range(1000)]
    gc.collect()
    assert groups.identity.cache_info().currsize == sizes
    assert sum(ref() is not None for ref in [first, *refs]) <= 1


@pytest.mark.parametrize("spec", [
    pytest.param(object(), id="object()"),
    "Z",
    pytest.param(Wreath(object(), Z), id="Wreath(object(), Z)"),
    DirectProduct(Z, None)], ids=repr)
def test_multiply_refuses_an_unknown_spec(spec):
    with pytest.raises(GroupError, match="unknown spec"):
        multiply(spec, (0,), (0,))


# ---------------------------------------------------------------------------
# integer rows


def _row_elements(spec, rng, count):
    """Random elements of an encoded spec: Magnus images for S(d, 2)."""
    if isinstance(spec, groups.FreeSolvable):
        return [magnus.magnus_embed(
                    magnus.random_reduced_word(spec.rank, rng.randint(1, 9), rng),
                    spec.rank, 2)
                for _ in range(count)]
    return [groups.random_element(spec, rng) for _ in range(count)]


ROW_SPECS = [IntegerLattice(1), Z2, IntegerLattice(3), DINF, BS11,
             magnus.sdm_spec(2, 2), magnus.sdm_spec(3, 2)]


@given(st.sampled_from(ROW_SPECS), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_row_products_equal_multiply(spec, rng):
    """Rows decode to their elements, and the product of every row with one
    step row decodes to ``multiply``, lamps cancelled and sorted."""
    code = groups.row_code(spec)
    elems = _row_elements(spec, rng, 20)
    steps = _row_elements(spec, rng, 4) + elems[:2]
    steps.append(groups.inverse(spec, elems[0]))
    rows = code.encode(elems)
    assert code.decode(rows) == elems
    for h in steps:
        step = code.encode([h])[0]
        assert (code.decode(code.product(rows, step))
                == [multiply(spec, g, h) for g in elems])


def test_equal_elements_have_equal_rows():
    spec = magnus.sdm_spec(3, 2)
    code = groups.row_code(spec)
    g = magnus.magnus_embed((1, 2, -1, 3), 3, 2)
    h = magnus.magnus_embed((2, -3), 3, 2)
    gh = multiply(spec, g, h)
    wide = code.encode([gh, magnus.magnus_embed((1, 2, 3, 3, 3), 3, 2)])[0]
    once = code.product(code.encode([g]), code.encode([h])[0])[0]
    pad = len(wide) - len(once)
    assert pad >= 0
    assert list(once) + [groups.SENTINEL] * pad == list(wide)


def test_specs_without_rows():
    assert groups.row_code(Wreath(Cyclic(2), DINF)) is None
    assert groups.row_code(F2) is None
    assert groups.row_code(groups.FreeSolvable(2, 3)) is None
    assert groups.row_code(Wreath(Z2, IntegerLattice(3))) is None
    assert groups.row_code(Wreath(IntegerLattice(16), IntegerLattice(16))) is None
    # S(d, 1) is the lattice
    assert groups.row_code(groups.FreeSolvable(3, 1)).encode([(1, 2, 3)]).shape == (1, 3)
