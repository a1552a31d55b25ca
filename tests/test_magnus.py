"""Wreath embedding of free solvable groups: words, images, oracles."""

from __future__ import annotations

import time
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import groups, magnus
from walklab.magnus import (
    WordError,
    abelianize_word,
    capped_embed,
    commutator,
    concat_words,
    invert_word,
    is_identity,
    magnus_embed,
    matrix_embed,
    random_derived_series_word,
    random_reduced_word,
    sdm_spec,
    word_to_text,
)
from walklab.parsing import GrammarError, parse_element, parse_word

COMM = (1, 2, -1, -2)  # the commutator of the first two generators


# ---------------------------------------------------------------------------
# free words


def test_reduce_word_cancels_adjacent_inverses():
    assert groups.reduce_letters([1, 2, -2, -1]) == ()
    assert groups.reduce_letters([1, 2, -2, 3]) == (1, 3)
    assert groups.reduce_letters([]) == ()


def test_invert_and_concat():
    w = (1, 2, -1)
    assert invert_word(w) == (1, -2, -1)
    assert concat_words(w, invert_word(w)) == ()
    assert concat_words((1, -2), (2, 1)) == (1, 1)


def test_commutator_word():
    assert commutator((1,), (2,)) == COMM
    assert commutator((1,), (1,)) == ()


def test_parse_word_examples():
    assert parse_word("x1 x2 X1", 2) == (1, 2, -1)
    assert parse_word("x1^-1", 2) == (-1,)
    assert parse_word("x2^3", 2) == (2, 2, 2)
    assert parse_word("[x1,x2]", 2) == COMM
    assert parse_word("", 2) == ()
    assert parse_word("x1 x2 x2^-1", 2) == (1,)
    assert parse_word("[x1, x2] [x1, x2]^-1", 2) == ()


def test_parse_word_rejects_bad_input():
    with pytest.raises(GrammarError):
        parse_word("x3", 2)
    with pytest.raises(GrammarError):
        parse_word("y1", 2)
    with pytest.raises(GrammarError):
        parse_word("[x1 x2", 2)
    for text in ("x0", "X1^-1", "x1]", "x1,", "[x1]", "[x1, x2"):
        with pytest.raises(GrammarError):
            parse_word(text, 2)


def test_word_text_round_trip():
    rng = Random(3)
    for _ in range(100):
        w = random_reduced_word(3, rng.randint(1, 10), rng)
        assert parse_word(word_to_text(w), 3) == w
    assert word_to_text(()) == "e"


# ---------------------------------------------------------------------------
# abelianization


def test_abelianize_word():
    assert abelianize_word((), 2) == (0, 0)
    assert abelianize_word(COMM, 2) == (0, 0)
    assert abelianize_word((1, 1, -2), 2) == (2, -1)


def test_level_one_embedding_is_abelianization():
    rng = Random(5)
    for _ in range(50):
        w = random_reduced_word(2, rng.randint(1, 10), rng)
        assert magnus_embed(w, 2, 1) == abelianize_word(w, 2)


# ---------------------------------------------------------------------------
# the embedding at level two


def test_embed_single_generator():
    image = magnus_embed((1,), 2, 2)
    assert image == ((((0, 0), (1, 0)),), (1, 0))


def test_embed_commutator_frozen_lamp_map():
    image = magnus_embed(COMM, 2, 2)
    lamps, pos = image
    assert pos == (0, 0)
    assert dict(lamps) == {(0, 0): (1, -1), (1, 0): (0, 1), (0, 1): (-1, 0)}


def test_embed_double_commutator_is_trivial():
    w = commutator(COMM, commutator((1, 1), (2,)))
    assert w != ()
    assert is_identity(w, 2, 2)


def test_is_identity_examples():
    assert is_identity((), 2, 2)
    assert not is_identity(COMM, 2, 2)
    assert is_identity(COMM, 2, 1)


def test_identity_requires_valid_level():
    for length in (0, groups.MAX_NESTING + 1, 3000):
        with pytest.raises(groups.GroupError):
            magnus_embed((1,), 2, length)


# ---------------------------------------------------------------------------
# group structure of images


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_embedding_is_a_homomorphism(d, m):
    rng = Random(100 * d + m)
    for _ in range(1000):
        u = random_reduced_word(d, rng.randint(1, 12), rng)
        v = random_reduced_word(d, rng.randint(1, 12), rng)
        product = groups.multiply(sdm_spec(d, m), magnus_embed(u, d, m),
                                  magnus_embed(v, d, m))
        assert product == magnus_embed(concat_words(u, v), d, m)


@pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (3, 2)])
def test_image_inverses(d, m):
    rng = Random(10 * d + m)
    spec = sdm_spec(d, m)
    e = magnus_embed((), d, m)
    for _ in range(100):
        w = random_reduced_word(d, rng.randint(1, 10), rng)
        g = magnus_embed(w, d, m)
        assert groups.multiply(spec, g, groups.inverse(spec, g)) == e
        assert groups.inverse(spec, g) == magnus_embed(invert_word(w), d, m)


def test_lamp_support_bounded_by_word_length():
    rng = Random(7)
    for _ in range(200):
        length = rng.randint(1, 12)
        w = random_reduced_word(2, length, rng)
        lamps, _ = magnus_embed(w, 2, 2)
        assert len(lamps) <= length


def test_tower_projection_consistency():
    rng = Random(9)
    for d in (2, 3):
        for m in (2, 3):
            for _ in range(100):
                w = random_reduced_word(d, rng.randint(1, 10), rng)
                # a level-m image is (lamps, level-(m-1) position)
                assert magnus_embed(w, d, m)[1] == magnus_embed(w, d, m - 1)


def test_position_component_is_abelianization():
    rng = Random(11)
    for _ in range(200):
        w = random_reduced_word(2, rng.randint(1, 12), rng)
        _, pos = magnus_embed(w, 2, 2)
        assert pos == abelianize_word(w, 2)


# ---------------------------------------------------------------------------
# derived-series words


def test_derived_words_lie_in_the_kernel():
    rng = Random(13)
    for m in (1, 2, 3):
        for _ in range(50):
            w = random_derived_series_word(2, m, 2, rng)
            assert is_identity(w, 2, m)
            assert abelianize_word(w, 2) == (0, 0)


def test_derived_words_witness_strictness():
    rng = Random(15)
    for m in (2, 3):
        witnesses = 0
        for _ in range(20):
            w = random_derived_series_word(2, m - 1, 2, rng)
            if not is_identity(w, 2, m):
                witnesses += 1
        assert witnesses >= 1


def _scan_reference(w, rank, length):
    """The level-``length`` image by a reference scan: level-1 letter
    counts, then one lamp scan per level keyed by the nested images of the
    level below, its lamps kept in a dict and sorted for every image."""
    vec = [0] * rank
    images = [tuple(vec)]
    for letter in w:
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
        images.append(tuple(vec))
    for level in range(2, length + 1):
        lamps = {}
        out = [((), images[0])]
        for j, letter in enumerate(w):
            i = abs(letter) - 1
            site, step = (images[j], 1) if letter > 0 else (images[j + 1], -1)
            vec = lamps.pop(site, (0,) * rank)
            vec = vec[:i] + (vec[i] + step,) + vec[i + 1:]
            if any(vec):
                lamps[site] = vec
            if level < length:
                out.append((tuple(sorted(lamps.items())), images[j + 1]))
        images = out if level < length else [(tuple(sorted(lamps.items())),
                                              images[-1])]
    return images[-1]


def test_identity_on_prefix_classes_matches_whole_images():
    rng = Random(23)
    verdicts = Counter()
    for _ in range(3000):
        d, m = rng.choice((2, 3)), rng.randint(1, 4)
        w = (random_derived_series_word(d, rng.randint(1, 3), 2, rng)
             if rng.random() < 0.5 else _random_letters(d, rng.randint(0, 16), rng))
        verdict = is_identity(w, d, m)
        assert verdict == (_scan_reference(w, d, m)
                           == groups.identity(sdm_spec(d, m))), (w, d, m)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 500, verdicts


def _lamps(image, length):
    """Lamps of a level-``length`` image at every depth, counted on the
    nested image itself."""
    if length == 1:
        return 0
    lamps, position = image
    return (sum(1 + _lamps(site, length - 1) for site, _ in lamps)
            + _lamps(position, length - 1))


def image_size(w, rank, length):
    """Lamps of the image as ``capped_embed`` counts them on prefix classes."""
    return magnus._class_scan(w, rank, length)[1][-1]


def test_image_size_counts_the_lamps_of_the_image():
    rng = Random(29)
    for _ in range(300):
        d, m = rng.choice((2, 3)), rng.randint(1, 4)
        w = (random_derived_series_word(d, rng.randint(1, 2), 2, rng)
             if rng.random() < 0.5 else _random_letters(d, rng.randint(0, 16), rng))
        assert image_size(w, d, m) == _lamps(magnus_embed(w, d, m), m), (w, d, m)
    w = random_derived_series_word(2, 3, 2, Random(1))
    assert [image_size(w, 2, m) for m in (3, 4, 5, 6)] == [
        0, 8_885, 361_132, 8_862_286]


def test_capped_embed_refuses_an_image_past_the_cap():
    """The 92-letter level-3 word: its m = 4 image is built as by
    ``magnus_embed``; at m = 5 (361,132 lamps) and m = 8 (2.5e9) the
    image, and an S(2, 8) element read from the word, are refused at once."""
    w = random_derived_series_word(2, 3, 2, Random(1))
    assert capped_embed(w, 2, 4) == magnus_embed(w, 2, 4)
    start = time.perf_counter()
    for m in (5, 8):
        with pytest.raises(WordError, match="lamps"):
            capped_embed(w, 2, m)
    with pytest.raises(WordError, match="lamps"):
        parse_element(groups.FreeSolvable(2, 8), word_to_text(w))
    assert time.perf_counter() - start < 1


def test_derived_word_level_zero_is_plain():
    rng = Random(17)
    w = random_derived_series_word(2, 0, 4, rng)
    assert len(w) == 4


def test_derived_word_argument_validation():
    rng = Random(19)
    with pytest.raises(WordError):
        random_derived_series_word(2, -1, 2, rng)
    with pytest.raises(WordError):
        random_derived_series_word(2, 1, 1, rng)
    with pytest.raises(WordError):
        random_reduced_word(2, 0, rng)
    with pytest.raises(WordError):
        random_reduced_word(0, 3, rng)


def _choice_reduced_word(rank, length, rng):
    """``random_reduced_word`` as it was written with ``Random.choice``."""
    letters = []
    alphabet = [i for i in range(-rank, rank + 1) if i]
    while len(letters) < length:
        letter = rng.choice(alphabet)
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return tuple(letters)


@pytest.mark.parametrize("seed", [0, 7, 19, 2026, 65537])
def test_reduced_words_draw_what_random_choice_draws(seed):
    """The same words, and the generator left in the same state."""
    ours, ref = Random(seed), Random(seed)
    for rank in range(1, 5):
        for length in range(1, 31):
            assert (random_reduced_word(rank, length, ours)
                    == _choice_reduced_word(rank, length, ref))
    assert ours.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# the matrix-shaped oracle


def _random_letters(rank, length, rng):
    """A word of ``length`` letters drawn independently: often unreduced."""
    return tuple(rng.choice([i for i in range(-rank, rank + 1) if i])
                 for _ in range(length))


def test_matrix_oracle_agrees_on_random_words():
    rng = Random(21)
    for d, m in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        for _ in range(100):
            w = random_reduced_word(d, rng.randint(1, 24), rng)
            assert matrix_embed(w, d, m).as_wreath() == magnus_embed(w, d, m)
            w = _random_letters(d, rng.randint(0, 24), rng)
            assert matrix_embed(w, d, m).as_wreath() == magnus_embed(w, d, m)


def _folded_embed(w, rank, length):
    """Reference embedding: the product, in the lattice tower, of one
    generator image per letter (``x_i`` is the lamp ``e_i`` at the identity
    site over the image of ``x_i`` one level down)."""
    spec = sdm_spec(rank, length)
    acc = groups.identity(spec)
    for letter in w:
        e_i = tuple(int(j == abs(letter) - 1) for j in range(rank))
        image = e_i
        for level in range(1, length):
            image = (((groups.identity(sdm_spec(rank, level)), e_i),), image)
        if letter < 0:
            image = groups.inverse(spec, image)
        acc = groups.multiply(spec, acc, image)
    return acc


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_prefix_scan_matches_the_generator_fold(rank):
    rng = Random(40 + rank)
    for m in (1, 2, 3, 4):
        for _ in range(40):
            length = rng.randint(0, 30)
            for w in (random_reduced_word(rank, length, rng) if length else (),
                      _random_letters(rank, length, rng)):
                assert magnus_embed(w, rank, m) == _folded_embed(w, rank, m), w


def test_embedding_validates_letters_and_reaches_the_deepest_level():
    for w in ((0,), (3,), (1, -3)):
        with pytest.raises(WordError):
            magnus_embed(w, 2, 2)
    deepest = magnus_embed((2,), 2, groups.MAX_NESTING)
    for _ in range(groups.MAX_NESTING - 1):
        deepest = deepest[1]
    assert deepest == (0, 1)
    assert is_identity((2, -2), 2, groups.MAX_NESTING)


def test_prefix_counts_refuse_letter_zero_and_out_of_range_letters():
    for level in (1, 2, 3):
        for w in ((0,), (1, 0), (4,), (-4,), (2, -4, 1)):
            for scan in (magnus_embed, is_identity, capped_embed):
                with pytest.raises(WordError, match="out of range"):
                    scan(w, 3, level)


def test_sdm_spec_is_built_once_per_rank_and_length():
    assert sdm_spec(3, 2) is sdm_spec(3, 2)
    assert sdm_spec(3, 2) == groups.FreeSolvable(3, 2)
    assert sdm_spec(3, 3) != sdm_spec(3, 2)
    with pytest.raises(groups.GroupError):
        sdm_spec(0, 2)


def test_matrix_oracle_on_the_commutator():
    assert matrix_embed(COMM, 2, 2).as_wreath() == magnus_embed(COMM, 2, 2)


def test_matrix_oracle_requires_level_two():
    with pytest.raises(WordError):
        matrix_embed((1,), 2, 1)


# ---------------------------------------------------------------------------
# property-based checks


letters = st.integers(-3, 3).filter(bool)


@given(st.lists(letters, max_size=10), st.lists(letters, max_size=10))
@settings(max_examples=100, deadline=None)
def test_concat_matches_reduction(u_raw, v_raw):
    u = groups.reduce_letters(u_raw)
    v = groups.reduce_letters(v_raw)
    assert concat_words(u, v) == groups.reduce_letters(list(u) + list(v))


@given(st.lists(letters, max_size=8))
@settings(max_examples=100, deadline=None)
def test_word_inverse_involution(raw):
    w = groups.reduce_letters(raw)
    assert invert_word(invert_word(w)) == w
    assert concat_words(w, invert_word(w)) == ()


@st.composite
def revisiting_words(draw):
    """A rank and a word, reduced or not, that often revisits a prefix
    image: ``u v``, the conjugate ``u v u^-1`` or the commutator
    ``u v u^-1 v^-1``."""
    rank = draw(st.sampled_from((2, 3)))
    letter = st.integers(-rank, rank).filter(bool)
    u = tuple(draw(st.lists(letter, max_size=8)))
    v = tuple(draw(st.lists(letter, max_size=8)))
    shape = draw(st.sampled_from(("plain", "conjugate", "commutator")))
    if shape == "conjugate":
        return rank, u + v + invert_word(u)
    if shape == "commutator":
        return rank, u + v + invert_word(u) + invert_word(v)
    return rank, u + v


@given(revisiting_words())
@settings(max_examples=150, deadline=None)
def test_lamp_scan_matches_the_dict_and_sort_reference(case):
    rank, w = case
    for m in (2, 3, 4):
        expected = _scan_reference(w, rank, m)
        assert magnus_embed(w, rank, m) == expected, (w, m)
        assert is_identity(w, rank, m) == (
            expected == groups.identity(sdm_spec(rank, m))), (w, m)
