"""The inverse-CDF draw shared by every sampler, on raw Philox words."""

from __future__ import annotations

import numpy as np
import pytest

from walklab import rng


def reference_draw(cum, u):
    return np.minimum(np.searchsorted(cum, u, "right"), len(cum) - 1)


def uniforms(words):
    """The doubles ``Generator.random`` makes of raw words."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def random_cum(atoms, seed):
    cum = np.cumsum(np.random.default_rng(seed).random(atoms))
    cum /= cum[-1]
    cum[-1] = 1.0
    return cum


def edge_words(table):
    """Words at each threshold and one below it, at both ends of every
    bucket, and 5,000 from a stream."""
    t = table.thresholds
    starts = np.arange(1 << 12, dtype=np.uint64) << np.uint64(52)
    return np.concatenate([
        t, t[t > 0] - np.uint64(1), starts, starts | np.uint64((1 << 52) - 1),
        rng.sample_stream(5, 0).bit_generator.random_raw(5000)])


CUMS = {
    "one-atom": [1.0],
    "two-atoms": [0.75, 1.0],
    "repeated": [0.2, 0.2, 0.5, 0.5, 0.5, 1.0],
    "leading-zero": [0.0, 0.1, 0.1, 0.3, 0.95, 1.0],
    "ones-before-last": [0.3, 1.0, 1.0, 1.0],
    "40-atoms": list(np.arange(1, 41) / 40),
    "5000-atoms": random_cum(5000, 2),
}


@pytest.mark.parametrize("cum", CUMS.values(), ids=CUMS.keys())
def test_draw_matches_binary_search(cum):
    """Each word's atom is the float draw's on the double the generator
    makes of it, at and next to every threshold and bucket edge."""
    cum = np.array(cum)
    table = rng.BucketTable(cum)
    words = edge_words(table)
    got = table.draw(words)
    assert got.dtype == np.intp
    assert np.array_equal(got, reference_draw(cum, uniforms(words)))


def test_a_threshold_splits_at_most_one_bucket():
    """At most atoms - 1 buckets are split; with 5,000 atoms most are.
    Dyadic weights on bucket edges split none.  A cumulative weight of 1
    sets no threshold, and the tally has no entry for it."""
    for cum in CUMS.values():
        table = rng.BucketTable(np.array(cum))
        split = 0 if table.split is None else int(table.split.sum())
        assert split <= len(cum) - 1
        assert table.size == (1 << 12) + len(cum)
    assert rng.BucketTable(np.array(CUMS["5000-atoms"])).split.sum() > 2048
    assert rng.BucketTable(np.array(CUMS["two-atoms"])).split is None
    ones = rng.BucketTable(np.array(CUMS["ones-before-last"]))
    words = edge_words(ones)
    assert ones.thresholds.size == 1
    assert ones.tally(words) == [int((uniforms(words) >= 0.3).sum())]


def test_random_is_the_raw_word_shifted():
    """The draw's exactness rests on numpy making ``Generator.random``'s
    double from the raw word r as (r >> 11) 2^-53; a numpy that changes
    this fails here."""
    gen = rng.sample_stream(3, 0)
    for index in (0, 1, 2 ** 64 - 1):
        gen.random(7)  # an odd count leaves part of a Philox block unread
        doubles = rng.sample_stream(3, index, gen).random(1001)
        words = rng.sample_stream(3, index, gen).bit_generator.random_raw(1001)
        assert np.array_equal(doubles, uniforms(words))


def test_a_rekeyed_stream_equals_a_fresh_one():
    """Re-keying resets the key, the counter and the half-used buffer."""
    gen = rng.sample_stream(3, 0)
    for index in (0, 1, 2 ** 64 - 1, 5):
        gen.random(7)  # an odd count leaves part of a Philox block unread
        assert rng.sample_stream(3, index, gen) is gen
        assert np.array_equal(gen.random(1001),
                              rng.sample_stream(3, index).random(1001))


def test_a_fresh_stream_is_the_philox_stream_of_its_key():
    """A fresh generator, built without drawing entropy for a seed sequence,
    is Philox keyed by (seed, index) with counter 0; its seed sequence
    hands out nothing but that key."""
    for seed, index in ((3, 0), (7, 123_456), (2 ** 64 - 1, 2 ** 64 - 1)):
        key = np.array([seed, index], dtype=np.uint64)
        reference = np.random.Generator(np.random.Philox(key=key))
        fresh = rng.sample_stream(seed, index)
        state, expected = (g.bit_generator.state for g in (fresh, reference))
        for part in ("counter", "key"):
            assert np.array_equal(state["state"][part], expected["state"][part])
        assert np.array_equal(fresh.bit_generator.random_raw(1001),
                              reference.bit_generator.random_raw(1001))
    with pytest.raises(ValueError, match="Philox key"):
        rng._philox_key()(key).generate_state(4)


@pytest.mark.parametrize("atoms", [6, 40], ids=["6-atoms", "40-atoms"])
def test_draw_into_shared_buffers_matches_a_fresh_draw(atoms):
    """Blocks of one stream's words keyed into one buffer give the atoms of
    one draw of all the words, written in place."""
    cum = random_cum(atoms, atoms)
    table = rng.BucketTable(cum)
    gen = rng.sample_stream(9, 0)
    buf = np.empty(512, dtype=np.int64)
    got = []
    for n in (512, 7, 481):
        key = table.keys(gen.bit_generator.random_raw(n), buf)
        assert np.shares_memory(key, buf)
        got.extend(table.atom[key].tolist())
    words = rng.sample_stream(9, 0).bit_generator.random_raw(1000)
    assert got == reference_draw(cum, uniforms(words)).tolist()


@pytest.mark.parametrize("atoms", [1, 2, 6, 40, 5000],
                         ids=["one-atom", "two-atoms", "6-atoms", "40-atoms",
                              "5000-atoms"])
def test_tally_counts_the_draws_past_each_atom(atoms):
    """Entry j of the tally is how many drawn indices exceed j."""
    cum = random_cum(atoms, atoms)
    table = rng.BucketTable(cum)
    words = edge_words(table)
    idx = reference_draw(cum, uniforms(words))
    expected = np.bincount(idx, minlength=atoms)[:0:-1].cumsum()[::-1]
    assert table.tally(words) == expected[:table.thresholds.size].tolist()
    assert not expected[table.thresholds.size:].any()
