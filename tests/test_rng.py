"""The inverse-CDF draw shared by every sampler."""

from __future__ import annotations

import numpy as np
import pytest

from walklab import rng


def reference_draw(cum, u):
    return np.minimum(np.searchsorted(cum, u, "right"), len(cum) - 1)


@pytest.mark.parametrize("cum", [
    [1.0],
    [0.75, 1.0],
    [0.2, 0.2, 0.5, 0.5, 0.5, 1.0],
    [0.0, 0.1, 0.1, 0.3, 0.95, 1.0],
    list(np.arange(1, 41) / 40),
], ids=["one-atom", "two-atoms", "repeated", "leading-zero", "40-atoms"])
def test_draw_matches_binary_search(cum):
    cum = np.array(cum)
    edges = np.concatenate([cum[:-1], np.nextafter(cum[:-1], 0),
                            np.nextafter(cum[:-1], 1)])
    u = np.concatenate([[0.0, np.nextafter(1.0, 0)], edges[edges < 1],
                        np.random.default_rng(5).random(1000)])
    got = rng.draw(cum, u)
    assert got.dtype == np.intp
    assert np.array_equal(got, reference_draw(cum, u))


def test_draw_cases_cover_both_branches():
    """The 40-atom case above takes the binary search; the escape laws
    (at most six atoms) take the comparison count."""
    assert 6 <= rng._COUNT_ATOMS < 40


def test_a_rekeyed_stream_equals_a_fresh_one():
    """Re-keying resets the key, the counter and the half-used buffer."""
    gen = rng.sample_stream(3, 0)
    for index in (0, 1, 2 ** 64 - 1, 5):
        gen.random(7)  # an odd count leaves part of a Philox block unread
        assert rng.sample_stream(3, index, gen) is gen
        assert np.array_equal(gen.random(1001),
                              rng.sample_stream(3, index).random(1001))


@pytest.mark.parametrize("atoms", [6, 40], ids=["count", "binary-search"])
def test_draw_into_shared_buffers_matches_a_fresh_draw(atoms):
    """Blocks drawn into one set of buffers give the indices of one draw of
    all the uniforms, written in place."""
    cum = np.cumsum(np.full(atoms, 1 / atoms))
    cum[-1] = 1.0
    u = np.random.default_rng(9).random(1000)
    bufs = rng.DrawBuffers(512)
    got = []
    for lo, hi in ((0, 512), (512, 519), (519, 1000)):
        idx = rng.draw(cum, u[lo:hi], bufs)
        assert np.shares_memory(idx, bufs.indices)
        got.extend(idx.tolist())
    assert got == reference_draw(cum, u).tolist()


@pytest.mark.parametrize("atoms", [1, 2, 6, 40],
                         ids=["one-atom", "two-atoms", "count", "binary-search"])
def test_tally_counts_the_draws_past_each_atom(atoms):
    """Entry j of the tally is how many drawn indices exceed j."""
    cum = np.cumsum(np.random.default_rng(atoms).random(atoms))
    cum /= cum[-1]
    cum[-1] = 1.0
    u = np.concatenate([cum[:-1], np.random.default_rng(3).random(999)])
    idx = reference_draw(cum, u)
    expected = [int(np.count_nonzero(idx > j)) for j in range(atoms - 1)]
    assert rng.tally(cum, u) == expected
    assert rng.tally(cum, u, rng.DrawBuffers(u.size)) == expected
