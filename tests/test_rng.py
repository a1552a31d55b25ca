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
