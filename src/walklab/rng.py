"""Deterministic counter-based sample streams and the inverse-CDF draw.

Every Monte Carlo sample draws from its own Philox stream keyed by
``(seed, sample_index)``, so results are bit-identical no matter how samples
are batched or distributed across workers.  Every sampler turns its uniforms
into atoms the same way: :func:`cumulative` once per step law, then
:func:`draw` per block of uniforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_COUNT_ATOMS = 32  # longest table drawn by counting comparisons
_FIRST_CHUNK, _CHUNK_FACTOR, _LARGEST_CHUNK = 512, 4, 65_536


def cumulative(mu) -> tuple[list, np.ndarray]:
    """Atoms of a step law and their cumulative float weights (last = 1)."""
    elems, weights = zip(*mu.as_float().atoms())
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return list(elems), cum


def draw(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Atom index per uniform: the first atom whose cumulative weight exceeds it.

    Since u < 1 = cum[-1], that index is the number of cum[:-1] at most u.
    Up to ``_COUNT_ATOMS`` atoms it is counted with one comparison per atom
    (a few ns per uniform); a binary search costs tens of ns per uniform
    and wins only on longer tables.
    """
    if len(cum) > _COUNT_ATOMS:
        return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    count = np.zeros(u.shape, dtype=np.uint8)
    above = np.empty(u.shape, dtype=bool)
    for c in cum[:-1]:
        count += np.greater_equal(u, c, out=above).view(np.uint8)
    return count.astype(np.intp)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, sample index) pair."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_schedule(horizon: int):
    """Deterministic chunk sizes covering ``horizon`` draws: ``_FIRST_CHUNK``,
    then ``_CHUNK_FACTOR`` times larger each time, up to ``_LARGEST_CHUNK``."""
    remaining = horizon
    size = _FIRST_CHUNK
    while remaining > 0:
        take = min(size, remaining)
        yield take
        remaining -= take
        size = min(size * _CHUNK_FACTOR, _LARGEST_CHUNK)
