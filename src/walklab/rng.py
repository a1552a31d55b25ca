"""Deterministic counter-based sample streams and the inverse-CDF draw.

Every Monte Carlo sample draws from its own Philox stream keyed by
``(seed, sample_index)``, so results are bit-identical however samples are
batched.  A Philox stream yields the same uniforms however its draws are
split into blocks (``random(512)`` then ``random(7)`` equals the first 519
of ``random(519)``), so results do not depend on block boundaries either,
nor on a sampler stopping a stream early: a sampler sizes its blocks by the
state its walk is in, and no result depends on those sizes.  Every sampler
turns its uniforms into atoms the same way: :func:`cumulative` once per
step law, then :func:`draw` per block of uniforms, or :func:`tally` where a
block needs only how often each atom came up.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_COUNT_ATOMS = 32  # longest table drawn by counting comparisons


def cumulative(mu) -> tuple[list, np.ndarray]:
    """Atoms of a rational step law and their cumulative float weights
    (last = 1).  Each weight is its numerator over ``denom`` by int true
    division, which rounds correctly, as ``float(Fraction)`` does."""
    denom = mu.exact_denom()
    cum = np.cumsum([a / denom for a in mu._atoms.values()])
    cum[-1] = 1.0
    return mu.support(), cum


class DrawBuffers:
    """Work arrays for drawing blocks of up to ``size`` atoms without
    allocating: the block's uniforms, the atom indices :func:`draw` writes,
    and its comparison counts and mask (scratch once ``draw`` returns)."""

    def __init__(self, size: int) -> None:
        self.uniforms = np.empty(size)
        self.indices = np.empty(size, dtype=np.intp)
        self.counts = np.empty(size, dtype=np.uint8)
        self.mask = np.empty(size, dtype=bool)


def draw(cum: np.ndarray, u: np.ndarray,
         out: DrawBuffers | None = None) -> np.ndarray:
    """Atom index per uniform: the first atom whose cumulative weight exceeds it.

    Since u < 1 = cum[-1], that index is the number of cum[:-1] at most u.
    Up to ``_COUNT_ATOMS`` atoms it is counted with one comparison per atom
    (a few ns per uniform); a binary search costs tens of ns per uniform
    and wins only on longer tables.  The indices are written to the first
    ``len(u)`` slots of ``out.indices`` (fresh buffers when ``out`` is None)
    and do not depend on how the uniforms are split into blocks.
    """
    n = u.size
    if out is None:
        out = DrawBuffers(n)
    idx = out.indices[:n]
    if len(cum) > _COUNT_ATOMS:
        return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1,
                          out=idx)
    count, above = out.counts[:n], out.mask[:n]
    np.greater_equal(u, cum[0], out=count.view(bool))  # all 0 if cum[0] = 1
    for c in cum[1:-1]:
        count += np.greater_equal(u, c, out=above).view(np.uint8)
    np.copyto(idx, count)
    return idx


def tally(cum: np.ndarray, u: np.ndarray,
          out: DrawBuffers | None = None) -> list[int]:
    """How many uniforms reach each of ``cum[:-1]``: entry j counts
    ``u >= cum[j]``, the uniforms :func:`draw` maps to an atom after j.

    With d_i the step of atom i, the block then moves by
    ``len(u) d_0 + sum_j tally[j] (d_{j+1} - d_j)``, with no index per
    uniform.  ``out`` lends its mask (or, past ``_COUNT_ATOMS`` atoms, its
    index buffer) as scratch.
    """
    if len(cum) > _COUNT_ATOMS:
        per_atom = np.bincount(draw(cum, u, out), minlength=len(cum))
        return per_atom[:0:-1].cumsum()[::-1].tolist()
    above = (out.mask if out is not None else np.empty(u.size, bool))[:u.size]
    return [int(np.count_nonzero(np.greater_equal(u, c, out=above)))
            for c in cum[:-1]]


def sample_stream(seed: int, index: int,
                  gen: np.random.Generator | None = None) -> np.random.Generator:
    """Independent generator for one (seed, sample index) pair.

    Given ``gen``, a generator an earlier call returned, re-keys it in place
    to (seed, index) with counter 0 and an empty buffer, and returns it: the
    stream is then the one a fresh generator gives, at about a third of the
    cost of building one.
    """
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    if gen is None:
        return np.random.Generator(np.random.Philox(key=key))
    zeros = np.zeros(4, dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen

