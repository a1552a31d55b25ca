"""Deterministic counter-based sample streams and the inverse-CDF draw.

Every Monte Carlo sample draws from its own Philox stream keyed by
``(seed, sample_index)``, so results are bit-identical however samples are
batched.  A stream yields the same raw 64-bit words however its draws are
split into blocks (``random_raw(512)`` then ``random_raw(7)`` equals the
first 519 of ``random_raw(519)``), so no result depends on the block sizes
a sampler picks, nor on it stopping a stream early.  Every sampler turns
one raw word per step into an atom by a :class:`BucketTable` of the step
law's :func:`cumulative` weights.

That draw is the float inverse-CDF draw, decided in integers.
``Generator.random`` makes u = (r >> 11) 2^-53 of the raw word r (a test
pins this), and the float draw takes the first atom whose cumulative weight
exceeds u.  For a cumulative weight c, c 2^53 is exact in binary64, so
u >= c exactly when r >> 11 >= ceil(c 2^53), that is when
r >= T = ceil(c 2^53) 2^11.  The atom of r is the number of thresholds T_j
(one per atom but the last) at most r.  A threshold of 2^64 or more (c = 1,
or a cumulative weight rounded above 1) is reached by no word and dropped.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
_KEY_SHIFT = 52  # a word's bucket is its top 12 bits
_BUCKETS = 1 << (64 - _KEY_SHIFT)


def cumulative(mu) -> tuple[list, np.ndarray]:
    """Atoms of a rational step law and their cumulative float weights
    (last = 1).  Each weight is its numerator over ``denom`` by int true
    division, which rounds correctly, as ``float(Fraction)`` does."""
    denom = mu.exact_denom()
    cum = np.cumsum([a / denom for a in mu._atoms.values()])
    cum[-1] = 1.0
    return mu.support(), cum


class BucketTable:
    """The atom of each raw word under the cumulative weights ``cum``.

    A word's key is its bucket ``r >> 52``.  A bucket that no threshold
    falls strictly inside holds words of one atom, so its key gives the
    atom by one gather.  Each threshold splits at most one bucket, so at
    most ``len(cum) - 1`` buckets are split (``split``, None if none is); a
    word in one is re-keyed to ``_BUCKETS + atom``, its atom settled by
    binary search over the thresholds.  Keys thus run over ``size``
    entries, and a per-atom column ``x`` becomes a per-key table as
    ``x[table.atom]``.
    """

    def __init__(self, cum: np.ndarray) -> None:
        top = np.ceil(np.asarray(cum[:-1]) * 2.0 ** 53)
        self.thresholds = top[top < 2.0 ** 53].astype(np.uint64) << np.uint64(11)
        edges = np.arange(_BUCKETS, dtype=np.uint64) << np.uint64(_KEY_SHIFT)
        first = np.searchsorted(self.thresholds, edges, "right")
        last = np.searchsorted(self.thresholds,
                               edges | np.uint64((1 << _KEY_SHIFT) - 1), "right")
        split = first != last
        self.split = split if split.any() else None
        self.atom = np.concatenate([first, np.arange(len(cum))])
        self.size = self.atom.size

    def keys(self, words: np.ndarray, out: np.ndarray | None = None
             ) -> np.ndarray:
        """Key per word, written to the first ``len(words)`` slots of the
        int64 array ``out`` (a fresh one when None)."""
        n = words.size
        key = np.empty(n, dtype=np.int64) if out is None else out[:n]
        np.right_shift(words, _KEY_SHIFT, out=key.view(np.uint64))
        if self.split is None:
            return key
        moved = np.flatnonzero(self.split.take(key))
        if moved.size:
            key[moved] = _BUCKETS + np.searchsorted(self.thresholds,
                                                    words[moved], "right")
        return key

    def draw(self, words: np.ndarray) -> np.ndarray:
        """Atom index per word."""
        return self.atom.take(self.keys(words))

    def tally(self, words: np.ndarray) -> list[int]:
        """How many words reach each threshold: entry j counts the words
        :meth:`draw` maps to an atom after j.  Dropped thresholds, which no
        word reaches, have no entry.

        With d_i the step of atom i, the block then moves by
        ``len(words) d_0 + sum_j tally[j] (d_{j+1} - d_j)``, with no index
        per word.  Costs one pass over the words per threshold.
        """
        return [int(np.count_nonzero(words >= t)) for t in self.thresholds]


@cache
def _philox_key() -> type:
    """The seed-sequence class whose state is a given Philox key: ``Philox``
    builds from ``_philox_key()(key)`` the generator ``Philox(key=key)``
    builds, without first drawing operating-system entropy for a seed
    sequence it would then ignore.  Built on first use, so that importing
    this module does not import ``numpy.random`` (about 10 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != self.key.size or np.dtype(dtype) != self.key.dtype:
                raise ValueError(f"a Philox key is {self.key.size} words of "
                                 f"{self.key.dtype}, not {n_words} of {dtype}")
            return self.key

    return PhiloxKey


def sample_stream(seed: int, index: int,
                  gen: np.random.Generator | None = None) -> np.random.Generator:
    """Independent generator for one (seed, sample index) pair.

    Given ``gen``, a generator an earlier call returned, re-keys it in place
    to (seed, index) with counter 0 and an empty buffer, and returns it: the
    stream is then the one a fresh generator gives, at about half the cost
    of building one.
    """
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    if gen is None:
        return np.random.Generator(np.random.Philox(_philox_key()(key)))
    zeros = np.zeros(4, dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
