"""Escape-probability estimators for walks driven by finite step laws.

Three estimator families:

* ``exact_escape_drifted_z`` / ``exact_escape_drifted_z2``: closed forms of
  ``1 / sum_n mu^{*n}(e)`` for drifted walks, bracketed with binary64 ends
  rounded outward.  On the line a skip-free law (reflected to a positive
  mean, no step below -1) gets one root of its step polynomial, by exact
  rational bisection; on Z^2 a nearest-neighbour law gets an
  arithmetic-geometric mean on outward-rounded brackets.
* ``mc_escape``: Monte Carlo first-return sampling with per-sample
  counter-based streams; nested horizon checkpoints are evaluated on the
  same paths, so the reported estimates are nonincreasing by construction.
* ``range_rate``: sample mean of (distinct sites visited)/n.  The finite-n
  range overestimates the escape probability; for drifted walks on the
  line an upper bound for that bias (from the same root, or from the
  concentration bound ``mu^{*n}(0) <= 2 exp(-2 n mean^2 / (b - a)^2)`` for
  support in ``[a, b]``) widens the low side of the interval.

Both samplers walk Z, Z^2, Dinf and BS(1,-1) a block of steps at a time
over twisted-lattice states (``_TwistedWalk``), and any other group one
``groups.multiply`` per step; sample ``i`` reads only its (seed, i) stream,
keyed exactly once.  First returns on those four groups run in rounds
over a pool of live streams (``_Rounds``): a stream is keyed when it takes
up a sample and stays live until that sample returns, cannot return or
reaches the horizon, with no second keying and no saved state, and each
round keys, gathers and prefix-scans the next blocks of many streams as
one array.  ``lattice_law`` rewrites a law with no flipping step as a walk
on Z or Z^2, the one form ``auto_escape`` certifies or brackets; other
laws, and drifted laws with no closed form, are sampled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import exp, expm1, prod, sqrt
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import groups
from .groups import GroupElement, IntegerLattice
from .intervals import Bracket
from .measures import FiniteMeasure
from .rng import BucketTable, cumulative, sample_stream

_Z1 = IntegerLattice(1)
_Z2 = IntegerLattice(2)
# The steps of a nearest-neighbour walk on Z^2 (E, W, N, S), and the working
# precision of its closed form, in bits.
_UNIT_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_AGM_BITS = 80
# Root brackets are bisected until their escape probability is finer than
# binary64 resolves.
_ROOT_WIDTH = Fraction(1, 2 ** 60)
# First-return blocks: the first walks 64 steps (criterion 3's returns all
# come by then), later ones 5 times more each, up to the buffer.  A block in
# which a flip-free walk cannot return is summed when it is _MIN_SUMMED steps
# or more.  The early stop cuts no summed block below _MIN_SUMMED steps and
# no walked block below _WALKED_FLOOR, about the fixed cost of a BS(1,-1)
# block; the blocks of a walk nearing the stop would otherwise shrink
# geometrically.
_FIRST_BLOCK, _BLOCK_GROWTH, _LARGEST_BLOCK = 64, 5, 65_536
_MIN_SUMMED, _WALKED_FLOOR = 512, 2048
# A sampler round draws the next blocks of many live streams, at most
# _ROUND_WORDS words in all unless one block alone is longer, and _POOL
# streams fill one with first blocks.  On escape-mc's laws rounds of 2^15
# words ran as fast as rounds of 2^16 and about 4% faster than rounds of
# 2^14, and need no more buffer than one block of _LARGEST_BLOCK steps.
_ROUND_WORDS = 1 << 15
_POOL = _ROUND_WORDS // _FIRST_BLOCK
# A summed block costs about 0.4 ns a word per atom but the last, a walked
# one about 5 ns a word, so laws with more atoms walk every block.
_SUMMED_ATOMS = 12
# Range sites are counted in a presence array of up to this many cells per
# state of the path, and by sorting the states' keys when the spans are wider.
_PRESENCE_CELLS = 8
# Prefix scans of at least this many slots run on paired columns (_scan).
_PAIRED_SCAN = 4096
_RANGE_STEPS = 1 << 22  # range_rate holds a path whole, ~40 bytes a step
# first_return_times walks at most samples * horizon steps, and range_rate
# samples * (n + _RANGE_SAMPLE_STEPS); both refuse more than this: about
# 1,000 times the 10^9 of the largest runs here, and hours of sampling at the
# fastest rates
_MC_STEPS = 1 << 40
# Keying a range path's stream and counting its sites cost about as much as
# this many steps more: 28 us a path at n = 1 against 13 ns a step at
# n = 10^5 on Z, on a 2-vCPU x86-64 machine
_RANGE_SAMPLE_STEPS = 1 << 11
# range_rate on other groups holds the set of visited states, ~700 bytes a
# state: 2^18 steps is about 180 MB
_MULTIPLY_RANGE_STEPS = 1 << 18
_INT64_MAX = np.iinfo(np.int64).max


class EscapeError(ValueError):
    """Estimator preconditions not met (wrong spec, zero drift, ...)."""


@dataclass
class DriftBound:
    """Support bounds and mean of an integer-valued step projection."""

    lo: Fraction
    hi: Fraction
    mean: Fraction

    def __post_init__(self) -> None:
        if not self.lo <= self.mean <= self.hi:
            raise EscapeError(
                f"mean {self.mean} outside support [{self.lo}, {self.hi}]")

    @property
    def rate(self) -> float:
        """Exponent 2 mean^2 / (hi - lo)^2 of the concentration bound."""
        return float(2 * self.mean ** 2 / (self.hi - self.lo) ** 2)


@dataclass
class EscapeEstimate:
    """Point estimate with an interval; method-specific details ride along."""

    method: str
    value: float
    lo: float
    hi: float
    horizon: int | None = None
    n: int | None = None
    samples: int | None = None
    seed: int | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lo <= self.value <= self.hi:
            raise EscapeError(
                f"estimate {self.value} outside interval [{self.lo}, {self.hi}]")

    def to_record(self, group: str = "", measure: str = "") -> dict[str, Any]:
        return {
            "method": self.method,
            "value": self.value,
            "lo": self.lo,
            "hi": self.hi,
            "horizon": self.horizon,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "group": group,
            "measure": measure,
            **{f"detail_{k}": v for k, v in sorted(self.details.items())
               if isinstance(v, (int, float, str, bool))},
        }


# ---------------------------------------------------------------------------
# drift bounds and the concentration inequality


def _z1_steps(mu: FiniteMeasure) -> tuple[int, list[tuple[int, int]]]:
    """``D`` and the steps ``(x, a)`` of a rational 1-d lattice law: the
    walk moves by ``x`` with probability ``a / D``."""
    if mu.spec != _Z1:
        raise EscapeError(f"expected a measure on the 1-d lattice, got {mu.spec!r}")
    return mu.exact_denom(), [(x, a) for (x,), a in mu._atoms.items()]


def drift_bound_z(mu: FiniteMeasure) -> DriftBound:
    den, steps = _z1_steps(mu)
    values = [x for x, _ in steps]
    mean = Fraction(sum(x * a for x, a in steps), den)
    return DriftBound(Fraction(min(values)), Fraction(max(values)), mean)


def hoeffding_return_bound(bound: DriftBound, n: int) -> float:
    """Upper bound 2 exp(-2 n mean^2 / (hi - lo)^2) for the mass at zero."""
    if bound.hi == bound.lo:
        return 0.0 if bound.mean != 0 else 2.0
    return 2.0 * exp(-bound.rate * n)


def _return_masses(mu: FiniteMeasure, n_terms: int) -> tuple[int, list[int]]:
    """``D`` and the numerators ``c_n`` of ``mu^{*n}(0) = c_n / D^n`` for
    n = 1 .. n_terms of a 1-d lattice walk, where ``D`` is the shared
    denominator ``mu.denom`` of its weights.

    The law after n steps is a sparse dict of integer numerators over
    ``D^n`` keyed by position, so a step costs multiply-adds and no gcd.  A
    position that cannot get back to 0 within the steps left is not
    stepped from; it adds nothing to any c_n up to ``n_terms``.
    """
    den, steps = _z1_steps(mu)
    lo = min(x for x, _ in steps)
    hi = max(x for x, _ in steps)
    dist, numerators = {0: 1}, []
    for left in range(n_terms, 0, -1):  # steps left, this one included
        low, high = -left * hi, -left * lo  # 0 is within reach from here
        nxt: dict[int, int] = {}
        for pos, c in dist.items():
            if low <= pos <= high:
                for x, a in steps:
                    key = pos + x
                    if key in nxt:
                        nxt[key] += c * a
                    else:
                        nxt[key] = c * a
        dist = nxt
        numerators.append(dist.get(0, 0))
    return den, numerators


def return_mass_series_z(mu: FiniteMeasure, n_terms: int) -> list[Fraction]:
    """Exact masses ``mu^{*n}(0)`` for n = 0 .. n_terms on the 1-d lattice."""
    den, masses = _return_masses(mu, n_terms)
    return [Fraction(1), *(Fraction(c, den ** n)
                           for n, c in enumerate(masses, 1))]


# ---------------------------------------------------------------------------
# closed forms


def _horner(coeffs: list[int], z: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * z + c
    return value


def _dyadic_horner(coeffs: list[int], num: int, k: int) -> int:
    """``P(num / 2^k) 2^(k deg P)``: the sign of P at a dyadic point, in
    integers."""
    value, shift = 0, 0
    for c in reversed(coeffs):
        value = value * num + (c << shift)
        shift += k
    return value


def _derivative(coeffs: list[int]) -> list[int]:
    return [j * c for j, c in enumerate(coeffs)][1:]


def _step_root(mu: FiniteMeasure
               ) -> tuple[int, list[int], Fraction, Fraction, int]:
    """``D``, the coefficients of ``P'``, a bracket ``[l, h]`` of the root
    ``z_1`` in [0, 1) of ``P(z) = D z - sum_x a_x z^(x+1)`` (``D = mu.denom``,
    ``a_x`` the integer numerators) and the bisection steps taken.

    The law is reflected to a positive mean and must then be skip-free (no
    step below -1).  P is concave on [0, 1], ``P(0) = -a_{-1} <= 0``,
    ``P(1) = 0`` and ``P'(1) = -D mean < 0``, so P is negative below
    ``z_1`` and positive above it up to 1.  Bisection stops at a zero of P,
    or once ``P'(h) > 0`` and ``(h - l) max(-P'') <= _ROOT_WIDTH D``."""
    den, steps = _z1_steps(mu)
    drift = sum(x * a for x, a in steps)
    if drift == 0:
        raise EscapeError("drifted walk required; the mean is exactly zero")
    if drift < 0:
        steps = [(-x, a) for x, a in steps]
    low = min(x for x, _ in steps)
    if low < -1:
        raise EscapeError(f"step {low} against the drift: the walk is not "
                          "skip-free, so the root has no closed form")
    coeffs = [0] * (max(1, max(x for x, _ in steps) + 1) + 1)
    coeffs[1] = den
    for x, a in steps:
        coeffs[x + 1] -= a
    slope = _derivative(coeffs)
    bend = -sum(_derivative(slope))  # -P''(1), the most -P'' reaches
    # the bracket is [lo, hi] / 2^n; with no step against the drift,
    # P(0) = 0: z_1 = 0
    lo, hi, n = 0, 1 if coeffs[0] else 0, 0
    width_num, width_den = _ROOT_WIDTH.numerator, _ROOT_WIDTH.denominator
    while ((hi - lo) * bend * width_den > (width_num * den) << n
           or _dyadic_horner(slope, hi, n) <= 0):
        mid, lo, hi, n = lo + hi, 2 * lo, 2 * hi, n + 1
        sign = _dyadic_horner(coeffs, mid, n)
        lo = mid if sign <= 0 else lo
        hi = mid if sign >= 0 else hi
    return den, slope, Fraction(lo, 1 << n), Fraction(hi, 1 << n), n


def _outward(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """``[lo, hi]`` with its ends rounded out to binary64."""
    return Bracket(Bracket.of(lo, 53).lo, Bracket.of(hi, 53).hi).floats()


def exact_escape_drifted_z(mu: FiniteMeasure) -> EscapeEstimate:
    """Bracket the escape probability of a drifted skip-free walk on the
    line in closed form.

    ``sum_n s^n mu^{*n}(0)`` is the residue of ``1 / (z - s z phi(z))``,
    ``phi(z) = sum_x mu(x) z^x``, at its one pole inside the unit circle
    (Feller, vol. I, ch. XIV; Spitzer, *Principles of Random Walk*, 1964),
    which at s = 1 is the root ``z_1`` of ``_step_root``.  So the visits to
    0 number ``G = D / P'(z_1)`` (the details bracket it), and the escape
    probability ``P'(z_1) / D`` lies in ``[P'(h), P'(l)] / D``, rounded out
    to binary64.  ``n`` counts the bisection steps."""
    den, slope, lo, hi, n = _step_root(mu)
    low, high = _horner(slope, hi), _horner(slope, lo)
    g_lo, g_hi = _outward(low / den, high / den)
    s_lo, s_hi = _outward(den / high, den / low)
    return EscapeEstimate(
        "root-closed-form", (g_lo + g_hi) / 2, g_lo, g_hi, n=n,
        details={"series_lo": s_lo, "series_hi": s_hi})


def _axis_terms(p: Fraction, q: Fraction,
                prec: int) -> tuple[Bracket, Bracket]:
    """Brackets of ``c = 2 sqrt(pq)`` and of ``p + q - c``, the latter as
    ``(p - q)^2 / (p + q + c)``: no cancellation however close p is to q."""
    c = Bracket.of(4 * p * q, prec).sqrt(prec)
    if p + q == 0:
        return c, c  # both are 0
    return c, Bracket.of((p - q) ** 2, prec).div(
        c.add(Bracket.of(p + q, prec), prec), prec)


def exact_escape_drifted_z2(mu: FiniteMeasure) -> EscapeEstimate:
    """Bracket the escape probability of a drifted nearest-neighbour walk
    on Z^2 in closed form.

    With ``a = 2 sqrt(p_E p_W)`` and ``b = 2 sqrt(p_N p_S)``, the walk run
    in continuous time at rate 1 spends expected time
    ``G = int_0^oo e^-t I_0(at) I_0(bt) dt`` at the origin, and
    ``G = 1 / (sqrt(1 - (a-b)^2) AGM(1, sqrt(1 - k^2)))`` with
    ``k^2 = 4ab / (1 - (a-b)^2)`` (Montroll, J. SIAM 4 (1956)).  As the
    AGM is homogeneous, the escape probability ``1/G`` is
    ``AGM(sqrt(1 - (a-b)^2), sqrt(1 - (a+b)^2))``.  With ``u = 1 - a - b``
    these are ``sqrt((u + 2a)(u + 2b))`` and ``sqrt(u (u + 2a + 2b))``, and
    u sums ``p_E + p_W - a`` and ``p_N + p_S - b`` (``_axis_terms``): sums
    of positive terms, so a weak drift costs no bits.  All of it runs on
    outward-rounded brackets of ``_AGM_BITS`` bits, whose ends are rounded
    out to binary64.  Raises for a law with a step other than the four
    unit steps (an identity atom included) and for one with no drift.
    """
    if mu.spec != _Z2:
        raise EscapeError(f"expected a measure on the 2-d lattice, got {mu.spec!r}")
    for step in mu.support():
        if step not in _UNIT_STEPS:
            raise EscapeError(f"step {step} is not a unit step; the closed "
                              "form needs a nearest-neighbour walk")
    east, west, north, south = map(mu.weight_of, _UNIT_STEPS)
    if east == west and north == south:
        raise EscapeError("drifted walk required; both axis means vanish")
    prec = _AGM_BITS
    a, u_x = _axis_terms(east, west, prec)
    b, u_y = _axis_terms(north, south, prec)
    u = u_x.add(u_y, prec)
    a2, b2 = a.add(a, prec), b.add(b, prec)
    ua, ub = u.add(a2, prec), u.add(b2, prec)
    gamma = ua.mul(ub, prec).sqrt(prec).agm(
        u.mul(ua.add(b2, prec), prec).sqrt(prec), prec)
    lo, hi = gamma.floats()
    return EscapeEstimate("agm-closed-form", (lo + hi) / 2, lo, hi)


def recurrence_zero(mu: FiniteMeasure, reason: str) -> EscapeEstimate:
    """Escape probability 0 certified by a recurrence criterion."""
    return EscapeEstimate("recurrence-zero", 0.0, 0.0, 0.0,
                          details={"justification": reason})


# ---------------------------------------------------------------------------
# samplers


def _twisted_steps(spec, elems: list[GroupElement]):
    """Atoms of a law on Z, Dinf or BS(1,-1) as twisted-lattice steps.

    A state (a, b, f) moves by a step (da, db, df) to
    (a + (-1)^f da, b + db, f ^ df).  Z steps are (x, 0, 0), Z^2 steps
    (x, y, 0), Dinf steps (t, 0, flip) and BS(1,-1) steps (m, n, n mod 2);
    the identity is (0, 0, 0).  Returns the list of steps, or None for other
    groups.
    """
    if spec == _Z1:
        return [(x, 0, 0) for (x,) in elems]
    if spec == _Z2:
        return [(x, y, 0) for x, y in elems]
    if spec == groups.DINF:
        return [(t, 0, f) for t, f in elems]
    if spec == groups.BS11:
        return [(m, n, n & 1) for m, n in elems]
    return None


def lattice_law(mu: FiniteMeasure) -> FiniteMeasure:
    """The same walk as a law on Z or Z^2, with the same atom order and weights.

    A Z^2 law passes through.  A law on Z, Dinf or BS(1,-1) with no flipping
    step never leaves the states (a, b, 0): it is a walk on Z (coordinate
    a) when no step moves b, and on Z^2 with coordinates (a, b/2) otherwise
    (every b-step is even).  Raises for other groups, flipping steps and
    float weights.
    """
    denom = mu.exact_denom()
    if mu.spec == _Z2:
        return mu
    steps = _twisted_steps(mu.spec, mu.support())
    if steps is None:
        raise EscapeError(f"no lattice normal form for {mu.spec!r}")
    if any(df for _, _, df in steps):
        raise EscapeError("a step flips the orientation; no lattice normal form")
    if any(db for _, db, _ in steps):
        spec, points = _Z2, [(da, db // 2) for da, db, _ in steps]
    else:
        spec, points = _Z1, [(da,) for da, _, _ in steps]
    return FiniteMeasure._over(spec, dict(zip(points, mu._atoms.values())),
                               denom)


def _scan(op: np.ufunc, x: np.ndarray, spare: np.ndarray) -> None:
    """Prefix-scan ``x`` in place by ``op`` (add or xor); ``spare`` is a work
    array of x's dtype at least half as long.

    A flat ``op.accumulate`` takes about 2.6 ns a slot whatever the dtype.
    Accumulating the even and the odd slots side by side, as the columns
    of an (n/2, 2) view, takes about a fifth of that; the scan at an odd
    slot is then its column's running value joined to the even one beside
    it, and at an even slot to the odd one before it.  Joins included, a
    scan of 65,536 int64 slots took about 80 us against 170 us flat (numpy
    2.4, x86-64), but a few microseconds more in calls, so short arrays
    are scanned flat."""
    if x.size < _PAIRED_SCAN:
        op.accumulate(x, out=x)
        return
    pairs = x[:x.size & ~1].reshape(-1, 2)
    op.accumulate(pairs, axis=0, out=pairs)
    odd = spare[:pairs.shape[0]]
    np.copyto(odd, pairs[:, 1])
    op(pairs[:, 0], odd, out=pairs[:, 1])
    op(pairs[1:, 0], odd[:-1], out=pairs[1:, 0])
    if x.size & 1:
        x[-1] = op(x[-2], x[-1])


def _segmented_scan(op: np.ufunc, undo: np.ufunc, x: np.ndarray,
                    offsets: np.ndarray, starts: Sequence[int],
                    spare: np.ndarray) -> np.ndarray:
    """Prefix-scan ``x`` in place by ``op`` (add or xor) in the segments
    that start at ``offsets``: each segment's first slot becomes its start
    from ``starts``, the rest its scan from there.  Returns each segment's
    last value; ``spare`` is as for ``_scan``.

    One scan serves every segment: a segment's first slot is set to its
    start less (by ``undo``, the inverse of ``op``) the value the scan
    reaches at the end of the previous segment, found from one
    ``op.reduceat``.  An int64 sum may wrap in between; every value it is
    read at fits."""
    if offsets.size == 1:
        x[0] = starts[0]
        _scan(op, x, spare)
        return x[-1:].copy()
    x[offsets] = 0
    ends = op(starts, op.reduceat(x, offsets))
    x[offsets[0]] = starts[0]
    x[offsets[1:]] = undo(starts[1:], ends[:-1])
    _scan(op, x, spare)
    return ends


def _first_hits(at: np.ndarray, offsets: np.ndarray,
                lasts: np.ndarray) -> list[int]:
    """Per segment, the first of the ascending positions ``at`` after its
    start ``offsets[s]`` and up to its last slot ``lasts[s]``, relative to
    its start; 0 for a segment with none."""
    if not at.size:
        return [0] * offsets.size
    first = at.take(at.searchsorted(offsets + 1), mode="clip") - offsets
    found = (first > 0) & (first <= lasts - offsets)
    return np.where(found, first, 0).tolist()


class _TwistedWalk:
    """Blocks of a walk on Z, Z^2, Dinf or BS(1,-1), by prefix scans over
    the twisted-lattice states of ``_twisted_steps``, drawn and walked on
    buffers allocated once for up to ``size`` steps in up to ``_POOL``
    segments.

    Each method but ``path`` takes segments: a block of ``ns[s]`` steps
    drawn from stream ``gens[s]``, from state ``starts[s]``; a single block
    is the one-segment case.  The segments' words are joined by one zero
    word each, then keyed, gathered and scanned as one array, in
    which a segment's path holds its start state in its first slot and the
    state after its step j in slot j.  A step's moves are gathered by its
    word's key (``BucketTable``), its a-move by ``table.size + key`` when
    taken flipped.  The columns b and f stay 0 when no step moves them.  A
    walk that moves b and flips is on BS(1,-1), where every step flips
    exactly when it moves b an odd distance: f is b mod 2 at every state,
    and is not scanned.  A walk with no flipping step and at most
    ``_SUMMED_ATOMS`` atoms has ``moves`` and can sum a block from atom
    counts.
    """

    def __init__(self, steps: list[tuple[int, int, int]], table: BucketTable,
                 size: int) -> None:
        da, db, df = np.array(steps, dtype=np.int64).T[:, table.atom]
        self.table = table
        self.da = np.concatenate([da, -da])
        self.db = db if db.any() else None
        self.df = df.astype(np.int8) if df.any() else None
        self.flip_is_b_parity = self.db is not None and self.df is not None
        # the columns that tell states apart
        self.columns = ([0, 1] if self.db is not None
                        else [0, 2] if self.df is not None else [0])
        # (a, b) steps of atom 0 and the rises between neighbouring atoms
        self.moves = None
        if self.df is None and len(steps) <= _SUMMED_ATOMS:
            self.moves = steps[0][:2], [(x1 - x0, y1 - y0) for (x0, y0, _), (
                x1, y1, _) in zip(steps, steps[1:])]
        # most a and b move in one step, whatever the flip bit
        self.reach = (int(np.abs(da).max()), int(np.abs(db).max()))
        cells = size + _POOL  # a slot per step and per segment start
        self.key = np.empty(cells, dtype=np.int64)
        self.mask = np.empty(cells, dtype=bool)
        self.a = np.empty(cells, dtype=np.int64)
        self.b = np.zeros(cells, dtype=np.int64)
        self.f = np.zeros(cells, dtype=np.int8)

    @classmethod
    def of(cls, spec, elems: list[GroupElement], table: BucketTable,
           size: int) -> _TwistedWalk | None:
        """The walk of a law's atoms, or None for other groups and for steps
        too long for int64 prefix sums."""
        steps = _twisted_steps(spec, elems)
        if steps is None or max(abs(x) for step in steps for x in step) >= 1 << 31:
            return None
        return cls(steps, table, size)

    def _keys(self, gens: list, ns: list[int]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keys, in the key buffer, of the next ``ns[s]`` words of each
        stream ``gens[s]``, joined by one zero word each so that key p is
        the step into slot p + 1 of the segments' paths; and the offset and
        last slot of each segment's path.  One block is keyed from its
        stream's own array; more are first copied into the ``a`` buffer,
        each while cache-hot.  The words are let go before any column is
        built."""
        lasts = np.cumsum(ns)
        lasts += np.arange(len(ns))
        if len(ns) == 1:
            words = gens[0].bit_generator.random_raw(ns[0])
        else:
            words = self.a.view(np.uint64)[:int(lasts[-1])]
            start = 0
            for gen, n in zip(gens, ns):
                words[start:start + n] = gen.bit_generator.random_raw(n)
                start += n + 1
            words[lasts[:-1]] = 0
        return self.table.keys(words, self.key), lasts - ns, lasts

    def _a_moves(self, key: np.ndarray, flips: np.ndarray,
                 out: np.ndarray) -> None:
        """Write to ``out`` the a-move of each step, reversed where it was
        taken flipped: ``flips[j]`` has the parity of the flip bit before
        step j (read only if a step flips).  Overwrites ``key``."""
        if self.df is not None:
            np.bitwise_and(flips, 1, out=out)
            out *= self.table.size
            key += out
        self.da.take(key, out=out, mode="clip")

    def _b_column(self, key: np.ndarray, offsets: np.ndarray,
                  start_b: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The b column of the segments' paths and its end per segment."""
        b = self.b[:key.size + 1]
        self.db.take(key, out=b[1:], mode="clip")  # mode "raise" would buffer
        return b, _segmented_scan(np.add, np.subtract, b, offsets, start_b,
                                  self.a)  # the a column comes after

    def _states(self, gens: list, ns: list[int],
                starts: list[tuple[int, int, int]]) -> tuple[np.ndarray, ...]:
        """States (a, b, f) of the segments' paths, the offset and last slot
        of each segment, and the a and f columns' ends per segment."""
        key, offsets, lasts = self._keys(gens, ns)
        a, b, f = (c[:key.size + 1] for c in (self.a, self.b, self.f))
        start_a, start_b, start_f = zip(*starts)
        if self.db is not None:
            self._b_column(key, offsets, start_b)
        end_f = None
        if self.flip_is_b_parity:
            np.bitwise_and(b, 1, out=f, casting="unsafe")
        elif self.df is not None:
            self.df.take(key, out=f[1:], mode="clip")
            end_f = _segmented_scan(np.bitwise_xor, np.bitwise_xor, f,
                                    offsets, start_f, self.mask.view(np.int8))
        self._a_moves(key, f[:-1], a[1:])
        end_a = _segmented_scan(np.add, np.subtract, a, offsets, start_a,
                                self.key)  # spent by _a_moves
        return a, b, f, offsets, lasts, end_a, end_f

    def path(self, gen: np.random.Generator, n: int,
             start: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
        """States (a, b, f) of the next ``n`` steps of ``gen`` from ``start``."""
        return self._states([gen], [n], [start])[:3]

    def end(self, gens: list, ns: list[int],
            starts: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        """State after each segment, from how often each atom came up in it;
        for walks with ``moves`` only.  Each block is tallied as drawn:
        summed blocks are long, and joining their words would cost more
        than the calls it saves."""
        (a0, b0), rises = self.moves
        ends = []
        for (a, b, _), n, gen in zip(starts, ns, gens):
            counts = self.table.tally(gen.bit_generator.random_raw(n))
            a, b = a + n * a0, b + n * b0
            for c, (ra, rb) in zip(counts, rises):
                a += c * ra
                b += c * rb
            ends.append((a, b, 0))
        return ends

    def first_hit(self, gens: list, ns: list[int],
                  starts: list[tuple[int, int, int]]
                  ) -> tuple[list[int], list[tuple[int, int, int]]]:
        """Per segment, the slot of the first identity in its path (0 if
        none), and the state after it.

        Without a b column the paths are scanned for a = 0 (and f = 0).
        With one, f is 0 wherever b is (there is no flip, or f is b's
        parity), so only b is scanned: a is read at the zeros of b and at
        the segment starts, from one ``add.reduceat`` of the signed a-moves
        split there and a segmented prefix sum of those rises; a segment's
        last slot has a zero move out of it, so that a zero at its last
        step splits too.
        """
        zeros = [0] * len(ns)
        if self.db is None:
            a, _, f, offsets, lasts, end_a, end_f = self._states(gens, ns,
                                                                starts)
            away = (a if self.df is None
                    else np.bitwise_or(a, f, out=self.key[:a.size]))
            at = np.equal(away, 0, out=self.mask[:a.size]).nonzero()[0]
            end_b, end_f = zeros, zeros if end_f is None else end_f.tolist()
        else:
            start_a, start_b, _ = zip(*starts)
            key, offsets, lasts = self._keys(gens, ns)
            total = key.size + 1
            b, end_b = self._b_column(key, offsets, start_b)
            moves = self.a[:total]  # moves[p]: the a-move out of slot p
            self._a_moves(key, b[:-1], moves[:-1])
            moves[lasts] = 0  # out of a segment's last slot
            splits = np.equal(b, 0, out=self.mask[:total])
            splits[offsets] = True
            splits = splits.nonzero()[0]
            rise = np.add.reduceat(moves, splits)  # to the next split
            firsts = splits.searchsorted(offsets)
            a = np.empty_like(rise)  # a at each split
            a[1:] = rise[:-1]
            _segmented_scan(np.add, np.subtract, a, firsts, start_a, self.key)
            end_a = np.add(start_a, np.add.reduceat(rise, firsts))
            end_f = (end_b & 1).tolist() if self.df is not None else zeros
            end_b = end_b.tolist()
            at = splits[a == 0]
        return (_first_hits(at, offsets, lasts),
                list(zip(end_a.tolist(), end_b, end_f)))


def _distinct_states(columns: list[np.ndarray], key: np.ndarray,
                     present: np.ndarray) -> int:
    """Number of distinct rows of the equally long int64 ``columns``;
    ``key`` (int64) is a work array at least as long as a column, and
    ``present`` (bool) one at least as long as ``key``.

    Each row gets a mixed-radix key over the columns' spans.  When the
    spans' product fits in ``present``, the keys mark cells there and the
    marks are counted; otherwise the keys are sorted and the changes
    counted.
    """
    lows = [int(c.min()) for c in columns]
    spans = [int(c.max()) - low + 1 for c, low in zip(columns, lows)]
    cells = prod(spans)
    if cells >= 1 << 63:  # too wide for an int64 key
        return len(set(zip(*(c.tolist() for c in columns))))
    size = columns[0].size
    key = np.subtract(columns[0], lows[0], out=key[:size])
    for c, low, span in zip(columns[1:], lows[1:], spans[1:]):
        key *= span  # one mixed-radix digit per column
        key += c
        key -= low  # may wrap in between; the final key fits
    if cells <= present.size:
        seen = present[:cells]
        seen.fill(False)
        seen[key] = True
        return int(np.count_nonzero(seen))
    key.sort()
    return 1 + int(np.count_nonzero(
        np.not_equal(key[1:], key[:-1], out=present[:size - 1])))


def _free_steps(state: tuple[int, int, int], left: int,
                reach: tuple[int, int]) -> int:
    """Steps a walk at ``state`` with ``left`` steps to go can take before a
    return could become impossible, or -1 if it already is.

    One step moves a by at most ``reach[0]`` and b by at most ``reach[1]``,
    whatever the flip bit, so no return is possible once |x| > left m for a
    coordinate x of reach m.  After s more steps |x| is at most |x| + s m,
    so that needs s > (left m - |x|) / (2 m).  A coordinate of reach 0
    stays 0.
    """
    (ma, mb), a, b = reach, abs(state[0]), abs(state[1])
    room_a, room_b = left * ma - a, left * mb - b
    if room_a < 0 or room_b < 0:
        return -1
    return min(room_a // (2 * ma) if ma else left,
               room_b // (2 * mb) if mb else left)


def _unreturning_steps(state: tuple[int, int, int],
                       reach: tuple[int, int]) -> int:
    """Steps from ``state`` none of which can end at the identity: after s
    steps a coordinate x of reach m is still nonzero if s m < |x|, that is
    for s up to (|x| - 1) // m.  A coordinate of reach 0 stays 0."""
    (ma, mb), a, b = reach, abs(state[0]), abs(state[1])
    return max((a - 1) // ma if a else 0, (b - 1) // mb if b else 0)


class _Stream:
    """A live stream of the pool: the sample it draws for, its state after
    ``done`` steps and the size of its next walked block; ``n`` is the
    length of its next block, ``summed`` whether that block is summed."""

    __slots__ = ("index", "gen", "state", "done", "size", "n", "summed")


class _Rounds:
    """First-return times of samples ``0 .. out.size - 1`` into ``out``,
    horizon+1 where none, walked in rounds over a pool of up to ``_POOL``
    live streams.

    Each stream of the pool is keyed once per sample, the first time with a
    fresh generator and later by re-keying its own, and runs until its
    sample returns, cannot return or reaches the horizon.  A round takes
    streams from the front of the queue while their next blocks fit in
    ``_ROUND_WORDS`` words (always one), sums all its summed blocks in one
    ``end`` and scans all its walked ones in one ``first_hit``, and queues
    each stream's next block at the back.
    """

    def __init__(self, walk: _TwistedWalk, horizon: int, seed: int,
                 out: np.ndarray) -> None:
        self.walk, self.horizon, self.seed, self.out = walk, horizon, seed, out
        self.samples = iter(range(out.size))
        self.queue: deque[_Stream] = deque()
        out.fill(horizon + 1)
        for _ in range(min(_POOL, out.size)):
            stream = _Stream()
            stream.gen, stream.done = None, horizon  # keyed by plan
            self.plan(stream)

    def plan(self, stream: _Stream) -> None:
        """Queue the stream's next block.  Once its sample is at the horizon
        or can no longer return, first key it to the next sample, if any.

        A block stops where ``_free_steps`` says a return could become
        impossible, unless that would make it shorter than a floor.  A walk
        with no flipping step that cannot return within ``_MIN_SUMMED``
        steps sums a block of as many steps (floor ``_MIN_SUMMED``).
        Otherwise it walks a block that starts at ``_FIRST_BLOCK`` steps and
        grows ``_BLOCK_GROWTH`` times each time (floor ``_WALKED_FLOOR``).
        """
        reach = self.walk.reach
        left = self.horizon - stream.done
        free = _free_steps(stream.state, left, reach) if left else -1
        if free < 0:
            index = next(self.samples, None)
            if index is None:
                return
            stream.index = index
            stream.gen = sample_stream(self.seed, index, stream.gen)
            stream.state, stream.done, stream.size = (0, 0, 0), 0, _FIRST_BLOCK
            left = self.horizon
            free = _free_steps(stream.state, left, reach)
        away = (_unreturning_steps(stream.state, reach) if self.walk.moves
                else 0)
        stream.summed = away >= _MIN_SUMMED
        stream.n = (min(away, max(free, _MIN_SUMMED), _LARGEST_BLOCK, left)
                    if stream.summed
                    else min(stream.size, max(free, _WALKED_FLOOR), left))
        self.queue.append(stream)

    def round(self) -> None:
        queue = self.queue
        words, summed, walked = 0, [], []
        while queue and (not words or words + queue[0].n <= _ROUND_WORDS):
            stream = queue.popleft()
            words += stream.n
            (summed if stream.summed else walked).append(stream)
        if summed:
            for stream, end in zip(summed, self.walk.end(*_blocks(summed))):
                stream.state = end
                stream.done += stream.n
                self.plan(stream)
        if walked:
            for stream, hit, end in zip(
                    walked, *self.walk.first_hit(*_blocks(walked))):
                if hit:
                    self.out[stream.index] = stream.done + hit
                    stream.done = self.horizon  # done with this sample
                else:
                    stream.state = end
                    stream.done += stream.n
                    stream.size = min(stream.size * _BLOCK_GROWTH,
                                      _LARGEST_BLOCK)
                self.plan(stream)

    def run(self) -> None:
        while self.queue:
            self.round()


def _blocks(streams: list[_Stream]) -> tuple[list, list[int], list]:
    """The segments of the streams' next blocks: streams, lengths, starts."""
    return ([s.gen for s in streams], [s.n for s in streams],
            [s.state for s in streams])


def _multiply_walk(spec, elems: list[GroupElement], table: BucketTable,
                   gen: np.random.Generator, n: int) -> Iterator[GroupElement]:
    """States after each of the first ``n`` steps of ``gen``, one
    ``groups.multiply`` per step, drawn in blocks of ``_FIRST_BLOCK`` steps
    growing ``_BLOCK_GROWTH`` times each up to ``_LARGEST_BLOCK``."""
    state, size = groups.identity(spec), _FIRST_BLOCK
    while n > 0:
        words = gen.bit_generator.random_raw(min(size, n))
        n -= words.size
        for ix in table.draw(words).tolist():
            state = groups.multiply(spec, state, elems[ix])
            yield state
        size = min(size * _BLOCK_GROWTH, _LARGEST_BLOCK)


def _sample_results(samples: int, steps: int) -> np.ndarray:
    """An int64 array for ``samples`` results of ``steps`` steps each, or
    :class:`EscapeError` if the ``samples * steps`` steps pass
    ``_MC_STEPS`` (2^40), before any allocation, or the array cannot be
    allocated (a sample count within the budget is within numpy's sizes)."""
    if samples * steps > _MC_STEPS:
        raise EscapeError(f"{samples} samples costing {steps} steps each "
                          f"pass the budget of {_MC_STEPS} (2^40) steps")
    try:
        return np.empty(samples, dtype=np.int64)
    except MemoryError:
        raise EscapeError(f"no memory for {samples} results") from None


def first_return_times(mu: FiniteMeasure, horizon: int, samples: int,
                       seed: int) -> np.ndarray:
    """First return time to the identity per sample; horizon+1 if none seen.

    Sample ``i`` consumes only its own (seed, i) stream, keyed once, so
    results do not depend on batching.  Each sample draws its stream in
    blocks sized by the state its walk is in; on Z, Z^2, Dinf and BS(1,-1)
    it stops drawing once no return is possible in the steps left, computes
    of a block only what the identity test reads, and sums whole blocks in
    which a walk with no flipping step cannot come back.  There the samples
    run in rounds over a pool of up to ``_POOL`` live streams (``_Rounds``):
    each round draws the next block of many streams, at most
    ``_ROUND_WORDS`` words in all unless one block alone is longer, and
    keys, gathers and scans its walked blocks as one array.  None of this
    changes a result, since a stream's words do not depend on how its
    draws are split and a sample that cannot return has time horizon+1.

    A horizon whose horizon+1 exceeds int64, a sample count whose result
    array cannot be allocated, and more than ``_MC_STEPS`` (2^40) steps in
    all (samples times horizon) are refused before any draw.
    """
    if horizon < 1 or samples < 1:
        raise EscapeError("horizon and samples must be >= 1")
    if horizon >= _INT64_MAX:
        raise EscapeError(f"horizon {horizon} too large: horizon + 1 must "
                          f"fit in int64 (at most {_INT64_MAX - 1})")
    out = _sample_results(samples, horizon)
    elems, cum = cumulative(mu)
    table = BucketTable(cum)
    # the most words one round can draw
    walk = _TwistedWalk.of(mu.spec, elems, table,
                           min(max(horizon, _ROUND_WORDS), _LARGEST_BLOCK,
                               min(_POOL, samples) * horizon))
    if walk is not None:
        _Rounds(walk, horizon, seed, out).run()
        return out
    ident, gen = groups.identity(mu.spec), None
    for i in range(samples):
        gen = sample_stream(seed, i, gen)
        states = _multiply_walk(mu.spec, elems, table, gen, horizon)
        out[i] = next((t for t, state in enumerate(states, 1)
                       if state == ident), horizon + 1)
    return out


def _binomial_ci(p_hat: float, n: int) -> tuple[float, float]:
    se = sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
    return max(0.0, p_hat - 1.96 * se), min(1.0, p_hat + 1.96 * se)


def mc_escape(mu: FiniteMeasure, horizon: int, samples: int, seed: int,
              checkpoints: Iterable[int] | None = None) -> EscapeEstimate:
    """Monte Carlo estimate of P(no return by the horizon), with 95% CI.

    Checkpoints are evaluated on the same sampled paths, so the sequence of
    estimates over nested horizons is nonincreasing by construction.
    """
    points = sorted(set(list(checkpoints or [])) | {horizon})
    if any(h < 1 or h > horizon for h in points):
        raise EscapeError("checkpoints must lie in [1, horizon]")
    taus = first_return_times(mu, horizon, samples, seed)
    ladder = []
    for h in points:
        p_hat = float(np.mean(taus > h))
        lo, hi = _binomial_ci(p_hat, samples)
        ladder.append({"horizon": h, "value": p_hat, "lo": lo, "hi": hi})
    final = ladder[-1]
    return EscapeEstimate(
        "monte-carlo", final["value"], final["lo"], final["hi"],
        horizon=horizon, samples=samples, seed=seed,
        details={"checkpoints": ladder})


def _range_bias_bound_z(mu: FiniteMeasure, n: int) -> float | None:
    """Upper bound for E[range]/n - p_escape on a drifted 1-d walk.

    The bound is ``(1 + sum_{i>=2} (i-1) m_i) / n``, ``m_i = mu^{*i}(0)``.
    For a skip-free law it is ``(1 + (1/g - 1)^2 + k/g^3) / n`` with
    ``g = P'(z_1)/D``, the escape probability, and ``k = -z_1 P''(z_1)/D``
    at the root of ``_step_root`` (the sum is ``1 + U'(1) - U(1)`` for
    ``U(s) = sum_i m_i s^i``, differentiated through the root).  It grows
    with k and falls with g, so it is evaluated exactly at the bracket's
    upper end h and rounded up.  Other laws get ``m_i <= 2 q^i``,
    ``q = exp(-rate)``, summed as ``2 q^2 / (1-q)^2`` in binary64.
    """
    if mu.spec != _Z1:
        return None
    bound = drift_bound_z(mu)
    if bound.mean == 0:
        return None
    try:
        den, slope, _, hi, _ = _step_root(mu)
    except EscapeError:  # not skip-free
        q, gap = exp(-bound.rate), -expm1(-bound.rate)
        return (1.0 + 2.0 * q * q / (gap * gap)) / n
    g = _horner(slope, hi) / den
    k = -hi * _horner(_derivative(slope), hi) / den
    total = 1 + (1 / g - 1) ** 2 + k / g ** 3
    return Bracket.of(total / n, 53).floats()[1]


def range_rate(mu: FiniteMeasure, n: int, samples: int,
               seed: int) -> EscapeEstimate:
    """Sample mean of (distinct sites)/n over n-step paths, with 95% CI.

    The finite-n range is biased upward as an estimator of the escape
    probability; when a bias bound is available (drifted 1-d lattice walks)
    it extends the interval's low side and is reported.  Paths longer than
    ``_RANGE_STEPS`` (about 4.2 million steps), a sample count whose
    results cannot be allocated, and more than ``_MC_STEPS`` (2^40) steps in
    all, each path counted as ``n + _RANGE_SAMPLE_STEPS`` steps, are refused
    before any stream is keyed or buffer allocated; on groups walked one
    ``groups.multiply`` a step, whose visited states take about 700 bytes
    each, paths longer than ``_MULTIPLY_RANGE_STEPS`` (262,144 steps) are
    refused before any is walked.
    """
    if n < 1 or samples < 1:
        raise EscapeError("n and samples must be >= 1")
    if n > _RANGE_STEPS:
        raise EscapeError(f"range paths are capped at {_RANGE_STEPS} steps, "
                          f"got n = {n}")
    sites = _sample_results(samples, n + _RANGE_SAMPLE_STEPS)
    elems, cum = cumulative(mu)
    table = BucketTable(cum)
    walk = _TwistedWalk.of(mu.spec, elems, table, n)
    if walk is None and n > _MULTIPLY_RANGE_STEPS:
        raise EscapeError(
            f"range paths on {mu.spec!r} hold every visited state and are "
            f"capped at {_MULTIPLY_RANGE_STEPS} steps, got n = {n}")
    gen = None
    if walk is None:
        ident = groups.identity(mu.spec)
        for i in range(samples):
            gen = sample_stream(seed, i, gen)
            sites[i] = len({ident, *_multiply_walk(mu.spec, elems, table,
                                                   gen, n)})
    else:  # every path in one block; its key buffer is scratch after
        present = np.empty(_PRESENCE_CELLS * (n + 1), dtype=bool)
        for i in range(samples):
            gen = sample_stream(seed, i, gen)
            path = walk.path(gen, n, (0, 0, 0))
            sites[i] = _distinct_states([path[c] for c in walk.columns],
                                        walk.key, present)
    rates = sites / n
    mean = float(rates.mean())
    sd = float(rates.std(ddof=1)) if samples > 1 else 0.0
    half = 1.96 * sd / sqrt(samples)
    bias_bound = _range_bias_bound_z(mu, n)
    lo = mean - half - (bias_bound or 0.0)
    hi = mean + half
    details: dict[str, Any] = {
        "bias_note": "finite-n range overestimates the escape probability"}
    if bias_bound is not None:
        details["bias_bound"] = bias_bound
    return EscapeEstimate("range-rate", mean, lo, hi, n=n, samples=samples,
                          seed=seed, details=details)


# ---------------------------------------------------------------------------
# dispatcher


def auto_escape(mu: FiniteMeasure, horizon: int = 100_000,
                samples: int = 2000, seed: int = 0) -> EscapeEstimate:
    """Best available estimator for a step law.  On its ``lattice_law``: a
    recurrence certificate for an exactly mean-zero walk, else the closed
    form of a skip-free walk on Z or of a nearest-neighbour walk on Z^2;
    where the lattice law or its closed form raises, Monte Carlo on ``mu``
    itself.  Unless ``horizon`` and ``samples`` are at least 1, it raises
    before any route."""
    if horizon < 1 or samples < 1:
        raise EscapeError("horizon and samples must be >= 1")
    try:
        law = lattice_law(mu)
        line = law.spec == _Z1
        if not any(sum(a * g[i] for g, a in law._atoms.items())
                   for i in range(law.spec.dim)):
            where = "on the line" if line else "in the plane"
            return recurrence_zero(
                law, f"mean-zero finite-support walk {where} is recurrent")
        if line:
            return exact_escape_drifted_z(law)
        return exact_escape_drifted_z2(law)
    except EscapeError:
        return mc_escape(mu, horizon, samples, seed)
