"""Escape-probability estimators for walks driven by finite step laws.

Three estimator families:

* ``exact_escape_drifted_z`` / ``exact_escape_drifted_z2``: truncate the
  expected-visits series ``sum_n mu^{*n}(e) = 1 / p_escape`` and close the
  tail with the exponential concentration bound
  ``mu^{*n}(e) <= 2 exp(-2 n mean^2 / (b - a)^2)`` for a drifted walk whose
  (projected) support lies in ``[a, b]``.  The result is a bracketing
  interval, not a point guess.  On the line the series is summed exactly,
  on the law's integer numerators over ``D^n`` (``D`` its shared
  denominator).
* ``mc_escape``: Monte Carlo first-return sampling with per-sample
  counter-based streams; nested horizon checkpoints are evaluated on the
  same paths, so the reported estimates are nonincreasing by construction.
* ``range_rate``: sample mean of (distinct sites visited)/n.  The finite-n
  range overestimates the escape probability; for drifted lattice walks an
  upper bound for that bias (summed in binary64) is computed from the visit
  series and its closed-form concentration tail, and widens the low side of
  the interval.

Both samplers walk Z, Z^2, Dinf and BS(1,-1) a block of steps at a time,
over twisted-lattice states on buffers allocated once per call, and any
other group one ``groups.multiply`` per step; sample ``i`` reads only its
(seed, i) stream.  ``range_rate`` scans every state of its paths.  A
first-return sample computes only what the identity test reads: it stops
drawing once no return is possible in the steps left; a walk with no
flipping step gets the end of a block too far out to return from how often
each atom came up; a walk that moves b scans b and reads a only where b is
0 (on BS(1,-1), f is b's parity, so it is 0 there too).  Its blocks start
at 64 steps and grow while it may return.
The exact route reads the same twisted-lattice steps: ``lattice_law``
rewrites a law with no flipping step as a walk on Z or Z^2, the one form
``auto_escape`` certifies or brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, exp, fsum, inf, log, prod, sqrt
from typing import Any, Iterable, Iterator

import numpy as np

from . import groups
from .groups import GroupElement, IntegerLattice
from .measures import FiniteMeasure
from .rng import DrawBuffers, cumulative, draw, sample_stream, tally

_Z1 = IntegerLattice(1)
_Z2 = IntegerLattice(2)
_FLOAT_SLACK = 1e-12
# Most exact return masses a series sums.  The integer numerators grow with
# n, so the cost grows about as the cube of the count; the pinned laws need
# at most 575 terms.
_TERM_BUDGET = 1_000
# Most terms of the binary64 series on Z^2 (E1's laws need at most 2,075).
_Z2_TERM_BUDGET = 20_000
# First-return blocks: the first walks 64 steps (criterion 3's returns all
# come by then), later ones 5 times more each, up to the buffer.  A block in
# which a flip-free walk cannot return is summed when it is _MIN_SUMMED steps
# or more.  The early stop cuts no summed block below _MIN_SUMMED steps and
# no walked block below _WALKED_FLOOR, about the fixed cost of a BS(1,-1)
# block; the blocks of a walk nearing the stop would otherwise shrink
# geometrically.
_FIRST_BLOCK, _BLOCK_GROWTH, _LARGEST_BLOCK = 64, 5, 65_536
_MIN_SUMMED, _WALKED_FLOOR = 512, 2048
# Range sites are counted in a presence array of up to this many cells per
# state of the path, and by sorting the states' keys when the spans are wider.
_PRESENCE_CELLS = 8


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

    @property
    def one_way(self) -> bool:
        """Every step moves strictly one way, so zero is never revisited."""
        return self.lo > 0 or self.hi < 0


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


def _return_masses(mu: FiniteMeasure, n_terms: int) -> tuple[int, Iterator[int]]:
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

    def numerators() -> Iterator[int]:
        dist = {0: 1}
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
            yield dist.get(0, 0)

    return den, numerators()


def return_mass_series_z(mu: FiniteMeasure, n_terms: int) -> list[Fraction]:
    """Exact masses ``mu^{*n}(0)`` for n = 0 .. n_terms on the 1-d lattice."""
    den, masses = _return_masses(mu, n_terms)
    return [Fraction(1), *(Fraction(c, den ** n)
                           for n, c in enumerate(masses, 1))]


# ---------------------------------------------------------------------------
# exact series estimators


def exact_escape_drifted_z(mu: FiniteMeasure,
                           tol: float = 1e-6) -> EscapeEstimate:
    """Bracket the escape probability of a drifted 1-d lattice walk.

    Sums the visit series exactly and closes it with the geometric tail from
    the concentration bound; the interval has width at most ``tol``.  Raises
    if the tail needs more than ``_TERM_BUDGET`` terms to reach ``tol``.
    """
    bound = drift_bound_z(mu)
    if bound.mean == 0:
        raise EscapeError("drifted walk required; the mean is exactly zero")
    if bound.one_way:
        return EscapeEstimate("exact-series", 1.0, 1.0, 1.0, n=0,
                              details={"series_lo": 1.0, "series_hi": 1.0,
                                       "tail_bound": 0.0,
                                       "mean": float(bound.mean)})
    q = exp(-bound.rate) * (1 + 1e-12)
    if q >= 1.0:
        raise EscapeError("degenerate concentration rate")
    # the width is at most tail + 2 slack, and tail = 2 q^(n+1) / (1 - q)
    room = tol - 2 * _FLOAT_SLACK
    needed = log(room * (1 - q) / 2) / log(q) - 1 if room > 0 else inf
    if needed > _TERM_BUDGET:
        raise EscapeError(f"tail needs more than {_TERM_BUDGET} terms "
                          f"to reach tol {tol}")
    # by term ceil(needed) + 1 the tail is at most q room, so the loop stops
    # there at the latest; the partial sum is series / scale with
    # scale = D^n, and int true division rounds correctly, as
    # float(Fraction) does
    n_terms = min(_TERM_BUDGET, max(1, ceil(needed) + 1))
    den, masses = _return_masses(mu, n_terms)
    series = scale = 1
    for n, c in enumerate(masses, 1):
        series = series * den + c
        scale *= den
        tail = 2.0 * q ** (n + 1) / (1.0 - q)
        s_lo = series / scale
        s_hi = s_lo + tail
        lo = 1.0 / s_hi - _FLOAT_SLACK
        hi = 1.0 / s_lo + _FLOAT_SLACK
        if hi - lo <= tol:
            break
    else:
        raise EscapeError(f"series did not converge within {n_terms} terms")
    return EscapeEstimate(
        "exact-series", (lo + hi) / 2, lo, hi, n=n,
        details={"series_lo": s_lo, "series_hi": s_hi, "tail_bound": tail,
                 "mean": float(bound.mean), "support_lo": int(bound.lo),
                 "support_hi": int(bound.hi)})


def _axis_split(mu: FiniteMeasure):
    """Split a 2-d lattice measure into axis-conditional walks."""
    if mu.spec != _Z2:
        raise EscapeError(f"expected a measure on the 2-d lattice, got {mu.spec!r}")
    denom = mu.exact_denom()
    x_atoms: list[tuple[int, float]] = []
    y_atoms: list[tuple[int, float]] = []
    for (x, y), a in mu._atoms.items():
        w = a / denom  # int true division rounds correctly
        if x and y:
            raise EscapeError("measure is not axis-aligned")
        if not x and not y:
            raise EscapeError("identity atom not supported by the 2-d series")
        if y == 0:
            x_atoms.append((x, w))
        else:
            y_atoms.append((y, w))
    if not x_atoms or not y_atoms:
        raise EscapeError("need atoms on both axes; use the 1-d estimator")
    return x_atoms, y_atoms


def _marginal_return_series(values: list[int], probs: list[float],
                            n_terms: int) -> np.ndarray:
    """P(1-d walk back at 0 after j steps), j = 0 .. n_terms (float).

    Two buffers take turns; step j writes only the positions
    ``[j * lo, j * hi]`` the walk can reach, each as the atoms'
    contributions added in atom order.
    """
    lo = min(values)
    hi = max(values)
    offset = -n_terms * min(lo, 0)  # buffer index of position 0
    size = offset + n_terms * max(hi, 0) + 1
    cur = np.zeros(size)
    nxt = np.zeros(size)
    cur[offset] = 1.0
    out = np.zeros(n_terms + 1)
    out[0] = 1.0
    for j in range(1, n_terms + 1):
        start = offset + (j - 1) * lo  # reached after j - 1 steps
        stop = offset + (j - 1) * hi + 1
        first = offset + j * lo  # reachable after j steps
        last = offset + j * hi + 1
        nxt[first:last] = 0.0
        for v, p in zip(values, probs):
            nxt[start + v:stop + v] += p * cur[start:stop]
        cur, nxt = nxt, cur
        if first <= offset < last:
            out[j] = cur[offset]
    return out


def exact_escape_drifted_z2(mu: FiniteMeasure,
                            tol: float = 1e-4) -> EscapeEstimate:
    """Bracket the escape probability of a drifted axis-aligned 2-d walk.

    Conditions on the number of steps along each axis reduce the visit
    series to binomial mixtures of two 1-d return sequences; the tail uses
    the concentration bound for the projection onto the drifted axis.  The
    series is evaluated in binary64 with a small documented slack.  Raises
    if the tail needs more than ``_Z2_TERM_BUDGET`` terms to reach ``tol``.
    """
    x_atoms, y_atoms = _axis_split(mu)
    alpha = sum(w for _, w in x_atoms)
    beta = sum(w for _, w in y_atoms)
    x_mean = sum(v * w for v, w in x_atoms)
    y_mean = sum(v * w for v, w in y_atoms)
    if x_mean == 0 and y_mean == 0:
        raise EscapeError("drifted walk required; both axis means vanish")
    # project onto the drifted axis; the projection support includes 0
    # because steps along the other axis project to 0.
    if abs(x_mean) >= abs(y_mean) and x_mean != 0:
        proj_vals = [v for v, _ in x_atoms] + [0]
        proj_mean = x_mean
    else:
        proj_vals = [v for v, _ in y_atoms] + [0]
        proj_mean = y_mean
    lo_s, hi_s = min(proj_vals), max(proj_vals)
    rate = 2.0 * proj_mean ** 2 / (hi_s - lo_s) ** 2
    q = exp(-rate) * (1 + 1e-12)
    n_terms = int(np.ceil(log(8.0 / (tol * (1 - q))) / rate) + 8)
    if n_terms > _Z2_TERM_BUDGET:
        raise EscapeError(f"tail needs {n_terms} > {_Z2_TERM_BUDGET} terms")
    x_vals = [v for v, _ in x_atoms]
    x_probs = [w / alpha for _, w in x_atoms]
    y_vals = [v for v, _ in y_atoms]
    y_probs = [w / beta for _, w in y_atoms]
    u = _marginal_return_series(x_vals, x_probs, n_terms)
    v = _marginal_return_series(y_vals, y_probs, n_terms)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_terms + 1)))))
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
        log_v = np.log(v)
    log_alpha = log(alpha)
    log_beta = log(beta)
    series = 1.0
    for n in range(1, n_terms + 1):
        j = np.arange(n + 1)
        terms = (log_fact[n] - log_fact[j] - log_fact[n - j]
                 + j * log_alpha + (n - j) * log_beta
                 + log_u[j] + log_v[n - j])
        finite = terms[np.isfinite(terms)]
        if finite.size:
            series += float(np.exp(finite).sum())
    tail = 2.0 * q ** (n_terms + 1) / (1.0 - q)
    slack = 1e-9 * series
    s_lo = series - slack
    s_hi = series + tail + slack
    lo = 1.0 / s_hi
    hi = 1.0 / s_lo
    return EscapeEstimate(
        "exact-series", (lo + hi) / 2, lo, hi, n=n_terms,
        details={"series_lo": s_lo, "series_hi": s_hi, "tail_bound": tail,
                 "projected_mean": proj_mean, "float_slack": slack})


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


class _TwistedWalk:
    """Blocks of a walk on Z, Z^2, Dinf or BS(1,-1), by prefix scans over
    the twisted-lattice states of ``_twisted_steps``, drawn and walked on
    buffers allocated once for up to ``size`` steps.

    A path holds the state before the block in slot 0 and the state after
    step j in slot j.  The columns b and f stay 0 when no step moves them.
    A walk that moves b and flips is on BS(1,-1), where every step flips
    exactly when it moves b an odd distance: f is b mod 2 at every state,
    and is not scanned.  A walk with no flipping step has ``moves`` and can
    sum a block from atom counts.
    """

    def __init__(self, steps: list[tuple[int, int, int]], cum: np.ndarray,
                 size: int) -> None:
        da, db, df = np.array(steps, dtype=np.int64).T
        self.cum = cum
        self.size = size
        self.da = da
        self.db = db if db.any() else None
        self.df = df.astype(np.int8) if df.any() else None
        self.flip_is_b_parity = self.db is not None and self.df is not None
        # the columns that tell states apart
        self.columns = ([0, 1] if self.db is not None
                        else [0, 2] if self.df is not None else [0])
        # (a, b) steps of atom 0 and the rises between neighbouring atoms
        self.moves = None if self.df is not None else (
            steps[0][:2], [(x1 - x0, y1 - y0) for (x0, y0, _), (x1, y1, _)
                           in zip(steps, steps[1:])])
        # most a and b move in one step, whatever the flip bit
        self.reach = (int(np.abs(da).max()), int(np.abs(db).max()))
        self.draws = DrawBuffers(size + 1)
        self.a = np.empty(size + 1, dtype=np.int64)
        self.b = np.zeros(size + 1, dtype=np.int64)
        self.f = np.zeros(size + 1, dtype=np.int8)

    @classmethod
    def of(cls, spec, elems: list[GroupElement], cum: np.ndarray,
           size: int) -> _TwistedWalk | None:
        """The walk of a law's atoms, or None for other groups and for steps
        too long for int64 prefix sums."""
        steps = _twisted_steps(spec, elems)
        if steps is None or max(abs(x) for step in steps for x in step) >= 1 << 31:
            return None
        return cls(steps, cum, size)

    def _indices(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return draw(self.cum, gen.random(out=self.draws.uniforms[:n]),
                    self.draws)

    def _b_column(self, idx: np.ndarray, b0: int) -> np.ndarray:
        b = self.b[:idx.size + 1]
        b[0] = b0
        self.db.take(idx, out=b[1:], mode="clip")  # mode "raise" would buffer
        return b.cumsum(out=b)

    def _flip_moves(self, moves: np.ndarray, f: np.ndarray) -> None:
        """Reverse each a-move taken while flipped: ``moves[j]`` is the move
        of a step taken in state ``f[j]`` (0 or 1).  Scratch: the indices,
        which the block has read by then."""
        sign = np.multiply(f, -2, out=self.draws.indices[:moves.size])
        sign += 1
        moves *= sign

    def path(self, gen: np.random.Generator, n: int,
             start: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
        """States (a, b, f) of the next ``n`` steps of ``gen`` from ``start``."""
        idx = self._indices(gen, n)
        a, b, f = self.a[:n + 1], self.b[:n + 1], self.f[:n + 1]
        a[0] = start[0]
        self.da.take(idx, out=a[1:], mode="clip")
        if self.db is not None:
            self._b_column(idx, start[1])
        if self.flip_is_b_parity:
            np.bitwise_and(b, 1, out=f, casting="unsafe")
        elif self.df is not None:
            f[0] = start[2]
            self.df.take(idx, out=f[1:], mode="clip")
            np.bitwise_xor.accumulate(f, out=f)
        if self.df is not None:
            self._flip_moves(a[1:], f[:-1])
        a.cumsum(out=a)
        return a, b, f

    def end(self, gen: np.random.Generator, n: int,
            start: tuple[int, int, int]) -> tuple[int, int, int]:
        """State after the next ``n`` steps of ``gen`` from ``start``, from
        how often each atom came up; for walks with ``moves`` only."""
        (a, b), rises = self.moves
        counts = tally(self.cum, gen.random(out=self.draws.uniforms[:n]),
                       self.draws)
        a, b = start[0] + n * a, start[1] + n * b
        for c, (ra, rb) in zip(counts, rises):
            a += c * ra
            b += c * rb
        return a, b, 0

    def first_hit(self, gen: np.random.Generator, n: int,
                  start: tuple[int, int, int]
                  ) -> tuple[int, tuple[int, int, int]]:
        """Slot of the first identity in the next ``n`` steps of ``gen`` from
        ``start`` (0 if none), and the state after them.

        Without a b column the path is scanned for a = 0 (and f = 0).  With
        one, f is 0 wherever b is (there is no flip, or f is b's parity), so
        only b is scanned: a at b's zeros is ``start[0]`` plus the prefix
        sums of one ``add.reduceat`` of the signed a-moves split there,
        padded by one zero move so that a zero at the block's last step
        splits too.
        """
        if self.db is None:
            a, _, f = self.path(gen, n, start)
            hits = np.equal(a[1:], 0, out=self.draws.mask[:n])
            if self.df is not None:
                hits &= np.equal(f[1:], 0, out=self.draws.counts[:n].view(bool))
            first = int(hits.argmax())  # stops at the first hit
            return (first + 1 if hits[first] else 0), (int(a[-1]), 0,
                                                       int(f[-1]))
        idx = self._indices(gen, n)
        b = self._b_column(idx, start[1])
        moves = self.a[:n + 1]
        self.da.take(idx, out=moves[:n], mode="clip")
        moves[n] = 0
        if self.df is not None:
            self._flip_moves(moves[:n], np.bitwise_and(
                b[:n], 1, out=self.draws.indices[:n]))
        splits = np.equal(b, 0, out=self.draws.mask[:n + 1])
        splits[0] = True
        splits = splits.nonzero()[0]
        a = np.add.reduceat(moves, splits).cumsum()
        hits = (a[:-1] == -start[0]).nonzero()[0]
        end_b = int(b[-1])
        end = start[0] + int(a[-1]), end_b, end_b & 1 if self.df is not None else 0
        return (int(splits[hits[0] + 1]) if hits.size else 0), end


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


def _first_return_on_walk(walk: _TwistedWalk, gen: np.random.Generator,
                          horizon: int) -> int:
    """First-return time of one stream, horizon+1 if none.

    The stream stops once no return is possible in the steps left, and a
    block stops where ``_free_steps`` says one could become impossible,
    unless that would make it shorter than a floor.  A walk with no
    flipping step that cannot return within ``_MIN_SUMMED`` steps sums a
    block of as many steps (floor ``_MIN_SUMMED``).  Otherwise it walks a
    block that starts at ``_FIRST_BLOCK`` steps and grows
    ``_BLOCK_GROWTH`` times each time (floor ``_WALKED_FLOOR``).
    """
    state, done, size = (0, 0, 0), 0, _FIRST_BLOCK
    while done < horizon:
        left = horizon - done
        free = _free_steps(state, left, walk.reach)
        if free < 0:
            return horizon + 1
        away = _unreturning_steps(state, walk.reach) if walk.moves else 0
        if away >= _MIN_SUMMED:
            n = min(away, max(free, _MIN_SUMMED), walk.size, left)
            state = walk.end(gen, n, state)
        else:
            n = min(size, max(free, _WALKED_FLOOR), left)
            hit, state = walk.first_hit(gen, n, state)
            if hit:
                return done + hit
            size = min(size * _BLOCK_GROWTH, walk.size)
        done += n
    return horizon + 1


def _first_return_by_multiply(spec, elems: list[GroupElement], cum: np.ndarray,
                              gen: np.random.Generator, horizon: int) -> int:
    """First-return time of one stream, one ``groups.multiply`` per step,
    drawn in blocks of ``_FIRST_BLOCK`` steps growing ``_BLOCK_GROWTH``
    times each up to ``_LARGEST_BLOCK``."""
    ident = groups.identity(spec)
    state, t, size = ident, 0, _FIRST_BLOCK
    while t < horizon:
        for ix in draw(cum, gen.random(min(size, horizon - t))).tolist():
            t += 1
            state = groups.multiply(spec, state, elems[ix])
            if state == ident:
                return t
        size = min(size * _BLOCK_GROWTH, _LARGEST_BLOCK)
    return horizon + 1


def first_return_times(mu: FiniteMeasure, horizon: int, samples: int,
                       seed: int) -> np.ndarray:
    """First return time to the identity per sample; horizon+1 if none seen.

    Sample ``i`` consumes only its own (seed, i) stream, so results do not
    depend on batching.  Each sample draws its stream in blocks sized by
    the state its walk is in; on Z, Z^2, Dinf and BS(1,-1) it stops
    drawing once no return is possible in the steps left, computes of a
    block only what the identity test reads, and sums whole blocks in
    which a walk with no flipping step cannot come back.  None of this
    changes a result, since a stream's uniforms do not depend on how its
    draws are split and a sample that cannot return has time horizon+1.
    """
    if horizon < 1 or samples < 1:
        raise EscapeError("horizon and samples must be >= 1")
    elems, cum = cumulative(mu)
    walk = _TwistedWalk.of(mu.spec, elems, cum, min(horizon, _LARGEST_BLOCK))
    out = np.empty(samples, dtype=np.int64)
    gen = None
    for i in range(samples):
        gen = sample_stream(seed, i, gen)
        out[i] = (_first_return_on_walk(walk, gen, horizon)
                  if walk is not None
                  else _first_return_by_multiply(mu.spec, elems, cum, gen,
                                                 horizon))
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

    The bound is ``(1 + sum_{i>=2} (i-1) mu^{*i}(0)) / n``: exact masses for
    ``i < c``, and from ``c`` on the concentration bound
    ``mu^{*i}(0) <= 2 q^i``, ``q = exp(-rate)``, summed in closed form,
    ``sum_{i>=c} (i-1) 2 q^i = 2 q^c ((c-1)(1-q) + q) / (1-q)^2``.  The cut
    is ``c - 1 = ceil(24 / rate)``, at most ``_TERM_BUDGET``.  The terms are
    rounded to binary64 (``q`` too, without directed rounding) and summed
    with ``fsum``, so the bound holds up to their rounding.
    """
    try:
        bound = drift_bound_z(mu)
    except EscapeError:
        return None
    if bound.mean == 0:
        return None
    if bound.one_way:
        return 1.0 / n  # only the origin is ever recounted
    rate = bound.rate
    q = exp(-rate)
    cut = min(max(8, int(np.ceil(24.0 / rate))), _TERM_BUDGET)
    den, masses = _return_masses(mu, cut)
    terms = [1.0]
    scale = 1
    for i, num in enumerate(masses, 1):
        scale *= den
        terms.append((i - 1) * (num / scale))  # as float(Fraction(num, scale))
    c = cut + 1
    terms.append(2.0 * q ** c * ((c - 1) * (1.0 - q) + q) / (1.0 - q) ** 2)
    return fsum(terms) / n


def range_rate(mu: FiniteMeasure, n: int, samples: int,
               seed: int) -> EscapeEstimate:
    """Sample mean of (distinct sites)/n over n-step paths, with 95% CI.

    The finite-n range is biased upward as an estimator of the escape
    probability; when a bias bound is available (drifted 1-d lattice walks)
    it extends the interval's low side and is reported.
    """
    if n < 1 or samples < 1:
        raise EscapeError("n and samples must be >= 1")
    elems, cum = cumulative(mu)
    walk = _TwistedWalk.of(mu.spec, elems, cum, n)
    sites, gen = [], None
    if walk is None:  # one groups.multiply per step
        ident = groups.identity(mu.spec)
        for i in range(samples):
            gen = sample_stream(seed, i, gen)
            state, seen = ident, {ident}
            for ix in draw(cum, gen.random(n)).tolist():
                state = groups.multiply(mu.spec, state, elems[ix])
                seen.add(state)
            sites.append(len(seen))
    else:  # every path in one block
        key = np.empty(n + 1, dtype=np.int64)
        present = np.empty(_PRESENCE_CELLS * (n + 1), dtype=bool)
        for i in range(samples):
            gen = sample_stream(seed, i, gen)
            path = walk.path(gen, n, (0, 0, 0))
            sites.append(_distinct_states([path[c] for c in walk.columns],
                                          key, present))
    rates = np.array(sites) / n
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


def auto_escape(mu: FiniteMeasure, tol: float = 1e-6,
                horizon: int = 100_000, samples: int = 2000,
                seed: int = 0) -> EscapeEstimate:
    """Best available estimator for a step law.  On its ``lattice_law``: a
    recurrence certificate for an exactly mean-zero walk, else the exact
    series; where either raises, Monte Carlo on ``mu`` itself."""
    try:
        law = lattice_law(mu)
        line = law.spec == _Z1
        if not any(sum(a * g[i] for g, a in law._atoms.items())
                   for i in range(law.spec.dim)):
            where = "on the line" if line else "in the plane"
            return recurrence_zero(
                law, f"mean-zero finite-support walk {where} is recurrent")
        if line:
            return exact_escape_drifted_z(law, tol)
        return exact_escape_drifted_z2(law, max(tol, 1e-4))
    except EscapeError:
        return mc_escape(mu, horizon, samples, seed)
