"""Entropy ladders, trajectory enumerations, and partition views.

The entropy ladder of a step law is the sequence ``H(mu^{*n})`` together
with the ratios ``H_n / n`` and increments ``d_n = H_{n+1} - H_n``.  In
rational mode every ladder value is carried as an exact log-linear form, so
the ladder invariants (subadditivity, nonincreasing increments, and
``d_n <= H_n / n``) are decided exactly; the float ladders of perturbed step
laws (E7) are checked to the slack ``FLOAT_SLACK``.  ``entropy_ladders``
builds the ladders of laws that share a support together, one power at a
time (:func:`measures.family_powers`: one product table of integer rows per
power on the specs that encode), and reads each value, form and weight
bracket from the power's weight arrays.  Each invariant is
written once, as an expression over ``H_0 .. H_n`` that serves both modes.
The float radial ladder of the free group carries outward-rounded binary64
ends around each value instead, from which its checks are decided.  One
binary64 kernel (``_entropy_ends``) computes those ends and also encloses
each exact ladder value from its weight vector, so a check is settled
without a multi-precision log unless its bracket contains 0.
``EntropyLadder.summary`` is the one plain-data record of a ladder that
experiment reports and the command line print, and ``csv_row`` is its one
CSV line.

A trajectory enumeration lists every length-``n`` increment sequence with
its exact weight; partition views are callables ``view(enum, t)`` that label
trajectories, and view entropies give conditional-entropy identities
something concrete to hold on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, product as iter_product
from typing import Any, Callable, Hashable, Iterator, Sequence

import numpy as np
from mpmath.libmp import from_float, to_float

from . import groups, measures
from .exact_entropy import LogLinear, _log_at, entropy_form
from .intervals import Bracket
from .measures import FiniteMeasure, MeasureError, SupportCapError

FLOAT_SLACK = 1e-9
DEFAULT_ENUM_CAP = 10_000_000


# ---------------------------------------------------------------------------
# entropy ladders


@dataclass
class LadderCheck:
    name: str
    index: tuple[int, ...]
    ok: bool
    detail: str = ""


class EntropyLadder:
    """Values ``H_0 .. H_n`` of a walk's entropy along convolution powers,
    with their exact forms or, for an enclosed float ladder, binary64
    ``(lo, hi)`` ends around each value."""

    def __init__(self, label: str, values: list[float],
                 forms: list[LogLinear] | None = None,
                 bounds: list[tuple[float, float]] | None = None):
        self.label = label
        self.values = values
        self.forms = forms
        self.bounds = bounds

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    @property
    def exact(self) -> bool:
        return self.forms is not None

    def diffs(self) -> list[float]:
        return [self.values[n + 1] - self.values[n]
                for n in range(len(self.values) - 1)]

    def to_rows(self) -> list[dict[str, Any]]:
        rows = []
        for n, h in enumerate(self.values):
            rows.append({
                "n": n,
                "H": h,
                "ratio": h / n if n else float("nan"),
                "diff": self.values[n + 1] - h if n + 1 < len(self.values) else float("nan"),
            })
        return rows

    @staticmethod
    def sum_of(a: "EntropyLadder", b: "EntropyLadder", label: str) -> "EntropyLadder":
        """Ladder of an independent product, by additivity of entropy."""
        n = min(a.n_max, b.n_max)
        values = [a.values[i] + b.values[i] for i in range(n + 1)]
        forms = None
        if a.forms is not None and b.forms is not None:
            forms = [a.forms[i] + b.forms[i] for i in range(n + 1)]
        return EntropyLadder(label, values, forms)

    # -- invariants ---------------------------------------------------------

    def verify(self) -> list[LadderCheck]:
        """Check subadditivity, nonincreasing diffs, and d_n <= H_n/n.

        Exact ladders are decided exactly: each check is first evaluated on
        the enclosures of ``H_0 .. H_n`` alone.  A form built by
        :func:`entropy_ladder` or :func:`free_group_srw_ladder` carries the
        binary64 bracket of its weight vector (:func:`_entropy_ends`); any
        other is enclosed once from its coefficients at 80 bits.  Only a
        check whose interval contains 0 is built from the forms'
        coefficients, whose ``sign()`` evaluates them at 80 to 2560 bits
        and reaches the exact zero test on ties.  Float ladders allow
        ``FLOAT_SLACK`` slack.
        """
        if self.forms is not None:
            bounds = [form.enclosure_only() for form in self.forms]
        checks: list[LadderCheck] = []
        for name, index, expr in _ladder_checks(self.n_max):
            if self.forms is not None:
                probe = expr(bounds)
                if not probe.enclosure_sign():
                    probe = expr(self.forms)
                sign = probe.sign()
                ok = sign >= 0
                detail = "" if ok else f"exact sign {sign}"
            else:
                value = expr(self.values)
                ok = value >= -FLOAT_SLACK
                detail = "" if ok else f"value {value:.3e}"
            checks.append(LadderCheck(name, index, ok, detail))
        return checks

    def summary(self) -> dict[str, Any]:
        """Rows, depth and the verdict of :meth:`verify`, as plain data."""
        failed = [f"{c.name}{c.index}" for c in self.verify() if not c.ok]
        return {
            "measure": self.label,
            "n_max": self.n_max,
            "exact": self.exact,
            "rows": self.to_rows(),
            "invariants_pass": not failed,
            "failed_checks": failed,
        }


def _ladder_checks(n_max: int) -> Iterator[tuple[str, tuple[int, ...], Callable]]:
    """The ladder invariants as ``(name, index, expr)``: ``expr(h)`` over
    ``h = H_0 .. H_n`` (forms or floats) is the quantity that must be >= 0."""
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1 - n):
            yield ("subadditivity", (n, m),
                   lambda h, n=n, m=m: h[n] + h[m] - h[n + m])
    for n in range(n_max - 1):
        # d_n - d_{n+1}
        yield ("diff-nonincreasing", (n,),
               lambda h, n=n: (h[n + 1] - h[n]) - (h[n + 2] - h[n + 1]))
    for n in range(1, n_max):
        # H_n/n - d_n
        yield ("diff-below-average", (n,),
               lambda h, n=n: h[n] / n - (h[n + 1] - h[n]))


def csv_row(row: dict[str, Any]) -> str:
    """One ladder row as the CSV fields ``n,H,ratio,diff``."""
    return f"{row['n']},{row['H']!r},{row['ratio']!r},{row['diff']!r}"


def entropy_ladder(mu: FiniteMeasure, n_max: int,
                   cap: int = measures.DEFAULT_SUPPORT_CAP,
                   label: str | None = None) -> EntropyLadder:
    """Ladder of ``mu`` up to ``n_max`` convolution powers:
    :func:`entropy_ladders` of ``mu`` alone."""
    return entropy_ladders([mu], n_max, cap, [label])[0]


def entropy_ladders(laws: Sequence[FiniteMeasure], n_max: int,
                    cap: int = measures.DEFAULT_SUPPORT_CAP,
                    labels: Sequence[str | None] | None = None
                    ) -> list[EntropyLadder]:
    """Ladders of ``laws`` up to ``n_max`` convolution powers, in order,
    each equal to its law's own ladder.

    Laws on one spec, in one weight mode and with one support set form a
    family, whose powers share their support: the family's ladders are
    built in lockstep, one power at a time, by
    :func:`measures.family_powers`: one product table of integer rows per
    power on an encoded spec, :func:`measures.convolve` law by law on any
    other.  Each exact power's form is enclosed from its binary64 weights
    ``a / D`` (:func:`_weight_brackets`; each rounds correctly) when its law
    has mass at most 1, as every power then has.  If the support cap is hit,
    the cap error propagates annotated with the largest completed power,
    which is the same for every member of the family.
    """
    if n_max < 1:
        raise MeasureError("n_max must be >= 1")
    labels = list(labels or [None] * len(laws))
    families: dict[tuple, list[int]] = {}
    for i, mu in enumerate(laws):
        key = (mu.spec, mu.exact, frozenset(mu._atoms))
        families.setdefault(key, []).append(i)
    built: dict[int, EntropyLadder] = {}
    for members in families.values():
        rows = _family_ladders([laws[i] for i in members], n_max, cap)
        for i, (values, forms) in zip(members, rows):
            label = labels[i] or f"ladder({len(laws[i])} atoms)"
            built[i] = EntropyLadder(label, values, forms)
    return [built[i] for i in range(len(laws))]


def _family_ladders(family: list[FiniteMeasure], n_max: int, cap: int
                    ) -> list[tuple[list[float], list[LogLinear] | None]]:
    """Values and, for exact laws, enclosed forms of the ladders of a
    family of :func:`entropy_ladders`, read from each power's weight arrays
    (:func:`measures.family_powers`)."""
    exact = family[0].exact
    values: list[list[float]] = [[0.0] for _ in family]
    forms: list[list[LogLinear]] = [[LogLinear.zero()] for _ in family]
    enclosed = [exact and sum(mu._atoms.values()) <= mu.denom
                for mu in family]
    for power in measures.family_powers(family, n_max, cap):
        qs = [measures.float_weights(w, denom) for w, denom in power]
        for vals, q in zip(values, qs):
            vals.append(measures.entropy_of(q.tolist()))
        if not exact:
            continue
        kept = [q for q, enclose in zip(qs, enclosed) if enclose]
        # H <= log N + 1/e for mass at most 1 over N atoms
        brackets = iter(_weight_brackets(
            kept, [len(q).bit_length() + 1 for q in kept]))
        for fs, (w, denom), enclose in zip(forms, power, enclosed):
            form = entropy_form(w.tolist(), denom)
            if enclose:
                form.enclosure = next(brackets)
            fs.append(form)
    return [(vals, fs if exact else None) for vals, fs in zip(values, forms)]


# ---------------------------------------------------------------------------
# the radial ladder of the simple walk on a free group


def _radial_chain(rank: int, exact: bool) -> Iterator[np.ndarray]:
    """Laws of the word length after n = 0, 1, 2, ... simple-walk steps,
    each on the lengths ``k = n % 2, n % 2 + 2, ..., n`` that the walk can
    reach: an array of Fractions (dtype object) or of floats.

    The distance process is the birth-death chain on 0, 1, 2, ... stepping
    0 -> 1 surely and k -> k+1 with probability (2d-1)/2d, k -> k-1 with
    probability 1/2d for k >= 1.  Each step is ``next[k] = law[k-1] * up +
    law[k+1] * down`` on array slices of the law on every length to n.
    """
    if rank < 1:
        raise MeasureError("rank must be >= 1")
    two_d = 2 * rank
    if exact:
        up = Fraction(two_d - 1, two_d)
        down = Fraction(1, two_d)
        dist = np.array([Fraction(1)], dtype=object)
    else:
        up = (two_d - 1) / two_d
        down = 1 / two_d
        dist = np.array([1.0])
    for n in count():
        yield dist[n % 2::2]
        nxt = np.empty(len(dist) + 1, dtype=dist.dtype)
        nxt[0] = dist[0] * 0
        nxt[1:] = dist * up
        nxt[1] = dist[0]
        nxt[:-2] += dist[1:] * down
        dist = nxt


def sphere_size(rank: int, k: int) -> int:
    if k == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (k - 1)


def free_group_srw_ladder(rank: int, n_max: int,
                          exact: bool = False) -> EntropyLadder:
    """Entropy ladder of the uniform-generator walk via the radial chain.

    Conditioned on its distance the walk is uniform on the sphere, so
    ``H_n = sum_k q_k (log S_k - log q_k)`` over the distance law ``q`` and
    the sphere sizes ``S_k``.  Exact ladders carry these as forms, each
    built in one pass and enclosed from its binary64 weights
    (:func:`_entropy_ends`); float ladders carry binary64 ends
    ``lo_n <= H_n <= hi_n`` in ``bounds`` (:func:`_radial_brackets`) and
    their midpoints as values.
    """
    if rank < 1:
        raise MeasureError("rank must be >= 1")
    if n_max < 0:
        raise MeasureError("n_max must be >= 0")
    label = f"free({rank}) srw radial"
    if not exact:
        lo, hi = _radial_brackets(rank, n_max)
        return EntropyLadder(label, ((lo + hi) / 2).tolist(),
                             bounds=list(zip(lo.tolist(), hi.tolist())))
    log_2d, log_sphere = _log_spheres(rank, n_max)
    values = [0.0]
    forms = [LogLinear.zero()]
    chain = islice(_radial_chain(rank, True), 1, n_max + 1)
    for n, dist in enumerate(chain, 1):
        weights = dist.tolist()
        coeffs = entropy_form(weights).coeffs
        for k, q in zip(count(n % 2, 2), weights):
            s = sphere_size(rank, k)
            coeffs[s] = coeffs.get(s, 0) + q
        form = LogLinear(coeffs)  # drops log S_0 = log 1
        # the weights, each rounded once from its Fraction
        q = np.array(weights, dtype=float)
        form.enclosure, = _weight_brackets([q], [n * log_2d],
                                           [log_sphere[n % 2:n + 1:2]])
        forms.append(form)
        values.append(form.to_float())
    return EntropyLadder(label, values, forms)


_U = 2.0 ** -53             # binary64 unit roundoff
_TINY = 2.0 ** -1000        # weights below this are left out of H_n
_BATCH = 8192               # chain entries per vector batch
_SQRT_HALF = 0.5 ** 0.5
# log m = 2 atanh t = 2t sum_i t^(2i) / (2i + 1), t = (m - 1) / (m + 1)
_ATANH = tuple(1 / (2 * i + 1) for i in range(12))
# roundings behind one term q (L - log q); see _entropy_ends
_TERM_ROUNDINGS = 21 * len(_ATANH) + 19


def _gamma(k):
    """Higham's ``gamma_k = k u / (1 - k u)``: ``k`` roundings of a value
    leave it within a factor ``1 +- gamma_k``."""
    return k * _U / (1 - k * _U)


def _log_float(m: int) -> float:
    """``log m`` to nearest from its 80-bit bracket: within a factor
    ``1 +- 2u``."""
    return 0.0 if m == 1 else to_float(_log_at(m, 80)[0])


def _log_spheres(rank: int, n_max: int) -> tuple[float, np.ndarray]:
    """``log 2d`` and ``L_k = log S_k`` for ``k = 0 .. n_max`` in binary64,
    ``L_k`` within ``gamma_4`` of its value."""
    log_2d, log_odd = _log_float(2 * rank), _log_float(2 * rank - 1)
    log_sphere = log_2d + np.arange(-1, n_max) * log_odd
    log_sphere[0] = 0.0
    return log_2d, log_sphere


def _entropy_ends(q: np.ndarray, log_s, sizes, g, cap,
                  extra=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Binary64 ends ``lo_i <= H_i <= hi_i`` of the sums
    ``H_i = sum_k q_k (L_k - log q_k)``, one over each of the consecutive
    segments of the weight vector ``q^`` whose lengths ``n_i`` are
    ``sizes``.

    The caller vouches for four facts about segment ``i``, with ``u =
    2^-53`` and ``gamma_k`` as in :func:`_gamma` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 3 and 5):

    * every ``q^_k`` is within a factor ``1 +- g_i`` of the exact weight
      ``q_k``, except for errors of the weights that move ``H_i`` by at most
      ``extra_i`` in all (underflow, or weights left out as ``q^_k = 0``);
    * ``sum q_k <= 1`` and ``0 <= H_i <= cap_i``, and ``f(x) = x (L_k -
      log x) >= 0`` at ``q_k``;
    * ``L_k = log S_k >= 0`` (``log_s``, an array or ``0``) is within
      ``gamma_4`` of its binary64 value;
    * ``q^_k < sqrt(2)``, and ``L_k >= log 2`` wherever ``q^_k > 1``.

    ``S_i``, the binary64 sum of the computed terms, then lies within
    ``R_i`` of ``H_i``, and the ends are ``S_i -+ R_i`` rounded outward.
    ``R_i`` bounds three errors.

    * The weights.  With ``f(q (1 + theta)) - f(q) = theta f(q) - q (1 +
      theta) log(1 + theta)``, ``sum f(q_k) = H_i <= cap_i`` and ``sum q_k
      <= 1``, rounded weights move the sum by at most ``g_i (cap_i + (1 +
      g_i) / (1 - g_i))``.
    * The terms.  ``q^ = m 2^e`` with ``frexp`` and the doubling of ``m``
      exact, ``m`` in ``[sqrt(1/2), sqrt(2))``; ``q^ < sqrt(2)``, so ``e <=
      0``.  ``m - 1`` is exact (Sterbenz), so ``t = (m - 1) / (m + 1)``
      carries 2 roundings and ``s = t^2`` 5.  Horner on positive data with
      rounded coefficients keeps ``sum_i c_i s^i`` within ``gamma_{7N}``
      relative (``N = 12`` terms), and ``|t| < 0.1716`` puts the series'
      tail below ``2^-65`` of it, so ``M = log m = 2 t sum_i c_i s^i`` is
      within ``gamma_{7N+4}``.  ``L`` and ``E = e log 2`` (``log 2`` within
      ``2u``) are within ``gamma_4`` and ``gamma_3``, and ``L - E = L +
      |E|`` adds nonnegative values.  ``V = L + |E| - M`` is at least ``(L
      + |E| + |M|) / 3``: ``|M| < (log 2) / 2 <= |E| / 2`` when ``e < 0``;
      when ``e = 0``, either ``q^ <= 1``, so ``M <= 0`` and ``V = L + |M|``
      (``V = |M|`` where ``L = 0``), or ``0 < M < (log 2) / 2 <= L / 2``.
      So each computed term is within ``eps_t = gamma_{21N+19}`` of ``q^_k
      V`` relative, and nonnegative; a zero weight gives an exact zero
      term.
    * The sum.  Any order of summing ``n_i`` nonnegative terms is within
      ``gamma_{n_i - 1}`` of their sum; with ``e_i`` the two relative bounds
      added, that part is at most ``e_i S_i / (1 - e_i)``.

    ``R_i = g_i (cap_i + (1 + g_i) / (1 - g_i)) + e_i S_i / (1 - e_i) +
    extra_i`` is evaluated in binary64 from a few roundings of positive
    values, so a factor ``1 + 2^-20`` covers its own rounding, that of
    ``cap_i``, and the product of the two relative bounds in ``e_i``.
    """
    m, e = np.frexp(q)
    low = m < _SQRT_HALF
    m *= 1 + low
    e -= low
    t = (m - 1) / (m + 1)
    s = t * t
    p = s * _ATANH[-1]
    for c in _ATANH[-2:0:-1]:
        p += c
        p *= s
    p += 1
    terms = q * ((log_s - e * _log_float(2)) - 2 * t * p)
    sums = np.add.reduceat(terms, np.cumsum(sizes) - sizes)
    e_i = _gamma(sizes - 1) + _gamma(_TERM_ROUNDINGS)
    rad = (g * (cap + (1 + g) / (1 - g)) + e_i * sums / (1 - e_i)
           + extra) * (1 + 2.0 ** -20)
    return np.nextafter(sums - rad, -np.inf), np.nextafter(sums + rad, np.inf)


def _weight_brackets(qs: list[np.ndarray], caps: list,
                     log_s: list | None = None) -> list[Bracket | None]:
    """Per weight vector ``q^``, the bracket of ``H = sum_k q_k (L_k - log
    q_k)`` with ``L = 0`` or the matching entry of ``log_s``, from the
    binary64 weights ``q^_k``, each the correct rounding of its exact
    ``q_k``, with ``sum q_k <= 1`` and ``H <= cap``; None if a weight lies
    below ``2^-1000``.  The vectors kept are enclosed in one segmented call
    of :func:`_entropy_ends`.

    Every ``q^_k`` is then a normal number, so ``|theta_k| <= u <=
    gamma_1``; ``q_k <= 1`` rounds to ``q^_k <= 1``, and ``L_k >= 0`` makes
    ``f >= 0`` on ``[0, 1]``: with ``log_s`` (``L_k``) within ``gamma_4``,
    the facts :func:`_entropy_ends` asks for.
    """
    kept = [i for i, q in enumerate(qs) if q.min() >= _TINY]
    out: list[Bracket | None] = [None] * len(qs)
    if not kept:
        return out
    lo, hi = _entropy_ends(
        np.concatenate([qs[i] for i in kept]),
        0.0 if log_s is None else np.concatenate([log_s[i] for i in kept]),
        np.array([len(qs[i]) for i in kept]), _gamma(1),
        np.array([caps[i] for i in kept], dtype=float))
    for i, a, b in zip(kept, lo.tolist(), hi.tolist()):
        out[i] = Bracket(from_float(a), from_float(b))
    return out


def _radial_batches(rank: int, n_max: int) -> Iterator[tuple[int, list]]:
    """``(n0, laws)``: the binary64 chain's laws for ``n = n0, n0 + 1,
    ...``, at most ``_BATCH`` entries a batch unless one law alone is
    longer."""
    batch: list[np.ndarray] = []
    size = 0
    for n, q in enumerate(islice(_radial_chain(rank, False), n_max + 1)):
        if batch and size + len(q) > _BATCH:
            yield n - len(batch), batch
            batch, size = [], 0
        batch.append(q)
        size += len(q)
    yield n_max + 1 - len(batch), batch


def _radial_brackets(rank: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Binary64 ends ``lo_n <= H_n <= hi_n`` for ``n = 0 .. n_max``.

    :func:`_entropy_ends` encloses each ``H_n`` from the chain's positive
    entries ``q^_k >= 2^-1000`` at depth ``n``, with ``L_k = log S_k``,
    ``cap_n = n log 2d`` (``H_n`` is at most the log of the ``(2d)^n``
    paths), and ``g_n`` and ``extra_n`` from the chain.  A step rounds each
    product and each sum once; ``up`` and ``down`` are exact when ``2d`` is
    a power of two and carry one more rounding otherwise, so ``c = 2`` or
    ``3`` roundings a step.  The exact step has nonnegative coefficients
    and keeps the mass, so by induction ``q^_k = q_k (1 + theta_k) +
    eps_k`` with ``|theta_k| <= g_n = gamma_{cn}``, where ``eps`` collects
    underflow: each product loses at most ``2^-1074`` and a step does not
    grow the 1-norm, so ``sum |eps_k| <= (n + 2)^2 2^-1072``.  Hence
    ``q^_k < sqrt(2)``; ``L_k >= log 2d >= log 2`` for ``k >= 1``, and
    ``q^_0`` is 1 at ``n = 0`` and below ``(1 + g_n) / 2d + 2^-1000 < 1``
    later, since distance 0 is entered from 1 with probability ``1/2d``.
    Where ``q^_k >= 2^-1000``, ``|f'| <= n log 2d + 695`` on the segment
    ``eps_k`` spans; the entries left out have ``q_k < 2^-999`` and
    ``f(q_k) <= 2^-999 (n log 2d + 693)``.  Both underflow parts lie below
    ``extra_n = (n + 2)^2 (n log 2d + 700) 2^-998``.
    """
    two_d = 2 * rank
    log_2d, log_sphere = _log_spheres(rank, n_max)
    n = np.arange(n_max + 1, dtype=float)
    g = _gamma((2 if two_d & (two_d - 1) == 0 else 3) * n)
    cap = n * log_2d
    extra = (n + 2) ** 2 * (cap + 700) * 2.0 ** -998
    lo, hi = np.empty(n_max + 1), np.empty(n_max + 1)
    for n0, slices in _radial_batches(rank, n_max):
        q = np.concatenate(slices)
        q[q < _TINY] = 0.0
        log_s = np.concatenate([log_sphere[n % 2:n + 1:2]
                                for n in range(n0, n0 + len(slices))])
        sizes = np.array([len(x) for x in slices])
        b = slice(n0, n0 + len(slices))
        lo[b], hi[b] = _entropy_ends(q, log_s, sizes, g[b], cap[b], extra[b])
    return lo, hi


# ---------------------------------------------------------------------------
# trajectories


class TrajectoryEnumeration:
    """All length-n increment sequences of a step law with exact weights."""

    def __init__(self, mu: FiniteMeasure, n: int,
                 cap: int = DEFAULT_ENUM_CAP):
        if n < 0:
            raise MeasureError("n must be >= 0")
        size = len(mu) ** n
        if size > cap:
            raise SupportCapError(
                f"enumeration of {size} trajectories exceeds cap {cap}")
        self.mu = mu
        self.n = n
        elems = [g for g, _ in mu.atoms()]
        self.atom_weights = [w for _, w in mu.atoms()]
        self.seqs = list(iter_product(range(len(elems)), repeat=n))
        weights = []
        positions = []
        ident = groups.identity(mu.spec)
        for seq in self.seqs:
            w = Fraction(1)
            pos = ident
            poss = []
            for idx in seq:
                w = w * self.atom_weights[idx]
                pos = groups.multiply(mu.spec, pos, elems[idx])
                poss.append(pos)
            weights.append(w)
            positions.append(tuple(poss))
        self.weights = weights          # weight of each trajectory
        self.positions = positions      # (w_1, .., w_n) per trajectory

    def total(self):
        return sum(self.weights)


# ---------------------------------------------------------------------------
# partition views


# A labelling ``view(enum, t)`` of trajectories; equal labels mean the same
# partition class.
PartitionView = Callable[[TrajectoryEnumeration, int], Hashable]


def position_view(i: int) -> PartitionView:
    """The walk position after step i (i >= 1)."""
    if i < 1:
        raise MeasureError("position index must be >= 1")
    return lambda enum, t: enum.positions[t][i - 1]


def increment_view(i: int) -> PartitionView:
    """The i-th increment (i >= 1)."""
    if i < 1:
        raise MeasureError("increment index must be >= 1")
    return lambda enum, t: enum.seqs[t][i - 1]


def endpoint_view() -> PartitionView:
    return lambda enum, t: enum.positions[t][-1]


def coarse_view(t0: int) -> PartitionView:
    """Positions at multiples of t0."""
    if t0 < 1:
        raise MeasureError("t0 must be >= 1")
    return lambda enum, t: tuple(enum.positions[t][i - 1]
                                 for i in range(t0, enum.n + 1, t0))


def joint_view(*views: PartitionView) -> PartitionView:
    return lambda enum, t: tuple(view(enum, t) for view in views)


def _label_weights(enum: TrajectoryEnumeration, view: PartitionView) -> dict:
    out: dict[Hashable, Any] = {}
    for idx, w in enumerate(enum.weights):
        lab = view(enum, idx)
        out[lab] = out.get(lab, 0) + w
    return out


def view_entropy_form(enum: TrajectoryEnumeration,
                      view: PartitionView) -> LogLinear:
    return entropy_form(Fraction(w) for w in _label_weights(enum, view).values())


def conditional_entropy_form(enum: TrajectoryEnumeration, a: PartitionView,
                             b: PartitionView) -> LogLinear:
    return view_entropy_form(enum, joint_view(a, b)) - view_entropy_form(enum, b)


# ---------------------------------------------------------------------------
# coarse entropy


def coarse_entropy(mu: FiniteMeasure, n: int, t0: int,
                   cap: int = measures.DEFAULT_SUPPORT_CAP) -> float:
    """Entropy of the coarse record: floor(n/t0) * H(mu^{*t0})."""
    if t0 < 1 or n < t0:
        raise MeasureError("need 1 <= t0 <= n")
    block = measures.convolution_power(mu, t0, cap)
    return (n // t0) * measures.entropy(block)


def coarse_entropy_form(mu: FiniteMeasure, n: int, t0: int,
                        cap: int = measures.DEFAULT_SUPPORT_CAP) -> LogLinear:
    if t0 < 1 or n < t0:
        raise MeasureError("need 1 <= t0 <= n")
    block = measures.convolution_power(mu, t0, cap)
    return measures.exact_entropy(block).scale(n // t0)
