"""Entropy ladders, trajectory enumerations, and partition views.

The entropy ladder of a step law is the sequence ``H(mu^{*n})`` together
with the ratios ``H_n / n`` and increments ``d_n = H_{n+1} - H_n``.  In
rational mode every ladder value is carried as an exact log-linear form, so
the ladder invariants (subadditivity, nonincreasing increments, and
``d_n <= H_n / n``) are decided exactly; in float mode they are checked to a
small documented slack.  Each invariant is written once, as an expression
over ``H_0 .. H_n`` that serves both modes.  ``EntropyLadder.summary`` is
the one plain-data record of a ladder that experiment reports, the command
line and the scripts print, and ``csv_row`` is its one CSV line.

A trajectory enumeration lists every length-``n`` increment sequence with
its exact weight; partition views are callables ``view(enum, t)`` that label
trajectories, and view entropies give conditional-entropy identities
something concrete to hold on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product as iter_product
from math import log
from typing import Any, Callable, Hashable, Iterator

import numpy as np

from . import groups, measures
from .exact_entropy import LogLinear, entropy_form
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
    """Values ``H_0 .. H_n`` of a walk's entropy along convolution powers."""

    def __init__(self, label: str, values: list[float],
                 forms: list[LogLinear] | None = None):
        self.label = label
        self.values = values
        self.forms = forms

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

        Exact ladders are decided exactly: ``H_0 .. H_n`` are enclosed once
        in outward-rounded intervals and each check is first evaluated on
        those enclosures alone.  Only a check whose interval contains 0 is
        built from the forms' coefficients, whose ``sign()`` re-evaluates
        them and reaches the exact zero test on ties.  Float ladders allow
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
    """Ladder of ``mu`` up to ``n_max`` convolution powers.

    If the support cap is hit, the cap error propagates annotated with the
    largest completed power.
    """
    if n_max < 1:
        raise MeasureError("n_max must be >= 1")
    label = label or f"ladder({len(mu)} atoms)"
    values = [0.0]
    forms: list[LogLinear] | None = [LogLinear.zero()] if mu.exact else None
    cur = mu
    for n in range(1, n_max + 1):
        if n > 1:
            try:
                cur = measures.convolve(cur, mu, cap)
            except SupportCapError as exc:
                raise SupportCapError(f"{exc} (largest completed power {n - 1})",
                                      completed=n - 1) from exc
        values.append(measures.entropy(cur))
        if forms is not None:
            forms.append(measures.exact_entropy(cur))
    return EntropyLadder(label, values, forms)


# ---------------------------------------------------------------------------
# the radial ladder of the simple walk on a free group


def _radial_chain(rank: int, exact: bool) -> Iterator[np.ndarray]:
    """Laws of the word length after n = 0, 1, 2, ... simple-walk steps.

    The distance process is the birth-death chain on 0, 1, 2, ... stepping
    0 -> 1 surely and k -> k+1 with probability (2d-1)/2d, k -> k-1 with
    probability 1/2d for k >= 1.  The law after n steps has length n + 1:
    an array of Fractions (dtype object) or of floats.  Each step is
    ``next[j] = law[j-1] * up + law[j+1] * down`` on array slices.
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
    while True:
        yield dist
        nxt = np.empty(len(dist) + 1, dtype=dist.dtype)
        nxt[0] = dist[0] * 0
        nxt[1:] = dist * up
        nxt[1] = dist[0]
        nxt[:-2] += dist[1:] * down
        dist = nxt


def free_group_distance_distribution(rank: int, n: int,
                                     exact: bool = False) -> list[Any]:
    """Law of the word-length after ``n`` steps of the simple walk."""
    return next(islice(_radial_chain(rank, exact), n, None)).tolist()


def sphere_size(rank: int, k: int) -> int:
    if k == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (k - 1)


def free_group_srw_ladder(rank: int, n_max: int,
                          exact: bool = False) -> EntropyLadder:
    """Entropy ladder of the uniform-generator walk via the radial chain.

    Conditioned on its distance the walk is uniform on the sphere, so
    ``H_n = H(distance law) + sum_k P(dist = k) log(sphere size k)``.  The
    float value sums these terms over k in order (a sequential
    ``np.cumsum``), with every log taken by ``math.log``.
    """
    values = [0.0]
    forms: list[LogLinear] | None = [LogLinear.zero()] if exact else None
    if not exact:
        log_spheres = np.array([log(sphere_size(rank, k))
                                for k in range(n_max + 1)])
    for dist in islice(_radial_chain(rank, exact), 1, n_max + 1):
        if exact:
            form = entropy_form(q for q in dist if q)
            for k, q in enumerate(dist):
                if q and k:
                    form = form + LogLinear.of_log(sphere_size(rank, k), q)
            forms.append(form)
            values.append(form.to_float())
        else:
            ks = np.flatnonzero(dist > 0)
            q = dist[ks]
            log_q = np.fromiter(map(log, q.tolist()), float, len(q))
            terms = -q * log_q + q * log_spheres[ks]
            values.append(float(np.cumsum(terms)[-1]))
    return EntropyLadder(f"free({rank}) srw radial", values, forms)


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
        one = Fraction(1) if mu.exact else 1.0
        for seq in self.seqs:
            w = one
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
    if not enum.mu.exact:
        raise MeasureError("exact view entropy requires rational mode")
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
