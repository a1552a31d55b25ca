"""Outside-in tracing of walklab's layers for the benchmark's traced run.

:meth:`Tracer.install` replaces public functions and methods of the walklab
modules with wrappers that record one span per call: name, parent span,
start and end.  Spans stay in memory; :func:`layer_metrics` folds them
into per-layer counts, busy time and self time once the run is over.
``groups.multiply`` runs millions of times, so it is only counted (outermost
calls), never timed; its cost per call comes from a micro-benchmark.

Counts that follow from a call's arguments or result (pairs multiplied,
steps walked, checks made) are computed from them, not timed.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from walklab import (escape, exact_entropy, experiments, groups, magnus,
                     measures, parsing, rng, walks)
from walklab.exact_entropy import LogLinear
from walklab.walks import EntropyLadder

_MODULES = (escape, exact_entropy, experiments, groups, magnus, measures,
            parsing, rng, walks)


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _convolve_counts(args, kwargs, result) -> dict:
    mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
    return {"pairs": len(mu) * len(nu), "support": len(result)}


def _return_counts(args, kwargs, result) -> dict:
    horizon = _arg(args, kwargs, 1, "horizon")
    return {"steps": int(np.minimum(result, horizon).sum()),
            "returns": int((result <= horizon).sum()),
            "samples": int(result.size)}


def _range_counts(args, kwargs, result) -> dict:
    return {"steps": _arg(args, kwargs, 1, "n") * _arg(args, kwargs, 2, "samples")}


# (owner, attribute, span name, counts from (args, kwargs, result))
_SPANS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "cached_exact_ladder", "experiments.cached_exact_ladder", None),
    (parsing, "family_measure", "parsing.family_measure", None),
    (walks, "entropy_ladder", "walks.entropy_ladder", None),
    (walks, "free_group_srw_ladder", "walks.free_group_srw_ladder", None),
    (EntropyLadder, "verify", "walks.verify",
     lambda a, k, r: {"checks": len(r)}),
    (measures, "convolve", "measures.convolve", _convolve_counts),
    (measures, "exact_entropy", "measures.exact_entropy",
     lambda a, k, r: {"atoms": len(_arg(a, k, 0, "mu"))}),
    (LogLinear, "sign", "exact_entropy.sign",
     lambda a, k, r: {"terms": len(a[0].coeffs)}),
    (LogLinear, "evaluate", "exact_entropy.evaluate", None),
    (LogLinear, "is_zero", "exact_entropy.is_zero", None),
    (LogLinear, "__add__", "exact_entropy.arith", None),
    (LogLinear, "__sub__", "exact_entropy.arith", None),
    (LogLinear, "scale", "exact_entropy.arith", None),
    (exact_entropy, "factorize", "exact_entropy.factorize", None),
    (escape, "first_return_times", "escape.first_return_times", _return_counts),
    (escape, "range_rate", "escape.range_rate", _range_counts),
    (escape, "exact_escape_drifted_z", "escape.exact_escape_drifted_z",
     lambda a, k, r: {"terms": r.n}),
    (escape, "exact_escape_drifted_z2", "escape.exact_escape_drifted_z2", None),
    (rng, "sample_stream", "rng.sample_stream", None),
    (magnus, "magnus_embed", "magnus.magnus_embed", None),
    (magnus, "is_identity", "magnus.is_identity", None),
)


class Tracer:
    """Spans of one traced run: ``[name, parent, start_ns, end_ns, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.multiply_calls = 0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable,
             counts: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        """Rebind ``owner.attr``; for a module function, also rebind every
        walklab module that imported it by name."""
        old = owner.__dict__[attr]
        owners = [owner]
        if not isinstance(owner, type):
            owners += [m for m in _MODULES
                       if m is not owner and m.__dict__.get(attr) is old]
        for o in owners:
            self._undo.append((o, attr, old))
            setattr(o, attr, new)

    def install(self) -> None:
        for owner, attr, name, counts in _SPANS:
            self._patch(owner, attr,
                        self.wrap(name, owner.__dict__[attr], counts))
        self._patch(groups, "multiply", self._counted(groups.multiply))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _counted(self, multiply: Callable) -> Callable:
        depth = 0
        tracer = self

        def counted(spec, g, h):
            nonlocal depth
            if depth:
                return multiply(spec, g, h)
            tracer.multiply_calls += 1
            depth = 1
            try:
                return multiply(spec, g, h)
            finally:
                depth = 0

        return counted

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its child spans."""
    own = [(s[3] - s[2]) for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return [ns / 1e9 for ns in own]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy seconds and self seconds from the spans."""
    spans = tracer.spans
    own = self_times(spans)
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    summed: dict[str, dict[str, int]] = {}
    children: dict[int, list[str]] = {}
    for i, (name, parent, start, end, counts) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + (end - start) / 1e9
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if counts:
            acc = summed.setdefault(name, {})
            for key, value in counts.items():
                acc[key] = acc.get(key, 0) + value
        if parent >= 0:
            children.setdefault(parent, []).append(name)

    def total(name: str, key: str) -> int:
        return summed.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sign_ids = [i for i, s in enumerate(spans) if s[0] == "exact_entropy.sign"]
    evaluations = 0
    settled_first = 0
    zero_tests = 0
    for i in sign_ids:
        kids = children.get(i, [])
        n_eval = kids.count("exact_entropy.evaluate")
        n_zero = kids.count("exact_entropy.is_zero")
        evaluations += n_eval
        zero_tests += n_zero
        settled_first += n_eval <= 1 and not n_zero
    ladder_ids = [i for i, s in enumerate(spans)
                  if s[0] == "experiments.cached_exact_ladder"]
    hits = sum("walks.entropy_ladder" not in children.get(i, [])
               for i in ladder_ids)
    conv_support_max = max((s[4]["support"] for s in spans
                            if s[0] == "measures.convolve"), default=0)
    terms_max = max((s[4]["terms"] for s in spans
                     if s[0] == "exact_entropy.sign"), default=0)
    frt = "escape.first_return_times"
    return {
        "groups.multiply.calls": tracer.multiply_calls,
        "measures.convolve.calls": calls.get("measures.convolve", 0),
        "measures.convolve.s": busy.get("measures.convolve", 0.0),
        "measures.convolve.pairs": total("measures.convolve", "pairs"),
        "measures.convolve.support_max": conv_support_max,
        "measures.convolve.merge_ratio": ratio(
            total("measures.convolve", "support"),
            total("measures.convolve", "pairs")),
        "measures.exact_entropy.s": busy.get("measures.exact_entropy", 0.0),
        "measures.exact_entropy.atoms": total("measures.exact_entropy", "atoms"),
        "exact_entropy.sign.calls": len(sign_ids),
        "exact_entropy.sign.s": busy.get("exact_entropy.sign", 0.0),
        "exact_entropy.sign.escalations": evaluations - len(sign_ids),
        "exact_entropy.sign.settled_first_ratio": ratio(settled_first,
                                                         len(sign_ids)),
        "exact_entropy.is_zero.calls_under_sign": zero_tests,
        "exact_entropy.factorize.calls": calls.get("exact_entropy.factorize", 0),
        "exact_entropy.arith.s": busy.get("exact_entropy.arith", 0.0),
        "exact_entropy.form_terms_max": terms_max,
        "walks.entropy_ladder.s": busy.get("walks.entropy_ladder", 0.0),
        "walks.verify.calls": calls.get("walks.verify", 0),
        "walks.verify.checks": total("walks.verify", "checks"),
        "walks.verify.s": busy.get("walks.verify", 0.0),
        "walks.verify.self_s": self_s.get("walks.verify", 0.0),
        "walks.free_group_srw_ladder.s": busy.get("walks.free_group_srw_ladder", 0.0),
        "escape.first_return_times.s": busy.get(frt, 0.0),
        "escape.first_return_times.steps": total(frt, "steps"),
        "escape.first_return_times.return_frac": ratio(total(frt, "returns"),
                                                       total(frt, "samples")),
        "escape.range_rate.s": busy.get("escape.range_rate", 0.0),
        "escape.range_rate.steps": total("escape.range_rate", "steps"),
        "escape.exact_escape_drifted_z.s": busy.get("escape.exact_escape_drifted_z", 0.0),
        "escape.exact_escape_drifted_z.terms": total("escape.exact_escape_drifted_z", "terms"),
        "escape.exact_escape_drifted_z2.s": busy.get("escape.exact_escape_drifted_z2", 0.0),
        "rng.sample_stream.calls": calls.get("rng.sample_stream", 0),
        "rng.sample_stream.s": busy.get("rng.sample_stream", 0.0),
        "magnus.magnus_embed.calls": calls.get("magnus.magnus_embed", 0),
        "magnus.magnus_embed.s": busy.get("magnus.magnus_embed", 0.0),
        "magnus.is_identity.s": busy.get("magnus.is_identity", 0.0),
        "experiments.run_experiment.s": busy.get("experiments.run_experiment", 0.0),
        "experiments.run_experiment.self_s": self_s.get("experiments.run_experiment", 0.0),
        "experiments.cached_exact_ladder.calls": len(ladder_ids),
        "experiments.cached_exact_ladder.hit_ratio": ratio(hits, len(ladder_ids)),
        "parsing.family_measure.s": busy.get("parsing.family_measure", 0.0),
    }
