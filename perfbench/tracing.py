"""Spans recorded from outside the program.

`installed(tracer)` replaces public functions at the module bindings their
callers resolve (``dp1alpha.cone.solve`` is the name `mu_threshold` and the
face scan call, ``dp1alpha.alpha.classify`` the one `counterexample_report`
calls, and so on) with wrappers that record a span per call: name, start,
end, parent span and op id.  Spans stay in memory; the harness writes them
out when the run ends.  A span's self time is its duration minus the
durations of its child spans, which run strictly inside it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from dp1alpha import cone, fme

# (module, attribute, span name); one span name may sit at several bindings
TARGETS = (
    ("cone", "solve", "linprog.solve"),
    ("cone", "is_ample", "cone.is_ample"),
    ("cone", "mu_threshold", "cone.mu_threshold"),
    ("cone", "classify", "cone.classify"),
    ("alpha", "classify", "cone.classify"),
    ("alpha", "alpha_conjecture", "alpha.conjecture"),
    ("alpha", "counterexample_report", "alpha.counterexample"),
    ("fme", "prove_infeasible", "fme.prove_infeasible"),
    ("fme", "check_certificate", "fme.check_certificate"),
    ("lemmas", "prove_infeasible", "fme.prove_infeasible"),
    ("lemmas", "check_certificate", "fme.check_certificate"),
    ("lemmas", "verify_lemma", "lemmas.verify"),
    ("lemmas", "relaxation_probe", "lemmas.probe"),
    ("weierstrass", "is_smooth", "weierstrass.is_smooth"),
    ("weierstrass", "resultant", "weierstrass.resultant"),
    ("weierstrass", "has_cuspidal_member", "weierstrass.has_cuspidal_member"),
    ("weierstrass", "find_square_sections", "weierstrass.find_square_sections"),
    ("cli", "run", "cli.run"),
    ("cli", "is_ample", "cone.is_ample"),
    ("cli", "classify", "cone.classify"),
    ("cli", "alpha_conjecture", "alpha.conjecture"),
    ("cli", "counterexample_report", "alpha.counterexample"),
    ("cli", "verify_lemma", "lemmas.verify"),
    ("cli", "relaxation_probe", "lemmas.probe"),
    ("cli", "is_smooth", "weierstrass.is_smooth"),
    ("cli", "has_cuspidal_member", "weierstrass.has_cuspidal_member"),
    ("cli", "find_square_sections", "weierstrass.find_square_sections"),
)
OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an op root
    op: int
    result: Any = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, result: Any = None) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.result = result
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        index = self.begin(OP)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._stack:  # a harness check between ops, not part of one
                return function(*args, **kwargs)
            index = self.begin(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                self.end(index, result)

        return traced

    def dump(self) -> list[list]:
        return [
            [s.name, round(s.start, 7), round(s.end, 7), s.parent, s.op] for s in self.spans
        ]


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for module_name, attribute, span_name in TARGETS:
            module = importlib.import_module(f"dp1alpha.{module_name}")
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(span_name, original))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _bits(values) -> int:
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def durations(name: str, scale: float, keep=lambda span: True) -> list[float]:
        return [
            (spans[i].end - spans[i].start) * scale
            for i in by_name.get(name, []) if keep(spans[i])
        ]

    def self_times(name: str, scale: float) -> list[float]:
        return [
            (spans[i].end - spans[i].start - child_time[i]) * scale
            for i in by_name.get(name, [])
        ]

    roots = by_name.get(OP, [])
    ops = len(roots)
    op_wall = sum(spans[i].end - spans[i].start for i in roots)

    def parent_name(index: int) -> str:
        return spans[spans[index].parent].name if spans[index].parent >= 0 else ""

    solves = by_name.get("linprog.solve", [])
    face_solves = [i for i in solves if parent_name(i) != "cone.mu_threshold"]
    lp_results = [spans[i].result for i in solves if spans[i].result is not None]
    lp_values = [
        v
        for r in lp_results
        for v in (r.point or ()) + (r.farkas or ()) + (
            (r.objective_value,) if r.objective_value is not None else ()
        )
    ]
    profiles = [spans[i].result for i in by_name.get("cone.classify", []) if spans[i].result]
    face_solves_in_classify = sum(1 for i in face_solves if parent_name(i) == "cone.classify")
    proofs = [spans[i] for i in by_name.get("fme.prove_infeasible", [])]
    feasible = lambda span: isinstance(span.result, fme.Feasible)  # noqa: E731
    infeasible = lambda span: isinstance(span.result, fme.FarkasCertificate)  # noqa: E731
    certificates = [s.result for s in proofs if infeasible(s)]
    layer_self = sum(
        spans[i].end - spans[i].start - child_time[i]
        for i, span in enumerate(spans) if span.name != OP
    )
    per_op = 1 / ops if ops else 0.0
    return {
        "linprog.solves_per_op": len(solves) * per_op,
        "linprog.face_solves_per_op": len(face_solves) * per_op,
        "linprog.solve_ms": _median(self_times("linprog.solve", 1e3)),
        "linprog.solve_share": (
            sum(durations("linprog.solve", 1.0)) / op_wall if op_wall else 0.0
        ),
        "linprog.max_entry_bits": _bits(lp_values),
        "cone.classify_ms": _median(durations("cone.classify", 1e3)),
        "cone.mu_threshold_ms": _median(durations("cone.mu_threshold", 1e3)),
        "cone.classify_self_ms": _median(self_times("cone.classify", 1e3)),
        "cone.is_ample_us": _median(durations("cone.is_ample", 1e6)),
        "cone.face_size": _median([len(p.face_generators) for p in profiles]),
        "cone.face_gens_per_solve": (
            sum(len(p.face_generators) for p in profiles) / face_solves_in_classify
            if face_solves_in_classify else 0.0
        ),
        "cone.type_P2": sum(p.type_tag == cone.P2 for p in profiles),
        "cone.type_F1": sum(p.type_tag == cone.F1 for p in profiles),
        "cone.type_P1xP1": sum(p.type_tag == cone.P1XP1 for p in profiles),
        "alpha.conjecture_us": _median(durations("alpha.conjecture", 1e6)),
        "alpha.counterexample_ms": _median(durations("alpha.counterexample", 1e3)),
        "fme.prove_feasible_ms": _median(durations("fme.prove_infeasible", 1e3, feasible)),
        "fme.prove_infeasible_ms": _median(durations("fme.prove_infeasible", 1e3, infeasible)),
        "fme.check_certificate_us": _median(durations("fme.check_certificate", 1e6)),
        "fme.feasible_share": (
            sum(1 for s in proofs if feasible(s)) / len(proofs) if proofs else 0.0
        ),
        "fme.max_multiplier_bits": _bits(m for c in certificates for m in c.multipliers),
        "lemmas.verify_ms": _median(durations("lemmas.verify", 1e3)),
        "lemmas.probe_ms": _median(durations("lemmas.probe", 1e3)),
        "weierstrass.is_smooth_us": _median(durations("weierstrass.is_smooth", 1e6)),
        "weierstrass.resultant_us": _median(durations("weierstrass.resultant", 1e6)),
        "weierstrass.has_cuspidal_member_us": _median(
            durations("weierstrass.has_cuspidal_member", 1e6)
        ),
        "weierstrass.find_square_sections_us": _median(
            durations("weierstrass.find_square_sections", 1e6)
        ),
        "trace.layer_self_share": layer_self / op_wall if op_wall else 0.0,
    }
