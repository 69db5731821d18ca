"""Exact linear-inequality infeasibility proofs by Fourier-Motzkin elimination.

Systems mix non-strict, strict, and equality rows over named rational
variables.  An infeasible system yields a multiplier certificate whose exact
recombination produces ``0 < 0`` or ``0 <= -c`` with ``c > 0``; a feasible
system yields an exact witness point recovered by back-substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rationals import clear

LE = "<="
LT = "<"
EQ = "="

_RELATIONS = (LE, LT, EQ)


@dataclass(frozen=True)
class LinearSystem:
    """Constraint rows ``coeffs . x  rel  rhs`` over named variables."""

    variables: tuple[str, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    def __init__(self, variables: Iterable[str], constraints: Iterable) -> None:
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != len(names):
                raise ValueError("coefficient row width mismatch")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel, Fraction(rhs)))
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "constraints", tuple(rows))

    def holds_at(self, point: tuple[Fraction, ...]) -> bool:
        """Exactly evaluate every constraint at a point."""
        if len(point) != len(self.variables):
            raise ValueError("point width mismatch")
        for coeffs, rel, rhs in self.constraints:
            value = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
            if rel == LE:
                ok = value <= rhs
            elif rel == LT:
                ok = value < rhs
            else:
                ok = value == rhs
            if not ok:
                return False
        return True


@dataclass(frozen=True)
class FarkasCertificate:
    """Row multipliers proving infeasibility.

    Multipliers are non-negative on inequality rows; equality rows may carry
    either sign.  ``strict_indices`` lists the strict rows entering with
    positive weight, which turn the combined contradiction into ``0 < 0``.
    """

    multipliers: tuple[Fraction, ...]
    strict_indices: frozenset[int]


@dataclass(frozen=True)
class Feasible:
    """Satisfying point, aligned with the system's variable order."""

    witness: tuple[Fraction, ...]


def check_certificate(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """Recombine the rows exactly; true iff a contradiction is produced."""
    rows = system.constraints
    multipliers = certificate.multipliers
    if len(multipliers) != len(rows):
        raise ValueError("multiplier count does not match constraint count")
    width = len(system.variables)
    combined = [Fraction(0)] * width
    total = Fraction(0)
    strict_used: set[int] = set()
    for index, (weight, (coeffs, rel, rhs)) in enumerate(zip(multipliers, rows)):
        if weight == 0:
            continue
        if weight < 0 and rel != EQ:
            return False
        if rel == LT:
            strict_used.add(index)
        for k, c in enumerate(coeffs):
            combined[k] += weight * c
        total += weight * rhs
    if certificate.strict_indices != frozenset(strict_used):
        return False
    if any(combined):
        return False
    if strict_used:
        return total <= 0
    return total < 0


@dataclass
class _Row:
    # working inequality, scaled by denom > 0: every entry is an int and the
    # rational row is (coeffs . x (< | <=) rhs) / denom, with provenance
    coeffs: list[int]
    strict: bool
    rhs: int
    history: list[int]  # net signed weight per original constraint, times denom
    denom: int
    ancestors: frozenset[int]
    eliminated: frozenset[int]


def _initial_rows(system: LinearSystem) -> list[_Row]:
    count = len(system.constraints)
    rows: list[_Row] = []
    for index, (coeffs, rel, rhs) in enumerate(system.constraints):
        scale, (*ints, scaled_rhs) = clear((*coeffs, rhs))
        unit = [0] * count
        unit[index] = scale
        origin = frozenset([index])
        rows.append(_Row(ints, rel == LT, scaled_rhs, unit, scale, origin, frozenset()))
        if rel == EQ:
            negated = [0] * count
            negated[index] = -scale
            rows.append(
                _Row([-c for c in ints], False, -scaled_rhs, negated, scale, origin, frozenset())
            )
    return rows


def _combine(positive: _Row, negative: _Row, var: int) -> _Row | None:
    """positive/P_v + negative/(-N_v) in lowest terms, or None if Imbert drops it.

    Imbert's irredundancy bound: a derived row combining more original rows
    than one plus the variables eliminated on its path is implied by other
    rows in the projection.  The bound is tested before the rhs and history
    are built; a pair that cancels every coefficient is still built, since it
    may be the contradiction.
    """
    scale_p = -negative.coeffs[var]
    scale_n = positive.coeffs[var]
    coeffs = [p * scale_p + n * scale_n for p, n in zip(positive.coeffs, negative.coeffs)]
    ancestors = positive.ancestors | negative.ancestors
    eliminated = positive.eliminated | negative.eliminated | {var}
    if len(ancestors) > 1 + len(eliminated) and any(coeffs):
        return None
    rhs = positive.rhs * scale_p + negative.rhs * scale_n
    history = [p * scale_p + n * scale_n for p, n in zip(positive.history, negative.history)]
    denom = scale_p * scale_n
    divisor = math.gcd(denom, rhs, *coeffs, *history)
    if divisor > 1:
        coeffs = [c // divisor for c in coeffs]
        rhs //= divisor
        history = [h // divisor for h in history]
        denom //= divisor
    return _Row(
        coeffs,
        positive.strict or negative.strict,
        rhs,
        history,
        denom,
        ancestors,
        eliminated,
    )


def _prune(rows: list[_Row]) -> list[_Row]:
    """Drop tautologies and every row that a parallel, tighter row implies."""
    kept: dict[tuple[int, ...], tuple[int, _Row]] = {}
    passthrough: list[_Row] = []
    for row in rows:
        divisor = math.gcd(*row.coeffs)
        if divisor == 0:
            # keep contradictions for the caller; drop tautologies
            if row.rhs < 0 or (row.strict and row.rhs <= 0):
                passthrough.append(row)
            continue
        # rows with the same primitive normal are positive multiples of each
        # other; compare rhs / divisor by cross-multiplication
        key = tuple(c // divisor for c in row.coeffs)
        previous = kept.get(key)
        if previous is not None:
            previous_divisor, previous_row = previous
            mine = row.rhs * previous_divisor
            theirs = previous_row.rhs * divisor
            tighter = mine < theirs or (
                mine == theirs and row.strict and not previous_row.strict
            )
            if not tighter:
                continue
        kept[key] = (divisor, row)
    return passthrough + [row for _, row in kept.values()]


def _contradiction(rows: list[_Row]) -> _Row | None:
    for row in rows:
        if any(row.coeffs):
            continue
        if row.rhs < 0 or (row.strict and row.rhs <= 0):
            return row
    return None


def _pick_variable(rows: list[_Row], width: int) -> int:
    best_var, best_cost = -1, None
    for var in range(width):
        positive = sum(1 for r in rows if r.coeffs[var] > 0)
        negative = sum(1 for r in rows if r.coeffs[var] < 0)
        if positive + negative == 0:
            continue
        cost = positive * negative
        if best_cost is None or cost < best_cost:
            best_var, best_cost = var, cost
    return best_var


def _choose_value(
    lower: tuple[Fraction, bool] | None, upper: tuple[Fraction, bool] | None
) -> Fraction:
    """A value between the bounds; one at least is set, as every stage row has the variable."""
    if upper is None:
        value, strict = lower
        return value + 1 if strict else value
    if lower is None:
        value, strict = upper
        return value - 1 if strict else value
    lo, lo_strict = lower
    hi, hi_strict = upper
    if not (lo < hi or (lo == hi and not lo_strict and not hi_strict)):
        raise RuntimeError("back-substitution met an empty interval for a variable")
    return lo if lo == hi else (lo + hi) / 2


def prove_infeasible(system: LinearSystem) -> FarkasCertificate | Feasible:
    """Eliminate all variables; return a verified certificate or a witness."""
    width = len(system.variables)
    rows = _initial_rows(system)
    stages: list[tuple[int, list[_Row]]] = []
    while True:
        bad = _contradiction(rows)
        if bad is not None:
            certificate = FarkasCertificate(
                multipliers=tuple(Fraction(h, bad.denom) for h in bad.history),
                strict_indices=frozenset(
                    i
                    for i, weight in enumerate(bad.history)
                    if weight > 0 and system.constraints[i][1] == LT
                ),
            )
            if not check_certificate(system, certificate):
                raise RuntimeError("Farkas certificate failed its exact recombination check")
            return certificate
        active = [r for r in rows if any(r.coeffs)]
        if not active:
            break
        var = _pick_variable(active, width)
        positive = [r for r in active if r.coeffs[var] > 0]
        negative = [r for r in active if r.coeffs[var] < 0]
        stages.append((var, positive + negative))
        remaining = [r for r in rows if r.coeffs[var] == 0]
        combined = [_combine(p, n, var) for p in positive for n in negative]
        rows = _prune(remaining + [row for row in combined if row is not None])
    values = [Fraction(0)] * width
    for var, involved in reversed(stages):
        lower: tuple[Fraction, bool] | None = None
        upper: tuple[Fraction, bool] | None = None
        for row in involved:
            rest = sum(
                (c * values[j] for j, c in enumerate(row.coeffs) if j != var),
                Fraction(0),
            )
            bound = (row.rhs - rest) / row.coeffs[var]
            if row.coeffs[var] > 0:
                if upper is None or bound < upper[0] or (
                    bound == upper[0] and row.strict
                ):
                    upper = (bound, row.strict)
            else:
                if lower is None or bound > lower[0] or (
                    bound == lower[0] and row.strict
                ):
                    lower = (bound, row.strict)
        values[var] = _choose_value(lower, upper)
    witness = tuple(values)
    if not system.holds_at(witness):
        raise RuntimeError("back-substituted witness violates the system")
    return Feasible(witness=witness)
