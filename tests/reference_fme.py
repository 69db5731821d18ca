"""Reference oracle: Fourier-Motzkin elimination in plain ``Fraction`` arithmetic.

This is the textbook eliminator: the equalities are substituted out first
(each row becomes ``r - (r_v / e_v) * e`` with its multipliers), every
derived row is ``P/P_v + N/(-N_v)`` built in full with its multipliers,
unless Chernikov's rule drops it (a row drawing on more original rows than
one plus the eliminated variables that those rows contain), and rows are
pruned by duplicate normal vectors.  It is kept as an independent
implementation of the same rules as ``dp1alpha.fme.prove_infeasible`` --
the same pivots, row order, variable choice, contradiction scan and
back-substitution.  The package eliminator substitutes in integers, stores
every row as integers in lowest terms, tests the bound on bit masks before
it builds a pair, rebuilds multipliers for the contradiction only and
back-substitutes over one common denominator with integer bounds, so both
must return equal results -- the same certificate or the same witness --
on every system, after building the same number of rows.

It also holds the ``Fraction`` checkers, ``check_certificate`` and
``holds_at``: the plain recombination of the rows and evaluation at a
point.  The package's checkers do the same in integers; test_fme holds them
to these answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from dp1alpha.fme import EQ, LE, LT, FarkasCertificate, Feasible, LinearSystem


def check_certificate(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """Recombine the rows in Fractions; true iff a contradiction is produced."""
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
            if c:
                combined[k] += weight * c
        total += weight * rhs
    if certificate.strict_indices != frozenset(strict_used):
        return False
    if any(combined):
        return False
    if strict_used:
        return total <= 0
    return total < 0


def holds_at(system: LinearSystem, point: tuple[Fraction, ...]) -> bool:
    """Evaluate every constraint at a point in Fractions."""
    if len(point) != len(system.variables):
        raise ValueError("point width mismatch")
    for coeffs, rel, rhs in system.constraints:
        value = sum((c * x for c, x in zip(coeffs, point) if c), Fraction(0))
        if rel == LE:
            ok = value <= rhs
        elif rel == LT:
            ok = value < rhs
        else:
            ok = value == rhs
        if not ok:
            return False
    return True


@dataclass
class _Row:
    # working inequality: coeffs . x (< | <=) rhs, with provenance
    coeffs: list[Fraction]
    strict: bool
    rhs: Fraction
    history: list[Fraction]  # net signed weight per original constraint
    ancestors: frozenset[int]


def _initial_rows(
    system: LinearSystem,
) -> tuple[list[_Row], list[tuple[int, list[Fraction], Fraction]], list[frozenset[int]]]:
    """Substitute the equalities out: (inequality rows, pivots, support per constraint).

    Each equality in order, rewritten by the ones before it, takes as pivot
    its variable of least |coefficient| (the lowest index on ties), and every
    row not yet a pivot becomes r - (r_v / e_v) * e.  An equality rewritten
    to 0 = 0 is dropped; one rewritten to 0 = c with c != 0, times -sign(c),
    is returned as the only row.  A row's support is that of its rewritten
    coefficients.
    """
    count = len(system.constraints)
    current = []
    for index, (coeffs, _, rhs) in enumerate(system.constraints):
        unit = [Fraction(0)] * count
        unit[index] = Fraction(1)
        current.append((list(coeffs), rhs, unit))
    equalities = [i for i, (_, rel, _) in enumerate(system.constraints) if rel == EQ]
    pivots: list[tuple[int, list[Fraction], Fraction]] = []
    for position, index in enumerate(equalities):
        coeffs, rhs, history = current[index]
        nonzero = [j for j, c in enumerate(coeffs) if c != 0]
        if not nonzero:
            if rhs == 0:
                continue
            sign = 1 if rhs > 0 else -1
            row = _Row(coeffs, False, -sign * rhs, [-sign * h for h in history], frozenset([index]))
            return [row], [], [frozenset()] * count
        var = min(nonzero, key=lambda j: abs(coeffs[j]))
        pivots.append((var, coeffs, rhs))
        later = equalities[position + 1 :] + [
            i for i, (_, rel, _) in enumerate(system.constraints) if rel != EQ
        ]
        for other in later:
            r_coeffs, r_rhs, r_history = current[other]
            t = r_coeffs[var] / coeffs[var]
            if t:
                current[other] = (
                    [r - t * e for r, e in zip(r_coeffs, coeffs)],
                    r_rhs - t * rhs,
                    [r - t * e for r, e in zip(r_history, history)],
                )
    rows = [
        _Row(current[index][0], rel == LT, current[index][1], current[index][2], frozenset([index]))
        for index, (_, rel, _) in enumerate(system.constraints)
        if rel != EQ
    ]
    support = [frozenset(j for j, c in enumerate(coeffs) if c != 0) for coeffs, _, _ in current]
    return rows, pivots, support


def _combine(
    positive: _Row, negative: _Row, var: int, eliminated: set[int], support: list[frozenset[int]]
) -> _Row | None:
    scale_p = 1 / positive.coeffs[var]
    scale_n = -1 / negative.coeffs[var]
    coeffs = [
        scale_p * p + scale_n * n for p, n in zip(positive.coeffs, negative.coeffs)
    ]
    coeffs[var] = Fraction(0)  # exact by construction; pin against drift
    ancestors = positive.ancestors | negative.ancestors
    # Chernikov's rule: a row combining more original rows than one plus the
    # eliminated variables those rows contain is implied by other rows in the
    # projection; a row with no variable left may be the contradiction, so
    # it stays
    contained = frozenset().union(*(support[i] for i in ancestors))
    if len(ancestors) > 1 + len(contained & eliminated) and any(coeffs):
        return None
    history = [
        scale_p * p + scale_n * n if p or n else p
        for p, n in zip(positive.history, negative.history)
    ]
    return _Row(
        coeffs,
        positive.strict or negative.strict,
        scale_p * positive.rhs + scale_n * negative.rhs,
        history,
        ancestors,
    )


def _prune(rows: list[_Row]) -> list[_Row]:
    kept: dict[tuple, _Row] = {}
    order: list[tuple] = []
    passthrough: list[_Row] = []
    for row in rows:
        nonzero = next((c for c in row.coeffs if c != 0), None)
        if nonzero is None:
            # keep contradictions for the caller; drop tautologies
            if row.rhs < 0 or (row.strict and row.rhs <= 0):
                passthrough.append(row)
            continue
        scale = 1 / abs(nonzero)
        key = tuple(scale * c for c in row.coeffs)
        scaled_rhs = scale * row.rhs
        previous = kept.get(key)
        if previous is not None:
            previous_scale = 1 / abs(
                next(c for c in previous.coeffs if c != 0)
            )
            previous_rhs = previous_scale * previous.rhs
            tighter = scaled_rhs < previous_rhs or (
                scaled_rhs == previous_rhs and row.strict and not previous.strict
            )
            if not tighter:
                continue
        else:
            order.append(key)
        kept[key] = row
    return passthrough + [kept[key] for key in order]


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
    if lower is None and upper is None:
        return Fraction(0)
    if upper is None:
        value, strict = lower
        return value + 1 if strict else value
    if lower is None:
        value, strict = upper
        return value - 1 if strict else value
    lo, lo_strict = lower
    hi, hi_strict = upper
    assert lo < hi or (lo == hi and not lo_strict and not hi_strict)
    return lo if lo == hi else (lo + hi) / 2


def prove_infeasible(system: LinearSystem) -> FarkasCertificate | Feasible:
    """Eliminate all variables; return a verified certificate or a witness."""
    width = len(system.variables)
    rows, pivots, support = _initial_rows(system)
    stages: list[tuple[int, list[_Row]]] = []
    while True:
        bad = _contradiction(rows)
        if bad is not None:
            certificate = FarkasCertificate(
                multipliers=tuple(bad.history),
                strict_indices=frozenset(
                    i
                    for i, weight in enumerate(bad.history)
                    if weight > 0 and system.constraints[i][1] == LT
                ),
            )
            assert check_certificate(system, certificate)
            return certificate
        active = [r for r in rows if any(r.coeffs)]
        if not active:
            break
        var = _pick_variable(active, width)
        positive = [r for r in active if r.coeffs[var] > 0]
        negative = [r for r in active if r.coeffs[var] < 0]
        stages.append((var, positive + negative))
        remaining = [r for r in rows if r.coeffs[var] == 0]
        eliminated = {v for v, _ in stages}
        combined = [_combine(p, n, var, eliminated, support) for p in positive for n in negative]
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
    for var, coeffs, rhs in reversed(pivots):
        rest = sum((c * values[j] for j, c in enumerate(coeffs) if j != var), Fraction(0))
        values[var] = (rhs - rest) / coeffs[var]
    witness = tuple(values)
    assert holds_at(system, witness)
    return Feasible(witness=witness)
