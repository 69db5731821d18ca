"""Exact linear-inequality infeasibility proofs by Fourier-Motzkin elimination.

Systems mix non-strict, strict, and equality rows over named rational
variables.  An infeasible system yields a multiplier certificate whose exact
recombination produces ``0 < 0`` or ``0 <= -c`` with ``c > 0``; a feasible
system yields an exact witness point recovered by back-substitution.

Equalities are substituted out first, by exact Gaussian elimination
(Dantzig and Eaves 1973): each one fixes a pivot variable in terms of the
others and is removed from every other row.  What enters the elimination is
then a system of inequalities alone, one row per inequality constraint, and
the pivots are solved after every other variable.

The elimination runs on integer rows in lowest terms: the gcd of each row's
coefficients and right-hand side is 1.  Each is a positive multiple of its
rational row, so every sign test, comparison and bound is the rational one.
A row keeps its origin (the vector of its constraint after the
substitution, or the pair it was combined from), bit masks of the
constraints it draws on and of the variables they contain, and its
primitive direction (the coefficients over their gcd); multipliers are
rebuilt from the origins for the contradiction alone.  Back-substitution
keeps integer numerators over one common denominator, and each bound on a
variable as an integer pair (num, den) with den > 0, compared by
cross-multiplication; only the two bounds that win become Fractions.  Each
system clears its constraints to integer rows once, on first use
(`LinearSystem.cleared`), and every elimination starts from those rows.

The answer is checked by code that shares nothing with the prover:
`check_certificate` and `LinearSystem.holds_at` read the `Fraction`
constraints and recombine or evaluate them in integers over a running
common denominator.

Redundant rows are dropped by Chernikov's rule in Kohler's counting form
(Chernikov 1965; Kohler 1967; Imbert 1993), which holds for a system of
inequalities; after the substitution each rewritten inequality is one
constraint of it, with the variables of its rewritten row.  (Splitting an
equality into two opposite inequalities keeps the rule sound, but the pair
fills every stage with rows built from it.)  Once the variables V are
eliminated, a row's multipliers on the constraints it draws on lie in a cone
cut out by one equation per variable of V that those constraints contain,
and every extreme ray of that cone draws on at most one constraint more
than there are such variables.  A row that draws on more is a sum of rows
with fewer constraints, and is dropped.  Kohler counts all of V, which
keeps millions of redundant rows when a variable that few rows contain goes
first.  Counting only the variables eliminated on the row's own path drops
more, but not safely together with the pruning of parallel rows:
back-substitution then met an empty interval on systems that the exact
simplex calls feasible.  test_fme.TestChernikovBound has both cases.

The bound is tested on the masks before a pair is built, so a dropped pair
costs two bit counts.  A pair whose rows point in opposite directions
cancels every coefficient, and is built whatever the bound says: it may be
the contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
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
            coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
            if len(coeffs) != len(names):
                raise ValueError("coefficient row width mismatch")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel, rhs if isinstance(rhs, Fraction) else Fraction(rhs)))
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "constraints", tuple(rows))

    def cleared(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """`rationals.clear((*coeffs, rhs))` of each constraint: its scale and its integer row.

        Computed once, like `PicardClass.cleared()`: the prover starts every
        elimination from these rows, and a lemma case proves the same system
        on every call.
        """
        try:
            return self._cleared
        except AttributeError:
            value = tuple(clear((*coeffs, rhs)) for coeffs, _, rhs in self.constraints)
            object.__setattr__(self, "_cleared", value)
            return value

    def holds_at(self, point: tuple[Fraction, ...]) -> bool:
        """Exactly evaluate every constraint at a point of ints or Fractions.

        The point is brought over one common denominator, and each row's
        value is summed over a running common denominator of its
        coefficients, so every comparison is between integers.  It reads
        the `Fraction` constraints, not the prover's rows.
        """
        if len(point) != len(self.variables):
            raise ValueError("point width mismatch")
        ratios = [x.as_integer_ratio() for x in point]
        point_den = math.lcm(*(d for _, d in ratios))
        xs = [n * (point_den // d) for n, d in ratios]
        for coeffs, rel, rhs in self.constraints:
            value, denom = 0, 1  # value / (denom * point_den) is the row at the point
            for c, x in zip(coeffs, xs):
                n, d = c.as_integer_ratio()
                if n:
                    if denom % d:
                        common = math.lcm(denom, d)
                        value *= common // denom
                        denom = common
                    value += n * (denom // d) * x
            n, d = rhs.as_integer_ratio()
            common = math.lcm(denom, d)
            value *= common // denom
            bound = n * (common // d) * point_den
            if rel == LE:
                ok = value <= bound
            elif rel == LT:
                ok = value < bound
            else:
                ok = value == bound
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
    """Recombine the rows exactly; true iff a contradiction is produced.

    The weighted rows are summed in integers over a running common
    denominator of the products weight * entry.  It reads the `Fraction`
    constraints, not the prover's rows.
    """
    rows = system.constraints
    multipliers = certificate.multipliers
    if len(multipliers) != len(rows):
        raise ValueError("multiplier count does not match constraint count")
    # combined / denom is the sum of weight * (coeffs, rhs) over the rows
    combined = [0] * (len(system.variables) + 1)
    denom = 1
    strict_used: set[int] = set()
    for index, (weight, (coeffs, rel, rhs)) in enumerate(zip(multipliers, rows)):
        weight_num, weight_den = weight.as_integer_ratio()
        if not weight_num:
            continue
        if weight_num < 0 and rel != EQ:
            return False
        if rel == LT:
            strict_used.add(index)
        for k, c in enumerate((*coeffs, rhs)):
            n, d = c.as_integer_ratio()
            if n:
                d *= weight_den
                if denom % d:
                    common = math.lcm(denom, d)
                    combined = [x * (common // denom) for x in combined]
                    denom = common
                combined[k] += weight_num * n * (denom // d)
    if certificate.strict_indices != frozenset(strict_used):
        return False
    total = combined.pop()
    if any(combined):
        return False
    if strict_used:
        return total <= 0
    return total < 0


@dataclass(eq=False, slots=True)
class _Row:
    # working inequality coeffs . x (< | <=) rhs in lowest integer terms: a
    # positive multiple of the rational row, and every decision of the
    # elimination is invariant under such a rescaling.  ancestors is a bit
    # mask of the constraints the row draws on, variables a bit mask of the
    # variables those constraints contain.  origin is (index, vector) for
    # the row _initial_rows made of constraint index, or (positive, negative,
    # var) for a pair; from it _rebuild recovers the multipliers of the one
    # row that needs them, the contradiction.  direction is coeffs over their
    # gcd, set by _initial_rows and _prune (None on a pair until _prune keys
    # it), so the stage loop tests two rows for full cancellation by
    # comparing it.
    coeffs: list[int]
    strict: bool
    rhs: int
    ancestors: int
    variables: int
    origin: tuple
    direction: tuple[int, ...] | None = None


def _direction(coeffs: list[int], divisor: int) -> tuple[int, ...]:
    """coeffs over divisor, their gcd (0 for a zero row)."""
    return tuple(coeffs) if divisor <= 1 else tuple([c // divisor for c in coeffs])


def _initial_rows(system: LinearSystem) -> tuple[list[_Row], list[tuple[int, list[_Row]]]]:
    """The rows that elimination starts from: the equalities substituted out.

    Each constraint starts as the vector [*coeffs, rhs, *multipliers] =
    scale * (its row, its unit vector), so that its leading part is the sum
    of multipliers[i] times constraint i.  Each equality in order, rewritten
    by the ones before it, takes as pivot its variable of least |coefficient|
    (the lowest index on ties) and is negated if that coefficient is
    negative; every row not yet a pivot then becomes r * e_v - r_v * e over
    the gcd of its entries, a positive multiple of itself plus a multiple of
    the equality.  An equality rewritten to 0 = 0 is dropped; one rewritten
    to 0 = c with c != 0, times -sign(c), is returned as the only row, the
    contradiction 0 <= -1.

    Returns one row per inequality, its leading part over gcd(*coeffs, rhs)
    and its vector kept as its origin, and one stage per pivot, in order,
    whose rows e <= rhs and -e <= -rhs are the two bounds that fix the
    pivot.  No later row has the pivot variable, so back-substitution, which
    runs the stages in reverse, solves the pivots last.
    """
    width = len(system.variables)
    bits = [1 << j for j in range(width)]
    zeros = [0] * len(system.constraints)
    vectors = []
    equalities: list[int] = []
    inequalities: list[int] = []
    for index, ((_, rel, _), (scale, ints)) in enumerate(
        zip(system.constraints, system.cleared())
    ):
        vector = [*ints, *zeros]
        vector[width + 1 + index] = scale
        vectors.append(vector)
        (equalities if rel == EQ else inequalities).append(index)
    stages: list[tuple[int, list[_Row]]] = []
    for position, index in enumerate(equalities):
        e = vectors[index]
        nonzero = [(abs(c), j) for j, c in enumerate(e[:width]) if c]
        if not nonzero:
            if e[width] == 0:
                continue
            if e[width] > 0:
                e = [-x for x in e]
            return [_Row([0] * width, False, -1, 1 << index, 0, (index, e))], []
        var = min(nonzero)[1]
        if e[var] < 0:
            e = [-x for x in e]
        pivot = e[var]
        for other in equalities[position + 1 :] + inequalities:
            r = vectors[other]
            c = r[var]
            if c:
                r = [x * pivot - c * y for x, y in zip(r, e)]
                divisor = math.gcd(*r)
                vectors[other] = [x // divisor for x in r] if divisor > 1 else r
        coeffs = e[:width]
        bounds = [
            _Row(coeffs, False, e[width], 0, 0, ()),
            _Row([-c for c in coeffs], False, -e[width], 0, 0, ()),
        ]
        stages.append((var, bounds))
    rows = []
    for index in inequalities:
        vector = vectors[index]
        ints = vector[:width]
        rhs = vector[width]
        divisor = math.gcd(*ints)
        direction = _direction(ints, divisor)
        divisor = math.gcd(divisor, rhs)
        if divisor > 1:
            ints = [c // divisor for c in ints]
            rhs //= divisor
        variables = sum(compress(bits, ints))
        strict = system.constraints[index][1] == LT
        rows.append(_Row(ints, strict, rhs, 1 << index, variables, (index, vector), direction))
    return rows, stages


def _combine(positive: _Row, negative: _Row, var: int) -> _Row:
    """positive * (-N_v) + negative * P_v in lowest terms: the row of a pair the stage keeps."""
    scale_p = -negative.coeffs[var]
    scale_n = positive.coeffs[var]
    coeffs = [p * scale_p + n * scale_n for p, n in zip(positive.coeffs, negative.coeffs)]
    rhs = positive.rhs * scale_p + negative.rhs * scale_n
    divisor = math.gcd(rhs, *coeffs)
    if divisor > 1:
        coeffs = [c // divisor for c in coeffs]
        rhs //= divisor
    return _Row(
        coeffs,
        positive.strict or negative.strict,
        rhs,
        positive.ancestors | negative.ancestors,
        positive.variables | negative.variables,
        (positive, negative, var),
    )


def _rebuild(row: _Row, memo: dict[_Row, tuple[list[int], int]]) -> tuple[list[int], int]:
    """(coeffs + [rhs] + history, denom): the rational row and its multipliers, over denom > 0.

    The rational row of an initial row is its constraint plus the multiples
    of the equalities substituted into it: its vector over its own
    multiplier.  That of a pair is positive/P_v + negative/(-N_v) of the
    parents' rational rows.  history[i] / denom is the net weight of
    constraint i in it.  Replays the row's origins, each shared parent once,
    by _combine's integer rule with the history carried along and the gcd of
    denom and every entry divided out.
    """
    known = memo.get(row)
    if known is None:
        if len(row.origin) == 2:  # an initial row and its vector
            index, vector = row.origin
            known = vector, abs(vector[len(row.coeffs) + 1 + index])
        else:
            positive, negative, var = row.origin
            vector_p, denom_p = _rebuild(positive, memo)
            vector_n, denom_n = _rebuild(negative, memo)
            scale_p = -vector_n[var]
            scale_n = vector_p[var]
            vector = [p * scale_p + n * scale_n for p, n in zip(vector_p, vector_n)]
            denom = scale_p * scale_n
            divisor = math.gcd(denom, *vector)
            known = [v // divisor for v in vector], denom // divisor
        memo[row] = known
    return known


def _prune(rows: list[_Row]) -> list[_Row]:
    """Drop tautologies and every row that a parallel, tighter row implies.

    Sets each row's direction, the primitive normal that keys the comparison.
    """
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
        key = row.direction = _direction(row.coeffs, divisor)
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
    """The variable with the fewest pairs to combine; the lowest index among equal costs."""
    positive = [0] * width
    negative = [0] * width
    for row in rows:
        for var, c in enumerate(row.coeffs):
            if c > 0:
                positive[var] += 1
            elif c < 0:
                negative[var] += 1
    best_var, best_cost = -1, None
    for var, (p, n) in enumerate(zip(positive, negative)):
        if p + n == 0:
            continue
        cost = p * n
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
    rows, stages = _initial_rows(system)
    eliminated = 0
    while True:
        bad = _contradiction(rows)
        if bad is not None:
            vector, denom = _rebuild(bad, {})
            history = vector[width + 1 :]
            certificate = FarkasCertificate(
                multipliers=tuple(Fraction(h, denom) for h in history),
                strict_indices=frozenset(
                    i
                    for i, weight in enumerate(history)
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
        eliminated |= 1 << var
        # Chernikov's bound on the masks, or opposite directions (a pair that
        # cancels every coefficient), before a row is built
        opposites = [
            (n, n.ancestors, n.variables & eliminated, tuple([-c for c in n.direction]))
            for n in negative
        ]
        for p in positive:
            p_ancestors, p_variables = p.ancestors, p.variables & eliminated
            p_direction = p.direction
            remaining += [
                _combine(p, n, var)
                for n, n_ancestors, n_variables, n_opposite in opposites
                if (p_ancestors | n_ancestors).bit_count()
                <= 1 + (p_variables | n_variables).bit_count()
                or p_direction == n_opposite
            ]
        rows = _prune(remaining)
    # the values fixed so far are numerators[j] / denom, and the others 0, so
    # each bound is (rhs*denom - rest) / (c_v*denom) with rest an int, kept
    # as (num, den) negated to den > 0 on its side: 1 for an upper bound
    # (c_v > 0), -1 for a lower one; the side's tighter value wins, and on
    # equal values the strict row
    numerators = [0] * width
    denom = 1
    for var, involved in reversed(stages):
        bounds: dict[int, tuple[int, int, bool]] = {}
        for row in involved:
            coeffs = row.coeffs
            rest = sum(c * n for c, n in zip(coeffs, numerators))  # numerators[var] is still 0
            side = 1 if coeffs[var] > 0 else -1
            num = side * (row.rhs * denom - rest)
            den = side * coeffs[var] * denom
            best = bounds.get(side)
            if best is not None:
                gap = side * (num * best[1] - best[0] * den)  # negative when the row is tighter
                if gap > 0 or (gap == 0 and not row.strict):
                    continue
            bounds[side] = (num, den, row.strict)
        lower, upper = (
            None if (b := bounds.get(side)) is None else (Fraction(b[0], b[1]), b[2])
            for side in (-1, 1)
        )
        value = _choose_value(lower, upper)
        common = math.lcm(denom, value.denominator)
        if common != denom:
            numerators = [n * (common // denom) for n in numerators]
            denom = common
        numerators[var] = value.numerator * (denom // value.denominator)
    witness = tuple(Fraction(n, denom) for n in numerators)
    if not system.holds_at(witness):
        raise RuntimeError("back-substituted witness violates the system")
    return Feasible(witness=witness)
