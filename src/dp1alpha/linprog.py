"""Exact linear programming over the rationals.

A small two-phase simplex working entirely in exact arithmetic.  Problems
are stated as  minimize c.x  subject to  A x = b  with a per-variable
nonnegativity flag (free variables are split internally).  Infeasible
problems come back with a Farkas certificate: a row multiplier vector y
with y.A <= 0 componentwise and y.b > 0, verified exactly before it is
returned.  Bland's rule keeps the pivoting finite.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968).  Each row is a
list of Python ints that is a positive multiple of the same row of the
normalized tableau, the one whose basic columns are unit vectors: dividing
the stored row by its entry in the row's basic column gives the normalized
row back.  A pivot cross-multiplies instead of dividing and then divides
each row by the gcd of its entries, which keeps the entries as small as the
row allows.  Every decision the simplex takes (a sign, a zero test, a ratio
comparison) is invariant under positive row scaling, so the pivots, the
returned vertex and the Farkas vector are those of the normalized tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .rationals import clear

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPProblem:
    """minimize objective.x  subject to  rows[i].x == rhs[i]  for all i.

    ``nonneg[j]`` marks variable j as constrained to x_j >= 0; variables
    flagged False are free.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self) -> None:
        n = len(self.objective)
        if len(self.nonneg) != n:
            raise ValueError("nonneg flags must match the variable count")
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("constraint row has wrong arity")


@dataclass(frozen=True)
class LPResult:
    status: str
    objective_value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


class _CostRow:
    """Reduced costs ``row[j] / den`` (den > 0); the last entry is minus the objective."""

    __slots__ = ("row", "den")

    def __init__(self, row: list[int], den: int) -> None:
        self.row = row
        self.den = den

    def subtract(self, factor: int, tableau_row: list[int], p: int) -> None:
        """Subtract (factor / den) * tableau_row / p, where p > 0."""
        new = [a * p - factor * b for a, b in zip(self.row, tableau_row)]
        den = self.den * p
        g = math.gcd(den, *new)
        self.row = [a // g for a in new]
        self.den = den // g


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _pivot(tableau: list[list[int]], z: _CostRow, basis: list[int], row: int, col: int) -> None:
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:  # only when driving out artificials; keep every row's scale positive
        pivot_row = tableau[row] = [-a for a in pivot_row]
        p = -p
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = _primitive([a * p - factor * b for a, b in zip(other, pivot_row)])
    if z.row[col]:
        z.subtract(z.row[col], pivot_row, p)
    basis[row] = col


def _run_simplex(tableau: list[list[int]], z: _CostRow, basis: list[int]) -> bool:
    """Minimize until no negative reduced cost remains.

    Every column of the tableau may enter the basis; phase 2 runs on a
    tableau whose artificial columns are already cut.  Returns False when an
    improving column has no blocking row, i.e. the LP is unbounded.
    """
    ncols = len(z.row) - 1
    while True:
        z_row = z.row
        entering = -1
        for j in range(ncols):
            if z_row[j] < 0:
                entering = j
                break
        if entering < 0:
            return True
        # ratio test on rhs/coeff, compared by cross-multiplying positive coefficients
        leaving = -1
        best_rhs = best_coeff = 0
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff <= 0:
                continue
            if leaving >= 0:
                lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                    continue
            best_rhs, best_coeff = row[-1], coeff
            leaving = i
        if leaving < 0:
            return False
        _pivot(tableau, z, basis, leaving, entering)


def _reduced_costs(tableau: list[list[int]], basis: list[int], cost: list[int]) -> _CostRow:
    z = _CostRow(cost + [0], 1)
    for i, b in enumerate(basis):
        cb = cost[b] if b < len(cost) else 0
        if cb:
            z.subtract(cb * z.den, tableau[i], tableau[i][b])
    return z


def solve(problem: LPProblem) -> LPResult:
    """Solve an exact LP, returning an optimum, a Farkas certificate, or unbounded."""
    n = len(problem.objective)
    m = len(problem.rows)

    # Split free variables into positive and negative parts.
    col_of: list[tuple[int, int]] = []  # (positive column, negative column or -1)
    _, objective = clear(problem.objective)  # a positive multiple of the costs
    cost: list[int] = []
    columns = 0
    for j in range(n):
        cj = objective[j]
        if problem.nonneg[j]:
            col_of.append((columns, -1))
            cost.append(cj)
            columns += 1
        else:
            col_of.append((columns, columns + 1))
            cost.extend([cj, -cj])
            columns += 2

    # Each row [A_i | b_i] scaled by its least common denominator L_i, signed
    # so the right-hand side is nonnegative, plus an artificial column that
    # carries the same scale L_i.
    scales: list[int] = []
    int_rows: list[list[int]] = []
    row_sign: list[int] = []
    tableau: list[list[int]] = []
    for i in range(m):
        scale, int_row = clear((*problem.rows[i], problem.rhs[i]))
        scales.append(scale)
        int_rows.append(int_row)
        sign = -1 if int_row[-1] < 0 else 1
        row_sign.append(sign)
        expanded = [0] * (columns + m)
        for j in range(n):
            a = int_row[j] * sign
            if not a:
                continue
            pos, neg = col_of[j]
            expanded[pos] = a
            if neg >= 0:
                expanded[neg] = -a
        expanded[columns + i] = scale
        expanded.append(int_row[-1] * sign)
        tableau.append(expanded)

    basis = [columns + i for i in range(m)]
    z = _reduced_costs(tableau, basis, [0] * columns + [1] * m)
    if not _run_simplex(tableau, z, basis):
        raise AssertionError("phase 1 objective is bounded below by zero")

    if z.row[-1] < 0:  # leftover artificial mass: infeasible
        # y_i = row_sign_i * (1 - z_{art i}), held here as den * y_i
        mults = [row_sign[i] * (z.den - z.row[columns + i]) for i in range(m)]
        # Against the integer rows L_i * [A_i | b_i] the multipliers
        # y_i * lcm(L) / L_i clear every denominator and keep every sign.
        common = math.lcm(*scales)
        weights = [y * (common // s) for y, s in zip(mults, scales)]
        sums = [sum(w * a for w, a in zip(weights, column)) for column in zip(*int_rows)]
        if any(against > 0 for against in sums[:n]) or not sums[n] > 0:
            raise AssertionError("invalid Farkas certificate")
        return LPResult(status=INFEASIBLE, farkas=tuple(Fraction(y, z.den) for y in mults))

    # Drive leftover artificial variables out of the basis.
    keep_rows: list[int] = []
    for i in range(m):
        if basis[i] < columns:
            keep_rows.append(i)
            continue
        entering = next((j for j in range(columns) if tableau[i][j]), -1)
        if entering >= 0:
            _pivot(tableau, z, basis, i, entering)
            keep_rows.append(i)
        # else: the row reduced to 0 == 0 and is dropped as redundant
    tableau = [tableau[i][:columns] + [tableau[i][-1]] for i in keep_rows]
    basis = [basis[i] for i in keep_rows]

    z = _reduced_costs(tableau, basis, cost)
    if not _run_simplex(tableau, z, basis):
        return LPResult(status=UNBOUNDED)

    zero = Fraction(0)
    values = [zero] * columns
    for i, b in enumerate(basis):
        values[b] = Fraction(tableau[i][-1], tableau[i][b])
    point = []
    for j in range(n):
        pos, neg = col_of[j]
        point.append(values[pos] - (values[neg] if neg >= 0 else zero))

    support = [j for j in range(n) if point[j]]
    for i in range(m):
        row = problem.rows[i]
        if sum((row[j] * point[j] for j in support), zero) != problem.rhs[i]:
            raise AssertionError("optimal point violates an equality row")
    for j in support:
        if problem.nonneg[j] and point[j] < 0:
            raise AssertionError("optimal point violates a sign constraint")

    objective_value = sum((problem.objective[j] * point[j] for j in support), zero)
    return LPResult(status=OPTIMAL, objective_value=objective_value, point=tuple(point))
