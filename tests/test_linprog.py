"""Tests for the exact simplex, cross-checked by brute-force vertex enumeration
and by the plain-``Fraction`` reference simplex in ``reference_simplex``."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import dp1alpha.cone as cone
import reference_face
import test_acceptance
from dp1alpha.alpha import example_polarization
from dp1alpha.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem, solve
from dp1alpha.picard import canonical_class
from reference_simplex import solve as reference_solve


def _lp(objective, rows, rhs, nonneg=None):
    n = len(objective)
    if nonneg is None:
        nonneg = [True] * n
    return LPProblem(
        objective=tuple(Fraction(c) for c in objective),
        rows=tuple(tuple(Fraction(a) for a in row) for row in rows),
        rhs=tuple(Fraction(b) for b in rhs),
        nonneg=tuple(nonneg),
    )


# --------------------------------------------------------------------------
# Oracle: for standard-form LPs (all variables nonnegative) the optimum, if
# one exists, is attained at a basic feasible solution, so enumerating all
# basis subsets decides feasibility and computes the optimal value.
# --------------------------------------------------------------------------


def _solve_square(rows, rhs):
    """Gaussian elimination over Fraction; None when singular."""
    m = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * p for a, p in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]


def _drop_redundant_rows(rows, rhs):
    """Row-reduce [A|b]; returns (rows, rhs) of full row rank, or None if 0 = c."""
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    n = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n):
        pivot_row = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        inv = Fraction(1) / aug[rank][col]
        aug[rank] = [a * inv for a in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * p for a, p in zip(aug[r], aug[rank])]
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][n] != 0:
            return None  # 0 == nonzero: inconsistent
    return [row[:n] for row in aug[:rank]], [row[n] for row in aug[:rank]]


def _oracle_optimum(problem: LPProblem):
    """Best objective over basic feasible points; None when none exists."""
    reduced = _drop_redundant_rows(list(problem.rows), list(problem.rhs))
    if reduced is None:
        return None
    rows, rhs = reduced
    m = len(rows)
    n = len(problem.objective)
    if m == 0:
        return Fraction(0)  # nonnegative objective: x = 0 is optimal
    best = None
    for cols in combinations(range(n), m):
        square = [[rows[i][j] for j in cols] for i in range(m)]
        values = _solve_square(square, list(rhs))
        if values is None or any(v < 0 for v in values):
            continue
        point = [Fraction(0)] * n
        for c, v in zip(cols, values):
            point[c] = v
        objective = sum(c * x for c, x in zip(problem.objective, point))
        if best is None or objective < best:
            best = objective
    return best


class TestHandPicked:
    def test_small_optimum(self):
        # min -x - y  s.t.  x + 2y = 4,  3x + y = 7   (intersection x=2, y=1)
        result = solve(_lp([-1, -1], [[1, 2], [3, 1]], [4, 7]))
        assert result.status == OPTIMAL
        assert result.point == (2, 1)
        assert result.objective_value == -3

    def test_degenerate_choice(self):
        # min x1  s.t.  x1 + x2 = 1; optimum picks x1 = 0
        result = solve(_lp([1, 0], [[1, 1]], [1]))
        assert result.status == OPTIMAL
        assert result.objective_value == 0

    def test_infeasible_sign(self):
        # x + y = -1 with x, y >= 0
        result = solve(_lp([0, 0], [[1, 1]], [-1]))
        assert result.status == INFEASIBLE
        assert result.farkas is not None

    def test_infeasible_pair(self):
        # x = 1 and x = 2 simultaneously
        result = solve(_lp([0], [[1], [1]], [1, 2]))
        assert result.status == INFEASIBLE

    def test_unbounded(self):
        # min -x  s.t.  x - y = 0:  x = y -> infinity
        result = solve(_lp([-1, 0], [[1, -1]], [0]))
        assert result.status == UNBOUNDED

    def test_free_variable(self):
        # min y - x  s.t.  x + y = 3,  x free:  take y = 0, x = 3
        result = solve(_lp([-1, 1], [[1, 1]], [3], nonneg=[False, True]))
        assert result.status == OPTIMAL
        assert result.point == (3, 0)
        assert result.objective_value == -3

    def test_free_variable_negative_value(self):
        # min x  s.t. x + y = -2, y >= 0, x free: x = -2 - y, unbounded below
        result = solve(_lp([1, 0], [[1, 1]], [-2], nonneg=[False, True]))
        assert result.status == UNBOUNDED

    def test_redundant_rows(self):
        # duplicated constraint must not confuse the basis bookkeeping
        result = solve(_lp([1, 1], [[1, 1], [2, 2]], [2, 4]))
        assert result.status == OPTIMAL
        assert result.objective_value == 2

    def test_zero_rows_zero_rhs(self):
        result = solve(_lp([1], [[0]], [0]))
        assert result.status == OPTIMAL
        assert result.objective_value == 0

    def test_fractional_data(self):
        result = solve(_lp([Fraction(1, 3)], [[Fraction(2, 7)]], [Fraction(3, 5)]))
        assert result.status == OPTIMAL
        assert result.point == (Fraction(21, 10),)
        assert result.objective_value == Fraction(7, 10)

    def test_no_constraints(self):
        result = solve(_lp([1, 1], [], []))
        assert result.status == OPTIMAL
        assert result.objective_value == 0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            _lp([1, 2], [[1]], [1])
        with pytest.raises(ValueError):
            LPProblem(
                objective=(Fraction(1),),
                rows=(),
                rhs=(Fraction(1),),
                nonneg=(True,),
            )


class TestFarkasCertificates:
    def _check_certificate(self, problem: LPProblem, farkas) -> None:
        n = len(problem.objective)
        m = len(problem.rows)
        for j in range(n):
            combo = sum(farkas[i] * problem.rows[i][j] for i in range(m))
            assert combo <= 0
        assert sum(farkas[i] * problem.rhs[i] for i in range(m)) > 0

    def test_certificates_verify(self):
        cases = [
            _lp([0, 0], [[1, 1]], [-1]),
            _lp([0], [[1], [1]], [1, 2]),
            _lp([0, 0, 0], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, -3]),
            _lp([1, 2], [[1, -1], [-1, 1]], [1, 1]),
        ]
        for problem in cases:
            result = solve(problem)
            assert result.status == INFEASIBLE
            self._check_certificate(problem, result.farkas)


class TestAgainstVertexOracle:
    def test_random_standard_form(self):
        rng = random.Random(20260816)
        for trial in range(150):
            m = rng.randint(1, 3)
            n = rng.randint(m, 6)
            rows = [
                [Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)
            ]
            if trial % 2 == 0:
                # force feasibility via a known nonnegative point
                witness = [Fraction(max(0, rng.randint(-2, 3))) for _ in range(n)]
                rhs = [
                    sum(row[j] * witness[j] for j in range(n)) for row in rows
                ]
            else:
                rhs = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
            objective = [Fraction(rng.randint(0, 5)) for _ in range(n)]
            # nonnegative objective over a nonnegative orthant cannot be unbounded
            problem = _lp(objective, rows, rhs)
            result = solve(problem)
            expected = _oracle_optimum(problem)
            if expected is None:
                assert result.status == INFEASIBLE, (trial, rows, rhs)
            else:
                assert result.status == OPTIMAL, (trial, rows, rhs)
                assert result.objective_value == expected, (trial, rows, rhs)


# --------------------------------------------------------------------------
# The fraction-free tableau stores each row as an integer multiple of the
# normalized row, so it must take the reference simplex's pivots and return
# the same vertex, objective value and Farkas vector on every problem.
# --------------------------------------------------------------------------


# x1 = x3 and x2 = -3/2 x1 leave only the origin.  Phase 1 ends with an
# artificial basic at level zero in the first row; driving it out pivots on a
# negative entry, and phase 2 then pivots once more through the ratio test.
NEGATIVE_PIVOT = _lp([2, -1, -2], [[-2, 0, 2], [2, 2, 1]], [0, 0])


def _hand_picked_problems() -> list[LPProblem]:
    return [
        _lp([-1, -1], [[1, 2], [3, 1]], [4, 7]),
        _lp([1, 0], [[1, 1]], [1]),  # degenerate choice
        _lp([0, 0], [[1, 1]], [-1]),
        _lp([0], [[1], [1]], [1, 2]),
        _lp([-1, 0], [[1, -1]], [0]),  # unbounded
        _lp([-1, 1], [[1, 1]], [3], nonneg=[False, True]),  # free variable
        _lp([1, 0], [[1, 1]], [-2], nonneg=[False, True]),  # free, unbounded
        _lp([1, 1], [[1, 1], [2, 2]], [2, 4]),  # redundant row
        _lp([1], [[0]], [0]),
        _lp([Fraction(1, 3)], [[Fraction(2, 7)]], [Fraction(3, 5)]),
        _lp([1, 1], [], []),
        _lp([0, 0, 0], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, -3]),
        _lp([1, 2], [[1, -1], [-1, 1]], [1, 1]),
        NEGATIVE_PIVOT,
        _lp(
            [Fraction(-1, 2), 0, 3],
            [[Fraction(1, 2), Fraction(-3, 4), 1], [2, 0, Fraction(-5, 3)]],
            [Fraction(7, 6), Fraction(-1, 9)],
            nonneg=[True, False, True],
        ),
    ]


@pytest.fixture
def recorded(monkeypatch):
    """Record every problem that the named modules pass to their ``solve`` binding."""
    problems: list[LPProblem] = []

    def record(*modules):
        for module in modules:
            real = module.solve

            def recording(problem, real=real):
                problems.append(problem)
                return real(problem)

            monkeypatch.setattr(module, "solve", recording)
        return problems

    return record


class TestAgainstReferenceSimplex:
    def test_hand_picked(self):
        for problem in _hand_picked_problems():
            assert solve(problem) == reference_solve(problem), problem

    def test_negative_pivot_case_solves(self):
        result = solve(NEGATIVE_PIVOT)
        assert result.status == OPTIMAL
        assert result.point == (0, 0, 0)
        assert result.objective_value == 0

    def test_random_standard_and_free(self):
        rng = random.Random(977)
        statuses = set()
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(m)]
            rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(m)]
            objective = [rng.randint(-3, 3) for _ in range(n)]
            nonneg = [rng.random() < 0.7 for _ in range(n)]
            problem = _lp(objective, rows, rhs, nonneg)
            result = solve(problem)
            assert result == reference_solve(problem), problem
            statuses.add(result.status)
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_criterion_10_problems(self, recorded):
        """The strict-slack LPs of criterion 10, then the mu and membership
        LPs of the first ample classes its generator draws and the reference
        face LPs of their boundary classes."""
        problems = recorded(test_acceptance, cone, reference_face)
        rng = random.Random(424242)
        for trial in range(200):
            system = test_acceptance._random_system(rng, force_feasible=trial % 2 == 0)
            test_acceptance._simplex_feasible(system)
        k = canonical_class()
        for ample_class in test_acceptance._random_ample_classes(rng, 2):
            mu = cone.mu_threshold(ample_class)
            cone.membership_certificate(k + mu * ample_class)
            cone.membership_certificate(k + (Fraction(999, 1000) * mu) * ample_class)
            cone.classify(ample_class)
            reference_face._face_of(k + mu * ample_class)
        pencil_class = example_polarization(Fraction(1, 2))
        cone.classify(pencil_class)
        reference_face._face_of(k + cone.mu_threshold(pencil_class) * pencil_class)
        assert len(problems) > 200
        statuses = set()
        for problem in problems:
            result = solve(problem)
            assert result == reference_solve(problem)
            statuses.add(result.status)
        assert statuses == {OPTIMAL, INFEASIBLE}
