"""Tests for the Fourier-Motzkin prover, cross-checked against the simplex
and against the ``Fraction`` eliminator in ``tests/reference_fme.py``."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import reference_fme
from dp1alpha import fme, lemmas
from dp1alpha.fme import (
    EQ,
    LE,
    LT,
    FarkasCertificate,
    Feasible,
    LinearSystem,
    check_certificate,
    prove_infeasible,
)
from dp1alpha.linprog import INFEASIBLE, OPTIMAL, LPProblem, solve
from test_acceptance import _random_system as _criterion_10_system


def _system(variables: list[str], rows: list[tuple]) -> LinearSystem:
    return LinearSystem(variables, rows)


def _lp_feasibility_probe(system: LinearSystem) -> bool:
    """Independent feasibility answer from the exact simplex.

    Strict rows get a shared slack s with a . x + s <= rhs; the system is
    feasible exactly when the maximum of s (capped at 1) is positive.
    """
    n = len(system.variables)
    strict = [i for i, (_, rel, _) in enumerate(system.constraints) if rel == LT]
    columns = n
    s_col = None
    if strict:
        s_col = columns
        columns += 1
    slack_of = {}
    for i, (_, rel, _) in enumerate(system.constraints):
        if rel in (LE, LT):
            slack_of[i] = columns
            columns += 1
    cap_slack = None
    if strict:
        cap_slack = columns
        columns += 1
    rows, rhs = [], []
    for i, (coeffs, rel, b) in enumerate(system.constraints):
        row = [Fraction(0)] * columns
        for j, c in enumerate(coeffs):
            row[j] = c
        if rel in (LE, LT):
            row[slack_of[i]] = Fraction(1)
        if rel == LT:
            row[s_col] = Fraction(1)
        rows.append(tuple(row))
        rhs.append(b)
    if strict:
        cap = [Fraction(0)] * columns
        cap[s_col] = Fraction(1)
        cap[cap_slack] = Fraction(1)
        rows.append(tuple(cap))
        rhs.append(Fraction(1))
    objective = [Fraction(0)] * columns
    if strict:
        objective[s_col] = Fraction(-1)  # maximize the strictness slack
    nonneg = [False] * n + [True] * (columns - n)
    result = solve(
        LPProblem(tuple(objective), tuple(rows), tuple(rhs), tuple(nonneg))
    )
    if result.status == INFEASIBLE:
        return False
    assert result.status == OPTIMAL
    if strict:
        return -result.objective_value > 0
    return True


class TestBasicOutcomes:
    def test_two_row_contradiction(self):
        system = _system(["t"], [((-1,), LT, -1), ((1,), LE, 1)])  # t > 1, t <= 1
        result = prove_infeasible(system)
        assert isinstance(result, FarkasCertificate)
        assert check_certificate(system, result)
        handmade = FarkasCertificate((Fraction(1), Fraction(1)), frozenset({0}))
        assert check_certificate(system, handmade)

    def test_single_bound_is_feasible(self):
        system = _system(["t"], [((-1,), LE, 0)])  # t >= 0
        result = prove_infeasible(system)
        assert isinstance(result, Feasible)
        assert result.witness == (Fraction(0),)

    def test_zero_multipliers_fail(self):
        system = _system(["t"], [((-1,), LT, -1), ((1,), LE, 1)])
        null = FarkasCertificate((Fraction(0), Fraction(0)), frozenset())
        assert not check_certificate(system, null)

    def test_multiplier_count_mismatch(self):
        system = _system(["t"], [((1,), LE, 1)])
        with pytest.raises(ValueError):
            check_certificate(system, FarkasCertificate((Fraction(1),) * 2, frozenset()))

    def test_negative_weight_on_inequality_rejected(self):
        system = _system(["t"], [((1,), LE, 1), ((-1,), LE, 0)])
        bogus = FarkasCertificate((Fraction(-1), Fraction(0)), frozenset())
        assert not check_certificate(system, bogus)

    def test_wrong_strictness_witness_rejected(self):
        system = _system(["t"], [((-1,), LT, -1), ((1,), LE, 1)])
        cert = FarkasCertificate((Fraction(1), Fraction(1)), frozenset())
        assert not check_certificate(system, cert)

    def test_rows_that_do_not_cancel_rejected(self):
        # x <= 1 and x >= 2: only equal weights cancel x; 1*(x <= 1) + 2*(-x <= -2)
        # gives -x <= -3, which is no contradiction although its rhs is negative
        system = _system(["x"], [((1,), LE, 1), ((-1,), LE, -2)])
        uneven = FarkasCertificate((Fraction(1), Fraction(2)), frozenset())
        assert not check_certificate(system, uneven)
        even = FarkasCertificate((Fraction(1), Fraction(1)), frozenset())
        assert check_certificate(system, even)

    def test_lemma_certificate_with_one_multiplier_scaled_rejected(self):
        case = lemmas.get_encoding("local-1").cases[0]
        certificate = lemmas.verify_lemma("local-1").cases[0].certificate
        weights = list(certificate.multipliers)
        # a row with rhs 0, so the scaled sum keeps its contradictory rhs
        index = next(
            i for i, (w, row) in enumerate(zip(weights, case.rows)) if w > 0 and row.rhs == 0
        )
        weights[index] *= 2
        scaled = FarkasCertificate(tuple(weights), certificate.strict_indices)
        assert check_certificate(case.system(), certificate)
        assert not check_certificate(case.system(), scaled)


class TestEqualityRows:
    def test_infeasible_with_equality(self):
        # x + y = 1, x >= 0, y >= 2
        system = _system(
            ["x", "y"],
            [((1, 1), EQ, 1), ((-1, 0), LE, 0), ((0, -1), LE, -2)],
        )
        result = prove_infeasible(system)
        assert isinstance(result, FarkasCertificate)
        assert check_certificate(system, result)

    def test_feasible_with_equality(self):
        system = _system(
            ["x", "y"],
            [((1, 1), EQ, 1), ((-1, 0), LE, 0), ((0, -1), LE, 0)],
        )
        result = prove_infeasible(system)
        assert isinstance(result, Feasible)
        x, y = result.witness
        assert x + y == 1 and x >= 0 and y >= 0

    def test_signed_multiplier_on_equality_allowed(self):
        # from x = 1 and x <= 0: (-1)*(x = 1) + 1*(x <= 0) gives 0 <= -1
        system = _system(["x"], [((1,), EQ, 1), ((1,), LE, 0)])
        cert = FarkasCertificate((Fraction(-1), Fraction(1)), frozenset())
        assert check_certificate(system, cert)
        assert isinstance(prove_infeasible(system), FarkasCertificate)


def _count_combines(monkeypatch) -> list:
    """The rows the stage loop builds from here on, each through fme._combine."""
    built = []
    combine = fme._combine

    def counting(*args):
        row = combine(*args)
        built.append(row)
        return row

    monkeypatch.setattr(fme, "_combine", counting)
    return built


def _equality_heavy_system(rng: random.Random, force_feasible: bool) -> LinearSystem:
    """Criterion 10's shape (1-6 variables, 2-12 rows) with about half the rows equalities."""
    count = rng.randint(1, 6)
    witness = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(count)]
    rows = []
    for _ in range(rng.randint(2, 12)):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(count)]
        roll = rng.random()
        rel = EQ if roll < 0.5 else LE if roll < 0.8 else LT
        if force_feasible:
            value = sum((c * w for c, w in zip(coeffs, witness)), Fraction(0))
            rhs = value + {EQ: 0, LE: rng.randint(0, 3), LT: rng.randint(1, 3)}[rel]
        else:
            rhs = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        rows.append((tuple(coeffs), rel, rhs))
    return LinearSystem([f"v{i}" for i in range(count)], rows)


class TestEqualitySubstitution:
    """Equalities are substituted out before elimination; the pivot is solved last.

    Each answer is also the reference eliminator's, which substitutes in
    Fraction arithmetic.
    """

    def _answer(self, variables, rows):
        system = _system(variables, rows)
        result = prove_infeasible(system)
        assert result == reference_fme.prove_infeasible(system)
        if isinstance(result, Feasible):
            assert system.holds_at(result.witness)
        else:
            assert check_certificate(system, result)
        return result

    def test_inconsistent_equalities(self):
        # x = 1 rewrites x = 2 to 0 = 1, which times -1 is the contradiction
        result = self._answer(["x"], [((1,), EQ, 1), ((1,), EQ, 2)])
        assert result == FarkasCertificate((Fraction(1), Fraction(-1)), frozenset())

    def test_dependent_equality_is_dropped(self):
        # 2x + 2y = 4 rewrites to 0 = 0 and carries no weight
        rows = [((1, 1), EQ, 2), ((2, 2), EQ, 4), ((-1, 0), LE, 0), ((0, -1), LE, 0)]
        assert self._answer(["x", "y"], rows) == Feasible((Fraction(1), Fraction(1)))
        rows[2] = ((-1, 0), LE, -3)  # x >= 3 against x + y = 2 and y >= 0
        certificate = self._answer(["x", "y"], rows)
        assert certificate.multipliers == (1, 0, 1, 1)

    def test_non_unit_pivot(self):
        # 2x + 3y = 1 pivots on x, the least |coefficient|; y = 0 gives x = 1/2
        result = self._answer(["x", "y"], [((2, 3), EQ, 1), ((0, -1), LE, 0)])
        assert result == Feasible((Fraction(1, 2), Fraction(0)))

    def test_strict_row_rewritten(self):
        # x = 1 - y turns x - y < 1 into -2y < 0: y > 0, so y = 1 and x = 0
        rows = [((1, 1), EQ, 1), ((1, -1), LT, 1)]
        assert self._answer(["x", "y"], rows) == Feasible((Fraction(0), Fraction(1)))
        # with y <= 0 the rewritten strict row is the contradiction 0 < 0
        certificate = self._answer(["x", "y"], rows + [((0, 1), LE, 0)])
        assert certificate == FarkasCertificate(
            (Fraction(-1, 2), Fraction(1, 2), Fraction(1)), frozenset({1})
        )

    def test_every_variable_a_pivot(self, monkeypatch):
        # x + y = 3 and x - y = 1 fix both variables, and x >= 0 rewrites to
        # 0 <= 2: no stage eliminates a variable
        built = _count_combines(monkeypatch)
        rows = [((1, 1), EQ, 3), ((1, -1), EQ, 1), ((-1, 0), LE, 0)]
        assert self._answer(["x", "y"], rows) == Feasible((Fraction(2), Fraction(1)))
        # x >= 3 rewrites to 0 <= -1, a row that is itself the contradiction
        rows[2] = ((-1, 0), LE, -3)
        certificate = self._answer(["x", "y"], rows)
        assert certificate.multipliers == (Fraction(1, 2), Fraction(1, 2), 1)
        assert built == []

    def test_initial_rows_are_in_lowest_terms(self):
        # rationals.clear gives a row over its least common denominator, not in
        # lowest terms: 2x + 4y <= 6 enters as x + 2y <= 3 (and a row 0 <= 0,
        # whose gcd is 0, as itself)
        (row,), _ = fme._initial_rows(_system(["x", "y"], [((2, 4), LE, 6)]))
        assert (row.coeffs, row.rhs) == ([1, 2], 3)
        systems = _lemma_systems() + _probe_systems()
        rng = random.Random(424242)
        systems += [_criterion_10_system(rng, force_feasible=t % 2 == 0) for t in range(200)]
        for system in systems:
            rows, _ = fme._initial_rows(system)
            assert all(math.gcd(*row.coeffs, row.rhs) <= 1 for row in rows)

    def test_equality_heavy_sweep_against_the_simplex(self):
        # the reference now substitutes as the package does; the exact simplex
        # is the independent answer
        rng = random.Random(20261020)
        outcomes = {True: 0, False: 0}
        for trial in range(600):
            forced = trial % 2 == 0
            system = _equality_heavy_system(rng, force_feasible=forced)
            result = prove_infeasible(system)
            feasible = isinstance(result, Feasible)
            if feasible:
                assert system.holds_at(result.witness)
            else:
                assert check_certificate(system, result)
            assert feasible == _lp_feasibility_probe(system), f"trial {trial}"
            assert feasible or not forced, f"trial {trial}"
            outcomes[feasible] += 1
        assert outcomes[True] >= 300 and outcomes[False] >= 100


class TestStrictBoundaries:
    def test_point_against_strict(self):
        system = _system(["x"], [((-1,), LE, 0), ((1,), LT, 0)])  # x >= 0, x < 0
        assert isinstance(prove_infeasible(system), FarkasCertificate)

    def test_strict_at_satisfied_boundary(self):
        system = _system(
            ["x"], [((-1,), LE, 0), ((1,), LE, 0), ((1,), LT, 1)]
        )  # x = 0 allowed, x < 1 slack
        result = prove_infeasible(system)
        assert isinstance(result, Feasible)
        assert result.witness == (Fraction(0),)

    def test_open_corridor(self):
        system = _system(["x"], [((-1,), LT, 0), ((1,), LT, 1)])  # 0 < x < 1
        result = prove_infeasible(system)
        assert isinstance(result, Feasible)
        assert Fraction(0) < result.witness[0] < Fraction(1)

    def test_degenerate_open_corridor(self):
        system = _system(["x"], [((-1,), LT, 0), ((1,), LT, 0)])  # 0 < x < 0
        assert isinstance(prove_infeasible(system), FarkasCertificate)


class TestProofChainSystem:
    def test_nodal_chain_is_infeasible(self):
        # 0 <= x <= 1, a >= 0, m >= 0, a <= x/2, T <= 4/3 + x/6 - a,
        # 2m <= T, T >= 2m + TQ, TQ > 3 - 4a - 2m, TQ >= 0
        variables = ["x", "a", "m", "T", "TQ"]
        rows = [
            ((-1, 0, 0, 0, 0), LE, 0),
            ((1, 0, 0, 0, 0), LE, 1),
            ((0, -1, 0, 0, 0), LE, 0),
            ((0, 0, -1, 0, 0), LE, 0),
            ((Fraction(-1, 2), 1, 0, 0, 0), LE, 0),
            ((Fraction(-1, 6), 1, 0, 1, 0), LE, Fraction(4, 3)),
            ((0, 0, 2, -1, 0), LE, 0),
            ((0, 0, 2, -1, 1), LE, 0),
            ((0, -4, -2, 0, -1), LT, -3),
            ((0, 0, 0, 0, -1), LE, 0),
        ]
        system = _system(variables, rows)
        result = prove_infeasible(system)
        assert isinstance(result, FarkasCertificate)
        assert check_certificate(system, result)

    def test_dropping_the_x_cap_opens_it(self):
        variables = ["x", "a", "m", "T", "TQ"]
        rows = [
            ((-1, 0, 0, 0, 0), LE, 0),
            ((0, -1, 0, 0, 0), LE, 0),
            ((0, 0, -1, 0, 0), LE, 0),
            ((Fraction(-1, 2), 1, 0, 0, 0), LE, 0),
            ((Fraction(-1, 6), 1, 0, 1, 0), LE, Fraction(4, 3)),
            ((0, 0, 2, -1, 0), LE, 0),
            ((0, 0, 2, -1, 1), LE, 0),
            ((0, -4, -2, 0, -1), LT, -3),
            ((0, 0, 0, 0, -1), LE, 0),
        ]
        system = _system(variables, rows)
        result = prove_infeasible(system)
        assert isinstance(result, Feasible)
        assert result.witness[0] > 1  # only large x admits a solution


def _random_system(rng: random.Random, force_feasible: bool) -> LinearSystem:
    n = rng.randint(1, 4)
    variables = [f"v{i}" for i in range(n)]
    row_count = rng.randint(2, 7)
    witness = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    rows = []
    for _ in range(row_count):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        roll = rng.random()
        rel = LE if roll < 0.6 else LT if roll < 0.85 else EQ
        if force_feasible:
            value = sum((c * w for c, w in zip(coeffs, witness)), Fraction(0))
            if rel == EQ:
                rhs = value
            elif rel == LE:
                rhs = value + Fraction(rng.randint(0, 3))
            else:
                rhs = value + Fraction(rng.randint(1, 3))
        else:
            rhs = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        rows.append((tuple(coeffs), rel, rhs))
    return LinearSystem(variables, rows)


class TestSimplexCrossCheck:
    def test_two_hundred_random_systems(self):
        rng = random.Random(20260816)
        outcomes = {True: 0, False: 0}
        for trial in range(200):
            system = _random_system(rng, force_feasible=trial % 2 == 0)
            result = prove_infeasible(system)
            if isinstance(result, Feasible):
                assert system.holds_at(result.witness)
                feasible = True
            else:
                assert check_certificate(system, result)
                feasible = False
            assert feasible == _lp_feasibility_probe(system), f"trial {trial}"
            outcomes[feasible] += 1
        assert outcomes[True] >= 100  # the forced-feasible half
        assert outcomes[False] >= 40  # plenty of genuine contradictions


def _lemma_systems() -> list[LinearSystem]:
    return [
        case.system()
        for lemma_id in lemmas.LEMMA_IDS
        for case in lemmas.get_encoding(lemma_id).cases
    ]


def _probe_systems() -> list[LinearSystem]:
    systems = []
    for lemma_id in lemmas.LEMMA_IDS:
        encoding = lemmas.get_encoding(lemma_id)
        for probe in encoding.probes:
            case = next(c for c in encoding.cases if c.name == probe.case_name)
            systems.append(case.system(drop=probe.row_tag))
    return systems


class TestAgainstReference:
    """Integer rows must reproduce the ``Fraction`` eliminator's results exactly."""

    @pytest.mark.parametrize("systems", [_lemma_systems, _probe_systems], ids=["lemmas", "probes"])
    def test_lemma_bank(self, systems):
        for system in systems():
            assert prove_infeasible(system) == reference_fme.prove_infeasible(system)

    @pytest.mark.parametrize("seed", [424242, 1, 2, 3, 4, 5])
    def test_criterion_10_systems(self, seed):
        rng = random.Random(seed)
        for trial in range(200):
            system = _criterion_10_system(rng, force_feasible=trial % 2 == 0)
            expected = reference_fme.prove_infeasible(system)
            assert prove_infeasible(system) == expected, f"trial {trial}"

    def test_contradiction_from_a_pair_past_the_bound(self):
        # Eliminating x leaves, after duplicate pruning, y >= 2 (rows 1, 3) and
        # y <= -3 (rows 0, 2).  Their pair draws on four rows, more than one
        # plus the two eliminated variables they contain, yet it is the
        # contradiction 0 <= -5: the bound must not drop a pair that cancels
        # every variable.
        system = _system(
            ["x", "y"],
            [((-2, -1), LE, -2), ((1, -2), LE, -1), ((2, 2), LE, -1), ((-1, 1), LE, -1)],
        )
        result = prove_infeasible(system)
        assert result == FarkasCertificate((Fraction(1),) * 4, frozenset())
        assert result == reference_fme.prove_infeasible(system)

    def test_certify_pool_slow_system(self, monkeypatch):
        # The 7th system of the certify workload's pool, as that workload
        # relabels it: forced feasible, 6 variables and 11 rows, of which
        # three are equalities.  Split into two inequalities each, the
        # equalities made the stages build 557 rows; substituted out, they
        # leave 8 inequalities in 3 variables, and the stages build 34.
        built = _count_combines(monkeypatch)
        rows = [
            ((3, -2, 2, -2, 2, 2), LE, Fraction(-40, 3)),
            ((2, 0, -3, 1, 0, 3), LE, Fraction(9, 2)),
            ((3, 2, 3, -3, -2, 0), LE, Fraction(-73, 6)),
            ((2, 1, -2, -2, 1, 3), LE, Fraction(-28, 3)),
            ((-2, 0, -2, -2, -3, 2), LE, -10),
            ((-3, -2, -1, 3, 0, -3), LE, Fraction(127, 6)),
            ((-2, 1, -3, 2, -2, 3), EQ, Fraction(13, 6)),
            ((-2, 3, 0, 3, 3, 3), LE, 5),
            ((3, 0, 2, 2, -3, -1), LT, 14),
            ((1, 3, -1, -1, 3, 3), EQ, Fraction(-17, 2)),
            ((-3, 1, 1, 0, 0, 2), EQ, Fraction(-59, 6)),
        ]
        system = _system([f"v{i}" for i in range(6)], rows)
        result = prove_infeasible(system)
        assert isinstance(result, Feasible)
        assert result == reference_fme.prove_infeasible(system)
        assert built  # the stage loop builds every kept pair through _combine
        assert len(built) < 60


class TestBackSubstitutionTies:
    """Bounds of equal value from rows of different scales: the strict row wins.

    Back-substitution compares each bound as an integer pair (num, den) by
    cross-multiplication; a row with a negative coefficient gives a lower
    bound whose pair is negated so that den > 0.  Each witness must be the
    reference eliminator's and satisfy the system.
    """

    @pytest.mark.parametrize(
        "variables, rows, witness",
        [
            # x <= 1 and x < 1, in both orders: x < 1, so x = 1 - 1
            (["x"], [((2,), LE, 2), ((3,), LT, 3)], (0,)),
            (["x"], [((3,), LT, 3), ((2,), LE, 2)], (0,)),
            # x >= 1 and x > 1, in both orders: x > 1, so x = 1 + 1
            (["x"], [((-2,), LE, -2), ((-1,), LT, -1)], (2,)),
            (["x"], [((-1,), LT, -1), ((-2,), LE, -2)], (2,)),
            # x >= 1 and x >= 2 at scales 2 and 3, under x <= 5: the midpoint of [2, 5]
            (["x"], [((-2,), LE, -2), ((-3,), LE, -6), ((1,), LE, 5)], (Fraction(7, 2),)),
            # x > 1 against x < 3 at other scales: the midpoint of (1, 3)
            (["x"], [((-4,), LE, -4), ((-2,), LT, -2), ((3,), LE, 9)], (2,)),
            # a closed interval that is one point, x = 1, and a slack strict row
            (["x"], [((-2,), LE, -2), ((3,), LE, 3), ((5,), LT, 10)], (1,)),
            (["x"], [((3,), LE, 3), ((5,), LT, 10), ((-2,), LE, -2)], (1,)),
            # y = 1/2 is fixed first, so x's bounds sit over the common
            # denominator 2: x <= 1/2 and x < 1/2 tie, and x >= 0
            (
                ["x", "y"],
                [
                    ((0, 2), LE, 1),
                    ((0, -2), LE, -1),
                    ((4, -2), LE, 1),
                    ((6, -3), LT, Fraction(3, 2)),
                    ((-1, 0), LE, 0),
                ],
                (Fraction(1, 4), Fraction(1, 2)),
            ),
        ],
    )
    def test_tied_bounds(self, variables, rows, witness):
        system = _system(variables, rows)
        result = prove_infeasible(system)
        assert result == Feasible(tuple(Fraction(w) for w in witness))
        assert result == reference_fme.prove_infeasible(system)
        assert system.holds_at(result.witness)


def _criterion_10_draw(seed: int, trial: int) -> LinearSystem:
    """The (trial+1)-th system that criterion 10's generator draws at seed."""
    rng = random.Random(seed)
    for t in range(trial + 1):
        system = _criterion_10_system(rng, force_feasible=t % 2 == 0)
    return system


class TestChernikovBound:
    """The bound counts the eliminated variables that a row's constraints contain.

    Counted per path (one plus the variables eliminated on the row's own
    path) alongside the pruning of parallel rows, it dropped a needed row of
    each system of the first test, and back-substitution met an empty
    interval.  Counted over every eliminated variable, it kept millions of
    redundant rows of the system of test_a_rare_variable_does_not_widen_the_bound
    while that system's equality was split into two inequalities.  A row
    that the equality substitution rewrote counts the variables of its
    rewritten coefficients.
    """

    @pytest.mark.parametrize("seed, trial", [(3, 199), (4, 6), (4, 187)])
    def test_formerly_unanswered_systems(self, seed, trial):
        system = _criterion_10_draw(seed, trial)
        result = prove_infeasible(system)
        assert isinstance(result, Feasible) == _lp_feasibility_probe(system)
        assert result == reference_fme.prove_infeasible(system)

    def test_sweep_never_raises(self):
        for seed in range(6, 31):
            rng = random.Random(seed)
            for trial in range(200):
                system = _criterion_10_system(rng, force_feasible=trial % 2 == 0)
                result = prove_infeasible(system)  # raises on an empty interval
                if trial % 2 == 0:
                    assert isinstance(result, Feasible), f"seed {seed} trial {trial}"

    def test_a_rare_variable_does_not_widen_the_bound(self, monkeypatch):
        # v5 occurs in 5 of the 15 inequalities left once the equality is
        # substituted out, and is eliminated first.  Counting it for rows
        # whose constraints lack it builds 2459 rows (3.2 million while the
        # equality was split into two inequalities); counting only the
        # variables the constraints contain builds 442.
        rows = [
            ((1, 1, 0, 3, 2, 1, -2), LE, Fraction(47, 6)),
            ((-3, 3, -2, -2, 2, 0, -2), LT, Fraction(-62, 3)),
            ((3, 1, -3, -1, 1, 0, -2), LE, Fraction(49, 6)),
            ((0, 3, 2, 2, 2, 0, 0), LE, Fraction(7, 3)),
            ((-2, 3, 0, 2, -3, 0, 2), LE, 3),
            ((-1, -2, 0, -3, 0, 0, -2), LE, -14),
            ((0, 3, 2, -2, 1, 0, -2), LE, Fraction(-43, 3)),
            ((1, 1, 2, -3, -1, 1, 3), LT, Fraction(-19, 6)),
            ((-3, -3, 1, -2, -2, 0, 1), LE, Fraction(-71, 6)),
            ((-2, -2, 3, 0, 1, 0, 0), EQ, Fraction(-65, 6)),
            ((-3, -3, 2, 1, 0, 0, 1), LE, -6),
            ((-3, -2, -1, -2, -2, -3, -3), LE, Fraction(-46, 3)),
            ((-1, -2, 1, 1, -1, 0, 3), LT, Fraction(41, 6)),
            ((-2, -1, 1, -2, -3, -1, 0), LE, -10),
            ((-1, -3, 1, -3, 2, 1, 1), LE, Fraction(-29, 3)),
            ((1, 3, 2, 1, 1, 0, -1), LT, Fraction(-1, 3)),
        ]
        system = _system([f"v{i}" for i in range(7)], rows)
        built = _count_combines(monkeypatch)
        result = prove_infeasible(system)
        assert isinstance(result, Feasible) and _lp_feasibility_probe(system)
        assert built  # the stage loop builds every kept pair through _combine
        assert len(built) < 1000

    def test_pair_filter_builds_the_reference_rows(self, monkeypatch):
        # The stage loop tests the bound before it builds a pair; the
        # reference builds each pair and then applies the bound.  Both must
        # keep the same rows, so the counts agree on every system.
        built = {"package": 0, "reference": 0}

        def counting(module, key):
            combine = module._combine

            def wrapper(*args):
                row = combine(*args)
                if row is not None:
                    built[key] += 1
                return row

            monkeypatch.setattr(module, "_combine", wrapper)

        counting(fme, "package")
        counting(reference_fme, "reference")
        systems = _lemma_systems() + _probe_systems()
        for seed in (424242, 1, 2):
            rng = random.Random(seed)
            systems += [
                _criterion_10_system(rng, force_feasible=trial % 2 == 0) for trial in range(200)
            ]
        for index, system in enumerate(systems):
            built.update(package=0, reference=0)
            prove_infeasible(system)
            reference_fme.prove_infeasible(system)
            assert built["package"] == built["reference"], f"system {index}"


def _certificate_variants(system: LinearSystem, certificate: FarkasCertificate):
    """The certificate, and copies with one multiplier moved, no strict rows or a negative weight."""
    weights = certificate.multipliers
    yield certificate
    yield FarkasCertificate(weights, frozenset())
    for i, weight in enumerate(weights):
        for moved in (weight + Fraction(1, 3), weight * Fraction(5, 4), -weight, Fraction(0)):
            if moved != weight:
                yield FarkasCertificate(weights[:i] + (moved,) + weights[i + 1 :],
                                        certificate.strict_indices)
    for i, (_, rel, _) in enumerate(system.constraints):
        if rel != EQ:
            yield FarkasCertificate(weights[:i] + (Fraction(-1),) + weights[i + 1 :],
                                    certificate.strict_indices)
            break


def _perturbed_points(rng: random.Random, point: tuple[Fraction, ...]):
    """The point, with its integral coordinates as ints, and copies with one coordinate moved."""
    mixed = tuple(int(x) if x.denominator == 1 else x for x in point)
    yield point
    yield mixed
    for i in range(len(point)):
        step = rng.choice([1, -1, Fraction(1, 7), Fraction(-1, 2), Fraction(1, 10**12)])
        yield mixed[:i] + (mixed[i] + step,) + mixed[i + 1 :]
    yield tuple(rng.randint(-3, 3) for _ in point)


class TestCheckersAgainstReference:
    """The integer checkers give the ``Fraction`` checkers' answer on every case."""

    @staticmethod
    def _agree(system: LinearSystem, result, rng: random.Random, tally: dict) -> None:
        if isinstance(result, FarkasCertificate):
            for certificate in _certificate_variants(system, result):
                expected = reference_fme.check_certificate(system, certificate)
                assert check_certificate(system, certificate) == expected, certificate
                tally["certificate", expected] += 1
            point = tuple(Fraction(0) for _ in system.variables)
        else:
            point = result.witness
        for moved in _perturbed_points(rng, point):
            expected = reference_fme.holds_at(system, moved)
            assert system.holds_at(moved) == expected, moved
            tally["point", expected] += 1

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_criterion_10_draws(self, seed):
        rng = random.Random(seed)
        perturb = random.Random(-seed)
        tally = {(kind, answer): 0 for kind in ("certificate", "point") for answer in (True, False)}
        for trial in range(600):
            system = _criterion_10_system(rng, force_feasible=trial % 2 == 0)
            self._agree(system, prove_infeasible(system), perturb, tally)
        assert all(tally.values()), tally

    def test_lemma_bank_and_probes(self):
        rng = random.Random(7)
        tally = {(kind, answer): 0 for kind in ("certificate", "point") for answer in (True, False)}
        for system in _lemma_systems() + _probe_systems():
            self._agree(system, prove_infeasible(system), rng, tally)
        assert all(tally.values()), tally

    def test_fractional_coefficients(self):
        # rows whose coefficients have different denominators, so that the
        # running common denominator of each row grows as it is summed
        rng = random.Random(11)
        tally = {(kind, answer): 0 for kind in ("certificate", "point") for answer in (True, False)}
        for trial in range(300):
            width = rng.randint(1, 4)
            rows = [
                (
                    tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(width)),
                    rng.choice([LE, LE, LT, EQ]),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                )
                for _ in range(rng.randint(2, 6))
            ]
            system = _system([f"v{i}" for i in range(width)], rows)
            self._agree(system, prove_infeasible(system), rng, tally)
        assert all(tally.values()), tally


class TestBuildAndClearOnce:
    """Each lemma case builds its system once, and each system clears its rows once."""

    def test_case_system_is_built_once(self):
        for lemma_id in lemmas.LEMMA_IDS:
            for case in lemmas.get_encoding(lemma_id).cases:
                assert case.system() is case.system()
                for tag in case.row_tags():
                    assert case.system(drop=tag) is not case.system()

    def test_dropped_row_system_matches_a_fresh_build(self):
        for lemma_id in lemmas.LEMMA_IDS:
            for case in lemmas.get_encoding(lemma_id).cases:
                for tag in case.row_tags():
                    kept = [row for row in case.rows if row.tag != tag]
                    fresh = lemmas.LemmaCase(case.name, case.variables, tuple(kept)).system()
                    assert case.system(drop=tag) == fresh
                    assert case.system(drop=tag).cleared() == fresh.cleared()

    def test_probe_makes_no_clear_call(self, monkeypatch):
        # a relaxed system takes the full system's cleared rows, less one
        calls = []
        real = fme.clear
        monkeypatch.setattr(fme, "clear", lambda values: calls.append(values) or real(values))
        for lemma_id in lemmas.LEMMA_IDS:
            encoding = lemmas.get_encoding(lemma_id)
            for case in encoding.cases:
                case.system().cleared()
            for probe in encoding.probes:
                lemmas.relaxation_probe(lemma_id, probe.tag)
        assert calls == []

    def test_second_proof_makes_no_clear_call(self, monkeypatch):
        calls = []
        real = fme.clear

        def counting(values):
            calls.append(values)
            return real(values)

        monkeypatch.setattr(fme, "clear", counting)
        for system in (_lemma_systems()[0], _criterion_10_draw(1, 6), _criterion_10_draw(1, 7)):
            system = LinearSystem(system.variables, system.constraints)  # nothing cleared yet
            first = prove_infeasible(system)
            assert len(calls) == len(system.constraints)
            assert prove_infeasible(system) == first
            assert len(calls) == len(system.constraints)
            calls.clear()

    def test_every_call_still_eliminates(self, monkeypatch):
        calls = []
        real = fme._initial_rows
        monkeypatch.setattr(fme, "_initial_rows", lambda system: calls.append(1) or real(system))
        first = lemmas.verify_lemma("local-8")
        assert lemmas.verify_lemma("local-8") == first
        lemmas.relaxation_probe("local-8", "tangent-pair:a-cap")
        lemmas.relaxation_probe("local-8", "tangent-pair:a-cap")
        assert len(calls) == 2 * len(first.cases) + 2

    def test_checkers_share_no_code_with_the_prover(self, monkeypatch):
        systems = _lemma_systems() + [_criterion_10_draw(2, t) for t in range(40)]
        results = [prove_infeasible(system) for system in systems]

        def refuse(*args):
            raise AssertionError("the checkers must not call the prover's code")

        monkeypatch.setattr(fme, "clear", refuse)
        monkeypatch.setattr(fme, "_initial_rows", refuse)
        for system, result in zip(systems, results):
            fresh = LinearSystem(system.variables, system.constraints)  # nothing cleared yet
            if isinstance(result, FarkasCertificate):
                assert check_certificate(fresh, result)
                origin = tuple(0 for _ in fresh.variables)
                assert fresh.holds_at(origin) == reference_fme.holds_at(fresh, origin)
            else:
                assert fresh.holds_at(result.witness)
        with pytest.raises(AssertionError, match="prover"):
            prove_infeasible(LinearSystem(systems[0].variables, systems[0].constraints))


class TestSelfChecksRaise:
    """The self-checks are explicit raises, so they survive ``python -O``."""

    def test_rejected_certificate_raises(self, monkeypatch):
        system = _system(["t"], [((-1,), LT, -1), ((1,), LE, 1)])
        monkeypatch.setattr(fme, "check_certificate", lambda system, certificate: False)
        with pytest.raises(RuntimeError, match="certificate"):
            prove_infeasible(system)

    def test_rejected_witness_raises(self, monkeypatch):
        system = _system(["t"], [((-1,), LE, 0)])
        monkeypatch.setattr(LinearSystem, "holds_at", lambda self, point: False)
        with pytest.raises(RuntimeError, match="witness"):
            prove_infeasible(system)

    def test_empty_interval_raises(self):
        with pytest.raises(RuntimeError, match="empty interval"):
            fme._choose_value((Fraction(1), False), (Fraction(0), False))


class TestSystemValidation:
    def test_row_width(self):
        with pytest.raises(ValueError):
            LinearSystem(["x", "y"], [((1,), LE, 0)])

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            LinearSystem(["x"], [((1,), ">=", 0)])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            LinearSystem(["x", "x"], [])

    def test_holds_at(self):
        system = _system(["x", "y"], [((1, 1), LE, 2), ((1, -1), EQ, 0)])
        assert system.holds_at((Fraction(1), Fraction(1)))
        assert not system.holds_at((Fraction(2), Fraction(1)))
        with pytest.raises(ValueError):
            system.holds_at((Fraction(1),))
