"""Tests for the Picard-lattice module, with an independent enumeration oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp1alpha import picard
from dp1alpha.picard import (
    PicardClass,
    bertini,
    canonical_class,
    dot,
    enumerate_conic_classes,
    enumerate_minus_one_classes,
    exceptional_class,
    format_class,
    hyperplane_class,
    pairing,
    parse_class,
)
from dp1alpha.rationals import clear


# --------------------------------------------------------------------------
# Independent oracle: enumerate integer solutions of
#     sum(c_i) = linear_total,   sum(c_i^2) = square_total   (8 unknowns)
# by walking non-increasing value multisets (square-budget pruned), then
# expanding each multiset into its distinct permutations and filtering by
# the linear condition.  The library builds the families as W(E8) orbits
# instead, so agreement checks that each orbit is the whole solution set.
# --------------------------------------------------------------------------


def _multisets(count: int, square_total: int, max_abs: int):
    """Yield non-increasing integer tuples of length `count` with given square sum."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, budget: int, cap: int) -> None:
        if remaining == 0:
            if budget == 0:
                out.append(tuple(prefix))
            return
        for value in range(cap, -max_abs - 1, -1):
            sq = value * value
            if sq > budget:
                if value > 0:
                    continue  # smaller positive values may still fit
                break  # squares only grow from here on
            prefix.append(value)
            rec(prefix, remaining - 1, budget - sq, value)
            prefix.pop()

    rec([], count, square_total, max_abs)
    return out


def _oracle_solutions(linear_total: int, square_total: int) -> set[tuple[int, ...]]:
    if square_total < 0:
        return set()
    max_abs = int(square_total**0.5) + 1
    hits: set[tuple[int, ...]] = set()
    for ms in _multisets(8, square_total, max_abs):
        if sum(ms) != linear_total:
            continue
        hits.update(permutations(ms))
    return hits


def _oracle_classes(self_int: int, k_degree: int, d_range) -> set[tuple[int, ...]]:
    """All integer classes v = d*H - sum(c_i e_i) with v^2 = self_int, v.K = -k_degree."""
    classes: set[tuple[int, ...]] = set()
    for d in d_range:
        linear_total = 3 * d - k_degree
        square_total = d * d - self_int
        for sol in _oracle_solutions(linear_total, square_total):
            classes.add((d, *(-c for c in sol)))
    return classes


@pytest.fixture(scope="module")
def minus_one_oracle() -> set[tuple[int, ...]]:
    # scan two shells past both ends; the extremes must contribute nothing
    return _oracle_classes(-1, 1, range(-1, 9))


@pytest.fixture(scope="module")
def conic_oracle() -> set[tuple[int, ...]]:
    return _oracle_classes(0, 2, range(0, 13))


def _as_int_tuple(v: PicardClass) -> tuple[int, ...]:
    return tuple(int(c) for c in v.coeffs)


class TestEnumerationAgainstOracle:
    def test_minus_one_matches_oracle(self, minus_one_oracle):
        got = {_as_int_tuple(v) for v in enumerate_minus_one_classes()}
        assert got == minus_one_oracle

    def test_conics_match_oracle(self, conic_oracle):
        got = {_as_int_tuple(v) for v in enumerate_conic_classes()}
        assert got == conic_oracle

    def test_counts(self):
        assert len(enumerate_minus_one_classes()) == 240
        assert len(enumerate_conic_classes()) == 2160

    def test_degree_histogram(self):
        hist: dict[int, int] = {}
        for v in enumerate_minus_one_classes():
            hist[int(v.degree)] = hist.get(int(v.degree), 0) + 1
        assert hist == {0: 8, 1: 28, 2: 56, 3: 56, 4: 56, 5: 28, 6: 8}

    def test_membership_agrees_with_members(self):
        minus_one, conics = enumerate_minus_one_classes(), enumerate_conic_classes()
        outsiders = [
            canonical_class(),
            -canonical_class(),
            hyperplane_class(),
            Fraction(1, 2) * exceptional_class(1),
        ]
        for family, other in ((minus_one, conics), (conics, minus_one)):
            assert all(v in family for v in family.members)
            assert not any(v in family for v in other.members)
            assert not any(v in family for v in outsiders)
            assert 2 * family.members[0] not in family
            rebuilt = PicardClass(Fraction(c) for c in family.rows[-1])
            assert rebuilt in family


def _simple_roots() -> list[tuple[int, ...]]:
    """H - e1 - e2 - e3, then e_i - e_(i+1) for i = 1..7, built from H and e_i."""
    h, e = hyperplane_class(), exceptional_class
    roots = [h - e(1) - e(2) - e(3)] + [e(i) - e(i + 1) for i in range(1, 8)]
    return [tuple(int(c) for c in r.coeffs) for r in roots]


class TestWeylAction:
    def test_reflect_is_the_root_reflection(self):
        rng = random.Random(19)
        for i, root in enumerate(_simple_roots()):
            assert dot(root, root) == -2
            for _ in range(200):
                v = [rng.randint(-20, 20) for _ in range(9)]
                expected = [x + dot(v, root) * a for x, a in zip(v, root)]
                picard._reflect(v, i)
                assert v == expected

    def test_simple_reflections_permute_each_family(self):
        for family in (enumerate_minus_one_classes(), enumerate_conic_classes()):
            rows = set(family.rows)
            for i, root in enumerate(_simple_roots()):
                image = {tuple(x + dot(r, root) * a for x, a in zip(r, root)) for r in rows}
                assert image == rows, (family.kind, i)


class TestLatticeBasics:
    def test_signature_pattern(self):
        h = hyperplane_class()
        assert pairing(h, h) == 1
        for i in range(1, 9):
            e = exceptional_class(i)
            assert pairing(e, e) == -1
            assert pairing(h, e) == 0
        for i in range(1, 9):
            for j in range(i + 1, 9):
                assert pairing(exceptional_class(i), exceptional_class(j)) == 0

    def test_canonical_class(self):
        k = canonical_class()
        assert pairing(k, k) == 1
        assert k == -3 * hyperplane_class() + sum(
            (exceptional_class(i) for i in range(2, 9)), exceptional_class(1)
        )

    def test_minus_one_class_identities(self):
        k = canonical_class()
        for v in enumerate_minus_one_classes():
            assert pairing(v, v) == -1
            assert pairing(v, k) == -1

    def test_conic_class_identities(self):
        k = canonical_class()
        for v in enumerate_conic_classes():
            assert pairing(v, v) == 0
            assert pairing(v, k) == -2

    def test_membership(self):
        curves = enumerate_minus_one_classes()
        assert exceptional_class(1) in curves
        assert hyperplane_class() not in curves

    def test_rows_are_the_integer_coordinates(self):
        # classify reads index order as class order: fibre completion, ties, repr
        for family in (enumerate_minus_one_classes(), enumerate_conic_classes()):
            assert len(family.rows) == len(family)
            assert all(a < b for a, b in zip(family.rows, family.rows[1:]))
            for row, v in zip(family.rows, family.members):
                assert all(type(x) is int for x in row)
                assert PicardClass(row) == v

    def test_dot_on_rows_is_pairing_on_members(self):
        # the signed sum is an independent oracle for the form
        signs = (1,) + (-1,) * 8
        minus_one = enumerate_minus_one_classes()
        for u, row_u in zip(minus_one.members, minus_one.rows):
            for v, row_v in zip(minus_one.members, minus_one.rows):
                expected = sum(s * a * b for s, a, b in zip(signs, row_u, row_v))
                assert dot(row_u, row_v) == pairing(u, v) == expected
        conics = enumerate_conic_classes()
        rng = random.Random(12)
        for _ in range(3000):
            i, j = rng.randrange(len(conics)), rng.randrange(len(conics))
            assert dot(conics.rows[i], conics.rows[j]) == pairing(
                conics.members[i], conics.members[j]
            )

    def test_immutability_and_hash(self):
        h = hyperplane_class()
        with pytest.raises(AttributeError):
            h.coeffs = ()  # type: ignore[misc]
        assert hash(h) == hash(hyperplane_class())
        assert len({h, hyperplane_class()}) == 1


_HASHED = [
    (3, -1, -1, -1, -1, -1, -1, -1, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (Fraction(19, 5), Fraction(-9, 5), -1, Fraction(-7, 10), 0, 2, 5, Fraction(1, 3), -7),
    (Fraction(10**30 + 1, 10**20), -(10**40), 1, 0, 0, 0, 0, 0, Fraction(-1, 2**70)),
]


class TestCachedHash:
    """The hash and the cleared row are stored on first use, and equal the uncached values."""

    @pytest.mark.parametrize("coeffs", _HASHED)
    def test_hash_of_the_fraction_tuple(self, coeffs):
        for given_coeffs in (coeffs, tuple(map(Fraction, coeffs))):
            v = PicardClass(given_coeffs)
            expected = hash(tuple(Fraction(c) for c in coeffs))
            assert hash(v) == expected
            assert hash(v) == expected  # the stored value

    @pytest.mark.parametrize("coeffs", _HASHED)
    def test_copies_and_pickles_keep_equality_and_hash(self, coeffs):
        import copy
        import pickle

        v = PicardClass(coeffs)
        for hashed_first in (False, True):
            if hashed_first:
                hash(v)
            for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(twin) is PicardClass
                assert twin == v and twin.coeffs == v.coeffs
                assert hash(twin) == hash(v)
                with pytest.raises(AttributeError):
                    twin.coeffs = ()  # type: ignore[misc]

    @pytest.mark.parametrize("coeffs", _HASHED)
    def test_cleared_row_is_stored(self, coeffs):
        import copy
        import pickle

        v = PicardClass(coeffs)
        expected = clear(v.coeffs)
        assert v.cleared() == expected
        assert v.cleared() is v.cleared()  # the stored value
        for twin in (copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert twin.cleared() == expected

    def test_slots_cannot_be_set(self):
        v = PicardClass(_HASHED[2])
        for hashed_first in (False, True):
            if hashed_first:
                hash(v)
                v.cleared()
            for name in ("coeffs", "_hash", "_cleared"):
                with pytest.raises(AttributeError):
                    setattr(v, name, 0)
            with pytest.raises(AttributeError):
                v.extra = 1  # type: ignore[attr-defined]
        assert hash(v) == hash(tuple(map(Fraction, _HASHED[2])))

    def test_curve_set_membership(self):
        minus_one, conics = enumerate_minus_one_classes(), enumerate_conic_classes()
        for family, other in ((minus_one, conics), (conics, minus_one)):
            for row in family.rows[::7]:
                for v in (PicardClass(row), PicardClass(map(Fraction, row))):
                    hash(v)
                    assert v in family and v not in other
        assert PicardClass((Fraction(1, 2),) + (0,) * 8) not in minus_one
        assert 2 * exceptional_class(1) not in minus_one
        assert hyperplane_class() not in conics


class TestBertini:
    def test_fixes_canonical_class(self):
        k = canonical_class()
        assert bertini(k) == k

    def test_involution_on_minus_one_set(self):
        members = set(enumerate_minus_one_classes().members)
        for v in members:
            w = bertini(v)
            assert w in members
            assert bertini(w) == v
            assert pairing(v, w) == 3

    def test_closure_on_conics(self):
        members = set(enumerate_conic_classes().members)
        for v in members:
            assert bertini(v) in members

    def test_is_isometry_on_curve_classes(self):
        curves = enumerate_minus_one_classes().members
        sample = curves[::17]
        for u in sample:
            for v in sample:
                assert pairing(bertini(u), bertini(v)) == pairing(u, v)


_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
_vectors = st.tuples(*([_rationals] * 9)).map(PicardClass)


class TestVectorSpaceLaws:
    @given(_vectors, _vectors, _rationals)
    @settings(max_examples=60, deadline=None)
    def test_bilinearity(self, u, v, t):
        w = hyperplane_class()
        assert pairing(u + v, w) == pairing(u, w) + pairing(v, w)
        assert pairing(t * u, v) == t * pairing(u, v)

    @given(_vectors, _vectors)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, u, v):
        assert pairing(u, v) == pairing(v, u)

    @given(_vectors)
    @settings(max_examples=60, deadline=None)
    def test_bertini_isometry_everywhere(self, v):
        assert pairing(bertini(v), bertini(v)) == pairing(v, v)
        assert bertini(bertini(v)) == v

    @given(_vectors)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_consistency(self, v):
        assert v - v == PicardClass([0] * 9)
        assert (v + v) == 2 * v
        assert -v == -1 * v


class TestParsing:
    def test_round_trip(self):
        text = "3,-1,-1,-1,0,0,0,1/2,-5/3"
        v = parse_class(text)
        assert parse_class(format_class(v)) == v

    def test_format_integer_coeffs(self):
        assert format_class(hyperplane_class()) == "1,0,0,0,0,0,0,0,0"

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_class("1,2,3")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_class("1,2,3,4,5,6,7,8,x")

    def test_rejects_float_syntax(self):
        with pytest.raises(ValueError):
            parse_class("1.5,0,0,0,0,0,0,0,0")
