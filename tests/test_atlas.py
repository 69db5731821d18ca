"""The orbit atlas: `classify` on every integral ample W(E8)-orbit up to a chamber degree.

Every ample class is a positive multiple of an integral one, and every
integral class has exactly one representative in the fundamental chamber of
W(E8): d'H - sum(m'_i e_i) with m'_1 >= ... >= m'_8 and d' >= m'_1 + m'_2 +
m'_3.  It is ample exactly when m'_8 >= 1, and d' is the least H-degree in
its orbit, so the dominant rows with d' <= 12 list the ample orbits of
degree at most 12: 754 of them.  Each is checked against oracles that do not
call `classify`'s code: the 240-class ampleness scan, a nef class that
certifies mu and the face, the recomposition in Fractions, the unimodular
parity oracle, the backtracking section search, `classify_by_search` (the
profile read off lattice scans, without the chamber reduction) and, up to
d' = 9, the LP face oracle.  W(E8) images and the Bertini image must keep
mu, a, delta and s_A, move the face onto the face, pad P2 as the search
does, and equal `classify_by_search` field by field.  Across images the
type is compared only where no coefficient is 0: `classify`'s tie-break
line `if c < 0 or (not c and q < p):` gives a fibre with coefficient 0 its
component with the lower enumeration index, so the type depends on the
labelling there (the strict xfail in test_cone).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

import reference_chamber
import test_acceptance
from dp1alpha import cone
from dp1alpha.cone import (
    F1,
    P1XP1,
    P2,
    PolarizationProfile,
    classify,
    is_ample,
    mu_threshold,
)
from dp1alpha.picard import (
    PicardClass,
    canonical_class,
    enumerate_conic_classes,
    enumerate_minus_one_classes,
    pairing,
)
from reference_ample import is_ample as reference_is_ample
from reference_classify import classify_by_search, extend_to_disjoint_eight
from reference_face import _face_of
from reference_parity import complement_is_even as reference_complement_is_even
from reference_parity import extend_to_disjoint_eight as reference_extend

K = canonical_class()
_K_ROW = (-3, 1, 1, 1, 1, 1, 1, 1, 1)
SIGNS = (1,) + (-1,) * 8
MAX_DEGREE = 12
LP_MAX_DEGREE = 9


def _dominant_rows(max_degree: int) -> list[tuple[int, ...]]:
    """(d, -m_1, ..., -m_8) with m_1 >= ... >= m_8 >= 1 and m_1 + m_2 + m_3 <= d <= max_degree."""
    return [
        (d, *(-m for m in ms))
        for ms in combinations_with_replacement(range(max_degree, 0, -1), 8)
        for d in range(sum(ms[:3]), max_degree + 1)
    ]


@lru_cache(maxsize=None)
def _atlas() -> tuple[tuple[PicardClass, PolarizationProfile], ...]:
    return tuple((A, classify(A)) for A in map(PicardClass, _dominant_rows(MAX_DEGREE)))


def _form(u, v):
    return sum(s * x * y for s, x, y in zip(SIGNS, u, v))


def _row(v: PicardClass) -> tuple[int, ...]:
    assert all(c.denominator == 1 for c in v.coeffs)
    return tuple(int(c) for c in v.coeffs)


def _against_the_section_search(profile: PolarizationProfile) -> None:
    """P2 pads its nonzero members as the backtracking search does; F1 has an eighth class."""
    index = {row: j for j, row in enumerate(enumerate_minus_one_classes().rows)}
    members = [index[_row(e)] for e in profile.basis]
    if profile.type_tag == P2:
        nonzero = [j for j, c in zip(members, profile.a) if c]
        extended = reference_extend(nonzero)
        assert extend_to_disjoint_eight(nonzero) == extended
        assert sorted(extended[len(nonzero) :]) == sorted(
            j for j, c in zip(members, profile.a) if not c
        )
    else:
        assert (reference_extend(members) is not None) is (profile.type_tag == F1)


def _nef_witness(profile: PolarizationProfile) -> tuple[int, ...]:
    """The conic, or -K plus the face: nef, and orthogonal to K + mu*A exactly on its face."""
    if profile.delta:
        return _row(profile.conic)
    witness = [-k for k in _K_ROW]
    for e in profile.face_generators:
        witness = [w + x for w, x in zip(witness, _row(e))]
    return tuple(witness)


def _simple_root_rows() -> list[tuple[int, ...]]:
    rows = [(1, -1, -1, -1, 0, 0, 0, 0, 0)]
    for i in range(1, 8):
        row = [0] * 9
        row[i], row[i + 1] = 1, -1
        rows.append(tuple(row))
    return rows


def _reflected(v: tuple[int, ...], root: tuple[int, ...]) -> tuple[int, ...]:
    """v + (v.r) r, the reflection in a root r of K's orthogonal complement."""
    t = _form(v, root)
    return tuple(c + t * r for c, r in zip(v, root))


def _bertini(v: tuple[int, ...]) -> tuple[int, ...]:
    """v -> 2(v.K)K - v."""
    t = 2 * _form(v, _K_ROW)
    return tuple(t * k - c for k, c in zip(_K_ROW, v))


def test_orbit_counts():
    assert [len(_dominant_rows(n)) for n in (6, 9, 12)] == [19, 149, 754]
    for row in _dominant_rows(MAX_DEGREE):
        d, ms = row[0], [-x for x in row[1:]]
        assert ms == sorted(ms, reverse=True) and ms[-1] >= 1 and d >= sum(ms[:3])


def test_every_orbit_is_ample():
    for A, _ in _atlas():
        assert is_ample(A) and reference_is_ample(A)


def test_recomposition_and_certificates():
    minus_one = enumerate_minus_one_classes()
    conics = enumerate_conic_classes()
    types = set()
    for A, profile in _atlas():
        types.add(profile.type_tag)
        a, basis, conic = profile.a, profile.basis, profile.conic
        # the decomposition: sorted non-negative coefficients on disjoint (-1)-classes
        assert len(a) == len(basis) == (8 if profile.type_tag == P2 else 7)
        assert (conic is None) is (profile.type_tag == P2)
        assert all(x >= 0 for x in a) and a[0] < 1 and list(a) == sorted(a, reverse=True)
        assert profile.delta >= 0 and profile.s_A == sum(a[1:], Fraction(0))
        assert all(e in minus_one for e in basis)
        assert all(pairing(e, f) == 0 for i, e in enumerate(basis) for f in basis[i + 1 :])
        D = K + profile.mu * A
        total = PicardClass([0] * 9)
        for c, e in zip(a, basis):
            total = total + c * e
        if conic is not None:
            assert conic in conics and all(pairing(e, conic) == 0 for e in basis)
            total = total + profile.delta * conic
        assert total == D
        # mu and the face: N is nef, N.D = 0 and N.A > 0, so K + t*A is not
        # effective for t < mu, and the face of D is {E : N.E = 0}
        witness = _nef_witness(profile)
        pairings = [_form(witness, row) for row in minus_one.rows]
        assert min(pairings) >= 0
        assert _form(witness, D.coeffs) == 0 and _form(witness, A.coeffs) > 0
        face = {e for e, p in zip(minus_one.members, pairings) if p == 0}
        assert face == profile.face_generators
    assert types == {P2, F1, P1XP1}


def test_type_against_the_parity_oracle():
    for _, profile in _atlas():
        if profile.type_tag != P2:
            assert reference_complement_is_even(list(profile.basis)) is (
                profile.type_tag == P1XP1
            )


def test_type_and_padding_against_the_section_search():
    for _, profile in _atlas():
        _against_the_section_search(profile)


def test_classify_equals_the_search():
    # each orbit, its Bertini image and one random word's image
    rng = random.Random(1)
    roots = _simple_root_rows()
    for A, profile in _atlas():
        assert profile == classify_by_search(A)
        image = _row(A)
        for _ in range(rng.randint(4, 24)):
            image = _reflected(image, rng.choice(roots))
        for row in (_bertini(_row(A)), image):
            moved = PicardClass(row)
            assert classify(moved) == classify_by_search(moved), row


def test_face_against_the_lp_oracle():
    checked = 0
    for A, profile in _atlas():
        if A.coeffs[0] <= LP_MAX_DEGREE:
            assert _face_of(K + profile.mu * A) == profile.face_generators
            checked += 1
    assert checked == 149


@pytest.mark.parametrize("seed", [None, 0])
def test_weyl_and_bertini_images(seed):
    # seed None takes the Bertini image, a seed a random word in the simple roots
    rng = random.Random(seed)
    roots = _simple_root_rows()
    typed = 0
    for A, base in _atlas():
        if seed is None:
            g = _bertini
        else:
            word = [rng.choice(roots) for _ in range(rng.randint(4, 24))]

            def g(v: tuple[int, ...]) -> tuple[int, ...]:
                for root in word:
                    v = _reflected(v, root)
                return v

        profile = classify(PicardClass(g(_row(A))))
        assert (profile.mu, profile.a, profile.delta, profile.s_A) == (
            base.mu, base.a, base.delta, base.s_A
        )
        assert {_row(e) for e in profile.face_generators} == {
            g(_row(e)) for e in base.face_generators
        }
        _against_the_section_search(profile)
        if all(base.a):
            assert profile.type_tag == base.type_tag
            typed += 1
    assert typed == 454


@lru_cache(maxsize=None)
def _walked_classes() -> tuple[PicardClass, ...]:
    """200 criterion-10 draws, then each orbit, its Bertini image and a random W(E8) image."""
    rng = random.Random(2)
    roots = _simple_root_rows()
    classes = test_acceptance._random_ample_classes(random.Random(9), 200)
    for A, _ in _atlas():
        image = _row(A)
        for _ in range(rng.randint(4, 24)):
            image = _reflected(image, rng.choice(roots))
        classes += [A, PicardClass(_bertini(_row(A))), PicardClass(image)]
    return tuple(classes)


def test_images_equal_the_letter_by_letter_walk():
    # the package's chamber row against the reference reduction's, and its
    # rows w^-1(H), w^-1(e1), ..., w^-1(e8) against H, e1, ..., e8 reflected
    # back through the reversed reference word, one simple reflection at a time
    classes = _walked_classes()
    letters = 0
    for A in classes:
        word, expected = reference_chamber._chamber(A.cleared()[1])
        chamber, rows = cone._chamber(A.cleared()[1])
        assert chamber == expected, A
        assert rows == reference_chamber.walked_back(word), A
        assert mu_threshold(A) == classify(A).mu
        letters += len(word)
    assert len(classes) == 200 + 3 * 754 and letters > 20 * len(classes)


def test_the_rows_certify_w_without_a_word():
    # the nine rows pair as diag(1, -1, ..., -1), carry K to K and
    # recompose the class from its chamber row, so they are the rows of an
    # integral isometry fixing K, which lies in W(E8); the random integer
    # rows include classes that are not ample and ones with d < 0, which
    # pair negatively with the nef class H and so are not effective
    rng = random.Random(3)
    drawn = [tuple(rng.randint(-12, 24) if k == 0 else rng.randint(-9, 6) for k in range(9))
             for _ in range(300)]
    assert sum(not reference_is_ample(PicardClass(row)) for row in drawn) > 100
    assert sum(row[0] < 0 for row in drawn) > 50
    rows_to_check = [A.cleared()[1] for A in _walked_classes()] + drawn
    for row in rows_to_check:
        chamber, rows = cone._chamber(row)
        assert [[_form(u, v) for v in rows] for u in rows] == [
            [s if i == j else 0 for j in range(9)] for i, s in enumerate(SIGNS)
        ], row
        for target, coefficients in ((_K_ROW, _K_ROW), (row, chamber)):
            assert tuple(
                sum(c * x for c, x in zip(coefficients, column)) for column in zip(*rows)
            ) == tuple(target), row
