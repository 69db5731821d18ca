"""Tests for the cone engine: ampleness, effectivity, mu, faces, classification."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dp1alpha.cone as cone
import dp1alpha.linprog as linprog
import reference_classify as search
import test_acceptance
from dp1alpha.alpha import alpha_conjecture, counterexample_report
from dp1alpha.cone import (
    F1,
    P1XP1,
    P2,
    PolarizationProfile,
    UnclassifiableError,
    classify,
    is_ample,
    is_pseudoeffective,
    membership_certificate,
    mu_threshold,
)
from dp1alpha.linprog import INFEASIBLE, OPTIMAL
from dp1alpha.picard import (
    PicardClass,
    bertini,
    canonical_class,
    enumerate_conic_classes,
    enumerate_minus_one_classes,
    exceptional_class,
    format_class,
    hyperplane_class,
    pairing,
    parse_class,
)
from reference_ample import is_ample as reference_is_ample
from reference_face import _face_of, minimal_face, minimal_face_by_generator
from reference_parity import complement_is_even as reference_complement_is_even
from reference_parity import extend_to_disjoint_eight as reference_extend
from reference_parity import orthogonal_sets

K = canonical_class()
H = hyperplane_class()
E = exceptional_class
ZERO = PicardClass([0] * 9)
LEX_FIRST = sorted(enumerate_minus_one_classes().members)[0]


def _reflected(v: PicardClass, root: PicardClass) -> PicardClass:
    return v + pairing(v, root) * root


# E(1) fails every condition of ampleness.  H and -K + e8 have positive
# square and degree and are nef, but pair to 0 with H - e1 - e2 and with e8;
# the last two are their images under the reflections in H - e1 - e2 - e3
# and H - e6 - e7 - e8.
NOT_AMPLE = [
    pytest.param(E(1), id="e1"),
    pytest.param(H, id="H"),
    pytest.param(-K + E(8), id="-K+e8"),
    pytest.param(_reflected(H, H - E(1) - E(2) - E(3)), id="2H-e1-e2-e3"),
    pytest.param(_reflected(-K + E(8), H - E(6) - E(7) - E(8)), id="-K+H-e6-e7"),
]


class TestAmpleness:
    def test_anticanonical_is_ample(self):
        assert is_ample(-K)

    def test_exceptional_is_not(self):
        assert not is_ample(E(1))

    def test_anticanonical_plus_curve_window(self):
        c = LEX_FIRST
        for lam, expected in [
            (Fraction(-1, 3), False),
            (Fraction(1), False),
            (Fraction(0), True),
            (Fraction(1, 3), True),
            (Fraction(9, 10), True),
        ]:
            assert is_ample(-K + lam * c) is expected, lam

    def test_window_boundaries_from_pairings(self):
        # the window above is cut out by pairings with the 240 classes:
        # the binding constraints are attained, so endpoints are not ample
        c = LEX_FIRST
        assert not is_ample(-K + Fraction(-1, 3) * c)
        assert not is_ample(-K + 1 * c)


@lru_cache(maxsize=None)
def _positive_roots() -> tuple[PicardClass, ...]:
    """The 120 roots e_i - e_j (i < j), H - three e's, 2H - six e's, 3H - 2e_i - the other seven."""
    return tuple(
        [E(i) - E(j) for i, j in combinations(range(1, 9), 2)]
        + [H - _sum_e(s) for s in combinations(range(1, 9), 3)]
        + [2 * H - _sum_e(s) for s in combinations(range(1, 9), 6)]
        + [3 * H - E(i) - _sum_e(range(1, 9)) for i in range(1, 9)]
    )


def _random_word(rng: random.Random, length: int) -> list[PicardClass | None]:
    """Reflections in random roots, and Bertini (None) one step in ten."""
    return [None if rng.random() < 0.1 else rng.choice(_positive_roots()) for _ in range(length)]


class TestAmplenessOracle:
    """The chamber test against the 240-class scan of tests/reference_ample.py."""

    @staticmethod
    def _disagreements(classes: list[PicardClass]) -> list[str]:
        return [format_class(v) for v in classes if is_ample(v) is not reference_is_ample(v)]

    def test_the_words_use_the_120_positive_roots(self):
        roots = _positive_roots()
        assert len(set(roots)) == 120
        assert all(pairing(r, r) == -2 and pairing(r, K) == 0 for r in roots)

    def test_weyl_images_of_classes_near_anticanonical(self):
        rng = random.Random(23)
        classes = []
        for _ in range(3000):
            offset = PicardClass(Fraction(rng.randint(-6, 6), 12) for _ in range(9))
            v = rng.choice([1, 2, 3, 5]) * (-K + offset)
            classes.append(_applied(_random_word(rng, rng.randint(0, 4)), v))
        assert self._disagreements(classes) == []
        assert 300 < sum(map(is_ample, classes)) < 2700

    def test_integer_classes(self):
        rng = random.Random(29)
        classes = [ZERO, K, -H, -K] + [
            PicardClass([rng.randint(-3, 15)] + [rng.randint(-5, 1) for _ in range(8)])
            for _ in range(1000)
        ]
        assert self._disagreements(classes) == []
        assert 5 < sum(map(is_ample, classes)) < 100

    def test_nef_rays_that_are_not_ample_and_their_neighbours(self):
        # c*N for N = H, H - e1, -K + e8 has m'_8 = 0; moving it by
        # eps*(-K) makes it ample for eps > 0 and not nef for eps < 0
        rng = random.Random(31)
        rays = [H, H - E(1), -K + E(8)]
        on_ray, nearby = [], []
        for _ in range(1000):
            n = _applied(_random_word(rng, rng.randint(0, 4)), rng.choice(rays))
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 7))
            on_ray.append(c * n)
            eps = Fraction(rng.choice([-1, 1]), rng.randint(2, 100))
            nearby.append(abs(c) * (n - eps * K))
        assert self._disagreements(on_ray) == []
        assert not any(map(is_ample, on_ray))
        assert self._disagreements(nearby) == []
        assert 300 < sum(map(is_ample, nearby)) < 700


class TestPseudoEffectivity:
    def test_generators_are_effective(self):
        for curve in enumerate_minus_one_classes().members[::40]:
            assert is_pseudoeffective(curve)

    def test_apex(self):
        assert is_pseudoeffective(ZERO)

    def test_negative_exceptional_is_not(self):
        assert not is_pseudoeffective(-E(1))

    def test_certificates_are_exact(self):
        curves = enumerate_minus_one_classes().members
        good = membership_certificate(Fraction(2, 3) * curves[5] + curves[17])
        assert good.status == OPTIMAL
        recomposed = ZERO
        for coeff, curve in zip(good.point, curves):
            recomposed = recomposed + coeff * curve
        assert recomposed == Fraction(2, 3) * curves[5] + curves[17]

        bad = membership_certificate(-E(1))
        assert bad.status == INFEASIBLE
        y = PicardClass(bad.farkas)  # witness lives in the dual coordinates
        for curve in curves:
            assert sum(y.coeffs[i] * curve.coeffs[i] for i in range(9)) <= 0
        assert sum(y.coeffs[i] * (-E(1)).coeffs[i] for i in range(9)) > 0

    def test_anticanonical_multiples(self):
        assert is_pseudoeffective(-K)
        assert not is_pseudoeffective(2 * K)

    def test_agrees_with_lp_oracle(self):
        rng = random.Random(11)
        points = [ZERO, -E(1), 2 * K, -K] + [
            PicardClass(
                [Fraction(rng.randint(-6, 9), rng.randint(1, 4))]
                + [Fraction(rng.randint(-4, 3), rng.randint(1, 4)) for _ in range(8)]
            )
            for _ in range(300)
        ]
        answers = [is_pseudoeffective(v) for v in points]
        assert answers == [membership_certificate(v).status == OPTIMAL for v in points]
        assert 50 <= sum(answers) <= 250


class TestMuThreshold:
    def test_anticanonical(self):
        assert mu_threshold(-K) == 1

    def test_scaled_anticanonical(self):
        assert mu_threshold(-2 * K) == Fraction(1, 2)

    def test_anticanonical_plus_curve(self):
        for lam in [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]:
            assert mu_threshold(-K + lam * LEX_FIRST) == 1

    def test_scaling_law(self):
        a = -K + Fraction(1, 3) * LEX_FIRST
        mu = mu_threshold(a)
        long = 10**299 + 7  # 300 digits
        for c in [Fraction(2), Fraction(1, 2), Fraction(7, 3), Fraction(long),
                  Fraction(1, long), Fraction(long, 3 * 10**299 + 1)]:
            assert mu_threshold(c * a) == mu / c

    def test_boundary_sharpness(self):
        for a in [-K, -K + Fraction(1, 2) * LEX_FIRST, -3 * K + E(1) + E(2)]:
            assert _lp_oracle_agrees(a, mu_threshold(a))

    @pytest.mark.parametrize("v", NOT_AMPLE)
    def test_rejects_non_ample(self, v):
        assert not reference_is_ample(v)
        with pytest.raises(ValueError, match="^mu_threshold requires an ample class$"):
            mu_threshold(v)


class TestMinimalFace:
    def test_single_ray(self):
        for lam in [Fraction(1, 3), Fraction(5)]:
            assert minimal_face(lam * LEX_FIRST) == frozenset({LEX_FIRST})

    def test_apex(self):
        assert minimal_face(ZERO) == frozenset()

    def test_rejects_non_effective(self):
        # 2K pairs to -2 with the ample class -K, so it cannot be effective
        with pytest.raises(ValueError):
            minimal_face(2 * K)

    def test_bertini_pair_sums_to_minus_two_k(self):
        # -2K itself *is* effective: C + (Bertini image of C) recomposes it
        from dp1alpha.picard import bertini

        assert LEX_FIRST + bertini(LEX_FIRST) == -2 * K
        assert is_pseudoeffective(-2 * K)

    def test_agrees_with_per_generator_reference(self):
        points = [
            ZERO,
            Fraction(1, 3) * LEX_FIRST,
            Fraction(1, 4) * (H - E(1)) + Fraction(1, 3) * E(2),
            E(1) + E(2) + Fraction(1, 2) * (H - E(1) - E(2)),
        ]
        for x in points:
            assert minimal_face(x) == minimal_face_by_generator(x)

    def test_conic_splits_into_all_components(self):
        # every reducible member of the pencil contributes both components
        conic = H - E(1)
        face = minimal_face(conic)
        assert len(face) == 14
        for member in face:
            assert pairing(member, conic) == 0


def _profile_checks(profile: PolarizationProfile, a_len: int) -> None:
    assert len(profile.a) == a_len
    assert profile.a[0] < 1
    assert all(x >= 0 for x in profile.a)
    assert all(l >= r for l, r in zip(profile.a, profile.a[1:]))
    assert profile.s_A == sum(profile.a[1:], Fraction(0))
    # pairwise orthogonality of the basis, and orthogonality to the conic
    for i, left in enumerate(profile.basis):
        for right in profile.basis[i + 1 :]:
            assert pairing(left, right) == 0
        if profile.conic is not None:
            assert pairing(left, profile.conic) == 0


EVEN_SEVEN = [E(i) for i in range(2, 8)] + [H - E(1) - E(8)]


def _even_complement_class() -> PicardClass:
    """-K plus a boundary on seven disjoint classes whose complement is even (P1xP1, delta 0)."""
    boundary = ZERO
    for i, e in enumerate(EVEN_SEVEN):
        boundary = boundary + Fraction(i + 2, 10) * e
    return boundary - K


class TestClassify:
    def test_anticanonical_degenerate(self):
        profile = classify(-K)
        assert profile.type_tag == P2
        assert profile.mu == 1
        assert profile.a == (Fraction(0),) * 8
        assert profile.delta == 0
        assert profile.s_A == 0
        assert profile.face_generators == frozenset()
        _profile_checks(profile, 8)

    def test_single_curve_polarizations(self):
        for lam in [Fraction(1, 10), Fraction(1, 2), Fraction(99, 100)]:
            profile = classify(-K + lam * LEX_FIRST)
            assert profile.type_tag == P2
            assert profile.mu == 1
            assert profile.a == (lam,) + (Fraction(0),) * 7
            assert profile.delta == 0
            assert profile.s_A == 0
            _profile_checks(profile, 8)

    def test_conic_bundle_fixture(self):
        boundary = (
            Fraction(1, 4) * (H - E(1))
            + Fraction(1, 3) * E(2)
            + Fraction(1, 5) * E(3)
        )
        profile = classify(boundary - K)
        assert profile.type_tag == F1
        assert profile.mu == 1
        assert profile.a == (
            Fraction(1, 3),
            Fraction(1, 5),
            Fraction(0),
            Fraction(0),
            Fraction(0),
            Fraction(0),
            Fraction(0),
        )
        assert profile.delta == Fraction(1, 4)
        assert profile.s_A == Fraction(1, 5)
        assert profile.conic == H - E(1)
        _profile_checks(profile, 7)

    def test_even_complement_fixture(self):
        profile = classify(_even_complement_class())
        assert profile.type_tag == P1XP1
        assert profile.mu == 1
        assert profile.delta == 0
        assert sorted(profile.a, reverse=True) == list(profile.a)
        assert set(profile.basis) == set(EVEN_SEVEN)
        assert profile.conic == H - E(1)
        _profile_checks(profile, 7)

    @pytest.mark.parametrize(
        "text, message",
        [
            # an even seven-class face does not pad to eight
            (None, "type P2 with 7 basis classes"),
            # e2..e8 leave span{H, e1}, odd, which H - e1 does not make P1xP1
            ("3,-1,-9/10,-17/20,-4/5,-3/4,-7/10,-13/20,-3/5", "type P1xP1 with an odd complement"),
        ],
    )
    def test_orthogonal_type_is_cross_checked(self, monkeypatch, text, message):
        # on a seven-class face without a conic, a type decided against the
        # parity must make classify fail: the even face labelled P2, or the
        # odd one stripped of its padding and given a conic as P1xP1
        a = _even_complement_class() if text is None else parse_class(text)
        _corrupt_profile(monkeypatch, _seven_face_with_the_other_type)
        with pytest.raises(UnclassifiableError, match=re.escape(message)):
            classify(a)

    def test_seven_with_odd_complement_is_still_p2(self):
        # {e2..e8} leaves span{H, e1}, which is odd: an eighth disjoint
        # class exists (e1) and the classification stays P2
        boundary = ZERO
        for i in range(2, 9):
            boundary = boundary + Fraction(i, 20) * E(i)
        profile = classify(boundary - K)
        assert profile.type_tag == P2
        assert E(1) in profile.basis
        _profile_checks(profile, 8)

    @pytest.mark.parametrize("v", NOT_AMPLE)
    def test_rejects_non_ample(self, v):
        assert not reference_is_ample(v)
        with pytest.raises(ValueError, match="^classify requires an ample class$"):
            classify(v)

    def test_recomposition_on_random_ample_classes(self):
        rng = random.Random(97)
        curves = enumerate_minus_one_classes().members
        for _ in range(50):
            a = (
                Fraction(rng.randint(1, 5)) * -K
                + Fraction(rng.randint(0, 10), 11) * curves[rng.randrange(240)]
                + Fraction(rng.randint(0, 10), 13) * curves[rng.randrange(240)]
            )
            if not is_ample(a):
                continue
            profile = classify(a)
            total = ZERO
            for coeff, e in zip(profile.a, profile.basis):
                total = total + coeff * e
            if profile.conic is not None:
                total = total + profile.delta * profile.conic
            assert total == K + profile.mu * a
            _profile_checks(profile, 8 if profile.type_tag == P2 else 7)

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "12,-4,-10/3,-11/2,-10/3,-5,-7/2,-5/2,-7/2",
                (
                    P1XP1, "3/8", ("7/16", "1/8", "1/16", "1/16", "1/16", "0", "0"),
                    "1/8", "5/16",
                    ("1,0,0,-1,0,-1,0,0,0", "3,-1,-1,-2,-1,-1,-1,0,-1",
                     "0,0,0,0,0,0,0,1,0", "1,-1,0,-1,0,0,0,0,0", "2,-1,0,-1,0,-1,-1,0,-1",
                     "2,-1,-1,-1,0,-1,-1,0,0", "2,-1,-1,-1,0,-1,0,0,-1"),
                    "4,-2,-1,-2,-1,-2,-1,0,-1",
                ),
            ),
            (
                "12,-7/2,-10/3,-10/3,-5/2,-4,-5,-7/2,-11/2",
                (
                    F1, "3/8", ("7/16", "1/8", "1/16", "1/16", "1/16", "0", "0"),
                    "1/8", "5/16",
                    ("1,0,0,0,0,0,-1,0,-1", "3,-1,-1,-1,0,-1,-1,-1,-2",
                     "0,0,0,0,1,0,0,0,0", "1,0,0,0,0,-1,0,0,-1", "2,-1,0,0,0,-1,-1,-1,-1",
                     "2,-1,-1,0,0,-1,-1,0,-1", "2,-1,0,-1,0,-1,-1,0,-1"),
                    "4,-1,-1,-1,0,-2,-2,-1,-2",
                ),
            ),
            (
                "9,-2,-5/2,-11/3,-1,-2,-4,-8/3,-3",
                (
                    P1XP1, "3/7", ("4/7", "3/7", "1/7", "1/7", "1/7", "1/14", "0"),
                    "1/14", "13/14",
                    ("0,0,0,0,1,0,0,0,0", "1,0,0,-1,0,0,-1,0,0", "0,0,0,0,0,1,0,0,0",
                     "0,1,0,0,0,0,0,0,0", "1,0,0,0,0,0,-1,0,-1", "2,0,-1,-1,0,0,-1,-1,-1",
                     "1,0,0,-1,0,0,0,0,-1"),
                    "2,0,0,-1,0,0,-1,-1,-1",
                ),
            ),
        ],
    )
    def test_conic_bundle_profiles_with_zero_coefficient_fibres(self, text, expected):
        # the zero-coefficient fibres take their lex-smaller component; the
        # first two classes are one class up to relabelling (the known
        # type defect pinned by test_type_is_labelling_invariant)
        type_tag, mu, a, delta, s_a, basis, conic = expected
        profile = classify(parse_class(text))
        assert profile.type_tag == type_tag
        assert profile.mu == Fraction(mu)
        assert profile.a == tuple(Fraction(x) for x in a)
        assert profile.delta == Fraction(delta)
        assert profile.s_A == Fraction(s_a)
        assert profile.basis == tuple(parse_class(e) for e in basis)
        assert profile.conic == parse_class(conic)
        _profile_checks(profile, 7)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("12,-4,-10/3,-11/2,-10/3,-5,-7/2,-5/2,-7/2", "type F1 with an even complement"),
            ("12,-7/2,-10/3,-10/3,-5/2,-4,-5,-7/2,-11/2", "type P1xP1 with an odd complement"),
        ],
    )
    def test_conic_bundle_type_is_cross_checked(self, monkeypatch, text, message):
        # on the wall both types are valid readings, each with its own basis:
        # a type that disagrees with the fibre components classify took must
        # make it fail, since _validate_profile reads the parity off the basis
        _corrupt_profile(monkeypatch, _with_the_other_conic_type)
        with pytest.raises(UnclassifiableError, match=message):
            classify(parse_class(text))

    def test_mu_scaling_leaves_profile_data_fixed(self):
        a = -K + Fraction(1, 3) * LEX_FIRST
        one = classify(a)
        two = classify(Fraction(5, 2) * a)
        assert two.mu == one.mu / Fraction(5, 2)
        assert (two.type_tag, two.a, two.delta, two.s_A) == (
            one.type_tag,
            one.a,
            one.delta,
            one.s_A,
        )


def _criterion_10_classes(count: int, seed: int = 424242) -> list[PicardClass]:
    """The first ample classes acceptance criterion 10's generator draws at ``seed``.

    The default seed gives the benchmark's pool.
    """
    return test_acceptance._random_ample_classes(random.Random(seed), count)


def _lp_oracle_agrees(a: PicardClass, mu: Fraction) -> bool:
    """K + mu*A is a nonnegative combination of (-1)-classes and K + (999/1000)mu*A is not."""
    return (
        membership_certificate(K + mu * a).status == OPTIMAL
        and membership_certificate(K + (Fraction(999, 1000) * mu) * a).status == INFEASIBLE
    )


PENCIL = [
    -K + lam * E(i)
    for i, lam in ((8, Fraction(1, 2)), (3, Fraction(1, 10)), (1, Fraction(9, 10)),
                   (5, Fraction(-1, 4)))
]


class TestBoundaryFace:
    def test_distinct_minus_one_classes_meet_nonnegatively(self):
        # the fact the face scan rests on, over all 240 x 239 ordered pairs
        signs = (1,) + (-1,) * 8
        rows = [tuple(int(c) for c in e.coeffs) for e in enumerate_minus_one_classes()]
        for j, left in enumerate(rows):
            for k, right in enumerate(rows):
                p = sum(s * a * b for s, a, b in zip(signs, left, right))
                assert p >= 0 or j == k

    def test_matches_lp_reference(self):
        types = set()
        for a in _criterion_10_classes(40) + PENCIL:
            profile = classify(a)
            assert profile.face_generators == _face_of(K + profile.mu * a)
            types.add(profile.type_tag)
        assert types == {P2, F1, P1XP1}

    def test_face_certificates(self):
        # orthogonal faces: L = -K + sum(face) is nef and vanishes exactly on
        # the face; conic-bundle faces: the conic does the same
        curves = enumerate_minus_one_classes().members
        for a in _criterion_10_classes(12) + PENCIL:
            profile = classify(a)
            if profile.delta == 0:
                witness = -K
                for e in profile.face_generators:
                    witness = witness + e
            else:
                witness = profile.conic
                assert profile.conic in enumerate_conic_classes()
            assert pairing(witness, K + profile.mu * a) == 0
            for e in curves:
                assert pairing(witness, e) >= 0
                assert (pairing(witness, e) == 0) == (e in profile.face_generators)

    def test_no_solve_per_class(self, monkeypatch):
        calls = []
        real = linprog.solve

        def recording(problem):
            calls.append(problem)
            return real(problem)

        monkeypatch.setattr(cone, "solve", recording)
        monkeypatch.setattr(linprog, "solve", recording)
        for a in PENCIL + _criterion_10_classes(8):
            classify(a)
        for lam in [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]:
            counterexample_report(lam)
        assert calls == []

    def test_two_reductions_per_class(self, monkeypatch):
        # classify reduces A to the W(E8) chamber inside mu_threshold and once
        # more for the word it maps back, and takes its ampleness guard from
        # mu_threshold, not from is_ample
        calls = []
        for name in ("_chamber", "is_ample"):
            real = getattr(cone, name)
            monkeypatch.setattr(
                cone, name, lambda arg, name=name, real=real: calls.append(name) or real(arg)
            )
        for a in _criterion_10_classes(12) + [_even_complement_class()]:
            calls.clear()
            classify(a)
            assert calls.count("_chamber") == 2
            assert "is_ample" not in calls

    def test_rejects_a_class_off_the_boundary(self, monkeypatch):
        # the closed form does not read mu: a mu that puts K + mu*A inside
        # the effective cone or outside it must fail the recomposition
        real = cone.mu_threshold
        for factor in (Fraction(999, 1000), Fraction(1001, 1000)):
            monkeypatch.setattr(cone, "mu_threshold", lambda a, f=factor: f * real(a))
            for text in _VALIDATED.values():
                with pytest.raises(UnclassifiableError, match="recomposition identity failed"):
                    classify(parse_class(text))

    def test_search_boundary_split_rejects_a_class_off_the_boundary(self):
        # -K pairs positively with every generator, and -K itself is no
        # multiple of a conic class
        with pytest.raises(UnclassifiableError):
            search.boundary_split((-K).cleared()[1])


def _permuted(v: PicardClass, perm: list[int]) -> PicardClass:
    return PicardClass((v.coeffs[0],) + tuple(v.coeffs[1 + i] for i in perm))


def _sum_e(indices) -> PicardClass:
    return sum((E(i) for i in indices), ZERO)


# One reflection of each root shape (e_i - e_j, H - e_i - e_j - e_k,
# 2H - six e's, 3H - 2e_i - the other seven), or the Bertini involution.
_WEYL_STEPS = st.one_of(
    st.lists(st.integers(1, 8), min_size=2, max_size=2, unique=True).map(
        lambda ij: E(ij[0]) - E(ij[1])
    ),
    st.lists(st.integers(1, 8), min_size=3, max_size=3, unique=True).map(
        lambda s: H - _sum_e(s)
    ),
    st.lists(st.integers(1, 8), min_size=6, max_size=6, unique=True).map(
        lambda s: 2 * H - _sum_e(s)
    ),
    st.integers(1, 8).map(lambda i: 3 * H - E(i) - _sum_e(range(1, 9))),
    st.none(),
)
_WEYL_POOL = _criterion_10_classes(10) + PENCIL


def _applied(word: list[PicardClass | None], v: PicardClass) -> PicardClass:
    """v moved by each step of the word: a reflection in a root, or Bertini for None."""
    for root in word:
        v = bertini(v) if root is None else _reflected(v, root)
    return v


@lru_cache(maxsize=None)
def _classified(a: PicardClass) -> PolarizationProfile:
    return classify(a)


class TestWeylInvariance:
    """W(E8) fixes K and permutes the 240 (-1)-classes, so it moves faces onto faces."""

    def test_random_words(self):
        rng = random.Random(8)
        for a in _criterion_10_classes(10) + PENCIL:
            base = classify(a)
            for _ in range(3):
                word = []
                for _ in range(rng.randint(1, 3)):
                    if rng.random() < 0.5:
                        word.append((_permuted, rng.sample(range(8), 8)))
                    else:
                        i, j, k = rng.sample(range(1, 9), 3)
                        word.append((_reflected, H - E(i) - E(j) - E(k)))

                def g(v: PicardClass) -> PicardClass:
                    for step, arg in word:
                        v = step(v, arg)
                    return v

                moved = classify(g(a))
                assert (moved.mu, moved.a, moved.delta, moved.s_A) == (
                    base.mu, base.a, base.delta, base.s_A
                )
                assert moved.face_generators == frozenset(
                    g(e) for e in base.face_generators
                )

    @given(st.sampled_from(range(len(_WEYL_POOL))), st.lists(_WEYL_STEPS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_every_root_shape_and_bertini(self, index, word):
        a = _WEYL_POOL[index]
        image = _applied(word, a)
        assert is_ample(image)
        base, moved = _classified(a), classify(image)
        assert (moved.mu, moved.a, moved.delta, moved.s_A) == (
            base.mu, base.a, base.delta, base.s_A
        )
        assert moved.face_generators == frozenset(
            _applied(word, e) for e in base.face_generators
        )

    @given(st.integers(1, 3), st.lists(st.integers(-1, 1), min_size=9, max_size=9),
           st.lists(_WEYL_STEPS, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_ampleness_is_invariant(self, scale, shift, word):
        v = scale * -K + PicardClass(shift)
        assert is_ample(_applied(word, v)) is reference_is_ample(v)

    def test_reflection_is_an_isometry_fixing_k(self):
        root = H - E(1) - E(4) - E(7)
        assert pairing(root, root) == -2
        assert _reflected(K, root) == K
        curves = set(enumerate_minus_one_classes().members)
        assert {_reflected(e, root) for e in curves} == curves

    @pytest.mark.parametrize("root", [E(2) - E(5), 2 * H - _sum_e([1, 2, 3, 5, 6, 8]),
                                      3 * H - E(4) - _sum_e(range(1, 9))])
    def test_every_root_shape_is_an_isometry_fixing_k(self, root):
        assert pairing(root, root) == -2
        assert _reflected(K, root) == K
        curves = set(enumerate_minus_one_classes().members)
        assert {_reflected(e, root) for e in curves} == curves

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the F1/P1xP1 type depends on the labelling of e1..e8 "
        "when a fibre carries coefficient 0, because classify's tie-break line "
        "`if c < 0 or (not c and q < p):` gives such a fibre its component with the "
        "lower enumeration index (P1xP1 with alpha_c 3/8 here, F1 with alpha_c 4/13 "
        "after relabelling)",
    )
    def test_type_is_labelling_invariant(self):
        one = classify(parse_class("12,-4,-10/3,-11/2,-10/3,-5,-7/2,-5/2,-7/2"))
        two = classify(parse_class("12,-7/2,-10/3,-10/3,-5/2,-4,-5,-7/2,-11/2"))
        assert (one.mu, one.a, one.delta) == (two.mu, two.a, two.delta)
        assert (one.type_tag, alpha_conjecture(one)) == (
            two.type_tag, alpha_conjecture(two)
        )


def _random_disjoint_sevens(rng: random.Random, count: int) -> list[list[PicardClass]]:
    """Greedy random disjoint 7-sets; a disjoint set of at most six always extends."""
    curves = enumerate_minus_one_classes().members
    rows = [tuple(int(c) for c in e.coeffs) for e in curves]

    def meets(left: tuple[int, ...], right: tuple[int, ...]) -> bool:
        return left[0] * right[0] != sum(a * b for a, b in zip(left[1:], right[1:]))

    orthogonal = [{k for k, right in enumerate(rows) if not meets(left, right)} for left in rows]
    sevens = []
    for _ in range(count):
        candidates = set(range(len(curves)))
        chosen = []
        while len(chosen) < 7:
            j = rng.choice(sorted(candidates))
            chosen.append(curves[j])
            candidates &= orthogonal[j]
        sevens.append(chosen)
    return sevens


def _indices(classes: list[PicardClass]) -> list[int]:
    """The enumeration indices of (-1)-classes, the form the search oracle's parity test takes."""
    members = enumerate_minus_one_classes().members
    return [members.index(e) for e in classes]


class TestComplementParity:
    """The search oracle's parity test against the kernel basis and the section search."""

    def test_even_set(self):
        seven = [E(i) for i in range(2, 8)] + [H - E(1) - E(8)]
        assert search.complement_is_even(_indices(seven))

    def test_odd_set(self):
        assert not search.complement_is_even(_indices([E(i) for i in range(2, 9)]))

    def test_agrees_with_kernel_basis_reference(self):
        parities = []
        for seven in _random_disjoint_sevens(random.Random(31), 1000):
            even = reference_complement_is_even(seven)
            assert search.complement_is_even(_indices(seven)) == even
            parities.append(even)
        assert 100 < sum(parities) < 900

    @pytest.mark.parametrize(
        "classes",
        [
            [E(i) for i in range(2, 8)],  # six classes
            [E(i) for i in range(2, 9)] + [E(1)],  # eight classes
            [E(i) for i in range(2, 8)] + [H - E(1) - E(2)],  # meets e2
            [E(i) for i in range(2, 8)] + [E(2)],  # e2 twice: E.E = -1
            # e2 twice and a class meeting e3 once: (sum E)^2 = -7 all the same
            [E(2), E(2), E(3), E(4), E(5), E(6), H - E(3) - E(7)],
        ],
    )
    def test_rejects_a_broken_premise(self, classes):
        with pytest.raises(UnclassifiableError):
            search.complement_is_even(_indices(classes))

    def test_parity_matches_section_search(self):
        # on a sample of disjoint 7-sets: a disjoint (-1)-class exists
        # exactly when the rank-2 complement is odd
        curves = enumerate_minus_one_classes().members
        rng = random.Random(11)
        found_even = found_odd = 0
        while found_even < 2 or found_odd < 2:
            chosen: list = []
            order = list(range(240))
            rng.shuffle(order)
            for idx in order:
                candidate = curves[idx]
                if all(pairing(candidate, c) == 0 for c in chosen):
                    chosen.append(candidate)
                    if len(chosen) == 7:
                        break
            if len(chosen) != 7:
                continue
            section = any(
                all(pairing(w, c) == 0 for c in chosen) for w in curves
            )
            even = search.complement_is_even(_indices(chosen))
            assert section != even
            found_even += even
            found_odd += not even


def _random_disjoint_indices(rng: random.Random, k: int) -> list[int]:
    """k disjoint (-1)-classes by index, each drawn among those orthogonal to the ones before."""
    orthogonal = orthogonal_sets()
    candidates, chosen = set(range(len(orthogonal))), []
    for _ in range(k):
        j = rng.choice(sorted(candidates))
        chosen.append(j)
        candidates &= orthogonal[j]
    return chosen


def _lowest_picks(chosen: list[int]) -> list[int]:
    """chosen extended by the lowest orthogonal class at each step, without looking ahead."""
    orthogonal = orthogonal_sets()
    candidates = set(range(len(orthogonal))).intersection(*(orthogonal[j] for j in chosen))
    extended = list(chosen)
    while len(extended) < 8 and candidates:
        extended.append(min(candidates))
        candidates &= orthogonal[extended[-1]]
    return extended


class TestPadding:
    """The search oracle's greedy padding scan against the backtracking search."""

    @pytest.mark.parametrize("k", range(8))
    def test_equals_backtracking_on_random_disjoint_sets(self, k):
        rng = random.Random(100 + k)
        rejected = unextendable = 0
        for _ in range(400):
            chosen = _random_disjoint_indices(rng, k)
            expected = reference_extend(chosen)
            padded = search.extend_to_disjoint_eight(chosen)
            if expected is None:
                # only seven classes with an even complement have no eighth
                assert k == 7 and padded == chosen
                assert reference_complement_is_even(
                    [enumerate_minus_one_classes().members[j] for j in chosen]
                )
                unextendable += 1
            else:
                assert padded == expected
                # the lowest seventh pick left no eighth: the scan passed it over
                rejected += len(_lowest_picks(chosen)) < 8
        if k == 7:
            assert 0 < unextendable < 400 and rejected == 0
        elif k < 7:
            assert unextendable == 0
        if 1 <= k <= 6:  # k = 0 is -K's face, whose lowest picks extend
            assert rejected > 0

    def test_anticanonical_pads_with_the_lowest_disjoint_classes(self):
        profile = classify(-K)
        assert [_indices([e])[0] for e in profile.basis] == reference_extend([])


def _word_and_chamber(v: PicardClass) -> tuple[list[int], list[int]]:
    return cone._chamber(v.cleared()[1])


class TestChamber:
    """mu and pseudo-effectivity read off the W(E8) fundamental chamber."""

    @pytest.mark.parametrize("seed", [5, 77, 3])
    def test_mu_agrees_with_lp_oracle(self, seed):
        for a in _criterion_10_classes(20, seed):
            assert _lp_oracle_agrees(a, mu_threshold(a))

    @given(st.sampled_from(range(len(_WEYL_POOL))), st.lists(_WEYL_STEPS, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_mu_agrees_with_lp_oracle_on_weyl_images(self, index, word):
        a = _WEYL_POOL[index]
        image = _applied(word, a)
        mu = mu_threshold(image)
        assert mu == mu_threshold(a)
        assert _lp_oracle_agrees(image, mu)

    def test_chamber_class_is_dominant_and_in_the_orbit(self):
        simple_roots = [H - _sum_e([1, 2, 3])] + [E(i) - E(i + 1) for i in range(1, 8)]
        for v in _criterion_10_classes(20) + PENCIL + [2 * K, -E(1), H - 3 * E(2)]:
            word, chamber = _word_and_chamber(v)
            d, m = chamber[0], [-c for c in chamber[1:]]
            assert m == sorted(m, reverse=True) and d >= m[0] + m[1] + m[2]
            denom = v.cleared()[0]
            assert _applied([simple_roots[i] for i in word], v) == PicardClass(
                Fraction(c, denom) for c in chamber
            )

    def test_bertini_image_of_a_regular_class_takes_the_longest_word(self):
        # Bertini acts as -1 on K's orthogonal complement, which is the
        # longest element of W(E8): 120 simple reflections lead back
        a = PicardClass([100, -30, -29, -28, -27, -26, -25, -24, -23])
        word, chamber = _word_and_chamber(bertini(a))
        assert len(word) == 120
        assert chamber == [int(c) for c in a.coeffs]

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                     Fraction(9, 10), Fraction(999, 1000)])
    def test_pencil_is_dominant_on_zero_to_one(self, lam):
        a = -K + lam * E(8)
        assert _word_and_chamber(a)[0] == []
        assert mu_threshold(a) == 1

    def test_pencil_below_zero_has_one_word(self):
        words = set()
        for lam in [Fraction(-8, 25), Fraction(-1, 4), Fraction(-1, 5), Fraction(-1, 10),
                    Fraction(-1, 100)]:
            a = -K + lam * E(8)
            assert mu_threshold(a) == 1 / (1 + 2 * lam)
            word, chamber = _word_and_chamber(a)
            denom = a.cleared()[0]
            closed_form = (1 + 2 * lam) * -K - lam * E(8)
            assert PicardClass(Fraction(c, denom) for c in chamber) == closed_form
            words.add(tuple(word))
        (word,) = words
        assert word.count(0) == 5

    def test_swapped_rays_fail_the_certificate(self, monkeypatch):
        h_ray, conic_ray = cone._H_RAY, cone._CONIC_RAY
        monkeypatch.setattr(cone, "_H_RAY", conic_ray)
        monkeypatch.setattr(cone, "_CONIC_RAY", h_ray)
        with pytest.raises(UnclassifiableError):
            for a in _criterion_10_classes(8) + PENCIL:
                mu_threshold(a)


_FORM_SIGNS = (1,) + (-1,) * 8


def _plain_pairings(w) -> list[int]:
    """w.E for the 240 (-1)-classes, one comprehension over their rows."""
    return [
        sum(s * x * y for s, x, y in zip(_FORM_SIGNS, w, row))
        for row in enumerate_minus_one_classes().rows
    ]


def _slot_bound(w) -> int:
    return 6 * abs(w[0]) + 3 * sum(abs(x) for x in w[1:])


# The slot bound 6|w_0| + 3*sum(|w_i|) is a multiple of 3, and so is
# 2^62 - 1: it is the largest bound the packed scan takes.  2^62 and
# 2^62 + 1 are not multiples of 3, so 2^62 + 2 is the least bound that
# falls back to the plain scan.
_TOP = (1 << 62) - 1


def _rows_at_bound(bound: int) -> list[tuple[int, ...]]:
    """Rows with exactly this slot bound (a multiple of 3), in several shapes and signs.

    (x, y, 0, ..., 0) with 6x + 3y = bound pairs to the whole bound with
    6H - 3e1 - 2(e2 + ... + e8), the slot's extreme value.
    """
    third = bound // 3
    assert 3 * third == bound
    rows = [(1, third - 2, 0, 0, 0, 0, 0, 0, 0), (0, third, 0, 0, 0, 0, 0, 0, 0)]
    rows.append((third // 2, third % 2, 0, 0, 0, 0, 0, 0, 0))
    spread = [third // 9] * 8
    spread[0] += third - 2 * (third // 9) - sum(spread)
    rows.append((third // 9, *spread))
    rows.append((third // 9, *(x if i % 2 else -x for i, x in enumerate(spread))))
    assert all(_slot_bound(row) == bound for row in rows)
    return rows + [tuple(-x for x in row) for row in rows]


class TestPackedPairings:
    """The packed 64-bit-slot scans against a plain comprehension over the 240 rows.

    The negative scan is cone's; the zero scan and the orthogonality masks
    are the search oracle's, built on the same packed product.
    """

    @staticmethod
    def _check(w) -> None:
        plain = _plain_pairings(w)
        negative = [(j, p) for j, p in enumerate(plain) if p < 0]
        assert cone._negative_pairings(w) == negative
        assert (cone._negative_pairings(w) == []) == all(p >= 0 for p in plain)
        assert search.zero_pairings(w) == [j for j, p in enumerate(plain) if p == 0]

    def test_every_minus_one_and_conic_row(self):
        rows = enumerate_minus_one_classes().rows + enumerate_conic_classes().rows
        for w in rows:
            assert cone._packed(w) is not None
            self._check(w)

    def test_orthogonal_masks(self):
        rows = enumerate_minus_one_classes().rows
        for j, row in enumerate(rows):
            expected = sum(1 << k for k, p in enumerate(_plain_pairings(row)) if p == 0)
            assert search.orthogonal_mask(j) == expected

    def test_random_small_rows(self):
        rng = random.Random(62)
        for _ in range(1500):
            w = tuple(rng.randint(-20, 20) for _ in range(9))
            self._check(w)
        for _ in range(300):  # K + t*A-shaped rows, with and without negatives
            scale = rng.randint(1, 400)
            w = tuple(k * scale + rng.randint(-scale, 2 * scale) * x
                      for k, x in zip(cone._K_ROW, (3, -1, -1, -1, -1, -1, -1, -1, -1)))
            self._check(w)

    @pytest.mark.parametrize("offset", [-3, 0])
    def test_rows_at_the_slot_bound_are_packed(self, offset):
        bound = _TOP + offset
        for w in _rows_at_bound(bound):
            assert cone._packed(w) is not None
            self._check(w)
        # the first row and its negative reach the slot values 2^62 +- bound
        top = enumerate_minus_one_classes().rows.index((6, -3, -2, -2, -2, -2, -2, -2, -2))
        assert _plain_pairings(_rows_at_bound(bound)[0])[top] == bound

    @pytest.mark.parametrize("offset", [3, 6])
    def test_rows_past_the_slot_bound_take_the_plain_scan(self, offset):
        for w in _rows_at_bound(_TOP + offset):
            assert cone._packed(w) is None
            self._check(w)

    def test_rows_far_past_the_slot_bound(self):
        rng = random.Random(30)
        for digits in (19, 20, 30, 100):
            for _ in range(40):
                w = tuple(rng.randint(-10**digits, 10**digits) for _ in range(9))
                if _slot_bound(w) >= 1 << 62:
                    assert cone._packed(w) is None
                self._check(w)
        # a large multiple of a (-1)-class: zeros and negatives survive the fallback
        for row in enumerate_minus_one_classes().rows[::17]:
            self._check(tuple(10**25 * x for x in row))

    def test_packed_magnitudes_near_the_bound(self):
        rng = random.Random(59)
        for bits in range(50, 62):
            for _ in range(40):
                w = tuple(rng.randint(-(1 << bits), 1 << bits) // 40 for _ in range(9))
                self._check(w)


def _fraction_validate(profile: PolarizationProfile, a: PicardClass) -> None:
    """The recomposition check in Fractions: ordering, signs, and the identity."""
    coeffs = profile.a
    if not coeffs or not coeffs[0] < 1 or list(coeffs) != sorted(coeffs, reverse=True):
        raise UnclassifiableError("shape")
    if coeffs[-1] < 0 or profile.delta < 0:
        raise UnclassifiableError("sign")
    total = ZERO
    for c, e in zip(coeffs, profile.basis):
        total = total + c * e
    if profile.conic is not None:
        total = total + profile.delta * profile.conic
    if total != K + profile.mu * a:
        raise UnclassifiableError("identity")


_VALIDATED = {
    P2: "3,-1,-1,-1,-1,-1,-4/5,-3/5,-1/2",
    F1: "12,-7/2,-10/3,-10/3,-5/2,-4,-5,-7/2,-11/2",
    P1XP1: "9,-2,-5/2,-11/3,-1,-2,-4,-8/3,-3",
}


# P1xP1 from a seven-class face with an even complement: a conic with delta = 0
_SEVEN_FACE_P1XP1 = "19/5,-9/5,-4/5,-7/10,-3/5,-1/2,-2/5,-3/10,-9/5"


def _mutants(profile: PolarizationProfile):
    """(name, profile) with one field changed so that the decomposition no longer holds."""
    a = profile.a
    curves = enumerate_minus_one_classes().members
    for i in range(len(a)):
        # a value between the neighbours where there is room, so that only
        # the identity can fail; inside a run of equal values, a step up
        upper = a[i - 1] if i else Fraction(1)
        lower = a[i + 1] if i + 1 < len(a) else Fraction(0)
        value = next((x for x in ((a[i] + upper) / 2, (a[i] + lower) / 2) if x != a[i]),
                     a[i] + Fraction(1, 97))
        yield f"a[{i}]", replace(profile, a=a[:i] + (value,) + a[i + 1 :])
    yield "delta", replace(profile, delta=profile.delta + Fraction(1, 7))
    yield "mu", replace(profile, mu=profile.mu * Fraction(1001, 1000))
    for i, c in enumerate(a):
        if c:
            other = next(e for e in curves if e not in profile.basis)
            swapped = profile.basis[:i] + (other,) + profile.basis[i + 1 :]
            yield f"basis[{i}]", replace(profile, basis=swapped)
    if profile.delta:
        other = next(c for c in enumerate_conic_classes() if c != profile.conic)
        yield "conic", replace(profile, conic=other)


def _half_integral_mutants(profile: PolarizationProfile):
    """Mutants whose decomposition still holds in rationals, with a class that is not integral."""
    for i, c in enumerate(profile.a):
        if not c:
            halved = profile.basis[:i] + (Fraction(1, 2) * profile.basis[i],) + profile.basis[i + 1 :]
            yield f"basis[{i}]/2", replace(profile, basis=halved)
    if profile.delta:
        yield "conic/2", replace(
            profile, conic=Fraction(1, 2) * profile.conic, delta=2 * profile.delta
        )


def _structure_mutants(profile: PolarizationProfile):
    """(index, message, profile): a basis or conic that breaks the structure.

    index is that of the swapped basis member, or None.  A member with
    coefficient 0 leaves the recomposition intact when it is swapped, so
    only the structure checks can refuse those mutants.
    """
    basis = profile.basis
    curves = enumerate_minus_one_classes().members
    for i in range(len(basis)):
        others = basis[:i] + basis[i + 1 :]
        meeting = next(c for c in curves if c not in basis and any(pairing(c, o) for o in others))
        for message, other in (
            ("repeat", others[0]),
            ("not pairwise orthogonal", meeting),
            (r"not a \(-1\)-class", hyperplane_class()),
            # E^2 = -1 with K.E = 1; the sum of the basis keeps its square
            (r"not a \(-1\)-class", -basis[i]),
            # K.E = -1 with E^2 = -3
            (r"not a \(-1\)-class", basis[i] + others[0] - others[1]),
        ):
            yield i, message, replace(profile, basis=basis[:i] + (other,) + basis[i + 1 :])
    if profile.conic is not None:
        meeting = next(
            c for c in enumerate_conic_classes() if any(pairing(c, e) for e in basis)
        )
        yield None, "not orthogonal", replace(profile, conic=meeting)
        yield None, "not a conic", replace(profile, conic=basis[0])
        yield None, "not a conic", replace(profile, conic=2 * profile.conic)
        # K.C = -2 with C^2 = -2
        yield None, "not a conic", replace(profile, conic=basis[0] + basis[1])
    yield None, "differ in length", replace(profile, basis=basis[:-1])


class TestValidateProfile:
    """`_validate_profile` checks type, basis and conic, and recomposes as Fractions would."""

    @pytest.mark.parametrize(
        "source, tag, message",
        [
            (P2, F1, "type F1 with 8 basis classes"),
            (P2, P1XP1, "type P1xP1 with 8 basis classes"),
            (P2, "F2", "type F2 with 8 basis classes"),
            (F1, "F2", "type F2 with 7 basis classes"),
            (F1, P2, "type P2 with 7 basis classes"),
            (P1XP1, P2, "type P2 with 7 basis classes"),
            (F1, P1XP1, "type P1xP1 with an odd complement"),
            (P1XP1, F1, "type F1 with an even complement"),
        ],
    )
    def test_type_must_fit_the_profile(self, source, tag, message):
        a = parse_class(_VALIDATED[source])
        relabelled = replace(classify(a), type_tag=tag)
        _fraction_validate(relabelled, a)  # the decomposition alone still holds
        with pytest.raises(UnclassifiableError, match=re.escape(message)):
            cone._validate_profile(relabelled, a)

    @pytest.mark.parametrize(
        "source, conic, message",
        [
            (P2, H - E(1), "type P2 with a conic"),
            (F1, None, "type F1 without a conic"),
            (P1XP1, None, "type P1xP1 without a conic"),
        ],
    )
    def test_conic_must_fit_the_type(self, source, conic, message):
        a = parse_class(_VALIDATED[source])
        with pytest.raises(UnclassifiableError, match=message):
            cone._validate_profile(replace(classify(a), conic=conic), a)

    @pytest.mark.parametrize("type_tag", [P2, F1, P1XP1])
    def test_basis_and_conic_structure_is_checked(self, type_tag):
        a = parse_class(_VALIDATED[type_tag])
        profile = classify(a)
        # members equal to the cached (-1)-classes, but not the same objects
        copies = tuple(PicardClass(e.coeffs) for e in profile.basis)
        cone._validate_profile(replace(profile, basis=copies), a)
        zero_members = 0
        for index, message, mutant in _structure_mutants(profile):
            with pytest.raises(UnclassifiableError, match=message):
                cone._validate_profile(mutant, a)
            if index is not None and not profile.a[index]:
                _fraction_validate(mutant, a)  # the recomposition alone still holds
                zero_members += 1
        assert zero_members  # each profile has a member with coefficient 0

    @pytest.mark.parametrize("type_tag", [P2, F1, P1XP1])
    def test_every_one_field_mutant_is_refused(self, type_tag):
        a = parse_class(_VALIDATED[type_tag])
        profile = classify(a)
        assert profile.type_tag == type_tag
        assert any(profile.a) and (profile.delta > 0) is (type_tag != P2)
        cone._validate_profile(profile, a)
        _fraction_validate(profile, a)
        names = []
        for name, mutant in _mutants(profile):
            with pytest.raises(UnclassifiableError):
                cone._validate_profile(mutant, a)
            if name != "delta" or profile.conic is not None:
                with pytest.raises(UnclassifiableError):
                    _fraction_validate(mutant, a)
            names.append(name)
        assert {"delta", "mu"} <= set(names) and any(n.startswith("basis") for n in names)
        assert ("conic" in names) is (type_tag != P2)

    @pytest.mark.parametrize("type_tag", [P2, F1, P1XP1])
    def test_non_integral_classes_are_refused(self, type_tag):
        a = parse_class(_VALIDATED[type_tag])
        profile = classify(a)
        mutants = list(_half_integral_mutants(profile))
        assert mutants
        for _, mutant in mutants:
            _fraction_validate(mutant, a)  # the identity still holds
            with pytest.raises(UnclassifiableError, match="not integral"):
                cone._validate_profile(mutant, a)

    @pytest.mark.parametrize("text", [*_VALIDATED.values(), _SEVEN_FACE_P1XP1])
    def test_face_is_certified(self, text):
        a = parse_class(text)
        profile = classify(a)
        if text == _SEVEN_FACE_P1XP1:
            # the face rule is keyed on delta: a conic, delta = 0, and N as the face
            assert profile.conic is not None and not profile.delta
        face = profile.face_generators
        curves = enumerate_minus_one_classes().members
        outside = next(e for e in curves if e not in face)
        if profile.delta:
            assert len(face) == 14
            meeting = next(e for e in curves if pairing(e, profile.conic))
            mutants = [face - {min(face)}, face | {outside}, face - {min(face)} | {meeting}]
            # orthogonal to the conic, but not a (-1)-class
            mutants.append(face - {min(face)} | {profile.conic})
            message = "face is not the 14"
        else:
            assert face == {e for c, e in zip(profile.a, profile.basis) if c}
            mutants = [face - {min(face)}, face | {outside}]
            mutants += [face | {e} for c, e in zip(profile.a, profile.basis) if not c]
            message = "face is not the basis classes"
        for mutant in mutants:
            with pytest.raises(UnclassifiableError, match=message):
                cone._validate_profile(replace(profile, face_generators=frozenset(mutant)), a)

    def test_wide_denominators(self):
        # the common denominator passes 2^62, as in the CLI's wide cases
        for text in _VALIDATED.values():
            a = Fraction(10**20 + 1, 10**20) * parse_class(text)
            profile = classify(a)
            cone._validate_profile(profile, a)
            for _, mutant in _mutants(profile):
                with pytest.raises(UnclassifiableError):
                    cone._validate_profile(mutant, a)


def _corrupt_profile(monkeypatch, change) -> None:
    """Make classify build change(profile) in place of the profile it reads off the chamber.

    The changed profile still reaches classify's call of `_validate_profile`.
    """
    real = cone.PolarizationProfile
    monkeypatch.setattr(cone, "PolarizationProfile", lambda **fields: change(real(**fields)))


def _with_the_other_conic_type(profile: PolarizationProfile) -> PolarizationProfile:
    """F1 relabelled P1xP1 and P1xP1 relabelled F1, with the basis kept."""
    assert profile.type_tag in (F1, P1XP1)
    return replace(profile, type_tag=F1 if profile.type_tag == P1XP1 else P1XP1)


def _seven_face_with_the_other_type(profile: PolarizationProfile) -> PolarizationProfile:
    """A seven-class face without a conic read with the other type.

    P1xP1 with delta = 0 becomes P2 without its conic; P2 with one zero
    coefficient drops that member and takes a conic orthogonal to the other
    seven as P1xP1.
    """
    if profile.type_tag == P1XP1:
        assert not profile.delta
        return replace(profile, type_tag=P2, conic=None)
    assert profile.type_tag == P2 and profile.a[-2] and not profile.a[-1]
    seven = profile.basis[:-1]
    conic = next(c for c in enumerate_conic_classes() if not any(pairing(c, e) for e in seven))
    return replace(profile, type_tag=P1XP1, a=profile.a[:-1], basis=seven, conic=conic)


def _fibre(profile: PolarizationProfile, e: PicardClass) -> frozenset[PicardClass]:
    """The two components of the conic's fibre through the basis class e."""
    return frozenset({e, profile.conic - e})


class TestFactsCertifiedOnce:
    """Facts that classify does not check in line, because `_validate_profile` certifies them.

    Each test corrupts one of them in the profile classify builds, on the
    F1 and P1xP1 profiles; classify must still raise, with the message of
    the check that refuses it.
    """

    @pytest.mark.parametrize("type_tag", [F1, P1XP1])
    def test_non_nef_residual(self, monkeypatch, type_tag):
        def negated(profile):
            bad = -profile.conic
            assert cone._negative_pairings(bad.cleared()[1])
            return replace(profile, conic=bad)

        _corrupt_profile(monkeypatch, negated)
        with pytest.raises(UnclassifiableError, match="is not a conic class"):
            classify(parse_class(_VALIDATED[type_tag]))

    @pytest.mark.parametrize("type_tag", [F1, P1XP1])
    def test_negative_part_off_the_face(self, monkeypatch, type_tag):
        # a conic that meets the leading member, with its own face
        def meeting(profile):
            lead = profile.basis[0]
            other = next(c for c in enumerate_conic_classes() if pairing(c, lead))
            curves = enumerate_minus_one_classes().members
            face = frozenset(curves[j] for j in search.zero_pairings(other.cleared()[1]))
            assert lead not in face and len(face) == 14
            return replace(profile, conic=other, face_generators=face)

        _corrupt_profile(monkeypatch, meeting)
        with pytest.raises(UnclassifiableError, match="conic class is not orthogonal"):
            classify(parse_class(_VALIDATED[type_tag]))

    @pytest.mark.parametrize("type_tag", [F1, P1XP1])
    def test_face_short_of_fourteen_components(self, monkeypatch, type_tag):
        # a fibre with coefficient 0 dropped from the face and from the
        # basis, which falls one short of seven
        def short(profile):
            i = profile.a.index(0)
            dropped = _fibre(profile, profile.basis[i])
            return replace(
                profile,
                a=profile.a[:i] + profile.a[i + 1 :],
                basis=profile.basis[:i] + profile.basis[i + 1 :],
                face_generators=profile.face_generators - dropped,
            )

        _corrupt_profile(monkeypatch, short)
        with pytest.raises(UnclassifiableError, match=f"type {type_tag} with 6 basis classes"):
            classify(parse_class(_VALIDATED[type_tag]))

    def test_face_that_drops_a_fibre_with_a_negative_member(self, monkeypatch):
        # the fibre of the leading member leaves the face while the basis
        # keeps its seven classes: only the face certificate can refuse it
        corrupted = []

        def short(profile):
            if not profile.delta:
                return profile
            dropped = _fibre(profile, profile.basis[0])
            assert dropped <= profile.face_generators
            corrupted.append(dropped)
            return replace(profile, face_generators=profile.face_generators - dropped)

        _corrupt_profile(monkeypatch, short)
        classes = [parse_class(_VALIDATED[F1]), parse_class(_VALIDATED[P1XP1])]
        classes += _criterion_10_classes(60)
        refused = 0
        for a in classes:
            before = len(corrupted)
            try:
                classify(a)
            except UnclassifiableError as error:
                assert "face is not the 14" in str(error)
                refused += 1
            assert refused == len(corrupted), format_class(a)
            assert len(corrupted) - before <= 1
        assert refused > 2

    @pytest.mark.parametrize(
        "type_tag, message",
        [(F1, "type P1xP1 with an odd complement"), (P1XP1, "type F1 with an even complement")],
    )
    def test_parity_helper_that_answers_wrongly(self, monkeypatch, type_tag, message):
        # the type decided against the parity of the fibres taken
        _corrupt_profile(monkeypatch, _with_the_other_conic_type)
        with pytest.raises(UnclassifiableError, match=message):
            classify(parse_class(_VALIDATED[type_tag]))

    @pytest.mark.parametrize(
        "text, message",
        [
            (_VALIDATED[F1], "type F1 with an even complement"),
            (_VALIDATED[P1XP1], "type P1xP1 with an odd complement"),
            ("12,-4,-10/3,-11/2,-10/3,-5,-7/2,-5/2,-7/2", "type P1xP1 with an odd complement"),
            ("12,-7/2,-10/3,-10/3,-5/2,-4,-5,-7/2,-11/2", "type F1 with an even complement"),
        ],
    )
    def test_fibre_tie_break_flipped_without_the_type(self, monkeypatch, text, message):
        # a fibre with coefficient 0 gives its other component: the
        # recomposition still holds, so the parity check must refuse it
        def flipped(profile):
            i = profile.a.index(0)
            other = profile.conic - profile.basis[i]
            return replace(profile, basis=profile.basis[:i] + (other,) + profile.basis[i + 1 :])

        _corrupt_profile(monkeypatch, flipped)
        with pytest.raises(UnclassifiableError, match=message):
            classify(parse_class(text))

    def test_a_mapped_row_off_the_240_is_unclassifiable(self, monkeypatch):
        # a wrong image of e8 is looked up among the 240 rows and refused
        # as UnclassifiableError, which the CLI reports, not as KeyError
        real = cone._images

        def doubled(word):
            images = real(word)
            images[8] = tuple(2 * x for x in images[8])
            return images

        monkeypatch.setattr(cone, "_images", doubled)
        for text in _VALIDATED.values():
            with pytest.raises(UnclassifiableError, match=r"mapped row .* is not a \(-1\)-class"):
                classify(parse_class(text))


class TestAgainstTheSearch:
    """classify's chamber reading against `classify_by_search`, field by field.

    The search reads the profile off scans of the 240 (-1)-classes and the
    2160 conics, without the chamber word; the atlas and its W(E8) images
    are compared in test_atlas.
    """

    def test_criterion_10_draws_and_the_pencils(self):
        classes = _criterion_10_classes(400, 1) + _criterion_10_classes(400, 2)
        classes += [-K + Fraction(k, 40) * E(i) for i in range(1, 9) for k in range(-13, 40)]
        shapes = set()
        for a in classes:
            profile = classify(a)
            assert profile == search.classify_by_search(a), format_class(a)
            shapes.add((profile.type_tag, bool(profile.delta), profile.a.count(0)))
        assert {(P2, False, 0), (P2, False, 7), (F1, True, 0), (P1XP1, True, 0),
                (P1XP1, False, 0)} <= shapes

    def test_the_upper_ruling_passes_the_certificate(self, monkeypatch):
        # with delta = 0 both rulings are valid conics; only the search
        # pins classify's choice of the lower one
        a = parse_class(_SEVEN_FACE_P1XP1)
        lower = classify(a).conic
        upper = next(
            c for c in enumerate_conic_classes()
            if c != lower and not any(pairing(c, e) for e in classify(a).basis)
        )
        assert lower < upper
        _corrupt_profile(monkeypatch, lambda profile: replace(profile, conic=upper))
        assert classify(a) != search.classify_by_search(a)
