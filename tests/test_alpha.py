"""Tests for the closed-form alpha-invariant calculators."""

from fractions import Fraction
from math import isqrt
import random

import pytest

from dp1alpha.alpha import (
    CYLINDER_LOWER,
    CYLINDER_UPPER,
    CounterexampleReport,
    alpha_conjecture,
    alpha_del_pezzo,
    alpha_theorem,
    counterexample_report,
    cylinder_range_contains,
    example_polarization,
    kstable_range_contains,
    upper_bound_witnesses,
)
from dp1alpha.cone import F1, P2, P1XP1, PolarizationProfile, classify
from dp1alpha.picard import canonical_class, exceptional_class

F = Fraction


def profile(tag, a, delta=F(0), mu=F(1)):
    """A synthetic profile carrying just the numeric data the formula reads."""
    a = tuple(F(x) for x in a)
    return PolarizationProfile(
        type_tag=tag,
        mu=F(mu),
        a=a,
        delta=F(delta),
        s_A=sum(a[1:], F(0)),
        face_generators=frozenset(),
        basis=(),
        conic=None,
    )


# ---------------------------------------------------------------------------
# 50-digit square-root interval oracle (independent of kstable_range_contains)
# ---------------------------------------------------------------------------


def sqrt_bounds(r: int, digits: int = 50) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(r) <= hi agreeing to the given number of digits."""
    scale = 10**digits
    lo = isqrt(r * scale * scale)
    return F(lo, scale), F(lo + 1, scale)


def oracle_sign(p: Fraction, q: Fraction, r: int, t: Fraction) -> int:
    """Sign of p + q*sqrt(r) - t by 50-digit interval arithmetic."""
    lo, hi = sqrt_bounds(r)
    low, high = (p + q * lo, p + q * hi) if q >= 0 else (p + q * hi, p + q * lo)
    if low - t > 0:
        return 1
    if high - t < 0:
        return -1
    assert q == 0 and p == t, "interval straddles zero on an irrational value"
    return 0


# ---------------------------------------------------------------------------
# alpha_conjecture
# ---------------------------------------------------------------------------


class TestAlphaConjecture:
    def test_p2_low_branch_matches_example_formula(self):
        for lam in (F(0), F(1, 10), F(1, 2), F(9, 10)):
            p = profile(P2, (lam,) + (F(0),) * 7)
            assert alpha_conjecture(p) == min(F(2) / (1 + 2 * lam), F(1))

    def test_f1_top_branch(self):
        p = profile(F1, (F(1, 2), 1, 1, 1, 1, 1, 0), delta=F(1, 4))
        assert p.s_A == 5
        assert alpha_conjecture(p) == F(4, 11)

    def test_p2_middle_branch_max_of_three(self):
        p = profile(P2, (F(1, 2),) * 8)
        assert p.s_A == F(7, 2)
        # the three middle expressions evaluate to 4/11, 8/21 and 3/7
        assert alpha_conjecture(p) == F(3, 7) == max(F(4, 11), F(8, 21), F(3, 7))

    def test_p2_top_branch(self):
        p = profile(P2, (F(1, 4), 1, 1, 1, 1, 1, 0, 0))
        assert p.s_A == 5
        assert alpha_conjecture(p) == F(1) / (2 + F(1, 4))

    def test_f1_middle_and_low_branches(self):
        mid = profile(F1, (F(1, 2),) * 7, delta=F(1, 8))
        assert mid.s_A == 3
        expected = max(
            F(2) / (2 + 1 + 3 - F(1, 2) - F(1, 2) + F(1, 4)),
            F(4) / (3 + 2 + 6 - F(3, 2) + F(1, 2)),
            F(3) / (2 + F(3, 2) + 3 + F(3, 8)),
        )
        assert alpha_conjecture(mid) == expected
        low = profile(F1, (F(1, 2),) + (F(1, 10),) * 6, delta=F(1, 5))
        assert low.s_A == F(3, 5)
        assert alpha_conjecture(low) == F(2) / (1 + 1 + F(3, 5) + F(2, 5))

    def test_p1xp1_branches(self):
        top = profile(P1XP1, (F(1, 2), 1, 1, 1, 1, 1, 0), delta=F(1, 4))
        assert alpha_conjecture(top) == F(4, 11)
        mid = profile(P1XP1, (F(1, 2),) * 6 + (F(1, 4),))
        assert mid.s_A == F(11, 4)
        assert alpha_conjecture(mid) == F(2, 3) == max(F(4, 7), F(8, 13), F(2, 3))
        low = profile(P1XP1, (F(1, 2),) + (F(1, 8),) * 6, delta=F(1, 2))
        assert low.s_A == F(3, 4)
        # the low branch has no a_1 term: 2/(1 + s - a_7 + 2*delta)
        assert alpha_conjecture(low) == F(2) / (1 + F(3, 4) - F(1, 8) + 1)

    def test_branch_boundaries_are_verbatim(self):
        # s_A = 4 belongs to the middle branch (4 >= s > 1), not the top one
        at_four = profile(P2, (F(1), 1, 1, 1, 1, 0, 0, 0))
        assert at_four.s_A == 4
        assert alpha_conjecture(at_four) == max(F(2, 8), F(4, 13), F(3, 9))
        just_above = profile(P2, (F(1), 1, 1, 1, 1, F(1, 100), 0, 0))
        assert alpha_conjecture(just_above) == F(1, 3)  # 1/(2 + a_1)
        # s_A = 1 belongs to the low branch (1 >= s), not the middle one
        at_one = profile(P2, (F(1), 1, 0, 0, 0, 0, 0, 0))
        assert alpha_conjecture(at_one) == min(F(2) / (1 + 2 + 1), F(1))
        just_over_one = profile(P2, (F(1), 1, F(1, 100), 0, 0, 0, 0, 0))
        s = F(101, 100)
        assert alpha_conjecture(just_over_one) == max(
            F(2) / (2 + 2 + s - 1 - F(1, 100)),
            F(4) / (3 + 4 + 2 * s - 1 - F(1, 100) - 0),
            F(3) / (2 + 3 + s),
        )

    def test_mu_scales_the_value(self):
        base = profile(P2, (F(1, 2),) + (F(0),) * 7)
        scaled = profile(P2, (F(1, 2),) + (F(0),) * 7, mu=F(1, 3))
        assert alpha_conjecture(scaled) == alpha_conjecture(base) / 3

    def test_unknown_type_tag_rejected(self):
        bad = profile(P2, (F(0),) * 8)
        bad = PolarizationProfile(
            type_tag="dP5",
            mu=bad.mu,
            a=bad.a,
            delta=bad.delta,
            s_A=bad.s_A,
            face_generators=bad.face_generators,
            basis=bad.basis,
            conic=bad.conic,
        )
        with pytest.raises(ValueError):
            alpha_conjecture(bad)

    def test_agrees_with_classifier_on_exceptional_pencil(self):
        minus_k = -canonical_class()
        curve = exceptional_class(8)
        for k in range(10):
            lam = F(k, 10)
            value = alpha_conjecture(classify(minus_k + lam * curve))
            assert value == min(F(1), F(2) / (1 + 2 * lam))

    def test_minus_two_k_classifies_to_one_half(self):
        assert alpha_conjecture(classify(2 * -canonical_class())) == F(1, 2)


# ---------------------------------------------------------------------------
# alpha_theorem
# ---------------------------------------------------------------------------


class TestAlphaTheorem:
    @pytest.mark.parametrize(
        "lam, n, alpha_s, expected",
        [
            (F(0), 1, F(1), F(1)),
            (F(1, 2), 1, F(1), F(8, 9)),
            (F(1, 2), 3, F(1), F(1)),
            (F(-1, 5), 2, F(5, 6), F(25, 18)),
        ],
    )
    def test_reference_values(self, lam, n, alpha_s, expected):
        assert alpha_theorem(lam, n, alpha_s) == expected

    def test_negative_lambda_single_tangency(self):
        # min((5/6)/(3/5), 4/(3 - 3/5)) = min(25/18, 5/3)
        assert alpha_theorem(F(-1, 5), 1, F(5, 6)) == F(25, 18)

    def test_negative_lambda_cap_at_two(self):
        # alpha_S/(1+2*lam) = 1/(2/5) = 5/2 exceeds the cap
        assert alpha_theorem(F(-3, 10), 2, F(1)) == F(2)

    def test_two_and_three_intersections_agree(self):
        for k in range(0, 20):
            lam = F(k, 20)
            assert alpha_theorem(lam, 2, F(5, 6)) == alpha_theorem(lam, 3, F(5, 6))

    @pytest.mark.parametrize("lam", [F(-1, 3), F(1), F(-2, 5), F(3, 2)])
    def test_lambda_range_enforced(self, lam):
        with pytest.raises(ValueError):
            alpha_theorem(lam, 1, F(1))

    @pytest.mark.parametrize("n", [0, 4, -1])
    def test_intersection_count_enforced(self, n):
        with pytest.raises(ValueError):
            alpha_theorem(F(1, 2), n, F(1))

    @pytest.mark.parametrize("alpha_s", [F(0), F(3, 2), F(-1, 2)])
    def test_alpha_s_range_enforced(self, alpha_s):
        with pytest.raises(ValueError):
            alpha_theorem(F(1, 2), 1, alpha_s)

    def test_non_increasing_in_lambda(self):
        for n in (1, 2, 3):
            for alpha_s in (F(1), F(5, 6)):
                values = [
                    alpha_theorem(F(k, 25), n, alpha_s) for k in range(25)
                ]
                assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# alpha_del_pezzo
# ---------------------------------------------------------------------------


class TestAlphaDelPezzo:
    @pytest.mark.parametrize(
        "degree, flags, expected",
        [
            (1, "no-cuspidal", F(1)),
            (1, "cuspidal", F(5, 6)),
            (2, "no-tacnodal", F(5, 6)),
            (2, "tacnodal", F(3, 4)),
            (3, "no-eckardt", F(3, 4)),
            (3, "eckardt", F(2, 3)),
            (4, None, F(2, 3)),
            (5, None, F(1, 2)),
            (6, None, F(1, 2)),
            (7, None, F(1, 3)),
            (8, "f1", F(1, 3)),
            (8, "p1xp1", F(1, 2)),
            (9, None, F(1, 3)),
        ],
    )
    def test_full_table(self, degree, flags, expected):
        assert alpha_del_pezzo(degree, flags) == expected

    @pytest.mark.parametrize("degree", [1, 2, 3, 8])
    def test_flag_required(self, degree):
        with pytest.raises(ValueError):
            alpha_del_pezzo(degree)

    @pytest.mark.parametrize("degree", [4, 5, 6, 7, 9])
    def test_flag_forbidden(self, degree):
        with pytest.raises(ValueError):
            alpha_del_pezzo(degree, "cuspidal")

    @pytest.mark.parametrize(
        "degree, flags",
        [(1, "tacnodal"), (2, "cuspidal"), (3, "f1"), (8, "eckardt")],
    )
    def test_wrong_flag_rejected(self, degree, flags):
        with pytest.raises(ValueError):
            alpha_del_pezzo(degree, flags)

    @pytest.mark.parametrize("degree", [0, 10, -1, F(1, 2), "1", True])
    def test_degree_validated(self, degree):
        with pytest.raises(ValueError):
            alpha_del_pezzo(degree, "cuspidal")


# ---------------------------------------------------------------------------
# The two windows
# ---------------------------------------------------------------------------


def oracle_kstable(lam: Fraction, digits: int = 60) -> bool:
    """Membership in [3 - sqrt(10), (sqrt(10) - 1)/9] by interval arithmetic."""
    lo, hi = sqrt_bounds(10, digits)
    if 3 - lo <= lam <= (lo - 1) / 9:
        return True
    if lam < 3 - hi or lam > (hi - 1) / 9:
        return False
    raise AssertionError(f"{digits} digits do not decide {lam}")


class TestKStableEndpoints:
    @pytest.mark.parametrize(
        "endpoint, side, inside",
        [
            ("lower", -1, False),
            ("lower", 1, True),
            ("upper", -1, True),
            ("upper", 1, False),
        ],
    )
    def test_near_endpoint_rationals_agree_with_oracle(self, endpoint, side, inside):
        # rationals 10^-k on one side of an endpoint, k = 1..40; the 60-digit
        # approximations sit within 10^-60 of the true endpoints
        lo, _ = sqrt_bounds(10, 60)
        end = 3 - lo if endpoint == "lower" else (lo - 1) / 9
        for k in range(1, 41):
            lam = end + side * F(1, 10**k)
            assert oracle_kstable(lam) is inside
            assert kstable_range_contains(lam) is inside

    # 3 - sqrt(10) is about -0.16228 and (sqrt(10) - 1)/9 about 0.24037
    @pytest.mark.parametrize(
        "lam, inside",
        [
            (F(-163, 1000), False),
            (F(-162, 1000), True),
            (F(240, 1000), True),
            (F(241, 1000), False),
        ],
    )
    def test_thousandths_bracket_the_endpoints(self, lam, inside):
        assert oracle_kstable(lam) is inside
        assert kstable_range_contains(lam) is inside

    # each point satisfies exactly one of the squared inequalities: the
    # other roots (-1 - sqrt(10))/9 and 3 + sqrt(10) must not widen the window
    @pytest.mark.parametrize("lam", [F(-2, 5), F(-1, 5), F(1, 2), F(6)])
    def test_one_squared_inequality_alone_is_not_enough(self, lam):
        assert ((3 - lam) ** 2 <= 10) != ((9 * lam + 1) ** 2 <= 10)
        assert oracle_kstable(lam) is False
        assert kstable_range_contains(lam) is False

    def test_agrees_with_interval_oracle_on_random_sample(self):
        rng = random.Random(20260816)
        for _ in range(300):
            lam = F(rng.randint(-10**6, 10**6), rng.randint(1, 2 * 10**6))
            assert kstable_range_contains(lam) is oracle_kstable(lam)

    def test_window_sits_inside_cylinder_window(self):
        # -1/4 < 3 - sqrt(10) and (sqrt(10) - 1)/9 < 1/3
        assert oracle_sign(F(3), F(-1), 10, CYLINDER_LOWER) == 1
        assert oracle_sign(F(-1, 9), F(1, 9), 10, CYLINDER_UPPER) == -1
        assert not kstable_range_contains(CYLINDER_LOWER)
        assert not kstable_range_contains(CYLINDER_UPPER)
        for k in range(-300, 301):
            lam = F(k, 990)
            assert not kstable_range_contains(lam) or cylinder_range_contains(lam)


class TestWindows:
    @pytest.mark.parametrize(
        "lam, expected",
        [
            (F(0), True),
            (F(1, 5), True),
            (F(1, 4), False),
            (F(-1, 6), False),
        ],
    )
    def test_kstable_reference_values(self, lam, expected):
        assert kstable_range_contains(lam) is expected

    def test_kstable_agrees_with_oracle_on_grid(self):
        for k in range(-300, 301):
            lam = F(k, 990)
            expected = (
                oracle_sign(F(3), F(-1), 10, lam) <= 0
                and oracle_sign(F(-1, 9), F(1, 9), 10, lam) >= 0
            )
            assert kstable_range_contains(lam) is expected

    @pytest.mark.parametrize(
        "lam, expected",
        [
            (F(1, 3), True),
            (F(-1, 4), True),
            (F(1, 2), False),
            (F(0), True),
            (F(-26, 100), False),
            (F(34, 100), False),
        ],
    )
    def test_cylinder_reference_values(self, lam, expected):
        assert cylinder_range_contains(lam) is expected

    def test_cylinder_endpoints_exactly_closed(self):
        assert CYLINDER_LOWER == F(-1, 4) and CYLINDER_UPPER == F(1, 3)
        eps = F(1, 10**9)
        assert cylinder_range_contains(CYLINDER_LOWER)
        assert cylinder_range_contains(CYLINDER_UPPER)
        assert not cylinder_range_contains(CYLINDER_LOWER - eps)
        assert not cylinder_range_contains(CYLINDER_UPPER + eps)


# ---------------------------------------------------------------------------
# upper_bound_witnesses
# ---------------------------------------------------------------------------


class TestUpperBoundWitnesses:
    def test_reference_tangency_case(self):
        bounds = dict(upper_bound_witnesses(F(1, 2), 1, F(1)))
        assert bounds == {
            "anticanonical family": F(1),
            "weighted section pair at a crossing": F(1),
            "weighted section pair at the tangency": F(8, 9),
        }
        assert min(bounds.values()) == F(8, 9) == alpha_theorem(F(1, 2), 1, F(1))

    def test_reference_transverse_case(self):
        witnesses = upper_bound_witnesses(F(0), 3, F(1))
        assert [d for d, _ in witnesses] == [
            "anticanonical family",
            "weighted section pair at a crossing",
        ]
        assert min(b for _, b in witnesses) == F(1)

    def test_tangency_witness_only_for_single_intersection(self):
        assert len(upper_bound_witnesses(F(1, 4), 1, F(5, 6))) == 3
        assert len(upper_bound_witnesses(F(1, 4), 2, F(5, 6))) == 2
        assert len(upper_bound_witnesses(F(1, 4), 3, F(5, 6))) == 2

    def test_tangency_coefficients_sum_to_four_thirds(self):
        for k in range(20):
            lam = F(k, 20)
            mu = F(4) / (3 + 3 * lam)
            assert mu * (F(1, 2) + lam) + mu / 2 == F(4, 3)
            bounds = dict(upper_bound_witnesses(lam, 1, F(1)))
            assert bounds["weighted section pair at the tangency"] == mu

    def test_minimum_equals_theorem_on_grid(self):
        for k in range(20):
            lam = F(k, 20)
            for n in (1, 2, 3):
                for alpha_s in (F(1), F(5, 6), F(1, 2)):
                    witnesses = upper_bound_witnesses(lam, n, alpha_s)
                    assert min(b for _, b in witnesses) == alpha_theorem(
                        lam, n, alpha_s
                    )

    @pytest.mark.parametrize("lam", [F(-1, 10), F(1), F(3, 2)])
    def test_lambda_range_enforced(self, lam):
        with pytest.raises(ValueError):
            upper_bound_witnesses(lam, 1, F(1))

    def test_other_inputs_validated(self):
        with pytest.raises(ValueError):
            upper_bound_witnesses(F(1, 2), 0, F(1))
        with pytest.raises(ValueError):
            upper_bound_witnesses(F(1, 2), 1, F(2))


# ---------------------------------------------------------------------------
# counterexample_report
# ---------------------------------------------------------------------------


class TestCounterexampleReport:
    @pytest.mark.parametrize(
        "lam, alpha, alpha_c, violated",
        [
            (F(1, 2), F(8, 9), F(1), True),
            (F(1, 4), F(1), F(1), False),
            (F(0), F(1), F(1), False),
        ],
    )
    def test_reference_values(self, lam, alpha, alpha_c, violated):
        report = counterexample_report(lam)
        assert report == CounterexampleReport(alpha, alpha_c, violated)

    def test_violation_starts_strictly_above_one_third(self):
        for k in range(25):
            lam = F(k, 25)
            report = counterexample_report(lam)
            assert report.alpha == alpha_theorem(lam, 1, F(1))
            assert report.alpha_c == min(F(1), F(2) / (1 + 2 * lam))
            assert report.conjecture_violated is (lam > F(1, 3))

    @pytest.mark.parametrize("lam", [F(-1, 10), F(1), F(5, 4)])
    def test_lambda_range_enforced(self, lam):
        with pytest.raises(ValueError):
            counterexample_report(lam)

    def test_polarization_class_coordinates(self):
        v = example_polarization(F(1, 2))
        assert v.coeffs == (3, -1, -1, -1, -1, -1, -1, -1, F(-1, 2))


# ---------------------------------------------------------------------------
# Cross-formula invariants
# ---------------------------------------------------------------------------


class TestFormulaComparison:
    def test_theorem_strictly_below_conjecture_past_one_third(self):
        for k in range(100):
            lam = F(k, 100)
            p = profile(P2, (lam,) + (F(0),) * 7)
            conjectural = alpha_conjecture(p)
            proven = alpha_theorem(lam, 1, F(1))
            if lam > F(1, 3):
                assert proven < conjectural
            else:
                assert proven == conjectural

    def test_crossover_is_exactly_one_third(self):
        lam = F(1, 3)
        assert alpha_theorem(lam, 1, F(1)) == F(1)
        assert alpha_theorem(lam + F(1, 1000), 1, F(1)) < F(1)
