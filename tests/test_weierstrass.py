"""Tests for binary-form arithmetic and Weierstrass-surface analysis."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import reference_weierstrass
import sympy

from dp1alpha.weierstrass import (
    BinaryForm,
    NotASectionError,
    SectionPair,
    WeierstrassSurface,
    _finite,
    alpha_of_surface,
    distinct_root_count,
    find_square_sections,
    format_form,
    has_cuspidal_member,
    is_smooth,
    parse_form,
    resultant,
    section_pair,
)

X4 = BinaryForm(4, (1, 0, 0, 0, 0))
Y6 = BinaryForm(6, (0, 0, 0, 0, 0, 0, 1))
ZERO4 = BinaryForm(4, (0,) * 5)
ZERO2 = BinaryForm(2, (0, 0, 0))
Y3 = BinaryForm(3, (0, 0, 0, 1))
MAIN = WeierstrassSurface(a=X4, b=Y6)

_U = sympy.Symbol("u")


def _to_sympy(form: BinaryForm) -> sympy.Poly:
    expr = sum(
        sympy.Rational(c) * _U ** (form.degree - i) for i, c in enumerate(form.coeffs)
    )
    return sympy.Poly(expr, _U)


def _random_form(rng: random.Random, degree: int, low=-3, high=3) -> BinaryForm:
    return BinaryForm(degree, [Fraction(rng.randint(low, high)) for _ in range(degree + 1)])


class TestFormArithmetic:
    def test_ring_laws_against_sympy(self):
        rng = random.Random(5)
        for _ in range(25):
            f = _random_form(rng, rng.randint(1, 4))
            g = _random_form(rng, rng.randint(1, 4))
            product = f * g
            assert _to_sympy(product) == _to_sympy(f) * _to_sympy(g)
            cube = f**3
            assert _to_sympy(cube) == _to_sympy(f) ** 3

    def test_add_requires_same_degree(self):
        with pytest.raises(ValueError):
            X4 + Y6  # noqa: B018

    def test_substitution_is_a_ring_map(self):
        rng = random.Random(6)
        m = (Fraction(2), Fraction(1), Fraction(1), Fraction(1))
        for _ in range(10):
            f = _random_form(rng, 3)
            g = _random_form(rng, 2)
            assert (f * g).substituted(*m) == f.substituted(*m) * g.substituted(*m)

    def test_parse_format_round_trip(self):
        text = "4:1,0,-2/3,0,5"
        assert format_form(parse_form(text)) == text
        with pytest.raises(ValueError):
            parse_form("4:1,2,3")
        with pytest.raises(ValueError):
            parse_form("1,2,3")

    def test_constructor_arity(self):
        with pytest.raises(ValueError):
            BinaryForm(2, (1, 2))


class TestResultant:
    def test_disjoint_root_sets(self):
        assert resultant(X4, Y6) == 1  # value pinned by the sympy oracle below

    def test_shared_factor_vanishes(self):
        x = BinaryForm(1, (1, 0))
        f = x * BinaryForm(2, (1, 0, 1))
        g = x * BinaryForm(1, (1, 1))
        assert resultant(f, g) == 0

    def test_against_sympy_on_nondegenerate_forms(self):
        # sympy's subresultant-based value can differ in sign from the
        # Sylvester determinant, so compare magnitudes here (the sign
        # convention is pinned by the product-formula test below)
        rng = random.Random(7)
        for _ in range(30):
            f = _random_form(rng, rng.randint(1, 4))
            g = _random_form(rng, rng.randint(1, 4))
            if f.coeffs[0] == 0 or g.coeffs[0] == 0:
                continue  # no roots at [1:0]: formal and affine resultants agree
            expected = sympy.resultant(_to_sympy(f).as_expr(), _to_sympy(g).as_expr(), _U)
            assert abs(resultant(f, g)) == abs(Fraction(str(expected)))

    def test_product_formula_with_rational_roots(self):
        # Res(f, g) = lc(f)^deg(g) * prod over roots r of f of g(r),
        # computed exactly when f splits into rational linear factors
        rng = random.Random(13)
        for _ in range(30):
            lead = Fraction(rng.choice([m for m in range(-3, 4) if m]))
            roots = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            f = BinaryForm(0, (lead,))
            for r in roots:
                f = f * BinaryForm(1, (1, -r))
            g = _random_form(rng, rng.randint(1, 4))
            if g.coeffs[0] == 0:
                continue
            g_poly, _ = _finite(g.coeffs)  # primitive, proportional to g(u, 1)
            scale = g.coeffs[0] / g_poly[-1]
            def eval_g(x):
                return scale * sum(c * x**i for i, c in enumerate(g_poly))
            expected = lead ** g.degree
            for r in roots:
                expected *= eval_g(r)
            assert resultant(f, g) == expected

    def test_zero_iff_shared_projective_root(self):
        rng = random.Random(8)
        for _ in range(60):
            f = _random_form(rng, rng.randint(1, 3), -2, 2)
            g = _random_form(rng, rng.randint(1, 3), -2, 2)
            if f.is_zero() or g.is_zero():
                continue
            shared_finite = sympy.degree(
                sympy.gcd(_to_sympy(f).as_expr(), _to_sympy(g).as_expr()), _U
            ) >= 1
            shared_infinity = f.coeffs[0] == 0 and g.coeffs[0] == 0
            assert (resultant(f, g) == 0) == (shared_finite or shared_infinity)


class TestRootCounting:
    def test_spec_values(self):
        assert distinct_root_count(Y3) == 1
        assert distinct_root_count(BinaryForm(3, (0, 0, 1, 0))) == 2
        assert distinct_root_count(BinaryForm(3, (0, 1, 1, 0))) == 3

    def test_rejects_zero_form(self):
        with pytest.raises(ValueError):
            distinct_root_count(BinaryForm(3, (0, 0, 0, 0)))

    def test_against_sympy(self):
        rng = random.Random(9)
        for _ in range(40):
            f = _random_form(rng, rng.randint(1, 6), -2, 2)
            if f.is_zero():
                continue
            poly = _to_sympy(f)
            finite = sum(1 for _root, _m in sympy.roots(poly, multiple=False).items())
            # count all distinct complex roots: degree of the squarefree part
            sqf = sympy.prod([p for p, _ in sympy.sqf_list(poly.as_expr())[1]])
            finite = sympy.degree(sqf, _U) if sqf != 1 else 0
            infinity = 1 if f.coeffs[0] == 0 else 0
            assert distinct_root_count(f) == finite + infinity

    def test_squarefree_part_law(self):
        # f^2 h has the same distinct roots as f h
        rng = random.Random(10)
        for _ in range(20):
            f = _random_form(rng, 2, -2, 2)
            h = _random_form(rng, 2, -2, 2)
            if f.is_zero() or h.is_zero():
                continue
            ff = f * f * h
            fh = f * h
            if ff.is_zero():
                continue
            assert distinct_root_count(ff) == distinct_root_count(fh)


class TestSmoothness:
    def test_spec_examples(self):
        assert is_smooth(MAIN)
        assert is_smooth(WeierstrassSurface(a=ZERO4, b=BinaryForm(6, (1, 1, 0, 0, 0, 0, 1))))
        assert not is_smooth(WeierstrassSurface(a=ZERO4, b=BinaryForm(6, (0, 0, 1, 0, 0, 0, 0))))

    def test_main_discriminant_is_squarefree(self):
        delta = MAIN.discriminant()
        assert delta == BinaryForm(12, (4,) + (0,) * 12) + BinaryForm(
            12, (0,) * 12 + (27,)
        )
        poly, m_inf = _finite(delta.coeffs)
        assert m_inf == 0
        assert sympy.degree(sympy.gcd(_to_sympy_poly(poly), _to_sympy_poly_diff(poly)), _U) == 0

    def test_zero_b_is_singular(self):
        assert not is_smooth(WeierstrassSurface(a=X4, b=BinaryForm(6, (0,) * 7)))

    def test_rejects_identically_zero_discriminant(self):
        with pytest.raises(ValueError):
            WeierstrassSurface(a=ZERO4, b=BinaryForm(6, (0,) * 7))

    def test_invariance_under_unimodular_substitution(self):
        rng = random.Random(11)
        surfaces = [
            MAIN,
            WeierstrassSurface(a=ZERO4, b=BinaryForm(6, (1, 1, 0, 0, 0, 0, 1))),
            WeierstrassSurface(a=ZERO4, b=BinaryForm(6, (0, 0, 1, 0, 0, 0, 0))),
            WeierstrassSurface(a=X4, b=BinaryForm(6, (0, 0, 0, 0, 0, 1, 0))),
        ]
        for _ in range(12):
            # random unimodular matrix from shears and swaps
            m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
            for _ in range(3):
                k = Fraction(rng.randint(-2, 2))
                if rng.random() < 0.5:
                    m = ((m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]), m[1])
                else:
                    m = (m[0], (m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]))
            flat = (m[0][0], m[0][1], m[1][0], m[1][1])
            for s in surfaces:
                image = WeierstrassSurface(
                    a=s.a.substituted(*flat), b=s.b.substituted(*flat)
                )
                assert is_smooth(image) == is_smooth(s)


def _to_sympy_poly(coeffs):
    return sum(sympy.Rational(c) * _U**i for i, c in enumerate(coeffs))


def _to_sympy_poly_diff(coeffs):
    return sympy.diff(_to_sympy_poly(coeffs), _U)


class TestCuspDetection:
    def test_main_surface_is_cusp_free(self):
        assert not has_cuspidal_member(MAIN)
        assert alpha_of_surface(MAIN) == 1

    def test_shared_root_gives_cusp(self):
        s = WeierstrassSurface(a=X4, b=BinaryForm(6, (0, 0, 0, 0, 0, 1, 0)))
        assert is_smooth(s)
        assert has_cuspidal_member(s)
        assert alpha_of_surface(s) == Fraction(5, 6)

    def test_zero_a_family_is_cuspidal(self):
        # with a = 0 every root of b gives the fiber w^2 = z^3
        s = WeierstrassSurface(a=ZERO4, b=BinaryForm(6, (1, 1, 0, 0, 0, 0, 1)))
        assert has_cuspidal_member(s)
        assert alpha_of_surface(s) == Fraction(5, 6)

    def test_triple_root_oracle(self):
        # brute-force check on the pencil z^3 + a(t)z + b(t) over sample roots:
        # cusp parameters are exactly the common roots of a and b
        t = sympy.Symbol("t")
        for surface, expected in [
            (MAIN, False),
            (WeierstrassSurface(a=X4, b=BinaryForm(6, (0, 0, 0, 0, 0, 1, 0))), True),
        ]:
            a_poly = sum(sympy.Rational(c) * t ** (4 - i) for i, c in enumerate(surface.a.coeffs))
            b_poly = sum(sympy.Rational(c) * t ** (6 - i) for i, c in enumerate(surface.b.coeffs))
            system_has_common = sympy.resultant(a_poly, b_poly, t) == 0
            at_infinity = surface.a.coeffs[0] == 0 and surface.b.coeffs[0] == 0
            assert has_cuspidal_member(surface) == (system_has_common or at_infinity)

    def test_rejects_singular_surface(self):
        singular = WeierstrassSurface(a=ZERO4, b=BinaryForm(6, (0, 0, 1, 0, 0, 0, 0)))
        with pytest.raises(ValueError):
            has_cuspidal_member(singular)


class TestSections:
    def test_main_pair(self):
        pair = section_pair(MAIN, ZERO2, Y3)
        assert pair.n_intersections == 1
        assert pair.q == ZERO2

    def test_rejects_non_section(self):
        with pytest.raises(NotASectionError):
            section_pair(MAIN, ZERO2, BinaryForm(3, (0, 0, 1, 0)))

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            section_pair(MAIN, BinaryForm(3, (0, 0, 0, 1)), Y3)
        with pytest.raises(ValueError):
            section_pair(MAIN, ZERO2, BinaryForm(2, (0, 0, 1)))

    def test_multiplicities_sum_to_three(self):
        for g in [Y3, BinaryForm(3, (0, 1, 1, 0)), BinaryForm(3, (1, 0, 0, 0))]:
            b = g * g
            surface = WeierstrassSurface(a=X4, b=b)
            pair = section_pair(surface, ZERO2, g)
            poly = _to_sympy(g)
            finite_mults = [m for _r, m in sympy.roots(poly, multiple=False).items()]
            infinity_mult = 3 - sympy.degree(poly, _U)
            total = sum(finite_mults) + infinity_mult
            assert total == 3
            distinct = len(finite_mults) + (1 if infinity_mult > 0 else 0)
            assert pair.n_intersections == distinct

    def test_nonzero_q_section(self):
        # build a valid pair with q = x^2: g^2 = q^3 + a*q + b defines b
        q = BinaryForm(2, (1, 0, 0))
        g = BinaryForm(3, (1, 0, 0, 1))  # x^3 + y^3
        a = X4
        b = g * g - (q**3 + a * q)
        surface = WeierstrassSurface(a=a, b=b)
        pair = section_pair(surface, q, g)
        assert pair.n_intersections == 3


class TestSquareSections:
    def test_main_surface(self):
        pairs = find_square_sections(MAIN)
        assert len(pairs) == 1
        assert pairs[0].g == Y3
        assert pairs[0].n_intersections == 1

    def test_three_point_example(self):
        g = BinaryForm(3, (0, 1, 1, 0))
        surface = WeierstrassSurface(a=X4, b=g * g)
        pairs = find_square_sections(surface)
        assert len(pairs) == 1
        assert pairs[0].g == g
        assert pairs[0].n_intersections == 3

    def test_non_square_b(self):
        surface = WeierstrassSurface(a=X4, b=BinaryForm(6, (0, 0, 1, 0, 0, 0, 1)))
        assert find_square_sections(surface) == []

    def test_sign_normalization(self):
        g = BinaryForm(3, (-1, 0, 0, -2))
        surface = WeierstrassSurface(a=X4, b=g * g)
        pairs = find_square_sections(surface)
        assert len(pairs) == 1
        assert pairs[0].g == BinaryForm(3, (1, 0, 0, 2))

    def test_random_squares_found(self):
        rng = random.Random(12)
        for _ in range(20):
            g = _random_form(rng, 3)
            if g.is_zero():
                continue
            b = g * g
            if (4 * X4**3 + 27 * b * b * 0 + 27 * b**2).is_zero():
                continue
            surface = WeierstrassSurface(a=X4, b=b)
            pairs = find_square_sections(surface)
            assert len(pairs) == 1
            assert pairs[0].g * pairs[0].g == b


class TestEndToEnd:
    def test_main_surface_facts(self):
        # the four facts used before applying the main theorem
        assert is_smooth(MAIN)
        assert not has_cuspidal_member(MAIN)
        assert alpha_of_surface(MAIN) == 1
        pairs = find_square_sections(MAIN)
        assert len(pairs) == 1 and pairs[0].n_intersections == 1


# --------------------------------------------------------------------------
# The integer engine against the Fraction reference and independent oracles
# --------------------------------------------------------------------------

_Y = BinaryForm(1, (0, 1))


def _nonzero_form(rng: random.Random, degree: int, low=-3, high=3, rational=False):
    while True:
        if rational:
            coeffs = [Fraction(rng.randint(low, high), rng.randint(1, 6)) for _ in range(degree + 1)]
        else:
            coeffs = [rng.randint(low, high) for _ in range(degree + 1)]
        form = BinaryForm(degree, coeffs)
        if not form.is_zero():
            return form


# "generic", "square" and "shared-root" are the benchmark's surface kinds
SURFACE_KINDS = (
    "generic", "square", "shared-root", "rational", "rational-node", "infinity", "a-zero",
    "double", "small",
)


def _random_surface(rng: random.Random, kind: str) -> WeierstrassSurface:
    while True:
        if kind == "generic":
            a, b = _nonzero_form(rng, 4), _nonzero_form(rng, 6)
        elif kind == "square":
            a, g = _nonzero_form(rng, 4), _nonzero_form(rng, 3)
            b = g * g
        elif kind == "shared-root":
            line = _nonzero_form(rng, 1)
            a, b = line * _nonzero_form(rng, 3), line * _nonzero_form(rng, 5)
        elif kind == "rational":
            a = _nonzero_form(rng, 4, rational=True)
            b = _nonzero_form(rng, 6, rational=True)
        elif kind == "rational-node":
            # Delta has a double root at u = 0 where a does not vanish: a node
            # of the total space, found only if both denominators are honoured
            # (a(0) = -3s^2, b(0) = 2s^3 and b'(0) = -s a'(0))
            s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(2, 4))
            a = _nonzero_form(rng, 4, rational=True)
            b = _nonzero_form(rng, 6, rational=True)
            a = BinaryForm(4, a.coeffs[:3] + (a.coeffs[3], -3 * s**2))
            b = BinaryForm(6, b.coeffs[:5] + (-s * a.coeffs[3], 2 * s**3))
        elif kind == "infinity":  # roots at [1:0]
            i, j = rng.randint(0, 2), rng.randint(1, 3)
            a = _Y**i * _nonzero_form(rng, 4 - i, -2, 2)
            b = _Y**j * _nonzero_form(rng, 6 - j, -2, 2)
        elif kind == "a-zero":
            a = ZERO4
            if rng.random() < 0.5:
                b = _nonzero_form(rng, 6)
            else:
                b = _nonzero_form(rng, 1) ** 2 * _nonzero_form(rng, 4)
        elif kind == "double":  # b with a forced double linear factor
            line = _nonzero_form(rng, 1, -2, 2)
            b = line * line * _nonzero_form(rng, 4, -2, 2)
            if rng.random() < 0.5:
                a = line * _nonzero_form(rng, 3, -2, 2)
            else:
                a = _nonzero_form(rng, 4, -2, 2)
        else:  # coefficients in {-1, 0, 1}: multiple roots arise on their own
            a, b = _nonzero_form(rng, 4, -1, 1), _nonzero_form(rng, 6, -1, 1)
        try:
            return WeierstrassSurface(a=a, b=b)
        except ValueError:  # discriminant vanishes identically
            continue


def _surfaces(seed: int, count: int) -> list[WeierstrassSurface]:
    rng = random.Random(seed)
    return [_random_surface(rng, SURFACE_KINDS[k % len(SURFACE_KINDS)]) for k in range(count)]


class TestAgainstReference:
    """The integer engine equals the `Fraction` code in tests/reference_weierstrass.py."""

    def test_surfaces(self):
        singular = 0
        for k, surface in enumerate(_surfaces(2024, 2000)):
            smooth = reference_weierstrass.is_smooth(surface)
            assert is_smooth(surface) == smooth
            singular += not smooth
            expected = reference_weierstrass.resultant(surface.a, surface.b)
            assert resultant(surface.a, surface.b) == expected
            if smooth:
                cusp = surface.a.is_zero() or expected == 0
                assert has_cuspidal_member(surface) == cusp
            for form in (surface.a, surface.b):
                if not form.is_zero():
                    assert distinct_root_count(form) == reference_weierstrass.distinct_root_count(form)
            assert find_square_sections(surface) == reference_weierstrass.find_square_sections(surface)
            if k % 10 == 0:
                assert surface.discriminant() == reference_weierstrass.discriminant(surface)
        assert singular >= 300

    def test_resultant_on_random_pairs(self):
        rng = random.Random(2025)
        for _ in range(1000):
            # f may vanish identically or have zero leading coefficients
            f = _random_form(rng, rng.randint(0, 6), -2, 2)
            if rng.random() < 0.5:
                f = BinaryForm(f.degree, [c / rng.randint(1, 6) for c in f.coeffs])
            g = _nonzero_form(rng, rng.randint(0, 6), rational=rng.random() < 0.5)
            assert resultant(f, g) == reference_weierstrass.resultant(f, g)
            assert resultant(g, f) == reference_weierstrass.resultant(g, f)


def _dehomogenized(form: BinaryForm, var) -> sympy.Expr:
    """f(var, 1) as a sympy expression."""
    return sum(sympy.Rational(c) * var ** (form.degree - i) for i, c in enumerate(form.coeffs))


def _singular_by_jacobian(surface: WeierstrassSurface) -> bool:
    """Singularity of w^2 = z^3 + a z + b from the Jacobian criterion.

    In the chart y = 1 a singular point has w = 0 and is a common zero of
    z^3 + a(u)z + b(u), 3z^2 + a(u) and a'(u)z + b'(u): there is one exactly
    when their Groebner basis is not [1].  The chart x = 1 adds the points
    over y = 0, where the same three polynomials read z^3 + a0 z + b0,
    3z^2 + a0 and a1 z + b1 (a0, a1 the coefficients of x^4 and x^3 y).
    """
    u, z = sympy.symbols("u z")
    a, b = _dehomogenized(surface.a, u), _dehomogenized(surface.b, u)
    finite = [z**3 + a * z + b, 3 * z**2 + a, sympy.diff(a, u) * z + sympy.diff(b, u)]
    if sympy.groebner(finite, u, z, order="grevlex").exprs != [1]:
        return True
    a0, a1 = (sympy.Rational(c) for c in surface.a.coeffs[:2])
    b0, b1 = (sympy.Rational(c) for c in surface.b.coeffs[:2])
    at_infinity = sympy.gcd_list([z**3 + a0 * z + b0, 3 * z**2 + a0, a1 * z + b1], z)
    return sympy.degree(at_infinity, z) > 0


class TestSmoothnessOracle:
    def test_jacobian_criterion(self):
        rng = random.Random(2026)
        kinds = ("generic", "shared-root", "rational-node", "infinity", "a-zero", "double", "small")
        singular = 0
        for k in range(120):
            surface = _random_surface(rng, kinds[k % len(kinds)])
            expected = not _singular_by_jacobian(surface)
            assert is_smooth(surface) == expected, surface
            singular += not expected
        assert singular >= 30


def _form_in_u(*coeffs) -> BinaryForm:
    """The form whose dehomogenization f(u, 1) is sum(coeffs[k] * u^k)."""
    return BinaryForm(len(coeffs) - 1, coeffs[::-1])


def _order_at_zero(form: BinaryForm) -> int:
    poly, _ = _finite(form.coeffs)
    return next(k for k, c in enumerate(poly) if c)


# Kodaira type of the member over u = 0: (ord a, ord b, ord Delta) there, the
# coefficients of a(u) and b(u) from u^0 up, whether the total space is
# smooth, and on a smooth surface whether some member is cuspidal (None on a
# singular one).  Every other root of Delta is simple, so that member decides.
KODAIRA_FIXTURES = {
    "I1": ((0, 0, 1), (-3, -1, 0, 0, -1), (2, 0, 0, 0, 0, 0, -1), True, False),
    "I2": ((0, 0, 2), (-3, 0, 1, 0, 2), (2, 0, 0, 0, 0, 0, 1), False, None),
    "II": ((1, 1, 2), (0, -1, 0, 0, 1), (0, 2, 0, 0, 0, 0, 1), True, True),
    "III": ((1, 2, 3), (0, -1, 0, 0, 2), (0, 0, 2, 0, 0, 0, 2), False, None),
    "IV": ((2, 2, 4), (0, 0, 2, 0, 1), (0, 0, 2, 0, 0, 0, 1), False, None),
}


def _at(surface: WeierstrassSurface, where: str) -> WeierstrassSurface:
    """The surface itself, or with x and y swapped to move u = 0 to [1:0]."""
    if where == "u=0":
        return surface
    swap = (0, 1, 1, 0)
    return WeierstrassSurface(a=surface.a.substituted(*swap), b=surface.b.substituted(*swap))


def _shares_a_root(surface: WeierstrassSurface) -> bool:
    """Whether a and b vanish together: sympy's resultant, or both at [1:0]."""
    if surface.a.coeffs[0] == 0 and surface.b.coeffs[0] == 0:
        return True
    a, b = _dehomogenized(surface.a, _U), _dehomogenized(surface.b, _U)
    return sympy.resultant(a, b, _U) == 0


def _assert_kodaira(surface: WeierstrassSurface, smooth: bool, cusp: bool | None) -> None:
    assert is_smooth(surface) == smooth
    assert reference_weierstrass.is_smooth(surface) == smooth
    assert _singular_by_jacobian(surface) == (not smooth)
    if smooth:
        assert has_cuspidal_member(surface) == cusp == _shares_a_root(surface)
    else:
        with pytest.raises(ValueError):
            has_cuspidal_member(surface)


class TestKodairaFixtures:
    """Smooth exactly for the fibre types I1 and II, and cuspidal exactly with a
    type-II member, wherever the fibre sits."""

    @pytest.mark.parametrize("where", ["u=0", "[1:0]"])
    @pytest.mark.parametrize("kind", sorted(KODAIRA_FIXTURES))
    def test_fibre_type(self, kind, where):
        orders, a, b, smooth, cusp = KODAIRA_FIXTURES[kind]
        surface = WeierstrassSurface(a=_form_in_u(*a), b=_form_in_u(*b))
        delta = surface.discriminant()
        assert tuple(_order_at_zero(f) for f in (surface.a, surface.b, delta)) == orders
        poly, m_inf = _finite(delta.coeffs)
        assert m_inf == 0
        rest = sympy.Poly([sympy.Rational(c) for c in poly[orders[2] :][::-1]], _U)
        assert sympy.gcd(rest, rest.diff(_U)).degree() == 0
        _assert_kodaira(_at(surface, where), smooth, cusp)

    @pytest.mark.parametrize("where", ["u=0", "[1:0]"])
    @pytest.mark.parametrize(
        "b, smooth, cusp",
        [((1, 0, 0, 0, 0, 0, 1), True, True), ((0, 0, 1, 0, 0, 0, 1), False, None)],
        ids=["b-squarefree", "b-square-factor"],
    )
    def test_zero_a(self, b, smooth, cusp, where):
        # Delta = 27 b^2: a simple root of b is type II, a double root type IV
        surface = WeierstrassSurface(a=ZERO4, b=_form_in_u(*b))
        _assert_kodaira(_at(surface, where), smooth, cusp)


class TestLargeCoefficients:
    """A dense surface with 30-digit rational coefficients, checked against sympy."""

    @staticmethod
    def _form(rng: random.Random, degree: int) -> BinaryForm:
        def digits30() -> int:
            return rng.randint(10**29, 10**30 - 1)

        return BinaryForm(
            degree,
            [Fraction(rng.choice((-1, 1)) * digits30(), digits30()) for _ in range(degree + 1)],
        )

    @staticmethod
    def _expected_facts(surface: WeierstrassSurface) -> tuple[bool, bool]:
        """(smooth, cusp) from sympy's gcd(Delta, Delta') and resultant(a, b)."""
        a, b = _dehomogenized(surface.a, _U), _dehomogenized(surface.b, _U)
        delta = sympy.Poly(4 * a**3 + 27 * b**2, _U)
        # dense forms: no root at [1:0], so the affine polynomials say everything
        assert delta.degree() == 12 and sympy.degree(a, _U) == 4 and sympy.degree(b, _U) == 6
        multiple = sympy.gcd(delta, delta.diff(_U))
        if multiple.degree() == 0:
            smooth = True
        else:
            r = sympy.quo(multiple, sympy.gcd(multiple, multiple.diff(_U)))
            b_poly = sympy.Poly(b, _U)
            smooth = (
                sympy.rem(delta, r**2).is_zero
                and sympy.gcd(sympy.quo(delta, r**2), r).degree() == 0
                and sympy.rem(sympy.Poly(a, _U), r).is_zero
                and sympy.rem(b_poly, r).is_zero
                and sympy.gcd(sympy.quo(b_poly, r), r).degree() == 0
            )
        cusp = sympy.resultant(a, b, _U) == 0
        return smooth, cusp

    def test_dense_surface(self):
        rng = random.Random(30)
        surface = WeierstrassSurface(a=self._form(rng, 4), b=self._form(rng, 6))
        smooth, cusp = self._expected_facts(surface)
        assert is_smooth(surface) == smooth
        assert smooth and has_cuspidal_member(surface) == cusp

    def test_shared_linear_factor_gives_a_cusp(self):
        rng = random.Random(31)
        line = self._form(rng, 1)
        surface = WeierstrassSurface(a=line * self._form(rng, 3), b=line * self._form(rng, 5))
        smooth, cusp = self._expected_facts(surface)
        assert smooth and cusp
        assert is_smooth(surface)
        assert has_cuspidal_member(surface)
