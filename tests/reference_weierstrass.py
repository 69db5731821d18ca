"""Reference Weierstrass checks in `Fraction` arithmetic (test oracle).

This is the field-arithmetic version of `dp1alpha.weierstrass`: monic
Euclidean gcds over Q, `Fraction` long division, the discriminant
4a^3 + 27b^2 convolved from the `Fraction` coefficients, and the resultant as a
`Fraction` Gaussian-elimination determinant of the Sylvester matrix.  The
package computes the same answers on primitive integer polynomials;
`tests/test_weierstrass.py::TestAgainstReference` asserts that they agree.
"""

from __future__ import annotations

from fractions import Fraction

from dp1alpha.rationals import rational_sqrt
from dp1alpha.weierstrass import BinaryForm, SectionPair, WeierstrassSurface


def _trim(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _deg(p: tuple[Fraction, ...]) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def _mul(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(tuple(out))


def _divmod(
    p: tuple[Fraction, ...], q: tuple[Fraction, ...]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    inv_lead = 1 / q[-1]
    for top in range(len(rem) - 1, len(q) - 2, -1):
        factor = rem[top] * inv_lead
        if factor:
            quot[top - len(q) + 1] = factor
            for j in range(len(q)):
                rem[top - len(q) + 1 + j] -= factor * q[j]
    return _trim(tuple(quot)), _trim(tuple(rem))


def _gcd(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    while q:
        p, q = q, _divmod(p, q)[1]
    if p:
        inv = 1 / p[-1]
        p = tuple(c * inv for c in p)  # monic normalization
    return p


def _derivative(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return _trim(tuple(Fraction(i) * c for i, c in enumerate(p)))[1:] or ()


def _squarefree(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if _deg(p) < 1:
        return p
    return _divmod(p, _gcd(p, _derivative(p)))[0]


def _finite_part(form: BinaryForm) -> tuple[tuple[Fraction, ...], int]:
    """(F, m) with the nonzero form equal to y^m times the homogenization of F.

    F(u) = f(u, 1) is returned lowest degree first: coeffs[i] multiplies
    x^(d-i), which dehomogenizes to u^(d-i).
    """
    m_inf = next(i for i, c in enumerate(form.coeffs) if c)
    return form.coeffs[m_inf:][::-1], m_inf


def _divides(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> bool:
    """True iff p divides q (the zero polynomial is divisible by anything)."""
    if not q:
        return True
    if not p:
        return False
    return not _divmod(q, p)[1]


def resultant(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Sylvester resultant with respect to the formal degrees."""
    m, n = f.degree, g.degree
    size = m + n
    if size == 0:
        return Fraction(1)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for row in range(n):
        for i, c in enumerate(f.coeffs):
            matrix[row][row + i] = c
    for row in range(m):
        for i, c in enumerate(g.coeffs):
            matrix[n + row][row + i] = c
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            det = -det
        det *= matrix[col][col]
        inv = 1 / matrix[col][col]
        for r in range(col + 1, size):
            factor = matrix[r][col] * inv
            if factor:
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[col])
                ]
    return det


def distinct_root_count(f: BinaryForm) -> int:
    """Number of distinct projective roots over the complex numbers."""
    if f.is_zero():
        raise ValueError("the zero form has no root count")
    poly, m_inf = _finite_part(f)
    return _deg(_squarefree(poly)) + (1 if m_inf >= 1 else 0)


def _convolve(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> list[Fraction]:
    """Product of form coefficient tuples (no trimming: formal degrees add)."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def discriminant(surface: WeierstrassSurface) -> BinaryForm:
    """4a^3 + 27b^2 in `Fraction` arithmetic."""
    a, b = surface.a.coeffs, surface.b.coeffs
    a_cubed, b_squared = _convolve(_convolve(a, a), a), _convolve(b, b)
    return BinaryForm(12, (4 * x + 27 * y for x, y in zip(a_cubed, b_squared)))


def is_smooth(surface: WeierstrassSurface) -> bool:
    """Smoothness of the total space: every multiple root of Delta is mild.

    With R the product of the distinct multiple-root factors: R^2 | Delta
    with Delta/R^2 coprime to R, R | a, R | b and b/R coprime to R.
    """
    delta = discriminant(surface)
    d_poly, d_inf = _finite_part(delta)

    r_poly = _squarefree(_gcd(d_poly, _derivative(d_poly)))
    r_inf = 1 if d_inf >= 2 else 0
    if _deg(r_poly) == 0 and r_inf == 0:
        return True

    r_squared = _mul(r_poly, r_poly)
    if not _divides(r_squared, d_poly) or 2 * r_inf > d_inf:
        return False
    cofactor = _divmod(d_poly, r_squared)[0]
    if _deg(_gcd(cofactor, r_poly)) > 0 or min(d_inf - 2 * r_inf, r_inf) > 0:
        return False

    if not surface.a.is_zero():
        a_poly, a_inf = _finite_part(surface.a)
        if not _divides(r_poly, a_poly) or r_inf > a_inf:
            return False

    if surface.b.is_zero():
        return False
    b_poly, b_inf = _finite_part(surface.b)
    if not _divides(r_poly, b_poly) or r_inf > b_inf:
        return False
    b_cofactor = _divmod(b_poly, r_poly)[0]
    if _deg(_gcd(b_cofactor, r_poly)) > 0 or min(b_inf - r_inf, r_inf) > 0:
        return False
    return True


def has_cuspidal_member(surface: WeierstrassSurface) -> bool:
    if not is_smooth(surface):
        raise ValueError("cusp detection is defined for smooth surfaces only")
    if surface.a.is_zero():
        return True
    return resultant(surface.a, surface.b) == 0


def _form_square_root(form: BinaryForm) -> BinaryForm | None:
    """A rational form g with g^2 = form, or None; g normalized to positive lead."""
    if form.is_zero() or form.degree % 2 != 0:
        return None
    poly, m_inf = _finite_part(form)
    if m_inf % 2 != 0 or _deg(poly) % 2 != 0:
        return None
    half = _deg(poly) // 2
    lead = rational_sqrt(poly[-1])
    if lead is None:
        return None
    root = [Fraction(0)] * (half + 1)
    root[half] = lead
    for k in range(1, half + 1):
        acc = Fraction(0)
        for i in range(half - k + 1, half):
            j = 2 * half - k - i
            if half - k < j <= half:
                acc += root[i] * root[j]
        target = poly[2 * half - k] if 2 * half - k < len(poly) else Fraction(0)
        root[half - k] = (target - acc) / (2 * lead)
    g_poly = _trim(tuple(root))
    if _mul(g_poly, g_poly) != poly:
        return None
    g_degree = form.degree // 2
    coeffs = [Fraction(0)] * (g_degree + 1)
    for power, c in enumerate(g_poly):
        coeffs[g_degree - power] = c
    result = BinaryForm(g_degree, coeffs)
    first = next(c for c in result.coeffs if c != 0)
    if first < 0:
        result = -1 * result
    return result


def find_square_sections(surface: WeierstrassSurface) -> list[SectionPair]:
    """Section pairs with q = 0, present exactly when b is a perfect square."""
    g = _form_square_root(surface.b)
    if g is None or g.degree != 3:
        return []
    # _form_square_root has checked g^2 = b, so (q, g) = (0, g) is a section pair
    zero = BinaryForm(2, (0, 0, 0))
    return [SectionPair(q=zero, g=g, n_intersections=distinct_root_count(g))]
