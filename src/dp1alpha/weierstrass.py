"""Binary forms and degree-one del Pezzo surfaces in Weierstrass shape.

Surfaces are anticanonically embedded in P(1,1,2,3) as w^2 = z^3 + a(x,y)z
+ b(x,y) with deg a = 4 and deg b = 6.  This module decides smoothness of
the total space, detects cuspidal members of the anticanonical pencil, and
handles the section pairs C / C-tilde cut out by z = q(x,y), w = +-g(x,y).
All computations are exact: gcds, exact division, resultants, and degree
arithmetic over the rationals, never numerical root finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rationals import format_rational, parse_rational, rational_sqrt


class NotASectionError(Exception):
    """The proposed (q, g) does not satisfy g^2 = q^3 + a*q + b."""


# --------------------------------------------------------------------------
# Univariate helpers (coefficient tuples, lowest degree first)
# --------------------------------------------------------------------------


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


def _divides(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> bool:
    """True iff p divides q (the zero polynomial is divisible by anything)."""
    if not q:
        return True
    if not p:
        return False
    return not _divmod(q, p)[1]


# --------------------------------------------------------------------------
# Binary forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form sum(coeffs[i] * x^(degree-i) * y^i) of fixed formal degree."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, degree: int, coeffs: Iterable[Fraction | int]):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError(
                f"degree-{degree} form needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def finite_part(self) -> tuple[tuple[Fraction, ...], int]:
        """Dehomogenization (F(u) = f(u, 1), multiplicity of the root [1:0]).

        The form is y^m * (homogenization of F); F is returned lowest degree
        first.  Must not be called on the zero form.
        """
        if self.is_zero():
            raise ValueError("the zero form has no root structure")
        m_inf = next(i for i, c in enumerate(self.coeffs) if c != 0)
        # coeffs[i] multiplies x^(d-i); as a polynomial in u that is u^(d-i)
        top = self.degree - m_inf
        poly = [Fraction(0)] * (top + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                poly[self.degree - i] = c
        return _trim(tuple(poly)), m_inf

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return BinaryForm(
            self.degree, (a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot subtract forms of different degrees")
        return BinaryForm(
            self.degree, (a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            out = [Fraction(0)] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return BinaryForm(self.degree + other.degree, out)
        scalar = Fraction(other)
        return BinaryForm(self.degree, (scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BinaryForm":
        if exponent < 0:
            raise ValueError("negative powers of forms are not forms")
        result = BinaryForm(0, (Fraction(1),))
        for _ in range(exponent):
            result = result * self
        return result

    def substituted(
        self, m00: Fraction, m01: Fraction, m10: Fraction, m11: Fraction
    ) -> "BinaryForm":
        """The form f(m00*x + m01*y, m10*x + m11*y), same formal degree."""
        x_image = BinaryForm(1, (m00, m01))
        y_image = BinaryForm(1, (m10, m11))
        total = BinaryForm(self.degree, [0] * (self.degree + 1))
        for i, c in enumerate(self.coeffs):
            if c:
                total = total + c * (x_image ** (self.degree - i)) * (y_image**i)
        return total

    def __repr__(self) -> str:
        return f"BinaryForm({format_form(self)!r})"


def parse_form(text: str) -> BinaryForm:
    """Parse the text format `deg:c0,c1,...,cd`."""
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise ValueError("form syntax is 'deg:c0,c1,...,cd'")
    try:
        degree = int(head)
    except ValueError as exc:
        raise ValueError(f"bad form degree {head!r}") from exc
    coeffs = [parse_rational(c) for c in tail.split(",")]
    if len(coeffs) != degree + 1:
        raise ValueError(
            f"degree-{degree} form needs {degree + 1} coefficients, got {len(coeffs)}"
        )
    return BinaryForm(degree, coeffs)


def format_form(form: BinaryForm) -> str:
    return f"{form.degree}:" + ",".join(format_rational(c) for c in form.coeffs)


def resultant(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Sylvester resultant with respect to the formal degrees.

    Zero exactly when the forms share a projective root, the root [1:0]
    included (degenerate leading coefficients shrink the determinant).
    """
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
    # exact determinant by fraction Gaussian elimination
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
    poly, m_inf = f.finite_part()
    return _deg(_squarefree(poly)) + (1 if m_inf >= 1 else 0)


@dataclass(frozen=True)
class WeierstrassSurface:
    """The surface w^2 = z^3 + a(x,y)z + b(x,y) in P(1,1,2,3)."""

    a: BinaryForm
    b: BinaryForm

    def __post_init__(self) -> None:
        if self.a.degree != 4 or self.b.degree != 6:
            raise ValueError("need deg a = 4 and deg b = 6")
        if self.discriminant().is_zero():
            raise ValueError("discriminant 4a^3 + 27b^2 vanishes identically")

    def discriminant(self) -> BinaryForm:
        return 4 * self.a**3 + 27 * self.b**2


def is_smooth(surface: WeierstrassSurface) -> bool:
    """Smoothness of the total space.

    Every multiple root of the discriminant must be mild: writing R for the
    product of the distinct multiple-root factors, require ord(Delta) = 2,
    ord(b) = 1, and ord(a) >= 1 along R -- as form divisibilities:
    R^2 | Delta with Delta/R^2 coprime to R, R | a, R | b, b/R coprime to R.
    """
    delta = surface.discriminant()
    d_poly, d_inf = delta.finite_part()

    # distinct multiple-root factors of Delta: finite ones from gcd(F, F'),
    # plus the root [1:0] exactly when its multiplicity is >= 2
    r_poly = _squarefree(_gcd(d_poly, _derivative(d_poly)))
    r_inf = 1 if d_inf >= 2 else 0
    if _deg(r_poly) == 0 and r_inf == 0:
        return True  # squarefree discriminant: only nodal members

    r_squared = _mul(r_poly, r_poly)
    if not _divides(r_squared, d_poly) or 2 * r_inf > d_inf:
        return False
    cofactor = _divmod(d_poly, r_squared)[0]
    if _deg(_gcd(cofactor, r_poly)) > 0 or min(d_inf - 2 * r_inf, r_inf) > 0:
        return False

    def form_data(form: BinaryForm) -> tuple[tuple[Fraction, ...], int] | None:
        return None if form.is_zero() else form.finite_part()

    a_data = form_data(surface.a)
    if a_data is not None:
        a_poly, a_inf = a_data
        if not _divides(r_poly, a_poly) or r_inf > a_inf:
            return False
    # a identically zero is divisible by anything

    b_data = form_data(surface.b)
    if b_data is None:
        return False  # b = 0 forces ord(b) = infinity at every root of R
    b_poly, b_inf = b_data
    if not _divides(r_poly, b_poly) or r_inf > b_inf:
        return False
    b_cofactor = _divmod(b_poly, r_poly)[0]
    if _deg(_gcd(b_cofactor, r_poly)) > 0 or min(b_inf - r_inf, r_inf) > 0:
        return False
    return True


def has_cuspidal_member(surface: WeierstrassSurface) -> bool:
    """Whether some member of the anticanonical pencil has a cusp.

    A member degenerates to a cusp where a and b vanish together (the fiber
    becomes w^2 = z^3).  For a = 0 identically, every root of b is such a
    point, so the answer is always True there.
    """
    if not is_smooth(surface):
        raise ValueError("cusp detection is defined for smooth surfaces only")
    if surface.a.is_zero():
        return True
    return resultant(surface.a, surface.b) == 0


def alpha_of_surface(surface: WeierstrassSurface) -> Fraction:
    """The global alpha-invariant of a smooth surface: 1, or 5/6 with a cusp."""
    return Fraction(5, 6) if has_cuspidal_member(surface) else Fraction(1)


@dataclass(frozen=True)
class SectionPair:
    """Curves C: {z = q, w = g} and C-tilde: {z = q, w = -g}; they meet where g = 0."""

    q: BinaryForm
    g: BinaryForm
    n_intersections: int


def section_pair(
    surface: WeierstrassSurface, q: BinaryForm, g: BinaryForm
) -> SectionPair:
    """Validate g^2 = q^3 + a*q + b and count the distinct intersections."""
    if not (q.degree == 2 or q.is_zero()):
        raise ValueError("q must have degree 2 or vanish identically")
    if g.degree != 3 or g.is_zero():
        raise ValueError("g must be a nonzero form of degree 3")
    if q.degree != 2:  # a zero q of any formal degree is accepted
        q = BinaryForm(2, (0, 0, 0))
    rhs = q**3 + surface.a * q + surface.b
    if g * g != rhs:
        raise NotASectionError("g^2 differs from q^3 + a*q + b")
    return SectionPair(q=q, g=g, n_intersections=distinct_root_count(g))


def _form_square_root(form: BinaryForm) -> BinaryForm | None:
    """A rational form g with g^2 = form, or None; g normalized to positive lead."""
    if form.is_zero() or form.degree % 2 != 0:
        return None
    poly, m_inf = form.finite_part()
    if m_inf % 2 != 0 or _deg(poly) % 2 != 0:
        return None
    half = _deg(poly) // 2
    lead = rational_sqrt(poly[-1])
    if lead is None:
        return None
    root = [Fraction(0)] * (half + 1)
    root[half] = lead
    # peel coefficients from the top: the x^(2*half - k) coefficient of g^2
    # determines root[half - k] once the higher ones are known
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
    for power, c in enumerate(g_poly):  # coefficient of u^power
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
    return [section_pair(surface, BinaryForm(2, (0, 0, 0)), g)]
