"""Binary forms and degree-one del Pezzo surfaces in Weierstrass shape.

Surfaces are anticanonically embedded in P(1,1,2,3) as w^2 = z^3 + a(x,y)z
+ b(x,y) with deg a = 4 and deg b = 6.  One pass over G = gcd(Delta, Delta')
decides two facts by Kodaira's classification of the singular members:
the total space is smooth exactly when every singular member is of type I1
or II, and a smooth surface has a cuspidal member exactly when some member
is of type II, that is, when Delta has a multiple root.  The module also
handles the section pairs C / C-tilde cut out by z = q(x,y), w = +-g(x,y),
and keeps `resultant` as a public function.  All computations are exact.
Forms carry rational coefficients, but the root questions run on integers:
`rationals.clear` scales a form to integers, polynomials are kept primitive
(content divided out, positive leading coefficient), gcds come from the
primitive remainder sequence, divisibility is a zero remainder of
fraction-free long division, the discriminant is one integer multiple of
4a^3 + 27b^2, and the resultant is a fraction-free (Bareiss) Sylvester
determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .rationals import clear, format_rational, parse_rational, rational_sqrt


class NotASectionError(ValueError):
    """The proposed (q, g) does not satisfy g^2 = q^3 + a*q + b."""


# --------------------------------------------------------------------------
# Univariate helpers (coefficient tuples, lowest degree first)
#
# The root questions below run on primitive integer polynomials: integer
# coefficients with no common factor and a positive leading coefficient.
# Scaling by a nonzero rational changes no root, so a polynomial over Q is
# replaced by the primitive polynomial proportional to it.
# --------------------------------------------------------------------------


def _trim(p: tuple) -> tuple:
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _deg(p: tuple) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def _primitive(p: tuple[int, ...]) -> tuple[int, ...]:
    """p over its content, with positive leading coefficient; () for zero."""
    p = _trim(p)
    if not p:
        return ()
    content = gcd(*p)
    if p[-1] < 0:
        content = -content
    return p if content == 1 else tuple([c // content for c in p])


def _mul(p: tuple, q: tuple) -> tuple:
    """Product of coefficient tuples, of length len(p) + len(q) - 1."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _rem(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """rem with s*p = t*q + rem for an integer s > 0, some t in Z[x], deg rem < deg q.

    Long division that scales the running remainder only when the leading
    coefficient of q does not divide its top coefficient.  The remainder is
    zero exactly when q divides p over Q.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead, shift = q[-1], len(q) - 1
    rem = list(p)
    for top in range(len(rem) - 1, shift - 1, -1):
        c = rem[top]
        if not c:
            continue
        if c % lead:
            scale = abs(lead) // gcd(c, lead)
            rem = [scale * r for r in rem]
            c *= scale
        factor = c // lead
        base = top - shift
        rem[base:top] = [r - factor * b for r, b in zip(rem[base:top], q)]
    return _trim(tuple(rem[:shift]))


def _gcd(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd by the primitive remainder sequence (Collins 1967)."""
    p, q = _primitive(p), _primitive(q)
    while q:
        p, q = q, _primitive(_rem(p, q))
    return p


def _derivative(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(p))[1:]


def _finite(coeffs: tuple) -> tuple[tuple[int, ...], int]:
    """Primitive F proportional to f(u, 1), and the multiplicity of the root [1:0].

    coeffs are the coefficients (ints or rationals) of a nonzero form, x^degree first.
    """
    m_inf = next(i for i, c in enumerate(coeffs) if c)
    return _primitive(clear(coeffs[m_inf:][::-1])[1]), m_inf


def _determinant(rows: list[list[int]]) -> int:
    """Determinant by Bareiss's fraction-free elimination (every division is exact)."""
    size = len(rows)
    sign, prev = 1, 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        lead, tail = top[k], top[k + 1 :]
        for r in range(k + 1, size):
            row = rows[r]
            c = row[k]
            row[k + 1 :] = [(lead * x - c * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = lead
    return sign * prev


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
            return BinaryForm(self.degree + other.degree, _mul(self.coeffs, other.coeffs))
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
    return BinaryForm(degree, [parse_rational(c) for c in tail.split(",")])


def format_form(form: BinaryForm) -> str:
    return f"{form.degree}:" + ",".join(format_rational(c) for c in form.coeffs)


def resultant(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Sylvester resultant with respect to the formal degrees.

    Zero exactly when the forms share a projective root, the root [1:0]
    included (degenerate leading coefficients shrink the determinant).
    Each form is scaled to integers by its least common denominator; the
    Sylvester determinant is homogeneous of degree deg g in f's row and
    deg f in g's, so those powers of the scales divide back out.
    """
    m, n = f.degree, g.degree
    f_denom, f_int = clear(f.coeffs)
    g_denom, g_int = clear(g.coeffs)
    rows = [[0] * r + list(f_int) + [0] * (n - 1 - r) for r in range(n)]
    rows += [[0] * r + list(g_int) + [0] * (m - 1 - r) for r in range(m)]
    return Fraction(_determinant(rows), f_denom**n * g_denom**m)


def distinct_root_count(f: BinaryForm) -> int:
    """Number of distinct projective roots over the complex numbers.

    F = f(u, 1) has deg F - deg gcd(F, F') distinct roots, and [1:0] adds one.
    """
    if f.is_zero():
        raise ValueError("the zero form has no root count")
    poly, m_inf = _finite(f.coeffs)
    return _deg(poly) - _deg(_gcd(poly, _derivative(poly))) + (1 if m_inf >= 1 else 0)


def _discriminant(a: BinaryForm, b: BinaryForm) -> tuple[tuple[int, ...], int]:
    """Integers D_i and a denominator d > 0 with 4a^3 + 27b^2 = sum D_i/d x^(12-i) y^i.

    With a = A/d_a and b = B/d_b over integer A, B this is
    D = 4 d_b^2 A^3 + 27 d_a^3 B^2 over d = d_a^3 d_b^2: a positive multiple
    of the discriminant, so it has the same roots with the same multiplicities.
    """
    a_denom, a_int = clear(a.coeffs)
    b_denom, b_int = clear(b.coeffs)
    a_cubed = _mul(_mul(a_int, a_int), a_int)
    b_squared = _mul(b_int, b_int)
    s, t = 4 * b_denom**2, 27 * a_denom**3
    return (
        tuple(s * x + t * y for x, y in zip(a_cubed, b_squared)),
        a_denom**3 * b_denom**2,
    )


@dataclass(frozen=True)
class WeierstrassSurface:
    """The surface w^2 = z^3 + a(x,y)z + b(x,y) in P(1,1,2,3)."""

    a: BinaryForm
    b: BinaryForm

    def __post_init__(self) -> None:
        if self.a.degree != 4 or self.b.degree != 6:
            raise ValueError("need deg a = 4 and deg b = 6")
        if not any(_discriminant(self.a, self.b)[0]):
            raise ValueError("discriminant 4a^3 + 27b^2 vanishes identically")

    def discriminant(self) -> BinaryForm:
        coeffs, denom = _discriminant(self.a, self.b)
        return BinaryForm(12, (Fraction(c, denom) for c in coeffs))


def _kodaira(surface: WeierstrassSurface) -> tuple[bool, bool]:
    """(smooth, cuspidal) from one pass over G = gcd(Delta, Delta').

    The total space is smooth exactly when every singular member of the
    pencil has Kodaira type I1 or II (Tate 1975; Miranda 1989).  At a root r
    of Delta, ord_r Delta = 1 is I1, ord_r Delta = 2 is II if a(r) = 0 and
    the node I2 if not, and every type with ord_r Delta >= 3 is singular.
    G is the product of (u - r)^(ord_r Delta - 1) over the multiple roots,
    so smooth means: G is squarefree and [1:0] is at most a double root (no
    root of multiplicity 3 or more), and G | a, with a vanishing at [1:0]
    when that is a double root (a = 0 passes both).  On a smooth surface
    every multiple root of Delta is then a type-II member, so a cuspidal
    member exists exactly when G is not constant or [1:0] is a double root.
    """
    d_poly, d_inf = _finite(_discriminant(surface.a, surface.b)[0])
    g_poly = _gcd(d_poly, _derivative(d_poly))
    if d_inf > 2 or _deg(_gcd(g_poly, _derivative(g_poly))) > 0:
        return False, False
    if not surface.a.is_zero():
        a_poly, a_inf = _finite(surface.a.coeffs)
        if _rem(a_poly, g_poly) or (d_inf == 2 and a_inf == 0):
            return False, False
    return True, _deg(g_poly) > 0 or d_inf == 2


def is_smooth(surface: WeierstrassSurface) -> bool:
    """Whether the total space is smooth: every singular member has type I1 or II."""
    return _kodaira(surface)[0]


def has_cuspidal_member(surface: WeierstrassSurface) -> bool:
    """Whether some member of the anticanonical pencil has a cusp.

    A cusp is a fibre of Kodaira type II, where a and b vanish together (the
    fibre becomes w^2 = z^3) and ord Delta = 2.  On a smooth surface every
    multiple root of Delta is such a fibre, so the flag comes from the pass
    that decides smoothness; for a = 0 identically every root of b is one.
    """
    smooth, cuspidal = _kodaira(surface)
    if not smooth:
        raise ValueError("cusp detection is defined for smooth surfaces only")
    return cuspidal


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
    """A rational form g with g^2 = form, or None; g normalized to positive lead.

    With the first nonzero coefficient of the form at index 2t, g starts at
    index t with g_t = sqrt(c_2t) > 0, and the coefficient c_(t+j) of g^2
    determines g_j once g_t .. g_(j-1) are known.
    """
    if form.is_zero() or form.degree % 2 != 0:
        return None
    c = form.coeffs
    first = next(i for i, x in enumerate(c) if x)
    if first % 2 != 0:
        return None
    t, half = first // 2, form.degree // 2
    lead = rational_sqrt(c[first])
    if lead is None:
        return None
    g = [Fraction(0)] * (half + 1)
    g[t] = lead
    for j in range(t + 1, half + 1):
        acc = sum((g[i] * g[t + j - i] for i in range(t + 1, j)), Fraction(0))
        g[j] = (c[t + j] - acc) / (2 * lead)
    if _mul(g, g) != c:
        return None
    return BinaryForm(half, g)


def find_square_sections(surface: WeierstrassSurface) -> list[SectionPair]:
    """Section pairs with q = 0, present exactly when b is a perfect square."""
    g = _form_square_root(surface.b)
    if g is None:
        return []
    return [section_pair(surface, BinaryForm(2, (0, 0, 0)), g)]
