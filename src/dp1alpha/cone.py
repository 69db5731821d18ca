"""Exact cone computations in the Picard lattice of a degree-one del Pezzo surface.

Ampleness and pseudo-effectivity tests, the threshold mu at which K + t*A
meets the effective-cone boundary, and the classification of an ample class
into the P2 / F1 / P1xP1 shape with its coefficient data (a_i, delta, s_A)
and the generators of the boundary face.  Everything runs in exact rational
arithmetic.

The effective cone is spanned by the 240 (-1)-classes; its dual, the nef
cone, has the W(E8) orbits of H and H - e1 as extremal rays.  Noether-Cremona
reduction (`_chamber`) moves a class d*H - sum(m_i e_i) into the
fundamental chamber of W(E8) (m_i descending, d >= m1 + m2 + m3), where it
pairs least with H and H - e1 among their orbits, and with e8 among the
240 (-1)-classes, which are one orbit.  It sorts the m_i and applies the
reflection in H - e1 - e2 - e3 of `picard._reflect`, and carries the rows
of w^-1(H), w^-1(e1), ..., w^-1(e8) along.  Ampleness, pseudo-effectivity
and mu are read off the chamber representative.  `classify` reads the
whole profile off the same step, `_threshold`, which reduces once: mu is
certified by the nef ray among the rows of w^-1, and K + mu*A' for
A' = w(A) has a closed form over e1..e8 and the fibres {e_i, H - e1 - e_i}
of the conic H - e1, which those rows carry back.
`_validate_profile` certifies the profile without the chamber: type,
basis, conic, boundary face and recomposition.

The nef-ray check scans the 240 pairings N.E, one 240x9 integer matrix
times an integral vector w.  `_packed` does that product in nine
big-integer multiply-adds: column k packs the k-th coordinates of the 240
classes, signed by the form, into 64-bit slots, and a bias of 2^62 per
slot keeps each slot non-negative.  Slot j then holds 2^62 + w.E_j, so one
mask test on bit 62 of every slot says whether any pairing is negative,
and only the negative slots are unpacked.  The slots stay exact while
6|w_0| + 3*sum(|w_i|) < 2^62; a wider w takes the plain scan of
`_pairings`.
`membership_certificate` keeps the exact LP for callers that want a primal
decomposition or a Farkas witness; `linprog` is imported on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm
from operator import add, sub
from typing import TYPE_CHECKING

from .picard import (
    PicardClass,
    _reflect,
    canonical_class,
    dot,
    enumerate_minus_one_classes,
    format_class,
)

if TYPE_CHECKING:
    from .linprog import LPProblem, LPResult

P2 = "P2"
F1 = "F1"
P1XP1 = "P1xP1"


class UnclassifiableError(RuntimeError):
    """No valid decomposition of K + mu*A was found (internal-consistency failure)."""


@dataclass(frozen=True)
class PolarizationProfile:
    """Shape data of an ample class A.

    ``K + mu*A = sum(a[i] * basis[i]) + delta * conic`` holds exactly, with
    the basis classes pairwise orthogonal (and orthogonal to the conic when
    one is present).  P2 has delta = 0 and no conic.  ``a`` is sorted
    descending, has length 8 for P2 and 7 otherwise, and ``s_A`` is the sum
    of all but the leading coefficient.
    """

    type_tag: str
    mu: Fraction
    a: tuple[Fraction, ...]
    delta: Fraction
    s_A: Fraction
    face_generators: frozenset[PicardClass]
    basis: tuple[PicardClass, ...]
    conic: PicardClass | None


_K_ROW = canonical_class().cleared()[1]


@lru_cache(maxsize=None)
def _generator_rows() -> tuple[tuple[int, ...], ...]:
    """The 9x240 matrix whose columns are the (-1)-classes, in enumeration order."""
    return tuple(zip(*enumerate_minus_one_classes().rows))


def _pairings(w: tuple[int, ...]):
    """w.E for the 240 (-1)-classes E in enumeration order, for integral w."""
    return (dot(w, row) for row in enumerate_minus_one_classes().rows)


# The packed scan gives (-1)-class j the 64-bit slot at bit 64*j of one
# integer, holding 2^62 + w.E_j.  A (-1)-class dH - sum(m_i e_i) has
# |d| <= 6 and |m_i| <= 3, so |w.E_j| <= 6|w_0| + 3*sum(|w_i|); below 2^62
# that keeps every slot in [1, 2^63), so slots neither borrow nor carry.
_BIAS = 1 << 62
# Maps a slot's top octet to 1 when the slot is below its bias (octet < 0x40).
_BELOW_BIAS = b"\x01" * 0x40 + bytes(0xC0)


@lru_cache(maxsize=None)
def _packed_columns() -> tuple[tuple[int, ...], int]:
    """The nine packed columns of the (-1)-classes, one per slot, and the bias word.

    Column k is sum(s_k * E_j[k] * 2^(64j)) with s_k the sign of the form,
    so sum(w_k * column_k) packs the 240 pairings w.E_j.
    """
    rows = enumerate_minus_one_classes().rows
    columns = tuple(
        sum(sign * row[k] << (64 * j) for j, row in enumerate(rows))
        for k, sign in enumerate((1,) + (-1,) * 8)
    )
    return columns, sum(_BIAS << (64 * j) for j in range(len(rows)))


def _packed(w: tuple[int, ...] | list[int]) -> int | None:
    """sum((2^62 + w.E_j) * 2^(64j)) over the (-1)-classes, or None if a slot could overflow."""
    if 6 * abs(w[0]) + 3 * sum(map(abs, w[1:])) >= _BIAS:
        return None
    columns, total = _packed_columns()
    for x, column in zip(w, columns):
        if x:
            total += x * column
    return total


def _slot_octets(total: int) -> bytes:
    """The slots as 8 little-endian octets each: octets[8j + 7] holds bits 56-63 of slot j."""
    return total.to_bytes(8 * len(enumerate_minus_one_classes()), "little")


def _negative_pairings(w: tuple[int, ...] | list[int]) -> list[tuple[int, int]]:
    """(j, w.E_j) for the (-1)-classes E_j with w.E_j < 0, in enumeration order.

    A slot is below its bias exactly when bit 62 is clear, so one mask test
    answers "none"; only the negative slots are unpacked.  Integral w beyond
    the slot bound takes the plain scan.
    """
    total = _packed(w)
    if total is None:
        return [(j, p) for j, p in enumerate(_pairings(w)) if p < 0]
    bias = _packed_columns()[1]
    if total & bias == bias:
        return []
    octets = _slot_octets(total)
    return [
        (j, int.from_bytes(octets[8 * j : 8 * j + 8], "little") - _BIAS)
        for j in compress(range(len(octets) // 8), octets[7::8].translate(_BELOW_BIAS))
    ]


def solve(problem: LPProblem) -> LPResult:
    """`linprog.solve`, bound here and imported on first call.

    Only `membership_certificate` solves an LP, so ampleness, mu and
    `classify` never load `linprog`.
    """
    from . import linprog

    return linprog.solve(problem)


def membership_certificate(v: PicardClass) -> LPResult:
    """Solve v = sum(c_E * E) with c_E >= 0 over the 240 (-1)-classes.

    An optimal result carries the coefficients (in enumeration order); an
    infeasible one carries an exact Farkas certificate y with y.E <= 0 for
    every generator and y.v > 0.
    """
    from .linprog import LPProblem

    rows = _generator_rows()
    n = len(rows[0])
    problem = LPProblem(
        objective=(Fraction(0),) * n,
        rows=rows,
        rhs=tuple(v.coeffs),
        nonneg=(True,) * n,
    )
    return solve(problem)


# The number of positive roots of E8, the length of the longest element of W(E8).
_POSITIVE_ROOTS = 120
_IDENTITY = tuple(tuple(int(i == k) for i in range(9)) for k in range(9))


def _chamber(row: tuple[int, ...]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Noether-Cremona reduction: (w(row), [w^-1(H), w^-1(e1), ..., w^-1(e8)]) as rows.

    Write row = dH - sum(m_i e_i) (the coordinates hold -m_i).  Sort the m_i
    descending; while d < m1 + m2 + m3, reflect in r = H - e1 - e2 - e3 and
    sort again.  Then w(row) is in the fundamental chamber.  The rows of
    w^-1 start from the identity.  A sort is stable, so it permutes by the
    swaps in e_i - e_(i+1) that put the m_i in order, ties left in place, and
    it permutes the rows of e1..e8 alike.  The reflection in r moves H, e1,
    e2 and e3, which pair to 1 with r, to themselves plus r, so it adds
    w^-1(r) to their rows.  Each simple reflection applied pairs negatively
    with the current class, which removes one of the 120 positive roots from
    those the class pairs negatively with, so w has at most 120 of them.  A
    reflection in r leaves the class pairing positively with r, so a swap
    comes before the next one and at most 60 are reflections in r; a class
    still outside the chamber after 120 of those raises UnclassifiableError.
    """
    v, rows = list(row), list(_IDENTITY)
    for _ in range(_POSITIVE_ROOTS):
        order = sorted(range(1, 9), key=v.__getitem__)
        v[1:] = [v[i] for i in order]
        rows[1:] = [rows[i] for i in order]
        if v[0] + v[1] + v[2] + v[3] >= 0:
            return v, rows
        _reflect(v, 0)
        root = [h - a - b - c for h, a, b, c in zip(*rows[:4])]
        rows[:4] = [tuple(map(add, image, root)) for image in rows[:4]]
    raise UnclassifiableError("Noether-Cremona reduction did not reach the chamber")


def is_pseudoeffective(v: PicardClass) -> bool:
    """True iff v is a nonnegative rational combination of (-1)-classes.

    The effective cone is dual to the nef cone, whose extremal rays are the
    W(E8) orbits of H and H - e1.  A chamber class pairs least with the
    dominant member of each orbit, so v is effective iff its chamber
    representative d'H - sum(m'_i e_i) has d' >= 0 and d' - m'_1 >= 0.
    """
    (d, minus_m1, *_), _ = _chamber(v.cleared()[1])
    return d >= 0 and d + minus_m1 >= 0


def is_ample(v: PicardClass) -> bool:
    """True iff v pairs positively with all 240 (-1)-classes, read off its chamber.

    On a degree-one del Pezzo surface the (-1)-classes span the cone of
    curves, so this is ampleness; v.v > 0 and -K.v > 0 follow.  W(E8)
    permutes the 240 classes, which form the orbit of e8.  e8 pairs
    non-negatively with every simple root, so each w(e8) - e8 is a
    non-negative sum of simple roots, and a chamber class, which pairs
    non-negatively with them too, pairs least with e8 among the 240.  So v
    is ample iff its chamber representative d'H - sum(m'_i e_i) (see
    `_chamber`) has m'_8 > 0: the chamber row's last coordinate is -m'_8.
    """
    return _chamber(v.cleared()[1])[0][-1] < 0


def _threshold(A: PicardClass) -> tuple[Fraction, list[int], list[tuple[int, ...]], bool]:
    """(mu, w(row), the rows of w^-1, P2 branch) for A = row/denom, from `_chamber`.

    With w(row) = d'H - sum(m'_i e_i) in the fundamental chamber (see
    `_chamber`), w(A) pairs least with H and H - e1 among their W(E8)
    orbits, the nef cone's extremal rays, and K.H = -3, K.(H - e1) = -2.
    So mu = max(3*denom/d', 2*denom/(d' - m'_1)), attained by N = w^-1(H)
    when d' >= 3m'_1 (the P2 branch, which takes the tie) and by
    N = w^-1(H - e1) otherwise.  N.E >= 0 on the 240 (-1)-classes with
    (K + mu*A).N = 0 is checked in integers: N is nef, so K + t*A is not
    effective for t < mu.  A class with m'_8 <= 0 is refused with
    ValueError: that is `is_ample`'s test, read off the same reduction.
    """
    denom, row = A.cleared()
    chamber, images = _chamber(row)
    if chamber[-1] >= 0:
        raise ValueError("mu_threshold requires an ample class")
    d, minus_m1 = chamber[:2]
    p2 = d + 3 * minus_m1 >= 0
    mu = Fraction(3 * denom, d) if p2 else Fraction(2 * denom, d + minus_m1)
    ray = images[0] if p2 else tuple(map(sub, images[0], images[1]))
    if _negative_pairings(ray) or (
        mu.denominator * denom * dot(_K_ROW, ray) + mu.numerator * dot(row, ray)
    ):
        raise UnclassifiableError(f"nef-ray certificate failed for A = {format_class(A)}")
    return mu, chamber, images, p2


def mu_threshold(A: PicardClass) -> Fraction:
    """Least t > 0 with K + t*A effective, certified by a nef ray; see `_threshold`."""
    return _threshold(A)[0]


def _integral_row(e: PicardClass) -> tuple[int, ...]:
    """The coordinates of e as ints; UnclassifiableError unless e is integral."""
    denom, row = e.cleared()
    if denom != 1:
        raise UnclassifiableError(f"decomposition class {format_class(e)} is not integral")
    return row


def _validate_profile(profile: PolarizationProfile, A: PicardClass) -> None:
    """Certify the profile of A; raise UnclassifiableError on the first fact that fails.

    a is non-empty, descending, non-negative with a_0 < 1, delta >= 0 (0
    without a conic), and has one entry per basis class: eight for P2,
    which has no conic, and seven for F1 and P1xP1, which have one.  The
    basis holds distinct (-1)-classes E_i (E_i^2 = K.E_i = -1) with
    (sum E_i)^2 = -k for k of them: distinct (-1)-classes pair to 0, 1, 2
    or 3, so they are pairwise orthogonal.  The type is P1xP1 exactly when
    K - sum(E_i) is even, read off this sum and not off the chamber: it is
    characteristic for the unimodular lattice orthogonal to the seven E_i,
    which is even exactly when K - sum(E_i) lies in twice that lattice.
    A conic C has C^2 = 0 and K.C = -2, so it is one of the 2160 conics,
    which are nef, and C.sum(E_i) = 0 puts every E_i on its face
    {E : E.C = 0}.  Finally K + mu*A = sum(a_i * E_i) + delta*C holds in
    integers over one common denominator of a, delta, mu and A.

    The face rule is keyed on delta, not on the conic: a P1xP1 profile read
    off a seven-class face carries a conic with delta = 0.  With delta > 0
    the face is {E : E.C = 0}: fourteen distinct (-1)-classes, whose rows
    are among the 240, with C.sum(E) = 0.  C is nef, so each E.C >= 0 and a
    zero sum makes every term 0; a conic is orthogonal to exactly fourteen
    (-1)-classes, the components of its seven reducible fibres, so these
    are all of them.  With delta = 0 the face is N, the basis classes with
    a > 0: in a decomposition over disjoint (-1)-classes exactly those pair
    negatively with K + mu*A, and L = -K + sum(N), nef and orthogonal to
    K + mu*A, pairs to at least 1 with every other (-1)-class.
    """
    a = profile.a
    if not a or not a[0] < 1:
        raise UnclassifiableError(f"leading coefficient {a[0] if a else '?'} not < 1")
    for left, right in zip(a, a[1:]):
        if left < right:
            raise UnclassifiableError("coefficients not sorted")
    if a[-1] < 0 or profile.delta < 0:
        raise UnclassifiableError("negative coefficient in decomposition")
    if len(profile.basis) != len(a):
        raise UnclassifiableError("basis and coefficients differ in length")
    tag = profile.type_tag
    if tag not in (P2, F1, P1XP1) or len(a) != (8 if tag == P2 else 7):
        raise UnclassifiableError(f"type {tag} with {len(a)} basis classes")
    if (profile.conic is None) is not (tag == P2):
        raise UnclassifiableError(f"type {tag} {'with' if tag == P2 else 'without'} a conic")
    basis = []
    for e in profile.basis:
        e_row = _integral_row(e)
        if not dot(e_row, e_row) == -1 == dot(_K_ROW, e_row):
            raise UnclassifiableError(f"basis class {format_class(e)} is not a (-1)-class")
        basis.append(e_row)
    if len(set(basis)) != len(basis):
        raise UnclassifiableError("basis classes repeat")
    span = [sum(column) for column in zip(*basis)]
    if dot(span, span) != -len(basis):
        raise UnclassifiableError("basis classes are not pairwise orthogonal")
    terms = list(zip(a, basis))
    if profile.conic is not None:
        even = all((k - c) % 2 == 0 for k, c in zip(_K_ROW, span))
        if even is not (tag == P1XP1):
            raise UnclassifiableError(f"type {tag} with an {'even' if even else 'odd'} complement")
        conic = _integral_row(profile.conic)
        if dot(conic, conic) or dot(_K_ROW, conic) != -2:
            raise UnclassifiableError(f"{format_class(profile.conic)} is not a conic class")
        if dot(conic, span):
            raise UnclassifiableError("conic class is not orthogonal to the basis")
        terms.append((profile.delta, conic))
    elif profile.delta:
        raise UnclassifiableError("nonzero delta without a conic")
    face = profile.face_generators
    if profile.delta:
        rows = [_integral_row(e) for e in face]
        if (
            len(rows) != 14
            or not enumerate_minus_one_classes().row_set.issuperset(rows)
            or dot(conic, [sum(column) for column in zip(*rows)])
        ):
            raise UnclassifiableError("face is not the 14 (-1)-classes orthogonal to the conic")
    elif face != {e for c, e in zip(a, profile.basis) if c}:
        raise UnclassifiableError("face is not the basis classes with a > 0")
    mu, (denom, row) = profile.mu, A.cleared()
    den = denom * mu.denominator  # mu*A = num(mu)*row/den
    scale = lcm(den, *(c.denominator for c, _ in terms))
    step = scale // den * mu.numerator
    total = [scale * k + step * x for k, x in zip(_K_ROW, row)]
    for c, e_row in terms:
        if c:
            m = scale // c.denominator * c.numerator
            total = [t - m * x for t, x in zip(total, e_row)]
    if any(total):
        raise UnclassifiableError("recomposition identity failed")


@lru_cache(maxsize=None)
def _minus_one_index() -> dict[tuple[int, ...], int]:
    """The enumeration index of each (-1)-class row."""
    return {row: j for j, row in enumerate(enumerate_minus_one_classes().rows)}


def _index(row: tuple[int, ...]) -> int:
    """The enumeration index of a (-1)-class row; UnclassifiableError for any other row."""
    j = _minus_one_index().get(row)
    if j is None:
        raise UnclassifiableError(f"mapped row {','.join(map(str, row))} is not a (-1)-class")
    return j


def classify(A: PicardClass) -> PolarizationProfile:
    """Classify an ample class as P2, F1, or P1xP1 with its coefficient data.

    One `_threshold` call gives mu, the chamber representative
    A' = w(row) = d'H - sum(m'_i e_i) of A = row/den, the images of H, e1,
    ..., e8 under w^-1 and the branch below: K + mu*A' decomposes in closed
    form over e1..e8 and the conic H - e1, and the images carry it back.

    - P2 when d' >= 3m'_1, where mu*A' = 3A'/d': K + mu*A' = sum(a_i e_i)
      with a_i = 1 - 3m'_i/d' on w^-1(e_i).  The face is the members with
      a > 0.
    - Otherwise mu*A' = 2A'/s with s = d' - m'_1.  The fibres of H - e1 are
      {e_i, H - e1 - e_i} for i = 2..8, and c_i = (s - 2m'_i)/s goes on e_i
      when positive and, as |c_i|, on H - e1 - e_i when negative; a fibre
      with c_i = 0 contributes its component with the lower enumeration
      index.  Only c_2 can be negative, since d' >= m'_1 + m'_2 + m'_3, and
      delta = (2d' - 3s + min(0, s - 2m'_2))/s.  With delta > 0 the conic is
      w^-1(H - e1) and the face its 14 fibre components.  delta = 0 means
      m'_1 = m'_2: H - e1 and H - e2 are then the only conics orthogonal to
      the seven members, the conic is the lower row of their images, and
      the face is the members with a > 0.  The type is P1xP1 when
      K - sum(E_i) is even, that is when an odd number of fibres contribute
      H - e1 - e_i: in the chamber K - sum(E_i) has e1-coefficient 1 + that
      number and even coefficients on e2..e8.  Otherwise it is F1.

    The basis is sorted by descending coefficient, then by enumeration
    index.  (-1)-classes are looked up by row among the 240, so only the
    conic is built as a new class.  `_validate_profile` certifies the
    profile, type included, without the chamber.
    """
    try:
        mu, row, images, p2 = _threshold(A)
    except ValueError:
        raise ValueError("classify requires an ample class") from None
    d, conic = row[0], None
    if p2:
        type_tag, scale, delta = P2, d, 0
        chosen = [(_index(images[i]), d + 3 * row[i]) for i in range(1, 9)]
        face = [j for j, c in chosen if c]
    else:
        scale = d + row[1]
        conic = tuple(map(sub, images[0], images[1]))
        chosen, face, odd = [], [], False
        for i in range(2, 9):
            c = scale + 2 * row[i]
            p, q = _index(images[i]), _index(tuple(map(sub, conic, images[i])))
            face += (p, q)
            if c < 0 or (not c and q < p):
                chosen.append((q, -c))
                odd = not odd
            else:
                chosen.append((p, c))
        type_tag = P1XP1 if odd else F1
        delta = 2 * d - 3 * scale + min(0, scale + 2 * row[2])
        if not delta:
            conic = min(conic, tuple(map(sub, images[0], images[2])))
            face = [j for j, c in chosen if c]
    chosen.sort(key=lambda item: (-item[1], item[0]))
    curves = enumerate_minus_one_classes().members
    profile = PolarizationProfile(
        type_tag=type_tag,
        mu=mu,
        a=tuple(Fraction(c, scale) for _, c in chosen),
        delta=Fraction(delta, scale),
        s_A=Fraction(sum(c for _, c in chosen[1:]), scale),
        face_generators=frozenset(curves[j] for j in sorted(face)),
        basis=tuple(curves[j] for j, _ in chosen),
        conic=None if conic is None else PicardClass(conic),
    )
    _validate_profile(profile, A)
    return profile
