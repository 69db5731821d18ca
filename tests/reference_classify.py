"""Reference oracle: `classify_by_search`, the profile read off lattice searches.

``dp1alpha.cone.classify`` reads the profile of an ample class A off its
W(E8) chamber representative.  This module rebuilds the same profile
without the chamber word, from searches over the 240 (-1)-classes and the
2160 conics, with the same tie-breaks:

- `boundary_split` reads D = K + mu*A as sum(a_E * E) + delta*C: the
  classes that pair negatively with D, the residual, and the face;
- a fibre of the conic with coefficient 0 contributes its component with
  the lower enumeration index;
- `complement_is_even` decides P1xP1 from the coordinates of K - sum(E_i);
- `orthogonal_conic` takes the first conic orthogonal to a seven-class face
  without a conic;
- `extend_to_disjoint_eight` pads a P2 face to eight disjoint classes by a
  greedy scan over orthogonality masks.

`zero_pairings` and `orthogonal_mask` use the packed 64-bit-slot scan of
``dp1alpha.cone``.  ``tests/reference_parity.py`` checks the parity and the
padding against a kernel basis and a backtracking search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import sub

from dp1alpha.cone import (
    _K_ROW,
    F1,
    P1XP1,
    P2,
    PolarizationProfile,
    UnclassifiableError,
    _negative_pairings,
    _packed,
    _packed_columns,
    _pairings,
    _slot_octets,
    mu_threshold,
)
from dp1alpha.picard import (
    PicardClass,
    dot,
    enumerate_conic_classes,
    enumerate_minus_one_classes,
)


@lru_cache(maxsize=None)
def _ones() -> int:
    """1 in each of the 240 packed slots."""
    return sum(1 << (64 * j) for j in range(len(enumerate_minus_one_classes())))


def zero_pairings(w: tuple[int, ...] | list[int]) -> list[int]:
    """The indices j with w.E_j = 0, ascending.

    Slot j equals 2^62 exactly when its bit 62 is set and clears once one
    is subtracted from every slot.
    """
    total = _packed(w)
    if total is None:
        return [j for j, p in enumerate(_pairings(w)) if not p]
    bias = _packed_columns()[1]
    octets = _slot_octets(total & ~(total - _ones()) & bias)
    return list(compress(range(len(octets) // 8), octets[7::8]))


def boundary_split(
    w: tuple[int, ...],
) -> tuple[list[tuple[int, int]], int, tuple[int, ...] | None, set[int]]:
    """Read D = K + mu*A as sum(a_E * E) + delta*C off the lattice, with its face.

    D is given as the integer row w = s*D for some positive scale s, and
    (-1)-classes by their indices in enumeration order.  Distinct
    (-1)-classes meet non-negatively and a conic class C is nef, so in
    D = sum(a_i * E_i) + delta*C with disjoint E_i orthogonal to C, exactly
    the E_i with a_i > 0 pair negatively with D, each to -a_i.  The scan
    takes N = {E : w.E < 0} with coefficients -w.E = s*a_E; the residual
    R = w - sum(-w.E * E) must be 0 or s*delta*C with delta > 0.

    Returns N as (index, s*a_E) pairs in enumeration order, 2*s*delta, the
    row of C or None, and the indices of the minimal face of D: N when
    R = 0, and {E : E.C = 0}, the 14 components of the seven reducible
    fibres, otherwise.
    """
    rows = enumerate_minus_one_classes().rows
    negative = [(j, -p) for j, p in _negative_pairings(w)]
    residual = list(w)
    for j, coeff in negative:
        residual = [r - coeff * x for r, x in zip(residual, rows[j])]
    if not any(residual):
        return negative, 0, None, {j for j, _ in negative}

    twice_delta = -dot(residual, _K_ROW)  # -R.K = 2*s*delta
    if twice_delta <= 0 or any(2 * r % twice_delta for r in residual):
        raise UnclassifiableError(
            f"residual of {','.join(map(str, w))} is not a positive multiple of "
            "an integral class"
        )
    conic = tuple(2 * r // twice_delta for r in residual)
    if dot(conic, conic):
        raise UnclassifiableError("residual class has nonzero square")
    return negative, twice_delta, conic, set(zero_pairings(conic))


@lru_cache(maxsize=None)
def orthogonal_mask(j: int) -> int:
    """Bit k set iff the j-th and k-th (-1)-classes are orthogonal."""
    return sum(1 << k for k in zero_pairings(enumerate_minus_one_classes().rows[j]))


def extend_to_disjoint_eight(chosen: list[int]) -> list[int]:
    """Extend disjoint (-1)-classes, by index, to eight: the lex-smallest extension.

    Each pick is the lowest class orthogonal to all so far that leaves one
    for the next.  W(E8) moves any six or fewer disjoint (-1)-classes to
    e8, e7, ... (it is transitive on the lines of degrees 2 to 6; Manin,
    *Cubic Forms*, sections 23 and 26), so they extend: only the seventh
    pick can be refused, and the scan finds what backtracking in ascending
    order would.  Seven classes with no eighth come back as they are.
    """
    candidates = (1 << len(enumerate_minus_one_classes())) - 1
    for j in chosen:
        candidates &= orthogonal_mask(j)
    extended, pending = list(chosen), candidates
    while pending and len(extended) < 8:
        idx = (pending & -pending).bit_length() - 1
        pending &= pending - 1
        room = candidates & orthogonal_mask(idx)
        if room or len(extended) == 7:
            extended.append(idx)
            candidates = pending = room
    return extended


def complement_is_even(seven: list[int]) -> bool:
    """Parity of the rank-2 lattice L orthogonal to seven disjoint (-1)-classes, by index.

    The E_i span -I_7, which is unimodular, so L is unimodular.  K is
    characteristic (v.v = v.K mod 2 for integral v), and w = K - sum(E_i)
    pairs to K.E_i + 1 = 0 with each E_i, so w lies in L and is
    characteristic for L.  A unimodular lattice is even exactly when its
    characteristic vectors lie in 2L (Milnor-Husemoller), and L is
    primitive, so L is even exactly when every coordinate of w is even.
    The premise is seven distinct indices with (sum E_i)^2 = -7: distinct
    (-1)-classes pair to 0, 1, 2 or 3, so that says they are disjoint.
    """
    all_rows = enumerate_minus_one_classes().rows
    span = [sum(col) for col in zip(*(all_rows[j] for j in seven))]
    if len(set(seven)) != 7 or dot(span, span) != -7:
        raise UnclassifiableError("parity test needs seven disjoint (-1)-classes")
    return all((k - c) % 2 == 0 for k, c in zip(_K_ROW, span))


def orthogonal_conic(seven: list[int]) -> tuple[int, ...]:
    """The row of the first conic class, in enumeration order, orthogonal to the seven."""
    all_rows = enumerate_minus_one_classes().rows
    rows = [all_rows[j] for j in seven]
    for row in enumerate_conic_classes().rows:
        if not any(dot(row, w) for w in rows):
            return row
    raise UnclassifiableError("no conic class orthogonal to the seven generators")


def classify_by_search(A: PicardClass) -> PolarizationProfile:
    """The profile of an ample class A, with `classify`'s fields and tie-breaks.

    The boundary split gives D = K + mu*A = sum(a_E * E) + delta*C.  With a
    conic C, N holds at most one component p or q = C - p of each of the
    seven reducible fibres (D.p + D.q = D.C = 0); a fibre without one adds
    its lex-smaller component, the one with the lower index, with
    coefficient 0.  The type is P1xP1 if the basis has seven classes and
    K - sum(E_i) is even, and then a face without a conic takes the first
    conic orthogonal to it; otherwise F1 with a conic, and P2 without one,
    padded to eight disjoint classes with coefficient 0.  The basis is
    sorted by descending coefficient, then by index.  The profile is not
    validated.
    """
    mu = mu_threshold(A)
    den, row = A.cleared()
    s = mu.denominator * den
    chosen, twice_delta, conic, face = boundary_split(
        tuple(s * k + mu.numerator * x for k, x in zip(_K_ROW, row))
    )
    curves = enumerate_minus_one_classes()
    if conic is not None:
        in_negative = {curves.rows[j] for j, _ in chosen}
        for j in sorted(face):
            p = curves.rows[j]
            q = tuple(map(sub, conic, p))
            if p < q and p not in in_negative and q not in in_negative:
                chosen.append((j, 0))
    selected = [j for j, _ in chosen]
    if (conic is not None or len(selected) == 7) and complement_is_even(selected):
        type_tag = P1XP1
        if conic is None:
            conic = orthogonal_conic(selected)
    elif conic is not None:
        type_tag = F1
    else:  # an odd complement holds an eighth class
        type_tag = P2
        chosen += [(j, 0) for j in extend_to_disjoint_eight(selected)[len(selected) :]]
    chosen.sort(key=lambda item: (-item[1], item[0]))
    return PolarizationProfile(
        type_tag=type_tag,
        mu=mu,
        a=tuple(Fraction(c, s) for _, c in chosen),
        delta=Fraction(twice_delta, 2 * s),
        s_A=Fraction(sum(c for _, c in chosen[1:]), s),
        face_generators=frozenset(curves.members[j] for j in sorted(face)),
        basis=tuple(curves.members[j] for j, _ in chosen),
        conic=None if conic is None else PicardClass(conic),
    )
