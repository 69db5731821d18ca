"""Reference oracles: the parity of the lattice orthogonal to seven disjoint
(-1)-classes, and the backtracking search for disjoint (-1)-classes.

The complement is computed as a Z-basis by unimodular column reduction, and
its parity read off the diagonal of the Gram matrix.
``reference_classify.complement_is_even`` decides the same parity from the
coordinates of K - sum(E_i) instead, as ``dp1alpha.cone._validate_profile``
does; this is the independent check it is tested against.

`extend_to_disjoint_eight` extends disjoint (-1)-classes to eight by a
backtracking search in ascending order, with orthogonality from the plain
form.  ``reference_classify.extend_to_disjoint_eight`` finds the same
extension by one greedy scan; a seven-class face is F1 exactly when this
search finds an eighth class (a section).
"""

from __future__ import annotations

from functools import lru_cache

from dp1alpha.picard import PicardClass, enumerate_minus_one_classes, pairing


def _integer_kernel_basis(constraints: list[PicardClass]) -> list[tuple[int, ...]]:
    """Z-basis of { v integral : v . E = 0 for all E in constraints }.

    Column reduction over the integers with unimodular operations, so the
    result is a basis of the full kernel lattice, not a finite-index
    sublattice (that distinction matters for the parity test).
    """
    signs = (1,) + (-1,) * 8
    rows = [
        [int(s * c) for s, c in zip(signs, e.coeffs)] for e in constraints
    ]
    ncols = 9
    mat = [list(row) for row in rows]
    unimod = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for r in range(len(mat)):
            mat[r][dst] += q * mat[r][src]
        for r in range(ncols):
            unimod[r][dst] += q * unimod[r][src]

    def col_swap(i: int, j: int) -> None:
        for r in range(len(mat)):
            mat[r][i], mat[r][j] = mat[r][j], mat[r][i]
        for r in range(ncols):
            unimod[r][i], unimod[r][j] = unimod[r][j], unimod[r][i]

    pivot_col = 0
    for r in range(len(mat)):
        active = [c for c in range(pivot_col, ncols) if mat[r][c] != 0]
        if not active:
            continue
        # Euclidean reduction across the active columns of this row
        while True:
            active = [c for c in range(pivot_col, ncols) if mat[r][c] != 0]
            if len(active) <= 1:
                break
            active.sort(key=lambda c: abs(mat[r][c]))
            small = active[0]
            for other in active[1:]:
                col_addmul(other, small, -(mat[r][other] // mat[r][small]))
        remaining = next(c for c in range(pivot_col, ncols) if mat[r][c] != 0)
        col_swap(pivot_col, remaining)
        pivot_col += 1

    kernel = [
        tuple(unimod[r][c] for r in range(ncols)) for c in range(pivot_col, ncols)
    ]
    for vec in kernel:  # exactness check against the original constraints
        for row in rows:
            if sum(a * b for a, b in zip(row, vec)) != 0:
                raise AssertionError("kernel computation produced a non-solution")
    return kernel


def complement_is_even(seven: list[PicardClass]) -> bool:
    """Parity of the rank-2 lattice orthogonal to seven disjoint (-1)-classes."""
    kernel = _integer_kernel_basis(seven)
    if len(kernel) != 2:
        raise AssertionError(f"orthogonal complement has rank {len(kernel)}, expected 2")
    # a rank-2 form with integral cross terms is even iff both diagonal
    # squares are even
    return all(pairing(PicardClass(v), PicardClass(v)) % 2 == 0 for v in kernel)


@lru_cache(maxsize=None)
def orthogonal_sets() -> tuple[frozenset[int], ...]:
    """For each (-1)-class, by enumeration index, the indices of the classes orthogonal to it."""
    rows = enumerate_minus_one_classes().rows

    def form(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))

    return tuple(frozenset(k for k, v in enumerate(rows) if form(u, v) == 0) for u in rows)


def extend_to_disjoint_eight(chosen: list[int]) -> list[int] | None:
    """chosen plus the lex-smallest ascending list of classes that makes eight disjoint ones.

    A depth-first search over the candidates in ascending order; None when
    no extension exists.
    """
    orthogonal = orthogonal_sets()

    def search(current: list[int], candidates: frozenset[int]) -> list[int] | None:
        if len(current) == 8:
            return current
        for idx in sorted(candidates):
            later = frozenset(k for k in candidates & orthogonal[idx] if k > idx)
            found = search(current + [idx], later)
            if found is not None:
                return found
        return None

    candidates = frozenset(range(len(orthogonal)))
    for j in chosen:
        candidates &= orthogonal[j]
    return search(list(chosen), candidates)
