"""Reference oracle: parity of the lattice orthogonal to seven disjoint (-1)-classes.

The complement is computed as a Z-basis by unimodular column reduction, and
its parity read off the diagonal of the Gram matrix.
``dp1alpha.cone._complement_is_even`` decides the same parity from the
coordinates of K - sum(E_i) instead; this is the independent check it is
tested against.
"""

from __future__ import annotations

from dp1alpha.picard import PicardClass, pairing


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
