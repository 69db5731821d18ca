"""Reference oracle: Noether-Cremona reduction as a word of simple reflections.

``dp1alpha.cone._chamber`` sorts each phase in one stable sort and carries
the rows of w^-1 along.  This module runs the same reduction one simple
reflection at a time and records each as its letter in `picard._reflect`,
so the tests can replay the word: H, e1, ..., e8 reflected back through the
reversed word, one letter at a time, must be the rows of w^-1 that the
package carries.
"""

from __future__ import annotations

from dp1alpha.cone import UnclassifiableError
from dp1alpha.picard import _reflect

# The length of the longest element of W(E8), its number of positive roots.
_LONGEST_WORD = 120


def _chamber(row: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Noether-Cremona reduction: (w, w(row)) with w(row) in the fundamental chamber.

    Write row = dH - sum(m_i e_i) (the coordinates hold -m_i).  Sort the m_i
    descending by swaps in e_i - e_(i+1); while d < m1 + m2 + m3, reflect in
    H - e1 - e2 - e3 and sort again.  w lists the simple reflections applied,
    in order.  Each one pairs negatively with the current class, which
    removes one positive root from those the class pairs negatively with, so
    w has at most 120 letters.

    Each sort is an insertion sort: it moves each m_i left past the smaller
    ones before it, one swap at a time.  That is the swap sequence of
    always swapping the first out-of-order pair, without rescanning from e1.
    """
    v = list(row)
    word: list[int] = []
    while True:
        for k in range(2, 9):
            i = k - 1
            while i and v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                word.append(i)
                i -= 1
        if len(word) > _LONGEST_WORD:
            break
        if v[0] + v[1] + v[2] + v[3] >= 0:
            return word, v
        _reflect(v, 0)
        word.append(0)
    raise UnclassifiableError("Noether-Cremona reduction did not reach the chamber")


def walked_back(word: list[int]) -> list[tuple[int, ...]]:
    """H, e1, ..., e8 reflected back through the reversed word, one letter at a time."""
    rows = []
    for k in range(9):
        n = [int(i == k) for i in range(9)]
        for i in reversed(word):
            _reflect(n, i)
        rows.append(tuple(n))
    return rows
