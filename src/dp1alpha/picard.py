"""Rank-9 Picard lattice of a degree-one del Pezzo surface.

Classes are written in the basis (H, e1, ..., e8) with intersection form
diag(1, -1, ..., -1); the canonical class is K = -3H + e1 + ... + e8, K^2 = 1.
The Weyl group W(E8) of K's orthogonal complement acts through the simple
reflections of `_reflect`, which `cone` uses for its chamber reduction.
The 240 (-1)-classes and the 2160 conic classes are the W(E8) orbits of
e8 and of H - e1, built as closures under those reflections.
Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .rationals import clear, format_rational, parse_rational

RANK = 9


class PicardClass:
    """An element of Pic(S) x Q as a 9-tuple of rational coordinates."""

    __slots__ = ("coeffs", "_hash", "_cleared")

    def __init__(self, coeffs: Iterable[Fraction | int]):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != RANK:
            raise ValueError(f"expected {RANK} coordinates, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("PicardClass is immutable")

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "PicardClass") -> "PicardClass":
        return PicardClass(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "PicardClass") -> "PicardClass":
        return PicardClass(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "PicardClass":
        return PicardClass(-a for a in self.coeffs)

    def __mul__(self, scalar) -> "PicardClass":
        scalar = Fraction(scalar)
        return PicardClass(scalar * a for a in self.coeffs)

    __rmul__ = __mul__

    @property
    def degree(self) -> Fraction:
        """The H coordinate."""
        return self.coeffs[0]

    # -- plumbing ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, PicardClass) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # hash(coeffs), computed once: classify hashes the same cached
        # (-1)-class members into every face set it builds
        try:
            return self._hash
        except AttributeError:
            value = hash(self.coeffs)
            object.__setattr__(self, "_hash", value)
            return value

    def cleared(self) -> tuple[int, tuple[int, ...]]:
        """`rationals.clear(coeffs)`: the least common denominator and the integer row.

        Computed once, like the hash: `cone._validate_profile` reads the
        rows of the same cached (-1)-class members on every `classify`, and
        `cone` clears each class it is given once.
        """
        try:
            return self._cleared
        except AttributeError:
            value = clear(self.coeffs)
            object.__setattr__(self, "_cleared", value)
            return value

    def __reduce__(self):
        # copy and pickle rebuild from the coordinates; __setattr__ refuses slot state
        return PicardClass, (self.coeffs,)

    def __lt__(self, other: "PicardClass") -> bool:
        return self.coeffs < other.coeffs

    def __repr__(self) -> str:
        return f"PicardClass({format_class(self)!r})"


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction | int:
    """The intersection form u0*v0 - sum(ui*vi) on coordinate tuples (ints or Fractions)."""
    return u[0] * v[0] - sum(map(operator.mul, u[1:], v[1:]))


def pairing(u: PicardClass, v: PicardClass) -> Fraction:
    """Intersection pairing u.v, signature (1, 8)."""
    return dot(u.coeffs, v.coeffs)


def canonical_class() -> PicardClass:
    return PicardClass((-3, 1, 1, 1, 1, 1, 1, 1, 1))


def hyperplane_class() -> PicardClass:
    return PicardClass((1, 0, 0, 0, 0, 0, 0, 0, 0))


def exceptional_class(i: int) -> PicardClass:
    """e_i for i in 1..8."""
    if not 1 <= i <= 8:
        raise ValueError("exceptional index must be in 1..8")
    coeffs = [0] * RANK
    coeffs[i] = 1
    return PicardClass(coeffs)


def bertini(v: PicardClass) -> PicardClass:
    """Involution v -> 2(v.K)K - v; fixes K and is a pairing isometry."""
    k = canonical_class()
    return 2 * pairing(v, k) * k - v


# -- enumeration -----------------------------------------------------------


def _reflect(v: list[int], i: int) -> None:
    """Apply the simple reflection i of W(E8) to integral coordinates, in place.

    i = 0 is the reflection in H - e1 - e2 - e3, v -> v + (v.a)a; i = 1..7
    is the one in e_i - e_(i+1), which swaps those two coordinates.
    """
    if i:
        v[i], v[i + 1] = v[i + 1], v[i]
    else:
        t = v[0] + v[1] + v[2] + v[3]
        v[0] += t
        v[1] -= t
        v[2] -= t
        v[3] -= t


def _orbit(row: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The W(E8) orbit of an integral row, as its closure under the simple reflections, sorted."""
    seen = {row}
    pending = [row]
    while pending:
        v = pending.pop()
        for i in range(8):
            w = list(v)
            _reflect(w, i)
            w = tuple(w)
            if w not in seen:
                seen.add(w)
                pending.append(w)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class CurveClassSet:
    """A finite family of integral curve classes, as integer rows in ascending order."""

    kind: str  # "minus-one" | "conic"
    rows: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[PicardClass]:
        return iter(self.members)

    @cached_property
    def members(self) -> tuple[PicardClass, ...]:
        """The classes of the rows, in row order, built on first use."""
        return tuple(map(PicardClass, self.rows))

    @cached_property
    def row_set(self) -> frozenset[tuple[int, ...]]:
        """The rows as a set, for membership tests on integer rows."""
        return frozenset(self.rows)

    def __contains__(self, v: PicardClass) -> bool:
        # hash(Fraction(n)) == hash(n), so integral Fraction coordinates find their row
        return v.coeffs in self.row_set


@lru_cache(maxsize=None)
def enumerate_minus_one_classes() -> CurveClassSet:
    """All 240 classes with v^2 = -1 and v.K = -1: the W(E8) orbit of e8.

    W(E8) acts transitively on them (Manin, *Cubic Forms*, sections 23 and
    26).  Completeness is checked against independent enumerations of the
    quadric: test_picard's multiset oracle and acceptance criterion 1's box
    oracle.
    """
    return CurveClassSet("minus-one", _orbit((0, 0, 0, 0, 0, 0, 0, 0, 1)))


@lru_cache(maxsize=None)
def enumerate_conic_classes() -> CurveClassSet:
    """All 2160 classes with v^2 = 0 and v.K = -2: the W(E8) orbit of H - e1.

    W(E8) acts transitively on them (Manin, *Cubic Forms*, sections 23 and
    26), and each has H-degree in 1..11.  Completeness is checked against
    test_picard's multiset oracle, an independent enumeration of the quadric.
    """
    return CurveClassSet("conic", _orbit((1, -1, 0, 0, 0, 0, 0, 0, 0)))


# -- text format ------------------------------------------------------------


def parse_class(text: str) -> PicardClass:
    """Parse nine comma-separated rationals: 'c0,c1,...,c8'."""
    parts = text.split(",")
    if len(parts) != RANK:
        raise ValueError(f"expected {RANK} comma-separated rationals, got {len(parts)}")
    return PicardClass(parse_rational(p) for p in parts)


def format_class(v: PicardClass) -> str:
    return ",".join(format_rational(c) for c in v.coeffs)
