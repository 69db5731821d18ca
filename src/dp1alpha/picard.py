"""Rank-9 Picard lattice of a degree-one del Pezzo surface.

Classes are written in the basis (H, e1, ..., e8) with intersection form
diag(1, -1, ..., -1); the canonical class is K = -3H + e1 + ... + e8, K^2 = 1.
Everything here is immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .rationals import format_rational, parse_rational

RANK = 9


class PicardClass:
    """An element of Pic(S) x Q as a 9-tuple of rational coordinates."""

    __slots__ = ("coeffs",)

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
        return hash(self.coeffs)

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


def _sphere_sum_solutions(count: int, total: int, square_total: int) -> Iterator[tuple[int, ...]]:
    """All integer tuples of length `count` with given sum and sum of squares.

    Depth-first with Cauchy-Schwarz pruning on every suffix:
    (remaining sum)^2 <= (remaining count) * (remaining square budget).
    """
    prefix = [0] * count

    def rec(idx: int, s: int, q: int) -> Iterator[tuple[int, ...]]:
        if idx == count:
            if s == 0 and q == 0:
                yield tuple(prefix)
            return
        remaining = count - idx - 1
        bound = math.isqrt(q)
        for m in range(-bound, bound + 1):
            q2 = q - m * m
            s2 = s - m
            if s2 * s2 > remaining * q2:
                continue
            prefix[idx] = m
            yield from rec(idx + 1, s2, q2)

    yield from rec(0, total, square_total)


def _classes_with(self_int: int, k_degree: int, d_range: Iterable[int]) -> list[PicardClass]:
    """Integral classes v with v^2 = self_int, v.K = k_degree, H-degree in d_range.

    Coordinates (d, c1..c8) satisfy sum(ci) = -k_degree - 3d and
    sum(ci^2) = d^2 - self_int.
    """
    found = []
    for d in d_range:
        square_total = d * d - self_int
        if square_total < 0:
            continue
        total = -k_degree - 3 * d
        for tail in _sphere_sum_solutions(8, total, square_total):
            found.append(PicardClass((d,) + tail))
    found.sort(key=lambda v: v.coeffs)
    return found


@dataclass(frozen=True)
class CurveClassSet:
    """A finite, canonically ordered family of integral curve classes."""

    kind: str  # "minus-one" | "conic"
    members: tuple[PicardClass, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[PicardClass]:
        return iter(self.members)

    @cached_property
    def _member_set(self) -> frozenset[PicardClass]:
        return frozenset(self.members)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The members' integer coordinates, in member order."""
        return tuple(tuple(int(c) for c in v.coeffs) for v in self.members)

    def __contains__(self, v: PicardClass) -> bool:
        return v in self._member_set


@lru_cache(maxsize=None)
def enumerate_minus_one_classes() -> CurveClassSet:
    """All 240 classes with v^2 = -1 and v.K = -1.

    Cauchy-Schwarz gives (3d-1)^2 <= 8(d^2+1), i.e. -1 <= d <= 7; the shells
    d = -1 and d = 7 are scanned and checked empty at runtime, so the set is
    exactly the d in 0..6 solutions.
    """
    classes = _classes_with(-1, -1, range(0, 8))
    shell = _classes_with(-1, -1, (-1, 8))
    if shell:
        raise AssertionError("minus-one enumeration bound violated on boundary shell")
    return CurveClassSet("minus-one", tuple(classes))


@lru_cache(maxsize=None)
def enumerate_conic_classes() -> CurveClassSet:
    """All 2160 classes with v^2 = 0, v.K = -2 and non-negative H-degree.

    Cauchy-Schwarz gives (3d-2)^2 <= 8d^2, i.e. 1 <= d <= 11 (the quadric also
    has mirror solutions with d < 0; effectivity selects the non-negative
    representative). The shell d = 12 is checked empty at runtime.
    """
    classes = _classes_with(0, -2, range(0, 12))
    shell = _classes_with(0, -2, (12,))
    if shell:
        raise AssertionError("conic enumeration bound violated on boundary shell")
    return CurveClassSet("conic", tuple(classes))


# -- text format ------------------------------------------------------------


def parse_class(text: str) -> PicardClass:
    """Parse nine comma-separated rationals: 'c0,c1,...,c8'."""
    parts = text.split(",")
    if len(parts) != RANK:
        raise ValueError(f"expected {RANK} comma-separated rationals, got {len(parts)}")
    return PicardClass(parse_rational(p) for p in parts)


def format_class(v: PicardClass) -> str:
    return ",".join(format_rational(c) for c in v.coeffs)
