"""Closed-form alpha-invariant evaluation for polarized del Pezzo surfaces.

Covers four calculators and their comparison:

* ``alpha_conjecture`` -- the nine-branch conjectural formula driven by a
  :class:`~dp1alpha.cone.PolarizationProfile`,
* ``alpha_theorem`` -- the proven formula for degree-one surfaces polarized
  by ``-K + lambda*C`` with a section pair ``C``, ``C-tilde``,
* ``alpha_del_pezzo`` -- the anticanonical alpha of a smooth del Pezzo
  surface by degree and geometric flag,
* ``kstable_range_contains`` / ``cylinder_range_contains`` -- exact interval
  membership for the K-stability window [3 - sqrt(10), (sqrt(10) - 1)/9],
  decided by squaring each endpoint inequality, and the cylinder-free window
  [-1/4, 1/3],

plus ``upper_bound_witnesses`` (explicit divisors certifying upper bounds)
and ``counterexample_report`` (the proven value against the conjectural one
on a fixed quartic/sextic surface, exhibiting disagreement for lambda > 1/3).

Alpha values are plain positive :class:`~fractions.Fraction` numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cone import F1, P2, P1XP1, PolarizationProfile, classify
from .picard import PicardClass, canonical_class, exceptional_class

# `lemmas` and `weierstrass` are imported inside their only users,
# `upper_bound_witnesses` and `_quartic_sextic_surface_data`, so a command
# that needs neither does not load them (importing `lemmas` builds its bank).


# ---------------------------------------------------------------------------
# Conjectural formula
# ---------------------------------------------------------------------------


def alpha_conjecture(profile: PolarizationProfile) -> Fraction:
    """Evaluate the conjectural alpha on the class described by ``profile``.

    The piecewise formula is stated for the normalization mu = 1, where the
    polarization is (1/mu) * A; scaling a polarization by 1/mu scales the
    invariant by mu, so the branch value is multiplied by ``profile.mu``.

    Branch selection is s_A > 4, then 4 >= s_A > 1, then 1 >= s_A, with the
    strict/non-strict boundaries applied verbatim (no smoothing at the
    boundaries where adjacent branches disagree).
    """
    a = profile.a
    s = Fraction(profile.s_A)
    d = Fraction(profile.delta)
    one = Fraction(1)
    a1, a2, a3, a4 = (Fraction(a[i]) for i in range(4))
    if profile.type_tag in (P2, F1):  # P2 is the F1 formula at delta = 0
        if s > 4:
            value = one / (2 + a1 + d)
        elif s > 1:
            value = max(
                Fraction(2) / (2 + 2 * a1 + s - a2 - a3 + 2 * d),
                Fraction(4) / (3 + 4 * a1 + 2 * s - a2 - a3 - a4 + 4 * d),
                Fraction(3) / (2 + 3 * a1 + s + 3 * d),
            )
        else:
            value = min(Fraction(2) / (1 + 2 * a1 + s + 2 * d), one)
    elif profile.type_tag == P1XP1:
        a7 = Fraction(a[6])
        if s > 4:
            value = one / (2 + a1 + d)
        elif s > 1:
            value = max(
                Fraction(2) / (2 + s - a7 - a2 - a3 + 2 * d),
                Fraction(4) / (3 + 2 * s - 2 * a7 - a2 - a3 - a4 + 4 * d),
                Fraction(3) / (2 + s - a7 + 3 * d),
            )
        else:
            value = min(Fraction(2) / (1 + s - a7 + 2 * d), one)
    else:
        raise ValueError(f"unknown profile type {profile.type_tag!r}")
    return Fraction(profile.mu) * value


# ---------------------------------------------------------------------------
# Proven formula for -K + lambda*C on a degree-one surface
# ---------------------------------------------------------------------------


def alpha_theorem(
    lam: Fraction | int | str, n_intersections: int, alpha_S: Fraction | int | str
) -> Fraction:
    """Alpha of ``-K + lam*C`` given the section-pair tangency data.

    ``n_intersections`` counts the distinct points of C meeting C-tilde
    (1 means a single tangency point, 2 or 3 means a transverse crossing
    exists), and ``alpha_S`` is the global alpha of the surface, in (0, 1].
    Valid for -1/3 < lam < 1.
    """
    lam = Fraction(lam)
    alpha_S = Fraction(alpha_S)
    if n_intersections not in (1, 2, 3):
        raise ValueError("n_intersections must be 1, 2, or 3")
    if not Fraction(-1, 3) < lam < 1:
        raise ValueError("lambda must satisfy -1/3 < lambda < 1")
    if not 0 < alpha_S <= 1:
        raise ValueError("alpha_S must lie in (0, 1]")
    tangency = Fraction(4) / (3 + 3 * lam)
    if lam >= 0:
        cap = Fraction(2) / (1 + 2 * lam) if n_intersections >= 2 else tangency
        return min(alpha_S, cap)
    cap = Fraction(2) if n_intersections >= 2 else tangency
    return min(alpha_S / (1 + 2 * lam), cap)


# ---------------------------------------------------------------------------
# Anticanonical alpha of a smooth del Pezzo surface by degree
# ---------------------------------------------------------------------------

_FLAGGED_DEGREES: dict[int, dict[str, Fraction]] = {
    1: {"cuspidal": Fraction(5, 6), "no-cuspidal": Fraction(1)},
    2: {"tacnodal": Fraction(3, 4), "no-tacnodal": Fraction(5, 6)},
    3: {"eckardt": Fraction(2, 3), "no-eckardt": Fraction(3, 4)},
    8: {"f1": Fraction(1, 3), "p1xp1": Fraction(1, 2)},
}

_PLAIN_DEGREES: dict[int, Fraction] = {
    4: Fraction(2, 3),
    5: Fraction(1, 2),
    6: Fraction(1, 2),
    7: Fraction(1, 3),
    9: Fraction(1, 3),
}


def alpha_del_pezzo(degree: int, flags: str | None = None) -> Fraction:
    """Alpha of a smooth del Pezzo surface of the given anticanonical degree.

    Degrees 1, 2, 3, and 8 need a geometric flag discriminating the two
    possible values ("cuspidal"/"no-cuspidal", "tacnodal"/"no-tacnodal",
    "eckardt"/"no-eckardt", "f1"/"p1xp1"); the other degrees take none.
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or not 1 <= degree <= 9:
        raise ValueError("degree must be an integer between 1 and 9")
    if degree in _FLAGGED_DEGREES:
        table = _FLAGGED_DEGREES[degree]
        if flags is None:
            raise ValueError(
                f"degree {degree} requires a flag: one of {sorted(table)}"
            )
        if flags not in table:
            raise ValueError(
                f"flag {flags!r} does not apply to degree {degree}; "
                f"expected one of {sorted(table)}"
            )
        return table[flags]
    if flags is not None:
        raise ValueError(f"degree {degree} takes no flag, got {flags!r}")
    return _PLAIN_DEGREES[degree]


# ---------------------------------------------------------------------------
# Exact interval membership
# ---------------------------------------------------------------------------

#: Endpoints of the closed cylinder-free window [-1/4, 1/3].
CYLINDER_LOWER = Fraction(-1, 4)
CYLINDER_UPPER = Fraction(1, 3)


def kstable_range_contains(lam: Fraction | int | str) -> bool:
    """Whether lam lies in the closed window [3 - sqrt(10), (sqrt(10) - 1)/9].

    Squaring each endpoint inequality gives (3 - lam)^2 <= 10, that is
    3 - sqrt(10) <= lam <= 3 + sqrt(10), and (9*lam + 1)^2 <= 10, that is
    (-1 - sqrt(10))/9 <= lam <= (sqrt(10) - 1)/9.  Their intersection is the
    window, because (-1 - sqrt(10))/9 < 3 - sqrt(10) and (sqrt(10) - 1)/9 < 3.
    """
    lam = Fraction(lam)
    return (3 - lam) ** 2 <= 10 and (9 * lam + 1) ** 2 <= 10


def cylinder_range_contains(lam: Fraction | int | str) -> bool:
    """Whether lam lies in the closed window [-1/4, 1/3]."""
    lam = Fraction(lam)
    return CYLINDER_LOWER <= lam <= CYLINDER_UPPER


# ---------------------------------------------------------------------------
# Upper-bound witnesses
# ---------------------------------------------------------------------------

_BUMP = Fraction(1001, 1000)  # any factor > 1 must break a tight witness


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"witness validation failed: {message}")


def upper_bound_witnesses(
    lam: Fraction | int | str, n_intersections: int, alpha_S: Fraction | int | str
) -> list[tuple[str, Fraction]]:
    """Explicit upper bounds for alpha(-K + lam*C), each backed by a divisor.

    Returns (description, bound) pairs: the anticanonical family bounds by
    ``alpha_S``; the weighted pair (1/2+lam)*C + (1/2)*C-tilde bounds by
    2/(1+2*lam); and when the sections meet at a single tangency point
    (``n_intersections == 1``) the contact-three condition there bounds by
    4/(3+3*lam).  Every divisor witness is validated through the two-branch
    log-canonical test: it stays log canonical at its stated scale and fails
    at any larger scale.  The minimum of the bounds equals
    ``alpha_theorem(lam, n_intersections, alpha_S)``.
    """
    from .lemmas import lc_two_smooth_branches

    lam = Fraction(lam)
    alpha_S = Fraction(alpha_S)
    if n_intersections not in (1, 2, 3):
        raise ValueError("n_intersections must be 1, 2, or 3")
    if not 0 <= lam < 1:
        raise ValueError("witnesses are stated for 0 <= lambda < 1")
    if not 0 < alpha_S <= 1:
        raise ValueError("alpha_S must lie in (0, 1]")

    witnesses: list[tuple[str, Fraction]] = [("anticanonical family", alpha_S)]

    # Weighted section pair scaled so the coefficient of C is exactly 1.
    pair_bound = Fraction(2) / (1 + 2 * lam)
    c1 = pair_bound * (Fraction(1, 2) + lam)
    c2 = pair_bound / 2
    _check(c1 == 1, "the pair witness must cap the coefficient of C at 1")
    _check(
        lc_two_smooth_branches(c1, c2, 1),
        "the weighted pair must stay log canonical at its own scale",
    )
    _check(
        not lc_two_smooth_branches(_BUMP * c1, _BUMP * c2, 1),
        "the weighted pair must fail log canonicity above its scale",
    )
    witnesses.append(("weighted section pair at a crossing", pair_bound))

    if n_intersections == 1:
        # At the unique tangency the branches share contact order three.
        tangency_bound = Fraction(4) / (3 + 3 * lam)
        t1 = tangency_bound * (Fraction(1, 2) + lam)
        t2 = tangency_bound / 2
        _check(t1 + t2 == Fraction(4, 3), "tangency coefficients must sum to 4/3")
        _check(
            lc_two_smooth_branches(t1, t2, 3),
            "the tangency witness must be exactly log canonical",
        )
        _check(
            not lc_two_smooth_branches(_BUMP * t1, _BUMP * t2, 3),
            "the tangency witness must fail log canonicity above its scale",
        )
        witnesses.append(("weighted section pair at the tangency", tangency_bound))

    return witnesses


# ---------------------------------------------------------------------------
# Proven value against the conjectural formula on a fixed surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """Proven alpha, the conjectural value, and whether they disagree."""

    alpha: Fraction
    alpha_c: Fraction
    conjecture_violated: bool


@lru_cache(maxsize=1)
def _quartic_sextic_surface_data() -> tuple[Fraction, int]:
    """Global alpha and tangency count for the surface with a = x^4, b = y^6."""
    from .weierstrass import (
        BinaryForm,
        WeierstrassSurface,
        alpha_of_surface,
        find_square_sections,
        is_smooth,
    )

    surface = WeierstrassSurface(
        a=BinaryForm(4, (1, 0, 0, 0, 0)),
        b=BinaryForm(6, (0, 0, 0, 0, 0, 0, 1)),
    )
    if not is_smooth(surface):
        raise RuntimeError("the comparison surface must be smooth")
    alpha_s = alpha_of_surface(surface)
    sections = find_square_sections(surface)
    if len(sections) != 1:
        raise RuntimeError("the comparison surface must carry one section pair")
    return alpha_s, sections[0].n_intersections


def example_polarization(lam: Fraction | int | str) -> PicardClass:
    """The class -K + lam*C, with C realized as the last basis (-1)-class."""
    return -canonical_class() + Fraction(lam) * exceptional_class(8)


def counterexample_report(lam: Fraction | int | str) -> CounterexampleReport:
    """Compare the proven alpha with the conjectural one at ``-K + lam*C``.

    The surface is the fixed smooth one with a = x^4 and b = y^6: it has no
    cuspidal anticanonical member (so its global alpha is 1) and a unique
    section pair meeting at a single tangency point.  On the range this
    function accepts, 0 <= lambda < 1, the two closed forms agree for
    lambda <= 1/3 and differ for lambda > 1/3; it refuses any other lambda
    and says nothing about lambda < 0.
    """
    lam = Fraction(lam)
    if not 0 <= lam < 1:
        raise ValueError("the comparison is stated for 0 <= lambda < 1")
    alpha_s, n_intersections = _quartic_sextic_surface_data()
    alpha = alpha_theorem(lam, n_intersections, alpha_s)
    alpha_c = alpha_conjecture(classify(example_polarization(lam)))
    return CounterexampleReport(
        alpha=alpha,
        alpha_c=alpha_c,
        conjecture_violated=alpha != alpha_c,
    )
