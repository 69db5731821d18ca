"""Reference oracle: minimal faces of the effective cone by exact LP.

The effective cone is spanned by the 240 (-1)-classes.  A generator E lies
in the minimal face of an effective class x exactly when some nonnegative
representation x = sum(c_E * E) has c_E > 0, which an LP maximizing c_E
decides.  ``dp1alpha.cone.classify`` reads the face of K + mu*A off the
lattice instead; these functions are the independent check it is tested
against.  They call the module-level ``solve`` binding, so a test can record
the problems they pass.
"""

from __future__ import annotations

from fractions import Fraction

from dp1alpha.cone import UnclassifiableError, is_pseudoeffective
from dp1alpha.linprog import OPTIMAL, LPProblem, solve
from dp1alpha.picard import PicardClass, enumerate_minus_one_classes


def _face_problem(x: PicardClass, weighted) -> LPProblem:
    """Maximize the total coefficient on the generators with indices in ``weighted``."""
    curves = enumerate_minus_one_classes().members
    n = len(curves)
    return LPProblem(
        objective=tuple(Fraction(-1) if j in weighted else Fraction(0) for j in range(n)),
        rows=tuple(tuple(curve.coeffs[i] for curve in curves) for i in range(9)),
        rhs=tuple(x.coeffs),
        nonneg=(True,) * n,
    )


def _face_of(x: PicardClass) -> frozenset[PicardClass]:
    """Minimal-face generators of a class already known to be effective.

    Aggregate scheme: repeatedly maximize the total coefficient mass on the
    still-undecided generators.  A zero optimum proves every undecided
    generator is absent from all representations; a positive one exhibits at
    least one new face member.  Equivalent to maximizing each c_E separately,
    in far fewer solves (the mass is capped by x.(-K)).
    """
    curves = enumerate_minus_one_classes().members
    undecided = set(range(len(curves)))
    face: set[int] = set()
    while undecided:
        result = solve(_face_problem(x, undecided))
        if result.status != OPTIMAL:
            raise UnclassifiableError("face LP lost feasibility mid-scan")
        if result.objective_value == 0:
            break
        newly = {j for j in undecided if result.point[j] > 0}
        if not newly:
            raise AssertionError("positive aggregate mass with no positive entry")
        face |= newly
        undecided -= newly
    return frozenset(curves[j] for j in face)


def minimal_face(x: PicardClass) -> frozenset[PicardClass]:
    """Generators of the smallest cone face containing x; rejects non-effective x."""
    if not is_pseudoeffective(x):
        raise ValueError("minimal_face requires a pseudo-effective class")
    return _face_of(x)


def minimal_face_by_generator(x: PicardClass) -> frozenset[PicardClass]:
    """One coefficient-maximizing LP per generator."""
    if not is_pseudoeffective(x):
        raise ValueError("minimal_face requires a pseudo-effective class")
    curves = enumerate_minus_one_classes().members
    face = []
    for j, curve in enumerate(curves):
        result = solve(_face_problem(x, {j}))
        if result.status != OPTIMAL:
            raise UnclassifiableError("face LP lost feasibility mid-scan")
        if result.objective_value < 0:
            face.append(curve)
    return frozenset(face)
