"""Reference oracle: ampleness by pairing with each of the 240 (-1)-classes.

On a degree-one del Pezzo surface the (-1)-classes span the cone of curves,
so a class is ample exactly when it pairs positively with all of them
(Kleiman); positive square and positive degree are checked first, as cheap
necessary conditions.  ``dp1alpha.cone.is_ample`` reads the same answer off
the class's W(E8) chamber representative instead; this scan is the
independent check it is tested against.
"""

from __future__ import annotations

from math import lcm

from dp1alpha.picard import PicardClass, enumerate_minus_one_classes

_SIGNS = (1,) + (-1,) * 8


def _form(u, v) -> int:
    return sum(s * a * b for s, a, b in zip(_SIGNS, u, v))


def is_ample(v: PicardClass) -> bool:
    """True iff v has positive square and pairs positively with -K and all (-1)-classes."""
    scale = lcm(*(c.denominator for c in v.coeffs))
    w = [int(c * scale) for c in v.coeffs]
    if _form(w, w) <= 0 or _form(w, (3,) + (-1,) * 8) <= 0:
        return False
    return all(_form(w, row) > 0 for row in enumerate_minus_one_classes().rows)
