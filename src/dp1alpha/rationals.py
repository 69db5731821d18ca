"""Shared exact-rational helpers: text grammar, common denominators and perfect-square roots."""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^-?([0-9]+)(?:/([1-9][0-9]*))?$")

# The longest numerator or denominator that parse_rational accepts, in
# digits.  CPython refuses int <-> text conversions beyond 4300 digits by
# default, with a message about its own limit; the cap rejects such input
# first, and leaves room for the larger values computed from it.
MAX_DIGITS = 1000


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (q > 0) into a Fraction.

    Raises ValueError on anything outside the grammar, and on a numerator or
    denominator longer than MAX_DIGITS digits (whitespace is stripped first
    so CLI arguments survive shell quoting).
    """
    text = text.strip()
    match = _RATIONAL_RE.match(text)
    if not match:
        raise ValueError(f"not a rational in p or p/q form: {text!r}")
    if any(part and len(part) > MAX_DIGITS for part in match.groups()):
        raise ValueError(f"numerators and denominators are limited to {MAX_DIGITS} digits")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Render in lowest terms as ``p`` or ``p/q`` with q > 0."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def clear(values) -> tuple[int, tuple[int, ...]]:
    """(d, d*values): d > 0 the least common denominator of ints or Fractions.

    d*values keeps every sign and ratio of the values.
    """
    denom = math.lcm(*(v.denominator for v in values))
    return denom, tuple(v.numerator * (denom // v.denominator) for v in values)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a perfect square."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)
