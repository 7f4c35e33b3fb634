"""Exact rational reading of user-supplied numbers.

Thresholds, radii and fractions arrive as ints, Fractions, decimal strings
or floats. A float is read through its shortest repr, so 0.1 becomes 1/10
rather than the nearest binary fraction, and comparisons against integer
counts are never decided by rounding.
"""

from __future__ import annotations

from fractions import Fraction


def exact_fraction(value) -> Fraction:
    """value as a Fraction; raises what Fraction raises on non-numbers."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)
