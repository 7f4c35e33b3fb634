"""Exact reading of user-supplied numbers: rationals, counts and class labels.

Thresholds, radii and fractions arrive as ints, Fractions, decimal strings
or floats. A float is read through its shortest repr, so 0.1 becomes 1/10
rather than the nearest binary fraction, and comparisons against integer
counts are never decided by rounding.

A string is read only if its numerator and denominator, as written, fit
MAX_DIGITS decimal digits: Fraction expands "1e-10000000" digit by digit,
which takes seconds, and the result could not be printed anyway.

A count (a candidate size cap, a DBSCAN min_samples, a number of
episodes, a step cap) is a positive int, and a class label is the int 0
(lose) or 1 (win). A bool is neither, although Python counts True as 1,
and neither is a float such as 2.0 or 1.0.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

#: CPython's default limit on the digits of an int read from or written
#: to a decimal string (sys.set_int_max_str_digits).
MAX_DIGITS = 4300


def exact_fraction(value) -> Fraction:
    """value as a Fraction; raises what Fraction raises on non-numbers,
    TypeError on a bool, and ValueError on a string past MAX_DIGITS (see
    the module docstring) or with a zero denominator, such as "1/0".

    A string without "/" is sized through Decimal before it is expanded;
    "p/q" holds two plain integers, which int() already bounds.
    """
    if isinstance(value, bool):  # Fraction would read True as 1
        raise TypeError(f"not a number: {value!r}")
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str) and "/" not in value:
        try:
            _, digits, exp = Decimal(value).as_tuple()
        except InvalidOperation:  # not a number, or an exponent past Decimal's range
            raise ValueError(f"not a number within {MAX_DIGITS} digits: {value[:40]!r}") from None
        if isinstance(exp, int) and max(len(digits) + max(exp, 0), 1 - min(exp, 0)) > MAX_DIGITS:
            raise ValueError(f"more than {MAX_DIGITS} digits: {value[:40]!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {value[:40]!r}") from None


def is_count(value) -> bool:
    """Whether value is a positive int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def is_class_label(value) -> bool:
    """Whether value is the int 0 or 1; True, False, 1.0 and 0.0 are not."""
    return type(value) is int and value in (0, 1)
