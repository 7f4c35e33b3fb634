"""Exact reading of user-supplied numbers, shared by every caller.

Claims covered:
- floats are read through their shortest repr (0.1 is 1/10), other values
  as Fraction reads them;
- the mining threshold, DBSCAN radius, dendrogram cut and corruption
  fraction all read floats that way, so a float never tips a boundary;
- each caller keeps its own error type for values that are not numbers;
- a zero denominator ("1/0", "0/0") is a ValueError, not a
  ZeroDivisionError;
- a bool is a TypeError, although Fraction reads True as 1, in every
  caller;
- a string whose numerator or denominator needs more than 4300 digits is
  refused at once, before Fraction expands it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hassemine import EventSequence, InvalidThreshold, LabelTable
from hassemine.baselines import Dendrogram, MatrixPointSet, cut, dbscan
from hassemine.exact import exact_fraction
from hassemine.game import corrupt_sequences
from hassemine.mining import hasse_cluster

TABLE = LabelTable(("a", "b", "c"))


def test_exact_fraction_values():
    assert exact_fraction(0.1) == Fraction(1, 10)
    assert exact_fraction(66.5) == Fraction(133, 2)
    assert exact_fraction(3) == 3
    assert exact_fraction("2/7") == Fraction(2, 7)
    assert exact_fraction(Fraction(5, 3)) == Fraction(5, 3)
    with pytest.raises(ValueError):
        exact_fraction("ten")
    with pytest.raises(TypeError):
        exact_fraction(None)
    for text in ("1/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            exact_fraction(text)


def test_digit_bound_on_strings():
    assert exact_fraction("1e4299") == 10**4299
    assert exact_fraction("1e-4299") == Fraction(1, 10**4299)
    assert exact_fraction("12e-4299") == Fraction(12, 10**4299)
    assert exact_fraction(" 1_0e2 ") == 1000
    for text in ("1e4300", "1e-4300", "1e-10000000", "0e10000000", "1e" + "9" * 30):
        with pytest.raises(ValueError):
            exact_fraction(text)
    # only strings are sized: other values keep the plain Fraction path
    assert exact_fraction(10**4400) == 10**4400
    assert exact_fraction(Fraction(1, 10**4400)) == Fraction(1, 10**4400)


def test_callers_read_floats_exactly():
    seqs = [EventSequence(TABLE, ("a", "b", "c"))] * 10
    # Fraction(0.1) * 10 exceeds 1, which would corrupt two sequences.
    mutated = corrupt_sequences(seqs, 0.1, seed=0)
    assert sum(m != s for m, s in zip(mutated, seqs)) == 1
    assert cut(Dendrogram(2, ((0, 1, Fraction(1, 10)),)), 0.1) == [[0, 1]]
    assert hasse_cluster(seqs, ("a", "b"), t=0.1, r=1).threshold == Fraction(1, 10)


def test_bools_are_refused():
    seqs = [EventSequence(TABLE, ("a",))]
    for flag in (True, False):
        with pytest.raises(TypeError, match="not a number"):
            exact_fraction(flag)
        with pytest.raises(InvalidThreshold, match="is not a number"):
            hasse_cluster(seqs, ("a",), t=flag, r=1)
        with pytest.raises(TypeError):
            corrupt_sequences(seqs, flag, seed=0)
        with pytest.raises(TypeError):
            cut(Dendrogram(1, ()), flag)
        with pytest.raises(TypeError):
            dbscan(MatrixPointSet.from_sequences(seqs, ("a",)), flag)


def test_caller_error_types():
    seqs = [EventSequence(TABLE, ("a",))]
    with pytest.raises(InvalidThreshold, match="is not a number"):
        hasse_cluster(seqs, ("a",), t="ten", r=1)
    with pytest.raises(ValueError):
        corrupt_sequences(seqs, "ten", seed=0)
    with pytest.raises(TypeError):
        cut(Dendrogram(1, ()), None)
