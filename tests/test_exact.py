"""Exact reading of user-supplied numbers, counts and class labels,
shared by every caller.

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
  refused at once, before Fraction expands it;
- a count is a positive int: hasse_cluster's r, dbscan's min_samples,
  simulate's episode number and a game's step cap each refuse 0, a bool
  and a float with their own ValueError;
- a class label is the int 0 or 1: the parser, relevance scoring and an
  Episode each refuse true, false, 1.0 and 0.0 with their own ValueError.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hassemine import EventSequence, InvalidThreshold, LabelTable, parse_sequences
from hassemine.baselines import Dendrogram, MatrixPointSet, cut, dbscan
from hassemine.exact import exact_fraction, is_class_label, is_count
from hassemine.game import Episode, corrupt_sequences, simulate, v1_config
from hassemine.mining import hasse_cluster, relevance_scores

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


def test_counts_are_positive_ints():
    seqs = [EventSequence(TABLE, ("a",))]
    points = MatrixPointSet.from_sequences(seqs, ("a",))
    assert is_count(1) and is_count(10**30)
    # True == 1 and 2.5 > 1, but neither counts anything
    for bad in (0, -1, True, False, 1.0, 2.5, "3", None):
        assert not is_count(bad)
        with pytest.raises(InvalidThreshold, match="^candidate size cap must be a positive"):
            hasse_cluster(seqs, ("a",), t=100, r=bad)
        with pytest.raises(ValueError, match="^min_samples must be a positive integer$"):
            dbscan(points, 1, min_samples=bad)
        with pytest.raises(ValueError, match="^need at least one episode$"):
            simulate(v1_config(), bad, "random")
        with pytest.raises(ValueError, match="^step cap must be at least 1$"):
            v1_config(step_cap=bad)


def test_class_labels_are_the_ints_0_and_1():
    seq = EventSequence(TABLE, ("a",))
    assert is_class_label(0) and is_class_label(1)
    for bad in (True, False, 1.0, 0.0, 2, -1, "1"):
        assert not is_class_label(bad)
        record = json.dumps({"events": ["a"], "label": bad})
        with pytest.raises(ValueError, match="^line 2: label must be 0 or 1, got "):
            parse_sequences('{"universe": ["a"]}\n' + record + "\n")
        with pytest.raises(ValueError, match="^class label must be 0 or 1, got "):
            relevance_scores([(seq, bad)])
        route = "door" if bad else "none"
        with pytest.raises(ValueError, match="^episode label must be 0 or 1, got "):
            Episode(seq, bad, route, 0, "p")
