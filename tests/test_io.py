"""Sequence JSONL and matrix CSV formats.

Claims covered:
- dump/parse of sequence files round-trips records (extra fields kept),
  honors the universe header, and accepts an explicit universe override;
- malformed files fail loudly: missing universe, duplicate header,
  recordless events, non-0/1 labels, unknown event tokens;
- files with \n, \r\n or \r line ends load alike, with the same line
  numbers, for a bad byte too, which is named by its line and its byte
  within that line;
- no other character ends a line: labels holding a raw U+0085, U+2028 or
  U+2029 (which JSON strings may hold) parse and load, and a form feed
  between two records leaves one line of invalid JSON;
- only a line of spaces and tabs is blank: a line holding only a form
  feed, \v, \x1c, U+0085 or U+2028 is invalid JSON named by its line;
- each malformed record fails with a ValueError naming its file line:
  invalid JSON (nesting too deep to decode and an integer too long to
  convert included), events that are a string or hold a non-string,
  labels given as true or 1.0, a header universe that is not a list of
  strings;
- an explicit universe that is not a list of strings is rejected too;
- arbitrary JSON lines either parse or fail with an error naming a line,
  except the file-level one for a missing universe;
- the parsed sequences are built once and shared by later reads;
- a text of repeated lines parses as the per-line parser parsed it: the
  same rows, sequences, labels and table, or the same error;
- copies of a line get rows of their own and share one sequence object,
  except records holding a list or object other than events, which are
  read anew; a repeated bad line fails at its first copy;
- episode rows carry exactly the five published fields;
- matrix CSV round-trips exactly and rejects ragged or non-binary data
  and a repeated label, with a message naming the file.
"""

from __future__ import annotations

import json
import re
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hassemine import (
    BoolMatrix,
    HassemineError,
    LabelTable,
    dump_sequences,
    episode_row,
    load_matrix_csv,
    load_sequences,
    parse_sequences,
    save_episodes,
    save_matrix_csv,
    save_sequences,
    simulate,
    v1_config,
)
from oracles import parse_sequences_per_line

TABLE = LabelTable(("e1", "e2", "e5"))


def test_sequence_round_trip(tmp_path):
    rows = [
        {"events": ["e2", "e5"], "label": 1, "note": "kept"},
        {"events": [], "label": 0},
        {"events": ["e1"]},
    ]
    path = tmp_path / "seqs.jsonl"
    save_sequences(path, TABLE, rows)
    records = load_sequences(path)
    assert records.table == TABLE
    assert list(records.rows) == rows
    assert [s.events for s in records.sequences] == [("e2", "e5"), (), ("e1",)]
    assert records.labels == (1, 0, None)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_sequences_line_endings(tmp_path, newline):
    lines = [
        '{"universe": ["e1", "e2", "e5"]}',
        '{"events": ["e2", "e5"], "label": 1}',
        "",
        '{"events": ["e1"]}',
    ]
    path = tmp_path / "seqs.jsonl"
    path.write_bytes((newline.join(lines) + newline).encode())
    records = load_sequences(path)
    assert [s.events for s in records.sequences] == [("e2", "e5"), ("e1",)]
    path.write_bytes(newline.join(lines + ['{"events": ["zz"]}']).encode())
    with pytest.raises(ValueError, match=r"^line 5: "):
        load_sequences(path)
    # line 3 is '{"events": ["é' (15 bytes), then a byte that is not UTF-8
    bad = newline.join(lines[:2] + ['{"events": ["é']).encode() + b'\xff"]}'
    path.write_bytes(bad + newline.encode())
    with pytest.raises(ValueError, match=r"^line 3: invalid UTF-8 at byte 16: "):
        load_sequences(path)


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_line_separators_inside_strings_are_kept(tmp_path, separator):
    label = f"a{separator}b"
    rows = [{"events": [label, "c"], "label": 1}, {"events": ["c", label]}]
    text = "".join(
        json.dumps(record, ensure_ascii=False) + "\n"
        for record in [{"universe": [label, "c"]}, *rows]
    )
    assert separator in text
    path = tmp_path / "seqs.jsonl"
    path.write_bytes(text.encode())
    for records in (parse_sequences(text), load_sequences(path)):
        assert records.table.labels == (label, "c")
        assert list(records.rows) == rows
        assert [s.events for s in records.sequences] == [(label, "c"), ("c", label)]


def test_form_feed_does_not_end_a_line():
    with pytest.raises(ValueError, match=r"^line 2: invalid JSON at column 18: Extra data$"):
        parse_sequences(HEADER + '{"events": ["a"]}\f{"events": ["b"]}\n')


@pytest.mark.parametrize("space", ["\f", "\v", "\x1c", "\x85", "\u2028", " \f\t"])
def test_only_spaces_and_tabs_make_a_blank_line(space):
    blank = HEADER + ' \t\n{"events": ["a"]}\n\t\n'
    assert [row["events"] for row in parse_sequences(blank).rows] == [["a"]]
    with pytest.raises(ValueError, match=r"^line 3: invalid JSON at column \d+: Expecting value$"):
        parse_sequences(HEADER + '{"events": ["a"]}\n' + space + '\n{"events": ["b"]}\n')


def test_universe_override_and_headerless():
    text = '{"events": ["e1"]}\n'
    records = parse_sequences(text, universe=("e1", "e9"))
    assert records.table.labels == ("e1", "e9")
    with pytest.raises(ValueError):
        parse_sequences(text)
    # an explicit universe wins over the header
    headed = dump_sequences(TABLE, [{"events": ["e1"]}])
    assert parse_sequences(headed, universe=("e1",)).table.labels == ("e1",)
    # an explicit universe is checked like a header one
    with pytest.raises(ValueError, match="universe must be a list of strings"):
        parse_sequences('{"events": [1, 2]}\n', universe=(1, 2))


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_sequences('{"universe": ["a"]}\n{"universe": ["a"]}\n')
    with pytest.raises(ValueError):
        parse_sequences('{"universe": ["a"]}\n{"label": 1}\n')
    with pytest.raises(ValueError):
        parse_sequences('{"universe": ["a"]}\n{"events": ["a"], "label": 3}\n')
    with pytest.raises(ValueError):
        parse_sequences('{"universe": ["a"]}\n[1, 2]\n')
    with pytest.raises(ValueError):
        parse_sequences('{"universe": ["a"]}\n{"events": ["b"]}\n')
    with pytest.raises(ValueError):
        dump_sequences(TABLE, [{"label": 1}])


HEADER = '{"universe": ["a", "b", "c"]}\n'

MALFORMED_RECORDS = {
    "string events": '{"events": "abc"}',
    "nested events": '{"events": [["a"]]}',
    "numeric event": '{"events": ["a", 1]}',
    "boolean label": '{"events": ["a"], "label": true}',
    "float label": '{"events": ["a"], "label": 1.0}',
    "json syntax": '{"events": ["a"],, "label": 1}',
    "unknown event": '{"events": ["z"]}',
    "deep nesting": '{"events": ' + "[" * 100000 + "]" * 100000 + "}",
    "long integer": pytest.param(
        '{"events": ["a"], "label": ' + "1" * 5000 + "}",
        marks=pytest.mark.skipif(
            getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
            reason="integer string conversion is not limited",
        ),
    ),
}


@pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys())
def test_malformed_record_names_its_line(record):
    text = HEADER + '{"events": ["a"], "label": 0}\n\n' + record + "\n"
    with pytest.raises(ValueError, match=r"^line 4: "):
        parse_sequences(text)


@pytest.mark.parametrize(
    "header", ['{"universe": "abc"}', '{"universe": ["a", 1]}', '{"universe": ["a", "a"]}']
)
def test_malformed_header_names_its_line(header):
    with pytest.raises(ValueError, match=r"^line 1: "):
        parse_sequences(header + '\n{"events": ["a"]}\n')


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 2)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(("a", "b", "c", "z")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("universe", "events", "label")), inner, max_size=3),
    max_leaves=6,
)
EVENTS = st.lists(st.sampled_from(("a", "b", "c", "z")), max_size=4)
RECORDS = st.one_of(
    st.fixed_dictionaries({"universe": EVENTS}),
    st.fixed_dictionaries({"events": EVENTS}, optional={"label": JSON_VALUES}),
    st.dictionaries(st.sampled_from(("universe", "events", "label")), JSON_VALUES, max_size=3),
)
LINES = st.one_of(RECORDS.map(json.dumps), JSON_VALUES.map(json.dumps), st.text(max_size=6))


@given(
    st.lists(LINES, max_size=5).map("\n".join),
    st.none() | st.lists(st.sampled_from(("a", "b", "c")), unique=True).map(tuple),
)
def test_arbitrary_lines_parse_or_name_their_line(text, universe):
    try:
        records = parse_sequences(text, universe)
    except (HassemineError, ValueError) as exc:
        message = str(exc)
        if message.startswith("no universe"):
            return
        number = re.match(r"line (\d+): ", message)
        assert number, message
        assert 1 <= int(number.group(1)) <= len(text.splitlines())
    else:
        assert len(records.sequences) == len(records.rows)


def _outcome(parse, text, universe):
    try:
        records = parse(text, universe)
    except (HassemineError, ValueError) as exc:
        return type(exc), str(exc)
    return records.table, records.rows, records.sequences, records.labels


@given(
    st.lists(LINES, min_size=1, max_size=4).flatmap(
        lambda lines: st.lists(st.sampled_from(lines), max_size=8).map("\n".join)
    ),
    st.none() | st.lists(st.sampled_from(("a", "b", "c")), unique=True).map(tuple),
)
# a raw U+2028 inside a label and a repeated line holding it
@example('{"events": ["a\u2028"]}\n{"events": ["a\u2028"]}', ("a", "a\u2028"))
def test_repeated_lines_match_per_line_oracle(text, universe):
    for text in (text, HEADER + text):
        assert _outcome(parse_sequences, text, universe) == _outcome(
            parse_sequences_per_line, text, universe
        )


def test_repeated_lines_share_sequences_not_rows():
    line = '{"events": ["a", "b"], "label": 1, "note": "x"}'
    nested = '{"events": ["a"], "extra": [1]}'
    lines = [line, nested, line, nested, line]
    records = parse_sequences(HEADER + "\n".join(lines))
    rows = records.rows
    assert rows == tuple(json.loads(text) for text in lines)
    assert list(rows[2]) == ["events", "label", "note"]
    assert len({id(row) for row in rows}) == 5
    assert len({id(row["events"]) for row in rows}) == 5
    assert rows[1]["extra"] is not rows[3]["extra"]
    first, other, second, nested_copy, third = records.sequences
    assert first is second is third
    assert other == nested_copy and other is not nested_copy
    rows[0]["events"].append("c")
    rows[0]["label"] = 0
    rows[1]["extra"].append(2)
    rows[1]["events"].clear()
    assert rows[2:] == tuple(json.loads(text) for text in lines[2:])
    assert first.events == ("a", "b")


def test_repeated_bad_line_names_its_first_copy():
    good = '{"events": ["a"]}\n'
    for bad in ('{"events": ["z"]}\n', '{"events": ["a"], "label": 2}\n', "[1]\n"):
        with pytest.raises(ValueError, match=r"^line 3: "):
            parse_sequences(HEADER + good + bad + good + bad)
    with pytest.raises(ValueError, match=r"^line 3: duplicate universe header$"):
        parse_sequences(HEADER + good + HEADER)


def test_sequences_built_once():
    records = parse_sequences(HEADER + '{"events": ["b", "a"], "label": 1}\n')
    assert records.sequences is records.sequences
    assert records.sequences[0].events == ("b", "a")
    assert records.labels == (1,)


def test_episode_rows(tmp_path):
    episodes = simulate(v1_config(seed=3), 4, "scripted-mixed")
    row = episode_row(episodes[0])
    assert set(row) == {"events", "label", "win_route", "seed", "policy"}
    path = tmp_path / "episodes.jsonl"
    save_episodes(path, episodes)
    records = load_sequences(path)
    assert records.sequences == tuple(ep.events for ep in episodes)
    assert records.labels == (1, 1, 1, 1)
    assert records.rows[0]["policy"] == "scripted-door-1"
    with pytest.raises(ValueError):
        save_episodes(tmp_path / "none.jsonl", [])


def test_matrix_round_trip(tmp_path):
    matrix = BoolMatrix.from_entries(TABLE, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    path = tmp_path / "matrix.csv"
    save_matrix_csv(path, matrix)
    assert load_matrix_csv(path) == matrix


def test_matrix_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_matrix_csv(path)
    # each message names the file
    prefix = f"^{re.escape(str(path))}: "
    path.write_text("a,a\n0,0\n0,0\n")
    with pytest.raises(ValueError, match=prefix + "labels must be pairwise distinct"):
        load_matrix_csv(path)
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError, match=prefix + "expected 2 rows, got 1$"):
        load_matrix_csv(path)
    path.write_text("a,b\n0,1\n0,2\n")
    with pytest.raises(ValueError, match=prefix + "matrix entries must be 0/1, got 2$"):
        load_matrix_csv(path)
    path.write_text("a,b\n0,x\n0,0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: matrix entries must be 0 or 1$"):
        load_matrix_csv(path)
