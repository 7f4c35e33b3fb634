"""File formats: JSONL sequence files and CSV matrix files.

A sequence file is JSON Lines: an optional header record declaring the
event universe, then one record per sequence. A line ends at "\n", "\r\n"
or "\r" and nowhere else: JSON strings may hold U+0085, U+2028 and U+2029
unescaped, and `json.dumps(..., ensure_ascii=False)` writes them so. A
line of spaces and tabs only is blank and skipped; any other line is one
JSON record, so a line holding only a form feed, "\v", U+0085 or U+2028
is invalid JSON (JSON's whitespace is space, tab, "\n" and "\r").

    {"universe": ["e1", "e2", "e5"]}
    {"events": ["e2", "e5"], "label": 1}

Records may carry extra fields (win_route, seed, policy, ...); loaders
keep them so rewriting tools can round-trip files losslessly.  A matrix
file is CSV: the first row is the label order, each following row the
0/1 entries of one matrix row.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .errors import LabelNotInUniverse
from .exact import is_class_label
from .graphs import BoolMatrix, LabelTable
from .sequences import EventSequence

if TYPE_CHECKING:
    from .game import Episode


@dataclass(frozen=True)
class SequenceRecords:
    """A parsed sequence file: its universe and raw per-sequence records."""

    table: LabelTable
    rows: tuple[dict, ...]

    @cached_property
    def sequences(self) -> tuple[EventSequence, ...]:
        return tuple(
            EventSequence(self.table, tuple(row["events"])) for row in self.rows
        )

    @property
    def labels(self) -> tuple:
        return tuple(row.get("label") for row in self.rows)


def episode_row(episode: Episode) -> dict:
    return {
        "events": list(episode.events.events),
        "label": episode.label,
        "win_route": episode.win_route,
        "seed": episode.seed,
        "policy": episode.policy,
    }


def dump_sequences(table: LabelTable, rows: Iterable[dict]) -> str:
    """Render a sequence file: header line, then one JSON object per row."""
    lines = [json.dumps({"universe": list(table.labels)})]
    for row in rows:
        if "events" not in row:
            raise ValueError(f"sequence record lacks events: {row!r}")
        lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"


def save_sequences(path, table: LabelTable, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_sequences(table, rows))


def save_episodes(path, episodes: Iterable[Episode]) -> None:
    episodes = list(episodes)
    if not episodes:
        raise ValueError("no episodes to save")
    table = episodes[0].events.universe
    save_sequences(path, table, [episode_row(ep) for ep in episodes])


def _lines(text: str) -> list[str]:
    """text cut at each "\n", "\r\n" and "\r"; a final line end leaves an
    empty last line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_sequences(text: str, universe=None) -> SequenceRecords:
    """Parse sequence-file text; a `universe` of strings overrides any header.

    A malformed line raises ValueError naming its 1-based line number:
    invalid JSON (nesting too deep to decode and integers too long to
    convert included), a record that is not an object, a second header, a
    header or events value that is not a list of strings, a missing events
    field, a label other than the integers 0 and 1 (true and 1.0
    included), or an event outside the universe.

    Recorded play repeats itself, so each distinct record line is decoded
    and checked once. A later copy of a line whose fields other than
    events are JSON scalars gets a row of its own (a new dict with a new
    events list) and shares the first copy's EventSequence object. Any
    other line, headers and blank lines included, is read on its own, so a
    repeated bad line fails at its first copy.
    """
    header_table = None
    rows = []
    decoded = []  # (line number, record) of each record line decoded
    lines = []  # lines[i]: the index in decoded of row i's line
    seen: dict[str, int] = {}
    for number, line in enumerate(_lines(text), start=1):
        index = seen.get(line)
        if index is not None:
            record = decoded[index][1]
            rows.append({**record, "events": list(record["events"])})
            lines.append(index)
            continue
        if not line.strip(" \t"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"line {number}: invalid JSON at column {exc.colno}: {exc.msg}"
            ) from None
        except (RecursionError, ValueError) as exc:
            # nesting too deep for the decoder, or an integer too long to convert
            raise ValueError(f"line {number}: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: expected a JSON object")
        if "universe" in record and "events" not in record:
            if header_table is not None:
                raise ValueError(f"line {number}: duplicate universe header")
            labels = record["universe"]
            if type(labels) is not list or not all(type(x) is str for x in labels):
                raise ValueError(f"line {number}: universe must be a list of strings")
            try:
                header_table = LabelTable(tuple(labels))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            continue
        if "events" not in record:
            raise ValueError(f"line {number}: sequence record lacks events")
        if type(record["events"]) is not list:
            raise ValueError(f"line {number}: events must be a list of strings")
        label = record.get("label")
        if label is not None and not is_class_label(label):
            raise ValueError(f"line {number}: label must be 0 or 1, got {label!r}")
        # a copy's dict is shallow, so only records with no other list or
        # object in them may be copied
        if all(
            type(value) is not list and type(value) is not dict
            for key, value in record.items()
            if key != "events"
        ):
            seen[line] = len(decoded)
        lines.append(len(decoded))
        decoded.append((number, record))
        rows.append(record)
    if universe is not None:
        universe = tuple(universe)
        if not all(type(x) is str for x in universe):
            raise ValueError("universe must be a list of strings")
        table = LabelTable(universe)
    elif header_table is not None:
        table = header_table
    else:
        raise ValueError("no universe: add a header record or pass one explicitly")
    sequences = []
    for number, record in decoded:
        # Against a universe of strings, a hashable non-string event fails
        # the universe lookup and an unhashable one raises TypeError there,
        # so this one pass checks the event types as well.
        try:
            sequences.append(EventSequence(table, tuple(record["events"])))
        except LabelNotInUniverse as exc:
            raise LabelNotInUniverse(f"line {number}: {exc}") from None
        except TypeError:
            raise ValueError(f"line {number}: events must be a list of strings") from None
    records = SequenceRecords(table, tuple(rows))
    object.__setattr__(records, "sequences", tuple(map(sequences.__getitem__, lines)))
    return records


def load_sequences(path, universe=None) -> SequenceRecords:
    """Parse a sequence file; bytes that are not UTF-8 raise ValueError
    naming their 1-based line, like every other malformed line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; count their lines as the
        # parser would
        lines = _lines(data[: exc.start].decode("utf-8"))
        column = len(lines[-1].encode("utf-8")) + 1
        raise ValueError(
            f"line {len(lines)}: invalid UTF-8 at byte {column}: {exc.reason}"
        ) from None
    return parse_sequences(text, universe)


def save_matrix_csv(path, matrix: BoolMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(matrix.labels.labels)
        for row in matrix.to_entries():
            writer.writerow(row)


def load_matrix_csv(path) -> BoolMatrix:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = list(csv.reader(handle))
    if not reader:
        raise ValueError(f"{path}: empty matrix file")
    try:
        entries = [[int(cell) for cell in row] for row in reader[1:]]
    except ValueError:
        raise ValueError(f"{path}: matrix entries must be 0 or 1") from None
    try:  # BoolMatrix checks the shape and the 0/1 cells
        return BoolMatrix.from_entries(LabelTable(tuple(reader[0])), entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
