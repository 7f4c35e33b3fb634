"""Command-line driver: subcommands, files, and exit codes.

Claims covered:
- enumerate prints the catalog size for m labels (1, 3, 19, 219 for
  m = 1..4), writes one DOT file per graph and one flattened path-matrix
  row per CSV line (byte for byte the path matrices at m <= 5, a pinned
  digest at m = 6), and rejects m outside 1..6 with exit 2 and a message
  naming the m it was given;
- simulate --out then load yields exactly the in-process episodes, and
  reruns are byte-identical; a step cap of 1 loses every episode, and a
  cap of 0 exits 2;
- corrupt at fraction 0 is the identity, is reproducible per seed, and
  changes exactly ceil(fraction * n) rows otherwise; bad fractions and
  unknown or no ops exit 2;
- mine emits a JSON payload whose matrices reproduce the published
  winning set, exits 3 when no covering set exists, honors --only-label,
  writes reduction DOT files, and builds no catalog;
- relevance emits a W/L/R table with infinite pairs first and requires a
  label on every record;
- the numeric options (--t, --eps, --threshold, --fraction) are read
  exactly, not through float, and not-a-number, infinite or non-numeric
  text, or a number past 4300 digits, exits 2 naming the option, in
  under a second;
- baseline writes an index,cluster assignment plus per-cluster common
  matrix CSVs, each algorithm demands its own parameter, and both exit 2
  naming the file on a corpus with no sequences;
- mine with no sequence (left after --only-label), and relevance without
  both classes or with an unlabelled record, exit 2 naming the file; a
  bad option on a good file does not name it;
- usage errors (no command, unknown flags, missing files) exit 2, and so
  do malformed sequence files, bytes that are not UTF-8 and nesting too
  deep to decode included, with the file name and the offending line in
  the message;
- a stdout whose reader has gone, before the first write or in the
  middle of a large output, ends the command with exit code 141 and
  nothing on stderr, with PYTHONUNBUFFERED set or unset.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

from hassemine import (
    BoolMatrix,
    LabelTable,
    dump_sequences,
    load_matrix_csv,
    load_sequences,
    parse_sequences,
    save_episodes,
    save_sequences,
    simulate,
    v1_config,
    v2_config,
)
from hassemine.cli import main
from hassemine.enumeration import enumerate_category

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

J5 = LabelTable(("e1", "e2", "e5", "e6", "e11"))

CHAIN_TO_COIN = BoolMatrix.from_entries(
    J5,
    [
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
)
DOOR_ORDER = BoolMatrix.from_entries(
    J5,
    [
        [0, 0, 0, 1, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
)
COIN_ORDER = BoolMatrix.from_entries(
    J5,
    [
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_file(tmp_path, name, version, episodes, seed=0):
    path = tmp_path / name
    config = v1_config(seed=seed) if version == 1 else v2_config(seed=seed)
    save_episodes(path, simulate(config, episodes, "scripted-mixed"))
    return path


def test_enumerate_counts(capsys):
    for m, expected in ((1, 1), (2, 3), (3, 19), (4, 219)):
        code, out, _ = run_cli(capsys, "enumerate", "--m", str(m))
        assert code == 0
        assert out.strip() == str(expected)


def test_enumerate_artifacts(tmp_path, capsys):
    dot_dir = tmp_path / "dots"
    csv_path = tmp_path / "cat.csv"
    code, _, _ = run_cli(
        capsys,
        "enumerate", "--m", "2", "--dot", str(dot_dir), "--csv", str(csv_path),
    )
    assert code == 0
    dots = sorted(p.name for p in dot_dir.iterdir())
    assert dots == ["enum_00000.dot", "enum_00001.dot", "enum_00002.dot"]
    for p in dot_dir.iterdir():
        assert p.read_text().startswith("digraph")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 4
    cells = {cell for line in lines[1:] for cell in line.split(",")}
    assert cells <= {"0", "1"}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumerate_csv_rows_are_path_matrices(tmp_path, capsys, m):
    csv_path = tmp_path / "cat.csv"
    assert run_cli(capsys, "enumerate", "--m", str(m), "--csv", str(csv_path))[0] == 0
    table = LabelTable(tuple(f"x{i}" for i in range(1, m + 1)))
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(table.labels)
    for matrix in enumerate_category(table).path_matrices:
        writer.writerow([cell for row in matrix.to_entries() for cell in row])
    assert csv_path.read_bytes() == want.getvalue().encode()


def test_enumerate_csv_m6_digest(tmp_path, capsys):
    csv_path = tmp_path / "cat.csv"
    assert run_cli(capsys, "enumerate", "--m", "6", "--csv", str(csv_path))[0] == 0
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == "fe327d139eef4d7ba7bbef804020360f7bbd6f1c688430a6da38f91f45cff0a7"


def test_enumerate_bad_m(capsys):
    for bad in ("0", "7", "-2"):
        code, _, err = run_cli(capsys, "enumerate", "--m", bad)
        assert code == 2
        assert err == f"error: enumeration supports 1..6 labels, got {bad}\n"


def test_simulate_round_trip(tmp_path, capsys):
    path = tmp_path / "episodes.jsonl"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--version", "1", "--episodes", "6", "--seed", "3",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    records = load_sequences(path)
    episodes = simulate(v1_config(seed=3), 6, "scripted-mixed")
    assert records.sequences == tuple(ep.events for ep in episodes)
    assert records.labels == tuple(ep.label for ep in episodes)


def test_simulate_deterministic_output(tmp_path, capsys):
    args = ("simulate", "--version", "2", "--episodes", "9", "--seed", "1",
            "--policy", "random")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    records = parse_sequences(out1)
    assert len(records.rows) == 9


def test_corrupt_identity_and_counts(tmp_path, capsys):
    src = simulate_file(tmp_path, "src.jsonl", 2, 20)
    code, out, _ = run_cli(
        capsys, "corrupt", "--in", str(src), "--fraction", "0",
    )
    assert code == 0
    original = load_sequences(src)
    assert parse_sequences(out).sequences == original.sequences

    args = ("corrupt", "--in", str(src), "--fraction", "0.25", "--seed", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    mutated = parse_sequences(out1)
    changed = sum(
        1 for a, b in zip(original.sequences, mutated.sequences) if a != b
    )
    assert changed == math.ceil(0.25 * 20)
    # labels and provenance fields ride along untouched
    assert mutated.labels == original.labels
    assert mutated.rows[0]["policy"] == original.rows[0]["policy"]


def test_corrupt_universe_flag(tmp_path, capsys):
    path = tmp_path / "bare.jsonl"
    path.write_text('{"events": ["e1", "e2"]}\n')
    code, _, err = run_cli(
        capsys, "corrupt", "--in", str(path), "--fraction", "0",
    )
    assert code == 2 and "universe" in err
    code, out, _ = run_cli(
        capsys,
        "corrupt", "--in", str(path), "--fraction", "0", "--universe", "e1,e2",
    )
    assert code == 0
    assert parse_sequences(out).sequences[0].events == ("e1", "e2")


def test_simulate_step_cap(tmp_path, capsys):
    # one step wins no game; a cap below one is refused
    path = tmp_path / "capped.jsonl"
    args = ("simulate", "--version", "2", "--episodes", "9", "--out", str(path))
    assert run_cli(capsys, *args, "--step-cap", "1")[0] == 0
    assert load_sequences(path).labels == (0,) * 9
    code, _, err = run_cli(capsys, *args, "--step-cap", "0")
    assert code == 2
    assert "step cap must be at least 1" in err


def test_corrupt_bad_inputs(tmp_path, capsys):
    src = simulate_file(tmp_path, "src.jsonl", 1, 3)
    for extra in (
        ("--fraction", "1.5"),
        ("--fraction", "-0.1"),
        ("--fraction", "0.5", "--ops", "swap,scramble"),
    ):
        code, _, err = run_cli(capsys, "corrupt", "--in", str(src), *extra)
        assert code == 2
        assert "error:" in err
    code, _, err = run_cli(capsys, "corrupt", "--in", str(src), "--fraction", "0.5", "--ops", ",")
    assert code == 2
    assert "no labels in ','" in err
    code, _, _ = run_cli(
        capsys, "corrupt", "--in", str(tmp_path / "nope.jsonl"),
        "--fraction", "0",
    )
    assert code == 2


def test_mine_winning_set(tmp_path, capsys):
    src = simulate_file(tmp_path, "wins.jsonl", 2, 14)
    dot_dir = tmp_path / "dots"
    code, out, _ = run_cli(
        capsys,
        "mine", "--in", str(src), "--labels", "e1,e2,e5,e6,e11",
        "--t", "100", "--r", "2", "--dot", str(dot_dir),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == "100"
    assert payload["total"] == 14
    assert len(payload["clusters"]) == 1
    cluster = payload["clusters"][0]
    assert cluster["coverage"] == {"covered": 14, "total": 14, "fraction": "1"}
    got = {
        BoolMatrix.from_entries(J5, entries) for entries in cluster["matrices"]
    }
    assert got == {CHAIN_TO_COIN, DOOR_ORDER}
    dots = sorted(p.name for p in dot_dir.iterdir())
    assert dots == ["mine_c0_g0.dot", "mine_c0_g1.dot"]
    assert all("->" in p.read_text() for p in dot_dir.iterdir())


def test_mine_empty_result_exit_code(tmp_path, capsys):
    src = simulate_file(tmp_path, "wins.jsonl", 2, 7)
    code, out, _ = run_cli(
        capsys,
        "mine", "--in", str(src), "--labels", "e1,e2,e5,e6,e11", "--t", "0",
    )
    assert code == 3
    assert json.loads(out)["clusters"] == []


def test_mine_builds_no_catalog(tmp_path, capsys):
    src = simulate_file(tmp_path, "wins.jsonl", 2, 14)
    enumerate_category.cache_clear()
    code, out, _ = run_cli(
        capsys,
        "mine", "--in", str(src), "--labels", "e1,e2,e5,e6,e11", "--t", "90", "--r", "2",
    )
    assert code == 0
    assert json.loads(out)["clusters"]
    code, out, _ = run_cli(
        capsys,
        "mine", "--in", str(src), "--labels", "e1,e2,e5,e6,e11", "--t", "90", "--r", "2",
        "--mode", "literal",
    )
    assert code == 0
    assert json.loads(out)["clusters"]
    assert enumerate_category.cache_info().currsize == 0


def test_mine_literal_stdout(tmp_path, capsys):
    # pinned to the bytes of the catalog search that literal mode ran
    # before it read the closure groups: seven pairs at t = 50, r = 2
    src = simulate_file(tmp_path, "wins.jsonl", 2, 14)
    noisy = tmp_path / "noisy.jsonl"
    code, _, _ = run_cli(
        capsys, "corrupt", "--in", str(src), "--fraction", "0.3", "--seed", "1",
        "--out", str(noisy),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "mine", "--in", str(noisy), "--labels", "e1,e2,e5,e6", "--t", "50", "--r", "2",
        "--mode", "literal",
    )
    assert code == 0
    assert len(json.loads(out)["clusters"]) == 7
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "99cbf56705d878d9cfbbbf8ffa21ac4c163ed697b89f411d8f53f18294429dc3"


def test_mine_size_cap_beyond_the_groups(tmp_path, capsys):
    # three groups: the arrowless graph under both sequences, and each
    # chain under its own; the search stops at three members
    path = tmp_path / "two.jsonl"
    rows = [{"events": ["A", "B"]}, {"events": ["B", "A"]}]
    save_sequences(path, LabelTable(("A", "B")), rows)
    payloads = []
    for r in ("4", "1000000000"):
        code, out, _ = run_cli(
            capsys, "mine", "--in", str(path), "--labels", "A,B", "--t", "100", "--r", r
        )
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[1]["r"] == 10**9
    assert payloads[1]["clusters"] == payloads[0]["clusters"]


def test_mine_only_label(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    episodes = simulate(v1_config(seed=0), 6, "scripted-mixed") + simulate(
        v1_config(seed=2), 30, "random"
    )
    save_episodes(path, episodes)
    wins = sum(1 for ep in episodes if ep.label == 1)
    assert 6 <= wins < len(episodes)
    code, out, _ = run_cli(
        capsys,
        "mine", "--in", str(path), "--labels", "e1,e2,e5,e6",
        "--only-label", "1", "--r", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == wins
    assert len(payload["clusters"]) == 1


def test_relevance_table(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    episodes = simulate(v1_config(seed=0), 9, "scripted-mixed") + simulate(
        v1_config(seed=5), 40, "random"
    )
    assert any(ep.label == 0 for ep in episodes)
    save_episodes(path, episodes)
    code, out, _ = run_cli(capsys, "relevance", "--in", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,W,L,R"
    rows = {tuple(line.split(","))[:2]: line.split(",") for line in lines[1:]}
    e2_e6 = rows[("e2", "e6")]
    assert e2_e6[4] == "inf"
    assert int(e2_e6[2]) >= 9
    assert lines[1].endswith("inf")


def test_relevance_requires_labels(tmp_path, capsys):
    path = tmp_path / "unlabeled.jsonl"
    table = LabelTable(("e1", "e2"))
    path.write_text(dump_sequences(table, [{"events": ["e1"]}]))
    code, _, err = run_cli(capsys, "relevance", "--in", str(path))
    assert code == 2
    assert "label" in err


def test_baseline_dbscan(tmp_path, capsys):
    src = simulate_file(tmp_path, "types.jsonl", 2, 7)
    out_dir = tmp_path / "cm"
    code, out, _ = run_cli(
        capsys,
        "baseline", "--algo", "dbscan", "--in", str(src),
        "--labels", "e1,e2,e5,e6,e11", "--eps", "2", "--out", str(out_dir),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,cluster"
    # file order is door-1..3 then coin-1..4
    assert [line.split(",")[1] for line in lines[1:]] == [
        "0", "0", "0", "1", "2", "2", "2",
    ]
    assert load_matrix_csv(out_dir / "cluster_0.csv") == DOOR_ORDER
    assert load_matrix_csv(out_dir / "cluster_1.csv") == CHAIN_TO_COIN
    assert load_matrix_csv(out_dir / "cluster_2.csv") == COIN_ORDER


def test_baseline_hier(tmp_path, capsys):
    src = simulate_file(tmp_path, "types.jsonl", 2, 7)
    code, out, _ = run_cli(
        capsys,
        "baseline", "--algo", "hier", "--in", str(src),
        "--labels", "e1,e2,e5,e6,e11", "--threshold", "5",
    )
    assert code == 0
    assignment = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert assignment == ["0", "0", "0", "1", "1", "1", "1"]

    code, out, _ = run_cli(
        capsys,
        "baseline", "--algo", "hier", "--in", str(src),
        "--labels", "e1,e2,e5,e6,e11", "--threshold", "0",
    )
    assert code == 0
    assignment = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert len(set(assignment)) == 7


def test_baseline_missing_parameter(tmp_path, capsys):
    src = simulate_file(tmp_path, "types.jsonl", 2, 7)
    base = ("baseline", "--in", str(src), "--labels", "e1,e2")
    code, _, err = run_cli(capsys, *base, "--algo", "dbscan")
    assert code == 2 and "--eps" in err
    code, _, err = run_cli(capsys, *base, "--algo", "hier")
    assert code == 2 and "--threshold" in err


@pytest.mark.parametrize(
    "algo", [("--algo", "dbscan", "--eps", "1"), ("--algo", "hier", "--threshold", "1")]
)
def test_baseline_empty_corpus(tmp_path, capsys, algo):
    path = tmp_path / "header.jsonl"
    path.write_text(dump_sequences(LabelTable(("a", "b")), []))
    code, out, err = run_cli(capsys, "baseline", *algo, "--in", str(path), "--labels", "a,b")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: baseline clustering needs at least one sequence\n"


WIN = {"events": ["a"], "label": 1}


@pytest.mark.parametrize(
    "rows, argv, message",
    [
        ([], ("mine", "--labels", "a,b"), "clustering needs at least one sequence"),
        ([], ("relevance",), "need at least one episode of each class"),
        (
            [WIN],
            ("mine", "--labels", "a,b", "--only-label", "0"),
            "clustering needs at least one sequence",
        ),
        ([WIN], ("relevance",), "need at least one episode of each class"),
        ([WIN, {"events": ["b"]}], ("relevance",), "relevance needs a 0/1 label on every record"),
    ],
    ids=["mine empty", "relevance empty", "mine only-label", "relevance one class", "unlabelled"],
)
def test_corpus_errors_name_the_file(tmp_path, capsys, rows, argv, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(dump_sequences(LabelTable(("a", "b")), rows))
    code, out, err = run_cli(capsys, *argv, "--in", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


def test_option_errors_do_not_name_the_file(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(dump_sequences(LabelTable(("a", "b")), [WIN]))
    code, out, err = run_cli(capsys, "mine", "--in", str(path), "--labels", "a,b", "--r", "0")
    assert (code, out) == (2, "")
    assert err == "error: candidate size cap must be a positive integer, got 0\n"


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_baseline_bad_eps(tmp_path, capsys, eps):
    src = simulate_file(tmp_path, "types.jsonl", 2, 7)
    code, out, err = run_cli(
        capsys, "baseline", "--algo", "dbscan", "--in", str(src),
        "--labels", "e1,e2", "--eps", eps,
    )
    assert code == 2 and out == "" and "Traceback" not in err


def test_numeric_options_are_read_exactly(tmp_path, capsys):
    # The text of --t, --eps, --threshold and --fraction goes to the
    # library's exact reader: no rounding through float.
    path = tmp_path / "ab.jsonl"
    path.write_text('{"events": ["a", "b"]}\n{"events": ["b", "a"]}\n')
    mine = ("mine", "--in", str(path), "--universe", "a,b", "--labels", "a,b", "--r", "1")
    code, out, _ = run_cli(capsys, *mine, "--t", "50.0000000000000000001")
    payload = json.loads(out)
    assert code == 0
    assert payload["t"] == "500000000000000000001/10000000000000000000"
    assert [c["matrices"] for c in payload["clusters"]] == [[[[0, 0], [0, 0]]]]
    code, out, _ = run_cli(capsys, *mine, "--t", "50.0")
    payload = json.loads(out)
    assert code == 0 and payload["t"] == "50" and len(payload["clusters"]) == 2

    src = simulate_file(tmp_path, "src.jsonl", 2, 20)
    original = load_sequences(src).sequences
    code, out, _ = run_cli(
        capsys, "corrupt", "--in", str(src), "--fraction", "0.05000000000000000001"
    )
    mutated = parse_sequences(out).sequences
    assert code == 0
    assert sum(1 for a, b in zip(original, mutated) if a != b) == 2

    baseline = ("baseline", "--in", str(path), "--universe", "a,b", "--labels", "a,b")
    for argv, option in (
        (mine, "--t"),
        (("corrupt", "--in", str(path), "--universe", "a,b"), "--fraction"),
        ((*baseline, "--algo", "dbscan"), "--eps"),
        ((*baseline, "--algo", "hier"), "--threshold"),
    ):
        for bad in ("nan", "inf", "-inf", "ten", "", "1e10000000", "1e-10000000", "1/0", "0/0"):
            started = time.perf_counter()
            code, out, err = run_cli(capsys, *argv, f"{option}={bad}")
            # a huge exponent is refused before it is expanded
            assert time.perf_counter() - started < 1, (option, bad)
            assert code == 2 and out == "", (option, bad)
            assert f"argument {option}: invalid number value" in err
            assert "Traceback" not in err


def test_usage_errors(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "mine", "--in", "x.jsonl")[0] == 2
    assert run_cli(capsys, "simulate", "--version", "3", "--episodes", "1")[0] == 2


@pytest.mark.parametrize(
    "record",
    [
        '{"events": "abc"}',
        '{"events": [["a"]]}',
        '{"events": ["a"], "label": true}',
        '{"events": ["a"], "label": 1.0}',
        '{"events": ["a"],, "label": 1}',
        '{"events": ["a"',
        '{"events": ["a", "d"]}',
    ],
)
def test_malformed_input_exits_2_with_line(tmp_path, capsys, record):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"universe": ["a", "b", "c"]}\n' + record + "\n")
    code, out, err = run_cli(capsys, "mine", "--in", str(path), "--labels", "a,b")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: line 2: ")


def test_deeply_nested_input_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"universe": ["a", "b"]}\n' + "[" * 100000 + "]" * 100000 + "\n")
    code, out, err = run_cli(capsys, "mine", "--in", str(path), "--labels", "a,b")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: line 2: ")


@pytest.mark.parametrize(
    "data, number",
    [
        (b"\xff\xfe{}\n", 1),
        (b'{"universe": ["a", "b"]}\n{"events": ["a"]}\n{"events": ["b\xc3"]}\n', 3),
    ],
)
def test_non_utf8_input_exits_2_with_line(tmp_path, capsys, data, number):
    path = tmp_path / "bin.jsonl"
    path.write_bytes(data)
    code, out, err = run_cli(
        capsys, "mine", "--in", str(path), "--labels", "a,b", "--t", "90", "--r", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: line {number}: invalid UTF-8 at byte ")
    assert "Traceback" not in err


def _cli_into_pipe(argv, unbuffered: bool, read_first: bool = False):
    """(exit code, stderr) of the CLI writing into a pipe whose read end is
    closed before the run starts, or after one byte when read_first."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    if not read_first:
        os.close(read)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hassemine.cli", *argv],
        stdout=write,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write)
    if read_first:
        os.read(read, 1)
        os.close(read)
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # Two episodes: buffered, the output first meets the closed pipe at
    # main's flush; unbuffered, at its first line.
    short = ("simulate", "--version", "1", "--episodes", "2")
    assert _cli_into_pipe(short, unbuffered) == (141, b"")
    # About 110 KB, more than the pipe holds, so the run is still writing
    # when the reader leaves.
    long = ("simulate", "--version", "2", "--episodes", "1000", "--policy", "random")
    assert _cli_into_pipe(long, unbuffered, read_first=True) == (141, b"")
