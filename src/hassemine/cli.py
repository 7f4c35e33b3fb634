"""Command-line driver for the order-mining pipeline.

Subcommands: enumerate (order-graph catalog), simulate (maze-game
episodes), corrupt (seeded sequence mutation), mine (covering sets of
order graphs), relevance (win/lose pair scores), baseline (DBSCAN or
average-linkage clustering plus per-cluster common matrices).

Exit codes: 0 success, 2 usage or input error (an error in the --in file
or in the corpus it holds names the file), 3 mining produced an empty
result set, 141 the reader of stdout closed it early (as a shell
reports a writer ended by SIGPIPE), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager

from .errors import EmptyInput, HassemineError

# Each handler imports the modules its subcommand uses, so that one
# process of a pipeline loads only its own part of the package.


def _parse_labels(text: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise ValueError(f"no labels in {text!r}")
    return labels


def number(text: str) -> str:
    """The text itself, once the exact reader takes it as a finite number:
    the library reads it exactly, with no rounding through float."""
    from .exact import exact_fraction

    exact_fraction(text)
    return text


def _write_text(path, text: str) -> None:
    if path in (None, "-"):
        # A line at a time: a write larger than the buffer that a closing
        # pipe cuts short returns without an error, and the text layer
        # drops the rest; a line that meets the closed pipe raises.
        sys.stdout.writelines(text.splitlines(keepends=True))
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


@contextmanager
def _naming_input(args, errors=ValueError):
    """Re-raise `errors` from the block with the --in file before the
    message: the block reads that file or judges the corpus it holds."""
    try:
        yield
    except errors as exc:
        exc.args = (f"{args.infile}: {exc}",)
        raise


def _load(args):
    from .io import load_sequences

    universe = _parse_labels(args.universe) if args.universe else None
    with _naming_input(args):
        return load_sequences(args.infile, universe=universe)


def cmd_enumerate(args) -> int:
    from .enumeration import enumerate_category
    from .graphs import LabelTable, _check_label_count, to_dot

    _check_label_count(args.m)
    table = LabelTable(tuple(f"x{i}" for i in range(1, args.m + 1)))
    category = enumerate_category(table)
    print(len(category))
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        for i, graph in enumerate(category.graphs):
            path = os.path.join(args.dot, f"enum_{i:05d}.dot")
            _write_text(path, to_dot(graph))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.labels)
            # a flat's m*m binary digits are its row-major entries, and
            # writerow makes each character of the string one cell
            width = args.m * args.m
            writer.writerows(f"{flat:0{width}b}" for flat in category.flats)
    return 0


def cmd_simulate(args) -> int:
    from .game import simulate, v1_config, v2_config
    from .io import dump_sequences, episode_row

    kwargs = {"seed": args.seed}
    if args.step_cap is not None:
        kwargs["step_cap"] = args.step_cap
    config = v1_config(**kwargs) if args.version == 1 else v2_config(**kwargs)
    episodes = simulate(config, args.episodes, args.policy)
    table = episodes[0].events.universe
    _write_text(args.out, dump_sequences(table, [episode_row(ep) for ep in episodes]))
    return 0


def cmd_corrupt(args) -> int:
    from .game import corrupt_sequences
    from .io import dump_sequences

    records = _load(args)
    ops = _parse_labels(args.ops)
    mutated = corrupt_sequences(records.sequences, args.fraction, args.seed, ops=ops)
    rows = [
        dict(row, events=list(seq.events))
        for row, seq in zip(records.rows, mutated)
    ]
    _write_text(args.out, dump_sequences(records.table, rows))
    return 0


def cmd_mine(args) -> int:
    from .graphs import Digraph, to_dot, transitive_reduction
    from .mining import hasse_cluster

    labels = _parse_labels(args.labels)
    records = _load(args)
    sequences = records.sequences
    if args.only_label is not None:
        sequences = tuple(
            seq
            for seq, label in zip(sequences, records.labels)
            if label == args.only_label
        )
    # no sequence (left) is the corpus's fault; a bad --labels, --t or --r
    # is not
    with _naming_input(args, EmptyInput):
        output = hasse_cluster(sequences, labels, t=args.t, r=args.r, mode=args.mode)
    payload = {
        "labels": list(labels),
        "t": str(output.threshold),
        "r": output.r,
        "mode": output.mode,
        "total": output.total,
        "clusters": [
            {
                "coverage": {
                    "covered": output.covered[i],
                    "total": output.total,
                    "fraction": str(output.coverage_fraction(i)),
                },
                "matrices": [matrix.to_entries() for matrix in cluster],
            }
            for i, cluster in enumerate(output.clusters)
        ],
    }
    print(json.dumps(payload))
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        for i, cluster in enumerate(output.clusters):
            for j, matrix in enumerate(cluster):
                graph = transitive_reduction(Digraph(matrix.labels, matrix.rows))
                path = os.path.join(args.dot, f"mine_c{i}_g{j}.dot")
                _write_text(path, to_dot(graph))
    return 0 if output.clusters else 3


def cmd_relevance(args) -> int:
    from .mining import relevance_scores

    records = _load(args)
    labels = records.labels
    with _naming_input(args):
        if None in labels:
            raise ValueError("relevance needs a 0/1 label on every record")
        table = relevance_scores(zip(records.sequences, labels))
    writer = csv.writer(sys.stdout)
    writer.writerow(("i", "j", "W", "L", "R"))
    for a, b, score, wins, losses in table.rows():
        rendered = "inf" if score == float("inf") else str(score)
        writer.writerow((a, b, wins, losses, rendered))
    return 0


def cmd_baseline(args) -> int:
    from .baselines import (
        MatrixPointSet,
        _assignment,
        cluster_common_matrices,
        cut,
        dbscan,
        hierarchical,
    )
    from .io import save_matrix_csv

    needed = {"dbscan": "eps", "hier": "threshold"}[args.algo]
    if getattr(args, needed) is None:
        raise ValueError(f"--algo {args.algo} needs --{needed}")
    labels = _parse_labels(args.labels)
    records = _load(args)
    with _naming_input(args):
        if not records.rows:
            raise ValueError("baseline clustering needs at least one sequence")
    points = MatrixPointSet.from_sequences(records.sequences, labels)
    if args.algo == "dbscan":
        clusters, _ = dbscan(points, args.eps, min_samples=args.min_samples)
    else:
        clusters = cut(hierarchical(points), args.threshold)
    writer = csv.writer(sys.stdout)
    writer.writerow(("index", "cluster"))
    writer.writerows(enumerate(_assignment(clusters, len(points))))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        matrices = cluster_common_matrices(clusters, records.sequences, labels)
        for cluster_id, matrix in enumerate(matrices):
            save_matrix_csv(
                os.path.join(args.out, f"cluster_{cluster_id}.csv"), matrix
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .graphs import MAX_LABELS

    parser = argparse.ArgumentParser(
        prog="hassemine",
        description="Mine partial-order concepts from event sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the sequence-file options of corrupt, mine, relevance and baseline
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--in", dest="infile", required=True, metavar="FILE")
    corpus.add_argument("--universe", help="comma-separated labels when no header")

    p = sub.add_parser("enumerate", help="count order graphs on m labels")
    p.add_argument("--m", type=int, required=True, help=f"label count (1..{MAX_LABELS})")
    p.add_argument("--dot", metavar="DIR", help="write one DOT file per graph")
    p.add_argument(
        "--csv",
        metavar="FILE",
        help="label header, then one flattened path matrix per row",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("simulate", help="generate maze-game episodes")
    p.add_argument("--version", type=int, choices=(1, 2), required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--policy",
        default="scripted-mixed",
        help="random, scripted-mixed, scripted-door-N, scripted-coin-N",
    )
    p.add_argument("--step-cap", type=int, default=None)
    p.add_argument("--out", metavar="FILE", help="JSONL output (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("corrupt", parents=[corpus], help="mutate a fraction of a sequence file")
    p.add_argument("--fraction", type=number, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ops", default="swap,delete,insert")
    p.add_argument("--out", metavar="FILE", help="JSONL output (default stdout)")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("mine", parents=[corpus], help="mine covering sets of order graphs")
    p.add_argument("--labels", required=True, help="comma-separated, at most 6")
    p.add_argument("--t", type=number, default="100", help="coverage threshold %%")
    p.add_argument("--r", type=int, default=1, help="max graphs per covering set")
    p.add_argument("--mode", choices=("minimal", "literal"), default="minimal")
    p.add_argument("--only-label", type=int, choices=(0, 1), default=None)
    p.add_argument("--dot", metavar="DIR", help="write one DOT file per graph")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("relevance", parents=[corpus], help="score event pairs by win/lose order")
    p.set_defaults(func=cmd_relevance)

    p = sub.add_parser("baseline", parents=[corpus], help="cluster per-sequence order matrices")
    p.add_argument("--algo", choices=("dbscan", "hier"), required=True)
    p.add_argument("--labels", required=True, help="comma-separated matrix labels")
    p.add_argument("--eps", type=number, default=None, help="DBSCAN radius")
    p.add_argument("--min-samples", type=int, default=1)
    p.add_argument("--threshold", type=number, default=None, help="dendrogram cut")
    p.add_argument("--out", metavar="DIR", help="write per-cluster common matrices")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at shutdown: send that to
        # the null device, so that it cannot report the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (HassemineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
