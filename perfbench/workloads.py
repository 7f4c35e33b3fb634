"""The four benchmark workloads.

Each workload has four halves that run in different processes:

- `generate` (benchmark process, off the clock) makes the inputs from the
  seed and writes them to the run directory;
- `load` and `task` (worker process) read those inputs and run one timed
  task; `answer` turns a task's result into plain JSON, off the clock;
  `probe` runs the companion calls of a traced run, outside the task span;
- `check` (benchmark process) tests an answer against the inputs with the
  brute-force code in `checks`.

The package is called only through its public functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import checks
import hassemine
from hassemine import (
    EventSequence,
    MatrixPointSet,
    V2_EVENTS,
    cluster_common_matrices,
    common_matrix,
    corrupt,
    cut,
    dbscan,
    hasse_cluster,
    hierarchical,
    parse_sequences,
    relevance_scores,
    seq_to_matrix,
    simulate,
    v2_config,
)

J5 = ("e1", "e2", "e5", "e6", "e11")
J6 = J5 + ("e7",)
UNIVERSE = V2_EVENTS.labels
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hassemine.__file__)))


def derive(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def write_jsonl(path, rows) -> None:
    """A sequence file: universe header, then one {"events", "label"} row each."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"universe": list(UNIVERSE)}) + "\n")
        for events, label in rows:
            handle.write(json.dumps({"events": list(events), "label": label}) + "\n")


def read_jsonl(path) -> list[tuple[tuple[str, ...], int]]:
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [(tuple(r["events"]), r.get("label")) for r in records if "events" in r]


def episode_pairs(episodes):
    return [(ep.events.events, ep.label) for ep in episodes]


def mine_payload(labels, out) -> dict:
    """A ClusterOutput in the same JSON layout as `hassemine mine` prints."""
    return {
        "labels": list(labels),
        "t": str(out.threshold),
        "r": out.r,
        "mode": out.mode,
        "total": out.total,
        "clusters": [
            {
                "coverage": {
                    "covered": out.covered[i],
                    "total": out.total,
                    "fraction": str(out.coverage_fraction(i)),
                },
                "matrices": [matrix.to_entries() for matrix in cluster],
            }
            for i, cluster in enumerate(out.clusters)
        ],
    }


def _sequences(pairs):
    return [EventSequence(V2_EVENTS, events) for events, _ in pairs]


class PaperR3:
    """The paper's robustness experiment at r=3."""

    name = "paper-r3"
    catalogs = (J5,)
    sizes = {"episodes": 125, "policy": "scripted-mixed", "corrupted": 0.10,
             "labels": "J5", "t": 90, "r": 3}
    rss_of = "self"

    def generate(self, seed, run_dir, tracer):
        with tracer.span("game.simulate"):
            episodes = simulate(v2_config(seed=derive(seed, "game")), 125, "scripted-mixed")
        with tracer.span("game.corrupt"):
            episodes = corrupt(episodes, 0.10, derive(seed, "corrupt"))
        pairs = episode_pairs(episodes)
        write_jsonl(os.path.join(run_dir, "episodes.jsonl"), pairs)
        return pairs

    def load(self, run_dir):
        return _sequences(read_jsonl(os.path.join(run_dir, "episodes.jsonl")))

    def task(self, seqs, tr):
        with tr.span("mining.hasse_cluster"):
            return hasse_cluster(seqs, J5, t=90, r=3)

    def answer(self, out):
        return mine_payload(J5, out)

    def probe(self, seqs, out, tr):
        with tr.span("mining.encode"):
            matrices = [seq_to_matrix(s, J5) for s in seqs]
        with tr.span("mining.hasse_cluster_r1"):
            hasse_cluster(seqs, J5, t=90, r=1)
        tr.count("mining.distinct_matrices", len({m.rows for m in matrices}))
        tr.count("mining.output_sets", len(out.clusters))

    def check(self, answer, pairs):
        return checks.check_mine(answer, [e for e, _ in pairs], J5, 90, 3)


class IngestJ6:
    """Parse a large file, score relevance, mine and summarise the winners."""

    name = "ingest-j6"
    catalogs = (J6,)
    sizes = {"episodes": 20000, "policy": "half scripted-mixed, half random",
             "labels": "J6", "t": 90, "r": 2}
    rss_of = "self"

    def generate(self, seed, run_dir, tracer):
        with tracer.span("game.simulate"):
            episodes = simulate(v2_config(seed=derive(seed, "scripted")), 10000, "scripted-mixed")
            episodes += simulate(v2_config(seed=derive(seed, "random")), 10000, "random")
        pairs = episode_pairs(episodes)
        random.Random(derive(seed, "order")).shuffle(pairs)
        write_jsonl(os.path.join(run_dir, "episodes.jsonl"), pairs)
        return pairs

    def load(self, run_dir):
        with open(os.path.join(run_dir, "episodes.jsonl"), encoding="utf-8") as handle:
            return handle.read()

    def task(self, text, tr):
        with tr.span("io.parse"):
            records = parse_sequences(text)
            seqs = records.sequences
            labels = records.labels
        with tr.span("mining.relevance"):
            table = relevance_scores(zip(seqs, labels))
        winners = [s for s, label in zip(seqs, labels) if label == 1]
        with tr.span("mining.hasse_cluster"):
            out = hasse_cluster(winners, J6, t=90, r=2)
        with tr.span("mining.common_matrix"):
            common = common_matrix(winners, J6)
        return len(records.rows), table, winners, out, common

    def answer(self, result):
        _, table, _, out, common = result
        return {
            "relevance": {
                "n_win": table.n_win,
                "n_lose": table.n_lose,
                "rows": [
                    [a, b, w, lose, "inf" if score == float("inf") else str(score)]
                    for a, b, score, w, lose in table.rows()
                ],
            },
            "mine": mine_payload(J6, out),
            "common": common.to_entries(),
        }

    def probe(self, text, result, tr):
        n_records, _, winners, out, _ = result
        with tr.span("mining.encode"):
            matrices = [seq_to_matrix(s, J6) for s in winners]
        with tr.span("mining.hasse_cluster_r1"):
            hasse_cluster(winners, J6, t=90, r=1)
        tr.count("io.parse_records", n_records)
        tr.count("mining.distinct_matrices", len({m.rows for m in matrices}))
        tr.count("mining.output_sets", len(out.clusters))

    def check(self, answer, pairs):
        rel = answer["relevance"]
        winners = [e for e, label in pairs if label == 1]
        problems = checks.check_relevance(rel["n_win"], rel["n_lose"], rel["rows"], pairs, UNIVERSE)
        problems += checks.check_mine(answer["mine"], winners, J6, 90, 2)
        if checks.pack(answer["common"]) != checks.common_rows(winners, J6):
            problems.append("common matrix of the winners is wrong")
        return problems


class Linkage300:
    """Both baseline clusterers on random play."""

    name = "linkage-300"
    catalogs = ()
    sizes = {"episodes": 300, "policy": "random", "labels": "J5",
             "cut": 2, "eps": 2}
    rss_of = "self"

    def generate(self, seed, run_dir, tracer):
        with tracer.span("game.simulate"):
            episodes = simulate(v2_config(seed=derive(seed, "game")), 300, "random")
        pairs = episode_pairs(episodes)
        write_jsonl(os.path.join(run_dir, "episodes.jsonl"), pairs)
        return pairs

    def load(self, run_dir):
        return _sequences(read_jsonl(os.path.join(run_dir, "episodes.jsonl")))

    def task(self, seqs, tr):
        with tr.span("baselines.points"):
            points = MatrixPointSet.from_sequences(seqs, J5)
        with tr.span("baselines.hierarchical"):
            tree = hierarchical(points)
        with tr.span("baselines.cut"):
            clusters = cut(tree, 2)
        with tr.span("baselines.common"):
            commons = cluster_common_matrices(clusters, seqs, J5)
        with tr.span("baselines.dbscan"):
            db_clusters, noise = dbscan(points, 2)
        return points, tree, clusters, commons, db_clusters, noise

    def answer(self, result):
        _, tree, clusters, commons, db_clusters, noise = result
        return {
            "merges": [[a, b, str(h)] for a, b, h in tree.merges],
            "cut": clusters,
            "commons": [matrix.to_entries() for matrix in commons],
            "dbscan": {"clusters": db_clusters, "noise": noise},
        }

    def probe(self, seqs, result, tr):
        points, _, clusters, _, _, _ = result
        tr.count("baselines.distinct_points", len({p.rows for p in points.points}))
        tr.count("baselines.clusters", len(clusters))

    def check(self, answer, pairs):
        events = [e for e, _ in pairs]
        points = [checks.order_rows(e, J5) for e in events]
        problems = checks.check_dendrogram(answer["merges"], points, 2, answer["cut"])
        expected = [checks.common_rows([events[i] for i in c], J5) for c in answer["cut"]]
        if [checks.pack(m) for m in answer["commons"]] != expected:
            problems.append("per-cluster common matrices are wrong")
        db = answer["dbscan"]
        return problems + checks.check_dbscan(db["clusters"], db["noise"], points, 2)


class CliPipeline:
    """The README's command chain, one fresh interpreter per step."""

    name = "cli-pipeline"
    catalogs = (J5,)
    sizes = {"steps": 7, "wins": 125, "corrupted": 0.10, "mixed": 150,
             "labels": "J5", "t": 90, "r": 2, "cut": 2, "eps": 2}
    rss_of = "children"

    def generate(self, seed, run_dir, tracer):
        """The reference episodes each simulate/corrupt step must reproduce."""
        params = {name: derive(seed, name) for name in ("wins", "corrupt", "mixed")}
        with tracer.span("game.simulate"):
            wins = simulate(v2_config(seed=params["wins"]), 125, "scripted-mixed")
            mixed = simulate(v2_config(seed=params["mixed"]), 150, "random")
        with tracer.span("game.corrupt"):
            noisy = corrupt(wins, 0.10, params["corrupt"])
        with open(os.path.join(run_dir, "params.json"), "w", encoding="utf-8") as handle:
            json.dump(params, handle)
        return {"params": params, "wins": episode_pairs(wins),
                "noisy": episode_pairs(noisy), "mixed": episode_pairs(mixed)}

    def load(self, run_dir):
        with open(os.path.join(run_dir, "params.json"), encoding="utf-8") as handle:
            params = json.load(handle)
        return {"params": params, "run_dir": run_dir, "count": 0,
                "env": dict(os.environ, PYTHONPATH=SRC)}

    def steps(self, params):
        labels = ",".join(J5)
        return [
            ("simulate", ["simulate", "--version", "2", "--episodes", "125",
                          "--seed", str(params["wins"]), "--out", "wins.jsonl"]),
            ("corrupt", ["corrupt", "--in", "wins.jsonl", "--fraction", "0.10",
                         "--seed", str(params["corrupt"]), "--out", "noisy.jsonl"]),
            ("mine", ["mine", "--in", "noisy.jsonl", "--labels", labels,
                      "--t", "90", "--r", "2", "--dot", "diagrams"]),
            ("simulate_random", ["simulate", "--version", "2", "--episodes", "150",
                                 "--seed", str(params["mixed"]), "--policy", "random",
                                 "--out", "mixed.jsonl"]),
            ("relevance", ["relevance", "--in", "mixed.jsonl"]),
            ("baseline_hier", ["baseline", "--algo", "hier", "--in", "mixed.jsonl",
                               "--labels", labels, "--threshold", "2", "--out", "hier"]),
            ("baseline_dbscan", ["baseline", "--algo", "dbscan", "--in", "mixed.jsonl",
                                 "--labels", labels, "--eps", "2", "--out", "dbscan"]),
        ]

    def task(self, state, tr):
        state["count"] += 1
        work = os.path.join(state["run_dir"], f"task{state['count']}")
        os.mkdir(work)
        results = []
        for name, argv in self.steps(state["params"]):
            with tr.span(f"cli.{name}"):
                proc = subprocess.run(
                    [sys.executable, "-m", "hassemine.cli", *argv],
                    cwd=work, env=state["env"], capture_output=True, timeout=120,
                )
            results.append((name, proc.returncode, proc.stdout.decode()))
        return work, results

    def answer(self, result):
        work, results = result
        files = {}
        for folder, _, names in os.walk(work):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    files[os.path.relpath(path, work).replace(os.sep, "/")] = handle.read()
        shutil.rmtree(work)
        return {
            "exit": {name: code for name, code, _ in results},
            "stdout": {name: out for name, _, out in results},
            "files": dict(sorted(files.items())),
        }

    def probe(self, state, result, tr):
        with tr.span("cli.startup"):
            subprocess.run([sys.executable, "-c", "import hassemine.cli"],
                           env=state["env"], check=True, timeout=120)

    def check(self, answer, ref):
        problems = [f"step {name} exited {code}" for name, code in answer["exit"].items() if code]
        if problems:
            return problems
        files = answer["files"]

        def events_of(name):
            rows = [json.loads(line) for line in files[name].splitlines()]
            return [(tuple(r["events"]), r["label"]) for r in rows if "events" in r]

        wins, noisy, mixed = (events_of(n) for n in ("wins.jsonl", "noisy.jsonl", "mixed.jsonl"))
        for name, got in (("wins", wins), ("noisy", noisy), ("mixed", mixed)):
            if got != [(tuple(e), label) for e, label in ref[name]]:
                problems.append(f"{name}.jsonl differs from the in-process episodes")
        changed = [a for a, b in zip(wins, noisy) if a != b]
        if len(changed) != 13 or any(abs(len(a[0]) - len(b[0])) > 1 for a, b in zip(wins, noisy)):
            problems.append("corrupt did not mutate exactly 13 sequences by one op each")
        stdout = answer["stdout"]
        payload = json.loads(stdout["mine"])
        problems += checks.check_mine(payload, [e for e, _ in noisy], J5, 90, 2)
        n_dot = sum(name.startswith("diagrams/") for name in files)
        if n_dot != sum(len(c["matrices"]) for c in payload["clusters"]):
            problems.append("one DOT file per mined matrix expected")
        rel = [line.split(",") for line in stdout["relevance"].splitlines()]
        if rel[0] != ["i", "j", "W", "L", "R"]:
            problems.append("relevance CSV header is wrong")
        n_win = sum(label for _, label in mixed)
        rows = [[a, b, int(w), int(lose), r] for a, b, w, lose, r in rel[1:]]
        problems += checks.check_relevance(n_win, len(mixed) - n_win, rows, mixed, UNIVERSE)
        events = [e for e, _ in mixed]
        points = [checks.order_rows(e, J5) for e in events]
        for algo in ("hier", "dbscan"):
            lines = stdout[f"baseline_{algo}"].splitlines()
            assignment = [int(line.split(",")[1]) for line in lines[1:]]
            clusters = [[i for i, c in enumerate(assignment) if c == k]
                        for k in range(max(assignment) + 1)]
            problems += [f"{algo}: {p}" for p in checks.check_partition(clusters, len(mixed))]
            for k, members in enumerate(clusters):
                text = files.get(f"{algo}/cluster_{k}.csv", "")
                matrix = [[int(c) for c in row.split(",")] for row in text.splitlines()[1:]]
                if checks.pack(matrix) != checks.common_rows([events[i] for i in members], J5):
                    problems.append(f"{algo}: common matrix of cluster {k} is wrong")
            if algo == "dbscan":
                problems += checks.check_dbscan(clusters, [], points, 2)
            elif any(assignment[i] != assignment[j] for i in range(len(points))
                     for j in range(i) if points[i] == points[j]):
                problems.append("hier: equal points fall in different clusters")
        return problems


WORKLOADS = {wl.name: wl for wl in (PaperR3(), IngestJ6(), Linkage300(), CliPipeline())}
