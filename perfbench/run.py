"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload paper-r3 --seed 0 --seconds 18 --trace 0

Run from the repository root. The package is imported from ./src, never
from an installed copy. Inputs are generated from the seed before any
timing; the tasks run in a worker process (see worker.py), in segments
between which set-up is timed in fresh interpreters; every answer is
checked against brute-force code (checks.py) and, on the seed recorded in
digests.json, against the answers of the code the benchmark was written
for.

The second-to-last line of stdout is a JSON record of the environment and
a summary (sample counts, tail percentile, error rate). The last line is
the result: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, measured in a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170
SEGMENTS = 5


class BenchError(Exception):
    """The harness itself failed: no result can be given."""


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with ten samples beyond it, by nearest rank."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": math.floor(100 * (n - 10) / n), "value": sorted(values)[n - 11]}


def commit() -> str:
    """The checked-out commit, marked "+dirty" when the tree has changes."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty" if status.strip() else "")


def cold_start(argv, env, deadline) -> dict:
    """Time one fresh interpreter that imports the package and builds the
    workload's catalogs."""
    began = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - began))
    except subprocess.TimeoutExpired:
        raise BenchError("cold start did not finish in time") from None
    wall = time.perf_counter() - began
    if proc.returncode:
        raise BenchError(f"cold start failed:\n{proc.stderr}")
    fields = proc.stdout.split()
    return {"wall": wall, "import": float(fields[0]), "catalog": float(fields[1]),
            "sizes": [int(f) for f in fields[2:]]}


def measure(wl, run_dir, seconds, trace, env, deadline) -> tuple[list[dict], dict]:
    """Set-up samples and the worker's result. The worker's `seconds` of
    tasks are cut into SEGMENTS; before each, cold starts run until they
    have taken 0.5 s (one to three of them), so that both metrics sample the
    whole run and one slow spell of the machine does not own either."""
    starter = [sys.executable, os.path.join(HERE, "cold_start.py")]
    starter += [",".join(labels) for labels in wl.catalogs]
    argv = [sys.executable, os.path.join(HERE, "worker.py"), wl.name, run_dir,
            "1" if trace else "0"]
    setups = []
    with open(os.path.join(run_dir, "worker.err"), "w+", encoding="utf-8") as err, \
            subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=err, text=True) as worker:
        watchdog = threading.Timer(deadline - time.perf_counter(), worker.kill)
        watchdog.start()
        try:
            for k in range(SEGMENTS + 1):
                if worker.stdout.readline().strip() != ("done" if k else "ready"):
                    worker.kill()
                    err.seek(0)
                    raise BenchError(f"worker failed:\n{err.read()}")
                if k == SEGMENTS:
                    break
                batch = []
                while not batch or (len(batch) < 3 and sum(s["wall"] for s in batch) < 0.5):
                    batch.append(cold_start(starter, env, deadline))
                setups += batch
                worker.stdin.write(f"{seconds * (k + 1) / SEGMENTS}\n")
                worker.stdin.flush()
            worker.stdin.close()
            if worker.wait():
                err.seek(0)
                raise BenchError(f"worker failed:\n{err.read()}")
        finally:
            watchdog.cancel()
            worker.kill()
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as handle:
        return setups, json.load(handle)


def judge(wl, result, inputs, expected) -> tuple[int, list[str]]:
    """Failed task count and the problems found, over every task's answer."""
    problems: dict[str, list[str]] = {}
    for digest, answer in result["answers"].items():
        try:
            found = wl.check(answer, inputs)
        except Exception as exc:  # a malformed answer is a failed check
            found = [f"check raised {exc!r}"]
        if expected is not None and digest != expected:
            found.append("answer differs from the one recorded for this seed")
        problems[digest] = found
    digests = result["digests"]
    usual = Counter(digests).most_common(1)[0][0] if digests else None
    bad = sum(1 for d in digests if problems[d] or d != usual)
    notes = result["errors"] + [p for found in problems.values() for p in found]
    if len(problems) > 1:
        notes.append(f"{len(problems)} different answers to the same input")
    return len(result["errors"]) + bad, notes


def layer_metrics(spec, wl, setups, result, gen_spans) -> dict:
    spans = result["spans"]
    traced, untraced = result["traced_task_s"], result["task_s"]
    known = {
        "enumeration.catalog_build_s": median([s["catalog"] for s in setups]) if wl.catalogs else 0.0,
        "enumeration.catalog_size": sum(setups[0]["sizes"]),
        "trace.task_s": median(traced),
        "trace.task_self_s": median(tracing.self_times(spans, "task")),
        "trace.overhead_s": median(traced) - median(untraced),
        **result["counts"],
    }
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in known:
            value = known[name]
        elif name.endswith("_s"):
            value = median(tracing.per_task_totals(spans + gen_spans, name[:-2]))
        else:
            value = 0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "hassemine", "__init__.py")):
        raise BenchError(f"no package source under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import hassemine

    if not os.path.abspath(hassemine.__file__).startswith(SRC + os.sep):
        raise BenchError("hassemine was imported from outside ./src")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)
    expected = recorded["answers"].get(wl.name) if args.seed == recorded["seed"] else None
    env = dict(os.environ, PYTHONPATH=SRC)
    gen_tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as run_dir:
        inputs = wl.generate(args.seed, run_dir, gen_tracer)
        setups, result = measure(wl, run_dir, args.seconds, args.trace, env, deadline)
    failed, notes = judge(wl, result, inputs, expected)
    attempted = result["attempted"]

    if args.trace:
        metrics = layer_metrics(spec, wl, setups, result, gen_tracer.spans)
        trace_path = os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"generation": gen_tracer.spans, "worker": result["spans"],
                       "counts": result["counts"]}, handle)
    else:
        values = {
            "task_s": median(result["task_s"]),
            "setup_s": median([s["wall"] for s in setups]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    env_info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes,
    }
    times = result["traced_task_s"] if args.trace else result["task_s"]
    summary = {
        "task_s": {"median": median(times), "samples": len(times), "tail": tail(times),
                   "values": times},
        "setup_s": {"median": median([s["wall"] for s in setups]), "samples": len(setups)},
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": failed / attempted,
        "answers": sorted(result["answers"]),
        "problems": notes[:20],
    }
    print(json.dumps({"env": env_info, "summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
