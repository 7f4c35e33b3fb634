"""Run the benchmark on every workload and print one table; also the self-check.

    python3 perfbench/report.py                       # one run per workload
    python3 perfbench/report.py --trace               # plus one traced run each
    python3 perfbench/report.py --runs 10 --sets 2    # self-check

Each run is `run.py` in its own process, started as BENCHMARK.json's
command for every workload it lists, for run_seconds; run k of every set
uses seed `--seed-base + k`, and workloads take turns so that a slow spell
of the machine is shared between them. For every workload and end-to-end
metric the table gives each set's median and quartiles
(`statistics.quantiles(values, n=4)`) and its spread, the interquartile
range as a share of the median. With two sets, the self-check passes when
every spread is within the metric's bound and no second median is worse
than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, trace) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, second) -> float:
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="one traced run per workload")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for k in range(args.runs):
            for w in workloads:
                record = run_once(w, args.seed_base + k, False)
                runs[w][s].append(record)
                res = record["result"]
                print(f"# set {s + 1} run {k + 1} {w}: correct={res['correct']} "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    traced = {w: run_once(w, args.seed_base, True) for w in workloads} if args.trace else {}

    env = runs[workloads[0]][0][0]["env"]
    print(f"python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, "
          f"seeds {args.seed_base}..{args.seed_base + args.runs - 1}, "
          f"run_seconds {spec['run_seconds']}")
    print()
    head = "| workload | metric | unit |" + "".join(
        f" set {s + 1}: median [q1, q3] spread |" for s in range(args.sets))
    print(head + (" within bound |" if args.sets == 2 else ""))
    print("|---" * (head.count("|") - 1 + (args.sets == 2)) + "|")
    verdict = True
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, ok = [], [], True
            for s in range(args.sets):
                values = [r["result"]["metrics"][name]["value"] for r in runs[w][s]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                medians.append(q2)
                ok &= spread <= bound
                cells.append(f" {q2:.4g} [{q1:.4g}, {q3:.4g}] {spread:.3f} |")
            row = f"| {w} | {name} | {metric['unit']} |" + "".join(cells)
            if args.sets == 2:
                change = worse_by(metric, *medians)
                ok &= change <= bound
                verdict &= ok
                row += f" {'yes' if ok else 'NO'} (bound {bound}, second worse by {change:+.3f}) |"
            print(row)
    print()
    for w in workloads:
        records = [r for s in runs[w] for r in s]
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        samples = [r["summary"]["task_s"]["samples"] for r in records]
        verdict &= failed == 0
        print(f"{w}: error_rate {failed}/{attempted} = {failed / attempted:.3g}, "
              f"task_s samples per run {min(samples)}..{max(samples)}")
    for w, record in traced.items():
        print()
        print(f"{w}, traced run (seed {args.seed_base}), per-layer metrics:")
        for name, value in record["result"]["metrics"].items():
            print(f"  {name} = {value['value']:.6g} {value['unit']}")
    if args.sets == 2:
        print()
        print("self-check:", "no errors, and the two sets agree within every bound"
              if verdict else "FAILED: errors, or the two sets disagree beyond a bound")
    return 0 if verdict else 1


if __name__ == "__main__":
    raise SystemExit(main())
