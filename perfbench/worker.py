"""Worker process: runs one workload's tasks, in segments that run.py sets.

    python3 worker.py <workload> <run_dir> <trace 0|1>

It builds the catalogs the tasks read and loads the inputs, both off the
clock, and prints "ready". Each line it then reads on stdin is a point on
the task clock (seconds spent in segments so far): it runs one task at a
time until that point has passed (a closed loop with a single caller) and
prints "done". Between segments run.py times set-up in fresh interpreters,
so that set-up and task samples share the same stretch of the machine's
time. At end of input the result goes to <run_dir>/result.json.

With tracing on, tasks alternate between untraced and traced, so the two
medians give the tracing overhead, and each traced task is followed by its
workload's companion calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import tracing
from hassemine import LabelTable, enumerate_category
from workloads import WORKLOADS


class Runner:
    def __init__(self, wl, state, trace):
        self.wl, self.state, self.trace = wl, state, trace
        self.tracer = tracing.Tracer() if trace else tracing.NullTracer()
        self.attempted = 0
        self.untraced_s, self.traced_s, self.digests, self.answers, self.errors = [], [], [], {}, []

    def run_task(self) -> None:
        wl, tracer = self.wl, self.tracer
        traced = self.trace and self.attempted % 2 == 1
        tr = tracer if traced else tracing.NullTracer()
        tracer.task = self.attempted
        self.attempted += 1
        began = time.perf_counter()
        try:
            with tr.span("task"):
                result = wl.task(self.state, tr)
            elapsed = time.perf_counter() - began
            answer = wl.answer(result)
            if traced:
                with tracer.span("probe"):
                    wl.probe(self.state, result, tracer)
        except Exception as exc:  # a failing task is counted, and the run goes on
            self.errors.append(f"task {self.attempted - 1}: {exc!r}")
            return
        (self.traced_s if traced else self.untraced_s).append(elapsed)
        text = json.dumps(answer, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.digests.append(digest)
        self.answers.setdefault(digest, answer)


def main(argv) -> int:
    name, run_dir, trace = argv[0], argv[1], argv[2] == "1"
    wl = WORKLOADS[name]
    for labels in wl.catalogs:
        enumerate_category(LabelTable(labels))
    runner = Runner(wl, wl.load(run_dir), trace)
    print("ready", flush=True)

    busy = 0.0
    while line := sys.stdin.readline():
        until = float(line)
        began = time.perf_counter()
        while busy + time.perf_counter() - began < until:
            runner.run_task()
        busy += time.perf_counter() - began
        print("done", flush=True)
    # a traced run needs one untraced and one traced task
    while runner.attempted < (2 if trace else 1):
        runner.run_task()

    who = resource.RUSAGE_CHILDREN if wl.rss_of == "children" else resource.RUSAGE_SELF
    out = {
        "attempted": runner.attempted,
        "errors": runner.errors,
        "task_s": runner.untraced_s,
        "traced_task_s": runner.traced_s,
        "digests": runner.digests,
        "answers": runner.answers,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "spans": getattr(runner.tracer, "spans", []),
        "counts": getattr(runner.tracer, "counts", {}),
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
