#!/usr/bin/env python3
"""Smoke check of the benchmark (about two minutes).

Runs every workload in its short ``--smoke`` mode, untraced and traced,
plus ``serve_mixed`` on a second seed, and checks that:

* each run exits 0 and reports ``correct`` with no failed op;
* every metric ``BENCHMARK.json`` declares is emitted with its unit;
* every end-to-end metric is positive on every workload;
* every per-layer metric is non-zero on at least one workload, except
  the event counters in ``EXPECTED_ZERO``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the command exits non-zero without printing a result.

Usage, from the root of a checkout: ``python3 perfbench/smoke.py``.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("large_wcet", "batch_cold", "batch_warm", "serve_mixed")
#: Counters of events that do not happen on these workloads: every LP
#: relaxation is integral, and no task fails or needs the degraded
#: in-process executor.
EXPECTED_ZERO = {"ilp.bb_nodes", "scheduler.retries",
                 "scheduler.degraded_tasks"}


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "2", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    nonzero_layers = set()
    runs = [(w, 1, t) for w in WORKLOADS for t in (0, 1)]
    runs.append(("serve_mixed", 2, 0))
    for workload, seed, trace in runs:
        label = f"{workload} seed={seed} trace={trace}"
        before = len(problems)
        done = run(workload, seed, trace)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            problems.append(f"{label}: no result line; stderr: "
                            f"{done.stderr[-500:]}")
            continue
        if done.returncode != 0 or not result["correct"] \
                or result["failed"]:
            problems.append(f"{label}: exit {done.returncode}, "
                            f"{result['failed']} failed")
        declared = spec["per_layer" if trace else "end_to_end"]
        for entry in declared:
            metric = result["metrics"].get(entry["name"])
            if metric is None or metric["unit"] != entry["unit"]:
                problems.append(f"{label}: {entry['name']} missing or "
                                f"without unit {entry['unit']!r}")
            elif trace and metric["value"]:
                nonzero_layers.add(entry["name"])
            elif not trace and not metric["value"] > 0:
                problems.append(f"{label}: {entry['name']} is "
                                f"{metric['value']}")
        print(("ok " if len(problems) == before else "FAILED ") + label,
              flush=True)
    for entry in spec["per_layer"]:
        if entry["name"] not in nonzero_layers | EXPECTED_ZERO:
            problems.append(f"per-layer {entry['name']} is 0 everywhere")

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("large_wcet", 1, 0, cwd=bare)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("bare directory: the command did not refuse")
    finally:
        shutil.rmtree(bare)
        try:
            os.rmdir(scratch)
        except OSError:
            pass                # a concurrent run still uses it

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("ok" if not problems else
                       f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
