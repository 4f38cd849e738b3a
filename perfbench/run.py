#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

Usage (from the root of a repository checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--smoke]

Workloads: ``large_wcet``, ``batch_cold``, ``batch_warm``,
``serve_mixed`` (see ``perfbench/README.md``).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` wraps each layer's public
functions and reports the per-layer metrics.  ``--smoke`` sets up once
and measures for at most two seconds.  Metric names and units come
from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every checked output was correct, 1 when one was wrong and
2 when the directory is not a repository checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD_NAMES = ("large_wcet", "batch_cold", "batch_warm", "serve_mixed")
#: Files of the repository the benchmark runs or checks against.
REQUIRED = ("src/repro/__init__.py", "tests/golden_bounds.json",
            "BENCH_fixpoint.json", "BENCHMARK.json")
#: End-to-end figures the table shows besides those BENCHMARK.json
#: declares.  They carry no bound: over runs of one code on a shared
#: host, the median op of the sequential workloads moved by more than
#: any bound allows (see README.md).
UNBOUNDED = {"latency_p50_ms": "ms", "results_per_s": "1/s"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="set up once and measure for <= 2 s")
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED
               if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"perfbench: {ROOT} is not a repository checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    # Unwind through the finally blocks below (which stop the server
    # and remove scratch files) when terminated.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # The client's poll jitter draws from the global generator.
    random.seed(args.seed)
    work_dir = tempfile.mkdtemp(prefix="run-",
                                dir=_make_dir(ROOT, ".perfbench_work"))
    os.environ["TMPDIR"] = tempfile.tempdir = work_dir
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        return _run(args, declared, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass                # another run still uses it


def _make_dir(*parts: str) -> str:
    path = os.path.join(*parts)
    os.makedirs(path, exist_ok=True)
    return path


def _run(args: argparse.Namespace, declared: dict, work_dir: str) -> int:
    import_start = time.perf_counter()
    import common
    import workloads
    import_s = time.perf_counter() - import_start

    record = common.run_record(args.seed)
    steal_start, total_start = common.cpu_jiffies()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(spill_dir=_make_dir(work_dir, "spans"))
        tracing.install(tracer)
    repeats = 1 if args.smoke else common.SETUP_REPEATS
    seconds = min(args.seconds, 2.0) if args.smoke else args.seconds

    workload = workloads.WORKLOADS[args.workload](
        ROOT, args.seed, work_dir, tracer)
    try:
        setup_s = import_s + common.repeat_setup(workload.setup, repeats)
        metrics, attempted, failed = workload.window(
            seconds, bool(args.trace), setup_s)
    finally:
        workload.close()
    # Each distinct set-up check counts once, as one more attempt.
    failures = [failure for failure in workload.setup_checks.values()
                if failure is not None]
    attempted += len(workload.setup_checks)
    failed += len(failures)

    shown = dict(declared) if args.trace else {**declared, **UNBOUNDED}
    unknown = sorted(set(metrics) - set(shown))
    if unknown:
        raise SystemExit(f"perfbench: undeclared metrics {unknown}")
    record["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    record["host_probe_ms_after"] = round(common.host_probe_ms(), 2)
    steal, total = common.cpu_jiffies()
    record["steal_pct"] = round(100 * (steal - steal_start)
                                / max(1, total - total_start), 2)
    record.update(workload=args.workload, trace=args.trace,
                  seconds=seconds, setup_repeats=repeats)
    print("run " + json.dumps(record, sort_keys=True))
    for failure in failures:
        print(f"FAILED check: {failure}")
    print(f"{'metric':<28} {'value':>14}  unit")
    for name, unit in shown.items():
        value = f"{metrics[name]:14.4f}" if name in metrics \
            else f"{'0 (not run)':>14}"
        note = "  (no bound)" if name not in declared else ""
        print(f"{name:<28} {value}  {unit}{note}")
    print(f"{'failed_ratio':<28} {failed / max(attempted, 1):14.4f}  ratio"
          f"  ({failed} of {attempted} ops and set-up checks)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
