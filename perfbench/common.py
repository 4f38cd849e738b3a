"""Shared helpers of the benchmark: statistics, resource readings,
the run record and the per-operation loop of sequential workloads."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

#: Set-up is repeated this many times per run; ``setup_s`` is the
#: median (the smoke mode sets up once).
SETUP_REPEATS = 3


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """90th percentile, interpolated between the two nearest ranks."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def rusage_cpu_seconds() -> float:
    """CPU seconds of this process (all threads) and of its waited-for
    children (pool workers), user plus system."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, or the larger of it and its
    largest waited-for child, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def proc_status_kb(pid: int, field: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(field)


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of another process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def blas_version() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:           # older numpy: no dict mode
        return "unknown"


def host_probe_ms(rounds: int = 7) -> float:
    """Median milliseconds of a fixed pure-Python loop.  The loop does
    not touch the program, so it is a control: when it reads slower
    together with a workload, the host ran slower, not the code."""
    seconds = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        seconds.append(time.perf_counter() - start)
    return 1000 * median(seconds)


def cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``: the
    time the hypervisor ran something else while this machine's CPUs
    had work."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def run_record(seed: int) -> Dict[str, object]:
    """What a run must record besides its metrics."""
    import numpy
    from repro.batch.cachestore import code_version_salt
    return {"seed": seed, "nproc": nproc(),
            "loadavg_before": [round(x, 2) for x in os.getloadavg()],
            "host_probe_ms_before": round(host_probe_ms(), 2),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_version(),
            "code_version_salt": code_version_salt()}


def repeat_setup(setup: Callable[[], None], repeats: int) -> float:
    """Run ``setup`` ``repeats`` times; median seconds.  The last
    repetition's state is the one the timed window uses."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        setup()
        seconds.append(time.perf_counter() - start)
    return median(seconds)


@dataclass
class OpSample:
    """One operation of a sequential workload."""

    seconds: float
    ok: bool
    results: int
    cpu_seconds: float
    traced: bool
    layers: Dict[str, float]


def sequential_window(op: Callable[[], Tuple[float, bool, int,
                                             Dict[str, float]]],
                      seconds: float, tracer=None) -> List[OpSample]:
    """Run ``op`` back to back until ``seconds`` have passed.

    ``op`` returns ``(op seconds, correct, results, layer metrics)``.
    With a tracer, operations alternate untraced / traced, so one run
    yields both the per-layer numbers and the tracing overhead."""
    from tracing import layer_metrics

    samples: List[OpSample] = []
    start = time.perf_counter()
    minimum = 2 if tracer is not None else 1
    while len(samples) < minimum or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(samples) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
            tracer.drain()
        cpu_start = rusage_cpu_seconds()
        op_seconds, ok, results, layers = op()
        cpu = rusage_cpu_seconds() - cpu_start
        if traced:
            layers = {**layer_metrics(tracer.drain()), **layers}
        samples.append(OpSample(op_seconds, ok, results, cpu, traced,
                                layers))
    return samples


def sequential_metrics(samples: List[OpSample], setup_s: float,
                       rss_mb: float, trace: bool) -> Dict[str, float]:
    """End-to-end metrics (untraced run) or per-layer metrics (traced
    run) of a sequential workload; every figure is a median over
    operations."""
    plain = [s for s in samples if not s.traced]
    latencies = [s.seconds for s in plain if s.ok]
    if not trace:
        p50 = median(latencies)
        return {"latency_p50_ms": 1000 * p50,
                "latency_p90_ms": 1000 * p90(latencies),
                "results_per_s": (median([s.results for s in plain]) / p50
                                  if p50 else 0.0),
                "peak_rss_mb": rss_mb, "setup_s": setup_s}
    traced = [s for s in samples if s.traced]
    names = sorted({name for s in traced for name in s.layers})
    metrics = {name: median([s.layers.get(name, 0.0) for s in traced])
               for name in names}
    traced_p50 = median([s.seconds for s in traced if s.ok])
    plain_p50 = median(latencies)
    metrics["cpu_per_op_s"] = median([s.cpu_seconds for s in plain])
    metrics["tracing_overhead_pct"] = (
        100.0 * (traced_p50 / plain_p50 - 1.0) if plain_p50 else 0.0)
    return metrics
