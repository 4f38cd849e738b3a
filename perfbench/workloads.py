"""The four benchmark workloads, driven through the public entry points.

Each workload has a ``setup`` (repeated; see ``common.SETUP_REPEATS``)
and a ``window(seconds, trace, setup_s)`` that measures for ``seconds``
and returns ``(metrics, attempted, failed)``.  See ``README.md`` for why
each workload was chosen and which layers it exercises.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import repro.batch
import repro.lang
import repro.serve.client
import repro.wcet
import repro.workloads.suite
from repro.batch import compare_rows, flatten_golden, load_golden
from repro.batch.cachestore import ArtifactCache
from repro.sim.cpu import Simulator
from repro.wcet.ait import analyze_loop_annotations
from repro.workloads.synthetic import generate_large_source

from common import (median, nproc, p90, peak_rss_mb,
                    proc_cpu_seconds, proc_status_kb, sequential_metrics,
                    sequential_window)
from edits import edit_source
from tracing import layer_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: The full suite matrix: 19 workloads x 3 policies x 2 models.
MATRIX = "all:all:all"


class Workload:
    """Common state: repository root, seed, scratch directory, and
    the checks made during set-up."""

    name = ""

    def __init__(self, root: str, seed: int, work_dir: str,
                 tracer=None):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        #: Set-up check name -> failure message, or None when it passed.
        #: Repeated set-ups make the same checks; each counts once, and
        #: one that fails in any repetition stays failed.
        self.setup_checks: Dict[str, Optional[str]] = {}

    def check(self, name: str, ok: bool, failure: str = "") -> None:
        """Record the outcome of one set-up check."""
        if not ok:
            self.setup_checks[name] = failure or name
        else:
            self.setup_checks.setdefault(name, None)

    def close(self) -> None:
        """Release what set-up left running (servers, directories)."""


class LargeWcet(Workload):
    """One in-process ``analyze_wcet`` of the 2,750-instruction
    synthetic point per operation, without an artifact cache."""

    name = "large_wcet"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        with open(os.path.join(self.root, "BENCH_fixpoint.json")) as handle:
            runs = json.load(handle)["runs"]
        self.pinned = next(point["wcet_cycles"]
                           for point in runs[-1]["points"]
                           if point.get("kind") == "large")
        self.program = None
        self.observed: Optional[int] = None

    def setup(self) -> None:
        self.program = repro.lang.compile_program(generate_large_source())
        bound = repro.wcet.analyze_wcet(self.program).wcet_cycles
        self.check("large bound equals the pin", bound == self.pinned,
                   f"large bound {bound} != pinned {self.pinned}")
        if self.observed is None:
            self.observed = Simulator(self.program).run(
                max_steps=5_000_000).cycles
        self.check("large bound covers the simulator",
                   bound >= self.observed,
                   f"large bound {bound} < simulated {self.observed}")

    def op(self):
        start = time.perf_counter()
        result = repro.wcet.analyze_wcet(self.program)
        seconds = time.perf_counter() - start
        return seconds, result.wcet_cycles == self.pinned, 1, {}

    def window(self, seconds: float, trace: bool, setup_s: float):
        samples = sequential_window(self.op, seconds, self.tracer)
        metrics = sequential_metrics(samples, setup_s,
                                     peak_rss_mb(False), trace)
        return metrics, len(samples), sum(not s.ok for s in samples)


class BatchSweep(Workload):
    """One full-matrix ``sweep_suite`` at ``parallel=nproc`` per
    operation: into a fresh cache directory (cold), or over the
    directory set-up filled (warm)."""

    def __init__(self, root, seed, work_dir, tracer=None, warm=False):
        super().__init__(root, seed, work_dir, tracer)
        self.warm = warm
        self.name = "batch_warm" if warm else "batch_cold"
        self.golden = load_golden(
            os.path.join(root, "tests", "golden_bounds.json"))
        self.points = set(flatten_golden(self.golden))
        self.cache_dir: Optional[str] = None

    def _fresh_dir(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-",
                                          dir=self.work_dir)

    def setup(self) -> None:
        self._fresh_dir()
        if self.warm:
            # The cache-filling sweep runs on one worker: with nproc
            # workers and the parent sharing nproc CPUs it took 1.7 to
            # 3.5 s from one run to the next, and the set-up medians of
            # two sets of ten runs differed by a fifth.
            repro.batch.clear_process_caches()
            fill = repro.workloads.suite.sweep_suite(
                MATRIX, parallel=1, cache_dir=self.cache_dir)
            mismatches = self.mismatches(fill.rows)
            self.check("cache-filling sweep matches golden", not mismatches,
                       "; ".join(mismatches[:5]))
        _, ok, _, _ = self.op()
        self.check(f"{self.name} warm-up op", ok)

    def mismatches(self, rows: List[dict]) -> List[str]:
        """``compare_rows`` against the golden bounds, which checks
        only the rows present, plus one row for every golden point."""
        problems = compare_rows(rows, self.golden)
        seen = {(row["workload"], row["policy"], row["model"])
                for row in rows}
        if len(rows) != len(self.points) or seen != self.points:
            problems.append(f"{len(rows)} rows cover "
                            f"{len(seen & self.points)} of "
                            f"{len(self.points)} golden points")
        return problems

    def op(self):
        if not self.warm:
            self._fresh_dir()
        repro.batch.clear_process_caches()
        start = time.perf_counter()
        result = repro.workloads.suite.sweep_suite(
            MATRIX, parallel=nproc(), cache_dir=self.cache_dir)
        seconds = time.perf_counter() - start
        ok = not self.mismatches(result.rows)
        return (seconds, ok, len(result.rows) - len(result.errors),
                scheduler_metrics(result.scheduler))

    def window(self, seconds: float, trace: bool, setup_s: float):
        samples = sequential_window(self.op, seconds, self.tracer)
        metrics = sequential_metrics(samples, setup_s,
                                     peak_rss_mb(True), trace)
        return metrics, len(samples), sum(not s.ok for s in samples)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def scheduler_metrics(stats: dict) -> Dict[str, float]:
    """Per-layer metrics of the DAG scheduler from its sweep stats."""
    wall = stats["wall_seconds"]
    fractions = list(stats["worker_busy_fraction"].values())
    return {
        "scheduler.tasks_computed": stats["computed_tasks"],
        "scheduler.tasks_deduped": stats["deduped_tasks"],
        "scheduler.tasks_cache_served": stats["cache_served_tasks"],
        "scheduler.retries": stats["retries"],
        "scheduler.degraded_tasks": stats["degraded_tasks"],
        "scheduler.busy_fraction": (sum(fractions) / stats["workers"]
                                    if fractions else 0.0),
        "scheduler.overhead_s": wall * (stats["workers"] - sum(fractions)),
        "cachestore.memo_mb": stats["memo"]["bytes"] / 2 ** 20,
    }


class ServeMixed(Workload):
    """A ``repro serve`` subprocess driven by one closed-loop client
    through ``repro.serve.client.analyze``: 80% repeats of programs
    the server already answered, 20% seeded single-literal edits of
    suite kernels it has never seen.

    One client, not ``nproc``: with two, a repeat often waits on the
    server behind an edit and misses the first poll, so the repeats'
    latencies split into two modes 25-50 ms apart (the poll backoff),
    and p50 jumped between them as the host's load shifted the share
    in each.  With one client the repeats form a single mode."""

    name = "serve_mixed"
    #: Every block of ``BLOCK`` consecutive requests holds exactly
    #: ``EDITS_PER_BLOCK`` edits (new binaries) at seeded places, and
    #: edits visit the kernels in rounds of seeded order.  So every run
    #: sends the same mix, and the seed sets only its order and the
    #: literals edited.
    BLOCK = 10
    EDITS_PER_BLOCK = 2
    #: A repeat may pick an edit only once it is this many requests
    #: old, so the server has answered it before.
    REPEAT_LAG = 8
    #: Client-side deadline of one request.
    REQUEST_TIMEOUT = 60.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        suite = repro.workloads.suite
        self.kernels = suite.workload_names()
        self.sources = {name: suite.get_workload(name).source
                        for name in self.kernels}
        self.loop_bounds: Dict[str, Dict[str, int]] = {}
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.spill_dir = os.path.join(self.work_dir, "server-spans")
        os.makedirs(self.spill_dir, exist_ok=True)
        self._next = 0
        #: (kernel, source, index) of every edit issued so far.
        self._edits: List[Tuple[str, str, int]] = []

    # -- Requests -------------------------------------------------------

    def _payload(self, kernel: str, source: str) -> dict:
        payload = {"source": source, "label": kernel}
        if kernel in self.loop_bounds:
            payload["loop_bounds"] = self.loop_bounds[kernel]
        return payload

    def next_request(self) -> Tuple[int, dict, bool]:
        """The next request of the seeded sequence: ``(index,
        payload, is_edit)``.  The sequence depends only on the seed."""
        index = self._next
        self._next += 1
        rng = random.Random(f"{self.seed}:{index}")
        block, place = divmod(index, self.BLOCK)
        edit_places = sorted(
            random.Random(f"{self.seed}:block:{block}").sample(
                range(self.BLOCK), self.EDITS_PER_BLOCK))
        if place in edit_places:
            edit = (block * self.EDITS_PER_BLOCK
                    + edit_places.index(place))
            round_, turn = divmod(edit, len(self.kernels))
            kernel = random.Random(f"{self.seed}:round:{round_}").sample(
                self.kernels, len(self.kernels))[turn]
            source = edit_source(self.sources[kernel], rng)
            self._edits.append((kernel, source, index))
            return index, self._payload(kernel, source), True
        answered = [(k, s) for k, s, i in self._edits
                    if i <= index - self.REPEAT_LAG]
        pick = rng.randrange(len(self.kernels) + len(answered))
        if pick < len(self.kernels):
            kernel = self.kernels[pick]
            source = self.sources[kernel]
        else:
            kernel, source = answered[pick - len(self.kernels)]
        return index, self._payload(kernel, source), False

    # -- Server ---------------------------------------------------------

    def _start_server(self) -> None:
        command = ["serve", "--port", "0", "--workers", str(nproc())]
        if self.tracer is not None:
            command = [sys.executable,
                       os.path.join(BENCH_DIR, "serve_traced.py"),
                       self.spill_dir] + command
        else:
            command = [sys.executable, "-m", "repro"] + command
        source_dir = os.path.join(self.root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_dir, env.get("PYTHONPATH")]))
        log = open(os.path.join(self.work_dir, "serve.log"), "a")
        try:
            self.server = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True)
        finally:
            log.close()
        deadline = time.monotonic() + 60
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        line = self.server.stdout.readline() if ready else ""
        match = re.search(r"http://([^:\s]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = f"http://{match.group(1)}:{match.group(2)}"
        while True:
            try:
                repro.serve.client.server_stats(self.url, timeout=5)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        # SIGTERM, not SIGINT: a process started in the background by a
        # shell inherits SIGINT ignored, and Python then never raises
        # KeyboardInterrupt.
        self.server.terminate()
        try:
            self.server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    def setup(self) -> None:
        if not self.loop_bounds:
            # The manual annotations an aiT user sends along: the
            # workload's documented bounds on the loops the analysis
            # reports unbounded.  Edits keep the code layout, so they
            # apply to every edit of the kernel.
            suite = repro.workloads.suite
            for kernel in self.kernels:
                workload = suite.get_workload(kernel)
                if not workload.manual_bounds_in_order:
                    continue
                program = workload.compile()
                manual = suite.derive_manual_bounds(
                    workload, analyze_loop_annotations(program))
                if manual:
                    self.loop_bounds[kernel] = {
                        f"0x{address:x}": bound
                        for address, bound in manual.items()}
        self._stop_server()
        self._start_server()
        # Warm-up: every kernel once, so repeats find answered programs.
        payloads = [self._payload(kernel, self.sources[kernel])
                    for kernel in self.kernels]
        for payload in payloads:
            record = repro.serve.client.analyze(
                self.url, payload, timeout=self.REQUEST_TIMEOUT)
            self.check(f"warm-up {record.get('label')}",
                       record.get("status") == "done",
                       f"warm-up {record.get('label')}: {record}")

    def close(self) -> None:
        self._stop_server()

    # -- Timed window ---------------------------------------------------

    def window(self, seconds: float, trace: bool, setup_s: float):
        samples: List[dict] = []
        if self.tracer is not None:
            self.tracer.drain()         # the client spans of set-up
        cpu_start = proc_cpu_seconds(self.server.pid)
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            index, payload, is_edit = self.next_request()
            sent = time.perf_counter()
            try:
                record = repro.serve.client.analyze(
                    self.url, payload, timeout=self.REQUEST_TIMEOUT)
            except Exception as exc:    # counted as a failed request
                record = {"status": "error", "error": repr(exc)}
            samples.append({
                "index": index, "payload": payload, "edit": is_edit,
                "sent": sent, "received": time.perf_counter(),
                "record": record})
        end = time.perf_counter()
        server_cpu = proc_cpu_seconds(self.server.pid) - cpu_start
        rss_mb = proc_status_kb(self.server.pid, "VmHWM") / 1024.0
        failed = self._check_answers(samples)
        done = [s for s in samples if s["record"].get("status") == "done"
                and s["ok"]]
        if not trace:
            latencies = [s["received"] - s["sent"] for s in done]
            metrics = {"latency_p50_ms": 1000 * median(latencies),
                       "latency_p90_ms": 1000 * p90(latencies),
                       "results_per_s": len(done) / (end - start),
                       "peak_rss_mb": rss_mb, "setup_s": setup_s}
            return metrics, len(samples), failed
        self.server.send_signal(signal.SIGUSR2)
        metrics = self._layer_metrics(done, start, end)
        metrics["cpu_per_op_s"] = server_cpu / len(done) if done else 0.0
        return metrics, len(samples), failed

    def _check_answers(self, samples: List[dict]) -> int:
        """Compare every answer with an in-process ``analyze_wcet`` of
        the same request (outside the timed window, untraced); sets
        each sample's ``ok`` and returns the number of failed
        requests."""
        if self.tracer is not None:
            self.tracer.enabled = False
        cache = ArtifactCache(None)
        expected: Dict[str, int] = {}
        failed = 0
        for sample in samples:
            payload = sample["payload"]
            key = json.dumps(payload, sort_keys=True)
            if key not in expected:
                bounds = {int(address, 16): bound for address, bound
                          in payload.get("loop_bounds", {}).items()}
                program = repro.lang.compile_program(payload["source"])
                expected[key] = repro.wcet.analyze_wcet(
                    program, manual_loop_bounds=bounds or None,
                    phase_cache=cache).wcet_cycles
            record = sample["record"]
            sample["ok"] = (record.get("status") == "done"
                            and record["rows"][0].get("wcet_cycles")
                            == expected[key])
            failed += not sample["ok"]
        return failed

    def _server_spans(self, start: float, end: float) -> List[dict]:
        """The traced server's spans of the window ``[start, end]``,
        once it has written them (it does on ``SIGUSR2``; see
        ``serve_traced.py``).  ``time.perf_counter`` reads the same
        monotonic clock in both processes, so this drops the spans of
        set-up's warm-up requests and of later ``/stats`` calls."""
        done = os.path.join(self.spill_dir, "done")
        deadline = time.monotonic() + 30
        while not os.path.exists(done):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.05)
        spans: List[dict] = []
        for name in os.listdir(self.spill_dir):
            if name.startswith("spans-"):
                with open(os.path.join(self.spill_dir, name)) as handle:
                    spans += [json.loads(line) for line in handle]
        return [span for span in spans
                if start <= span["start"] and span["end"] <= end]

    def _layer_metrics(self, requests: List[dict], start: float,
                       end: float) -> Dict[str, float]:
        """Per-request layer metrics of the window: server-side span
        totals divided by the requests answered, plus client-side
        medians of submit, poll and wait."""
        count = max(1, len(requests))
        server = layer_metrics(self._server_spans(start, end))
        metrics = {name: value / count for name, value in server.items()
                   if not name.endswith("hit_ratio")}
        metrics["cachestore.hit_ratio"] = server["cachestore.hit_ratio"]
        stats = repro.serve.client.server_stats(self.url)
        metrics["cachestore.memo_mb"] = \
            stats["cache"]["memo"]["bytes"] / 2 ** 20
        client_spans = self.tracer.drain()
        submits = [s for s in client_spans if s["name"] == "serve.submit"]
        polls = sum(s.get("poll", 0) for s in client_spans
                    if s["name"] == "serve.request")
        overshoot = []
        for request in requests:
            submit = next((s for s in submits
                           if request["sent"] <= s["start"]
                           <= request["received"]), None)
            if submit is None:
                continue
            latency = request["received"] - request["sent"]
            overshoot.append(latency - (submit["end"] - submit["start"])
                             - request["record"]["wall_seconds"])
        hits = sum(r["record"]["cache"]["hits"] for r in requests)
        lookups = hits + sum(r["record"]["cache"]["misses"]
                             for r in requests)
        metrics.update({
            "serve.submit_ms": 1000 * median(
                [s["end"] - s["start"] for s in submits]),
            "serve.polls_per_request": polls / count,
            "serve.job_ms": 1000 * median(
                [r["record"]["wall_seconds"] for r in requests]),
            "serve.wait_overshoot_ms": 1000 * median(overshoot),
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        })
        return metrics


WORKLOADS = {
    "large_wcet": LargeWcet,
    "batch_cold": lambda *a, **k: BatchSweep(*a, warm=False, **k),
    "batch_warm": lambda *a, **k: BatchSweep(*a, warm=True, **k),
    "serve_mixed": ServeMixed,
}
