"""Span tracing around the public functions of each layer.

The traced run wraps every layer entry point at the name its callers
look it up under (a module attribute, or a method on its class), so
the program itself is unchanged: spans are recorded here, around the
calls into each layer.  A span records its name, start, end, process,
and the span that was open on the same thread when it started; a
layer's *self time* is its span's duration minus that of its child
spans.

Pool workers fork from the benchmark process after the patch and
inherit it.  They exit without running ``atexit`` hooks, so each forked
worker registers a ``multiprocessing`` finalizer, which the worker runs
when the pool shuts it down: it appends the worker's spans to
``<spill_dir>/spans-<pid>.jsonl``.  A sweep returns only after its pool
has joined every worker, so the benchmark drains those files after each
operation.  The traced ``repro serve`` launcher (``serve_traced.py``)
writes its spans the same way, on a signal.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


def _stats_attrs(stats) -> Dict[str, int]:
    return {"transfers": stats.transfers,
            "widenings": stats.widenings} if stats is not None else {}


def _ilp_attrs(result, args, kwargs) -> Dict[str, int]:
    stats = result.solver_stats
    if stats is None:
        return {}
    return {"pivots": stats.pivots,
            "phase1_pivots": stats.phase1_pivots,
            "bland_pivots": stats.bland_pivots,
            "refactorizations": stats.refactorizations,
            "bb_nodes": stats.bb_nodes}


def _store_attrs(result, args, kwargs) -> Dict[str, int]:
    # The cache memoises each stored artifact with the length of the
    # pickle it wrote; reading it back avoids pickling a second time.
    cache, key = args[0], args[1]
    entry = cache._memory.get(key)
    return {"bytes": entry[1] if entry is not None else 0}


def _request_attrs(result, args, kwargs) -> Dict[str, int]:
    url = args[0]
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    method = args[3] if len(args) > 3 else kwargs.get("method")
    return {"poll": int(payload is None and method is None
                        and "/jobs/" in url)}


#: (module, attribute path, span name, attribute extractor).  Each
#: entry is a name a caller resolves at call time, so patching it
#: routes that caller through the span.
PATCHES = [
    ("repro.lang", "compile_program", "lang.compile", None),
    ("repro.workloads.suite", "compile_program", "lang.compile", None),
    ("repro.serve.service", "compile_program", "lang.compile", None),
    ("repro.wcet.ait", "build_cfg", "cfg.build", None),
    ("repro.wcet.ait", "expand_task", "cfg.expand",
     lambda result, args, kwargs: {"nodes": len(result.blocks)}),
    ("repro.wcet.ait", "analyze_values", "value",
     lambda result, args, kwargs: _stats_attrs(result.fixpoint.stats)),
    ("repro.wcet.ait", "analyze_loop_bounds", "loopbounds", None),
    ("repro.batch.dag", "analyze_loop_bounds", "loopbounds", None),
    ("repro.wcet.ait", "analyze_icache", "icache",
     lambda result, args, kwargs: _stats_attrs(result.fixpoint_stats)),
    ("repro.wcet.ait", "analyze_dcache", "dcache",
     lambda result, args, kwargs: _stats_attrs(result.fixpoint_stats)),
    ("repro.wcet.ait", "analyze_pipeline", "pipeline",
     lambda result, args, kwargs: _stats_attrs(result.fixpoint_stats)),
    ("repro.wcet.ait", "analyze_paths", "path", _ilp_attrs),
    ("repro.path.ipet", "solve_lp", "ilp.solve", None),
    ("repro.path.ipet", "solve_ilp", "ilp.solve", None),
    ("repro.ilp.simplex", "presolve", "ilp.presolve",
     lambda result, args, kwargs: {"rows": result.num_rows,
                                   "cols": result.num_cols}),
    ("repro.ilp.branchbound", "presolve", "ilp.presolve",
     lambda result, args, kwargs: {"rows": result.num_rows,
                                   "cols": result.num_cols}),
    ("repro.wcet", "analyze_wcet", "wcet.analyze", None),
    ("repro.wcet.ait", "analyze_wcet", "wcet.analyze", None),
    ("repro.workloads.suite", "analyze_wcet", "wcet.analyze", None),
    ("repro.wcet.ait", "build_wcet_result", "wcet.result", None),
    ("repro.batch.scheduler", "build_wcet_result", "wcet.result", None),
    ("repro.serve.service", "build_wcet_result", "wcet.result", None),
    ("repro.batch.cachestore", "ArtifactCache.lookup", "cachestore.lookup",
     lambda result, args, kwargs: {"hit": int(result[0])}),
    ("repro.batch.cachestore", "ArtifactCache.store", "cachestore.store",
     _store_attrs),
    ("repro.batch.cachestore", "ArtifactCache.fetch_or_compute",
     "cachestore.fetch", None),
    ("repro.batch.scheduler", "_phase_task", "scheduler.task", None),
    ("repro.batch.scheduler", "_row_task", "scheduler.task", None),
    ("repro.serve.service", "AnalysisService._analyze", "serve.service",
     None),
    ("repro.serve.http", "AnalysisRequestHandler.do_POST", "serve.http",
     None),
    ("repro.serve.http", "AnalysisRequestHandler.do_GET", "serve.http",
     None),
    ("repro.serve.client", "submit", "serve.submit", None),
    ("repro.serve.client", "_request", "serve.request", _request_attrs),
]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, spill_dir: Optional[str] = None):
        self.enabled = True
        self.spill_dir = spill_dir
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._forked)

    def _reset(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def _forked(self) -> None:
        # A forked pool worker starts with no spans of its own and
        # spills them when it exits.
        self._reset()
        multiprocessing.util.Finalize(None, self.spill, exitpriority=10)

    def wrap(self, name: str, func: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"name": name, "id": span_id, "parent": parent,
                    "pid": tracer._pid, "tid": threading.get_ident(),
                    "start": start, "end": end}
            if attrs is not None:
                span.update(attrs(result, args, kwargs))
            with tracer._lock:
                tracer.spans.append(span)
            return result
        return traced

    def spill(self) -> None:
        """Append this process's buffered spans to its spill file."""
        path = os.path.join(self.spill_dir, f"spans-{self._pid}.jsonl")
        with self._lock:
            spans, self.spans = self.spans, []
            if spans:
                with open(path, "a") as handle:
                    handle.write("".join(json.dumps(span) + "\n"
                                         for span in spans))

    def drain(self) -> List[dict]:
        """Every span recorded since the last drain: this process's
        buffer plus the spill files of other processes (deleted)."""
        with self._lock:
            spans, self.spans = self.spans, []
        if self.spill_dir is not None:
            for name in sorted(os.listdir(self.spill_dir)):
                path = os.path.join(self.spill_dir, name)
                with open(path) as handle:
                    spans += [json.loads(line) for line in handle]
                os.unlink(path)
        return spans


def install(tracer: Tracer) -> None:
    """Patch every entry of :data:`PATCHES` for the rest of the
    process (``tracer.enabled`` switches the spans off)."""
    for module_name, path, span_name, attrs in PATCHES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attr,
                tracer.wrap(span_name, getattr(owner, attr), attrs))


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Seconds per span name, each span minus its child spans."""
    spans = list(spans)
    child_seconds: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_seconds[(span["pid"], span["parent"])] += \
                span["end"] - span["start"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += (span["end"] - span["start"]
                                 - child_seconds[(span["pid"],
                                                  span["id"])])
    return totals


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one batch of spans (totals, not per op)."""
    seconds = self_times(spans)
    counts: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span["name"]] += 1
        for key, value in span.items():
            if key not in ("name", "id", "parent", "pid", "tid", "start",
                           "end"):
                counts[f"{span['name']}:{key}"] += value
    lookups = calls["cachestore.lookup"]
    return {
        "lang.compile_s": seconds["lang.compile"],
        "cfg.s": seconds["cfg.build"] + seconds["cfg.expand"],
        "cfg.nodes": counts["cfg.expand:nodes"],
        "value.s": seconds["value"],
        "value.transfers": counts["value:transfers"],
        "value.widenings": counts["value:widenings"],
        "loopbounds.s": seconds["loopbounds"],
        "icache.s": seconds["icache"],
        "icache.transfers": counts["icache:transfers"],
        "dcache.s": seconds["dcache"],
        "dcache.transfers": counts["dcache:transfers"],
        "pipeline.s": seconds["pipeline"],
        "pipeline.transfers": counts["pipeline:transfers"],
        "path.s": seconds["path"],
        "ilp.s": seconds["ilp.solve"],
        "ilp.presolve_s": seconds["ilp.presolve"],
        "ilp.pivots": counts["path:pivots"],
        "ilp.phase1_pivots": counts["path:phase1_pivots"],
        "ilp.bland_pivots": counts["path:bland_pivots"],
        "ilp.refactorizations": counts["path:refactorizations"],
        "ilp.bb_nodes": counts["path:bb_nodes"],
        "ilp.rows": counts["ilp.presolve:rows"],
        "ilp.cols": counts["ilp.presolve:cols"],
        "wcet.s": seconds["wcet.analyze"] + seconds["wcet.result"],
        "cachestore.lookup_s": seconds["cachestore.lookup"],
        "cachestore.lookups": lookups,
        "cachestore.hit_ratio": (counts["cachestore.lookup:hit"] / lookups
                                 if lookups else 0.0),
        "cachestore.store_s": seconds["cachestore.store"],
        "cachestore.stores": calls["cachestore.store"],
        "cachestore.store_mb": counts["cachestore.store:bytes"] / 2 ** 20,
    }
