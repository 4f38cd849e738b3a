"""The one phase executor: resolver, sweep planning, two backends.

Every front end runs phase plans through this module.  A
:class:`Resolver` chains one job's cache keys and resolves its
artifacts through :meth:`ArtifactCache.fetch_or_compute` (with no
cache it just computes, in order).  :func:`build_sweep_dag` expands a
sweep into one deduplicated :class:`~repro.batch.dag.SweepDAG`; the
parent compiles each workload and keys every task before a pool
forks, so workers inherit the programs, plans and keys.

The DAG runner has two backends.  :func:`run_inline` runs ready tasks
one at a time in the calling thread: :func:`run_plan`
(``analyze_wcet``), ``--jobs 1`` sweeps, every serve request, and a
sweep whose pool died too often.  :func:`run_dag`'s pool backend
hands tasks to a persistent process pool the moment their
dependencies complete, with no per-group barriers; workers exchange
artifacts through the shared store, where a vanished object is a miss
that is recomputed transitively, never raised.

Sweep failure handling is *healing*, not aborting: a task that errors
is retried with exponential backoff up to a per-task budget before its
transitive dependents fail into error rows; a dead worker
(``BrokenProcessPool``) triggers a bounded number of pool *rebuilds*;
past that budget the remaining schedule runs inline — slower, but
every row still completes with bit-identical bounds.
"""

from __future__ import annotations

import cProfile
import functools
import heapq
import itertools
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from .. import faults
from ..cache.config import PIPELINE_MODELS, MachineConfig
from ..isa.program import Program
from ..wcet.ait import PHASES, PhaseTask, WCETResult, build_wcet_result
from ..workloads.suite import get_workload
from .cachestore import ArtifactCache, code_version_salt
from .dag import SweepDAG, TaskDAG, TaskNode, job_tasks
from .jobs import JobSpec, parse_policy

#: Default fault-tolerance budgets: how often one task may fail before
#: its jobs become error rows, how often a broken pool is rebuilt
#: before degrading to in-process execution, and the base of the
#: exponential retry backoff.
DEFAULT_TASK_RETRIES = 2
DEFAULT_POOL_REBUILDS = 3
DEFAULT_RETRY_BACKOFF = 0.05


# -- Resolver -----------------------------------------------------------------


class Resolver:
    """Keys and artifacts of one job's tasks.

    ``tasks`` maps template names to :class:`PhaseTask` descriptors in
    dependency order.  With a ``cache``, a task's key digests its
    material over its dependencies' keys (a ``value_deps`` dependency
    contributes its artifact instead), and :meth:`resolve` serves the
    artifact through :meth:`ArtifactCache.fetch_or_compute`:
    single-flight across threads, and self-healing — a dependency that
    should be in the store but is not (evicted, or quarantined as
    corrupt) is recomputed transitively instead of raising.  Without a
    cache the resolver only computes.
    """

    def __init__(self, tasks: Mapping[str, PhaseTask],
                 cache: Optional[ArtifactCache] = None):
        self.tasks = tasks
        self.cache = cache
        self.keys: Dict[str, str] = {}
        self.identities: Dict[str, str] = {}
        #: Artifacts this resolver has resolved, by template name.
        self.values: Dict[str, Any] = {}
        #: template name -> "hit" | "miss" of every cache resolution.
        self.events: Dict[str, str] = {}

    def material(self, name: str) -> str:
        """The key material of task ``name``."""
        task = self.tasks[name]
        return task.material(*(self.resolve(dep)[0]
                               if dep in task.value_deps
                               else self.key(dep) for dep in task.deps))

    def key(self, name: str) -> str:
        key = self.keys.get(name)
        if key is None:
            key = self.keys[name] = self.cache.key(self.material(name))
        return key

    def identity(self, name: str) -> str:
        """The task's DAG identity: its material over its dependencies'
        identities, digested.  That is its cache key whenever every
        dependency's identity is its key; a ``value_deps`` dependency
        contributes its identity rather than its artifact, so
        identities never need anything computed."""
        identity = self.identities.get(name)
        if identity is None:
            task = self.tasks[name]
            identity = self.identities[name] = self.cache.key(
                task.material(*(self.identity(dep) for dep in task.deps)))
            if not task.value_deps and all(
                    self.keys.get(dep) == self.identities[dep]
                    for dep in task.deps):
                self.keys[name] = identity
        return identity

    def resolve(self, name: str) -> Tuple[Any, bool]:
        """The artifact of task ``name`` and whether this call
        computed it."""
        if name in self.values:
            return self.values[name], False
        if self.cache is None:
            value, computed = self._compute(name), True
        else:
            value, computed = self.cache.fetch_or_compute(
                self.key(name), lambda: self._compute(name))
            self.events[name] = "miss" if computed else "hit"
        self.values[name] = value
        return value, computed

    def _compute(self, name: str) -> Any:
        task = self.tasks[name]
        return task.compute(*(self.resolve(dep)[0] for dep in task.deps))


# -- Inline backend -----------------------------------------------------------


def run_inline(dag: TaskDAG,
               execute: Callable[[TaskNode], Iterable[TaskNode]],
               ready: Iterable[TaskNode],
               deferred: Optional[List[Tuple[float, int, TaskNode]]] = None,
               check: Optional[Callable[[], None]] = None) -> None:
    """Inline backend: run tasks one at a time in this thread, lowest
    build index first, starting from the ``ready`` nodes.

    ``execute(node)`` runs one task and returns the dependents its
    completion released; an exception it raises propagates.
    ``deferred`` holds ``(ready-time, tiebreak, node)`` retries waiting
    out a backoff, and ``check`` runs before every task (serve's
    cancel/deadline test).
    """
    queue = [node.index for node in ready]
    heapq.heapify(queue)
    deferred = deferred if deferred is not None else []
    while queue or deferred:
        now = time.monotonic()
        while deferred and deferred[0][0] <= now:
            heapq.heappush(queue, heapq.heappop(deferred)[2].index)
        if not queue:
            time.sleep(max(0.0, deferred[0][0] - now))
            continue
        if check is not None:
            check()
        for released in execute(dag.nodes[heapq.heappop(queue)]):
            heapq.heappush(queue, released.index)


def run_resolved(dag: TaskDAG, resolvers: Sequence[Resolver],
                 check: Optional[Callable[[], None]] = None,
                 profiles: Optional[Dict[str, object]] = None) -> None:
    """Drain ``dag`` inline, resolving each task with the resolver of
    the job that first referenced it; a task error propagates.  With
    a ``profiles`` dict, every task runs under its own
    ``cProfile.Profile``, stored there by template name."""
    def execute(node: TaskNode) -> List[TaskNode]:
        profiler = cProfile.Profile() if profiles is not None else None
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        _, computed = resolvers[node.refs[0][0]].resolve(node.template)
        seconds = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
            profiles[node.template] = profiler
        return dag.complete(node, computed=computed, seconds=seconds)

    run_inline(dag, execute, dag.start(), check=check)


def run_plan(tasks: Sequence[PhaseTask],
             cache: Optional[ArtifactCache] = None,
             profiles: Optional[Dict[str, object]] = None
             ) -> Tuple[Resolver, Dict[str, float]]:
    """Run one job's ``tasks`` (dependency order) on the inline
    backend; returns the resolver holding the artifacts and each
    task's seconds.  Nodes are keyed by task name: a single job has
    nothing to deduplicate, and no cache means no key material."""
    resolver = Resolver({task.name: task for task in tasks}, cache)
    dag = TaskDAG()
    nodes: Dict[str, TaskNode] = {}
    for task in tasks:
        nodes[task.name] = dag.add_node(
            task.name, task.name, "phase", None, task.name,
            [nodes[dep] for dep in task.deps])
    run_resolved(dag, [resolver], profiles=profiles)
    return resolver, {name: node.seconds for name, node in nodes.items()}


# -- Sweep planning -----------------------------------------------------------
#
# One set of per-process memos.  The parent fills them while planning a
# sweep; fork workers inherit them, and a worker that did not (a spawn
# start method, or a direct task call) rebuilds on a miss.

_PROGRAM_MEMO: Dict[str, Program] = {}
_CACHE_MEMO: Dict[Tuple[str, str, Optional[int]], ArtifactCache] = {}
#: The running sweep's job resolvers, by (spec, cache_dir, salt,
#: limit_bytes) — the tail of every task payload.
_RESOLVERS: Dict[Tuple, Resolver] = {}


def clear_process_caches() -> None:
    """Drop this process's compiled-program, artifact-cache and
    resolver memos.

    Benchmark harnesses call this between measured sweeps so a "cold"
    run really is cold, and so artifacts of deleted temporary cache
    directories don't stay pinned in memory for the process lifetime.
    """
    _PROGRAM_MEMO.clear()
    _CACHE_MEMO.clear()
    _RESOLVERS.clear()


def _cache_for(cache_dir: Optional[str], salt: Optional[str],
               limit_bytes: Optional[int]) -> ArtifactCache:
    """This process's cache over one store.  A store on disk keeps one
    instance (and one memo) per process; an in-memory store is fresh,
    so a sweep without a cache directory starts empty."""
    if cache_dir is None:
        return ArtifactCache(None, salt=salt, limit_bytes=limit_bytes)
    # Normalize before keying: salt=None means code_version_salt(), so
    # passing the default explicitly must address the same cache.
    salt = salt if salt is not None else code_version_salt()
    memo_key = (cache_dir, salt, limit_bytes)
    cache = _CACHE_MEMO.get(memo_key)
    if cache is None:
        cache = _CACHE_MEMO[memo_key] = ArtifactCache(
            cache_dir, salt=salt, limit_bytes=limit_bytes)
    return cache


def _compile(workload: str) -> Tuple[Program, float]:
    """The workload's binary, compiled once per process, and the
    seconds this call spent compiling it (0.0 on a memo hit)."""
    program = _PROGRAM_MEMO.get(workload)
    if program is not None:
        return program, 0.0
    start = time.perf_counter()
    program = _PROGRAM_MEMO[workload] = get_workload(workload).compile()
    return program, time.perf_counter() - start


def _job_resolver(spec: JobSpec, cache: ArtifactCache) -> Resolver:
    program, _ = _compile(spec.workload)
    return Resolver(job_tasks(program, get_workload(spec.workload),
                              context_policy=spec.policy_object(),
                              pipeline_model=spec.model), cache)


def _resolver(spec: JobSpec, cache_dir: Optional[str],
              salt: Optional[str], limit_bytes: Optional[int]) -> Resolver:
    memo_key = (spec, cache_dir, salt, limit_bytes)
    resolver = _RESOLVERS.get(memo_key)
    if resolver is None:
        resolver = _RESOLVERS[memo_key] = _job_resolver(
            spec, _cache_for(cache_dir, salt, limit_bytes))
    return resolver


def build_sweep_dag(jobs: Sequence[JobSpec],
                    cache_dir: Optional[str] = None,
                    salt: Optional[str] = None,
                    limit_bytes: Optional[int] = None) -> SweepDAG:
    """Expand a job list into the deduplicated phase-task DAG over one
    store, plus a row-assembly node per job.

    The parent compiles each workload once and derives every task's
    identity here.  Jobs that cannot be planned (unknown workload, bad
    policy/model token) become ``build_errors`` entries instead of
    raising, so one bad point cannot take down a sweep; a job whose
    workload fails to compile keeps a lone row task, which fails (and
    retries) like any other task.
    """
    salt = salt if salt is not None else code_version_salt()
    cache = _cache_for(cache_dir, salt, limit_bytes)
    sweep = SweepDAG(list(jobs), settings=(cache_dir, salt, limit_bytes))
    for job_index, spec in enumerate(sweep.jobs):
        try:
            get_workload(spec.workload)
            parse_policy(spec.policy)
            if spec.model not in PIPELINE_MODELS:
                raise ValueError(
                    f"unknown pipeline model {spec.model!r}")
        except Exception as exc:
            sweep.build_errors[job_index] = \
                f"{type(exc).__name__}: {exc}"
            continue
        nodes: Dict[str, TaskNode] = {}
        try:
            _, sweep.compile_seconds[job_index] = _compile(spec.workload)
            resolver = _job_resolver(spec, cache)
            for name in resolver.tasks:
                resolver.identity(name)
        except Exception:
            pass
        else:
            nodes = sweep.add_job(job_index, resolver)
        sweep.row_nodes[job_index] = sweep.dag.add_node(
            ("row", job_index), f"{spec.job_id}:row", "row", spec,
            "row", [nodes[phase] for phase in PHASES if phase in nodes],
            job_index)
    return sweep


# -- Tasks --------------------------------------------------------------------


def _classification_counts(result) -> Dict[str, int]:
    stats = result.stats
    return {"always_hit": stats.always_hit,
            "always_miss": stats.always_miss,
            "persistent": stats.persistent,
            "not_classified": stats.not_classified}


def result_row(spec: JobSpec, result: WCETResult, wall_seconds: float,
               compile_seconds: float = 0.0) -> dict:
    """One job's JSON-able result row."""
    hits = sum(1 for event in result.cache_events.values()
               if event == "hit")
    misses = sum(1 for event in result.cache_events.values()
                 if event == "miss")
    return {
        "workload": spec.workload,
        "policy": spec.policy,
        "model": spec.model,
        "wcet_cycles": result.wcet_cycles,
        "lp_bound": result.path.lp_bound,
        "integral": result.path.integral,
        "graph": {"nodes": result.graph.node_count(),
                  "edges": result.graph.edge_count(),
                  "contexts": len(result.graph.contexts())},
        "icache": _classification_counts(result.icache),
        "dcache": _classification_counts(result.dcache),
        "solver_stats": {name: stats.as_dict()
                         for name, stats in result.solver_stats.items()},
        "phase_seconds": {phase: round(seconds, 6)
                          for phase, seconds
                          in result.phase_seconds.items()},
        "wall_seconds": round(wall_seconds, 6),
        "compile_seconds": round(compile_seconds, 6),
        "cache": {"events": dict(result.cache_events),
                  "hits": hits, "misses": misses},
    }


def _task(body):
    """Wrap a task ``body(resolver, spec, *args)`` into the payload
    function both backends run: ``payload`` is ``(spec, *args,
    cache_dir, salt, limit_bytes)``, and the outcome
    always carries the worker pid, the task's seconds and its cache's
    memo counters.

    Exceptions come back as plain error payloads.  Raising across the
    result pipe is not safe: an exception whose class does not survive
    a pickle round-trip (e.g. a two-argument ``__init__`` without a
    custom ``__reduce__``) blows up in the parent's result thread,
    which declares the whole *pool* broken — one bad workload would
    take every in-flight job down with it.  A string ``{"error": ...}``
    payload always pickles, so task failure stays a per-task event no
    matter what was raised.
    """
    @functools.wraps(body)
    def task(payload):
        start = time.perf_counter()
        try:
            faults.worker_task_started()
            spec, *args = payload[:-3]
            resolver = _resolver(spec, *payload[-3:])
            try:
                outcome = body(resolver, spec, *args)
            finally:
                # The store holds the artifacts; between tasks a
                # resolver keeps only keys.
                resolver.values.clear()
            outcome.update(memo=resolver.cache.memo_stats(),
                           quarantined=resolver.cache.quarantined)
        except Exception as exc:
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        return {"pid": os.getpid(),
                "seconds": time.perf_counter() - start, **outcome}
    return task


@_task
def _phase_task(resolver: Resolver, spec: JobSpec, template: str) -> dict:
    """Task: ensure one phase artifact exists in the store."""
    return {"computed": resolver.resolve(template)[1]}


@_task
def _row_task(resolver: Resolver, spec: JobSpec, events: Dict[str, str],
              phase_seconds: Dict[str, float], task_seconds: float,
              compile_seconds: float) -> dict:
    """Task: assemble one job's result row from its (already
    computed) phase artifacts.

    The parent passes the canonical-owner hit/miss attribution and the
    seconds its executor recorded on the job's task nodes
    (:meth:`repro.batch.dag.SweepDAG.row_events` / ``row_seconds``),
    so the row matches at every worker count, timing fields aside.
    """
    start = time.perf_counter()
    artifacts = {phase: resolver.resolve(phase)[0] for phase in PHASES}
    result = build_wcet_result(
        _compile(spec.workload)[0],
        MachineConfig.default().with_model(spec.model), artifacts,
        phase_seconds, events)
    return {"row": result_row(spec, result,
                              task_seconds + time.perf_counter() - start,
                              compile_seconds)}


# -- Pool backend -------------------------------------------------


def _pool_context():
    # Fork workers inherit the imported analysis modules, avoiding a
    # per-worker re-import; unavailable on some platforms.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


@dataclass
class SchedulerStats:
    """What the DAG scheduler did with a sweep."""

    workers: int
    phase_refs: int = 0
    unique_tasks: int = 0
    deduped_tasks: int = 0
    computed_tasks: int = 0
    cache_served_tasks: int = 0
    steals: int = 0
    #: task re-executions: error-payload retries plus resubmissions of
    #: tasks that were in flight when the pool died.
    retries: int = 0
    #: times a BrokenProcessPool was replaced with a fresh pool.
    pool_rebuilds: int = 0
    #: tasks executed in-process after the rebuild budget ran out
    #: (0 = the sweep never degraded).
    degraded_tasks: int = 0
    wall_seconds: float = 0.0
    #: worker pid -> seconds spent executing tasks.
    worker_busy: Dict[int, float] = field(default_factory=dict)
    #: worker pid -> latest ArtifactCache.memo_stats() snapshot.
    worker_memo: Dict[int, dict] = field(default_factory=dict)
    #: worker pid -> latest cumulative quarantine count of its cache.
    worker_quarantined: Dict[int, int] = field(default_factory=dict)

    def busy_fractions(self) -> Dict[str, float]:
        if self.wall_seconds <= 0:
            return {}
        return {str(pid): round(busy / self.wall_seconds, 4)
                for pid, busy in sorted(self.worker_busy.items())}

    def memo_summary(self) -> dict:
        """Pool-wide in-memory memo occupancy (summed over workers)."""
        return {key: sum(memo.get(key, 0)
                         for memo in self.worker_memo.values())
                for key in ("entries", "bytes", "evictions")}

    @property
    def quarantined(self) -> int:
        """Pool-wide quarantine events (summed over worker caches)."""
        return sum(self.worker_quarantined.values())

    def as_dict(self) -> dict:
        counters = {name: getattr(self, name) for name in (
            "workers", "phase_refs", "unique_tasks", "deduped_tasks",
            "computed_tasks", "cache_served_tasks", "steals", "retries",
            "pool_rebuilds", "degraded_tasks", "quarantined")}
        return {**counters, "wall_seconds": round(self.wall_seconds, 6),
                "worker_busy_fraction": self.busy_fractions(),
                "memo": self.memo_summary()}


def _error_row(spec: JobSpec, message: str) -> dict:
    return {"workload": spec.workload, "policy": spec.policy,
            "model": spec.model, "error": message}


def run_dag(sweep: SweepDAG, parallel: int,
            max_task_retries: int = DEFAULT_TASK_RETRIES,
            max_pool_rebuilds: int = DEFAULT_POOL_REBUILDS,
            retry_backoff_seconds: float = DEFAULT_RETRY_BACKOFF
            ) -> Tuple[List[dict], SchedulerStats]:
    """Execute the sweep DAG: inline for ``parallel`` <= 1, else on a
    pool of ``parallel`` workers.

    Returns rows in job order (error rows for failed jobs) and the
    scheduler's statistics.  A task that errors is retried up to
    ``max_task_retries`` times with exponential backoff
    (``retry_backoff_seconds * 2**attempt``) before failing its jobs;
    a dead pool is rebuilt up to ``max_pool_rebuilds`` times with the
    in-flight tasks resubmitted, and past that budget the remaining
    schedule runs on the inline backend (degraded mode) so every row
    still completes.
    """
    start = time.perf_counter()
    dag = sweep.dag
    stats = SchedulerStats(workers=parallel, **sweep.stats())
    rows: List[Optional[dict]] = [None] * len(sweep.jobs)
    for job_index, message in sweep.build_errors.items():
        rows[job_index] = _error_row(sweep.jobs[job_index], message)

    def payload_for(node: TaskNode):
        if node.kind == "row":
            job_index = node.refs[0][0]
            phase_seconds, task_seconds = sweep.row_seconds(job_index)
            return _row_task, (node.spec, sweep.row_events(job_index),
                               phase_seconds, task_seconds,
                               sweep.compile_seconds.get(job_index, 0.0),
                               *sweep.settings)
        return _phase_task, (node.spec, node.template, *sweep.settings)

    def record_failure(node: TaskNode, message: str) -> None:
        for failed in dag.fail(node, message):
            if failed.kind == "row" and rows[failed.refs[0][0]] is None:
                rows[failed.refs[0][0]] = _error_row(failed.spec,
                                                     failed.error)

    # Retry machinery: attempts counts error-payload failures per node
    # (kills don't burn the budget — the culprit can't be identified);
    # deferred holds backoff-delayed resubmissions as (ready-time,
    # tiebreak, node).
    attempts: Dict[int, int] = {}
    deferred: List[Tuple[float, int, TaskNode]] = []
    deferred_seq = itertools.count()

    def retry_or_fail(node: TaskNode, message: str) -> None:
        count = attempts.get(node.index, 0)
        if count >= max_task_retries:
            record_failure(node, f"{message} (task failed "
                                 f"{count + 1} times)")
            return
        attempts[node.index] = count + 1
        stats.retries += 1
        delay = retry_backoff_seconds * (2 ** count)
        heapq.heappush(deferred, (time.monotonic() + delay,
                                  next(deferred_seq), node))

    def absorb(node: TaskNode, outcome: dict) -> List[TaskNode]:
        """Book one returned task payload; error payloads go through
        the retry budget.  Returns the newly-released dependents."""
        pid = outcome["pid"]
        seconds = outcome["seconds"]
        stats.worker_busy[pid] = \
            stats.worker_busy.get(pid, 0.0) + seconds
        memo = outcome.get("memo")
        if memo is not None:
            stats.worker_memo[pid] = memo
        quarantined = outcome.get("quarantined")
        if quarantined is not None:
            stats.worker_quarantined[pid] = quarantined
        error = outcome.get("error")
        if error is not None:
            retry_or_fail(node, error)
            return []
        if node.deps:
            handoff = max(node.deps,
                          key=lambda dep: dep.finish_order or 0)
            if handoff.worker is not None and handoff.worker != pid:
                stats.steals += 1
        computed = outcome.get("computed")
        if node.kind == "row":
            rows[node.refs[0][0]] = outcome["row"]
        elif computed:
            stats.computed_tasks += 1
        else:
            stats.cache_served_tasks += 1
        return dag.complete(node, computed=computed, seconds=seconds,
                            worker=pid)

    def drain_inline(ready: List[TaskNode], degraded: bool) -> None:
        # Worker-kill fault injection never fires in this process (see
        # repro.faults.worker_task_started), so a sweep whose pool
        # keeps dying still terminates with complete rows.
        def execute(node: TaskNode) -> List[TaskNode]:
            function, payload = payload_for(node)
            stats.degraded_tasks += degraded
            return absorb(node, function(payload))
        run_inline(dag, execute, ready, deferred)

    def run_pool() -> None:
        pending_submit: List[TaskNode] = dag.start()
        rebuilds_left = max_pool_rebuilds
        futures: Dict[Any, TaskNode] = {}

        def submit_pending(pool) -> None:
            # One at a time so a submit() that raises (broken pool)
            # leaves the unsubmitted rest in pending_submit for the
            # crash handler.
            while pending_submit:
                node = pending_submit[0]
                function, payload = payload_for(node)
                futures[pool.submit(function, payload)] = node
                pending_submit.pop(0)

        while True:                     # one iteration per pool lifetime
            futures.clear()
            try:
                with ProcessPoolExecutor(
                        max_workers=parallel,
                        mp_context=_pool_context()) as pool:
                    submit_pending(pool)
                    while futures or deferred:
                        now = time.monotonic()
                        while deferred and deferred[0][0] <= now:
                            pending_submit.append(
                                heapq.heappop(deferred)[2])
                        submit_pending(pool)
                        if not futures:
                            # Everything left is waiting out a backoff.
                            time.sleep(max(0.0, deferred[0][0]
                                           - time.monotonic()))
                            continue
                        timeout = max(0.0, deferred[0][0] - now) \
                            if deferred else None
                        done, _ = wait(futures, timeout=timeout,
                                       return_when=FIRST_COMPLETED)
                        for future in done:
                            node = futures.pop(future)
                            try:
                                outcome = future.result()
                            except BrokenProcessPool:
                                # Hand the node back so the crash
                                # handler counts it as in-flight.
                                futures[future] = node
                                raise
                            except Exception as exc:
                                retry_or_fail(
                                    node, f"{type(exc).__name__}: {exc}")
                                continue
                            pending_submit.extend(absorb(node, outcome))
                            submit_pending(pool)
                return                  # fully drained
            except BrokenProcessPool:
                # Everything in flight (or queued behind the broken
                # submit) gets re-executed: on a fresh pool while the
                # rebuild budget lasts, in-process afterwards.
                crashed = sorted(set(futures.values())
                                 | set(pending_submit),
                                 key=lambda node: node.index)
                futures.clear()
                pending_submit[:] = crashed
                stats.retries += len(crashed)
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    stats.pool_rebuilds += 1
                    continue
                drain_inline(crashed, degraded=True)
                return

    # Tasks find their job's resolver here; pool workers inherit it.
    _RESOLVERS.clear()
    _RESOLVERS.update(
        ((spec, *sweep.settings), resolver)
        for spec, resolver in zip(sweep.jobs, sweep.resolvers)
        if resolver is not None)
    try:
        if parallel <= 1:
            drain_inline(dag.start(), degraded=False)
        else:
            run_pool()
    finally:
        _RESOLVERS.clear()

    rows = [row if row is not None
            else _error_row(spec, "job did not complete")
            for spec, row in zip(sweep.jobs, rows)]
    stats.wall_seconds = time.perf_counter() - start
    return rows, stats
