"""The sweep's phase-task DAG: one task per distinct phase artifact.

A sweep of (workload x policy x model) jobs expands to a DAG with one
node per distinct phase artifact across **all** jobs — both pipeline
models share a (workload, policy)'s cfg/value/loopbounds/icache/dcache
artifacts, every job of an annotated workload shares its
discover-then-annotate prefix — so a 114-point matrix collapses from
846 phase executions to 517 unique tasks.  :func:`job_tasks` is the
one plan builder (a suite job or a serve point), :class:`TaskDAG` the
graph with its scheduling state, and :class:`SweepDAG` the jobs of one
sweep or serve request in one graph, deduplicated by
:meth:`repro.batch.scheduler.Resolver.identity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.loopbounds import analyze_loop_bounds
from ..isa.program import Program
from ..wcet.ait import PHASES, PhaseTask, material_loopbounds, phase_plan
from ..workloads.suite import Workload, derive_manual_bounds
from .jobs import JobSpec


class DAGCycleError(ValueError):
    """The task graph is not acyclic."""


# -- Task graph -------------------------------------------------------------


@dataclass
class TaskNode:
    """One schedulable task: a distinct phase artifact (or a per-job
    row-assembly task)."""

    index: int                      #: build order; doubles as priority
    identity: object                #: dedup identity (see SweepDAG)
    label: str                      #: human-readable, e.g. "bs/full:value"
    kind: str                       #: "phase" | "annotate" | "row"
    spec: Optional[JobSpec]         #: a job whose plan contains the task
    template: str                   #: template name within that job's plan
    deps: List["TaskNode"] = field(default_factory=list)
    dependents: List["TaskNode"] = field(default_factory=list)
    #: Every (job index, template name) that references this node, in
    #: sequential sweep order.  ``refs[0]`` is the canonical owner used
    #: to attribute hit/miss provenance deterministically.
    refs: List[Tuple[int, str]] = field(default_factory=list)

    # Runtime state, maintained by TaskDAG's scheduling methods.
    state: str = "pending"          #: pending|ready|done|failed
    pending: int = 0                #: unfinished dependency count
    computed: Optional[bool] = None  #: ran compute (vs cache-served)
    seconds: float = 0.0
    worker: Optional[int] = None    #: pid of the executing worker
    finish_order: Optional[int] = None
    error: Optional[str] = None

    def __hash__(self):
        return self.index

    def __repr__(self):
        return f"<TaskNode {self.index} {self.label} {self.state}>"


class TaskDAG:
    """A deduplicated task graph plus its scheduling state machine.

    Nodes are added through :meth:`add_node`, which returns the
    existing node when the ``identity`` was seen before —
    that is the dedup.  :meth:`validate` rejects cycles (they cannot
    arise from a job plan, but :meth:`add_edge` lets callers — and
    tests — wire arbitrary graphs).  Executors order
    simultaneously-ready tasks by build index, so dispatch is
    deterministic.
    """

    def __init__(self):
        self.nodes: List[TaskNode] = []
        self._by_identity: Dict[object, TaskNode] = {}
        self._started = False
        self._finished = 0
        #: Total add_node references (dedup hits included), row tasks
        #: excluded: the "phase executions" a sequential sweep would
        #: issue.
        self.phase_refs = 0

    # -- Construction -------------------------------------------------------

    def add_node(self, identity: object, label: str, kind: str,
                 spec: Optional[JobSpec], template: str,
                 deps: Sequence[TaskNode] = (),
                 job_index: int = 0) -> TaskNode:
        if kind in ("phase", "annotate"):
            self.phase_refs += 1
        node = self._by_identity.get(identity)
        if node is None:
            node = TaskNode(index=len(self.nodes), identity=identity,
                            label=label, kind=kind, spec=spec,
                            template=template)
            self.nodes.append(node)
            self._by_identity[identity] = node
            for dep in dict.fromkeys(deps):
                self.add_edge(dep, node)
        node.refs.append((job_index, template))
        return node

    def add_edge(self, dep: TaskNode, node: TaskNode) -> None:
        """``node`` cannot start before ``dep`` finished."""
        if self._started:
            raise RuntimeError("cannot grow a DAG after start()")
        node.deps.append(dep)
        dep.dependents.append(node)

    @property
    def unique_tasks(self) -> int:
        return sum(1 for node in self.nodes
                   if node.kind in ("phase", "annotate"))

    @property
    def deduped_tasks(self) -> int:
        return self.phase_refs - self.unique_tasks

    def validate(self) -> None:
        """Raise :class:`DAGCycleError` unless the graph is acyclic
        (Kahn's algorithm)."""
        pending = {node.index: len(set(dep.index for dep in node.deps))
                   for node in self.nodes}
        queue = [index for index, count in pending.items() if count == 0]
        seen = 0
        while queue:
            index = queue.pop()
            seen += 1
            for dependent in self.nodes[index].dependents:
                pending[dependent.index] -= 1
                if pending[dependent.index] == 0:
                    queue.append(dependent.index)
        if seen != len(self.nodes):
            stuck = sorted(label
                           for label, count in
                           ((node.label, pending[node.index])
                            for node in self.nodes) if count > 0)
            raise DAGCycleError(
                f"task graph has a cycle through: {', '.join(stuck)}")

    # -- Scheduling state machine -------------------------------------------

    def start(self) -> List[TaskNode]:
        """Validate and return the initially-ready tasks in build
        order."""
        self.validate()
        self._started = True
        ready = []
        for node in self.nodes:
            node.pending = len(set(dep.index for dep in node.deps))
            if node.pending == 0:
                node.state = "ready"
                ready.append(node)
        return ready

    def complete(self, node: TaskNode, computed: Optional[bool] = None,
                 seconds: float = 0.0,
                 worker: Optional[int] = None) -> List[TaskNode]:
        """Mark ``node`` done; returns the dependents it released."""
        node.state = "done"
        node.computed = computed
        node.seconds = seconds
        node.worker = worker
        node.finish_order = self._finished
        self._finished += 1
        released = []
        for dependent in dict.fromkeys(node.dependents):
            dependent.pending -= 1
            if dependent.pending == 0 and dependent.state == "pending":
                dependent.state = "ready"
                released.append(dependent)
        return released

    def fail(self, node: TaskNode, error: str) -> List[TaskNode]:
        """Mark ``node`` failed and cascade to every transitive
        dependent; returns all newly-failed nodes (``node`` first)."""
        failed = []
        stack = [(node, error)]
        while stack:
            current, message = stack.pop()
            if current.state == "failed":
                continue
            current.state = "failed"
            current.error = message
            failed.append(current)
            downstream = f"upstream task {current.label} failed: {message}" \
                if current is node else message
            for dependent in current.dependents:
                stack.append((dependent, downstream))
        return failed


@dataclass
class SweepDAG:
    """The deduplicated task DAG of one sweep (or serve request)."""

    jobs: List[JobSpec]
    dag: TaskDAG = field(default_factory=TaskDAG)
    #: job index -> plan-time error message.
    build_errors: Dict[int, str] = field(default_factory=dict)
    #: job index -> seconds the planner spent compiling its workload.
    compile_seconds: Dict[int, float] = field(default_factory=dict)
    #: Store settings every task of the sweep resolves against:
    #: (cache_dir, salt, limit_bytes, domain_impl).
    settings: Tuple = (None, None, None, None)

    def __post_init__(self):
        #: Per job: the row-assembly node, or ``None`` when the job
        #: failed to plan (unknown workload/policy/model) or has none.
        self.row_nodes: List[Optional[TaskNode]] = [None] * len(self.jobs)
        #: Per job: template name -> task node (discovery included).
        self.job_phase_nodes: List[Dict[str, TaskNode]] = \
            [{} for _ in self.jobs]
        #: Per job: the :class:`~repro.batch.scheduler.Resolver` that
        #: keys and resolves its tasks, or ``None``.
        self.resolvers: List[Optional[object]] = [None] * len(self.jobs)

    def add_job(self, job_index: int, resolver) -> Dict[str, TaskNode]:
        """Add one job's tasks (``resolver.tasks``, dependency order),
        deduplicated against every task already in the DAG by
        :meth:`~repro.batch.scheduler.Resolver.identity`."""
        spec = self.jobs[job_index]
        nodes: Dict[str, TaskNode] = {}
        for name, task in resolver.tasks.items():
            nodes[name] = self.dag.add_node(
                resolver.identity(name),
                f"{spec.workload}/{spec.policy}:{name}",
                "annotate" if name == "annotate" else "phase", spec,
                name, [nodes[dep] for dep in task.deps], job_index)
        self.job_phase_nodes[job_index] = nodes
        self.resolvers[job_index] = resolver
        return nodes

    def stats(self) -> Dict[str, int]:
        return {"phase_refs": self.dag.phase_refs,
                "unique_tasks": self.dag.unique_tasks,
                "deduped_tasks": self.dag.deduped_tasks}

    def _owns(self, job_index: int, template: str) -> bool:
        node = self.job_phase_nodes[job_index][template]
        return bool(node.refs) and node.refs[0] == (job_index, template)

    def row_events(self, job_index: int) -> Dict[str, str]:
        """Deterministic per-phase cache provenance for one job's row.

        A phase is a "miss" exactly when this job's main-chain
        reference is the task's first reference in sweep order (the
        job *owns* the task) AND the task actually computed (rather
        than being served from a pre-existing store), and a "hit"
        otherwise — what a sequential sweep records.  Scheduling order
        cannot change it, so rows are byte-identical at any worker
        count.
        """
        nodes = self.job_phase_nodes[job_index]
        return {phase: "miss" if self._owns(job_index, phase)
                and nodes[phase].computed else "hit"
                for phase in PHASES if phase in nodes}

    def row_seconds(self, job_index: int
                    ) -> Tuple[Dict[str, float], float]:
        """One job's per-phase seconds and the seconds of every task
        it owns (discovery prefix included).

        Each task's seconds are recorded once, on its node, by the
        executor that ran it; a phase the job shares with an earlier
        job costs it nothing (0.0).  The figures therefore mean the
        same at every worker count.
        """
        nodes = self.job_phase_nodes[job_index]
        owned = {name: nodes[name].seconds if self._owns(job_index, name)
                 else 0.0 for name in nodes}
        return ({phase: owned[phase] for phase in PHASES
                 if phase in owned}, sum(owned.values()))


def job_tasks(program: Program, workload: Optional[Workload] = None,
              **plan_options) -> Dict[str, PhaseTask]:
    """One job's tasks keyed by template name, in dependency order.

    ``plan_options`` go to :func:`~repro.wcet.ait.phase_plan` for the
    main chain (a serve point passes its entry, register ranges,
    manual bounds, policy and model).  A suite ``workload`` adds its
    input memory ranges and, when it documents manual bounds, the
    discover-then-annotate prefix — ``discover:cfg``,
    ``discover:value``, ``discover:loopbounds`` under default
    parameters, then ``annotate`` — whose mapping the main
    ``loopbounds`` consumes.  That material embeds the mapping's value
    (``value_deps``), reproducing byte for byte the key an in-process
    :func:`~repro.workloads.suite.analyze_workload` derives.
    """
    tasks: Dict[str, PhaseTask] = {}
    if workload is not None:
        plan_options["memory_ranges"] = workload.memory_ranges(program)
    if workload is not None and workload.manual_bounds_in_order:
        discovery = phase_plan(
            program, memory_ranges=plan_options["memory_ranges"],
            domain_impl=plan_options.get("domain_impl"))
        for task in discovery[:PHASES.index("loopbounds") + 1]:
            task = replace(task, name="discover:" + task.name,
                           deps=tuple("discover:" + dep
                                      for dep in task.deps))
            tasks[task.name] = task
        order = ",".join(str(bound)
                         for bound in workload.manual_bounds_in_order)
        tasks["annotate"] = PhaseTask(
            "annotate", ("discover:loopbounds",),
            lambda bounds_key: f"annotate|{bounds_key}|order={order}",
            lambda bounds: derive_manual_bounds(workload, bounds))
    for task in phase_plan(program, **plan_options):
        if task.name == "loopbounds" and "annotate" in tasks:
            task = PhaseTask(
                "loopbounds", ("value", "annotate"), material_loopbounds,
                lambda values, manual: analyze_loop_bounds(values, manual),
                value_deps=("annotate",))
        tasks[task.name] = task
    return tasks
