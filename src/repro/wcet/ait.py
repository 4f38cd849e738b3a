"""The aiT-style WCET analyzer: all phases end to end.

"AbsInt's WCET tool aiT determines the WCET of a program task in
several phases: CFG building ...; value analysis ...; loop bound
analysis ...; cache analysis ...; pipeline analysis ...; path analysis"
(Section 3).  :func:`analyze_wcet` runs exactly this pipeline over a
KRISC binary and returns a :class:`WCETResult` carrying every
intermediate artifact plus per-phase runtimes (experiment E7).

Each phase is a named, individually-cacheable step (:data:`PHASES`):
:func:`analyze_wcet` runs them through the batch layer's inline
executor (:func:`repro.batch.scheduler.run_plan`), which can consult an
optional content-addressed artifact cache
(:class:`~repro.batch.cachestore.ArtifactCache`).  Phase cache keys
chain — each phase's key material embeds the keys of the
phases it consumes — so any upstream input change transparently
invalidates every downstream artifact, while unrelated inputs share:
e.g. the expanded task graph and the value analysis are keyed only by
(program, entry, indirect targets, context policy[, value parameters]),
so both pipeline timing models reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Type)

from ..analysis.domain import AbstractValue
from ..analysis.interval import Interval
from ..analysis.loopbounds import LoopBound, analyze_loop_bounds
from ..analysis.valueanalysis import ValueAnalysisResult, analyze_values
from ..cache.analysis import (DCacheResult, ICacheResult, analyze_dcache,
                              analyze_icache)
from ..cache.config import CacheConfig, MachineConfig
from ..cfg.builder import BinaryCFG, build_cfg
from ..cfg.contexts import DEFAULT_POLICY, ContextPolicy
from ..cfg.expand import NodeId, TaskGraph, expand_task
from ..isa.program import Program
from ..path.ipet import PathAnalysisResult, analyze_paths
from ..pipeline.analysis import TimingModel, analyze_pipeline


@dataclass
class WCETResult:
    """Everything the analyzer derived about one task."""

    program: Program
    config: MachineConfig
    binary_cfg: BinaryCFG
    graph: TaskGraph
    values: ValueAnalysisResult
    loop_bounds: Dict[NodeId, LoopBound]
    icache: ICacheResult
    dcache: DCacheResult
    timing: TimingModel
    path: PathAnalysisResult
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Work counters per solver phase: the shared WTO kernel's
    #: :class:`FixpointStats` for "value"/"icache"/"dcache"/"pipeline",
    #: and the LP/ILP engine's :class:`~repro.ilp.stats.ILPStats` for
    #: "path" — alongside the wall clocks in :attr:`phase_seconds`.
    solver_stats: Dict[str, object] = field(default_factory=dict)
    #: The context-sensitivity policy the task graph was expanded under.
    context_policy: Optional[ContextPolicy] = None
    #: Artifact-cache provenance: phase name -> "hit" | "miss".  Empty
    #: when the analysis ran without a phase cache.
    cache_events: Dict[str, str] = field(default_factory=dict)
    #: Per-phase ``cProfile.Profile`` objects when the analysis ran
    #: with ``profile=True`` (``repro wcet --profile``).
    profiles: Dict[str, object] = field(default_factory=dict)

    @property
    def wcet_cycles(self) -> int:
        """The verified upper bound on execution time in cycles."""
        return self.path.wcet_cycles

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def unbounded_loops(self) -> Sequence[NodeId]:
        return [header for header, bound in self.loop_bounds.items()
                if not bound.is_bounded]

    def summary(self) -> str:
        """One-paragraph textual summary (full report in repro.report)."""
        stats = self.values.precision()
        lines = [
            f"WCET bound: {self.wcet_cycles} cycles "
            f"(LP relaxation {self.path.lp_bound:.1f}, "
            f"{'integral' if self.path.integral else 'fractional'}, "
            f"{self.timing.model} timing model)",
            f"Task graph: {self.graph.node_count()} blocks, "
            f"{self.graph.edge_count()} edges, "
            f"{len(self.graph.contexts())} contexts "
            f"[{self.graph.policy.describe()}]",
            f"Value analysis: {stats.exact}/{stats.total} accesses exact "
            f"({100 * stats.exact_ratio:.1f}%)",
            f"I-cache: {self.icache.stats.always_hit} AH / "
            f"{self.icache.stats.always_miss} AM / "
            f"{self.icache.stats.persistent} PS / "
            f"{self.icache.stats.not_classified} NC",
            f"D-cache: {self.dcache.stats.always_hit} AH / "
            f"{self.dcache.stats.always_miss} AM / "
            f"{self.dcache.stats.persistent} PS / "
            f"{self.dcache.stats.not_classified} NC",
            f"Infeasible edges pruned: "
            f"{len(self.values.infeasible_edges)}",
            f"Analysis time: {self.total_seconds * 1000:.1f} ms",
        ]
        return "\n".join(lines)


# -- Named analysis phases ------------------------------------------------------

#: The aiT pipeline's phases in execution order.  Every phase is one
#: :class:`PhaseTask` descriptor built by :func:`phase_plan`.
PHASES = ("cfg", "value", "loopbounds", "icache", "dcache", "pipeline",
          "path")


@dataclass(frozen=True)
class PhaseTask:
    """Descriptor of one pipeline phase: everything an executor needs
    to key, order, and run the phase *without* executing it.

    ``material`` maps the cache keys of the phase's dependencies, in
    ``deps`` order, to the phase's own key material; ``compute`` maps
    the dependency artifacts, in the same order, to the phase's
    artifact.  The split is what lets the batch layer schedule phases
    of *many* jobs as one deduplicated DAG: a key, and with it a task's
    identity, derives from upstream keys alone.  The one exception is a
    dependency named in ``value_deps``: the material embeds its
    artifact rather than its key.
    """

    name: str
    deps: Tuple[str, ...]
    material: Callable[..., str]
    compute: Callable[..., Any]
    value_deps: Tuple[str, ...] = ()


def _mapping_material(mapping: Optional[Mapping]) -> str:
    """Stable key-material encoding of an annotation mapping."""
    if isinstance(mapping, str):
        # A dependency's DAG identity standing in for its value.
        return mapping
    if not mapping:
        return "-"
    parts = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(item) for item in value)
        parts.append(f"{key}={value}")
    return ";".join(parts)


def _cache_config_material(config: CacheConfig) -> str:
    return (f"{config.num_sets}x{config.associativity}x"
            f"{config.line_size}p{config.miss_penalty}")


# -- Key-material builders -------------------------------------------------------
#
# One function per phase, shared by the in-process pipeline below and
# the batch layer's DAG scheduler, so both address the same artifacts:
# a sweep's cold DAG run and a later sequential warm run hit the same
# cache objects.

def material_cfg(program: Program, entry: Optional[int],
                 indirect_targets: Optional[Dict[int, Sequence[int]]],
                 policy: ContextPolicy) -> str:
    # Keyed on the call-graph-reachable *code slice* rather than the
    # monolithic content digest: editing a function the analyzed entry
    # never reaches leaves this key — and through it every downstream
    # phase key — stable.  reachable_slice() degrades to a
    # content_digest()-derived key whenever its scan is imprecise, so
    # this is never a weaker key than the whole-image one it replaced.
    code_slice = program.reachable_slice(entry, indirect_targets).code
    return (f"cfg|{code_slice}|entry={entry}"
            f"|indirect={_mapping_material(indirect_targets)}"
            f"|policy={policy.describe()}")


def material_value(cfg_key: str, domain: Type[AbstractValue],
                   register_ranges: Optional[Dict[int, Tuple[int, int]]],
                   narrowing_passes: int, use_widening_thresholds: bool,
                   memory_ranges: Optional[Dict[int, Tuple[int, int]]],
                   data_digest: str) -> str:
    # The value phase is the only one that reads initial data memory,
    # so it alone carries the data-slice digest: a data-only edit
    # invalidates value and its dependents while cfg/icache keep their
    # keys (and their cached artifacts).  The impl token names the
    # memory representation the pickled states embed, which follows
    # from the domain: packed arrays for intervals, dicts otherwise.
    memory = "numpy" if domain is Interval else "python"
    return (f"value|{cfg_key}"
            f"|domain={domain.__module__}.{domain.__qualname__}"
            f"|regs={_mapping_material(register_ranges)}"
            f"|narrow={narrowing_passes}"
            f"|wthresh={use_widening_thresholds}"
            f"|mem={_mapping_material(memory_ranges)}"
            f"|impl={memory}"
            f"|data={data_digest}")


def material_loopbounds(value_key: str,
                        manual_loop_bounds: Optional[Dict[int, int]]
                        ) -> str:
    return (f"loopbounds|{value_key}"
            f"|manual={_mapping_material(manual_loop_bounds)}")


def material_icache(cfg_key: str, config: CacheConfig) -> str:
    # The cache phases always run on age-matrix states: "impl=numpy".
    return (f"icache|{cfg_key}"
            f"|{_cache_config_material(config)}"
            "|impl=numpy")


def material_dcache(cfg_key: str, value_key: str, config: CacheConfig,
                    use_value_analysis: bool) -> str:
    return (f"dcache|{cfg_key}|{value_key}"
            f"|{_cache_config_material(config)}"
            f"|usevalue={use_value_analysis}"
            "|impl=numpy")


def material_pipeline(cfg_key: str, icache_key: str, dcache_key: str,
                      config: MachineConfig) -> str:
    return (f"pipeline|{cfg_key}"
            f"|{icache_key}|{dcache_key}"
            f"|model={config.pipeline_model}"
            f"|cap={config.pipeline_state_cap}"
            f"|bp={config.branch_penalty}|mul={config.mul_extra}"
            f"|lus={config.load_use_stall}")


def material_path(cfg_key: str, pipeline_key: str, loopbounds_key: str,
                  value_key: str, use_infeasible_paths: bool,
                  integer: bool) -> str:
    return (f"path|{cfg_key}|{pipeline_key}"
            f"|{loopbounds_key}|{value_key}"
            f"|infeasible={use_infeasible_paths}|integer={integer}")


def phase_plan(program: Program,
               config: Optional[MachineConfig] = None,
               entry: Optional[int] = None,
               register_ranges: Optional[
                   Dict[int, Tuple[int, int]]] = None,
               manual_loop_bounds: Optional[Dict[int, int]] = None,
               indirect_targets: Optional[Dict[int, Sequence[int]]] = None,
               domain: Type[AbstractValue] = Interval,
               use_infeasible_paths: bool = True,
               use_value_analysis_for_dcache: bool = True,
               use_widening_thresholds: bool = True,
               narrowing_passes: int = 2,
               integer: bool = True,
               context_policy: Optional[ContextPolicy] = None,
               pipeline_model: Optional[str] = None,
               memory_ranges: Optional[Dict[int, Tuple[int, int]]] = None
               ) -> List[PhaseTask]:
    """Build the full pipeline as a list of :class:`PhaseTask`
    descriptors in execution order, without running anything.

    Parameters mirror :func:`analyze_wcet` exactly; running the plan's
    tasks in order *is* the pipeline.  The batch layer feeds the
    descriptors of many jobs into one deduplicated task DAG
    (:func:`repro.batch.dag.job_tasks`).
    """
    config = config or MachineConfig.default()
    if pipeline_model is not None:
        config = config.with_model(pipeline_model)
    policy = context_policy or DEFAULT_POLICY

    def compute_cfg():
        binary_cfg = build_cfg(program, entry, indirect_targets)
        graph = expand_task(binary_cfg, policy=policy)
        return binary_cfg, graph

    def compute_value(cfg):
        _, graph = cfg
        # Pass the submitted program explicitly: a cached cfg artifact
        # embeds the Program it was built from, which under slice-based
        # keys may be an *older* binary with identical reachable code
        # but different data — its initial_memory() would be stale.
        return analyze_values(
            graph, domain=domain, register_ranges=register_ranges,
            narrowing_passes=narrowing_passes,
            use_widening_thresholds=use_widening_thresholds,
            memory_ranges=memory_ranges, program=program)

    def compute_dcache(cfg, values):
        return analyze_dcache(cfg[1], config.dcache, values,
                              use_value_analysis_for_dcache)

    def compute_path(cfg, timing, bounds, values):
        return analyze_paths(cfg[1], timing, bounds, values,
                             use_infeasible_paths, integer)

    return [
        PhaseTask(
            "cfg", (),
            lambda: material_cfg(program, entry, indirect_targets, policy),
            compute_cfg),
        PhaseTask(
            "value", ("cfg",),
            lambda cfg: material_value(
                cfg, domain, register_ranges, narrowing_passes,
                use_widening_thresholds, memory_ranges,
                program.reachable_slice(entry, indirect_targets).data),
            compute_value),
        PhaseTask(
            "loopbounds", ("value",),
            lambda value: material_loopbounds(value, manual_loop_bounds),
            lambda values: analyze_loop_bounds(values,
                                               manual_loop_bounds)),
        PhaseTask(
            "icache", ("cfg",),
            lambda cfg: material_icache(cfg, config.icache),
            lambda cfg: analyze_icache(cfg[1], config.icache)),
        PhaseTask(
            "dcache", ("cfg", "value"),
            lambda cfg, value: material_dcache(
                cfg, value, config.dcache, use_value_analysis_for_dcache),
            compute_dcache),
        PhaseTask(
            "pipeline", ("cfg", "icache", "dcache"),
            lambda cfg, icache, dcache: material_pipeline(
                cfg, icache, dcache, config),
            lambda cfg, icache, dcache: analyze_pipeline(
                cfg[1], config, icache, dcache)),
        PhaseTask(
            "path", ("cfg", "pipeline", "loopbounds", "value"),
            lambda cfg, pipeline, loopbounds, value: material_path(
                cfg, pipeline, loopbounds, value, use_infeasible_paths,
                integer),
            compute_path),
    ]


def collect_solver_stats(values: ValueAnalysisResult,
                         icache: ICacheResult, dcache: DCacheResult,
                         timing: TimingModel,
                         path: PathAnalysisResult) -> Dict[str, object]:
    """The per-phase work counters a :class:`WCETResult` carries."""
    solver_stats: Dict[str, object] = {}
    if values.fixpoint.stats is not None:
        solver_stats["value"] = values.fixpoint.stats
    if icache.fixpoint_stats is not None:
        solver_stats["icache"] = icache.fixpoint_stats
    if dcache.fixpoint_stats is not None:
        solver_stats["dcache"] = dcache.fixpoint_stats
    if timing.fixpoint_stats is not None:
        solver_stats["pipeline"] = timing.fixpoint_stats
    if path.solver_stats is not None:
        solver_stats["path"] = path.solver_stats
    return solver_stats


def build_wcet_result(program: Program, config: MachineConfig,
                      artifacts: Mapping[str, Any],
                      phase_seconds: Dict[str, float],
                      cache_events: Dict[str, str],
                      profiles: Optional[Dict[str, object]] = None
                      ) -> WCETResult:
    """Assemble a :class:`WCETResult` from the seven phase artifacts.

    Used by every front end — :func:`analyze_wcet`, the batch row
    task, and the serve layer — over the same phase artifacts, so all
    of them produce identical results.
    """
    binary_cfg, graph = artifacts["cfg"]
    values = artifacts["value"]
    icache = artifacts["icache"]
    dcache = artifacts["dcache"]
    timing = artifacts["pipeline"]
    path = artifacts["path"]
    return WCETResult(
        program, config, binary_cfg, graph, values,
        artifacts["loopbounds"], icache, dcache, timing, path,
        phase_seconds,
        solver_stats=collect_solver_stats(values, icache, dcache,
                                          timing, path),
        context_policy=graph.policy, cache_events=cache_events,
        profiles=profiles or {})


def analyze_loop_annotations(program: Program,
                             memory_ranges: Optional[
                                 Dict[int, Tuple[int, int]]] = None,
                             phase_cache=None
                             ) -> Dict[NodeId, LoopBound]:
    """The *discover* half of aiT's annotate workflow: run the
    default-parameter cfg/value/loopbounds prefix of the pipeline and
    return the loop-bound table, from which callers pick the unbounded
    headers to annotate manually.  Uses the same phase steps (and hence
    shares cached artifacts) as :func:`analyze_wcet`.
    """
    from ..batch.scheduler import run_plan

    plan = phase_plan(program, memory_ranges=memory_ranges)
    resolver, _ = run_plan(plan[:PHASES.index("loopbounds") + 1],
                           phase_cache)
    return resolver.values["loopbounds"]


def analyze_wcet(program: Program,
                 config: Optional[MachineConfig] = None,
                 entry: Optional[int] = None,
                 register_ranges: Optional[
                     Dict[int, Tuple[int, int]]] = None,
                 manual_loop_bounds: Optional[Dict[int, int]] = None,
                 indirect_targets: Optional[Dict[int, Sequence[int]]] = None,
                 domain: Type[AbstractValue] = Interval,
                 use_infeasible_paths: bool = True,
                 use_value_analysis_for_dcache: bool = True,
                 use_widening_thresholds: bool = True,
                 narrowing_passes: int = 2,
                 integer: bool = True,
                 context_policy: Optional[ContextPolicy] = None,
                 pipeline_model: Optional[str] = None,
                 memory_ranges: Optional[Dict[int, Tuple[int, int]]] = None,
                 phase_cache=None,
                 profile: bool = False
                 ) -> WCETResult:
    """Run the complete aiT pipeline on ``program``.

    Annotation parameters mirror aiT's user inputs:

    * ``register_ranges`` — value ranges of input registers at entry,
    * ``memory_ranges`` — value ranges of memory words the environment
      fills before the task runs (input buffers); without them the
      analysis would treat input data as the constants of the binary
      image, and bounds would not cover runs on other inputs,
    * ``manual_loop_bounds`` — iteration bounds for loops the analysis
      cannot bound, keyed by loop-header address (under a peeling
      policy the annotation still states the *full* iteration count;
      the analysis accounts the peeled copies itself),
    * ``indirect_targets`` — possible targets of indirect branches.

    ``context_policy`` selects the context-sensitivity scheme (VIVU
    loop peeling, k-limited call strings); the default reproduces the
    historical full-call-string expansion.  ``pipeline_model``
    overrides the config's timing model (``"additive"`` or
    ``"krisc5"``).  Ablation switches (DESIGN.md D1-D5) default to the
    full analysis.

    ``phase_cache`` plugs in a content-addressed artifact cache (see
    :mod:`repro.batch`): each phase is then served from the cache when
    its exact inputs were analyzed before, and
    :attr:`WCETResult.cache_events` records the per-phase hit/miss
    provenance.  Cached and uncached analyses produce bit-identical
    results.

    The value and cache phases run the numpy domains (packed interval
    memory, age-matrix cache states); their pure-Python references are
    test oracles, reachable only through the phase functions' ``impl``
    argument.  ``profile=True`` wraps each phase in a ``cProfile`` run,
    collected in :attr:`WCETResult.profiles`.
    """
    config = config or MachineConfig.default()
    if pipeline_model is not None:
        config = config.with_model(pipeline_model)
    plan = phase_plan(
        program, config=config, entry=entry,
        register_ranges=register_ranges,
        manual_loop_bounds=manual_loop_bounds,
        indirect_targets=indirect_targets, domain=domain,
        use_infeasible_paths=use_infeasible_paths,
        use_value_analysis_for_dcache=use_value_analysis_for_dcache,
        use_widening_thresholds=use_widening_thresholds,
        narrowing_passes=narrowing_passes, integer=integer,
        context_policy=context_policy, memory_ranges=memory_ranges)
    from ..batch.scheduler import run_plan

    profiles: Optional[Dict[str, object]] = {} if profile else None
    resolver, seconds = run_plan(plan, phase_cache, profiles)
    return build_wcet_result(program, config, resolver.values, seconds,
                              dict(resolver.events), profiles=profiles)
