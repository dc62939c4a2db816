"""INDEXPROJ — lineage by workflow-graph traversal (Alg. 2, Section 3.3).

The strategy splits a lineage query into the two steps the paper times
separately (Section 4):

* **(s1) planning** — traverse the *workflow specification graph* upstream
  from the query port, applying the index projection rule at every
  processor to carry the query index backwards; record one
  :class:`TraceQuery` per input port of every focus processor met.  No
  trace access happens in this step, so its cost depends only on the size
  of the specification graph.
* **(s2) execution** — run each planned trace query (``Q(P, X_i, p_i)`` in
  Alg. 2) against the store: one indexed lookup per focus input port, per
  run in scope.

Because (s1) is independent of run data, a plan is shared by all runs of a
multi-run query (Section 3.4) and cached across repeated queries on the
same workflow ("it is feasible to cache the nodes visited in one query to
speed up their access in subsequent queries").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.engine.events import Binding
from repro.obs.core import NO_OBS, Observability
from repro.provenance.store import StoreStats, TraceStore
from repro.query.base import LineageQuery, LineageResult, MultiRunResult
from repro.query.projection import project_output_index
from repro.values.index import Index
from repro.workflow.depths import DepthAnalysis, propagate_depths
from repro.workflow.model import Dataflow, PortRef


@dataclass(frozen=True)
class TraceQuery:
    """One planned trace lookup: ``Q(processor, port, fragment)``."""

    processor: str
    port: str
    fragment: Index

    def __str__(self) -> str:
        return f"Q({self.processor}, {self.port}, [{self.fragment.encode()}])"


@dataclass
class QueryPlan:
    """The outcome of step (s1) for one query."""

    query: LineageQuery
    trace_queries: Tuple[TraceQuery, ...]
    visited_ports: int

    def __len__(self) -> int:
        return len(self.trace_queries)


def build_plan(analysis: DepthAnalysis, query: LineageQuery) -> QueryPlan:
    """Traverse the specification graph and plan the trace lookups.

    Pure function of the static analysis and the query — never touches the
    store.  Follows Alg. 2: at a processor output port, project the index
    onto the input ports (querying the trace is *deferred* into the plan
    when the processor is in focus) and continue from each input port; at
    an input port or a workflow output port, follow the incoming arc.
    """
    flow = analysis.flow
    planned: Dict[TraceQuery, None] = {}  # insertion-ordered set
    visited: Set[Tuple[str, str, str]] = set()
    stack: List[Tuple[PortRef, Index]] = [
        (PortRef(query.node, query.port), query.index)
    ]
    while stack:
        ref, index = stack.pop()
        key = (ref.node, ref.port, index.encode())
        if key in visited:
            continue
        visited.add(key)
        if ref.node == flow.name:
            # Workflow-level port: outputs have incoming arcs; inputs are
            # the traversal's terminal nodes.
            arc = flow.incoming_arc(ref)
            if arc is not None:
                stack.append((arc.source, index))
            continue
        processor = flow.processor(ref.node)
        if processor.has_output(ref.port):
            for port_name, fragment in project_output_index(
                analysis, ref.node, index
            ):
                if ref.node in query.focus:
                    planned.setdefault(
                        TraceQuery(ref.node, port_name, fragment)
                    )
                stack.append((PortRef(ref.node, port_name), fragment))
        else:
            arc = flow.incoming_arc(ref)
            if arc is not None:
                stack.append((arc.source, index))
    return QueryPlan(
        query=query,
        trace_queries=_drop_subsumed(planned),
        visited_ports=len(visited),
    )


def _drop_subsumed(planned: Iterable[TraceQuery]) -> Tuple[TraceQuery, ...]:
    """Keep only the shortest fragment of each prefix chain per port.

    ``Q(P, X, p)`` matches every stored index that is a prefix or an
    extension of ``p``, so when ``p`` prefixes ``q`` the matches of
    ``Q(P, X, q)`` are a subset of those of ``Q(P, X, p)`` and the longer
    lookup is redundant.  Insertion order of the survivors is kept.
    """
    planned = tuple(planned)
    by_port: Dict[Tuple[str, str], List[Index]] = {}
    for tq in planned:
        by_port.setdefault((tq.processor, tq.port), []).append(tq.fragment)
    if len(by_port) == len(planned):
        return planned  # one lookup per port: nothing to subsume
    return tuple(
        tq for tq in planned
        if not any(
            len(other) < len(tq.fragment) and tq.fragment.starts_with(other)
            for other in by_port[(tq.processor, tq.port)]
        )
    )


class IndexProjEngine:
    """Alg. 2 over a trace store, with plan caching.

    The static depth analysis is computed once per engine (the paper's
    offline pre-processing, Fig. 8) and exposed as
    ``preprocess_seconds``.
    """

    def __init__(
        self,
        store: TraceStore,
        flow: Dataflow,
        analysis: Optional[DepthAnalysis] = None,
        cache_plans: bool = True,
        obs: Optional[Observability] = None,
        trace_cache: Optional[Any] = None,
        plan_registry: Optional[Any] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.store = store
        #: Optional :class:`repro.query.compiled.PlanRegistry` shared with
        #: the owning service; lazily created on first compiled execution
        #: when absent.  ``fingerprint`` identifies the workflow in plan
        #: keys and is derived from the flow when not injected.
        self.plan_registry = plan_registry
        self.fingerprint = fingerprint
        self._flow = flow
        #: Optional :class:`repro.cache.trace.TraceReadCache`: when set,
        #: every s2 lookup goes through it, so repeated (run, processor,
        #: port, fragment) lookups are answered without touching the
        #: store.  It mirrors the store's lookup signatures, making it a
        #: drop-in reader.
        self.trace_cache = trace_cache
        self._reader: Any = trace_cache if trace_cache is not None else store
        #: Observability handle (``repro.obs``): every (s1)/(s2) timing
        #: below is derived from its spans, so the numbers in results and
        #: in a ``--profile`` span tree are the same measurement.
        self.obs = obs if obs is not None else NO_OBS
        with self.obs.timer("indexproj.preprocess", workflow=flow.name) as t:
            self.analysis = (
                analysis
                if analysis is not None
                else propagate_depths(flow.flattened())
            )
        #: Time spent running Alg. 1 (zero when a prebuilt analysis is
        #: injected); part of the paper's pre-processing cost.
        self.preprocess_seconds = t.seconds
        self.cache_plans = cache_plans
        self._plan_cache: Dict[
            Tuple[str, str, str, frozenset], QueryPlan
        ] = {}

    # ------------------------------------------------------------------

    def plan(self, query: LineageQuery) -> Tuple[QueryPlan, float]:
        """Step (s1): return the (possibly cached) plan and its build time.

        A cache hit reports the time of the lookup itself — effectively
        zero — which is exactly the saving the paper attributes to sharing
        the traversal across queries and runs.  Hits and misses land in
        the ``indexproj.plan_cache_hits`` / ``..._misses`` counters.
        """
        key = (query.node, query.port, query.index.encode(), query.focus)
        with self.obs.timer("indexproj.plan", query=str(query)) as span:
            hit = self.cache_plans and key in self._plan_cache
            if hit:
                plan = self._plan_cache[key]
            else:
                plan = build_plan(self.analysis, query)
                if self.cache_plans:
                    self._plan_cache[key] = plan
        if self.obs.enabled:
            self.obs.inc(
                "indexproj.plan_cache_hits"
                if hit
                else "indexproj.plan_cache_misses"
            )
            span.set(
                cache="hit" if hit else "miss",
                trace_queries=len(plan),
                visited_ports=plan.visited_ports,
            )
        return plan, span.seconds

    def execute_plan(
        self,
        plan: QueryPlan,
        run_id: str,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        """Step (s2): run the planned lookups against one run's trace.

        Per-:class:`TraceQuery` lookup latency is sampled into the
        ``indexproj.trace_lookup_seconds`` histogram when observability is
        enabled.
        """
        stats = stats if stats is not None else StoreStats()
        obs = self.obs
        collected: Dict[Tuple[str, str, str], Binding] = {}
        for trace_query in plan.trace_queries:
            lookup_started = time.perf_counter() if obs.enabled else 0.0
            for binding in self._reader.find_xform_inputs_matching(
                run_id,
                trace_query.processor,
                trace_query.port,
                trace_query.fragment,
                stats,
            ):
                collected[binding.key()] = binding
            if obs.enabled:
                obs.inc("indexproj.trace_lookups")
                obs.observe(
                    "indexproj.trace_lookup_seconds",
                    time.perf_counter() - lookup_started,
                )
        return sorted(collected.values(), key=lambda b: b.key())

    # ------------------------------------------------------------------

    def lineage(
        self,
        run_id: str,
        query: LineageQuery,
        stats: Optional[StoreStats] = None,
    ) -> LineageResult:
        """Answer one query over one run: plan, then execute."""
        stats = stats if stats is not None else StoreStats()
        plan, plan_seconds = self.plan(query)
        with self.obs.timer("indexproj.execute", run=run_id) as timer:
            bindings = self.execute_plan(plan, run_id, stats)
        lookup_seconds = timer.seconds
        return LineageResult(
            query=query,
            run_id=run_id,
            bindings=bindings,
            stats=stats,
            traversal_seconds=plan_seconds,
            lookup_seconds=lookup_seconds,
        )

    def lineage_multirun_batched(
        self,
        run_ids: Iterable[str],
        query: LineageQuery,
        chunk_size: Optional[int] = None,
    ) -> MultiRunResult:
        """Set-based multi-run execution: the full ``plan × run-set``
        key grid resolves in ``O(ceil(keys/chunk))`` SQL round-trips.

        Beyond the paper's per-run loop (which :meth:`lineage_multirun`
        implements at ``len(plan) * runs`` round-trips): every
        ``(run, TraceQuery)`` pair becomes one key of a single batched
        :meth:`~repro.provenance.store.TraceStore.find_xform_inputs_matching_many`
        call, and the rows are demultiplexed per run afterwards.  Answers
        are identical per run; the per-run results share one
        :class:`StoreStats` (use
        :meth:`~repro.query.base.MultiRunResult.aggregate_stats` to total
        them without multi-counting).
        """
        scope = list(run_ids)
        plan, plan_seconds = self.plan(query)
        stats = StoreStats()
        grid: List[Tuple[str, str, str, Index]] = [
            (run_id, tq.processor, tq.port, tq.fragment)
            for run_id in scope
            for tq in plan.trace_queries
        ]
        with self.obs.timer(
            "indexproj.execute_batched", runs=len(scope), keys=len(grid)
        ) as timer:
            answers = self._reader.find_xform_inputs_matching_many(
                grid, stats, chunk_size=chunk_size
            )
            collected = _demultiplex(scope, answers)
        if self.obs.enabled:
            self.obs.inc("indexproj.trace_lookups", len(grid))
            self.obs.inc("indexproj.batched_keys", len(grid))
        return _grid_result(
            query, collected, stats, plan_seconds, timer.seconds
        )

    def _compiled_registry(self) -> Any:
        if self.plan_registry is None:
            # Local import: repro.query.compiled imports build_plan from
            # this module, so the dependency must stay lazy here.
            from repro.query.compiled import PlanRegistry

            self.plan_registry = PlanRegistry(obs=self.obs)
        return self.plan_registry

    def _workflow_fingerprint(self) -> str:
        if self.fingerprint is None:
            from repro.cache import workflow_fingerprint

            self.fingerprint = workflow_fingerprint(self._flow)
        return self.fingerprint

    def lineage_multirun_compiled(
        self,
        run_ids: Iterable[str],
        query: LineageQuery,
        chunk_size: Optional[int] = None,
    ) -> MultiRunResult:
        """Execute a compiled program: warm plans skip (s1) entirely.

        The registry returns the pre-compiled
        :class:`~repro.query.compiled.CompiledPlan` for this query shape
        (compiling on first sight); execution
        is then the bare minimum — cross the frozen lookup constants with
        the run scope and hand the grid to the store's compiled
        primitive, which binds against prepared statements.  Answers are
        identical to :meth:`lineage_multirun` /
        :meth:`lineage_multirun_batched`, per run.  This is the path
        :class:`~repro.service.ProvenanceService` executes every
        INDEXPROJ query through.
        """
        scope = list(run_ids)
        registry = self._compiled_registry()
        hits_before = registry.hits
        with self.obs.timer("indexproj.plan", query=str(query)) as plan_timer:
            plan = registry.get_or_compile(
                self.analysis, query, self._workflow_fingerprint()
            )
        plan_seconds = plan_timer.seconds
        if self.obs.enabled:
            plan_timer.set(
                cache="hit" if registry.hits > hits_before else "miss",
                trace_queries=plan.trace_queries,
                visited_ports=plan.visited_ports,
                execution="compiled",
            )
        stats = StoreStats()
        pairs = plan.pairs(scope)
        with self.obs.timer("indexproj.execute", runs=len(scope)) as timer:
            answers = self._reader.find_xform_inputs_matching_compiled(
                pairs, stats, chunk_size=chunk_size
            )
            collected = _demultiplex(scope, answers)
        if self.obs.enabled:
            self.obs.inc("indexproj.trace_lookups", len(pairs))
            self.obs.inc("indexproj.compiled_keys", len(pairs))
        return _grid_result(
            query, collected, stats, plan_seconds, timer.seconds
        )

    def lineage_multirun(
        self, run_ids: Iterable[str], query: LineageQuery
    ) -> MultiRunResult:
        """One plan, executed once per run (Section 3.4).

        The trace-side cost is ``len(plan)`` lookups per run; the planning
        cost is paid exactly once regardless of how many runs are swept.
        """
        plan, plan_seconds = self.plan(query)
        per_run: Dict[str, LineageResult] = {}
        total_lookup = 0.0
        for run_id in run_ids:
            stats = StoreStats()
            with self.obs.timer("indexproj.execute", run=run_id) as timer:
                bindings = self.execute_plan(plan, run_id, stats)
            elapsed = timer.seconds
            total_lookup += elapsed
            per_run[run_id] = LineageResult(
                query=query,
                run_id=run_id,
                bindings=bindings,
                stats=stats,
                traversal_seconds=0.0,
                lookup_seconds=elapsed,
            )
        return MultiRunResult(
            query=query,
            per_run=per_run,
            traversal_seconds=plan_seconds,
            lookup_seconds=total_lookup,
            wall_seconds=plan_seconds + total_lookup,
        )


def _demultiplex(
    scope: List[str],
    answers: Dict[Tuple[str, str, str, str], List[Binding]],
) -> Dict[str, Dict[Tuple[str, str, str], Binding]]:
    """Per-run binding sets of one grid answer, in scope order.

    Grid lookups answer every requested key, keyed by ``(run_id, node,
    port, encoded index)``, so the answer alone says which run each
    binding belongs to.
    """
    collected: Dict[str, Dict[Tuple[str, str, str], Binding]] = {
        run_id: {} for run_id in scope
    }
    for key_id, bindings in answers.items():
        bucket = collected[key_id[0]]
        for binding in bindings:
            bucket[binding.key()] = binding
    return collected


def _grid_result(
    query: LineageQuery,
    collected: Dict[str, Dict[Tuple[str, str, str], Binding]],
    stats: StoreStats,
    plan_seconds: float,
    elapsed: float,
) -> MultiRunResult:
    """A grid execution as per-run results sharing one ``StoreStats``."""
    per_run = {
        run_id: LineageResult(
            query=query,
            run_id=run_id,
            bindings=sorted(bindings.values(), key=lambda b: b.key()),
            stats=stats,
            traversal_seconds=0.0,
            lookup_seconds=elapsed / max(len(collected), 1),
        )
        for run_id, bindings in collected.items()
    }
    return MultiRunResult(
        query=query,
        per_run=per_run,
        traversal_seconds=plan_seconds,
        lookup_seconds=elapsed,
        wall_seconds=plan_seconds + elapsed,
    )
