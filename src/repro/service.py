"""ProvenanceService — the integration façade.

The paper describes its implementation as "the provenance management
component of the Taverna workflow system": one long-lived object that
owns the trace database, watches workflow executions, and answers lineage
queries.  This module is that component for the reproduction: a single
entry point wiring together the runner, the store, the per-workflow
static analyses, and both query directions, with all the caching the
paper calls for (one depth analysis per workflow definition, plans shared
across queries and runs).

    service = ProvenanceService("traces.db")
    service.register_workflow(flow)
    run_id = service.run("wf", {"size": 3})
    service.lineage("lin(<wf:out[1.2]>, {A, B})")       # all runs of wf
    service.lineage_many(queries, max_workers=8)        # concurrent batch
    service.impact("wf", "size", [], focus=["F"])

Passing ``obs=Observability()`` at construction threads one tracing +
metrics handle through the store, the runners, and both query strategies;
``service.metrics_snapshot()`` then reports every counter/histogram and
``service.obs.span_roots()`` the collected span trees (see
docs/OBSERVABILITY.md).

The service is thread-safe: runs may be captured while lineage queries
are answered from other threads (see the store's concurrency contract in
:mod:`repro.provenance.store`).
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.cost import (
    PlanExplanation,
    choose_strategy as _choose_strategy,
    explain_plan as _explain_plan,
)
from repro.analysis.precheck import QueryValidationError, precheck_query
from repro.cache import (
    CacheConfig,
    LineageResultCache,
    ResultCacheKey,
    TraceReadCache,
    workflow_fingerprint,
)
from repro.engine.executor import WorkflowRunner
from repro.engine.processors import ProcessorRegistry
from repro.obs.core import NO_OBS, Observability
from repro.provenance.capture import capture_run
from repro.provenance.faults import FaultInjector
from repro.provenance.store import (
    DuplicateRunError,
    RetryPolicy,
    StoreBusyError,
    TraceStore,
)
from repro.query.base import LineageQuery, LineageResult, MultiRunResult
from repro.query.compiled import PlanRegistry
from repro.query.explain import QueryExplanation, explain as _explain
from repro.query.impact import ImpactQuery, IndexProjImpactEngine
from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.query.parser import parse_query
from repro.workflow.depths import propagate_depths
from repro.workflow.model import Dataflow, WorkflowError

QueryLike = Union[str, LineageQuery]

#: Executions of one whole-store query before a run set that keeps
#: changing under it (concurrent ingest or ``delete_run``) is reported
#: as :class:`~repro.provenance.store.StoreBusyError`.
SCOPE_ATTEMPTS = 3

#: Longest wait, per attempt, for a ``delete_run`` in flight to finish
#: before a whole-store query resolves its scope.
SCOPE_SETTLE_SECONDS = 1.0


class ProvenanceService:
    """Own a trace store and answer provenance questions about runs.

    Workflows are registered once (their flattened form and depth analysis
    are cached); every ``run`` stores a full trace; queries accept either
    :class:`LineageQuery` objects or the paper's text notation and default
    to spanning every stored run of the owning workflow.
    """

    def __init__(
        self,
        store_path: str = ":memory:",
        intern_values: bool = False,
        error_handling: str = "raise",
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
        cache: Union[bool, CacheConfig, None] = True,
        store: Optional[Any] = None,
        shards: Optional[int] = None,
    ) -> None:
        #: Observability handle (``repro.obs``), threaded through the
        #: store, every runner, and both query strategies.  Pass an
        #: enabled :class:`~repro.obs.core.Observability` to collect
        #: spans/metrics; read them back via :meth:`metrics_snapshot`
        #: and ``service.obs.span_roots()``.
        self.obs = obs if obs is not None else NO_OBS
        #: The trace storage backend.  Three ways to pick one, most
        #: specific wins: ``store=`` injects any ready-made
        #: :class:`~repro.storage.StorageBackend` (the service adopts
        #: it, including ``close()``); ``shards=N`` opens ``store_path``
        #: as a run-sharded scatter-gather directory of N SQLite shards;
        #: otherwise ``store_path`` opens the single-file reference
        #: backend — unless it already is a shard directory, which
        #: reopens sharded (see :func:`repro.storage.open_store`).
        if store is not None:
            self.store = store
        elif shards is not None or store_path != ":memory:":
            from repro.storage import open_store

            self.store = open_store(
                store_path, shards=shards, intern_values=intern_values,
                retry=retry, faults=faults, obs=self.obs,
            )
        else:
            self.store = TraceStore(
                store_path, intern_values=intern_values, retry=retry,
                faults=faults, obs=self.obs,
            )
        #: Lineage cache stack (``repro.cache``), on by default: a
        #: trace-lookup cache inside s2 plus a full result cache above
        #: both strategies, kept coherent by the store's write
        #: generations.  Pass ``cache=False`` (or a tuned
        #: :class:`~repro.cache.CacheConfig`) to change it; per-call
        #: ``lineage(..., cache=False)`` bypasses it for one query.
        self.cache_config = CacheConfig.of(cache)
        if self.cache_config.enabled:
            self._trace_cache: Optional[TraceReadCache] = TraceReadCache(
                self.store,
                max_entries=self.cache_config.trace_entries,
                max_bytes=self.cache_config.trace_bytes,
                obs=self.obs,
            )
            self._result_cache: Optional[LineageResultCache] = (
                LineageResultCache(
                    self.store,
                    max_entries=self.cache_config.result_entries,
                    max_bytes=self.cache_config.result_bytes,
                    obs=self.obs,
                )
            )
        else:
            self._trace_cache = None
            self._result_cache = None
        #: Compiled query plans (``repro.query.compiled``): every
        #: INDEXPROJ query executes through this spec-keyed registry of
        #: pre-compiled programs instead of re-planning per call.
        self._plan_registry = PlanRegistry(obs=self.obs)
        #: Optional :class:`~repro.obs.slowlog.SlowQueryJournal`; when
        #: attached (constructor-independent — the server's registry sets
        #: it on lazily opened tenants), every :meth:`lineage` call whose
        #: wall time crosses the journal's threshold leaves a structured
        #: record (strategy, cache state, per-level timings, round-trips).
        self.slowlog = None
        self._runners: Dict[str, WorkflowRunner] = {}
        self._flows: Dict[str, Dataflow] = {}
        self._fingerprints: Dict[str, str] = {}
        self._lineage_engines: Dict[str, IndexProjEngine] = {}
        self._impact_engines: Dict[str, IndexProjImpactEngine] = {}
        self._naive = NaiveEngine(
            self.store, obs=self.obs, trace_cache=self._trace_cache
        )
        self._error_handling = error_handling
        # Guards the registration dicts so queries may run concurrently
        # with register_workflow (dict iteration during mutation raises).
        self._registry_lock = threading.Lock()
        # Membership-generation-validated memo of per-workflow run lists:
        # resolving the default query scope on a warm cache path must not
        # cost a store read.
        self._run_list_lock = threading.Lock()
        self._run_list_memo: Dict[str, Tuple[int, List[str]]] = {}

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "ProvenanceService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- registration and execution -----------------------------------------

    def register_workflow(
        self,
        flow: Dataflow,
        registry: Optional[ProcessorRegistry] = None,
    ) -> None:
        """Register a workflow definition (idempotent by name).

        Performs the paper's one-off pre-processing: flattening plus depth
        propagation (Alg. 1), cached for every later run and query.
        """
        flat = flow.flattened()
        analysis = propagate_depths(flat)
        with self._registry_lock:
            self._flows[flow.name] = flat
            self._fingerprints[flow.name] = workflow_fingerprint(flat)
            self._runners[flow.name] = WorkflowRunner(
                registry, error_handling=self._error_handling, obs=self.obs
            )
            self._lineage_engines[flow.name] = IndexProjEngine(
                self.store, flat, analysis=analysis, obs=self.obs,
                trace_cache=self._trace_cache,
                plan_registry=self._plan_registry,
                fingerprint=self._fingerprints[flow.name],
            )
            self._impact_engines[flow.name] = IndexProjImpactEngine(
                self.store, flat, analysis=analysis
            )

    def registered_workflows(self) -> List[str]:
        """Names of every workflow registered with this service."""
        with self._registry_lock:
            return list(self._flows)

    def workflow(self, name: str) -> Dataflow:
        try:
            return self._flows[name]
        except KeyError:
            raise WorkflowError(
                f"workflow {name!r} is not registered with this service"
            ) from None

    def run(
        self, workflow_name: str, inputs: Dict[str, Any],
        run_id: Optional[str] = None,
    ) -> str:
        """Execute a registered workflow and store its trace.

        Safe to call from many threads at once (the store serializes the
        insert).  An explicit ``run_id`` that is already stored raises
        :class:`~repro.provenance.store.DuplicateRunError` *before* the
        workflow executes — previously the duplicate was only detected
        after the (wasted) execution, surfacing as a bare constraint
        violation.  The store re-checks inside the insert transaction, so
        two racing runs with the same id can never both land.
        """
        flow = self.workflow(workflow_name)
        if run_id is not None and self.store.has_run(run_id):
            raise DuplicateRunError(run_id)
        captured = capture_run(
            flow, inputs, runner=self._runners[workflow_name], run_id=run_id
        )
        self.store.insert_trace(captured.trace)
        return captured.run_id

    def runs_of(self, workflow_name: str) -> List[str]:
        """Stored run ids of one workflow, in execution order.

        Memoized against the store's membership generation: resolving the
        default query scope on a warm result-cache path must not cost a
        store read.  The generation is captured *before* the read, so a
        racing ingest leaves the memo conservatively stale (refreshed on
        the next call), never missing a committed run it was told about.
        """
        self.workflow(workflow_name)  # raise early on unknown names
        membership = self.store.membership_generation
        with self._run_list_lock:
            memo = self._run_list_memo.get(workflow_name)
            if memo is not None and memo[0] == membership:
                return list(memo[1])
        run_ids = self.store.run_ids(workflow=workflow_name)
        with self._run_list_lock:
            self._run_list_memo[workflow_name] = (membership, run_ids)
        return list(run_ids)

    # -- queries --------------------------------------------------------------

    def _owning_workflow(self, query: LineageQuery) -> str:
        with self._registry_lock:
            flows = list(self._flows.items())
        owners = [
            name for name, flow in flows
            if query.node == name or flow.has_processor(query.node)
        ]
        if len(owners) == 1:
            return owners[0]
        if owners:
            raise WorkflowError(
                f"node {query.node!r} is in more than one registered "
                f"workflow: {', '.join(repr(name) for name in owners)}"
            )
        from repro.analysis.precheck import suggest_names

        candidates = [name for name, _ in flows]
        for _, flow in flows:
            candidates.extend(flow.processor_names)
        close = suggest_names(query.node, candidates)
        hint = f" (did you mean: {', '.join(close)}?)" if close else ""
        raise WorkflowError(
            f"no registered workflow contains node {query.node!r}{hint}"
        )

    def _as_query(self, query: QueryLike, focus: Iterable[str]) -> LineageQuery:
        if isinstance(query, str):
            parsed = parse_query(query)
            if focus:
                parsed = LineageQuery.create(
                    parsed.node, parsed.port, parsed.index, focus
                )
            return parsed
        return query

    def _precheck(
        self, workflow_name: str, parsed: LineageQuery,
        runs: Optional[Iterable[str]],
    ) -> Optional[MultiRunResult]:
        """Static fast-reject (``repro.analysis``): triage before any read.

        Returns a ready (empty) :class:`MultiRunResult` when the query is
        provably empty, raises :class:`QueryValidationError` when it is
        invalid, and returns ``None`` for viable queries.  The empty
        answer is produced with **zero** trace-store accesses — when the
        caller did not pin a run scope, ``per_run`` is empty rather than
        enumerating runs (which would cost a read).
        """
        report = precheck_query(
            self._lineage_engines[workflow_name].analysis, parsed
        )
        if self.obs.enabled:
            self.obs.inc("analysis.precheck_total")
            self.obs.inc(f"analysis.precheck_{report.verdict}")
        if report.is_invalid:
            raise QueryValidationError(report)
        if not report.is_empty:
            return None
        if self.obs.enabled:
            self.obs.inc("analysis.fast_rejects")
        scope = list(runs) if runs is not None else []
        return MultiRunResult(
            query=parsed,
            per_run={
                run_id: LineageResult(query=parsed, run_id=run_id, bindings=[])
                for run_id in scope
            },
            wall_seconds=0.0,
        )

    def lineage(
        self,
        query: QueryLike,
        runs: Optional[Iterable[str]] = None,
        strategy: str = "indexproj",
        focus: Iterable[str] = (),
        precheck: bool = True,
        cache: Optional[bool] = None,
    ) -> MultiRunResult:
        """Answer a lineage query over ``runs`` (default: every stored run
        of the owning workflow).

        ``strategy`` may be ``"indexproj"``, ``"naive"``, or ``"auto"``
        (pick by the static cost model, :mod:`repro.analysis.cost`).
        Each strategy has one execution path: INDEXPROJ runs the query's
        compiled program (:mod:`repro.query.compiled`; warm plans skip
        (s1)) over the whole ``plan × run-set`` key grid in chunked
        multi-key statements, and NI traverses level-synchronously
        across all runs.  Answers are identical to the paper's per-run
        loops (``lineage_multirun`` on either engine).

        With the default scope, the run set is resolved and read under
        one membership token of the store: a query racing an ingest or
        ``delete_run`` resolves its scope again and re-executes, and
        after :data:`SCOPE_ATTEMPTS` moving run sets (or deletes still in
        flight after :data:`SCOPE_SETTLE_SECONDS`) it raises
        :class:`~repro.provenance.store.StoreBusyError`.  An answer never
        names a run that was deleted before its reads finished.

        With ``precheck`` (the default), the query is first triaged on
        the workflow specification alone: queries with unresolvable names
        raise :class:`~repro.analysis.precheck.QueryValidationError` with
        did-you-mean suggestions, and provably-empty queries (no dataflow
        path from any focus processor to the binding) return their empty
        answer without a single trace read.

        ``cache=None`` (default) consults the service-level lineage
        result cache when the service was built with one: a valid warm
        entry for (workflow fingerprint, resolved strategy, target,
        focus, run scope) is served with **zero** store reads
        (``result.from_cache`` is then True).  ``cache=False`` bypasses
        the result cache entirely for this call — neither consulted nor
        populated; ``cache=True`` on a cache-disabled service is a
        silent no-op.
        """
        slowlog = self.slowlog
        if not self.obs.enabled and slowlog is None:
            # Fast path: no tracing, no journal — zero added work.
            return self._lineage_impl(
                query, runs=runs, strategy=strategy, focus=focus,
                precheck=precheck, cache=cache,
            )
        meta: Dict[str, Any] = {}
        started = time.perf_counter()
        with self.obs.span("service.lineage") as span:
            result = self._lineage_impl(
                query, runs=runs, strategy=strategy, focus=focus,
                precheck=precheck, cache=cache, _meta=meta,
            )
            if span.sampled:
                parsed = meta.get("parsed")
                span.set(
                    query=str(parsed) if parsed is not None else str(query),
                    strategy=meta.get("strategy", strategy),
                    from_cache=result.from_cache,
                    runs=len(result.per_run),
                )
        if slowlog is not None:
            # Failed queries raise out of the span above and leave no
            # journal entry — the slowlog records slow *answers*.  The
            # threshold is checked here too, so fast answers skip the
            # record construction (and its aggregate_stats pass) outright.
            wall_ms = (time.perf_counter() - started) * 1000.0
            if wall_ms >= slowlog.threshold_ms:
                trace_id = span.trace_id if self.obs.enabled else ""
                slowlog.record(
                    self._slowlog_entry(meta, result, wall_ms, trace_id)
                )
        return result

    @staticmethod
    def _slowlog_entry(
        meta: Dict[str, Any],
        result: MultiRunResult,
        wall_ms: float,
        trace_id: str,
    ) -> Dict[str, Any]:
        """One structured slow-query record (schema: docs/OBSERVABILITY.md).

        The store counters come from ``aggregate_stats()`` — the same
        identity-deduped aggregation the result itself reports — so the
        journal's round-trip numbers match ``result.sql_queries`` exactly.
        """
        stats = result.aggregate_stats()
        return {
            "query": str(result.query),
            "strategy": meta.get("strategy", ""),
            "from_cache": result.from_cache,
            "wall_ms": round(wall_ms, 3),
            "t1_ms": round(result.traversal_seconds * 1000.0, 3),
            "t2_ms": round(result.lookup_seconds * 1000.0, 3),
            "runs": len(result.per_run),
            "bindings": sum(
                len(r.bindings) for r in result.per_run.values()
            ),
            "sql_queries": stats.queries,
            "rows": stats.rows,
            "batch_lookups": stats.batch_lookups,
            "batch_keys": stats.batch_keys,
            "batch_chunk_size": stats.batch_chunk_size,
            "trace_id": trace_id,
        }

    def _lineage_impl(
        self,
        query: QueryLike,
        runs: Optional[Iterable[str]] = None,
        strategy: str = "indexproj",
        focus: Iterable[str] = (),
        precheck: bool = True,
        cache: Optional[bool] = None,
        _meta: Optional[Dict[str, Any]] = None,
    ) -> MultiRunResult:
        parsed = self._as_query(query, focus)
        if _meta is not None:
            # The parsed object, not its rendering — callers format the
            # query text only when a sampled span or slowlog entry needs it.
            _meta["parsed"] = parsed
        workflow_name = self._owning_workflow(parsed)
        if precheck:
            rejected = self._precheck(workflow_name, parsed, runs)
            if rejected is not None:
                return rejected
        pinned = list(runs) if runs is not None else None
        for _ in range(SCOPE_ATTEMPTS):
            if pinned is None:
                # Captured before the scope is resolved: if the same
                # token holds once the reads finish, scope and answer saw
                # one run set.  None: a delete is still in flight.
                membership = self.store.membership_token(SCOPE_SETTLE_SECONDS)
                if membership is None:
                    continue
                scope = self.runs_of(workflow_name)
            else:
                scope = pinned
            result, entry = self._execute(
                workflow_name, parsed, scope, strategy, cache, _meta
            )
            if pinned is None and self.store.membership_token() != membership:
                continue
            if entry is not None:
                key, generations = entry
                result.generations = generations
                assert self._result_cache is not None
                self._result_cache.put(key, result, generations)
            return result
        raise StoreBusyError(
            SCOPE_ATTEMPTS,
            RuntimeError(
                f"the stored runs of {workflow_name!r} changed during "
                f"each of {SCOPE_ATTEMPTS} executions"
            ),
        )

    def _execute(
        self,
        workflow_name: str,
        parsed: LineageQuery,
        scope: List[str],
        strategy: str,
        cache: Optional[bool],
        _meta: Optional[Dict[str, Any]],
    ) -> Tuple[MultiRunResult, Optional[Tuple[ResultCacheKey, Any]]]:
        """One answer over a resolved scope: a result-cache hit, or an
        execution plus the ``(key, generations)`` to cache it under."""
        if strategy == "auto":
            strategy = _choose_strategy(
                self._lineage_engines[workflow_name].analysis,
                parsed,
                runs=len(scope),
            )
            if self.obs.enabled:
                self.obs.inc(f"analysis.auto_{strategy}")
        if _meta is not None:
            _meta["strategy"] = strategy
        entry = None
        if self._result_cache is not None and cache is not False:
            key = ResultCacheKey(
                fingerprint=self._fingerprints[workflow_name],
                strategy=strategy,
                node=parsed.node,
                port=parsed.port,
                index=parsed.index.encode(),
                focus=parsed.focus,
                runs=tuple(scope),
            )
            hit = self._result_cache.get(key, parsed)
            if hit is not None:
                return hit, None
            # Miss: capture the scope's generation vector *before*
            # executing, so an entry built while a writer raced us
            # self-invalidates instead of serving stale data.
            entry = (key, self.store.generation_vector(scope))
        if strategy == "naive":
            result = self._naive.lineage_multirun_batched(scope, parsed)
        else:
            result = self._lineage_engines[
                workflow_name
            ].lineage_multirun_compiled(scope, parsed)
        return result, entry

    def lineage_many(
        self,
        queries: Sequence[QueryLike],
        max_workers: int = 4,
        runs: Optional[Iterable[str]] = None,
        strategy: str = "indexproj",
        focus: Iterable[str] = (),
        precheck: bool = True,
        cache: Optional[bool] = None,
    ) -> List[MultiRunResult]:
        """Answer many lineage queries concurrently.

        Results come back in the order the queries were given, and each is
        exactly what a sequential :meth:`lineage` call would have returned
        — the thread pool only overlaps their store lookups.  Engines,
        plan caches, and the lineage cache stack are shared across the
        pool, so repeated shapes pay planning once (the paper's Section
        3.4 sharing, applied across a query *batch*) and duplicate
        queries inside one batch can warm each other.
        """
        query_list = list(queries)
        if not query_list:
            return []
        scope = list(runs) if runs is not None else None
        workers = max(1, min(max_workers, len(query_list)))
        if workers == 1:
            return [
                self.lineage(
                    q, runs=scope, strategy=strategy, focus=focus,
                    precheck=precheck, cache=cache,
                )
                for q in query_list
            ]
        # Each pooled query runs in a copy of the caller's context, so
        # its service.lineage span still nests under the caller's active
        # span (one trace id per request even across this pool).  One
        # copy per query — a Context cannot be entered concurrently.
        tasks = [
            (contextvars.copy_context(), q) for q in query_list
        ]

        def run_one(task: Tuple[contextvars.Context, QueryLike]):
            ctx, q = task
            return ctx.run(
                self.lineage, q, runs=scope, strategy=strategy,
                focus=focus, precheck=precheck, cache=cache,
            )

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_one, tasks))

    def impact(
        self,
        node: str,
        port: str,
        index: Iterable[int] = (),
        focus: Iterable[str] = (),
        runs: Optional[Iterable[str]] = None,
    ) -> MultiRunResult:
        """Answer a forward (impact) query over ``runs``."""
        query = ImpactQuery.create(node, port, index, focus)
        workflow_name = self._owning_workflow(query)
        scope = list(runs) if runs is not None else self.runs_of(workflow_name)
        return self._impact_engines[workflow_name].impact_multirun(scope, query)

    def explain(
        self, query: QueryLike, runs: Optional[int] = None,
        focus: Iterable[str] = (),
    ) -> QueryExplanation:
        """Static cost estimate for a query (no trace access)."""
        parsed = self._as_query(query, focus)
        workflow_name = self._owning_workflow(parsed)
        run_count = runs if runs is not None else max(
            1, len(self.runs_of(workflow_name))
        )
        return _explain(
            self._lineage_engines[workflow_name].analysis, parsed, run_count
        )

    def explain_plan(
        self, query: QueryLike, runs: Optional[int] = None,
        focus: Iterable[str] = (),
    ) -> PlanExplanation:
        """Full static plan: pre-check verdict, cost model, auto strategy,
        the exact INDEXPROJ trace lookups, and the result-cache state —
        all without trace access (run count defaults to the stored-run
        count, which may read; the cache probe itself never does)."""
        parsed = self._as_query(query, focus)
        workflow_name = self._owning_workflow(parsed)
        run_count = runs if runs is not None else max(
            1, len(self.runs_of(workflow_name))
        )
        cache_state: Optional[str] = None
        if self._result_cache is not None:
            # Probe both strategies over the stored-run scope — the scope
            # a plain ``lineage(query)`` call would execute against.
            scope = tuple(self.runs_of(workflow_name))
            fingerprint = self._fingerprints[workflow_name]
            warm = any(
                self._result_cache.probe(
                    ResultCacheKey(
                        fingerprint=fingerprint,
                        strategy=candidate,
                        node=parsed.node,
                        port=parsed.port,
                        index=parsed.index.encode(),
                        focus=parsed.focus,
                        runs=scope,
                    )
                )
                for candidate in ("indexproj", "naive")
            )
            cache_state = "warm" if warm else "cold"
        return _explain_plan(
            self._lineage_engines[workflow_name].analysis, parsed, run_count,
            cache_state=cache_state,
            plan_state=self._plan_registry.probe(
                self._fingerprints[workflow_name], parsed
            ),
        )

    def statistics(self) -> Dict[str, int]:
        """Store-wide size summary plus registration count."""
        stats = self.store.statistics()
        stats["registered_workflows"] = len(self._flows)
        return stats

    # -- cache control ------------------------------------------------------

    def cache_stats(self) -> Dict[str, Any]:
        """Point-in-time view of the lineage cache stack.

        ``{"enabled": ..., "config": {...}, "result": {...},
        "trace": {...}}`` — the per-level dicts carry hits, misses,
        evictions, invalidations, entries, and byte accounting (empty
        when the stack is disabled).  See docs/CACHING.md.
        """
        config = {
            "result_entries": self.cache_config.result_entries,
            "result_bytes": self.cache_config.result_bytes,
            "trace_entries": self.cache_config.trace_entries,
            "trace_bytes": self.cache_config.trace_bytes,
        }
        plans = self._plan_registry.stats()
        if self._result_cache is None or self._trace_cache is None:
            return {
                "enabled": False, "config": config,
                "result": {}, "trace": {}, "plans": plans,
            }
        return {
            "enabled": True,
            "config": config,
            "result": self._result_cache.stats(),
            "trace": self._trace_cache.stats(),
            "plans": plans,
        }

    def invalidate_caches(self) -> Dict[str, int]:
        """Drop every cached lineage artifact (both levels + scope memo).

        Returns the number of entries evicted per level.  Generations are
        untouched — this is an operator hammer (e.g. after out-of-band
        database surgery), not part of normal coherence, which the write
        generations handle automatically.
        """
        with self._run_list_lock:
            self._run_list_memo.clear()
        plans = self._plan_registry.clear()
        if self._result_cache is None or self._trace_cache is None:
            return {"result": 0, "trace": 0, "plans": plans}
        return {
            "result": self._result_cache.clear(),
            "trace": self._trace_cache.clear(),
            "plans": plans,
        }

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time view of every ``repro.obs`` instrument.

        Empty sections when the service was built without an enabled
        observability handle (the default).  See docs/OBSERVABILITY.md
        for the instrument inventory.
        """
        return self.obs.metrics_snapshot()
