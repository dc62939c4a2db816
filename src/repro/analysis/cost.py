"""Static cost-based strategy planning for lineage queries.

Builds on the per-strategy estimates of :mod:`repro.query.explain` (whose
INDEXPROJ lookup count is exact — it *is* the plan size — and whose NI
count is the static 2-lookups-per-hop bound) and combines them with the
pre-checker's verdict into one :class:`PlanExplanation`:

* :func:`choose_strategy` is the ``strategy="auto"`` planner: pick the
  strategy with the fewer estimated trace lookups, breaking ties towards
  INDEXPROJ (the paper's Section 4 conclusion: it never does worse, and
  its traversal is shared across runs and cached across queries);
* :func:`explain_plan` is the user-facing ``EXPLAIN``: verdict, cost
  breakdown, chosen strategy, and the exact trace lookups INDEXPROJ
  would issue — all without touching the trace store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.precheck import PrecheckReport, precheck_query
from repro.provenance.store import DEFAULT_BATCH_CHUNK
from repro.query.base import LineageQuery
from repro.query.explain import QueryExplanation, explain
from repro.query.indexproj import build_plan
from repro.workflow.depths import DepthAnalysis


@dataclass(frozen=True)
class PlanExplanation:
    """Everything the static planner knows about one query."""

    report: PrecheckReport
    #: per-strategy cost estimates; ``None`` when the query is invalid
    #: (its names do not resolve, so no cost can be attributed).
    cost: Optional[QueryExplanation]
    #: the strategy ``strategy="auto"`` would run ("indexproj" | "naive",
    #: or "none" when the pre-checker already answers the query).
    chosen_strategy: str
    #: rendered trace lookups of the INDEXPROJ plan, in plan order.
    trace_queries: Tuple[str, ...]
    #: lineage result-cache state for this query over the stored-run
    #: scope: ``"warm"`` (a valid entry exists — the query would be
    #: answered with zero store reads), ``"cold"``, or ``None`` when the
    #: planning context has no result cache (engine-level planning, or a
    #: cache-disabled service).
    cache_state: Optional[str] = None
    #: SQL round-trips the unbatched INDEXPROJ execution would issue over
    #: the run scope: ``len(plan) * runs`` (0 for non-viable queries).
    unbatched_round_trips: int = 0
    #: round-trips of the set-based execution of the same key grid:
    #: ``ceil(len(plan) * runs / batch_chunk_size)``.
    batched_round_trips: int = 0
    #: chunk size the batched estimate assumes
    #: (:data:`repro.provenance.store.DEFAULT_BATCH_CHUNK` by default).
    batch_chunk_size: int = DEFAULT_BATCH_CHUNK
    #: compiled-plan registry state for this query shape: ``"warm"`` (a
    #: program exists — (s1) would be skipped entirely), ``"cold"``, or
    #: ``None`` when the planning context has no registry.
    plan_state: Optional[str] = None

    def summary(self) -> str:
        lines = [self.report.summary()]
        if self.report.is_viable and self.cost is not None:
            lines.append(self.cost.summary())
            lines.append(f"auto strategy: {self.chosen_strategy}")
            if self.unbatched_round_trips:
                lines.append(
                    f"round-trips: {self.unbatched_round_trips} unbatched"
                    f" -> {self.batched_round_trips} batched"
                    f" (chunk={self.batch_chunk_size})"
                )
            if self.plan_state is not None:
                lines.append(f"compiled plan: {self.plan_state}")
            if self.cache_state is not None:
                hint = (
                    " (would be served with 0 trace lookups)"
                    if self.cache_state == "warm"
                    else ""
                )
                lines.append(f"result cache: {self.cache_state}{hint}")
            for rendered in self.trace_queries:
                lines.append(f"  {rendered}")
        elif self.report.is_empty:
            lines.append(
                "plan: answered statically (0 trace lookups, any strategy)"
            )
        return "\n".join(lines)


def choose_strategy(
    analysis: DepthAnalysis, query: LineageQuery, runs: int = 1
) -> str:
    """The ``strategy="auto"`` decision: fewest estimated trace lookups.

    INDEXPROJ wins ties — its estimate is exact while NI's is an upper
    bound, and its plan is shared across the ``runs`` in scope.
    """
    estimate = explain(analysis, query, runs=max(runs, 1))
    if estimate.indexproj_lookups <= estimate.naive_lookups:
        return "indexproj"
    return "naive"


def explain_plan(
    analysis: DepthAnalysis,
    query: LineageQuery,
    runs: int = 1,
    cache_state: Optional[str] = None,
    batch_chunk: int = DEFAULT_BATCH_CHUNK,
    plan_state: Optional[str] = None,
) -> PlanExplanation:
    """Full static plan for one query (pre-check + cost + trace lookups).

    ``cache_state`` is supplied by contexts that own a lineage result
    cache (the :class:`~repro.service.ProvenanceService`): ``"warm"``
    when a currently-valid cached answer exists for the query.
    ``plan_state`` likewise comes from contexts that own a compiled-plan
    registry (same service).

    The round-trip estimates are exact for INDEXPROJ, because the key
    grid of the batched s2 executor is exactly ``plan × runs``:
    unbatched execution issues one statement per key, batched execution
    ``ceil(keys / batch_chunk)`` statements in total.
    """
    report = precheck_query(analysis, query)
    if report.is_invalid:
        return PlanExplanation(report, None, "none", ())
    cost = explain(analysis, query, runs=max(runs, 1))
    if report.is_empty:
        return PlanExplanation(report, cost, "none", ())
    plan = build_plan(analysis, query)
    keys = len(plan) * max(runs, 1)
    chunk = max(batch_chunk, 1)
    return PlanExplanation(
        report,
        cost,
        choose_strategy(analysis, query, runs=runs),
        tuple(str(tq) for tq in plan.trace_queries),
        cache_state=cache_state,
        unbatched_round_trips=keys,
        batched_round_trips=math.ceil(keys / chunk),
        batch_chunk_size=chunk,
        plan_state=plan_state,
    )
