"""Set-based batched execution experiment (beyond the paper's figures).

``EXPERIMENTS.md`` pins the reproduction's efficiency story to the
hardware-independent ``sql_queries`` round-trip counter.  This driver
quantifies what the batched read path (docs/PERFORMANCE.md) does to that
counter on the paper-scale workloads: the same cold-cache multi-run
lineage query executed per-key (one SQL statement per lookup key per
run) versus set-based (chunked multi-key ``VALUES``-joins), for both
strategies, over growing run scopes.

Every row is checked differentially before its timing is reported — the
batched answer must be binding-identical to the unbatched one — and the
report benchmark asserts the acceptance floor on top: at the largest run
scope the batched path must issue at least ``REDUCTION_THRESHOLD``x
fewer round-trips, and it must never issue more than the unbatched path
anywhere.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Dict, List

from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.service import ProvenanceService

Row = Dict[str, Any]

SCALES: Dict[str, Dict[str, Any]] = {
    "quick": {"runs": [1, 5, 20], "workloads": ["gk"]},
    "paper": {"runs": [1, 5, 20], "workloads": ["gk", "pd"]},
}

#: minimum round-trip reduction the report benchmark asserts at the
#: largest run scope (ISSUE 5 acceptance floor).
REDUCTION_THRESHOLD = 3.0


def scale_config(scale: str) -> Dict[str, Any]:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (use one of {sorted(SCALES)})")
    return SCALES[scale]


def _workload(key: str):
    from repro.testbed.workloads import (
        genes2kegg_workload,
        protein_discovery_workload,
    )

    return {"gk": genes2kegg_workload, "pd": protein_discovery_workload}[key]()


def _best_ms(fn, repeats: int = 3) -> float:
    # Best-of-N (timeit discipline): scheduling and GC spikes only add.
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best


def batch_sweep(scale: str = "quick") -> List[Row]:
    """Cold-cache batched vs. unbatched lineage over growing run scopes.

    One row per (workload, query kind, strategy, run count) with the
    round-trip counts of both modes, the reduction factor, best-of-N
    timings, and the differential check outcome.
    """
    config = scale_config(scale)
    rows: List[Row] = []
    for key in config["workloads"]:
        workload = _workload(key)
        with tempfile.TemporaryDirectory() as tmp:
            db = os.path.join(tmp, "traces.db")
            service = ProvenanceService(db, cache=False)
            service.register_workflow(workload.flow, workload.registry)
            all_runs = [
                service.run(workload.flow.name, workload.inputs)
                for _ in range(max(config["runs"]))
            ]
            service.store.create_indexes()
            engines = {
                "indexproj": IndexProjEngine(
                    service.store, workload.flow.flattened()
                ),
                "naive": NaiveEngine(service.store),
            }
            for kind, query in (
                ("focused", workload.focused_query()),
                ("unfocused", workload.unfocused_query()),
            ):
                for strategy in ("indexproj", "naive"):
                    for count in config["runs"]:
                        scope = all_runs[:count]
                        rows.append(
                            _measure(
                                engines[strategy], key, kind, strategy,
                                scope, query,
                            )
                        )
            service.close()
    return rows


def _measure(
    engine: Any,
    workload_key: str,
    kind: str,
    strategy: str,
    scope: List[str],
    query,
) -> Row:
    # Engine-level references: the paper's per-run loop against the
    # set-based grid (the compiled path has its own record,
    # BENCH_compiled.json).
    unbatched = engine.lineage_multirun(scope, query)
    batched = engine.lineage_multirun_batched(scope, query)
    identical = (
        batched.binding_keys_by_run() == unbatched.binding_keys_by_run()
    )
    unbatched_queries = unbatched.sql_queries
    batched_queries = batched.sql_queries
    unbatched_ms = _best_ms(lambda: engine.lineage_multirun(scope, query))
    batched_ms = _best_ms(
        lambda: engine.lineage_multirun_batched(scope, query)
    )
    return {
        "workload": workload_key,
        "query": kind,
        "strategy": strategy,
        "runs": len(scope),
        "unbatched_ms": unbatched_ms,
        "batched_ms": batched_ms,
        "unbatched_queries": unbatched_queries,
        "batched_queries": batched_queries,
        "reduction": (
            unbatched_queries / batched_queries
            if batched_queries
            else float("inf")
        ),
        "batch_keys": batched.aggregate_stats().batch_keys,
        "identical": identical,
    }


def min_reduction_at_max_runs(rows: List[Row]) -> float:
    """Smallest round-trip reduction among the largest-scope rows."""
    top = max(row["runs"] for row in rows)
    return min(row["reduction"] for row in rows if row["runs"] == top)
