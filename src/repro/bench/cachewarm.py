"""Warm lineage-cache experiment (beyond the paper's figures).

The paper's Section 3.4 argues that work done for one lineage query
should be reused across the many queries sharing a workflow; the repo's
``repro.cache`` stack extends that reuse from plans to trace lookups and
complete answers.  This driver quantifies the end state on the Fig. 4
multi-run workload: the same query answered repeatedly over an N-run
store, cold (the engine-level per-run recomputation, no caches)
versus warm (a cache-enabled service after one priming execution).

Two acceptance claims are checked for every row before its timing is
reported:

* the warm repeats perform **zero** trace-store reads — asserted twice,
  via the per-result ``StoreStats`` and via the ``store.reads`` counter
  of an enabled ``repro.obs`` handle wired through the warm service; and
* the warm answer is differentially identical to the cold one (same
  binding keys per run).

The report benchmark asserts the headline threshold on top: >= 5x
wall-clock speedup of the warm path over the cold path.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Callable, Dict, List

from repro.obs import Observability
from repro.query.base import MultiRunResult
from repro.query.indexproj import IndexProjEngine
from repro.service import ProvenanceService

Row = Dict[str, Any]

SCALES: Dict[str, Dict[str, Any]] = {
    "quick": {"runs": 30, "repeats": 5, "workloads": ["gk"]},
    "paper": {"runs": 200, "repeats": 10, "workloads": ["gk", "pd"]},
}

#: minimum warm-over-cold speedup the report benchmark asserts.
SPEEDUP_THRESHOLD = 5.0


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


def cache_warm(scale: str = "quick") -> List[Row]:
    """Cold vs. warm repeated multi-run lineage, one row per query shape.

    Returns one row per (workload, query kind) with cold/warm timings,
    the speedup, the warm store-read count (must be 0), and the
    differential check outcome.
    """
    config = scale_config(scale)
    runs, repeats = config["runs"], config["repeats"]
    rows: List[Row] = []
    for key in config["workloads"]:
        workload = _workload(key)
        with tempfile.TemporaryDirectory() as tmp:
            db = os.path.join(tmp, "traces.db")
            cold = ProvenanceService(db, cache=False)
            cold.register_workflow(workload.flow, workload.registry)
            for _ in range(runs):
                cold.run(workload.flow.name, workload.inputs)
            cold.store.create_indexes()
            reference_engine = IndexProjEngine(
                cold.store, workload.flow.flattened()
            )
            scope = cold.runs_of(workload.flow.name)
            obs = Observability()
            warm = ProvenanceService(db, cache=True, obs=obs)
            warm.register_workflow(workload.flow, workload.registry)
            for kind, query in (
                ("focused", workload.focused_query()),
                ("unfocused", workload.unfocused_query()),
            ):
                rows.append(
                    _measure(
                        kind, key, runs, repeats,
                        lambda q=query: reference_engine.lineage_multirun(
                            scope, q
                        ),
                        warm, obs, query,
                    )
                )
            cold.close()
            warm.close()
    return rows


def _measure(
    kind: str,
    workload_key: str,
    runs: int,
    repeats: int,
    cold: Callable[[], MultiRunResult],
    warm: ProvenanceService,
    obs: Observability,
    query,
) -> Row:
    # The cold baseline is the engine-level per-run recomputation, the
    # regime the committed SPEEDUP_THRESHOLD was calibrated against
    # (compiled recomputation has its own record, BENCH_compiled.json).
    cold_times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference = cold()
        cold_times.append(time.perf_counter() - start)
    # One priming execution fills both cache levels on the warm service.
    warm.lineage(query)
    reads_before = obs.counter_value("store.reads")
    warm_times = []
    warm_results = []
    for _ in range(repeats):
        start = time.perf_counter()
        warm_results.append(warm.lineage(query))
        warm_times.append(time.perf_counter() - start)
    warm_store_reads = obs.counter_value("store.reads") - reads_before
    stats_queries = sum(
        result.stats.queries
        for answer in warm_results
        for result in answer.per_run.values()
    )
    identical = all(
        answer.from_cache
        and answer.binding_keys_by_run() == reference.binding_keys_by_run()
        for answer in warm_results
    )
    # Best-of-N (timeit discipline): scheduling and GC spikes only ever
    # add time, and they can dominate the sub-millisecond warm path.
    cold_ms = 1000.0 * min(cold_times)
    warm_ms = 1000.0 * min(warm_times)
    return {
        "workload": workload_key,
        "query": kind,
        "runs": runs,
        "repeats": repeats,
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "speedup": cold_ms / warm_ms if warm_ms > 0 else float("inf"),
        "warm_store_reads": warm_store_reads,
        "warm_stats_queries": stats_queries,
        "identical": identical,
    }


def min_speedup(rows: List[Row]) -> float:
    return min(row["speedup"] for row in rows)
