"""Set-based batched execution — round-trip collapse across runs.

Beyond the paper's figures: the batched read path (docs/PERFORMANCE.md)
answers the full ``plan × run-set`` lookup grid of a multi-run lineage
query in ``ceil(keys/chunk)`` SQL statements instead of one per key.
The kernel rows time a 20-run focused query unbatched vs. batched; the
report benchmark runs the full ``repro.bench.batching`` sweep, asserts
the acceptance floors — batched answers identical everywhere, never more
round-trips than unbatched, and >= 3x fewer at the largest run scope —
then writes the machine-readable ``BENCH_batch.json`` record at the
repository root.
"""

from pathlib import Path

import pytest

from repro.bench.batching import (
    REDUCTION_THRESHOLD,
    batch_sweep,
    min_reduction_at_max_runs,
)
from repro.bench.reporting import write_bench_json
from repro.query.indexproj import IndexProjEngine
from repro.service import ProvenanceService
from repro.testbed.workloads import genes2kegg_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gk_service(tmp_path_factory):
    workload = genes2kegg_workload()
    tmp = tmp_path_factory.mktemp("bench-batch")
    service = ProvenanceService(str(tmp / "traces.db"), cache=False)
    service.register_workflow(workload.flow, workload.registry)
    for _ in range(20):
        service.run(workload.flow.name, workload.inputs)
    service.store.create_indexes()
    yield workload, service
    service.close()


def bench_batch_kernel_unbatched(benchmark, gk_service):
    """Timed kernel: 20-run focused query, one statement per key."""
    workload, service = gk_service
    query = workload.focused_query()
    engine = IndexProjEngine(service.store, workload.flow)
    scope = service.runs_of(workload.flow.name)
    result = benchmark(lambda: engine.lineage_multirun(scope, query))
    assert result.sql_queries == 20


def bench_batch_kernel_batched(benchmark, gk_service):
    """Timed kernel: the same query through the set-based grid."""
    workload, service = gk_service
    query = workload.focused_query()
    engine = IndexProjEngine(service.store, workload.flow)
    scope = service.runs_of(workload.flow.name)
    result = benchmark(lambda: engine.lineage_multirun_batched(scope, query))
    assert result.sql_queries == 1


def bench_batch_report(benchmark, scale, emit_report):
    rows = benchmark.pedantic(
        lambda: batch_sweep(scale), rounds=1, iterations=1
    )
    emit_report(
        "batch_sweep",
        rows,
        f"Set-based batched execution (scale={scale})",
        columns=[
            "workload", "query", "strategy", "runs", "unbatched_ms",
            "batched_ms", "unbatched_queries", "batched_queries",
            "reduction", "identical",
        ],
    )
    assert all(row["identical"] for row in rows)
    assert all(
        row["batched_queries"] <= row["unbatched_queries"] for row in rows
    )
    assert min_reduction_at_max_runs(rows) >= REDUCTION_THRESHOLD
    write_bench_json(
        str(REPO_ROOT / "BENCH_batch.json"),
        {
            "bench": "batch_sweep",
            "scale": scale,
            "rows": rows,
            "acceptance": {
                "reduction_threshold": REDUCTION_THRESHOLD,
                "min_reduction_at_max_runs": min_reduction_at_max_runs(rows),
                "never_more_round_trips": True,
            },
        },
    )
