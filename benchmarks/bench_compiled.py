"""Compiled query plans — prepared SQL programs vs interpreted INDEXPROJ.

The tentpole claim, measured: baking the (s1) traversal into a
:class:`~repro.query.compiled.CompiledPlan` and executing it through
per-connection prepared statements must beat the interpreted
re-planning path by at least
:data:`~repro.bench.compiledplans.WARM_PLAN_SPEEDUP_FLOOR` (p50, every
Fig. 9 grid point).  The kernel rows time the three regimes at the
largest chain length; the report benchmark runs the full
``repro.bench.compiledplans`` sweep,
asserts the floor and answer identity, and writes the machine-readable
``BENCH_compiled.json`` record (``repro.bench/1`` schema) at the
repository root.
"""

from pathlib import Path

import pytest

from repro.bench.compiledplans import (
    WARM_PLAN_SPEEDUP_FLOOR,
    compiled_grid_sweep,
    min_warm_speedup,
)
from repro.bench.figures import scale_config
from repro.bench.harness import prepare_store
from repro.bench.reporting import write_bench_json
from repro.query.indexproj import IndexProjEngine
from repro.testbed.generator import focused_query

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def midsize_store(scale):
    config = scale_config(scale)
    length = config["fig9_l_values"][-1]
    d = config["fig9_d_values"][0]
    return prepare_store(length, d, runs=1)


def bench_compiled_kernel_interpreted(benchmark, midsize_store):
    """Timed kernel: interpreted INDEXPROJ, re-planned per call."""
    engine = IndexProjEngine(
        midsize_store.store, midsize_store.flow, cache_plans=False
    )
    query = focused_query()
    scope = [midsize_store.run_ids[0]]
    result = benchmark(lambda: engine.lineage_multirun(scope, query))
    assert result.per_run[scope[0]].bindings


def bench_compiled_kernel_cold(benchmark, midsize_store):
    """Timed kernel: compile + execute, registry cleared every call."""
    engine = IndexProjEngine(midsize_store.store, midsize_store.flow)
    query = focused_query()
    scope = [midsize_store.run_ids[0]]
    engine.lineage_multirun_compiled(scope, query)  # create the registry

    def cold():
        engine.plan_registry.clear()
        return engine.lineage_multirun_compiled(scope, query)

    result = benchmark(cold)
    assert result.per_run[scope[0]].bindings


def bench_compiled_kernel_warm(benchmark, midsize_store):
    """Timed kernel: the steady state — hot registry, prepared SQL."""
    engine = IndexProjEngine(midsize_store.store, midsize_store.flow)
    query = focused_query()
    scope = [midsize_store.run_ids[0]]
    engine.lineage_multirun_compiled(scope, query)  # warm plan + stmts
    result = benchmark(
        lambda: engine.lineage_multirun_compiled(scope, query)
    )
    assert result.per_run[scope[0]].bindings


def bench_compiled_report(benchmark, scale, emit_report):
    """Full sweep: grid, floor asserted, record written."""
    rows = benchmark.pedantic(
        lambda: compiled_grid_sweep(scale), rounds=1, iterations=1
    )
    emit_report(
        "compiled_plans",
        rows,
        f"Compiled plans — cold/warm/interpreted p50 (scale={scale})",
        columns=[
            "regime", "d", "l", "interpreted_p50_ms",
            "cold_compile_p50_ms", "warm_plan_p50_ms", "warm_speedup",
            "interpreted_sql", "warm_plan_sql",
        ],
    )
    floor = min_warm_speedup(rows)
    assert floor >= WARM_PLAN_SPEEDUP_FLOOR, (
        f"warm compiled plans only {floor:.2f}x faster than interpreted "
        f"(floor {WARM_PLAN_SPEEDUP_FLOOR}x)"
    )
    write_bench_json(
        str(REPO_ROOT / "BENCH_compiled.json"),
        {
            "bench": "compiled_plans",
            "scale": scale,
            "rows": rows,
            "acceptance": {
                "warm_plan_speedup_floor": WARM_PLAN_SPEEDUP_FLOOR,
                "min_warm_speedup": floor,
                "answers_identical": True,
            },
        },
    )
