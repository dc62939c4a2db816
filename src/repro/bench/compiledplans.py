"""Compiled-plan experiment: cold compile vs warm plan vs interpreted.

One regime, one record (``BENCH_compiled.json``): the paper's Fig. 9
configurations (chain length *l* × nesting depth *d*, one run, the
focused query).  Per grid point three executions are timed with
:func:`~repro.bench.harness.best_of` and their p50 reported:

* ``interpreted`` — the plain INDEXPROJ engine re-planning per call
  (``cache_plans=False``), the committed ``BENCH_strategies.json``
  baseline regime;
* ``cold-compile`` — the compiled path with the registry cleared before
  every call, so each sample pays (s1) compilation *and* prepared
  execution;
* ``warm-plan`` — the compiled path against a hot registry: the steady
  state a long-lived service runs in.

The acceptance floor — warm-plan at least
:data:`WARM_PLAN_SPEEDUP_FLOOR` times faster than interpreted at every
grid point — is computed here and asserted (and archived) by
``benchmarks/bench_compiled.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.bench.figures import scale_config
from repro.bench.harness import best_of, prepare_store
from repro.query.indexproj import IndexProjEngine
from repro.testbed.generator import focused_query

Row = Dict[str, Any]

#: CI floor: warm compiled plans must beat the interpreted re-planning
#: path by at least this factor on every Fig. 9 grid point.
WARM_PLAN_SPEEDUP_FLOOR = 1.3


def _p50_ms(timing: Any) -> float:
    return timing.median * 1000.0


def compiled_grid_sweep(scale: str = "quick") -> List[Row]:
    """One row per Fig. 9 grid point with the three regimes' p50s."""
    config = scale_config(scale)
    rows: List[Row] = []
    query = focused_query()
    for d in config["fig9_d_values"]:
        for length in config["fig9_l_values"]:
            prepared = prepare_store(length, d, runs=1)
            run_id = prepared.run_ids[0]
            scope = [run_id]
            interpreted = IndexProjEngine(
                prepared.store, prepared.flow, cache_plans=False
            )
            compiled = IndexProjEngine(prepared.store, prepared.flow)

            def cold_compile():
                compiled.plan_registry.clear()
                return compiled.lineage_multirun_compiled(scope, query)

            # Prime SQLite's page cache (and create the lazy registry)
            # so every regime sees warm pages.
            interpreted.lineage_multirun(scope, query)
            compiled.lineage_multirun_compiled(scope, query)
            interp_timing, interp_result = best_of(
                lambda: interpreted.lineage_multirun(scope, query),
                config["repeats"],
            )
            cold_timing, _ = best_of(cold_compile, config["repeats"])
            compiled.lineage_multirun_compiled(scope, query)  # warm plan
            warm_timing, warm_result = best_of(
                lambda: compiled.lineage_multirun_compiled(scope, query),
                config["repeats"],
            )
            assert (
                warm_result.binding_keys_by_run()
                == interp_result.binding_keys_by_run()
            )
            interp_p50 = _p50_ms(interp_timing)
            warm_p50 = _p50_ms(warm_timing)
            rows.append(
                {
                    "regime": "fig9",
                    "d": d,
                    "l": length,
                    "interpreted_p50_ms": round(interp_p50, 4),
                    "cold_compile_p50_ms": round(_p50_ms(cold_timing), 4),
                    "warm_plan_p50_ms": round(warm_p50, 4),
                    "warm_speedup": round(
                        interp_p50 / warm_p50 if warm_p50 > 0 else 0.0, 2
                    ),
                    "interpreted_sql": interp_result.sql_queries,
                    "warm_plan_sql": warm_result.sql_queries,
                }
            )
    return rows


def min_warm_speedup(rows: Sequence[Row]) -> float:
    """Smallest interpreted/warm-plan p50 ratio across the grid rows."""
    speedups = [
        row["warm_speedup"] for row in rows if row.get("regime") == "fig9"
    ]
    if not speedups:
        raise ValueError("no fig9 grid rows to take the floor over")
    return min(speedups)
