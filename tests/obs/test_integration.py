"""End-to-end observability: service, strategies, store, fault injection.

These tests pin the PR's core contracts: span timings and result timings
are the *same measurement*; the plan cache's hit/miss behaviour (paper
Section 3.4) is visible in counters; store retries and injected faults
surface in both ``StoreStats`` and the metrics registry; and nothing is
recorded when observability is disabled (the default).
"""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.provenance.faults import FaultInjector, InjectedCrash
from repro.provenance.store import RetryPolicy, StoreBusyError, TraceStore
from repro.query.base import LineageQuery
from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.service import ProvenanceService
from tests.conftest import build_diamond_workflow


@pytest.fixture
def obs() -> Observability:
    return Observability()


def _query() -> LineageQuery:
    return LineageQuery.create("wf", "out", [1, 1], focus=["GEN", "A", "B"])


class TestServiceWiring:
    def test_run_and_query_populate_all_layers(self, diamond_flow, obs):
        with ProvenanceService(obs=obs) as service:
            service.register_workflow(diamond_flow)
            run_id = service.run("wf", {"size": 3})
            service.lineage(_query(), runs=[run_id])
        snap = service.metrics_snapshot()
        counters = snap["counters"]
        assert counters["engine.runs"] == 1
        assert counters["engine.xform_events"] > 0
        assert counters["store.writes"] == 1
        assert counters["store.reads"] > 0
        assert counters["store.rows_fetched"] > 0
        assert counters["compiled.plan_misses"] == 1
        names = {root.name for root in service.obs.span_roots()}
        assert "engine.run" in names
        # The query now roots at the service facade; the strategy's
        # plan/execute spans nest underneath it.
        assert "service.lineage" in names
        lineage_roots = [
            r for r in service.obs.span_roots()
            if r.name == "service.lineage"
        ]
        assert any(r.find("indexproj.plan") for r in lineage_roots)

    def test_default_service_records_nothing(self, diamond_flow):
        with ProvenanceService() as service:
            service.register_workflow(diamond_flow)
            run_id = service.run("wf", {"size": 3})
            result = service.lineage(_query(), runs=[run_id])
        assert service.metrics_snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert service.obs.span_roots() == []
        # Result timings survive without observability.
        assert result.per_run[run_id].total_seconds > 0.0

    def test_plan_cache_hit_on_second_query(self, diamond_flow, obs):
        # cache=False: the result cache would serve the repeat without
        # re-planning; this test pins the *plan* cache's instrumentation.
        with ProvenanceService(obs=obs, cache=False) as service:
            service.register_workflow(diamond_flow)
            run_id = service.run("wf", {"size": 3})
            first = service.lineage(_query(), runs=[run_id])
            second = service.lineage(_query(), runs=[run_id])
        counters = service.metrics_snapshot()["counters"]
        assert counters["compiled.plan_misses"] == 1
        assert counters["compiled.plan_hits"] == 1
        assert (
            first.per_run[run_id].bindings == second.per_run[run_id].bindings
        )
        plans = [
            s for r in service.obs.span_roots()
            for s in r.find("indexproj.plan")
        ]
        assert [p.attributes["cache"] for p in plans] == ["miss", "hit"]


class TestTimingAgreement:
    def test_s1_s2_spans_are_the_result_timings(self, diamond_store, obs):
        engine = IndexProjEngine(
            diamond_store, build_diamond_workflow(), obs=obs
        )
        run_id = diamond_store.run_ids()[0]
        result = engine.lineage(run_id, _query())
        plan_span = obs.tracer.find("indexproj.plan")[0]
        exec_span = obs.tracer.find("indexproj.execute")[0]
        # One source of truth: result fields ARE the span measurements.
        assert result.traversal_seconds == plan_span.seconds
        assert result.lookup_seconds == exec_span.seconds

    def test_naive_span_is_the_result_timing(self, diamond_store, obs):
        engine = NaiveEngine(diamond_store, obs=obs)
        run_id = diamond_store.run_ids()[0]
        result = engine.lineage(run_id, _query())
        span = obs.tracer.find("naive.traverse")[0]
        assert result.lookup_seconds == span.seconds
        counters = obs.metrics_snapshot()["counters"]
        assert counters["naive.traversals"] == 1
        assert counters["naive.node_visits"] > 0

    def test_trace_lookup_latency_histogram(self, diamond_store, obs):
        engine = IndexProjEngine(
            diamond_store, build_diamond_workflow(), obs=obs
        )
        run_id = diamond_store.run_ids()[0]
        engine.lineage(run_id, _query())
        snap = obs.metrics_snapshot()
        lookups = snap["counters"]["indexproj.trace_lookups"]
        assert lookups > 0
        assert snap["histograms"]["indexproj.trace_lookup_seconds"][
            "count"
        ] == lookups


class TestStoreAndFaults:
    def test_write_busy_retries_reach_metrics(
        self, tmp_path, diamond_run, obs
    ):
        faults = FaultInjector()
        store = TraceStore(
            str(tmp_path / "t.db"),
            retry=RetryPolicy(max_attempts=5, base_delay=0.0),
            faults=faults, obs=obs,
        )
        try:
            faults.inject_busy(2)
            store.insert_trace(diamond_run.trace)
        finally:
            store.close()
        counters = obs.metrics_snapshot()["counters"]
        assert counters["faults.busy_injected"] == 2
        assert counters["store.busy_retries"] == 2
        assert counters["store.backoff_sleeps"] == 2
        assert counters["store.rollbacks"] == 2
        assert counters["store.writes"] == 1
        assert faults.busy_raised == 2

    def test_read_busy_retries_reach_stats_and_metrics(
        self, tmp_path, diamond_run, obs
    ):
        faults = FaultInjector()
        store = TraceStore(
            str(tmp_path / "t.db"),
            retry=RetryPolicy(max_attempts=5, base_delay=0.0),
            faults=faults, obs=obs,
        )
        try:
            store.insert_trace(diamond_run.trace)
            faults.inject_read_busy(2)
            engine = NaiveEngine(store, obs=obs)
            result = engine.lineage(diamond_run.run_id, _query())
            assert result.bindings
        finally:
            store.close()
        # Satellite 1: the per-query StoreStats carries both counters...
        assert result.stats.busy_retries == 2
        assert result.stats.fault_injections == 2
        # ...and the registry mirrors them store-wide.
        counters = obs.metrics_snapshot()["counters"]
        assert counters["faults.read_busy_injected"] == 2
        assert counters["store.busy_retries"] == 2

    def test_read_busy_exhaustion_raises_and_counts(
        self, tmp_path, diamond_run, obs
    ):
        faults = FaultInjector()
        store = TraceStore(
            str(tmp_path / "t.db"),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            faults=faults, obs=obs,
        )
        try:
            store.insert_trace(diamond_run.trace)
            faults.inject_read_busy(10)
            with pytest.raises(StoreBusyError):
                store.run_ids()
        finally:
            faults.reset()
            store.close()
        assert obs.metrics_snapshot()["counters"]["store.busy_failures"] == 1

    def test_injected_crash_rollback_counted(self, tmp_path, diamond_run, obs):
        faults = FaultInjector()
        store = TraceStore(str(tmp_path / "t.db"), faults=faults, obs=obs)
        try:
            faults.inject_crash_after(1)
            with pytest.raises(InjectedCrash):
                store.insert_trace(diamond_run.trace)
        finally:
            store.close()
        counters = obs.metrics_snapshot()["counters"]
        assert counters["faults.crash_injected"] == 1
        assert counters["store.rollbacks"] == 1
        assert counters.get("store.writes", 0) == 0
