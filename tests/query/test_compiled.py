"""Compiled-plan registry: reuse, survival across writes, statement reuse.

A compiled program is a pure function of the workflow specification and
the query shape, so the registry is a plain spec-keyed LRU: ingest,
``delete_run``, index maintenance (``drop_indexes`` /
``create_indexes``) and ``vacuum`` all leave a warm plan warm, and the
warm plan keeps answering equal to NI.  Registry mechanics (LRU
eviction, hit/miss counters, capacity validation) and the
service/explain surface ride along.
"""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.provenance.maintenance import vacuum
from repro.query.base import LineageQuery
from repro.query.compiled import PlanRegistry, compile_plan
from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.service import ProvenanceService

from tests.conftest import build_diamond_workflow


def _query(index=(1, 1), focus=("GEN", "A", "B")):
    return LineageQuery.create("wf", "out", list(index), focus=list(focus))


@pytest.fixture
def service():
    svc = ProvenanceService(obs=Observability())
    svc.register_workflow(build_diamond_workflow())
    for _ in range(3):
        svc.run("wf", {"size": 2})
    yield svc
    svc.close()


@pytest.fixture
def engine(service):
    return IndexProjEngine(service.store, build_diamond_workflow())


def _scope(service):
    return service.runs_of("wf")


class TestRegistryReuse:
    def test_second_call_is_a_plan_hit(self, service, engine):
        scope = _scope(service)
        first = engine.lineage_multirun_compiled(scope, _query())
        second = engine.lineage_multirun_compiled(scope, _query())
        stats = engine.plan_registry.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert second.binding_keys_by_run() == first.binding_keys_by_run()

    def test_distinct_query_shapes_compile_separately(self, service, engine):
        scope = _scope(service)
        engine.lineage_multirun_compiled(scope, _query())
        engine.lineage_multirun_compiled(scope, _query(focus=("GEN", "A")))
        stats = engine.plan_registry.stats()
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_plan_is_scope_independent(self, service, engine):
        scope = _scope(service)
        engine.lineage_multirun_compiled(scope[:1], _query())
        engine.lineage_multirun_compiled(scope, _query())
        assert engine.plan_registry.stats()["hits"] == 1

    def test_lru_eviction_at_capacity(self, service):
        registry = PlanRegistry(max_entries=2)
        flow = build_diamond_workflow()
        engine = IndexProjEngine(
            service.store, flow, plan_registry=registry
        )
        scope = _scope(service)
        queries = [
            _query(focus=("GEN",)),
            _query(focus=("GEN", "A")),
            _query(focus=("GEN", "A", "B")),
        ]
        for q in queries:
            engine.lineage_multirun_compiled(scope, q)
        stats = registry.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # The evicted (oldest) shape recompiles; the newest is still hot.
        engine.lineage_multirun_compiled(scope, queries[0])
        assert registry.stats()["misses"] == 4
        engine.lineage_multirun_compiled(scope, queries[2])
        assert registry.stats()["hits"] == 1

    def test_capacity_must_be_positive(self, service):
        with pytest.raises(ValueError):
            PlanRegistry(max_entries=0)

    def test_clear_reports_dropped(self, service, engine):
        engine.lineage_multirun_compiled(_scope(service), _query())
        assert len(engine.plan_registry) == 1
        assert engine.plan_registry.clear() == 1
        assert len(engine.plan_registry) == 0


class TestPlansSurviveWrites:
    def _warm(self, service, engine):
        scope = _scope(service)
        engine.lineage_multirun_compiled(scope, _query())
        assert engine.plan_registry.stats()["misses"] == 1
        return scope

    def _assert_still_warm(self, service, engine):
        assert len(engine.plan_registry) == 1
        scope = _scope(service)
        again = engine.lineage_multirun_compiled(scope, _query())
        stats = engine.plan_registry.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        naive = NaiveEngine(service.store).lineage_multirun(scope, _query())
        assert again.binding_keys_by_run() == naive.binding_keys_by_run()

    def test_drop_indexes_keeps_plan_warm(self, service, engine):
        self._warm(service, engine)
        service.store.drop_indexes()
        self._assert_still_warm(service, engine)

    def test_create_indexes_keeps_plan_warm(self, service, engine):
        self._warm(service, engine)
        service.store.create_indexes()
        self._assert_still_warm(service, engine)

    def test_vacuum_keeps_plan_warm(self, service, engine):
        self._warm(service, engine)
        vacuum(service.store)
        self._assert_still_warm(service, engine)

    def test_delete_run_keeps_plan_warm(self, service, engine):
        scope = self._warm(service, engine)
        service.store.delete_run(scope[-1])
        self._assert_still_warm(service, engine)

    def test_ingest_keeps_plan_warm(self, service, engine):
        self._warm(service, engine)
        service.run("wf", {"size": 3})
        self._assert_still_warm(service, engine)


class TestStatementCacheCoherence:
    def test_warm_execution_hits_statement_cache(self, service, engine):
        """sqlite3 caches prepared statements per connection, keyed by SQL
        text: a warm execution must hand it byte-identical text, and the
        distinct texts must fit the 256-entry cache."""
        scope = _scope(service)
        seen = []
        service.store.set_statement_audit(seen.append)
        try:
            engine.lineage_multirun_compiled(scope, _query())
            first = list(seen)
            seen.clear()
            engine.lineage_multirun_compiled(scope, _query())
        finally:
            service.store.set_statement_audit(None)
        assert first and seen == first
        assert len(set(first)) <= 256


class TestServiceSurface:
    def test_service_answers_equal_engine_references(self, service, engine):
        scope = _scope(service)
        answer = service.lineage(_query(), cache=False).binding_keys_by_run()
        assert answer == engine.lineage_multirun(
            scope, _query()
        ).binding_keys_by_run()
        assert answer == engine.lineage_multirun_batched(
            scope, _query()
        ).binding_keys_by_run()
        assert answer == NaiveEngine(service.store).lineage_multirun(
            scope, _query()
        ).binding_keys_by_run()

    def test_obs_counters(self):
        svc = ProvenanceService(obs=Observability(), cache=False)
        svc.register_workflow(build_diamond_workflow())
        for _ in range(3):
            svc.run("wf", {"size": 2})
        svc.lineage(_query())
        svc.lineage(_query())
        counters = svc.metrics_snapshot()["counters"]
        assert counters["compiled.plan_misses"] == 1
        assert counters["compiled.plan_hits"] == 1
        svc.close()

    def test_cache_stats_exposes_registry(self, service):
        service.lineage(_query(), cache=False)
        plans = service.cache_stats()["plans"]
        assert plans["entries"] == 1
        assert plans["capacity"] >= 1

    def test_invalidate_caches_clears_registry(self, service):
        service.lineage(_query(), cache=False)
        dropped = service.invalidate_caches()
        assert dropped["plans"] >= 1
        assert service.cache_stats()["plans"]["entries"] == 0

    def test_explain_plan_reports_compiled_state(self, service):
        cold = service.explain_plan(_query())
        assert cold.plan_state == "cold"
        service.lineage(_query(), cache=False)
        warm = service.explain_plan(_query())
        assert warm.plan_state == "warm"
        assert "compiled plan: warm" in warm.summary()


class TestCompileFunction:
    def test_compile_plan_matches_build_plan(self, service, engine):
        from repro.workflow.depths import propagate_depths

        analysis = propagate_depths(build_diamond_workflow().flattened())
        plan = compile_plan(analysis, _query(), "fp")
        assert plan.trace_queries == len(plan.lookups) > 0
        assert plan.key.fingerprint == "fp"
        for lookup in plan.lookups:
            node, port, encoded, prefixes, like, low, high, cost = lookup
            assert isinstance(node, str) and isinstance(port, str)
            assert cost == 5 * len(prefixes) + 6
            assert like.endswith("%")
            assert low < high

    def test_pairs_cross_product(self, service):
        from repro.workflow.depths import propagate_depths

        analysis = propagate_depths(build_diamond_workflow().flattened())
        plan = compile_plan(analysis, _query(), "fp")
        pairs = plan.pairs(["r1", "r2"])
        assert len(pairs) == 2 * len(plan.lookups)
        assert {run for run, _ in pairs} == {"r1", "r2"}
