"""Service-level lineage caching: warm repeats, invalidation, controls.

Pins the PR's headline acceptance claim at the API boundary: a repeated
multi-run lineage query on an unchanged store is answered from the
result cache with **zero** trace-store reads — asserted both through
the per-result ``StoreStats`` and through the ``store.reads`` counter
of an enabled ``repro.obs`` handle.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.obs import Observability
from repro.query.base import LineageQuery
from repro.service import ProvenanceService

from tests.conftest import build_diamond_workflow


def _query():
    return LineageQuery.create("wf", "out", [1, 1], focus=["GEN", "A", "B"])


@pytest.fixture
def service():
    obs = Observability()
    svc = ProvenanceService(obs=obs)
    svc.register_workflow(build_diamond_workflow())
    for _ in range(3):
        svc.run("wf", {"size": 2})
    yield svc
    svc.close()


class TestWarmRepeats:
    def test_warm_repeat_zero_store_reads(self, service):
        cold = service.lineage(_query())
        assert cold.from_cache is False
        reads_before = service.obs.counter_value("store.reads")
        warm = service.lineage(_query())
        assert warm.from_cache is True
        assert service.obs.counter_value("store.reads") == reads_before
        assert all(r.stats.queries == 0 for r in warm.per_run.values())
        assert warm.binding_keys_by_run() == cold.binding_keys_by_run()
        counters = service.metrics_snapshot()["counters"]
        assert counters["cache.result_hits"] == 1

    def test_warm_result_carries_generation_vector(self, service):
        service.lineage(_query())
        warm = service.lineage(_query())
        scope = service.runs_of("wf")
        assert warm.generations == service.store.generation_vector(scope)

    def test_execution_modes_share_one_entry(self, service):
        # A query object and its text form, with or without the static
        # precheck, execute the same way and share one cache entry.
        sequential = service.lineage(_query())
        unchecked = service.lineage(_query(), precheck=False)
        text = service.lineage(str(_query()))
        assert unchecked.from_cache and text.from_cache
        assert (
            unchecked.binding_keys_by_run()
            == text.binding_keys_by_run()
            == sequential.binding_keys_by_run()
        )

    def test_naive_and_indexproj_warm_separately_but_agree(self, service):
        ip_cold = service.lineage(_query())
        ni_cold = service.lineage(_query(), strategy="naive")
        assert ni_cold.from_cache is False  # different strategy, own entry
        ni_warm = service.lineage(_query(), strategy="naive")
        assert ni_warm.from_cache is True
        assert ni_warm.binding_keys_by_run() == ip_cold.binding_keys_by_run()

    def test_auto_strategy_warms_concrete_entry(self, service):
        auto = service.lineage(_query(), strategy="auto")
        assert auto.from_cache is False
        # auto resolves to indexproj here, so the direct call is warm.
        warm = service.lineage(_query())
        assert warm.from_cache is True

    def test_lineage_many_shares_cache(self, service):
        results = service.lineage_many([_query(), _query(), _query()])
        repeat = service.lineage_many([_query()])
        assert repeat[0].from_cache is True
        assert all(
            r.binding_keys_by_run() == results[0].binding_keys_by_run()
            for r in results + repeat
        )


class TestInvalidation:
    def test_new_run_invalidates_default_scope(self, service):
        first = service.lineage(_query())
        service.run("wf", {"size": 2})
        after = service.lineage(_query())
        assert after.from_cache is False
        assert len(after.per_run) == len(first.per_run) + 1

    def test_pinned_scope_survives_unrelated_ingest(self, service):
        scope = service.runs_of("wf")[:2]
        service.lineage(_query(), runs=scope)
        service.run("wf", {"size": 2})  # new run: not in the pinned scope
        warm = service.lineage(_query(), runs=scope)
        assert warm.from_cache is True

    def test_delete_run_invalidates_containing_scopes(self, service):
        scope = service.runs_of("wf")
        service.lineage(_query(), runs=scope)
        service.store.delete_run(scope[0])
        result = service.lineage(_query(), runs=scope[1:])
        assert result.from_cache is False  # never cached for that scope
        again = service.lineage(_query(), runs=scope[1:])
        assert again.from_cache is True

    def test_invalidate_caches_drops_everything(self, service):
        service.lineage(_query())
        dropped = service.invalidate_caches()
        assert dropped["result"] >= 1
        assert dropped["trace"] >= 1
        assert service.lineage(_query()).from_cache is False


class TestControls:
    def test_per_call_bypass(self, service):
        service.lineage(_query())
        bypass = service.lineage(_query(), cache=False)
        assert bypass.from_cache is False
        # Bypass does not populate either: a bypassed cold call leaves
        # existing entries alone but never writes new ones.
        other = LineageQuery.create("wf", "out", [0, 0], focus=["GEN", "A"])
        service.lineage(other, cache=False)
        assert service.lineage(other).from_cache is False

    def test_disabled_service(self):
        svc = ProvenanceService(cache=False)
        svc.register_workflow(build_diamond_workflow())
        svc.run("wf", {"size": 2})
        assert svc.lineage(_query()).from_cache is False
        assert svc.lineage(_query()).from_cache is False
        stats = svc.cache_stats()
        assert stats["enabled"] is False
        assert stats["result"] == {} and stats["trace"] == {}
        assert svc.invalidate_caches() == {
            "result": 0, "trace": 0, "plans": 1,
        }
        svc.close()

    def test_cache_config_tuning(self):
        config = CacheConfig(result_entries=1, trace_entries=8)
        svc = ProvenanceService(cache=config)
        svc.register_workflow(build_diamond_workflow())
        svc.run("wf", {"size": 2})
        q1 = _query()
        q2 = LineageQuery.create("wf", "out", [0, 0], focus=["GEN", "A"])
        svc.lineage(q1)
        svc.lineage(q2)  # evicts q1's entry (result_entries=1)
        assert svc.lineage(q2).from_cache is True
        assert svc.lineage(q1).from_cache is False
        assert svc.cache_stats()["result"]["evictions"] >= 1
        svc.close()

    def test_cache_config_of_rejects_garbage(self):
        with pytest.raises(TypeError):
            CacheConfig.of("yes")

    def test_cache_stats_shape(self, service):
        service.lineage(_query())
        service.lineage(_query())
        stats = service.cache_stats()
        assert stats["enabled"] is True
        assert stats["result"]["hits"] == 1
        assert stats["result"]["misses"] == 1
        assert stats["trace"]["entries"] > 0
        assert stats["config"]["result_entries"] == 256


class TestExplainPlan:
    def test_cache_state_cold_then_warm(self, service):
        assert service.explain_plan(_query()).cache_state == "cold"
        service.lineage(_query())
        plan = service.explain_plan(_query())
        assert plan.cache_state == "warm"
        assert "result cache: warm" in plan.summary()

    def test_cache_state_none_when_disabled(self):
        svc = ProvenanceService(cache=False)
        svc.register_workflow(build_diamond_workflow())
        svc.run("wf", {"size": 2})
        plan = svc.explain_plan(_query())
        assert plan.cache_state is None
        assert "result cache" not in plan.summary()
        svc.close()

    def test_probe_does_not_perturb_counters(self, service):
        service.lineage(_query())
        before = service.cache_stats()["result"]
        service.explain_plan(_query())
        after = service.cache_stats()["result"]
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"]
        )


class TestRunListMemo:
    def test_runs_of_is_memoized_and_refreshed(self, service):
        first = service.runs_of("wf")
        reads_before = service.obs.counter_value("store.reads")
        assert service.runs_of("wf") == first
        assert service.obs.counter_value("store.reads") == reads_before
        new_run = service.run("wf", {"size": 2})
        assert service.runs_of("wf") == first + [new_run]

    def test_returned_lists_are_copies(self, service):
        runs = service.runs_of("wf")
        runs.append("bogus")
        assert "bogus" not in service.runs_of("wf")


class TestRedefinedWorkflow:
    def test_reregistering_same_definition_keeps_cache_usable(self, service):
        service.lineage(_query())
        service.register_workflow(build_diamond_workflow())
        assert service.lineage(_query()).from_cache is True

    def test_structurally_different_definition_misses(self):
        """A changed workflow under the same name must never be served
        answers computed for the old definition (fingerprint keying)."""
        from repro.workflow.builder import DataflowBuilder

        svc = ProvenanceService()
        svc.register_workflow(build_diamond_workflow())
        svc.run("wf", {"size": 2})
        svc.lineage(_query())
        changed = (
            DataflowBuilder("wf")
            .input("size", "integer")
            .output("out", "list(list(string))")
            .processor(
                "GEN",
                inputs=[("size", "integer")],
                outputs=[("list", "list(string)")],
                operation="list_generator",
                config={"out": "list"},
            )
            .processor(
                "A",
                inputs=[("x", "string")],
                outputs=[("y", "string")],
                operation="tag",
                config={"suffix": "-a2"},
            )
            .processor(
                "B",
                inputs=[("x", "string")],
                outputs=[("y", "string")],
                operation="tag",
                config={"suffix": "-b2"},
            )
            .processor(
                "F",
                inputs=[("a", "string"), ("b", "string")],
                outputs=[("y", "string")],
                operation="concat_pair",
            )
            .arcs(
                ("wf:size", "GEN:size"),
                ("GEN:list", "A:x"),
                ("GEN:list", "B:x"),
                ("A:y", "F:a"),
                ("B:y", "F:b"),
                ("F:y", "wf:out"),
            )
            .build()
        )
        svc.register_workflow(changed)
        assert svc.lineage(_query()).from_cache is False
        svc.close()
