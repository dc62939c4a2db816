"""Property: batched execution is byte-identical to unbatched execution.

For random workflows, random queries, both strategies, random chunk
sizes, and with or without the cache stack, the set-based batched read
path (docs/PERFORMANCE.md) must produce exactly the bindings — keys
*and* JSON-encoded values, per run — of the per-key unbatched path.
Edge cases the strategies hide are pinned explicitly: the empty (root)
``Index``, key grids straddling the chunk boundary, and run scopes
containing deleted runs.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.service import ProvenanceService

from tests.conftest import estimated_instances, make_random_workflow
from tests.properties.conftest import canonical, query_pool

seeds = st.integers(min_value=0, max_value=10_000)
chunk_sizes = st.integers(min_value=1, max_value=40)
strategies = st.sampled_from(["indexproj", "naive"])


class TestBatchedEqualsUnbatched:
    @settings(max_examples=50, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=2), strategies,
           chunk_sizes)
    def test_differential_engines(self, seed, query_ord, strategy, chunk):
        """Engine-level: batched == looped, any chunk size, no caches."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[query_ord]

        with ProvenanceService(cache=False) as service:
            service.register_workflow(case.flow)
            for _ in range(3):
                service.run(case.flow.name, case.inputs)
            scope = service.runs_of(case.flow.name)
            engine = (
                NaiveEngine(service.store)
                if strategy == "naive"
                else IndexProjEngine(service.store, case.flow)
            )
            looped = engine.lineage_multirun(scope, query)
            batched = engine.lineage_multirun_batched(
                scope, query, chunk_size=chunk
            )
            assert canonical(batched) == canonical(looped), (
                f"seed={seed} strategy={strategy} chunk={chunk} "
                f"query={query}"
            )
            # Never more round-trips than the per-key path issues.
            assert batched.sql_queries <= looped.sql_queries

    @settings(max_examples=25, deadline=None)
    @given(seeds, strategies)
    def test_differential_service_with_caches(self, seed, strategy):
        """Service-level (batched NI, compiled INDEXPROJ) == the unbatched
        engine loop, through the cache stack, cold and warm."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]

        with ProvenanceService(cache=True) as service:
            service.register_workflow(case.flow)
            for _ in range(2):
                service.run(case.flow.name, case.inputs)
            scope = service.runs_of(case.flow.name)
            engine = (
                NaiveEngine(service.store)
                if strategy == "naive"
                else IndexProjEngine(service.store, case.flow)
            )
            reference = engine.lineage_multirun(scope, query)
            cold = service.lineage(
                query, strategy=strategy, precheck=False, cache=False
            )
            assert canonical(cold) == canonical(reference), (
                f"seed={seed} strategy={strategy}"
            )
            # Warm repeat through the trace cache: still identical, and
            # served without any store round-trip.
            warm = service.lineage(
                query, strategy=strategy, precheck=False, cache=False
            )
            assert canonical(warm) == canonical(reference)
            assert warm.sql_queries == 0

    @settings(max_examples=20, deadline=None)
    @given(seeds, strategies)
    def test_chunk_boundary_straddle(self, seed, strategy):
        """chunk = keys - 1 forces a 2-statement split mid-grid; the
        demultiplexed answer must not change."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]

        with ProvenanceService(cache=False) as service:
            service.register_workflow(case.flow)
            for _ in range(4):
                service.run(case.flow.name, case.inputs)
            scope = service.runs_of(case.flow.name)
            engine = (
                NaiveEngine(service.store)
                if strategy == "naive"
                else IndexProjEngine(service.store, case.flow)
            )
            reference = engine.lineage_multirun(scope, query)
            wide = engine.lineage_multirun_batched(scope, query)
            keys = wide.aggregate_stats().batch_keys
            assume(keys >= 2)
            straddling = engine.lineage_multirun_batched(
                scope, query, chunk_size=max(1, keys - 1)
            )
            assert canonical(straddling) == canonical(reference)
            assert canonical(wide) == canonical(reference)

    @settings(max_examples=20, deadline=None)
    @given(seeds, strategies)
    def test_deleted_run_in_mixed_scope(self, seed, strategy):
        """Keys of a deleted run inside the batch resolve to empty
        answers without disturbing the surviving runs'."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]

        with ProvenanceService(cache=False) as service:
            service.register_workflow(case.flow)
            for _ in range(3):
                service.run(case.flow.name, case.inputs)
            scope = service.runs_of(case.flow.name)
            victim = scope[1]
            service.store.delete_run(victim)
            engine = (
                NaiveEngine(service.store)
                if strategy == "naive"
                else IndexProjEngine(service.store, case.flow)
            )
            looped = engine.lineage_multirun(scope, query)
            batched = engine.lineage_multirun_batched(scope, query)
            assert canonical(batched) == canonical(looped)
            assert batched.per_run[victim].bindings == []
