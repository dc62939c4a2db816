"""Property: the sharded backend is byte-identical to the single-file one.

For random workflows, both query strategies, shard counts {1, 2, 4, 7},
batched and per-key execution, the cache stack on or off, and
interleaved ``delete_run``, a :class:`~repro.storage.ShardedStore` must
produce exactly the answer — bindings *and* JSON-encoded values, per
run — of the single-file :class:`~repro.provenance.store.TraceStore`
holding the same traces.  The same captured traces are inserted into
both stores so the comparison is a pure storage-backend differential.

Shard-map consistency rides along: after every interleaved delete both
backends must report the same ``run_ids()`` in the same (global ingest)
order, and a persisted shard directory must answer identically after a
close/reopen cycle.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings, strategies as st

from repro.provenance.capture import capture_run
from repro.provenance.store import TraceStore
from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.service import ProvenanceService
from repro.storage import ShardedStore

from tests.conftest import estimated_instances, make_random_workflow
from tests.properties.conftest import canonical, query_pool

seeds = st.integers(min_value=0, max_value=10_000)
shard_counts = st.sampled_from([1, 2, 4, 7])
strategies = st.sampled_from(["indexproj", "naive"])
chunk_sizes = st.integers(min_value=1, max_value=40)


def _capture_runs(case, count):
    return [
        capture_run(case.flow, case.inputs, run_id=f"run-{i}")
        for i in range(count)
    ]


def _fill(store, captured):
    for cap in captured:
        store.insert_trace(cap.trace)


def _engine(strategy, store, flow):
    if strategy == "naive":
        return NaiveEngine(store)
    return IndexProjEngine(store, flow)


class TestShardedEqualsSingleFile:
    @settings(max_examples=30, deadline=None)
    @given(seeds, shard_counts, strategies,
           st.integers(min_value=0, max_value=2))
    def test_differential_engines(self, seed, shards, strategy, query_ord):
        """Engine level, no caches: looped and batched execution over the
        sharded store both equal the single-file looped reference."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[query_ord]
        captured = _capture_runs(case, 4)
        scope = [cap.run_id for cap in captured]

        with TraceStore() as single, ShardedStore(num_shards=shards) as shd:
            _fill(single, captured)
            _fill(shd, captured)
            assert shd.run_ids() == single.run_ids()
            reference = _engine(strategy, single, case.flow).lineage_multirun(
                scope, query
            )
            engine = _engine(strategy, shd, case.flow)
            looped = engine.lineage_multirun(scope, query)
            batched = engine.lineage_multirun_batched(scope, query)
            assert canonical(looped) == canonical(reference), (
                f"seed={seed} shards={shards} strategy={strategy}"
            )
            assert canonical(batched) == canonical(reference), (
                f"seed={seed} shards={shards} strategy={strategy} (batched)"
            )

    @settings(max_examples=20, deadline=None)
    @given(seeds, shard_counts, strategies, chunk_sizes)
    def test_differential_batched_chunks(self, seed, shards, strategy, chunk):
        """Any chunk size: the scatter-gathered VALUES-join grid still
        demultiplexes to the single-file answer."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]
        captured = _capture_runs(case, 5)
        scope = [cap.run_id for cap in captured]

        with TraceStore() as single, ShardedStore(num_shards=shards) as shd:
            _fill(single, captured)
            _fill(shd, captured)
            reference = _engine(strategy, single, case.flow).lineage_multirun(
                scope, query
            )
            batched = _engine(strategy, shd, case.flow).lineage_multirun_batched(
                scope, query, chunk_size=chunk
            )
            assert canonical(batched) == canonical(reference), (
                f"seed={seed} shards={shards} strategy={strategy} chunk={chunk}"
            )

    @settings(max_examples=20, deadline=None)
    @given(seeds, shard_counts, strategies)
    def test_differential_service_with_caches(self, seed, shards, strategy):
        """Service level, cache stack on: cold and warm answers over a
        sharded backend equal the single-file per-run reference, and the
        warm repeat costs zero store round-trips (the composed per-shard
        generation vector validates without SQL)."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]
        captured = _capture_runs(case, 3)

        with ProvenanceService(cache=True) as single_svc, ProvenanceService(
            store=ShardedStore(num_shards=shards), cache=True
        ) as shard_svc:
            for svc in (single_svc, shard_svc):
                svc.register_workflow(case.flow)
                _fill(svc.store, captured)
            scope = single_svc.runs_of(case.flow.name)
            engine = (
                NaiveEngine(single_svc.store)
                if strategy == "naive"
                else IndexProjEngine(single_svc.store, case.flow)
            )
            reference = engine.lineage_multirun(scope, query)
            cold = shard_svc.lineage(
                query, strategy=strategy, precheck=False, cache=False
            )
            assert canonical(cold) == canonical(reference), (
                f"seed={seed} shards={shards} strategy={strategy}"
            )
            warm = shard_svc.lineage(
                query, strategy=strategy, precheck=False, cache=False
            )
            assert canonical(warm) == canonical(reference)
            assert warm.sql_queries == 0

    @settings(max_examples=20, deadline=None)
    @given(seeds, shard_counts, st.integers(min_value=0, max_value=999))
    def test_interleaved_deletes(self, seed, shards, plan_seed):
        """Random ingest/delete/query interleavings: the shard map stays
        consistent (same run_ids, same order) and every answer matches,
        including scopes that still name deleted runs."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        rng = random.Random(plan_seed * 6151 + seed)
        pool = query_pool(case)

        with TraceStore() as single, ShardedStore(num_shards=shards) as shd:
            live = []
            next_id = 0
            for _ in range(3):
                cap = capture_run(
                    case.flow, case.inputs, run_id=f"run-{next_id}"
                )
                next_id += 1
                single.insert_trace(cap.trace)
                shd.insert_trace(cap.trace)
                live.append(cap.run_id)
            checks = 0
            # Scope intentionally keeps deleted runs: their keys must
            # resolve to empty answers on both backends.
            scope = list(live)
            for step in range(6):
                roll = rng.random()
                if step < 4 and roll < 0.25 and len(live) > 1:
                    victim = rng.choice(live)
                    live.remove(victim)
                    single.delete_run(victim)
                    shd.delete_run(victim)
                elif step < 4 and roll < 0.45:
                    cap = capture_run(
                        case.flow, case.inputs, run_id=f"run-{next_id}"
                    )
                    next_id += 1
                    single.insert_trace(cap.trace)
                    shd.insert_trace(cap.trace)
                    live.append(cap.run_id)
                    scope.append(cap.run_id)
                assert shd.run_ids() == single.run_ids(), (
                    f"seed={seed} shards={shards} plan={plan_seed} "
                    f"step={step}: shard map diverged"
                )
                query = rng.choice(pool)
                strategy = rng.choice(["indexproj", "naive"])
                reference = _engine(
                    strategy, single, case.flow
                ).lineage_multirun(scope, query)
                answer = _engine(
                    strategy, shd, case.flow
                ).lineage_multirun_batched(scope, query)
                assert canonical(answer) == canonical(reference), (
                    f"seed={seed} shards={shards} plan={plan_seed} "
                    f"step={step} strategy={strategy}"
                )
                checks += 1
            assert checks >= 2

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, shards=shard_counts)
    def test_reopen_persistence(self, tmp_path_factory, seed, shards):
        """Close/reopen a shard directory (with one interleaved delete):
        the reopened store answers exactly like the single-file one."""
        case = make_random_workflow(seed, max_processors=4)
        assume(estimated_instances(case) <= 150)
        query = query_pool(case)[0]
        captured = _capture_runs(case, 4)
        scope = [cap.run_id for cap in captured]
        root = tmp_path_factory.mktemp("shards")

        with TraceStore() as single:
            _fill(single, captured)
            single.delete_run(scope[1])
            with ShardedStore(
                str(root / "store"), num_shards=shards
            ) as shd:
                _fill(shd, captured)
                shd.delete_run(scope[1])
            with ShardedStore(str(root / "store")) as reopened:
                assert reopened.num_shards == shards
                assert reopened.run_ids() == single.run_ids()
                reference = IndexProjEngine(
                    single, case.flow
                ).lineage_multirun(scope, query)
                answer = IndexProjEngine(
                    reopened, case.flow
                ).lineage_multirun_batched(scope, query)
                assert canonical(answer) == canonical(reference)
