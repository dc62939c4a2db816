"""Set-based (batched) store lookups — differential and plan tests.

Every batched primitive must return, per key, exactly what its
single-key sibling returns — for any chunk size, for keys straddling
chunk boundaries, for empty/root indices, and for keys of deleted or
unknown runs.  On top of the row-level contract, the ``EXPLAIN QUERY
PLAN`` tests pin the performance claim itself: both branches of the
``VALUES``-join must be driven by the composite covering indexes, never
by a table scan.
"""

import math

import pytest

from repro.analysis.planlint import PlanGuard
from repro.provenance.capture import capture_run
from repro.provenance.store import (
    DEFAULT_BATCH_CHUNK,
    StoreStats,
    TraceStore,
    batch_key_id,
)
from repro.values.index import Index

from tests.conftest import build_diamond_workflow


@pytest.fixture()
def populated():
    flow = build_diamond_workflow()
    store = TraceStore()
    run_ids = []
    for size in (3, 2, 3):
        captured = capture_run(flow, {"size": size})
        store.insert_trace(captured.trace)
        run_ids.append(captured.run_id)
    yield store, run_ids
    store.close()


def all_keys(store, run_ids, extra=()):
    rows = store._read(
        "SELECT DISTINCT run_id, processor, port, idx FROM xform_io", []
    )
    keys = [(r, n, p, Index.decode(i)) for r, n, p, i in rows]
    keys.sort(key=lambda k: (k[0], k[1], k[2], k[3].encode()))
    return keys + list(extra)


def binding_keys(bindings):
    return [(b.ref.node, b.ref.port, b.index.encode(), b.value) for b in bindings]


class TestDifferential:
    """Batched results == single-key results, key by key."""

    @pytest.mark.parametrize("chunk", [1, 2, 5, DEFAULT_BATCH_CHUNK, 500])
    def test_find_xform_inputs_matching_many(self, populated, chunk):
        store, run_ids = populated
        keys = all_keys(
            store,
            run_ids,
            extra=[
                (run_ids[0], "F", "y", Index.of(())),  # root index
                ("missing-run", "A", "x", Index.of((0,))),  # unknown run
            ],
        )
        stats = StoreStats()
        many = store.find_xform_inputs_matching_many(
            keys, stats=stats, chunk_size=chunk
        )
        assert set(many) == {batch_key_id(k) for k in keys}
        for key in keys:
            single = store.find_xform_inputs_matching(*key[:3], key[3])
            assert binding_keys(many[batch_key_id(key)]) == binding_keys(
                single
            ), key
        assert stats.batch_keys == len(keys)
        assert stats.batch_chunk_size == chunk
        # The bound-variable budget may split below chunk_size, never above.
        assert stats.batch_lookups >= math.ceil(len(keys) / chunk)

    @pytest.mark.parametrize("chunk", [1, 3, DEFAULT_BATCH_CHUNK])
    def test_find_xform_by_output_many(self, populated, chunk):
        store, run_ids = populated
        keys = all_keys(store, run_ids)
        many = store.find_xform_by_output_many(keys, chunk_size=chunk)
        for key in keys:
            single = store.find_xform_by_output(*key[:3], key[3])
            got = many[batch_key_id(key)]
            assert sorted(
                (m.event_id, m.output_index.encode()) for m in got
            ) == sorted(
                (m.event_id, m.output_index.encode()) for m in single
            ), key

    @pytest.mark.parametrize("chunk", [1, 3, DEFAULT_BATCH_CHUNK])
    def test_find_xfer_into_many(self, populated, chunk):
        store, run_ids = populated
        keys = all_keys(store, run_ids)
        many = store.find_xfer_into_many(keys, chunk_size=chunk)
        for key in keys:
            single = store.find_xfer_into(*key[:3], key[3])
            got = many[batch_key_id(key)]
            assert [
                (b.ref.node, b.ref.port, b.index.encode(), ci.encode())
                for b, ci in got
            ] == [
                (b.ref.node, b.ref.port, b.index.encode(), ci.encode())
                for b, ci in single
            ], key

    def test_xform_inputs_many(self, populated):
        store, run_ids = populated
        rows = store._read(
            "SELECT DISTINCT run_id, event_id FROM xform_io ORDER BY event_id",
            [],
        )
        per_run = {}
        for run_id, event_id in rows:
            per_run.setdefault(run_id, []).append(event_id)
        groups = [(r, tuple(es)) for r, es in per_run.items()]
        groups.append((run_ids[0], (10**9,)))  # no such event
        many = store.xform_inputs_many(groups)
        for run_id, event_ids in groups:
            single = store.xform_inputs(list(event_ids))
            assert binding_keys(many[(run_id, event_ids)]) == binding_keys(
                single
            )

    def test_deleted_run_keys_in_mixed_batch(self, populated):
        store, run_ids = populated
        keys = all_keys(store, run_ids)
        store.delete_run(run_ids[1])
        many = store.find_xform_inputs_matching_many(keys)
        for key in keys:
            expected = store.find_xform_inputs_matching(*key[:3], key[3])
            assert binding_keys(many[batch_key_id(key)]) == binding_keys(
                expected
            )
            if key[0] == run_ids[1]:
                assert many[batch_key_id(key)] == []

    def test_empty_key_set(self, populated):
        store, _ = populated
        assert store.find_xform_inputs_matching_many([]) == {}
        assert store.find_xform_by_output_many([]) == {}
        assert store.find_xfer_into_many([]) == {}
        assert store.xform_inputs_many([]) == {}


class TestChunking:
    def test_chunk_boundary_straddle(self, populated):
        """A key set of chunk_size + 1 must split into exactly 2 statements
        and still answer every key."""
        store, run_ids = populated
        keys = all_keys(store, run_ids)
        chunk = len(keys) - 1
        stats = StoreStats()
        many = store.find_xform_inputs_matching_many(
            keys, stats=stats, chunk_size=chunk
        )
        assert stats.batch_lookups == 2
        assert stats.queries == 2
        assert set(many) == {batch_key_id(k) for k in keys}

    def test_bound_variable_budget_forces_early_flush(self, populated):
        """Deep indices inflate per-key parameter cost; the chunker must
        flush before SQLite's bound-variable limit regardless of the
        configured chunk size."""
        store, run_ids = populated
        deep = Index.of(tuple(range(40)))  # 41 prefixes * 5 + 6 params
        keys = [
            (run_ids[0], "A", "x", deep) for _ in range(10)
        ]
        stats = StoreStats()
        store.find_xform_inputs_matching_many(
            keys, stats=stats, chunk_size=500
        )
        # 211 params per key, budget 900 -> at most 4 keys per statement.
        assert stats.batch_lookups >= 3

    def test_invalid_chunk_size(self, populated):
        store, run_ids = populated
        with pytest.raises(ValueError):
            store.find_xform_inputs_matching_many(
                [(run_ids[0], "A", "x", Index.of((0,)))], chunk_size=0
            )


class TestQueryPlans:
    """The VALUES-join must stay index-driven (paper Fig. 6 discipline).

    Asserted through the shared :class:`PlanGuard` fixture from
    :mod:`repro.analysis.planlint` — the same classifier the
    ``repro-prov plan-lint`` CI gate runs — instead of hand-rolled
    EXPLAIN string matching.
    """

    def test_xform_io_batch_join_uses_covering_index(self, populated):
        store, run_ids = populated
        store.create_indexes()
        keys = all_keys(store, run_ids)
        guard = PlanGuard(store)
        plans = guard.assert_indexed(
            lambda: store.find_xform_inputs_matching_many(keys)
        )
        # Both VALUES-join branches seek xform_io through a real index.
        seeks = [
            access
            for plan in plans
            for access in plan.accesses
            if access.table == "xform_io"
        ]
        assert seeks
        assert all(
            access.path in ("covering-seek", "index-seek") for access in seeks
        )

    def test_xfer_batch_join_uses_dst_index(self, populated):
        store, run_ids = populated
        store.create_indexes()
        keys = all_keys(store, run_ids)
        guard = PlanGuard(store)
        plans = guard.assert_indexed(
            lambda: store.find_xfer_into_many(keys)
        )
        xfer_indexes = {
            access.index
            for plan in plans
            for access in plan.accesses
            if access.table == "xfer"
        }
        assert "ix_xfer_dst" in xfer_indexes

    def test_plan_guard_flags_scan_after_index_drop(self, populated):
        store, run_ids = populated
        keys = all_keys(store, run_ids)
        store.drop_indexes()
        guard = PlanGuard(store)
        with pytest.raises(AssertionError, match="full-scan on xform_io"):
            guard.assert_indexed(
                lambda: store.find_xform_inputs_matching_many(keys)
            )
        store.create_indexes()

    def test_batch_index_in_secondary_set(self, populated):
        store, _ = populated
        store.create_indexes()
        assert store.has_indexes()
        names = {
            row[0]
            for row in store._read(
                "SELECT name FROM sqlite_master WHERE type = 'index'", []
            )
        }
        assert "ix_xform_io_batch" in names
        assert "ix_xfer_dst" in names
        store.drop_indexes()
        names = {
            row[0]
            for row in store._read(
                "SELECT name FROM sqlite_master WHERE type = 'index'", []
            )
        }
        assert "ix_xform_io_batch" not in names
        store.create_indexes()
        assert store.has_indexes()
