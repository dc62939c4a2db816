"""Tests for the flat payload sizing of the lineage caches (bindings_size)."""

from __future__ import annotations

import pytest

import repro.cache.lru as lru
import repro.cache.results as results
import repro.cache.trace as trace
from repro.cache import LRUCache, TraceReadCache, approx_size
from repro.cache.lru import bindings_size
from repro.engine.events import Binding
from repro.provenance.capture import capture_run
from repro.provenance.store import TraceStore, XformMatch
from repro.service import ProvenanceService
from repro.values.index import Index
from repro.workflow.model import PortRef

from tests.conftest import build_diamond_workflow


def _binding(node, port, position, value):
    # Decoded like the store does: indexes are shared through the cache.
    return Binding(PortRef(node, port), Index.decode(str(position)), value)


def _within_factor_two(payload):
    flat, deep = bindings_size(payload), approx_size(payload)
    assert 0.5 * deep <= flat <= 2 * deep, (flat, deep)


class TestBindingsSize:
    def test_string_values(self):
        _within_factor_two(tuple(
            _binding(f"CHAIN1_{i}", "y", i % 4, f"e-{i}") for i in range(40)
        ))

    def test_nested_list_values(self):
        _within_factor_two(tuple(
            _binding("P", "out", i, [[f"v{i}-{j}"] * 3 for j in range(4)])
            for i in range(20)
        ))

    def test_value_shared_by_many_bindings(self):
        shared = [f"pathway-{i}" for i in range(200)]
        payload = tuple(_binding("P", "x", i, shared) for i in range(50))
        _within_factor_two(payload)
        # The container is charged once, not once per binding.
        one = bindings_size(payload[:1])
        assert bindings_size(payload) < one + 49 * approx_size(shared)

    def test_empty_tuple(self):
        assert bindings_size(()) == approx_size(())

    def test_match_and_pair_payloads(self):
        _within_factor_two(tuple(
            XformMatch(event_id=i, output_index=Index.decode(str(i % 3)))
            for i in range(30)
        ))
        _within_factor_two(tuple(
            (_binding("P", "y", i, f"w{i}"), Index.decode(str(i % 2)))
            for i in range(30)
        ))

    def test_seen_set_shares_containers_across_payloads(self):
        shared = list(range(100))
        first = (_binding("P", "x", 0, shared),)
        second = (_binding("Q", "x", 0, shared),)
        seen: set = set()
        together = bindings_size(first, seen) + bindings_size(second, seen)
        assert together < bindings_size(first) + bindings_size(second)


class TestByteBoundEviction:
    def test_lru_evicts_binding_payloads_by_bytes(self):
        payloads = [
            tuple(_binding("P", "y", j, f"value-{i}-{j}") for j in range(10))
            for i in range(20)
        ]
        budget = 5 * bindings_size(payloads[0])
        cache = LRUCache(max_entries=0, max_bytes=budget)
        for i, payload in enumerate(payloads):
            cache.put(i, payload, size=bindings_size(payload))
        assert cache.evictions > 0
        assert 0 < len(cache) <= 5
        assert cache.current_bytes <= budget

    def test_trace_cache_evicts_under_a_byte_budget(self):
        store = TraceStore()
        flow = build_diamond_workflow()
        run_ids = []
        for _ in range(4):
            captured = capture_run(flow, {"size": 3})
            store.insert_trace(captured.trace)
            run_ids.append(captured.run_id)
        cache = TraceReadCache(store, max_entries=0, max_bytes=2048)
        for run_id in run_ids:
            for i in range(3):
                for j in range(3):
                    cache.find_xform_inputs_matching(
                        run_id, "F", "y", Index.of([i, j])
                    )
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert 0 < stats["bytes"] <= 2048
        store.close()


class TestLineagePathNeverWalksBindings:
    @pytest.fixture
    def guarded(self, monkeypatch):
        """``approx_size`` that fails on any lineage payload item."""
        walk = lru.approx_size

        def approx_size_guard(obj, _seen=None):
            if isinstance(obj, (Binding, XformMatch)):
                raise AssertionError(f"deep size walk entered {obj!r}")
            return walk(obj, _seen)

        for module in (lru, trace, results):
            monkeypatch.setattr(module, "approx_size", approx_size_guard)

    @pytest.mark.parametrize("strategy", ["indexproj", "naive"])
    def test_cached_lineage_call(self, guarded, strategy):
        with ProvenanceService() as service:
            service.register_workflow(build_diamond_workflow())
            for _ in range(3):
                service.run("wf", {"size": 3})
            query = "lin(<wf:out[1.1]>, {GEN, A, B})"
            cold = service.lineage(query, strategy=strategy)
            assert any(r.bindings for r in cold.per_run.values())
            stats = service.cache_stats()
            assert stats["result"]["entries"] == 1
            assert stats["trace"]["entries"] > 0
            warm = service.lineage(query, strategy=strategy)
            assert warm.from_cache
            assert warm.binding_keys_by_run() == cold.binding_keys_by_run()
