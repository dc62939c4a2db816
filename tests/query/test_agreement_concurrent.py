"""Differential tests: the set-based and concurrent paths agree with sequential.

The compiled multi-run grid
(:meth:`IndexProjEngine.lineage_multirun_compiled`) and the concurrent
batch API (:meth:`ProvenanceService.lineage_many`) are pure performance
features — every answer must be bit-identical to what the per-run loop
returns, for any run order and any ordering of the query batch.  A fixed seed matrix of randomized workloads
(the same generator the hypothesis properties use) pins that down
deterministically.
"""

from __future__ import annotations

import random

import pytest

from repro.provenance.store import TraceStore
from repro.query.base import LineageQuery
from repro.query.indexproj import IndexProjEngine
from repro.service import ProvenanceService

from tests.conftest import (
    build_diamond_workflow,
    estimated_instances,
    make_random_workflow,
    run_random_case,
)
from tests.properties.test_prop_agreement import random_query

#: Seeds chosen to pass the instance-count guard and cover dot/cross
#: iteration, defaulted ports, and multi-level nesting.
SEED_MATRIX = [0, 1, 2, 5, 8, 13, 21, 42]


def _result_fingerprint(result):
    """Keys *and* values per run — full observable answer."""
    return {
        run_id: {b.key(): repr(b.value) for b in res.bindings}
        for run_id, res in result.per_run.items()
    }


class TestMultirunAgreement:
    @pytest.mark.parametrize("seed", SEED_MATRIX)
    def test_compiled_equals_sequential_on_random_workloads(
        self, tmp_path, seed
    ):
        case = make_random_workflow(seed)
        if estimated_instances(case) > 250:
            pytest.skip("instance count guard (mirrors property test)")
        store = TraceStore(str(tmp_path / f"rand{seed}.db"))
        run_ids = []
        for i in range(4):
            captured = run_random_case(case)
            store.insert_trace(captured.trace)
            run_ids.append(captured.run_id)
        engine = IndexProjEngine(store, case.flow)
        rng = random.Random(seed * 7919)
        for trial in range(3):
            query = random_query(case, captured, rng)
            sequential = engine.lineage_multirun(run_ids, query)
            for chunk in (1, 3, None):
                compiled = engine.lineage_multirun_compiled(
                    run_ids, query, chunk_size=chunk
                )
                assert _result_fingerprint(compiled) == _result_fingerprint(
                    sequential
                ), f"seed={seed} trial={trial} chunk={chunk}"
        store.close()

    @pytest.mark.parametrize("seed", SEED_MATRIX[:4])
    def test_run_order_is_preserved_and_irrelevant(self, tmp_path, seed):
        """Shuffling the scope permutes the result mapping, nothing else."""
        case = make_random_workflow(seed)
        if estimated_instances(case) > 250:
            pytest.skip("instance count guard (mirrors property test)")
        store = TraceStore(str(tmp_path / f"rand{seed}.db"))
        run_ids = []
        for i in range(4):
            captured = run_random_case(case)
            store.insert_trace(captured.trace)
            run_ids.append(captured.run_id)
        engine = IndexProjEngine(store, case.flow)
        query = random_query(case, captured, random.Random(seed))
        forward = engine.lineage_multirun_compiled(run_ids, query)
        shuffled = list(run_ids)
        random.Random(seed + 1).shuffle(shuffled)
        backward = engine.lineage_multirun_compiled(shuffled, query)
        # Result mapping follows the caller's order...
        assert list(forward.per_run) == run_ids
        assert list(backward.per_run) == shuffled
        # ...and per-run answers are order-independent.
        assert _result_fingerprint(forward) == _result_fingerprint(backward)
        store.close()


class TestLineageManyAgreement:
    @pytest.fixture()
    def service(self, tmp_path):
        service = ProvenanceService(str(tmp_path / "svc.db"))
        flow = build_diamond_workflow()
        service.register_workflow(flow)
        for _ in range(6):
            service.run(flow.name, {"size": 3})
        yield service
        service.close()

    QUERIES = [
        "lin(<wf:out[]>, {GEN, A, B, F})",
        "lin(<wf:out[0.0]>, {A})",
        "lin(<wf:out[1]>, {GEN, B})",
        "lin(<F:y[2]>, {A, B})",
        "lin(<A:y[0]>, {GEN})",
        "lin(<wf:out[]>, {})",
    ]

    def test_batch_equals_sequential_per_query(self, service):
        sequential = [service.lineage(q) for q in self.QUERIES]
        concurrent = service.lineage_many(self.QUERIES, max_workers=4)
        assert len(concurrent) == len(sequential)
        for seq, conc in zip(sequential, concurrent):
            assert _result_fingerprint(conc) == _result_fingerprint(seq)

    def test_batch_order_independence(self, service):
        baseline = {
            q: _result_fingerprint(r)
            for q, r in zip(
                self.QUERIES, service.lineage_many(self.QUERIES, max_workers=4)
            )
        }
        for perm_seed in (7, 23):
            order = list(self.QUERIES)
            random.Random(perm_seed).shuffle(order)
            results = service.lineage_many(order, max_workers=3)
            # Results come back in the order given, answers unchanged.
            for q, result in zip(order, results):
                assert _result_fingerprint(result) == baseline[q], q

    def test_batch_with_parallel_runs_inside(self, service):
        """Whole-store queries running side by side under lineage_many
        each equal the sequential answer."""
        sequential = service.lineage(self.QUERIES[0], cache=False)
        parallel = service.lineage_many(
            [self.QUERIES[0]] * 4, max_workers=4, cache=False
        )
        for result in parallel:
            assert _result_fingerprint(result) == _result_fingerprint(
                sequential
            )

    def test_empty_batch(self, service):
        assert service.lineage_many([]) == []
