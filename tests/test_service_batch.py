"""Service and CLI surface of the set-based batched read path.

The service executes every query set-based — compiled INDEXPROJ grids,
level-synchronous NI — and these tests pin it against the engines'
per-run loops: identical bindings, the round-trip accounting on
``MultiRunResult`` (``aggregate_stats``/``sql_queries``), the acceptance
shape of a 20-run focused-PD query answered in ``ceil(keys/chunk)``
round-trips, and the CLI's ``--verbose`` round-trip printout.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.cli import main
from repro.provenance.store import DEFAULT_BATCH_CHUNK, StoreStats, TraceStore
from repro.query.base import LineageQuery, LineageResult, MultiRunResult
from repro.query.indexproj import IndexProjEngine, build_plan
from repro.query.naive import NaiveEngine
from repro.service import ProvenanceService
from repro.testbed.workloads import (
    genes2kegg_workload,
    protein_discovery_workload,
)
from repro.workflow.depths import propagate_depths


@pytest.fixture(scope="module")
def pd_service(tmp_path_factory):
    workload = protein_discovery_workload()
    tmp = tmp_path_factory.mktemp("service-batch")
    service = ProvenanceService(str(tmp / "pd.db"), cache=False)
    service.register_workflow(workload.flow, workload.registry)
    for _ in range(20):
        service.run(workload.flow.name, workload.inputs)
    service.store.create_indexes()
    yield workload, service
    service.close()


def _engine(workload, service):
    return IndexProjEngine(service.store, workload.flow)


class TestServiceBatchParam:
    def test_batch_true_matches_unbatched(self, pd_service):
        workload, service = pd_service
        query = workload.focused_query()
        reference = _engine(workload, service).lineage_multirun(
            service.runs_of(workload.flow.name), query
        )
        batched = service.lineage(query)
        assert (
            batched.binding_keys_by_run() == reference.binding_keys_by_run()
        )

    def test_batch_config_chunk_size(self, pd_service):
        workload, service = pd_service
        batched = _engine(workload, service).lineage_multirun_compiled(
            service.runs_of(workload.flow.name), workload.focused_query(),
            chunk_size=7,
        )
        assert batched.aggregate_stats().batch_chunk_size == 7

    def test_batch_naive_strategy(self, pd_service):
        workload, service = pd_service
        query = workload.focused_query()
        reference = NaiveEngine(service.store).lineage_multirun(
            service.runs_of(workload.flow.name), query
        )
        batched = service.lineage(query, strategy="naive")
        assert (
            batched.binding_keys_by_run() == reference.binding_keys_by_run()
        )
        assert batched.sql_queries < reference.sql_queries

    def test_batch_rejects_garbage(self, pd_service):
        # The batch knob is gone: every execution is set-based, and the
        # service accepts no option to choose otherwise.
        workload, service = pd_service
        with pytest.raises(TypeError):
            service.lineage(workload.focused_query(), batch="always")

    def test_lineage_many_batched(self, pd_service):
        workload, service = pd_service
        engine = _engine(workload, service)
        scope = service.runs_of(workload.flow.name)
        queries = [workload.focused_query(), workload.unfocused_query()]
        batched = service.lineage_many(queries)
        for got, query in zip(batched, queries):
            want = engine.lineage_multirun(scope, query)
            assert got.binding_keys_by_run() == want.binding_keys_by_run()
            assert got.sql_queries <= want.sql_queries


class TestAcceptance:
    """20-run focused PD in O(ceil(keys/chunk)) round-trips."""

    def test_focused_pd_round_trip_collapse(self, pd_service):
        workload, service = pd_service
        query = workload.focused_query()
        analysis = propagate_depths(workload.flow.flattened())
        plan = build_plan(analysis, query)
        keys = len(plan) * 20
        engine = _engine(workload, service)
        scope = service.runs_of(workload.flow.name)
        for chunk in (DEFAULT_BATCH_CHUNK, 4):
            batched = engine.lineage_multirun_compiled(
                scope, query, chunk_size=chunk
            )
            assert batched.sql_queries == math.ceil(keys / chunk)
        # The paper's per-run loop: one round-trip per key.
        unbatched = engine.lineage_multirun(scope, query)
        assert unbatched.sql_queries == keys
        batched = service.lineage(query)
        assert batched.sql_queries == math.ceil(keys / DEFAULT_BATCH_CHUNK)
        assert (
            batched.binding_keys_by_run() == unbatched.binding_keys_by_run()
        )
        assert unbatched.sql_queries / batched.sql_queries >= 3.0

    def test_explain_plan_reports_round_trips(self, pd_service):
        workload, service = pd_service
        query = workload.focused_query()
        analysis = propagate_depths(workload.flow.flattened())
        plan = build_plan(analysis, query)
        explanation = service.explain_plan(query, runs=20)
        assert explanation.unbatched_round_trips == len(plan) * 20
        assert explanation.batched_round_trips == math.ceil(
            len(plan) * 20 / DEFAULT_BATCH_CHUNK
        )
        assert "round-trips:" in explanation.summary()


class TestAggregateStats:
    def test_dedupes_shared_stats(self):
        shared = StoreStats(queries=3, rows=30)
        per_run = {
            f"r{i}": LineageResult(
                query=None, run_id=f"r{i}", bindings=[], stats=shared
            )
            for i in range(5)
        }
        result = MultiRunResult(query=None, per_run=per_run)
        assert result.aggregate_stats().queries == 3
        assert result.sql_queries == 3

    def test_sums_distinct_stats(self):
        per_run = {
            f"r{i}": LineageResult(
                query=None,
                run_id=f"r{i}",
                bindings=[],
                stats=StoreStats(queries=2, rows=5),
            )
            for i in range(4)
        }
        result = MultiRunResult(query=None, per_run=per_run)
        assert result.sql_queries == 8
        assert result.aggregate_stats().rows == 20


class TestCliBatch:
    QUERY_ARGS = [
        "--workload", "gk",
        "--node", "genes2kegg", "--port", "paths_per_gene",
        "--index", "0", "--focus", "get_pathways_by_genes",
    ]

    @pytest.fixture
    def gk_db(self, tmp_path):
        db = str(tmp_path / "gk.db")
        assert main(["run", "--workload", "gk", "--db", db, "--runs", "5"]) == 0
        return db

    def _query(self, db, *extra, verbose=False):
        head = ["--verbose"] if verbose else []
        return [*head, "query", "--db", db, *self.QUERY_ARGS, *extra]

    def test_batch_and_no_batch_answers_agree(self, gk_db, capsys):
        """The CLI's set-based answer equals the engine's per-run loop."""
        capsys.readouterr()
        assert main(self._query(gk_db)) == 0
        printed = [
            line.split("  = ")[0].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        ]
        workload = genes2kegg_workload()
        with TraceStore(gk_db) as store:
            looped = IndexProjEngine(store, workload.flow).lineage_multirun(
                store.run_ids(),
                LineageQuery.create(
                    "genes2kegg", "paths_per_gene", [0],
                    ["get_pathways_by_genes"],
                ),
            )
        assert printed == [
            str(binding)
            for result in looped.per_run.values()
            for binding in result.bindings
        ]

    def test_indexproj_and_naive_answers_agree(self, gk_db, capsys):
        capsys.readouterr()
        assert main(self._query(gk_db)) == 0
        indexproj = capsys.readouterr().out
        assert main(self._query(gk_db, "--strategy", "naive")) == 0
        naive = capsys.readouterr().out
        # Identical bindings, line for line.
        assert [
            line for line in indexproj.splitlines() if line.startswith("  ")
        ] == [
            line for line in naive.splitlines() if line.startswith("  ")
        ]

    def test_verbose_prints_round_trips(self, gk_db, capsys):
        capsys.readouterr()
        assert main(self._query(gk_db, verbose=True)) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"sql round-trips: (\d+) \((\d+) rows, (\d+) batched statements "
            r"covering (\d+) lookup keys \(chunk=(\d+)\)\)",
            out,
        )
        assert match is not None
        assert int(match.group(1)) >= 1
        assert int(match.group(4)) == 5  # 1 planned lookup x 5 runs
        assert int(match.group(5)) == DEFAULT_BATCH_CHUNK

    def test_batch_naive_strategy_cli(self, gk_db, capsys):
        capsys.readouterr()
        assert main(self._query(gk_db, "--strategy", "naive")) == 0
        out = capsys.readouterr().out
        assert "query: lin(" in out
