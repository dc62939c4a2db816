"""Tests for the integration façade (repro.service.ProvenanceService)."""

import threading

import pytest

from repro.service import ProvenanceService
from repro.testbed.workloads import genes2kegg_workload
from repro.workflow.model import WorkflowError

from tests.conftest import build_diamond_workflow


@pytest.fixture
def service():
    with ProvenanceService() as svc:
        svc.register_workflow(build_diamond_workflow())
        yield svc


class TestRegistrationAndRuns:
    def test_run_stores_trace(self, service):
        run_id = service.run("wf", {"size": 2})
        assert service.runs_of("wf") == [run_id]
        assert service.statistics()["runs"] == 1

    def test_unknown_workflow_rejected(self, service):
        with pytest.raises(WorkflowError, match="not registered"):
            service.run("ghost", {})
        with pytest.raises(WorkflowError):
            service.runs_of("ghost")

    def test_reregistration_is_idempotent(self, service):
        service.register_workflow(build_diamond_workflow())
        run_id = service.run("wf", {"size": 1})
        assert run_id in service.runs_of("wf")

    def test_statistics_counts_registrations(self, service):
        assert service.statistics()["registered_workflows"] == 1

    def test_custom_registry_workload(self):
        workload = genes2kegg_workload()
        with ProvenanceService() as svc:
            svc.register_workflow(workload.flow, registry=workload.registry)
            run_id = svc.run(workload.name, workload.inputs)
            result = svc.lineage(
                "lin(<genes2kegg:paths_per_gene[0]>, {get_pathways_by_genes})"
            )
            assert [
                b.key() for b in result.per_run[run_id].bindings
            ] == [("get_pathways_by_genes", "genes_id_list", "0")]


class TestQueries:
    def test_lineage_defaults_to_all_runs(self, service):
        first = service.run("wf", {"size": 2})
        second = service.run("wf", {"size": 2})
        result = service.lineage("lin(<wf:out[0.1]>, {A, B})")
        assert set(result.per_run) == {first, second}
        for answer in result.per_run.values():
            assert sorted(b.key() for b in answer.bindings) == [
                ("A", "x", "0"), ("B", "x", "1"),
            ]

    def test_lineage_accepts_query_objects(self, service):
        from repro.query.base import LineageQuery

        run_id = service.run("wf", {"size": 2})
        result = service.lineage(
            LineageQuery.create("F", "y", [1, 0], ["GEN"])
        )
        assert [b.key() for b in result.per_run[run_id].bindings] == [
            ("GEN", "size", "")
        ]

    def test_focus_override_on_text_queries(self, service):
        run_id = service.run("wf", {"size": 2})
        result = service.lineage("wf:out[0.0]", focus=["A"])
        assert [b.key() for b in result.per_run[run_id].bindings] == [
            ("A", "x", "0")
        ]

    def test_strategies_agree(self, service):
        service.run("wf", {"size": 3})
        query = "lin(<F:y[2.1]>, {A, B})"
        fast = service.lineage(query)
        naive = service.lineage(query, strategy="naive")
        for run_id in fast.per_run:
            keys = fast.per_run[run_id].binding_keys()
            assert naive.per_run[run_id].binding_keys() == keys

    def test_run_scope_restriction(self, service):
        first = service.run("wf", {"size": 2})
        service.run("wf", {"size": 2})
        result = service.lineage("lin(<wf:out[0.0]>, {A})", runs=[first])
        assert list(result.per_run) == [first]

    def test_query_for_unknown_node_rejected(self, service):
        with pytest.raises(WorkflowError, match="no registered workflow"):
            service.lineage("lin(<mystery:port[0]>, {A})")

    def test_impact(self, service):
        run_id = service.run("wf", {"size": 3})
        result = service.impact("A", "x", [1], focus=["F"])
        assert [b.key() for b in result.per_run[run_id].bindings] == [
            ("F", "y", "1.0"), ("F", "y", "1.1"), ("F", "y", "1.2"),
        ]

    def test_explain(self, service):
        service.run("wf", {"size": 2})
        service.run("wf", {"size": 2})
        explanation = service.explain("lin(<wf:out[0.0]>, {GEN})")
        assert explanation.runs == 2
        assert explanation.recommendation == "indexproj"

    def test_multiple_workflows_routed_by_node(self, service):
        workload = genes2kegg_workload()
        service.register_workflow(workload.flow, registry=workload.registry)
        diamond_run = service.run("wf", {"size": 2})
        gk_run = service.run(workload.name, workload.inputs)
        diamond_answer = service.lineage("lin(<F:y[0.0]>, {GEN})")
        gk_answer = service.lineage(
            "lin(<genes2kegg:commonPathways[]>, {flatten_gene_lists})"
        )
        assert list(diamond_answer.per_run) == [diamond_run]
        assert list(gk_answer.per_run) == [gk_run]

    def test_node_shared_by_two_workflows_is_ambiguous(self):
        from repro.testbed.generator import (
            FINAL_PROCESSOR,
            chain_product_workflow,
        )

        with ProvenanceService() as service:
            # Fig. 5 flows of different l share LISTGEN, CHAIN*_0.. and
            # the final processor.
            service.register_workflow(chain_product_workflow(2))
            service.register_workflow(chain_product_workflow(3))
            service.run("synthetic_l2", {"ListSize": 2})
            with pytest.raises(WorkflowError) as info:
                service.lineage(f"lin(<{FINAL_PROCESSOR}:y[0.0]>, {{CHAIN1_0}})")
            message = str(info.value)
            assert "'synthetic_l2'" in message
            assert "'synthetic_l3'" in message
            # A node only one flow has still routes to it.
            answer = service.lineage("lin(<CHAIN1_2:y[0]>, {CHAIN1_0})")
            assert list(answer.per_run) == []


class TestErrorHandlingMode:
    def test_token_mode_service(self):
        from repro.engine.errors import is_error
        from repro.engine.processors import default_registry
        from repro.workflow.builder import DataflowBuilder

        registry = default_registry().extended()

        def explode(inputs, config):
            if inputs["x"] == "bad":
                raise RuntimeError("nope")
            return {"y": inputs["x"]}

        registry.register("explode", explode)
        flow = (
            DataflowBuilder("ef")
            .input("items", "list(string)")
            .output("out", "list(string)")
            .processor("P", inputs=[("x", "string")],
                       outputs=[("y", "string")], operation="explode")
            .arc("ef:items", "P:x")
            .arc("P:y", "ef:out")
            .build()
        )
        with ProvenanceService(error_handling="token") as svc:
            svc.register_workflow(flow, registry=registry)
            run_id = svc.run("ef", {"items": ["ok", "bad"]})
            result = svc.lineage("lin(<ef:out[1]>, {P})")
            culprit = result.per_run[run_id].bindings[0]
            assert culprit.value == "bad"


class TestDuplicateRunIds:
    """Regression: duplicate explicit run ids must be rejected up front.

    Previously ``ProvenanceService.run`` executed the whole workflow and
    only then tripped over the store's primary-key constraint, wasting the
    execution and surfacing a bare ``sqlite3.IntegrityError`` with no hint
    of which run collided.
    """

    def test_duplicate_run_id_raises_before_execution(self, service):
        from repro.provenance.store import DuplicateRunError

        calls = []
        original = service._runners["wf"].run

        def counting_run(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        service._runners["wf"].run = counting_run
        service.run("wf", {"size": 2}, run_id="dup")
        executed_before = len(calls)
        with pytest.raises(DuplicateRunError) as excinfo:
            service.run("wf", {"size": 2}, run_id="dup")
        # The workflow must NOT have executed for the rejected duplicate.
        assert len(calls) == executed_before
        assert excinfo.value.run_id == "dup"
        assert "dup" in str(excinfo.value)

    def test_duplicate_error_is_still_an_integrity_error(self, service):
        import sqlite3

        from repro.provenance.store import DuplicateRunError

        service.run("wf", {"size": 1}, run_id="r1")
        with pytest.raises(sqlite3.IntegrityError):
            service.run("wf", {"size": 1}, run_id="r1")
        assert issubclass(DuplicateRunError, sqlite3.IntegrityError)

    def test_duplicate_rejection_leaves_original_run_intact(self, service):
        from repro.provenance.store import DuplicateRunError

        service.run("wf", {"size": 2}, run_id="keep")
        before = service.store.record_count("keep")
        with pytest.raises(DuplicateRunError):
            service.run("wf", {"size": 3}, run_id="keep")
        assert service.store.record_count("keep") == before
        assert service.runs_of("wf") == ["keep"]

    def test_racing_duplicate_run_ids_admit_exactly_one(self, tmp_path):
        """Two threads racing the same explicit id: one wins, one loses."""
        import threading

        from repro.provenance.store import DuplicateRunError

        with ProvenanceService(str(tmp_path / "race.db")) as svc:
            svc.register_workflow(build_diamond_workflow())
            outcomes = []
            barrier = threading.Barrier(2)

            def contender():
                barrier.wait()
                try:
                    svc.run("wf", {"size": 2}, run_id="contested")
                    outcomes.append("won")
                except DuplicateRunError:
                    outcomes.append("lost")

            threads = [threading.Thread(target=contender) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(outcomes) == ["lost", "won"]
            assert svc.runs_of("wf") == ["contested"]


class TestWholeStoreConsistency:
    """A default-scope answer is computed over one consistent run set."""

    QUERY = "lin(<wf:out[1.1]>, {GEN, A, B})"

    def _hook_runs_of(self, monkeypatch, service, writes):
        """After each of the first ``len(writes)`` scope resolutions, run
        the next write: it lands between resolving the scope and
        reading it."""
        resolve = service.runs_of
        pending = list(writes)

        def runs_of(workflow_name):
            scope = resolve(workflow_name)
            if pending:
                pending.pop(0)()
            return scope

        monkeypatch.setattr(service, "runs_of", runs_of)

    @pytest.mark.parametrize("cache", [True, False])
    def test_run_deleted_after_scope_resolution_is_not_answered(
        self, monkeypatch, cache
    ):
        with ProvenanceService(cache=cache) as service:
            service.register_workflow(build_diamond_workflow())
            runs = [service.run("wf", {"size": 2}) for _ in range(3)]
            victim = runs[-1]
            self._hook_runs_of(
                monkeypatch, service, [lambda: service.store.delete_run(victim)]
            )
            answer = service.lineage(self.QUERY)
            assert list(answer.per_run) == runs[:-1]
            naive = service.lineage(self.QUERY, strategy="naive", cache=False)
            assert answer.binding_keys_by_run() == naive.binding_keys_by_run()
            # The result built over the stale run set never reached the
            # result cache: a repeat is served from the retried entry.
            repeat = service.lineage(self.QUERY)
            assert victim not in repeat.per_run
            if cache:
                assert repeat.from_cache
                assert service.cache_stats()["result"]["entries"] == 1

    def test_run_set_moving_on_every_attempt_raises_busy(self, monkeypatch):
        from repro.provenance.store import StoreBusyError
        from repro.service import SCOPE_ATTEMPTS

        with ProvenanceService() as service:
            service.register_workflow(build_diamond_workflow())
            service.run("wf", {"size": 2})
            self._hook_runs_of(
                monkeypatch, service,
                [lambda: service.run("wf", {"size": 2})] * SCOPE_ATTEMPTS,
            )
            with pytest.raises(StoreBusyError):
                service.lineage(self.QUERY)
            assert service.cache_stats()["result"]["entries"] == 0

    @pytest.mark.parametrize("shards", [0, 2])
    def test_read_between_delete_commit_and_bump_is_retried(
        self, monkeypatch, shards
    ):
        """The reader resolves its scope before ``delete_run`` starts,
        reads after the delete committed and checks its run set before
        the delete bumped the membership generation: the in-flight mark
        makes it re-execute instead of answering the deleted run."""
        from repro.storage import ShardedStore

        store = ShardedStore(num_shards=shards) if shards else None
        with ProvenanceService(store=store) as service:
            service.register_workflow(build_diamond_workflow())
            runs = [service.run("wf", {"size": 2}) for _ in range(3)]
            victim = runs[-1]
            resolved = threading.Event()
            committed = threading.Event()
            checked = threading.Event()
            tokens = []

            resolve = service.runs_of

            def runs_of(workflow_name):
                scope = resolve(workflow_name)
                if not resolved.is_set():
                    resolved.set()
                    assert committed.wait(5)
                return scope

            token = service.store.membership_token

            def membership_token(timeout=0.0):
                value = token(timeout)
                if committed.is_set() and not checked.is_set():
                    # The reader's post-read check, inside the window.
                    tokens.append(value)
                    checked.set()
                return value

            monkeypatch.setattr(service, "runs_of", runs_of)
            monkeypatch.setattr(
                service.store, "membership_token", membership_token
            )
            for shard in getattr(service.store, "shards", [service.store]):
                bump = shard.bump_run_generation

                def hooked(run_id, membership=False, _bump=bump):
                    if run_id == victim:
                        committed.set()
                        assert checked.wait(5)
                    _bump(run_id, membership=membership)

                monkeypatch.setattr(shard, "bump_run_generation", hooked)

            answers = []
            reader = threading.Thread(
                target=lambda: answers.append(service.lineage(self.QUERY))
            )
            reader.start()
            assert resolved.wait(5)
            service.store.delete_run(victim)
            reader.join(5)
            assert tokens == [None]
            assert [list(answer.per_run) for answer in answers] == [runs[:-1]]

    def test_pinned_scope_is_not_retried(self, monkeypatch):
        with ProvenanceService() as service:
            service.register_workflow(build_diamond_workflow())
            runs = [service.run("wf", {"size": 2}) for _ in range(2)]
            original = service.store.generation_vector
            calls = []

            def generation_vector(scope):
                # The result cache captures the whole scope's vector once
                # per execution (the trace cache asks per run).
                if list(scope) == runs:
                    calls.append(scope)
                    if len(calls) == 1:
                        service.run("wf", {"size": 2})  # unrelated ingest
                return original(scope)

            monkeypatch.setattr(
                service.store, "generation_vector", generation_vector
            )
            answer = service.lineage(self.QUERY, runs=runs)
            assert list(answer.per_run) == runs
            assert len(calls) == 1
