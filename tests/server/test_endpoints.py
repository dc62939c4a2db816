"""Endpoint behavior of the provenance query server.

Routing, tenancy (header and path-prefix selection, LRU-bounded open
handles), the ``view=`` rollup parameter, structured error mapping, the
``X-Repro-Trace`` envelope, and the Prometheus metrics endpoint — all
exercised over real sockets via :func:`tests.server.conftest.boot_server`.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.query.views import UserView, group_summary, rollup
from repro.server import ServerClient, TenantRegistry
from repro.server.codec import encode_binding
from repro.service import ProvenanceService

from tests.conftest import build_diamond_workflow
from tests.server.conftest import boot_server


class TestRoutingAndHealth:
    def test_healthz(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.healthz()
                assert response.status == 200
                assert response.body["status"] == "ok"
                assert response.body["admission"]["capacity"] > 0

    def test_unknown_endpoint_404(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.get("/v1/nope")
                assert response.status == 404
                assert response.error_code == "unknown-endpoint"

    def test_method_not_allowed(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.post("/v1/lineage/-/wf/out", body={})
                assert response.status == 405

    def test_keep_alive_connection_reused(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                for _ in range(3):
                    assert client.healthz().status == 200
                # Same HTTPConnection object throughout (keep-alive held).
                assert client._conn is not None

    def test_trace_headers(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(q="lin(<wf:out[0.1]>, {A, B})")
                trace_id = response.trace_id
                assert trace_id is not None and len(trace_id) == 32
                parent = response.traceparent
                assert parent is not None
                assert parent.startswith(f"00-{trace_id}-")
                # The request envelope lives on the root span, fetched
                # back through the trace endpoint.
                fetched = client.trace(trace_id)
                assert fetched.status == 200
                root = fetched.body["root"]
                assert root["name"] == "server.request"
                assert root["trace_id"] == trace_id
                attrs = root["attributes"]
                assert attrs["tenant"] == "default"
                assert attrs["status"] == 200
                assert attrs["admission"]["capacity"] == 12
                assert attrs["sql_queries"] >= 1


class TestLineageEndpoint:
    def test_path_and_q_forms_agree(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                by_path = client.lineage(
                    run="-", node="wf", port="out",
                    index="0.1", focus="A,B",
                )
                by_q = client.lineage(q="lin(<wf:out[0.1]>, {A, B})")
                assert by_path.status == by_q.status == 200
                assert by_path.body["answer"] == by_q.body["answer"]

    def test_single_run_scope(self, diamond_service):
        run_id = diamond_service.run_ids[0]
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(
                    run=run_id, node="wf", port="out", index="0.1"
                )
                assert response.body["answer"]["runs"] == [run_id]

    def test_strategies_agree_over_http(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                answers = {
                    strategy: client.lineage(
                        q="lin(<wf:out[0.1]>, {A, B})", strategy=strategy
                    ).body["answer"]
                    for strategy in ("indexproj", "naive", "auto")
                }
                assert answers["indexproj"] == answers["naive"]
                assert answers["indexproj"] == answers["auto"]

    def test_batch_parameter_accepts_chunk_size(self, diamond_service):
        # The removed execution knobs (batch, workers, compiled) are
        # unknown parameters now: accepted, ignored, same answer.
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                plain = client.lineage(q="lin(<wf:out[0.1]>, {A, B})")
                batched = client.lineage(
                    q="lin(<wf:out[0.1]>, {A, B})", batch="8",
                    workers="2", compiled="false",
                )
                assert batched.status == 200
                assert batched.body["answer"] == plain.body["answer"]
                assert (
                    batched.body["meta"]["sql_queries"]
                    <= plain.body["meta"]["sql_queries"]
                )

    def test_cache_param_warm_repeat(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                cold = client.lineage(
                    q="lin(<wf:out[0.1]>, {A, B})", cache="true"
                )
                warm = client.lineage(
                    q="lin(<wf:out[0.1]>, {A, B})", cache="true"
                )
                assert warm.body["answer"] == cold.body["answer"]
                assert warm.body["meta"]["from_cache"] is True
                assert warm.body["meta"]["sql_queries"] == 0
                bypass = client.lineage(
                    q="lin(<wf:out[0.1]>, {A, B})", cache="false"
                )
                assert bypass.body["meta"]["from_cache"] is False

    def test_precheck_empty_focus_statically_answered(self, diamond_service):
        """GEN has no upstream focus path from F -> provably empty."""
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(q="lin(<GEN:list[0]>, {F})")
                assert response.status == 200
                assert response.body["meta"]["sql_queries"] == 0
                assert response.body["answer"]["bindings"] == {}


class TestErrorMapping:
    @pytest.mark.parametrize(
        "path,params,status,code",
        [
            ("/v1/lineage/-", {"q": "lin("}, 400, "parse-error"),
            ("/v1/lineage/-", {"q": "lin(<P:Y[x]>, {Q})"}, 400, "parse-error"),
            ("/v1/lineage/-/wf/out", {"index": "a.b"}, 400, "bad-argument"),
            ("/v1/lineage/-/wf/out", {"strategy": "magic"}, 400,
             "bad-argument"),
            ("/v1/lineage/-/wf/out", {"cache": "maybe"}, 400, "bad-argument"),
            ("/v1/lineage/-/wf/out", {"precheck": "maybe"}, 400,
             "bad-argument"),
            ("/v1/lineage/-/wf/out", {"groups": "branches"}, 400,
             "bad-argument"),
            ("/v1/lineage/-/wf/out", {"q": "lin(<wf:out[0]>, {})"}, 400,
             "conflicting-query"),
            ("/v1/lineage/-/wf", {}, 404, "unknown-endpoint"),
            ("/v1/check-query", {}, 400, "bad-argument"),
        ],
    )
    def test_bad_requests(self, diamond_service, path, params, status, code):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.get(path, params=params)
                assert (response.status, response.error_code) == (status, code)

    def test_invalid_query_carries_precheck_issues(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(q="lin(<wf:out[0]>, {NOPE})")
                assert response.status == 400
                assert response.error_code == "invalid-query"
                issues = response.body["error"]["details"]["issues"]
                assert issues[0]["kind"] == "unknown-focus"

    def test_unknown_node_404_with_suggestions(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(q="lin(<wg:out[0]>, {A})")
                assert response.status == 404
                assert response.error_code == "unknown-workflow"


class TestTenancy:
    def test_header_and_path_prefix_select_same_tenant(self):
        alpha = ProvenanceService()
        alpha.register_workflow(build_diamond_workflow())
        alpha.run("wf", {"size": 2})
        try:
            with boot_server({"alpha": alpha}) as (url, _app):
                with ServerClient(url, tenant="alpha") as by_header:
                    with ServerClient(url) as by_path:
                        one = by_header.get("/v1/stats")
                        two = by_path.get("/t/alpha/v1/stats")
                        assert one.status == two.status == 200
                        assert one.body["store"] == two.body["store"]
        finally:
            alpha.close()

    def test_unknown_tenant_404(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url, tenant="ghost") as client:
                response = client.get("/v1/stats")
                assert response.status == 404
                assert response.error_code == "unknown-tenant"

    def test_bad_tenant_name_400(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.get("/t/..%2Fetc/v1/stats")
                assert response.status == 400
                assert response.error_code == "bad-tenant"

    def test_lazy_open_and_lru_eviction(self, tmp_path):
        """Path-mode tenants open lazily and evict beyond max_open."""
        flow = build_diamond_workflow()
        for tenant in ("t1", "t2", "t3"):
            service = ProvenanceService(str(tmp_path / f"{tenant}.db"))
            service.register_workflow(flow)
            service.run("wf", {"size": 2})
            service.close()

        def setup(service, _tenant):
            service.register_workflow(flow)

        registry = TenantRegistry(
            root=str(tmp_path), setup=setup, max_open=2
        )
        with boot_server(registry=registry) as (url, _app):
            with ServerClient(url) as client:
                for tenant in ("t1", "t2", "t3", "t1"):
                    response = client.get(f"/t/{tenant}/v1/stats")
                    assert response.status == 200, response.body
                    assert response.body["store"]["runs"] == 1
                stats = client.get("/t/t1/v1/stats").body["registry"]
                assert stats["open"] <= 2
                assert stats["evictions"] >= 2  # t1 evicted then re-opened
            with ServerClient(url, tenant="t2") as client:
                response = client.lineage(q="lin(<wf:out[0.1]>, {A, B})")
                assert response.status == 200


class TestViews:
    def test_view_param_expands_and_rolls_up(self, diamond_service):
        view = UserView("stages", {"branches": ["A", "B"], "source": ["GEN"]})
        registry = TenantRegistry()
        registry.register_view("default", view)
        with boot_server(
            {"default": diamond_service}, registry=registry
        ) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(
                    run="-", node="wf", port="out", index="0.1",
                    view="stages", groups="branches",
                )
                assert response.status == 200
                answer = response.body["answer"]
                assert answer["view"] == "stages"
                # Server rollup == in-process rollup of the same query.
                result = diamond_service.lineage(
                    "lin(<wf:out[0.1]>, {A, B})"
                )
                for run_id, per_run in result.per_run.items():
                    expected = {
                        group: [encode_binding(b) for b in bindings]
                        for group, bindings in group_summary(
                            rollup(per_run.bindings, view)
                        ).items()
                    }
                    assert answer["groups"][run_id] == expected
                    assert set(answer["groups"][run_id]) == {"branches"}

    def test_view_without_groups_uses_every_group(self, diamond_service):
        view = UserView("stages", {"branches": ["A", "B"], "source": ["GEN"]})
        registry = TenantRegistry()
        registry.register_view("default", view)
        with boot_server(
            {"default": diamond_service}, registry=registry
        ) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(
                    run="-", node="wf", port="out", index="0.1",
                    view="stages",
                )
                assert response.status == 200
                groups = next(iter(response.body["answer"]["groups"].values()))
                # Omitting ?groups= rolls up every group of the view; GEN
                # is upstream of out[0.1], so "source" shows up too.
                assert set(groups) == {"branches", "source"}

    def test_unknown_view_and_group_404(self, diamond_service):
        view = UserView("stages", {"branches": ["A", "B"]})
        registry = TenantRegistry()
        registry.register_view("default", view)
        with boot_server(
            {"default": diamond_service}, registry=registry
        ) as (url, _app):
            with ServerClient(url) as client:
                missing_view = client.lineage(
                    run="-", node="wf", port="out", view="nope"
                )
                assert missing_view.status == 404
                assert missing_view.error_code == "unknown-view"
                missing_group = client.lineage(
                    run="-", node="wf", port="out",
                    view="stages", groups="nope",
                )
                assert missing_group.status == 404
                assert missing_group.error_code == "unknown-group"

    def test_view_plus_focus_rejected(self, diamond_service):
        registry = TenantRegistry()
        registry.register_view(
            "default", UserView("stages", {"branches": ["A", "B"]})
        )
        with boot_server(
            {"default": diamond_service}, registry=registry
        ) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(
                    run="-", node="wf", port="out",
                    view="stages", focus="A",
                )
                assert response.status == 400

    def test_shared_view_visible_to_all_tenants(self, diamond_service):
        registry = TenantRegistry()
        registry.register_shared_view(
            UserView("stages", {"branches": ["A", "B"]})
        )
        with boot_server(
            {"default": diamond_service}, registry=registry
        ) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage(
                    run="-", node="wf", port="out", index="0.1",
                    view="stages",
                )
                assert response.status == 200


class TestBatchEndpoint:
    def test_mixed_text_and_object_queries(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage_batch(
                    {
                        "queries": [
                            "lin(<wf:out[0.1]>, {A, B})",
                            {"node": "wf", "port": "out", "index": "0.1",
                             "focus": ["A", "B"]},
                        ]
                    }
                )
                assert response.status == 200
                assert response.body["count"] == 2
                first, second = response.body["results"]
                assert first["answer"] == second["answer"]

    def test_batch_matches_lineage_many(self, diamond_service):
        queries = ["lin(<wf:out[0.1]>, {A})", "lin(<wf:out[1.0]>, {B})"]
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage_batch(
                    {"queries": queries, "strategy": "naive"}
                )
        from repro.server.codec import encode_answer

        expected = [
            encode_answer(result)
            for result in diamond_service.lineage_many(
                queries, strategy="naive"
            )
        ]
        got = [item["answer"] for item in response.body["results"]]
        assert got == expected

    @pytest.mark.parametrize(
        "body,code",
        [
            ({}, "bad-argument"),
            ({"queries": []}, "bad-argument"),
            ({"queries": "lin(<wf:out[0]>, {A})"}, "bad-argument"),
            ({"queries": [42]}, "bad-argument"),
            ({"queries": [{"node": "wf"}]}, "bad-argument"),
            ({"queries": ["lin(<wf:out[0]>, {A})"], "runs": "r1"},
             "bad-argument"),
            ({"queries": ["lin(<wf:out[0]>, {A})"], "strategy": "magic"},
             "bad-argument"),
            ({"queries": ["lin(<wf:out[0]>, {A})"], "max_workers": 0},
             "bad-argument"),
        ],
    )
    def test_malformed_bodies(self, diamond_service, body, code):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage_batch(body)
                assert response.status == 400
                assert response.error_code == code

    def test_oversized_batch_413(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                response = client.lineage_batch(
                    {"queries": ["lin(<wf:out[0]>, {A})"] * 257}
                )
                assert response.status == 413
                assert response.error_code == "batch-too-large"

    def test_malformed_json_body(self, diamond_service):
        import http.client

        with boot_server({"default": diamond_service}) as (url, _app):
            host = url.split("//")[1]
            conn = http.client.HTTPConnection(host, timeout=10)
            conn.request(
                "POST", "/v1/lineage:batch", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            raw = conn.getresponse()
            body = json.loads(raw.read())
            assert raw.status == 400
            assert body["error"]["code"] == "protocol-error"
            conn.close()


class TestIntrospectionEndpoints:
    def test_lint_all_and_single(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                everything = client.get("/v1/lint")
                assert everything.status == 200
                assert "wf" in everything.body["findings"]
                single = client.get("/v1/lint", params={"workflow": "wf"})
                assert single.body["findings"]["wf"] == (
                    everything.body["findings"]["wf"]
                )
                missing = client.get("/v1/lint", params={"workflow": "zz"})
                assert missing.status == 404

    def test_check_query_verdicts(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                viable = client.get(
                    "/v1/check-query",
                    params={"q": "lin(<wf:out[0.1]>, {A})", "runs": 3},
                )
                assert viable.status == 200
                assert viable.body["verdict"] == "viable"
                assert viable.body["chosen_strategy"] in (
                    "indexproj", "naive"
                )
                assert viable.body["round_trips"]["unbatched"] >= 1
                invalid = client.get(
                    "/v1/check-query", params={"q": "lin(<wf:out[0]>, {X})"}
                )
                assert invalid.status == 200
                assert invalid.body["verdict"] == "invalid"
                assert invalid.body["issues"][0]["kind"] == "unknown-focus"

    def test_stats_and_cache_stats(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                stats = client.get("/v1/stats")
                assert stats.body["store"]["runs"] == 2
                assert stats.body["admission"]["capacity"] == 12
                cache_stats = client.get("/v1/cache-stats")
                assert cache_stats.body["enabled"] is True

    def test_metrics_exposition(self, diamond_service):
        with boot_server({"default": diamond_service}) as (url, _app):
            with ServerClient(url) as client:
                client.lineage(q="lin(<wf:out[0.1]>, {A, B})")
                response = client.get("/v1/metrics")
                assert response.status == 200
                text = response.body
                assert "repro_server_requests_total" in text
                assert "repro_server_responses_200_total" in text
                assert "repro_server_request_seconds" in text


class TestConcurrentClients:
    def test_parallel_clients_all_answered(self, diamond_service):
        """A small herd below capacity: every request gets a 200."""
        with boot_server(
            {"default": diamond_service}, max_workers=4, max_queue=8
        ) as (url, _app):
            statuses = []
            lock = threading.Lock()

            def worker():
                with ServerClient(url) as client:
                    for _ in range(5):
                        status = client.lineage(
                            q="lin(<wf:out[0.1]>, {A, B})", cache="false"
                        ).status
                        with lock:
                            statuses.append(status)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses == [200] * 20
