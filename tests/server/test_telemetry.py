"""End-to-end request telemetry over real sockets.

The regression at the heart of this suite: one HTTP lineage request must
yield exactly ONE rooted span tree — server.request at the root, the
service/strategy/store spans beneath it — even when the query fans out
across worker threads.  v1 lost the parent at every thread hop and
produced orphan roots; these tests pin the v2 contract, plus the
``/v1/traces``, ``/v1/slowlog``, and ``/v1/metrics/window`` endpoints,
W3C ``traceparent`` adoption, and trace/slowlog behavior under
backpressure (429/504 requests still trace, nothing leaks).
"""

from __future__ import annotations

import contextlib
import http.client
import threading
import time
from urllib.parse import urlencode

from repro.obs.slowlog import load_slowlog, slowlog_sidecar_path
from repro.provenance.faults import FaultInjector
from repro.server import ServerClient, ServerConfig, ServerThread, TenantRegistry
from repro.server.app import default_setup
from repro.service import ProvenanceService

from tests.conftest import build_diamond_workflow
from tests.server.conftest import boot_server

QUERY = "lin(<wf:out[0.1]>, {A, B})"


@contextlib.contextmanager
def boot_telemetry_server(tmp_path, **config_kwargs):
    """A path-mode server whose tenants share the server's obs handle.

    Seeds ``<tmp_path>/default.db`` with two diamond runs, then boots the
    real runtime so the config-driven telemetry wiring (sampling, sink,
    per-tenant slowlog) is exercised — unlike ``boot_server``'s pinned
    services, the lazily opened tenant here traces all the way down.
    """
    flow = build_diamond_workflow()
    seeder = ProvenanceService(str(tmp_path / "default.db"))
    seeder.register_workflow(flow)
    for _ in range(2):
        seeder.run("wf", {"size": 3})
    seeder.close()
    config = ServerConfig(tenant_root=str(tmp_path), **config_kwargs)
    registry = TenantRegistry(
        root=str(tmp_path),
        setup=default_setup((flow, None)),
        obs=config.obs,
        slowlog_threshold_ms=config.slowlog_threshold_ms,
        slowlog_ring=config.slowlog_ring,
    )
    thread = ServerThread(config=config, registry=registry)
    try:
        url = thread.start()
        yield url, thread.server
    finally:
        thread.stop()


def walk_dict(span):
    yield span
    for child in span.get("children", []):
        yield from walk_dict(child)


class TestOneRequestOneTree:
    def test_lineage_request_yields_single_rooted_tree(self, tmp_path):
        """Satellite regression: no orphan roots, ever."""
        with boot_telemetry_server(tmp_path) as (url, server):
            with ServerClient(url) as client:
                response = client.lineage(q=QUERY)
                assert response.status == 200
                trace_id = response.trace_id
                assert trace_id is not None and len(trace_id) == 32

                fetched = client.trace(trace_id)
                assert fetched.status == 200
                assert fetched.body["trace_id"] == trace_id
                root = fetched.body["root"]
                assert root["name"] == "server.request"
                assert root["parent_id"] is None

                spans = list(walk_dict(root))
                names = [s["name"] for s in spans]
                assert "service.lineage" in names
                assert any(
                    n.startswith(("store.", "cache.")) for n in names
                ), f"no store/cache spans in tree: {names}"
                # The compiled plan lookup, run on a pool thread, lands
                # INSIDE this tree, not as an orphan root.
                assert "indexproj.plan" in names
                # One trace id end to end, parent links intact.
                assert all(s["trace_id"] == trace_id for s in spans)
                for span in spans:
                    for child in span.get("children", []):
                        assert child["parent_id"] == span["span_id"]

                # The sink holds ONLY server.request roots — a thread hop
                # that lost its parent would surface as an extra root.
                recent = client.traces_recent()
                assert recent.status == 200
                assert recent.body["enabled"] is True
                roots = recent.body["traces"]
                assert roots and all(
                    r["name"] == "server.request" for r in roots
                ), [r["name"] for r in roots]

    def test_trace_headers_and_unknown_trace(self, tmp_path):
        with boot_telemetry_server(tmp_path) as (url, server):
            with ServerClient(url) as client:
                response = client.lineage(q=QUERY)
                assert response.traceparent is not None
                assert response.traceparent.startswith(
                    f"00-{response.trace_id}-"
                )
                assert response.traceparent.endswith("-01")
                missing = client.trace("f" * 32)
                assert missing.status == 404
                assert missing.error_code == "unknown-trace"


class TestTraceparentAdoption:
    def _request_with_traceparent(self, url, header):
        host = url.split("//", 1)[1]
        conn = http.client.HTTPConnection(host, timeout=30)
        try:
            conn.request(
                "GET", f"/v1/lineage/-?{urlencode({'q': QUERY})}",
                headers={"traceparent": header},
            )
            raw = conn.getresponse()
            raw.read()
            return raw.status, {k.lower(): v for k, v in raw.getheaders()}
        finally:
            conn.close()

    def test_inbound_traceparent_is_adopted(self, tmp_path):
        remote_trace = "ab" * 16
        remote_span = "cd" * 8
        with boot_telemetry_server(tmp_path) as (url, server):
            status, headers = self._request_with_traceparent(
                url, f"00-{remote_trace}-{remote_span}-01"
            )
            assert status == 200
            assert headers["x-repro-trace"] == remote_trace
            with ServerClient(url) as client:
                fetched = client.trace(remote_trace)
                assert fetched.status == 200
                root = fetched.body["root"]
                assert root["trace_id"] == remote_trace
                # Our root continues the caller's span, not a fresh trace.
                assert root["parent_id"] == remote_span

    def test_unsampled_traceparent_is_honored(self, tmp_path):
        remote_trace = "ab" * 16
        with boot_telemetry_server(tmp_path) as (url, server):
            status, headers = self._request_with_traceparent(
                url, f"00-{remote_trace}-{'cd' * 8}-00"
            )
            assert status == 200
            # The id still propagates for log correlation...
            assert headers["x-repro-trace"] == remote_trace
            assert headers["traceparent"].endswith("-00")
            # ...but the caller opted out of collection.
            with ServerClient(url) as client:
                assert client.trace(remote_trace).status == 404

    def test_malformed_traceparent_falls_back_to_fresh_trace(self, tmp_path):
        with boot_telemetry_server(tmp_path) as (url, server):
            status, headers = self._request_with_traceparent(
                url, "00-not-a-real-header-01"
            )
            assert status == 200
            trace_id = headers["x-repro-trace"]
            assert len(trace_id) == 32
            with ServerClient(url) as client:
                fetched = client.trace(trace_id)
                assert fetched.status == 200
                assert fetched.body["root"]["parent_id"] is None


class TestSampling:
    def test_stride_sampling_over_http(self, tmp_path):
        with boot_telemetry_server(tmp_path, trace_sample=0.5) as (
            url, server,
        ):
            with ServerClient(url) as client:
                ids = [
                    client.lineage(q=QUERY).trace_id for _ in range(4)
                ]
                assert all(ids)
                # Stride 2: requests 1 and 3 are kept, 2 and 4 dropped.
                assert client.trace(ids[0]).status == 200
                assert client.trace(ids[1]).status == 404
                assert client.trace(ids[2]).status == 200
                assert client.trace(ids[3]).status == 404


class TestMetricsWindow:
    def test_window_counts_recent_requests(self, tmp_path):
        with boot_telemetry_server(tmp_path) as (url, server):
            with ServerClient(url) as client:
                for _ in range(3):
                    assert client.lineage(q=QUERY).status == 200
                report = client.metrics_window("60s")
                assert report.status == 200
                body = report.body
                assert body["enabled"] is True
                assert body["requests"] >= 3
                assert body["statuses"].get("200", 0) >= 3
                assert body["rps"] > 0
                assert body["p50_ms"] is not None
                assert body["p99_ms"] >= body["p50_ms"]

    def test_window_spec_validation_and_clamping(self, tmp_path):
        with boot_telemetry_server(tmp_path) as (url, server):
            with ServerClient(url) as client:
                bad = client.metrics_window("soon")
                assert bad.status == 400
                assert bad.error_code == "bad-argument"
                # Requests wider than the retained ring are clamped, not
                # rejected.
                wide = client.metrics_window("12h")
                assert wide.status == 200
                assert wide.body["window_seconds"] <= int(
                    server.app.window.span_seconds
                )
                default = client.metrics_window()
                assert default.status == 200
                assert default.body["window_seconds"] == 60


class TestSlowlog:
    def test_slowlog_records_round_trip(self, tmp_path):
        with boot_telemetry_server(
            tmp_path, slowlog_threshold_ms=0.0
        ) as (url, server):
            with ServerClient(url) as client:
                response = client.lineage(q=QUERY, cache="false")
                assert response.status == 200
                meta = response.body["meta"]

                listed = client.slowlog()
                assert listed.status == 200
                assert listed.body["enabled"] is True
                assert listed.body["threshold_ms"] == 0.0
                assert listed.body["count"] >= 1
                record = listed.body["records"][0]
                # The journal entry is built from aggregate_stats() of the
                # same result the response serialized — they must agree.
                assert record["query"].startswith("lin(")
                assert record["strategy"] in ("indexproj", "naive")
                assert record["sql_queries"] == meta["sql_queries"]
                assert record["rows"] == meta["rows"]
                assert record["from_cache"] is meta["from_cache"]
                assert record["trace_id"] == response.trace_id
                assert record["wall_ms"] >= 0.0
                assert record["runs"] == 2

                # And the sidecar holds the same record, durably.
                sidecar = slowlog_sidecar_path(
                    str(tmp_path / "default.db")
                )
                persisted = load_slowlog(sidecar)
                assert persisted
                assert persisted[-1]["query"] == record["query"]
                assert persisted[-1]["sql_queries"] == record["sql_queries"]

    def test_slowlog_disabled_by_default(self, tmp_path):
        with boot_telemetry_server(tmp_path) as (url, server):
            with ServerClient(url) as client:
                assert client.lineage(q=QUERY).status == 200
                listed = client.slowlog()
                assert listed.status == 200
                assert listed.body == {
                    "enabled": False, "count": 0, "records": [],
                }

    def test_threshold_filters_fast_queries(self, tmp_path):
        with boot_telemetry_server(
            tmp_path, slowlog_threshold_ms=60_000.0
        ) as (url, server):
            with ServerClient(url) as client:
                assert client.lineage(q=QUERY).status == 200
                listed = client.slowlog()
                assert listed.body["enabled"] is True
                assert listed.body["count"] == 0


class TestBackpressureTelemetry:
    """Satellite: 429/504 responses still trace; nothing leaks."""

    def _slow_service(self, tmp_path, delay):
        faults = FaultInjector()
        service = ProvenanceService(
            str(tmp_path / "slow.db"), faults=faults, cache=False
        )
        service.register_workflow(build_diamond_workflow())
        service.run("wf", {"size": 2})
        faults.inject_read_delay(delay)
        return service, faults

    def test_rejected_request_traces_without_leaking(self, tmp_path):
        service, _faults = self._slow_service(tmp_path, delay=0.3)
        try:
            with boot_server(
                {"default": service}, max_workers=1, max_queue=0,
            ) as (url, app):
                sink = app.obs.tracer.sink
                barrier = threading.Barrier(2)
                done = []

                def occupy():
                    with ServerClient(url) as client:
                        barrier.wait()
                        done.append(client.lineage(q=QUERY).status)

                thread = threading.Thread(target=occupy)
                thread.start()
                barrier.wait()
                time.sleep(0.05)
                with ServerClient(url) as client:
                    rejected = client.lineage(q=QUERY)
                    assert rejected.status == 429
                    fetched = client.trace(rejected.trace_id)
                    assert fetched.status == 200
                    attrs = fetched.body["root"]["attributes"]
                    assert attrs["error"] == "queue-full"
                    assert attrs["status"] == 429
                thread.join(timeout=30)
                assert done == [200]
                # Exactly one emitted trace per request handled — a
                # refused admission must not leak (or drop) sink entries.
                deadline = time.time() + 10
                while time.time() < deadline:
                    # occupy + rejected + the /v1/traces fetch
                    if sink.emitted >= 3:
                        break
                    time.sleep(0.02)
                assert sink.emitted == 3
                assert app.admission.depth()["inflight"] == 0
        finally:
            service.close()

    def test_timed_out_request_leaves_truncated_trace(self, tmp_path):
        service, faults = self._slow_service(tmp_path, delay=0.4)
        try:
            with boot_server(
                {"default": service}, max_workers=1, max_queue=0,
                timeout=0.1,
            ) as (url, app):
                with ServerClient(url) as client:
                    response = client.lineage(q=QUERY)
                    assert response.status == 504
                    # The trace is available immediately — truncated to
                    # whatever had finished at the deadline — and records
                    # the timeout verdict.
                    fetched = client.trace(response.trace_id)
                    assert fetched.status == 200
                    attrs = fetched.body["root"]["attributes"]
                    assert attrs["error"] == "deadline-exceeded"
                    assert attrs["status"] == 504

                # The abandoned worker drains and frees its slot; its late
                # spans must not surface as new sink roots.
                deadline = time.time() + 30
                while time.time() < deadline:
                    if app.admission.depth()["inflight"] == 0:
                        break
                    time.sleep(0.05)
                assert app.admission.depth()["inflight"] == 0
                sink = app.obs.tracer.sink
                assert all(
                    root.name == "server.request"
                    for root in sink.recent(limit=len(sink))
                )
                faults.reset()
                with ServerClient(url) as client:
                    assert client.lineage(q=QUERY).status == 200
        finally:
            service.close()
