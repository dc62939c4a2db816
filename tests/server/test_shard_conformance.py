"""Sharded-tenant conformance: the backend is invisible over the wire.

A tenant whose :class:`~repro.service.ProvenanceService` sits on a
:class:`~repro.storage.ShardedStore` must answer ``GET /v1/lineage``
byte-identically (:func:`repro.server.codec.canonical_bytes`) to both
the in-process service result and a sibling tenant holding the same
traces in a single-file store — across strategies.  The
``/v1/stats`` endpoint additionally has to expose the per-shard rollup
so operators can see the fan-out topology behind a tenant.
"""

from __future__ import annotations

import random

import pytest

from repro.provenance.capture import capture_run
from repro.server import ServerClient, canonical_bytes, encode_answer
from repro.service import ProvenanceService
from repro.storage import ShardedStore

from tests.conftest import estimated_instances, make_random_workflow
from tests.properties.test_prop_agreement import random_query
from tests.server.conftest import boot_server

WORKFLOW_COUNT = 5
QUERIES_PER_CASE = 2
RUNS_PER_CASE = 3
NUM_SHARDS = 3

STRATEGIES = ("indexproj", "naive")


def _generate_cases():
    cases = []
    seed = 0
    while len(cases) < WORKFLOW_COUNT and seed < 500:
        case = make_random_workflow(seed)
        seed += 1
        if estimated_instances(case) > 250:
            continue
        captured = [
            capture_run(case.flow, case.inputs, run_id=f"run-{i}")
            for i in range(RUNS_PER_CASE)
        ]
        rng = random.Random(case.seed * 7919 + 41)
        queries = [
            random_query(case, captured[0], rng)
            for _ in range(QUERIES_PER_CASE)
        ]
        cases.append((f"case{case.seed}", case, captured, queries))
    assert len(cases) == WORKFLOW_COUNT
    return cases


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One server; per workflow a single-file and a sharded tenant
    holding identical captured traces."""
    root = tmp_path_factory.mktemp("shard-conformance")
    cases = _generate_cases()
    services = {}
    for tenant, case, captured, _queries in cases:
        single = ProvenanceService(str(root / f"{tenant}.db"))
        sharded = ProvenanceService(
            store=ShardedStore(
                str(root / f"{tenant}-shards"), num_shards=NUM_SHARDS
            ),
            cache=True,
        )
        for service in (single, sharded):
            service.register_workflow(case.flow)
            for cap in captured:
                service.store.insert_trace(cap.trace)
        services[tenant] = single
        services[f"{tenant}-sharded"] = sharded
    try:
        with boot_server(services, max_workers=4, max_queue=32) as (url, _app):
            yield url, cases, services
    finally:
        for service in services.values():
            service.close()


def _query_params(query):
    params = {}
    if len(query.index):
        params["index"] = query.index.encode()
    if query.focus:
        params["focus"] = ",".join(query.focus)
    return params


def _http_answer(client, query, **params):
    response = client.lineage(
        run="-", node=query.node, port=query.port,
        **_query_params(query), **params,
    )
    assert response.status == 200, response.body
    return response.body


class TestShardedTenantConformance:
    def test_http_matches_inprocess_oracle(self, world):
        """Sharded tenant over HTTP == in-process single-file service."""
        url, cases, services = world
        compared = 0
        for tenant, _case, _captured, queries in cases:
            oracle = services[tenant]
            with ServerClient(url, tenant=f"{tenant}-sharded") as client:
                for query in queries:
                    for strategy in STRATEGIES:
                        http = _http_answer(
                            client, query, strategy=strategy, cache="false",
                        )
                        expected = oracle.lineage(
                            query, strategy=strategy, cache=False,
                        )
                        assert canonical_bytes(
                            http["answer"]
                        ) == canonical_bytes(encode_answer(expected)), (
                            f"{tenant}-sharded: {query} diverged under "
                            f"strategy={strategy}"
                        )
                    compared += 1
        assert compared >= WORKFLOW_COUNT * QUERIES_PER_CASE

    def test_http_matches_single_file_tenant_over_http(self, world):
        """Same wire protocol, two backends, one answer."""
        url, cases, _services = world
        for tenant, _case, _captured, queries in cases:
            with ServerClient(url, tenant=tenant) as single_client, \
                    ServerClient(url, tenant=f"{tenant}-sharded") as shard_client:
                for query in queries:
                    single = _http_answer(single_client, query, cache="false")
                    sharded = _http_answer(shard_client, query, cache="false")
                    assert canonical_bytes(
                        sharded["answer"]
                    ) == canonical_bytes(single["answer"])

    def test_warm_cache_repeat_identical_on_sharded_tenant(self, world):
        """The result cache composes with composed shard generations."""
        url, cases, _services = world
        warmed = 0
        for tenant, _case, _captured, queries in cases:
            with ServerClient(url, tenant=f"{tenant}-sharded") as client:
                for query in queries:
                    first = _http_answer(client, query, cache="true")
                    second = _http_answer(client, query, cache="true")
                    assert canonical_bytes(
                        second["answer"]
                    ) == canonical_bytes(first["answer"])
                    assert second["meta"]["sql_queries"] == 0
                    if second["meta"]["from_cache"]:
                        warmed += 1
        assert warmed >= WORKFLOW_COUNT

    def test_stats_exposes_per_shard_rollup(self, world):
        """``/v1/stats`` carries num_shards and one entry per shard whose
        run counts sum to the flat rollup."""
        url, cases, services = world
        tenant = cases[0][0]
        with ServerClient(url, tenant=f"{tenant}-sharded") as client:
            response = client.get("/v1/stats")
        assert response.status == 200, response.body
        store = response.body["store"]
        assert store["num_shards"] == NUM_SHARDS
        shards = store["shards"]
        assert len(shards) == NUM_SHARDS
        assert [entry["shard"] for entry in shards] == list(range(NUM_SHARDS))
        assert sum(entry["runs"] for entry in shards) == store["runs"]
        assert sum(entry["records"] for entry in shards) == store["records"]
        assert store["runs"] == RUNS_PER_CASE
        for entry in shards:
            assert entry["path"]
        # The single-file sibling reports no shard topology.
        with ServerClient(url, tenant=tenant) as client:
            flat = client.get("/v1/stats")
        assert flat.status == 200
        assert "shards" not in flat.body["store"]
