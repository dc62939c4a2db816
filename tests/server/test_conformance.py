"""Differential conformance: HTTP answers == in-process answers.

The server's contract is that ``GET /v1/lineage`` and
``POST /v1/lineage:batch`` are a transport, not a reinterpretation: for
any workflow, any query, any strategy, the ``answer`` document coming
back over the wire is **byte-identical** (via
:func:`repro.server.codec.canonical_bytes`) to encoding the
:class:`~repro.service.ProvenanceService` result in process.  Timings
and round-trip counters live in ``meta`` and are excluded.

The suite reuses the property-test machinery: random executable
workflows (``make_random_workflow``), random query bindings over ports
that actually carry values (``random_query``), and runs the full cross
product of strategies over >= 25 workflow/query cases — one
HTTP tenant per workflow, all served by a single server instance.
"""

from __future__ import annotations

import random

import pytest

from repro.query.parser import format_query
from repro.server import ServerClient, canonical_bytes, encode_answer
from repro.service import ProvenanceService

from tests.conftest import (
    estimated_instances,
    make_random_workflow,
    run_random_case,
)
from tests.properties.test_prop_agreement import random_query
from tests.server.conftest import boot_server

#: Number of random workflows; each contributes QUERIES_PER_CASE cases.
WORKFLOW_COUNT = 15
QUERIES_PER_CASE = 2
RUNS_PER_CASE = 2

STRATEGIES = ("indexproj", "naive", "auto")


def _generate_cases():
    """(tenant, case, captured, queries) tuples, instance-count bounded."""
    cases = []
    seed = 0
    while len(cases) < WORKFLOW_COUNT and seed < 500:
        case = make_random_workflow(seed)
        seed += 1
        if estimated_instances(case) > 250:
            continue
        captured = run_random_case(case)
        rng = random.Random(case.seed * 7919 + 17)
        queries = [
            random_query(case, captured, rng)
            for _ in range(QUERIES_PER_CASE)
        ]
        cases.append((f"case{case.seed}", case, queries))
    assert len(cases) == WORKFLOW_COUNT
    return cases


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One server, one tenant per random workflow, two runs each."""
    root = tmp_path_factory.mktemp("conformance")
    cases = _generate_cases()
    services = {}
    for tenant, case, _queries in cases:
        service = ProvenanceService(str(root / f"{tenant}.db"))
        service.register_workflow(case.flow)
        for _ in range(RUNS_PER_CASE):
            service.run(case.flow.name, case.inputs)
        services[tenant] = service
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


class TestLineageConformance:
    def test_http_matches_inprocess_every_strategy(self, world):
        """>= 25 cases x {indexproj, naive, auto}."""
        url, cases, services = world
        compared = 0
        for tenant, _case, queries in cases:
            oracle = services[tenant]
            with ServerClient(url, tenant=tenant) as client:
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
                            f"{tenant}: {query} diverged under "
                            f"strategy={strategy}"
                        )
                    compared += 1
        assert compared >= 25

    def test_q_notation_matches_path_form(self, world):
        """The parsed ``?q=lin(...)`` route is the same query."""
        url, cases, _services = world
        exercised = 0
        for tenant, _case, queries in cases:
            with ServerClient(url, tenant=tenant) as client:
                for query in queries:
                    if not query.focus:
                        continue  # the text notation needs a focus set
                    by_path = _http_answer(client, query)
                    by_q = client.lineage(q=format_query(query))
                    assert by_q.status == 200, by_q.body
                    assert canonical_bytes(
                        by_q.body["answer"]
                    ) == canonical_bytes(by_path["answer"])
                    exercised += 1
        assert exercised >= 10  # rng keeps most focus sets non-empty

    def test_cache_warm_repeat_identical(self, world):
        """Warm result-cache hits serve the same bytes as cold misses."""
        url, cases, _services = world
        cached = 0
        for tenant, _case, queries in cases:
            with ServerClient(url, tenant=tenant) as client:
                for query in queries:
                    first = _http_answer(client, query, cache="true")
                    second = _http_answer(client, query, cache="true")
                    assert canonical_bytes(
                        second["answer"]
                    ) == canonical_bytes(first["answer"])
                    if second["meta"]["from_cache"]:
                        assert second["meta"]["sql_queries"] == 0
                        cached += 1
                    else:
                        # Only statically answered (precheck-empty)
                        # queries legitimately stay out of the cache.
                        assert second["meta"]["sql_queries"] == 0
                        assert second["answer"]["bindings"] in (
                            {}, {run: [] for run
                                 in second["answer"]["runs"]},
                        )
        assert cached >= 5

    def test_single_run_scope_conformance(self, world):
        """Scoping to one concrete run id matches the in-process scope."""
        url, cases, services = world
        for tenant, case, queries in cases[:5]:
            oracle = services[tenant]
            run_id = oracle.runs_of(case.flow.name)[0]
            with ServerClient(url, tenant=tenant) as client:
                query = queries[0]
                response = client.lineage(
                    run=run_id, node=query.node, port=query.port,
                    **_query_params(query),
                )
                assert response.status == 200, response.body
                expected = oracle.lineage(query, runs=[run_id])
                assert canonical_bytes(
                    response.body["answer"]
                ) == canonical_bytes(encode_answer(expected))
                assert response.body["answer"]["runs"] == [run_id]


class TestBatchConformance:
    def test_batch_endpoint_matches_lineage_many(self, world):
        """One POST per workflow == ``lineage_many`` over the same set."""
        url, cases, services = world
        for strategy in STRATEGIES:
            for tenant, _case, queries in cases:
                oracle = services[tenant]
                payload = {
                    "queries": [format_query(q) for q in queries
                                if q.focus],
                    "strategy": strategy,
                    "cache": False,
                }
                if not payload["queries"]:
                    continue
                with ServerClient(url, tenant=tenant) as client:
                    response = client.lineage_batch(payload)
                assert response.status == 200, response.body
                expected = oracle.lineage_many(
                    payload["queries"], strategy=strategy, cache=False
                )
                got = [item["answer"] for item in response.body["results"]]
                assert [canonical_bytes(a) for a in got] == [
                    canonical_bytes(encode_answer(r)) for r in expected
                ]

    def test_object_form_queries_match_text_form(self, world):
        """Structured query objects and lin(...) strings are one query."""
        url, cases, _services = world
        tenant, _case, queries = cases[0]
        query = next(q for q in queries if q.focus)
        body = {
            "queries": [
                format_query(query),
                {
                    "node": query.node,
                    "port": query.port,
                    "index": query.index.encode(),
                    "focus": list(query.focus),
                },
            ]
        }
        with ServerClient(url, tenant=tenant) as client:
            response = client.lineage_batch(body)
        assert response.status == 200, response.body
        first, second = response.body["results"]
        assert canonical_bytes(first["answer"]) == canonical_bytes(
            second["answer"]
        )
