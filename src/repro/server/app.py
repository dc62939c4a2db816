"""Route table and request handlers of the provenance query server.

The app is transport-independent: it consumes parsed
:class:`~repro.server.http.Request` objects and produces
:class:`~repro.server.http.Response` objects, so tests can drive it
without sockets and the asyncio runtime (:mod:`repro.server.runtime`)
stays a thin connection loop.

Endpoints (all JSON; ``{tenant}`` optional via ``/t/{tenant}/...`` or
the ``X-Repro-Tenant`` header, defaulting to ``default``):

=====================================  =====================================
``GET /healthz``                       liveness — never enters the worker
                                       pool, so it answers even when the
                                       admission queue is saturated
``GET /v1/metrics``                    Prometheus text exposition of the
                                       server + store + query metrics
``GET /v1/lineage/{run}/{node}/{port}``  one lineage query; ``run`` may be
                                       ``-`` for every stored run
``GET /v1/lineage/{run}?q=lin(...)``   same, query given in the paper's
                                       notation (:mod:`repro.query.parser`)
``POST /v1/lineage:batch``             many queries at once, mapped onto
                                       :meth:`ProvenanceService.lineage_many`
``GET /v1/lint``                       workflow lint findings
``GET /v1/check-query``                static query triage (no trace reads)
``GET /v1/stats``                      store statistics + server occupancy
``GET /v1/cache-stats``                lineage cache stack counters
``GET /v1/traces/recent``              recently finished request traces
``GET /v1/traces/{trace_id}``          one full rooted span tree
``GET /v1/slowlog``                    the tenant's slow-query journal
``GET /v1/metrics/window?last=60s``    recent rps / status mix / p50-p99
=====================================  =====================================

Every request is wrapped in a ``server.request`` span whose context
propagates through admission, the service, the query strategies, and the
store — one trace id for the whole request.  Responses carry that id in
``X-Repro-Trace`` plus a W3C ``traceparent`` header; an incoming
``traceparent`` is adopted, so the server joins a caller's distributed
trace.  The full tree is retrievable afterwards from ``/v1/traces/...``
(backed by the tracer's :class:`~repro.obs.sink.SpanSink`).  The
trace/slowlog/window endpoints answer *outside* the worker pool, like
``/healthz`` — they stay readable while the admission queue is
saturated, which is exactly when they matter.

Query parameters of the lineage endpoints: ``index`` (dotted path),
``focus`` (comma-separated processors), ``view`` + ``groups`` (expand a
registered :class:`~repro.query.views.UserView` into the focus set and
roll the answer up to groups), ``strategy`` (``indexproj`` | ``naive`` |
``auto``), and ``cache`` / ``precheck`` (booleans).  Unknown parameters
are ignored.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.analysis.lint import run_lint
from repro.obs.core import NO_OBS, NULL_SPAN, Observability
from repro.obs.export import to_prometheus
from repro.obs.sink import SpanSink
from repro.obs.tracer import format_traceparent, parse_traceparent
from repro.obs.window import TimeWindow, parse_window
from repro.query.base import LineageQuery
from repro.query.parser import parse_query
from repro.query.views import UserView, focus_for_groups
from repro.server.admission import AdmissionController
from repro.server.codec import encode_result
from repro.server.errors import ApiError, BadRequest, NotFound, map_exception
from repro.server.http import Request, Response
from repro.server.registry import DEFAULT_TENANT, TenantRegistry, validate_tenant
from repro.service import ProvenanceService
from repro.values.index import Index
from repro.workflow.model import WorkflowError

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}

#: Upper bound on queries in one ``lineage:batch`` request.
MAX_BATCH_QUERIES = 256


def _parse_bool(name: str, text: Optional[str]) -> Optional[bool]:
    if text is None:
        return None
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise BadRequest(
        "bad-argument", f"parameter {name!r} wants a boolean, got {text!r}"
    )


def _parse_int(name: str, text: Optional[str]) -> Optional[int]:
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise BadRequest(
            "bad-argument", f"parameter {name!r} wants an integer, got {text!r}"
        ) from None


class ServerApp:
    """The provenance query API over a tenant registry."""

    def __init__(
        self,
        registry: TenantRegistry,
        admission: Optional[AdmissionController] = None,
        obs: Optional[Observability] = None,
        window: Optional[TimeWindow] = None,
    ) -> None:
        self.obs = obs if obs is not None else NO_OBS
        self.registry = registry
        self.admission = (
            admission if admission is not None
            else AdmissionController(obs=self.obs)
        )
        #: Recent-traffic aggregation behind ``/v1/metrics/window``.
        self.window = window if window is not None else TimeWindow()
        # /v1/traces needs somewhere to read finished traces from; give
        # the tracer a default sink unless the runtime configured one.
        if self.obs.enabled and self.obs.tracer.sink is None:
            self.obs.tracer.sink = SpanSink()
        self._started_at = time.time()

    # -- plumbing ---------------------------------------------------------

    def _resolve_tenant(self, request: Request) -> Tuple[str, str]:
        """(tenant, path with any ``/t/{tenant}`` prefix stripped)."""
        path = request.path
        if path == "/t" or path.startswith("/t/"):
            parts = path.split("/", 3)
            if len(parts) < 3 or not parts[2]:
                raise BadRequest(
                    "bad-tenant", "expected /t/{tenant}/<endpoint>"
                )
            rest = "/" + parts[3] if len(parts) > 3 else "/"
            return validate_tenant(parts[2]), rest
        tenant = request.headers.get("x-repro-tenant", DEFAULT_TENANT)
        return validate_tenant(tenant), path

    def _request_span(self, request: Request):
        """The ``server.request`` root span (adopting ``traceparent``)."""
        if not self.obs.enabled:
            return NULL_SPAN
        header = request.headers.get("traceparent")
        if header:
            remote = parse_traceparent(header)
            if remote is not None:
                trace_id, parent_id, sampled = remote
                return self.obs.tracer.remote_span(
                    "server.request", trace_id, parent_id, sampled
                )
        return self.obs.span("server.request")

    async def handle(self, request: Request) -> Response:
        """Route one request inside one ``server.request`` span.

        Every path — success, API error, 429 rejection, 504 deadline —
        closes the span, so even a rejected or truncated request leaves
        a retrievable trace.  The span's attributes carry the request
        envelope (method, path, tenant, status, admission occupancy,
        per-endpoint extras like the parsed query), and the response
        advertises the trace via ``X-Repro-Trace`` + ``traceparent``.
        """
        started = time.perf_counter()
        with self._request_span(request) as span:
            trace: Dict[str, Any] = {}
            try:
                tenant, path = self._resolve_tenant(request)
                trace["tenant"] = tenant
                response = await self._route(request, tenant, path, trace)
            except Exception as exc:  # noqa: BLE001 - single error surface
                error = map_exception(exc)
                trace["error"] = error.code
                headers: List[Tuple[str, str]] = []
                if error.retry_after is not None:
                    headers.append(("Retry-After", str(error.retry_after)))
                response = Response.json(
                    error.to_json(), status=error.status, headers=headers
                )
            elapsed = time.perf_counter() - started
            trace["status"] = response.status
            if span.sampled:
                trace["admission"] = self.admission.depth()
                span.set(method=request.method, path=request.path, **trace)
        if self.obs.enabled:
            response.headers.append(("X-Repro-Trace", span.trace_id))
            response.headers.append(
                ("traceparent",
                 format_traceparent(span.trace_id, span.span_id,
                                    span.sampled)),
            )
            self.obs.inc("server.requests")
            self.obs.inc(f"server.responses_{response.status}")
            self.obs.observe("server.request_seconds", elapsed)
            self.window.record(response.status, elapsed)
        return response

    async def _route(
        self, request: Request, tenant: str, path: str, trace: Dict[str, Any]
    ) -> Response:
        if path in ("/healthz", "/livez"):
            return self._healthz(request)
        if path == "/v1/metrics":
            return self._metrics(request)
        segments = [s for s in path.split("/") if s]
        if len(segments) >= 2 and segments[0] == "v1":
            endpoint = segments[1]
            # Introspection endpoints answer outside the worker pool, so
            # they stay readable while the admission queue is saturated.
            if endpoint in ("traces", "slowlog") or (
                endpoint == "metrics" and segments[2:] == ["window"]
            ):
                if request.method != "GET":
                    raise ApiError(
                        405, "method-not-allowed",
                        f"{request.method} not supported on {path}",
                    )
                if endpoint == "traces":
                    return self._traces(request, segments[2:])
                if endpoint == "slowlog":
                    return self._slowlog(request, tenant)
                return self._metrics_window(request)
            if endpoint == "lineage" and request.method == "GET":
                return await self._lineage(request, tenant, segments[2:], trace)
            if endpoint == "lineage:batch" and request.method == "POST":
                return await self._lineage_batch(request, tenant, trace)
            if len(segments) == 2 and request.method == "GET":
                flat: Dict[str, Callable] = {
                    "lint": self._lint,
                    "check-query": self._check_query,
                    "stats": self._stats,
                    "cache-stats": self._cache_stats,
                }
                if endpoint in flat:
                    return await flat[endpoint](request, tenant)
            if endpoint in ("lineage", "lineage:batch", "lint", "check-query",
                            "stats", "cache-stats"):
                raise ApiError(
                    405, "method-not-allowed",
                    f"{request.method} not supported on {path}",
                )
        raise NotFound("unknown-endpoint", f"no endpoint at {path}")

    async def _admit(self, fn: Callable[[], Any]) -> Any:
        return await self.admission.run(fn)

    # -- liveness + metrics (never pooled) --------------------------------

    def _healthz(self, _request: Request) -> Response:
        return Response.json(
            {
                "status": "ok",
                "version": __version__,
                "uptime_seconds": round(time.time() - self._started_at, 3),
                "admission": self.admission.depth(),
                "tenants_open": len(self.registry.open_tenants()),
            }
        )

    def _metrics(self, _request: Request) -> Response:
        if not self.obs.enabled:
            return Response.text("# metrics disabled\n")
        return Response.text(
            to_prometheus(self.obs),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _metrics_window(self, request: Request) -> Response:
        try:
            seconds = parse_window(
                request.param("last"),
                default_seconds=60,
                max_seconds=int(self.window.span_seconds),
            )
        except ValueError as exc:
            raise BadRequest("bad-argument", str(exc)) from None
        report = self.window.report(seconds)
        report["enabled"] = self.obs.enabled
        return Response.json(report)

    def _traces(self, request: Request, segments: List[str]) -> Response:
        sink = self.obs.tracer.sink if self.obs.enabled else None
        if not segments or segments == ["recent"]:
            limit = _parse_int("limit", request.param("limit")) or 50
            traces = sink.recent_dicts(limit) if sink is not None else []
            return Response.json(
                {
                    "enabled": self.obs.enabled,
                    "count": len(traces),
                    "traces": traces,
                }
            )
        if len(segments) != 1:
            raise NotFound(
                "unknown-endpoint",
                "expected /v1/traces/recent or /v1/traces/{trace_id}",
            )
        trace_id = segments[0]
        root = sink.get(trace_id) if sink is not None else None
        if root is None:
            raise NotFound(
                "unknown-trace",
                f"no finished trace {trace_id!r} in the sink "
                "(it may have been evicted, sampled out, or tracing is off)",
            )
        return Response.json({"trace_id": trace_id, "root": root.to_dict()})

    def _slowlog(self, request: Request, tenant: str) -> Response:
        limit = _parse_int("limit", request.param("limit")) or 50
        service = self.registry.get(tenant)
        journal = getattr(service, "slowlog", None)
        if journal is None:
            return Response.json(
                {"enabled": False, "count": 0, "records": []}
            )
        records = journal.recent(limit)
        return Response.json(
            {
                "enabled": True,
                "threshold_ms": journal.threshold_ms,
                "recorded": journal.recorded,
                "count": len(records),
                "records": records,
            }
        )

    # -- lineage ----------------------------------------------------------

    def _lineage_options(
        self, request: Request
    ) -> Dict[str, Any]:
        """Shared query-parameter parsing for the lineage endpoints."""
        strategy = request.param("strategy", "indexproj")
        if strategy not in ("indexproj", "naive", "auto"):
            raise BadRequest(
                "bad-argument",
                f"unknown strategy {strategy!r} "
                "(want indexproj | naive | auto)",
            )
        precheck = _parse_bool("precheck", request.param("precheck"))
        return {
            "strategy": strategy,
            "cache": _parse_bool("cache", request.param("cache")),
            "precheck": True if precheck is None else precheck,
        }

    def _resolve_view(
        self, request: Request, tenant: str
    ) -> Tuple[Optional[UserView], Optional[List[str]]]:
        view_name = request.param("view")
        groups_text = request.param("groups")
        if view_name is None:
            if groups_text is not None:
                raise BadRequest(
                    "bad-argument", "parameter 'groups' requires 'view'"
                )
            return None, None
        view = self.registry.view(tenant, view_name)
        groups = (
            [g for g in groups_text.split(",") if g]
            if groups_text is not None
            else None
        )
        return view, groups

    def _parse_lineage_target(
        self, request: Request, segments: List[str]
    ) -> Tuple[Optional[List[str]], LineageQuery]:
        """(run scope, parsed query) from path segments + parameters."""
        if not segments:
            raise NotFound(
                "unknown-endpoint",
                "expected /v1/lineage/{run}/{node}/{port} or "
                "/v1/lineage/{run}?q=lin(...)",
            )
        run = segments[0]
        runs = None if run in ("-", "_all") else [run]
        q_text = request.param("q")
        if q_text is not None:
            if len(segments) > 1:
                raise BadRequest(
                    "conflicting-query",
                    "give the binding either in the path or via ?q=, not both",
                )
            return runs, parse_query(q_text)
        if len(segments) != 3:
            raise NotFound(
                "unknown-endpoint",
                "expected /v1/lineage/{run}/{node}/{port} "
                "(or pass ?q=lin(...))",
            )
        node, port = segments[1], segments[2]
        index_text = request.param("index", "") or ""
        try:
            index = Index.decode(index_text.strip())
        except ValueError as exc:
            raise BadRequest("bad-argument", str(exc)) from None
        focus_text = request.param("focus", "") or ""
        focus = [name for name in focus_text.split(",") if name]
        return runs, LineageQuery.create(node, port, index, focus)

    async def _lineage(
        self,
        request: Request,
        tenant: str,
        segments: List[str],
        trace: Dict[str, Any],
    ) -> Response:
        runs, query = self._parse_lineage_target(request, segments)
        options = self._lineage_options(request)
        view, groups = self._resolve_view(request, tenant)
        if view is not None:
            if query.focus:
                raise BadRequest(
                    "bad-argument",
                    "'view' expands to the focus set; do not also pass "
                    "'focus' (or a focused ?q=)",
                )
            group_names = (
                groups if groups is not None else list(view.group_names)
            )
            try:
                focus = focus_for_groups(view, group_names)
            except WorkflowError as exc:
                raise NotFound(
                    "unknown-group", str(exc),
                    {"known": list(view.group_names)},
                ) from None
            query = LineageQuery.create(
                query.node, query.port, query.index, focus
            )
        trace["query"] = str(query)

        def work() -> Dict[str, Any]:
            service = self.registry.get(tenant)
            result = service.lineage(
                query,
                runs=runs,
                strategy=options["strategy"],
                precheck=options["precheck"],
                cache=options["cache"],
            )
            return encode_result(result, view=view)

        payload = await self._admit(work)
        trace["sql_queries"] = payload["meta"]["sql_queries"]
        return Response.json(payload)

    async def _lineage_batch(
        self, request: Request, tenant: str, trace: Dict[str, Any]
    ) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequest(
                "bad-argument", "expected a JSON object request body"
            )
        raw_queries = body.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise BadRequest(
                "bad-argument", "'queries' must be a non-empty array"
            )
        if len(raw_queries) > MAX_BATCH_QUERIES:
            raise ApiError(
                413, "batch-too-large",
                f"at most {MAX_BATCH_QUERIES} queries per batch "
                f"(got {len(raw_queries)})",
            )
        queries: List[LineageQuery] = []
        for position, entry in enumerate(raw_queries):
            if isinstance(entry, str):
                queries.append(parse_query(entry))
            elif isinstance(entry, dict):
                try:
                    queries.append(
                        LineageQuery.create(
                            entry["node"],
                            entry["port"],
                            Index.decode(str(entry.get("index", ""))),
                            entry.get("focus", ()),
                        )
                    )
                except KeyError as exc:
                    raise BadRequest(
                        "bad-argument",
                        f"queries[{position}] is missing field {exc}",
                    ) from None
            else:
                raise BadRequest(
                    "bad-argument",
                    f"queries[{position}] must be a string or an object",
                )
        runs = body.get("runs")
        if runs is not None and (
            not isinstance(runs, list)
            or not all(isinstance(r, str) for r in runs)
        ):
            raise BadRequest("bad-argument", "'runs' must be an array of ids")
        strategy = body.get("strategy", "indexproj")
        if strategy not in ("indexproj", "naive", "auto"):
            raise BadRequest(
                "bad-argument", f"unknown strategy {strategy!r}"
            )
        cache = body.get("cache")
        precheck = body.get("precheck", True)
        max_workers = body.get("max_workers", 4)
        if not isinstance(max_workers, int) or max_workers < 1:
            raise BadRequest(
                "bad-argument", "'max_workers' must be a positive integer"
            )
        trace["queries"] = len(queries)

        def work() -> Dict[str, Any]:
            service = self.registry.get(tenant)
            results = service.lineage_many(
                queries,
                max_workers=max_workers,
                runs=runs,
                strategy=strategy,
                precheck=bool(precheck),
                cache=cache,
            )
            return {
                "count": len(results),
                "results": [encode_result(result) for result in results],
            }

        payload = await self._admit(work)
        return Response.json(payload)

    # -- analysis + introspection -----------------------------------------

    async def _lint(self, request: Request, tenant: str) -> Response:
        workflow = request.param("workflow")

        def work() -> Dict[str, Any]:
            service = self.registry.get(tenant)
            names = (
                [workflow] if workflow
                else service.registered_workflows()
            )
            findings: Dict[str, List[Dict[str, Any]]] = {}
            for name in names:
                flow = service.workflow(name)  # NotFound via WorkflowError
                findings[name] = [
                    {
                        "code": f.code,
                        "rule": f.rule,
                        "severity": f.severity,
                        "message": f.message,
                        "location": f.location,
                    }
                    for f in run_lint(flow)
                ]
            return {
                "findings": findings,
                "count": sum(len(v) for v in findings.values()),
            }

        return Response.json(await self._admit(work))

    async def _check_query(self, request: Request, tenant: str) -> Response:
        q_text = request.param("q")
        if q_text is None:
            raise BadRequest("bad-argument", "parameter 'q' is required")
        query = parse_query(q_text)
        runs = _parse_int("runs", request.param("runs"))

        def work() -> Dict[str, Any]:
            service = self.registry.get(tenant)
            plan = service.explain_plan(query, runs=runs)
            report = plan.report
            payload: Dict[str, Any] = {
                "query": str(query),
                "verdict": report.verdict,
                "issues": [
                    {
                        "kind": issue.kind,
                        "message": issue.message,
                        "suggestions": list(issue.suggestions),
                    }
                    for issue in report.issues
                ],
                "reasons": list(report.reasons),
                "chosen_strategy": plan.chosen_strategy,
                "cache_state": plan.cache_state,
                "plan_state": plan.plan_state,
                "round_trips": {
                    "unbatched": plan.unbatched_round_trips,
                    "batched": plan.batched_round_trips,
                    "chunk_size": plan.batch_chunk_size,
                },
                "summary": plan.summary(),
            }
            if plan.cost is not None:
                payload["cost"] = {
                    "indexproj_lookups": plan.cost.indexproj_lookups,
                    "naive_lookups": plan.cost.naive_lookups,
                    "recommendation": plan.cost.recommendation,
                }
            return payload

        return Response.json(await self._admit(work))

    async def _stats(self, _request: Request, tenant: str) -> Response:
        def work() -> Dict[str, Any]:
            service = self.registry.get(tenant)
            return {
                "store": service.statistics(),
                "registry": self.registry.stats(),
                "admission": self.admission.depth(),
            }

        return Response.json(await self._admit(work))

    async def _cache_stats(self, _request: Request, tenant: str) -> Response:
        def work() -> Dict[str, Any]:
            service = self.registry.get(tenant)
            return service.cache_stats()

        return Response.json(await self._admit(work))


def default_setup(*registrations) -> Callable[[ProvenanceService, str], None]:
    """Build a registry ``setup`` hook from (flow, registry) pairs.

    Every lazily opened tenant gets the same workflow definitions — the
    deployment shape of one API serving many per-tenant trace databases
    of the same pipelines.
    """

    def setup(service: ProvenanceService, _tenant: str) -> None:
        for flow, processor_registry in registrations:
            service.register_workflow(flow, processor_registry)

    return setup
