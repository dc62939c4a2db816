"""Outside-in span recorder for the traced benchmark run.

The program under test is not modified: :func:`install` replaces public
entry points of each layer with timing wrappers defined here and
:meth:`SpanRecorder.uninstall` puts the originals back.  A span records
its name, start, end, parent span and request id.  The benchmark opens
one root span per operation (:meth:`SpanRecorder.request`); every span
opened underneath it, on any thread, inherits the request id through a
context variable.  The server's admission controller copies the caller's
context into its worker thread, so pooled work nests under the request.
An HTTP request is tied to the client's root span by the
``X-Perfbench-Request`` header, read by the ``ServerApp.handle`` wrapper.

Spans opened outside any request (the correctness oracle, set-up) are
not recorded.  Spans are kept in memory and written out by
:meth:`SpanRecorder.dump` when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span id, request id)`` of the innermost open span on this context.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, int]]] = (
    contextvars.ContextVar("perfbench_span", default=None)
)

REQUEST_HEADER = "X-Perfbench-Request"

#: Layers whose self times add up to an operation's latency, in the
#: order a request crosses them from the outside in.  ``root`` is the
#: benchmark's own span around the call: its self time is the part of
#: the caller-observed latency that no layer span covers.
LAYERS = ("server", "service", "analysis", "query", "cache", "store", "engine")

Span = Tuple[int, Optional[int], int, str, float, float]


class SpanRecorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``(span id, parent id, request id, name, start, end)``.
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: Events (xforms + xfers) of every run the engine captured.
        self.captured_events: List[int] = []

    # -- spans --------------------------------------------------------------

    def _enter(
        self, link: Optional[Tuple[int, int]] = None
    ) -> Optional[Tuple[int, Optional[int], int, Any, float]]:
        parent = _CURRENT.get()
        if parent is None:
            parent = link
        if parent is None:
            return None
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, parent[1]))
        return span_id, parent[0], parent[1], token, time.perf_counter()

    def _exit(self, name: str, state: Any) -> None:
        if state is None:
            return
        end = time.perf_counter()
        span_id, parent_id, request_id, token, start = state
        _CURRENT.reset(token)
        self.spans.append((span_id, parent_id, request_id, name, start, end))

    @contextlib.contextmanager
    def request(self, name: str) -> Iterator[int]:
        """Root span of one benchmark operation; yields its request id."""
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, span_id))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, None, span_id, name, start, end))

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A wrapper recording one ``name`` span per call of synchronous ``fn``."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, state)

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def span(self, owner: Any, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start_us": round(start * 1e6, 1),
                    "end_us": round(end * 1e6, 1),
                }) + "\n")


#: Store read primitives timed as ``store.lookup``.
_STORE_LOOKUPS = (
    "find_xform_by_output", "xform_inputs", "find_xform_inputs_matching",
    "find_xform_by_input", "xform_outputs", "find_xfer_from",
    "find_xform_outputs_matching_pattern", "find_xform_inputs_matching_multi",
    "find_xfer_into", "find_xform_inputs_matching_many",
    "find_xform_inputs_matching_compiled", "find_xform_by_output_many",
    "xform_inputs_many", "find_xfer_into_many", "run_ids", "has_run",
)

#: Trace-cache entry points timed as ``cache.trace``.
_TRACE_CACHE_LOOKUPS = (
    "find_xform_inputs_matching", "find_xform_inputs_matching_multi",
    "find_xform_by_output", "xform_inputs", "find_xfer_into",
    "find_xform_inputs_matching_many", "find_xform_inputs_matching_compiled",
    "find_xform_by_output_many", "find_xfer_into_many", "xform_inputs_many",
)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer (see README.md)."""
    import repro.server.app as server_app
    import repro.service as service_mod
    from repro.cache.results import LineageResultCache
    from repro.cache.trace import TraceReadCache
    from repro.engine.executor import WorkflowRunner
    from repro.provenance.store import TraceStore
    from repro.query.compiled import PlanRegistry
    from repro.query.indexproj import IndexProjEngine
    from repro.server.admission import AdmissionController
    from repro.service import ProvenanceService

    rec = recorder
    rec.span(WorkflowRunner, "run", "engine.run")
    capture = rec.wrap(service_mod.capture_run, "engine.capture")

    def capture_run(*args: Any, **kwargs: Any) -> Any:
        captured = capture(*args, **kwargs)
        trace = captured.trace
        rec.captured_events.append(len(trace.xforms) + len(trace.xfers))
        return captured

    rec.patch(service_mod, "capture_run", capture_run)
    rec.span(TraceStore, "insert_trace", "store.insert")
    rec.span(TraceStore, "delete_run", "store.delete")
    for attr in _STORE_LOOKUPS:
        rec.span(TraceStore, attr, "store.lookup")
    for attr in _TRACE_CACHE_LOOKUPS:
        rec.span(TraceReadCache, attr, "cache.trace")
    rec.span(LineageResultCache, "get", "cache.result")
    rec.span(LineageResultCache, "put", "cache.result")
    for attr in ("lineage_multirun", "lineage_multirun_batched",
                 "lineage_multirun_compiled"):
        rec.span(IndexProjEngine, attr, "query.execute")
    rec.span(PlanRegistry, "get_or_compile", "query.plan")
    rec.span(server_app, "parse_query", "query.parse")
    rec.span(service_mod, "parse_query", "query.parse")
    rec.span(service_mod, "precheck_query", "analysis.precheck")
    rec.span(ProvenanceService, "run", "service.run")
    rec.span(ProvenanceService, "lineage", "service.lineage")
    rec.span(server_app, "encode_result", "server.encode")

    original_handle = server_app.ServerApp.handle

    async def handle(app: Any, request: Any) -> Any:
        # Joins the client's root span named by the request header.
        header = request.headers.get(REQUEST_HEADER.lower())
        link = (int(header), int(header)) if header else None
        state = rec._enter(link)
        try:
            return await original_handle(app, request)
        finally:
            rec._exit("server.handle", state)

    rec.patch(server_app.ServerApp, "handle", handle)
    original_run = AdmissionController.run

    async def admission_run(
        controller: Any, fn: Callable[[], Any],
        timeout: Optional[float] = None,
    ) -> Any:
        # Self time of this span is the queue wait; the pooled work runs
        # in a ``server.work`` child span on the worker thread.
        state = rec._enter()
        try:
            return await original_run(
                controller, rec.wrap(fn, "server.work"), timeout
            )
        finally:
            rec._exit("server.admission", state)

    rec.patch(AdmissionController, "run", admission_run)


# -- analysis ------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def request_trees(spans: List[Span]) -> Dict[int, List[Span]]:
    """Spans grouped by request id (only requests whose root closed)."""
    trees: Dict[int, List[Span]] = {}
    for span in spans:
        trees.setdefault(span[2], []).append(span)
    return {
        rid: tree for rid, tree in trees.items()
        if any(s[0] == rid for s in tree)
    }


def self_times(tree: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the time its child spans cover.

    Raises ``ValueError`` when a span's parent is missing from the tree
    or a child does not lie inside its parent: then self times would not
    add up to the root's duration.
    """
    by_id = {s[0]: s for s in tree}
    covered: Dict[int, float] = {s[0]: 0.0 for s in tree}
    slack = 1e-6
    for span_id, parent, _rid, name, start, end in tree:
        if parent is None:
            continue
        owner = by_id.get(parent)
        if owner is None:
            raise ValueError(f"span {name} #{span_id} has no parent in tree")
        if start < owner[4] - slack or end > owner[5] + slack:
            raise ValueError(
                f"span {name} #{span_id} is not nested in {owner[3]}"
            )
        covered[parent] += end - start
    return {s[0]: (s[5] - s[4]) - covered[s[0]] for s in tree}


def attribute(tree: List[Span]) -> Tuple[float, Dict[str, float]]:
    """(root duration, layer → self time) of one request tree."""
    selfs = self_times(tree)
    layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    layers["root"] = 0.0
    root_duration = 0.0
    for span_id, parent, _rid, name, start, end in tree:
        if parent is None:
            root_duration = end - start
            layers["root"] += selfs[span_id]
        else:
            layers[layer_of(name)] += selfs[span_id]
    for layer, value in layers.items():
        if value < -1e-5:
            raise ValueError(f"negative self time for layer {layer}")
    return root_duration, layers
