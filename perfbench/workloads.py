"""The benchmark's closed-loop workloads.

Each workload makes its inputs from the seed, sets the program up (timed
as ``setup_s``, repeated, median reported), warms it, and then drives
it for the requested number of seconds while checking every answer.
Between operations it times the reference task of ``calibration.py``,
whose factor scales every time the workload keeps.
Layers are measured from outside: calls into public functions are
timed, and public counters (``ProvenanceService.cache_stats``) are read
before and after the timed phase.  README.md says why each workload
exists and which layer it loads.

All synthetic runs of one store are executed on identical inputs, so a
lineage answer is the same for every run in scope.  The correctness
oracle therefore computes each reference once, untimed, with the naive
(NI) strategy on one run.  NI's traversal does not depend on the focus
set, which only filters the collected bindings
(``NaiveEngine._traverse``), so one unfocused NI traversal per target
index yields the reference of every focus set at that index.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import itertools
import json
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple,
)
from urllib.parse import quote, urlsplit

import tracing
from calibration import INTERVAL_S, Calibration
from tracing import REQUEST_HEADER, SpanRecorder

#: Chain length l of the Fig. 5 synthetic shape every service registers
#: (22 processors).  One shape per service: a service holding two
#: synthetic workflows that share processor names routes every query to
#: the first one registered (see README.md, "Findings").
CHAIN_LENGTH = 10

Key = Tuple[str, str, str]


@dataclass
class Phase:
    """What one timed phase measured.

    Times are kept twice: as measured on the wall clock, and scaled by
    the calibration factor of the moment (``calibration.py``); the
    end-to-end metrics use the scaled ones.
    """

    #: Latency of every successful primary operation, seconds.
    latencies: List[float] = field(default_factory=list)
    #: The same latencies, scaled.
    scaled: List[float] = field(default_factory=list)
    #: Latency of every write (http-mixed), seconds.
    writes: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Scaled seconds of the phase's throughput base (``ops_per_s``).
    busy: float = 0.0
    #: The same base in wall-clock seconds.
    wall: float = 0.0
    #: Work units of the phase: trace records (ingest) or answered
    #: lineage calls.
    records: int = 0
    sql_queries: int = 0
    rows: int = 0
    bindings: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, latency: float, factor: float, busy: bool) -> None:
        """Keep one answered operation; ``busy`` adds it to the base."""
        self.latencies.append(latency)
        self.scaled.append(latency * factor)
        if busy:
            self.wall += latency
            self.busy += latency * factor

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


@dataclass
class Outcome:
    """A workload run: set-up times, the timed phases, self-checks."""

    #: Set-up times, scaled and as measured, seconds.
    setup: List[float]
    setup_wall: List[float]
    phases: Dict[str, Phase]
    db_bytes: int
    db_records: int
    #: ``cache_stats()`` deltas per phase name.
    counters: Dict[str, Dict[str, float]]
    checks: Dict[str, Any]
    recorder: Optional[SpanRecorder] = None
    calibration: Optional[Calibration] = None


def percentile(values: List[float], q: float) -> float:
    """Inclusive percentile ``q`` in (0, 100) of ``values``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def db_size(path: str) -> int:
    """Bytes of a SQLite database and its write-ahead log."""
    total = 0
    for suffix in ("", "-wal"):
        if os.path.exists(path + suffix):
            total += os.path.getsize(path + suffix)
    return total


def remove_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def timed_setups(
    build: Callable[[str], Any], close: Callable[[Any], None],
    workdir: str, name: str, repeats: int, cal: Calibration,
) -> Tuple[List[float], List[float], Any, str]:
    """Run ``build`` ``repeats`` times on fresh databases.

    Returns every set-up time scaled by the mean calibration factor just
    before and just after it, the same times as measured, the last
    build's state and its database path; the earlier builds are closed
    and deleted.
    """
    scaled: List[float] = []
    times: List[float] = []
    state: Any = None
    path = ""
    for attempt in range(repeats):
        if state is not None:
            close(state)
            remove_db(path)
        path = os.path.join(workdir, f"{name}-{attempt}.db")
        remove_db(path)
        factor = cal.measure()
        started = time.perf_counter()
        state = build(path)
        times.append(time.perf_counter() - started)
        scaled.append(times[-1] * (factor + cal.measure()) / 2)
    return scaled, times, state, path


def cache_counters(service: Any) -> Dict[str, float]:
    stats = service.cache_stats()
    flat: Dict[str, float] = {}
    for level in ("result", "trace", "plans"):
        for name, value in stats.get(level, {}).items():
            flat[f"{level}.{name}"] = value
    return flat


def counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def synthetic_flow() -> Any:
    from repro.testbed.generator import chain_product_workflow

    return chain_product_workflow(CHAIN_LENGTH)


def reference_keys(
    db_path: str, run_id: str, node: str, port: str, indexes: List[Any],
) -> Dict[str, List[Key]]:
    """Unfocused NI answer keys on one run, per encoded target index.

    Uses its own store connection and no trace cache, so the oracle
    neither warms nor disturbs the caches under test.
    """
    from repro.provenance.store import TraceStore
    from repro.query.base import LineageQuery
    from repro.query.naive import NaiveEngine

    flow = synthetic_flow()
    everything = list(flow.processor_names)
    store = TraceStore(db_path)
    try:
        engine = NaiveEngine(store)
        refs: Dict[str, List[Key]] = {}
        for index in indexes:
            query = LineageQuery.create(node, port, index, everything)
            result = engine.lineage(run_id, query)
            refs[index.encode()] = [b.key() for b in result.bindings]
        return refs
    finally:
        store.close()


def expected_keys(
    refs: Dict[str, List[Key]], index: Any, focus: Any
) -> List[Key]:
    return [key for key in refs[index.encode()] if key[0] in focus]


def request_span(rec: Optional[SpanRecorder], name: str) -> ContextManager[int]:
    """Root span of one operation, or no span in an untraced phase."""
    return rec.request(name) if rec is not None else contextlib.nullcontext(0)


def run_phases(
    drive: Callable[[float, Optional[SpanRecorder]], Phase],
    seconds: float, recorder: Optional[SpanRecorder],
) -> Dict[str, Phase]:
    """One untraced phase, or an untraced and a traced half.

    With a recorder, the two halves give the tracing overhead; the layer
    wrappers are installed only around the second half.
    """
    if recorder is None:
        return {"timed": drive(seconds, None)}
    untraced = drive(seconds / 2, None)
    tracing.install(recorder)
    try:
        traced = drive(seconds / 2, recorder)
    finally:
        recorder.uninstall()
    return {"untraced": untraced, "traced": traced}


# -- ingest ----------------------------------------------------------------------

#: One block of the ingest mix, shuffled per block by the seed: Fig. 5
#: synthetic runs at these list sizes, genes2kegg and protein discovery.
#: The one d=16 run per block (3 %) is the largest, so p99 falls inside
#: a class of runs rather than on whichever run met a WAL checkpoint.
INGEST_SIZES = (2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 16)
INGEST_GK_PER_BLOCK = 8
INGEST_PD_PER_BLOCK = 3


def ingest_mix(rng: random.Random) -> Iterator[Tuple[str, Any]]:
    """Endless seeded stream of ``(kind, list size or None)``."""
    block: List[Tuple[str, Any]] = [("syn", d) for d in INGEST_SIZES]
    block += [("gk", None)] * INGEST_GK_PER_BLOCK
    block += [("pd", None)] * INGEST_PD_PER_BLOCK
    while True:
        rng.shuffle(block)
        yield from list(block)


def run_ingest(
    seed: int, seconds: float, workdir: str, trace: bool, setups: int,
) -> Outcome:
    from repro.provenance.capture import capture_run
    from repro.service import ProvenanceService
    from repro.testbed.workloads import (
        genes2kegg_workload,
        protein_discovery_workload,
    )

    cal = Calibration(workdir)
    gk = genes2kegg_workload()
    pd = protein_discovery_workload()
    syn = synthetic_flow()
    flows = {"syn": syn.name, "gk": gk.name, "pd": pd.name}

    def inputs_of(kind: str, size: Any) -> Dict[str, Any]:
        if kind == "syn":
            return {"ListSize": size}
        return dict(gk.inputs if kind == "gk" else pd.inputs)

    kinds = [("syn", d) for d in sorted(set(INGEST_SIZES))]
    kinds += [("gk", None), ("pd", None)]
    # Oracle: the records a stored run must hold, counted from a trace
    # captured without any store (io bindings plus transfers, as
    # ``TraceStore.record_count`` counts them).
    expected: Dict[Tuple[str, Any], int] = {}
    for kind, size in kinds:
        flow, registry = {
            "syn": (syn, None), "gk": (gk.flow, gk.registry),
            "pd": (pd.flow, pd.registry),
        }[kind]
        captured = capture_run(flow, inputs_of(kind, size), registry=registry)
        expected[(kind, size)] = len(captured.trace.xfers) + sum(
            len(event.inputs) + len(event.outputs)
            for event in captured.trace.xforms
        )

    def build(path: str) -> Any:
        # Registration plus one warm-up run per kind.
        service = ProvenanceService(path)
        service.register_workflow(syn)
        service.register_workflow(gk.flow, gk.registry)
        service.register_workflow(pd.flow, pd.registry)
        for kind, size in kinds:
            service.run(flows[kind], inputs_of(kind, size))
        return service

    setup, setup_wall, service, path = timed_setups(
        build, lambda service: service.close(), workdir, "ingest", setups, cal,
    )
    mix = ingest_mix(random.Random(f"{seed}-ingest"))
    recorder = SpanRecorder() if trace else None
    before = cache_counters(service)
    stored: List[Tuple[str, Tuple[str, Any]]] = []

    def drive(phase_seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        phase = Phase()
        started = time.perf_counter()
        while time.perf_counter() - started < phase_seconds:
            kind, size = next(mix)
            inputs = inputs_of(kind, size)
            factor = cal.tick()
            phase.attempted += 1
            op_started = time.perf_counter()
            try:
                with request_span(rec, "client.ingest"):
                    run_id = service.run(flows[kind], inputs)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                phase.fail(f"{kind}: {exc!r}")
                continue
            phase.record(time.perf_counter() - op_started, factor, busy=True)
            phase.records += expected[(kind, size)]
            stored.append((run_id, (kind, size)))
        return phase

    phases = run_phases(drive, seconds, recorder)
    counters = {"timed": counter_delta(before, cache_counters(service))}
    # Correctness: every stored run holds exactly the records of its kind.
    final = phases["traced" if trace else "timed"]
    for run_id, kind in stored:
        if service.store.record_count(run_id) != expected[kind]:
            final.fail(f"run {run_id} ({kind}) stored a wrong record count")
    lineage_calls = sum(
        counters["timed"].get(f"{level}.{name}", 0)
        for level in ("result", "plans") for name in ("hits", "misses")
    )
    checks = {"lineage_calls": lineage_calls}
    if lineage_calls:
        final.fail(f"ingest issued {lineage_calls} lineage cache probes")
    records = service.store.record_count()
    service.close()
    return Outcome(
        setup=setup, setup_wall=setup_wall, phases=phases,
        db_bytes=db_size(path), db_records=records, counters=counters,
        checks=checks, recorder=recorder, calibration=cal,
    )


# -- lineage-scan ----------------------------------------------------------------

SCAN_LIST_SIZE = 10
SCAN_RUNS = 60
#: Run-scope sizes of one query block; every block crosses them with
#: every focus size from one processor to half the graph.
SCAN_SCOPES = (1, 2, 4, 8, 15, 30, 45, 60)
SCAN_WARMUP_QUERIES = 88


def scan_queries(
    rng: random.Random, runs: List[str], seen: set,
) -> Iterator[Tuple[Any, List[str]]]:
    """Endless seeded stream of non-repeating ``(query, run scope)``."""
    from repro.query.base import LineageQuery
    from repro.testbed.generator import FINAL_PROCESSOR
    from repro.values.index import Index

    names = list(synthetic_flow().processor_names)
    combos = [
        (scope, focus)
        for scope in SCAN_SCOPES
        for focus in range(1, len(names) // 2 + 1)
    ]
    while True:
        rng.shuffle(combos)
        for scope_size, focus_size in combos:
            while True:
                index = Index.of(
                    [rng.randrange(SCAN_LIST_SIZE),
                     rng.randrange(SCAN_LIST_SIZE)]
                )
                focus = rng.sample(names, focus_size)
                scope = rng.sample(runs, scope_size)
                identity = (index.encode(), frozenset(focus), frozenset(scope))
                if identity not in seen:
                    seen.add(identity)
                    break
            yield LineageQuery.create(FINAL_PROCESSOR, "y", index, focus), scope


def check_result(result: Any, scope: List[str], keys: List[Key]) -> Optional[str]:
    """Why an in-process answer is wrong, or ``None`` when it is right."""
    answered = list(result.per_run)
    if sorted(answered) != sorted(scope):
        return f"answered runs {answered} for scope {scope}"
    for run_id, per_run in result.per_run.items():
        if [b.key() for b in per_run.bindings] != keys:
            return f"run {run_id}: bindings differ from the NI reference"
    return None


def run_lineage_scan(
    seed: int, seconds: float, workdir: str, trace: bool, setups: int,
) -> Outcome:
    from repro.service import ProvenanceService
    from repro.testbed.generator import FINAL_PROCESSOR
    from repro.values.index import Index

    cal = Calibration(workdir)
    flow = synthetic_flow()

    def build(path: str) -> Tuple[Any, List[str], set]:
        # Shipped defaults: result cache, trace cache and compiled plans
        # on.  The warm-up fills the caches and the plan registry from a
        # stream of its own, disjoint from the timed one.
        service = ProvenanceService(path)
        service.register_workflow(flow)
        runs = [
            service.run(flow.name, {"ListSize": SCAN_LIST_SIZE})
            for _ in range(SCAN_RUNS)
        ]
        seen: set = set()
        warmup = scan_queries(random.Random(f"{seed}-scan-warmup"), runs, seen)
        for _ in range(SCAN_WARMUP_QUERIES):
            query, scope = next(warmup)
            service.lineage(query, runs=scope)
        return service, runs, seen

    setup, setup_wall, (service, runs, seen), path = timed_setups(
        build, lambda state: state[0].close(), workdir, "scan", setups, cal,
    )
    refs = reference_keys(
        path, runs[0], FINAL_PROCESSOR, "y",
        [Index.of([i, j]) for i in range(SCAN_LIST_SIZE)
         for j in range(SCAN_LIST_SIZE)],
    )
    stream = scan_queries(random.Random(f"{seed}-scan"), runs, seen)
    recorder = SpanRecorder() if trace else None
    counters: Dict[str, Dict[str, float]] = {}

    def drive(phase_seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        phase = Phase()
        before = cache_counters(service)
        started = time.perf_counter()
        while time.perf_counter() - started < phase_seconds:
            query, scope = next(stream)
            factor = cal.tick()
            phase.attempted += 1
            op_started = time.perf_counter()
            try:
                with request_span(rec, "client.lineage"):
                    result = service.lineage(query, runs=scope)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                phase.fail(f"{query}: {exc!r}")
                continue
            latency = time.perf_counter() - op_started
            keys = expected_keys(refs, query.index, query.focus)
            problem = check_result(result, scope, keys)
            if problem is not None:
                phase.fail(f"{query}: {problem}")
                continue
            phase.record(latency, factor, busy=True)
            phase.records += 1
            stats = result.aggregate_stats()
            phase.sql_queries += stats.queries
            phase.rows += stats.rows
            phase.bindings += len(keys) * len(scope)
        counters["traced" if rec is not None else "timed"] = counter_delta(
            before, cache_counters(service)
        )
        return phase

    phases = run_phases(drive, seconds, recorder)
    delta = counters["traced" if trace else "timed"]
    final = phases["traced" if trace else "timed"]
    checks = {
        "trace_evictions": delta["trace.evictions"],
        "result_hits": delta["result.hits"],
    }
    # The stream never repeats a query, so any result-cache hit would be
    # a wrong answer key; and the working set must overflow the trace
    # cache, or s2 stops reaching the store.
    if delta["result.hits"] != 0:
        final.fail(f"{delta['result.hits']} result-cache hits on unique queries")
    if delta["trace.evictions"] <= 0:
        final.fail("the trace cache evicted nothing: working set too small")
    records = service.store.record_count()
    service.close()
    return Outcome(
        setup=setup, setup_wall=setup_wall, phases=phases,
        db_bytes=db_size(path), db_records=records, counters=counters,
        checks=checks, recorder=recorder, calibration=cal,
    )


# -- http-read and http-mixed ----------------------------------------------------

HTTP_LIST_SIZE = 6
HTTP_RUNS = 30
#: Runs stored first and never deleted: single-run shapes are scoped to
#: them, so a shape's answer stays valid across writes.
HTTP_PINNED = 8
HTTP_SHAPES = 64
HTTP_ZIPF_S = 1.0
#: Every WRITE_EVERY-th operation of connection 0 is a write (http-mixed).
HTTP_WRITE_EVERY = 40
HTTP_CLIENTS = 2
HTTP_MAX_WORKERS = 2
#: Full rotations of the unpinned runs written before http-mixed is
#: timed.  On every seed measured the database file levelled off after
#: two; set-up checks that the last rotation grew it by less than
#: HTTP_GROWTH_SETTLED, so it does a fixed amount of work.
HTTP_CHURN_ROUNDS = 2
HTTP_GROWTH_SETTLED = 0.01


@dataclass
class Shape:
    query: Any
    #: Pinned run id, or ``None`` for the whole store.
    run: Optional[str]
    target: str
    text: str


def http_shapes(rng: random.Random, pinned: List[str]) -> List[Shape]:
    """HTTP_SHAPES distinct shapes; the list position is the Zipf rank.

    Scope and focus size follow the rank, so every seed puts the same
    kind of query at the same popularity; the seed draws the target
    index, the focus members and the pinned run.
    """
    from repro.query.base import LineageQuery
    from repro.query.parser import format_query
    from repro.testbed.generator import FINAL_PROCESSOR
    from repro.values.index import Index

    names = list(synthetic_flow().processor_names)
    half = len(names) // 2
    shapes: List[Shape] = []
    seen: set = set()
    for rank in range(HTTP_SHAPES):
        whole_store = rank % 4 == 1
        focus_size = 1 + (rank * 5) % half
        while True:
            index = Index.of(
                [rng.randrange(HTTP_LIST_SIZE), rng.randrange(HTTP_LIST_SIZE)]
            )
            focus = rng.sample(names, focus_size)
            run = None if whole_store else rng.choice(pinned)
            identity = (index.encode(), frozenset(focus), run)
            if identity not in seen:
                seen.add(identity)
                break
        query = LineageQuery.create(FINAL_PROCESSOR, "y", index, focus)
        text = format_query(query)
        segment = quote(run if run is not None else "-", safe="")
        target = f"/v1/lineage/{segment}?q={quote(text, safe='')}"
        shapes.append(Shape(query=query, run=run, target=target, text=text))
    return shapes


def check_answer(
    payload: Dict[str, Any], shape: Shape, keys: List[Key],
    stored: Optional[List[str]],
) -> Optional[str]:
    """Why an HTTP answer is wrong, or ``None`` when it is right.

    ``stored`` is the store's run list when no write can change it;
    ``None`` while writes run, when a whole-store answer may hold one
    run more (a write in flight ingested before it deleted).
    """
    answer = payload["answer"]
    if answer["query"] != shape.text:
        return f"answered {answer['query']}"
    runs = answer["runs"]
    if shape.run is not None:
        if runs != [shape.run]:
            return f"answered runs {runs}"
    elif stored is not None:
        if sorted(runs) != sorted(stored):
            return f"answered {len(runs)} runs, {len(stored)} stored"
    elif not HTTP_RUNS <= len(runs) <= HTTP_RUNS + 1:
        return f"{len(runs)} runs answered"
    for run_id in runs:
        got = [(b["node"], b["port"], b["index"])
               for b in answer["bindings"][run_id]]
        if got != keys:
            return (
                f"run {run_id}: {len(got)} bindings, the NI reference has "
                f"{len(keys)}"
            )
    return None


class Served:
    """Server, service and churn state of one http-read/-mixed set-up."""

    def __init__(self, path: str, churn: bool) -> None:
        from repro.server import ServerConfig, ServerThread, TenantRegistry
        from repro.service import ProvenanceService

        self.path = path
        self.flow = synthetic_flow()
        self.shapes: List[Shape] = []
        # Shipped serving defaults (as ``repro-prov serve --db``): the
        # service shares the server's enabled tracing handle.
        config = ServerConfig(max_workers=HTTP_MAX_WORKERS)
        self.service = ProvenanceService(path, obs=config.obs)
        self.service.register_workflow(self.flow)
        self.runs = [self.ingest() for _ in range(HTTP_RUNS)]
        self.pinned = self.runs[:HTTP_PINNED]
        registry = TenantRegistry(obs=config.obs)
        registry.register_service("default", self.service)
        self.server = ServerThread(config=config, registry=registry)
        split = urlsplit(self.server.start())
        self.host, self.port = split.hostname, split.port
        self.churn_growth = self.settle() if churn else 0.0

    def ingest(self) -> str:
        return self.service.run(self.flow.name, {"ListSize": HTTP_LIST_SIZE})

    def write(self) -> None:
        """Ingest one run, then delete the oldest unpinned run."""
        self.runs.append(self.ingest())
        oldest = self.runs.pop(HTTP_PINNED)
        self.service.store.delete_run(oldest)

    def settle(self) -> float:
        """Churn HTTP_CHURN_ROUNDS rotations; the last one's file growth."""
        size = db_size(self.path)
        for _ in range(HTTP_CHURN_ROUNDS):
            before = size
            for _ in range(HTTP_RUNS - HTTP_PINNED):
                self.write()
            size = db_size(self.path)
        return size / before - 1.0

    def close(self) -> None:
        self.server.stop()
        self.service.close()


def zipf_sequence(rng: random.Random, length: int) -> List[int]:
    """Shape ranks drawn with Zipf weights."""
    ranks = list(range(HTTP_SHAPES))
    weights = [1.0 / (rank + 1) ** HTTP_ZIPF_S for rank in ranks]
    return rng.choices(ranks, weights=weights, k=length)


def run_http(
    seed: int, seconds: float, workdir: str, trace: bool, setups: int,
    writes: bool,
) -> Outcome:
    """http-read (``writes=False``) or http-mixed (``writes=True``)."""
    from repro.testbed.generator import FINAL_PROCESSOR

    cal = Calibration(workdir)

    def build(path: str) -> Served:
        state = Served(path, churn=writes)
        # Warm-up: every shape once, then a Zipf stream of its own, so
        # plans are compiled and hot shapes sit in the result cache.
        state.shapes = http_shapes(
            random.Random(f"{seed}-http-shapes"), state.pinned
        )
        warm = zipf_sequence(random.Random(f"{seed}-http-warmup"), 256)
        conn = http.client.HTTPConnection(state.host, state.port, timeout=60)
        try:
            for rank in itertools.chain(range(HTTP_SHAPES), warm):
                conn.request("GET", state.shapes[rank].target)
                response = conn.getresponse()
                response.read()
                if response.status != 200:
                    raise RuntimeError(
                        f"warm-up request got HTTP {response.status}"
                    )
        finally:
            conn.close()
        return state

    setup, setup_wall, state, path = timed_setups(
        build, Served.close, workdir, "http", setups, cal,
    )
    shapes: List[Shape] = state.shapes
    refs = reference_keys(
        path, state.pinned[0], FINAL_PROCESSOR, "y",
        [shape.query.index for shape in shapes],
    )
    expected = [expected_keys(refs, s.query.index, s.query.focus) for s in shapes]
    stored_runs = None if writes else list(state.runs)
    # Both connections draw from every shape, whole-store ones included.
    sequences = [
        zipf_sequence(random.Random(f"{seed}-http-client{c}"), 200_000)
        for c in range(HTTP_CLIENTS)
    ]
    positions = [0] * HTTP_CLIENTS
    ops = [0] * HTTP_CLIENTS
    recorder = SpanRecorder() if trace else None
    counters: Dict[str, Dict[str, float]] = {}

    def client(
        number: int, conn: http.client.HTTPConnection, deadline: float,
        factor: float, phase: Phase, lock: threading.Lock,
        rec: Optional[SpanRecorder],
    ) -> None:
        sequence = sequences[number]
        while time.perf_counter() < deadline:
            ops[number] += 1
            if writes and number == 0 and ops[number] % HTTP_WRITE_EVERY == 0:
                started = time.perf_counter()
                try:
                    with request_span(rec, "client.write"):
                        state.write()
                except Exception as exc:  # noqa: BLE001 - counted
                    with lock:
                        phase.attempted += 1
                        phase.fail(f"write: {exc!r}")
                    continue
                latency = time.perf_counter() - started
                with lock:
                    phase.attempted += 1
                    phase.writes.append(latency)
                continue
            rank = sequence[positions[number] % len(sequence)]
            positions[number] += 1
            shape = shapes[rank]
            try:
                with request_span(rec, "client.lineage") as request_id:
                    headers = (
                        {REQUEST_HEADER: str(request_id)}
                        if rec is not None else {}
                    )
                    started = time.perf_counter()
                    conn.request("GET", shape.target, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                    latency = time.perf_counter() - started
                problem = None
                if response.status != 200:
                    problem = f"HTTP {response.status}: {body[:200]!r}"
                else:
                    payload = json.loads(body)
                    problem = check_answer(
                        payload, shape, expected[rank], stored_runs
                    )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                conn.close()
                problem = repr(exc)
            with lock:
                phase.attempted += 1
                if problem is not None:
                    phase.fail(f"{shape.text} @ {shape.run}: {problem}")
                    continue
                phase.record(latency, factor, busy=False)
                phase.records += 1
                meta = payload["meta"]
                phase.sql_queries += meta["sql_queries"]
                phase.rows += meta["rows"]
                phase.bindings += len(expected[rank]) * len(
                    payload["answer"]["runs"]
                )

    def drive(phase_seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        """Segments of INTERVAL_S with both clients running.

        The calibration runs between segments, while the server is idle;
        the throughput base is the segments' wall time.
        """
        phase = Phase()
        lock = threading.Lock()
        conns = [
            http.client.HTTPConnection(state.host, state.port, timeout=60)
            for _ in range(HTTP_CLIENTS)
        ]
        before = cache_counters(state.service)
        deadline = time.perf_counter() + phase_seconds
        try:
            while time.perf_counter() < deadline:
                factor = cal.measure()
                started = time.perf_counter()
                end = min(deadline, started + INTERVAL_S)
                threads = [
                    threading.Thread(
                        target=client,
                        args=(n, conns[n], end, factor, phase, lock, rec),
                        name=f"perfbench-client{n}",
                    )
                    for n in range(HTTP_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=INTERVAL_S + 120)
                    if thread.is_alive():
                        raise RuntimeError(f"{thread.name} did not finish")
                wall = time.perf_counter() - started
                phase.wall += wall
                phase.busy += wall * factor
        finally:
            for conn in conns:
                conn.close()
        counters["traced" if rec is not None else "timed"] = counter_delta(
            before, cache_counters(state.service)
        )
        return phase

    phases = run_phases(drive, seconds, recorder)
    delta = counters["traced" if trace else "timed"]
    final = phases["traced" if trace else "timed"]
    lookups = delta["result.hits"] + delta["result.misses"]
    hit_ratio = delta["result.hits"] / lookups if lookups else 0.0
    stored = len(state.service.runs_of(state.flow.name))
    checks: Dict[str, Any] = {
        "result_hit_ratio": round(hit_ratio, 4),
        "runs_stored": stored,
    }
    # Hot shapes must stay in the result cache and the run count must
    # stay fixed, or the workload stops loading what it claims.
    if hit_ratio < 0.5:
        final.fail(f"result-cache hit ratio {hit_ratio:.2f} below 0.5")
    if stored != HTTP_RUNS:
        final.fail(f"{stored} runs stored, want {HTTP_RUNS}")
    if writes:
        checks["churn_growth"] = round(state.churn_growth, 4)
        checks["writes"] = len(final.writes)
        if state.churn_growth >= HTTP_GROWTH_SETTLED:
            final.fail(
                f"database grew {state.churn_growth:.1%} in the last "
                "churn rotation: not levelled off"
            )
        if not final.writes:
            final.fail("no write completed")
    records = state.service.store.record_count()
    state.close()
    return Outcome(
        setup=setup, setup_wall=setup_wall, phases=phases,
        db_bytes=db_size(path), db_records=records, counters=counters,
        checks=checks, recorder=recorder, calibration=cal,
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "ingest": run_ingest,
    "lineage-scan": run_lineage_scan,
    "http-read": functools.partial(run_http, writes=False),
    "http-mixed": functools.partial(run_http, writes=True),
}
