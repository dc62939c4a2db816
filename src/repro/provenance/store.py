"""Relational trace store on SQLite.

The paper implements traces "based on a standard RDBMS, with no need for
auxiliary data structures" (Section 5) — MySQL 5.1 in their setup.  This
module is the SQLite equivalent, with the same relational shape:

``runs``
    one row per workflow execution (``run_id`` is the multi-run scope key
    of Section 3.4);
``xform_event`` / ``xform_io``
    relation (1): one event row per processor instance plus one io row per
    input/output binding, carrying the port, the encoded index path and the
    value payload;
``xfer``
    relation (2): one row per element transferred along an arc.

Every lookup path used by the two query strategies is covered by a
composite index, which is what makes the paper's Fig. 6 observation hold
("all of the queries on the traces involve the use of indexes, with none
requiring full table scans").

Concurrency contract
--------------------

A store is safe to share between threads: many readers, one writer at a
time.

* **File-backed stores** run in WAL mode and hand each thread its own
  connection from a thread-local pool, so readers execute genuinely in
  parallel (SQLite releases the GIL inside ``sqlite3_step``) and never
  block behind a writer.  WAL snapshot isolation plus the single
  transaction per :meth:`insert_trace` guarantee a run is either fully
  visible or not visible at all — readers can never observe a partial run.
* **In-memory stores** cannot share one database across connections, so a
  single ``check_same_thread=False`` connection is serialized behind one
  lock (readers included).  Same all-or-nothing guarantee, no read
  parallelism.

All writes go through a single writer lock and a retry loop: transient
``SQLITE_BUSY``/``SQLITE_LOCKED`` errors are retried with exponential
backoff under a configurable :class:`RetryPolicy`; once the budget is
exhausted a :class:`StoreBusyError` is raised.  A
:class:`~repro.provenance.faults.FaultInjector` can be supplied to
deterministically inject busy storms, slow I/O and mid-transaction
crashes — the test suite uses it to prove the recovery paths.

Index matching
--------------

Lineage lookups must relate a *query index* ``p`` to the *recorded* indices
of trace rows, which can be coarser (the processor consumed/produced a
bigger chunk) or finer (the processor iterated inside the chunk named by
``p``).  All lookups therefore match rows whose index is equal to ``p``, a
prefix of ``p``, or an extension of ``p``:

* equal/prefix rows resolve with an ``idx IN (...)`` over the ``|p|+1``
  prefixes of ``p`` — constant-size, fully indexed;
* extension rows resolve with ``idx LIKE 'p.%'``, sargable on the same
  index because the pattern has a fixed prefix.

:class:`StoreStats` counts SQL round-trips and fetched rows so benchmarks
can report machine-independent access costs next to wall-clock times.

Set-based (batched) lookups
---------------------------

Each lookup primitive has a ``*_many`` sibling that answers a whole set
of ``(run_id, processor, port, index)`` keys in one SQL statement: the
keys become rows of an inline ``VALUES`` table joined against the trace
relation, so SQLite runs one indexed seek per key *inside* a single
round-trip instead of one round-trip per key.  The index-matching rule
above is preserved exactly — equal/prefix rows join on equality against
the enumerated prefixes of each key, extension rows on the sargable
range ``(p + '.', p + '/')`` (``'/'`` is the successor of ``'.'``; index
encodings contain only digits and dots, so the range is precisely the
``idx LIKE 'p.%'`` set).

Key sets larger than the chunk size (default
:data:`DEFAULT_BATCH_CHUNK`) are split across
several statements, and a statement is flushed early when the next key
would exceed the conservative bound-variable budget — so round-trips
for ``k`` keys are ``ceil(k / chunk)``, never ``k``.  Batched traffic is
accounted separately (``StoreStats.batch_lookups`` / ``batch_keys`` and
the ``store.batch_*`` observability instruments) next to the ordinary
round-trip counters.

Write generations
-----------------

Every store keeps an in-process, monotonic **write generation** per run
plus one **global generation** and one **membership generation**:

* the per-run generation is bumped whenever that run's rows change
  (``insert_trace``, ``delete_run``);
* the global generation is bumped by store-wide maintenance that cannot
  be attributed to a single run (``vacuum``, ``gc_value_pool``, index
  drops/rebuilds) — conservative invalidation for anything that might
  change what reads observe;
* the membership generation is bumped whenever the *set* of stored runs
  changes (ingest or delete), so run-list lookups can be memoized.

The generation vector of a run set (:meth:`TraceStore.generation_vector`)
is the coherence token of :mod:`repro.cache`: a cache entry captured
under one vector is valid iff the current vector still compares equal.
Generations live in memory (no SQL round-trip to read them — that is the
point: warm cache hits must cost zero store reads), so they describe
writes made *through this store object*.  All threads of a process share
one :class:`TraceStore` under the documented concurrency contract, which
makes the in-memory view complete; out-of-process writers are outside
the contract and outside the cache's coherence guarantee.

Interested layers may register an invalidation listener
(:meth:`TraceStore.add_invalidation_listener`); it is called with the
bumped run id, or ``None`` for a global bump, after every generation
change.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine.events import Binding, XferEvent, XformEvent
from repro.obs.core import NO_OBS, Observability
from repro.provenance.faults import NO_FAULTS, FaultInjector
from repro.provenance.trace import Trace
from repro.values.index import Index
from repro.values.pattern import IndexPattern
from repro.workflow.model import PortRef

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        TEXT PRIMARY KEY,
    workflow      TEXT NOT NULL,
    created_at    TEXT NOT NULL DEFAULT (datetime('now'))
);

CREATE TABLE IF NOT EXISTS xform_event (
    event_id      INTEGER PRIMARY KEY,
    run_id        TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    processor     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS ix_xform_event_proc
    ON xform_event(run_id, processor);

CREATE TABLE IF NOT EXISTS xform_io (
    event_id      INTEGER NOT NULL REFERENCES xform_event(event_id)
                  ON DELETE CASCADE,
    run_id        TEXT NOT NULL,
    processor     TEXT NOT NULL,
    role          TEXT NOT NULL CHECK (role IN ('in', 'out')),
    port          TEXT NOT NULL,
    idx           TEXT NOT NULL,
    value_json    TEXT,
    value_id      INTEGER REFERENCES value_pool(value_id)
);
CREATE INDEX IF NOT EXISTS ix_xform_io_lookup
    ON xform_io(run_id, processor, port, role, idx);
-- Role-free covering prefix for the batched VALUES-joins: keeps the
-- per-key seeks of a multi-key statement index-driven even when the
-- optimizer declines the role column.
CREATE INDEX IF NOT EXISTS ix_xform_io_batch
    ON xform_io(run_id, processor, port, idx);
CREATE INDEX IF NOT EXISTS ix_xform_io_event
    ON xform_io(event_id, role);

CREATE TABLE IF NOT EXISTS xfer (
    run_id        TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    src_node      TEXT NOT NULL,
    src_port      TEXT NOT NULL,
    src_idx       TEXT NOT NULL,
    dst_node      TEXT NOT NULL,
    dst_port      TEXT NOT NULL,
    dst_idx       TEXT NOT NULL,
    value_json    TEXT,
    value_id      INTEGER REFERENCES value_pool(value_id)
);
CREATE INDEX IF NOT EXISTS ix_xfer_dst
    ON xfer(run_id, dst_node, dst_port, dst_idx);
CREATE INDEX IF NOT EXISTS ix_xfer_src
    ON xfer(run_id, src_node, src_port, src_idx);

-- Deduplicated payload storage (used when intern_values is enabled):
-- identical values across rows and runs share one pool entry.
CREATE TABLE IF NOT EXISTS value_pool (
    value_id      INTEGER PRIMARY KEY,
    digest        TEXT NOT NULL UNIQUE,
    value_json    TEXT NOT NULL
);
"""


class StoreBusyError(RuntimeError):
    """A write could not acquire the database within the retry budget."""

    def __init__(self, attempts: int, cause: Optional[BaseException] = None):
        super().__init__(
            f"store stayed busy through {attempts} write attempts"
        )
        self.attempts = attempts
        self.__cause__ = cause


class DuplicateRunError(sqlite3.IntegrityError):
    """A trace with an already-stored ``run_id`` was inserted.

    Subclasses ``sqlite3.IntegrityError`` so callers that guarded against
    the raw constraint violation keep working, but carries an actionable
    message and the offending ``run_id``.
    """

    def __init__(self, run_id: str):
        super().__init__(
            f"run {run_id!r} is already stored; run ids are primary keys "
            "— delete the existing run first or pick a fresh id"
        )
        self.run_id = run_id


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule for busy writes (deterministic)."""

    max_attempts: int = 6
    base_delay: float = 0.002
    multiplier: float = 2.0
    max_delay: float = 0.25

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        return min(self.base_delay * (self.multiplier ** attempt), self.max_delay)


def _is_busy_error(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message


#: Default number of lookup keys folded into one batched SQL statement.
DEFAULT_BATCH_CHUNK = 32

#: Conservative per-statement bound-variable budget.  SQLite builds since
#: 3.32 allow 32766 host parameters, but the historical default
#: (``SQLITE_MAX_VARIABLE_NUMBER = 999``) is still deployed; staying under
#: it keeps batched statements portable.  A chunk is flushed early when
#: the next key would push the statement over this budget, so a large
#: ``chunk_size`` degrades gracefully instead of erroring.
_MAX_BOUND_VARS = 900


#: Run id of the reference rows :mod:`repro.analysis.planlint` seeds into
#: a throwaway store so whole-run primitives (``load_trace``) can emit all
#: of their statements during plan enumeration.  Never used by real data.
PLAN_REFERENCE_RUN = "__planlint__"


@dataclass(frozen=True)
class BindShape:
    """One representative invocation of a SQL primitive.

    ``call`` invokes the primitive on a store with fixed example
    arguments; the plan analyzer captures every SQL statement the call
    issues and runs ``EXPLAIN QUERY PLAN`` over it.  Shapes exist because
    a primitive's SQL varies with its bind shape (prefix-enumeration
    length, chunked ``VALUES`` rows, optional filters) — each registered
    shape pins down one such variant.
    """

    label: str
    call: Callable[["TraceStore"], Any]


@dataclass(frozen=True)
class SqlPrimitive:
    """Catalog entry of one registered store primitive.

    ``hot`` marks primitives on the per-query lookup path (the plan lint
    holds them to seek-only discipline); ``scan_ok`` declares that a full
    relation scan is the primitive's *intent* (whole-table enumeration
    like :meth:`TraceStore.run_ids`); ``sort_ok`` declares an intentional
    ``ORDER BY`` (event-order reconstruction in
    :meth:`TraceStore.load_trace`).  The declarations are part of the
    reviewable contract: a hot primitive can never be excused into a
    scan without editing this catalog.
    """

    name: str
    description: str
    shapes: Tuple[BindShape, ...]
    hot: bool = False
    scan_ok: bool = False
    sort_ok: bool = False


#: Name -> catalog entry for every registered SQL read primitive.
SQL_PRIMITIVES: Dict[str, SqlPrimitive] = {}


def register_sql_primitive(
    name: str,
    description: str,
    shapes: Sequence[BindShape],
    hot: bool = False,
    scan_ok: bool = False,
    sort_ok: bool = False,
) -> SqlPrimitive:
    """Register a primitive that is not a plain ``TraceStore`` method."""
    if name in SQL_PRIMITIVES:
        raise ValueError(f"duplicate SQL primitive {name!r}")
    entry = SqlPrimitive(
        name=name,
        description=description,
        shapes=tuple(shapes),
        hot=hot,
        scan_ok=scan_ok,
        sort_ok=sort_ok,
    )
    SQL_PRIMITIVES[name] = entry
    return entry


def sql_primitive(
    *shapes: BindShape,
    hot: bool = False,
    scan_ok: bool = False,
    sort_ok: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a ``TraceStore`` method in the SQL primitive catalog.

    Purely declarative — the method is returned unchanged (zero runtime
    overhead); the registration feeds :mod:`repro.analysis.planlint`,
    which enumerates every catalog shape against the canonical schema and
    classifies the access path of each statement.
    """

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        description = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        register_sql_primitive(
            fn.__name__,
            description,
            shapes,
            hot=hot,
            scan_ok=scan_ok,
            sort_ok=sort_ok,
        )
        return fn

    return register


class StoreStats:
    """Mutable, thread-safe counters of store access during a query.

    One instance may be shared by many worker threads (the batched and
    parallel multi-run paths do exactly that), so every mutation happens
    under an internal lock.  Reads of the individual counters are plain
    attribute loads — ints are replaced atomically, so a concurrent reader
    sees a consistent (if instantaneous) value.

    Beyond the original SQL round-trip/row counters, a stats object now
    also records the robustness events its query survived (transient busy
    retries and fault-injector firings; see
    :mod:`repro.provenance.faults`) and the set-based traffic of the
    batched read path: ``batch_lookups`` statements answered
    ``batch_keys`` lookup keys under the last-used ``batch_chunk_size``
    (0 until a batched lookup runs).  Every batched statement also counts
    as one ordinary round-trip in ``queries``, so batched-vs-unbatched
    savings compare directly on the same counter.
    """

    __slots__ = (
        "queries", "rows", "busy_retries", "fault_injections",
        "batch_lookups", "batch_keys", "batch_chunk_size", "_lock",
    )

    def __init__(
        self,
        queries: int = 0,
        rows: int = 0,
        busy_retries: int = 0,
        fault_injections: int = 0,
        batch_lookups: int = 0,
        batch_keys: int = 0,
        batch_chunk_size: int = 0,
    ) -> None:
        self.queries = queries
        self.rows = rows
        self.busy_retries = busy_retries
        self.fault_injections = fault_injections
        self.batch_lookups = batch_lookups
        self.batch_keys = batch_keys
        self.batch_chunk_size = batch_chunk_size
        self._lock = threading.Lock()

    def record(self, fetched: int) -> None:
        """Count one SQL round-trip that fetched ``fetched`` rows."""
        with self._lock:
            self.queries += 1
            self.rows += fetched

    def record_batch(self, keys: int, chunk_size: int) -> None:
        """Count one batched statement answering ``keys`` lookup keys."""
        with self._lock:
            self.batch_lookups += 1
            self.batch_keys += keys
            self.batch_chunk_size = chunk_size

    def record_retry(self, injected: bool = False) -> None:
        """Count one transient busy retry (``injected`` when fault-made)."""
        with self._lock:
            self.busy_retries += 1
            if injected:
                self.fault_injections += 1

    def merge(self, other: "StoreStats") -> None:
        """Fold another stats object into this one (thread-safe)."""
        with self._lock:
            self.queries += other.queries
            self.rows += other.rows
            self.busy_retries += other.busy_retries
            self.fault_injections += other.fault_injections
            self.batch_lookups += other.batch_lookups
            self.batch_keys += other.batch_keys
            if other.batch_chunk_size:
                self.batch_chunk_size = other.batch_chunk_size

    def reset(self) -> None:
        with self._lock:
            self.queries = 0
            self.rows = 0
            self.busy_retries = 0
            self.fault_injections = 0
            self.batch_lookups = 0
            self.batch_keys = 0
            self.batch_chunk_size = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "rows": self.rows,
            "busy_retries": self.busy_retries,
            "fault_injections": self.fault_injections,
            "batch_lookups": self.batch_lookups,
            "batch_keys": self.batch_keys,
            "batch_chunk_size": self.batch_chunk_size,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoreStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return (
            f"StoreStats(queries={self.queries}, rows={self.rows}, "
            f"busy_retries={self.busy_retries}, "
            f"fault_injections={self.fault_injections}, "
            f"batch_lookups={self.batch_lookups}, "
            f"batch_keys={self.batch_keys})"
        )


@dataclass(frozen=True)
class XformMatch:
    """One *xform* event matched by an output-index lookup."""

    event_id: int
    output_index: Index


def _encode_value(value: Any) -> str:
    return json.dumps(value, default=repr, separators=(",", ":"))


def _decode_value(text: Optional[str]) -> Any:
    if text is None:
        return None
    return json.loads(text)


def _prefixes(encoded: str) -> List[str]:
    """``p`` itself and every proper prefix, including the empty index."""
    if encoded == "":
        return [""]
    parts = encoded.split(".")
    return [""] + [".".join(parts[: i + 1]) for i in range(len(parts))]


def _extension_range(encoded: str) -> Tuple[str, str]:
    """Half-open string range covering the strict extensions of ``p``.

    Index encodings contain only digits and dots, so the extensions of a
    non-empty ``p`` (the ``idx LIKE 'p.%'`` set) are exactly the strings
    in ``(p + '.', p + '/')`` — ``'/'`` is the character after ``'.'``,
    and every digit sorts above it.  For the empty index the extensions
    are all non-empty encodings: ``('', ':')`` (``':'`` follows ``'9'``).
    Both bounds are exclusive/exclusive under ``idx > lo AND idx < hi``.
    """
    if encoded:
        return encoded + ".", encoded + "/"
    return "", ":"


#: One batched lookup key: ``(run_id, node, port, index)``.
BatchKey = Tuple[str, str, str, Index]

#: Identity of a batched key in result mappings: the same tuple with the
#: index encoded, so callers can build it without holding Index objects.
BatchKeyId = Tuple[str, str, str, str]


def batch_key_id(key: BatchKey) -> BatchKeyId:
    """The result-dict key for one lookup key."""
    run_id, node, port, index = key
    return (run_id, node, port, index.encode())


# -- representative bind shapes for the SQL primitive catalog ---------------
#
# Names deliberately miss the PLAN_REFERENCE_RUN rows: plan shape is
# data-independent, and a miss exercises *every* statement of primitives
# with early-return fast paths (``has_binding``).

#: An element-level query index (two positions -> three prefixes).
_EX_ELEMENT = Index.of((0, 1))
#: The whole-value index (empty path -> the ``LIKE '_%'`` branch).
_EX_ROOT = Index.of(())


def _ex_batch_keys(count: int = 6) -> List[BatchKey]:
    """Mixed-depth lookup keys across two runs (the VALUES-join grid)."""
    return [
        (
            "R1" if i % 2 == 0 else "R2",
            "P",
            "x",
            Index.of(tuple(range(i % 3 + 1))),
        )
        for i in range(count)
    ]


# -- compiled lookups (repro.query.compiled) --------------------------------
#
# A compiled trace query carries every run-independent constant of the
# single-key matching rule, derived once at plan-compile time instead of
# once per execution: the encoded fragment, its enumerated prefixes, the
# LIKE pattern of the single-key statement, the (low, high) extension
# range of the batched statement, and the bound-variable cost the
# chunker charges for the key.  The run id is the only late-bound value.

#: ``(node, port, encoded, prefixes, like, ext_low, ext_high, cost)``.
CompiledLookup = Tuple[str, str, str, Tuple[str, ...], str, str, str, int]

#: One compiled grid key: a run id paired with a compiled lookup.
CompiledPair = Tuple[str, CompiledLookup]


def compile_lookup(node: str, port: str, index: Index) -> CompiledLookup:
    """Fold one trace query's matching-rule constants into a tuple."""
    encoded = index.encode()
    prefixes = tuple(_prefixes(encoded))
    like = f"{encoded}.%" if encoded else "_%"
    low, high = _extension_range(encoded)
    # Each prefix costs one 5-column VALUES row; the extension range one
    # 6-column row — the same charge _batch_chunks levies per key.
    return (node, port, encoded, prefixes, like, low, high,
            5 * len(prefixes) + 6)


def compiled_pair_id(pair: CompiledPair) -> BatchKeyId:
    """The result-dict key for one compiled grid key."""
    run_id, lookup = pair
    return (run_id, lookup[0], lookup[1], lookup[2])


def _ex_compiled_pairs(count: int = 6) -> List[CompiledPair]:
    """Compiled twins of :func:`_ex_batch_keys` (plus the root index)."""
    pairs = [
        (
            "R1" if i % 2 == 0 else "R2",
            compile_lookup("P", "x", Index.of(tuple(range(i % 3 + 1)))),
        )
        for i in range(count)
    ]
    if count == 1:
        pairs = [("R1", compile_lookup("P", "x", _EX_ELEMENT))]
    return pairs


# Pre-rendered SQL text, memoized by shape so a warm compiled plan hands
# the connection byte-identical statement text on every execution —
# which is what lets sqlite3's per-connection statement cache skip the
# re-prepare.  Shapes are bounded by the bound-variable budget, but
# randomized chunk sizes (property tests) can still spray the memo, so
# both dicts are cleared past a generous cap.
_SQL_MEMO_CAP = 4096
_SINGLE_MATCH_SQL: Dict[int, str] = {}
_COMPILED_GRID_SQL: Dict[Tuple[int, int], str] = {}


def _single_match_sql(prefix_count: int) -> str:
    """The single-key matching statement for ``prefix_count`` prefixes."""
    sql = _SINGLE_MATCH_SQL.get(prefix_count)
    if sql is None:
        if len(_SINGLE_MATCH_SQL) >= _SQL_MEMO_CAP:
            _SINGLE_MATCH_SQL.clear()
        placeholders = ",".join("?" for _ in range(prefix_count))
        sql = _SINGLE_MATCH_SQL[prefix_count] = (
            "SELECT DISTINCT processor, port, idx, COALESCE(xform_io.value_json, vp.value_json) FROM xform_io LEFT JOIN value_pool vp ON vp.value_id = xform_io.value_id "
            "WHERE run_id = ? AND processor = ? AND port = ? AND role = 'in' "
            f"AND (idx IN ({placeholders}) OR idx LIKE ?)"
        )
    return sql


def _values_join_sql(
    head: str,
    select: str,
    table: str,
    node_col: str,
    port_col: str,
    idx_col: str,
    role_clause: str,
    value_join: str,
    eq_count: int,
    rg_count: int,
) -> str:
    """Render one chunk's VALUES-join statement text.

    Shared by the interpreted batched path and the compiled-plan path so
    the two can never drift apart — same template, same normalized shape
    under the plan lint, same statement-cache entry.
    """
    eq_values = ",".join("(?,?,?,?,?)" for _ in range(eq_count))
    rg_values = ",".join("(?,?,?,?,?,?)" for _ in range(rg_count))
    return (
        f"{head} v.column1, {select} "
        f"FROM (VALUES {eq_values}) AS v "
        f"JOIN {table} AS t ON t.run_id = v.column2 "
        f"AND t.{node_col} = v.column3 AND t.{port_col} = v.column4 "
        f"{role_clause}AND t.{idx_col} = v.column5 "
        f"{value_join}"
        f"UNION ALL "
        f"{head} v.column1, {select} "
        f"FROM (VALUES {rg_values}) AS v "
        f"JOIN {table} AS t ON t.run_id = v.column2 "
        f"AND t.{node_col} = v.column3 AND t.{port_col} = v.column4 "
        f"{role_clause}AND t.{idx_col} > v.column5 "
        f"AND t.{idx_col} < v.column6 "
        f"{value_join}"
    )


def _compiled_grid_sql(eq_count: int, rg_count: int) -> str:
    """The compiled grid statement for one chunk shape, pre-rendered."""
    key = (eq_count, rg_count)
    sql = _COMPILED_GRID_SQL.get(key)
    if sql is None:
        if len(_COMPILED_GRID_SQL) >= _SQL_MEMO_CAP:
            _COMPILED_GRID_SQL.clear()
        sql = _COMPILED_GRID_SQL[key] = _values_join_sql(
            head="SELECT DISTINCT",
            select=(
                "t.processor, t.port, t.idx, "
                "COALESCE(t.value_json, vp.value_json)"
            ),
            table="xform_io",
            node_col="processor",
            port_col="port",
            idx_col="idx",
            role_clause="AND t.role = 'in' ",
            value_join="LEFT JOIN value_pool vp ON vp.value_id = t.value_id ",
            eq_count=eq_count,
            rg_count=rg_count,
        )
    return sql


class TraceStore:
    """A SQLite-backed multi-run trace database.

    Usable as a context manager; ``path=":memory:"`` (the default) builds
    an ephemeral store, any other path a persistent database file.  See
    the module docstring for the threading contract; ``retry`` tunes the
    busy-write backoff and ``faults`` plugs in deterministic fault
    injection (tests only).
    """

    def __init__(
        self,
        path: str = ":memory:",
        intern_values: bool = False,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.path = path
        #: Observability handle (``repro.obs``): counts reads, writes,
        #: fetched rows, busy retries, backoff sleeps, rollbacks and
        #: fault-injection firings, and (when enabled) samples per-read
        #: latency into the ``store.read_seconds`` histogram.  The default
        #: is the shared disabled instance — every hook then short-circuits.
        self.obs = obs if obs is not None else NO_OBS
        #: When enabled, payloads are normalized into ``value_pool`` and
        #: rows carry a ``value_id`` instead of inline JSON — identical
        #: values (which dominate real traces: the same list is transferred
        #: along every arc and consumed by many instances) are stored once.
        self.intern_values = intern_values
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults if faults is not None else NO_FAULTS
        if self.obs.enabled and self.faults is not NO_FAULTS:
            # Mirror injected-fault firings into the same metrics registry
            # the store itself reports into (never touch the shared inert
            # NO_FAULTS singleton).
            self.faults.attach_metrics(self.obs.metrics)
        self._is_memory = path == ":memory:"
        self._closed = False
        # Connection-level statement audit (see set_statement_audit):
        # applied to every existing and future connection when installed.
        self._statement_audit: Optional[Callable[[str], Any]] = None
        # Write generations (see module docstring): in-memory coherence
        # tokens for repro.cache.  Guarded by their own lock so readers
        # never contend with SQL execution.
        self._generation_lock = threading.Lock()
        self._run_generations: Dict[str, int] = {}
        self._global_generation = 0
        self._membership_generation = 0
        # Deletes between the start of their transaction and their
        # membership bump (see membership_token).
        self._membership_writes = 0
        self._membership_settled = threading.Condition(self._generation_lock)
        self._invalidation_listeners: List[Callable[[Optional[str]], None]] = []
        # One writer at a time, across all threads.  RLock so write paths
        # may call read helpers without deadlocking themselves.
        self._writer_lock = threading.RLock()
        self._local = threading.local()
        self._all_connections: List[sqlite3.Connection] = []
        self._connections_guard = threading.Lock()
        if self._is_memory:
            # A private in-memory database exists per connection, so all
            # threads must share this one connection, serialized (reads
            # included) behind the writer lock.
            self._shared_conn: Optional[sqlite3.Connection] = self._connect()
            self._read_guard: Any = self._writer_lock
        else:
            # Thread-local pool over one WAL database: readers get their
            # own connections and run lock-free in parallel.
            self._shared_conn = None
            self._read_guard = nullcontext()
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- connections -------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False is safe here: memory-mode connections are
        # serialized behind the store lock, and file-mode connections are
        # only shared for close() after their owning thread is done.
        # cached_statements doubles the sqlite3 default so the full set
        # of compiled-plan chunk shapes stays prepared per connection.
        conn = sqlite3.connect(
            self.path, check_same_thread=False, cached_statements=256
        )
        conn.execute("PRAGMA foreign_keys = ON")
        if not self._is_memory:
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            # First line of defence before our own retry loop kicks in.
            conn.execute("PRAGMA busy_timeout = 100")
        if self._statement_audit is not None:
            conn.set_trace_callback(self._statement_audit)
        with self._connections_guard:
            self._all_connections.append(conn)
        return conn

    def set_statement_audit(
        self, callback: Optional[Callable[[str], Any]]
    ) -> None:
        """Install (or with ``None`` remove) a statement audit hook.

        ``callback`` receives the raw SQL text of **every** statement any
        of this store's connections executes, placeholders unexpanded —
        the seam :mod:`repro.analysis.planlint` uses to prove that a
        query workload touches the trace relations only through
        registered SQL primitives (rule P005).  Applied to all existing
        connections and inherited by future ones.  Test-only by intent:
        the callback runs inside SQLite's statement dispatch.
        """
        self._statement_audit = callback
        with self._connections_guard:
            connections = list(self._all_connections)
        for conn in connections:
            conn.set_trace_callback(callback)

    @property
    def _conn(self) -> sqlite3.Connection:
        """The calling thread's connection.

        Exposed (privately) because maintenance, streaming and ad-hoc
        inspection code issue raw SQL; such callers are single-threaded by
        contract.
        """
        if self._shared_conn is not None:
            return self._shared_conn
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._closed:
                raise sqlite3.ProgrammingError(
                    "cannot open a connection on a closed store"
                )
            conn = self._connect()
            self._local.conn = conn
        return conn

    # -- read/write plumbing ----------------------------------------------

    def _read(
        self,
        sql: str,
        params: Sequence[Any] = (),
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple]:
        """Execute one SELECT with fault hooks and busy retry.

        ``stats`` (when supplied by a lookup primitive) receives the
        busy-retry and fault-injection counts for this read; round-trip
        and row counts stay with the caller, which knows whether the read
        belongs to a query.  The ``store.*`` observability counters record
        the same events store-wide.
        """
        obs = self.obs
        last_error: Optional[sqlite3.OperationalError] = None
        started = time.perf_counter() if obs.enabled else 0.0
        for attempt in range(self.retry.max_attempts):
            try:
                self.faults.on_read()
                with self._read_guard:
                    rows = self._conn.execute(sql, params).fetchall()
            except sqlite3.OperationalError as exc:
                if not _is_busy_error(exc):
                    raise
                last_error = exc
                delay = self.retry.delay(attempt)
                if stats is not None:
                    stats.record_retry(injected="injected" in str(exc))
                if obs.enabled:
                    obs.inc("store.busy_retries")
                    obs.inc("store.backoff_sleeps")
                    obs.observe("store.backoff_seconds", delay)
                time.sleep(delay)
                continue
            if obs.enabled:
                obs.inc("store.reads")
                obs.inc("store.rows_fetched", len(rows))
                obs.observe("store.read_seconds", time.perf_counter() - started)
            return rows
        if obs.enabled:
            obs.inc("store.busy_failures")
        raise StoreBusyError(self.retry.max_attempts, last_error)

    def _read_one(
        self,
        sql: str,
        params: Sequence[Any] = (),
        stats: Optional[StoreStats] = None,
    ) -> Optional[Tuple]:
        rows = self._read(sql, params, stats=stats)
        return rows[0] if rows else None

    def _write_transaction(
        self, work: Callable[[sqlite3.Cursor], None]
    ) -> None:
        """Run ``work`` inside one all-or-nothing write transaction.

        Serialized behind the writer lock; transient busy errors roll the
        transaction back and retry with exponential backoff, anything else
        rolls back and propagates.  ``work`` must therefore be safe to
        re-execute from scratch (every caller rebuilds its statements from
        immutable inputs).
        """
        obs = self.obs
        with self._writer_lock:
            last_error: Optional[sqlite3.OperationalError] = None
            started = time.perf_counter() if obs.enabled else 0.0
            for attempt in range(self.retry.max_attempts):
                conn = self._conn
                cursor = conn.cursor()
                try:
                    self.faults.on_write_attempt()
                    cursor.execute("BEGIN IMMEDIATE")
                    work(cursor)
                    conn.commit()
                    if obs.enabled:
                        obs.inc("store.writes")
                        obs.observe(
                            "store.write_seconds",
                            time.perf_counter() - started,
                        )
                    return
                except sqlite3.OperationalError as exc:
                    conn.rollback()
                    if not _is_busy_error(exc):
                        if obs.enabled:
                            obs.inc("store.rollbacks")
                        raise
                    last_error = exc
                    delay = self.retry.delay(attempt)
                    if obs.enabled:
                        obs.inc("store.rollbacks")
                        obs.inc("store.busy_retries")
                        obs.inc("store.backoff_sleeps")
                        obs.observe("store.backoff_seconds", delay)
                    time.sleep(delay)
                except BaseException:
                    conn.rollback()
                    if obs.enabled:
                        obs.inc("store.rollbacks")
                    raise
                finally:
                    cursor.close()
            if obs.enabled:
                obs.inc("store.busy_failures")
            raise StoreBusyError(self.retry.max_attempts, last_error)

    def _value_ref(
        self, cursor: sqlite3.Cursor, value: Any
    ) -> Tuple[Optional[str], Optional[int]]:
        """``(value_json, value_id)`` for one payload, honouring interning."""
        encoded = _encode_value(value)
        if not self.intern_values:
            return encoded, None
        digest = hashlib.sha256(encoded.encode()).hexdigest()
        row = cursor.execute(
            "SELECT value_id FROM value_pool WHERE digest = ?", (digest,)
        ).fetchone()
        if row is not None:
            return None, row[0]
        cursor.execute(
            "INSERT INTO value_pool (digest, value_json) VALUES (?, ?)",
            (digest, encoded),
        )
        return None, cursor.lastrowid

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        with self._connections_guard:
            connections, self._all_connections = self._all_connections, []
        for conn in connections:
            try:
                conn.close()
            except sqlite3.ProgrammingError:  # pragma: no cover - defensive
                pass
        self._shared_conn = None
        self._local = threading.local()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- write generations -------------------------------------------------

    def generation(self, run_id: str) -> int:
        """Current write generation of one run (0 = never written here)."""
        with self._generation_lock:
            return self._run_generations.get(run_id, 0)

    @property
    def global_generation(self) -> int:
        """Store-wide generation, bumped by maintenance operations."""
        with self._generation_lock:
            return self._global_generation

    @property
    def membership_generation(self) -> int:
        """Generation of the *set* of stored runs (ingest/delete bumps)."""
        with self._generation_lock:
            return self._membership_generation

    def membership_token(self, timeout: float = 0.0) -> Optional[int]:
        """The membership generation once no ``delete_run`` is in flight.

        A delete commits before it bumps the membership generation, so
        the generation alone cannot tell a reader that read between the
        two.  The delete marks itself in flight for that whole span, and
        this token is ``None`` while the mark is set (a seqlock): a
        reader that gets the same non-``None`` token before and after
        its reads saw one run set.  Waits up to ``timeout`` seconds for
        an in-flight delete to finish; ``None`` when it has not.
        """
        with self._membership_settled:
            settled = self._membership_settled.wait_for(
                lambda: not self._membership_writes, timeout
            )
            return self._membership_generation if settled else None

    def generation_vector(
        self, run_ids: Sequence[str]
    ) -> Tuple[int, Tuple[int, ...]]:
        """``(global generation, per-run generations)`` for a run set.

        The coherence token of :mod:`repro.cache`: captured *before* the
        reads it covers, a cache entry stays valid exactly while the
        current vector compares equal.  Reading it takes no SQL
        round-trip, so validating a warm cache hit costs zero store
        accesses.
        """
        with self._generation_lock:
            return (
                self._global_generation,
                tuple(self._run_generations.get(r, 0) for r in run_ids),
            )

    def add_invalidation_listener(
        self, listener: Callable[[Optional[str]], None]
    ) -> None:
        """Call ``listener(run_id)`` after every generation bump.

        ``run_id`` is ``None`` for global (store-wide) bumps.  Listeners
        run synchronously on the bumping thread and must be fast and
        exception-free; :mod:`repro.cache` uses them for eager eviction.
        """
        with self._generation_lock:
            self._invalidation_listeners.append(listener)

    def bump_run_generation(self, run_id: str, membership: bool = False) -> None:
        """Advance one run's generation (and optionally membership)."""
        with self._generation_lock:
            self._run_generations[run_id] = (
                self._run_generations.get(run_id, 0) + 1
            )
            if membership:
                self._membership_generation += 1
            listeners = list(self._invalidation_listeners)
        if self.obs.enabled:
            self.obs.inc("store.generation_bumps")
        for listener in listeners:
            listener(run_id)

    def bump_global_generation(self) -> None:
        """Advance the store-wide generation (maintenance operations)."""
        with self._generation_lock:
            self._global_generation += 1
            listeners = list(self._invalidation_listeners)
        if self.obs.enabled:
            self.obs.inc("store.generation_bumps")
        for listener in listeners:
            listener(None)

    # -- ingestion ---------------------------------------------------------

    @sql_primitive(
        BindShape("point", lambda s: s.has_run("R1")),
    )
    def has_run(self, run_id: str) -> bool:
        """True when a run with this id is (fully) stored."""
        return self._read_one(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
        ) is not None

    def insert_trace(self, trace: Trace) -> None:
        """Bulk-insert one run's events in a single transaction.

        All-or-nothing: on any failure (busy budget exhausted, crash,
        constraint violation) the store is left exactly as before — a
        partially inserted run is never visible to queries, and the same
        run can be re-inserted afterwards.  A ``run_id`` that is already
        stored raises :class:`DuplicateRunError`.
        """

        def work(cursor: sqlite3.Cursor) -> None:
            try:
                cursor.execute(
                    "INSERT INTO runs (run_id, workflow) VALUES (?, ?)",
                    (trace.run_id, trace.workflow),
                )
            except sqlite3.IntegrityError as exc:
                if "runs.run_id" in str(exc):
                    raise DuplicateRunError(trace.run_id) from None
                raise
            self.faults.on_write_statement()
            io_rows: List[Tuple[Any, ...]] = []
            for event in trace.xforms:
                cursor.execute(
                    "INSERT INTO xform_event (run_id, processor) VALUES (?, ?)",
                    (trace.run_id, event.processor),
                )
                event_id = cursor.lastrowid
                for role, bindings in (("in", event.inputs), ("out", event.outputs)):
                    for binding in bindings:
                        value_json, value_id = self._value_ref(
                            cursor, binding.value
                        )
                        io_rows.append(
                            (
                                event_id,
                                trace.run_id,
                                event.processor,
                                role,
                                binding.port,
                                binding.index.encode(),
                                value_json,
                                value_id,
                            )
                        )
                self.faults.on_write_statement()
            cursor.executemany(
                "INSERT INTO xform_io (event_id, run_id, processor, role, "
                "port, idx, value_json, value_id) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                io_rows,
            )
            self.faults.on_write_statement()
            xfer_rows = []
            for event in trace.xfers:
                value_json, value_id = self._value_ref(
                    cursor, event.source.value
                )
                xfer_rows.append(
                    (
                        trace.run_id,
                        event.source.node,
                        event.source.port,
                        event.source.index.encode(),
                        event.sink.node,
                        event.sink.port,
                        event.sink.index.encode(),
                        value_json,
                        value_id,
                    )
                )
            cursor.executemany(
                "INSERT INTO xfer (run_id, src_node, src_port, src_idx, "
                "dst_node, dst_port, dst_idx, value_json, value_id) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                xfer_rows,
            )
            self.faults.on_write_statement()

        self._write_transaction(work)
        # Only bump after the transaction committed: a failed/rolled-back
        # insert leaves the store unchanged, so caches stay valid.
        self.bump_run_generation(trace.run_id, membership=True)

    def delete_run(self, run_id: str) -> None:
        """Remove one run and all of its events.

        In flight (``membership_token`` is ``None``) from before the
        transaction until after the membership bump, so no reader can
        take the committed delete for an unchanged run set.
        """
        with self._generation_lock:
            self._membership_writes += 1
        try:
            self._write_transaction(
                lambda cursor: cursor.execute(
                    "DELETE FROM runs WHERE run_id = ?", (run_id,)
                )
            )
            self.bump_run_generation(run_id, membership=True)
        finally:
            with self._membership_settled:
                self._membership_writes -= 1
                self._membership_settled.notify_all()

    # -- index management (ablation support) --------------------------------

    _SECONDARY_INDEXES = (
        "ix_xform_event_proc",
        "ix_xform_io_lookup",
        "ix_xform_io_batch",
        "ix_xform_io_event",
        "ix_xfer_dst",
        "ix_xfer_src",
    )

    def drop_indexes(self) -> None:
        """Drop every secondary index.

        Exists for the index ablation (EXPERIMENTS.md): the paper's Fig. 6
        rests on "all of the queries on the traces involve the use of
        indexes, with none requiring full table scans"; dropping them shows
        the table-scan regime that design decision avoids.
        """

        def work(cursor: sqlite3.Cursor) -> None:
            for name in self._SECONDARY_INDEXES:
                cursor.execute(f"DROP INDEX IF EXISTS {name}")

        self._write_transaction(work)
        self.bump_global_generation()

    def create_indexes(self) -> None:
        """Recreate the secondary indexes (inverse of :meth:`drop_indexes`)."""
        with self._writer_lock:
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        self.bump_global_generation()

    @sql_primitive(
        BindShape("all", lambda s: s.has_indexes()),
        scan_ok=True,
    )
    def has_indexes(self) -> bool:
        """True when the secondary indexes are present."""
        rows = self._read(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
        names = {row[0] for row in rows}
        return all(name in names for name in self._SECONDARY_INDEXES)

    @sql_primitive(
        BindShape("reference", lambda s: s.load_trace(PLAN_REFERENCE_RUN)),
        scan_ok=True,
        sort_ok=True,
    )
    def load_trace(self, run_id: str) -> Trace:
        """Reconstruct one run's full in-memory trace from the store.

        Inverse of :meth:`insert_trace` (event order is preserved via
        rowids).  Used by exports and by round-trip tests.
        """
        workflow_row = self._read_one(
            "SELECT workflow FROM runs WHERE run_id = ?", (run_id,)
        )
        if workflow_row is None:
            raise KeyError(f"no run {run_id!r} in this store")
        trace = Trace(run_id=run_id, workflow=workflow_row[0])
        events = self._read(
            "SELECT event_id, processor FROM xform_event "
            "WHERE run_id = ? ORDER BY event_id",
            (run_id,),
        )
        io_rows = self._read(
            "SELECT event_id, role, port, idx, COALESCE(xform_io.value_json, vp.value_json) FROM xform_io LEFT JOIN value_pool vp ON vp.value_id = xform_io.value_id "
            "WHERE run_id = ? ORDER BY xform_io.rowid",
            (run_id,),
        )
        by_event: Dict[int, Dict[str, List[Binding]]] = {}
        processor_of = {event_id: processor for event_id, processor in events}
        for event_id, role, port, idx, value_json in io_rows:
            bucket = by_event.setdefault(event_id, {"in": [], "out": []})
            bucket[role].append(
                Binding(
                    PortRef(processor_of[event_id], port),
                    Index.decode(idx),
                    value=_decode_value(value_json),
                )
            )
        for event_id, processor in events:
            bucket = by_event.get(event_id, {"in": [], "out": []})
            trace.xforms.append(
                XformEvent(
                    processor,
                    inputs=tuple(bucket["in"]),
                    outputs=tuple(bucket["out"]),
                )
            )
        xfer_rows = self._read(
            "SELECT src_node, src_port, src_idx, dst_node, dst_port, dst_idx, "
            "COALESCE(xfer.value_json, vp.value_json) FROM xfer LEFT JOIN value_pool vp ON vp.value_id = xfer.value_id WHERE run_id = ? ORDER BY xfer.rowid",
            (run_id,),
        )
        for src_node, src_port, src_idx, dst_node, dst_port, dst_idx, vj in xfer_rows:
            value = _decode_value(vj)
            trace.xfers.append(
                XferEvent(
                    Binding(PortRef(src_node, src_port), Index.decode(src_idx),
                            value=value),
                    Binding(PortRef(dst_node, dst_port), Index.decode(dst_idx),
                            value=value),
                )
            )
        return trace

    # -- metadata ----------------------------------------------------------

    @sql_primitive(
        BindShape("all", lambda s: s.run_ids()),
        BindShape("by-workflow", lambda s: s.run_ids("wf")),
        scan_ok=True,
    )
    def run_ids(self, workflow: Optional[str] = None) -> List[str]:
        """All stored run ids, optionally restricted to one workflow."""
        if workflow is None:
            rows = self._read("SELECT run_id FROM runs ORDER BY rowid")
        else:
            rows = self._read(
                "SELECT run_id FROM runs WHERE workflow = ? ORDER BY rowid",
                (workflow,),
            )
        return [row[0] for row in rows]

    @sql_primitive(
        BindShape("all", lambda s: s.record_count()),
        BindShape("per-run", lambda s: s.record_count("R1")),
        scan_ok=True,
    )
    def record_count(self, run_id: Optional[str] = None) -> int:
        """Trace record count as Table 1 counts it (io rows + xfer rows)."""
        if run_id is None:
            io = self._read_one("SELECT COUNT(*) FROM xform_io")[0]
            xf = self._read_one("SELECT COUNT(*) FROM xfer")[0]
        else:
            io = self._read_one(
                "SELECT COUNT(*) FROM xform_io WHERE run_id = ?", (run_id,)
            )[0]
            xf = self._read_one(
                "SELECT COUNT(*) FROM xfer WHERE run_id = ?", (run_id,)
            )[0]
        return io + xf

    @sql_primitive(
        BindShape("all", lambda s: s.statistics()),
        scan_ok=True,
    )
    def statistics(self) -> Dict[str, int]:
        """Store-wide size summary."""
        counts = {
            "runs": "SELECT COUNT(*) FROM runs",
            "xform_events": "SELECT COUNT(*) FROM xform_event",
            "xform_io_rows": "SELECT COUNT(*) FROM xform_io",
            "xfer_rows": "SELECT COUNT(*) FROM xfer",
            "pooled_values": "SELECT COUNT(*) FROM value_pool",
        }
        result = {
            name: self._read_one(sql)[0] for name, sql in counts.items()
        }
        result["records"] = result["xform_io_rows"] + result["xfer_rows"]
        return result

    # -- lookup primitives ---------------------------------------------------

    @sql_primitive(
        BindShape(
            "element",
            lambda s: s.find_xform_by_output("R1", "P", "y", _EX_ELEMENT),
        ),
        BindShape(
            "root", lambda s: s.find_xform_by_output("R1", "P", "y", _EX_ROOT)
        ),
        hot=True,
    )
    def find_xform_by_output(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[XformMatch]:
        """Events whose output on ``node:port`` matches ``index``.

        Matching prefers exact rows, then coarser rows (recorded index is a
        prefix of the query), then finer rows (query is a prefix of the
        recorded index) — within one processor the recorded index length is
        uniform, so exactly one class can be non-empty.
        """
        encoded = index.encode()
        prefixes = _prefixes(encoded)
        placeholders = ",".join("?" for _ in prefixes)
        like = f"{encoded}.%" if encoded else "_%"
        sql = (
            "SELECT event_id, idx FROM xform_io "
            "WHERE run_id = ? AND processor = ? AND port = ? AND role = 'out' "
            f"AND (idx IN ({placeholders}) OR idx LIKE ?)"
        )
        rows = self._read(sql, [run_id, node, port, *prefixes, like], stats=stats)
        if stats is not None:
            stats.record(len(rows))
        exact = [r for r in rows if r[1] == encoded]
        if exact:
            chosen = exact
        else:
            coarser = [r for r in rows if encoded.startswith(r[1])]
            chosen = coarser if coarser else rows
        return [XformMatch(event_id=r[0], output_index=Index.decode(r[1])) for r in chosen]

    @sql_primitive(
        BindShape("events", lambda s: s.xform_inputs([1, 2, 3])),
        hot=True,
    )
    def xform_inputs(
        self,
        event_ids: Sequence[int],
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        """All input bindings of the given events, deduplicated."""
        if not event_ids:
            return []
        placeholders = ",".join("?" for _ in event_ids)
        rows = self._read(
            "SELECT processor, port, idx, COALESCE(xform_io.value_json, vp.value_json) FROM xform_io LEFT JOIN value_pool vp ON vp.value_id = xform_io.value_id "
            f"WHERE event_id IN ({placeholders}) AND role = 'in'",
            list(event_ids),
            stats=stats,
        )
        if stats is not None:
            stats.record(len(rows))
        return _dedupe_bindings(rows)

    @sql_primitive(
        BindShape(
            "element",
            lambda s: s.find_xform_inputs_matching("R1", "P", "x", _EX_ELEMENT),
        ),
        BindShape(
            "root",
            lambda s: s.find_xform_inputs_matching("R1", "P", "x", _EX_ROOT),
        ),
        hot=True,
    )
    def find_xform_inputs_matching(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        """``Q(P, X_i, p_i)`` of Alg. 2: input bindings matching a fragment.

        This is the only trace access INDEXPROJ performs, once per focus
        processor input port (times the number of runs in scope).
        """
        encoded = index.encode()
        prefixes = _prefixes(encoded)
        like = f"{encoded}.%" if encoded else "_%"
        # DISTINCT pushes the (processor, port, idx) dedupe into SQLite:
        # iterated ports repeat the same fragment across many instances
        # (e.g. a cross product touches each element n times), so this
        # shrinks the fetched row set by the iteration factor and runs the
        # dedupe off the GIL.  _dedupe_bindings stays as a guard for the
        # (never expected) case of diverging payloads on one key.
        with self.obs.span(
            "store.lookup", run=run_id, node=node, port=port,
        ) as span:
            rows = self._read(
                _single_match_sql(len(prefixes)),
                [run_id, node, port, *prefixes, like],
                stats=stats,
            )
            span.set(rows=len(rows))
        if stats is not None:
            stats.record(len(rows))
        return _dedupe_bindings(rows)

    # -- forward (impact) lookup primitives ---------------------------------

    @sql_primitive(
        BindShape(
            "element",
            lambda s: s.find_xform_by_input("R1", "P", "x", _EX_ELEMENT),
        ),
        hot=True,
    )
    def find_xform_by_input(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[XformMatch]:
        """Events whose *input* on ``node:port`` matches ``index``.

        The forward mirror of :meth:`find_xform_by_output`, with the same
        exact/coarser/finer preference.
        """
        encoded = index.encode()
        prefixes = _prefixes(encoded)
        placeholders = ",".join("?" for _ in prefixes)
        like = f"{encoded}.%" if encoded else "_%"
        rows = self._read(
            "SELECT event_id, idx FROM xform_io "
            "WHERE run_id = ? AND processor = ? AND port = ? AND role = 'in' "
            f"AND (idx IN ({placeholders}) OR idx LIKE ?)",
            [run_id, node, port, *prefixes, like],
            stats=stats,
        )
        if stats is not None:
            stats.record(len(rows))
        exact = [r for r in rows if r[1] == encoded]
        if exact:
            chosen = exact
        else:
            coarser = [r for r in rows if encoded.startswith(r[1])]
            chosen = coarser if coarser else rows
        return [
            XformMatch(event_id=r[0], output_index=Index.decode(r[1]))
            for r in chosen
        ]

    @sql_primitive(
        BindShape("events", lambda s: s.xform_outputs([1, 2])),
        hot=True,
    )
    def xform_outputs(
        self,
        event_ids: Sequence[int],
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        """All output bindings of the given events, deduplicated."""
        if not event_ids:
            return []
        placeholders = ",".join("?" for _ in event_ids)
        rows = self._read(
            "SELECT processor, port, idx, COALESCE(xform_io.value_json, vp.value_json) FROM xform_io LEFT JOIN value_pool vp ON vp.value_id = xform_io.value_id "
            f"WHERE event_id IN ({placeholders}) AND role = 'out'",
            list(event_ids),
            stats=stats,
        )
        if stats is not None:
            stats.record(len(rows))
        return _dedupe_bindings(rows)

    @sql_primitive(
        BindShape(
            "element", lambda s: s.find_xfer_from("R1", "P", "y", _EX_ELEMENT)
        ),
        hot=True,
    )
    def find_xfer_from(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple[Binding, Index]]:
        """Transfers out of ``node:port`` matching ``index`` — the forward
        mirror of :meth:`find_xfer_into`, with the same continuation rule
        (identity transfers keep the finer of the two indices)."""
        encoded = index.encode()
        prefixes = _prefixes(encoded)
        placeholders = ",".join("?" for _ in prefixes)
        like = f"{encoded}.%" if encoded else "_%"
        rows = self._read(
            "SELECT dst_node, dst_port, dst_idx, src_idx, COALESCE(xfer.value_json, vp.value_json) FROM xfer LEFT JOIN value_pool vp ON vp.value_id = xfer.value_id "
            "WHERE run_id = ? AND src_node = ? AND src_port = ? "
            f"AND (src_idx IN ({placeholders}) OR src_idx LIKE ?)",
            [run_id, node, port, *prefixes, like],
            stats=stats,
        )
        if stats is not None:
            stats.record(len(rows))
        results: List[Tuple[Binding, Index]] = []
        seen = set()
        for dst_node, dst_port, dst_idx, src_idx, value_json in rows:
            if len(src_idx) <= len(encoded):
                continue_index = index
            else:
                continue_index = Index.decode(src_idx)
            key = (dst_node, dst_port, continue_index.encode())
            if key in seen:
                continue
            seen.add(key)
            results.append(
                (
                    Binding(
                        PortRef(dst_node, dst_port),
                        Index.decode(dst_idx),
                        value=_decode_value(value_json),
                    ),
                    continue_index,
                )
            )
        return results

    @sql_primitive(
        BindShape(
            "prefix-wildcard",
            lambda s: s.find_xform_outputs_matching_pattern(
                "R1", "P", "y", IndexPattern(0, None)
            ),
        ),
        hot=True,
    )
    def find_xform_outputs_matching_pattern(
        self,
        run_id: str,
        node: str,
        port: str,
        pattern: "IndexPattern",
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        """Output bindings whose index matches a (possibly wildcarded)
        pattern — the forward analogue of ``Q(P, X_i, p_i)``.

        The fixed leading run of the pattern drives an indexed prefix
        fetch; remaining wildcard constraints are applied client-side.
        """
        prefix = pattern.fixed_prefix()
        encoded = prefix.encode()
        prefixes = _prefixes(encoded)
        placeholders = ",".join("?" for _ in prefixes)
        like = f"{encoded}.%" if encoded else "_%"
        rows = self._read(
            "SELECT processor, port, idx, COALESCE(xform_io.value_json, vp.value_json) FROM xform_io LEFT JOIN value_pool vp ON vp.value_id = xform_io.value_id "
            "WHERE run_id = ? AND processor = ? AND port = ? AND role = 'out' "
            f"AND (idx IN ({placeholders}) OR idx LIKE ?)",
            [run_id, node, port, *prefixes, like],
            stats=stats,
        )
        if stats is not None:
            stats.record(len(rows))
        filtered = [
            row for row in rows if pattern.matches(Index.decode(row[2]))
        ]
        return _dedupe_bindings(filtered)

    @sql_primitive(
        BindShape(
            "runs-3",
            lambda s: s.find_xform_inputs_matching_multi(
                ["R1", "R2", "R3"], "P", "x", _EX_ELEMENT
            ),
        ),
        hot=True,
    )
    def find_xform_inputs_matching_multi(
        self,
        run_ids: Sequence[str],
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> Dict[str, List[Binding]]:
        """Multi-run variant of :meth:`find_xform_inputs_matching`.

        One SQL round-trip covers every run in scope (``run_id IN (...)``);
        results come back grouped per run.  This is the batched execution
        mode of Section 3.4's multi-run queries — beyond the paper's
        per-run loop, but enabled by the same observation that "trace IDs
        are key attributes in our relational implementation".
        """
        if not run_ids:
            return {}
        encoded = index.encode()
        prefixes = _prefixes(encoded)
        like = f"{encoded}.%" if encoded else "_%"
        run_marks = ",".join("?" for _ in run_ids)
        prefix_marks = ",".join("?" for _ in prefixes)
        rows = self._read(
            "SELECT DISTINCT run_id, processor, port, idx, COALESCE(xform_io.value_json, vp.value_json) FROM xform_io LEFT JOIN value_pool vp ON vp.value_id = xform_io.value_id "
            f"WHERE run_id IN ({run_marks}) AND processor = ? AND port = ? "
            f"AND role = 'in' AND (idx IN ({prefix_marks}) OR idx LIKE ?)",
            [*run_ids, node, port, *prefixes, like],
            stats=stats,
        )
        if stats is not None:
            stats.record(len(rows))
        grouped: Dict[str, List[Tuple[str, str, str, Optional[str]]]] = {}
        for run_id, proc, port_name, idx, value_json in rows:
            grouped.setdefault(run_id, []).append(
                (proc, port_name, idx, value_json)
            )
        value_memo: Dict[str, Any] = {}
        return {
            run_id: _dedupe_bindings(entries, value_memo)
            for run_id, entries in grouped.items()
        }

    @sql_primitive(
        BindShape(
            "element", lambda s: s.find_xfer_into("R1", "P", "x", _EX_ELEMENT)
        ),
        BindShape("root", lambda s: s.find_xfer_into("R1", "P", "x", _EX_ROOT)),
        hot=True,
    )
    def find_xfer_into(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple[Binding, Index]]:
        """Transfers into ``node:port`` matching ``index``.

        Returns ``(source binding, continuation index)`` pairs.  Transfers
        are identity on the payload, so when the recorded row is *coarser*
        than the query (whole-value transfer, element query) the traversal
        continues upstream with the original, finer query index; finer rows
        continue with their own recorded index.
        """
        encoded = index.encode()
        prefixes = _prefixes(encoded)
        placeholders = ",".join("?" for _ in prefixes)
        like = f"{encoded}.%" if encoded else "_%"
        rows = self._read(
            "SELECT src_node, src_port, src_idx, dst_idx, COALESCE(xfer.value_json, vp.value_json) FROM xfer LEFT JOIN value_pool vp ON vp.value_id = xfer.value_id "
            "WHERE run_id = ? AND dst_node = ? AND dst_port = ? "
            f"AND (dst_idx IN ({placeholders}) OR dst_idx LIKE ?)",
            [run_id, node, port, *prefixes, like],
            stats=stats,
        )
        if stats is not None:
            stats.record(len(rows))
        results: List[Tuple[Binding, Index]] = []
        seen = set()
        for src_node, src_port, src_idx, dst_idx, value_json in rows:
            if len(dst_idx) <= len(encoded):
                # Exact or coarser row: keep the query's finer index.
                continue_index = index
            else:
                continue_index = Index.decode(dst_idx)
            key = (src_node, src_port, continue_index.encode())
            if key in seen:
                continue
            seen.add(key)
            results.append(
                (
                    Binding(
                        PortRef(src_node, src_port),
                        Index.decode(src_idx),
                        value=_decode_value(value_json),
                    ),
                    continue_index,
                )
            )
        return results

    # -- set-based (batched) lookup primitives ------------------------------

    def _batch_chunks(
        self,
        keys: Sequence[Any],
        chunk_size: Optional[int],
        costs: Iterable[int],
    ) -> Iterable[List[Any]]:
        """Split lookup keys into statement-sized chunks.

        ``costs`` holds each key's bound-variable charge: one 5-column
        VALUES row per enumerated prefix plus one 6-column row for the
        extension range.  A chunk closes at ``chunk_size`` keys or when
        the next key would exceed the bound-variable budget, whichever
        comes first.
        """
        limit = chunk_size if chunk_size is not None else DEFAULT_BATCH_CHUNK
        if limit < 1:
            raise ValueError(f"chunk_size must be >= 1, got {limit}")
        chunk: List[Any] = []
        budget = 0
        for item, charge in zip(keys, costs):
            if chunk and (len(chunk) >= limit or budget + charge > _MAX_BOUND_VARS):
                yield chunk
                chunk, budget = [], 0
            chunk.append(item)
            budget += charge
        if chunk:
            yield chunk

    def _read_values_join(
        self,
        keys: Sequence[BatchKey],
        table: str,
        node_col: str,
        port_col: str,
        idx_col: str,
        role: Optional[str],
        select: str,
        with_values: bool,
        distinct: bool,
        stats: Optional[StoreStats],
        chunk_size: Optional[int],
    ) -> List[Tuple]:
        """Execute one multi-key lookup as chunked ``VALUES``-joins.

        Returns ``(key_ord, *selected columns)`` rows across all chunks;
        ``key_ord`` is the key's position in ``keys``, which is how
        callers demultiplex rows back onto their lookup keys.  Each chunk
        is one SQL statement: the equality branch joins the enumerated
        prefixes of every key, the range branch the strict-extension
        range — together exactly the single-key matching rule.  Both
        branches are disjoint per key (prefix rows are never longer than
        the key, extension rows strictly longer), so ``UNION ALL``
        reproduces the single-key row multiset.
        """
        obs = self.obs
        effective_chunk = (
            chunk_size if chunk_size is not None else DEFAULT_BATCH_CHUNK
        )
        # One span per multi-key lookup covers every ``*_many`` entry
        # point; its round-trip count is the batched cost the slowlog
        # and ``aggregate_stats()`` report.
        with obs.span(
            "store.batch", table=table, keys=len(keys),
            chunk_size=effective_chunk,
        ) as span:
            rows = self._read_values_join_impl(
                keys, table, node_col, port_col, idx_col, role, select,
                with_values, distinct, stats, effective_chunk,
            )
            span.set(
                rows=len(rows),
                round_trips=-(-len(keys) // effective_chunk),
            )
        return rows

    def _read_values_join_impl(
        self,
        keys: Sequence[BatchKey],
        table: str,
        node_col: str,
        port_col: str,
        idx_col: str,
        role: Optional[str],
        select: str,
        with_values: bool,
        distinct: bool,
        stats: Optional[StoreStats],
        effective_chunk: int,
    ) -> List[Tuple]:
        obs = self.obs
        role_clause = f"AND t.role = '{role}' " if role else ""
        head = "SELECT DISTINCT" if distinct else "SELECT"
        value_join = (
            "LEFT JOIN value_pool vp ON vp.value_id = t.value_id "
            if with_values
            else ""
        )
        enumerated = [
            (ord_, run_id, node, port, index.encode())
            for ord_, (run_id, node, port, index) in enumerate(keys)
        ]
        rows: List[Tuple] = []
        costs = (5 * len(_prefixes(item[4])) + 6 for item in enumerated)
        for chunk in self._batch_chunks(enumerated, effective_chunk, costs):
            eq_params: List[Any] = []
            eq_count = 0
            rg_params: List[Any] = []
            for ord_, run_id, node, port, encoded in chunk:
                for prefix in _prefixes(encoded):
                    eq_params.extend((ord_, run_id, node, port, prefix))
                    eq_count += 1
                low, high = _extension_range(encoded)
                rg_params.extend((ord_, run_id, node, port, low, high))
            sql = _values_join_sql(
                head, select, table, node_col, port_col, idx_col,
                role_clause, value_join, eq_count, len(chunk),
            )
            started = time.perf_counter() if obs.enabled else 0.0
            fetched = self._read(sql, eq_params + rg_params, stats=stats)
            if stats is not None:
                stats.record(len(fetched))
                stats.record_batch(len(chunk), effective_chunk)
            if obs.enabled:
                obs.inc("store.batch_lookups")
                obs.observe("store.batch_size", len(chunk))
                obs.observe(
                    "store.batch_seconds", time.perf_counter() - started
                )
            rows.extend(fetched)
        return rows

    @sql_primitive(
        BindShape(
            "keys-6",
            lambda s: s.find_xform_inputs_matching_many(_ex_batch_keys()),
        ),
        BindShape(
            "chunked",
            lambda s: s.find_xform_inputs_matching_many(
                _ex_batch_keys(10), chunk_size=4
            ),
        ),
        hot=True,
    )
    def find_xform_inputs_matching_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Binding]]:
        """Set-based ``Q(P, X_i, p_i)``: many keys, one statement per chunk.

        The multi-key sibling of :meth:`find_xform_inputs_matching` — the
        batched s2 executor resolves the whole ``plan × run-set`` key grid
        through it.  Every requested key appears in the result, with an
        empty list when nothing matched (so cache layers can backfill
        negative entries exactly like the single-key path does).
        """
        if not keys:
            return {}
        rows = self._read_values_join(
            keys,
            table="xform_io",
            node_col="processor",
            port_col="port",
            idx_col="idx",
            role="in",
            select=(
                "t.processor, t.port, t.idx, "
                "COALESCE(t.value_json, vp.value_json)"
            ),
            with_values=True,
            distinct=True,
            stats=stats,
            chunk_size=chunk_size,
        )
        grouped: Dict[int, List[Tuple[str, str, str, Optional[str]]]] = {}
        for ord_, node, port, idx, value_json in rows:
            grouped.setdefault(ord_, []).append((node, port, idx, value_json))
        value_memo: Dict[str, Any] = {}
        result: Dict[BatchKeyId, List[Binding]] = {}
        for ord_, key in enumerate(keys):
            result[batch_key_id(key)] = _dedupe_bindings(
                grouped.get(ord_, ()), value_memo
            )
        return result

    @sql_primitive(
        BindShape(
            "one",
            lambda s: s.find_xform_inputs_matching_compiled(
                _ex_compiled_pairs(1)
            ),
        ),
        BindShape(
            "grid",
            lambda s: s.find_xform_inputs_matching_compiled(
                _ex_compiled_pairs()
            ),
        ),
        BindShape(
            "chunked",
            lambda s: s.find_xform_inputs_matching_compiled(
                _ex_compiled_pairs(10), chunk_size=4
            ),
        ),
        hot=True,
    )
    def find_xform_inputs_matching_compiled(
        self,
        pairs: Sequence[CompiledPair],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Binding]]:
        """Execute a compiled key grid: pre-derived constants, prepared SQL.

        The compiled-plan sibling of
        :meth:`find_xform_inputs_matching_many`: each pair carries its
        matching-rule constants (prefixes, LIKE pattern, extension range,
        bound-variable cost) pre-derived at plan-compile time, and the
        statement text for every chunk shape is pre-rendered and kept warm
        in sqlite3's per-connection prepared-statement cache — so a warm
        plan binds parameters and executes, nothing else.  The rendered
        text is byte-identical to the interpreted siblings' (single-pair
        grids reuse the single-key statement), which is what makes the
        statement cache and the plan-lint baseline shared between the two
        paths.  Every requested key appears in the result, with an empty
        list when nothing matched.
        """
        if not pairs:
            return {}
        limit = chunk_size if chunk_size is not None else DEFAULT_BATCH_CHUNK
        # One span per grid, like the ``*_many`` lookups' ``store.batch``.
        with self.obs.span(
            "store.batch", table="xform_io", keys=len(pairs),
            chunk_size=limit,
        ) as span:
            grouped = self._read_compiled_grid(pairs, stats, limit)
            span.set(round_trips=-(-len(pairs) // limit))
        value_memo: Dict[str, Any] = {}
        result: Dict[BatchKeyId, List[Binding]] = {}
        for ord_, pair in enumerate(pairs):
            result[compiled_pair_id(pair)] = _dedupe_bindings(
                grouped.get(ord_, ()), value_memo
            )
        return result

    def _read_compiled_grid(
        self,
        pairs: Sequence[CompiledPair],
        stats: Optional[StoreStats],
        limit: int,
    ) -> Dict[int, List[Tuple[str, str, str, Optional[str]]]]:
        """Rows of a compiled grid grouped by the pair's position."""
        obs = self.obs
        if len(pairs) == 1:
            run_id, lookup = pairs[0]
            node, port, encoded, prefixes, like = lookup[:5]
            rows = self._read(
                _single_match_sql(len(prefixes)),
                [run_id, node, port, *prefixes, like],
                stats=stats,
            )
            if stats is not None:
                stats.record(len(rows))
            return {0: rows}
        # Each compiled lookup carries its bound-variable cost.
        costs = [lookup[7] for _, lookup in pairs]
        grouped: Dict[int, List[Tuple[str, str, str, Optional[str]]]] = {}
        for chunk in self._batch_chunks(list(enumerate(pairs)), limit, costs):
            eq_params: List[Any] = []
            eq_count = 0
            rg_params: List[Any] = []
            for ord_, (run_id, lookup) in chunk:
                node, port = lookup[0], lookup[1]
                for prefix in lookup[3]:
                    eq_params.extend((ord_, run_id, node, port, prefix))
                eq_count += len(lookup[3])
                rg_params.extend(
                    (ord_, run_id, node, port, lookup[5], lookup[6])
                )
            sql = _compiled_grid_sql(eq_count, len(chunk))
            started = time.perf_counter() if obs.enabled else 0.0
            fetched = self._read(sql, eq_params + rg_params, stats=stats)
            if stats is not None:
                stats.record(len(fetched))
                stats.record_batch(len(chunk), limit)
            if obs.enabled:
                obs.inc("store.batch_lookups")
                obs.observe("store.batch_size", len(chunk))
                obs.observe(
                    "store.batch_seconds", time.perf_counter() - started
                )
            for row in fetched:
                grouped.setdefault(row[0], []).append(row[1:])
        return grouped

    @sql_primitive(
        BindShape(
            "keys-6", lambda s: s.find_xform_by_output_many(_ex_batch_keys())
        ),
        hot=True,
    )
    def find_xform_by_output_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[XformMatch]]:
        """Multi-key sibling of :meth:`find_xform_by_output`.

        The per-key exact/coarser/finer preference is applied after the
        batched fetch, so each key's match list is identical to what the
        single-key lookup returns.  This is the level-synchronous NI
        frontier resolver: one statement per chunk answers a whole BFS
        frontier across every run of a multi-run query.
        """
        if not keys:
            return {}
        rows = self._read_values_join(
            keys,
            table="xform_io",
            node_col="processor",
            port_col="port",
            idx_col="idx",
            role="out",
            select="t.event_id, t.idx",
            with_values=False,
            distinct=False,
            stats=stats,
            chunk_size=chunk_size,
        )
        grouped: Dict[int, List[Tuple[int, str]]] = {}
        for ord_, event_id, idx in rows:
            grouped.setdefault(ord_, []).append((event_id, idx))
        result: Dict[BatchKeyId, List[XformMatch]] = {}
        for ord_, key in enumerate(keys):
            encoded = key[3].encode()
            matched = grouped.get(ord_, [])
            exact = [r for r in matched if r[1] == encoded]
            if exact:
                chosen = exact
            else:
                coarser = [r for r in matched if encoded.startswith(r[1])]
                chosen = coarser if coarser else matched
            result[batch_key_id(key)] = [
                XformMatch(event_id=r[0], output_index=Index.decode(r[1]))
                for r in chosen
            ]
        return result

    @sql_primitive(
        BindShape(
            "groups",
            lambda s: s.xform_inputs_many([("R1", (1, 2)), ("R2", (3,))]),
        ),
        hot=True,
    )
    def xform_inputs_many(
        self,
        groups: Sequence[Tuple[str, Sequence[int]]],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, Tuple[int, ...]], List[Binding]]:
        """Input bindings of many event groups in chunked ``IN`` lookups.

        ``groups`` holds ``(run_id, event_ids)`` pairs — the run id only
        scopes the result key (event ids are globally unique, but cache
        layers key event lookups per run; see
        :class:`repro.cache.trace.TraceReadCache`).  All distinct event
        ids across all groups are fetched together, chunked by the
        bound-variable budget (one bind per event id, so key-count
        chunking would be needlessly fine), then regrouped and
        deduplicated per group exactly like :meth:`xform_inputs`.
        """
        if not groups:
            return {}
        unique_events: List[int] = []
        seen_events: Set[int] = set()
        for _run_id, event_ids in groups:
            for event_id in event_ids:
                if event_id not in seen_events:
                    seen_events.add(event_id)
                    unique_events.append(event_id)
        obs = self.obs
        effective_chunk = (
            chunk_size if chunk_size is not None else DEFAULT_BATCH_CHUNK
        )
        by_event: Dict[int, List[Tuple[str, str, str, Optional[str]]]] = {}
        for start in range(0, len(unique_events), _MAX_BOUND_VARS):
            chunk = unique_events[start : start + _MAX_BOUND_VARS]
            placeholders = ",".join("?" for _ in chunk)
            started = time.perf_counter() if obs.enabled else 0.0
            rows = self._read(
                "SELECT t.event_id, t.processor, t.port, t.idx, "
                "COALESCE(t.value_json, vp.value_json) FROM xform_io AS t "
                "LEFT JOIN value_pool vp ON vp.value_id = t.value_id "
                f"WHERE t.event_id IN ({placeholders}) AND t.role = 'in'",
                chunk,
                stats=stats,
            )
            if stats is not None:
                stats.record(len(rows))
                stats.record_batch(len(chunk), effective_chunk)
            if obs.enabled:
                obs.inc("store.batch_lookups")
                obs.observe("store.batch_size", len(chunk))
                obs.observe(
                    "store.batch_seconds", time.perf_counter() - started
                )
            for event_id, node, port, idx, value_json in rows:
                by_event.setdefault(event_id, []).append(
                    (node, port, idx, value_json)
                )
        value_memo: Dict[str, Any] = {}
        result: Dict[Tuple[str, Tuple[int, ...]], List[Binding]] = {}
        for run_id, event_ids in groups:
            merged: List[Tuple[str, str, str, Optional[str]]] = []
            for event_id in event_ids:
                merged.extend(by_event.get(event_id, ()))
            result[(run_id, tuple(event_ids))] = _dedupe_bindings(
                merged, value_memo
            )
        return result

    @sql_primitive(
        BindShape(
            "keys-6", lambda s: s.find_xfer_into_many(_ex_batch_keys())
        ),
        hot=True,
    )
    def find_xfer_into_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Tuple[Binding, Index]]]:
        """Multi-key sibling of :meth:`find_xfer_into`.

        Same continuation rule per key (coarser rows keep the query's
        finer index, finer rows continue with their own), applied after
        the batched fetch — this is the batched *xfer* fallback of the
        level-synchronous NI traversal.
        """
        if not keys:
            return {}
        rows = self._read_values_join(
            keys,
            table="xfer",
            node_col="dst_node",
            port_col="dst_port",
            idx_col="dst_idx",
            role=None,
            select=(
                "t.src_node, t.src_port, t.src_idx, t.dst_idx, "
                "COALESCE(t.value_json, vp.value_json)"
            ),
            with_values=True,
            distinct=False,
            stats=stats,
            chunk_size=chunk_size,
        )
        grouped: Dict[
            int, List[Tuple[str, str, str, str, Optional[str]]]
        ] = {}
        for ord_, src_node, src_port, src_idx, dst_idx, value_json in rows:
            grouped.setdefault(ord_, []).append(
                (src_node, src_port, src_idx, dst_idx, value_json)
            )
        value_memo: Dict[str, Any] = {}
        result: Dict[BatchKeyId, List[Tuple[Binding, Index]]] = {}
        for ord_, key in enumerate(keys):
            index = key[3]
            encoded = index.encode()
            entries: List[Tuple[Binding, Index]] = []
            seen: Set[Tuple[str, str, str]] = set()
            for src_node, src_port, src_idx, dst_idx, value_json in grouped.get(
                ord_, ()
            ):
                if len(dst_idx) <= len(encoded):
                    continue_index = index
                else:
                    continue_index = Index.decode(dst_idx)
                dedupe_key = (src_node, src_port, continue_index.encode())
                if dedupe_key in seen:
                    continue
                seen.add(dedupe_key)
                if value_json is None:
                    value = None
                elif value_json in value_memo:
                    value = value_memo[value_json]
                else:
                    value = value_memo[value_json] = json.loads(value_json)
                entries.append(
                    (
                        Binding(
                            PortRef(src_node, src_port),
                            Index.decode(src_idx),
                            value=value,
                        ),
                        continue_index,
                    )
                )
            result[batch_key_id(key)] = entries
        return result

    @sql_primitive(
        BindShape("miss", lambda s: s.has_binding("R1", "P", "x")),
        hot=True,
    )
    def has_binding(self, run_id: str, node: str, port: str) -> bool:
        """True when any trace row mentions ``node:port`` in ``run_id``."""
        row = self._read_one(
            "SELECT 1 FROM xform_io WHERE run_id = ? AND processor = ? "
            "AND port = ? LIMIT 1",
            (run_id, node, port),
        )
        if row:
            return True
        row = self._read_one(
            "SELECT 1 FROM xfer WHERE run_id = ? AND dst_node = ? "
            "AND dst_port = ? LIMIT 1",
            (run_id, node, port),
        )
        return bool(row)


register_sql_primitive(
    "value_digest_lookup",
    "Interning probe: resolve a payload digest to its value_pool row.",
    (
        BindShape(
            "digest",
            lambda s: s._read(
                "SELECT value_id FROM value_pool WHERE digest = ?", ("",)
            ),
        ),
    ),
)


def _dedupe_bindings(
    rows: Iterable[Tuple[str, str, str, Optional[str]]],
    value_memo: Optional[Dict[str, Any]] = None,
) -> List[Binding]:
    """Unique bindings of ``rows``, preserving first-seen order.

    ``value_memo`` shares decoded payloads across calls: multi-run lookups
    fetch the same JSON text once per run, and decoding it once instead of
    once per row is a large constant-factor win (bindings are treated as
    read-only throughout, so sharing the decoded object is safe — the
    store already shares one payload between xfer source and sink).
    """
    seen = set()
    memo = value_memo if value_memo is not None else {}
    bindings: List[Binding] = []
    for node, port, idx, value_json in rows:
        key = (node, port, idx)
        if key in seen:
            continue
        seen.add(key)
        if value_json is None:
            value = None
        elif value_json in memo:
            value = memo[value_json]
        else:
            value = memo[value_json] = json.loads(value_json)
        bindings.append(
            Binding(PortRef(node, port), Index.decode(idx), value=value)
        )
    return bindings
