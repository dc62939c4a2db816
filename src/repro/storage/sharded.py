"""ShardedStore — runs hash-partitioned across N SQLite shard files.

The scale-out storage backend (docs/STORAGE.md): every run lives wholly
in one shard (a plain :class:`~repro.provenance.store.TraceStore` file),
placed by a stable hash of its ``run_id``.  Single-run primitives route
to the owning shard; multi-run and set-based (``*_many``) primitives
**scatter-gather** — the key grid is partitioned per shard, each
partition resolved with the shard's own batched VALUES-join statements,
fanned out over a bounded reader pool, and the keyed results merged.
Because every partial answer is keyed (by run id or batch key), the
merge is order-free and the combined answer is byte-identical to the
single-file backend's — the property suite
``tests/properties/test_prop_shard.py`` proves exactly that.

Layout on disk::

    <path>/                     (the store "path" is a directory)
      manifest.json             shard count, run -> shard map, run order
      shard-000.db ... shard-(N-1).db

The manifest is tiny and advisory: shard placement is re-derivable from
the hash, and on open the manifest is *reconciled* against the shards'
actual run inventories (the ``shard_run_inventory`` SQL primitive), so a
crash between a shard commit and the manifest rewrite self-heals.  Its
real job is recording global ingest order — ``run_ids()`` must report
runs in the order they were inserted across all shards, exactly like the
single-file store's ``ORDER BY rowid``.

Event ids are shard-local SQLite rowids, so the sharded store re-encodes
them before they leave: ``global = local * num_shards + shard_index``.
The id space stays disjoint across shards and ``divmod`` recovers the
owning shard when ``xform_inputs``/``xform_outputs`` (which carry no run
scope) come back with a frontier of event ids.

Write generations compose per shard: the sharded store's global and
membership generations are the *sums* of its shards', per-run
generations delegate to the owning shard, and invalidation listeners are
relayed from every shard — so the PR-4 cache machinery
(:mod:`repro.cache`) works unchanged on top of either backend.

Failure semantics: each shard store retries transient ``SQLITE_BUSY``
under its own bounded :class:`~repro.provenance.store.RetryPolicy`;
once a shard's budget is exhausted (or the shard is closed/missing) the
whole query fails with a :class:`ShardError` naming the shard — never a
partial answer.  The gather loop awaits every outstanding per-shard
future before raising, so no reader-pool slot leaks.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.events import Binding
from repro.obs.core import NO_OBS, Observability
from repro.provenance.faults import FaultInjector
from repro.provenance.store import (
    BatchKey,
    BatchKeyId,
    BindShape,
    CompiledPair,
    RetryPolicy,
    StoreBusyError,
    StoreStats,
    TraceStore,
    XformMatch,
    register_sql_primitive,
)
from repro.provenance.trace import Trace
from repro.values.index import Index

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro.storage/1"
DEFAULT_NUM_SHARDS = 4
#: Upper bound on concurrent per-shard readers in one scatter-gather.
DEFAULT_MAX_READERS = 8

#: The manifest-reconciliation scan (see :meth:`ShardedStore._reconcile`).
#: ``ORDER BY rowid`` is the table's natural scan order, so this is a
#: sort-free full scan — registered so plan lint covers the sharded
#: backend's one piece of SQL that is not already a store primitive.
_INVENTORY_SQL = "SELECT run_id, workflow FROM runs ORDER BY rowid"

register_sql_primitive(
    "shard_run_inventory",
    "Sharded-backend manifest reconciliation: one shard's full run "
    "inventory in ingest (rowid) order.",
    (
        BindShape("all", lambda s: s._read(_INVENTORY_SQL)),
    ),
    scan_ok=True,
)


def shard_index_of(run_id: str, num_shards: int) -> int:
    """Stable hash placement of a run (crc32 — never ``hash()``, which
    is salted per process and would scatter re-opened stores)."""
    return zlib.crc32(run_id.encode("utf-8")) % num_shards


class ShardError(RuntimeError):
    """One shard failed mid-operation; the whole answer is withheld.

    Structured: ``shard`` (index), ``path`` (the shard's database file),
    ``op`` (the primitive that failed) and ``cause`` (the underlying
    exception — a :class:`StoreBusyError` after the bounded retry budget,
    or the SQLite error for a closed/missing shard).
    """

    def __init__(
        self, shard: int, path: str, op: str, cause: BaseException
    ) -> None:
        self.shard = shard
        self.path = path
        self.op = op
        self.cause = cause
        super().__init__(
            f"shard {shard} ({path}) failed during {op}: "
            f"{type(cause).__name__}: {cause}"
        )


#: Errors that identify a sick *shard* (as opposed to a semantic error
#: like an unknown run id, which passes through unchanged).
_SHARD_FAULTS = (StoreBusyError, sqlite3.OperationalError, sqlite3.ProgrammingError)


class ShardedStore:
    """A :class:`~repro.storage.backend.StorageBackend` over N shards.

    ``path=":memory:"`` builds ephemeral in-memory shards (tests);
    any other path names a shard *directory*.  ``num_shards`` is fixed
    at creation and recorded in the manifest — reopening an existing
    directory infers it (passing a conflicting count raises).
    """

    def __init__(
        self,
        path: str = ":memory:",
        num_shards: Optional[int] = None,
        intern_values: bool = False,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
        max_readers: int = DEFAULT_MAX_READERS,
    ) -> None:
        self.path = path
        self.obs = obs if obs is not None else NO_OBS
        self.intern_values = intern_values
        self.retry = retry
        self.faults = faults
        self._is_memory = path == ":memory:"
        self._closed = False
        self._manifest_lock = threading.RLock()
        #: run_id -> shard index (authoritative routing map).
        self._placement: Dict[str, int] = {}
        #: run ids in global ingest order (what run_ids() reports).
        self._order: List[str] = []
        if self._is_memory:
            self.num_shards = num_shards or DEFAULT_NUM_SHARDS
        else:
            self.num_shards = self._load_or_create_manifest(num_shards)
        if self.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        #: The per-shard reference stores, public on purpose: fault
        #: injection, plan lint and maintenance operate per shard.
        self.shards: List[TraceStore] = [
            TraceStore(
                self._shard_path(i),
                intern_values=intern_values,
                retry=retry,
                faults=faults,
                obs=self.obs,
            )
            for i in range(self.num_shards)
        ]
        self._listeners: List[Callable[[Optional[str]], None]] = []
        for shard in self.shards:
            shard.add_invalidation_listener(self._relay_invalidation)
        if not self._is_memory:
            self._reconcile()
        self._pool: Optional[ThreadPoolExecutor] = None
        if self.num_shards > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=min(self.num_shards, max_readers),
                thread_name_prefix="shard-reader",
            )

    # -- manifest ----------------------------------------------------------

    def _shard_path(self, index: int) -> str:
        if self._is_memory:
            return ":memory:"
        return os.path.join(self.path, f"shard-{index:03d}.db")

    def _manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    def _load_or_create_manifest(self, num_shards: Optional[int]) -> int:
        os.makedirs(self.path, exist_ok=True)
        manifest_path = self._manifest_path()
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            if manifest.get("schema") != MANIFEST_SCHEMA:
                raise ValueError(
                    f"unsupported shard manifest schema "
                    f"{manifest.get('schema')!r} at {manifest_path}"
                )
            stored = int(manifest["num_shards"])
            if num_shards is not None and num_shards != stored:
                raise ValueError(
                    f"shard directory {self.path} holds {stored} shard(s); "
                    f"requested {num_shards}"
                )
            self._placement = {
                run: int(idx) for run, idx in manifest.get("runs", {}).items()
            }
            self._order = [
                run for run in manifest.get("order", [])
                if run in self._placement
            ]
            return stored
        resolved = num_shards or DEFAULT_NUM_SHARDS
        self._save_manifest_locked(resolved)
        return resolved

    def _save_manifest_locked(self, num_shards: Optional[int] = None) -> None:
        """Atomically rewrite the manifest (caller holds the lock)."""
        if self._is_memory:
            return
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "num_shards": num_shards or self.num_shards,
            "runs": dict(self._placement),
            "order": list(self._order),
        }
        # The tmp name must be unique per writer: concurrent processes
        # share the directory (WAL-style multi-process ingest is part of
        # the store contract), and a shared ".tmp" would let one
        # writer's rename race another's open.  Last manifest wins;
        # reconcile-on-open heals any gap from the shards themselves.
        tmp = f"{self._manifest_path()}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self._manifest_path())

    def _reconcile(self) -> None:
        """Sync the manifest with the shards' actual run inventories.

        A crash between a shard commit and the manifest rewrite leaves
        the two out of step; the shards are the ground truth.  Runs
        present in a shard but missing from the manifest are appended
        (in shard order), manifest entries whose run vanished are
        dropped.
        """
        with self._manifest_lock:
            live: Dict[str, int] = {}
            for index, shard in enumerate(self.shards):
                rows = self._guard(
                    index, "shard_run_inventory",
                    lambda s=shard: s._read(_INVENTORY_SQL),
                )
                for run_id, _workflow in rows:
                    live[run_id] = index
            dirty = set(self._placement) != set(live)
            self._placement = live
            self._order = [r for r in self._order if r in live]
            known = set(self._order)
            for run_id in live:
                if run_id not in known:
                    self._order.append(run_id)
            if dirty or len(self._order) != len(live):
                self._save_manifest_locked()

    # -- routing -----------------------------------------------------------

    def shard_of(self, run_id: str) -> int:
        """The index of the shard holding (or destined to hold) a run."""
        with self._manifest_lock:
            placed = self._placement.get(run_id)
        if placed is not None:
            return placed
        return shard_index_of(run_id, self.num_shards)

    def _shard(self, run_id: str) -> Tuple[int, TraceStore]:
        index = self.shard_of(run_id)
        return index, self.shards[index]

    def _guard(self, index: int, op: str, thunk: Callable[[], Any]) -> Any:
        try:
            return thunk()
        except _SHARD_FAULTS as exc:
            raise ShardError(
                index, self._shard_path(index), op, exc
            ) from exc

    def _scatter(
        self, op: str, calls: Sequence[Tuple[int, Callable[[], Any]]]
    ) -> List[Any]:
        """Run per-shard thunks, returning results in submission order.

        One shard: inline, no pool.  Many: fan out, then **drain every
        future** before surfacing the first failure — no partial answers
        escape and no pool slot is left running unobserved.
        """
        if not calls:
            return []
        if len(calls) == 1 or self._pool is None:
            return [
                self._guard(index, op, thunk) for index, thunk in calls
            ]
        with self.obs.span(
            "store.shard_fanout", op=op, shards=len(calls)
        ) as span:
            futures = [
                (index, self._pool.submit(self._guard, index, op, thunk))
                for index, thunk in calls
            ]
            results: List[Any] = []
            first_error: Optional[BaseException] = None
            for _index, future in futures:
                try:
                    results.append(future.result())
                except ShardError as exc:
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
            span.set(merged=len(results))
            return results

    # -- event-id translation ----------------------------------------------

    def _encode_event(self, shard: int, local_id: int) -> int:
        return local_id * self.num_shards + shard

    def _decode_events(
        self, event_ids: Sequence[int]
    ) -> List[Tuple[int, List[int]]]:
        """Group global event ids by owning shard, preserving order."""
        grouped: Dict[int, List[int]] = {}
        order: List[int] = []
        for event_id in event_ids:
            local, shard = divmod(event_id, self.num_shards)
            if shard not in grouped:
                grouped[shard] = []
                order.append(shard)
            grouped[shard].append(local)
        return [(shard, grouped[shard]) for shard in order]

    @staticmethod
    def _merge_bindings(parts: Sequence[List[Binding]]) -> List[Binding]:
        """Concatenate per-shard binding lists, re-deduplicating on the
        same ``(node, port, index)`` key order the single-file path uses."""
        if len(parts) == 1:
            return parts[0]
        seen: Set[Tuple[str, str, str]] = set()
        merged: List[Binding] = []
        for part in parts:
            for binding in part:
                key = binding.key()
                if key in seen:
                    continue
                seen.add(key)
                merged.append(binding)
        return merged

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- write-generation coherence tokens ----------------------------------

    def _relay_invalidation(self, run_id: Optional[str]) -> None:
        with self._manifest_lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(run_id)

    def add_invalidation_listener(
        self, listener: Callable[[Optional[str]], None]
    ) -> None:
        with self._manifest_lock:
            self._listeners.append(listener)

    def generation(self, run_id: str) -> int:
        _index, shard = self._shard(run_id)
        return shard.generation(run_id)

    @property
    def global_generation(self) -> int:
        # Sums of monotonic per-shard counters are themselves monotonic,
        # which is all the cache's compare-for-equality protocol needs.
        return sum(shard.global_generation for shard in self.shards)

    @property
    def membership_generation(self) -> int:
        return sum(shard.membership_generation for shard in self.shards)

    def membership_token(self, timeout: float = 0.0) -> Optional[int]:
        """Sum of the shards' tokens; ``None`` while any shard deletes.

        A delete in flight on a shard read before or after it shows as
        ``None`` or as a moved sum, so the single-file seqlock holds
        across shards.
        """
        deadline = time.monotonic() + timeout
        total = 0
        for shard in self.shards:
            token = shard.membership_token(
                max(0.0, deadline - time.monotonic())
            )
            if token is None:
                return None
            total += token
        return total

    def generation_vector(
        self, run_ids: Sequence[str]
    ) -> Tuple[int, Tuple[int, ...]]:
        return (
            self.global_generation,
            tuple(self.generation(run_id) for run_id in run_ids),
        )

    def bump_run_generation(
        self, run_id: str, membership: bool = False
    ) -> None:
        _index, shard = self._shard(run_id)
        shard.bump_run_generation(run_id, membership=membership)

    def bump_global_generation(self) -> None:
        self.shards[0].bump_global_generation()

    # -- ingest and metadata -------------------------------------------------

    def has_run(self, run_id: str) -> bool:
        index, shard = self._shard(run_id)
        return self._guard(index, "has_run", lambda: shard.has_run(run_id))

    def insert_trace(self, trace: Trace) -> None:
        index, shard = self._shard(trace.run_id)
        self._guard(
            index, "insert_trace", lambda: shard.insert_trace(trace)
        )
        with self._manifest_lock:
            self._placement[trace.run_id] = index
            if trace.run_id not in self._order:
                self._order.append(trace.run_id)
            self._save_manifest_locked()

    def delete_run(self, run_id: str) -> None:
        index, shard = self._shard(run_id)
        self._guard(index, "delete_run", lambda: shard.delete_run(run_id))
        with self._manifest_lock:
            self._placement.pop(run_id, None)
            if run_id in self._order:
                self._order.remove(run_id)
            self._save_manifest_locked()

    def load_trace(self, run_id: str) -> Trace:
        index, shard = self._shard(run_id)
        return self._guard(
            index, "load_trace", lambda: shard.load_trace(run_id)
        )

    def run_ids(self, workflow: Optional[str] = None) -> List[str]:
        """All stored run ids in global ingest order (manifest order)."""
        parts = self._scatter(
            "run_ids",
            [
                (index, lambda s=shard: s.run_ids(workflow))
                for index, shard in enumerate(self.shards)
            ],
        )
        with self._manifest_lock:
            position = {run: i for i, run in enumerate(self._order)}
        runs = [run for part in parts for run in part]
        runs.sort(key=lambda run: position.get(run, len(position)))
        return runs

    def record_count(self, run_id: Optional[str] = None) -> int:
        if run_id is not None:
            index, shard = self._shard(run_id)
            return self._guard(
                index, "record_count", lambda: shard.record_count(run_id)
            )
        parts = self._scatter(
            "record_count",
            [
                (index, lambda s=shard: s.record_count())
                for index, shard in enumerate(self.shards)
            ],
        )
        return sum(parts)

    def statistics(self) -> Dict[str, Any]:
        """Single-file totals plus the per-shard rollup.

        The flat keys (``runs`` .. ``records``) sum across shards so
        existing consumers read the same shape either way; ``shards``
        carries each shard's own counts and ``num_shards`` the fan-out.
        """
        parts = self._scatter(
            "statistics",
            [
                (index, lambda s=shard: s.statistics())
                for index, shard in enumerate(self.shards)
            ],
        )
        totals: Dict[str, Any] = {}
        per_shard = []
        for index, stats in enumerate(parts):
            per_shard.append(
                {"shard": index, "path": self._shard_path(index), **stats}
            )
            for name, value in stats.items():
                totals[name] = totals.get(name, 0) + value
        totals["num_shards"] = self.num_shards
        totals["shards"] = per_shard
        return totals

    # -- index management and audit seams ------------------------------------

    def drop_indexes(self) -> None:
        for index, shard in enumerate(self.shards):
            self._guard(index, "drop_indexes", shard.drop_indexes)

    def create_indexes(self) -> None:
        for index, shard in enumerate(self.shards):
            self._guard(index, "create_indexes", shard.create_indexes)

    def has_indexes(self) -> bool:
        return all(
            self._guard(index, "has_indexes", shard.has_indexes)
            for index, shard in enumerate(self.shards)
        )

    def set_statement_audit(
        self, callback: Optional[Callable[[str], Any]]
    ) -> None:
        for shard in self.shards:
            shard.set_statement_audit(callback)

    # -- lookup primitives (single-run: route to the owning shard) -----------

    def find_xform_by_output(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[XformMatch]:
        shard_index, shard = self._shard(run_id)
        matches = self._guard(
            shard_index, "find_xform_by_output",
            lambda: shard.find_xform_by_output(
                run_id, node, port, index, stats=stats
            ),
        )
        return [
            XformMatch(
                event_id=self._encode_event(shard_index, m.event_id),
                output_index=m.output_index,
            )
            for m in matches
        ]

    def find_xform_by_input(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[XformMatch]:
        shard_index, shard = self._shard(run_id)
        matches = self._guard(
            shard_index, "find_xform_by_input",
            lambda: shard.find_xform_by_input(
                run_id, node, port, index, stats=stats
            ),
        )
        return [
            XformMatch(
                event_id=self._encode_event(shard_index, m.event_id),
                output_index=m.output_index,
            )
            for m in matches
        ]

    def xform_inputs(
        self,
        event_ids: Sequence[int],
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        if not event_ids:
            return []
        calls = [
            (shard, lambda s=self.shards[shard], ids=locals_: s.xform_inputs(
                ids, stats=stats
            ))
            for shard, locals_ in self._decode_events(event_ids)
        ]
        return self._merge_bindings(self._scatter("xform_inputs", calls))

    def xform_outputs(
        self,
        event_ids: Sequence[int],
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        if not event_ids:
            return []
        calls = [
            (shard, lambda s=self.shards[shard], ids=locals_: s.xform_outputs(
                ids, stats=stats
            ))
            for shard, locals_ in self._decode_events(event_ids)
        ]
        return self._merge_bindings(self._scatter("xform_outputs", calls))

    def find_xform_inputs_matching(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        shard_index, shard = self._shard(run_id)
        return self._guard(
            shard_index, "find_xform_inputs_matching",
            lambda: shard.find_xform_inputs_matching(
                run_id, node, port, index, stats=stats
            ),
        )

    def find_xfer_into(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple[Binding, Index]]:
        shard_index, shard = self._shard(run_id)
        return self._guard(
            shard_index, "find_xfer_into",
            lambda: shard.find_xfer_into(
                run_id, node, port, index, stats=stats
            ),
        )

    def find_xfer_from(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple[Binding, Index]]:
        shard_index, shard = self._shard(run_id)
        return self._guard(
            shard_index, "find_xfer_from",
            lambda: shard.find_xfer_from(
                run_id, node, port, index, stats=stats
            ),
        )

    def find_xform_outputs_matching_pattern(
        self,
        run_id: str,
        node: str,
        port: str,
        pattern: Any,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        shard_index, shard = self._shard(run_id)
        return self._guard(
            shard_index, "find_xform_outputs_matching_pattern",
            lambda: shard.find_xform_outputs_matching_pattern(
                run_id, node, port, pattern, stats=stats
            ),
        )

    def has_binding(self, run_id: str, node: str, port: str) -> bool:
        shard_index, shard = self._shard(run_id)
        return self._guard(
            shard_index, "has_binding",
            lambda: shard.has_binding(run_id, node, port),
        )

    # -- multi-run and set-based primitives (scatter-gather) -----------------

    def _partition_runs(
        self, run_ids: Sequence[str]
    ) -> List[Tuple[int, List[str]]]:
        grouped: Dict[int, List[str]] = {}
        order: List[int] = []
        for run_id in run_ids:
            index = self.shard_of(run_id)
            if index not in grouped:
                grouped[index] = []
                order.append(index)
            grouped[index].append(run_id)
        return [(index, grouped[index]) for index in order]

    def _partition_keys(
        self, keys: Sequence[BatchKey]
    ) -> List[Tuple[int, List[BatchKey]]]:
        grouped: Dict[int, List[BatchKey]] = {}
        order: List[int] = []
        for key in keys:
            index = self.shard_of(key[0])
            if index not in grouped:
                grouped[index] = []
                order.append(index)
            grouped[index].append(key)
        return [(index, grouped[index]) for index in order]

    def find_xform_inputs_matching_multi(
        self,
        run_ids: Sequence[str],
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> Dict[str, List[Binding]]:
        if not run_ids:
            return {}
        calls = [
            (
                shard_index,
                lambda s=self.shards[shard_index], runs=runs:
                s.find_xform_inputs_matching_multi(
                    runs, node, port, index, stats=stats
                ),
            )
            for shard_index, runs in self._partition_runs(run_ids)
        ]
        merged: Dict[str, List[Binding]] = {}
        for part in self._scatter("find_xform_inputs_matching_multi", calls):
            merged.update(part)
        return merged

    def find_xform_inputs_matching_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Binding]]:
        if not keys:
            return {}
        calls = [
            (
                shard_index,
                lambda s=self.shards[shard_index], part=part:
                s.find_xform_inputs_matching_many(
                    part, stats=stats, chunk_size=chunk_size
                ),
            )
            for shard_index, part in self._partition_keys(keys)
        ]
        merged: Dict[BatchKeyId, List[Binding]] = {}
        for part in self._scatter("find_xform_inputs_matching_many", calls):
            merged.update(part)
        return merged

    def find_xform_inputs_matching_compiled(
        self,
        pairs: Sequence[CompiledPair],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Binding]]:
        """Compiled grid, sharded: the run id (the only late-bound value
        of a compiled pair) routes each key to its shard; each shard
        executes its sub-grid against its own prepared statements."""
        if not pairs:
            return {}
        grouped: Dict[int, List[CompiledPair]] = {}
        order: List[int] = []
        for pair in pairs:
            index = self.shard_of(pair[0])
            if index not in grouped:
                grouped[index] = []
                order.append(index)
            grouped[index].append(pair)
        calls = [
            (
                shard_index,
                lambda s=self.shards[shard_index], part=grouped[shard_index]:
                s.find_xform_inputs_matching_compiled(
                    part, stats=stats, chunk_size=chunk_size
                ),
            )
            for shard_index in order
        ]
        merged: Dict[BatchKeyId, List[Binding]] = {}
        for part in self._scatter("find_xform_inputs_matching_compiled", calls):
            merged.update(part)
        return merged

    def find_xform_by_output_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[XformMatch]]:
        if not keys:
            return {}
        partitions = self._partition_keys(keys)
        calls = [
            (
                shard_index,
                lambda s=self.shards[shard_index], part=part:
                s.find_xform_by_output_many(
                    part, stats=stats, chunk_size=chunk_size
                ),
            )
            for shard_index, part in partitions
        ]
        merged: Dict[BatchKeyId, List[XformMatch]] = {}
        for (shard_index, _part), result in zip(
            partitions, self._scatter("find_xform_by_output_many", calls)
        ):
            for key_id, matches in result.items():
                merged[key_id] = [
                    XformMatch(
                        event_id=self._encode_event(shard_index, m.event_id),
                        output_index=m.output_index,
                    )
                    for m in matches
                ]
        return merged

    def xform_inputs_many(
        self,
        groups: Sequence[Tuple[str, Sequence[int]]],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, Tuple[int, ...]], List[Binding]]:
        if not groups:
            return {}
        # Decompose each (run, events) group into per-shard sub-groups of
        # local ids.  Runs live wholly in one shard, so in practice each
        # group maps to exactly one sub-group; the general path below
        # still merges correctly if ids ever straddle shards.
        per_shard: Dict[int, List[Tuple[str, Tuple[int, ...]]]] = {}
        shard_order: List[int] = []
        decomposed: List[
            Tuple[str, Tuple[int, ...], List[Tuple[int, Tuple[int, ...]]]]
        ] = []
        for run_id, event_ids in groups:
            subs = [
                (shard, tuple(locals_))
                for shard, locals_ in self._decode_events(event_ids)
            ]
            decomposed.append((run_id, tuple(event_ids), subs))
            for shard, locals_ in subs:
                if shard not in per_shard:
                    per_shard[shard] = []
                    shard_order.append(shard)
                per_shard[shard].append((run_id, locals_))
        calls = [
            (
                shard,
                lambda s=self.shards[shard], gs=per_shard[shard]:
                s.xform_inputs_many(gs, stats=stats, chunk_size=chunk_size),
            )
            for shard in shard_order
        ]
        shard_results = dict(
            zip(shard_order, self._scatter("xform_inputs_many", calls))
        )
        result: Dict[Tuple[str, Tuple[int, ...]], List[Binding]] = {}
        for run_id, original_ids, subs in decomposed:
            parts = [
                shard_results[shard][(run_id, locals_)]
                for shard, locals_ in subs
            ]
            result[(run_id, original_ids)] = (
                self._merge_bindings(parts) if parts else []
            )
        return result

    def find_xfer_into_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Tuple[Binding, Index]]]:
        if not keys:
            return {}
        calls = [
            (
                shard_index,
                lambda s=self.shards[shard_index], part=part:
                s.find_xfer_into_many(
                    part, stats=stats, chunk_size=chunk_size
                ),
            )
            for shard_index, part in self._partition_keys(keys)
        ]
        merged: Dict[BatchKeyId, List[Tuple[Binding, Index]]] = {}
        for part in self._scatter("find_xfer_into_many", calls):
            merged.update(part)
        return merged


def open_store(
    path: str,
    shards: Optional[int] = None,
    intern_values: bool = False,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
    obs: Optional[Observability] = None,
) -> Any:
    """Open the right backend for ``path``.

    ``shards`` forces a :class:`ShardedStore`; without it, an existing
    shard directory (one holding a ``manifest.json``) reopens sharded
    and anything else opens the single-file reference backend.
    """
    if shards is not None:
        return ShardedStore(
            path, num_shards=shards, intern_values=intern_values,
            retry=retry, faults=faults, obs=obs,
        )
    if path != ":memory:" and os.path.isdir(path) and os.path.exists(
        os.path.join(path, MANIFEST_NAME)
    ):
        return ShardedStore(
            path, intern_values=intern_values, retry=retry,
            faults=faults, obs=obs,
        )
    return TraceStore(
        path, intern_values=intern_values, retry=retry,
        faults=faults, obs=obs,
    )
