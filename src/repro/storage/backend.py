"""StorageBackend — the protocol every trace storage engine satisfies.

The paper remarks that its relational provenance store is
backend-substitutable (the implementation "currently uses MySQL" but
nothing depends on it); this module makes that substitutability explicit
for the reproduction.  :class:`StorageBackend` enumerates the complete
read/write surface the rest of the system is written against — the query
strategies (:mod:`repro.query`), the cache stack (:mod:`repro.cache`),
the service façade (:mod:`repro.service`) and the HTTP server all
consume *only* these members, so any object satisfying the protocol can
be dropped in via ``ProvenanceService(store=...)``.

Two implementations ship:

* :class:`~repro.provenance.store.TraceStore` — the single-file SQLite
  reference backend (re-exported here as :data:`SqliteStore`).
* :class:`~repro.storage.sharded.ShardedStore` — runs hash-partitioned
  across N SQLite shard files, answering multi-run queries by
  scatter-gather over a parallel reader pool (docs/STORAGE.md).

The surface splits into five groups:

==================  ====================================================
group               members
==================  ====================================================
lifecycle           ``close``, ``__enter__``/``__exit__``, ``path``,
                    ``obs``, ``intern_values``
ingest/metadata     ``insert_trace``, ``delete_run``, ``has_run``,
                    ``load_trace``, ``run_ids``, ``record_count``,
                    ``statistics``
coherence tokens    ``generation``, ``global_generation``,
                    ``membership_generation``, ``membership_token``,
                    ``generation_vector``,
                    ``add_invalidation_listener``,
                    ``bump_run_generation``, ``bump_global_generation``
lookup primitives   ``find_xform_by_output(_many)``,
                    ``xform_inputs(_many)``,
                    ``find_xform_inputs_matching(_many)``,
                    ``find_xform_inputs_matching_multi``,
                    ``find_xform_inputs_matching_compiled``,
                    ``find_xfer_into(_many)``, ``find_xform_by_input``,
                    ``xform_outputs``, ``find_xfer_from``,
                    ``find_xform_outputs_matching_pattern``,
                    ``has_binding``
maintenance seams   ``drop_indexes``, ``create_indexes``,
                    ``has_indexes``, ``set_statement_audit``
==================  ====================================================

Not part of the protocol: the private SQL seams (``_conn``, ``_read``,
``_read_guard``) that :mod:`repro.provenance.maintenance`,
:mod:`repro.provenance.streaming` and :mod:`repro.analysis.planlint`
use.  Those callers operate on one SQLite database by design — against a
sharded backend they are applied per shard (``store.shards[i]``).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.engine.events import Binding
from repro.provenance.store import (
    BatchKey,
    BatchKeyId,
    CompiledPair,
    StoreStats,
    TraceStore,
    XformMatch,
)
from repro.provenance.trace import Trace
from repro.values.index import Index

#: The single-file SQLite reference backend, under its protocol-era name.
SqliteStore = TraceStore


@runtime_checkable
class StorageBackend(Protocol):
    """Everything the query/cache/service layers ask of a trace store."""

    path: str
    obs: Any
    intern_values: bool

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None: ...

    def __enter__(self) -> "StorageBackend": ...

    def __exit__(self, *exc_info: Any) -> None: ...

    # -- ingest and metadata ----------------------------------------------

    def insert_trace(self, trace: Trace) -> None: ...

    def delete_run(self, run_id: str) -> None: ...

    def has_run(self, run_id: str) -> bool: ...

    def load_trace(self, run_id: str) -> Trace: ...

    def run_ids(self, workflow: Optional[str] = None) -> List[str]: ...

    def record_count(self, run_id: Optional[str] = None) -> int: ...

    def statistics(self) -> Dict[str, Any]: ...

    # -- write-generation coherence tokens (repro.cache) ------------------

    def generation(self, run_id: str) -> int: ...

    @property
    def global_generation(self) -> int: ...

    @property
    def membership_generation(self) -> int: ...

    def membership_token(self, timeout: float = 0.0) -> Optional[int]: ...

    def generation_vector(
        self, run_ids: Sequence[str]
    ) -> Tuple[int, Tuple[int, ...]]: ...

    def add_invalidation_listener(
        self, listener: Callable[[Optional[str]], None]
    ) -> None: ...

    def bump_run_generation(
        self, run_id: str, membership: bool = False
    ) -> None: ...

    def bump_global_generation(self) -> None: ...

    # -- lookup primitives (backward traversal) ---------------------------

    def find_xform_by_output(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[XformMatch]: ...

    def xform_inputs(
        self,
        event_ids: Sequence[int],
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]: ...

    def find_xform_inputs_matching(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]: ...

    def find_xform_inputs_matching_multi(
        self,
        run_ids: Sequence[str],
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> Dict[str, List[Binding]]: ...

    def find_xfer_into(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple[Binding, Index]]: ...

    # -- lookup primitives (forward / impact traversal) -------------------

    def find_xform_by_input(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[XformMatch]: ...

    def xform_outputs(
        self,
        event_ids: Sequence[int],
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]: ...

    def find_xfer_from(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple[Binding, Index]]: ...

    def find_xform_outputs_matching_pattern(
        self,
        run_id: str,
        node: str,
        port: str,
        pattern: Any,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]: ...

    # -- set-based (batched) lookup primitives ----------------------------

    def find_xform_inputs_matching_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Binding]]: ...

    def find_xform_inputs_matching_compiled(
        self,
        pairs: Sequence[CompiledPair],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Binding]]: ...

    def find_xform_by_output_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[XformMatch]]: ...

    def xform_inputs_many(
        self,
        groups: Sequence[Tuple[str, Sequence[int]]],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, Tuple[int, ...]], List[Binding]]: ...

    def find_xfer_into_many(
        self,
        keys: Sequence[BatchKey],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[BatchKeyId, List[Tuple[Binding, Index]]]: ...

    def has_binding(self, run_id: str, node: str, port: str) -> bool: ...

    # -- index management and audit seams ---------------------------------

    def drop_indexes(self) -> None: ...

    def create_indexes(self) -> None: ...

    def has_indexes(self) -> bool: ...

    def set_statement_audit(
        self, callback: Optional[Callable[[str], Any]]
    ) -> None: ...
