"""TraceQuery lookup cache — memoized s2 store reads.

INDEXPROJ's execution step (s2) issues one indexed lookup per planned
:class:`~repro.query.indexproj.TraceQuery` per run; NI's traversal
issues one or two per visited binding.  Repeated queries over the same
runs repeat those exact lookups — the paper's Section 3.4 observation
("work done for one query should be reused across the many queries that
share a workflow") applied to the *trace* side rather than the plan
side.  This cache memoizes the store's lookup primitives per
``(primitive, run, processor, port, index)`` key.

Coherence is generation-based: every entry captures the owning run's
generation vector *before* the read it caches (so a write racing the
read can only make the entry conservatively stale, never wrong), and a
hit is only served while the vector still compares equal.  The store
additionally pushes eager evictions through its invalidation-listener
hook, so entries for rewritten runs do not linger in the LRU.

A cache hit costs zero store accesses: neither the ``StoreStats`` of
the running query nor the ``store.*`` observability counters move.
Returned lists are fresh per call; the bindings inside them follow the
store's existing read-only payload contract.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.lru import MISSING, LRUCache, approx_size, bindings_size
from repro.engine.events import Binding
from repro.obs.core import NO_OBS, Observability
from repro.provenance.store import (
    CompiledPair,
    StoreStats,
    TraceStore,
    XformMatch,
    batch_key_id,
    compiled_pair_id,
)
from repro.values.index import Index


#: Bytes an entry charges around its payload: the ``(generations,
#: payload)`` pair and a one-run generation vector.
_ENTRY_BYTES = approx_size(((0, (0,)), ())) - approx_size(())


class TraceReadCache:
    """Generation-validated memoization of :class:`TraceStore` lookups.

    Exposes the same lookup signatures as the store (plus a leading
    ``run_id`` on :meth:`xform_inputs`, which the store keys by event id
    alone — event ids may be reused after a run is deleted, so the cache
    must scope them to the run's generation).  Engines treat an instance
    as a drop-in reader in front of the store.
    """

    def __init__(
        self,
        store: TraceStore,
        max_entries: int = 4096,
        max_bytes: int = 32 * 1024 * 1024,
        obs: Optional[Observability] = None,
    ) -> None:
        self.store = store
        self.obs = obs if obs is not None else NO_OBS
        self._lru = LRUCache(max_entries=max_entries, max_bytes=max_bytes)
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._obs_synced: Dict[str, int] = {"evictions": 0, "invalidations": 0}
        store.add_invalidation_listener(self._on_generation_bump)

    # -- coherence ---------------------------------------------------------

    def _on_generation_bump(self, run_id: Optional[str]) -> None:
        """Eagerly evict entries the bumped generation invalidated."""
        if run_id is None:
            self._lru.clear()
        else:
            self._lru.invalidate_where(lambda key: key[1] == run_id)
        self._sync_obs()

    def _record(self, hits: int, misses: int) -> None:
        with self._counter_lock:
            self.hits += hits
            self.misses += misses
        if self.obs.enabled:
            if hits:
                self.obs.inc("cache.trace_hits", hits)
            if misses:
                self.obs.inc("cache.trace_misses", misses)

    def _put(
        self, key: Tuple[Any, ...], generations: Any, payload: Tuple[Any, ...]
    ) -> None:
        self._lru.put(
            key,
            (generations, payload),
            size=_ENTRY_BYTES + bindings_size(payload),
        )

    def _sync_obs(self) -> None:
        if not self.obs.enabled:
            return
        stats = self._lru.stats()
        self.obs.gauge("cache.trace_entries", stats["entries"])
        self.obs.gauge("cache.trace_bytes", stats["bytes"])
        with self._counter_lock:
            for name in ("evictions", "invalidations"):
                delta = stats[name] - self._obs_synced[name]
                if delta > 0:
                    self.obs.inc(f"cache.trace_{name}", delta)
                    self._obs_synced[name] = stats[name]

    def _lookup(
        self,
        key: Tuple[Any, ...],
        run_id: str,
        fetch: Callable[[], Sequence[Any]],
    ) -> List[Any]:
        entry = self._lru.get(key)
        if entry is not MISSING:
            generations, payload = entry
            if generations == self.store.generation_vector((run_id,)):
                self._record(1, 0)
                return list(payload)
            # Stale under the current generation vector: drop and refetch.
            self._lru.discard(key)
        self._record(0, 1)
        # Capture *before* the read: a write landing mid-read leaves the
        # entry tagged with the older vector, so the next validation
        # refuses it — conservative, never incoherent.
        generations = self.store.generation_vector((run_id,))
        payload = tuple(fetch())
        self._put(key, generations, payload)
        self._sync_obs()
        return list(payload)

    # -- INDEXPROJ primitives ---------------------------------------------

    def find_xform_inputs_matching(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        """Memoized ``Q(P, X_i, p_i)`` — the s2 lookup of Alg. 2."""
        key = ("xform_in_match", run_id, node, port, index.encode())
        with self.obs.span(
            "cache.trace_lookup", run=run_id, node=node, port=port,
        ) as span:
            fetched: List[bool] = []

            def fetch() -> List[Binding]:
                fetched.append(True)
                return self.store.find_xform_inputs_matching(
                    run_id, node, port, index, stats
                )

            result = self._lookup(key, run_id, fetch)
            span.set(warm=not fetched, rows=len(result))
        return result

    def find_xform_inputs_matching_multi(
        self,
        run_ids: Sequence[str],
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> Dict[str, List[Binding]]:
        """Batched variant sharing keys with the per-run path.

        Warm runs are answered from cache; only the misses go to the
        store (in one ``run_id IN (...)`` round-trip), so a mixed scope
        costs exactly one SQL query however many runs are already warm.
        """
        resolved: Dict[str, List[Binding]] = {}
        encoded = index.encode()
        probes = [
            (("xform_in_match", run_id, node, port, encoded), run_id)
            for run_id in run_ids
        ]
        hits, miss_ords = self.get_many(probes)
        for ord_, payload in hits.items():
            if payload:
                resolved[probes[ord_][1]] = list(payload)
        missing = [probes[ord_][1] for ord_ in miss_ords]
        if missing:
            captured = {
                run_id: self.store.generation_vector((run_id,))
                for run_id in missing
            }
            fetched = self.store.find_xform_inputs_matching_multi(
                missing, node, port, index, stats
            )
            for run_id in missing:
                bindings = fetched.get(run_id, [])
                key = ("xform_in_match", run_id, node, port, encoded)
                self._put(key, captured[run_id], tuple(bindings))
                if bindings:
                    resolved[run_id] = list(bindings)
            self._sync_obs()
        return resolved

    # -- NI primitives -----------------------------------------------------

    def find_xform_by_output(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[XformMatch]:
        key = ("xform_by_out", run_id, node, port, index.encode())
        return self._lookup(
            key,
            run_id,
            lambda: self.store.find_xform_by_output(
                run_id, node, port, index, stats
            ),
        )

    def xform_inputs(
        self,
        run_id: str,
        event_ids: Sequence[int],
        stats: Optional[StoreStats] = None,
    ) -> List[Binding]:
        key = ("xform_inputs", run_id, tuple(event_ids))
        return self._lookup(
            key,
            run_id,
            lambda: self.store.xform_inputs(event_ids, stats),
        )

    def find_xfer_into(
        self,
        run_id: str,
        node: str,
        port: str,
        index: Index,
        stats: Optional[StoreStats] = None,
    ) -> List[Tuple[Binding, Index]]:
        key = ("xfer_into", run_id, node, port, index.encode())
        return self._lookup(
            key,
            run_id,
            lambda: self.store.find_xfer_into(run_id, node, port, index, stats),
        )

    # -- set-based (batched) lookups ---------------------------------------

    def get_many(
        self,
        probes: Sequence[Tuple[Tuple[Any, ...], str]],
    ) -> Tuple[Dict[int, Tuple[Any, ...]], List[int]]:
        """Probe many ``(lru_key, run_id)`` pairs at once.

        Returns ``(hits, miss_ordinals)``: ``hits`` maps the probe's
        position to its still-coherent payload, ``miss_ordinals`` lists
        the positions whose entries were absent or stale (stale entries
        are discarded here).  Generation vectors are looked up once per
        distinct run, not once per probe — a batched frontier touches
        the same few runs hundreds of times.
        """
        vectors: Dict[str, Any] = {}
        hits: Dict[int, Tuple[Any, ...]] = {}
        misses: List[int] = []
        entries = self._lru.get_many([key for key, _ in probes])
        for ord_, entry in enumerate(entries):
            if entry is not MISSING:
                generations, payload = entry
                run_id = probes[ord_][1]
                if run_id not in vectors:
                    vectors[run_id] = self.store.generation_vector((run_id,))
                if generations == vectors[run_id]:
                    hits[ord_] = payload
                    continue
                self._lru.discard(probes[ord_][0])
            misses.append(ord_)
        self._record(len(hits), len(misses))
        return hits, misses

    def put_many(
        self,
        entries: Sequence[Tuple[Tuple[Any, ...], Any, Tuple[Any, ...]]],
    ) -> None:
        """Backfill ``(lru_key, generation_vector, payload)`` entries.

        The vector must have been captured *before* the batched fetch
        that produced the payloads (same conservative rule as the
        single-key path: a racing write leaves the entry tagged older
        than the store, so validation refuses it).
        """
        for key, generations, payload in entries:
            self._put(key, generations, payload)
        self._sync_obs()

    def _lookup_many(
        self,
        tag: str,
        keys: Sequence[Any],
        fetch_missing: Callable[
            [List[Any]], Dict[Tuple[str, str, str, str], Sequence[Any]],
        ],
        key_id: Callable[[Any], Tuple[str, str, str, str]] = batch_key_id,
    ) -> Dict[Tuple[str, str, str, str], List[Any]]:
        """Shared hit/miss split for the batched lookup wrappers.

        Serves warm keys from memory, fetches only the misses through
        ``fetch_missing`` (one chunked batch), and backfills them under
        generation vectors captured per run *before* the fetch.
        ``key_id`` maps a key to its ``(run_id, node, port, encoded
        index)`` identity; LRU keys are byte-identical to the single-key
        wrappers', so a cache warmed by one path serves the other.
        """
        ids = [key_id(key) for key in keys]
        probes = [((tag, *ident), ident[0]) for ident in ids]
        hits, miss_ords = self.get_many(probes)
        result: Dict[Tuple[str, str, str, str], List[Any]] = {}
        for ord_, payload in hits.items():
            result[ids[ord_]] = list(payload)
        if miss_ords:
            captured: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
            for ord_ in miss_ords:
                run_id = ids[ord_][0]
                if run_id not in captured:
                    captured[run_id] = self.store.generation_vector((run_id,))
            fetched = fetch_missing([keys[ord_] for ord_ in miss_ords])
            entries: List[Tuple[Tuple[Any, ...], Any, Tuple[Any, ...]]] = []
            for ord_ in miss_ords:
                ident = ids[ord_]
                payload = tuple(fetched[ident])
                entries.append((probes[ord_][0], captured[ident[0]], payload))
                result[ident] = list(payload)
            self.put_many(entries)
        return result

    def find_xform_inputs_matching_many(
        self,
        keys: Sequence[Tuple[str, str, str, Index]],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, str, str, str], List[Binding]]:
        """Batched s2 grid lookup: hits from memory, misses in one batch."""
        return self._lookup_many(
            "xform_in_match",
            keys,
            lambda missing: self.store.find_xform_inputs_matching_many(
                missing, stats, chunk_size=chunk_size
            ),
        )

    def find_xform_inputs_matching_compiled(
        self,
        pairs: Sequence[CompiledPair],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, str, str, str], List[Binding]]:
        """Compiled-grid lookup sharing entries with the interpreted paths.

        The compiled lookup already carries the encoded fragment, so no
        re-encoding happens here; misses go to the store's compiled
        primitive in one batch.
        """
        return self._lookup_many(
            "xform_in_match",
            pairs,
            lambda missing: self.store.find_xform_inputs_matching_compiled(
                missing, stats, chunk_size=chunk_size
            ),
            key_id=compiled_pair_id,
        )

    def find_xform_by_output_many(
        self,
        keys: Sequence[Tuple[str, str, str, Index]],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, str, str, str], List[XformMatch]]:
        return self._lookup_many(
            "xform_by_out",
            keys,
            lambda missing: self.store.find_xform_by_output_many(
                missing, stats, chunk_size=chunk_size
            ),
        )

    def find_xfer_into_many(
        self,
        keys: Sequence[Tuple[str, str, str, Index]],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, str, str, str], List[Tuple[Binding, Index]]]:
        return self._lookup_many(
            "xfer_into",
            keys,
            lambda missing: self.store.find_xfer_into_many(
                missing, stats, chunk_size=chunk_size
            ),
        )

    def xform_inputs_many(
        self,
        groups: Sequence[Tuple[str, Sequence[int]]],
        stats: Optional[StoreStats] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[Tuple[str, Tuple[int, ...]], List[Binding]]:
        """Batched event-input fetch, keyed like :meth:`xform_inputs`."""
        probes = [
            (("xform_inputs", run_id, tuple(event_ids)), run_id)
            for run_id, event_ids in groups
        ]
        hits, miss_ords = self.get_many(probes)
        result: Dict[Tuple[str, Tuple[int, ...]], List[Binding]] = {}
        for ord_, payload in hits.items():
            run_id, event_ids = groups[ord_]
            result[(run_id, tuple(event_ids))] = list(payload)
        if miss_ords:
            captured: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
            for ord_ in miss_ords:
                run_id = groups[ord_][0]
                if run_id not in captured:
                    captured[run_id] = self.store.generation_vector((run_id,))
            missing = [
                (groups[ord_][0], tuple(groups[ord_][1])) for ord_ in miss_ords
            ]
            fetched = self.store.xform_inputs_many(
                missing, stats, chunk_size=chunk_size
            )
            entries: List[Tuple[Tuple[Any, ...], Any, Tuple[Any, ...]]] = []
            for ord_ in miss_ords:
                run_id, event_ids = groups[ord_]
                group_key = (run_id, tuple(event_ids))
                payload = tuple(fetched[group_key])
                entries.append((probes[ord_][0], captured[run_id], payload))
                result[group_key] = list(payload)
            self.put_many(entries)
        return result

    # -- reporting / control ----------------------------------------------

    def clear(self) -> int:
        count = self._lru.clear()
        self._sync_obs()
        return count

    def stats(self) -> Dict[str, int]:
        """Validated hit/miss counts plus the LRU's size accounting."""
        merged = self._lru.stats()
        with self._counter_lock:
            merged["hits"] = self.hits
            merged["misses"] = self.misses
        return merged
