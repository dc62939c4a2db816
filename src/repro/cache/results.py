"""Full lineage-result cache — warm repeats with zero store reads.

The heaviest unit of reuse: one entry per answered multi-run lineage
query, keyed by ``(workflow fingerprint, strategy, target binding,
focus set 𝒫, run set)``.  A warm hit rebuilds the complete
:class:`~repro.query.base.MultiRunResult` from the cached snapshot —
no plan execution, no SQL, no ``StoreStats`` movement — which is what
lets repeated multi-run traffic be served at memory speed.

Coherence follows the same generation protocol as the trace cache: the
service captures the scope's generation vector *before* executing the
query and hands it to :meth:`LineageResultCache.put`; a hit is served
only while the store's current vector for the entry's run set compares
equal.  Store-side invalidation listeners evict eagerly (exactly the
entries whose run set contains a bumped run; everything on a global
bump), and the vector check remains as the backstop for entries built
from reads that raced a writer.

Cached answers are rebuilt fresh per hit: new result objects, new
binding lists, zeroed timings, a fresh (all-zero) ``StoreStats`` — so
the object a caller receives is never shared with the cache's own
snapshot.  Binding *payloads* follow the store's read-only contract.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.cache.lru import MISSING, LRUCache, approx_size, bindings_size
from repro.engine.events import Binding
from repro.obs.core import NO_OBS, Observability
from repro.provenance.store import StoreStats, TraceStore
from repro.query.base import LineageQuery, LineageResult, MultiRunResult

#: ``(global generation, per-run generations)`` — see the store docs.
GenerationVector = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class ResultCacheKey:
    """Identity of one cached multi-run lineage answer.

    ``fingerprint`` pins the workflow *definition* (re-registering a
    changed workflow under the same name misses cleanly); ``strategy``
    is the resolved execution strategy (``"auto"`` resolves before the
    key is built, so an auto query warms the concrete strategy's entry).
    Execution mode (sequential/batched/parallel) is deliberately absent:
    all modes produce identical answers, so they share one entry.
    """

    fingerprint: str
    strategy: str
    node: str
    port: str
    index: str
    focus: FrozenSet[str]
    runs: Tuple[str, ...]


class LineageResultCache:
    """Generation-validated LRU of complete multi-run lineage answers."""

    def __init__(
        self,
        store: TraceStore,
        max_entries: int = 256,
        max_bytes: int = 64 * 1024 * 1024,
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
        """Evict exactly the entries a generation bump affects."""
        if run_id is None:
            self._lru.clear()
        else:
            self._lru.invalidate_where(
                lambda key: run_id in key.runs  # type: ignore[attr-defined]
            )
        self._sync_obs()

    def _record(self, hit: bool) -> None:
        with self._counter_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        if self.obs.enabled:
            self.obs.inc(
                "cache.result_hits" if hit else "cache.result_misses"
            )

    def _sync_obs(self) -> None:
        if not self.obs.enabled:
            return
        stats = self._lru.stats()
        self.obs.gauge("cache.result_entries", stats["entries"])
        self.obs.gauge("cache.result_bytes", stats["bytes"])
        with self._counter_lock:
            for name in ("evictions", "invalidations"):
                delta = stats[name] - self._obs_synced[name]
                if delta > 0:
                    self.obs.inc(f"cache.result_{name}", delta)
                    self._obs_synced[name] = stats[name]

    # -- lookup ------------------------------------------------------------

    def get(
        self, key: ResultCacheKey, query: LineageQuery
    ) -> Optional[MultiRunResult]:
        """The cached answer rebuilt as a fresh result, or ``None``."""
        entry = self._lru.get(key)
        if entry is not MISSING:
            generations, snapshot = entry
            if generations == self.store.generation_vector(key.runs):
                self._record(hit=True)
                return self._rebuild(query, snapshot, generations)
            self._lru.discard(key)
        self._record(hit=False)
        self._sync_obs()
        return None

    def probe(self, key: ResultCacheKey) -> bool:
        """True when a currently-valid entry exists (no counters moved).

        The static planner uses this to report a warm result cache in
        ``EXPLAIN`` output without perturbing hit/miss accounting.
        """
        entry = self._lru.peek(key)
        if entry is MISSING:
            return False
        generations, _ = entry
        return generations == self.store.generation_vector(key.runs)

    def put(
        self,
        key: ResultCacheKey,
        result: MultiRunResult,
        generations: GenerationVector,
    ) -> None:
        """Snapshot one freshly computed answer.

        ``generations`` must have been captured *before* the execution
        that produced ``result`` — the conservative ordering that makes
        entries built concurrently with a writer self-invalidate.
        """
        snapshot = tuple(
            (run_id, tuple(run_result.bindings))
            for run_id, run_result in result.per_run.items()
        )
        # Charged flat per binding; one ``seen`` set across the runs
        # charges a value payload shared between runs once.
        seen: set = set()
        size = (
            sys.getsizeof(snapshot)
            + approx_size(generations)
            + sum(
                sys.getsizeof(pair) + sys.getsizeof(pair[0])
                + bindings_size(pair[1], seen)
                for pair in snapshot
            )
        )
        self._lru.put(key, (generations, snapshot), size=size)
        self._sync_obs()

    def _rebuild(
        self,
        query: LineageQuery,
        snapshot: Tuple[Tuple[str, Tuple[Binding, ...]], ...],
        generations: GenerationVector,
    ) -> MultiRunResult:
        per_run = {
            run_id: LineageResult(
                query=query,
                run_id=run_id,
                bindings=list(bindings),
                stats=StoreStats(),
                traversal_seconds=0.0,
                lookup_seconds=0.0,
            )
            for run_id, bindings in snapshot
        }
        return MultiRunResult(
            query=query,
            per_run=per_run,
            traversal_seconds=0.0,
            lookup_seconds=0.0,
            wall_seconds=0.0,
            from_cache=True,
            generations=generations,
        )

    # -- reporting / control ----------------------------------------------

    def clear(self) -> int:
        count = self._lru.clear()
        self._sync_obs()
        return count

    def stats(self) -> Dict[str, int]:
        merged = self._lru.stats()
        with self._counter_lock:
            merged["hits"] = self.hits
            merged["misses"] = self.misses
        return merged
