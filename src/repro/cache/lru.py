"""Bounded, thread-safe LRU storage with byte accounting.

The two lineage caches (:mod:`repro.cache.trace`,
:mod:`repro.cache.results`) share this container: an insertion-ordered
map bounded both by entry count and by an approximate byte budget, with
least-recently-used eviction and predicate invalidation.  All mutation
happens under one internal lock, so a cache may be hammered by the
service's reader pool while a writer thread evicts behind it.

Lineage payloads (tuples of bindings, xform matches or
``(binding, index)`` pairs) are charged by :func:`bindings_size`: a flat
per-item constant plus the item's own strings and value, in one pass
over the payload.  Everything else falls back to :func:`approx_size` — a
recursive ``sys.getsizeof`` walk that charges identity-shared objects
once (the store memoizes decoded JSON values across rows, so charging
them once mirrors their real footprint).  Both estimates are
deliberately cheap and approximate; the budget exists to bound memory,
not to measure it.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.events import Binding
from repro.provenance.store import XformMatch
from repro.values.index import Index
from repro.workflow.model import PortRef


def approx_size(obj: Any, _seen: Optional[Set[int]] = None) -> int:
    """Approximate deep size of ``obj`` in bytes (shared objects once)."""
    seen = _seen if _seen is not None else set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj, 64)
    if isinstance(obj, (str, bytes, bytearray, int, float, bool)) or obj is None:
        return size
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += approx_size(key, seen) + approx_size(value, seen)
        return size
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += approx_size(item, seen)
        return size
    # Dataclasses / plain objects: walk their attribute values.
    fields = getattr(obj, "__dict__", None)
    if fields is not None:
        for value in fields.values():
            size += approx_size(value, seen)
        return size
    slots = getattr(type(obj), "__slots__", ())
    for name in slots:
        size += approx_size(getattr(obj, name, None), seen)
    return size


#: Value types charged by ``sys.getsizeof`` alone (no walk, no dedup).
_SCALARS = frozenset({str, bytes, int, float, bool, type(None)})

#: Flat charges, measured once on probe objects.  A binding's own
#: objects are the Binding, its PortRef and two name strings (their
#: lengths are charged per binding); its value is charged per binding
#: and its index once per distinct object, since decoded indexes are
#: shared (``Index.decode``).  A match is an XformMatch and its int, a
#: pair the tuple of a ``(binding, index)`` item.
_INDEX_BYTES = approx_size(Index())
_BINDING_BYTES = (
    approx_size(Binding(PortRef("n", "p"), Index()))
    - len("n") - len("p") - _INDEX_BYTES - sys.getsizeof(None)
)
_MATCH_BYTES = approx_size(XformMatch(0, Index())) - _INDEX_BYTES
_PAIR_BYTES = sys.getsizeof((None, None))


def bindings_size(
    bindings: Sequence[Any], seen: Optional[Set[int]] = None
) -> int:
    """Approximate size of a lineage payload in bytes, in O(items).

    ``bindings`` holds :class:`Binding` objects, :class:`XformMatch`
    objects or ``(Binding, Index)`` pairs.  Each binding costs a flat
    constant plus its node and port name lengths plus its value:
    ``sys.getsizeof`` for scalars and strings, :func:`approx_size` for a
    container.  Indexes and containers are charged once per distinct
    object; ``seen`` carries the identities already charged, so a
    caller may share it across payloads.
    """
    if seen is None:
        seen = set()
    size = sys.getsizeof(bindings)
    for item in bindings:
        kind = type(item)
        if kind is XformMatch:
            size += _MATCH_BYTES
            index = item.output_index
        else:
            if kind is tuple:
                size += _PAIR_BYTES
                index = item[1]
                if id(index) not in seen:
                    seen.add(id(index))
                    size += _INDEX_BYTES
                item = item[0]
            elif kind is not Binding:
                size += approx_size(item, seen)
                continue
            ref = item.ref
            value = item.value
            size += _BINDING_BYTES + len(ref.node) + len(ref.port)
            if type(value) in _SCALARS:
                size += sys.getsizeof(value)
            else:
                size += approx_size(value, seen)
            index = item.index
        if id(index) not in seen:
            seen.add(id(index))
            size += _INDEX_BYTES
    return size


#: Sentinel distinguishing "no entry" from a cached ``None``.
MISSING = object()


class LRUCache:
    """An LRU map bounded by entry count and approximate bytes.

    Counters (hits/misses/evictions/invalidations) are plain attributes
    mutated under the same lock as the map; owners fold them into
    ``repro.obs`` instruments.  A ``max_entries``/``max_bytes`` of 0
    disables the respective bound.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        max_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: Any) -> Any:
        """The cached value, or :data:`MISSING`; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return MISSING
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def get_many(self, keys: Sequence[Any]) -> List[Any]:
        """:meth:`get` for every key, under one acquisition of the lock."""
        values: List[Any] = []
        with self._lock:
            entries = self._entries
            for key in keys:
                entry = entries.get(key)
                if entry is None:
                    self.misses += 1
                    values.append(MISSING)
                    continue
                entries.move_to_end(key)
                self.hits += 1
                values.append(entry[0])
        return values

    def peek(self, key: Any) -> Any:
        """Like :meth:`get` but without counters or recency update."""
        with self._lock:
            entry = self._entries.get(key)
            return MISSING if entry is None else entry[0]

    # -- mutation ----------------------------------------------------------

    def put(self, key: Any, value: Any, size: Optional[int] = None) -> None:
        """Insert/replace one entry, then evict down to the bounds."""
        entry_size = approx_size(value) if size is None else size
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, entry_size)
            self._bytes += entry_size
            while self._entries and (
                (self.max_entries and len(self._entries) > self.max_entries)
                or (self.max_bytes and self._bytes > self.max_bytes)
            ):
                _, (_, dropped_size) = self._entries.popitem(last=False)
                self._bytes -= dropped_size
                self.evictions += 1

    def discard(self, key: Any) -> bool:
        """Drop one entry (a staleness eviction); True when it existed."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            self.invalidations += 1
            return True

    def invalidate_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose *key* satisfies ``predicate``."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                _, size = self._entries.pop(key)
                self._bytes -= size
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        """Drop everything; returns the number of invalidated entries."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self.invalidations += count
            return count

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
