"""Compiled INDEXPROJ programs — s1 + s2 baked into reusable plans.

The paper's central observation (Section 3.3) is that the (s1) traversal
is a pure function of the workflow *specification*: for a fixed
(workflow, strategy, target port, focus set) the set of trace queries —
and therefore the whole matching-rule arithmetic of (s2) — is static.
This module compiles that static part **once** into a
:class:`CompiledPlan`:

* the spec-graph traversal runs at compile time and is folded into a
  tuple of :data:`~repro.provenance.store.CompiledLookup` constants —
  per trace query, the encoded fragment, its enumerated prefixes, the
  ``LIKE`` pattern, the extension range and the bound-variable cost the
  chunker charges, all pre-derived;
* the run id is the **only** late-bound value — executing the plan for a
  run scope is a pure cross product ``lookups × runs`` handed to
  :meth:`~repro.provenance.store.TraceStore.find_xform_inputs_matching_compiled`,
  which binds parameters against pre-rendered (and per-connection
  prepared) SQL text.

Plans live in a :class:`PlanRegistry` — a plain LRU keyed by the
workflow fingerprint, strategy, target and focus.  A plan's lookups are
a pure function of that key, so no store write (ingest, ``delete_run``,
index maintenance, vacuum) can make one stale: the registry never
listens to the store, and a warm plan stays warm across writes.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.core import NO_OBS, Observability
from repro.provenance.store import CompiledLookup, compile_lookup
from repro.query.base import LineageQuery
from repro.query.indexproj import build_plan
from repro.workflow.depths import DepthAnalysis

#: Default capacity of the registry LRU — plans are tiny (a few hundred
#: bytes of tuples), so this comfortably covers every distinct query
#: shape a service sees while still bounding adversarial workloads.
DEFAULT_PLAN_CAPACITY = 256


@dataclass(frozen=True)
class PlanKey:
    """Identity of one compiled program.

    The run-independent prefix of
    :class:`repro.cache.results.ResultCacheKey`: one compiled program
    serves *every* run scope of the same logical query, so the key
    deliberately omits the runs.
    """

    fingerprint: str
    strategy: str
    node: str
    port: str
    index: str
    focus: frozenset

    @classmethod
    def of(
        cls, fingerprint: str, query: LineageQuery, strategy: str = "indexproj"
    ) -> "PlanKey":
        return cls(
            fingerprint=fingerprint,
            strategy=strategy,
            node=query.node,
            port=query.port,
            index=query.index.encode(),
            focus=query.focus,
        )


@dataclass(frozen=True)
class CompiledPlan:
    """One (s1) traversal frozen into an executable program."""

    key: PlanKey
    lookups: Tuple[CompiledLookup, ...]
    visited_ports: int
    compile_seconds: float

    @property
    def trace_queries(self) -> int:
        return len(self.lookups)

    def pairs(self, run_ids: Any) -> list:
        """The executable key grid for a run scope (run id late-bound)."""
        return [
            (run_id, lookup) for run_id in run_ids for lookup in self.lookups
        ]


def compile_plan(
    analysis: DepthAnalysis,
    query: LineageQuery,
    fingerprint: str,
    strategy: str = "indexproj",
) -> CompiledPlan:
    """Run (s1) once and fold its outcome into constants.

    Pure apart from the clock: traverses the specification graph via
    :func:`repro.query.indexproj.build_plan` and pre-derives every
    matching-rule constant of every planned trace query.
    """
    started = time.perf_counter()
    plan = build_plan(analysis, query)
    lookups = tuple(
        compile_lookup(tq.processor, tq.port, tq.fragment)
        for tq in plan.trace_queries
    )
    return CompiledPlan(
        key=PlanKey.of(fingerprint, query, strategy),
        lookups=lookups,
        visited_ports=plan.visited_ports,
        compile_seconds=time.perf_counter() - started,
    )


class PlanRegistry:
    """Spec-keyed LRU of compiled programs.

    Thread-safe; counters mirror into ``compiled.plan_hits`` /
    ``compiled.plan_misses`` when observability is enabled.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_PLAN_CAPACITY,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.obs = obs if obs is not None else NO_OBS
        self._lock = threading.Lock()
        self._plans: "OrderedDict[PlanKey, CompiledPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_compile(
        self,
        analysis: DepthAnalysis,
        query: LineageQuery,
        fingerprint: str,
        strategy: str = "indexproj",
    ) -> CompiledPlan:
        """Fetch the program for a query, compiling on a miss."""
        key = PlanKey.of(fingerprint, query, strategy)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if plan is not None:
            if self.obs.enabled:
                self.obs.inc("compiled.plan_hits")
            return plan
        if self.obs.enabled:
            self.obs.inc("compiled.plan_misses")
        plan = compile_plan(analysis, query, fingerprint, strategy)
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def probe(
        self,
        fingerprint: str,
        query: LineageQuery,
        strategy: str = "indexproj",
    ) -> str:
        """``"warm"``/``"cold"`` without compiling (explain support)."""
        key = PlanKey.of(fingerprint, query, strategy)
        with self._lock:
            return "warm" if key in self._plans else "cold"

    def clear(self) -> int:
        """Drop every plan; returns how many were evicted."""
        with self._lock:
            dropped = len(self._plans)
            self._plans.clear()
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "capacity": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
