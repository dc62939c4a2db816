"""Property: the three lineage implementations agree on random workflows.

For random dataflows, random inputs, random query bindings, and random
focus sets, the reference recursion over the in-memory trace (Def. 1), the
database-backed naive traversal, and INDEXPROJ must return the same set of
bindings with the same values.  This is the central correctness claim of
the reproduction: the intensional inversion (Prop. 1) computes exactly
what extensional traversal computes.
"""

import itertools
import random

from hypothesis import assume, example, given, settings, strategies as st

from repro.provenance.graph import reference_lineage
from repro.provenance.store import TraceStore
from repro.query.base import LineageQuery
from repro.query.indexproj import IndexProjEngine, QueryPlan, build_plan
from repro.query.naive import NaiveEngine
from repro.values import nested
from repro.values.index import Index
from repro.workflow.depths import propagate_depths

from tests.conftest import (
    estimated_instances,
    make_random_workflow,
    run_random_case,
)

seeds = st.integers(min_value=0, max_value=10_000)


def random_query(case, captured, rng: random.Random) -> LineageQuery:
    """A random query binding over ports that actually carry values."""
    candidates = []
    flow = case.flow
    for processor in flow.processors:
        for port in processor.outputs:
            candidates.append((processor.name, port.name))
    for port in flow.outputs:
        candidates.append((flow.name, port.name))
    rng.shuffle(candidates)
    for node, port in candidates:
        from repro.workflow.model import PortRef

        value = captured.result.port_values.get(PortRef(node, port))
        if value is None:
            continue
        # Random index: a prefix of a random leaf index (possibly empty).
        leaves = list(nested.enumerate_leaves(value))
        if leaves:
            leaf_index, _ = rng.choice(leaves)
            cut = rng.randint(0, len(leaf_index))
            index = Index.of(list(leaf_index)[:cut])
        else:
            index = Index()
        focus_pool = list(flow.processor_names)
        focus = rng.sample(focus_pool, rng.randint(0, len(focus_pool)))
        return LineageQuery.create(node, port, index, focus)
    return LineageQuery.create(flow.name, flow.outputs[0].name, (), ())


class TestStrategyAgreement:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=99))
    def test_three_way_agreement(self, seed, query_seed):
        case = make_random_workflow(seed)
        assume(estimated_instances(case) <= 250)
        captured = run_random_case(case)
        rng = random.Random(query_seed * 7919 + seed)
        query = random_query(case, captured, rng)

        reference = reference_lineage(
            captured.trace, query.node, query.port, query.index, query.focus
        )
        reference_keys = frozenset(b.key() for b in reference)

        with TraceStore() as store:
            store.insert_trace(captured.trace)
            naive = NaiveEngine(store).lineage(captured.run_id, query)
            indexproj = IndexProjEngine(store, case.flow).lineage(
                captured.run_id, query
            )

        assert naive.binding_keys() == reference_keys, (
            f"seed={seed} NI disagrees with reference on {query}"
        )
        assert indexproj.binding_keys() == reference_keys, (
            f"seed={seed} INDEXPROJ disagrees with reference on {query}"
        )
        naive_values = {b.key(): b.value for b in naive.bindings}
        indexproj_values = {b.key(): b.value for b in indexproj.bindings}
        assert naive_values == indexproj_values, f"seed={seed} value mismatch"

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    @example(5821)  # Q(P2, x0, []) subsumes Q(P2, x0, [0])
    @example(9093)  # Q(P0, x0, [0]) and Q(P0, x0, [1]) are both needed
    def test_planned_lookups_hit_focus_inputs_without_prefix_chains(
        self, seed
    ):
        """Every planned lookup targets an input port of a focus
        processor, and no two lookups on one port have one fragment
        prefixing the other (the longer one would be redundant)."""
        case = make_random_workflow(seed)
        assume(estimated_instances(case) <= 250)
        captured = run_random_case(case)
        rng = random.Random(seed)
        query = random_query(case, captured, rng)
        plan = build_plan(propagate_depths(case.flow.flattened()), query)
        for tq in plan.trace_queries:
            assert tq.processor in query.focus
            processor = case.flow.processor(tq.processor)
            assert tq.port in {port.name for port in processor.inputs}
        for a, b in itertools.permutations(plan.trace_queries, 2):
            if (a.processor, a.port) == (b.processor, b.port):
                assert not b.fragment.starts_with(a.fragment), (
                    f"seed={seed}: {a} subsumes {b}"
                )
        with TraceStore() as store:
            store.insert_trace(captured.trace)
            engine = IndexProjEngine(store, case.flow)
            result = engine.lineage(captured.run_id, query)
        assert result.stats.queries == len(plan)

    def test_incomparable_fragments_on_one_port_are_both_needed(self):
        """Seed 9093: a diamond into a cross product plans two lookups on
        P0's port x0 with incomparable fragments; dropping either one
        loses bindings that NI finds."""
        seed = 9093
        case = make_random_workflow(seed)
        captured = run_random_case(case)
        query = random_query(case, captured, random.Random(seed))
        plan = build_plan(propagate_depths(case.flow.flattened()), query)
        on_p0 = [
            tq for tq in plan.trace_queries
            if (tq.processor, tq.port) == ("P0", "x0")
        ]
        assert sorted(tq.fragment.encode() for tq in on_p0) == ["0", "1"]
        with TraceStore() as store:
            store.insert_trace(captured.trace)
            engine = IndexProjEngine(store, case.flow)
            naive = NaiveEngine(store).lineage(captured.run_id, query)
            full = engine.execute_plan(plan, captured.run_id)
            assert {b.key() for b in full} == naive.binding_keys()
            for dropped in on_p0:
                reduced = QueryPlan(
                    query=query,
                    trace_queries=tuple(
                        tq for tq in plan.trace_queries if tq != dropped
                    ),
                    visited_ports=plan.visited_ports,
                )
                partial = engine.execute_plan(reduced, captured.run_id)
                assert {b.key() for b in partial} < naive.binding_keys(), (
                    f"dropping {dropped} lost nothing"
                )
