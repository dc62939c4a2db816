"""``repro-prov`` — command-line front end.

Subcommands::

    repro-prov workloads                        list built-in workloads
    repro-prov run --workload gk --db t.db      execute + store a trace
    repro-prov run --flow wf.json --inputs inputs.json --db t.db
    repro-prov query --db t.db --node P --port Y --index 0.1 --focus A,B
    repro-prov bench --experiment fig9 --scale quick
    repro-prov export --workload gk --dot out.dot
    repro-prov stats --db t.db                  sizes + persisted counters
    repro-prov cache-stats --db t.db            cache defaults + counters
    repro-prov lint --workload gk --format sarif --output gk.sarif
    repro-prov plan-lint --baseline plans.lock.json   SQL access-path gate
    repro-prov check-query --workload gk --query 'lin(<P:Y[0]>, {Q})'
    repro-prov serve --db t.db --workload gk --port 8750
    repro-prov slowlog --db t.db                show the slow-query journal

Global flags (before the subcommand):

``--profile``
    collect a full ``repro.obs`` trace of the invocation and print the
    span tree plus the metrics table after the command's own output; for
    file-backed stores the counters are additionally merged into a
    ``<db>.metrics.json`` sidecar that ``repro-prov stats`` reports.
``--profile-export PATH``
    also write the JSON export document (schema ``repro.obs/2``).
``--verbose`` / ``--quiet``
    raise/lower the log level of the ``repro`` logger (diagnostics go to
    stderr; result tables always go to stdout).
``--version``
    print the package version and exit.

The CLI is a thin shell over the library; every capability is equally
available through the Python API (see README quickstart).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.bench.figures import ALL_EXPERIMENTS, SCALES
from repro.bench.reporting import format_table
from repro.obs import (
    NO_OBS,
    Observability,
    dump_json,
    load_persisted_counters,
    persist_counters,
    render_metrics_table,
    render_span_tree,
)
from repro.provenance.capture import capture_run
from repro.provenance.store import TraceStore
from repro.storage import open_store
from repro.query.base import LineageQuery
from repro.query.indexproj import IndexProjEngine
from repro.query.naive import NaiveEngine
from repro.testbed.generator import chain_product_workflow
from repro.testbed.workloads import (
    file_loading_workload,
    genes2kegg_workload,
    protein_discovery_workload,
)
from repro.values.index import Index
from repro.workflow import serialize
from repro.workflow.dot import to_dot

logger = logging.getLogger("repro")

_WORKLOADS = {
    "gk": genes2kegg_workload,
    "genes2kegg": genes2kegg_workload,
    "pd": protein_discovery_workload,
    "fl": file_loading_workload,
    "protein_discovery": protein_discovery_workload,
    "file_loading": file_loading_workload,
}

_LOG_HANDLER: Optional[logging.Handler] = None


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """(Re)configure the package logger for one CLI invocation.

    The handler is rebuilt each call so it binds the *current*
    ``sys.stderr`` (pytest's capture machinery swaps the stream between
    tests).  Diagnostics never go to stdout: result tables must stay
    machine-readable in shell pipelines.
    """
    global _LOG_HANDLER
    if _LOG_HANDLER is not None:
        logger.removeHandler(_LOG_HANDLER)
    _LOG_HANDLER = logging.StreamHandler(sys.stderr)
    _LOG_HANDLER.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(_LOG_HANDLER)
    logger.propagate = False
    if quiet:
        logger.setLevel(logging.ERROR)
    elif verbose:
        logger.setLevel(logging.DEBUG)
    else:
        logger.setLevel(logging.INFO)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-prov",
        description="Fine-grained lineage querying of collection-based "
        "workflow provenance (EDBT 2010 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect spans + metrics and print them after the command",
    )
    parser.add_argument(
        "--profile-export", metavar="PATH",
        help="with --profile: also write the repro.obs/2 JSON document",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level diagnostics on stderr",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress diagnostics below error level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list built-in workloads")

    run = sub.add_parser("run", help="execute a workflow and store its trace")
    run.add_argument("--workload", choices=sorted(_WORKLOADS), help="built-in workload")
    run.add_argument("--flow", help="workflow definition JSON file")
    run.add_argument("--inputs", help="JSON file with workflow inputs")
    run.add_argument("--synthetic-l", type=int, help="generate the Fig. 5 dataflow")
    run.add_argument("--synthetic-d", type=int, default=10, help="ListSize input")
    run.add_argument("--db", required=True, help="trace database path")
    run.add_argument(
        "--shards", type=int, metavar="N",
        help="store runs hash-partitioned across N SQLite shard files "
        "(--db names the shard directory; see docs/STORAGE.md)",
    )
    run.add_argument("--runs", type=int, default=1, help="number of identical runs")
    run.add_argument(
        "--workers", type=int, default=1,
        help="capture runs concurrently on this many threads",
    )

    query = sub.add_parser("query", help="answer a lineage query")
    query.add_argument("--db", required=True, help="trace database path")
    query.add_argument(
        "--shards", type=int, metavar="N",
        help="open --db as a run-sharded store of N shards (a directory "
        "with a manifest.json is auto-detected without this flag)",
    )
    query.add_argument("--run", help="run id (default: every stored run)")
    query.add_argument(
        "--query",
        dest="query_text",
        help="full query in the paper's notation, e.g. "
        "'lin(<P:Y[0.1]>, {Q, R})' (overrides --node/--port/--index/--focus)",
    )
    query.add_argument("--node")
    query.add_argument("--port")
    query.add_argument("--index", default="", help="dotted index path, e.g. 0.1")
    query.add_argument("--focus", default="", help="comma-separated processors")
    query.add_argument(
        "--strategy", choices=["naive", "indexproj", "auto"],
        default="indexproj",
        help="'auto' picks by the static cost model (repro.analysis)",
    )
    query.add_argument("--flow", help="workflow JSON (required for indexproj)")
    query.add_argument("--workload", choices=sorted(_WORKLOADS))
    query.add_argument("--synthetic-l", type=int)
    query.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="memoize trace lookups across repeats (--no-cache disables; "
        "see docs/CACHING.md)",
    )
    query.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="answer the query N times — warm repeats exercise the cache",
    )

    bench = sub.add_parser("bench", help="reproduce a table/figure")
    bench.add_argument(
        "--experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        default="all",
    )
    bench.add_argument("--scale", choices=sorted(SCALES), default="quick")

    export = sub.add_parser("export", help="render a workflow as GraphViz dot")
    export.add_argument("--workload", choices=sorted(_WORKLOADS))
    export.add_argument("--flow", help="workflow JSON file")
    export.add_argument("--synthetic-l", type=int)
    export.add_argument("--dot", required=True, help="output .dot path")

    prov = sub.add_parser("prov-export", help="export a stored trace as PROV JSON")
    prov.add_argument("--db", required=True, help="trace database path")
    prov.add_argument(
        "--shards", type=int, metavar="N",
        help="open --db as a run-sharded store of N shards",
    )
    prov.add_argument("--run", help="run id (default: first stored run)")
    prov.add_argument("--out", required=True, help="output .json path")

    stats = sub.add_parser(
        "stats",
        help="show trace database statistics and persisted obs counters",
    )
    stats.add_argument("--db", required=True, help="trace database path")
    stats.add_argument(
        "--shards", type=int, metavar="N",
        help="open --db as a run-sharded store of N shards "
        "(adds a per-shard breakdown to the report)",
    )

    cache_stats_cmd = sub.add_parser(
        "cache-stats",
        help="show lineage cache defaults and persisted cache.* counters",
    )
    cache_stats_cmd.add_argument(
        "--db", required=True, help="trace database path"
    )

    depths = sub.add_parser("depths", help="print the static depth table")
    depths.add_argument("--workload", choices=sorted(_WORKLOADS))
    depths.add_argument("--flow", help="workflow JSON file")
    depths.add_argument("--synthetic-l", type=int)

    validate_cmd = sub.add_parser("validate", help="structurally check a workflow")
    validate_cmd.add_argument("--workload", choices=sorted(_WORKLOADS))
    validate_cmd.add_argument("--flow", help="workflow JSON file")
    validate_cmd.add_argument("--synthetic-l", type=int)

    impact = sub.add_parser(
        "impact", help="answer a forward (impact) query"
    )
    impact.add_argument("--db", required=True, help="trace database path")
    impact.add_argument(
        "--shards", type=int, metavar="N",
        help="open --db as a run-sharded store of N shards",
    )
    impact.add_argument("--run", help="run id (default: every stored run)")
    impact.add_argument("--node", required=True)
    impact.add_argument("--port", required=True)
    impact.add_argument("--index", default="", help="dotted index path")
    impact.add_argument("--focus", default="", help="comma-separated processors")
    impact.add_argument(
        "--strategy", choices=["naive", "indexproj"], default="indexproj"
    )
    impact.add_argument("--flow", help="workflow JSON (required for indexproj)")
    impact.add_argument("--workload", choices=sorted(_WORKLOADS))
    impact.add_argument("--synthetic-l", type=int)

    explain_cmd = sub.add_parser(
        "explain", help="estimate both strategies' cost for a query"
    )
    explain_cmd.add_argument("--workload", choices=sorted(_WORKLOADS))
    explain_cmd.add_argument("--flow", help="workflow JSON file")
    explain_cmd.add_argument("--synthetic-l", type=int)
    explain_cmd.add_argument("--node", required=True)
    explain_cmd.add_argument("--port", required=True)
    explain_cmd.add_argument("--index", default="")
    explain_cmd.add_argument("--focus", default="")
    explain_cmd.add_argument("--runs", type=int, default=1)

    lint = sub.add_parser(
        "lint",
        help="run the workflow lint engine (rule catalogue: docs/ANALYSIS.md)",
    )
    lint.add_argument("--workload", choices=sorted(_WORKLOADS))
    lint.add_argument("--flow", help="workflow JSON file")
    lint.add_argument("--synthetic-l", type=int)
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="lint_format", help="output format (SARIF 2.1.0 for CI upload)",
    )
    lint.add_argument(
        "--output", help="write the report to a file instead of stdout"
    )
    lint.add_argument(
        "--severity", action="append", default=[], metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. W004=error (repeatable)",
    )
    lint.add_argument(
        "--suppress", default="", metavar="CODES",
        help="comma-separated rule codes/slugs to silence, e.g. W002,W006",
    )
    lint.add_argument(
        "--fanout-levels", type=int, default=3,
        help="iteration level at which W004 starts warning (default 3)",
    )
    lint.add_argument(
        "--fail-on", choices=["error", "warning", "never"], default="error",
        help="exit non-zero when findings at/above this severity exist",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    plan_lint = sub.add_parser(
        "plan-lint",
        help="statically lint the store's SQL access paths "
        "(P-series rules: docs/ANALYSIS.md)",
    )
    plan_lint.add_argument(
        "--db",
        help="analyze plans against this database instead of a throwaway "
        "in-memory store — picks up its ANALYZE statistics and content, "
        "which can change the optimizer's choices; note opening a store "
        "reconciles the schema DDL, so missing indexes are recreated, "
        "not reported",
    )
    plan_lint.add_argument(
        "--baseline", default="plans.lock.json", metavar="PATH",
        help="committed plan baseline to diff against (default "
        "plans.lock.json; missing file skips the diff unless "
        "--require-baseline)",
    )
    plan_lint.add_argument(
        "--require-baseline", action="store_true",
        help="fail when the baseline file is missing (CI mode)",
    )
    plan_lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the live plans and exit",
    )
    plan_lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="lint_format", help="output format (SARIF 2.1.0 for CI upload)",
    )
    plan_lint.add_argument(
        "--output", help="write the report to a file instead of stdout"
    )
    plan_lint.add_argument(
        "--severity", action="append", default=[], metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. P002=warning (repeatable)",
    )
    plan_lint.add_argument(
        "--suppress", default="", metavar="CODES",
        help="comma-separated rule codes/slugs to silence, e.g. P002",
    )
    plan_lint.add_argument(
        "--fail-on", choices=["error", "warning", "never"], default="error",
        help="exit non-zero when findings at/above this severity exist",
    )
    plan_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the P-series rule catalogue and exit",
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON provenance query server (docs/SERVER.md)",
    )
    serve.add_argument(
        "--db", help="single trace database, served as tenant 'default'"
    )
    serve.add_argument(
        "--tenant-root", metavar="DIR",
        help="directory of per-tenant trace databases (<tenant>.db)",
    )
    serve.add_argument(
        "--create-tenants", action="store_true",
        help="with --tenant-root: create missing tenant databases on "
        "first request instead of answering 404",
    )
    serve.add_argument(
        "--workload", action="append", default=[],
        choices=sorted(_WORKLOADS), metavar="NAME",
        help="register this built-in workload for every tenant "
        "(repeatable)",
    )
    serve.add_argument(
        "--flow", action="append", default=[], metavar="PATH",
        help="register this workflow JSON file for every tenant "
        "(repeatable)",
    )
    serve.add_argument(
        "--views", metavar="PATH",
        help="JSON file of user views shared by every tenant: "
        '{"view": {"group": ["proc", ...], ...}, ...}',
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8750,
        help="listen port (0 picks a free one; default 8750)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="worker threads executing queries (default 4)",
    )
    serve.add_argument(
        "--queue", type=int, default=16,
        help="admitted requests allowed to wait beyond the workers; "
        "arrivals past workers+queue get 429 (default 16)",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds -> 504 (default 30)",
    )
    serve.add_argument(
        "--max-open-tenants", type=int, default=8,
        help="LRU bound on concurrently open tenant stores (default 8)",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="head-based trace sampling rate in (0, 1] — 0.1 keeps "
        "roughly every 10th request trace (default 1.0: keep all)",
    )
    serve.add_argument(
        "--trace-ring", type=int, default=512, metavar="N",
        help="finished traces kept in memory for /v1/traces (default 512)",
    )
    serve.add_argument(
        "--trace-log", metavar="PATH",
        help="also append every finished trace to this JSONL file",
    )
    serve.add_argument(
        "--slowlog-threshold-ms", type=float, metavar="MS",
        help="journal lineage queries slower than this per tenant "
        "(/v1/slowlog + <db>.slowlog.jsonl; default: journal disabled)",
    )
    serve.add_argument(
        "--slowlog-ring", type=int, default=256, metavar="N",
        help="slow-query records kept in memory per tenant (default 256)",
    )
    serve.add_argument(
        "--shards", type=int, metavar="N",
        help="open tenant stores run-sharded across N SQLite shard "
        "files; /v1/stats then reports the per-shard rollup "
        "(see docs/STORAGE.md)",
    )

    slowlog_cmd = sub.add_parser(
        "slowlog",
        help="show a store's persisted slow-query journal "
        "(<db>.slowlog.jsonl, written by a server with "
        "--slowlog-threshold-ms)",
    )
    slowlog_cmd.add_argument("--db", required=True, help="trace database path")
    slowlog_cmd.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="show only the newest N records (default: all)",
    )
    slowlog_cmd.add_argument(
        "--format", choices=["table", "json"], default="table",
        dest="slowlog_format",
    )

    check = sub.add_parser(
        "check-query",
        help="statically triage a lineage query (no trace access)",
    )
    check.add_argument("--workload", choices=sorted(_WORKLOADS))
    check.add_argument("--flow", help="workflow JSON file")
    check.add_argument("--synthetic-l", type=int)
    check.add_argument(
        "--query", dest="query_text",
        help="full query in the paper's notation (overrides --node/--port)",
    )
    check.add_argument("--node")
    check.add_argument("--port")
    check.add_argument("--index", default="", help="dotted index path")
    check.add_argument("--focus", default="", help="comma-separated processors")
    check.add_argument("--runs", type=int, default=1)
    return parser


def _load_flow(args: argparse.Namespace):
    if getattr(args, "workload", None):
        workload = _WORKLOADS[args.workload]()
        return workload.flow, workload.registry, workload.inputs
    if getattr(args, "synthetic_l", None):
        flow = chain_product_workflow(args.synthetic_l)
        return flow, None, {"ListSize": getattr(args, "synthetic_d", 10)}
    if getattr(args, "flow", None):
        flow = serialize.load(args.flow)
        inputs: Dict[str, Any] = {}
        if getattr(args, "inputs", None):
            with open(args.inputs, "r", encoding="utf-8") as handle:
                inputs = json.load(handle)
        return flow, None, inputs
    raise SystemExit("specify one of --workload / --flow / --synthetic-l")


def _obs_of(args: argparse.Namespace) -> Observability:
    """The invocation's observability handle (disabled unless --profile)."""
    return getattr(args, "_obs", NO_OBS)


def cmd_workloads(_args: argparse.Namespace) -> int:
    for key in ("gk", "pd", "fl"):
        workload = _WORKLOADS[key]()
        print(f"{key:4s} {workload.name:20s} {workload.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    obs = _obs_of(args)
    flow, registry, inputs = _load_flow(args)
    if args.inputs:
        with open(args.inputs, "r", encoding="utf-8") as handle:
            inputs = json.load(handle)
    from repro.engine.executor import WorkflowRunner

    runner = WorkflowRunner(registry, obs=obs)
    logger.debug(
        "executing %s x%d (workers=%d)", flow.name, args.runs, args.workers
    )
    with open_store(args.db, shards=args.shards, obs=obs) as store:
        if args.workers > 1:
            from repro.provenance.capture import capture_runs

            captured_list = capture_runs(
                flow, [inputs] * args.runs, runner=runner,
                max_workers=args.workers,
            )
        else:
            captured_list = [
                capture_run(flow, inputs, runner=runner)
                for _ in range(args.runs)
            ]
        for captured in captured_list:
            store.insert_trace(captured.trace)
            print(
                f"run {captured.run_id}: {captured.trace.record_count} trace "
                f"records; outputs: {sorted(captured.outputs)}"
            )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    obs = _obs_of(args)
    if args.query_text:
        from repro.query.parser import parse_query

        query = parse_query(args.query_text)
    elif args.node and args.port:
        focus = [name for name in args.focus.split(",") if name]
        query = LineageQuery.create(
            args.node, args.port, Index.decode(args.index), focus
        )
    else:
        raise SystemExit("provide either --query or both --node and --port")
    with open_store(args.db, shards=args.shards, obs=obs) as store:
        run_ids = [args.run] if args.run else store.run_ids()
        if not run_ids:
            logger.error("store contains no runs")
            return 1
        strategy = args.strategy
        if strategy == "auto":
            from repro.analysis.cost import choose_strategy
            from repro.workflow.depths import propagate_depths

            flow, _, _ = _load_flow(args)
            strategy = choose_strategy(
                propagate_depths(flow.flattened()), query, runs=len(run_ids)
            )
            logger.info("auto strategy: %s", strategy)
        trace_cache = None
        if args.cache:
            from repro.cache import TraceReadCache

            trace_cache = TraceReadCache(store, obs=obs)
        if strategy == "naive":
            engine: Any = NaiveEngine(store, obs=obs, trace_cache=trace_cache)
        else:
            flow, _, _ = _load_flow(args)
            engine = IndexProjEngine(
                store, flow, obs=obs, trace_cache=trace_cache
            )

        # The service's one execution path per strategy: a compiled
        # INDEXPROJ program, or level-synchronous NI, over all runs.
        execute = (
            engine.lineage_multirun_batched
            if strategy == "naive"
            else engine.lineage_multirun_compiled
        )

        repeats = max(1, args.repeat)
        results = None
        for iteration in range(repeats):
            start = time.perf_counter()
            results = execute(run_ids, query)
            elapsed_ms = (time.perf_counter() - start) * 1000
            if repeats > 1:
                store_queries = results.sql_queries
                print(
                    f"iteration {iteration + 1}: {elapsed_ms:.2f} ms, "
                    f"{store_queries} store queries"
                )
        assert results is not None
        print(f"query: {query}")
        if args.verbose:
            totals = results.aggregate_stats()
            batch_note = (
                f", {totals.batch_lookups} batched statements covering "
                f"{totals.batch_keys} lookup keys "
                f"(chunk={totals.batch_chunk_size})"
                if totals.batch_lookups
                else ""
            )
            print(
                f"sql round-trips: {totals.queries} "
                f"({totals.rows} rows{batch_note})"
            )
        for run_id, result in results.per_run.items():
            print(f"run {run_id} ({result.total_seconds * 1000:.2f} ms):")
            for binding in result.bindings:
                payload = json.dumps(binding.value, default=repr)
                if len(payload) > 60:
                    payload = payload[:57] + "..."
                print(f"  {binding}  = {payload}")
        if trace_cache is not None:
            cache_stats = trace_cache.stats()
            print(
                f"trace cache: {cache_stats['hits']} hits, "
                f"{cache_stats['misses']} misses, "
                f"{cache_stats['entries']} entries, "
                f"{cache_stats['bytes']} bytes"
            )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        logger.debug("running experiment %s at scale %s", name, args.scale)
        rows = ALL_EXPERIMENTS[name](args.scale)
        print(format_table(rows, title=f"== {name} (scale={args.scale}) =="))
        print()
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    flow, _, _ = _load_flow(args)
    with open(args.dot, "w", encoding="utf-8") as handle:
        handle.write(to_dot(flow.flattened()))
    logger.info("wrote %s", args.dot)
    return 0


def cmd_impact(args: argparse.Namespace) -> int:
    from repro.query.impact import (
        ImpactQuery,
        IndexProjImpactEngine,
        NaiveImpactEngine,
    )

    obs = _obs_of(args)
    focus = [name for name in args.focus.split(",") if name]
    query = ImpactQuery.create(
        args.node, args.port, Index.decode(args.index), focus
    )
    with open_store(args.db, shards=args.shards, obs=obs) as store:
        run_ids = [args.run] if args.run else store.run_ids()
        if not run_ids:
            logger.error("store contains no runs")
            return 1
        if args.strategy == "naive":
            engine: Any = NaiveImpactEngine(store)
        else:
            flow, _, _ = _load_flow(args)
            engine = IndexProjImpactEngine(store, flow)
        print(f"impact query: {query}")
        for run_id in run_ids:
            result = engine.impact(run_id, query)
            print(f"run {run_id} ({result.total_seconds * 1000:.2f} ms):")
            for binding in result.bindings:
                payload = json.dumps(binding.value, default=repr)
                if len(payload) > 60:
                    payload = payload[:57] + "..."
                print(f"  {binding}  = {payload}")
    return 0


def cmd_prov_export(args: argparse.Namespace) -> int:
    from repro.provenance.export import save_prov_document

    with open_store(args.db, shards=args.shards) as store:
        run_ids = store.run_ids()
        if not run_ids:
            logger.error("store contains no runs")
            return 1
        run_id = args.run or run_ids[0]
        trace = store.load_trace(run_id)
    save_prov_document(trace, args.out)
    logger.info("wrote PROV document for run %s to %s", run_id, args.out)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with open_store(args.db, shards=args.shards) as store:
        stats = store.statistics()
        for name in ("runs", "xform_events", "xform_io_rows", "xfer_rows",
                     "records"):
            print(f"{name:15s} {stats[name]}")
        for shard in stats.get("shards", ()):
            print(
                f"  shard {shard['shard']}: {shard['runs']} runs, "
                f"{shard['records']} records"
            )
        for run_id in store.run_ids():
            print(f"  run {run_id}: {store.record_count(run_id)} records")
    persisted = load_persisted_counters(args.db)
    if persisted["counters"]:
        print(
            f"persisted obs counters "
            f"({persisted.get('invocations', 0)} profiled invocations):"
        )
        width = max(len(name) for name in persisted["counters"])
        for name, value in sorted(persisted["counters"].items()):
            print(f"  {name:<{width}s}  {value}")
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """Default cache tuning knobs plus any persisted ``cache.*`` counters.

    The counters come from the ``<db>.metrics.json`` sidecar that
    ``--profile`` maintains — so this reports cache traffic accumulated
    across *profiled* invocations, with zero store access of its own.
    """
    from repro.cache import CacheConfig

    config = CacheConfig()
    print("default cache configuration (repro.cache.CacheConfig):")
    print(
        f"  result cache  {config.result_entries} entries / "
        f"{config.result_bytes} bytes"
    )
    print(
        f"  trace cache   {config.trace_entries} entries / "
        f"{config.trace_bytes} bytes"
    )
    persisted = load_persisted_counters(args.db)
    cache_counters = {
        name: value
        for name, value in persisted["counters"].items()
        if name.startswith("cache.") or name == "store.generation_bumps"
    }
    if not cache_counters:
        print(
            "no persisted cache counters — run a profiled query "
            "(repro-prov --profile query ...) to record some"
        )
        return 0
    print(
        f"persisted cache counters "
        f"({persisted.get('invocations', 0)} profiled invocations):"
    )
    width = max(len(name) for name in cache_counters)
    for name, value in sorted(cache_counters.items()):
        print(f"  {name:<{width}s}  {value}")
    return 0


def cmd_depths(args: argparse.Namespace) -> int:
    from repro.workflow.depths import propagate_depths

    flow, _, _ = _load_flow(args)
    analysis = propagate_depths(flow.flattened())
    print(f"{'port':40s} {'dd':>3s} {'depth':>5s}")
    for port, dd, depth in analysis.as_table():
        print(f"{port:40s} {dd:3d} {depth:5d}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.workflow.validate import validate as validate_flow

    flow, _, _ = _load_flow(args)
    issues = validate_flow(flow.flattened())
    if not issues:
        print(f"workflow {flow.name!r}: no issues")
        return 0
    for issue in issues:
        print(f"{issue.severity:8s} [{issue.code}] {issue.message}")
    return 1 if any(issue.is_error for issue in issues) else 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.query.explain import explain
    from repro.workflow.depths import propagate_depths

    flow, _, _ = _load_flow(args)
    analysis = propagate_depths(flow.flattened())
    focus = [name for name in args.focus.split(",") if name]
    query = LineageQuery.create(
        args.node, args.port, Index.decode(args.index), focus
    )
    explanation = explain(analysis, query, runs=args.runs)
    print(explanation.summary())
    print(f"  traversal ports (shared s1) : {explanation.indexproj_traversal_ports}")
    print(f"  INDEXPROJ trace lookups     : {explanation.indexproj_lookups}")
    print(f"  NI hops per run             : {explanation.naive_hops}")
    print(f"  NI trace lookups (bound)    : {explanation.naive_lookups}")
    print(f"  lookup ratio NI/INDEXPROJ   : {explanation.lookup_ratio:.1f}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import LintConfig, lint_rules, run_lint
    from repro.analysis.sarif import render_json, render_sarif, render_text

    if args.list_rules:
        for entry in lint_rules():
            print(f"{entry.code}  {entry.default_severity:7s} "
                  f"{entry.slug:22s} {entry.description}")
        return 0
    severities: Dict[str, str] = {}
    for override in args.severity:
        code, _, level = override.partition("=")
        if not level:
            raise SystemExit(f"--severity expects CODE=LEVEL, got {override!r}")
        severities[code] = level
    config = LintConfig(
        severities=severities,
        suppress={c for c in args.suppress.split(",") if c},
        fanout_levels=args.fanout_levels,
    )
    flow, _, _ = _load_flow(args)
    findings = run_lint(flow.flattened(), config)
    renderers = {
        "text": render_text,
        "json": render_json,
        "sarif": render_sarif,
    }
    report = renderers[args.lint_format](findings, workflow=flow.name)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        logger.info("wrote %d finding(s) to %s", len(findings), args.output)
    elif report:
        print(report)
    if args.fail_on == "never":
        return 0
    threshold = ("error",) if args.fail_on == "error" else ("error", "warning")
    return 1 if any(f.severity in threshold for f in findings) else 0


def cmd_plan_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.lint import LintConfig
    from repro.analysis.planlint import (
        analyze,
        diff_baseline,
        load_baseline,
        plan_findings,
        plan_rules,
        write_baseline,
    )
    from repro.analysis.sarif import render_json, render_sarif, render_text

    if args.list_rules:
        for entry in plan_rules():
            print(f"{entry.code}  {entry.default_severity:7s} "
                  f"{entry.slug:28s} {entry.description}")
        return 0
    severities: Dict[str, str] = {}
    for override in args.severity:
        code, _, level = override.partition("=")
        if not level:
            raise SystemExit(f"--severity expects CODE=LEVEL, got {override!r}")
        severities[code] = level
    config = LintConfig(
        severities=severities,
        suppress={c for c in args.suppress.split(",") if c},
    )
    store = TraceStore(args.db) if args.db else None
    try:
        report = analyze(store=store)
    finally:
        if store is not None:
            store.close()
    if args.update_baseline:
        write_baseline(args.baseline, report)
        logger.info(
            "wrote %d primitive plan(s) to %s",
            len(report.primitives), args.baseline,
        )
        return 0
    findings = plan_findings(report, config)
    if os.path.exists(args.baseline):
        findings.extend(diff_baseline(report, load_baseline(args.baseline),
                                      config))
    elif args.require_baseline:
        raise SystemExit(
            f"baseline {args.baseline!r} not found; generate it with "
            "`repro-prov plan-lint --update-baseline`"
        )
    else:
        logger.warning(
            "no baseline at %s — plan drift not checked "
            "(generate one with --update-baseline)", args.baseline,
        )
    renderers = {
        "text": render_text,
        "json": render_json,
        "sarif": lambda f, workflow="": render_sarif(
            f, workflow=workflow, rules=plan_rules(),
            tool="repro-prov-plan-lint",
        ),
    }
    rendered = renderers[args.lint_format](findings, workflow="store-schema")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        logger.info("wrote %d finding(s) to %s", len(findings), args.output)
    elif rendered:
        print(rendered)
    if args.fail_on == "never":
        return 0
    threshold = ("error",) if args.fail_on == "error" else ("error", "warning")
    return 1 if any(f.severity in threshold for f in findings) else 0


def build_server(args: argparse.Namespace):
    """Construct the configured :class:`ProvenanceServer` (not yet bound).

    Factored out of :func:`cmd_serve` so tests can assemble the exact
    server an invocation would run without serving forever.
    """
    from repro.query.views import UserView
    from repro.server import (
        ProvenanceServer,
        ServerConfig,
        TenantRegistry,
        default_setup,
    )
    from repro.workflow import serialize as _serialize

    if bool(args.db) == bool(args.tenant_root):
        raise SystemExit("specify exactly one of --db / --tenant-root")
    if not 0.0 < args.trace_sample <= 1.0:
        raise SystemExit(
            f"--trace-sample wants a rate in (0, 1], got {args.trace_sample}"
        )
    registrations = []
    for key in args.workload:
        workload = _WORKLOADS[key]()
        registrations.append((workload.flow, workload.registry))
    for path in args.flow:
        registrations.append((_serialize.load(path), None))
    setup = default_setup(*registrations) if registrations else None
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        max_queue=args.queue,
        request_timeout=args.timeout,
        max_open_tenants=args.max_open_tenants,
        tenant_root=args.tenant_root,
        create_tenants=args.create_tenants,
        trace_sample=args.trace_sample,
        trace_ring=args.trace_ring,
        trace_log=args.trace_log,
        slowlog_threshold_ms=args.slowlog_threshold_ms,
        slowlog_ring=args.slowlog_ring,
        shards=args.shards,
    )
    registry = TenantRegistry(
        root=args.tenant_root,
        setup=setup,
        max_open=args.max_open_tenants,
        create=args.create_tenants,
        obs=config.obs,
        slowlog_threshold_ms=args.slowlog_threshold_ms,
        slowlog_ring=args.slowlog_ring,
        shards=args.shards,
    )
    if args.db:
        from repro.obs import SlowQueryJournal, slowlog_sidecar_path
        from repro.service import ProvenanceService

        def open_default():
            service = ProvenanceService(
                args.db, obs=config.obs, shards=args.shards
            )
            if setup is not None:
                setup(service, "default")
            if args.slowlog_threshold_ms is not None:
                service.slowlog = SlowQueryJournal(
                    threshold_ms=args.slowlog_threshold_ms,
                    capacity=args.slowlog_ring,
                    path=slowlog_sidecar_path(args.db),
                )
            return service

        registry.register_factory("default", open_default)
    if args.views:
        with open(args.views, "r", encoding="utf-8") as handle:
            view_specs = json.load(handle)
        for view_name, groups in view_specs.items():
            registry.register_shared_view(UserView(view_name, groups))
    return ProvenanceServer(config=config, registry=registry)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    server = build_server(args)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:
        logger.info("server interrupted, shutting down")
    return 0


def cmd_slowlog(args: argparse.Namespace) -> int:
    """Render a store's slow-query sidecar (``<db>.slowlog.jsonl``)."""
    from repro.obs import (
        load_slowlog,
        render_slowlog_table,
        slowlog_sidecar_path,
    )

    path = slowlog_sidecar_path(args.db)
    records = load_slowlog(path, limit=args.limit)
    if not records:
        print(
            f"no slow-query records at {path} — serve with "
            "--slowlog-threshold-ms to collect some"
        )
        return 0
    if args.slowlog_format == "json":
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        print(render_slowlog_table(records))
    return 0


def cmd_check_query(args: argparse.Namespace) -> int:
    from repro.analysis.cost import explain_plan
    from repro.workflow.depths import propagate_depths

    if args.query_text:
        from repro.query.parser import parse_query

        query = parse_query(args.query_text)
    elif args.node and args.port:
        focus = [name for name in args.focus.split(",") if name]
        query = LineageQuery.create(
            args.node, args.port, Index.decode(args.index), focus
        )
    else:
        raise SystemExit("provide either --query or both --node and --port")
    flow, _, _ = _load_flow(args)
    analysis = propagate_depths(flow.flattened())
    plan = explain_plan(analysis, query, runs=args.runs)
    print(plan.summary())
    # Exit codes mirror compilers: 0 = will produce results (or provably
    # empty, which is still a definitive answer), 2 = rejected.
    return 2 if plan.report.is_invalid else 0


def _finish_profile(args: argparse.Namespace, obs: Observability) -> None:
    """Print the span tree + metrics table; persist/export as requested."""
    print()
    print("== profile: span tree ==")
    tree = render_span_tree(obs.span_roots())
    if tree:
        print(tree)
    print()
    print("== profile: metrics ==")
    table = render_metrics_table(obs.metrics_snapshot())
    if table:
        print(table)
    db_path = getattr(args, "db", None)
    if db_path and db_path != ":memory:":
        sidecar = persist_counters(obs, db_path)
        logger.debug("merged counters into %s", sidecar)
    if args.profile_export:
        dump_json(obs, args.profile_export, meta={"command": args.command})
        logger.info("wrote obs export to %s", args.profile_export)


_COMMANDS = {
    "workloads": cmd_workloads,
    "run": cmd_run,
    "query": cmd_query,
    "bench": cmd_bench,
    "export": cmd_export,
    "impact": cmd_impact,
    "prov-export": cmd_prov_export,
    "stats": cmd_stats,
    "cache-stats": cmd_cache_stats,
    "depths": cmd_depths,
    "validate": cmd_validate,
    "explain": cmd_explain,
    "lint": cmd_lint,
    "plan-lint": cmd_plan_lint,
    "check-query": cmd_check_query,
    "serve": cmd_serve,
    "slowlog": cmd_slowlog,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    obs = Observability() if args.profile else NO_OBS
    args._obs = obs
    status = _COMMANDS[args.command](args)
    if obs.enabled:
        _finish_profile(args, obs)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
