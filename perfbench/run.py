"""Repository benchmark: ingest, lineage-scan, http-read and http-mixed.

Run from the repository root::

    python3 perfbench/run.py --workload lineage-scan --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout; the benchmark
writes its databases and span files under ``.perfbench/``.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with
every time scaled to a reference machine speed (``calibration.py``);
``--trace 1`` reports the per-layer ones.  The line before it carries
the workload's details under the metric names of README.md, and the
unscaled times.  A wrong answer, a failed operation or a failed
self-check makes ``correct`` false and the exit code 1.  See README.md
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is their median.  Ingest set-up takes
#: ~0.13 s, so it can afford more repeats against file-system jitter.
SETUP_REPEATS = {"ingest": 15, "lineage-scan": 5, "http-read": 5, "http-mixed": 3}
#: Operations per window of ``p99_ms``, which is the median of the
#: windows' p99: a burst of load from outside the benchmark then moves
#: one window, not the run's figure.  Each window holds ten samples
#: beyond its p99.
P99_WINDOW = 1000
#: Share of traced operations, centred on the median latency, whose mean
#: layer self times are reported (they add up to that band's latency).
MEDIAN_BAND = (45, 55)
#: How far the layer self times of the median band may miss the traced
#: end-to-end median before the attribution counts as broken.
ATTRIBUTION_TOLERANCE = 0.05
#: Largest share of the traced median that the root span's own self time
#: (time no layer span covers) may take in the in-process workloads,
#: where only the caller's loop sits between the root and the first
#: layer span.  Over HTTP that share is the socket and HTTP time.
ROOT_SHARE_MAX = {"ingest": 0.05, "lineage-scan": 0.05}
_HTTP_SPANS = (
    ("server.handle",), ("server.admission",), ("server.work",),
    ("query.parse",), ("service.lineage",), ("server.encode",),
)
#: Spans every traced primary operation must contain; each entry lists
#: alternatives of which one must be there.  A wrapper that stops firing
#: (a renamed entry point, a new execution path) then fails the run
#: instead of moving its time into another layer's self time.
REQUIRED_SPANS = {
    "ingest": (
        ("service.run",), ("engine.run",), ("engine.capture",),
        ("store.insert",),
    ),
    "lineage-scan": (
        ("service.lineage",), ("analysis.precheck",), ("query.execute",),
        ("query.plan",), ("cache.trace", "store.lookup"),
    ),
    "http-read": _HTTP_SPANS,
    "http-mixed": _HTTP_SPANS,
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def median(values: List[float]) -> float:
    """Median, or 0 when every operation failed (the run is then wrong)."""
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def p99(latencies: List[float]) -> float:
    """Median p99 of consecutive P99_WINDOW-operation windows.

    A trailing partial window is left out; with fewer than two windows
    the p99 of all operations is returned.
    """
    from workloads import percentile

    windows = [
        latencies[start:start + P99_WINDOW]
        for start in range(0, len(latencies) - P99_WINDOW + 1, P99_WINDOW)
    ]
    if len(windows) < 2:
        return percentile(latencies, 99)
    return statistics.median(percentile(window, 99) for window in windows)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome: Any) -> Dict[str, float]:
    """End-to-end metrics; times are scaled (``calibration.py``)."""
    phase = outcome.phases["timed"]
    return {
        "setup_s": statistics.median(outcome.setup),
        "p50_ms": ms(median(phase.scaled)),
        "p99_ms": ms(p99(phase.scaled)),
        "ops_per_s": ratio(len(phase.scaled), phase.busy),
        "db_bytes_per_record": ratio(outcome.db_bytes, outcome.db_records),
        "peak_rss_mb": peak_rss_mb(),
    }


def details(workload: str, outcome: Any) -> Dict[str, Any]:
    """The workload's numbers under the names README.md gives them.

    Times are scaled like the end-to-end metrics; ``wall`` holds the
    same figures as measured and ``calibration_ms`` the reference task's
    times (median, min, max).
    """
    phase = outcome.phases.get("timed") or outcome.phases["traced"]
    lat = phase.scaled
    samples = outcome.calibration.samples
    out: Dict[str, Any] = {
        "workload": workload,
        "timed_ops": len(lat),
        "failed_ratio": ratio(phase.failed, phase.attempted),
        "checks": outcome.checks,
        "wall": {
            "setup_s": statistics.median(outcome.setup_wall),
            "p50_ms": ms(median(phase.latencies)),
            "p99_ms": ms(p99(phase.latencies)),
            "ops_per_s": ratio(len(phase.latencies), phase.wall),
        },
        "calibration_ms": [
            ms(statistics.median(samples)), ms(min(samples)), ms(max(samples)),
        ],
    }
    if workload == "ingest":
        out.update(
            ingest_p50_ms=ms(median(lat)),
            ingest_p99_ms=ms(p99(lat)),
            ingest_records_per_s=ratio(phase.records, phase.busy),
        )
    else:
        out.update(
            lineage_p50_ms=ms(median(lat)),
            lineage_p99_ms=ms(p99(lat)),
            lineage_qps=ratio(len(lat), phase.busy),
        )
    if phase.writes:
        out["write_p50_ms"] = ms(statistics.median(phase.writes))
    if phase.errors:
        out["errors"] = phase.errors
    return out


def per_layer(outcome: Any, workload: str) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the traced phase, plus attribution problems."""
    import tracing
    from workloads import percentile

    recorder = outcome.recorder
    traced = outcome.phases["traced"]
    untraced = outcome.phases["untraced"]
    counters = outcome.counters.get("traced") or outcome.counters["timed"]
    primary = "client.ingest" if workload == "ingest" else "client.lineage"
    problems: List[str] = []

    trees = tracing.request_trees(recorder.spans)
    rows = []  # (root duration, layer self times, tree) of primary ops
    missing: Dict[Tuple[str, ...], int] = {}
    for request_id, tree in trees.items():
        root = next(s for s in tree if s[0] == request_id)
        try:
            duration, layers = tracing.attribute(tree)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if root[3] != primary:
            continue
        names = {s[3] for s in tree}
        for alternatives in REQUIRED_SPANS[workload]:
            if names.isdisjoint(alternatives):
                missing[alternatives] = missing.get(alternatives, 0) + 1
        rows.append((duration, layers, tree))
    if not rows:
        return {}, problems + ["no traced operations"]

    for alternatives, count in missing.items():
        problems.append(
            f"{count} of {len(rows)} operations have no "
            f"{' or '.join(alternatives)} span"
        )
    durations = sorted(row[0] for row in rows)
    low = percentile(durations, MEDIAN_BAND[0])
    high = percentile(durations, MEDIAN_BAND[1])
    band = [row for row in rows if low <= row[0] <= high] or rows
    traced_median = statistics.median(durations)
    band_layers = {
        layer: statistics.mean(row[1][layer] for row in band)
        for layer in tracing.LAYERS + ("root",)
    }
    attributed = sum(band_layers.values())
    if abs(attributed - traced_median) > ATTRIBUTION_TOLERANCE * traced_median:
        problems.append(
            f"layer self times add to {ms(attributed):.3f} ms, "
            f"traced median is {ms(traced_median):.3f} ms"
        )
    root_share = ratio(band_layers["root"], traced_median)
    if root_share > ROOT_SHARE_MAX.get(workload, 1.0):
        problems.append(
            f"{root_share:.1%} of the traced median lies outside every "
            f"layer span (at most {ROOT_SHARE_MAX[workload]:.0%} allowed)"
        )

    def time_in(tree: List[Any], name: str) -> float:
        """Seconds inside outermost ``name`` spans of one request."""
        by_id = {s[0]: s for s in tree}
        return sum(
            s[5] - s[4] for s in tree
            if s[3] == name and (s[1] is None or by_id[s[1]][3] != name)
        )

    def mean_in(name: str) -> float:
        return ms(statistics.mean(time_in(row[2], name) for row in rows))

    def mean_self(name: str) -> float:
        total = 0.0
        for row in rows:
            selfs = tracing.self_times(row[2])
            total += sum(selfs[s[0]] for s in row[2] if s[3] == name)
        return ms(total / len(rows))

    def p50_of(name: str) -> float:
        spans = [s[5] - s[4] for s in recorder.spans if s[3] == name]
        return ms(statistics.median(spans)) if spans else 0.0

    def hit_ratio(level: str) -> float:
        hits = counters.get(f"{level}.hits", 0)
        return ratio(hits, hits + counters.get(f"{level}.misses", 0))

    service_calls = [
        time_in(row[2], "service.lineage") for row in rows
        if any(s[3] == "service.lineage" for s in row[2])
    ]
    metrics = {
        "engine.run_ms": p50_of("engine.run"),
        "engine.events_per_run": statistics.mean(recorder.captured_events)
        if recorder.captured_events else 0.0,
        "store.insert_ms": p50_of("store.insert"),
        "store.delete_ms": p50_of("store.delete"),
        "store.lookup_ms": mean_in("store.lookup"),
        "store.sql_per_query": ratio(traced.sql_queries, traced.records)
        if workload != "ingest" else 0.0,
        "store.rows_per_binding": ratio(traced.rows, traced.bindings),
        "cache.trace_hit_ratio": hit_ratio("trace"),
        "cache.trace_evictions": counters.get("trace.evictions", 0),
        "cache.result_hit_ratio": hit_ratio("result"),
        "cache.result_invalidations": counters.get("result.invalidations", 0),
        "query.s1_ms": mean_in("query.plan"),
        "query.s2_ms": mean_in("query.execute") - mean_in("query.plan"),
        "query.plan_hit_ratio": hit_ratio("plans"),
        "query.plan_invalidations": counters.get("plans.invalidations", 0),
        "query.parse_ms": mean_in("query.parse"),
        "analysis.precheck_ms": mean_in("analysis.precheck"),
        "service.lineage_ms": ms(statistics.median(service_calls))
        if service_calls else 0.0,
        "server.admission_wait_ms": mean_self("server.admission"),
        "server.encode_ms": mean_in("server.encode"),
        "server.unattributed_ms": ms(band_layers["root"]),
        "trace.overhead_pct": 100.0 * (
            ratio(median(traced.scaled), median(untraced.scaled)) - 1.0
        ),
        "trace.spans_per_op": ratio(len(recorder.spans), len(trees)),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = ms(band_layers[layer])
    return metrics, problems


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace = args.trace == 1
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, workdir, trace,
            SETUP_REPEATS[args.workload] if not trace else 1,
        )
    finally:
        for name in os.listdir(workdir):
            if ".db" in name:
                os.remove(os.path.join(workdir, name))
        if not trace:
            os.rmdir(workdir)
    outcome.calibration.close()
    attempted = sum(p.attempted for p in outcome.phases.values())
    failed = sum(p.failed for p in outcome.phases.values())
    info = details(args.workload, outcome)
    if trace:
        metrics, problems = per_layer(outcome, args.workload)
        outcome.recorder.dump(os.path.join(workdir, "spans.jsonl"))
        if problems:
            info["attribution_problems"] = problems[:5]
    else:
        metrics, problems = end_to_end(outcome), []
    correct = failed == 0 and not problems
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}"
        )
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def declared_units(section: str) -> Dict[str, str]:
    """Metric name → unit of one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
