"""Motivo benchmark: one workload, warm JVM, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload build-facebook-k5 --seed 1 --seconds 10 --trace 0

Set-up (SparkSession start, a JVM warm-up job, ``datasets.load``) is
timed as ``setup_s``. Then the workload's pipeline (build-up →
sampling → estimates) repeats on fresh colorings until ``--seconds``
have passed, and at least the workload's minimum number of times;
each iteration's outputs are checked outside the timed region, and a
failed check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` alternates untraced and traced iterations (at least
three) and reports the per-layer metrics of the traced ones, plus the
tracing overhead. Every metric is printed as ``name value unit``; the
last stdout line is the JSON summary, and the full results (spans
included) go to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import session  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_LEVEL = 5
MB = 1e6

END_TO_END_UNITS = {
    "setup_s": "s",
    "e2e_s": "s",
    "build_s": "s",
    "sample_s": "s",
    "table_mb": "MB",
    "peak_rss_mb": "MB",
}


def layer_metrics(out, spans, cache_delta, session_counters, cores: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration; 0 where a layer did
    not run."""

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name))

    def spark_sum(name, field):
        return sum((s.spark or {}).get(field, 0) for s in named(name))

    m: dict[str, tuple[float, str]] = {}
    stats = out.tables.stats
    for h in range(1, MAX_LEVEL + 1):
        m[f"buildup.level{h}_s"] = (stats.seconds_per_level.get(h, 0.0), "s")
        m[f"buildup.level{h}_rows"] = (stats.rows_per_level.get(h, 0), "count")
        m[f"buildup.level{h}_bytes"] = (stats.bytes_per_level.get(h, 0), "bytes")
    build_s = total("buildup.build_tables")
    busy_s = spark_sum("buildup.build_tables", "task_ms") / 1000
    m["buildup.spark_tasks"] = (spark_sum("buildup.build_tables", "tasks"), "count")
    m["buildup.shuffle_read_mb"] = (spark_sum("buildup.build_tables", "shuffle_read") / MB, "MB")
    m["buildup.shuffle_write_mb"] = (spark_sum("buildup.build_tables", "shuffle_write") / MB, "MB")
    m["buildup.task_busy_s"] = (busy_s, "s")
    m["buildup.busy_frac"] = (busy_s / (build_s * cores) if build_s else 0.0, "ratio")
    m["buildup.root_pdf_calls"] = (len(named("buildup.root_pdf")), "count")
    m["buildup.root_pdf_s"] = (total("buildup.root_pdf"), "s")

    m["alias.builds"] = (len(named("alias.build")), "count")
    m["alias.build_s"] = (total("alias.build"), "s")

    m["sampler.calls"] = (len(named("sampler.sample_graphlets")), "count")
    m["sampler.draw_roots_s"] = (total("sampler.draw_roots"), "s")
    m["sampler.unfold_s"] = (total("sampler.unfold"), "s")
    m["sampler.classify_s"] = (total("sampler.classify"), "s")
    m["sampler.spark_tasks"] = (spark_sum("sampler.sample_graphlets", "tasks"), "count")
    m["sampler.shuffle_read_mb"] = (
        spark_sum("sampler.sample_graphlets", "shuffle_read") / MB, "MB"
    )
    m["sampler.task_busy_s"] = (spark_sum("sampler.sample_graphlets", "task_ms") / 1000, "s")

    res = out.first.ags
    ags_spans = named("ags.ags")
    rounds = []
    for a in ags_spans:
        starts = [s.start for s in spans if s.parent == a.id and s.name == "sampler.sample_graphlets"]
        bounds = starts + [a.end]
        rounds += [b - s for s, b in zip(bounds, bounds[1:])]
    m["ags.rounds"] = (len(res.schedule) if res else 0, "count")
    m["ags.round_s"] = (statistics.median(rounds) if rounds else 0.0, "s")
    m["ags.samples_used"] = (res.samples_used if res else 0, "count")
    m["ags.shapes_used"] = (len(res.shapes_used) if res else 0, "count")
    m["ags.classes_seen"] = (len(res.hits) if res else 0, "count")
    m["ags.classes_covered"] = (len(res.covered) if res else 0, "count")

    calls, hits = cache_delta.get("spanning.spanning_profile", (0, 0))
    m["spanning.profile_calls"] = (calls, "count")
    m["spanning.cache_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")

    ls = out.first.local
    draw_s = total("local_sampler.draw")
    m["local_sampler.init_s"] = (total("local_sampler.init"), "s")
    m["local_sampler.draw_s"] = (draw_s, "s")
    m["local_sampler.samples_per_s"] = (
        sum(out.first.hits.values()) / draw_s if ls is not None and draw_s else 0.0, "1/s"
    )
    st = ls.stats if ls is not None else None
    m["local_sampler.sweeps"] = (st.sweeps if st else 0, "count")
    m["local_sampler.swept_neighbors"] = (st.swept_neighbors if st else 0, "count")
    m["local_sampler.buffer_hits"] = (st.buffer_hits if st else 0, "count")
    expansions = st.sweeps + st.buffer_hits if st else 0
    m["local_sampler.buffer_hit_ratio"] = (st.buffer_hits / expansions if expansions else 0.0, "ratio")

    calls, hits = cache_delta.get("graphlet.canonical", (0, 0))
    m["graphlet.canonical_calls"] = (calls, "count")
    m["graphlet.canonical_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")

    m["estimators.naive_s"] = (total("estimators.naive"), "s")

    self_s = tracing.self_seconds(spans)
    for layer in ("buildup", "sampler", "ags", "local_sampler", "estimators"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")

    failed, gc_s = session_counters
    m["spark.failed_tasks"] = (failed, "count")
    m["spark.gc_s"] = (gc_s, "s")
    return m


def median_metrics(dicts: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    return {
        name: (statistics.median(d[name][0] for d in dicts), unit)
        for name, (_, unit) in dicts[0].items()
    }


def check(w, out, truth, temp_dir: Path) -> list[str]:
    errors = checks.check_tables(out.tables, temp_dir)
    for p in out.passes:
        if p.ags is None:
            errors += checks.check_hits(p.hits, w.samples, w.k)
            continue
        # AGS may stop before max_samples once every urn is explored and
        # every observed class covered.
        used = p.ags.samples_used
        if used > w.samples:
            errors.append(f"AGS used {used} samples, more than max_samples {w.samples}")
        errors += checks.check_hits(p.hits, used, w.k) + checks.check_l1(p.estimates, truth)
    return errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Motivo benchmark (one workload).")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: token budgets, on a prefix of the analog where that keeps its structure (smoke test)",
    )
    args = ap.parse_args(argv)
    w = workloads.get(args.workload, tiny=args.scale == "tiny")
    tag = f"{w.name}-{args.scale}-seed{args.seed}-trace{args.trace}"
    base = session.ROOT / ".perfbench"
    work = base / f"{tag}-{os.getpid()}"
    session.configure(work)

    tracer = None
    spark = None
    try:
        t0 = time.perf_counter()
        spark = session.start()
        workloads.warm_up(spark, w, work / "warmup")
        if args.trace:
            tracer = tracing.Tracer(f"{tag}-setup", lambda: session.stage_window(spark))
            tracer.install()
            tracer.active = True
        graph = workloads.load_graph(w)
        if tracer is not None:
            tracer.active = False
        setup_s = time.perf_counter() - t0
        shutil.rmtree(work / "warmup", ignore_errors=True)
        pids = [os.getpid(), session.jvm_pid(spark)]
        truth, esu_s = (None, 0.0)
        if w.mode == "ags":
            truth, esu_s = checks.exact_counts(spark, graph, w.k)

        iterations = []
        load_spans = list(tracer.spans) if tracer else []
        start = time.perf_counter()
        i = 0
        # Traced runs alternate untraced and traced iterations; the first
        # (untraced) one runs slower while the JIT finishes warming, so
        # it is left out of the overhead comparison.
        while i < (3 if args.trace else w.min_iterations) or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            flush = work / f"iter{i}"
            record = {"iteration": i, "seed": args.seed * 1000 + i, "traced": traced}
            try:
                # Collect both heaps now so no earlier garbage is collected
                # inside the timed calls.
                gc.collect()
                spark.sparkContext._jvm.System.gc()
                session.reset_peak_rss(pids)
                if traced:
                    tracer.run_id = f"{tag}-iter{i}"
                    first_span = len(tracer.spans)
                    cache0 = tracing.cache_counts()
                    tracer.active = True
                try:
                    # a traced iteration samples once, so its layer
                    # metrics are those of one pass
                    out = workloads.run(
                        spark, w, graph, record["seed"], flush, passes=1 if traced else None
                    )
                finally:
                    if tracer is not None:
                        tracer.active = False
                record["peak_rss_mb"] = session.peak_rss_mb(pids)
                record.update(
                    e2e_s=out.e2e_s,
                    build_s=out.build_s,
                    sample_s=out.sample_s,
                    table_mb=out.tables.stats.total_bytes / MB,
                )
                record["passes_s"] = [p.seconds for p in out.passes]
                if out.first.ags is not None:
                    record["ags_schedule"] = out.first.ags.schedule
                if out.first.local is not None:
                    record["local_sampler"] = [dataclasses.asdict(p.local.stats) for p in out.passes]
                if traced:
                    cache1 = tracing.cache_counts()
                    delta = {
                        n: (cache1[n][0] - c[0], cache1[n][1] - c[1])
                        for n, c in cache0.items()
                        if n in cache1
                    }
                    spans = tracer.spans[first_span:]
                    record["layers"] = layer_metrics(
                        out, spans, delta, session.session_counters(spark), session.CORES
                    )
                t0 = time.perf_counter()
                record["errors"] = check(w, out, truth, work)
                record["check_s"] = time.perf_counter() - t0
            except Exception:
                record["errors"] = [traceback.format_exc()]
            for err in record["errors"]:
                print(f"[{tag}] iteration {i} check failed: {err}", file=sys.stderr)
            iterations.append(record)
            shutil.rmtree(flush, ignore_errors=True)
            spark.catalog.clearCache()
            # drop this iteration's tables and samplers before the next
            # one runs, so every iteration starts from the same heap
            out = None
            i += 1
    finally:
        if spark is not None:
            session.shutdown(spark)

    failed = sum(1 for r in iterations if r["errors"])
    ok = [r for r in iterations if not r["errors"]]
    untraced = [r for r in ok if not r["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    if untraced:
        metrics = {
            name: (statistics.median(r[name] for r in untraced), unit)
            for name, unit in END_TO_END_UNITS.items()
            if name != "setup_s"
        }
        metrics["setup_s"] = (setup_s, "s")
    layers: dict[str, tuple[float, str]] = {}
    traced_ok = [r for r in ok if r["traced"]]
    if traced_ok and untraced:
        layers = median_metrics([r["layers"] for r in traced_ok])
        loads = [s.seconds for s in load_spans if s.name == "graphs.load"]
        layers["graphs.load_s"] = (statistics.median(loads) if loads else 0.0, "s")
        layers["esu.counts_s"] = (esu_s, "s")
        warm = [r for r in untraced if r["iteration"] > 0] or untraced
        layers["trace.overhead_s"] = (
            statistics.median(r["e2e_s"] for r in traced_ok)
            - statistics.median(r["e2e_s"] for r in warm),
            "s",
        )
    reported = layers if args.trace else metrics

    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = {
        "workload": dataclasses.asdict(w),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "session": {"master": session.MASTER, "driver_memory": session.DRIVER_MEMORY, **session.SQL_CONF},
        "setup_s": setup_s,
        "iterations": [{k: v for k, v in r.items() if k != "layers"} for r in iterations],
        "end_to_end": metrics,
        "per_layer": layers,
        "absent": tracer.missing if tracer else [],
        "spans": [vars(s) for s in (tracer.spans if tracer else [])],
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(results, indent=1, default=str))
    shutil.rmtree(work, ignore_errors=True)

    if tracer is not None and tracer.missing:
        print(f"absent (metrics read 0): {', '.join(tracer.missing)}", file=sys.stderr)
    for name, (value, unit) in reported.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(reported),
                "attempted": len(iterations),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
