"""Layer-traced benchmark of the JOB-lite pipeline.

Runs one workload, checks every output, prints every metric by name
with its unit, and ends with one JSON line::

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics. See ``perfbench/NOTES.md`` for why each workload
exists and which metric each layer should move.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("sim-paper", "spark-top")
#: set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 11


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True, help="query-stream seed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sf", type=float, default=0.01, help="scale factor")
    p.add_argument("--data-seed", type=int, default=42)
    p.add_argument("--workload-seed", type=int, default=7)
    return p.parse_args(argv)


# ---------------------------------------------------------------------
# Metadata.
# ---------------------------------------------------------------------

def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_loc() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in (SRC / "repro").rglob("*.py")
    )


def run_metadata(args, cores: int) -> dict:
    return {
        "workload": args.workload,
        "sf": args.sf,
        "data_seed": args.data_seed,
        "workload_seed": args.workload_seed,
        "stream_seed": args.seed,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "spark_master": f"local[{cores}]",
        "spark.sql.shuffle.partitions": cores,
        "versions": {
            m: metadata.version(m) for m in ("pyspark", "pandas", "numpy", "duckdb")
        },
        "src_loc": _src_loc(),
    }


# ---------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------

def end_to_end(passes, setup_s: float) -> dict:
    lat = [x for p in passes for x in p.latencies]
    wall = sum(p.wall for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(lat) / wall, "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }


def per_layer(traced, untraced, layer_s: dict, skipped: int) -> dict:
    """Per-layer metrics of one traced pass (0 where a layer is idle)."""
    t = traced.tracer
    c = {**traced.counts, **traced.loose_counts}
    calls = t.calls("truecard.card")
    s, n = "s", "count"
    return {
        "query.connected_subsets_s": (t.total("query.connected_subsets"), s),
        "query.connected_subsets_calls": (t.calls("query.connected_subsets"), n),
        "enumerate.plan_query_s": (t.total("enumerate.plan_query"), s),
        "enumerate.dp_self_s": (t.self_time("enumerate.plan_query"), s),
        "enumerate.plan_query_calls": (t.calls("enumerate.plan_query"), n),
        "enumerate.estimates": (c.get("estimates", 0), n),
        "estimator.card_self_s": (t.self_time("estimator.card"), s),
        "estimator.card_calls": (t.calls("estimator.card"), n),
        "truecard.card_self_s": (t.self_time("truecard.card"), s),
        "truecard.card_calls": (calls, n),
        "truecard.counts": (c.get("oracle_counts", 0), n),
        "truecard.memo_hit_ratio": (
            1 - c.get("oracle_counts", 0) / calls if calls else 0.0,
            "ratio",
        ),
        "truecard.temp_stats_s": (t.total("truecard.temp_stats"), s),
        "truecard.temp_stats_calls": (t.calls("truecard.temp_stats"), n),
        "truecard.group_counts_s": (t.total("truecard.group_counts"), s),
        "reopt.reoptimize_self_s": (t.self_time("reopt.reoptimize"), s),
        "reopt.rewrite_s": (t.total("reopt.rewrite"), s),
        "reopt.replans": (c.get("replans", 0), n),
        "reopt.temps_registered": (t.calls("truecard.register_temp"), n),
        "reopt.catalog_tables_after": (c.get("catalog_tables", 0), n),
        "cost.plan_time_s": (t.total("cost.plan_time"), s),
        "cost.plan_time_calls": (t.calls("cost.plan_time"), n),
        "executor.true_cards_s": (t.total("executor.true_cards"), s),
        "executor.run_s": (t.total("executor.run"), s),
        "executor.run_calls": (t.calls("executor.run"), n),
        "executor.materialize_s": (t.total("executor.materialize"), s),
        "executor.materialize_calls": (t.calls("executor.materialize"), n),
        "executor.materialized_rows": (c.get("materialized_rows", 0), n),
        "executor.spark_jobs": (c.get("spark_jobs", 0), n),
        "executor.spark_stages": (c.get("spark_stages", 0), n),
        "executor.skipped_queries": (skipped, n),
        "gen.generate_s": (layer_s["gen.generate_s"], s),
        "stats.analyze_s": (layer_s["stats.analyze_s"], s),
        "workload.build_s": (layer_s["workload.build_s"], s),
        "harness.run_query_self_s": (t.self_time("harness.run_query"), s),
        "harness.execute_spark_self_s": (
            t.self_time("harness.execute_spark"),
            s,
        ),
        "trace.overhead_s": (traced.wall - untraced.wall, s),
    }


def repeat_report(passes) -> tuple[dict, list[str]]:
    """Counts across passes: exact ones must repeat; others get spreads."""
    report, errors = {}, []
    for key in passes[0].counts:
        vals = [p.counts[key] for p in passes]
        report[key] = vals[0] if len(set(vals)) == 1 else vals
        if len(set(vals)) != 1:
            errors.append(f"count {key} did not repeat: {vals}")
    for key in passes[0].loose_counts:
        vals = [p.loose_counts[key] for p in passes]
        report[key] = {"min": min(vals), "max": max(vals), "exact": len(set(vals)) == 1}
    return report, errors


# ---------------------------------------------------------------------
# Workload drivers.
# ---------------------------------------------------------------------

@dataclass
class Measured:
    """What a workload driver hands back for reporting."""

    passes: list
    traced: object | None
    #: every pass whose outputs were checked (set-up passes included).
    checked: list
    mismatches: list[str]
    output_hashes: set = field(default_factory=set)
    skipped_queries: int = 0
    extra_setup_s: float = 0.0


def run_sim(args, world, digest) -> Measured:
    import checks
    import workloads as W

    queries = W.stream(W.sim_queries(world.specs), args.seed)

    def one(trace=False):
        return W.sim_pass(world.ds, queries, trace)

    passes = [one()] if args.trace else W.run_passes(one, args.seconds)
    traced = one(trace=True) if args.trace else None
    checked = passes + ([traced] if traced else [])
    bad: list[str] = []
    if digest is not None:
        for p in checked:
            bad += checks.digest_mismatches(p.outputs, digest)
    else:
        from repro.core.truecard import TrueCardinalityOracle

        oracle = TrueCardinalityOracle(world.ds)
        names = checks.cross_engine_mismatches(world.ds, queries, oracle, W.MAX_ROWS)
        oracle.close()
        # A wrong count makes every execution of that query wrong.
        bad += [f"{c.name}/{n}" for n in names for c in W.CONFIGS] * len(checked)
    hashes = {checks.output_hash(p.outputs) for p in checked}
    return Measured(passes, traced, checked, bad, hashes)


def run_spark(args, world, digest) -> Measured:
    import checks
    import workloads as W

    groups = (f"perfbench-{i}" for i in itertools.count())
    t0 = time.perf_counter()
    spark = W.start_spark(ROOT)
    try:
        for table in world.ds.tables:
            world.ds.spark_df(spark, table)
        pg_time = (
            {q: d[0] for q, d in digest["pg"].items()} if digest else None
        )
        st = W.plan_spark_top(world.ds, world.specs, spark, pg_time)
        order = W.stream(st.top, args.seed)
        warm = W.spark_pass(st, order, spark, next(groups))
        spark_setup = time.perf_counter() - t0

        def one(trace=False):
            return W.spark_pass(st, order, spark, next(groups), trace)

        passes = [one()] if args.trace else W.run_passes(one, args.seconds)
        traced = one(trace=True) if args.trace else None
        checked = [warm] + passes + ([traced] if traced else [])
        bad: list[str] = []
        if digest is not None:
            bad += checks.digest_mismatches(st.runs, digest)
        expected = {q.name: st.harness.oracle.result(q) for q in st.top}
        for q in st.top:
            if int(expected[q.name]["cnt"].iloc[0]) != st.harness.oracle.card(q):
                bad.append(f"oracle/{q.name}")
        for p in checked:
            bad += checks.spark_mismatches(p.outputs, expected)
        st.harness.oracle.close()
    finally:
        W.stop_spark(spark)
    return Measured(
        passes,
        traced,
        checked,
        bad,
        skipped_queries=st.skipped,
        extra_setup_s=spark_setup,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads as W

    timings = []
    for _ in range(SETUP_REPEATS):
        world = W.build_world(args.sf, args.data_seed, args.workload_seed)
        timings.append(world.layer_s)
    layer_s = {k: statistics.median(t[k] for t in timings) for k in timings[0]}
    setup_s = statistics.median(sum(t.values()) for t in timings)
    digest = checks.load_digest(args.sf, args.data_seed, args.workload_seed)

    driver = run_spark if args.workload == "spark-top" else run_sim
    m = driver(args, world, digest)
    setup_s += m.extra_setup_s

    repeats, repeat_errors = repeat_report(
        m.passes + ([m.traced] if m.traced else [])
    )
    if len(m.output_hashes) > 1:
        repeat_errors.append(f"outputs differ between passes: {m.output_hashes}")
    attempted = sum(len(p.latencies) for p in m.checked)
    failed = min(len(m.mismatches), attempted)
    meta = run_metadata(args, W.spark_cores())
    meta.update(
        passes=len(m.passes),
        samples=sum(len(p.latencies) for p in m.passes),
        measured_s=sum(p.wall for p in m.passes),
        error_rate=failed / attempted,
        mismatches=m.mismatches[:20],
        output_hash=min(m.output_hashes, default=None),
        digest_checked=digest is not None,
        repeat=repeats,
        repeat_errors=repeat_errors,
    )
    if m.traced:
        metrics = per_layer(m.traced, m.passes[0], layer_s, m.skipped_queries)
        meta["trace_glue_s"] = m.traced.wall - m.traced.tracer.self_sum()
    else:
        metrics = end_to_end(m.passes, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(json.dumps({"meta": meta}, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not repeat_errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
