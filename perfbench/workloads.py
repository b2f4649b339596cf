"""The benchmark's workloads, driven through the public API of ``repro``.

Each workload is a closed loop, one (query, config) at a time, made of
whole *passes*. A simulation pass starts from a fresh ``Harness`` and a
freshly built ``Catalog``: both estimators memoize on ``spec.name`` and
``reoptimize`` writes temp statistics into the catalog, so a reused
harness would make later passes faster and different.

The stream seed only orders the queries of a pass. Which queries a pass
holds is fixed, so every run measures the same work and runs with
different seeds stay comparable.
"""
from __future__ import annotations

import os
import random
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.harness import PERFECT, PG, REOPT32, Harness
from repro.core.stats import analyze_pandas
from repro.imdb import gen, workload

from tracer import Tracer, instrument

#: the paper's three configs, run per query (queries outer).
CONFIGS = (PG, PERFECT, REOPT32)

#: longest executable queries executed by ``spark-top``.
SPARK_TOP_N = 2
#: queries with a larger true result are skipped, as in
#: ``benchmarks/bench_top20_spark.py``.
MAX_ROWS = 5e5


def sim_queries(specs: list) -> list:
    """The fixed query set of one ``sim-paper`` pass.

    Every fourth query of the size-ordered workload (28 of 113, two of
    them 14-relation queries), so that several passes fit one run.
    """
    return specs[1::4]


def stream(queries: list, seed: int) -> list:
    """The seeded order in which a pass sends its queries."""
    return random.Random(seed).sample(queries, len(queries))


# ---------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------

@dataclass
class World:
    """Generated data and workload, plus the time each set-up step took."""

    ds: object
    specs: list
    layer_s: dict[str, float]


def build_world(sf: float, data_seed: int, workload_seed: int) -> World:
    """Datagen, ANALYZE and the workload build: the set-up being timed."""
    t0 = time.perf_counter()
    ds = gen.generate(sf=sf, seed=data_seed)
    t1 = time.perf_counter()
    analyze_pandas(ds)
    t2 = time.perf_counter()
    specs = workload.job_lite_workload(seed=workload_seed)
    t3 = time.perf_counter()
    return World(
        ds,
        specs,
        {
            "gen.generate_s": t1 - t0,
            "stats.analyze_s": t2 - t1,
            "workload.build_s": t3 - t2,
        },
    )


# ---------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------

@dataclass
class Pass:
    """One timed pass: wall, per-execution latency, and what it produced."""

    wall: float
    latencies: list[float]
    #: config → query → QueryRun (simulation) or result row (Spark).
    outputs: dict
    #: counts that must repeat exactly from pass to pass.
    counts: dict[str, int]
    #: counts reported with their spread (not exact by nature).
    loose_counts: dict[str, int] = field(default_factory=dict)
    tracer: Tracer | None = None


def _timed(fn, latencies: list[float]):
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        latencies.append(time.perf_counter() - t0)
        return out

    return call


def n_estimates(run) -> int:
    """Cardinality estimates one QueryRun made, over all its plans."""
    if run.outcome is None:
        return run.plan.n_estimates
    return sum(p.n_estimates for p in run.outcome.planner_results)


def sim_pass(ds, queries: list, trace: bool = False) -> Pass:
    """``Harness.run_workload`` over ``queries`` × ``CONFIGS``, cold."""
    catalog = analyze_pandas(ds)
    h = Harness(ds, catalog)
    tracer = Tracer() if trace else None
    latencies: list[float] = []
    with instrument(tracer, h) if trace else nullcontext():
        run_query = h.run_query
        h.run_query = _timed(run_query, latencies)
        t0 = time.perf_counter()
        out = h.run_workload(queries, list(CONFIGS))
        wall = time.perf_counter() - t0
        h.run_query = run_query
    runs = [r for by_q in out.values() for r in by_q.values()]
    counts = {
        "plans": sum(
            1 if r.outcome is None else len(r.outcome.planner_results)
            for r in runs
        ),
        "estimates": sum(n_estimates(r) for r in runs),
        "replans": sum(r.n_replans for r in runs),
        "temps_registered": sum(
            len(r.outcome.steps) for r in runs if r.outcome is not None
        ),
        "catalog_tables": len(catalog.stats),
    }
    # The oracle's count memo is keyed by SQL text whose join order
    # follows set iteration order, so its misses vary with the hash seed.
    loose = {"oracle_counts": h.oracle.n_counts}
    h.oracle.close()
    return Pass(wall, latencies, out, counts, loose, tracer)


def run_passes(one_pass, seconds: float) -> list[Pass]:
    """Whole passes for up to ``seconds``; always at least one.

    Another pass starts only if the mean pass so far still fits.
    """
    passes = [one_pass()]
    spent = passes[0].wall
    while spent + spent / len(passes) <= seconds:
        passes.append(one_pass())
        spent += passes[-1].wall
    return passes


# ---------------------------------------------------------------------
# Spark.
# ---------------------------------------------------------------------

def spark_cores() -> int:
    return min(4, os.cpu_count() or 1)


def start_spark(root: Path):
    """A ``local[k]`` session whose scratch files stay under ``root``."""
    work = root / ".bench_build" / "spark"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    # -XX:-UsePerfData: no hsperfdata files outside the checkout.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    )
    # Spark's block manager and shuffle files.
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    k = spark_cores()
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{k}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        # One task per core per stage; AQE stays at its default (on).
        .config("spark.sql.shuffle.partitions", str(k))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def spark_job_counts(spark, group: str) -> tuple[int, int]:
    """(jobs, distinct stages) Spark ran under job group ``group``."""
    st = spark.sparkContext.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages: set[int] = set()
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    return len(jobs), len(stages)


@dataclass
class SparkTop:
    """The planned top-N queries, ready to execute."""

    harness: Harness
    executor: object
    top: list
    #: config → query → QueryRun (reopt runs keep their temps).
    runs: dict
    skipped: int


def plan_spark_top(ds, specs, spark, pg_sim_time: dict | None) -> SparkTop:
    """Rank executable queries by PG simulated time; plan the top N.

    ``pg_sim_time`` (query → PG simulated time) comes from the recorded
    digest when the seeds have one; otherwise PG runs every query.
    """
    from repro.core.executor import SparkExecutor

    h = Harness(ds, analyze_pandas(ds))
    executable = [q for q in specs if h.oracle.card(q) <= MAX_ROWS]
    if pg_sim_time is None:
        pg_sim_time = {q.name: h.run_query(q, PG).sim_time for q in specs}
    top = sorted(executable, key=lambda q: -pg_sim_time[q.name])[:SPARK_TOP_N]
    runs = {
        c.name: {q.name: h.run_query(q, c, keep_temps=True) for q in top}
        for c in CONFIGS
    }
    return SparkTop(
        h, SparkExecutor(spark, ds), top, runs, len(specs) - len(executable)
    )


def spark_pass(
    st: SparkTop, order: list, spark, group: str, trace: bool = False
) -> Pass:
    """Execute every planned (query, config) once in Spark.

    The final result row of each execution is captured for checking
    after the pass.
    """
    tracer = Tracer() if trace else None
    latencies: list[float] = []
    rows: dict[str, dict] = {c.name: {} for c in CONFIGS}
    last: list = []
    materializations = materialized_rows = 0
    spark.sparkContext.setJobGroup(group, group)
    with instrument(tracer, st.harness, st.executor) if trace else nullcontext():
        run = st.executor.run

        def capture(*args, **kwargs):
            res = run(*args, **kwargs)
            last.append(res.row)
            return res

        st.executor.run = capture
        t0 = time.perf_counter()
        for q in order:
            for c in CONFIGS:
                qr = st.runs[c.name][q.name]
                t = time.perf_counter()
                st.harness.execute_spark(q, qr, st.executor)
                latencies.append(time.perf_counter() - t)
                rows[c.name][q.name] = last.pop()
                if qr.outcome is not None:
                    materializations += len(qr.outcome.steps)
                    materialized_rows += sum(s.rows for s in qr.outcome.steps)
        wall = time.perf_counter() - t0
        st.executor.run = run
    jobs, stages = spark_job_counts(spark, group)
    return Pass(
        wall,
        latencies,
        rows,
        {
            "materializations": materializations,
            "materialized_rows": materialized_rows,
        },
        # Job and stage counts depend on adaptive query execution.
        {"spark_jobs": jobs, "spark_stages": stages},
        tracer,
    )
