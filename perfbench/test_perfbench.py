"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run with ``python -m pytest perfbench -q -p no:cacheprovider``. They
check that every span fires on the workload it was named for (a wrapper
patched on the wrong module binding records nothing and raises no
error), that self times add up to the traced pass wall apart from the
benchmark's own glue, that counts repeat across processes, and that the
recorded digest matches the published totals.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import record_digest  # noqa: E402
import workloads as W  # noqa: E402

SIM_SPANS = {
    "query.connected_subsets",
    "enumerate.plan_query",
    "estimator.card",
    "truecard.card",
    "truecard.register_temp",
    "truecard.temp_stats",
    "truecard.group_counts",
    "truecard.release",
    "reopt.reoptimize",
    "reopt.rewrite",
    "cost.plan_time",
    "executor.true_cards",
    "harness.run_query",
}
SPARK_SPANS = {
    "harness.execute_spark",
    "executor.run",
    "executor.materialize",
    "executor.drop_temp",
}
#: the benchmark's own glue may take at most this share of a pass.
GLUE_SHARE = 0.02


@pytest.fixture(scope="module")
def world():
    return W.build_world(0.01, 42, 7)


def _fired(tracer) -> set[str]:
    return {name for name, agg in tracer.spans.items() if agg[2] > 0}


def _glue_ok(p) -> bool:
    glue = p.wall - p.tracer.self_sum()
    return 0 <= glue <= GLUE_SHARE * p.wall


def test_sim_spans_fire_and_self_times_sum_to_wall(world):
    p = W.sim_pass(world.ds, W.sim_queries(world.specs)[:12], trace=True)
    assert SIM_SPANS <= _fired(p.tracer)
    assert not _fired(p.tracer) & SPARK_SPANS
    assert _glue_ok(p)
    digest = checks.load_digest(0.01, 42, 7)
    assert checks.digest_mismatches(p.outputs, digest) == []


def test_instrument_restores_every_binding(world):
    import repro.core.enumerate as enumerate_mod

    before = enumerate_mod.connected_subsets
    W.sim_pass(world.ds, W.sim_queries(world.specs)[:2], trace=True)
    assert enumerate_mod.connected_subsets is before


_COUNTS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads as W
w = W.build_world(0.01, 42, 7)
p = W.sim_pass(w.ds, W.sim_queries(w.specs)[:12])
print(json.dumps([p.counts, p.loose_counts]))
"""


def test_exact_counts_repeat_across_processes():
    """Estimates, replans, temps and catalog size repeat exactly.

    Each process gets its own hash seed; the oracle's miss count is
    loose because it does not repeat across hash seeds.
    """
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", _COUNTS, str(HERE.parent / "src"), str(HERE)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
            check=True,
        )
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    assert runs[0][0] == runs[1][0]


def test_digest_matches_published_totals():
    digest = json.loads(checks.DIGEST_PATH.read_text())
    assert record_digest.totals_errors(digest["runs"]) == []


def test_spark_spans_fire_and_results_match(world):
    spark = W.start_spark(HERE.parent)
    try:
        digest = checks.load_digest(0.01, 42, 7)
        st = W.plan_spark_top(
            world.ds,
            world.specs,
            spark,
            {q: d[0] for q, d in digest["pg"].items()},
        )
        p = W.spark_pass(st, st.top, spark, "perfbench-test", trace=True)
        assert SPARK_SPANS <= _fired(p.tracer)
        assert not _fired(p.tracer) & SIM_SPANS
        assert _glue_ok(p)
        expected = {q.name: st.harness.oracle.result(q) for q in st.top}
        assert checks.spark_mismatches(p.outputs, expected) == []
        assert p.loose_counts["spark_jobs"] > 0
    finally:
        W.stop_spark(spark)
