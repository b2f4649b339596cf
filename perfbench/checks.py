"""Output checks: recorded digest, cross-engine agreement, Spark results.

At the default seeds every simulated (query, config) must reproduce the
recorded ``digest.json`` exactly: simulated time, number of replans and
number of cardinality estimates. At other seeds there is no digest; the
oracle's counts must then agree with DuckDB, and the printed output hash
lets two versions of the program be compared on the same seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import duckdb

from workloads import n_estimates

DIGEST_PATH = Path(__file__).with_name("digest.json")


def run_digest(run) -> list:
    """[simulated time, replans, estimates] of one QueryRun."""
    return [run.sim_time, run.n_replans, n_estimates(run)]


def load_digest(sf: float, data_seed: int, workload_seed: int) -> dict | None:
    """config → query → digest, or None if these seeds were not recorded."""
    d = json.loads(DIGEST_PATH.read_text())
    if (d["sf"], d["data_seed"], d["workload_seed"]) != (
        sf,
        data_seed,
        workload_seed,
    ):
        return None
    return d["runs"]


def digest_mismatches(outputs: dict, digest: dict) -> list[str]:
    """(config, query) pairs whose outputs differ from the digest."""
    return [
        f"{cfg}/{q}"
        for cfg, by_q in outputs.items()
        for q, run in by_q.items()
        if run_digest(run) != digest[cfg][q]
    ]


def output_hash(outputs: dict) -> str:
    """A hash of every simulated output, independent of query order."""
    h = hashlib.sha256()
    for cfg in sorted(outputs):
        for q in sorted(outputs[cfg]):
            h.update(repr((cfg, q, run_digest(outputs[cfg][q]))).encode())
    return h.hexdigest()[:16]


def cross_engine_mismatches(ds, queries: list, oracle, max_rows: float) -> list[str]:
    """Queries whose oracle count differs from DuckDB's ``COUNT(*)``.

    Queries whose true result exceeds ``max_rows`` are not enumerated.
    """
    con = duckdb.connect()
    try:
        for name, pdf in ds.tables.items():
            con.register(name, pdf)
        bad = []
        for q in queries:
            n = oracle.card(q)
            if n <= max_rows and con.execute(q.count_sql()).fetchone()[0] != n:
                bad.append(q.name)
        return bad
    finally:
        con.close()


def _values(row) -> list:
    """One result row as comparable Python values (NULL → None)."""
    out = []
    for v in row.iloc[0].tolist():
        v = v.item() if hasattr(v, "item") else v
        out.append(None if isinstance(v, float) and math.isnan(v) else v)
    return out


def spark_mismatches(rows: dict, expected: dict) -> list[str]:
    """Spark executions whose COUNT and MINs differ from the oracle's.

    ``rows`` maps config → query → Spark's result row; ``expected``
    maps query → the oracle's result row. Columns compare by position:
    a re-optimized query renames its MIN columns after the temp table.
    """
    return [
        f"{cfg}/{q}"
        for cfg, by_q in rows.items()
        for q, row in by_q.items()
        if _values(row) != _values(expected[q])
    ]
