"""One predicate semantics: pandas, Spark and DuckDB select the same rows.

``Filter.mask`` is evaluated on a pandas ``Series`` (the oracle's
leaves) and on a Spark ``Column`` (the executor's leaves); ``Filter.sql``
is the DuckDB rendering. For every op, on int and string columns, the
three must agree row for row.
"""
import duckdb
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import Filter

FRAME = pd.DataFrame(
    {
        "rid": range(12),
        "i": [0, 1, 1, 2, 3, 5, 8, 8, 13, 21, -4, 7],
        "s": ["a", "b", "ab", "ba", "", "c", "a", "bb", "abc", "ca", "b", "cc"],
    }
)

INTS = st.integers(-6, 24)
STRS = st.text(alphabet="abc", max_size=3)
OPS = ("=", "<", "<=", ">", ">=")


def filters(col: str, values) -> st.SearchStrategy:
    scalar = st.builds(Filter, st.just(col), st.sampled_from(OPS), values)
    in_list = st.builds(
        Filter,
        st.just(col),
        st.just("in"),
        st.lists(values, min_size=1, max_size=4).map(tuple),
    )
    return scalar | in_list


@pytest.fixture(scope="module")
def engines(spark):
    con = duckdb.connect()
    con.register("t", FRAME)
    yield spark.createDataFrame(FRAME), con
    con.close()


@settings(max_examples=40, deadline=None)
@given(f=filters("i", INTS) | filters("s", STRS))
def test_pandas_spark_duckdb_select_same_rows(engines, f):
    sdf, con = engines
    by_pandas = set(FRAME.loc[f.mask(FRAME[f.col]), "rid"])
    by_spark = {r.rid for r in sdf.where(f.mask(sdf[f.col])).collect()}
    by_duckdb = {
        r[0] for r in con.execute(f"SELECT rid FROM t WHERE {f.sql('t')}").fetchall()
    }
    assert by_pandas == by_spark == by_duckdb
