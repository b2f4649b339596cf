"""True-cardinality oracle tests.

The Yannakakis tree count is the load-bearing piece of the whole
reproduction (perfect-(n) and re-optimization both depend on it), so
it is cross-checked against plain DuckDB SQL on many real sub-joins.
"""
from dataclasses import replace

import duckdb
import pandas as pd
import pytest

from repro.core.query import Filter, JoinEdge, QuerySpec, Relation, connected_subsets
from repro.core.reopt import rewrite_with_temp
from repro.core.truecard import EXACT_LIMIT, TrueCardinalityOracle, _exact
from repro.imdb import workload


def duck_count(ds, sql: str) -> int:
    con = duckdb.connect()
    try:
        for name, pdf in ds.tables.items():
            con.register(name, pdf)
        return int(con.execute(sql).fetchone()[0])
    finally:
        con.close()


@pytest.fixture(scope="module")
def q6d():
    return workload.q6d_lite()


# -- tree count vs SQL on real queries ---------------------------------

@pytest.mark.parametrize("qname", ["q6d_lite", "q18a_lite", "q_nasdaq"])
def test_full_count_matches_duckdb(ds, oracle, qname):
    spec = getattr(workload, qname)()
    assert oracle.card(spec) == duck_count(ds, spec.count_sql())


def test_every_subset_of_q6d_matches_duckdb(ds, oracle, q6d):
    for s in connected_subsets(q6d):
        assert oracle.card(q6d, s) == duck_count(ds, q6d.count_sql(s)), s


@pytest.mark.parametrize("i", [0, 5, 23, 40, 60, 80, 95, 104, 112])
def test_workload_subsets_match_duckdb(ds, oracle, specs, i):
    spec = specs[i]
    subs = connected_subsets(spec, max_size=4)
    for s in subs[:: max(1, len(subs) // 8)]:
        assert oracle.card(spec, s) == duck_count(ds, spec.count_sql(s)), s


def test_count_memoized(ds, q6d):
    orc = TrueCardinalityOracle(ds)
    orc.card(q6d)
    n = orc.n_counts
    orc.card(q6d)
    assert orc.n_counts == n


def test_count_memo_keyed_on_content_not_join_order(ds, q6d):
    orc = TrueCardinalityOracle(ds)
    orc.card(q6d)
    orc.card(replace(q6d, joins=q6d.joins[::-1]))
    assert orc.n_counts == 1


def test_exactness_guard():
    assert _exact(float(EXACT_LIMIT - 1)) == EXACT_LIMIT - 1
    with pytest.raises(OverflowError):
        _exact(float(EXACT_LIMIT))


# -- dense messages: edge cases ----------------------------------------

def test_child_message_shorter_than_parent_key_range(ds, oracle):
    # Root "t" (the min alias) gathers a movie_keyword message that
    # ends at movie_id 99, while title ids run to the end of the table.
    spec = QuerySpec(
        name="short_msg",
        relations=(
            Relation("t", "title"),
            Relation("u", "movie_keyword", (Filter("movie_id", "<", 100),)),
        ),
        joins=(JoinEdge("u", "movie_id", "t", "id"),),
    )
    assert ds.tables["title"]["id"].max() >= 100
    got = oracle.card(spec)
    assert got > 0
    assert got == duck_count(ds, spec.count_sql())
    gc = oracle.group_counts(spec, spec.aliases, "t", "id")
    assert gc.index.max() < 100 and int(gc.sum()) == got


def test_empty_leaf_in_middle_of_chain(ds, oracle):
    spec = QuerySpec(
        name="empty_mid",
        relations=(
            Relation("k", "keyword"),
            Relation("mk", "movie_keyword", (Filter("movie_id", "<", 0),)),
            Relation("t", "title"),
        ),
        joins=(
            JoinEdge("mk", "keyword_id", "k", "id"),
            JoinEdge("mk", "movie_id", "t", "id"),
        ),
    )
    assert duck_count(ds, spec.count_sql()) == 0
    assert oracle.card(spec) == 0
    assert oracle.group_counts(spec, spec.aliases, "t", "id").empty


def test_non_integer_key_column_rejected(oracle, q6d):
    # bincount needs non-negative int keys; a string column is refused.
    with pytest.raises(ValueError, match="non-negative ints"):
        oracle.group_counts(q6d, frozenset({"n"}), "n", "gender")


def test_empty_filter_subset_counts_zero(ds, oracle):
    spec = QuerySpec(
        name="empty",
        relations=(
            Relation("k", "keyword", (Filter("keyword_group", "=", 9999),)),
            Relation("mk", "movie_keyword"),
        ),
        joins=(JoinEdge("mk", "keyword_id", "k", "id"),),
    )
    assert oracle.card(spec) == 0


def test_cyclic_subset_falls_back_to_duckdb(ds, oracle):
    # triangle: ci-t via movie_id, mk-t via movie_id, ci-mk via movie_id
    spec = QuerySpec(
        name="cyc",
        relations=(
            Relation("t", "title", (Filter("production_year", ">", 2010),)),
            Relation("ci", "cast_info"),
            Relation("mk", "movie_keyword"),
        ),
        joins=(
            JoinEdge("ci", "movie_id", "t", "id"),
            JoinEdge("mk", "movie_id", "t", "id"),
            JoinEdge("ci", "movie_id", "mk", "movie_id"),
        ),
    )
    assert oracle.card(spec) == duck_count(ds, spec.count_sql())


def test_group_counts_match_sql(ds, oracle, q6d):
    s = frozenset({"k", "mk"})
    gc = oracle.group_counts(q6d, s, "mk", "movie_id")
    con = duckdb.connect()
    for name, pdf in ds.tables.items():
        con.register(name, pdf)
    rows = con.execute(
        f"SELECT mk.movie_id, COUNT(*) FROM {q6d.from_sql(s)} "
        f"WHERE {q6d.where_sql(s)} GROUP BY 1"
    ).fetchall()
    con.close()
    expected = {v: c for v, c in rows}
    assert dict(gc.astype(int)) == expected


def test_group_counts_total_equals_card(oracle, q6d):
    s = frozenset({"k", "mk", "t"})
    gc = oracle.group_counts(q6d, s, "t", "id")
    assert int(round(gc.sum())) == oracle.card(q6d, s)


# -- virtual temp tables -----------------------------------------------

@pytest.fixture()
def own_oracle(ds):
    return TrueCardinalityOracle(ds)


def test_register_temp_returns_subjoin_count(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tt0", "q6d@1")
    rows = own_oracle.register_temp("tt0", q6d, sub, cols)
    assert rows == duck_count(ds, q6d.count_sql(sub))


def test_rewritten_spec_counts_match_original(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tt1", "q6d@1")
    own_oracle.register_temp("tt1", q6d, sub, cols)
    # the rewritten full query has the same cardinality as the original
    assert own_oracle.card(new_spec) == own_oracle.card(q6d)
    # a subset containing the temp expands correctly
    s = frozenset({"tt1", "t"})
    assert own_oracle.card(new_spec, s) == duck_count(
        ds, q6d.count_sql(frozenset({"k", "mk", "t"}))
    )


def test_nested_temp_expansion(ds, own_oracle, q6d):
    sub1 = frozenset({"k", "mk"})
    spec1, cols1 = rewrite_with_temp(q6d, sub1, "n0", "q6d@1")
    own_oracle.register_temp("n0", q6d, sub1, cols1)
    sub2 = frozenset({"n0", "t"})
    spec2, cols2 = rewrite_with_temp(spec1, sub2, "n1", "q6d@2")
    own_oracle.register_temp("n1", spec1, sub2, cols2)
    assert own_oracle.card(spec2) == own_oracle.card(q6d)


def test_temp_stats_exact(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    _, cols = rewrite_with_temp(q6d, sub, "ts0", "q6d@1")
    own_oracle.register_temp("ts0", q6d, sub, cols)
    ts = own_oracle.temp_stats("ts0")
    # materialize for real in DuckDB and compare
    con = duckdb.connect()
    for name, pdf in ds.tables.items():
        con.register(name, pdf)
    outs = ", ".join(f"{a}.{c} AS {a}__{c}" for a, c in cols)
    mat = con.execute(
        f"SELECT {outs} FROM {q6d.from_sql(sub)} WHERE {q6d.where_sql(sub)}"
    ).fetchdf()
    con.close()
    assert ts.n_rows == len(mat)
    for cname in ts.columns:
        assert ts.columns[cname].ndv == mat[cname].nunique()
        top_val, top_cnt = mat[cname].value_counts().head(1).reset_index().iloc[0]
        got = dict(ts.columns[cname].mcvs)
        assert got[top_val] == pytest.approx(top_cnt / len(mat))


def test_result_on_rewritten_spec_matches_original(ds, own_oracle, q6d):
    sub = frozenset({"k", "mk", "t"})
    new_spec, cols = rewrite_with_temp(q6d, sub, "tr0", "q6d@1")
    own_oracle.register_temp("tr0", q6d, sub, cols)
    a = own_oracle.result(q6d)
    b = own_oracle.result(new_spec)
    assert a["cnt"].iloc[0] == b["cnt"].iloc[0]
    # same MIN values (column names differ by provenance)
    assert list(a.iloc[0])[1:] == list(b.iloc[0])[1:]


def test_drop_temp_forgets(own_oracle, q6d):
    sub = frozenset({"k", "mk"})
    _, cols = rewrite_with_temp(q6d, sub, "td0", "q6d@1")
    own_oracle.register_temp("td0", q6d, sub, cols)
    own_oracle.drop_temp("td0")
    assert "td0" not in own_oracle._temps


def test_group_counts_on_nested_temp(ds, own_oracle, q6d):
    sub1 = frozenset({"k", "mk"})
    spec1, cols1 = rewrite_with_temp(q6d, sub1, "g0", "q6d@1")
    own_oracle.register_temp("g0", q6d, sub1, cols1)
    sub2 = frozenset({"g0", "t"})
    spec2, cols2 = rewrite_with_temp(spec1, sub2, "g1", "q6d@2")
    own_oracle.register_temp("g1", spec1, sub2, cols2)
    base = frozenset({"k", "mk", "t"})
    con = duckdb.connect()
    for name, pdf in ds.tables.items():
        con.register(name, pdf)
    rows = con.execute(
        f"SELECT t.id, COUNT(*) FROM {q6d.from_sql(base)} "
        f"WHERE {q6d.where_sql(base)} GROUP BY 1"
    ).fetchall()
    con.close()
    # g1 holds t.id as a column; group it through both temp levels.
    gc = own_oracle.group_counts(spec2, frozenset({"g1"}), "t", "id")
    assert dict(gc.astype(int)) == dict(rows)
    assert int(gc.sum()) == own_oracle.card(spec2, frozenset({"g1"}))


def test_release_clears_caches(own_oracle, q6d):
    own_oracle.card(q6d)
    assert own_oracle._keys_cache and own_oracle._msg_cache
    own_oracle.release(q6d.name)
    assert not own_oracle._leaf_cache and not own_oracle._msg_cache
    assert not own_oracle._keys_cache


def test_result_matches_duckdb_reference(ds, oracle, q6d):
    con = duckdb.connect()
    for name, pdf in ds.tables.items():
        con.register(name, pdf)
    expected = con.execute(q6d.result_sql()).fetchdf()
    con.close()
    pd.testing.assert_frame_equal(oracle.result(q6d), expected)
