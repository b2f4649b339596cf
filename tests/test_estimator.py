"""Cardinality estimator tests: PG-style formulas and perfect-(n)."""
import pytest

from repro.core.estimator import PerfectEstimator, PostgresEstimator
from repro.core.query import Filter, JoinEdge, QuerySpec, Relation, connected_subsets
from repro.imdb import workload


@pytest.fixture(scope="module")
def q6d():
    return workload.q6d_lite()


# -- base-table estimates ----------------------------------------------

def test_base_card_no_filters_is_row_count(ds, pg_est):
    rel = Relation("t", "title")
    assert pg_est.base_card(rel) == len(ds.tables["title"])


def test_base_card_eq_filter_uses_mcv(ds, pg_est):
    rel = Relation("kt", "kind_type", (Filter("id", "=", 1),))
    # id is unique: selectivity 1/ndv.
    n = len(ds.tables["kind_type"])
    assert pg_est.base_card(rel) == pytest.approx(n * (1.0 / n))


def test_base_card_independence_multiplies(ds, pg_est):
    r1 = Relation("n", "name", (Filter("gender", "=", "m"),))
    r2 = Relation(
        "n", "name",
        (Filter("gender", "=", "m"), Filter("name_group", "in", (1, 2))),
    )
    c1 = pg_est.base_card(r1)
    c2 = pg_est.base_card(r2)
    assert c2 < c1  # extra predicate shrinks the estimate


def test_base_card_clamped_at_one(ds, pg_est):
    rel = Relation(
        "k", "keyword",
        (Filter("keyword_group", "=", 1), Filter("id", "=", 1)),
    )
    assert pg_est.base_card(rel) >= 1.0


def test_range_filter_estimate_reasonable(ds, pg_est):
    rel = Relation("t", "title", (Filter("production_year", ">", 1990),))
    true = (ds.tables["title"]["production_year"] > 1990).sum()
    est = pg_est.base_card(rel)
    assert 0.5 * true <= est <= 2.0 * true


# -- join estimates ----------------------------------------------------

def test_join_selectivity_one_over_max_ndv(ds, pg_est):
    sel = pg_est.join_selectivity("movie_keyword", "keyword_id", "keyword", "id")
    ndv_k = len(ds.tables["keyword"])
    ndv_mk = ds.tables["movie_keyword"]["keyword_id"].nunique()
    assert sel == pytest.approx(1.0 / max(ndv_k, ndv_mk))


def test_unfiltered_pk_fk_join_estimated_well(ds, pg_est, oracle):
    spec = QuerySpec(
        name="pkfk",
        relations=(Relation("mk", "movie_keyword"), Relation("k", "keyword")),
        joins=(JoinEdge("mk", "keyword_id", "k", "id"),),
    )
    est = pg_est.card(spec, spec.aliases)
    true = oracle.card(spec)
    # Without filters, uniformity is harmless on a PK-FK join.
    assert est == pytest.approx(true, rel=0.05)


def test_nasdaq_skew_underestimated(pg_est, oracle):
    """The §IV-C phenomenon: popular-group filter breaks uniformity."""
    spec = workload.q_nasdaq()
    est = pg_est.card(spec, spec.aliases)
    true = oracle.card(spec)
    assert true > 8 * est


def test_estimates_memoized(catalog, q6d):
    est = PostgresEstimator(catalog)
    a = est.card(q6d, q6d.aliases)
    assert est.card(q6d, q6d.aliases) == a
    assert q6d.aliases in est._memo[q6d.name][1]


def _refiltered(spec):
    """``spec`` under the same name with one more filter on ``t``."""
    from dataclasses import replace

    rels = tuple(
        r.with_filters(Filter("production_year", ">", 2000))
        if r.alias == "t" else r
        for r in spec.relations
    )
    return replace(spec, relations=rels)


@pytest.mark.parametrize("kind", ["pg", "perfect"])
def test_memo_not_shared_by_same_name_specs(catalog, oracle, q6d, kind):
    def make():
        if kind == "pg":
            return PostgresEstimator(catalog)
        return PerfectEstimator(17, oracle, catalog)

    other = _refiltered(q6d)
    assert other.name == q6d.name and other != q6d
    est = make()
    a = est.card(q6d, q6d.aliases)
    b = est.card(other, other.aliases)
    assert b == make().card(other, other.aliases)
    assert b != a
    # An equal spec rebuilt under the same name keeps the table.
    again = _refiltered(q6d)
    assert again is not other
    assert est.card(again, again.aliases) == b
    assert est._memo[q6d.name][0] is again


_ESTIMATES_SCRIPT = """
from repro.core.estimator import PostgresEstimator
from repro.core.query import connected_subsets
from repro.core.stats import analyze_pandas
from repro.imdb import gen, workload

spec = next(s for s in workload.job_lite_workload() if s.name == "q016")
est = PostgresEstimator(analyze_pandas(gen.generate(sf=0.01, seed=42)))
for s in connected_subsets(spec):
    print(",".join(sorted(s)), est.card(spec, s).hex())
"""


def test_pg_estimates_independent_of_hash_seed():
    """Same bits under two string hash seeds: no set order may leak in."""
    import os
    import subprocess
    import sys

    from repro.core import estimator

    src = os.path.dirname(os.path.dirname(os.path.dirname(estimator.__file__)))
    out = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _ESTIMATES_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        out.append(run.stdout)
    assert len(out[0].splitlines()) > 10
    assert out[0] == out[1]


def test_join_estimate_at_least_one(pg_est, q6d):
    for s in connected_subsets(q6d):
        assert pg_est.card(q6d, s) >= 1.0


# -- perfect-(n) -------------------------------------------------------

def test_perfect_zero_equals_pg(catalog, oracle, pg_est, q6d):
    p0 = PerfectEstimator(0, oracle, catalog)
    for s in connected_subsets(q6d):
        assert p0.card(q6d, s) == pytest.approx(pg_est.card(q6d, s))


def test_perfect_n_exact_up_to_n(catalog, oracle, q6d):
    p2 = PerfectEstimator(2, oracle, catalog)
    for s in connected_subsets(q6d, max_size=2):
        assert p2.card(q6d, s) == max(oracle.card(q6d, s), 1)


def test_perfect_full_exact_everywhere(perfect_est, oracle, q6d):
    for s in connected_subsets(q6d):
        assert perfect_est.card(q6d, s) == max(oracle.card(q6d, s), 1)


def test_perfect_hierarchy_improves_on_average(catalog, oracle, q6d):
    """perfect-(n) errors on the full join shrink as n grows (on q6d)."""
    from repro.core.qerror import qerror

    true = oracle.card(q6d)
    errs = []
    for n in (0, 1, 2, 3, 4, 5):
        est = PerfectEstimator(n, oracle, catalog).card(q6d, q6d.aliases)
        errs.append(qerror(est, true))
    assert errs[-1] == 1.0
    assert errs[0] == max(errs)
    assert errs[3] <= errs[0]


def test_perfect_rejects_negative_n(catalog, oracle):
    with pytest.raises(ValueError):
        PerfectEstimator(-1, oracle, catalog)


def test_perfect_catalog_property(perfect_est, catalog):
    assert perfect_est.catalog is catalog


def test_removable_keeps_connectivity(perfect_est, q6d):
    for s in connected_subsets(q6d):
        if len(s) < 2:
            continue
        r = perfect_est._removable(q6d, s)
        assert q6d.is_connected(s - {r})
