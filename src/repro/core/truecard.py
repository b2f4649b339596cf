"""True-cardinality oracle: exact counts of any connected sub-join.

The paper reads true per-operator cardinalities out of PostgreSQL's
``EXPLAIN ANALYZE`` (§V); perfect-(n) feeds those truths back into the
planner (§III-B). Cardinality is a property of the *data*, not the
engine, so we obtain the identical numbers from the generator's pandas
ground truth.

Naively ``COUNT(*)``-ing a sub-join enumerates it — a bad 5-fact join
has combinatorially many rows, which is precisely why bad plans are
slow. The oracle must not pay that price, so for **acyclic** join
subgraphs (every JOB-lite query is a tree) it counts via
Yannakakis-style message passing: each subtree sends its parent a
``join_key → #rows`` weight vector, and the count is a sum of products
— linear in input size, never in output size. Cyclic subsets (possible
with hand-built specs) fall back to DuckDB SQL.

Re-optimization temp tables are **virtual** here: ``register_temp``
records which sub-join a temp stands for, counting on a rewritten
query transparently expands temps back to base relations, and
``temp_stats`` derives the temp's exact column statistics from the
same message passing (grouped by the column) — so the simulation path
never materializes an intermediate, no matter how large. The *Spark*
replay of a re-optimized query does materialize, which is the honest
execution cost.

The oracle memoizes per normalized subset SQL; one harness run shares a
single oracle across PG / perfect-(n) / re-optimization configs, so
each distinct sub-join is counted once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

import duckdb

from ..imdb.gen import Dataset
from .query import JoinEdge, QuerySpec, Relation


@dataclass(frozen=True)
class _TempDef:
    """What a re-optimization temp table stands for."""

    spec: QuerySpec  # the spec the temp was carved out of
    subset: frozenset[str]
    #: temp column name ("a__c") → (alias, col) in ``spec``.
    cols: dict


@dataclass(frozen=True)
class _Flat:
    """A fully base-level (temp-free) conjunctive sub-query."""

    relations: tuple[Relation, ...]
    joins: tuple[JoinEdge, ...]


class TrueCardinalityOracle:
    """Exact cardinalities of any connected sub-join of any query."""

    def __init__(self, ds: Dataset):
        self._tables: dict[str, pd.DataFrame] = dict(ds.tables)
        self._con = duckdb.connect()
        for name, pdf in ds.tables.items():
            self._con.register(name, pdf)
        self._memo: dict[str, int] = {}
        self._temps: dict[str, _TempDef] = {}
        #: filtered per-(spec, alias) frames.
        self._leaf_cache: dict[tuple[str, str], pd.DataFrame] = {}
        #: subtree messages: (spec, subtree, root, parent_col) → Series.
        self._msg_cache: dict[tuple, pd.Series] = {}
        self.n_counts = 0  # cache misses (actual counting work)

    # -- expansion of virtual temps ------------------------------------
    def _expand(self, spec: QuerySpec, subset: frozenset[str]) -> _Flat:
        """Resolve temp relations in ``subset`` down to base tables."""
        relations: list[Relation] = []
        joins = [
            j
            for j in spec.joins
            if j.aliases <= subset
            and spec.relation(j.left_alias).table not in self._temps
            and spec.relation(j.right_alias).table not in self._temps
        ]
        remap: dict[str, dict[str, tuple[str, str]]] = {}
        for a in subset:
            rel = spec.relation(a)
            if rel.table not in self._temps:
                relations.append(rel)
                continue
            td = self._temps[rel.table]
            inner = self._expand(td.spec, td.subset)
            relations.extend(inner.relations)
            joins.extend(inner.joins)
            # Map this temp alias's columns through (possibly nested)
            # temp definitions to base (alias, col).
            remap[a] = {
                c: self._resolve_col(td, c) for c in td.cols
            }
        for j in spec.joins:
            if not (j.aliases <= subset):
                continue
            lt = spec.relation(j.left_alias).table in self._temps
            rt = spec.relation(j.right_alias).table in self._temps
            if not (lt or rt):
                continue
            la, lc = (
                remap[j.left_alias][j.left_col] if lt else (j.left_alias, j.left_col)
            )
            ra, rc = (
                remap[j.right_alias][j.right_col]
                if rt
                else (j.right_alias, j.right_col)
            )
            joins.append(JoinEdge(la, lc, ra, rc))
        return _Flat(relations=tuple(relations), joins=tuple(joins))

    def _resolve_col(self, td: _TempDef, col: str) -> tuple[str, str]:
        a, c = td.cols[col]
        inner_table = td.spec.relation(a).table
        if inner_table in self._temps:
            return self._resolve_col(self._temps[inner_table], c)
        return (a, c)

    # -- counting ------------------------------------------------------
    def card(self, spec: QuerySpec, subset: frozenset[str] | None = None) -> int:
        """True row count of ``spec`` restricted to ``subset`` aliases."""
        subset = subset if subset is not None else spec.aliases
        flat = self._expand(spec, subset)
        sql = _flat_count_sql(flat)
        if sql not in self._memo:
            self.n_counts += 1
            self._memo[sql] = self._count(flat)
        return self._memo[sql]

    def _count(self, flat: _Flat) -> int:
        if not _is_tree(flat):
            return int(self._con.execute(_flat_count_sql(flat)).fetchone()[0])
        w = self._root_weights(flat, min(r.alias for r in flat.relations))
        return int(round(float(w.sum())))

    def result(self, spec: QuerySpec) -> pd.DataFrame:
        """Full query result (COUNT + MINs) via DuckDB, temps expanded.

        Enumerates the join (unlike :meth:`card`), so only call it on
        queries whose true result is materializable — tests do.
        """
        flat = self._expand(spec, spec.aliases)
        outs = ["COUNT(*) AS cnt"]
        for a, c in spec.min_cols:
            rel = spec.relation(a)
            if rel.table in self._temps:
                ba, bc = self._resolve_col(self._temps[rel.table], c)
            else:
                ba, bc = a, c
            outs.append(f"MIN({ba}.{bc}) AS min_{a}_{c}")
        sql = (
            f"SELECT {', '.join(outs)} FROM {_flat_from(flat)} "
            f"WHERE {_flat_where(flat)}"
        )
        return self._con.execute(sql).fetchdf()

    # -- Yannakakis counting over tree-shaped flats --------------------
    def _leaf(self, rel: Relation) -> pd.DataFrame:
        key = (rel.table, rel.alias, rel.filters)
        if key not in self._leaf_cache:
            pdf = self._tables[rel.table]
            for f in rel.filters:
                pdf = pdf[f.mask(pdf[f.col])]
            self._leaf_cache[key] = pdf
        return self._leaf_cache[key]

    def _root_weights(self, flat: _Flat, root: str) -> np.ndarray:
        """Per-row join multiplicities of ``root``'s filtered rows."""
        rels = {r.alias: r for r in flat.relations}
        adj: dict[str, list[tuple[str, JoinEdge]]] = {a: [] for a in rels}
        for j in flat.joins:
            la, ra = tuple(j.aliases)
            adj[la].append((ra, j))
            adj[ra].append((la, j))

        def subtree(alias: str, parent: str | None) -> frozenset[str]:
            out = {alias}
            for child, _ in adj[alias]:
                if child != parent:
                    out |= subtree(child, alias)
            return frozenset(out)

        def weights(alias: str, parent: str | None) -> np.ndarray:
            pdf = self._leaf(rels[alias])
            w = np.ones(len(pdf))
            for child, edge in adj[alias]:
                if child == parent:
                    continue
                msg = message(child, alias, edge)
                col = pdf[edge.side(alias)[0]]
                w = w * col.map(msg).fillna(0.0).to_numpy()
            return w

        def message(alias: str, parent: str, edge: JoinEdge) -> pd.Series:
            child_col = edge.side(alias)[0]
            rel = rels[alias]
            key = (
                tuple(sorted((rels[a].table, rels[a].alias, rels[a].filters)
                             for a in subtree(alias, parent))),
                rel.alias,
                child_col,
            )
            if key not in self._msg_cache:
                pdf = self._leaf(rel)
                w = weights(alias, parent)
                self._msg_cache[key] = (
                    pd.Series(w, index=pdf[child_col].to_numpy())
                    .groupby(level=0)
                    .sum()
                )
            return self._msg_cache[key]

        return weights(root, None)

    def group_counts(
        self, spec: QuerySpec, subset: frozenset[str], alias: str, col: str
    ) -> pd.Series:
        """``value → #join-rows`` of ``alias.col`` within the sub-join.

        The exact value distribution of one column of the (virtual)
        join result — linear time, never enumerates the join.
        """
        flat = self._expand(spec, subset)
        if not _is_tree(flat):
            sql = (
                f"SELECT {alias}.{col} AS v, COUNT(*) AS c "
                f"FROM {_flat_from(flat)} WHERE {_flat_where(flat)} "
                f"GROUP BY 1"
            )
            pdf = self._con.execute(sql).fetchdf()
            return pd.Series(pdf["c"].to_numpy(), index=pdf["v"].to_numpy())
        w = self._root_weights(flat, alias)
        rel = next(r for r in flat.relations if r.alias == alias)
        vals = self._leaf(rel)[col].to_numpy()
        s = pd.Series(w, index=vals).groupby(level=0).sum()
        return s[s > 0]

    # -- virtual temp tables (re-optimization support) -----------------
    def register_temp(
        self,
        name: str,
        spec: QuerySpec,
        subset: frozenset[str],
        cols: list[tuple[str, str]],
    ) -> int:
        """Declare temp ``name`` := the sub-join; return its row count."""
        self._temps[name] = _TempDef(
            spec=spec,
            subset=subset,
            cols={f"{a}__{c}": (a, c) for a, c in cols},
        )
        return self.card(spec, subset)

    def temp_stats(self, name: str):
        """Exact :class:`~repro.core.stats.TableStats` for a virtual temp.

        PostgreSQL gets temp-table statistics as a side effect of
        materialization; we get the same numbers from grouped tree
        counts — n_rows, per-column NDV and MCVs are exact.
        """
        from .stats import ColumnStats, TableStats

        td = self._temps[name]
        n = self.card(td.spec, td.subset)
        cols: dict[str, ColumnStats] = {}
        for cname, (a, c) in td.cols.items():
            ba, bc = self._resolve_col(td, cname)
            s = self.group_counts(td.spec, td.subset, ba, bc)
            top = s.sort_values(ascending=False).head(100)
            cols[cname] = ColumnStats(
                n_rows=n,
                ndv=int(len(s)),
                min_val=(s.index.min() if len(s) else None),
                max_val=(s.index.max() if len(s) else None),
                mcvs=tuple(
                    (_py(v), cnt / n) for v, cnt in top.items() if n
                ),
                hist=None,
            )
        return TableStats(table=name, n_rows=n, columns=cols)

    def drop_temp(self, name: str) -> None:
        self._temps.pop(name, None)

    def release(self, spec_name: str) -> None:
        """Clear all leaf and message caches; keep the count memo.

        ``spec_name`` is unused: cache keys are content-addressed
        (table, alias, filters) and shared across queries, so this is
        a memory valve only.
        """
        self._leaf_cache.clear()
        self._msg_cache.clear()

    def close(self) -> None:
        self._con.close()


def _is_tree(flat: _Flat) -> bool:
    """True iff the (connected) flat's join graph is a tree."""
    pairs = {frozenset(j.aliases) for j in flat.joins}
    return len(pairs) == len(flat.joins) == len(flat.relations) - 1


def _py(v):
    return v.item() if hasattr(v, "item") else v


def _flat_from(flat: _Flat) -> str:
    return ", ".join(f"{r.table} AS {r.alias}" for r in flat.relations)


def _flat_where(flat: _Flat) -> str:
    conds = [f.sql(r.alias) for r in flat.relations for f in r.filters]
    conds += [j.sql() for j in flat.joins]
    return " AND ".join(conds) if conds else "TRUE"


def _flat_count_sql(flat: _Flat) -> str:
    rels = ", ".join(
        f"{r.table} AS {r.alias}" for r in sorted(flat.relations, key=lambda r: r.alias)
    )
    return f"SELECT COUNT(*) AS cnt FROM {rels} WHERE {_flat_where(flat)}"