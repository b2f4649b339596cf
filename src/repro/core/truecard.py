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
dense ``join_key → #rows`` vector, ``np.bincount(child_keys, w)``
(every join key is a non-negative integer id), and the parent applies
it with a gather, ``w *= msg[parent_keys]`` (keys past the end of the
message read 0). The count is a sum of products — linear in input
size, never in output size. Cyclic subsets (possible with hand-built
specs) fall back to DuckDB SQL. Weights are float64 sums of integers,
exact below 2**53; a count that reaches it raises instead of rounding.

Re-optimization temp tables are **virtual** here: ``register_temp``
records which sub-join a temp stands for, counting on a rewritten
query transparently expands temps back to base relations, and
``temp_stats`` derives the temp's exact column statistics from the
same message passing (grouped by the column) — so the simulation path
never materializes an intermediate, no matter how large. The *Spark*
replay of a re-optimized query does materialize, which is the honest
execution cost.

The oracle memoizes counts per sub-join *content* (relations with their
filters, normalized join edges), so a count does not depend on the
order a spec lists its joins in; one harness run shares a single
oracle across PG / perfect-(n) / re-optimization configs, so each
distinct sub-join is counted once.
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
        #: sub-join content (see :func:`_flat_key`) → row count.
        self._memo: dict[tuple, int] = {}
        self._temps: dict[str, _TempDef] = {}
        #: filtered frames: (table, filters) → DataFrame.
        self._leaf_cache: dict[tuple, pd.DataFrame] = {}
        #: filtered key columns: (table, filters, col) → int64 array.
        self._keys_cache: dict[tuple, np.ndarray] = {}
        #: subtree messages: (subtree content, alias, col) → key → #rows.
        self._msg_cache: dict[tuple, np.ndarray] = {}
        self.n_counts = 0  # cache misses (actual counting work)

    # -- expansion of virtual temps ------------------------------------
    def _expand(self, spec: QuerySpec, subset: frozenset[str]) -> _Flat:
        """Resolve temp relations in ``subset`` down to base tables."""
        rels = {r.alias: r for r in spec.relations}
        temp = {a: r.table in self._temps for a, r in rels.items()}
        inside = [
            j
            for j in spec.joins
            if j.left_alias in subset and j.right_alias in subset
        ]
        relations: list[Relation] = []
        joins = [j for j in inside if not (temp[j.left_alias] or temp[j.right_alias])]
        remap: dict[str, dict[str, tuple[str, str]]] = {}
        for a in subset:
            rel = rels[a]
            if not temp[a]:
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
        for j in inside:
            lt, rt = temp[j.left_alias], temp[j.right_alias]
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
        key = _flat_key(flat)
        if key not in self._memo:
            self.n_counts += 1
            self._memo[key] = self._count(flat)
        return self._memo[key]

    def _count(self, flat: _Flat) -> int:
        if not _is_tree(flat):
            sql = f"SELECT COUNT(*) FROM {_flat_from(flat)} WHERE {_flat_where(flat)}"
            return int(self._con.execute(sql).fetchone()[0])
        w = self._root_weights(flat, min(r.alias for r in flat.relations))
        return int(_exact(w.sum()))

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
        key = (rel.table, rel.filters)
        if key not in self._leaf_cache:
            pdf = self._tables[rel.table]
            for f in rel.filters:
                pdf = pdf[f.mask(pdf[f.col])]
            self._leaf_cache[key] = pdf
        return self._leaf_cache[key]

    def _keys(self, rel: Relation, col: str) -> np.ndarray:
        """``rel``'s filtered ``col`` as an index array for bincount."""
        key = (rel.table, rel.filters, col)
        if key not in self._keys_cache:
            arr = self._leaf(rel)[col].to_numpy()
            if arr.dtype.kind not in "iu" or (arr.size and arr.min() < 0):
                raise ValueError(
                    f"{rel.table}.{col}: oracle keys must be non-negative ints"
                )
            self._keys_cache[key] = arr.astype(np.int64, copy=False)
        return self._keys_cache[key]

    def _root_weights(self, flat: _Flat, root: str) -> np.ndarray:
        """Per-row join multiplicities of ``root``'s filtered rows."""
        rels = {r.alias: r for r in flat.relations}
        adj: dict[str, list[tuple[str, JoinEdge]]] = {a: [] for a in rels}
        for j in flat.joins:
            adj[j.left_alias].append((j.right_alias, j))
            adj[j.right_alias].append((j.left_alias, j))
        # Root the tree; then key each subtree by its content, leaves
        # first, so a message is keyed by what it depends on and no more.
        children: dict[str, list[tuple[str, JoinEdge]]] = {}
        order, seen = [root], {root}
        for a in order:
            children[a] = [(b, e) for b, e in adj[a] if b not in seen]
            for b, _ in children[a]:
                seen.add(b)
                order.append(b)
        below: dict[str, frozenset] = {}
        for a in reversed(order):
            part = {(rels[a].table, a, rels[a].filters)}
            for b, edge in children[a]:
                part |= below[b]
                part.add(_edge_key(edge))
            below[a] = frozenset(part)

        def weights(alias: str) -> np.ndarray:
            rel = rels[alias]
            w = np.ones(len(self._leaf(rel)))
            for child, edge in children[alias]:
                msg = message(child, edge.side(child)[0])
                w *= _gather(msg, self._keys(rel, edge.side(alias)[0]))
            return w

        def message(alias: str, col: str) -> np.ndarray:
            key = (below[alias], alias, col)
            if key not in self._msg_cache:
                counts = np.bincount(
                    self._keys(rels[alias], col), weights=weights(alias)
                )
                # A trailing 0 for keys past the end to read (_gather).
                self._msg_cache[key] = np.append(counts, 0.0)
            return self._msg_cache[key]

        return weights(root)

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
        _exact(w.sum())
        rel = next(r for r in flat.relations if r.alias == alias)
        counts = np.bincount(self._keys(rel, col), weights=w)
        vals = np.flatnonzero(counts)
        return pd.Series(counts[vals], index=vals)

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
        """Clear the leaf, key-array and message caches; keep the count memo.

        ``spec_name`` is unused: cache keys are content-addressed
        (tables, filters, join edges) and shared across queries, so
        this is a memory valve only.
        """
        self._leaf_cache.clear()
        self._keys_cache.clear()
        self._msg_cache.clear()

    def close(self) -> None:
        self._con.close()


def _is_tree(flat: _Flat) -> bool:
    """True iff the (connected) flat's join graph is a tree."""
    pairs = {frozenset(j.aliases) for j in flat.joins}
    return len(pairs) == len(flat.joins) == len(flat.relations) - 1


#: float64 represents every integer below this exactly.
EXACT_LIMIT = 2**53


def _exact(total: float) -> float:
    """``total``, or raise if float64 counting may have rounded it."""
    if total >= EXACT_LIMIT:
        raise OverflowError(
            f"count {total:.6g} reaches 2**53; float64 counts are inexact"
        )
    return total


def _gather(msg: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``msg[keys]``; keys past the end clip to ``msg``'s trailing 0."""
    return msg.take(keys, mode="clip")


def _edge_key(j: JoinEdge) -> tuple:
    """A join edge with its endpoints in a canonical order."""
    left, right = (j.left_alias, j.left_col), (j.right_alias, j.right_col)
    return (left, right) if left <= right else (right, left)


def _flat_key(flat: _Flat) -> tuple:
    """What a flat counts, independent of the order it lists things in."""
    rels = sorted(flat.relations, key=lambda r: r.alias)
    return (
        tuple((r.table, r.alias, r.filters) for r in rels),
        tuple(sorted(_edge_key(j) for j in flat.joins)),
    )


def _py(v):
    return v.item() if hasattr(v, "item") else v


def _flat_from(flat: _Flat) -> str:
    return ", ".join(f"{r.table} AS {r.alias}" for r in flat.relations)


def _flat_where(flat: _Flat) -> str:
    conds = [f.sql(r.alias) for r in flat.relations for f in r.filters]
    conds += [j.sql() for j in flat.joins]
    return " AND ".join(conds) if conds else "TRUE"
