"""Logical query model: relations, predicates, equi-join edges.

A :class:`QuerySpec` is the select-project-join shape the paper studies
(JOB queries are all SPJ with equi-joins only, §III-A). It is engine
neutral: the optimizer plans over it, the DuckDB oracle counts over it,
and the Spark executor builds a DataFrame join tree from it.

Aliases are first-class (JOB reuses tables under several aliases, e.g.
``it1``/``it2`` for ``info_type``), so a 17-relation query does not need
17 distinct base tables.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace

_COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Filter:
    """A base-table predicate ``col op value``.

    ``op`` is one of ``=``, ``<``, ``<=``, ``>``, ``>=``, ``in``.
    ``value`` is a python scalar (or non-empty tuple of scalars for
    ``in``). :meth:`mask` is the predicate's one evaluation, shared by
    the pandas oracle and the Spark executor; :meth:`sql` renders the
    same predicate for DuckDB.
    """

    col: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARE and self.op != "in":
            raise ValueError(f"unsupported op {self.op!r}")
        if self.op == "in" and not isinstance(self.value, tuple):
            raise ValueError("'in' filter value must be a tuple")
        if self.op == "in" and not self.value:
            # SQL has no empty IN-list, so DuckDB could not evaluate it.
            raise ValueError("'in' filter needs at least one value")

    def mask(self, col):
        """``col op value`` on a pandas ``Series`` or a Spark ``Column``."""
        if self.op == "in":
            return col.isin(list(self.value))
        return _COMPARE[self.op](col, self.value)

    def sql(self, alias: str) -> str:
        """Render as a SQL condition qualified with ``alias``."""
        if self.op == "in":
            vals = ", ".join(_sql_literal(v) for v in self.value)
            return f"{alias}.{self.col} IN ({vals})"
        return f"{alias}.{self.col} {self.op} {_sql_literal(self.value)}"


def _sql_literal(v: object) -> str:
    if isinstance(v, str):
        escaped = v.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return repr(v)


@dataclass(frozen=True)
class Relation:
    """One FROM-list entry: ``table AS alias`` plus its local filters."""

    alias: str
    table: str
    filters: tuple[Filter, ...] = ()

    def with_filters(self, *fs: Filter) -> "Relation":
        return replace(self, filters=self.filters + fs)


@dataclass(frozen=True)
class JoinEdge:
    """Equi-join predicate ``left_alias.left_col = right_alias.right_col``."""

    left_alias: str
    left_col: str
    right_alias: str
    right_col: str

    def __post_init__(self) -> None:
        if self.left_alias == self.right_alias:
            raise ValueError("self-join edge within one alias is not a join")

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.left_alias, self.right_alias))

    def sql(self) -> str:
        return (
            f"{self.left_alias}.{self.left_col} = "
            f"{self.right_alias}.{self.right_col}"
        )

    def side(self, alias: str) -> tuple[str, str]:
        """Return ``(col_on_alias, other_alias)`` for one endpoint."""
        if alias == self.left_alias:
            return self.left_col, self.right_alias
        if alias == self.right_alias:
            return self.right_col, self.left_alias
        raise KeyError(alias)


@dataclass(frozen=True)
class QuerySpec:
    """An SPJ query: relations, equi-join edges, and an output aggregate.

    ``name`` identifies the query in the workload (like JOB's "6d").
    The output is always ``COUNT(*)`` plus ``MIN``s of ``min_cols``
    (JOB queries all emit ``MIN`` aggregates) so results are single-row
    and trivially comparable across engines and rewrites.
    """

    name: str
    relations: tuple[Relation, ...]
    joins: tuple[JoinEdge, ...]
    min_cols: tuple[tuple[str, str], ...] = ()  # (alias, col) pairs

    def __post_init__(self) -> None:
        aliases = [r.alias for r in self.relations]
        if len(set(aliases)) != len(aliases):
            raise ValueError(f"duplicate aliases in {self.name}")
        known = set(aliases)
        for j in self.joins:
            if not j.aliases <= known:
                raise ValueError(f"join {j} references unknown alias")
        for a, _ in self.min_cols:
            if a not in known:
                raise ValueError(f"min_col alias {a} unknown")
        if not self.is_connected(frozenset(known)):
            raise ValueError(f"query {self.name} join graph is disconnected")

    # -- graph helpers -------------------------------------------------
    @property
    def aliases(self) -> frozenset[str]:
        return frozenset(r.alias for r in self.relations)

    def relation(self, alias: str) -> Relation:
        for r in self.relations:
            if r.alias == alias:
                return r
        raise KeyError(alias)

    def neighbors(self, alias: str) -> frozenset[str]:
        out = set()
        for j in self.joins:
            if alias in j.aliases:
                out |= j.aliases - {alias}
        return frozenset(out)

    def edges_between(
        self, left: frozenset[str], right: frozenset[str]
    ) -> tuple[JoinEdge, ...]:
        """All join edges with one endpoint in ``left``, one in ``right``."""
        return tuple(
            j
            for j in self.joins
            if (j.left_alias in left and j.right_alias in right)
            or (j.left_alias in right and j.right_alias in left)
        )

    def is_connected(self, subset: frozenset[str]) -> bool:
        """True iff ``subset`` induces a connected join subgraph."""
        if not subset:
            return False
        seen = {next(iter(subset))}
        frontier = list(seen)
        while frontier:
            a = frontier.pop()
            for n in self.neighbors(a) & subset:
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        return seen == subset

    # -- SQL rendering -------------------------------------------------
    def where_sql(self, subset: frozenset[str] | None = None) -> str:
        """WHERE clause (filters + join conds) restricted to ``subset``."""
        subset = subset if subset is not None else self.aliases
        conds: list[str] = []
        for r in self.relations:
            if r.alias in subset:
                conds += [f.sql(r.alias) for f in r.filters]
        for j in self.joins:
            if j.aliases <= subset:
                conds.append(j.sql())
        return " AND ".join(conds) if conds else "TRUE"

    def from_sql(self, subset: frozenset[str] | None = None) -> str:
        subset = subset if subset is not None else self.aliases
        return ", ".join(
            f"{r.table} AS {r.alias}" for r in self.relations if r.alias in subset
        )

    def count_sql(self, subset: frozenset[str] | None = None) -> str:
        """``SELECT COUNT(*)`` over the (sub)query — the oracle's workhorse."""
        return (
            f"SELECT COUNT(*) AS cnt FROM {self.from_sql(subset)} "
            f"WHERE {self.where_sql(subset)}"
        )

    def result_sql(self) -> str:
        """The query's full output SQL (COUNT + MINs), for oracle checks."""
        outs = ["COUNT(*) AS cnt"] + [
            f"MIN({a}.{c}) AS min_{a}_{c}" for a, c in self.min_cols
        ]
        return (
            f"SELECT {', '.join(outs)} FROM {self.from_sql()} "
            f"WHERE {self.where_sql()}"
        )


def connected_subsets(
    spec: QuerySpec, max_size: int | None = None
) -> list[frozenset[str]]:
    """Every connected alias subset of ``spec``'s join graph, by size.

    Uses frontier expansion: a connected subset of size k+1 is a
    connected subset of size k plus a neighbor. Deterministic order
    (sorted within each size). This is the set of "joinrels" a
    Selinger-style DP considers — one cardinality estimate each.
    """
    max_size = max_size or len(spec.relations)
    nbrs = {r.alias: spec.neighbors(r.alias) for r in spec.relations}
    by_size: list[set[frozenset[str]]] = [set() for _ in range(max_size + 1)]
    for r in spec.relations:
        by_size[1].add(frozenset({r.alias}))
    for k in range(1, max_size):
        for s in by_size[k]:
            frontier: set[str] = set()
            for a in s:
                frontier |= nbrs[a]
            for n in frontier - s:
                by_size[k + 1].add(s | {n})
    out: list[frozenset[str]] = []
    for k in range(1, max_size + 1):
        out += sorted(by_size[k], key=lambda s: tuple(sorted(s)))
    return out
