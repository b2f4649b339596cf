"""Plan enumeration: Selinger-style bushy DP over connected subgraphs.

Every query, up to JOB's 17-relation ones, is planned with bushy
dynamic programming over connected subgraphs (no cartesian products) —
the System R lineage the paper describes (§II-B).

Every distinct connected subset whose cardinality the planner requests
is **one cardinality estimate** — that is exactly what the paper's
Table I counts, so :class:`PlannerResult` tallies estimates by subset
size.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .cost import CostModel
from .plans import Join, Leaf, Plan, PlanNode
from .query import QuerySpec, connected_subsets


@dataclass
class PlannerResult:
    """A chosen plan plus planning telemetry."""

    plan: Plan
    est_by_size: Counter
    planning_time: float

    @property
    def n_estimates(self) -> int:
        return sum(self.est_by_size.values())


def plan_query(spec: QuerySpec, estimator, cost: CostModel) -> PlannerResult:
    """Plan ``spec`` with ``estimator``'s cardinalities and ``cost``."""
    t0 = time.perf_counter()
    plan, est_by_size = _dp_plan(spec, estimator, cost)
    return PlannerResult(
        plan=plan,
        est_by_size=est_by_size,
        planning_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------
# Bushy DP over connected subgraphs (bitmask submask enumeration).
# ---------------------------------------------------------------------

def _dp_plan(
    spec: QuerySpec, estimator, cost: CostModel
) -> tuple[Plan, Counter]:
    aliases = sorted(spec.aliases)
    bit = {a: 1 << i for i, a in enumerate(aliases)}

    conn = connected_subsets(spec)
    conn_masks = [sum(bit[a] for a in s) for s in conn]

    est: dict[int, float] = {}
    est_by_size: Counter = Counter()
    for m, s in zip(conn_masks, conn):
        est[m] = estimator.card(spec, s)
        est_by_size[len(s)] += 1

    best: dict[int, tuple[float, PlanNode]] = {}
    for m, s in zip(conn_masks, conn):
        if len(s) == 1:
            leaf = Leaf(alias=next(iter(s)), est_card=est[m])
            best[m] = (cost.scan_cost(est[m]), leaf)

    for m, s in zip(conn_masks, conn):
        if len(s) == 1:
            continue
        winner: tuple[float, PlanNode] | None = None
        s1 = (m - 1) & m
        while s1:
            s2 = m ^ s1
            # Unordered pair dedup; both halves must be connected (in
            # `best`). S connected + halves connected ⇒ a crossing join
            # edge exists, so no cartesian check is needed.
            if s1 < s2 and s1 in best and s2 in best:
                c1, p1 = best[s1]
                c2, p2 = best[s2]
                total = c1 + c2 + cost.join_cost(est[s1], est[s2], est[m])
                if winner is None or total < winner[0]:
                    build, probe = (p1, p2) if est[s1] <= est[s2] else (p2, p1)
                    winner = (total, Join(build, probe, est[m]))
            s1 = (s1 - 1) & m
        assert winner is not None, f"no plan for {sorted(s)}"
        best[m] = winner

    full = sum(bit.values())
    total_cost, root = best[full]
    return Plan(root=root, est_cost=total_cost), est_by_size
