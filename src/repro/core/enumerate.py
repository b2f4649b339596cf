"""Plan enumeration: Selinger-style bushy DP over connected subgraphs.

Every query, up to JOB's 17-relation ones, is planned with bushy
dynamic programming over connected subgraphs (no cartesian products) —
the System R lineage the paper describes (§II-B). The search visits
each csg–cmp pair (a connected subset split into two connected halves
joined by an edge) exactly once, as DPccp does (Moerkotte & Neumann,
VLDB 2006), rather than every submask of every connected subset: on
JOB-lite's tree-shaped join graphs such a walk takes 192× more steps
than there are pairs. Cost ties go to the split whose lower half has
the larger alias bitmask, the first one a descending submask walk
meets, so plans equal those of the plain submask DP kept as the
reference in ``tests/test_dpccp.py``, bit for bit.

Every distinct connected subset whose cardinality the planner requests
is **one cardinality estimate** — that is exactly what the paper's
Table I counts, so :class:`PlannerResult` tallies estimates by subset
size.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
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
# Bushy DP over csg–cmp pairs (DPccp, Moerkotte & Neumann, VLDB 2006).
# ---------------------------------------------------------------------

def _dp_plan(
    spec: QuerySpec, estimator, cost: CostModel
) -> tuple[Plan, Counter]:
    aliases = sorted(spec.aliases)
    bit = {a: 1 << i for i, a in enumerate(aliases)}
    nbrs = [sum(bit[n] for n in spec.neighbors(a)) for a in aliases]

    conn = connected_subsets(spec)
    conn_masks = [sum(bit[a] for a in s) for s in conn]

    est: dict[int, float] = {}
    est_by_size: Counter = Counter()
    for m, s in zip(conn_masks, conn):
        est[m] = estimator.card(spec, s)
        est_by_size[len(s)] += 1

    # The lower mask of every split of each connected subset into two
    # connected halves with a join edge between them.
    splits: dict[int, list[int]] = defaultdict(list)
    for s1, s2 in _csg_cmp_pairs(nbrs):
        splits[s1 | s2].append(s1 if s1 < s2 else s2)

    best: dict[int, tuple[float, PlanNode]] = {}
    # Sizes ascend, so both halves of a split are planned before it.
    for m, s in zip(conn_masks, conn):
        if len(s) == 1:
            leaf = Leaf(alias=next(iter(s)), est_card=est[m])
            best[m] = (cost.scan_cost(est[m]), leaf)
            continue
        win_cost, win_lo = 0.0, 0
        for lo in splits.pop(m, ()):
            hi = m ^ lo
            total = best[lo][0] + best[hi][0] + cost.join_cost(
                est[lo], est[hi], est[m]
            )
            # Cost ties go to the split with the larger lower half, so
            # the choice does not depend on the order pairs arrive in.
            if not win_lo or total < win_cost or (
                total == win_cost and lo > win_lo
            ):
                win_cost, win_lo = total, lo
        assert win_lo, f"no plan for {sorted(s)}"
        lo, hi = win_lo, m ^ win_lo
        p_lo, p_hi = best[lo][1], best[hi][1]
        build, probe = (p_lo, p_hi) if est[lo] <= est[hi] else (p_hi, p_lo)
        best[m] = (win_cost, Join(build, probe, est[m]))

    total_cost, root = best[sum(bit.values())]
    return Plan(root=root, est_cost=total_cost), est_by_size


def _csg_cmp_pairs(nbrs: list[int]):
    """Yield every csg–cmp pair ``(s1, s2)`` of a join graph once.

    ``nbrs[i]`` is the neighbour bitmask of node ``i``. A pair is two
    disjoint connected node sets joined by at least one edge; each
    unordered pair comes once, with the lowest node in ``s1``. This is
    EnumerateCsg with EnumerateCmp for each csg (DPccp); it needs no
    particular node numbering and is exact on cyclic graphs too.
    """
    nb_of = {1 << i: m for i, m in enumerate(nbrs)}
    for i in reversed(range(len(nbrs))):
        v = 1 << i
        for s1, nb1 in _grow(nb_of, v, nbrs[i], (v << 1) - 1):
            # Complements hold only nodes above min(s1) and outside s1.
            x = s1 | (((s1 & -s1) << 1) - 1)
            n = nb1 & ~x
            rest = n
            while rest:
                w = 1 << (rest.bit_length() - 1)
                rest ^= w
                # Neighbours below w grow complements of their own.
                below = n & ((w << 1) - 1)
                for s2, _ in _grow(nb_of, w, nb_of[w], x | below):
                    yield s1, s2


def _grow(nb_of: dict[int, int], start: int, nb: int, excluded: int):
    """``start`` and every connected superset of it avoiding ``excluded``.

    EnumerateCsgRec: extend by any non-empty subset of the current
    neighbourhood, which is then excluded from deeper extensions, so
    each set is produced exactly once. Yields ``(set, neighbourhood)``,
    where ``nb`` is the neighbourhood of ``start`` and ``nb_of`` maps
    each node's bit to its neighbours.
    """
    yield start, nb
    stack = [(start, nb, excluded)]
    while stack:
        s, nb, x = stack.pop()
        n = nb & ~x
        x |= n
        sub = n
        while sub:
            t, nb_t = s | sub, nb | _neighbourhood(nb_of, sub)
            yield t, nb_t
            stack.append((t, nb_t, x))
            sub = (sub - 1) & n


def _neighbourhood(nb_of: dict[int, int], s: int) -> int:
    """Union of the neighbours of the nodes in ``s`` (may meet ``s``)."""
    out = 0
    while s:
        low = s & -s
        out |= nb_of[low]
        s ^= low
    return out
