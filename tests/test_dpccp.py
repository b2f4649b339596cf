"""DPccp join search: csg–cmp pairs and plans against a submask reference.

JOB-lite join graphs are all trees, so the chain, star, cycle, clique
and random graphs here are what exercise the enumerator on cycles.
"""
import random
from collections import Counter

import pytest

from repro.core.cost import CostModel
from repro.core.enumerate import _csg_cmp_pairs, plan_query
from repro.core.plans import Join, Leaf, Plan
from repro.core.query import JoinEdge, QuerySpec, Relation, connected_subsets


# -- graphs ------------------------------------------------------------

def chain(n):
    return [(i, i + 1) for i in range(n - 1)]


def star(n):
    return [(0, i) for i in range(1, n)]


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def clique(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_tree(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    return {tuple(sorted((order[k], order[rng.randrange(k)])))
            for k in range(1, n)}


def random_connected(n, seed):
    """A random spanning tree plus up to ``n`` extra edges."""
    rng = random.Random(seed)
    edges = random_tree(n, rng)
    for _ in range(rng.randint(0, n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return sorted(edges)


GRAPHS = (
    [(f"chain{n}", n, chain(n)) for n in (1, 2, 3, 6, 9)]
    + [(f"star{n}", n, star(n)) for n in (3, 6, 9)]
    + [(f"cycle{n}", n, cycle(n)) for n in (3, 4, 7, 9)]
    + [(f"clique{n}", n, clique(n)) for n in (3, 5, 7)]
    + [(f"random{s}", 4 + s % 6, random_connected(4 + s % 6, s))
       for s in range(12)]
)
IDS = [g[0] for g in GRAPHS]


def neighbour_masks(n, edges):
    nbrs = [0] * n
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return nbrs


def is_connected(nbrs, m):
    seen = frontier = m & -m
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbrs[low.bit_length() - 1] & m & ~seen
        seen |= new
        frontier |= new
    return seen == m


def brute_force_pairs(nbrs):
    """Every split of a connected set into two connected halves."""
    out = set()
    for m in range(1, 1 << len(nbrs)):
        if not is_connected(nbrs, m):
            continue
        s1 = (m - 1) & m
        while s1:
            s2 = m ^ s1
            if s1 < s2 and is_connected(nbrs, s1) and is_connected(nbrs, s2):
                out.add((s1, s2))
            s1 = (s1 - 1) & m
    return out


@pytest.mark.parametrize("name,n,edges", GRAPHS, ids=IDS)
def test_pairs_exactly_once_and_complete(name, n, edges):
    nbrs = neighbour_masks(n, edges)
    pairs = list(_csg_cmp_pairs(nbrs))
    for s1, s2 in pairs:
        assert not s1 & s2
        # The lowest node is in s1.
        assert (s1 & -s1) < (s2 & -s2)
    unordered = [tuple(sorted(p)) for p in pairs]
    assert len(unordered) == len(set(unordered))
    assert set(unordered) == brute_force_pairs(nbrs)


def test_tree_has_one_split_per_edge_of_each_subset():
    """In a tree, a connected set of k nodes splits exactly k - 1 ways."""
    trees = [(9, star(9)), (9, chain(9))]
    trees += [(9, sorted(random_tree(9, random.Random(s)))) for s in range(3)]
    for n, edges in trees:
        spec = graph_spec(n, edges)
        expected = sum(len(s) - 1 for s in connected_subsets(spec))
        assert len(list(_csg_cmp_pairs(neighbour_masks(n, edges)))) == expected


# -- plans against the submask DP this replaced ------------------------

def reference_plan(spec, estimator, cost):
    """Bushy DP walking every submask; ties keep the first strict minimum
    while the lower half's mask descends."""
    aliases = sorted(spec.aliases)
    bit = {a: 1 << i for i, a in enumerate(aliases)}
    conn = connected_subsets(spec)
    masks = [sum(bit[a] for a in s) for s in conn]
    est = {m: estimator.card(spec, s) for m, s in zip(masks, conn)}
    best = {}
    for m, s in zip(masks, conn):
        if len(s) == 1:
            best[m] = (cost.scan_cost(est[m]),
                       Leaf(alias=next(iter(s)), est_card=est[m]))
            continue
        winner = None
        s1 = (m - 1) & m
        while s1:
            s2 = m ^ s1
            if s1 < s2 and s1 in best and s2 in best:
                (c1, p1), (c2, p2) = best[s1], best[s2]
                total = c1 + c2 + cost.join_cost(est[s1], est[s2], est[m])
                if winner is None or total < winner[0]:
                    build, probe = (p1, p2) if est[s1] <= est[s2] else (p2, p1)
                    winner = (total, Join(build, probe, est[m]))
            s1 = (s1 - 1) & m
        best[m] = winner
    total, root = best[sum(bit.values())]
    return Plan(root=root, est_cost=total), Counter(len(s) for s in conn)


class CoarseEstimator:
    """Cardinalities drawn from a few values, so cost ties are common."""

    def __init__(self, seed, values):
        self.seed = seed
        self.values = values

    def card(self, spec, subset):
        key = f"{self.seed}:{','.join(sorted(subset))}"
        return float(random.Random(key).choice(self.values))


def graph_spec(n, edges):
    return QuerySpec(
        name=f"g{n}",
        relations=tuple(Relation(f"r{i}", "t") for i in range(n)),
        joins=tuple(JoinEdge(f"r{a}", "k", f"r{b}", "k") for a, b in edges),
    )


def assert_same_plan(spec, estimator, cost):
    got = plan_query(spec, estimator, cost)
    ref, ref_sizes = reference_plan(spec, estimator, cost)
    assert got.plan == ref  # tree, build/probe order and estimates
    assert got.plan.est_cost.hex() == ref.est_cost.hex()
    assert got.est_by_size == ref_sizes


@pytest.mark.parametrize("name,n,edges", GRAPHS, ids=IDS)
@pytest.mark.parametrize("values", [(1, 2), (1, 10, 100, 1000), (7,)])
def test_plan_matches_submask_reference(name, n, edges, values):
    spec = graph_spec(n, edges)
    for seed in range(3):
        assert_same_plan(spec, CoarseEstimator(seed, values), CostModel())


@pytest.mark.parametrize("i", [0, 6, 30, 48, 66, 78, 84, 96, 108])
def test_workload_plan_matches_submask_reference(specs, pg_est, cost_model, i):
    assert_same_plan(specs[i], pg_est, cost_model)


def test_perfect_plan_matches_submask_reference(perfect_est, cost_model):
    from repro.imdb import workload

    assert_same_plan(workload.q6d_lite(), perfect_est, cost_model)
