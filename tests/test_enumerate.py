"""Plan enumeration tests: DP validity and optimality, telemetry."""
import itertools

import pytest

from repro.core.cost import CostModel
from repro.core.enumerate import plan_query
from repro.core.plans import Join, Leaf, walk
from repro.core.query import connected_subsets
from repro.imdb import workload


@pytest.fixture(scope="module")
def q6d():
    return workload.q6d_lite()


def plan_is_valid(spec, root):
    """Covers all aliases exactly once; every join has a cross edge."""
    leaves = [n for n in walk(root) if isinstance(n, Leaf)]
    assert sorted(l.alias for l in leaves) == sorted(spec.aliases)
    for n in walk(root):
        if isinstance(n, Join):
            assert spec.edges_between(n.left.aliases, n.right.aliases)


def left_deep_cost(spec, est, cost, order):
    """Reference cost of one left-deep order (mirrors the planner)."""
    cur = frozenset({order[0]})
    total = cost.scan_cost(est.card(spec, cur))
    for a in order[1:]:
        nxt = cur | {a}
        right = est.card(spec, frozenset({a}))
        total += cost.scan_cost(right)
        total += cost.join_cost(est.card(spec, cur), right, est.card(spec, nxt))
        cur = nxt
    return total


def test_dp_plan_valid(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    plan_is_valid(q6d, pr.plan.root)


def test_dp_not_worse_than_any_left_deep_order(q6d, pg_est, cost_model):
    aliases = sorted(q6d.aliases)
    best = min(
        left_deep_cost(q6d, pg_est, cost_model, list(p))
        for p in itertools.permutations(aliases)
        if all(q6d.is_connected(frozenset(p[:k])) for k in range(1, len(p)))
    )
    pr = plan_query(q6d, pg_est, cost_model)
    assert pr.plan.est_cost <= best + 1e-6


def test_dp_estimate_count_equals_connected_subsets(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    subs = connected_subsets(q6d)
    assert pr.n_estimates == len(subs)
    from collections import Counter

    assert pr.est_by_size == Counter(len(s) for s in subs)


def test_dp_deterministic(q6d, pg_est, cost_model):
    a = plan_query(q6d, pg_est, cost_model)
    b = plan_query(q6d, pg_est, cost_model)
    assert a.plan == b.plan


def test_planning_time_recorded(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    assert pr.planning_time > 0


def test_perfect_estimator_changes_plan_cost(q6d, pg_est, perfect_est, cost_model):
    pg_cost = plan_query(q6d, pg_est, cost_model).plan.est_cost
    pf_cost = plan_query(q6d, perfect_est, cost_model).plan.est_cost
    # perfect estimates see the true (larger) intermediates on q6d.
    assert pf_cost > pg_cost


@pytest.mark.parametrize("i", [0, 3, 25, 50, 75, 103, 112])
def test_workload_plans_valid(specs, pg_est, cost_model, i):
    pr = plan_query(specs[i], pg_est, cost_model)
    plan_is_valid(specs[i], pr.plan.root)


def test_build_side_is_smaller_estimate(q6d, pg_est, cost_model):
    pr = plan_query(q6d, pg_est, cost_model)
    for n in walk(pr.plan.root):
        if isinstance(n, Join):
            assert n.left.est_card <= n.right.est_card
