"""Write a fingerprint of every plan the workload chooses, as JSON.

One entry per plan for the 113 JOB-lite queries under pg and
perfect-17, and one per planning round of reopt-32. Each entry holds
the join tree with its build/probe order (a leaf is its alias, a join
is ``[build, probe]``), the estimated cost as ``float.hex`` and the
estimate count per subset size (Table I). Simulated times cannot tell
a plan from its mirror image, because the simulator prices a join by
the ``min``/``max`` of its sides; these fingerprints can. To check
that a planner change keeps every plan, run this at both commits with
the same ``PYTHONHASHSEED`` and diff the outputs::

    PYTHONHASHSEED=0 python jobs/plan_fingerprints.py --out a.json
"""
import json

from _common import build_world, parse_args
from repro.core.plans import Leaf


def tree(node):
    """A leaf's alias, or ``[build, probe]`` for a join."""
    if isinstance(node, Leaf):
        return node.alias
    return [tree(node.left), tree(node.right)]


def fingerprint(pr) -> dict:
    return {
        "tree": tree(pr.plan.root),
        "est_cost": pr.plan.est_cost.hex(),
        "est_by_size": {str(k): v for k, v in sorted(pr.est_by_size.items())},
    }


def main() -> None:
    args = parse_args(
        __doc__,
        out=dict(default="plan_fingerprints.json", help="output JSON path"),
    )
    _, _, harness, specs = build_world(args)
    from repro.bench.harness import PERFECT, PG, REOPT32

    res = harness.run_workload(specs, [PG, PERFECT, REOPT32])
    plans = {
        spec.name: {
            "pg": [fingerprint(res["pg"][spec.name].plan)],
            "perfect-17": [fingerprint(res["perfect-17"][spec.name].plan)],
            "reopt-32": [
                fingerprint(pr)
                for pr in res["reopt-32"][spec.name].outcome.planner_results
            ],
        }
        for spec in specs
    }
    with open(args.out, "w") as f:
        json.dump({"sf": args.sf, "seed": args.seed, "plans": plans}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    n = sum(len(v) for p in plans.values() for v in p.values())
    print(f"wrote {n} plan fingerprints, {len(plans)} queries: {args.out}")


if __name__ == "__main__":
    main()
