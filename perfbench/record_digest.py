"""Record ``digest.json``: every query's outputs at the default seeds.

Runs all 113 JOB-lite queries under pg, perfect-17, reopt-32 and
reopt-2 (about two minutes on 4 cores) and refuses to write a digest
whose totals differ from the reproduction's published numbers::

    python3 perfbench/record_digest.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.harness import PERFECT, PG, REOPT32, Config, Harness  # noqa: E402
from repro.core.stats import analyze_pandas  # noqa: E402
from repro.imdb import gen, workload  # noqa: E402

from checks import DIGEST_PATH, run_digest  # noqa: E402

SF, DATA_SEED, WORKLOAD_SEED = 0.01, 42, 7

#: config → (total simulated time to 10 digits, total replans).
TOTALS = {
    "pg": ("2.232584381e+09", 0),
    "perfect-17": ("1.299888301e+09", 0),
    "reopt-32": ("1.398309317e+09", 103),
    "reopt-2": ("1.311534752e+09", 307),
}
#: Table I: cardinality estimates of one PG pass.
PG_ESTIMATES = 34033


def totals_errors(runs: dict) -> list[str]:
    """How ``runs`` (config → query → digest) misses the known totals."""
    errors = []
    for cfg, (sim, replans) in TOTALS.items():
        got = (
            f"{sum(d[0] for d in runs[cfg].values()):.9e}",
            sum(d[1] for d in runs[cfg].values()),
        )
        if got != (sim, replans):
            errors.append(f"{cfg}: {got} != {(sim, replans)}")
    est = sum(d[2] for d in runs["pg"].values())
    if est != PG_ESTIMATES:
        errors.append(f"pg estimates: {est} != {PG_ESTIMATES}")
    return errors


def main() -> int:
    ds = gen.generate(sf=SF, seed=DATA_SEED)
    specs = workload.job_lite_workload(seed=WORKLOAD_SEED)
    runs: dict[str, dict] = {}
    reopt2 = Config("reopt-2", reopt_threshold=2.0)
    for configs in ([PG, PERFECT, REOPT32], [reopt2]):
        h = Harness(ds, analyze_pandas(ds))
        for cfg, by_q in h.run_workload(specs, configs).items():
            runs[cfg] = {q: run_digest(r) for q, r in by_q.items()}
    errors = totals_errors(runs)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    DIGEST_PATH.write_text(
        json.dumps(
            {
                "sf": SF,
                "data_seed": DATA_SEED,
                "workload_seed": WORKLOAD_SEED,
                "runs": runs,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {DIGEST_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
