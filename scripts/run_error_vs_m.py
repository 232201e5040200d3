#!/usr/bin/env python3
"""Recovery error as a function of the number of measurement shots.

Fixed-step schedules suit this sweep: the diminishing schedule freezes
before small-noise records are fully exploited.  Expect a log-log slope
near -1/2 in the medians.
"""

import argparse

import numpy as np

from mpoqst.estimator import STEP_PRESETS
from mpoqst.experiment import ExperimentSpec, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/error-vs-m")
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--shots", type=int, nargs="+",
                        default=[1000, 3000, 10000, 30000, 100000])
    parser.add_argument("--rank", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args()

    spec = ExperimentSpec(
        n_values=[args.n],
        m_values=args.shots,
        rank_values=[args.rank],
        init_modes=["random"],
        algorithms=["pgd"],
        seeds=args.seeds,
        base_seed=args.base_seed,
        estimator_overrides={"max_iters": 200,
                             **STEP_PRESETS["pgd-fixed-random"]},
    )
    result = run_experiment(spec, args.out)
    meds = sorted((med["shots"], med["median_final_error"])
                  for med in result["medians"])
    for shots, err in meds:
        print(f"  M={shots}: median error {err:.4f}")
    if len(meds) > 1:
        slope = np.polyfit(np.log([m for m, _ in meds]),
                           np.log([e for _, e in meds]), 1)[0]
        print(f"log-log slope: {slope:.3f}")


if __name__ == "__main__":
    main()
