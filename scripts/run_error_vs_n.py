#!/usr/bin/env python3
"""Recovery error as a function of the site count.

Sweeps n at fixed shot budget for both bond dimensions and both
initialization modes, writing results.csv / medians.csv / error_vs_n.svg
into the output directory.  Re-runs resume from completed cells.
"""

import argparse

from mpoqst.experiment import ExperimentSpec, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/error-vs-n")
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--shots", type=int, default=3000)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--algorithm", choices=["pgd", "psgd"],
                        default="pgd")
    args = parser.parse_args()

    spec = ExperimentSpec(
        n_values=list(range(args.n_min, args.n_max + 1)),
        m_values=[args.shots],
        rank_values=[1, 4],
        init_modes=["random", "spectral"],
        algorithms=[args.algorithm],
        seeds=args.seeds,
        base_seed=args.base_seed,
        estimator_overrides={"max_iters": 300},
    )
    result = run_experiment(spec, args.out)
    print(f"{result['cells_run']} new cells "
          f"({result['cells_total']} total) -> {result['results_csv']}")
    for med in result["medians"]:
        print(f"  n={med['n']} r={med['rank']} {med['init']}: "
              f"median error {med['median_final_error']:.4f}")


if __name__ == "__main__":
    main()
