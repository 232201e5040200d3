#!/usr/bin/env python3
"""Median max-probability statistic of random MPDOs as n grows.

Uses exhaustive enumeration where feasible and the beam lower bound
beyond; the statistic should grow polynomially, not exponentially, for
these mixed states.  Writes gamma.csv (one row per n) into the output
directory.
"""

import argparse
import os

import numpy as np

from mpoqst import __version__
from mpoqst.experiment import _write_table
from mpoqst.povm import ProductPOVM, gamma
from mpoqst.states import MPDOGenConfig, random_mpdo
from mpoqst.tt import N_DENSE_MAX


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/gamma-vs-n")
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--kappa", type=int, default=2)
    parser.add_argument("--draws", type=int, default=20)
    parser.add_argument("--beam-width", type=int, default=64)
    parser.add_argument("--base-seed", type=int, default=7000)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    rows = []  # (n, method, median, max, draws)
    for n in range(args.n_min, args.n_max + 1):
        povm = ProductPOVM.local_sic(n)
        method = "exhaustive" if n <= N_DENSE_MAX else "beam"
        vals = []
        for draw in range(args.draws):
            state = random_mpdo(MPDOGenConfig(
                n=n, kappa=args.kappa, purity=10,
                seed=args.base_seed + draw))
            vals.append(gamma(povm, state, method=method,
                              beam_width=args.beam_width).gamma)
        med = float(np.median(vals))
        rows.append((n, method, med, max(vals), args.draws))
        print(f"n={n:2d} ({method:10s}): median gamma {med:.3f} "
              f"max {max(vals):.3f}")
    if len(rows) > 1:
        slope = np.polyfit(np.log([row[0] for row in rows]),
                           np.log([row[2] for row in rows]), 1)[0]
        print(f"log-log slope of median gamma vs n: {slope:.2f}")
    _write_table(os.path.join(args.out, "gamma.csv"),
                 f"# mpoqst {__version__} kappa={args.kappa} "
                 f"draws={args.draws} beam_width={args.beam_width} "
                 f"base_seed={args.base_seed}",
                 ["n", "method", "median_gamma", "max_gamma", "draws"], rows)


if __name__ == "__main__":
    main()
