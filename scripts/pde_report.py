#!/usr/bin/env python3
"""Convergence and preconditioner study for the 1-D elliptic discretization.

Prints the weighted stability quantities per refinement level, the
observed consistency order, and the Jacobi-Richardson decay report; can
also emit the level table as CSV.
"""

import argparse
import sys

from aradius import (
    EllipticSpec,
    consistency_order,
    convergence_rows,
    preconditioner_report,
    stability_report,
    write_convergence_csv,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-points", type=int, default=8)
    ap.add_argument("--coeff-a", type=float, nargs="+", default=[1.0, 0.0, 1.0],
                    help="ascending diffusion polynomial coefficients")
    ap.add_argument("--coeff-c", type=float, default=1.0)
    ap.add_argument("--domain", type=float, nargs=2, default=[0.0, 1.0])
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--iterations", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None, help="write the level table here")
    return ap.parse_args()


def main():
    args = parse_args()
    spec = EllipticSpec(
        n_points=args.n_points,
        coeff_a=tuple(args.coeff_a),
        coeff_c=args.coeff_c,
        domain=tuple(args.domain),
    )

    print(f"{'N':>5}  {'h':>10}  {'norm':>12}  {'radius':>12}  order")
    for row in convergence_rows(spec, levels=args.levels):
        order = row["observed_order"]
        order_s = f"{order:.3f}" if order != "" else "  -  "
        print(f"{row['N']:>5}  {row['h']:>10.6f}  {row['norm']:>12.6g}  "
              f"{row['radius']:>12.6g}  {order_s}")
    print(f"\nleast-squares consistency order: "
          f"{consistency_order(spec, args.levels):.4f}")

    stab = stability_report(spec, samples=100, seed=args.seed)
    print(f"stability: sampled amplification {stab.lhs:.6g} "
          f"<= inverse seminorm {stab.rhs:.6g} (slack {stab.slack:+.3e})")

    rep = preconditioner_report(spec, p_kind="jacobi",
                                iterations=args.iterations, seed=args.seed)
    print(f"jacobi richardson: rho {rep.rho:.5f} "
          f"({'contractive' if rep.contractive else 'NOT contractive'}), "
          f"monotone {rep.monotone}, within power curve {rep.within_power_bound}")
    print(f"final error ratio after {rep.iterations} steps: "
          f"{rep.error_ratios[-1]:.3e}")

    if args.csv:
        write_convergence_csv(args.csv, spec, levels=args.levels)
        print(f"level table written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
