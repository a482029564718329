#!/usr/bin/env python3
"""Certify back-action evasion for the two-mode interferometer model and
optionally dump a frequency sweep of the quadrature transfer function.

Usage:
    python scripts/michelson_report.py [--mass M] [--omega-m W] [--lam L]
                                       [--sweep-csv PATH]
"""

import argparse

import numpy as np

from qlinbae import bae, qsys, xferfn


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--omega-m", type=float, default=1.0)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--sweep-csv", default=None,
                    help="write |G(i w)| rows over a log grid to this file")
    args = ap.parse_args()

    sys_obj = qsys.michelson_system(args.mass, args.omega_m, args.lam)
    report = bae.certify_bae(sys_obj, tol=1e-10)

    print(f"mass={args.mass} omega_m={args.omega_m} lambda={args.lam}")
    print("matched conditions:",
          [m.condition_id for m in report.matched_conditions])
    print("certified zero pairs:",
          sorted(tuple(p) for p in report.certified_pairs))
    print("prediction consistent with certification:", report.consistency)
    for name in ("qq", "qp", "pq", "pp"):
        cert = getattr(report.pattern, name)
        print(f"  block {name}: zero={cert.zero} node_max={cert.node_max:.3e} "
              f"threshold={cert.threshold:.3e} scale={cert.scale:.3e} "
              f"probe_ratio={cert.probe_ratio:.3e}")

    if args.sweep_csv:
        r = qsys.quad_realization(sys_obj)
        omegas = np.logspace(-2, 2, 200)
        mags = xferfn.frequency_sweep(r, omegas)
        with open(args.sweep_csv, "w", encoding="utf-8") as fh:
            header = ["omega"] + [f"g{i}{j}" for i in range(mags.shape[1])
                                  for j in range(mags.shape[2])]
            fh.write(",".join(header) + "\n")
            for w, row in zip(omegas, mags):
                fh.write(",".join([f"{w:.6g}"]
                                  + [f"{v:.6g}" for v in row.ravel()]) + "\n")
        print(f"wrote sweep to {args.sweep_csv}")


if __name__ == "__main__":
    main()
