#!/usr/bin/env python3
"""Search for coherent-feedback coupling gains that render a target
Hamiltonian purely imaginary in the reduced network, then certify the
resulting zero transfer blocks.

The default target has an indefinite real part, which the identity plant
routing cannot cancel; the swap routing can.

Usage:
    python scripts/feedback_design_demo.py [--seed N] [--starts K]
"""

import argparse

import numpy as np

from qlinbae import feedback

OM_MINUS = np.array([[2.0, 3.0 + 2.0j], [3.0 - 2.0j, 4.0]])
OM_PLUS = np.array([[2.0, 3.0 - 1.0j], [3.0 - 1.0j, 5.0]])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=8)
    args = ap.parse_args()

    cfg = feedback.SearchConfig(n_starts=args.starts, seed=args.seed)
    candidates = feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1),
                                           search_cfg=cfg)
    best = (f"best objective {candidates[0].objective:.3e}" if candidates
            else "none found")
    print(f"{len(candidates)} certified candidates ({best})")
    for i, c in enumerate(candidates[:3]):
        print(f"--- candidate {i}: objective {c.objective:.3e}")
        print("  k11 =", np.round(c.k11, 4))
        print("  k21 =", np.round(c.k21, 4))
        print("  beamsplitter =", np.round(c.s_b, 4))
        print("  plant scattering =\n", np.round(np.real(c.s_plant), 1))
        print("  reduced Omega- =", np.round(c.reduced.omega_minus, 6))
        print("  certified pairs:",
              sorted(tuple(p) for p in c.report.certified_pairs))


if __name__ == "__main__":
    main()
