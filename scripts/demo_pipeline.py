#!/usr/bin/env python3
"""End-to-end walkthrough of the canonicalization pipeline on one state.

Builds a 3 x 3 x 3 state from a known canonical form, scrambles it with a
random invertible triple, canonicalizes the scramble, and decides orbit
equivalence of the two forms.  Everything is exact; rerunning with the
same seed reproduces the output byte for byte.
"""

import argparse
import random

from sloccanon.canon import CanonicalForm, apply_ilo, full_rank_reduce, \
    commuting_pair_canonical
from sloccanon.exactmat import Scalar
from sloccanon.harness import gen_canonical, gen_ilo
from sloccanon.symmetry import orbit_equivalent


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    profile = ((Scalar.of(1), 2), (Scalar.of(3), 1))
    cf = gen_canonical(rng.randrange(2 ** 30), profile)
    print("canonical form blocks:")
    for lam, size, coeffs in cf.block_data():
        print(f"  lambda={lam} size={size} coeffs={[str(c) for c in coeffs]}")

    ops = gen_ilo(rng.randrange(2 ** 30), 3)
    scrambled = apply_ilo(cf.assemble_state(), ops)
    reduced = full_rank_reduce(scrambled)
    recovered, _ = commuting_pair_canonical(reduced.gammas[1],
                                            reduced.gammas[2])
    print("recovered form blocks:")
    for lam, size, coeffs in recovered.block_data():
        print(f"  lambda={lam} size={size} coeffs={[str(c) for c in coeffs]}")

    decision = orbit_equivalent(cf, recovered)
    print(f"orbit decision: {decision.status}")
    if decision.witness is not None:
        w = decision.witness
        print(f"witness: z1={w.z1} z2={w.z2} z3={w.z3} d2={w.d2} d3={w.d3}")


if __name__ == "__main__":
    main()
