#!/usr/bin/env python3
"""Scan every permutation of S_3 and S_4 (and S_5 with ``--depth 5``)
through the monomial-sphere classifier, in all four regimes, and tabulate
the resulting spheres.

Through S_4 every singleton is settled, and none produces anything beyond
the ten spheres: the identity gives the free sphere, half-commuting
permutations the half-liberated one, and everything else collapses to the
(twisted) classical sphere.  ``--depth 5`` leaves seven S_5 singletons
(13425, 14235, 14325, 14523, 34125, 35142, 42513) ``undetermined`` in each
regime: saturation at degree 7 and the default index bound does not
settle them.
"""

import argparse
import itertools
from collections import Counter

from ncspheres.relations import DEFAULT_MAX_DEGREE, classify_monomial_sphere


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=int, default=4, choices=(3, 4, 5))
    args = ap.parse_args()
    # the classifier needs two degrees above the longest permutation
    max_degree = max(DEFAULT_MAX_DEGREE, args.depth + 2)
    for regime in ("real", "real_twisted", "complex", "complex_twisted"):
        counts: Counter = Counter()
        for k in range(2, args.depth + 1):
            for perm in itertools.permutations(range(1, k + 1)):
                sphere = classify_monomial_sphere([perm], regime, max_degree)
                counts[sphere] += 1
                word = "".join(map(str, perm))
                print(f"{regime:16s} {word:6s} -> {sphere}")
        print(f"{regime}: {dict(counts)}\n")


if __name__ == "__main__":
    main()
