#!/usr/bin/env python3
"""Print exact Gram/Weingarten tables for the ten group categories.

Covers the degree-4 closed forms over a range of dimensions, plus the
stochastic degree-6 half-liberated matrices with their constant row sums.
"""

import argparse

from ncspheres.weingarten import (
    Field,
    GroupSpec,
    Level,
    category_pairings,
    gram,
    weingarten_matrix,
)


def show(group, n, k=None, alpha=None):
    ps = category_pairings(group, alpha, k)
    g, w = gram(group, n, alpha, k), weingarten_matrix(group, n, alpha, k)
    label = alpha if alpha else f"k={k}"
    print(f"\n{group.name}  {label}  N={n}   pairings: "
          + " ".join(p.literal() for p in ps))
    for grow, wrow in zip(g.to_strings(), w.to_strings()):
        print("   G:", " ".join(f"{x:>6s}" for x in grow),
              "   W:", " ".join(f"{x:>10s}" for x in wrow))
    print("   row sums: G =", str(g.row_sums()[0]),
          "  W =", str(w.row_sums()[0]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=5)
    args = ap.parse_args()
    for n in range(3, args.nmax + 1):
        show(GroupSpec(Field.REAL, Level.CLASSICAL), n, k=4)
        show(GroupSpec(Field.COMPLEX, Level.CLASSICAL), n, alpha="11**")
    for n in range(3, args.nmax + 1):
        show(GroupSpec(Field.REAL, Level.HALF), n, k=6)


if __name__ == "__main__":
    main()
