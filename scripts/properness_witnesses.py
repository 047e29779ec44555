#!/usr/bin/env python3
"""Numeric witnesses separating the ten spheres.

Three exhibits:
  1. antidiagonal 2x2 coordinates over a generic complex point satisfy the
     half-commutation relations but not commutation, so classical < half;
  2. square roots of noncommuting positive matrices give a free-sphere
     model whose coordinate squares do not commute, so half < free;
  3. a generic Haar rotation intertwines the untwisted crossing but not the
     twisted one, separating the twisted and untwisted classical groups.
"""

import numpy as np

from ncspheres.models import (
    antidiagonal_model,
    check_intertwiner,
    check_sphere_relations,
    haar_batch,
    sample_classical_point,
    sqrt_positive_model,
)
from ncspheres.partitions import parse_partition
from ncspheres.weingarten import Field, sphere_by_name


def main():
    z = sample_classical_point(Field.COMPLEX, 3, seed=7)
    m = antidiagonal_model(z)
    half = check_sphere_relations(m, sphere_by_name("s_r_star"))
    comms = max(
        np.abs(m.coordinates[i] @ m.coordinates[j] - m.coordinates[j] @ m.coordinates[i]).max()
        for i in range(3) for j in range(i + 1, 3)
    )
    print(f"antidiagonal model: half-liberated violations={len(half)}, "
          f"max commutator={comms:.4f}")

    w = np.exp(2j * np.pi / 3)
    model, comm = sqrt_positive_model(
        (1 / 3, 1 / 3, 1 / 3), (1 / 3, 1 / 3, 1 / 3), (0.1, 0.1 * w, 0.1 * w ** 2))
    free = check_sphere_relations(model, sphere_by_name("s_r_plus"))
    print(f"sqrt-positive model: free-sphere violations={len(free)}, "
          f"square commutators={[f'{c:.4f}' for c in comm]}")

    crossing = parse_partition("ab|ba")
    u = haar_batch(Field.REAL, 3, 1, seed=3)
    (untwisted,) = check_intertwiner(crossing, u, twisted=False)
    (twisted,) = check_intertwiner(crossing, u, twisted=True)
    print(f"Haar rotation: untwisted crossing intertwines={untwisted}, "
          f"twisted intertwines={twisted}")


if __name__ == "__main__":
    main()
