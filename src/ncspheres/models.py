"""Finite-dimensional numeric witnesses for the spheres and groups.

A model keeps its N coordinates as one stacked complex array of shape
(N, d, d); a point (a classical point of a sphere) is the case d = 1.
Relation checks, fixed-vector sums and coactions multiply letters gathered
from that stack, so points and matrix models evaluate uniformly; an empty
violation list from `check_sphere_relations` means every defining relation
of the sphere holds within tolerance.  Groups act through stacks too: the
signed permutations and Haar samples are (count, N, N) arrays.

The twisted spheres have no commutative points beyond the coordinate
axes, but they do have small matrix models: rescaled anticommuting
Clifford generators satisfy the twisted classical relations, and the
antidiagonal construction turns a complex model into a half-liberated
real one.  These witnesses are what the one-sided soundness tests of the
relation engine evaluate against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, FrameError, SizeLimitError
from .partitions import LegColor, Partition
from .relations import relation_sign, sphere_relations
from .tensors import t_map, xi_vector
from .weingarten import Field, SphereSpec, _check_dimension

DEFAULT_TOL = 1e-10

# cells of the largest dense matrix `check_intertwiner` may build; it builds
# N^(2 max(k, l)) of them, so "abcd|abcd" runs up to N = 4 and "abc|cba"
# up to N = 6.  It also bounds the N^blocks index tuples the fixed-vector
# check sums over, so "|aabbccddee" runs up to N = 9
INTERTWINER_CELL_BOUND = 4 ** 8

# multiply-adds of the fixed-vector sum: one d-by-d product, d^3 of them,
# per leg per tuple.  "|aabbccddee" on a point at N = 9 takes 590490; the
# Clifford model of 12 coordinates (d = 64) admits no nonempty partition
FIXED_VECTOR_WORK_BOUND = 2 ** 20

# the largest matrix dimension `clifford_model` may build: n coordinates
# need 2^ceil(n/2), so it serves n <= 12
CLIFFORD_DIMENSION_BOUND = 2 ** 6


@dataclass(frozen=True, eq=False)
class Model:
    """N coordinates as one (N, d, d) complex array; a point has d = 1."""

    coordinates: np.ndarray

    def __post_init__(self):
        # a read-only copy, so the cached letters cannot go stale
        z = np.array(self.coordinates, dtype=complex)
        if z.ndim != 3 or z.shape[1] != z.shape[2]:
            raise DomainError(f"need coordinates of shape (N, d, d), got {z.shape}")
        z.flags.writeable = False
        object.__setattr__(self, "coordinates", z)

    @property
    def n(self) -> int:
        return self.coordinates.shape[0]

    @property
    def d(self) -> int:
        return self.coordinates.shape[1]

    @functools.cached_property
    def letters(self) -> np.ndarray:
        """The coordinates and their adjoints, shape (2, N, d, d): the
        letter z_i is ``letters[0, i]`` and z_i* is ``letters[1, i]``."""
        z = self.coordinates
        return np.stack((z, z.conj().transpose(0, 2, 1)))

    def to_json_dict(self) -> dict:
        if self.d == 1:
            return {"kind": "point", "N": self.n, "d": 1,
                    "data": [[z.real, z.imag] for z in self.coordinates[:, 0, 0]]}
        return {"kind": "matrix", "N": self.n, "d": self.d,
                "data": [[[x.real, x.imag] for x in m.flatten()]
                         for m in self.coordinates]}


def _point(coordinates) -> Model:
    return Model(np.reshape(coordinates, (-1, 1, 1)))


# ---------------------------------------------------------------------------
# model constructors


def sample_classical_point(field: Field, n: int, seed: int) -> Model:
    """Uniform point on the classical sphere: normalized Gaussian vector."""
    _check_dimension(n)
    rng = np.random.default_rng(seed)
    if field is Field.REAL:
        v = rng.standard_normal(n)
    else:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return _point(v / np.linalg.norm(v))


def twisted_classical_points(field: Field, n: int) -> list[Model]:
    """The classical points of the twisted spheres: one nonzero coordinate,
    signed in the real case and on the unit circle in the complex case."""
    _check_dimension(n)
    phases = (1 + 0j, -1 + 0j) if field is Field.REAL else (1 + 0j, 1j, -1 + 0j, -1j)
    return [_point([w if j == i else 0j for j in range(n)]) for i in range(n) for w in phases]


def antidiagonal_model(z: Model) -> Model:
    """2x2 self-adjoint coordinates with a complex point on the
    antidiagonal; they half-commute, so the model lives on the real
    half-liberated sphere (twisted input gives the twisted version)."""
    if z.d != 1:
        raise DomainError(f"the antidiagonal construction takes a point, got d={z.d}")
    mats = np.zeros((z.n, 2, 2), dtype=complex)
    mats[:, 0, 1] = z.coordinates[:, 0, 0]
    mats[:, 1, 0] = z.coordinates[:, 0, 0].conj()
    return Model(mats)


def _pauli_strings(n: int) -> list[np.ndarray]:
    """n pairwise anticommuting self-adjoint unitaries in dimension
    2**ceil(n/2), by the standard tensor-product construction."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    m = (n + 1) // 2
    out = []
    for j in range(m):
        for head in (X, Y):
            factors = [Z] * j + [head] + [eye] * (m - j - 1)
            g = factors[0]
            for f in factors[1:]:
                g = np.kron(g, f)
            out.append(g)
            if len(out) == n:
                return out
    return out


def clifford_model(n: int) -> Model:
    """Rescaled Clifford generators: x_i x_j = -x_j x_i for i != j and
    sum x_i^2 = 1.  Unit phases times the coordinates satisfy the twisted
    complex sphere relations instead.  Refuses a dimension above
    ``CLIFFORD_DIMENSION_BOUND``."""
    _check_dimension(n)
    d = 2 ** ((n + 1) // 2)
    if d > CLIFFORD_DIMENSION_BOUND:
        raise SizeLimitError(f"a Clifford model with {n} coordinates has dimension {d}, "
                             f"over the bound {CLIFFORD_DIMENSION_BOUND}")
    scale = 1.0 / np.sqrt(n)
    return Model(np.stack([scale * g for g in _pauli_strings(n)]))


def sqrt_positive_model(r: Sequence[float], s: Sequence[float],
                        z: Sequence[complex]):
    """Square roots of three positive 2x2 matrices summing to one.

    Y_i = [[r_i, z_i], [conj(z_i), s_i]] must be positive definite; the
    coordinates X_i = sqrt(Y_i) are self-adjoint with squares summing to
    one, and noncommuting Y_i witness that squares of half-liberated
    coordinates need not commute on the free sphere.  Returns the model
    and the pairwise commutator norms of the Y_i.
    """
    if len(r) != 3 or len(s) != 3 or len(z) != 3:
        raise DomainError("the construction takes three coordinates")
    if abs(sum(r) - 1) > 1e-12 or abs(sum(s) - 1) > 1e-12 or abs(sum(z)) > 1e-12:
        raise DomainError("need sum r = sum s = 1 and sum z = 0")
    ys = [np.array([[ri, zi], [np.conj(zi), si]], dtype=complex)
          for ri, si, zi in zip(r, s, z)]
    xs = []
    for y in ys:
        vals, vecs = np.linalg.eigh(y)
        if vals.min() <= 0:
            raise DomainError("a coordinate matrix is not positive definite")
        xs.append(vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T)
    comm = [float(np.abs(ys[i] @ ys[j] - ys[j] @ ys[i]).max())
            for i, j in ((0, 1), (0, 2), (1, 2))]
    return Model(np.stack(xs)), comm


def enumerate_signed_permutations(n: int) -> np.ndarray:
    """All signed permutation matrices, the hyperoctahedral group of order
    2^n n!, as one (2^n n!, n, n) stack: row i of an element holds its sign
    in column perm(i); permutations vary slowest, signs fastest."""
    _check_dimension(n)
    if n > 4:
        raise SizeLimitError("signed permutation enumeration supports n <= 4")
    out = np.zeros((2 ** n * math.factorial(n), n, n), dtype=complex)
    rows = range(n)
    for g, (perm, signs) in enumerate(itertools.product(
            itertools.permutations(rows), itertools.product((1, -1), repeat=n))):
        out[g, rows, perm] = signs
    return out


# ---------------------------------------------------------------------------
# relation checks


def check_sphere_relations(model: Model, sphere: SphereSpec,
                           tol: float = DEFAULT_TOL) -> list[tuple[str, float]]:
    """Evaluate every defining relation of the sphere on the model.

    Returns the list of violations (description, residual); empty means
    the model satisfies the relation system within tolerance.
    """
    system = sphere_relations(sphere)
    letters = model.letters
    z, z_star = letters
    eye = np.eye(model.d)
    violations: list[tuple[str, float]] = []
    for desc, lhs in (("sum z z* = 1", sum(z @ z_star)), ("sum z* z = 1", sum(z_star @ z))):
        residual = float(np.abs(lhs - eye).max())
        if residual > tol:
            violations.append((desc, residual))
    if not system.complex_symbols:
        for i, residual in enumerate(np.abs(z - z_star).max(axis=(1, 2))):
            if residual > tol:
                violations.append((f"z_{i + 1} self-adjoint", float(residual)))

    stars = (0, 1) if system.complex_symbols else (0,)
    for sigma in system.perms:
        k = len(sigma)
        exps = np.array(list(itertools.product(stars, repeat=k)))
        order = [q - 1 for q in sigma]
        for idx in itertools.product(range(model.n), repeat=k):
            sign = relation_sign(sigma, idx, system.twisted)
            # words[t] holds the t-th letter of every star pattern
            words = letters[exps, idx].swapaxes(0, 1)
            lhs = functools.reduce(np.matmul, words)
            rhs = functools.reduce(np.matmul, words[order])
            residuals = np.abs(lhs - sign * rhs).max(axis=(1, 2))
            for e in np.flatnonzero(residuals > tol):
                word = "".join(f"z{q + 1}{'*' if s else ''}" for q, s in zip(idx, exps[e]))
                violations.append((f"{word} = {sign:+d} sigma{sigma}", float(residuals[e])))
    return violations


def check_fixed_vector_identity(p: Partition, model: Model,
                                twisted: bool = False) -> float:
    """Residual of the fixed-vector sum: the signed sum of coordinate
    products over all tuples compatible with the partition must equal one
    whenever the partition belongs to the sphere's category.  Refuses more
    than ``INTERTWINER_CELL_BOUND`` tuples, or more than
    ``FIXED_VECTOR_WORK_BOUND`` multiply-adds (tuples x legs x d^3)."""
    if p.upper != 0:
        raise FrameError("the identity runs over lower-row-only partitions")
    n, d = model.n, model.d
    tuples = n ** p.block_count
    if tuples > INTERTWINER_CELL_BOUND:
        raise SizeLimitError(f"the fixed-vector sum of {p.literal()} at N={n} runs over "
                             f"{tuples} tuples, over the bound {INTERTWINER_CELL_BOUND}")
    work = tuples * p.lower * d ** 3
    if work > FIXED_VECTOR_WORK_BOUND:
        raise SizeLimitError(f"the fixed-vector sum of {p.literal()} at N={n}, d={d} needs "
                             f"{work} multiply-adds, over the bound {FIXED_VECTOR_WORK_BOUND}")
    vec = xi_vector(p, n, twisted)
    # per leg, the N letters it can carry (z or z*), as a list of views
    legs = [list(model.letters[int(c is LegColor.BLACK)]) for c in p.colors]
    total = np.zeros((d, d), dtype=complex)
    for tup, coeff in vec.entries.items():
        total += coeff * functools.reduce(np.matmul, [leg[j - 1] for leg, j in zip(legs, tup)])
    return float(np.abs(total - np.eye(d)).max())


def coaction_check(g: np.ndarray, model: Model, sphere: SphereSpec,
                   tol: float = DEFAULT_TOL) -> bool:
    """Transform the coordinates by a classical isometry and re-check the
    sphere relations: z_i -> sum_j g_ij z_j."""
    moved = np.tensordot(g, model.coordinates, axes=1)
    return not check_sphere_relations(Model(moved), sphere, tol)


# ---------------------------------------------------------------------------
# intertwiners


def _rep_power(u: np.ndarray, colors: Sequence[LegColor]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in colors:
        factor = np.conj(u) if c is LegColor.BLACK else u
        out = np.kron(out, factor)
    return out


def check_intertwiner(p: Partition, us: np.ndarray, twisted: bool = False,
                      tol: float = DEFAULT_TOL) -> list[bool]:
    """Whether T_p u^{tensor k} = u^{tensor l} T_p within tolerance, for
    each matrix u of the (count, N, N) stack ``us``.

    Black legs act by the entrywise conjugate of u, matching tensor powers
    with conjugate factors.  The check is dense, so it refuses a frame and
    dimension above ``INTERTWINER_CELL_BOUND`` cells.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or us.shape[1] != us.shape[2]:
        raise DomainError(f"need a stack of square matrices, got shape {us.shape}")
    n = us.shape[1]
    cells = n ** (2 * max(p.upper, p.lower))
    if cells > INTERTWINER_CELL_BOUND:
        raise SizeLimitError(f"an intertwiner check of {p.literal()} at N={n} needs "
                             f"{cells} dense cells, over the bound {INTERTWINER_CELL_BOUND}")
    t = t_map(p, n, twisted).to_dense().astype(complex)
    upper, lower = p.colors[: p.upper], p.colors[p.upper:]
    return [bool(np.abs(t @ _rep_power(u, upper) - _rep_power(u, lower) @ t).max() <= tol)
            for u in us]


# ---------------------------------------------------------------------------
# Haar sampling


def haar_batch(field: Field, n: int, samples: int, seed: int) -> np.ndarray:
    """Batch of Haar orthogonal (real field) or unitary (complex field)
    matrices, shape (samples, n, n), from phase-fixed QR of Gaussian
    matrices."""
    _check_dimension(n)
    if samples < 1:
        raise ValueError(f"a Haar sample batch needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n, n))
    if field is Field.COMPLEX:
        g = g + 1j * rng.standard_normal((samples, n, n))
    q, r = np.linalg.qr(g)
    diag = np.einsum("sii->si", r).copy()
    diag[diag == 0] = 1  # diag/|diag| alone would give 0/0 there
    return q * (diag / np.abs(diag)).conj()[:, None, :]


def _word_entries(word, n: int) -> list[tuple[int, int, bool]]:
    out = []
    for item in word:
        i, j = int(item[0]), int(item[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"index pair ({i}, {j}) outside 1..{n}")
        star = len(item) > 2 and item[2] in ("*", True)
        out.append((i, j, star))
    return out


def haar_moment_mc(group: str, n: int, word, samples: int = 100_000,
                   seed: int = 0) -> tuple[float, float]:
    """Monte Carlo (or exact, for the finite/compact classical versions)
    Haar moment of a coordinate word [(i, j, exp), ...].

    Returns (estimate, standard error); the hyperoctahedral and K_N
    averages are exact with zero reported error.  Indices run over
    ``1..n``; any other index raises ``ValueError``, and so do fewer than
    2 samples for the orthogonal and unitary estimates.
    """
    _check_dimension(n)
    entries = _word_entries(word, n)
    if group in ("orthogonal", "unitary") and samples < 2:
        raise ValueError(f"a Monte Carlo estimate needs at least 2 samples, got {samples}")
    if group == "k_n":
        # u = diag(phases) P: the phase integral kills any row with a net
        # exponent, and is one otherwise
        total = 0.0
        perms = list(itertools.permutations(range(1, n + 1)))
        for perm in perms:
            if any(perm[i - 1] != j for i, j, _ in entries):
                continue
            balance: dict[int, int] = {}
            for i, _, star in entries:
                balance[i] = balance.get(i, 0) + (-1 if star else 1)
            if all(v == 0 for v in balance.values()):
                total += 1.0
        return total / len(perms), 0.0
    if group == "orthogonal":
        u = haar_batch(Field.REAL, n, samples, seed)
    elif group == "unitary":
        u = haar_batch(Field.COMPLEX, n, samples, seed)
    elif group == "hyperoctahedral":
        u = enumerate_signed_permutations(n)
    else:
        raise ValueError(f"unknown group {group!r}")
    vals = np.ones(len(u), dtype=u.dtype)
    for i, j, star in entries:
        factor = u[:, i - 1, j - 1]
        vals = vals * (factor.conj() if star else factor)
    mean = float(vals.mean().real)
    if group == "hyperoctahedral":
        return mean, 0.0  # the average over the whole group is exact
    return mean, float(vals.real.std(ddof=1) / np.sqrt(len(u)))
