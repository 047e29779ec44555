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
from .partitions import LegColor, Partition, perm_to_partition
from .relations import sphere_relations
from .tensors import _check_dimension, t_entries
from .weingarten import Field, SphereSpec, _coordinate_word

DEFAULT_TOL = 1e-10

# cells of the largest dense matrix `check_intertwiner` may build; it builds
# N^(2 max(k, l)) of them, so "abcd|abcd" runs up to N = 4 and "abc|cba"
# up to N = 6.  It also bounds the N^k index tuples of the sphere relation
# check: N <= 40 for the length-3 relations of the half-liberated spheres,
# N <= 256 for the commutation relations, whose words are multiplied in
# slices of this many cells (tuples x star patterns x d^2): at d = 64, the
# 1728 real words at once take about 0.9 GB
INTERTWINER_CELL_BOUND = 4 ** 8

# cells of `check_intertwiner` over a whole stack, count x N^(2 max(k, l)):
# with "abcd|abcd" at N = 4, 384 signed permutations or 1024 Haar samples
INTERTWINER_WORK_BOUND = 2 ** 26

# multiply-adds of the fixed-vector sum: one d-by-d product, d^3 of them, per
# leg per tuple, so its leg indices take at most 8 MB and its products 16 MB.
# A point admits "|aabbccddee" up to N = 10; at d = 64 no nonempty partition fits
FIXED_VECTOR_WORK_BOUND = 2 ** 20

# entries of the (samples, N, N) stack `haar_batch` draws at once, 32 MB of
# reals; the paper suite's Monte Carlo check draws 1.6M (100000 at N = 4)
HAAR_ENTRY_BOUND = 2 ** 22

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
    return [functools.reduce(np.kron, [Z] * j + [head] + [eye] * (m - j - 1))
            for j in range(m) for head in (X, Y)][:n]


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
    in column perm(i); permutations vary slowest, signs fastest.  Refuses
    more than ``HAAR_ENTRY_BOUND`` entries, so n runs up to 6."""
    _check_dimension(n)
    count = 2 ** n * math.factorial(n)
    if count * n * n > HAAR_ENTRY_BOUND:
        raise SizeLimitError(f"the {count} signed permutations at N={n} hold {count * n * n} "
                             f"entries, over the Haar bound {HAAR_ENTRY_BOUND}")
    out = np.zeros((count, n, n), dtype=complex)
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
    the model satisfies the relation system within tolerance.  Refuses
    more than ``INTERTWINER_CELL_BOUND`` index tuples, N^k per relation
    of length k, before evaluating any.
    """
    system = sphere_relations(sphere)
    tuples = sum(model.n ** len(sigma) for sigma in system.perms)
    if tuples > INTERTWINER_CELL_BOUND:
        raise SizeLimitError(f"the relations of {sphere.name} at N={model.n} run over "
                             f"{tuples} index tuples, over the bound {INTERTWINER_CELL_BOUND}")
    z, z_star = model.letters
    violations: list[tuple[str, float]] = []
    for desc, lhs in (("sum z z* = 1", sum(z @ z_star)), ("sum z* z = 1", sum(z_star @ z))):
        residual = float(np.abs(lhs - np.eye(model.d)).max())
        if residual > tol:
            violations.append((desc, residual))
    if system.field is not Field.COMPLEX:
        for i, residual in enumerate(np.abs(z - z_star).max(axis=(1, 2))):
            if residual > tol:
                violations.append((f"z_{i + 1} self-adjoint", float(residual)))

    for sigma in system.perms:
        k = len(sigma)
        # sigma's diagram: upper row a word's indices, lower row their images
        legs, signs = _entries(perm_to_partition(sigma), model.n, system.twisted)
        # the star patterns, one column each
        exps = np.indices((2 if system.field is Field.COMPLEX else 1,) * k).reshape(k, -1)
        step = max(1, INTERTWINER_CELL_BOUND // (exps.shape[1] * model.d ** 2))
        for start in range(0, len(signs), step):
            index, sign = legs[:, start:start + step, None], signs[start:start + step]
            lhs = _word_products(model.letters, exps, index[:k])
            rhs = _word_products(model.letters, exps[[q - 1 for q in sigma]], index[k:])
            residuals = np.abs(lhs - sign[:, None, None, None] * rhs).max(axis=(2, 3))
            for i, e in zip(*np.nonzero(residuals > tol)):
                word = "".join(f"z{q + 1}{'*' * s}" for q, s in zip(index[:k, i, 0], exps[:, e]))
                violations.append((f"{word} = {sign[i]:+d} sigma{sigma}", float(residuals[i, e])))
    return violations


def _word_products(letters: np.ndarray, stars, index) -> np.ndarray:
    """Left-to-right products of letters[stars[t], index[t]], broadcast; the empty word gives 1."""
    out = np.eye(letters.shape[-1])
    for t, (star, i) in enumerate(zip(stars, index)):
        out = letters[star, i] if t == 0 else out @ letters[star, i]
    return out


def check_fixed_vector_identity(p: Partition, model: Model,
                                twisted: bool = False) -> float:
    """Residual of the fixed-vector sum: the signed sum of coordinate
    products over all tuples compatible with the partition must equal one
    whenever the partition belongs to the sphere's category.  Refuses more
    than ``FIXED_VECTOR_WORK_BOUND`` multiply-adds (tuples x legs x d^3),
    which also bounds the memory the tuples take."""
    if p.upper != 0:
        raise FrameError("the identity runs over lower-row-only partitions")
    n, d = model.n, model.d
    work = n ** p.block_count * p.lower * d ** 3
    if work > FIXED_VECTOR_WORK_BOUND:
        raise SizeLimitError(f"the fixed-vector sum of {p.literal()} at N={n}, d={d} needs "
                             f"{work} multiply-adds, over the bound {FIXED_VECTOR_WORK_BOUND}")
    legs, signs = _entries(p, n, twisted)
    # every tuple's signed product at once; leg t carries z or z* by its color
    stars = [int(c is LegColor.BLACK) for c in p.colors]
    products = signs[:, None, None] * _word_products(model.letters, stars, legs)
    # summed in entry order, as one running total would
    total = np.cumsum(products, axis=0, out=products)[-1]
    return float(np.abs(total - np.eye(d)).max())


@functools.lru_cache(maxsize=1)  # one diagram, many models
def _entries(p: Partition, n: int, twisted: bool) -> tuple[np.ndarray, np.ndarray]:
    return t_entries(p, n, twisted)


def coaction_check(g: np.ndarray, model: Model, sphere: SphereSpec,
                   tol: float = DEFAULT_TOL) -> bool:
    """Transform the coordinates by a classical isometry and re-check the
    sphere relations: z_i -> sum_j g_ij z_j."""
    moved = np.tensordot(g, model.coordinates, axes=1)
    return not check_sphere_relations(Model(moved), sphere, tol)


# ---------------------------------------------------------------------------
# intertwiners


def _stacked_power(us: np.ndarray, colors: Sequence[LegColor]) -> np.ndarray:
    """u^{tensor legs} for each matrix u of the stack, Kronecker ordered;
    black legs take the entrywise conjugate."""
    s, n, _ = us.shape
    out = np.ones((s, 1, 1), dtype=complex)
    for c in colors:
        factor = us.conj() if c is LegColor.BLACK else us
        a, b = out.shape[1:]
        out = (out[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(s, a * n, b * n)
    return out


def check_intertwiner(p: Partition, us: np.ndarray, twisted: bool = False,
                      tol: float = DEFAULT_TOL) -> list[bool]:
    """Whether T_p u^{tensor k} = u^{tensor l} T_p within tolerance, for
    each matrix u of the (count, N, N) stack ``us``.

    Black legs act by the entrywise conjugate of u, matching tensor powers
    with conjugate factors.  The check is dense and runs over slices of
    the stack within ``INTERTWINER_CELL_BOUND`` cells, one matrix at the
    least; it refuses a matrix past that bound, and a stack past
    ``INTERTWINER_WORK_BOUND`` cells in all.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or us.shape[1] != us.shape[2]:
        raise DomainError(f"need a stack of square matrices, got shape {us.shape}")
    count, n, _ = us.shape
    cells = n ** (2 * max(p.upper, p.lower))
    if cells > INTERTWINER_CELL_BOUND:
        raise SizeLimitError(f"an intertwiner check of {p.literal()} at N={n} needs "
                             f"{cells} dense cells, over the bound {INTERTWINER_CELL_BOUND}")
    if count * cells > INTERTWINER_WORK_BOUND:
        raise SizeLimitError(f"an intertwiner check of {p.literal()} over {count} matrices at "
                             f"N={n} needs {count * cells} dense cells in all, over the bound "
                             f"{INTERTWINER_WORK_BOUND}")
    legs, signs = _entries(p, n, twisted)
    t = np.zeros((n,) * (p.lower + p.upper), dtype=complex)
    t[(*legs[p.upper:], *legs[:p.upper], ...)] = signs  # "..." admits "|", which has no legs
    t = t.reshape(n ** p.lower, n ** p.upper)
    step = max(1, INTERTWINER_CELL_BOUND // cells)
    verdicts: list[bool] = []
    for block in np.split(us, range(step, count, step)):
        residual = t @ _stacked_power(block, p.colors[: p.upper])
        residual -= _stacked_power(block, p.colors[p.upper:]) @ t
        verdicts += (np.abs(residual).max(axis=(1, 2)) <= tol).tolist()
    return verdicts


# ---------------------------------------------------------------------------
# Haar sampling


def haar_batch(field: Field, n: int, samples: int, seed: int) -> np.ndarray:
    """Batch of Haar orthogonal (real field) or unitary (complex field)
    matrices, shape (samples, n, n), from phase-fixed QR of Gaussian
    matrices."""
    _check_dimension(n)
    if samples < 1:
        raise ValueError(f"a Haar sample batch needs at least 1 sample, got {samples}")
    if samples * n * n > HAAR_ENTRY_BOUND:
        raise SizeLimitError(f"{samples} samples at N={n} exceed the Haar bound {HAAR_ENTRY_BOUND}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n, n))
    if field is Field.COMPLEX:
        g = g + 1j * rng.standard_normal((samples, n, n))
    q, r = np.linalg.qr(g)
    diag = np.einsum("sii->si", r).copy()
    diag[diag == 0] = 1  # diag/|diag| alone would give 0/0 there
    return q * (diag / np.abs(diag)).conj()[:, None, :]


def haar_moment_mc(group: str, n: int, i: Sequence[int], j: Sequence[int], alpha=None,
                   samples: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo (or exact, for the finite/compact classical versions)
    Haar moment of a coordinate word u_{i1 j1}^{a1} ... u_{ik jk}^{ak},
    given as to ``weingarten.moment``.

    Returns (estimate, standard error); the hyperoctahedral and K_N
    averages are exact at any N, with zero reported error.  Indices run
    over ``1..n``; any other index raises ``ValueError``, and so do a bad
    exponent, lengths that disagree and fewer than 2 samples for the
    orthogonal and unitary estimates.
    """
    entries = [(a, b, c is LegColor.BLACK)
               for a, b, c in zip(i, j, _coordinate_word(n, i, j, alpha))]
    if group in ("orthogonal", "unitary") and samples < 2:
        raise ValueError(f"a Monte Carlo estimate needs at least 2 samples, got {samples}")
    if group in ("hyperoctahedral", "k_n"):
        # u = diag(signs or phases) P: the permutations with perm(i) = j for
        # the word's m distinct pairs are (N - m)! of the N! when the pairs
        # form a partial injection, and none otherwise; the sign (phase)
        # integral kills a row with an odd letter count (a net exponent)
        pairs = {(a, b) for a, b, _ in entries}
        net = dict.fromkeys((a for a, _ in pairs), 0)
        for a, _, star in entries:
            net[a] += -1 if star else 1
        injective = len(net) == len({b for _, b in pairs}) == len(pairs)
        if not injective or any(e % 2 if group == "hyperoctahedral" else e for e in net.values()):
            return 0.0, 0.0
        return 1 / math.perm(n, len(pairs)), 0.0
    if group == "orthogonal":
        u = haar_batch(Field.REAL, n, samples, seed)
    elif group == "unitary":
        u = haar_batch(Field.COMPLEX, n, samples, seed)
    else:
        raise ValueError(f"unknown group {group!r}")
    vals = np.ones(len(u), dtype=u.dtype)
    for a, b, star in entries:
        factor = u[:, a - 1, b - 1]
        vals = vals * (factor.conj() if star else factor)
    return float(vals.mean().real), float(vals.real.std(ddof=1) / np.sqrt(len(u)))
