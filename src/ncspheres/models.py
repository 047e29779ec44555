"""Finite-dimensional numeric witnesses for the spheres and groups.

Point models are unit vectors (the classical points); matrix models carry
one d-by-d matrix per coordinate.  Both expose their coordinates as
matrices so relation checks, fixed-vector sums and coactions evaluate
uniformly; an empty violation list from `check_sphere_relations` means
every defining relation of the sphere holds within tolerance.

The twisted spheres have no commutative points beyond the coordinate
axes, but they do have small matrix models: rescaled anticommuting
Clifford generators satisfy the twisted classical relations, and the
antidiagonal construction turns a complex model into a half-liberated
real one.  These witnesses are what the one-sided soundness tests of the
relation engine evaluate against.
"""

from __future__ import annotations

import itertools
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
# check sums over, one matrix product per leg each, so "|aabbccddee" runs
# up to N = 9
INTERTWINER_CELL_BOUND = 4 ** 8

# the largest matrix dimension `clifford_model` may build: n coordinates
# need 2^ceil(n/2), so it serves n <= 12
CLIFFORD_DIMENSION_BOUND = 2 ** 6


@dataclass(frozen=True)
class PointModel:
    coordinates: tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.coordinates)

    def as_matrices(self) -> list[np.ndarray]:
        return [np.array([[z]], dtype=complex) for z in self.coordinates]

    def to_json_dict(self) -> dict:
        return {"kind": "point", "N": self.n, "d": 1,
                "data": [[z.real, z.imag] for z in self.coordinates]}


@dataclass(frozen=True)
class MatrixModel:
    coordinates: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def d(self) -> int:
        return self.coordinates[0].shape[0]

    def as_matrices(self) -> list[np.ndarray]:
        return list(self.coordinates)

    def to_json_dict(self) -> dict:
        return {"kind": "matrix", "N": self.n, "d": self.d,
                "data": [[[x.real, x.imag] for x in m.flatten()]
                         for m in self.coordinates]}


Model = PointModel | MatrixModel


@dataclass(frozen=True)
class SignedPermutation:
    """A permutation of 1..N with a sign (or unit phase) per slot."""

    perm: tuple[int, ...]
    phases: tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.perm)

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=complex)
        for i in range(self.n):
            m[i, self.perm[i] - 1] = self.phases[i]
        return m


# ---------------------------------------------------------------------------
# model constructors


def sample_classical_point(field: Field, n: int, seed: int) -> PointModel:
    """Uniform point on the classical sphere: normalized Gaussian vector."""
    _check_dimension(n)
    rng = np.random.default_rng(seed)
    if field is Field.REAL:
        v = rng.standard_normal(n)
    else:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    return PointModel(tuple(complex(x) for x in v))


TWISTED_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def twisted_classical_points(field: Field, n: int) -> list[PointModel]:
    """The classical points of the twisted spheres: one nonzero coordinate,
    signed in the real case and on the unit circle in the complex case."""
    _check_dimension(n)
    phases = (1 + 0j, -1 + 0j) if field is Field.REAL else TWISTED_PHASES
    out = []
    for i in range(n):
        for w in phases:
            coords = [0j] * n
            coords[i] = w
            out.append(PointModel(tuple(coords)))
    return out


def antidiagonal_model(z: PointModel | Sequence[complex]) -> MatrixModel:
    """2x2 self-adjoint coordinates with a complex point on the
    antidiagonal; they half-commute, so the model lives on the real
    half-liberated sphere (twisted input gives the twisted version)."""
    coords = z.coordinates if isinstance(z, PointModel) else tuple(z)
    mats = tuple(
        np.array([[0, zi], [np.conj(zi), 0]], dtype=complex) for zi in coords
    )
    return MatrixModel(mats)


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


def clifford_model(n: int, phases: Sequence[complex] | None = None) -> MatrixModel:
    """Rescaled Clifford generators: x_i x_j = -x_j x_i for i != j and
    sum x_i^2 = 1.  With unit phases the coordinates phase_i * x_i satisfy
    the twisted complex sphere relations instead.  Refuses a dimension
    above ``CLIFFORD_DIMENSION_BOUND``."""
    _check_dimension(n)
    d = 2 ** ((n + 1) // 2)
    if d > CLIFFORD_DIMENSION_BOUND:
        raise SizeLimitError(f"a Clifford model with {n} coordinates has dimension {d}, "
                             f"over the bound {CLIFFORD_DIMENSION_BOUND}")
    gammas = _pauli_strings(n)
    scale = 1.0 / np.sqrt(n)
    if phases is None:
        phases = (1.0,) * n
    if len(phases) != n:
        raise DomainError(f"need one phase per coordinate: {len(phases)} phases for n={n}")
    if any(abs(abs(p) - 1) > 1e-14 for p in phases):
        raise DomainError("phases must lie on the unit circle")
    return MatrixModel(tuple(p * scale * g for p, g in zip(phases, gammas)))


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
    return MatrixModel(tuple(xs)), comm


def enumerate_signed_permutations(n: int) -> list[SignedPermutation]:
    """All signed permutations: the hyperoctahedral group of order 2^n n!."""
    _check_dimension(n)
    if n > 4:
        raise SizeLimitError("signed permutation enumeration supports n <= 4")
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for ph in itertools.product((1 + 0j, -1 + 0j), repeat=n):
            out.append(SignedPermutation(perm, ph))
    return out


# ---------------------------------------------------------------------------
# relation checks


def _coordinate(mats: list[np.ndarray], index: int, star: bool) -> np.ndarray:
    m = mats[index]
    return m.conj().T if star else m


def check_sphere_relations(model: Model, sphere: SphereSpec,
                           tol: float = DEFAULT_TOL) -> list[tuple[str, float]]:
    """Evaluate every defining relation of the sphere on the model.

    Returns the list of violations (description, residual); empty means
    the model satisfies the relation system within tolerance.
    """
    system = sphere_relations(sphere)
    mats = model.as_matrices()
    n = model.n
    d = mats[0].shape[0]
    eye = np.eye(d)
    violations: list[tuple[str, float]] = []

    def record(desc: str, residual: float):
        if residual > tol:
            violations.append((desc, residual))

    left = sum(m @ m.conj().T for m in mats)
    right = sum(m.conj().T @ m for m in mats)
    record("sum z z* = 1", float(np.abs(left - eye).max()))
    record("sum z* z = 1", float(np.abs(right - eye).max()))
    if system.selfadjoint:
        for i, m in enumerate(mats):
            record(f"z_{i + 1} self-adjoint", float(np.abs(m - m.conj().T).max()))

    stars = ((False, True) if system.complex_symbols else (False,))
    for sigma in system.perms:
        k = len(sigma)
        for idx in itertools.product(range(n), repeat=k):
            kern = tuple(idx)
            sign = relation_sign(sigma, kern, system.twisted)
            for exps in itertools.product(stars, repeat=k):
                lhs = eye
                for t in range(k):
                    lhs = lhs @ _coordinate(mats, idx[t], exps[t])
                rhs = eye
                for t in range(k):
                    p = sigma[t] - 1
                    rhs = rhs @ _coordinate(mats, idx[p], exps[p])
                word = "".join(
                    f"z{q + 1}{'*' if e else ''}" for q, e in zip(idx, exps)
                )
                record(f"{word} = {sign:+d} sigma{sigma}",
                       float(np.abs(lhs - sign * rhs).max()))
    return violations


def check_fixed_vector_identity(p: Partition, model: Model,
                                twisted: bool = False) -> float:
    """Residual of the fixed-vector sum: the signed sum of coordinate
    products over all tuples compatible with the partition must equal one
    whenever the partition belongs to the sphere's category.  Refuses more
    than ``INTERTWINER_CELL_BOUND`` tuples."""
    if p.upper != 0:
        raise FrameError("the identity runs over lower-row-only partitions")
    n = model.n
    tuples = n ** p.block_count
    if tuples > INTERTWINER_CELL_BOUND:
        raise SizeLimitError(f"the fixed-vector sum of {p.literal()} at N={n} runs over "
                             f"{tuples} tuples, over the bound {INTERTWINER_CELL_BOUND}")
    mats = model.as_matrices()
    d = mats[0].shape[0]
    vec = xi_vector(p, n, twisted)
    stars = [c is LegColor.BLACK for c in p.colors]
    total = np.zeros((d, d), dtype=complex)
    for tup, coeff in vec.entries.items():
        prod = np.eye(d, dtype=complex)
        for t, j in enumerate(tup):
            prod = prod @ _coordinate(mats, j - 1, stars[t])
        total += coeff * prod
    return float(np.abs(total - np.eye(d)).max())


def coaction_check(g: SignedPermutation | np.ndarray, model: Model,
                   sphere: SphereSpec, tol: float = DEFAULT_TOL) -> bool:
    """Transform the coordinates by a classical isometry and re-check the
    sphere relations: z_i -> sum_j g_ij z_j."""
    gm = g.matrix() if isinstance(g, SignedPermutation) else np.asarray(g)
    moved = np.tensordot(gm, np.stack(model.as_matrices()), axes=1)
    return not check_sphere_relations(MatrixModel(tuple(moved)), sphere, tol)


# ---------------------------------------------------------------------------
# intertwiners


def _rep_power(u: np.ndarray, colors: Sequence[LegColor]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in colors:
        factor = np.conj(u) if c is LegColor.BLACK else u
        out = np.kron(out, factor)
    return out


def check_intertwiner(p: Partition, u: np.ndarray, twisted: bool = False,
                      tol: float = DEFAULT_TOL) -> bool:
    """Whether T_p u^{tensor k} = u^{tensor l} T_p within tolerance.

    Black legs act by the entrywise conjugate of u, matching tensor powers
    with conjugate factors.  The check is dense, so it refuses a frame and
    dimension above ``INTERTWINER_CELL_BOUND`` cells.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    cells = n ** (2 * max(p.upper, p.lower))
    if cells > INTERTWINER_CELL_BOUND:
        raise SizeLimitError(f"an intertwiner check of {p.literal()} at N={n} needs "
                             f"{cells} dense cells, over the bound {INTERTWINER_CELL_BOUND}")
    t = t_map(p, n, twisted).to_dense().astype(complex)
    upper = _rep_power(u, p.colors[: p.upper])
    lower = _rep_power(u, p.colors[p.upper:])
    residual = np.abs(t @ upper - lower @ t).max()
    return bool(residual <= tol)


# ---------------------------------------------------------------------------
# Haar sampling


def _check_samples(samples: int):
    if samples < 1:
        raise ValueError(f"a Haar sample batch needs at least 1 sample, got {samples}")


def haar_orthogonal(n: int, samples: int, seed: int) -> np.ndarray:
    """Batch of Haar orthogonal matrices from sign-fixed QR."""
    _check_dimension(n)
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("sii->si", r))
    d[d == 0] = 1.0
    return q * d[:, None, :]


def haar_unitary(n: int, samples: int, seed: int) -> np.ndarray:
    _check_dimension(n)
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n, n)) + 1j * rng.standard_normal((samples, n, n))
    q, r = np.linalg.qr(g)
    diag = np.einsum("sii->si", r)
    phase = diag / np.abs(diag)
    return q * phase.conj()[:, None, :]


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
        u = haar_orthogonal(n, samples, seed)
    elif group == "unitary":
        u = haar_unitary(n, samples, seed)
    elif group == "hyperoctahedral":
        u = np.stack([g.matrix() for g in enumerate_signed_permutations(n)])
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
