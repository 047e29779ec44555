"""Exact Weingarten calculus for the ten orthogonal/unitary quantum groups.

A group (or sphere) is specified by a field (real/complex), a liberation
level (classical/half/free) and a twist flag; free objects cannot be
twisted and are normalized to the untwisted ones.  Each group comes with a
category of pairings: all of P2 at the classical level, the alternating
subclass P2* at the half level, and the noncrossing pairings NC2 at the
free level, colored by the exponent word in the complex case.  Twisting
never changes the pairing set, only the signs inside the Kronecker
symbols.

The Gram matrix ``G(pi, sigma) = N ** |pi v sigma|`` is integral.  Its
inverse W is solved exactly, one column per orbit of the leg symmetries, on
primitive integer rows, whose entries never exceed the Bareiss ones (see
``_eliminate``), and kept in lowest terms; joint moments of the
coordinates follow from the Weingarten sum.  Each
public call resolves (group, alpha, k) to one category key, which the
builders of pairings, G and W take.  Pairing sets, block counts
``|pi v sigma|`` and leg symmetries are memoised per category, Weingarten
matrices per (category, N), in one bounded, process-wide memo.  Its values
are immutable and handed out shared: ``category_pairings`` returns the
memo's tuple and ``weingarten_matrix`` the memo's W.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

from .errors import SingularGramError, SizeLimitError
from .partitions import (
    SIGMA_DIAGRAM_CACHE,
    LegColor,
    Partition,
    PartitionClass,
    _color_word,
    _roots,
    enumerate_partitions,
    is_member,
    perm_to_partition,
)
from .tensors import _check_dimension, delta


class Field(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"


class Level(enum.Enum):
    """The one table of the liberation levels: each one's name, pairing
    category, defining permutations and real and complex name suffixes."""

    CLASSICAL = "classical", PartitionClass.P2, ((2, 1),), "", ""
    HALF = "half", PartitionClass.P2_STAR, ((3, 2, 1),), "_star", "_star2"
    FREE = "free", PartitionClass.NC2, (), "_plus", "_plus"

    def __new__(cls, value: str, pairing_class: PartitionClass, perms: tuple, *suffixes: str):
        level = object.__new__(cls)
        level._value_ = value
        level.pairing_class = pairing_class
        level.perms = perms
        level.suffixes = dict(zip(Field, suffixes))  # real, then complex
        return level

    # bounded as the diagrams are, since `classify --perm` takes them from
    # outside; the members it holds live as long as the process anyway
    @functools.lru_cache(maxsize=SIGMA_DIAGRAM_CACHE)
    def admits(self, sigma: tuple[int, ...]) -> bool:
        """True iff the diagram of the permutation ``sigma`` lies in the level's
        category, so its relation family holds here: P2 holds every permutation
        diagram, P2* the half-commuting ones and NC2 the identity alone."""
        return is_member(perm_to_partition(sigma), self.pairing_class)


@dataclass(frozen=True)
class _Spec:
    """Field, liberation level and twist flag; free objects have no twist.
    A group never equals the sphere with the same data."""

    field: Field
    level: Level
    twisted: bool = False

    _stems: ClassVar[dict[Field, str]]

    def __post_init__(self):
        if self.level is Level.FREE and self.twisted:
            object.__setattr__(self, "twisted", False)

    @property
    def name(self) -> str:
        stem = ("bar_" if self.twisted else "") + self._stems[self.field]
        return stem + self.level.suffixes[self.field]


class GroupSpec(_Spec):
    _stems = {Field.REAL: "o_n", Field.COMPLEX: "u_n"}


class SphereSpec(_Spec):
    _stems = {Field.REAL: "s_r", Field.COMPLEX: "s_c"}

    @property
    def isometry_group(self) -> GroupSpec:
        return GroupSpec(self.field, self.level, self.twisted)


_GROUP_NAMES = {GroupSpec(f, l, t).name: GroupSpec(f, l, t)
                for f in Field for l in Level for t in (False, True)}
_SPHERE_NAMES = {SphereSpec(f, l, t).name: SphereSpec(f, l, t)
                 for f in Field for l in Level for t in (False, True)}

GROUPS = tuple(sorted(set(_GROUP_NAMES.values()), key=lambda g: g.name))
SPHERES = tuple(sorted(set(_SPHERE_NAMES.values()), key=lambda s: s.name))


def group_by_name(name: str) -> GroupSpec:
    try:
        return _GROUP_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; choose from {sorted(_GROUP_NAMES)}")


def sphere_by_name(name: str) -> SphereSpec:
    try:
        return _SPHERE_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown sphere {name!r}; choose from {sorted(_SPHERE_NAMES)}")


# ---------------------------------------------------------------------------
# exact rational matrices


def _eliminate(rows: list[list[int]], ncols: int) -> int:
    """Forward elimination on primitive integer rows, in place; the rank.

    Pivots are sought in the first ``ncols`` columns, all of them: once
    every row holds one, the rest scan an empty range.  Further columns (an
    augmented block) are carried along.  A row below the pivot row with
    ``f = row[col] != 0`` becomes ``(piv * row - f * pivot_row) / gcd(piv, f)``,
    divided by the gcd of its entries; a row with ``f == 0`` stays.  Each
    row is then the primitive integer vector along the row of the rational
    Schur complement that Bareiss elimination scales by a leading minor, so
    no entry exceeds the Bareiss one, and most are far smaller.
    """
    nrows = len(rows)
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv, *tail = rows[rank][col:]
        for row in rows[rank + 1:]:
            if f := row[col]:
                p, q = piv // (g := math.gcd(piv, f)), f // g
                new = [p * x - q * y for x, y in zip(row[col + 1:], tail)]
                g = math.gcd(*new)
                row[col + 1:] = [x // g for x in new] if g > 1 else new
        rank += 1
    return rank


@dataclass(frozen=True, init=False, eq=False)
class ExactMatrix:
    """Dense rational matrix: integer rows ``num`` over one denominator
    ``den > 0``, fixed once built, so that one matrix can be shared.
    ``inverse`` works on the integers, and ``Fraction`` entries are built
    only for output."""

    num: tuple[tuple[int, ...], ...]
    den: int
    nrows: int
    ncols: int

    def __init__(self, rows: Sequence[Sequence[int]], den: int = 1):
        """Rows of ints, divided by the positive integer ``den``; an entry
        of any other type raises ``TypeError``."""
        num = tuple(map(tuple, rows))
        ncols = len(num[0]) if num else 0
        if any(len(r) != ncols for r in num):
            raise ValueError("ragged rows")
        if not all(type(x) is int for row in num for x in row):
            raise TypeError("ExactMatrix entries must be ints")
        vars(self).update(num=num, den=den, nrows=len(num), ncols=ncols)

    @property
    def data(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.data == other.data

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.num)), self.den)

    def row_sums(self) -> list[Fraction]:
        return [Fraction(sum(row), self.den) for row in self.num]

    def inverse(self, generators: Sequence[Sequence[int]] = ()) -> "ExactMatrix":
        """Exact inverse in lowest terms; raises on singular input.

        Each generator ``g``, an index permutation with ``M[g[a], g[b]] ==
        M[a, b]``, gives the inverse the same symmetry, so one column per
        orbit is solved; other columns are known ones permuted.  Back
        substitution keeps a column's solved part as integers ``x`` over one
        ``d``, coprime throughout: from ``x = 0``, ``d = 1``, a step scales
        them by ``pivot / g`` and appends ``s / g``, ``g = gcd(s, pivot)``,
        so ``d`` never exceeds the column's own denominator.  The inverse of
        ``num / den`` is ``den * x / d``, the columns taken over the lcm of
        their ``d`` and the whole divided by its gcd."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse needs a square matrix")
        steps = {}  # column c -> (known column b, generator g) with c = g[b]
        for r in range(n):
            queue = [] if r in steps else [r]
            steps.setdefault(r, None)
            for b in queue:
                fresh = {g[b]: (b, g) for g in generators if g[b] not in steps}
                steps.update(fresh)
                queue += fresh
        reps = [r for r, step in steps.items() if step is None]
        aug = [[*row, *(int(i == r) for r in reps)] for i, row in enumerate(self.num)]
        if _eliminate(aug, n) < n:
            raise ZeroDivisionError("singular matrix")
        cols: list = [None] * n
        dens = {}
        for t, r in enumerate(reps, n):
            x, d = [0] * n, 1  # x[i:] / d solves rows i.. of the column
            for i, row in reversed(list(enumerate(aug))):
                s = d * row[t] - sum(u * v for u, v in zip(row[i + 1:], x[i + 1:]))
                g = math.gcd(s, row[i])
                if (scale := row[i] // g) != 1:
                    x[i + 1:] = [v * scale for v in x[i + 1:]]
                    d *= scale
                x[i] = s // g
            cols[r], dens[r] = x, d
        lcm = math.lcm(*dens.values())
        for c, step in steps.items():  # W[g[a], c] = W[a, b]; solved columns go over lcm
            cols[c] = ([v for _, v in sorted(zip(step[1], cols[step[0]]))] if step
                       else [v * (lcm // dens[c] * self.den) for v in cols[c]])
        g = math.gcd(lcm, *(v for col in cols for v in col))
        return ExactMatrix([[v // g for v in row] for row in zip(*cols)], lcm // g)

    def to_strings(self) -> list[list[str]]:
        """Entries as ``str`` of their Fractions prints them: ``p/q`` in
        lowest terms, or ``p`` when the entry is an integer."""
        den = self.den
        return [[str(x // g) if (g := math.gcd(x, den)) == den else f"{x // g}/{den // g}"
                 for x in row] for row in self.num]

    def __repr__(self):  # pragma: no cover
        return f"ExactMatrix({self.to_strings()})"


# ---------------------------------------------------------------------------
# the memo

# Pairing sets and block-count matrices keyed by category, Weingarten
# matrices by (category, N), each stored with the cells it holds: one per
# pairing, or a matrix's entries.  The least recently used entries go while
# the memo holds more than MEMO_CELL_BOUND cells; the newest one stays.
# Cells, not entries, are bounded because entries differ in size a
# thousandfold: all moment, trace and rank queries of degree 4 and 6
# (balanced colour words) at N = 2..5 over the ten groups use 480 keys of
# 5811 cells in all (84 pairing sets, 84 block-count matrices and 312
# Weingarten matrices), while one W at the Gram bound holds 17424 cells
# (132 pairings), and a 105-pairing W at N = 5 takes 1.7 MB, about 150
# bytes a cell.  2^16 cells keep those 480 keys with room to spare and stay
# near 10 MB, where 512 large entries could take about 0.9 GB.
MEMO_CELL_BOUND = 2 ** 16
_memo: OrderedDict = OrderedDict()
_held = 0  # the cells of the entries in _memo


def _memoised(key, build, cells=len):
    """The memo's value under ``key``, built and stored on a miss with
    its ``cells(value)``.  What ``build`` raises propagates, and nothing is
    stored."""
    global _held
    hit = _memo.get(key)
    if hit is not None:
        _memo.move_to_end(key)
        return hit[0]
    value = build()
    size = cells(value)
    _held = (_held if _memo else 0) + size  # a memo emptied by clear() holds nothing
    _memo[key] = value, size
    while _held > MEMO_CELL_BOUND and len(_memo) > 1:
        _held -= _memo.popitem(last=False)[1][1]
    return value


# ---------------------------------------------------------------------------
# pairing categories

def _category(g: GroupSpec, alpha=None, k: int | None = None) -> tuple:
    """Memo key of a pairing category: field, level, and the colour word
    (complex groups) or the leg count ``k`` (real groups).  The twist does
    not change the pairings, so twisted partners share one key."""
    word = _color_word(alpha, len(alpha or ()))
    if k is None:
        k = len(word)
    elif alpha is not None and len(word) != k:
        raise ValueError(f"k={k} disagrees with the length {len(word)} of alpha")
    if g.field is Field.COMPLEX:
        if len(word) != k or LegColor.UNCOLORED in word:
            raise ValueError("complex groups need an exponent word alpha")
        return g.field, g.level, word
    return g.field, g.level, k


def _pairings(category: tuple) -> tuple[Partition, ...]:
    _, level, lower = category
    return _memoised(category,
                     lambda: tuple(enumerate_partitions(level.pairing_class, 0, lower)))


def category_pairings(g: GroupSpec, alpha=None, k: int | None = None
                      ) -> tuple[Partition, ...]:
    """Pairings spanning Hom(1, u^{tensor alpha}) for the group: the memo's
    own tuple, shared by every caller.

    Real groups take a plain leg count ``k`` (or use len(alpha)); complex
    groups color the legs by the exponent word ``alpha``.  Given both,
    ``k`` must be the length of ``alpha``.
    """
    return _pairings(_category(g, alpha, k))


# The inverse on a 2-core host at N=5 takes 0.05 to 0.07 s for 105 pairings (o_n,
# k=8, one orbit), 0.07 to 0.09 s for 120 (o_n_star, k=10, one orbit) and 0.05 to
# 0.06 s for 132 (o_n_plus, k=12, 12 orbits).  The elimination is cubic, so the next
# counts, 720 (o_n_star, k=12) and 945 (o_n, k=10), would take over 200 times as long.
GRAM_PAIRING_BOUND = 132


def _block_counts(partners: Sequence[Sequence[int]]) -> list[list[int]]:
    """The matrix ``B[a][b] = |p_a v p_b|`` of a category's pairings, each
    given as its partner array (leg -> the other leg of its string).

    The strings of two pairings close into loops, and the legs of each loop
    form one block of their join.  So each entry counts the loops of a walk
    that alternates between the two pairings' partners, in O(k) steps.
    """
    out = [[0] * len(partners) for _ in partners]
    for a, p in enumerate(partners):
        for b, q in enumerate(partners[:a + 1]):
            seen = [False] * len(p)
            loops = 0
            for start in range(len(p)):
                if seen[start]:
                    continue
                loops += 1
                leg = start
                while not seen[leg]:
                    seen[leg] = seen[p[leg]] = True
                    leg = q[p[leg]]
            out[a][b] = out[b][a] = loops
    return out


def _leg_symmetries(partners: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Index permutations of the pairings (as partner arrays) induced by the
    rotation, the reflection and the leg transpositions that keep the
    pairing set, each joining two orbits of those before it.  Loop counts
    see no leg names, so B stays."""
    index = {mate: a for a, mate in enumerate(partners)}
    legs = list(range(len(partners[0]) if partners else 0))
    out, orbit = [], list(range(len(partners)))
    for sigma in itertools.chain([legs[1:] + legs[:1], legs[::-1]], (
            [j if x == i else i if x == j else x for x in legs]
            for i, j in itertools.combinations(legs, 2))):
        if len(set(orbit)) < 2:
            break
        inverse = sorted(legs, key=sigma.__getitem__)  # partners of the image: sigma.mate.inverse
        images = [index.get(tuple([sigma[mate[x]] for x in inverse])) for mate in partners]
        if None not in images and any(orbit[a] != orbit[b] for a, b in enumerate(images)):
            out.append(tuple(images))
            orbit = _roots(len(partners), [(a, b) for g in out for a, b in enumerate(g)])
    return tuple(out)


def _category_plan(category: tuple) -> tuple:
    """Memoised block counts and leg symmetries of a category, past the Gram
    bound check; both read one partner array per pairing."""
    def build():
        ps = _pairings(category)
        if len(ps) > GRAM_PAIRING_BOUND:
            raise SizeLimitError(f"{len(ps)} pairings exceed the Gram bound {GRAM_PAIRING_BOUND}")
        partners = [tuple([sum(p.blocks[b]) - leg for leg, b in enumerate(p.labels)])
                    for p in ps]
        return _block_counts(partners), _leg_symmetries(partners)

    return _memoised(("blocks", category), build, lambda plan: len(plan[0]) ** 2)


def _gram(category: tuple, n: int) -> ExactMatrix:
    blocks = _category_plan(category)[0]
    powers = [n ** e for e in range(max(map(max, blocks), default=0) + 1)]
    return ExactMatrix([[powers[b] for b in row] for row in blocks])


def gram(g: GroupSpec, n: int, alpha=None, k: int | None = None) -> ExactMatrix:
    """Gram matrix G(pi, sigma) = N ** |pi v sigma| over the category pairings."""
    _check_dimension(n)
    return _gram(_category(g, alpha, k), n)


def _weingarten(category: tuple, n: int) -> ExactMatrix:
    def build():
        _check_dimension(n)
        try:
            return _gram(category, n).inverse(_category_plan(category)[1])
        except ZeroDivisionError:
            raise SingularGramError(n, _pairings(category)[0].n_legs)

    return _memoised((category, n), build, lambda w: w.nrows * w.ncols)


def weingarten_matrix(g: GroupSpec, n: int, alpha=None, k: int | None = None) -> ExactMatrix:
    """Exact inverse of the Gram matrix, solved per orbit of the leg symmetries:
    the memo's own W per (category, N), shared by every caller.  A singular
    Gram matrix is never stored, so it raises on every call."""
    return _weingarten(_category(g, alpha, k), n)


def _weingarten_sum(wg: ExactMatrix, di: Sequence[int], dj: Sequence[int]) -> int:
    """sum over a, b of di[a] * dj[b] * W[a, b], times ``wg.den``."""
    return sum(x * y * w for x, row in zip(di, wg.num) if x for y, w in zip(dj, row) if y)


def _coordinate_word(n: int, i: Sequence[int], j: Sequence[int],
                     alpha=None) -> tuple[LegColor, ...]:
    """The exponents of the coordinate word u_{i1 j1}^{a1} ... u_{ik jk}^{ak}
    (no ``alpha``: all plain), read by ``_color_word``.  Raises unless
    N >= 1, the three lengths agree and every index lies in ``1..n``."""
    _check_dimension(n)
    word = _color_word(alpha, len(alpha or ())) or (LegColor.WHITE,) * len(i)
    if not (len(i) == len(j) == len(word)):
        raise ValueError("row tuple, column tuple and alpha must share a length")
    for x in (*i, *j):
        if not 1 <= x <= n:
            raise ValueError(f"index {x} outside 1..{n}")
    return word


def moment(g: GroupSpec, n: int, i: Sequence[int], j: Sequence[int],
           alpha=None) -> Fraction:
    """Haar moment of a coordinate word u_{i1 j1}^{a1} ... u_{ik jk}^{ak}.

    Indices run over ``1..n``; any other index raises ``ValueError``.
    """
    word = _coordinate_word(n, i, j, alpha)
    if not word:
        return Fraction(1)
    category = _category(g, word)
    ps = _pairings(category)
    if not ps:
        return Fraction(0)
    wg = _weingarten(category, n)
    di = [delta(p, tuple(i), twisted=g.twisted) for p in ps]
    dj = [delta(p, tuple(j), twisted=g.twisted) for p in ps]
    return Fraction(_weingarten_sum(wg, di, dj), wg.den)


def sphere_trace(s: SphereSpec, n: int, i: Sequence[int], alpha=None) -> Fraction:
    """Canonical trace of z_{i1}^{a1} ... z_{ik}^{ak} on the sphere."""
    ones = (1,) * len(i)
    return moment(s.isometry_group, n, ones, tuple(i), alpha)


def gram_rank_products(s: SphereSpec, n: int, conjugated: bool = False) -> int:
    """Exact rank of the Gram matrix of the degree-two coordinate products.

    ``conjugated=False`` uses the products z_i z_j (exponent word 11**
    after tracing against the adjoint), ``conjugated=True`` uses
    z_i z_j^* (exponent word 1*1*).  Entry ((i, j), (k, l)) is the trace
    f(i, j, l, k) of z_i z_j z_l z_k, a Weingarten sum against the row
    tuple 1111.  A pairing of four legs joins {1,2}{3,4}, {1,3}{2,4} or
    {1,4}{2,3}, and a twisted sign depends only on the kernel, so f is a
    function of the kernel of (i, j, l, k), zero unless i = j and k = l or
    {i, j} = {k, l}.  The matrix is thus a direct sum of one N x N block
    (a - b) I + b J on the e_ii, a = f(1,1,1,1) and b = f(1,1,2,2), of rank
    (N - 1) [a != b] + [a + (N - 1) b != 0], and of C(N, 2) blocks
    [[c, x], [x, c]] on (e_ij, e_ji), c = f(1,2,2,1) and x = f(1,2,1,2), of
    rank 2 if c^2 != x^2, else 1 if c or x is nonzero.  Four Weingarten
    sums give the rank wherever W exists; they share W's denominator, so
    only their integer numerators are compared.  At N = 1, where W mostly
    does not exist, every sphere is generated by one unitary z (z = z* in
    the real case): z z* = z* z = 1, so the one product's Gram matrix is
    [tr(1)] = [1], of rank 1, read before W is touched.
    """
    _check_dimension(n)
    if n == 1:
        return 1
    g = s.isometry_group
    category = _category(g, "1*1*" if conjugated else "11**")
    ps = _pairings(category)  # never empty: |abba, {1,4}{2,3}, lies in every one
    wg = _weingarten(category, n)
    di = [delta(p, (1, 1, 1, 1), twisted=g.twisted) for p in ps]
    a, b, c, x = (_weingarten_sum(wg, di, [delta(p, t, twisted=g.twisted) for p in ps])
                  for t in ((1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 1), (1, 2, 1, 2)))
    pair_rank = (c != 0 or x != 0) + (c * c != x * x)
    return (n - 1) * (a != b) + (a + (n - 1) * b != 0) + n * (n - 1) // 2 * pair_rank
