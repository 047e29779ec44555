"""Signed Kronecker symbols and the sparse linear maps attached to partitions.

A partition ``p`` on ``k`` upper and ``l`` lower legs defines a linear map
``(C^N)^{tensor k} -> (C^N)^{tensor l}`` whose matrix entry at an output
tuple ``j`` and input tuple ``i`` is ``delta(p, i+j)``: zero unless the
combined tuple is constant on the blocks of ``p``, and otherwise ``+1``
(untwisted) or the twisted signature of the kernel of the tuple, taken on
the same two-row frame.  All coefficients are the integers ``+1``/``-1``;
everything here is exact.

Index tuples run over ``1..N``.  Combined tuples list the upper row first,
then the lower row, both left to right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import FrameError, PartitionClassError
from .partitions import Partition, _roots, is_constant_on_blocks, kernel


def _check_dimension(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension N={n} must be at least 1")


def entry_key(n: int, out: Sequence[int], inp: Sequence[int]) -> int:
    """Both rows as one base-N number, first leg most significant; indices outside 1..N raise."""
    return sum(range(1, n + 1).index(x) * n ** e for e, x in enumerate(reversed((*out, *inp))))


def delta(p: Partition, t: Sequence[int], twisted: bool = False) -> int:
    """Generalized Kronecker symbol of a combined (upper+lower) tuple.  The twisted symbol
    needs even block sizes; its sign is the signature of the kernel of ``t``, read off the
    odd block pairs of ``p`` at the values ``t`` gives the blocks."""
    constant = is_constant_on_blocks(p, t)
    if not twisted:
        return int(constant)
    if not p.has_even_blocks():
        raise PartitionClassError("twisted symbols need even block sizes")
    return p.twisted_sign([t[b[0]] for b in p.blocks]) if constant else 0


@dataclass(frozen=True)
class SparseTensorMap:
    """Integer-coefficient map between tensor powers of an N-dim space.  ``entries`` keys each
    nonzero entry by ``entry_key(N, out, in) = out_code * N**input_arity + in_code``, its
    dense row and column; maps compare by entries and, holding a dict, are not hashable."""

    dim: int
    input_arity: int
    output_arity: int
    entries: Mapping[int, int]

    def __post_init__(self):  # C-level passes over the entries, no per-key Python loop
        keys, size = self.entries, self.dim ** (self.input_arity + self.output_arity)
        if not ({*keys.values()} <= {-1, 1} and (not keys or {*map(type, keys)} <= {int}
                                                  and 0 <= min(keys) and max(keys) < size)):
            raise ValueError("keys must be ints in [0, N**(k+l)) and coefficients +1 or -1")

    def _codes(self):  # each entry as ((out_code, in_code), coefficient)
        return zip(map(divmod, self.entries, itertools.repeat(self.dim ** self.input_arity)),
                   self.entries.values())

    def tensor(self, other: "SparseTensorMap") -> "SparseTensorMap":
        if self.dim != other.dim:
            raise FrameError("tensor product needs equal local dimensions")
        n, k = self.dim, self.input_arity + other.input_arity  # keys o1 o2 | i1 i2
        top, mid, low = n ** (other.output_arity + k), n ** k, n ** other.input_arity
        left = [(o * top + i * low, c) for (o, i), c in self._codes()]
        right = [(o * mid + i, c) for (o, i), c in other._codes()]
        return SparseTensorMap(n, k, self.output_arity + other.output_arity,
                               {a + b: c * d for a, c in left for b, d in right})

    def matmul(self, other: "SparseTensorMap") -> dict:
        """Matrix product self . other (``other`` first), a plain dict of its nonzero entries."""
        if self.dim != other.dim or self.input_arity != other.output_arity:
            raise FrameError("composition needs matching middle arity")
        by_mid: dict[int, list] = {}
        for (mid, i), c in other._codes():
            by_mid.setdefault(mid, []).append((i, c))
        out: dict[int, int] = {}
        for (o, mid), c in self._codes():
            o *= self.dim ** other.input_arity
            for i, c2 in by_mid.get(mid, ()):
                out[o + i] = out.get(o + i, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    def adjoint(self) -> "SparseTensorMap":
        shift = self.dim ** self.output_arity
        return SparseTensorMap(self.dim, self.output_arity, self.input_arity,
                               {i * shift + o: c for (o, i), c in self._codes()})


def t_map(p: Partition, n: int, twisted: bool = False) -> SparseTensorMap:
    """The linear map of a partition: entry ``entry_key(n, out, in)`` is delta(p, in+out), one
    per block assignment in ``itertools.product`` order, signed as by ``t_entries``.  For
    noncrossing ``p`` twisted and untwisted maps coincide."""
    _check_dimension(n)
    k, l = p.upper, p.lower
    weights = [0] * p.block_count  # a block's step: the key's N**(k+l-1-d) over its legs' digits d
    for d, b in enumerate(p.labels[k:] + p.labels[:k]):
        weights[b] += n ** (k + l - 1 - d)
    steps = [range(0, n * w, w) for w in weights]
    low = [*map(sum, itertools.product(*steps[len(steps) // 2:]))]  # keys of the last blocks
    keys = [a + b for a in map(sum, itertools.product(*steps[:len(steps) // 2])) for b in low]
    if not twisted or (not p.odd_pairs and p.has_even_blocks()):  # every sign +1
        return SparseTensorMap(n, k, l, dict.fromkeys(keys, 1))
    return SparseTensorMap(n, k, l, dict(zip(keys, t_entries(p, n, True)[1].tolist())))


def t_entries(p: Partition, n: int, twisted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """T_p's entries as arrays in ``t_map`` order, off the grid of all block assignments:
    each leg's 0-based index, shape (legs, N^blocks), upper row first, and each entry's
    sign, twisted ones (even blocks only) from one ``twisted_sign`` call on the grid."""
    _check_dimension(n)
    if twisted and not p.has_even_blocks():
        raise PartitionClassError("twisted maps need even block sizes")
    b = p.block_count
    grid = np.indices((n,) * b).reshape(b, n ** b)
    signs = p.twisted_sign(grid) if twisted and p.odd_pairs else np.ones(n ** b, dtype=np.int64)
    return grid.take(p.labels, axis=0), signs


def xi_vector(p: Partition, n: int, twisted: bool = False) -> SparseTensorMap:
    """Fixed vector of a partition without upper legs: its map from the
    scalars, with entries keyed ``entry_key(n, t, ())``."""
    if p.upper != 0:
        raise FrameError("fixed vectors need a lower-row-only partition")
    return t_map(p, n, twisted)


def inner_product(v: SparseTensorMap, w: SparseTensorMap) -> int:
    """Integer scalar product of two fixed vectors; equals N**|join| for
    partition vectors."""
    if v.input_arity or w.input_arity or (v.dim, v.output_arity) != (w.dim, w.output_arity):
        raise FrameError("inner product needs two vectors in a common frame")
    small, big = (v.entries, w.entries) if len(v.entries) <= len(w.entries) else (w.entries, v.entries)
    return sum(c * big.get(t, 0) for t, c in small.items())


# ---------------------------------------------------------------------------
# categorical operations on the diagrams themselves


def tensor_concat(p: Partition, q: Partition) -> Partition:
    """Horizontal concatenation: q is placed to the right of p."""
    q_labels = tuple(map(p.block_count.__add__, q.labels))
    labels = (p.labels[: p.upper] + q_labels[: q.upper]
              + p.labels[p.upper:] + q_labels[q.upper:])
    colors = (p.colors[: p.upper] + q.colors[: q.upper]
              + p.colors[p.upper:] + q.colors[q.upper:])
    return kernel(labels, p.upper + q.upper, p.lower + q.lower, colors)


def compose(p: Partition, q: Partition) -> tuple[Partition, int]:
    """Vertical composition: ``p`` on top of ``q``, gluing p's lower row to
    q's upper row.  Returns the composite and the number of closed loops
    (connected components living entirely in the glued middle row)."""
    if p.lower != q.upper:
        raise FrameError("middle arities do not match")
    if p.colors[p.upper:] != q.colors[: q.upper]:
        raise FrameError("middle colors do not match")
    k, mid = p.upper, p.lower
    # one union-find over the blocks of p, then of q: each middle leg joins its two blocks
    bp = p.block_count
    roots = _roots(bp + q.block_count, zip(p.labels[k:], (bp + b for b in q.labels[:mid])))
    outer = [roots[b] for b in p.labels[:k]] + [roots[bp + b] for b in q.labels[mid:]]
    loops = len(set(roots)) - len(set(outer))
    return kernel(outer, k, q.lower, p.colors[:k] + q.colors[mid:]), loops


def involution(p: Partition) -> Partition:
    """Upside-down turn: rows exchanged, order within each row kept."""
    k = p.upper
    return kernel(p.labels[k:] + p.labels[:k], p.lower, k, p.colors[k:] + p.colors[:k])
