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
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import FrameError, PartitionClassError
from .partitions import Partition, _roots, is_constant_on_blocks, kernel

Tuples = tuple[int, ...]


def delta(p: Partition, t: Sequence[int], twisted: bool = False) -> int:
    """Generalized Kronecker symbol of a combined (upper+lower) tuple.

    The twisted symbol needs even block sizes; its sign is the signature of
    the kernel of ``t``, read off the odd block pairs of ``p`` at the
    values ``t`` gives the blocks.
    """
    constant = is_constant_on_blocks(p, t)
    if not twisted:
        return int(constant)
    if not p.has_even_blocks():
        raise PartitionClassError("twisted symbols need even block sizes")
    return p.twisted_sign([t[b[0]] for b in p.blocks]) if constant else 0


@dataclass(frozen=True, eq=False)
class SparseTensorMap:
    """Integer-coefficient map between tensor powers of an N-dim space.

    Maps compare by their entries and, holding a dict, are not hashable."""

    dim: int
    input_arity: int
    output_arity: int
    entries: Mapping[tuple[Tuples, Tuples], int]

    def __post_init__(self):
        if not {*self.entries.values()} <= {-1, 1}:
            raise ValueError("coefficients must be +1 or -1")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseTensorMap)
                and (self.dim, self.input_arity, self.output_arity, self.entries)
                == (other.dim, other.input_arity, other.output_arity, other.entries))

    def tensor(self, other: "SparseTensorMap") -> "SparseTensorMap":
        if self.dim != other.dim:
            raise FrameError("tensor product needs equal local dimensions")
        ent = {}
        for (o1, i1), c1 in self.entries.items():
            for (o2, i2), c2 in other.entries.items():
                ent[(o1 + o2, i1 + i2)] = c1 * c2
        return SparseTensorMap(self.dim, self.input_arity + other.input_arity,
                               self.output_arity + other.output_arity, ent)

    def matmul(self, other: "SparseTensorMap") -> dict:
        """Matrix product self . other (apply ``other`` first).

        Returns a plain coefficient dict; composite coefficients are
        generally multiples of the loop factor N**c.
        """
        if self.dim != other.dim or self.input_arity != other.output_arity:
            raise FrameError("composition needs matching middle arity")
        by_mid: dict[Tuples, list] = {}
        for (o, i), c in other.entries.items():
            by_mid.setdefault(o, []).append((i, c))
        out: dict[tuple[Tuples, Tuples], int] = {}
        for (o, mid), c in self.entries.items():
            for i, c2 in by_mid.get(mid, ()):
                key = (o, i)
                out[key] = out.get(key, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    def adjoint(self) -> "SparseTensorMap":
        ent = {(i, o): c for (o, i), c in self.entries.items()}
        return SparseTensorMap(self.dim, self.output_arity, self.input_arity, ent)


def t_map(p: Partition, n: int, twisted: bool = False) -> SparseTensorMap:
    """The linear map of a partition: entry at (out, in) is delta(p, in+out),
    one per block assignment in ``itertools.product`` order, signed as by
    ``t_entries``.  For noncrossing ``p`` twisted and untwisted maps coincide."""
    k, l, b = p.upper, p.lower, p.block_count
    keys = zip(*(map(_row_getter(row), itertools.product(range(1, n + 1), repeat=b))
                 for row in (p.labels[k:], p.labels[:k])))
    if not twisted or (not p.odd_pairs and p.has_even_blocks()):  # every sign +1
        return SparseTensorMap(n, k, l, dict.fromkeys(keys, 1))
    return SparseTensorMap(n, k, l, dict(zip(keys, t_entries(p, n, True)[1].tolist())))


def t_entries(p: Partition, n: int, twisted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """T_p's entries as arrays in ``t_map`` order, off the grid of all block assignments:
    each leg's 0-based index, shape (legs, N^blocks), upper row first, and each entry's
    sign, twisted ones (even blocks only) from one ``twisted_sign`` call on the grid."""
    if twisted and not p.has_even_blocks():
        raise PartitionClassError("twisted maps need even block sizes")
    b = p.block_count
    grid = np.indices((n,) * b).reshape(b, n ** b)
    signs = p.twisted_sign(grid) if twisted and p.odd_pairs else np.ones(n ** b, dtype=np.int64)
    return grid.take(p.labels, axis=0), signs


def _row_getter(labels: Sequence[int]):
    """Getter of a row's values, as a tuple, from a block assignment."""
    if len(labels) > 1:
        return operator.itemgetter(*labels)
    return operator.itemgetter(slice(labels[0], labels[0] + 1) if labels else slice(0))


def xi_vector(p: Partition, n: int, twisted: bool = False) -> SparseTensorMap:
    """Fixed vector of a partition without upper legs: its map from the
    scalars, with entries keyed ``(t, ())``."""
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
    q_labels = tuple(p.block_count + b for b in q.labels)
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
    # one union-find over the blocks of p and then of q; each middle leg
    # joins its block in p to its block in q
    bp = p.block_count
    roots = _roots(bp + q.block_count, zip(p.labels[k:], (bp + b for b in q.labels[:mid])))
    outer = [roots[b] for b in p.labels[:k]] + [roots[bp + b] for b in q.labels[mid:]]
    loops = len(set(roots)) - len(set(outer))
    return kernel(outer, k, q.lower, p.colors[:k] + q.colors[mid:]), loops


def involution(p: Partition) -> Partition:
    """Upside-down turn: rows exchanged, order within each row kept."""
    k = p.upper
    return kernel(p.labels[k:] + p.labels[:k], p.lower, k, p.colors[k:] + p.colors[:k])
