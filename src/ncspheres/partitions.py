"""Two-row set partitions and the twisted signature.

A partition lives on a frame of ``k`` upper and ``l`` lower legs.  Legs are
stored as integers: ``0..k-1`` is the upper row read left to right, and
``k..k+l-1`` is the lower row read left to right.  All order-sensitive
notions (crossings, switches, the cyclic black/white labelling) use the
*linear order*, which walks the frame clockwise from the top left corner:
upper row left to right, then lower row right to left.

Partition literals are two strings over lowercase letters separated by
``|``, upper row first, with equal letters marking equal blocks.  An
optional suffix ``:`` carries one color character per leg (upper row then
lower row), ``o`` for white (plain symbol) and ``*`` for black (starred
symbol).  Examples::

    "|abab"        crossing on four lower legs
    "ab|ba"        through-crossing
    "|abab:oo**"   crossing with lower legs colored white,white,black,black

A *switch* exchanges two row-adjacent legs belonging to different blocks.
Every partition with even block sizes can be switched into a noncrossing
partition with the same per-row block contents; the parity of the number
of switches is an invariant and defines the twisted signature.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import FrameError, PartitionClassError, SizeLimitError

ENUMERATION_LEG_BOUND = 12


class LegColor(enum.Enum):
    UNCOLORED = ""
    WHITE = "o"   # plain symbol: z / u, exponent 1
    BLACK = "*"   # starred symbol: z* / u*, exponent *

    def __repr__(self) -> str:  # pragma: no cover
        return f"LegColor.{self.name}"


class PartitionClass(enum.Enum):
    P = "p"
    P_EVEN = "p_even"
    P2 = "p2"
    NC = "nc"
    NC_EVEN = "nc_even"
    NC2 = "nc2"
    P2_STAR = "p2_star"
    PERM = "perm"


def _color_word(spec, n: int) -> tuple[LegColor, ...]:
    """Normalize a color argument: int/None means n uncolored legs."""
    if spec is None:
        return (LegColor.UNCOLORED,) * n
    if isinstance(spec, int):
        return (LegColor.UNCOLORED,) * spec
    out = []
    for c in spec:
        if isinstance(c, LegColor):
            out.append(c)
        elif c in ("o", "1", 1):
            out.append(LegColor.WHITE)
        elif c == "*":
            out.append(LegColor.BLACK)
        else:
            raise ValueError(f"bad color character {c!r}")
    return tuple(out)


@dataclass(frozen=True)
class Partition:
    """A two-row set partition with optional leg colors.

    ``blocks`` holds storage leg indices; it is canonicalized on
    construction (members sorted, blocks sorted by smallest leg in linear
    order) so that equality is structural.
    """

    upper: int
    lower: int
    blocks: tuple[tuple[int, ...], ...]
    colors: tuple[LegColor, ...] = field(default=())

    def __post_init__(self):
        n = self.upper + self.lower
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            for leg in b:
                if leg in seen or not 0 <= leg < n:
                    raise ValueError("blocks must partition the legs")
                seen.add(leg)
        if len(seen) != n:
            raise ValueError("blocks must cover all legs")
        colors = self.colors if self.colors else (LegColor.UNCOLORED,) * n
        if len(colors) != n:
            raise FrameError(f"need {n} colors, got {len(colors)}")
        canon = tuple(
            tuple(sorted(b))
            for b in sorted(self.blocks, key=lambda b: min(self.linear_pos(x) for x in b))
        )
        object.__setattr__(self, "blocks", canon)
        object.__setattr__(self, "colors", tuple(colors))

    # -- frame helpers -------------------------------------------------

    @property
    def n_legs(self) -> int:
        return self.upper + self.lower

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def linear_pos(self, leg: int) -> int:
        """Clockwise position of a storage leg (upper L->R, lower R->L)."""
        if leg < self.upper:
            return leg
        return self.upper + (self.n_legs - 1 - leg)

    def block_labels(self) -> list[int]:
        """Per-leg block index, in storage order."""
        lab = [0] * self.n_legs
        for i, b in enumerate(self.blocks):
            for leg in b:
                lab[leg] = i
        return lab

    def linear_word(self) -> list[int]:
        lab = self.block_labels()
        return [lab[self.linear_pos(p)] for p in range(self.n_legs)]

    def same_frame(self, other: "Partition") -> bool:
        return (
            self.upper == other.upper
            and self.lower == other.lower
            and self.colors == other.colors
        )

    def is_colored(self) -> bool:
        return any(c is not LegColor.UNCOLORED for c in self.colors)

    def with_colors(self, upper_colors, lower_colors) -> "Partition":
        cu = _color_word(upper_colors, self.upper)
        cl = _color_word(lower_colors, self.lower)
        return Partition(self.upper, self.lower, self.blocks, cu + cl)

    # -- predicates ----------------------------------------------------

    def is_pairing(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def has_even_blocks(self) -> bool:
        return all(len(b) % 2 == 0 for b in self.blocks)

    def is_noncrossing(self) -> bool:
        """One pass over the linear word with a stack of open blocks: a
        block met again while another block opened after it is still open
        gives the pattern a..b..a..b."""
        word = self.linear_word()
        last = {b: pos for pos, b in enumerate(word)}
        stack: list[int] = []
        opened: set[int] = set()
        for pos, b in enumerate(word):
            if b not in opened:
                opened.add(b)
                stack.append(b)
            elif stack[-1] != b:
                return False
            if last[b] == pos:
                stack.pop()
        return True

    def is_through_pairing(self) -> bool:
        return (
            self.upper == self.lower
            and self.is_pairing()
            and all(min(b) < self.upper <= max(b) for b in self.blocks)
        )

    # -- literals ------------------------------------------------------

    def literal(self) -> str:
        lab = self.block_labels()
        letters = "abcdefghijklmnopqrstuvwxyz"
        rename: dict[int, str] = {}
        for leg in range(self.n_legs):  # letters by first occurrence in storage order
            if lab[leg] not in rename:
                rename[lab[leg]] = letters[len(rename)]
        up = "".join(rename[lab[i]] for i in range(self.upper))
        low = "".join(rename[lab[self.upper + j]] for j in range(self.lower))
        s = f"{up}|{low}"
        if self.is_colored():
            s += ":" + "".join(c.value or "?" for c in self.colors)
        return s

    def __str__(self) -> str:
        return self.literal()


def parse_partition(text: str) -> Partition:
    """Parse a partition literal such as ``"ab|ba"`` or ``"|abab:oo**"``."""
    body, _, colortext = text.partition(":")
    if "|" not in body:
        raise ValueError(f"partition literal needs a '|': {text!r}")
    up, low = body.split("|", 1)
    word = up + low
    groups: dict[str, list[int]] = {}
    for leg, ch in enumerate(word):
        groups.setdefault(ch, []).append(leg)
    colors = _color_word(colortext if colortext else None, len(word))
    return Partition(len(up), len(low), tuple(tuple(g) for g in groups.values()), colors)


# ---------------------------------------------------------------------------
# basic operations


def _components(n: int, groups: Iterable[Sequence[int]]) -> list[list[int]]:
    """Connected components of the nodes ``0..n-1`` once the nodes of each
    nonempty group are joined (union-find), each component in increasing order."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in groups:
        r = find(g[0])
        for x in g[1:]:
            parent[find(x)] = r
    comps: dict[int, list[int]] = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


def _blocks(labels: Sequence) -> tuple[tuple[int, ...], ...]:
    """Blocks of positions carrying equal labels."""
    groups: dict = {}
    for pos, v in enumerate(labels):
        groups.setdefault(v, []).append(pos)
    return tuple(tuple(g) for g in groups.values())


def join(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening of two partitions on the same frame."""
    if not p.same_frame(q):
        raise FrameError("join needs identical frames")
    blocks = _components(p.n_legs, p.blocks + q.blocks)
    return Partition(p.upper, p.lower, tuple(tuple(b) for b in blocks), p.colors)


def kernel(values: Sequence, upper: int | None = None, lower: int = 0) -> Partition:
    """Kernel of a tuple: legs in the same block iff their entries coincide.

    By default the result lives on a one-row frame.  Pass ``upper``/``lower``
    to place it on a two-row frame of the same total length.
    """
    n = len(values)
    if upper is None:
        upper, lower = n, 0
    if upper + lower != n:
        raise FrameError("kernel frame does not match tuple length")
    return Partition(upper, lower, _blocks(values))


def is_constant_on_blocks(p: Partition, values: Sequence) -> bool:
    """True iff the tuple is constant on every block of ``p``."""
    if len(values) != p.n_legs:
        raise FrameError("tuple length does not match the frame")
    return all(all(values[x] == values[b[0]] for x in b[1:]) for b in p.blocks)


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of ``p`` is contained in a block of ``q``."""
    lab = q.block_labels()
    return all(len({lab[x] for x in b}) == 1 for b in p.blocks)


# ---------------------------------------------------------------------------
# switches, signature, crossings


def _row_inversions(labels: Sequence[int]) -> int:
    inv = 0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if labels[i] > labels[j]:
                inv += 1
    return inv


def _inversion_sign(labels: Sequence[int], upper: int) -> int:
    """Switch parity of the even partition whose legs carry these block
    labels (upper row first, then lower row, both left to right).

    Ranking the blocks by label and sorting each row by rank takes
    ``inv(upper row) + inv(lower row)`` switches.  Exchanging the ranks of
    two blocks A and B changes that count by |A∩up|·|B∩up| + |A∩low|·|B∩low|,
    which is even when every block is even, so the parity does not depend on
    the ranking: any labels constant exactly on the blocks give the same sign.
    """
    inv = _row_inversions(labels[:upper]) + _row_inversions(labels[upper:])
    return -1 if inv % 2 else 1


def standard_form(p: Partition, block_order: Sequence[int] | None = None):
    """Noncrossing standard form of an even partition, with switch count.

    A noncrossing input is returned unchanged with zero switches.  Otherwise
    blocks are ranked by their first leg in linear order (or by an explicit
    ``block_order`` ranking), and each row is stably sorted by block rank;
    the switch count is the number of adjacent row transpositions this
    sorting performs.  The result is always noncrossing and has the same
    per-row block contents; the parity of the count does not depend on the
    ranking used.
    """
    if not p.has_even_blocks():
        raise PartitionClassError("standard form needs even block sizes")
    if block_order is None:
        if p.is_noncrossing():
            return p, 0
        rank = {i: i for i in range(p.block_count)}  # blocks already canonical
    else:
        rank = {b: r for r, b in enumerate(block_order)}
    lab = p.block_labels()
    up = [rank[lab[i]] for i in range(p.upper)]
    low = [rank[lab[p.upper + j]] for j in range(p.lower)]
    switches = _row_inversions(up) + _row_inversions(low)

    new_blocks: dict[int, list[int]] = {}
    for pos, r in enumerate(sorted(up)):
        new_blocks.setdefault(r, []).append(pos)
    for pos, r in enumerate(sorted(low)):
        new_blocks.setdefault(r, []).append(p.upper + pos)
    result = Partition(
        p.upper, p.lower, tuple(tuple(b) for b in new_blocks.values()), p.colors
    )
    return result, switches


def signature(p: Partition) -> int:
    """Twisted signature of an even partition: (-1)**switch_count."""
    if not p.has_even_blocks():
        raise PartitionClassError("the signature needs even block sizes")
    return _inversion_sign(p.block_labels(), p.upper)


def crossing_count(p: Partition) -> int:
    """Number of crossing string pairs of a pairing, in linear order."""
    if not p.is_pairing():
        raise PartitionClassError("crossing count is defined for pairings")
    spans = sorted(tuple(sorted(p.linear_pos(x) for x in b)) for b in p.blocks)
    count = 0
    for (a1, a2), (b1, b2) in itertools.combinations(spans, 2):
        if a1 < b1 < a2 < b2:
            count += 1
    return count


# ---------------------------------------------------------------------------
# class predicates and enumeration


def _color_balanced(p: Partition) -> bool:
    """Colored block rule: within each block, white-upper plus black-lower
    legs must balance black-upper plus white-lower legs.  For a pair this
    says a through string joins equal colors and a same-row string joins
    opposite colors.  Uncolored legs are unconstrained."""
    for b in p.blocks:
        bal = 0
        for leg in b:
            c = p.colors[leg]
            if c is LegColor.UNCOLORED:
                continue
            sign = 1 if c is LegColor.WHITE else -1
            bal += sign if leg < p.upper else -sign
        if bal != 0:
            return False
    return True


def _alternating_rule(p: Partition) -> bool:
    """Each string of a pairing joins legs of opposite parity in the
    cyclic black/white labelling along the linear order."""
    for b in p.blocks:
        x, y = (p.linear_pos(leg) for leg in b)
        if (x - y) % 2 == 0:
            return False
    return True


def is_member(p: Partition, cls: PartitionClass) -> bool:
    if cls is PartitionClass.P:
        ok = True
    elif cls is PartitionClass.P_EVEN:
        ok = p.has_even_blocks()
    elif cls is PartitionClass.P2:
        ok = p.is_pairing()
    elif cls is PartitionClass.NC:
        ok = p.is_noncrossing()
    elif cls is PartitionClass.NC_EVEN:
        ok = p.has_even_blocks() and p.is_noncrossing()
    elif cls is PartitionClass.NC2:
        ok = p.is_pairing() and p.is_noncrossing()
    elif cls is PartitionClass.P2_STAR:
        ok = p.is_pairing() and _alternating_rule(p)
    elif cls is PartitionClass.PERM:
        ok = p.is_through_pairing()
    else:  # pragma: no cover
        raise ValueError(cls)
    if ok and p.is_colored():
        ok = _color_balanced(p)
    return ok


def _restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted growth strings (block
    labels numbered by first occurrence), in lexicographic order."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, maxval: int):
        if i == n:
            yield tuple(rgs)
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    yield from rec(1, 0)


def _pairings(n: int) -> Iterator[list[list[int]]]:
    if n % 2:
        return
    if n == 0:
        yield []
        return
    legs = list(range(n))

    def rec(rest: list[int]):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for i, other in enumerate(tail):
            for sub in rec(tail[:i] + tail[i + 1 :]):
                yield [[first, other]] + sub

    yield from rec(legs)


_PAIRING_CLASSES = {PartitionClass.P2, PartitionClass.NC2, PartitionClass.P2_STAR,
                    PartitionClass.PERM}


def enumerate_partitions(cls: PartitionClass, upper=0, lower=0,
                         bound: int = ENUMERATION_LEG_BOUND) -> list[Partition]:
    """All members of a partition class on the given frame, canonically ordered.

    ``upper``/``lower`` are either leg counts (uncolored) or color words
    over ``o`` and ``*``.  Pairing classes on an odd frame yield ``[]``.
    """
    cu = _color_word(upper, upper if isinstance(upper, int) else len(upper))
    cl = _color_word(lower, lower if isinstance(lower, int) else len(lower))
    k, l = len(cu), len(cl)
    n = k + l
    if n > bound:
        raise SizeLimitError(f"{n} legs exceeds the enumeration bound {bound}")
    if cls in _PAIRING_CLASSES:
        gen = _pairings(n)
    else:
        gen = map(_blocks, _restricted_growth_strings(n))
    out = []
    for blocks in gen:
        p = Partition(k, l, tuple(tuple(b) for b in blocks), cu + cl)
        if is_member(p, cls):
            out.append(p)
    out.sort(key=lambda p: tuple(tuple(sorted(p.linear_pos(x) for x in b)) for b in p.blocks))
    return out


# ---------------------------------------------------------------------------
# permutations as diagrams


def perm_to_partition(perm: Sequence[int]) -> Partition:
    """One-line permutation (images of 1..k) as a k-over-k through-pairing.

    Upper leg ``p`` is joined to lower leg ``perm[p]``, so the diagram acts
    downwards and the lower word of ``perm_to_partition((3,1,2))`` reads off
    the relation ``abc = cab``.
    """
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError(f"not a permutation of 1..{k}: {perm!r}")
    blocks = tuple((p, k + perm[p] - 1) for p in range(k))
    return Partition(k, k, blocks)


def halfcommuting_membership(perm: Sequence[int] | Partition) -> bool:
    """True iff a permutation has the black-to-white joining property.

    Legs of its k-over-k diagram are labelled alternately black/white along
    the linear order; membership asks every through string to join opposite
    labels.  These permutations form the subgroups S_k* with
    ``|S_{2n}*| = (n!)^2`` and ``|S_{2n+1}*| = n!(n+1)!``.
    """
    p = perm if isinstance(perm, Partition) else perm_to_partition(perm)
    if not p.is_through_pairing():
        raise PartitionClassError("expected a permutation diagram")
    return is_member(p, PartitionClass.P2_STAR)
