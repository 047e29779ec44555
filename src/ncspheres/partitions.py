"""Two-row set partitions and the twisted signature.

A partition lives on a frame of ``k`` upper and ``l`` lower legs.  Legs are
stored as integers: ``0..k-1`` is the upper row read left to right, and
``k..k+l-1`` is the lower row read left to right.  All order-sensitive
notions (crossings, switches, the cyclic black/white labelling) use the
*linear order*, which walks the frame clockwise from the top left corner:
upper row left to right, then lower row right to left.

A partition is stored as one label word: ``labels[leg]`` is the block of
storage leg ``leg``, with blocks numbered by first occurrence in the linear
order.  Read in the linear order, the labels form a restricted growth
string, so equal partitions have equal words.  Every operation that makes a
partition builds the word of its result and canonicalizes it through
``kernel``, except enumeration, whose words are canonical as built; the
blocks are derived from the labels.

Partition literals are two strings over lowercase letters separated by
``|``, upper row first, with equal letters marking equal blocks.  An
optional suffix ``:`` carries one color character per leg (upper row then
lower row), ``o`` for white (plain symbol), ``*`` for black (starred
symbol) and ``?`` for an uncolored leg, as on a frame that colors one row
and not the other.  Examples::

    "|abab"        crossing on four lower legs
    "ab|ba"        through-crossing
    "|abab:oo**"   crossing with lower legs colored white,white,black,black
    "aa|bb:o*??"   colored upper row over an uncolored lower row

A *switch* exchanges two row-adjacent legs belonging to different blocks.
Every partition with even block sizes can be switched into a noncrossing
partition with the same per-row block contents; the parity of the number
of switches is an invariant and defines the twisted signature.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FrameError, PartitionClassError, SizeLimitError

ENUMERATION_LEG_BOUND = 12
ENUMERATION_MEMBER_BOUND = 1 << 18


class LegColor(enum.Enum):
    UNCOLORED = ""
    WHITE = "o"   # plain symbol: z / u, exponent 1
    BLACK = "*"   # starred symbol: z* / u*, exponent *

    # members are singletons, so hash by identity in C rather than through
    # Enum's Python-level hash of the name: colors are looked up and hashed
    # with every partition that is built
    __hash__ = object.__hash__

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


_COLORS = {"o": LegColor.WHITE, "1": LegColor.WHITE, 1: LegColor.WHITE,
           "*": LegColor.BLACK, **{c: c for c in LegColor}}


def _color_word(spec, n: int) -> tuple[LegColor, ...]:
    """Normalize a color argument to ``n`` leg colors: a leg count, or an
    exponent word over ``o`` (or ``1``) and ``*`` (``None`` or an empty
    word: ``n`` uncolored legs).  The one parser of exponent words."""
    if isinstance(spec, int):
        if spec < 0:
            raise ValueError(f"negative leg count {spec}")
        word = (LegColor.UNCOLORED,) * spec
    elif not spec:
        word = (LegColor.UNCOLORED,) * n
    else:
        try:
            word = tuple(map(_COLORS.__getitem__, spec))
        except KeyError as exc:
            raise ValueError(f"bad exponent {exc.args[0]!r} in a color word") from None
    if len(word) != n:
        raise FrameError(f"need {n} colors, got {len(word)}")
    return word


@dataclass(frozen=True, init=False)
class Partition:
    """A two-row set partition with leg colors.

    ``labels`` holds the block of each storage leg, with blocks numbered by
    first occurrence in the linear order, so that equality is structural.
    ``kernel`` (from any label word), ``parse_partition`` and enumeration
    make partitions; ``blocks`` is derived from the labels.
    """

    upper: int
    lower: int
    labels: tuple[int, ...]
    colors: tuple[LegColor, ...]

    # -- frame helpers -------------------------------------------------

    @property
    def n_legs(self) -> int:
        return self.upper + self.lower

    @property
    def block_count(self) -> int:
        return max(self.labels, default=-1) + 1

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Storage legs of each block in increasing order, blocks in label
        order (by first leg in the linear order)."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for leg, b in enumerate(self.labels):
            out[b].append(leg)
        return tuple(map(tuple, out))

    @functools.cached_property
    def odd_pairs(self) -> tuple[tuple[int, int], ...]:
        """Block pairs ``(A, B)``, ``A < B``, with an odd number of same-row
        leg pairs whose left leg lies in A and right leg in B."""
        count = _pair_counts(self)
        b = len(count)
        return tuple((a, c) for a in range(b) for c in range(a + 1, b) if count[a][c] % 2)

    def twisted_sign(self, v):
        """Switch parity of the tuple giving block ``A`` the value ``v[A]``
        (an even partition only): ``-1`` to the number of odd pairs whose
        two blocks get different values; an array of shape
        ``(block_count, m)`` gets the signs of its m columns at once.

        The tuple's row inversions, upper row plus lower row, are the
        switches that sort each row by value.  They number
        ``Σ x(A,B)·[v_A > v_B]`` over block pairs, where ``x(A,B)`` counts
        same-row leg pairs with A's leg first and B's leg second.  Since
        ``x(A,B) + x(B,A) = |A∩up|·|B∩up| + |A∩low|·|B∩low|`` is even when
        every block is, ``x(A,B)`` and ``x(B,A)`` have one parity, so only
        the odd pairs whose values differ count, whichever is larger.  In
        particular the parity does not depend on how distinct values rank
        the blocks: any values distinct on the blocks give the signature.
        """
        return 1 - 2 * (sum(v[a] != v[b] for a, b in self.odd_pairs) % 2)

    def linear_word(self) -> list[int]:
        """Block labels in the linear order: a restricted growth string."""
        return [*self.labels[: self.upper], *reversed(self.labels[self.upper:])]

    def same_frame(self, other: "Partition") -> bool:
        return (
            self.upper == other.upper
            and self.lower == other.lower
            and self.colors == other.colors
        )

    def is_colored(self) -> bool:
        return any(c is not LegColor.UNCOLORED for c in self.colors)

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

    # -- literals ------------------------------------------------------

    def literal(self) -> str:
        rename: dict[int, str] = {}
        for b in self.labels:  # letters by first occurrence in storage order
            if b not in rename:
                rename[b] = "abcdefghijklmnopqrstuvwxyz"[len(rename)]
        word = "".join(rename[b] for b in self.labels)
        s = f"{word[: self.upper]}|{word[self.upper:]}"
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
    if (up + low).strip("abcdefghijklmnopqrstuvwxyz"):  # a character left is not a letter
        raise ValueError(f"partition literal takes lowercase letters around one '|': {text!r}")
    colors = [LegColor.UNCOLORED if c == "?" else c for c in colortext]
    return kernel(up + low, len(up), len(low), colors)


# ---------------------------------------------------------------------------
# basic operations


def _roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over the nodes ``0..n-1``: the representative of each
    node's component once the two nodes of every pair are joined."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(b)] = find(a)
    return [find(x) for x in range(n)]


def join(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening of two partitions on the same frame.

    The blocks of ``p`` and of ``q`` are the nodes of one union-find, and
    each leg joins its block in ``p`` to its block in ``q``.
    """
    if not p.same_frame(q):
        raise FrameError("join needs identical frames")
    bp = p.block_count
    roots = _roots(bp + q.block_count, zip(p.labels, (bp + b for b in q.labels)))
    return kernel([roots[b] for b in p.labels], p.upper, p.lower, p.colors)


def kernel(values: Sequence, upper: int | None = None, lower: int = 0,
           colors=None) -> Partition:
    """Kernel of a tuple: legs in the same block iff their entries coincide.

    By default the result lives on a one-row frame.  Pass ``upper``/``lower``
    to place it on a two-row frame of the same total length, and ``colors``
    (a word over ``o`` and ``*``, upper row then lower row) to color its legs.
    """
    n = len(values)
    if upper is None:
        upper, lower = n, 0
    if upper < 0 or lower < 0 or upper + lower != n:
        raise FrameError("kernel frame does not match tuple length")
    rename: dict = {}
    for v in itertools.chain(values[:upper], reversed(values[upper:])):
        if v not in rename:
            rename[v] = len(rename)
    return _partition(upper, lower, tuple(map(rename.__getitem__, values)),
                      _color_word(colors, n))


def _partition(upper: int, lower: int, labels: tuple[int, ...],
               colors: tuple[LegColor, ...]) -> Partition:
    """The one constructor of a partition from its canonical label word and
    its leg colors, both already checked."""
    p = object.__new__(Partition)
    vars(p).update(upper=upper, lower=lower, labels=labels, colors=colors)
    return p


def is_constant_on_blocks(p: Partition, values: Sequence) -> bool:
    """True iff the tuple is constant on every block of ``p``."""
    if len(values) != p.n_legs:
        raise FrameError("tuple length does not match the frame")
    first: dict = {}
    return all(first.setdefault(b, v) == v for b, v in zip(p.labels, values))


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of ``p`` is contained in a block of ``q``."""
    return is_constant_on_blocks(p, q.labels)


# ---------------------------------------------------------------------------
# switches, signature, crossings


def _linear_blocks(p: Partition) -> list[list[int]]:
    """Linear positions of each block, blocks in label order."""
    spans: list[list[int]] = [[] for _ in range(p.block_count)]
    for pos, b in enumerate(p.linear_word()):
        spans[b].append(pos)
    return spans


def _pair_counts(p: Partition) -> list[list[int]]:
    """The table ``x[A][B]``: the number of same-row leg pairs with A's leg
    first and B's leg second, for every pair of blocks."""
    b = p.block_count
    count = [[0] * b for _ in range(b)]
    for row in (p.labels[: p.upper], p.labels[p.upper:]):
        seen = [0] * b
        for right in row:
            for left in range(b):
                count[left][right] += seen[left]
            seen[right] += 1
    return count


def standard_form(p: Partition):
    """Noncrossing standard form of an even partition, with switch count.

    A noncrossing input is returned unchanged with zero switches.  Otherwise
    each row is stably sorted by block label, and the switch count is the
    rows' label inversions, ``Σ x(A,B)`` over ``A > B``, from the table
    behind ``odd_pairs``.  The result is noncrossing with the same per-row
    block contents.
    """
    if not p.has_even_blocks():
        raise PartitionClassError("standard form needs even block sizes")
    if p.is_noncrossing():
        return p, 0
    switches = sum(sum(row[:a]) for a, row in enumerate(_pair_counts(p)))
    up, low = p.labels[: p.upper], p.labels[p.upper:]
    return kernel([*sorted(up), *sorted(low)], p.upper, p.lower, p.colors), switches


def signature(p: Partition) -> int:
    """Twisted signature of an even partition: (-1)**switch_count."""
    if not p.has_even_blocks():
        raise PartitionClassError("the signature needs even block sizes")
    return p.twisted_sign(range(p.block_count))


def crossing_count(p: Partition) -> int:
    """Number of crossing string pairs of a pairing, in linear order: its
    number of odd pairs, as two strings cross exactly when ``x(A,B)`` is odd."""
    if not p.is_pairing():
        raise PartitionClassError("crossing count is defined for pairings")
    return len(p.odd_pairs)


# ---------------------------------------------------------------------------
# class predicates and enumeration


# The rule of each class for one block, on its legs' linear positions:
# (most legs, a multiple of how many legs, the link between each two
# consecutive legs x < y on a frame of k upper legs, noncrossing).  Every
# block also balances its colors (``_weights``).  The odd link is P2*'s
# rule that a string joins opposite labels of the alternating black/white
# labelling; a noncrossing class with even blocks obeys it too, since the
# legs between two consecutive legs of a block make up whole even blocks.
def _any_link(x: int, y: int, k: int) -> bool:
    return True


def _odd_link(x: int, y: int, k: int) -> bool:
    return (y - x) % 2 == 1


def _through_link(x: int, y: int, k: int) -> bool:
    return x < k <= y


_RULES = {
    PartitionClass.P: (math.inf, 1, _any_link, False),
    PartitionClass.P_EVEN: (math.inf, 2, _any_link, False),
    PartitionClass.P2: (2, 2, _any_link, False),
    PartitionClass.NC: (math.inf, 1, _any_link, True),
    PartitionClass.NC_EVEN: (math.inf, 2, _odd_link, True),
    PartitionClass.NC2: (2, 2, _odd_link, True),
    PartitionClass.P2_STAR: (2, 2, _odd_link, False),
    PartitionClass.PERM: (2, 2, _through_link, False),
}
_WEIGHT = {LegColor.WHITE: 1, LegColor.BLACK: -1, LegColor.UNCOLORED: 0}


def _weights(upper: int, colors: Sequence[LegColor]) -> list[int]:
    """Color weight of each leg in the linear order, negated on the lower
    row.  A block is balanced when its weights sum to 0: a through string
    joins equal colors and a same-row string joins opposite colors."""
    linear = [*colors[:upper], *reversed(colors[upper:])]
    return [_WEIGHT[c] if x < upper else -_WEIGHT[c] for x, c in enumerate(linear)]


def is_member(p: Partition, cls: PartitionClass) -> bool:
    """True iff ``p`` obeys the block rule and the noncrossing flag of ``cls``."""
    most, step, link, noncrossing = _RULES[cls]
    weight = _weights(p.upper, p.colors)
    return all(len(b) <= most and len(b) % step == 0 and sum(weight[x] for x in b) == 0
               and all(link(x, y, p.upper) for x, y in zip(b, b[1:]))
               for b in _linear_blocks(p)) and (not noncrossing or p.is_noncrossing())


def _restricted_growth_strings(n: int) -> list[tuple[int, ...]]:
    """All set partitions of range(n) as restricted growth strings (block
    labels numbered by first occurrence), in lexicographic order: each
    word grows by every letter up to one past its largest."""
    words = [()]
    for _ in range(n):
        words = [w + (v,) for w in words for v in range(max(w, default=-1) + 2)]
    return words


def enumerate_partitions(cls: PartitionClass, upper=0, lower=0) -> list[Partition]:
    """All members of a partition class on the given frame, canonically ordered.

    ``upper``/``lower`` are either leg counts (uncolored) or color words
    over ``o`` and ``*``.  A frame whose leg count is not a multiple of the
    class's block step, or whose colours do not balance, yields ``[]`` at once.

    Members are built block by block in the linear order, numbered by first
    occurrence, so each label word is canonical as built.  Each block opens
    at the first free leg and takes further legs in increasing order,
    closing (where the class rule lets it) before it grows, so members come
    out sorted by their blocks' linear positions.  In a noncrossing class a
    block stays below the first leg taken after its first leg.  A class
    with more than ``ENUMERATION_MEMBER_BOUND`` members is refused.
    """
    cu = _color_word(upper, upper if isinstance(upper, int) else len(upper))
    cl = _color_word(lower, lower if isinstance(lower, int) else len(lower))
    k, l = len(cu), len(cl)
    n = k + l
    if n > ENUMERATION_LEG_BOUND:
        raise SizeLimitError(f"{n} legs exceeds the enumeration bound {ENUMERATION_LEG_BOUND}")
    colors = cu + cl
    most, step, link, noncrossing = _RULES[cls]
    weight = _weights(k, colors)
    if n % step or sum(weight):  # every block must meet both, so the frame must
        return []
    word: list = [None] * n  # block of each leg in the linear order
    out: list[Partition] = []

    def open_block(label: int):
        if None not in word:
            if len(out) == ENUMERATION_MEMBER_BOUND:
                raise SizeLimitError(f"{cls.value} has more than {ENUMERATION_MEMBER_BOUND} "
                                     f"members on {k} upper and {l} lower legs")
            out.append(_partition(k, l, (*word[:k], *reversed(word[k:])), colors))
            return
        first = word.index(None)
        word[first] = label
        grow(label, first, 1, weight[first])
        word[first] = None

    def grow(label: int, last: int, size: int, balance: int):
        if size % step == 0 and balance == 0:
            open_block(label + 1)
        if size == most:
            return
        for y in range(last + 1, n):
            if word[y] is not None:
                if noncrossing:
                    return
            elif link(last, y, k):
                word[y] = label
                grow(label, y, size + 1, balance + weight[y])
                word[y] = None

    open_block(0)
    return out


# ---------------------------------------------------------------------------
# permutations as diagrams


# the permutation diagrams built, least recently used dropped first; S_1..S_6
# hold 873, and `--perm` takes permutations from outside, so the cache is bounded
SIGMA_DIAGRAM_CACHE = 1024


def _check_permutation(perm: tuple[int, ...]) -> None:
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation: {perm!r}")


def perm_to_partition(perm: Sequence[int]) -> Partition:
    """One-line permutation (images of 1..k) as a k-over-k through-pairing.

    Lower leg ``q`` lies in the block of upper leg ``perm[q] - 1``, so the
    upper row is a word's positions, the lower row the rearranged word, and
    ``perm_to_partition((3,1,2))`` is ``abc|cab``: the relation ``abc = cab``.
    Raises ``ValueError`` unless ``perm`` is a permutation.
    """
    return _perm_diagram(tuple(perm))


@functools.lru_cache(maxsize=SIGMA_DIAGRAM_CACHE)
def _perm_diagram(perm: tuple[int, ...]) -> Partition:
    """The one builder of permutation diagrams, each checked and built once."""
    _check_permutation(perm)
    k = len(perm)
    return kernel([*range(k), *(s - 1 for s in perm)], k, k)


def halfcommuting_membership(perm: Sequence[int]) -> bool:
    """True iff a permutation has the black-to-white joining property.

    Legs of its k-over-k diagram are labelled alternately black/white along
    the linear order; membership asks every through string to join opposite
    labels.  These permutations form the subgroups S_k* with
    ``|S_{2n}*| = (n!)^2`` and ``|S_{2n+1}*| = n!(n+1)!``.
    """
    return is_member(perm_to_partition(perm), PartitionClass.P2_STAR)
