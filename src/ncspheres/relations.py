"""Monomial relation systems over the ten spheres and their rewriting engine.

Words are sequences of letters ``(block, star)``: letters sharing a block
carry the same abstract coordinate index, distinct blocks carry distinct
indices, and ``star`` marks the adjoint symbol (always off in the real
case, where coordinates are self-adjoint).  A permutation ``sigma``
induces, over a regime (field plus twist), the family of relations

    a_{i_1} ... a_{i_k} = sign(sigma, ker i) a_{i_sigma(1)} ... a_{i_sigma(k)}

one per coincidence pattern of the indices, with the sign forced by
anticommutation: ``-1`` to the number of inverted position pairs lying in
distinct blocks (a starred symbol commutes with the plain symbol of the
same index).  This is the twisted Kronecker symbol of the permutation's
diagram at the indices (``relation_sign``).

The engine closes a relation set under segment rewriting, transitivity and
contraction of a summed adjacent conjugate pair against the quadratic
sphere relation.  Same-degree consequences are explored by a signed
breadth-first search inside each content class; a contraction derives a
lower-degree relation from a witness pair carrying the summed index,
provided every coincidence instance of the witness is derivable with the
same sign.  Rewrite rules are indexed by window shape, the window's
letters with blocks renumbered by first occurrence and stars kept: a rule
applies to a window exactly when their shapes agree, so matching a window
is one dictionary lookup.  Soundness is one-directional by construction:
a derived relation holds in every model of the base system, and a zero
result of ``reduce`` is a proof, while "not derivable" is only
bound-relative.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import SizeLimitError
from .partitions import Partition, _restricted_growth_strings, halfcommuting_membership, kernel
from .weingarten import Field, GroupSpec, Level, SphereSpec

Letter = tuple[int, bool]
Word = tuple[Letter, ...]
# a rewrite move on a window: the map to its image, and the relation's sign
Move = tuple[Callable[[Word], Word], int]

DEFAULT_MAX_DEGREE = 6
DEFAULT_MAX_INDICES = 4

# words one rewriting class may hold before the search refuses it: 8!, the
# class of eight distinct letters under every rearrangement
COMPONENT_WORD_BOUND = 40320

LETTERS = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# words and combinations


def parse_word(text: str) -> Word:
    """Parse a word literal such as ``"ab*a"`` (a, b-star, a).

    The letter fixes the abstract index block ('a' is block 0, 'b' block 1
    and so on), so words parsed separately share one index frame: ``"ab"``
    and ``"ba"`` are the two different orderings of the same two indices.
    """
    letters: list[Letter] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if not ch.isalpha() or not ch.islower():
            raise ValueError(f"bad word literal {text!r}")
        star = i + 1 < len(text) and text[i + 1] == "*"
        letters.append((ord(ch) - ord("a"), star))
        i += 2 if star else 1
    return tuple(letters)


def word_literal(word: Word) -> str:
    return "".join(LETTERS[b] + ("*" if s else "") for b, s in word)


def _shape(seg: Word) -> Word:
    """The window shape: blocks renumbered by first occurrence, stars kept."""
    rename: dict[int, int] = {}
    return tuple((rename.setdefault(b, len(rename)), s) for b, s in seg)


class NCCombination:
    """Integer combination of pattern words over a shared index frame."""

    def __init__(self, terms: Mapping[Word, int] | None = None):
        self.terms: dict[Word, int] = {}
        for w, c in (terms or {}).items():
            if c:
                self.terms[w] = self.terms.get(w, 0) + c

    @staticmethod
    def monomial(word: Word | str, coeff: int = 1) -> "NCCombination":
        if isinstance(word, str):
            word = parse_word(word)
        return NCCombination({word: coeff})

    def __add__(self, other: "NCCombination") -> "NCCombination":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCCombination(out)

    def __sub__(self, other: "NCCombination") -> "NCCombination":
        return self + other.scale(-1)

    def scale(self, c: int) -> "NCCombination":
        return NCCombination({w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "NCCombination") -> "NCCombination":
        out: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                out[key] = out.get(key, 0) + c1 * c2
        return NCCombination(out)

    def __pow__(self, n: int) -> "NCCombination":
        out = NCCombination({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, NCCombination) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda t: _word_order_key(t[0])):
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 and w else abs(c)  # a constant prints its value
            bits.append(f"{sign}{mag}{word_literal(w)}")
        return " ".join(bits).lstrip("+")


def _word_order_key(word: Word):
    """Global normal-form order: degree, kernel code, exponent word, letters."""
    kern = tuple(b for b, _ in _shape(word))
    return (len(word), kern, tuple("*" if s else "1" for _, s in word), word)


# ---------------------------------------------------------------------------
# the forced sign


# the permutation diagrams `relation_sign` reads, least recently used
# dropped first; S_1..S_6 hold 873 permutations
SIGMA_DIAGRAM_CACHE = 1024


@functools.lru_cache(maxsize=SIGMA_DIAGRAM_CACHE)
def _sigma_diagram(sigma: tuple[int, ...]) -> Partition:
    """``perm_to_partition`` of sigma's inverse: upper row ``0..k-1``, lower
    row ``sigma - 1``, so block ``p`` joins position ``p`` of the word to the
    slot that sigma fills with it."""
    k = len(sigma)
    return kernel([*range(k), *(s - 1 for s in sigma)], k, k)


def relation_sign(sigma: Sequence[int], kernel: Sequence[int], twisted: bool) -> int:
    """Sign making ``w = sign . sigma(w)`` hold over a regime with this twist.

    Untwisted regimes always give +1.  A twisted regime gives the twisted
    symbol of sigma's diagram at the kernel: ``-1`` to the number of
    inverted position pairs lying in distinct kernel blocks, the odd block
    pairs of the diagram.  Equal indices (and an index against its own
    adjoint) commute and contribute nothing.
    """
    if not twisted:
        return 1
    if len(kernel) != len(sigma):
        raise ValueError("kernel length does not match the permutation")
    return _sigma_diagram(tuple(sigma)).twisted_sign(kernel)


# ---------------------------------------------------------------------------
# relation systems


@dataclass(frozen=True)
class RelationSchema:
    """One exact relation ``lhs = sign . rhs``: the rhs takes its slot ``t``
    from position ``sigma[t]`` of the lhs, and the schema holds for the
    kernel and exponents written in the lhs only."""

    lhs: Word
    sigma: tuple[int, ...]
    sign: int

    @property
    def rhs(self) -> Word:
        return tuple(self.lhs[s - 1] for s in self.sigma)

    def literal(self) -> str:
        sign = "-" if self.sign == -1 else "+"
        text = f"{word_literal(self.lhs)}={sign}{word_literal(self.rhs)}"
        blocks = len({b for b, _ in self.lhs})
        if blocks > 1:
            text += "[" + "≠".join(LETTERS[:blocks]) + "]"
        return text


@dataclass(frozen=True)
class RelationSystem:
    """Monomial relation system over a regime: permutation families plus
    the quadratic relation and, in the real case, self-adjointness.

    The regime is the (field, twist) pair on its own; it is kept separate
    from any sphere because an arbitrary permutation set does not name one
    of the ten spheres, and because the free spheres normalize their twist
    flag away while a monomial system over the twisted regime must not.
    """

    field: Field
    twisted: bool
    perms: tuple[tuple[int, ...], ...]

    @property
    def complex_symbols(self) -> bool:
        return self.field is Field.COMPLEX


def _check_permutation(p: tuple[int, ...]) -> None:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation: {p!r}")


def monomial_system(perms: Iterable[Sequence[int]], field: Field,
                    twisted: bool) -> RelationSystem:
    """The relation system cut out by a permutation set over a regime; each
    permutation is a one-line word of the images of 1..k."""
    perms = tuple(tuple(p) for p in perms)
    for p in perms:
        _check_permutation(p)
    return RelationSystem(field, twisted, perms)


def sphere_relations(s: SphereSpec) -> RelationSystem:
    perms = {
        Level.CLASSICAL: ((2, 1),),
        Level.HALF: ((3, 2, 1),),
        Level.FREE: (),
    }[s.level]
    return RelationSystem(s.field, s.twisted, perms)


# ---------------------------------------------------------------------------
# group-level presets (coordinates u_ij)


# the paper's sign of abc = ±cba in the twisted half-liberated groups, by the
# number of distinct rows and columns among the three coordinates: the
# reference data `comult_sign_check` tests against the Hopf structure
SPAN_SIGN_TABLE: dict[tuple[int, int], int] = {
    (r, c): (-1 if (r == 3) != (c == 3) else 1)
    for r in (1, 2, 3) for c in (1, 2, 3)
}


# the coordinate-word lengths at which each level relates a word to its
# reversal: ab = ±ba and abc = ±cba at the classical level, abc = ±cba only
# at the half-liberated one
_REVERSAL_LENGTHS = {Level.CLASSICAL: (2, 3), Level.HALF: (3,), Level.FREE: ()}


def group_relation_sign(g: GroupSpec, coords: Sequence[tuple[int, int]]) -> int | None:
    """Sign in ``u_a u_b = sign u_b u_a`` (two coordinates) or
    ``u_a u_b u_c = sign u_c u_b u_a`` (three) among the coordinates
    ``u_ij`` of the group, each given as its pair ``(i, j)``; None where
    the level imposes no relation of that length.

    The sign is the twisted sign of the reversal taken once at the row
    indices and once at the column indices; for the twisted half-liberated
    groups it reproduces ``SPAN_SIGN_TABLE``.
    """
    if len(coords) not in _REVERSAL_LENGTHS[g.level]:
        return None
    sigma = tuple(range(len(coords), 0, -1))
    rows, cols = zip(*coords)
    return relation_sign(sigma, rows, g.twisted) * relation_sign(sigma, cols, g.twisted)


def check_span_table(table: Mapping[tuple[int, int], int]) -> bool:
    """Consistency of a span sign table with counit, antipode and
    comultiplication: diagonal +1, symmetry, and multiplicativity
    ``table[r,s] * table[s,c] == table[r,c]`` over every middle span."""
    spans = (1, 2, 3)
    if any(table[(r, r)] != 1 for r in spans):
        return False
    if any(table[(r, c)] != table[(c, r)] for r in spans for c in spans):
        return False
    return all(
        table[(r, s)] * table[(s, c)] == table[(r, c)]
        for r in spans for c in spans for s in spans
    )


def comult_sign_check(g: GroupSpec) -> bool:
    """Verify the half-liberated twisted sign table against the Hopf
    structure requirements; defined for the twisted half-liberated groups."""
    if g.level is not Level.HALF or not g.twisted:
        raise ValueError("the span sign table belongs to the twisted "
                         "half-liberated groups")
    return check_span_table(SPAN_SIGN_TABLE)


# ---------------------------------------------------------------------------
# the saturation engine


@dataclass
class _Component:
    signs: dict[Word, int]
    collapsed: bool


@dataclass
class Bounds:
    max_degree: int = DEFAULT_MAX_DEGREE
    max_indices: int = DEFAULT_MAX_INDICES


def _check_bounds(max_degree: int, max_indices: int) -> None:
    """Reject search bounds below 1, under which no relation can be found."""
    for name, value in (("max_degree", max_degree), ("max_indices", max_indices)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


class _MoveTable(dict):
    """Window shape -> moves ``(take, sign)``: ``take`` rearranges a window
    of that shape into its image.  It is an ``itemgetter`` of the window
    positions in image order; a move rearranges at least two letters, so
    it returns a tuple.

    The base permutations' moves of a shape are filled in at its first
    lookup, so the table holds only the shapes the engine meets; filling
    in every shape up front would take B(m)·2^m entries for a permutation
    of m letters, 10.8 million at m = 9.
    """

    def __init__(self, perms: Iterable[tuple[int, ...]], twisted: bool):
        super().__init__()
        self.base = [(sigma, tuple(t - 1 for t in sigma)) for sigma in perms]
        self.twisted = twisted

    def __missing__(self, shape: Word) -> list[Move]:
        kern = [b for b, _ in shape]
        moves = self[shape] = [
            (itemgetter(*positions), relation_sign(sigma, kern, self.twisted))
            for sigma, positions in self.base
            if len(sigma) == len(shape)
            and any(shape[j] != shape[t] for t, j in enumerate(positions))
        ]
        return moves


class _Engine:
    """Signed reachability over words, with quadratic contraction.

    Every rewrite rule lives in one table from window shape to moves.  A
    second table maps each raw window met so far to its shape's list of
    moves, the very list object the first table holds, so ``_shape`` runs
    once per distinct window and a promoted rule, appended to that list,
    shows through it at once.
    """

    def __init__(self, system: RelationSystem, bounds: Bounds):
        self.system = system
        self.bounds = bounds
        self.extra_rules: list[tuple[Word, Word, int]] = []
        self._moves = _MoveTable(system.perms, system.twisted)
        self._window_moves: dict[Word, list[Move]] = {}
        self._lengths = {len(sigma) for sigma in system.perms}
        self._components: dict[Word, _Component] = {}
        self._derived_cache: dict[tuple[Word, Word], int | None] = {}
        self.truncated = False
        self.trace: list[dict] = []

    # -- moves ---------------------------------------------------------

    def _neighbors(self, word: Word):
        """(word, sign) for every move of every window of ``word``."""
        n = len(word)
        window_moves = self._window_moves
        for m in self._lengths:
            for w in range(n - m + 1):
                window = word[w:w + m]
                moves = window_moves.get(window)
                if moves is None:
                    moves = window_moves[window] = self._moves[_shape(window)]
                for take, sign in moves:
                    yield word[:w] + take(window) + word[w + m:], sign

    def component(self, word: Word) -> _Component:
        comp = self._components.get(word)
        if comp is not None:
            return comp
        signs = {word: 1}
        collapsed = False
        frontier = [word]
        while frontier:
            nxt = []
            for u in frontier:
                su = signs[u]
                for v, sign in self._neighbors(u):
                    sv = su * sign
                    if v in signs:
                        if signs[v] != sv:
                            collapsed = True
                        continue
                    signs[v] = sv
                    nxt.append(v)
                if len(signs) > COMPONENT_WORD_BOUND:
                    raise SizeLimitError(f"the rewriting class of a degree-{len(word)} word "
                                         f"holds more than {COMPONENT_WORD_BOUND} words")
            frontier = nxt
        comp = _Component(signs, collapsed)
        for u in signs:
            self._components[u] = comp
        return comp

    def invalidate(self):
        self._components.clear()
        self._derived_cache.clear()

    # -- derivability ----------------------------------------------------

    def relative_sign(self, lhs: Word, rhs: Word, budget: int = 1) -> int | None:
        """Sign s with lhs = s.rhs derivable, or None.  A collapsed
        component (both words provably zero) reports +1."""
        if sorted(lhs) != sorted(rhs):
            return None
        key = (lhs, rhs)
        if key in self._derived_cache:
            return self._derived_cache[key]
        self._derived_cache[key] = None  # cut recursion cycles
        result = self._relative_sign_uncached(lhs, rhs, budget)
        self._derived_cache[key] = result
        return result

    def _relative_sign_uncached(self, lhs: Word, rhs: Word, budget: int) -> int | None:
        comp = self.component(lhs)
        if rhs in comp.signs:
            if comp.collapsed:
                return 1
            return comp.signs[rhs] * comp.signs[lhs]
        if budget <= 0:
            return None
        return self._contract_search(lhs, rhs, budget)

    def _contract_search(self, lhs: Word, rhs: Word, budget: int) -> int | None:
        blocks = list(dict.fromkeys(b for b, _ in lhs))
        if len(blocks) + 1 > self.bounds.max_indices:
            self.truncated = True
            return None
        if len(lhs) + 2 > self.bounds.max_degree:
            self.truncated = True
            return None
        fresh = max(blocks, default=-1) + 1
        orders = (((False, True), (True, False)) if self.system.complex_symbols
                  else ((False, False),))
        for o1 in orders:
            pair1 = ((fresh, o1[0]), (fresh, o1[1]))
            for pos1 in range(len(lhs) + 1):
                u = lhs[:pos1] + pair1 + lhs[pos1:]
                ucomp = self.component(u)
                for o2 in orders:
                    pair2 = ((fresh, o2[0]), (fresh, o2[1]))
                    for pos2 in range(len(rhs) + 1):
                        v = rhs[:pos2] + pair2 + rhs[pos2:]
                        if v not in ucomp.signs:
                            continue
                        sign = 1 if ucomp.collapsed else ucomp.signs[v] * ucomp.signs[u]
                        if self._merges_consistent(u, v, fresh, blocks, sign, budget):
                            self.trace.append({
                                "rule": "contract",
                                "summed": "*" if (o1[0] or o1[1]) else "square",
                                "witness": [word_literal(u), word_literal(v)],
                                "conclusion": [word_literal(lhs), sign, word_literal(rhs)],
                            })
                            return sign
        return None

    def _merges_consistent(self, u: Word, v: Word, summed: int,
                           blocks: list[int], sign: int, budget: int) -> bool:
        for c in blocks:
            uc = tuple((c if b == summed else b, s) for b, s in u)
            vc = tuple((c if b == summed else b, s) for b, s in v)
            got = self.relative_sign(uc, vc, budget - 1)
            if got is None or (got != sign and not self.component(uc).collapsed):
                return False
        return True

    def derivable(self, schema_lhs: Word, schema_rhs: Word, sign: int,
                  budget: int = 2) -> bool:
        got = self.relative_sign(schema_lhs, schema_rhs, budget)
        return got == sign

    def promote(self, lhs: Word, rhs: Word, sign: int):
        """Install a derived relation as a rewrite rule for later rounds.

        A rule whose ``rhs`` already lies in the cached rewriting class of
        ``lhs``, with the sign the class gives it (any sign in a collapsed
        class), keeps every cached class; ``saturate`` reads each rule it
        promotes off that class, so the class is at hand.  This is exact.
        A move applies to a window by its shape alone, so the chain of
        moves linking ``lhs`` to ``rhs`` also runs, with the same sign,
        inside every longer word holding a window of the same shape; a
        collapsed class of ``lhs`` embeds in that word's class the same
        way and collapses it too.  The new move thus only joins words
        already in one class, with the sign that class already gives them
        or inside a class already collapsed, whose signs no caller reads:
        no class changes its words, its ``collapsed`` flag or, when not
        collapsed, its relative signs.  A rule derived through a
        contraction has its ``rhs`` outside the class and may join
        classes, so it drops them all.  The derivation cache is dropped
        either way, since it holds the ``None`` placeholders that cut
        recursion cycles.
        """
        rule = (lhs, rhs, sign)
        if rule not in self.extra_rules:
            self.extra_rules.append(rule)
            comp = self._components.get(lhs)
            implied = comp is not None and rhs in comp.signs and (
                comp.collapsed or comp.signs[rhs] * comp.signs[lhs] == sign)
            if rhs != lhs:
                positions = (p - 1 for p in _word_permutation(lhs, rhs))
                self._moves[_shape(lhs)].append((itemgetter(*positions), sign))
                self._lengths.add(len(lhs))
            if implied:
                self._derived_cache.clear()
            else:
                self.invalidate()


# ---------------------------------------------------------------------------
# saturation and its consumers


def _family_instances(sigma: tuple[int, ...],
                      system: RelationSystem) -> Iterable[tuple[Word, Word, int]]:
    """All (lhs, rhs, forced sign) instances of a permutation family over
    the system's regime, skipping identically-true ones."""
    k = len(sigma)
    exp_choices = ((False, True) if system.complex_symbols else (False,))
    for kern in _restricted_growth_strings(k):
        sign = relation_sign(sigma, kern, system.twisted)
        for exps in itertools.product(exp_choices, repeat=k):
            lhs = tuple((kern[p], exps[p]) for p in range(k))
            rhs = tuple(lhs[sigma[t] - 1] for t in range(k))
            if lhs == rhs and sign == 1:
                continue
            yield lhs, rhs, sign


@dataclass
class SaturationResult:
    system: RelationSystem
    schemas: tuple[RelationSchema, ...]
    truncated: bool
    engine: _Engine

    def has_family(self, sigma: tuple[int, ...]) -> bool:
        """True iff every instance of the permutation family is derived."""
        return all(
            self.engine.derivable(lhs, rhs, sign)
            for lhs, rhs, sign in _family_instances(sigma, self.system)
        )


def saturate(system: RelationSystem, max_degree: int = DEFAULT_MAX_DEGREE,
             max_indices: int = DEFAULT_MAX_INDICES,
             track_sigmas: Sequence[tuple[int, ...]] | None = None) -> SaturationResult:
    """Close the system and report the derivable low-degree schemas.

    The returned schemas enumerate every derivable permutation-family
    instance of degree at most 3 (the canonical sphere relations), each an
    exact-kernel schema.  Derived families are promoted to rewrite rules
    between rounds, so multi-stage consequences (outer deletions followed
    by shorter rewrites) are found.
    """
    _check_bounds(max_degree, max_indices)
    engine = _Engine(system, Bounds(max_degree, max_indices))
    if track_sigmas is None:
        track_sigmas = [s for k in (2, 3)
                        for s in itertools.permutations(range(1, k + 1))
                        if s != tuple(range(1, k + 1))]
    targets = []
    for sigma in track_sigmas:
        for lhs, rhs, sign in _family_instances(sigma, system):
            targets.append((sigma, lhs, rhs, sign))

    derived: dict[tuple[Word, Word], int] = {}
    for _ in range(3):
        progress = False
        for sigma, lhs, rhs, sign in targets:
            if (lhs, rhs) in derived:
                continue
            if engine.derivable(lhs, rhs, sign):
                derived[(lhs, rhs)] = sign
                engine.promote(lhs, rhs, sign)
                progress = True
        if not progress:
            break

    schemas = tuple(
        RelationSchema(lhs, _word_permutation(lhs, rhs), sign)
        for (lhs, rhs), sign in sorted(derived.items())
    )
    return SaturationResult(system, schemas, engine.truncated, engine)


def _word_permutation(lhs: Word, rhs: Word) -> tuple[int, ...]:
    used = set()
    sigma = []
    for letter in rhs:
        for p, cand in enumerate(lhs):
            if p not in used and cand == letter:
                sigma.append(p + 1)
                used.add(p)
                break
    return tuple(sigma)


def reduce(expr: NCCombination, system: RelationSystem,
           max_degree: int = DEFAULT_MAX_DEGREE,
           max_indices: int = DEFAULT_MAX_INDICES):
    """Normal form of a combination under the system's monomial relations.

    Each monomial is replaced by the least word of its rewriting class
    under the global order (degree, kernel, exponents); classes where the
    search reaches a word with both signs are provably zero.  Returns the
    reduced combination and a derivation trace.  A zero result is a proof;
    a nonzero result is relative to the bounds.
    """
    _check_bounds(max_degree, max_indices)
    engine = _Engine(system, Bounds(max_degree, max_indices))
    out: dict[Word, int] = {}
    trace = []
    for word, coeff in expr.terms.items():
        if len(word) > max_degree:
            raise SizeLimitError("monomial degree exceeds the bound")
        comp = engine.component(word)
        if comp.collapsed:
            trace.append({"rule": "collapse", "word": word_literal(word),
                          "result": "0"})
            continue
        rep = min(comp.signs, key=_word_order_key)
        rel = comp.signs[rep] * comp.signs[word]
        trace.append({"rule": "normal-form", "word": word_literal(word),
                      "result": ("-" if rel < 0 else "+") + word_literal(rep)})
        out[rep] = out.get(rep, 0) + coeff * rel
    return NCCombination(out), trace


# the regime names accepted by `classify_monomial_sphere` and the CLI, each
# with its (field, twisted) pair
REGIMES: dict[str, tuple[Field, bool]] = {
    "real": (Field.REAL, False),
    "complex": (Field.COMPLEX, False),
    "real_twisted": (Field.REAL, True),
    "complex_twisted": (Field.COMPLEX, True),
}


def classify_monomial_sphere(perms: Iterable[Sequence[int]], regime: str,
                             max_degree: int = DEFAULT_MAX_DEGREE,
                             max_indices: int = DEFAULT_MAX_INDICES) -> str:
    """Identify the monomial sphere cut out by a set of permutations.

    Saturates the induced relation family and matches the derivable
    degree-at-most-3 relations against the canonical levels of the regime:
    the basic crossing family gives the (twisted) classical sphere, the
    degree-3 reversal family the (twisted) half-liberated one, and an
    empty family the free sphere.  Returns the sphere name, or
    ``"undetermined"`` when the bounds do not settle the question.
    """
    _check_bounds(max_degree, max_indices)
    try:
        fld, twisted = REGIMES[regime]
    except KeyError:
        raise ValueError(f"unknown regime {regime!r}")
    perms = [tuple(p) for p in perms]
    for p in perms:
        _check_permutation(p)
        if len(p) > max_degree - 2:
            raise SizeLimitError("permutation length exceeds the bounds")
    nontrivial = [p for p in perms if p != tuple(range(1, len(p) + 1))]
    if not nontrivial:
        return SphereSpec(fld, Level.FREE).name

    system = monomial_system(nontrivial, fld, twisted)
    result = saturate(system, max_degree, max_indices)
    if result.has_family((2, 1)):
        return SphereSpec(fld, Level.CLASSICAL, twisted).name
    if result.has_family((3, 2, 1)):
        if all(halfcommuting_membership(p) for p in nontrivial):
            return SphereSpec(fld, Level.HALF, twisted).name
        return "undetermined"
    return "undetermined"


def relation_group(system: RelationSystem, k: int) -> set[tuple[int, ...]]:
    """Permutations of k letters whose forced-sign relation family is
    derivable from the system by same-degree rewriting.

    For the sphere presets this recovers the full symmetric group at the
    classical level, the half-commuting subgroup at the half level and
    the trivial group at the free level.
    """
    if k < 0:
        raise ValueError(f"relation_group needs k >= 0, got {k}")
    if k > 6:
        raise SizeLimitError("relation_group supports k <= 6")
    engine = _Engine(system, Bounds(max_degree=k, max_indices=k))
    exp_choices = ((False, True) if system.complex_symbols else (False,))
    positions = {sigma: tuple(t - 1 for t in sigma)
                 for sigma in itertools.permutations(range(1, k + 1))}
    alive = set(positions)
    for kern in _restricted_growth_strings(k):
        wants = {sigma: relation_sign(sigma, kern, system.twisted) for sigma in alive}
        for exps in itertools.product(exp_choices, repeat=k):
            seed = tuple((kern[p], exps[p]) for p in range(k))
            comp = engine.component(seed)
            root = comp.signs[seed]  # signs are relative to the root
            dead = set()
            for sigma in alive:
                got = comp.signs.get(tuple(map(seed.__getitem__, positions[sigma])))
                if got is None or (got * root != wants[sigma] and not comp.collapsed):
                    dead.add(sigma)
            alive -= dead
            if not alive:
                return set()
    return alive
