"""Monomial relation systems over the ten spheres and their rewriting engine.

A word is one ``bytes`` object, one byte ``2·block + star`` per letter:
letters sharing a block carry the same abstract coordinate index, distinct
blocks carry distinct indices, and the low bit ``star`` marks the adjoint
symbol (always off in the real case, where coordinates are self-adjoint).
A permutation ``sigma`` induces, over a regime (field plus twist), the
family of relations

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
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import SizeLimitError
from .partitions import (
    _check_permutation,
    _perm_diagram,
    _restricted_growth_strings,
)
from .weingarten import Field, GroupSpec, Level, SphereSpec

# one byte 2·block + star per letter; blocks stay far below 128 (26 letters
# in a literal, two more from contraction, k <= 9 in a permutation)
Word = bytes

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
    letters: list[int] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in LETTERS:
            raise ValueError(f"bad word literal {text!r}")
        star = i + 1 < len(text) and text[i + 1] == "*"
        letters.append(2 * (ord(ch) - ord("a")) + star)
        i += 2 if star else 1
    return bytes(letters)


def word_literal(word: Word) -> str:
    return "".join(LETTERS[c >> 1] + ("*" if c & 1 else "") for c in word)


def _shape(seg: Word) -> Word:
    """The window shape: blocks renumbered by first occurrence, stars kept."""
    rename: dict[int, int] = {}
    return bytes([2 * rename.setdefault(c >> 1, len(rename)) | c & 1 for c in seg])


class NCCombination:
    """Integer combination of pattern words over a shared index frame."""

    def __init__(self, terms: Mapping[Word, int] | None = None):
        self.terms: dict[Word, int] = {}
        for w, c in (terms or {}).items():
            if c:
                self.terms[w] = self.terms.get(w, 0) + c

    @staticmethod
    def monomial(word: Word | str) -> "NCCombination":
        if isinstance(word, str):
            word = parse_word(word)
        return NCCombination({word: 1})

    def __add__(self, other: "NCCombination") -> "NCCombination":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCCombination(out)

    def __sub__(self, other: "NCCombination") -> "NCCombination":
        return self + NCCombination({w: -c for w, c in other.terms.items()})

    def __mul__(self, other: "NCCombination") -> "NCCombination":
        out: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                out[key] = out.get(key, 0) + c1 * c2
        return NCCombination(out)

    def __pow__(self, n: int) -> "NCCombination":
        out = NCCombination({b"": 1})
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


# byte maps for the order key: a letter to its block, and to its exponent
# with the adjoint first (``*`` sorts before ``1``)
_BLOCK = bytes(c >> 1 for c in range(256))
_EXPONENT = bytes(1 - (c & 1) for c in range(256))


def _word_order_key(word: Word):
    """Global normal-form order: degree, kernel code, exponent word, letters.
    The last three have the word's length, so one concatenation orders them."""
    return len(word), _shape(word).translate(_BLOCK) + word.translate(_EXPONENT) + word


# ---------------------------------------------------------------------------
# the forced sign


def relation_sign(sigma: Sequence[int], kernel: Sequence[int], twisted: bool) -> int:
    """Sign making ``w = sign . sigma(w)`` hold over a regime with this twist.

    Untwisted regimes always give +1.  A twisted regime gives the twisted
    symbol of sigma's diagram (``perm_to_partition``) at the kernel: ``-1``
    to the number of inverted position pairs lying in distinct kernel
    blocks, the odd block pairs of the diagram.  Equal indices (and an
    index against its own adjoint) commute and contribute nothing.  Both
    regimes raise ``ValueError`` for a non-permutation or a kernel of
    another length.
    """
    if len(kernel) != len(sigma):
        raise ValueError("kernel length does not match the permutation")
    diagram = _perm_diagram(tuple(sigma))
    return diagram.twisted_sign(kernel) if twisted else 1


# ---------------------------------------------------------------------------
# relation systems


@dataclass(frozen=True)
class RelationSchema:
    """One exact relation ``lhs = sign . rhs``, the rhs a rearrangement of
    the lhs's letters; the schema holds for the kernel and exponents
    written in the lhs only."""

    lhs: Word
    rhs: Word
    sign: int

    def literal(self) -> str:
        sign = "-" if self.sign == -1 else "+"
        text = f"{word_literal(self.lhs)}={sign}{word_literal(self.rhs)}"
        blocks = len(set(self.lhs.translate(_BLOCK)))
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


def monomial_system(perms: Iterable[Sequence[int]], field: Field,
                    twisted: bool) -> RelationSystem:
    """The relation system cut out by a permutation set over a regime; each
    permutation is a one-line word of the images of 1..k."""
    perms = tuple(tuple(p) for p in perms)
    for p in perms:
        _check_permutation(p)
    return RelationSystem(field, twisted, perms)


def sphere_relations(s: SphereSpec) -> RelationSystem:
    return RelationSystem(s.field, s.twisted, s.level.perms)


# ---------------------------------------------------------------------------
# group-level presets (coordinates u_ij)


# the paper's sign of abc = ±cba in the twisted half-liberated groups, by the
# number of distinct rows and columns among the three coordinates: the
# reference data `comult_sign_check` tests against the Hopf structure
SPAN_SIGN_TABLE: dict[tuple[int, int], int] = {
    (r, c): (-1 if (r == 3) != (c == 3) else 1)
    for r in (1, 2, 3) for c in (1, 2, 3)
}


def group_relation_sign(g: GroupSpec, coords: Sequence[tuple[int, int]]) -> int | None:
    """Sign in ``u_a u_b = sign u_b u_a`` (two coordinates) or
    ``u_a u_b u_c = sign u_c u_b u_a`` (three) among the coordinates
    ``u_ij`` of the group, each given as its pair ``(i, j)``; None for any
    other length, and where the group's level does not admit the reversal.

    The sign is the twisted sign of the reversal taken once at the row
    indices and once at the column indices; for the twisted half-liberated
    groups it reproduces ``SPAN_SIGN_TABLE``.
    """
    sigma = tuple(range(len(coords), 0, -1))
    if len(coords) not in (2, 3) or not g.level.admits(sigma):
        return None
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
    triples = {1: (1, 1, 1), 2: (1, 1, 2), 3: (1, 2, 3)}  # an index triple of each span
    return check_span_table({(r, c): group_relation_sign(g, tuple(zip(triples[r], triples[c])))
                             for r in triples for c in triples})


# ---------------------------------------------------------------------------
# the saturation engine


@dataclass
class _Component:
    signs: dict[Word, int]
    collapsed: bool


def _check_bounds(max_degree: int, max_indices: int) -> None:
    """Reject search bounds below 1, under which no relation can be found."""
    for name, value in (("max_degree", max_degree), ("max_indices", max_indices)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


class _Engine:
    """Signed reachability over words, with quadratic contraction.

    Every rewrite rule lives in one table from window shape to moves
    ``(image, sign)``: the shape rewrites to ``image``, and a raw window
    of that shape to ``image`` with each shape letter replaced by the
    window letter in the same position.  ``_shape_moves`` fills in a
    shape's base moves at its first lookup, so the table holds only the
    shapes the engine meets; filling in every shape up front would take
    B(m)·2^m entries for a permutation of m letters, 10.8 million at
    m = 9.  A second table maps each raw window met so far to its images
    under those moves, built when the engine first meets the window, so
    ``_shape`` runs once per distinct window.  A third indexes the raw
    windows met by shape, so a promoted rule appends its image to each of
    them at once.
    """

    def __init__(self, system: RelationSystem, max_degree: int, max_indices: int):
        self.system = system
        self.max_degree = max_degree
        self.max_indices = max_indices
        self.extra_rules: list[tuple[Word, Word, int]] = []
        self._moves: dict[Word, list[tuple[Word, int]]] = {}
        self._images: dict[Word, list[tuple[Word, int]]] = {}
        self._windows: defaultdict[Word, list[Word]] = defaultdict(list)
        self._lengths = {len(sigma) for sigma in system.perms}
        self._components: dict[Word, _Component] = {}
        self._derived_cache: dict[tuple[Word, Word], int | None] = {}
        self.truncated = False
        self.trace: list[dict] = []

    # -- classes -------------------------------------------------------

    def _shape_moves(self, shape: Word) -> list[tuple[Word, int]]:
        """The moves of a window shape, its base moves filled in first."""
        moves = self._moves.get(shape)
        if moves is None:
            kern = shape.translate(_BLOCK)
            moves = self._moves[shape] = [
                (image, relation_sign(sigma, kern, self.system.twisted))
                for sigma in self.system.perms
                if len(sigma) == len(shape)
                and (image := bytes([shape[t - 1] for t in sigma])) != shape
            ]
        return moves

    def component(self, word: Word) -> _Component:
        """The rewriting class of ``word``.  Each frontier word is expanded
        in place, window by window and move by move, a window met first
        taking its images from its shape's moves.  The order reaches no
        result: a class's words, its ``collapsed`` flag and, when not
        collapsed, its relative signs do not depend on it."""
        comp = self._components.get(word)
        if comp is not None:
            return comp
        images = self._images
        signs = {word: 1}
        collapsed = False
        frontier = [word]
        while frontier:
            nxt = []
            for u in frontier:
                su = signs[u]
                for m in self._lengths:
                    for w in range(len(u) - m + 1):
                        window = u[w:w + m]
                        moves = images.get(window)
                        if moves is None:
                            shape = _shape(window)
                            self._windows[shape].append(window)
                            to_window = bytes.maketrans(shape, window)
                            moves = images[window] = [(image.translate(to_window), sign)
                                                      for image, sign in self._shape_moves(shape)]
                        if not moves:
                            continue
                        head, tail = u[:w], u[w + m:]
                        for image, sign in moves:
                            v = head + image + tail
                            sv = su * sign
                            seen = signs.get(v)
                            if seen is None:
                                signs[v] = sv
                                nxt.append(v)
                            elif seen != sv:
                                collapsed = True
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

    def relative_sign(self, lhs: Word, rhs: Word, budget: int) -> int | None:
        """Sign s with lhs = s.rhs derivable, or None: cached, else read off
        the class of ``lhs``, else found by contraction while ``budget``
        lasts.  A collapsed class (both words provably zero) reports +1.
        ``rhs`` rearranges ``lhs``: callers pass a family instance or one
        merge of two words of a class, and every move permutes letters."""
        key = (lhs, rhs)
        if key in self._derived_cache:
            return self._derived_cache[key]
        self._derived_cache[key] = None  # cut recursion cycles
        comp = self.component(lhs)
        if rhs in comp.signs:
            result = 1 if comp.collapsed else comp.signs[rhs] * comp.signs[lhs]
        else:
            result = self._contract_search(lhs, rhs, budget) if budget > 0 else None
        self._derived_cache[key] = result
        return result

    def _contract_search(self, lhs: Word, rhs: Word, budget: int) -> int | None:
        blocks = list(dict.fromkeys(lhs.translate(_BLOCK)))
        if len(blocks) + 1 > self.max_indices:
            self.truncated = True
            return None
        if len(lhs) + 2 > self.max_degree:
            self.truncated = True
            return None
        fresh = max(blocks, default=-1) + 1
        orders = (((False, True), (True, False)) if self.system.field is Field.COMPLEX
                  else ((False, False),))
        for o1 in orders:
            pair1 = bytes((2 * fresh + o1[0], 2 * fresh + o1[1]))
            for pos1 in range(len(lhs) + 1):
                u = lhs[:pos1] + pair1 + lhs[pos1:]
                ucomp = self.component(u)
                for o2 in orders:
                    pair2 = bytes((2 * fresh + o2[0], 2 * fresh + o2[1]))
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
            merge = bytes.maketrans(bytes((2 * summed, 2 * summed + 1)),
                                    bytes((2 * c, 2 * c + 1)))
            uc, vc = u.translate(merge), v.translate(merge)
            got = self.relative_sign(uc, vc, budget - 1)
            if got is None or (got != sign and not self.component(uc).collapsed):
                return False
        return True

    def promote(self, lhs: Word, rhs: Word, sign: int):
        """Install a derived relation as the one move ``lhs -> rhs``.

        ``saturate`` hands each rule over once, read off the cached class of
        ``lhs``.  A rule whose ``rhs`` lies in that class, with the sign the
        class gives it (any sign in a collapsed class), keeps every cached
        class, exactly: a move applies to a window by its shape alone, so
        the chain of moves linking ``lhs`` to ``rhs`` also runs, with the
        same sign, inside every longer word holding a window of the same
        shape, and a collapsed class of ``lhs`` collapses that word's class
        too.  The new move thus joins only words already in one class, with
        the sign that class gives them or inside a collapsed class, whose
        signs no caller reads.  Such an implied rule is installed all the
        same: moves run one way, and a class is the same set searched from
        each of its words only with them.  A rule derived through a
        contraction has its ``rhs`` outside the class; its one move may join
        classes, so it drops them all.  The derivation cache is dropped
        either way, since it holds the ``None`` placeholders that cut
        recursion cycles.
        """
        self.extra_rules.append((lhs, rhs, sign))
        comp = self._components.get(lhs)
        implied = comp is not None and rhs in comp.signs and (
            comp.collapsed or comp.signs[rhs] * comp.signs[lhs] == sign)
        if rhs != lhs:
            # a window of the lhs's shape maps letter for letter onto lhs
            shape = _shape(lhs)
            self._shape_moves(shape).append((rhs.translate(bytes.maketrans(lhs, shape)), sign))
            for window in self._windows[shape]:
                self._images[window].append(
                    (rhs.translate(bytes.maketrans(lhs, window)), sign))
            self._lengths.add(len(lhs))
        if implied:
            self._derived_cache.clear()
        else:
            self.invalidate()


# ---------------------------------------------------------------------------
# saturation and its consumers


def _seeds(k: int, system: RelationSystem) -> Iterable[tuple[tuple[int, ...], list[Word]]]:
    """Each kernel of k letters in restricted-growth order, with its words
    over the system's regime: one per choice of adjoints, in product order."""
    stars = (0, 1) if system.field is Field.COMPLEX else (0,)
    for kern in _restricted_growth_strings(k):
        yield kern, [bytes([2 * b + s for b, s in zip(kern, exps)])
                     for exps in itertools.product(stars, repeat=k)]


def _family_instances(sigma: tuple[int, ...],
                      system: RelationSystem) -> Iterable[tuple[Word, Word, int]]:
    """All (lhs, rhs, forced sign) instances of a permutation family over
    the system's regime, skipping identically-true ones."""
    for kern, words in _seeds(len(sigma), system):
        sign = relation_sign(sigma, kern, system.twisted)
        for lhs in words:
            rhs = bytes([lhs[t - 1] for t in sigma])
            if lhs == rhs and sign == 1:
                continue
            yield lhs, rhs, sign


@dataclass
class SaturationResult:
    schemas: tuple[RelationSchema, ...]
    truncated: bool
    engine: _Engine

    def has_family(self, sigma: tuple[int, ...]) -> bool:
        """True iff every instance of the permutation family is derived."""
        return all(
            self.engine.relative_sign(lhs, rhs, 2) == sign
            for lhs, rhs, sign in _family_instances(sigma, self.engine.system)
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
    engine = _Engine(system, max_degree, max_indices)
    if track_sigmas is None:
        track_sigmas = [s for k in (2, 3)
                        for s in itertools.permutations(range(1, k + 1))
                        if s != tuple(range(1, k + 1))]
    targets = [inst for sigma in track_sigmas for inst in _family_instances(sigma, system)]

    derived: dict[tuple[Word, Word], int] = {}
    for _ in range(3):
        progress = False
        for lhs, rhs, sign in targets:
            if (lhs, rhs) in derived:
                continue
            if engine.relative_sign(lhs, rhs, 2) == sign:
                derived[(lhs, rhs)] = sign
                engine.promote(lhs, rhs, sign)
                progress = True
        if not progress:
            break

    schemas = tuple(RelationSchema(lhs, rhs, sign)
                    for (lhs, rhs), sign in sorted(derived.items()))
    return SaturationResult(schemas, engine.truncated, engine)


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
    engine = _Engine(system, max_degree, max_indices)
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

    Saturates the induced relation family and matches it against the
    levels of the regime: the identity alone gives the free sphere, and
    the classical, then the half-liberated, level gives its (twisted)
    sphere when every family of its defining permutations is derived and
    the level admits every permutation given.  Returns the sphere name, or
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
    for level in (Level.CLASSICAL, Level.HALF):
        if all(map(result.has_family, level.perms)) and all(map(level.admits, nontrivial)):
            return SphereSpec(fld, level, twisted).name
    return "undetermined"


def relation_group(system: RelationSystem, k: int) -> set[tuple[int, ...]]:
    """Permutations of k letters whose forced-sign relation family is
    derivable from the system by same-degree rewriting.

    For a sphere preset this recovers the permutations its level admits:
    all of them, the half-commuting ones, or the identity alone.
    """
    if k < 0:
        raise ValueError(f"relation_group needs k >= 0, got {k}")
    if k > 6:
        raise SizeLimitError("relation_group supports k <= 6")
    if k < 2:  # the identity alone, and an itemgetter of under two positions gives no tuple
        return {tuple(range(1, k + 1))}
    engine = _Engine(system, k, k)
    twisted = system.twisted
    alive = {sigma: operator.itemgetter(*(t - 1 for t in sigma))
             for sigma in itertools.permutations(range(1, k + 1))}
    for kern, seeds in _seeds(k, system):
        # a forced sign is computed only when a non-collapsed class reads it
        forced = functools.cache(lambda sigma, kern=kern: relation_sign(sigma, kern, True))
        for seed in seeds:
            # the identity never dies: it maps each seed to itself, sign +1
            if len(alive) == 1:
                return set(alive)
            comp = engine.component(seed)
            root = comp.signs[seed]  # signs are relative to the root
            alive = {sigma: take for sigma, take in alive.items()
                     if (got := comp.signs.get(bytes(take(seed)))) is not None
                     and (comp.collapsed or got * root == (forced(sigma) if twisted else 1))}
    return set(alive)
