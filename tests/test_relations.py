import itertools
import random

import pytest

from ncspheres.errors import SizeLimitError
from ncspheres.partitions import (
    _restricted_growth_strings,
    halfcommuting_membership,
    perm_to_partition,
)
from ncspheres import relations
from ncspheres.relations import (
    COMPONENT_WORD_BOUND,
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_INDICES,
    REGIMES,
    SPAN_SIGN_TABLE,
    NCCombination,
    check_span_table,
    classify_monomial_sphere,
    comult_sign_check,
    group_relation_sign,
    monomial_system,
    parse_word,
    reduce,
    relation_group,
    relation_sign,
    saturate,
    sphere_relations,
    word_literal,
    _Engine,
)
from ncspheres.tensors import delta
from ncspheres.weingarten import GROUPS, SPHERES, Field, GroupSpec, Level, sphere_by_name

REAL = Field.REAL
COMPLEX = Field.COMPLEX


def mono(text):
    return NCCombination.monomial(text)


# ---------------------------------------------------------------------------
# the forced sign


def test_relation_sign_examples():
    assert relation_sign((2, 1), (0, 1), True) == -1
    assert relation_sign((3, 2, 1), (0, 1, 2), True) == -1
    assert relation_sign((3, 2, 1), (0, 1, 0), True) == 1
    assert relation_sign((3, 2, 1), (0, 0, 1), True) == 1
    assert relation_sign((2, 1), (0, 0), True) == 1
    assert relation_sign((2, 1), (0, 1), False) == 1


@pytest.mark.parametrize("twisted", [False, True], ids=["untwisted", "twisted"])
@pytest.mark.parametrize("sigma, kern", [
    ((1, 1), (0, 1)),  # a repeated image
    ((3, 1), (0, 1)),  # an image past the length
    ((0, 1), (0, 1)),  # an image below 1
    ((2, 1), (0,)),    # a kernel shorter than sigma
    ((2, 1), (0, 1, 0)),
])
def test_relation_sign_refuses_meaningless_input(sigma, kern, twisted):
    with pytest.raises(ValueError):
        relation_sign(sigma, kern, twisted)


def reference_relation_sign(sigma, kernel):
    """Twisted sign by flipped pairs: -1 to the number of position pairs in
    distinct kernel blocks whose order the rearrangement reverses."""
    k = len(sigma)
    slot = {sigma[t] - 1: t for t in range(k)}  # position of p in the rearranged word
    inversions = 0
    for p in range(k):
        for q in range(p + 1, k):
            if kernel[p] != kernel[q] and slot[p] > slot[q]:
                inversions += 1
    return -1 if inversions % 2 else 1


def test_relation_sign_matches_flipped_pairs():
    # every permutation of S_1..S_6 with every kernel; the sign is also the
    # twisted symbol of sigma's diagram at (i, i o sigma)
    cases = 0
    for k in range(1, 7):
        kernels = list(_restricted_growth_strings(k))
        for sigma in itertools.permutations(range(1, k + 1)):
            diagram = perm_to_partition(sigma)
            for kern in kernels:
                want = reference_relation_sign(sigma, kern)
                assert relation_sign(sigma, kern, True) == want
                assert delta(diagram, [*kern, *(kern[s - 1] for s in sigma)], True) == want
                cases += 1
    assert cases == 152795


def test_relation_sign_untwisted_always_plus():
    for sigma in itertools.permutations((1, 2, 3)):
        for kern in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (0, 1, 2)]:
            assert relation_sign(sigma, kern, False) == 1


def test_relation_sign_multiplicative():
    # composing rearrangements multiplies signs, with the kernel transported
    kernels = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    for rho in itertools.permutations((1, 2, 3)):
        for sigma in itertools.permutations((1, 2, 3)):
            tau = tuple(rho[sigma[t] - 1] for t in range(3))
            for kern in kernels:
                kern_rho = tuple(kern[rho[t] - 1] for t in range(3))
                assert relation_sign(tau, kern, True) == (
                    relation_sign(rho, kern, True)
                    * relation_sign(sigma, kern_rho, True)
                )


# ---------------------------------------------------------------------------
# words, parsing, combinations


def test_parse_word_shares_the_index_frame():
    # one byte 2·block + star per letter
    assert parse_word("ab") == bytes([0, 2])
    assert parse_word("ba") == bytes([2, 0])
    assert parse_word("ab*a") == bytes([0, 3, 0])
    assert parse_word("") == b""
    assert word_literal(parse_word("ab*a")) == "ab*a"
    assert word_literal(parse_word("z*y")) == "z*y"


@pytest.mark.parametrize("text", ["aB", "a1", "é", "ab*é", "*a"])
def test_parse_word_refuses_other_letters(text):
    with pytest.raises(ValueError, match="bad word literal"):
        parse_word(text)


def _tuple_word(word):
    """The ``(block, star)`` letter tuple of a byte word."""
    return tuple((c >> 1, bool(c & 1)) for c in word)


def _tuple_order_key(word):
    """The normal-form order over ``(block, star)`` letter tuples: degree,
    kernel code, exponent word (``*`` before ``1``), letters."""
    letters = _tuple_word(word)
    rename = {}
    kern = tuple(rename.setdefault(b, len(rename)) for b, _ in letters)
    return (len(letters), kern, tuple("*" if s else "1" for _, s in letters), letters)


def test_order_key_matches_the_tuple_order():
    # every word up to degree 5 over the blocks a..d, starred letters included
    words = [bytes(w) for n in range(6) for w in itertools.product(range(8), repeat=n)]
    assert len(words) == 37449
    assert (sorted(words, key=relations._word_order_key)
            == sorted(words, key=_tuple_order_key))
    classes = {}
    for w in words:
        classes.setdefault(bytes(sorted(w)), []).append(w)
    for members in classes.values():
        assert (min(members, key=relations._word_order_key)
                == min(members, key=_tuple_order_key))


def test_combination_algebra():
    ab, ba = mono("ab"), mono("ba")
    sq = (ab - ba) ** 2
    assert sq.terms[parse_word("abab")] == 1
    assert sq.terms[parse_word("abba")] == -1
    assert len(sq.terms) == 4
    assert (ab - ab).is_zero()


# ---------------------------------------------------------------------------
# presets


def test_sphere_relation_presets():
    tw = sphere_relations(sphere_by_name("bar_s_r"))
    assert tw.perms == ((2, 1),) and tw.twisted and tw.field is REAL
    free = sphere_relations(sphere_by_name("s_c_plus"))
    assert free.perms == () and free.field is COMPLEX
    halfc = sphere_relations(sphere_by_name("bar_s_c_star2"))
    assert halfc.perms == ((3, 2, 1),) and halfc.twisted
    # the twisted complex half preset forces abc = -cba on distinct and
    # + otherwise, whatever the adjoints
    (sigma,) = halfc.perms
    assert relation_sign(sigma, (0, 1, 2), halfc.twisted) == -1
    assert relation_sign(sigma, (0, 1, 0), halfc.twisted) == 1


def test_group_relation_presets():
    bar_o = GroupSpec(REAL, Level.CLASSICAL, True)
    assert group_relation_sign(bar_o, ((1, 1), (1, 2))) == -1  # same row
    assert group_relation_sign(bar_o, ((1, 1), (2, 1))) == -1  # same column
    assert group_relation_sign(bar_o, ((1, 1), (2, 2))) == 1
    assert group_relation_sign(bar_o, ((1, 1), (1, 1))) == 1
    o_n = GroupSpec(REAL, Level.CLASSICAL)
    assert group_relation_sign(o_n, ((1, 1), (1, 2))) == 1
    free = GroupSpec(REAL, Level.FREE)
    assert group_relation_sign(free, ((1, 1), (1, 2))) is None
    bar_star = GroupSpec(REAL, Level.HALF, True)
    assert group_relation_sign(bar_star, ((1, 1), (1, 2))) is None
    assert group_relation_sign(bar_star, ((1, 1), (2, 2), (3, 3))) == 1   # span (3,3)
    assert group_relation_sign(bar_star, ((1, 1), (2, 1), (3, 1))) == -1  # span (3,1)
    assert group_relation_sign(bar_star, ((1, 1), (1, 2), (2, 3))) == -1  # span (2,3)
    # every level admits the one-letter reversal, and P2 the four-letter one,
    # so there only the length guard gives None
    for g in GROUPS:
        for n in (0, 1, 4):
            assert group_relation_sign(g, tuple((i, i) for i in range(1, n + 1))) is None, g.name


def reference_pair_sign(g, a, b):
    """The commutation sign of u_a and u_b written out by hand."""
    if g.level is not Level.CLASSICAL:
        return None
    if not g.twisted:
        return 1
    if a != b and (a[0] == b[0] or a[1] == b[1]):
        return -1
    return 1


def reference_triple_sign(g, a, b, c):
    """The sign of abc = ±cba: a product of pair signs at the classical
    level, the span table at the half-liberated one."""
    if g.level is Level.FREE:
        return None
    if not g.twisted:
        return 1
    if g.level is Level.CLASSICAL:
        return (reference_pair_sign(g, a, b) * reference_pair_sign(g, a, c)
                * reference_pair_sign(g, b, c))
    return SPAN_SIGN_TABLE[(len({a[0], b[0], c[0]}), len({a[1], b[1], c[1]}))]


def test_group_relation_sign_matches_the_hand_rules():
    # every pair and triple of the 9 coordinates at N = 3, for all ten groups
    coords = list(itertools.product((1, 2, 3), repeat=2))
    cases = 0
    for g in GROUPS:
        for a, b in itertools.product(coords, repeat=2):
            assert group_relation_sign(g, (a, b)) == reference_pair_sign(g, a, b), (g, a, b)
            cases += 1
        for a, b, c in itertools.product(coords, repeat=3):
            assert group_relation_sign(g, (a, b, c)) == reference_triple_sign(g, a, b, c), (
                g, a, b, c)
            cases += 1
    assert cases == 8100


def test_half_level_triple_signs_are_the_span_table():
    coords = list(itertools.product((1, 2, 3), repeat=2))
    seen = set()
    for g in GROUPS:
        if g.level is not Level.HALF or not g.twisted:
            continue
        for triple in itertools.product(coords, repeat=3):
            span = tuple(len({x[axis] for x in triple}) for axis in (0, 1))
            assert group_relation_sign(g, triple) == SPAN_SIGN_TABLE[span], (g, triple)
            seen.add(span)
    assert seen == set(SPAN_SIGN_TABLE)


# ---------------------------------------------------------------------------
# the span sign table


def test_comult_sign_check_passes():
    assert comult_sign_check(GroupSpec(REAL, Level.HALF, True))
    assert comult_sign_check(GroupSpec(COMPLEX, Level.HALF, True))
    with pytest.raises(ValueError):
        comult_sign_check(GroupSpec(REAL, Level.CLASSICAL, True))


def test_comult_sign_check_reads_the_group_signs(monkeypatch):
    # the formula with one span's sign flipped fails the check
    real_sign = relations.group_relation_sign

    def flipped(g, coords):
        rows, cols = zip(*coords)
        sign = real_sign(g, coords)
        return -sign if (len(set(rows)), len(set(cols))) == (1, 3) else sign

    monkeypatch.setattr(relations, "group_relation_sign", flipped)
    for fld in (REAL, COMPLEX):
        assert not comult_sign_check(GroupSpec(fld, Level.HALF, True))


def test_span_table_perturbations_fail():
    for cell in SPAN_SIGN_TABLE:
        table = dict(SPAN_SIGN_TABLE)
        table[cell] = -table[cell]
        assert not check_span_table(table)


# ---------------------------------------------------------------------------
# saturation


def test_saturate_three_cycle_gives_commutation():
    res = saturate(monomial_system([(3, 1, 2)], REAL, False))
    assert any(s.literal() == "ab=+ba[a≠b]" for s in res.schemas)
    assert not res.truncated


def test_saturate_twisted_three_cycle_gives_anticommutation():
    res = saturate(monomial_system([(3, 1, 2)], REAL, True))
    assert any(s.literal() == "ab=-ba[a≠b]" for s in res.schemas)


def test_saturate_depth4_halfcase():
    res = saturate(monomial_system([(3, 4, 1, 2)], REAL, False))
    # derives the degree-3 reversal on distinct letters (ade = eda)
    assert any(s.literal() == "abc=+cba[a≠b≠c]" for s in res.schemas)
    # but not plain commutation
    assert not any(
        len(s.lhs) == 2 and len({c >> 1 for c in s.lhs}) == 2 for s in res.schemas
    )


def test_saturate_inclusion_twisted_classical_into_half():
    # ab=-ba (distinct) derives abc=-cba (distinct) and abc=cba otherwise
    res = saturate(monomial_system([(2, 1)], REAL, True))
    lits = {s.literal() for s in res.schemas}
    assert "abc=-cba[a≠b≠c]" in lits
    assert "aab=+baa[a≠b]" in lits
    assert "aba=+aba" not in lits  # identically true instances are skipped


def test_saturate_complex_mixed_exponents():
    res = saturate(monomial_system([(3, 1, 2)], COMPLEX, True))
    lits = {s.literal() for s in res.schemas}
    assert "ab*=-b*a[a≠b]" in lits
    assert "aa*=+a*a" in lits


def test_saturated_engine_has_family():
    res = saturate(monomial_system([(3, 1, 2)], REAL, True))
    assert res.has_family((2, 1))
    res_half = saturate(monomial_system([(3, 2, 1)], REAL, False))
    assert res_half.has_family((3, 2, 1))
    assert not res_half.has_family((2, 1))


# ---------------------------------------------------------------------------
# the rule table against a linear scan over the rules


def _match_pattern(pattern, seg):
    """Exact-kernel match of a segment against a rule pattern: bijective on
    blocks, star pattern equal; returns the block substitution."""
    sub = {}
    used = set()
    for (pb, ps), (sb, ss) in zip(_tuple_word(pattern), _tuple_word(seg)):
        if ps != ss:
            return None
        if pb in sub:
            if sub[pb] != sb:
                return None
        else:
            if sb in used:
                return None
            sub[pb] = sb
            used.add(sb)
    return sub


def _reference_neighbors(engine, word):
    """Every base permutation and every promoted rule tried on every window,
    over ``(block, star)`` letter tuples; yields byte words."""
    letters = _tuple_word(word)
    n = len(letters)

    def spliced(w, m, img):
        return bytes(2 * b + s for b, s in letters[:w] + img + letters[w + m:])

    for sigma in engine.system.perms:
        m = len(sigma)
        for w in range(n - m + 1):
            seg = letters[w:w + m]
            img = tuple(seg[sigma[t] - 1] for t in range(m))
            if img == seg:
                continue
            sign = relation_sign(sigma, [b for b, _ in seg], engine.system.twisted)
            yield spliced(w, m, img), sign
    for lhs, rhs, sign in engine.extra_rules:
        m = len(lhs)
        for w in range(n - m + 1):
            seg = letters[w:w + m]
            sub = _match_pattern(lhs, word[w:w + m])
            if sub is None:
                continue
            img = tuple((sub[b], s) for b, s in _tuple_word(rhs))
            if img == seg:
                continue
            yield spliced(w, m, img), sign


def _reference_class(engine, root):
    """Breadth-first search from ``root`` over ``_reference_neighbors``:
    each word reached with its sign relative to ``root``, and whether some
    word is reached with both signs."""
    signs = {root: 1}
    collapsed = False
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v, sign in _reference_neighbors(engine, u):
                if v not in signs:
                    signs[v] = signs[u] * sign
                    nxt.append(v)
                elif signs[v] != signs[u] * sign:
                    collapsed = True
        frontier = nxt
    return signs, collapsed


def _assert_classes_match_reference(engine):
    """Every cached class equals the reference search from its root, the
    word it was built from: same words, same ``collapsed`` flag, and the
    same relative signs when not collapsed."""
    classes = {id(comp): comp for comp in engine._components.values()}
    assert classes
    for cached in classes.values():
        root = next(iter(cached.signs))
        signs, collapsed = _reference_class(engine, root)
        assert signs.keys() == cached.signs.keys(), (engine.system, root)
        assert collapsed == cached.collapsed, (engine.system, root)
        if not collapsed:
            for u, sign in signs.items():
                assert cached.signs[u] * cached.signs[root] == sign, (engine.system, root, u)


class _InvalidatingEngine(_Engine):
    """Reference engine: every promoted rule drops every cached class."""

    def promote(self, lhs, rhs, sign):
        super().promote(lhs, rhs, sign)
        self.invalidate()


def _assert_cached_classes_match_fresh_search(engine):
    """Every cached class equals a search from scratch under the engine's
    final move table, started from each of a seeded sample of up to five
    of its words: same words, same ``collapsed`` flag, and the same
    relative signs when not collapsed.  So a class is one set whichever
    of its words the search starts from."""
    rng = random.Random(0)
    classes = {id(comp): comp for comp in engine._components.values()}
    for cached in classes.values():
        words = list(cached.signs)
        for start in rng.sample(words, min(5, len(words))):
            engine.invalidate()
            fresh = engine.component(start)
            assert fresh.signs.keys() == cached.signs.keys(), (engine.system, start)
            assert fresh.collapsed == cached.collapsed, (engine.system, start)
            if not cached.collapsed:
                for u, sign in cached.signs.items():
                    assert fresh.signs[u] * fresh.signs[start] == sign * cached.signs[start], (
                        engine.system, start, u)


@pytest.mark.parametrize("regime", list(REGIMES))
def test_rule_table_matches_linear_scan_after_saturation(monkeypatch, regime):
    # every S_3 and S_4 singleton, with the components classify visits; the
    # engine keeps a class across a rule promotion when the rule's two sides
    # already lie in it, the reference drops every class each time
    field, twisted = REGIMES[regime]
    for k in (3, 4):
        for perm in itertools.permutations(range(1, k + 1)):
            system = monomial_system([perm], field, twisted)
            verdict = classify_monomial_sphere([perm], regime)
            res = saturate(system)
            with monkeypatch.context() as patch:
                patch.setattr(relations, "_Engine", _InvalidatingEngine)
                assert classify_monomial_sphere([perm], regime) == verdict, perm
                ref = saturate(system)
            assert type(ref.engine) is _InvalidatingEngine
            assert (res.schemas, res.truncated) == (ref.schemas, ref.truncated), perm
            res.has_family((2, 1))
            res.has_family((3, 2, 1))
            _assert_classes_match_reference(res.engine)
            _assert_cached_classes_match_fresh_search(res.engine)


def test_rule_table_matches_linear_scan_on_relation_group_engines():
    # the engine relation_group builds for each sphere preset, at degree 4
    k = 4
    for sphere in SPHERES:
        system = sphere_relations(sphere)
        engine = _Engine(system, k, k)
        exps = (False, True) if system.field is COMPLEX else (False,)
        for kern in _restricted_growth_strings(k):
            for stars in itertools.product(exps, repeat=k):
                engine.component(bytes(2 * b + s for b, s in zip(kern, stars)))
        _assert_classes_match_reference(engine)


def test_move_table_fills_only_the_shapes_a_search_meets():
    # every window of abcd's class has the shape abcd; filling every shape
    # of four letters up front would take B(4)·2^4 = 240 entries
    engine = _Engine(monomial_system([(2, 1, 3, 4)], COMPLEX, False), DEFAULT_MAX_DEGREE,
                     DEFAULT_MAX_INDICES)
    assert set(engine.component(parse_word("abcd")).signs) == {parse_word("abcd"),
                                                                parse_word("bacd")}
    assert list(engine._moves) == [parse_word("abcd")]


def test_rule_table_matches_linear_scan_on_hand_promoted_rules():
    # rules saturate never promotes: a pattern not numbered by first
    # occurrence, and a rule that fixes its own pattern
    engine = _Engine(monomial_system([(2, 1)], COMPLEX, True), DEFAULT_MAX_DEGREE,
                     DEFAULT_MAX_INDICES)
    engine.promote(parse_word("ba*c"), parse_word("cba*"), -1)
    engine.promote(parse_word("ab"), parse_word("ab"), -1)
    for kern in _restricted_growth_strings(4):
        for stars in itertools.product((False, True), repeat=4):
            engine.component(bytes(2 * b + s for b, s in zip(kern, stars)))
    _assert_classes_match_reference(engine)


def test_rule_table_moves_starred_words_in_the_real_regime():
    # the base permutations act on every window, starred letters included
    out, _ = reduce(mono("ab*") - mono("b*a"), monomial_system([(2, 1)], REAL, False))
    assert out.is_zero()


# ---------------------------------------------------------------------------
# reduce


def test_reduce_squared_commutator_under_three_cycle():
    ab, ba = mono("ab"), mono("ba")
    out, trace = reduce((ab - ba) ** 2, monomial_system([(3, 1, 2)], REAL, False))
    assert out.is_zero()
    assert all(t["result"].lstrip("+-") == "aabb" for t in trace)


def test_reduce_squared_anticommutator_twisted():
    ab, ba = mono("ab"), mono("ba")
    out, trace = reduce((ab + ba) ** 2, monomial_system([(3, 1, 2)], REAL, True))
    assert out.is_zero()
    signs = sorted(t["result"][0] for t in trace)
    assert signs == ["+", "+", "-", "-"]


def test_reduce_free_system_is_identity():
    ab, ba = mono("ab"), mono("ba")
    out, _ = reduce(ab - ba, monomial_system([], REAL, False))
    assert out == ab - ba


def test_reduce_degree_bound():
    with pytest.raises(SizeLimitError):
        reduce(mono("abababa"), monomial_system([(2, 1)], REAL, False))


@pytest.mark.parametrize("word", ["abcdefghi", "abcdefghij", "ab" * 12])
def test_reduce_refuses_a_rewriting_class_past_the_word_bound(word):
    # every rearrangement of these words lies in one class: 9!, 10! and
    # C(24, 12) words, all past the bound of 8! words
    system = monomial_system([(2, 1)], REAL, False)
    with pytest.raises(SizeLimitError, match=str(COMPONENT_WORD_BOUND)):
        reduce(mono(word), system, max_degree=len(word))


def test_reduce_keeps_small_classes_of_long_words():
    # the bound counts the words a class holds, not its degree: a class of
    # a few words past degree 8 is still reduced
    word = "ab" * 12
    out, _ = reduce(mono(word), monomial_system([], REAL, False), max_degree=24)
    assert out == mono(word)
    # ten words: the places of b among nine a's
    out, _ = reduce(mono("b" + "a" * 9), monomial_system([(2, 1)], REAL, False),
                    max_degree=10)
    assert out == mono("a" * 9 + "b")


# ---------------------------------------------------------------------------
# classification


S3_EXPECT = {
    (1, 2, 3): "plus",
    (2, 1, 3): "classical",
    (1, 3, 2): "classical",
    (2, 3, 1): "classical",
    (3, 1, 2): "classical",
    (3, 2, 1): "star",
}

SPHERE_OF = {
    ("real", "plus"): "s_r_plus",
    ("real", "classical"): "s_r",
    ("real", "star"): "s_r_star",
    ("real_twisted", "plus"): "s_r_plus",
    ("real_twisted", "classical"): "bar_s_r",
    ("real_twisted", "star"): "bar_s_r_star",
    ("complex", "plus"): "s_c_plus",
    ("complex", "classical"): "s_c",
    ("complex", "star"): "s_c_star2",
    ("complex_twisted", "plus"): "s_c_plus",
    ("complex_twisted", "classical"): "bar_s_c",
    ("complex_twisted", "star"): "bar_s_c_star2",
}


def test_relative_sign_is_asked_only_about_rearrangements(monkeypatch):
    # relative_sign assumes, and does not check, that its two words are
    # rearrangements: over every S_3 and S_4 singleton in each regime, every
    # caller's are
    calls = []
    original = _Engine.relative_sign

    def recording(self, lhs, rhs, budget):
        calls.append((lhs, rhs))
        return original(self, lhs, rhs, budget)

    monkeypatch.setattr(_Engine, "relative_sign", recording)
    for regime in REGIMES:
        for k in (3, 4):
            for perm in itertools.permutations(range(1, k + 1)):
                classify_monomial_sphere([perm], regime)
    assert len(calls) > 10000
    assert all(sorted(lhs) == sorted(rhs) for lhs, rhs in calls)


@pytest.mark.parametrize("regime", ["real", "real_twisted", "complex", "complex_twisted"])
def test_classify_depth3(regime):
    for perm, level in S3_EXPECT.items():
        assert classify_monomial_sphere([perm], regime) == SPHERE_OF[(regime, level)]


@pytest.mark.parametrize("regime", ["real", "complex_twisted"])
def test_classify_depth4_no_new_spheres(regime):
    for perm in itertools.permutations((1, 2, 3, 4)):
        got = classify_monomial_sphere([perm], regime)
        assert got != "undetermined"
        if perm == (1, 2, 3, 4):
            level = "plus"
        elif halfcommuting_membership(perm):
            level = "star"
        else:
            level = "classical"
        assert got == SPHERE_OF[(regime, level)]


def test_classify_is_idempotent_on_presets():
    # classifying the defining permutation set of each sphere returns it
    for name, regime, perms in [
        ("s_r", "real", [(2, 1)]),
        ("s_r_star", "real", [(3, 2, 1)]),
        ("s_r_plus", "real", []),
        ("bar_s_r", "real_twisted", [(2, 1)]),
        ("bar_s_r_star", "real_twisted", [(3, 2, 1)]),
        ("s_c", "complex", [(2, 1)]),
        ("s_c_star2", "complex", [(3, 2, 1)]),
        ("s_c_plus", "complex", []),
        ("bar_s_c", "complex_twisted", [(2, 1)]),
        ("bar_s_c_star2", "complex_twisted", [(3, 2, 1)]),
    ]:
        assert classify_monomial_sphere(perms, regime) == name


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_monomial_sphere([(1, 1, 2)], "real")
    with pytest.raises(SizeLimitError):
        classify_monomial_sphere([(5, 4, 3, 2, 1)], "real")


# ---------------------------------------------------------------------------
# relation groups


def test_relation_group_sizes():
    half = sphere_relations(sphere_by_name("s_r_star"))
    for k, size in [(3, 2), (4, 4), (5, 12), (6, 36)]:
        assert len(relation_group(half, k)) == size
    classical = sphere_relations(sphere_by_name("s_r"))
    assert len(relation_group(classical, 3)) == 6
    free = sphere_relations(sphere_by_name("s_r_plus"))
    assert relation_group(free, 3) == {(1, 2, 3)}


def test_relation_group_rejects_negative_k():
    with pytest.raises(ValueError, match="k >= 0"):
        relation_group(sphere_relations(sphere_by_name("s_r")), -1)


@pytest.mark.parametrize("bounds", [
    dict(max_degree=0), dict(max_degree=-1), dict(max_indices=0), dict(max_indices=-3),
])
def test_search_bounds_below_one_are_rejected(bounds):
    system = monomial_system([(2, 1)], REAL, False)
    with pytest.raises(ValueError, match="at least 1"):
        saturate(system, **bounds)
    with pytest.raises(ValueError, match="at least 1"):
        reduce(NCCombination.monomial(parse_word("ab")), system, **bounds)
    for perms in ([(3, 2, 1)], [(1, 2)]):
        with pytest.raises(ValueError, match="at least 1"):
            classify_monomial_sphere(perms, "real", **bounds)


def test_relation_group_of_the_empty_word_is_trivial():
    assert relation_group(sphere_relations(sphere_by_name("s_r")), 0) == {()}


def test_relation_group_up_to_two_letters():
    # a classical, a half-liberated and a free preset: k <= 1 leaves the
    # identity alone, and k = 2 keeps the swap at the classical level only
    for name, swaps in (("s_r", True), ("bar_s_c_star2", False), ("s_c_plus", False)):
        system = sphere_relations(sphere_by_name(name))
        assert relation_group(system, 0) == {()}
        assert relation_group(system, 1) == {(1,)}
        assert relation_group(system, 2) == ({(1, 2), (2, 1)} if swaps else {(1, 2)}), name


def test_relation_group_matches_halfcommuting_predicate():
    # each preset's relation group is what its level admits, and at the half
    # level that is the half-commuting predicate
    for s in SPHERES:
        for k in (2, 3, 4):
            perms = list(itertools.permutations(range(1, k + 1)))
            got = relation_group(sphere_relations(s), k)
            assert got == {p for p in perms if s.level.admits(p)}, (s.name, k)
            if s.level is Level.HALF:
                assert got == {p for p in perms if halfcommuting_membership(p)}, (s.name, k)


def _full_scan_relation_group(system, k):
    """``relation_group`` without its early return: every permutation is
    tried on every seed of every kernel."""
    engine = _Engine(system, k, k)
    exps = (False, True) if system.field is COMPLEX else (False,)
    alive = set(itertools.permutations(range(1, k + 1)))
    for kern in _restricted_growth_strings(k):
        for stars in itertools.product(exps, repeat=k):
            seed = bytes(2 * b + s for b, s in zip(kern, stars))
            comp = engine.component(seed)
            root = comp.signs[seed]
            for sigma in list(alive):
                got = comp.signs.get(bytes(seed[t - 1] for t in sigma))
                want = relation_sign(sigma, kern, system.twisted)
                if got is None or (got * root != want and not comp.collapsed):
                    alive.discard(sigma)
    return alive


def test_relation_group_matches_the_full_scan_on_presets():
    # k = 6 is the largest relation_group; the real presets reach it cheaply
    for sphere in SPHERES:
        system = sphere_relations(sphere)
        for k in range(7 if sphere.field is REAL else 6):
            assert relation_group(system, k) == _full_scan_relation_group(system, k), (
                sphere.name, k)


@pytest.mark.parametrize("regime", list(REGIMES))
def test_relation_group_matches_the_full_scan_on_s3_singletons(regime):
    for perm in itertools.permutations((1, 2, 3)):
        system = monomial_system([perm], *REGIMES[regime])
        for k in range(6):
            assert relation_group(system, k) == _full_scan_relation_group(system, k), (
                perm, k)


def test_relation_group_stops_once_only_the_identity_is_left(monkeypatch):
    # the relation_group of `saturate --sphere s_c_plus --k 6`: the free
    # system kills every other permutation within a few seeds, where a
    # scan of every seed builds 12992 singleton classes
    built = []
    component = _Engine.component

    def counting(self, word):
        if word not in self._components:
            built.append(word)
        return component(self, word)

    monkeypatch.setattr(_Engine, "component", counting)
    group = relation_group(sphere_relations(sphere_by_name("s_c_plus")), 6)
    assert group == {(1, 2, 3, 4, 5, 6)}
    assert len(built) <= 64


def test_relation_group_is_a_subgroup():
    for name in ["s_r", "s_r_star", "s_r_plus", "bar_s_r", "bar_s_r_star",
                 "s_c", "s_c_star2", "s_c_plus", "bar_s_c", "bar_s_c_star2"]:
        sys = sphere_relations(sphere_by_name(name))
        for k in (3, 4):
            g = relation_group(sys, k)
            ident = tuple(range(1, k + 1))
            assert ident in g
            for s in g:
                inv = tuple(s.index(i) + 1 for i in range(1, k + 1))
                assert inv in g
                for t in g:
                    assert tuple(s[t[i] - 1] for i in range(k)) in g
