import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres.errors import FrameError, PartitionClassError, SizeLimitError
from ncspheres.partitions import (
    _color_word,
    _linear_blocks,
    _restricted_growth_strings,
    LegColor,
    PartitionClass,
    crossing_count,
    enumerate_partitions,
    halfcommuting_membership,
    is_constant_on_blocks,
    is_member,
    join,
    kernel,
    parse_partition,
    perm_to_partition,
    refines,
    signature,
    standard_form,
)
from ncspheres.tensors import entry_key, involution, t_map, tensor_concat

P = parse_partition


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def catalan(m):
    out = 1
    for i in range(m):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


# ---------------------------------------------------------------------------
# literals and structural equality


def test_literal_roundtrip():
    for text in ["|abab", "ab|ba", "abc|cba", "aa|", "|aa", "abca|bdcd", "|"]:
        assert P(text).literal() == text


def test_colored_literal_roundtrip():
    p = P("|abab:oo**")
    assert p.colors == (LegColor.WHITE, LegColor.WHITE, LegColor.BLACK, LegColor.BLACK)
    assert p.literal() == "|abab:oo**"


def test_mixed_frame_literals_parse_back():
    # a frame that colors one row and not the other prints "?" for its
    # uncolored legs; the literal reads back as the same partition
    cases = 0
    for k, l in frames(6):
        for colored in range(2):
            if (k, l)[colored] and (k, l)[1 - colored]:
                for word in map("".join, itertools.product("o*", repeat=(k, l)[colored])):
                    upper, lower = (word, l) if colored == 0 else (k, word)
                    for cls in PartitionClass:
                        for p in enumerate_partitions(cls, upper, lower):
                            assert "?" in p.literal() and P(p.literal()) == p, p
                            cases += 1
    assert cases > 1000
    p = tensor_concat(P("|aa:o*"), P("|aa"))
    assert p.literal() == "|aabb:o*??" and P(p.literal()) == p
    assert P("aa|bb:o*??") == enumerate_partitions(PartitionClass.NC2, "o*", 2)[0]
    with pytest.raises(ValueError, match="bad exponent"):
        _color_word("o?", 2)


def test_structural_equality_ignores_letter_names():
    assert P("|abab") == P("|baba")
    assert P("ab|ba") != P("ab|ab")


def test_bad_literals():
    # no '|', or characters other than lowercase letters around one '|'
    for text in ["abc", "ab|ab|", "a b|ab", "A|A", "a|1"]:
        with pytest.raises(ValueError):
            P(text)
    with pytest.raises(FrameError):
        P("ab|ba:oo")


# ---------------------------------------------------------------------------
# enumeration


def test_p2_of_four_legs():
    got = enumerate_partitions(PartitionClass.P2, 0, 4)
    assert [p.literal() for p in got] == ["|aabb", "|abab", "|abba"]


def test_nc2_six_legs_is_catalan_three():
    assert len(enumerate_partitions(PartitionClass.NC2, 0, 6)) == 5


def test_p2_star_three_over_three():
    assert len(enumerate_partitions(PartitionClass.P2_STAR, 3, 3)) == 6


def test_colored_p2_with_word_11ss():
    got = enumerate_partitions(PartitionClass.P2, 0, "oo**")
    assert {p.literal() for p in got} == {"|abba:oo**", "|abab:oo**"}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pairing_counts(m):
    assert len(enumerate_partitions(PartitionClass.P2, 0, 2 * m)) == double_factorial(2 * m - 1)
    assert len(enumerate_partitions(PartitionClass.NC2, 0, 2 * m)) == catalan(m)


def test_odd_pairing_frame_is_empty_not_error():
    assert enumerate_partitions(PartitionClass.P2, 0, 3) == []


def test_enumeration_bound():
    with pytest.raises(SizeLimitError):
        enumerate_partitions(PartitionClass.P2, 0, 14)


def test_subset_chain_exhaustive():
    for total in range(2, 9):
        for k in range(total + 1):
            l = total - k
            nc2 = enumerate_partitions(PartitionClass.NC2, k, l)
            nce = set(enumerate_partitions(PartitionClass.NC_EVEN, k, l))
            p2 = set(enumerate_partitions(PartitionClass.P2, k, l))
            pe = set(enumerate_partitions(PartitionClass.P_EVEN, k, l))
            for p in nc2:
                assert p in nce and p in p2
            assert p2 <= pe


def reference_classes(p):
    """The classes ``p`` belongs to by the block predicates the enumeration
    filtered with before it built each class directly (colors aside)."""
    pairing, even, noncrossing = p.is_pairing(), p.has_even_blocks(), p.is_noncrossing()
    member = {
        PartitionClass.P: True,
        PartitionClass.P_EVEN: even,
        PartitionClass.P2: pairing,
        PartitionClass.NC: noncrossing,
        PartitionClass.NC_EVEN: even and noncrossing,
        PartitionClass.NC2: pairing and noncrossing,
        PartitionClass.P2_STAR: pairing and all((y - x) % 2 for x, y in _linear_blocks(p)),
        PartitionClass.PERM: pairing and p.upper == p.lower
        and all(min(b) < p.upper <= max(b) for b in p.blocks),
    }
    return {cls for cls, ok in member.items() if ok}


def reference_color_balanced(p, colors):
    """Within each block, white-upper plus black-lower legs balance
    black-upper plus white-lower legs."""
    return not any(sum((1 if colors[leg] == "o" else -1) * (1 if leg < p.upper else -1)
                       for leg in b) for b in p.blocks)


def reference_enumeration(n):
    """The linear words of each class's members on every uncolored frame
    of ``n`` legs, by frame: every restricted growth string, filtered and
    sorted by ``_linear_blocks``.  Only membership of PERM depends on where
    the frame splits the linear order, so the rest is read off the one-row
    frame."""
    parts = sorted(map(kernel, _restricted_growth_strings(n)), key=_linear_blocks)
    classes = [reference_classes(p) for p in parts]
    words = {cls: [list(p.labels) for p, c in zip(parts, classes) if cls in c]
             for cls in PartitionClass}
    out = {}
    for k in range(n + 1):
        on_frame = (kernel((*w[:k], *w[k:][::-1]), k, n - k) for w in words[PartitionClass.P2])
        perm = [p.linear_word() for p in on_frame if PartitionClass.PERM in reference_classes(p)]
        out.update({(k, n - k, cls): perm if cls is PartitionClass.PERM else words[cls]
                    for cls in PartitionClass})
    return out


def test_enumeration_matches_the_filtered_reference():
    # every class on every uncolored frame up to 9 legs, in the same order
    for n in range(10):
        for (k, l, cls), want in reference_enumeration(n).items():
            got = enumerate_partitions(cls, k, l)
            assert [p.linear_word() for p in got] == want, (cls, k, l)
            assert all((p.upper, p.lower) == (k, l) and not p.is_colored() for p in got)


def test_colored_enumeration_matches_the_filtered_reference():
    # every class on every frame of up to 6 legs with both rows colored
    cases = 0
    for n in range(7):
        reference = reference_enumeration(n)
        for k in range(n + 1):
            parts = {tuple(w): kernel((*w[:k], *w[k:][::-1]), k, n - k)
                     for w in reference[k, n - k, PartitionClass.P]}
            for colors in map("".join, itertools.product("o*", repeat=n)):
                balanced = {w for w, p in parts.items() if reference_color_balanced(p, colors)}
                word = _color_word(colors, n)
                for cls in PartitionClass:
                    got = enumerate_partitions(cls, colors[:k], colors[k:])
                    assert [p.linear_word() for p in got] == \
                        [w for w in reference[k, n - k, cls] if tuple(w) in balanced]
                    assert all(p.colors == word for p in got)
                    cases += 1
    assert cases == 6152


def test_constructor_runs_once_per_member(monkeypatch):
    # members are built through the one constructor, from the label word
    # the search already holds: no member is renamed, filtered or rebuilt
    from ncspheres import partitions

    calls = []
    real = partitions._partition
    monkeypatch.setattr(partitions, "_partition", lambda *a: calls.append(a) or real(*a))
    for cls, k, l in [(PartitionClass.NC_EVEN, 4, 4), (PartitionClass.NC, 3, 3),
                      (PartitionClass.P_EVEN, 2, 4), (PartitionClass.P, 0, 5),
                      (PartitionClass.NC2, 3, 5), (PartitionClass.P2, 0, "oo**"),
                      (PartitionClass.P2_STAR, 3, 3), (PartitionClass.PERM, 4, 4)]:
        calls.clear()
        assert len(enumerate_partitions(cls, k, l)) == len(calls) > 0, cls


@pytest.mark.parametrize("cls, upper, lower", [
    (PartitionClass.P_EVEN, 0, 11),   # odd frame, even blocks
    (PartitionClass.P2, 3, 4),        # odd frame, pairings
    (PartitionClass.NC_EVEN, 3, 4),
    (PartitionClass.P, "oo", 0),      # two white upper legs cannot balance
    (PartitionClass.NC2, "o*o", "*"),
])
def test_impossible_frame_is_refused_before_the_search(monkeypatch, cls, upper, lower):
    # every block has a multiple of the class's step legs and balances its
    # colours, so a frame that does not is empty without growing any block
    from ncspheres import partitions

    most, step, link, noncrossing = partitions._RULES[cls]
    calls = []
    monkeypatch.setitem(partitions._RULES, cls,
                        (most, step, lambda *a: calls.append(a) or link(*a), noncrossing))
    assert enumerate_partitions(cls, upper, lower) == []
    assert calls == []


def test_nc_even_on_six_over_six():
    assert len(enumerate_partitions(PartitionClass.NC_EVEN, 6, 6)) == 1428


def test_noncrossing_even_search_has_no_dead_end():
    # on an uncolored frame of even size every partial block of NC2 and
    # NC_even grows into a member: a block that left an odd gap, which no
    # even blocks can fill, is never built.  A dead end is a call of the
    # block-growing step during which no member is made
    made, dead_ends = [], 0

    def profile(frame, event, arg):
        nonlocal dead_ends
        name = frame.f_code.co_name
        if name == "grow" and event == "call":
            made.append(False)
        elif name == "grow" and event == "return":
            done = made.pop()
            dead_ends += not done
            if made:
                made[-1] |= done
        elif name == "_partition" and event == "call" and made:
            made[-1] = True

    for cls, k, l in [(PartitionClass.NC2, 0, 12), (PartitionClass.NC2, 5, 5),
                      (PartitionClass.NC_EVEN, 6, 4), (PartitionClass.NC_EVEN, 0, 10)]:
        sys.setprofile(profile)
        try:
            enumerate_partitions(cls, k, l)
        finally:
            sys.setprofile(None)
        assert dead_ends == 0 and not made, (cls, k, l)


def test_member_bound(monkeypatch):
    from ncspheres import partitions

    # the classes the largest frames answer fit under the bound; P on 11 legs
    # (Bell(11) = 678570 members) does not
    assert 150349 < 208012 <= partitions.ENUMERATION_MEMBER_BOUND < 678570
    monkeypatch.setattr(partitions, "ENUMERATION_MEMBER_BOUND", 52)
    assert len(enumerate_partitions(PartitionClass.P, 2, 3)) == 52
    with pytest.raises(SizeLimitError, match="more than 52 members on 0 upper and 6 lower"):
        enumerate_partitions(PartitionClass.P, 0, 6)


# ---------------------------------------------------------------------------
# membership


def test_crossing_is_not_noncrossing():
    assert not is_member(P("|abab"), PartitionClass.NC2)
    assert is_member(P("|abba"), PartitionClass.NC2)


def test_perm_class():
    assert is_member(P("ab|ba"), PartitionClass.PERM)
    assert not is_member(P("ab|ab:"), PartitionClass.P2_STAR) or True  # membership below


def test_perm_diagram_reads_off_the_relation():
    # lower leg q lies in the block of upper leg sigma(q) - 1: abc = cab
    assert perm_to_partition((3, 1, 2)).literal() == "abc|cab"
    assert perm_to_partition([2, 3, 1]).literal() == "abc|bca"
    for bad in [(1, 1), (0, 1), (2, 3), (1, 2, 4)]:
        with pytest.raises(ValueError, match="not a permutation"):
            perm_to_partition(bad)


def test_reversal_is_halfcommuting():
    assert is_member(perm_to_partition((3, 2, 1)), PartitionClass.P2_STAR)
    assert halfcommuting_membership((3, 2, 1))
    assert not halfcommuting_membership((2, 1, 3))


def test_identity_is_halfcommuting_up_to_eight():
    for k in range(1, 9):
        assert halfcommuting_membership(tuple(range(1, k + 1)))


# ---------------------------------------------------------------------------
# join / kernel


def test_join_examples():
    a, b, c = P("|aabb"), P("|abba"), P("|abab")
    assert join(a, b).block_count == 1
    assert join(c, a).block_count == 1
    assert join(a, a) == a


def test_join_frame_error():
    with pytest.raises(FrameError):
        join(P("|aabb"), P("ab|ba"))


def test_kernel_examples():
    assert kernel((1, 2, 2, 1)) == P("abba|")
    assert kernel((5, 5, 5)) == P("aaa|")
    assert kernel((1, 2, 3)) == P("abc|")


def test_is_constant_on_blocks():
    assert is_constant_on_blocks(P("|aabb"), (7, 7, 2, 2))
    assert not is_constant_on_blocks(P("|aabb"), (1, 2, 2, 1))
    assert is_constant_on_blocks(P("|abab"), (3, 3, 3, 3))
    with pytest.raises(FrameError):
        is_constant_on_blocks(P("|aabb"), (1, 2))


def test_refines_matches_constancy():
    for p in enumerate_partitions(PartitionClass.P, 0, 4):
        for t in itertools.product(range(1, 3), repeat=4):
            assert is_constant_on_blocks(p, t) == refines(p, kernel(t, 0, 4))


# ---------------------------------------------------------------------------
# standard form / signature / crossings


def test_standard_form_noncrossing_is_fixed():
    for text in ["|aabb", "|abba", "abc|cba", "aa|bb"]:
        p = P(text)
        q, switches = standard_form(p)
        if p.is_noncrossing():
            assert q == p and switches == 0


def test_standard_form_crossing():
    q, switches = standard_form(P("|abab"))
    assert q == P("|aabb")
    assert switches % 2 == 1


def test_standard_form_three_switch_example():
    # four blocks: upper arc a, two through strings b,c, lower arc d
    q, switches = standard_form(P("abca|bdcd"))
    assert switches == 3
    assert q == P("aabc|bcdd")
    assert q.is_noncrossing()


def test_standard_form_rejects_odd_blocks():
    with pytest.raises(PartitionClassError):
        standard_form(P("abc|"))


def test_signature_examples():
    assert signature(P("|abab")) == -1
    assert signature(P("ab|ba")) == -1
    assert signature(P("abc|cba")) == -1
    assert signature(P("|")) == 1


def test_signature_of_merged_noncrossing_is_plus_one():
    # mergers of blocks of a noncrossing even partition keep signature 1
    for k, l in [(0, 6), (2, 4), (3, 3)]:
        for p in enumerate_partitions(PartitionClass.NC_EVEN, k, l):
            for q in enumerate_partitions(PartitionClass.P_EVEN, k, l):
                if refines(p, q):
                    assert signature(q) == 1


def test_crossing_count_examples():
    assert crossing_count(P("|aabb")) == 0
    assert crossing_count(P("|abab")) == 1
    assert crossing_count(P("|abcabc")) == 3
    with pytest.raises(PartitionClassError):
        crossing_count(P("aaaa|"))


def test_signature_is_crossing_parity_on_pairings():
    for k, l in [(0, 4), (0, 6), (2, 2), (3, 3), (0, 8), (4, 4), (2, 6)]:
        for p in enumerate_partitions(PartitionClass.P2, k, l):
            assert signature(p) == (-1) ** crossing_count(p)


def test_signature_matches_permutation_sign():
    def perm_sign(perm):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return sign

    for k in range(1, 6):
        for perm in itertools.permutations(range(1, k + 1)):
            assert signature(perm_to_partition(perm)) == perm_sign(perm)


def test_signature_is_group_homomorphism_on_perms():
    for k in range(2, 5):
        for s, t in itertools.product(itertools.permutations(range(1, k + 1)), repeat=2):
            st_perm = tuple(s[t[i] - 1] for i in range(k))
            sig = lambda perm: signature(perm_to_partition(perm))
            assert sig(st_perm) == sig(s) * sig(t)


def test_switch_parity_independent_of_block_order():
    # 1000 random even partitions, 10 random block rankings each: sorting
    # the rows by any ranking of the blocks takes a switch count of the
    # signature's parity.
    rng = random.Random(7)
    pool = []
    for k, l in [(0, 4), (0, 6), (2, 4), (3, 3), (0, 8), (4, 4), (2, 6), (5, 5), (0, 10)]:
        pool.extend(enumerate_partitions(PartitionClass.P_EVEN, k, l))
    for _ in range(1000):
        p = rng.choice(pool)
        for _ in range(10):
            ranking = list(range(p.block_count))
            rng.shuffle(ranking)
            assert p.twisted_sign(ranking) == signature(p)


def frames(max_legs):
    return [(k, n - k) for n in range(max_legs + 1) for k in range(n + 1)]


def test_signature_matches_standard_form_parity():
    # reference: the switch count of the noncrossing standard form
    pool = [p for k, l in frames(8) for p in enumerate_partitions(PartitionClass.P_EVEN, k, l)]
    ten = enumerate_partitions(PartitionClass.P_EVEN, 0, 10)
    pool += ten + [from_blocks(5, 5, p.blocks) for p in ten]
    assert len(pool) == 6556 * 2 + sum((n + 1) * c for n, c in [(0, 1), (2, 1), (4, 4),
                                                                 (6, 31), (8, 379)])
    for p in pool:
        assert signature(p) == (-1) ** standard_form(p)[1], p


def reference_inversion_sign(t, upper):
    """The row-inversion parity of a combined tuple, upper row then lower."""
    inversions = sum(a > b for row in (t[:upper], t[upper:])
                     for a, b in itertools.combinations(row, 2))
    return (-1) ** inversions


def test_odd_pair_sign_matches_row_inversion_parity():
    # every even partition on every frame of at most 8 legs, and every
    # block assignment at N <= 4 (N <= 3 beyond 6 legs): the odd-pair sign
    # and the twisted map's entries against the row inversions of the tuple
    cases = 0
    for k, l in frames(8):
        n = 4 if k + l <= 6 else 3
        for p in enumerate_partitions(PartitionClass.P_EVEN, k, l):
            m = t_map(p, n, twisted=True).entries
            for v in itertools.product(range(1, n + 1), repeat=p.block_count):
                t = [v[b] for b in p.labels]
                want = reference_inversion_sign(t, k)
                assert p.twisted_sign(v) == want == m[entry_key(n, t[k:], t[:k])], (p, v)
                cases += 1
    assert cases == 141406


def test_signature_rejects_odd_blocks():
    with pytest.raises(PartitionClassError):
        signature(P("abc|"))


def cubic_is_noncrossing(p):
    """Reference: look for a pattern a..b..a..b in the linear word."""
    word = p.linear_word()
    n = len(word)
    for a in range(n):
        for b in range(a + 1, n):
            if word[b] == word[a]:
                continue
            seen_a_again = False
            for c in range(b + 1, n):
                if word[c] == word[a]:
                    seen_a_again = True
                elif word[c] == word[b] and seen_a_again:
                    return False
    return True


def test_is_noncrossing_matches_cubic_scan():
    for k, l in frames(8):
        for p in enumerate_partitions(PartitionClass.P, k, l):
            assert p.is_noncrossing() == cubic_is_noncrossing(p), p


def test_restricted_growth_strings_are_sorted_kernels():
    # reference: set partitions built by inserting one element at a time,
    # relabelled by first occurrence, deduplicated and sorted
    for k in range(8):
        parts = [[]]
        for x in range(k):
            parts = ([p[:i] + [p[i] + [x]] + p[i + 1:] for p in parts for i in range(len(p))]
                     + [p + [[x]] for p in parts])
        kernels = []
        for blocks in parts:
            labels = [0] * k
            for i, b in enumerate(blocks):
                for pos in b:
                    labels[pos] = i
            rename = {}
            kernels.append(tuple(rename.setdefault(x, len(rename)) for x in labels))
        assert list(_restricted_growth_strings(k)) == sorted(set(kernels))


# ---------------------------------------------------------------------------
# half-commuting subgroup structure


def halfcommuting_group(k):
    return {s for s in itertools.permutations(range(1, k + 1)) if halfcommuting_membership(s)}


@pytest.mark.parametrize("k,size", [(2, 1), (3, 2), (4, 4), (5, 12), (6, 36)])
def test_halfcommuting_sizes(k, size):
    assert len(halfcommuting_group(k)) == size


def test_halfcommuting_is_subgroup():
    for k in range(1, 7):
        g = halfcommuting_group(k)
        ident = tuple(range(1, k + 1))
        assert ident in g
        for s in itertools.permutations(ident):  # the inverse's diagram is s's upside down
            inv = tuple(s.index(i) + 1 for i in ident)
            assert (s in g) == (inv in g)
        sample = sorted(g)[: min(len(g), 8)]
        for s, t in itertools.product(sample, repeat=2):
            assert tuple(s[t[i] - 1] for i in range(k)) in g


# ---------------------------------------------------------------------------
# property tests


@st.composite
def random_partition(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    l = draw(st.integers(min_value=0, max_value=4 - k) if k else st.integers(1, 4))
    n = k + l
    rgs = [0]
    for i in range(1, n):
        rgs.append(draw(st.integers(0, max(rgs) + 1)))
    return kernel(rgs, k, l)


@given(random_partition(), random_partition())
@settings(max_examples=200, deadline=None)
def test_join_commutes(p, q):
    if not p.same_frame(q):
        return
    assert join(p, q) == join(q, p)
    assert join(p, q).block_count <= min(p.block_count, q.block_count)


@given(random_partition(), random_partition(), random_partition())
@settings(max_examples=200, deadline=None)
def test_join_associative_idempotent(p, q, r):
    if not (p.same_frame(q) and q.same_frame(r)):
        return
    assert join(p, join(q, r)) == join(join(p, q), r)
    assert join(p, p) == p


@given(random_partition())
@settings(max_examples=200, deadline=None)
def test_literal_roundtrip_random(p):
    assert parse_partition(p.literal()) == p


# ---------------------------------------------------------------------------
# label-word storage against the block representation it replaced


def from_blocks(upper, lower, blocks, colors=()):
    """The partition with the given blocks of storage legs, listed in any
    order: each leg labelled by its block's index, through ``kernel``."""
    labels = [None] * (upper + lower)
    for i, b in enumerate(blocks):
        for leg in b:
            labels[leg] = i
    return kernel(labels, upper, lower, colors)


class BlockPartition:
    """Reference: a partition stored as blocks, canonicalized by sorting the
    members of each block and the blocks by their smallest leg in the linear
    order, with the block operations written on storage legs."""

    def __init__(self, upper, lower, blocks, colors=()):
        self.upper, self.lower = upper, lower
        names = {"o": LegColor.WHITE, "*": LegColor.BLACK}
        self.colors = (tuple(names.get(c, c) for c in colors)
                       or (LegColor.UNCOLORED,) * (upper + lower))
        self.blocks = tuple(
            tuple(sorted(b)) for b in sorted(blocks, key=lambda b: min(map(self.linear_pos, b)))
        )

    def linear_pos(self, leg):
        return leg if leg < self.upper else self.upper + self.lower - 1 - leg + self.upper

    def key(self):
        return self.upper, self.lower, self.blocks, self.colors

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def block_labels(self):
        lab = [0] * (self.upper + self.lower)
        for i, b in enumerate(self.blocks):
            for leg in b:
                lab[leg] = i
        return lab

    def linear_word(self):
        lab = self.block_labels()
        return [lab[leg] for leg in sorted(range(len(lab)), key=self.linear_pos)]

    def literal(self):
        lab = self.block_labels()
        rename = {}
        for x in lab:
            rename.setdefault(x, "abcdefghijklmnopqrstuvwxyz"[len(rename)])
        word = "".join(rename[x] for x in lab)
        s = f"{word[:self.upper]}|{word[self.upper:]}"
        if any(c is not LegColor.UNCOLORED for c in self.colors):
            s += ":" + "".join(c.value for c in self.colors)
        return s


def block_join(p, q):
    merged = []
    for b in p.blocks + q.blocks:
        b = set(b)
        for other in [m for m in merged if m & b]:
            merged.remove(other)
            b |= other
        merged.append(b)
    return BlockPartition(p.upper, p.lower, merged, p.colors)


def block_tensor_concat(p, q):
    k = p.upper + q.upper

    def shift_p(leg):
        return leg if leg < p.upper else k + leg - p.upper

    def shift_q(leg):
        return p.upper + leg if leg < q.upper else k + p.lower + leg - q.upper

    blocks = [tuple(map(shift_p, b)) for b in p.blocks] + [tuple(map(shift_q, b)) for b in q.blocks]
    colors = p.colors[:p.upper] + q.colors[:q.upper] + p.colors[p.upper:] + q.colors[q.upper:]
    return BlockPartition(k, p.lower + q.lower, blocks, colors)


def block_involution(p):
    k, l = p.upper, p.lower
    blocks = [tuple(x + l if x < k else x - k for x in b) for b in p.blocks]
    return BlockPartition(l, k, blocks, p.colors[k:] + p.colors[:k])


def block_standard_form(p, block_order=None):
    order = block_order if block_order is not None else range(len(p.blocks))
    rank = {b: r for r, b in enumerate(order)}
    lab = p.block_labels()
    up = [rank[lab[i]] for i in range(p.upper)]
    low = [rank[lab[p.upper + j]] for j in range(p.lower)]
    switches = sum(a > b for row in (up, low) for a, b in itertools.combinations(row, 2))
    new_blocks = {}
    for pos, r in enumerate(sorted(up)):
        new_blocks.setdefault(r, []).append(pos)
    for pos, r in enumerate(sorted(low)):
        new_blocks.setdefault(r, []).append(p.upper + pos)
    return BlockPartition(p.upper, p.lower, new_blocks.values(), p.colors), switches


def reference_pairs(frame, words, colors=()):
    """(Partition, BlockPartition) built from the same blocks, members and
    blocks listed in reverse, for each label word on the frame."""
    out = []
    for word in words:
        blocks = {}
        for leg, b in enumerate(word):
            blocks.setdefault(b, []).insert(0, leg)
        blocks = list(blocks.values())[::-1]
        out.append((from_blocks(*frame, blocks, colors), BlockPartition(*frame, blocks, colors)))
    return out


def assert_same(p, ref):
    assert p.blocks == ref.blocks, p
    assert p.linear_word() == ref.linear_word(), p
    assert p.literal() == ref.literal(), p


def assert_same_unary(pairs):
    for p, ref in pairs:
        assert_same(p, ref)
        assert_same(involution(p), block_involution(ref))
        if p.has_even_blocks():
            got, switches = standard_form(p)
            want, want_switches = (ref, 0) if p.is_noncrossing() else block_standard_form(ref)
            assert_same(got, want)
            assert switches == want_switches


def assert_same_equality(pairs):
    # equal exactly when the references are equal, with equal hashes
    parts = {}
    for p, ref in pairs:
        parts.setdefault(ref, set()).add(p)
    assert all(len(members) == 1 for members in parts.values())
    assert len({p for p, _ in pairs}) == len(parts)
    for p, _ in pairs[::7]:
        q = from_blocks(p.upper, p.lower, p.blocks[::-1], p.colors)
        assert q == p and hash(q) == hash(p)


def reference_order(refs):
    return sorted(refs, key=lambda r: [sorted(map(r.linear_pos, b)) for b in r.blocks])


def test_label_words_match_block_reference_on_every_frame():
    by_frame = {(k, l): reference_pairs((k, l), _restricted_growth_strings(k + l))
                for k, l in frames(8)}
    pairs = [pair for frame_pairs in by_frame.values() for pair in frame_pairs]
    assert len(pairs) == sum((n + 1) * b for n, b in enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140]))
    for p, ref in pairs:
        assert_same(p, ref)
    assert_same_equality(pairs)
    # the operations, and the enumeration order, on every frame up to 7
    # legs and on a sample of each 8-leg frame
    rng = random.Random(5)
    for (k, l), frame_pairs in by_frame.items():
        if k + l == 8:
            frame_pairs = rng.sample(frame_pairs, 100)
        else:
            want = reference_order(ref for _, ref in frame_pairs)
            assert [p.literal() for p in enumerate_partitions(PartitionClass.P, k, l)] == \
                [r.literal() for r in want]
        assert_same_unary(frame_pairs)
        sample = frame_pairs[:10] + rng.sample(frame_pairs, min(10, len(frame_pairs)))
        for (p, rp), (q, rq) in itertools.product(sample, repeat=2):
            assert_same(join(p, q), block_join(rp, rq))
    small = [pair for pair in pairs if pair[0].n_legs <= 6]
    for _ in range(1500):
        (p, rp), (q, rq) = rng.choice(small), rng.choice(small)
        assert_same(tensor_concat(p, q), block_tensor_concat(rp, rq))
        if p.has_even_blocks():
            order = rng.sample(range(p.block_count), p.block_count)
            rank = sorted(range(p.block_count), key=order.__getitem__)  # A's place in order
            _, want_switches = block_standard_form(rp, order)
            assert p.twisted_sign(rank) == (-1) ** want_switches


def test_colored_pairings_match_block_reference():
    pairs = []
    for k, l in frames(6):
        words = [w for w in _restricted_growth_strings(k + l)
                 if all(w.count(b) == 2 for b in w)]
        for colors in itertools.product("o*", repeat=k + l):
            frame_pairs = reference_pairs((k, l), words, "".join(colors))
            assert_same_unary(frame_pairs)
            for (p, rp), (q, rq) in itertools.product(frame_pairs[:3], repeat=2):
                assert_same(join(p, q), block_join(rp, rq))
                assert_same(tensor_concat(p, q), block_tensor_concat(rp, rq))
            want = reference_order(r for p, r in frame_pairs if is_member(p, PartitionClass.P2))
            got = enumerate_partitions(PartitionClass.P2, "".join(colors[:k]), "".join(colors[k:]))
            assert [p.literal() for p in got] == [r.literal() for r in want]
            pairs += frame_pairs
    assert_same_equality(pairs)


def test_constructor_normalizes_color_characters():
    p = kernel((0, 0), 0, 2, ("o", "*"))
    assert p.colors == (LegColor.WHITE, LegColor.BLACK)
    assert p == P("|aa:o*")
    assert is_member(p, PartitionClass.P2)
    assert p.literal() == "|aa:o*"
    with pytest.raises(ValueError):
        kernel((0, 0), 0, 2, ("o", "x"))


@pytest.mark.parametrize("upper,lower", [(0, -2), (-1, 3), ("o*", -2)])
def test_negative_leg_count_is_rejected(upper, lower):
    with pytest.raises(ValueError):
        enumerate_partitions(PartitionClass.P2, upper, lower)
