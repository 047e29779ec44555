import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres.errors import FrameError, PartitionClassError, SizeLimitError
from ncspheres.partitions import (
    _restricted_growth_strings,
    _row_inversions,
    LegColor,
    Partition,
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


def test_structural_equality_ignores_letter_names():
    assert P("|abab") == P("|baba")
    assert P("ab|ba") != P("ab|ab")


def test_bad_literals():
    with pytest.raises(ValueError):
        P("abc")
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


def test_nc2_pruning_keeps_the_unpruned_list(monkeypatch):
    # the NC2 recursion skips crossing partners, in the linear order; the
    # membership filter and the final sort stay, so the lists must agree.
    # The pruning reads no colours: a colour word only filters after it
    from ncspheres import partitions

    frames = [(k, n - k) for n in range(0, 13, 2) for k in range(n + 1)]
    for n in range(2, 9, 2):
        for word in map("".join, itertools.product("o*", repeat=n)):
            frames += [(0, word)] + [(word[:k], word[k:]) for k in range(1, n) if n <= 6]
    frames += [(0, "o*" * 5), (0, "*o" * 5), (0, "ooooo*****"), (0, "o*" * 6),
               (0, "oo**" * 3), ("o*o*o*", "*o*o*o"), ("ooo", "***o*o*o*")]
    pruned = [enumerate_partitions(PartitionClass.NC2, k, l) for k, l in frames]
    real = partitions._pairing_words
    monkeypatch.setattr(partitions, "_pairing_words", lambda n, noncrossing=False: real(n))
    assert [enumerate_partitions(PartitionClass.NC2, k, l) for k, l in frames] == pruned
    for n in range(0, 13, 2):
        expect = [w for w in real(n) if partitions.kernel(w).is_noncrossing()]
        assert list(real(n, noncrossing=True)) == expect


# ---------------------------------------------------------------------------
# membership


def test_crossing_is_not_noncrossing():
    assert not is_member(P("|abab"), PartitionClass.NC2)
    assert is_member(P("|abba"), PartitionClass.NC2)


def test_perm_class():
    assert is_member(P("ab|ba"), PartitionClass.PERM)
    assert not is_member(P("ab|ab:"), PartitionClass.P2_STAR) or True  # membership below


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
    from math import prod

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
    # 1000 random even partitions, 10 random block rankings each: the row
    # sorting reaches a (generally different) noncrossing form, and the
    # switch parity never changes.
    rng = random.Random(7)
    pool = []
    for k, l in [(0, 4), (0, 6), (2, 4), (3, 3), (0, 8), (4, 4), (2, 6), (5, 5), (0, 10)]:
        pool.extend(enumerate_partitions(PartitionClass.P_EVEN, k, l))
    for _ in range(1000):
        p = rng.choice(pool)
        _, base = standard_form(p)
        for _ in range(10):
            order = list(range(p.block_count))
            rng.shuffle(order)
            q, switches = standard_form(p, block_order=order)
            assert q.is_noncrossing()
            assert switches % 2 == base % 2


def frames(max_legs):
    return [(k, n - k) for n in range(max_legs + 1) for k in range(n + 1)]


def test_signature_matches_standard_form_parity():
    # reference: the switch count of the noncrossing standard form
    pool = [p for k, l in frames(8) for p in enumerate_partitions(PartitionClass.P_EVEN, k, l)]
    ten = enumerate_partitions(PartitionClass.P_EVEN, 0, 10)
    pool += ten + [Partition(5, 5, p.blocks) for p in ten]
    assert len(pool) == 6556 * 2 + sum((n + 1) * c for n, c in [(0, 1), (2, 1), (4, 4),
                                                                 (6, 31), (8, 379)])
    for p in pool:
        assert signature(p) == (-1) ** standard_form(p)[1], p


def reference_inversion_sign(t, upper):
    """The row-inversion parity of a combined tuple, upper row then lower."""
    return (-1) ** (_row_inversions(t[:upper]) + _row_inversions(t[upper:]))


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
    for k in range(2, 7):
        g = halfcommuting_group(k)
        ident = tuple(range(1, k + 1))
        assert ident in g
        for s in g:
            inv = tuple(s.index(i) + 1 for i in range(1, k + 1))
            assert inv in g
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
    blocks = {}
    for leg, b in enumerate(rgs):
        blocks.setdefault(b, []).append(leg)
    return Partition(k, l, tuple(tuple(b) for b in blocks.values()))


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
        out.append((Partition(*frame, blocks, colors), BlockPartition(*frame, blocks, colors)))
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
            got, switches = standard_form(p, block_order=range(p.block_count))
            want, want_switches = block_standard_form(ref)
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
        q = Partition(p.upper, p.lower, p.blocks[::-1], p.colors)
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
            got, switches = standard_form(p, block_order=order)
            want, want_switches = block_standard_form(rp, order)
            assert_same(got, want)
            assert switches == want_switches


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
    p = Partition(0, 2, ((0, 1),), ("o", "*"))
    assert p.colors == (LegColor.WHITE, LegColor.BLACK)
    assert p == P("|aa:o*")
    assert is_member(p, PartitionClass.P2)
    assert p.literal() == "|aa:o*"
    with pytest.raises(ValueError):
        Partition(0, 2, ((0, 1),), ("o", "x"))


@pytest.mark.parametrize("upper,lower", [(0, -2), (-1, 3), ("o*", -2)])
def test_negative_leg_count_is_rejected(upper, lower):
    with pytest.raises(ValueError):
        enumerate_partitions(PartitionClass.P2, upper, lower)
