import functools
import itertools
import random

import numpy as np
import pytest

from ncspheres.errors import FrameError, PartitionClassError
from ncspheres.partitions import (
    LegColor,
    PartitionClass,
    enumerate_partitions,
    is_constant_on_blocks,
    join,
    kernel,
    parse_partition,
    standard_form,
)
from ncspheres.tensors import (
    SparseTensorMap,
    compose,
    delta,
    entry_key,
    inner_product,
    involution,
    t_entries,
    t_map,
    tensor_concat,
    xi_vector,
)

P = parse_partition


def even_partitions(k, l):
    return enumerate_partitions(PartitionClass.P_EVEN, k, l)


# ---------------------------------------------------------------------------
# delta


def test_delta_crossing():
    cr = P("|abab")
    assert delta(cr, (1, 2, 1, 2), twisted=True) == -1
    assert delta(cr, (1, 1, 1, 1), twisted=True) == 1
    assert delta(cr, (1, 2, 1, 2), twisted=False) == 1
    assert delta(cr, (1, 2, 2, 1), twisted=False) == 0


def test_delta_frame_check():
    with pytest.raises(FrameError):
        delta(P("|abab"), (1, 2, 1))


def test_twisted_delta_matches_kernel_standard_form():
    # reference: the switch parity of the kernel of the tuple on the frame
    for n_legs in range(0, 7, 2):
        for k in range(n_legs + 1):
            for p in even_partitions(k, n_legs - k):
                for n in range(1, 4):
                    for t in itertools.product(range(1, n + 1), repeat=n_legs):
                        want = (-1) ** standard_form(kernel(t, k, n_legs - k))[1] \
                            if is_constant_on_blocks(p, t) else 0
                        assert delta(p, t, twisted=True) == want, (p, t)


@pytest.mark.parametrize("t", [(1, 1), (1, 2)])
def test_twisted_delta_rejects_odd_blocks(t):
    with pytest.raises(PartitionClassError):
        delta(P("ab|"), t, twisted=True)


# ---------------------------------------------------------------------------
# explicit twisted maps


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twisted_crossing_map(n):
    m = t_map(P("ab|ba"), n, twisted=True)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected = 1 if i == j else -1
            assert m.entries[entry_key(n, (j, i), (i, j))] == expected
    assert len(m.entries) == n * n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twisted_reversal_map(n):
    m = t_map(P("abc|cba"), n, twisted=True)
    for t in itertools.product(range(1, n + 1), repeat=3):
        i, j, k = t
        expected = -1 if len({i, j, k}) == 3 else 1
        assert m.entries[entry_key(n, (k, j, i), (i, j, k))] == expected


def test_twist_trivial_on_noncrossing():
    for k in range(0, 5):
        for l in range(0, 9 - k):
            if (k + l) % 2 or k + l == 0 or k + l > 8:
                continue
            for p in enumerate_partitions(PartitionClass.NC_EVEN, k, l):
                for n in (2, 3):
                    assert t_map(p, n, twisted=True) == t_map(p, n, twisted=False)


def test_twisted_map_rejects_odd_blocks():
    with pytest.raises(PartitionClassError):
        t_map(P("abc|"), 2, twisted=True)


def test_sparsity_count():
    for p in even_partitions(2, 4):
        for n in (2, 3):
            assert len(t_map(p, n).entries) == n ** p.block_count


# ---------------------------------------------------------------------------
# the map builder against a per-assignment loop


def reference_t_map(p, n, twisted=False):
    """One entry per block assignment, in product order, signed one
    assignment at a time."""
    k = p.upper
    entries = {}
    for assignment in itertools.product(range(1, n + 1), repeat=p.block_count):
        t = [assignment[b] for b in p.labels]
        entries[(tuple(t[k:]), tuple(t[:k]))] = p.twisted_sign(assignment) if twisted else 1
    return entries


key_of = functools.lru_cache(maxsize=None)(entry_key)  # the same tuples recur across maps


def encoded(n, entries):
    """Tuple-keyed entries under their int keys, in the same order."""
    return {key_of(n, o, i): c for (o, i), c in entries.items()}


def assert_same_map(p, n, twisted):
    got, want = t_map(p, n, twisted).entries, encoded(n, reference_t_map(p, n, twisted))
    assert got == want and list(got) == list(want), (p, n, twisted)
    assert all(type(key) is int for key in got), (p, n)
    assert all(type(c) is int for c in got.values()), (p, n, twisted)
    return len(got)


def test_t_map_matches_reference_on_even_frames():
    # every P_even frame of at most 8 legs, N = 1..3, twisted and untwisted
    partitions = entries = 0
    for legs in range(0, 9, 2):
        for k in range(legs + 1):
            for p in even_partitions(k, legs - k):
                partitions += 1
                entries += sum(assert_same_map(p, n, tw)
                               for n in (1, 2, 3) for tw in (False, True))
    assert (partitions, entries) == (3652, 348390)


def test_t_map_matches_reference_on_random_and_colored_partitions():
    rng = random.Random(19)
    colors = list(LegColor)
    for _ in range(200):
        k, l = rng.randint(0, 4), rng.randint(0, 4)
        labels = [rng.randrange(k + l) for _ in range(k + l)]
        p = kernel(labels, k, l, [rng.choice(colors) for _ in range(k + l)])
        assert_same_map(p, 4, False)


def test_t_map_of_the_empty_partition():
    p = P("|")
    for n in (1, 2):
        for tw in (False, True):
            assert assert_same_map(p, n, tw) == 1
            assert t_map(p, n, tw).entries == {entry_key(n, (), ()): 1} == {0: 1}


def test_t_entries_are_the_reference_entries_as_arrays():
    # every P_even frame of at most 6 legs at N = 1..3, twisted and not, and
    # random partitions with random colours at N = 4: the legs, 1-based, give
    # the keys and the signs the coefficients, in entry order
    rng = random.Random(20)
    frames = [(p, n, tw) for legs in range(0, 7, 2) for k in range(legs + 1)
              for p in even_partitions(k, legs - k) for n in (1, 2, 3) for tw in (False, True)]
    for _ in range(100):
        k, l = rng.randint(0, 4), rng.randint(0, 4)
        labels = [rng.randrange(k + l) for _ in range(k + l)]
        frames.append((kernel(labels, k, l, [rng.choice(list(LegColor)) for _ in labels]), 4, False))
    for p, n, tw in frames:
        legs, signs = t_entries(p, n, tw)
        assert legs.shape == (p.n_legs, n ** p.block_count) == (p.n_legs, len(signs)), p
        keys = [(tuple(t[p.upper:]), tuple(t[:p.upper])) for t in (legs.T + 1).tolist()]
        assert list(zip(keys, signs.tolist())) == list(reference_t_map(p, n, tw).items()), (p, n)
    with pytest.raises(PartitionClassError):
        t_entries(P("abc|"), 2, twisted=True)


def test_twisted_sign_on_a_grid_equals_the_scalar_form():
    # a partition without odd pairs signs every assignment +1, as the int 1
    crossing = [p for p in even_partitions(0, 6) + even_partitions(3, 3) if p.odd_pairs]
    assert len(crossing) == 32
    for p in crossing:
        b = p.block_count
        grid = np.indices((3,) * b).reshape(b, -1)
        want = [p.twisted_sign(v) for v in itertools.product(range(3), repeat=b)]
        assert p.twisted_sign(grid).tolist() == want, p


def test_entry_key_is_the_flat_index_of_the_dense_matrix():
    # out_code * N^k + in_code, first leg most significant: the row-major index
    # of the 0-based tuple out + in in an array of shape (N,) * (l + k)
    for n in (1, 2, 3):
        for l, k in itertools.product(range(3), repeat=2):
            for t in itertools.product(range(1, n + 1), repeat=l + k):
                flat = np.ravel_multi_index([x - 1 for x in t], (n,) * (l + k)) if t else 0
                assert entry_key(n, t[:l], t[l:]) == flat, (n, t, l)
    assert entry_key(10, (3, 1), (2,)) == 201 and entry_key(2, (2, 2), (1, 2)) == 13
    for out, inp in (((3,), ()), ((1,), (0,)), ((1, -1), (1,))):
        with pytest.raises(ValueError):
            entry_key(2, out, inp)


@pytest.mark.parametrize("n", [0, -1])
def test_dimension_below_one_is_refused(n):
    for build in (lambda: t_map(P("ab|ab"), n), lambda: t_map(P("|abab"), n, True),
                  lambda: t_entries(P("ab|ab"), n), lambda: t_entries(P("|abab"), n, True),
                  lambda: xi_vector(P("|aa"), n)):
        with pytest.raises(ValueError, match="at least 1"):
            build()


@pytest.mark.parametrize("keys", [
    {((1,), (1,)): 1},                  # the old tuple keys
    {0: 1, ((2,), (2,)): 1},            # tuple keys next to int keys
    {4: 1}, {-1: 1}, {2 ** 70: 1},      # outside [0, N^(k+l)) = [0, 4)
    {1.0: 1}, {"0": 1},                 # not ints
])
def test_sparse_map_refuses_keys_that_are_not_entry_keys(keys):
    with pytest.raises(ValueError, match="keys must be ints"):
        SparseTensorMap(2, 1, 1, keys)


def test_sparse_map_takes_every_key_of_its_frame():
    assert SparseTensorMap(2, 1, 1, {}).entries == {}
    assert len(SparseTensorMap(3, 2, 1, dict.fromkeys(range(27), -1)).entries) == 27
    assert SparseTensorMap(3, 0, 0, {0: 1}) == t_map(P("|"), 3)


@pytest.mark.parametrize("bad", [0, 2])
def test_sparse_map_refuses_coefficients_other_than_plus_minus_one(bad):
    with pytest.raises(ValueError):
        SparseTensorMap(2, 1, 1, {entry_key(2, (1,), (1,)): 1, entry_key(2, (2,), (2,)): bad})


# ---------------------------------------------------------------------------
# fixed vectors and the scalar product law


def test_xi_crossing_vector():
    v = xi_vector(P("|abab"), 3, twisted=True)
    for i in range(1, 4):
        assert v.entries[entry_key(3, (i, i, i, i), ())] == 1
        for j in range(1, 4):
            if i != j:
                assert v.entries[entry_key(3, (i, j, i, j), ())] == -1
    assert len(v.entries) == 9


def test_xi_halfliberating_vector():
    v = xi_vector(P("|abcabc"), 3, twisted=True)
    for t in itertools.product(range(1, 4), repeat=3):
        i, j, k = t
        expected = -1 if len({i, j, k}) == 3 else 1
        assert v.entries[entry_key(3, (i, j, k, i, j, k), ())] == expected


def test_xi_needs_lower_only():
    with pytest.raises(FrameError):
        xi_vector(P("a|a"), 2)
    # a fixed vector is the map from the scalars; others have no inner product
    for v, w in ((t_map(P("a|a"), 2), t_map(P("a|a"), 2)),
                 (xi_vector(P("|aa"), 2), xi_vector(P("|aa"), 3)),
                 (xi_vector(P("|aa"), 2), xi_vector(P("|aaaa"), 2))):
        with pytest.raises(FrameError):
            inner_product(v, w)


def brute_force_inner(p, q, n):
    # independent oracle: loop over all tuples, test block constancy by hand
    def entry(part, t):
        for b in part.blocks:
            if len({t[x] for x in b}) > 1:
                return 0
        return 1

    return sum(entry(p, t) * entry(q, t)
               for t in itertools.product(range(1, n + 1), repeat=p.n_legs))


def test_inner_product_frozen_example():
    # brute force gives 3 at N=3 for the untwisted pair below, equal to N**1
    p, q = P("|aabb"), P("|abab")
    assert brute_force_inner(p, q, 3) == 3
    assert inner_product(xi_vector(p, 3), xi_vector(q, 3)) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_scalar_product_law(n, m):
    parts = even_partitions(0, 2 * m)
    vecs_t = {p: xi_vector(p, n, twisted=True) for p in parts}
    vecs_u = {p: xi_vector(p, n, twisted=False) for p in parts}
    for p in parts:
        for q in parts:
            expected = n ** join(p, q).block_count
            assert inner_product(vecs_t[p], vecs_t[q]) == expected
            assert inner_product(vecs_u[p], vecs_u[q]) == expected


def test_diagonal_inner_product():
    for p in even_partitions(0, 4):
        v = xi_vector(p, 3, twisted=True)
        assert inner_product(v, v) == 3 ** p.block_count


# ---------------------------------------------------------------------------
# categorical operations


def test_tensor_concat_shapes_and_colors():
    assert tensor_concat(P("|aa"), P("|aa")) == P("|aabb")
    got = tensor_concat(P("a|a:o*"), P("|bb:**"))
    assert got == P("a|abb:o***")


def test_involution_examples():
    assert involution(P("|aa")) == P("aa|")
    for p in even_partitions(2, 4):
        assert involution(involution(p)) == p


def test_compose_loop_examples():
    out, loops = compose(P("|aa"), P("aa|"))
    assert out.n_legs == 0 and loops == 1
    out, loops = compose(P("a|a"), P("a|a"))
    assert out == P("a|a") and loops == 0


def test_compose_frame_errors():
    with pytest.raises(FrameError):
        compose(P("|aa"), P("abc|"))
    with pytest.raises(FrameError):
        compose(P("a|a:oo"), P("a|a:*o"))


def frames_even(max_rows):
    for k in range(max_rows + 1):
        for l in range(max_rows + 1):
            if (k + l) % 2 == 0:
                yield k, l


def test_functoriality_tensor():
    # T_p tensor T_q == T_{[pq]} exactly, twisted and untwisted, N <= 3
    small = [p for k, l in [(0, 2), (1, 1), (2, 0), (2, 2), (0, 4)]
             for p in even_partitions(k, l)]
    for p, q in itertools.product(small, repeat=2):
        for n in (2, 3):
            for tw in (False, True):
                lhs = t_map(p, n, tw).tensor(t_map(q, n, tw))
                rhs = t_map(tensor_concat(p, q), n, tw)
                assert lhs == rhs, (p, q, n, tw)


def test_functoriality_compose():
    # matrix identity T_q . T_p == N**loops T_{[p over q]} on all stackable
    # pairs with rows <= 3, N <= 3
    pool = {}
    for k, l in frames_even(3):
        pool[(k, l)] = even_partitions(k, l)
    for (k, l), ps in pool.items():
        for (l2, m), qs in pool.items():
            if l2 != l:
                continue
            for p, q in itertools.product(ps, qs):
                comp, loops = compose(p, q)
                for n in (2, 3):
                    for tw in (False, True):
                        prod = t_map(q, n, tw).matmul(t_map(p, n, tw))
                        target = t_map(comp, n, tw)
                        factor = n ** loops
                        assert prod == {key: factor * c for key, c in target.entries.items()}, \
                            (p, q, n, tw)


def test_functoriality_adjoint():
    for k, l in frames_even(3):
        for p in even_partitions(k, l):
            for n in (2, 3):
                for tw in (False, True):
                    assert t_map(p, n, tw).adjoint() == t_map(involution(p), n, tw)


# ---------------------------------------------------------------------------
# the coded operations against the tuple-keyed ones


def reference_tensor(a, b):
    return {(o1 + o2, i1 + i2): c1 * c2 for (o1, i1), c1 in a.items() for (o2, i2), c2 in b.items()}


def reference_matmul(a, b):
    """a . b on tuple keys, one middle tuple at a time."""
    out = {}
    for (o, mid), c in a.items():
        for (mid2, i), c2 in b.items():
            if mid == mid2:
                out[(o, i)] = out.get((o, i), 0) + c * c2
    return {key: c for key, c in out.items() if c}


def reference_adjoint(a):
    return {(i, o): c for (o, i), c in a.items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coded_operations_match_the_tuple_keyed_reference(n):
    # every pair of the even pool with rows <= 3, twisted and not
    pool = [p for k, l in frames_even(3) for p in even_partitions(k, l)]
    assert len(pool) == 47
    summed = 0
    for tw in (False, True):
        maps = {p: t_map(p, n, tw) for p in pool}
        refs = {p: reference_t_map(p, n, tw) for p in pool}
        for p in pool:
            adj = maps[p].adjoint()
            assert (adj.input_arity, adj.output_arity) == (p.lower, p.upper)
            assert adj.entries == encoded(n, reference_adjoint(refs[p])), (p, tw)
        for p, q in itertools.product(pool, repeat=2):
            prod = maps[p].tensor(maps[q])
            assert (prod.input_arity, prod.output_arity) == (p.upper + q.upper, p.lower + q.lower)
            assert prod.entries == encoded(n, reference_tensor(refs[p], refs[q])), (p, q, tw)
            if q.upper == p.lower:
                want = reference_matmul(refs[q], refs[p])
                assert maps[q].matmul(maps[p]) == encoded(n, want), (p, q, tw)
                summed += any(abs(c) > 1 for c in want.values())
    assert (summed > 0) == (n > 1)  # closed loops add up N terms from N = 2 on
