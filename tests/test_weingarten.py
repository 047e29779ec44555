import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from ncspheres.errors import SingularGramError, SizeLimitError
from ncspheres.partitions import PartitionClass, enumerate_partitions, join
from ncspheres.tensors import delta
from ncspheres.weingarten import (
    GROUPS,
    SPHERES,
    ExactMatrix,
    Field,
    GroupSpec,
    Level,
    SphereSpec,
    _eliminate,
    category_pairings,
    gram,
    gram_rank_products,
    group_by_name,
    moment,
    sphere_by_name,
    sphere_trace,
    weingarten_matrix,
)

REAL_CLASSICAL = GroupSpec(Field.REAL, Level.CLASSICAL)
REAL_HALF = GroupSpec(Field.REAL, Level.HALF)
BAR_REAL = GroupSpec(Field.REAL, Level.CLASSICAL, twisted=True)
COMPLEX_CLASSICAL = GroupSpec(Field.COMPLEX, Level.CLASSICAL)


# ---------------------------------------------------------------------------
# specs and naming


def test_free_twist_normalization():
    g = GroupSpec(Field.REAL, Level.FREE, twisted=True)
    assert not g.twisted and g.name == "o_n_plus"
    s = SphereSpec(Field.COMPLEX, Level.FREE, twisted=True)
    assert not s.twisted and s.name == "s_c_plus"


def test_ten_objects_and_names():
    # every name is read off the Level table's suffixes
    assert [g.name for g in GROUPS] == [
        "bar_o_n", "bar_o_n_star", "bar_u_n", "bar_u_n_star2", "o_n", "o_n_plus",
        "o_n_star", "u_n", "u_n_plus", "u_n_star2"]
    assert [s.name for s in SPHERES] == [
        "bar_s_c", "bar_s_c_star2", "bar_s_r", "bar_s_r_star", "s_c", "s_c_plus",
        "s_c_star2", "s_r", "s_r_plus", "s_r_star"]
    assert group_by_name("bar_u_n_star2") == GroupSpec(Field.COMPLEX, Level.HALF, True)
    assert sphere_by_name("s_r_star").level is Level.HALF
    with pytest.raises(ValueError):
        group_by_name("o_n_star3")


# ---------------------------------------------------------------------------
# ExactMatrix


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _exact(rows, den=1):
    """The ExactMatrix of rational rows divided by ``den``: integer rows over
    ``den`` times the lcm of the entries' denominators."""
    lcm = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return ExactMatrix([[int(x * lcm) for x in row] for row in rows], lcm * den)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0, "1"])
def test_exact_matrix_refuses_entries_other_than_ints(entry):
    with pytest.raises(TypeError, match="must be ints"):
        ExactMatrix([[1, 0], [entry, 1]])


def _fraction_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _is_inverse(a, b):
    """a.b == 1, in integers: a.num times b.num is a.den * b.den times 1."""
    scale = a.den * b.den
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.num)] for row in a.num] \
        == [[scale * (i == j) for j in range(b.ncols)] for i in range(a.nrows)]


def _kernel_rank(m):
    """The rank the elimination kernel returns, on a copy of m's rows."""
    return _eliminate([list(r) for r in m.num], m.ncols)


def test_exact_inverse_and_rank():
    m = ExactMatrix([[2, 1], [1, 1]])
    inv = m.inverse()
    assert _is_inverse(m, inv) and _is_inverse(inv, m)
    assert _kernel_rank(ExactMatrix([[1, 2], [2, 4]])) == 1
    with pytest.raises(ZeroDivisionError):
        ExactMatrix([[1, 2], [2, 4]]).inverse()


def reference_inverse(rows):
    """Gauss-Jordan over the rationals, the reference for the integer kernel."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def reference_rank(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        scale = a[rank][col]
        a[rank] = [x / scale for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


# exponent words for the complex groups, k <= 8
DIFFERENTIAL_WORDS = ("1*", "11**", "1*1*", "111***", "1*1*1*", "11**1*1*")


def _random_rational_matrix(rng, nrows, ncols, rank):
    """A nrows x ncols matrix of rank at most ``rank``, with rational entries."""
    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][t] * right[t][j] for t in range(rank)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]


def test_rank_and_inverse_match_rational_reference_on_random_matrices():
    rng = random.Random(20061)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_rational_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        if rng.random() < 0.3:  # sparse integer input, zero rows and columns
            rows = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(ncols)]
                    for _ in range(nrows)]
        m = _exact(rows)
        assert _kernel_rank(m) == reference_rank(rows)
        if nrows == ncols:
            try:
                expect = reference_inverse(rows)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    m.inverse()
            else:
                assert m.inverse().data == expect


@pytest.mark.parametrize("rows, rank", [
    ([[0, 0, 0], [0, 0, 0]], 0),
    ([[0, 1, 2], [0, 2, 4], [0, 0, 0]], 1),
    ([[0], [0], [5]], 1),
    ([[0, 0, Fraction(1, 3), 1]], 1),
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1], [1, Fraction(2, 3)]], 1),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2),
    ([[0, 2, 0, 1], [1, 0, 0, 0], [0, 0, 0, 0], [1, 2, 0, 1]], 2),
])
def test_rank_edge_cases(rows, rank):
    assert _kernel_rank(_exact(rows)) == reference_rank(rows) == rank


def test_inverse_of_rational_and_permuted_input():
    rows = [[0, Fraction(1, 2), 0], [Fraction(2, 3), 0, 1], [0, Fraction(1, 4), Fraction(5, 7)]]
    assert _exact(rows).inverse().data == reference_inverse(rows)


# ---------------------------------------------------------------------------
# categories


def test_category_sizes():
    assert len(category_pairings(REAL_CLASSICAL, k=4)) == 3
    assert len(category_pairings(COMPLEX_CLASSICAL, alpha="11**")) == 2
    assert len(category_pairings(REAL_HALF, k=6)) == 6
    free = GroupSpec(Field.REAL, Level.FREE)
    assert len(category_pairings(free, k=6)) == 5


def test_complex_half_category_alternating_word():
    g = GroupSpec(Field.COMPLEX, Level.HALF)
    got = category_pairings(g, alpha="1*1*1*")
    assert len(got) == 6  # all six alternating pairings carry the coloring


def test_twist_does_not_change_the_category():
    # given the pairings, the Gram and Weingarten matrices do not depend on
    # the twist, so a group and its twisted partner share one comparison
    for g in GROUPS:
        tw = GroupSpec(g.field, g.level, True)
        if g.field is Field.COMPLEX:
            cases = [dict(alpha=w) for w in DIFFERENTIAL_WORDS]
        else:
            cases = [dict(k=k) for k in (2, 4, 6, 8)]
        for kw in cases:
            assert category_pairings(g, **kw) == category_pairings(tw, **kw), (g.name, kw)


# ---------------------------------------------------------------------------
# gram / weingarten closed forms


def test_gram_real_classical_k4():
    for n in (2, 5):
        g = gram(REAL_CLASSICAL, n, k=4)
        assert g.data == [
            [n * n, n, n],
            [n, n * n, n],
            [n, n, n * n],
        ]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_weingarten_real_classical_closed_form(n):
    w = weingarten_matrix(REAL_CLASSICAL, n, k=4)
    c = Fraction(1, n * (n - 1) * (n + 2))
    expect = [[c * (n + 1) if i == j else -c for j in range(3)] for i in range(3)]
    assert w.data == expect


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_weingarten_complex_classical_closed_form(n):
    w = weingarten_matrix(COMPLEX_CLASSICAL, n, alpha="11**")
    c = Fraction(1, n * (n * n - 1))
    assert w.data == [[c * n, -c], [-c, c * n]]


def test_gram_diagonal_entries():
    for g in (REAL_CLASSICAL, REAL_HALF):
        for k in (2, 4, 6):
            gm = gram(g, 3, k=k)
            assert all(gm.num[i][i] == 3 ** (k // 2) for i in range(gm.nrows))


def test_weingarten_inverts_gram_extensively():
    cases = [
        (REAL_CLASSICAL, dict(k=8), 6),
        (REAL_HALF, dict(k=6), 5),
        (GroupSpec(Field.REAL, Level.FREE), dict(k=8), 4),
        (COMPLEX_CLASSICAL, dict(alpha="11**1*1*"), 4),
        (GroupSpec(Field.COMPLEX, Level.HALF, True), dict(alpha="1*1*1*"), 5),
        (BAR_REAL, dict(k=6), 3),
    ]
    for g, kw, n in cases:
        gm = gram(g, n, **kw)
        w = weingarten_matrix(g, n, **kw)
        assert _is_inverse(w, gm)
        assert w.num == w.transpose().num


def test_singular_gram_raises():
    with pytest.raises(SingularGramError):
        weingarten_matrix(REAL_CLASSICAL, 1, k=4)


# ---------------------------------------------------------------------------
# moments


def test_moment_u11_squared():
    for n in (2, 3, 5):
        assert moment(REAL_CLASSICAL, n, (1, 1), (1, 1)) == Fraction(1, n)


def test_moment_u11_fourth():
    for n in (3, 4, 6):
        got = moment(REAL_CLASSICAL, n, (1,) * 4, (1,) * 4)
        assert got == Fraction(3, n * (n + 2))


def brute_twisted_degree4_word(n, word):
    """Independent oracle for degree-4 first-row moments over the twisted
    rotations: enumerate P2(4) as hard-coded position pairs, test block
    constancy by hand, and sign by crossing parity."""
    pairings = [(((0, 1), (2, 3))), (((0, 2), (1, 3))), (((0, 3), (1, 2)))]
    total = Fraction(0)
    for blocks in pairings:
        if any(word[a] != word[b] for a, b in blocks):
            continue
        # sign: crossing parity of the kernel pairing of the tuple (if the
        # two blocks merge, the kernel is a 4-block with signature +1)
        if word[blocks[0][0]] == word[blocks[1][0]]:
            sign = 1
        else:
            (a1, a2), (b1, b2) = blocks
            sign = -1 if a1 < b1 < a2 < b2 else 1
        total += sign
    return total / (n * (n + 2))


def test_twisted_moment_against_brute_force():
    # the word u11 u12 u12 u11 is the inner product <Z_1 Z_2, Z_1 Z_2> of the
    # twisted coordinate products, evaluated at (i,j,l,k) = (1,2,2,1)
    for n in (2, 3, 4):
        got = moment(BAR_REAL, n, (1, 1, 1, 1), (1, 2, 2, 1))
        assert got == brute_twisted_degree4_word(n, (1, 2, 2, 1))
        assert got == Fraction(1, n * (n + 2))
        for j in itertools.product(range(1, 3), repeat=4):
            assert moment(BAR_REAL, n, (1,) * 4, j) == brute_twisted_degree4_word(n, j)


def test_odd_moment_vanishes():
    assert moment(REAL_CLASSICAL, 3, (1, 1, 1), (1, 1, 1)) == 0


def test_empty_word_moment():
    assert moment(REAL_CLASSICAL, 3, (), ()) == 1


def test_twisted_moments_respect_the_defining_relations():
    # internal consistency of the signed Weingarten sums: contracting a
    # repeated column index against the quadratic relation drops the degree,
    # and words related by anticommutation have opposite moments
    for n in (2, 3, 4):
        total = sum(moment(BAR_REAL, n, (1, 1, 1, 1), (1, 1, j, j))
                    for j in range(1, n + 1))
        assert total == moment(BAR_REAL, n, (1, 1), (1, 1)) == Fraction(1, n)
        m1 = moment(BAR_REAL, n, (1, 1, 1, 1), (1, 2, 1, 2))
        m2 = moment(BAR_REAL, n, (1, 1, 1, 1), (1, 2, 2, 1))
        assert m1 == -m2
        assert sum(moment(BAR_REAL, n, (1, 2), (j, j))
                   for j in range(1, n + 1)) == 0
    bar_half = GroupSpec(Field.COMPLEX, Level.HALF, True)
    total = sum(moment(bar_half, 3, (1,) * 6, (1, 1, 2, 2, j, j), alpha="1*1*1*")
                for j in range(1, 4))
    assert total == moment(bar_half, 3, (1,) * 4, (1, 1, 2, 2), alpha="1*1*")


# ---------------------------------------------------------------------------
# sphere traces


def test_trace_z1_squared():
    for s in (SphereSpec(Field.REAL, Level.CLASSICAL),
              SphereSpec(Field.REAL, Level.CLASSICAL, True)):
        for n in (2, 3, 5):
            assert sphere_trace(s, n, (1, 1)) == Fraction(1, n)


def test_trace_twisted_example():
    s = SphereSpec(Field.REAL, Level.CLASSICAL, True)
    for n in (2, 3, 4):
        assert sphere_trace(s, n, (1, 2, 2, 1)) == Fraction(1, n * (n + 2))


def test_trace_empty_word():
    assert sphere_trace(SphereSpec(Field.REAL, Level.FREE), 3, ()) == 1


def test_trace_invariant_under_relabeling():
    s = SphereSpec(Field.REAL, Level.CLASSICAL, True)
    relabel = {1: 3, 2: 1, 3: 2}
    for i in itertools.product(range(1, 4), repeat=4):
        j = tuple(relabel[x] for x in i)
        assert sphere_trace(s, 3, i) == sphere_trace(s, 3, j)


# ---------------------------------------------------------------------------
# degree-two product ranks


@pytest.mark.parametrize("n", [2, 3, 17, 100, 1000])
def test_rank_table(n):
    # z_i z_j^* = +/- z_j^* z_i holds on the two real classical-level
    # spheres: rank n(n+1)/2 there, n^2 everywhere else.  Past N = 16
    # elimination was out of reach.
    for s in SPHERES:
        rank = gram_rank_products(s, n, conjugated=True)
        if s.field is Field.REAL and s.level is Level.CLASSICAL:
            assert rank == n * (n + 1) // 2, s.name
        else:
            assert rank == n * n, s.name


def test_rank_unconjugated_sees_the_sign_relations():
    # z_i z_j = +/- z_j z_i holds on all four classical-level spheres, so the
    # plain products lose rank there; all other spheres stay independent.
    for n in (2, 3, 17, 100, 1000):
        for s in SPHERES:
            rank = gram_rank_products(s, n, conjugated=False)
            if s.level is Level.CLASSICAL:
                assert rank == n * (n + 1) // 2, (s.name, n)
            else:
                assert rank == n * n, (s.name, n)


def test_rank_blocks_match_elimination_on_every_small_kernel_function(monkeypatch):
    # the Weingarten sums are replaced by every f with values in -2..2,
    # degenerate ones included, and the closed form is checked against the
    # N^2 x N^2 matrix of f(kernel of (i, j, l, k)) ranked by elimination.
    # The three pairings of s_r tell the four kernels apart by their deltas.
    # N = 1 reads no sum: its rank is 1 on every sphere.
    from ncspheres import weingarten

    s_r = sphere_by_name("s_r")
    tuples = ((1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 1), (1, 2, 1, 2))
    ps = category_pairings(s_r.isometry_group, k=4)
    kernel_of = {tuple(delta(p, t) for p in ps): t for t in tuples}
    assert len(kernel_of) == 4
    monkeypatch.setattr(weingarten, "_weingarten", lambda category, n: None)
    for values in itertools.product(range(-2, 3), repeat=4):
        f = dict(zip(tuples, values))
        monkeypatch.setattr(weingarten, "_weingarten_sum",
                            lambda wg, di, dj: f[kernel_of[tuple(dj)]])
        for n in (2, 3):
            pairs = list(itertools.product(range(1, n + 1), repeat=2))
            rows = [[f[(1, 1, 1, 1)] if i == j == k == l else
                     f[(1, 1, 2, 2)] if i == j and k == l else
                     f[(1, 2, 2, 1)] if (i, j) == (l, k) else
                     f[(1, 2, 1, 2)] if (i, j) == (k, l) else 0
                     for (k, l) in pairs] for (i, j) in pairs]
            assert gram_rank_products(s_r, n) == reference_rank(rows), (values, n)


@pytest.mark.parametrize("n", [0, -2])
def test_dimension_below_one_is_rejected(n):
    o_n = group_by_name("o_n")
    s_r = sphere_by_name("s_r")
    with pytest.raises(ValueError, match="at least 1"):
        gram(o_n, n, k=4)
    with pytest.raises(ValueError, match="at least 1"):
        weingarten_matrix(o_n, n, k=4)
    with pytest.raises(ValueError, match="at least 1"):
        moment(o_n, n, (), ())
    with pytest.raises(ValueError, match="at least 1"):
        sphere_trace(s_r, n, ())
    for conjugated in (False, True):
        with pytest.raises(ValueError, match="at least 1"):
            gram_rank_products(s_r, n, conjugated)


# ---------------------------------------------------------------------------
# stochasticity


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_half_liberated_row_sums(n):
    g = gram(REAL_HALF, n, k=6)
    target = n * (n + 1) * (n + 2)
    assert all(x == target for x in g.row_sums())
    w = weingarten_matrix(REAL_HALF, n, k=6)
    assert all(x == Fraction(1, target) for x in w.row_sums())
    # each row carries the same value multiset
    assert sorted(g.data[0]) == [n, n, n * n, n * n, n * n, n ** 3]


def test_row_sums_of_the_identity():
    assert _exact(_identity(3)).row_sums() == [1, 1, 1]


# ---------------------------------------------------------------------------
# ergodicity identity


def test_ergodicity_identity():
    for g in GROUPS:
        for k in (2, 4, 6):
            alpha = "1*" * (k // 2) if g.field is Field.COMPLEX else None
            for n in (2, 3, 4):
                ps = category_pairings(g, alpha=alpha, k=k)
                if not ps:
                    continue
                try:
                    w = weingarten_matrix(g, n, alpha=alpha, k=k)
                except SingularGramError:
                    continue
                rowsums = w.row_sums()
                colsums = w.transpose().row_sums()
                from ncspheres.tensors import delta

                for i in itertools.product(range(1, n + 1), repeat=k):
                    left = sum(
                        delta(p, i, twisted=g.twisted) * rowsums[a]
                        for a, p in enumerate(ps)
                    )
                    right = sum(
                        delta(p, i, twisted=g.twisted) * colsums[a]
                        for a, p in enumerate(ps)
                    )
                    assert left == right


# ---------------------------------------------------------------------------
# integer numerators against the Fraction path


def reference_gram(ps, n):
    return [[Fraction(n) ** join(p, q).block_count for q in ps] for p in ps]


def reference_weingarten_sum(w, di, dj):
    """sum over a, b of di[a] * dj[b] * W[a, b], in Fractions."""
    total = Fraction(0)
    for x, row in zip(di, w):
        for y, v in zip(dj, row):
            total += x * y * v
    return total


def _differential_words(g, k):
    if g.field is Field.REAL:
        return [("1",) * k]
    return list(itertools.product("1*", repeat=k))


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
def test_moments_and_traces_match_the_fraction_path(g):
    rng = random.Random(GROUPS.index(g))
    sphere = SphereSpec(g.field, g.level, g.twisted)
    for k in range(5):
        for word in _differential_words(g, k):
            ps = category_pairings(g, word)
            for n in range(1, 5):
                tuples = list(itertools.product(range(1, n + 1), repeat=k))
                if not ps:
                    i, j = rng.choice(tuples), rng.choice(tuples)
                    assert moment(g, n, i, j, word) == (1 if k == 0 else 0)
                    continue
                try:
                    w = reference_inverse(reference_gram(ps, n))
                except ZeroDivisionError:
                    with pytest.raises(SingularGramError):
                        moment(g, n, tuples[0], tuples[0], word)
                    with pytest.raises(SingularGramError):
                        sphere_trace(sphere, n, tuples[0], word)
                    continue
                deltas = {t: [delta(p, t, twisted=g.twisted) for p in ps] for t in tuples}
                live = [t for t in tuples if any(deltas[t])]
                picks = rng.sample(live, min(5, len(live))) + [rng.choice(tuples)]
                for i in picks:
                    for j in picks:
                        expect = reference_weingarten_sum(w, deltas[i], deltas[j])
                        assert moment(g, n, i, j, word) == expect
                    ones = deltas[(1,) * k]
                    assert sphere_trace(sphere, n, i, word) == \
                        reference_weingarten_sum(w, ones, deltas[i])


@pytest.mark.parametrize("s", SPHERES, ids=lambda s: s.name)
def test_gram_rank_products_match_the_fraction_path(s):
    g = s.isometry_group
    for conjugated in (False, True):
        ps = category_pairings(g, "1*1*" if conjugated else "11**")
        # never empty, as gram_rank_products assumes: |abba lies in every one
        assert "|abba" in [p.literal().split(":")[0] for p in ps]
        # one unitary z generates every sphere at N = 1: the Gram matrix is [1]
        assert gram_rank_products(s, 1, conjugated) == 1
        for n in range(2, 9):
            try:
                w = reference_inverse(reference_gram(ps, n))
            except ZeroDivisionError:
                with pytest.raises(SingularGramError):
                    gram_rank_products(s, n, conjugated)
                continue
            pairs = list(itertools.product(range(1, n + 1), repeat=2))
            di = [delta(p, (1, 1, 1, 1), twisted=g.twisted) for p in ps]
            rows = [[reference_weingarten_sum(
                         w, di, [delta(p, (i, j, l, k), twisted=g.twisted) for p in ps])
                     for (k, l) in pairs] for (i, j) in pairs]
            assert gram_rank_products(s, n, conjugated) == reference_rank(rows)


def _assert_integral(m):
    assert all(type(x) is int for row in m.num for x in row)
    assert type(m.den) is int and m.den > 0


def test_exact_matrix_output_matches_fraction_lists():
    rng = random.Random(2014)
    cases = [
        [[1, 2], [3, 4]],  # determinant -2
        [[0, 1], [1, 0]],  # determinant -1, needs a row swap
        [[Fraction(1, 2), Fraction(-2, 3)], [5, Fraction(7, 4)]],
        [[Fraction(-3, 4), 1, 0], [2, Fraction(5, 6), Fraction(1, 9)], [0, 0, 0]],
    ]
    cases += [_random_rational_matrix(rng, n, n, rng.randint(n - 1, n))
              for n in (1, 2, 3, 4, 5) for _ in range(20)]
    for rows in cases:
        ref = [[Fraction(x) for x in row] for row in rows]
        m = _exact(rows)
        _assert_integral(m)
        assert _kernel_rank(m) == reference_rank(rows)  # and leaves m as it was
        assert m.data == ref
        assert m.to_strings() == [[str(x) for x in row] for row in ref]
        assert m.row_sums() == [sum(row, Fraction(0)) for row in ref]
        assert m.transpose().data == [list(col) for col in zip(*ref)]
        try:
            expect = reference_inverse(rows)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        w = m.inverse()
        _assert_integral(w)
        assert w.data == expect
        assert w.to_strings() == [[str(x) for x in row] for row in expect]
        assert w.row_sums() == [sum(row, Fraction(0)) for row in expect]
        assert w.transpose().data == [list(col) for col in zip(*expect)]
        assert _fraction_product(ref, expect) == _fraction_product(expect, ref) == _identity(m.nrows)
        assert _exact(expect) == w  # equal values over different denominators


def test_gram_and_weingarten_are_integer_numerators():
    ps = category_pairings(REAL_CLASSICAL, k=4)
    g = gram(REAL_CLASSICAL, 5, k=4)
    _assert_integral(g)
    assert g.den == 1 and g.num == ((25, 5, 5), (5, 25, 5), (5, 5, 25))
    w = weingarten_matrix(REAL_CLASSICAL, 5, k=4)
    _assert_integral(w)
    assert w.data == reference_inverse(reference_gram(ps, 5))


def _categories(max_real: int, max_word: int):
    """A group of each category, with its arguments: real k = 0..max_real
    and every complex colour word up to length max_word, at every level.
    Odd k and unbalanced words give the empty categories; the twisted
    groups share their partners' categories."""
    for level in Level:
        for k in range(max_real + 1):
            yield GroupSpec(Field.REAL, level), dict(k=k)
        for length in range(max_word + 1):
            for word in itertools.product("1*", repeat=length):
                yield GroupSpec(Field.COMPLEX, level), dict(alpha="".join(word))


def _plan(g, kw):
    """The category's memoised block counts and leg symmetries."""
    from ncspheres.weingarten import _category, _category_plan

    return _category_plan(_category(g, **kw))


def test_block_counts_match_join_in_every_category():
    cases = [*_categories(8, 8), (REAL_HALF, dict(k=10)),
             (GroupSpec(Field.REAL, Level.FREE), dict(k=10))]
    for g, kw in cases:
        ps = category_pairings(g, **kw)
        expect = [[join(p, q).block_count for q in ps] for p in ps]
        assert _plan(g, kw)[0] == expect, (g.name, kw)


def gauss_jordan_inverse(m):
    """The integer inverse the library computed before its orbit solve, as
    ``(num, den)`` in lowest terms: fraction-free Gauss-Jordan elimination
    of ``num`` augmented by the identity, every other row updated at each
    pivot, the block left over ``|det|``, and the whole divided by the gcd
    of ``den`` and every entry, which makes it canonical.
    ``weingarten_matrix`` must match it byte for byte."""
    n = m.nrows
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m.num)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        tail = rows[col][col:]
        piv = tail[0]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                f = row[col]
                row[col:] = [(piv * x - f * y) // prev for x, y in zip(row[col:], tail)]
            elif r != col:
                row[col:] = [piv * x // prev for x in row[col:]]
        prev = piv
    scale = m.den if prev > 0 else -m.den
    num = [[x * scale for x in row[n:]] for row in rows]
    g = math.gcd(abs(prev), *(x for row in num for x in row))
    return tuple(tuple(x // g for x in row) for row in num), abs(prev) // g


def _orbits(size, generators):
    from ncspheres.partitions import _roots

    return len(set(_roots(size, [(a, g[a]) for g in generators for a in range(size)])))


@pytest.mark.parametrize("level", list(Level), ids=lambda level: level.value)
def test_weingarten_matches_the_gauss_jordan_reference(level):
    # every category up to 8 legs at N = 1..7, singular N and the empty
    # categories of odd k included; the 24-pairing words the benchmark
    # solves at larger N; and NC2 at 10 legs (42 pairings, 6 orbits) at
    # N = 1..13, with both alternating colour words
    cases = [(g, kw, range(1, 8)) for g, kw in _categories(8, 8) if g.level is level]
    if level is Level.CLASSICAL:
        cases += [(COMPLEX_CLASSICAL, dict(alpha="11**11**"), range(12, 16)),
                  (COMPLEX_CLASSICAL, dict(alpha="1111****"), range(8, 12))]
    if level is Level.FREE:
        cases += [(GroupSpec(Field.REAL, level), dict(k=10), range(1, 14)),
                  (GroupSpec(Field.COMPLEX, level), dict(alpha="1*" * 5), range(1, 14)),
                  (GroupSpec(Field.COMPLEX, level), dict(alpha="*1" * 5), range(1, 14))]
    for g, kw, ns in cases:
        for n in ns:
            try:
                expect = gauss_jordan_inverse(gram(g, n, **kw))
            except ZeroDivisionError:
                with pytest.raises(SingularGramError):
                    weingarten_matrix(g, n, **kw)
                continue
            w = weingarten_matrix(g, n, **kw)
            assert (w.num, w.den) == expect, (g.name, kw, n)
            assert math.gcd(w.den, *(x for row in w.num for x in row)) == 1
            if not category_pairings(g, **kw):
                assert expect == ((), 1)


def test_leg_symmetries_keep_the_pairing_set_and_the_block_counts():
    cases = [*_categories(8, 8), (REAL_HALF, dict(k=10)),
             (GroupSpec(Field.REAL, Level.FREE), dict(k=10)),
             (GroupSpec(Field.COMPLEX, Level.FREE), dict(alpha="1*" * 5))]
    for g, kw in cases:
        ps = category_pairings(g, **kw)
        blocks, generators = _plan(g, kw)
        if not ps:
            assert generators == ()
            continue
        k = ps[0].n_legs
        legs = list(range(k))
        sigmas = [legs[1:] + legs[:1], legs[::-1]]
        for i, j in itertools.combinations(legs, 2):
            sigma = legs[:]
            sigma[i], sigma[j] = j, i
            sigmas.append(sigma)
        strings = [{frozenset(b) for b in p.blocks} for p in ps]
        for gen in generators:
            assert sorted(gen) == list(range(len(ps))) != list(gen)
            assert any(all(strings[gen[a]] == {frozenset(sigma[x] for x in b) for b in s}
                           for a, s in enumerate(strings)) for sigma in sigmas), (g.name, kw)
            assert all(blocks[gen[a]][gen[b]] == blocks[a][b]
                       for a in range(len(ps)) for b in range(len(ps)))
        # the orbits: NC2 is only dihedral, P2, coloured P2 and P2* are transitive
        if g.level is Level.FREE:
            if k == 10:
                assert len(ps) == 42 and _orbits(len(ps), generators) == 6
        else:
            assert _orbits(len(ps), generators) == 1, (g.name, kw)


def test_gram_matches_the_join_reference(cold_memo):
    for g, kw in _categories(6, 4):
        ps = category_pairings(g, **kw)
        for n in (1, 2, 5):
            for group in (g, GroupSpec(g.field, g.level, True)):
                got = gram(group, n, **kw)
                assert got.den == 1 and got.data == reference_gram(ps, n), (g.name, kw, n)


def test_to_strings_prints_the_fractions():
    rng = random.Random(11)
    entries = [0, 1, -1, 2, -3, 6, 35, -70, 10 ** 20 + 3]
    for _ in range(300):
        nrows, ncols = rng.randint(0, 4), rng.randint(1, 4)
        m = _exact([[Fraction(rng.choice(entries), rng.choice([1, 2, 6, 35, 70]))
                     for _ in range(ncols)] for _ in range(nrows)],
                   rng.choice([1, 3, 4, 10 ** 12]))
        assert m.to_strings() == [[str(x) for x in row] for row in m.data]


def test_gram_refuses_more_pairings_than_the_bound(cold_memo, monkeypatch):
    free = GroupSpec(Field.REAL, Level.FREE)
    assert gram(free, 3, k=12).nrows == 132 <= cold_memo.GRAM_PAIRING_BOUND

    def no_block_counts(ps):
        raise AssertionError("block counts built above the Gram bound")

    monkeypatch.setattr(cold_memo, "_block_counts", no_block_counts)
    with pytest.raises(SizeLimitError, match="945 pairings"):
        gram(REAL_CLASSICAL, 3, k=10)
    with pytest.raises(SizeLimitError, match="720 pairings"):
        weingarten_matrix(REAL_HALF, 5, k=12)
    with pytest.raises(SizeLimitError):
        moment(REAL_CLASSICAL, 4, (1,) * 10, (1,) * 10)


# ---------------------------------------------------------------------------
# the memo of pairing sets and Weingarten matrices


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo for one test; the process-wide one is put back after."""
    from collections import OrderedDict

    from ncspheres import weingarten

    monkeypatch.setattr(weingarten, "_memo", OrderedDict())
    monkeypatch.setattr(weingarten, "_held", 0)
    return weingarten


@pytest.fixture
def inversions(monkeypatch):
    """Counts every exact inversion."""
    calls = []
    real_inverse = ExactMatrix.inverse

    def counting_inverse(self, *generators):
        calls.append(self.nrows)
        return real_inverse(self, *generators)

    monkeypatch.setattr(ExactMatrix, "inverse", counting_inverse)
    return calls


def _memo_queries(rng):
    """Every group at degree <= 4 and N = 1..4, each query next to the same
    query on the twisted partner, as (label, thunk, expected) triples with
    the expected value from the Fraction path."""
    blocks = []
    for g in GROUPS:
        if g.twisted:
            continue
        partners = [g, GroupSpec(g.field, g.level, True)]
        partners = list(dict.fromkeys(partners))  # free groups have no twist
        for k in range(1, 5):
            for word in _differential_words(g, k):
                ps = category_pairings(g, word)
                for n in range(1, 5):
                    tuples = list(itertools.product(range(1, n + 1), repeat=k))
                    i, j = rng.choice(tuples), rng.choice(tuples)
                    try:
                        w = reference_inverse(reference_gram(ps, n)) if ps else None
                    except ZeroDivisionError:
                        w = SingularGramError
                    block = []
                    for h in partners:
                        s = SphereSpec(h.field, h.level, h.twisted)
                        if w is SingularGramError:
                            moment_expect = trace_expect = SingularGramError
                        elif w is None:
                            moment_expect = trace_expect = Fraction(0)
                        else:
                            di = [delta(p, i, twisted=h.twisted) for p in ps]
                            dj = [delta(p, j, twisted=h.twisted) for p in ps]
                            ones = [delta(p, (1,) * k, twisted=h.twisted) for p in ps]
                            moment_expect = reference_weingarten_sum(w, di, dj)
                            trace_expect = reference_weingarten_sum(w, ones, dj)
                        block.append((f"moment {h.name} {word} N={n} {i} {j}",
                                      functools.partial(moment, h, n, i, j, word),
                                      moment_expect))
                        block.append((f"trace {s.name} {word} N={n} {j}",
                                      functools.partial(sphere_trace, s, n, j, word),
                                      trace_expect))
                    blocks.append(block)
    for s in SPHERES:
        g = s.isometry_group
        for conjugated in (False, True):
            ps = category_pairings(g, "1*1*" if conjugated else "11**")
            for n in range(1, 5):
                try:
                    w = reference_inverse(reference_gram(ps, n)) if ps else None
                except ZeroDivisionError:
                    expect = 1 if n == 1 else SingularGramError  # the Gram matrix [1]
                else:
                    pairs = list(itertools.product(range(1, n + 1), repeat=2))
                    di = [delta(p, (1, 1, 1, 1), twisted=g.twisted) for p in ps]
                    expect = 0 if w is None else reference_rank(
                        [[reference_weingarten_sum(
                            w, di, [delta(p, (i, j, l, k), twisted=g.twisted) for p in ps])
                          for (k, l) in pairs] for (i, j) in pairs])
                blocks.append([(f"rank {s.name} {conjugated} N={n}",
                                functools.partial(gram_rank_products, s, n, conjugated),
                                expect)])
    rng.shuffle(blocks)
    return [query for block in blocks for query in block]


def _answer(thunk):
    try:
        return thunk()
    except SingularGramError:
        return SingularGramError


def test_memo_warm_and_cold_results_match_the_fraction_path(cold_memo):
    queries = _memo_queries(random.Random(8))
    for label, thunk, expect in queries:  # cold: an empty memo before each
        cold_memo._memo.clear()
        assert _answer(thunk) == expect, label
    cold_memo._memo.clear()
    for label, thunk, expect in queries:  # filling the memo as it goes
        assert _answer(thunk) == expect, label
    random.Random(9).shuffle(queries)
    for label, thunk, expect in queries:  # warm
        assert _answer(thunk) == expect, label


def test_memo_inverts_each_category_once_per_n(cold_memo, inversions):
    o_n, bar_o_n = REAL_CLASSICAL, BAR_REAL
    assert moment(o_n, 3, (1, 1, 2, 2), (1, 1, 2, 2)) == moment(o_n, 3, (1, 1, 2, 2), (1, 1, 2, 2))
    moment(bar_o_n, 3, (1, 2, 1, 2), (2, 1, 2, 1))  # the twisted partner shares W
    weingarten_matrix(bar_o_n, 3, k=4)
    sphere_trace(SphereSpec(Field.REAL, Level.CLASSICAL), 3, (1, 1, 2, 2))
    assert inversions == [3]
    weingarten_matrix(o_n, 4, k=4)
    gram_rank_products(SphereSpec(Field.REAL, Level.CLASSICAL), 4)
    assert inversions == [3, 3]


def test_gram_and_weingarten_builds_nothing_twice(cold_memo, inversions, monkeypatch):
    # block counts are built once per pairing set, W once per (category, N);
    # a Gram matrix is only a table of powers of N over the block counts
    builds = []
    real_block_counts = cold_memo._block_counts
    monkeypatch.setattr(cold_memo, "_block_counts",
                        lambda ps: builds.append(len(ps)) or real_block_counts(ps))
    ps = category_pairings(REAL_HALF, k=6)
    g, w = gram(REAL_HALF, 4, k=6), weingarten_matrix(REAL_HALF, 4, k=6)
    assert builds == [6] and inversions == [6]
    assert g.data == reference_gram(ps, 4)
    assert w.data == reference_inverse(g.data)
    twisted = GroupSpec(Field.REAL, Level.HALF, True)
    for h in (REAL_HALF, twisted):
        assert category_pairings(h, k=6) is ps
        assert weingarten_matrix(h, 4, k=6) is w
        assert gram(h, 5, k=6).data == reference_gram(ps, 5)
        moment(h, 4, (1, 1, 2, 2, 3, 3), (1, 1, 2, 2, 3, 3))
    assert builds == [6] and inversions == [6]
    weingarten_matrix(twisted, 5, k=6)
    moment(REAL_HALF, 5, (1,) * 6, (1,) * 6)
    assert builds == [6] and inversions == [6, 6]


def test_each_public_call_resolves_its_category_once(cold_memo, monkeypatch):
    calls = []
    real_category = cold_memo._category
    monkeypatch.setattr(cold_memo, "_category",
                        lambda *args, **kwargs: calls.append(args) or real_category(*args, **kwargs))
    u_half, s_half = GroupSpec(Field.COMPLEX, Level.HALF), SphereSpec(Field.COMPLEX, Level.HALF)
    queries = [
        functools.partial(moment, REAL_HALF, 3, (1, 1, 2, 2), (1, 2, 2, 1)),
        functools.partial(moment, u_half, 3, (1, 1, 1, 1), (1, 2, 1, 2), "1*1*"),
        functools.partial(sphere_trace, s_half, 3, (1, 2, 1, 2), "1*1*"),
        functools.partial(gram, REAL_HALF, 4, k=6),
        functools.partial(weingarten_matrix, REAL_HALF, 4, k=6),
        functools.partial(weingarten_matrix, u_half, 4, alpha="1*1*"),
        functools.partial(gram_rank_products, s_half, 3),
        functools.partial(gram_rank_products, s_half, 3, conjugated=True),
    ]
    for query in queries * 2:  # a cold memo, then a warm one
        calls.clear()
        query()
        assert len(calls) == 1, query


def test_singular_gram_raises_on_every_call(cold_memo, inversions):
    s_r = SphereSpec(Field.REAL, Level.CLASSICAL)
    for _ in range(2):
        with pytest.raises(SingularGramError):
            weingarten_matrix(REAL_CLASSICAL, 1, k=4)
        with pytest.raises(SingularGramError):
            moment(REAL_CLASSICAL, 1, (1,) * 4, (1,) * 4)
        with pytest.raises(SingularGramError):
            sphere_trace(s_r, 1, (1,) * 4)
        with pytest.raises(SingularGramError):
            weingarten_matrix(BAR_REAL, 1, k=4)
    assert len(inversions) == 8
    assert not [key for key in cold_memo._memo if isinstance(key[0], tuple)]


def test_mutating_what_the_memo_hands_out_changes_nothing(cold_memo):
    expect_ps = tuple(enumerate_partitions(PartitionClass.P2, 0, 4))
    expect_w = reference_inverse(reference_gram(expect_ps, 5))
    expect_moment = moment(REAL_CLASSICAL, 5, (1, 1, 2, 2), (1, 2, 1, 2))

    ps = category_pairings(REAL_CLASSICAL, k=4)
    w = weingarten_matrix(REAL_CLASSICAL, 5, k=4)
    with pytest.raises(AttributeError):
        ps.reverse()
    with pytest.raises(TypeError):
        ps[0], ps[1] = ps[1], ps[0]
    with pytest.raises(TypeError):
        w.num[0][0] += 1
    with pytest.raises(TypeError):
        w.num[1] = (0, 0, 0)
    with pytest.raises(AttributeError):
        w.den = 7
    with pytest.raises(AttributeError):
        w.num = ()

    assert category_pairings(BAR_REAL, k=4) is ps
    assert ps == expect_ps
    assert weingarten_matrix(BAR_REAL, 5, k=4) is w
    assert w.data == expect_w
    assert moment(REAL_CLASSICAL, 5, (1, 1, 2, 2), (1, 2, 1, 2)) == expect_moment


def test_memo_over_the_gram_bound_joins_nothing_and_keeps_no_matrix(cold_memo, monkeypatch):
    def no_block_counts(ps):
        raise AssertionError("block counts built above the Gram bound")

    monkeypatch.setattr(cold_memo, "_block_counts", no_block_counts)
    for _ in range(2):
        with pytest.raises(SizeLimitError, match="720 pairings"):
            weingarten_matrix(REAL_HALF, 5, k=12)
        with pytest.raises(SizeLimitError, match="720 pairings"):
            gram(REAL_HALF, 5, k=12)
        with pytest.raises(SizeLimitError, match="945 pairings"):
            moment(BAR_REAL, 4, (1,) * 10, (1,) * 10)
    assert not [key for key in cold_memo._memo if isinstance(key[0], tuple)]


def test_memo_holds_at_most_its_bound(cold_memo, monkeypatch):
    # every entry here holds one cell: one pairing, a 1x1 B and 1x1 Ws
    monkeypatch.setattr(cold_memo, "MEMO_CELL_BOUND", 3)
    for n in range(1, 6):
        moment(REAL_HALF, n + 2, (1, 1), (1, 1))
    assert len(cold_memo._memo) == 3
    assert list(cold_memo._memo)[-1][1] == 7  # the newest stays
    assert moment(REAL_HALF, 3, (1, 1), (1, 1)) == Fraction(1, 3)


def _cells(value):
    """Cells of a memo value, counted apart from the memo's own count."""
    if isinstance(value, ExactMatrix):
        return value.nrows * value.ncols
    if value and isinstance(value[0], list):  # block counts and leg symmetries
        return len(value[0]) ** 2
    return len(value)  # a pairing set


def test_memo_bounds_the_cells_it_holds(cold_memo, monkeypatch):
    # 15 pairings at k = 6, so each W and the category's B hold 225 cells:
    # 60 distinct solves would hold 13740.  Every solve reads B, so B stays
    # next to the newest 6 W, and the pairing set goes
    monkeypatch.setattr(cold_memo, "MEMO_CELL_BOUND", 1600)
    for n in range(3, 63):
        weingarten_matrix(REAL_CLASSICAL, n, k=6)
        held = sum(_cells(value) for value, _ in cold_memo._memo.values())
        assert held <= 1600 and held == cold_memo._held, n
    ws = [key[1] for key in cold_memo._memo if isinstance(key[1], int)]
    assert ws == list(range(57, 63)) and len(cold_memo._memo) == 7
    # an entry past the bound on its own still stays, as the only one
    monkeypatch.setattr(cold_memo, "MEMO_CELL_BOUND", 100)
    weingarten_matrix(REAL_CLASSICAL, 63, k=6)
    assert [key[1] for key in cold_memo._memo] == [63] and cold_memo._held == 225


def test_memo_keeps_every_degree_4_and_6_key(cold_memo):
    # the moment, trace and rank queries of degree 4 and 6 at N = 2..5 over
    # the ten groups fit the bound together, so none of them is ever rebuilt
    for g in GROUPS:
        for k in (4, 6):
            words = [None] if g.field is Field.REAL else [
                w for w in map("".join, itertools.product("1*", repeat=k)) if w.count("*") == k // 2]
            for alpha, n in itertools.product(words, range(2, 6)):
                try:
                    weingarten_matrix(g, n, alpha=alpha, k=k)
                except SingularGramError:
                    pass
    assert len(cold_memo._memo) == 480
    assert cold_memo._held == 5811 <= cold_memo.MEMO_CELL_BOUND


@pytest.mark.parametrize("g,kw", [
    (REAL_CLASSICAL, dict(k=2, alpha="1")),
    (REAL_HALF, dict(k=4, alpha="11")),
    (COMPLEX_CLASSICAL, dict(k=4, alpha="1*")),
    (COMPLEX_CLASSICAL, dict(k=1, alpha="11**")),
])
def test_k_and_alpha_must_agree(g, kw):
    with pytest.raises(ValueError, match="disagrees"):
        category_pairings(g, **kw)
    with pytest.raises(ValueError, match="disagrees"):
        gram(g, 3, **kw)
    with pytest.raises(ValueError, match="disagrees"):
        weingarten_matrix(g, 3, **kw)


def test_k_and_alpha_of_one_length_name_one_category():
    assert category_pairings(REAL_CLASSICAL, k=4, alpha="1*1*") == \
        category_pairings(REAL_CLASSICAL, k=4)
    assert category_pairings(COMPLEX_CLASSICAL, k=4, alpha="1*1*") == \
        category_pairings(COMPLEX_CLASSICAL, alpha="1*1*")
    with pytest.raises(ValueError, match="need an exponent word"):
        category_pairings(COMPLEX_CLASSICAL, k=4)
