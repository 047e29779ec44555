import functools
import itertools
import random

import numpy as np
import pytest

from ncspheres import models
from ncspheres.errors import DomainError, FrameError, SizeLimitError
from ncspheres.models import (
    CLIFFORD_DIMENSION_BOUND,
    FIXED_VECTOR_WORK_BOUND,
    INTERTWINER_CELL_BOUND,
    INTERTWINER_WORK_BOUND,
    Model,
    antidiagonal_model,
    check_fixed_vector_identity,
    check_intertwiner,
    check_sphere_relations,
    clifford_model,
    coaction_check,
    enumerate_signed_permutations,
    haar_batch,
    haar_moment_mc,
    sample_classical_point,
    sqrt_positive_model,
    twisted_classical_points,
)
from ncspheres.partitions import LegColor, PartitionClass, enumerate_partitions, parse_partition
from ncspheres.relations import monomial_system, relation_sign, saturate, sphere_relations
from ncspheres.tensors import entry_key, t_map, xi_vector
from ncspheres.weingarten import (
    SPHERES,
    Field,
    category_pairings,
    group_by_name,
    sphere_by_name,
)

P = parse_partition
TOL = 1e-10


# ---------------------------------------------------------------------------
# point constructors


def test_classical_point_is_deterministic_and_normalized():
    a = sample_classical_point(Field.REAL, 5, seed=42)
    b = sample_classical_point(Field.REAL, 5, seed=42)
    assert a.coordinates.shape == (5, 1, 1) and a.d == 1
    assert np.array_equal(a.coordinates, b.coordinates)
    assert abs(np.linalg.norm(a.coordinates) - 1) < 1e-12
    assert not a.coordinates.imag.any()
    c = sample_classical_point(Field.COMPLEX, 5, seed=42)
    assert abs(np.linalg.norm(c.coordinates) - 1) < 1e-12


def test_point_at_n_equals_one():
    p = sample_classical_point(Field.REAL, 1, seed=7)
    assert abs(abs(p.coordinates[0, 0, 0]) - 1) < 1e-12


def test_twisted_point_families():
    real = twisted_classical_points(Field.REAL, 3)
    assert len(real) == 6
    for p in real:
        assert not check_sphere_relations(p, sphere_by_name("bar_s_r"), TOL)
    cplx = twisted_classical_points(Field.COMPLEX, 2)
    for p in cplx:
        assert not check_sphere_relations(p, sphere_by_name("bar_s_c"), TOL)


def test_generic_point_fails_twisted_relations():
    bad = Model(np.full((2, 1, 1), 2 ** -0.5 + 0j))
    assert check_sphere_relations(bad, sphere_by_name("bar_s_r"), TOL)


# ---------------------------------------------------------------------------
# matrix models


def test_antidiagonal_model_half_commutes():
    z = sample_classical_point(Field.COMPLEX, 3, seed=9)
    m = antidiagonal_model(z)
    assert m.d == 2
    assert not check_sphere_relations(m, sphere_by_name("s_r_star"), TOL)
    comms = [
        np.abs(m.coordinates[i] @ m.coordinates[j] - m.coordinates[j] @ m.coordinates[i]).max()
        for i, j in itertools.combinations(range(3), 2)
    ]
    assert max(comms) > 0.01  # a proper witness: no commutation


def test_antidiagonal_over_twisted_point_is_twisted_half():
    z = twisted_classical_points(Field.COMPLEX, 3)[1]
    m = antidiagonal_model(z)
    assert not check_sphere_relations(m, sphere_by_name("bar_s_r_star"), TOL)


def test_antidiagonal_pair_model_complex_half():
    # coordinates [[0, a_i], [conj(b_i), 0]] from two unit vectors: the
    # products X_i X_j^* are diagonal with scalar entries
    a = sample_classical_point(Field.COMPLEX, 3, seed=1).coordinates
    b = sample_classical_point(Field.COMPLEX, 3, seed=2).coordinates
    m = Model(np.array([[[0, ai], [np.conj(bi), 0]] for ai, bi in zip(a.ravel(), b.ravel())]))
    assert not check_sphere_relations(m, sphere_by_name("s_c_star2"), TOL)


def test_clifford_models():
    for n in (2, 3, 4):
        m = clifford_model(n)
        assert not check_sphere_relations(m, sphere_by_name("bar_s_r"), TOL)
    z = _phased_clifford((1.0, np.exp(0.3j), np.exp(1.1j)))
    assert not check_sphere_relations(z, sphere_by_name("bar_s_c"), TOL)


def _phased_clifford(phases):
    # unit phases times the Clifford coordinates: a twisted complex witness
    return Model(np.asarray(phases)[:, None, None] * clifford_model(len(phases)).coordinates)


def test_clifford_model_refuses_a_dimension_past_the_bound():
    # n coordinates need dimension 2^ceil(n/2): n = 12 is the last within
    # the bound, and 13 is refused before any matrix is built
    assert CLIFFORD_DIMENSION_BOUND == 2 ** 6
    assert clifford_model(12).coordinates.shape == (12, 64, 64)
    for n in (13, 14):
        with pytest.raises(SizeLimitError, match="dimension"):
            clifford_model(n)


def test_sqrt_positive_model():
    w = np.exp(2j * np.pi / 3)
    model, comms = sqrt_positive_model(
        (1 / 3, 1 / 3, 1 / 3), (1 / 3, 1 / 3, 1 / 3), (0.1, 0.1 * w, 0.1 * w ** 2)
    )
    assert all(np.abs(x - x.conj().T).max() < 1e-12 for x in model.coordinates)
    assert all(c > 1e-3 for c in comms)  # the squares genuinely do not commute
    assert not check_sphere_relations(model, sphere_by_name("s_r_plus"), TOL)


def test_sqrt_positive_degenerate_input():
    model, comms = sqrt_positive_model(
        (1 / 3, 1 / 3, 1 / 3), (1 / 3, 1 / 3, 1 / 3), (0, 0, 0)
    )
    assert max(comms) < 1e-14  # diagonal Y_i commute: not a properness witness
    with pytest.raises(DomainError):
        sqrt_positive_model((0.9, 0.05, 0.05), (1 / 3, 1 / 3, 1 / 3), (0.4, -0.2, -0.2))


def test_enumerate_signed_permutations():
    assert enumerate_signed_permutations(2).shape == (8, 2, 2)
    assert enumerate_signed_permutations(3).shape == (48, 3, 3)
    for m in enumerate_signed_permutations(2):
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12
    # 2^n n! n^2 entries: n = 6 holds 1658880, within 2^22; n = 7 holds 31610880
    assert 2 ** 6 * 720 * 36 <= models.HAAR_ENTRY_BOUND < 2 ** 7 * 5040 * 49
    with pytest.raises(SizeLimitError, match="Haar bound"):
        enumerate_signed_permutations(7)


# ---------------------------------------------------------------------------
# every preset model passes its own sphere


def test_models_match_their_spheres():
    cases = [
        (sample_classical_point(Field.REAL, 3, 0), "s_r"),
        (sample_classical_point(Field.COMPLEX, 3, 0), "s_c"),
        (twisted_classical_points(Field.REAL, 3)[2], "bar_s_r"),
        (twisted_classical_points(Field.COMPLEX, 3)[5], "bar_s_c"),
        (antidiagonal_model(sample_classical_point(Field.COMPLEX, 3, 1)), "s_r_star"),
        (clifford_model(3), "bar_s_r"),
    ]
    for model, name in cases:
        assert not check_sphere_relations(model, sphere_by_name(name), TOL)


# ---------------------------------------------------------------------------
# intertwiners


def test_signed_permutations_intertwine_twisted_diagrams():
    crossing, reversal = P("ab|ba"), P("abc|cba")
    for n in (2, 3):
        us = enumerate_signed_permutations(n)
        assert all(check_intertwiner(crossing, us, twisted=True, tol=TOL))
        assert all(check_intertwiner(reversal, us, twisted=True, tol=TOL))


def test_haar_orthogonal_intertwines_untwisted_not_twisted():
    crossing = P("ab|ba")
    us = haar_batch(Field.REAL, 3, 20, seed=123)
    assert check_intertwiner(crossing, us, twisted=False, tol=1e-8) == [True] * 20
    assert check_intertwiner(crossing, us, twisted=True, tol=1e-8) == [False] * 20


def test_unitary_intertwines_colored_pairing():
    # the cap joining z to z* is invariant under any unitary
    cap = P("|aa:o*")
    assert all(check_intertwiner(cap, haar_batch(Field.COMPLEX, 3, 5, seed=5), tol=1e-8))


def test_intertwiner_check_refuses_large_dense_frames():
    # the largest dense matrix has N^(2 max(k, l)) cells: 4^8 is the bound,
    # 5^8 is past it, whether the legs sit on both rows or on one
    u4 = haar_batch(Field.REAL, 4, 1, seed=3)
    assert 4 ** 8 == INTERTWINER_CELL_BOUND
    assert check_intertwiner(P("abcd|abcd"), u4, tol=1e-8) == [True]
    u5 = haar_batch(Field.REAL, 5, 1, seed=3)
    for p in ("abcd|abcd", "|aabb", "aabb|"):
        with pytest.raises(SizeLimitError, match="dense cells"):
            check_intertwiner(P(p), u5)


def test_intertwiner_check_refuses_work_past_the_bound(monkeypatch):
    # count x N^(2 max(k, l)) cells for the whole stack: at N = 4 with
    # "abcd|abcd", the 384 signed permutations and 1024 Haar samples pass,
    # 1025 are refused before T_p is built
    cells = 4 ** 8
    assert 384 * cells <= 1024 * cells <= INTERTWINER_WORK_BOUND < 1025 * cells

    def no_map(*args):
        raise AssertionError("T_p built past the work bound")

    monkeypatch.setattr(models, "t_entries", no_map)
    with pytest.raises(SizeLimitError, match="67174400 dense cells in all"):
        check_intertwiner(P("abcd|abcd"), haar_batch(Field.REAL, 4, 1025, seed=3))


# ---------------------------------------------------------------------------
# Monte Carlo moments


def _mc(group, n, entries, **kwargs):
    """`haar_moment_mc` of a word given as (i, j, star) letters."""
    i, j, stars = zip(*entries) if entries else ((), (), ())
    return haar_moment_mc(group, n, i, j, "".join("*" if s else "1" for s in stars), **kwargs)


def test_mc_orthogonal_u11_squared():
    est, se = haar_moment_mc("orthogonal", 4, (1, 1), (1, 1), samples=20000, seed=1)
    assert abs(est - 0.25) < 3 * se


def test_mc_orthogonal_u11_fourth():
    est, se = haar_moment_mc("orthogonal", 3, (1,) * 4, (1,) * 4, samples=50000, seed=2)
    assert abs(est - 0.2) < 3 * se


def test_exact_hyperoctahedral_and_kn():
    est, se = haar_moment_mc("hyperoctahedral", 2, (1, 1), (1, 2))
    assert est == 0.0 and se == 0.0
    est, _ = haar_moment_mc("k_n", 3, (1, 1), (1, 1), "1*")
    assert abs(est - 1 / 3) < 1e-14
    est, _ = haar_moment_mc("k_n", 3, (1, 1), (1, 1), "11")
    assert est == 0.0  # unbalanced phases integrate to zero


def _reference_k_n(n, entries):
    """The K_N average by enumerating its N! permutations, as `haar_moment_mc`
    did before its closed form."""
    total = 0.0
    perms = list(itertools.permutations(range(1, n + 1)))
    for perm in perms:
        if any(perm[i - 1] != j for i, j, _ in entries):
            continue
        balance: dict[int, int] = {}
        for i, _, star in entries:
            balance[i] = balance.get(i, 0) + (-1 if star else 1)
        if all(v == 0 for v in balance.values()):
            total += 1.0
    return total / len(perms)


def test_k_n_closed_form_matches_the_enumeration():
    # balanced words on a partial injection, some of them spoilt by up to two
    # random letters (a clash in a row or column, or a net exponent)
    rng = random.Random(12)
    nonzero = 0
    for n in range(1, 7):
        for _ in range(200):
            rows = rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))
            cols = dict(zip(rows, rng.sample(range(1, n + 1), len(rows))))
            entries = [(i, cols[i], star) for i in rows for star in (False, True)]
            entries += [(rng.randint(1, n), rng.randint(1, n), rng.random() < 0.5)
                        for _ in range(rng.choice((0, 0, 1, 2)))]
            rng.shuffle(entries)
            est, se = _mc("k_n", n, entries)
            assert (est.hex(), se) == (_reference_k_n(n, entries).hex(), 0.0), (n, entries)
            nonzero += est != 0
    assert 300 < nonzero < 1000


def _random_signed_word(rng, n):
    """Letters on a partial injection with an even count per row, some of
    them spoilt by up to two random letters (a clash or an odd count)."""
    rows = rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))
    cols = dict(zip(rows, rng.sample(range(1, n + 1), len(rows))))
    entries = [(i, cols[i], rng.random() < 0.5) for i in rows for _ in range(rng.choice((2, 2, 4)))]
    entries += [(rng.randint(1, n), rng.randint(1, n), rng.random() < 0.5)
                for _ in range(rng.choice((0, 0, 1, 2)))]
    rng.shuffle(entries)
    return entries


def test_h_n_closed_form_matches_the_enumeration():
    rng = random.Random(13)
    nonzero = 0
    for n in range(1, 5):
        for _ in range(100):
            entries = _random_signed_word(rng, n)
            got = _mc("hyperoctahedral", n, entries)
            want = _reference_moment("hyperoctahedral", n, entries, 0, 0)
            assert [x.hex() for x in got] == [x.hex() for x in want], (n, entries)
            nonzero += got[0] != 0
    assert 100 < nonzero < 350


def test_h_n_closed_form_past_the_enumeration_bound():
    # N = 5: the average over all 2^5 * 5! = 3840 signed permutations,
    # enumerated here by a loop of the test's own
    words = [[(1, 2, False), (3, 3, True), (1, 2, True), (3, 3, False)],
             [(2, 5, False)] * 4, [(1, 1, False), (2, 1, False)] * 2, [(4, 4, False)] * 3]
    for entries in words:
        total = 0
        for perm in itertools.permutations(range(1, 6)):
            for signs in itertools.product((1, -1), repeat=5):
                prod = 1
                for i, j, _ in entries:
                    prod *= signs[i - 1] if perm[i - 1] == j else 0
                total += prod
        assert _mc("hyperoctahedral", 5, entries) == (total / 3840, 0.0)
    assert [_mc("hyperoctahedral", 5, w)[0] for w in words] == [1 / 20, 1 / 5, 0, 0]


def test_mc_unitary_balanced_word():
    est, se = haar_moment_mc("unitary", 3, (1, 1), (1, 1), "1*", samples=20000, seed=3)
    assert abs(est - 1 / 3) < 3 * se


@pytest.mark.parametrize("group", ["orthogonal", "unitary"])
@pytest.mark.parametrize("samples", [1, 0, -3])
def test_mc_needs_two_samples(group, samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        haar_moment_mc(group, 2, (1,), (1,), samples=samples)


@pytest.mark.parametrize("group", ["orthogonal", "unitary", "hyperoctahedral", "k_n"])
@pytest.mark.parametrize("alpha", ["1x", "x*", "?1"])
def test_mc_refuses_a_malformed_exponent(group, alpha):
    # an exponent is o, 1 or *, read as by `moment`, never taken for plain
    with pytest.raises(ValueError, match="bad exponent"):
        haar_moment_mc(group, 3, (1, 1), (1, 1), alpha, samples=4)


@pytest.mark.parametrize("n", [0, -1])
def test_builders_reject_dimension_below_one(n):
    builders = [
        lambda: sample_classical_point(Field.REAL, n, seed=0),
        lambda: twisted_classical_points(Field.COMPLEX, n),
        lambda: clifford_model(n),
        lambda: enumerate_signed_permutations(n),
        lambda: haar_batch(Field.REAL, n, 4, seed=0),
        lambda: haar_batch(Field.COMPLEX, n, 4, seed=0),
    ] + [lambda group=group: haar_moment_mc(group, n, (), (), samples=4)
         for group in ("orthogonal", "unitary", "hyperoctahedral", "k_n")]
    for build in builders:
        with pytest.raises(ValueError, match="at least 1"):
            build()


def test_mc_sweep_matches_exact_moments():
    # one shared Haar batch per dimension, evaluated against the exact
    # Weingarten moments for a sweep of words up to degree six
    from ncspheres.weingarten import GroupSpec, Level, moment

    real = GroupSpec(Field.REAL, Level.CLASSICAL)
    words = []
    for k in (2, 4):
        for i in itertools.product((1, 2), repeat=k):
            for j in itertools.product((1, 2), repeat=k):
                words.append((i, j))
    words += [
        ((1,) * 6, (1,) * 6),
        ((1, 1, 1, 1, 1, 1), (1, 1, 2, 2, 3, 3)),
        ((1, 2, 1, 2, 1, 2), (1, 2, 1, 2, 1, 2)),
        ((1, 1, 2, 2, 3, 3), (1, 1, 1, 1, 1, 1)),
    ]
    for n in (3, 4):
        batch = haar_batch(Field.REAL, n, 40000, seed=100 + n)
        for i, j in words:
            vals = np.ones(batch.shape[0])
            for a, b in zip(i, j):
                vals = vals * batch[:, a - 1, b - 1]
            est = vals.mean()
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            exact = float(moment(real, n, i, j))
            assert abs(est - exact) <= max(3 * se, 1e-12), (i, j, n, est, exact)


# ---------------------------------------------------------------------------
# fixed-vector identity


def test_fixed_vector_identity_classical_points():
    for seed in range(5):
        pt = sample_classical_point(Field.REAL, 3, seed)
        for l in (2, 4, 6):
            for p in enumerate_partitions(PartitionClass.P2, 0, l):
                assert check_fixed_vector_identity(p, pt, twisted=False) < TOL


def test_fixed_vector_identity_twisted_points():
    crossing = P("|abab")
    for pt in twisted_classical_points(Field.REAL, 3):
        assert check_fixed_vector_identity(crossing, pt, twisted=True) < 1e-14


def test_fixed_vector_identity_clifford():
    m = clifford_model(3)
    for l in (2, 4, 6):
        for p in enumerate_partitions(PartitionClass.P2, 0, l):
            assert check_fixed_vector_identity(p, m, twisted=True) < TOL


def test_fixed_vector_identity_colored_points():
    g = group_by_name("u_n")
    z = sample_classical_point(Field.COMPLEX, 3, seed=8)
    for p in category_pairings(g, alpha="1*1*"):
        assert check_fixed_vector_identity(p, z, twisted=False) < TOL


def test_fixed_vector_identity_refuses_tuples_past_the_bound():
    # N^blocks tuples x 10 legs on a point: 10^5 tuples are within 2^20
    # multiply-adds, 11^5 are past them
    p = P("|aabbccddee")
    assert 10 ** 5 * 10 <= FIXED_VECTOR_WORK_BOUND < 11 ** 5 * 10
    assert check_fixed_vector_identity(p, sample_classical_point(Field.REAL, 10, 0)) < TOL
    with pytest.raises(SizeLimitError, match="multiply-adds"):
        check_fixed_vector_identity(p, sample_classical_point(Field.REAL, 11, 0))


def test_fixed_vector_identity_refuses_work_past_the_bound():
    # tuples x legs x d^3 multiply-adds: the Clifford model of 6 coordinates
    # (d = 8) admits |aabbcc (216 x 6 x 512), not |aabbccdd (1296 x 8 x 512),
    # and at d = 64 even 12^4 tuples of |aabbcc dd are refused up front
    assert 9 ** 5 * 10 <= FIXED_VECTOR_WORK_BOUND < 6 ** 4 * 8 * 8 ** 3
    m = clifford_model(6)
    assert check_fixed_vector_identity(P("|aabbcc"), m, twisted=True) < TOL
    for p, model in (("|aabbccdd", m), ("|aabbccdd", clifford_model(12)),
                     ("|aabb", clifford_model(10))):
        with pytest.raises(SizeLimitError, match="multiply-adds"):
            check_fixed_vector_identity(P(p), model, twisted=True)


def test_fixed_vector_needs_lower_frame():
    with pytest.raises(FrameError):
        check_fixed_vector_identity(P("a|a"), sample_classical_point(Field.REAL, 2, 0))


# ---------------------------------------------------------------------------
# coactions


def test_coaction_signed_permutation_preserves_twisted_points():
    sphere = sphere_by_name("bar_s_r")
    pts = twisted_classical_points(Field.REAL, 3)
    for g in enumerate_signed_permutations(3)[:12]:
        for pt in pts:
            assert coaction_check(g, pt, sphere)


def test_coaction_orthogonal_on_classical_point():
    sphere = sphere_by_name("s_r")
    pt = sample_classical_point(Field.REAL, 3, seed=3)
    for u in haar_batch(Field.REAL, 3, 5, seed=4):
        assert coaction_check(u, pt, sphere)


def test_coaction_signed_permutation_on_clifford():
    sphere = sphere_by_name("bar_s_r")
    m = clifford_model(3)
    for g in enumerate_signed_permutations(3)[:8]:
        assert coaction_check(g, m, sphere)


# ---------------------------------------------------------------------------
# saturation soundness against matrix models


def _eval_schema(schema, model):
    mats = model.coordinates
    d = model.d
    n = model.n
    worst = 0.0
    # a word holds one byte 2·block + star per letter
    blocks = sorted(set(c >> 1 for c in schema.lhs))
    for values in itertools.permutations(range(n), len(blocks)):
        assign = dict(zip(blocks, values))
        lhs = np.eye(d, dtype=complex)
        for c in schema.lhs:
            m = mats[assign[c >> 1]]
            lhs = lhs @ (m.conj().T if c & 1 else m)
        rhs = np.eye(d, dtype=complex)
        for c in schema.rhs:
            m = mats[assign[c >> 1]]
            rhs = rhs @ (m.conj().T if c & 1 else m)
        worst = max(worst, float(np.abs(lhs - schema.sign * rhs).max()))
    return worst


def test_saturated_schemas_hold_in_models():
    # one-sided soundness: anything the engine derives must hold in any
    # model of the base system
    cases = [
        (monomial_system([(3, 1, 2)], Field.REAL, False),
         sample_classical_point(Field.REAL, 3, 11)),
        (monomial_system([(3, 1, 2)], Field.REAL, True), clifford_model(3)),
        (monomial_system([(2, 1)], Field.REAL, True), clifford_model(3)),
        (monomial_system([(3, 2, 1)], Field.REAL, False),
         antidiagonal_model(sample_classical_point(Field.COMPLEX, 3, 12))),
        (monomial_system([(3, 1, 2)], Field.COMPLEX, True),
         _phased_clifford((1.0, 1j, np.exp(0.4j)))),
    ]
    for system, model in cases:
        result = saturate(system)
        assert result.schemas, "expected nontrivial derivations"
        for schema in result.schemas:
            assert _eval_schema(schema, model) < 1e-10, schema.literal()


# ---------------------------------------------------------------------------
# meaningless sizes and the Haar moment reference


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX],
                         ids=["haar_orthogonal", "haar_unitary"])
def test_haar_batches_need_a_sample(field, samples):
    with pytest.raises(ValueError, match="at least 1 sample"):
        haar_batch(field, 2, samples, seed=0)


def _reference_moment(group, n, word, samples, seed):
    """The per-group loops `haar_moment_mc` replaced with one batch path."""
    if group == "hyperoctahedral":
        total = 0.0
        elems = enumerate_signed_permutations(n)
        for g in elems:
            prod = 1.0 + 0j
            for i, j, star in word:
                x = g[i - 1, j - 1]
                prod *= np.conj(x) if star else x
            total += prod.real
        return total / len(elems), 0.0
    if group == "orthogonal":
        u = haar_batch(Field.REAL, n, samples, seed)
        vals = np.ones(samples)
        for i, j, _ in word:
            vals = vals * u[:, i - 1, j - 1]
        return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))
    u = haar_batch(Field.COMPLEX, n, samples, seed)
    vals = np.ones(samples, dtype=complex)
    for i, j, star in word:
        factor = u[:, i - 1, j - 1]
        vals = vals * (factor.conj() if star else factor)
    return float(vals.mean().real), float(vals.real.std(ddof=1) / np.sqrt(samples))


@pytest.mark.parametrize("group", ["orthogonal", "unitary", "hyperoctahedral"])
def test_mc_moment_matches_the_per_group_reference(group):
    for n in (1, 2, 3):
        pairs = list(itertools.product(range(1, n + 1), repeat=2))
        for length in range(4):
            for seed, word in enumerate(itertools.product(pairs, repeat=length)):
                stars = [(seed >> t) & 1 == 1 for t in range(length)]
                entries = [(i, j, s) for (i, j), s in zip(word, stars)]
                got = _mc(group, n, entries, samples=50, seed=seed)
                want = _reference_moment(group, n, entries, 50, seed)
                assert [x.hex() for x in got] == [float(x).hex() for x in want], entries


# ---------------------------------------------------------------------------
# the stacked checks against per-tuple references


def _reference_relations(model, sphere, tol=TOL):
    """Per-tuple relation check: each word multiplied from np.eye."""
    system = sphere_relations(sphere)
    mats = list(model.coordinates)
    eye = np.eye(model.d)
    out = []

    def letter(i, star):
        return mats[i].conj().T if star else mats[i]

    def record(desc, residual):
        if residual > tol:
            out.append((desc, residual))

    record("sum z z* = 1", float(np.abs(sum(m @ m.conj().T for m in mats) - eye).max()))
    record("sum z* z = 1", float(np.abs(sum(m.conj().T @ m for m in mats) - eye).max()))
    if system.field is not Field.COMPLEX:
        for i, m in enumerate(mats):
            record(f"z_{i + 1} self-adjoint", float(np.abs(m - m.conj().T).max()))
    stars = (False, True) if system.field is Field.COMPLEX else (False,)
    for sigma in system.perms:
        k = len(sigma)
        for idx in itertools.product(range(model.n), repeat=k):
            sign = relation_sign(sigma, idx, system.twisted)
            for exps in itertools.product(stars, repeat=k):
                lhs, rhs = eye, eye
                for t in range(k):
                    lhs = lhs @ letter(idx[t], exps[t])
                    q = sigma[t] - 1
                    rhs = rhs @ letter(idx[q], exps[q])
                word = "".join(f"z{q + 1}{'*' if e else ''}" for q, e in zip(idx, exps))
                record(f"{word} = {sign:+d} sigma{sigma}", float(np.abs(lhs - sign * rhs).max()))
    return out


@functools.lru_cache(maxsize=None)
def _decode(n, l, k):
    """Each key of a frame, through entry_key, to its 1-based (out, in) tuples."""
    return {entry_key(n, t[:l], t[l:]): (t[:l], t[l:])
            for t in itertools.product(range(1, n + 1), repeat=l + k)}


def _tuple_entries(m):
    """A map's entries in entry order, keyed by their 1-based (out, in) tuples."""
    decode = _decode(m.dim, m.output_arity, m.input_arity)
    return [(decode[key], c) for key, c in m.entries.items()]


def _reference_fixed_vector(p, model, twisted):
    """Per-tuple fixed-vector sum: each product multiplied from np.eye."""
    mats = list(model.coordinates)
    total = np.zeros((model.d, model.d), dtype=complex)
    for (tup, _), coeff in _tuple_entries(xi_vector(p, model.n, twisted)):
        prod = np.eye(model.d, dtype=complex)
        for c, j in zip(p.colors, tup):
            m = mats[j - 1]
            prod = prod @ (m.conj().T if c is LegColor.BLACK else m)
        total += coeff * prod
    return float(np.abs(total - np.eye(model.d)).max())


def _every_builder():
    w = np.exp(2j * np.pi / 3)
    sqrt_model, _ = sqrt_positive_model((1 / 3,) * 3, (1 / 3,) * 3, (0.1, 0.1 * w, 0.1 * w ** 2))
    return [
        sample_classical_point(Field.REAL, 3, 4),
        sample_classical_point(Field.COMPLEX, 3, 5),
        twisted_classical_points(Field.REAL, 3)[3],
        twisted_classical_points(Field.COMPLEX, 2)[5],
        antidiagonal_model(sample_classical_point(Field.COMPLEX, 3, 6)),
        antidiagonal_model(twisted_classical_points(Field.COMPLEX, 3)[1]),
        clifford_model(3),
        clifford_model(4),
        _phased_clifford((1.0, 1j, np.exp(0.4j))),
        sqrt_model,
        # on no sphere at all: every residual is generic, so a swapped
        # letter or a reordered product shows
        Model(np.random.default_rng(7).standard_normal((3, 2, 2, 2)) @ (1, 1j)),
    ]


def test_relation_check_refuses_tuples_past_the_bound(monkeypatch):
    # N^k tuples per relation: the length-3 relations run up to N = 40, the
    # commutation relations up to N = 256, the Clifford model of 12 coordinates
    # on bar_s_r_star needs 1728
    assert 40 ** 3 <= INTERTWINER_CELL_BOUND < 41 ** 3
    assert 256 ** 2 <= INTERTWINER_CELL_BOUND < 257 ** 2

    def no_sign(*args):
        raise AssertionError("a relation evaluated past the bound")

    monkeypatch.setattr(models, "t_entries", no_sign)
    for name, n in (("s_r_star", 41), ("bar_s_c_star2", 41), ("s_c", 257), ("bar_s_r", 257)):
        sphere = sphere_by_name(name)
        with pytest.raises(SizeLimitError, match=f"{n ** len(sphere_relations(sphere).perms[0])}"
                                                 " index tuples"):
            check_sphere_relations(sample_classical_point(sphere.field, n, 0), sphere)


def test_stacked_relation_check_matches_the_per_tuple_reference():
    violated = 0
    for model in _every_builder():
        for sphere in SPHERES:
            got = check_sphere_relations(model, sphere, TOL)
            want = _reference_relations(model, sphere)
            assert [d for d, _ in got] == [d for d, _ in want], (sphere.name, model.n, model.d)
            assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(got, want))
            violated += bool(got)
    assert violated > 30  # the comparison covers violations, not only empty lists


def test_relation_check_across_slices_matches_the_per_tuple_reference():
    # d = 8 and 8 star patterns give 512 cells a tuple, so a slice holds 128
    # of the 216 tuples at N = 6.  The Clifford model fails s_c_star2 and
    # satisfies bar_s_c_star2; the model off every sphere fails both, in
    # both slices, so a misplaced index, star or sign in the second shows
    step = INTERTWINER_CELL_BOUND // (8 * 8 ** 2)
    assert step == 128 < 6 ** 3
    off = Model(np.random.default_rng(11).standard_normal((6, 8, 8, 2)) @ (1, 1j))
    late = 0
    for model in (clifford_model(6), off):
        for name in ("s_c_star2", "bar_s_c_star2"):
            sphere = sphere_by_name(name)
            got = check_sphere_relations(model, sphere, TOL)
            want = _reference_relations(model, sphere)
            assert [d for d, _ in got] == [d for d, _ in want], (name, model.d)
            assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(got, want))
            late += sum(d.startswith("z6") for d, _ in got)  # tuples 180..215
    assert late > 0 and not check_sphere_relations(clifford_model(6), sphere_by_name("bar_s_c_star2"))


def test_stacked_fixed_vector_sum_matches_the_per_tuple_reference():
    colored = [p for alpha in ("1*", "1*1*", "11**", "1*1*1*")
               for p in category_pairings(group_by_name("u_n"), alpha=alpha)]
    uncolored = [p for l in (2, 4, 6) for p in enumerate_partitions(PartitionClass.P2, 0, l)]
    for model in _every_builder():
        for p in uncolored + colored:
            for twisted in (False, True):
                got = check_fixed_vector_identity(p, model, twisted)
                assert got == _reference_fixed_vector(p, model, twisted), (p, twisted)


def _reference_intertwiner(p, u, twisted, tol):
    n = u.shape[0]
    t = np.zeros((n,) * (p.lower + p.upper), dtype=complex)
    for (o, i), c in _tuple_entries(t_map(p, n, twisted)):
        t[tuple(x - 1 for x in o + i)] = c
    t = t.reshape(n ** p.lower, n ** p.upper)
    powers = []
    for colors in (p.colors[: p.upper], p.colors[p.upper:]):
        out = np.eye(1, dtype=complex)
        for c in colors:
            out = np.kron(out, np.conj(u) if c is LegColor.BLACK else u)
        powers.append(out)
    return bool(np.abs(t @ powers[0] - powers[1] @ t).max() <= tol)


def test_stacked_intertwiner_verdicts_match_per_matrix_verdicts():
    stacks = [enumerate_signed_permutations(2), enumerate_signed_permutations(3),
              haar_batch(Field.REAL, 3, 6, seed=1), haar_batch(Field.COMPLEX, 2, 6, seed=2)]
    outcomes = set()
    for us in stacks:
        for p in ("ab|ba", "abc|cba", "a|a", "|aa", "|aa:o*", "aab|b", "ab|ab:o*o*"):
            for twisted in (False, True):
                got = check_intertwiner(P(p), us, twisted, 1e-8)
                assert got == [_reference_intertwiner(P(p), u, twisted, 1e-8) for u in us]
                outcomes.update(got)
    assert outcomes == {True, False}


def test_stacked_power_is_the_kronecker_power():
    # classical verdicts cannot tell a mirrored Kronecker order apart, so the
    # powers themselves are compared, on generic matrices and mixed colors
    us = np.random.default_rng(4).standard_normal((5, 3, 3, 2)) @ (1, 1j)
    for colors in ("", "o", "*", "o*", "*oo", "oo*o"):
        legs = [LegColor.BLACK if c == "*" else LegColor.WHITE for c in colors]
        want = []
        for u in us:
            power = np.eye(1, dtype=complex)
            for c in legs:
                power = np.kron(power, np.conj(u) if c is LegColor.BLACK else u)
            want.append(power)
        assert np.array_equal(models._stacked_power(us, legs), np.stack(want)), colors


def test_intertwiner_slices_match_per_matrix_verdicts():
    # a slice holds INTERTWINER_CELL_BOUND // N^(2 max(k, l)) matrices: 16 at
    # N = 4 for three legs a row, so 384 signed permutations and 20 Haar
    # samples take 26 slices, the last one partial; 1 for four legs a row.
    # Signed permutations pass the twisted diagrams and Haar samples fail
    # them, so a verdict put in the wrong place shows
    signed, haar = enumerate_signed_permutations(4), haar_batch(Field.REAL, 4, 20, seed=8)
    mixed = np.concatenate((signed, haar))
    few = np.concatenate((signed[::43], haar[:3]))
    mixed_stacks = 0
    for p, us in (("abc|cba", mixed), ("abc|bca", mixed[380:]), ("abcd|dcba", few),
                  ("abcd|abcd", few), ("|abab", few)):
        for twisted in (False, True):
            got = check_intertwiner(P(p), us, twisted, 1e-8)
            assert got == [_reference_intertwiner(P(p), u, twisted, 1e-8) for u in us], p
            mixed_stacks += len(set(got)) == 2
    assert mixed_stacks == 4


def test_signed_permutation_stack_keeps_the_enumeration_order():
    # each element once: 2^n n! distinct matrices, 3840 at n = 5
    for n in (1, 2, 3, 4, 5):
        want = []
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1 + 0j, -1 + 0j), repeat=n):
                m = np.zeros((n, n), dtype=complex)
                for i in range(n):
                    m[i, perm[i] - 1] = signs[i]
                want.append(m)
        got = enumerate_signed_permutations(n)
        assert got.dtype == complex and np.array_equal(got, np.stack(want))
        assert len({m.tobytes() for m in got}) == len(want)


def test_stacked_checks_refuse_the_wrong_shapes():
    with pytest.raises(DomainError, match="stack"):
        check_intertwiner(P("ab|ba"), np.eye(2))
    with pytest.raises(DomainError, match="point"):
        antidiagonal_model(clifford_model(2))
    with pytest.raises(DomainError, match="shape"):
        Model(np.eye(2))


def test_model_coordinates_are_a_read_only_copy():
    # the adjoint letters are cached, so the coordinates must not change
    z = np.zeros((2, 1, 1))
    z[0] = 1
    m = Model(z)
    z[0] = 5
    assert m.coordinates[0, 0, 0] == 1 and m.coordinates.dtype == complex
    with pytest.raises(ValueError):
        m.coordinates[0] = 2
    assert not check_sphere_relations(m, sphere_by_name("s_r"), TOL)
