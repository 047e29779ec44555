import itertools

import numpy as np
import pytest

from ncspheres.errors import DomainError, FrameError, SizeLimitError
from ncspheres.models import (
    CLIFFORD_DIMENSION_BOUND,
    INTERTWINER_CELL_BOUND,
    MatrixModel,
    PointModel,
    antidiagonal_model,
    check_fixed_vector_identity,
    check_intertwiner,
    check_sphere_relations,
    clifford_model,
    coaction_check,
    enumerate_signed_permutations,
    haar_moment_mc,
    haar_orthogonal,
    haar_unitary,
    sample_classical_point,
    sqrt_positive_model,
    twisted_classical_points,
)
from ncspheres.partitions import PartitionClass, enumerate_partitions, parse_partition
from ncspheres.relations import monomial_system, saturate
from ncspheres.weingarten import Field, category_pairings, group_by_name, sphere_by_name

P = parse_partition
TOL = 1e-10


# ---------------------------------------------------------------------------
# point constructors


def test_classical_point_is_deterministic_and_normalized():
    a = sample_classical_point(Field.REAL, 5, seed=42)
    b = sample_classical_point(Field.REAL, 5, seed=42)
    assert a == b
    assert abs(np.linalg.norm(a.coordinates) - 1) < 1e-12
    assert all(abs(z.imag) == 0 for z in a.coordinates)
    c = sample_classical_point(Field.COMPLEX, 5, seed=42)
    assert abs(np.linalg.norm(c.coordinates) - 1) < 1e-12


def test_point_at_n_equals_one():
    p = sample_classical_point(Field.REAL, 1, seed=7)
    assert abs(abs(p.coordinates[0]) - 1) < 1e-12


def test_twisted_point_families():
    real = twisted_classical_points(Field.REAL, 3)
    assert len(real) == 6
    for p in real:
        assert not check_sphere_relations(p, sphere_by_name("bar_s_r"), TOL)
    cplx = twisted_classical_points(Field.COMPLEX, 2)
    for p in cplx:
        assert not check_sphere_relations(p, sphere_by_name("bar_s_c"), TOL)


def test_generic_point_fails_twisted_relations():
    bad = PointModel((2 ** -0.5 + 0j, 2 ** -0.5 + 0j))
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
    m = MatrixModel(tuple(np.array([[0, ai], [np.conj(bi), 0]]) for ai, bi in zip(a, b)))
    assert not check_sphere_relations(m, sphere_by_name("s_c_star2"), TOL)


def test_clifford_models():
    for n in (2, 3, 4):
        m = clifford_model(n)
        assert not check_sphere_relations(m, sphere_by_name("bar_s_r"), TOL)
    phases = (1.0, np.exp(0.3j), np.exp(1.1j))
    z = clifford_model(3, phases=phases)
    assert not check_sphere_relations(z, sphere_by_name("bar_s_c"), TOL)
    with pytest.raises(DomainError):
        clifford_model(2, phases=(2.0, 1.0))


def test_clifford_model_refuses_a_dimension_past_the_bound():
    # n coordinates need dimension 2^ceil(n/2): n = 12 is the last within
    # the bound, and 13 is refused before any matrix is built
    assert CLIFFORD_DIMENSION_BOUND == 2 ** 6
    assert clifford_model(12).as_matrices()[0].shape == (64, 64)
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
    assert len(enumerate_signed_permutations(2)) == 8
    assert len(enumerate_signed_permutations(3)) == 48
    for g in enumerate_signed_permutations(2):
        m = g.matrix()
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12
    with pytest.raises(SizeLimitError):
        enumerate_signed_permutations(5)


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
        for g in enumerate_signed_permutations(n):
            u = g.matrix()
            assert check_intertwiner(crossing, u, twisted=True, tol=TOL)
            assert check_intertwiner(reversal, u, twisted=True, tol=TOL)


def test_haar_orthogonal_intertwines_untwisted_not_twisted():
    crossing = P("ab|ba")
    for u in haar_orthogonal(3, 20, seed=123):
        assert check_intertwiner(crossing, u, twisted=False, tol=1e-8)
        assert not check_intertwiner(crossing, u, twisted=True, tol=1e-8)


def test_unitary_intertwines_colored_pairing():
    # the cap joining z to z* is invariant under any unitary
    cap = P("|aa:o*")
    for u in haar_unitary(3, 5, seed=5):
        assert check_intertwiner(cap, u, twisted=False, tol=1e-8)


def test_intertwiner_check_refuses_large_dense_frames():
    # the largest dense matrix has N^(2 max(k, l)) cells: 4^8 is the bound,
    # 5^8 is past it, whether the legs sit on both rows or on one
    (u4,) = haar_orthogonal(4, 1, seed=3)
    assert 4 ** 8 == INTERTWINER_CELL_BOUND
    assert check_intertwiner(P("abcd|abcd"), u4, tol=1e-8)
    (u5,) = haar_orthogonal(5, 1, seed=3)
    for p in ("abcd|abcd", "|aabb", "aabb|"):
        with pytest.raises(SizeLimitError, match="dense cells"):
            check_intertwiner(P(p), u5)


# ---------------------------------------------------------------------------
# Monte Carlo moments


def test_mc_orthogonal_u11_squared():
    est, se = haar_moment_mc("orthogonal", 4, [(1, 1, "1")] * 2, samples=20000, seed=1)
    assert abs(est - 0.25) < 3 * se


def test_mc_orthogonal_u11_fourth():
    est, se = haar_moment_mc("orthogonal", 3, [(1, 1, "1")] * 4, samples=50000, seed=2)
    assert abs(est - 0.2) < 3 * se


def test_exact_hyperoctahedral_and_kn():
    est, se = haar_moment_mc("hyperoctahedral", 2, [(1, 1, "1"), (1, 2, "1")])
    assert est == 0.0 and se == 0.0
    est, _ = haar_moment_mc("k_n", 3, [(1, 1, "1"), (1, 1, "*")])
    assert abs(est - 1 / 3) < 1e-14
    est, _ = haar_moment_mc("k_n", 3, [(1, 1, "1"), (1, 1, "1")])
    assert est == 0.0  # unbalanced phases integrate to zero


def test_mc_unitary_balanced_word():
    est, se = haar_moment_mc("unitary", 3, [(1, 1, "1"), (1, 1, "*")],
                             samples=20000, seed=3)
    assert abs(est - 1 / 3) < 3 * se


@pytest.mark.parametrize("group", ["orthogonal", "unitary"])
@pytest.mark.parametrize("samples", [1, 0, -3])
def test_mc_needs_two_samples(group, samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        haar_moment_mc(group, 2, [(1, 1, "1")], samples=samples)


@pytest.mark.parametrize("n", [0, -1])
def test_builders_reject_dimension_below_one(n):
    builders = [
        lambda: sample_classical_point(Field.REAL, n, seed=0),
        lambda: twisted_classical_points(Field.COMPLEX, n),
        lambda: clifford_model(n),
        lambda: enumerate_signed_permutations(n),
        lambda: haar_orthogonal(n, 4, seed=0),
        lambda: haar_unitary(n, 4, seed=0),
    ] + [lambda group=group: haar_moment_mc(group, n, [], samples=4)
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
        batch = haar_orthogonal(n, 40000, seed=100 + n)
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
    # the sum runs over N^blocks tuples: 9^5 is within 4^8, 10^5 is past it
    p = P("|aabbccddee")
    assert 9 ** 5 <= INTERTWINER_CELL_BOUND < 10 ** 5
    with pytest.raises(SizeLimitError, match="tuples"):
        check_fixed_vector_identity(p, sample_classical_point(Field.REAL, 10, 0))


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
    for u in haar_orthogonal(3, 5, seed=4):
        assert coaction_check(u, pt, sphere)


def test_coaction_signed_permutation_on_clifford():
    sphere = sphere_by_name("bar_s_r")
    m = clifford_model(3)
    for g in enumerate_signed_permutations(3)[:8]:
        assert coaction_check(g, m, sphere)


# ---------------------------------------------------------------------------
# saturation soundness against matrix models


def _eval_schema(schema, model):
    mats = model.as_matrices()
    d = mats[0].shape[0]
    n = model.n
    worst = 0.0
    blocks = sorted(set(b for b, _ in schema.lhs))
    for values in itertools.permutations(range(n), len(blocks)):
        assign = dict(zip(blocks, values))
        lhs = np.eye(d, dtype=complex)
        for b, star in schema.lhs:
            m = mats[assign[b]]
            lhs = lhs @ (m.conj().T if star else m)
        rhs = np.eye(d, dtype=complex)
        for b, star in schema.rhs:
            m = mats[assign[b]]
            rhs = rhs @ (m.conj().T if star else m)
        worst = max(worst, float(np.abs(lhs - schema.sign * rhs).max()))
    return worst


def test_saturated_schemas_hold_in_models():
    # one-sided soundness: anything the engine derives must hold in any
    # model of the base system
    cases = [
        (monomial_system([(3, 1, 2)], Field.REAL, False),
         PointModel(tuple(sample_classical_point(Field.REAL, 3, 11).coordinates))),
        (monomial_system([(3, 1, 2)], Field.REAL, True), clifford_model(3)),
        (monomial_system([(2, 1)], Field.REAL, True), clifford_model(3)),
        (monomial_system([(3, 2, 1)], Field.REAL, False),
         antidiagonal_model(sample_classical_point(Field.COMPLEX, 3, 12))),
        (monomial_system([(3, 1, 2)], Field.COMPLEX, True),
         clifford_model(3, phases=(1.0, 1j, np.exp(0.4j)))),
    ]
    for system, model in cases:
        result = saturate(system)
        assert result.schemas, "expected nontrivial derivations"
        for schema in result.schemas:
            assert _eval_schema(schema, model) < 1e-10, schema.literal()


# ---------------------------------------------------------------------------
# meaningless sizes and the Haar moment reference


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("batch", [haar_orthogonal, haar_unitary])
def test_haar_batches_need_a_sample(batch, samples):
    with pytest.raises(ValueError, match="at least 1 sample"):
        batch(2, samples, seed=0)


@pytest.mark.parametrize("phases", [(1, 1), (1, 1, 1, 1)])
def test_clifford_model_needs_one_phase_per_coordinate(phases):
    with pytest.raises(DomainError, match="one phase per coordinate"):
        clifford_model(3, phases=phases)


def _reference_moment(group, n, word, samples, seed):
    """The per-group loops `haar_moment_mc` replaced with one batch path."""
    if group == "hyperoctahedral":
        total = 0.0
        elems = enumerate_signed_permutations(n)
        for g in elems:
            prod = 1.0 + 0j
            for i, j, star in word:
                x = g.matrix()[i - 1, j - 1]
                prod *= np.conj(x) if star else x
            total += prod.real
        return total / len(elems), 0.0
    if group == "orthogonal":
        u = haar_orthogonal(n, samples, seed)
        vals = np.ones(samples)
        for i, j, _ in word:
            vals = vals * u[:, i - 1, j - 1]
        return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))
    u = haar_unitary(n, samples, seed)
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
                got = haar_moment_mc(group, n, entries, samples=50, seed=seed)
                want = _reference_moment(group, n, entries, 50, seed)
                assert [x.hex() for x in got] == [float(x).hex() for x in want], entries
