"""Acceptance checks reproducing the verifiable claims, as named criteria.

Each criterion is a function returning (passed, detail).  The ``paper``
suite runs everything, ``quick`` trims the Monte Carlo comparisons and the
heaviest scans, and ``mc`` runs only the seeded Monte Carlo cross-checks,
reporting one standard error per estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import models, relations, tensors
from .errors import SingularGramError
from .partitions import (
    PartitionClass,
    enumerate_partitions,
    halfcommuting_membership,
    join,
    parse_partition,
)
from .relations import (
    SPAN_SIGN_TABLE,
    NCCombination,
    check_span_table,
    classify_monomial_sphere,
    monomial_system,
    reduce as reduce_expr,
    relation_group,
    sphere_relations,
)
from .tensors import entry_key, inner_product, t_map, tensor_concat, xi_vector
from .weingarten import (
    GROUPS,
    SPHERES,
    Field,
    GroupSpec,
    Level,
    SphereSpec,
    category_pairings,
    gram,
    gram_rank_products,
    moment,
    weingarten_matrix,
)

P = parse_partition


def check_weingarten_closed_forms(quick: bool = False):
    """Criterion 1: the two displayed Weingarten matrices, exactly."""
    ns = (3, 4) if quick else (3, 4, 5, 6, 7)
    real = GroupSpec(Field.REAL, Level.CLASSICAL)
    cplx = GroupSpec(Field.COMPLEX, Level.CLASSICAL)
    for n in ns:
        w = weingarten_matrix(real, n, k=4)
        c = Fraction(1, n * (n - 1) * (n + 2))
        expect = [[c * (n + 1) if i == j else -c for j in range(3)] for i in range(3)]
        if w.data != expect:
            return False, f"real classical k=4 mismatch at N={n}"
        w2 = weingarten_matrix(cplx, n, alpha="11**")
        c2 = Fraction(1, n * (n * n - 1))
        if w2.data != [[c2 * n, -c2], [-c2, c2 * n]]:
            return False, f"complex 11** mismatch at N={n}"
    return True, f"both closed forms exact at N in {list(ns)}"


def check_scalar_products(quick: bool = False):
    """Criterion 2: <xi_pi, xi_sigma> = N^|pi v sigma| on all even partitions."""
    ms = (1, 2) if quick else (1, 2, 3)
    ns = (2, 3) if quick else (1, 2, 3, 4)
    checked = 0
    for m in ms:
        parts = enumerate_partitions(PartitionClass.P_EVEN, 0, 2 * m)
        for n in ns:
            for twisted in (False, True):
                vecs = {p: xi_vector(p, n, twisted) for p in parts}
                for p, q in itertools.product(parts, repeat=2):
                    expect = n ** join(p, q).block_count
                    if inner_product(vecs[p], vecs[q]) != expect:
                        return False, f"failed at {p}, {q}, N={n}, twisted={twisted}"
                    checked += 1
    return True, f"{checked} exact scalar products"


def _even_pool(max_row: int):
    """P_even on every frame up to ``max_row`` legs a row; an odd frame has no member."""
    return {(k, l): enumerate_partitions(PartitionClass.P_EVEN, k, l)
            for k in range(max_row + 1) for l in range(max_row + 1)}


def check_functoriality(quick: bool = False):
    """Criterion 3: tensor, composition and adjoint identities, exactly."""
    ns = (2,) if quick else (2, 3)
    pool = _even_pool(2 if quick else 3)
    checked = 0
    flat = [p for ps in pool.values() for p in ps]
    for n in ns:
        for tw in (False, True):
            maps = {p: t_map(p, n, tw) for p in flat}  # then the composites, as they come
            for (p, a), (q, b) in itertools.product(maps.items(), repeat=2):
                if a.tensor(b) != t_map(tensor_concat(p, q), n, tw):
                    return False, f"tensor failed at {p}, {q}"
                checked += 1
            for (k, l), ps in pool.items():
                for (l2, m2), qs in pool.items():
                    if l2 != l:
                        continue
                    for p, q in itertools.product(ps, qs):
                        comp, loops = tensors.compose(p, q)
                        prod = maps[q].matmul(maps[p])
                        if comp not in maps:
                            maps[comp] = t_map(comp, n, tw)
                        factor = n ** loops
                        if prod != {key: factor * c for key, c in maps[comp].entries.items()}:
                            return False, f"composition failed at {p} over {q}"
                        checked += 1
            for p in flat:
                if maps[p].adjoint() != t_map(tensors.involution(p), n, tw):
                    return False, f"adjoint failed at {p}"
                checked += 1
    return True, f"{checked} exact identities"


def check_explicit_twisted_maps(quick: bool = False):
    """Criterion 4: the two displayed twisted maps, and twist triviality
    on noncrossing pairings."""
    ns = (2, 3) if quick else (1, 2, 3, 4)
    for n in ns:
        m = t_map(P("ab|ba"), n, twisted=True)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if m.entries.get(entry_key(n, (j, i), (i, j))) != (1 if i == j else -1):
                    return False, f"crossing map wrong at N={n}"
        m3 = t_map(P("abc|cba"), n, twisted=True)
        for t in itertools.product(range(1, n + 1), repeat=3):
            i, j, k = t
            want = -1 if len({i, j, k}) == 3 else 1
            if m3.entries.get(entry_key(n, (k, j, i), (i, j, k))) != want:
                return False, f"reversal map wrong at N={n}"
    total_legs = 6 if quick else 8
    count = 0
    for k in range(0, total_legs + 1):
        for l in range(0, total_legs + 1 - k):
            if (k + l) % 2 or k + l == 0:
                continue
            for p in enumerate_partitions(PartitionClass.NC2, k, l):
                for n in (2, 3):
                    if t_map(p, n, True) != t_map(p, n, False):
                        return False, f"twist not trivial on {p}"
                    count += 1
    return True, f"explicit maps exact; twist trivial on {count} noncrossing cases"


def _expected_level(perm) -> Level:
    if perm == tuple(range(1, len(perm) + 1)):
        return Level.FREE
    if halfcommuting_membership(perm):
        return Level.HALF
    return Level.CLASSICAL


def check_classification(quick: bool = False):
    """Criterion 5: depth-3 assignment and no new spheres at depth 4."""
    regimes = ("real", "real_twisted") if quick else relations.REGIMES
    checked = 0
    for regime in regimes:
        field, twisted = relations.REGIMES[regime]
        for perm in itertools.chain(itertools.permutations((1, 2, 3)),
                                    itertools.permutations((1, 2, 3, 4))):
            got = classify_monomial_sphere([perm], regime)
            want = SphereSpec(field, _expected_level(perm), twisted).name
            if got != want:
                return False, f"S{len(perm)} {perm} in {regime}: got {got}, want {want}"
            checked += 1
    return True, f"{checked} singleton classifications, none undetermined"


def check_derivations(quick: bool = False):
    """Criterion 6: the two squared-bracket collapses, with traces."""
    ab, ba = NCCombination.monomial("ab"), NCCombination.monomial("ba")
    out1, trace1 = reduce_expr((ab - ba) ** 2, monomial_system([(3, 1, 2)], Field.REAL, False))
    if not out1.is_zero() or not trace1:
        return False, "(ab-ba)^2 did not reduce to zero"
    out2, trace2 = reduce_expr((ab + ba) ** 2, monomial_system([(3, 1, 2)], Field.REAL, True))
    if not out2.is_zero() or not trace2:
        return False, "(ab+ba)^2 did not reduce to zero"
    return True, f"both collapse to 0 ({len(trace1) + len(trace2)} trace steps)"


def check_halfcommuting_structure(quick: bool = False):
    """Criterion 7: sizes of the half-commuting groups, both ways."""
    half = sphere_relations(SphereSpec(Field.REAL, Level.HALF))
    sizes = {3: 2, 4: 4, 5: 12, 6: 36}
    if quick:
        sizes = {3: 2, 4: 4, 5: 12}
    for k, size in sizes.items():
        via_group = len(relation_group(half, k))
        via_predicate = sum(
            halfcommuting_membership(s)
            for s in itertools.permutations(range(1, k + 1))
        )
        if via_group != size or via_predicate != size:
            return False, f"k={k}: group {via_group}, predicate {via_predicate}, want {size}"
    return True, f"sizes {sizes} by both routes"


def check_product_ranks(quick: bool = False):
    """Criterion 8: Gram ranks of the conjugated degree-2 products."""
    ns = (2,) if quick else (2, 3)
    for n in ns:
        for s in SPHERES:
            rank = gram_rank_products(s, n, conjugated=True)
            if s.field is Field.REAL and s.level is Level.CLASSICAL:
                want = n * (n + 1) // 2
            else:
                want = n * n
            if rank != want:
                return False, f"{s.name} at N={n}: rank {rank}, want {want}"
    return True, f"rank table exact at N in {list(ns)}"


def check_stochasticity(quick: bool = False):
    """Criterion 9: constant row sums of the half-liberated k=6 matrices."""
    half = GroupSpec(Field.REAL, Level.HALF)
    ns = (3, 4) if quick else (3, 4, 5, 6)
    for n in ns:
        target = n * (n + 1) * (n + 2)
        g, w = gram(half, n, k=6), weingarten_matrix(half, n, k=6)
        if any(x != target for x in g.row_sums()):
            return False, f"gram row sums differ from {target} at N={n}"
        if any(x != Fraction(1, target) for x in w.row_sums()):
            return False, f"weingarten row sums differ from 1/{target} at N={n}"
    return True, f"row sums N(N+1)(N+2) and its inverse at N in {list(ns)}"


def check_sign_table(quick: bool = False):
    """Criterion 10: the span sign table passes, every perturbation fails."""
    for g in (GroupSpec(Field.REAL, Level.HALF, True),
              GroupSpec(Field.COMPLEX, Level.HALF, True)):
        if not relations.comult_sign_check(g):
            return False, f"table rejected for {g.name}"
    for cell in SPAN_SIGN_TABLE:
        perturbed = dict(SPAN_SIGN_TABLE)
        perturbed[cell] = -perturbed[cell]
        if check_span_table(perturbed):
            return False, f"perturbation at {cell} not detected"
    return True, "table passes; all 9 single-cell perturbations fail"


def check_intertwiners(quick: bool = False):
    """Criterion 11: signed permutations intertwine the twisted diagrams;
    Haar rotations intertwine only the untwisted crossing."""
    crossing, reversal = P("ab|ba"), P("abc|cba")
    ns = (2,) if quick else (2, 3)
    for n in ns:
        us = models.enumerate_signed_permutations(n)
        for name, p in (("crossing", crossing), ("reversal", reversal)):
            if not all(models.check_intertwiner(p, us, twisted=True, tol=1e-10)):
                return False, f"signed permutation fails the twisted {name} at N={n}"
    us = models.haar_batch(Field.REAL, 3, 20, seed=2024)
    if not all(models.check_intertwiner(crossing, us, twisted=False, tol=1e-8)):
        return False, "a Haar rotation fails the untwisted crossing"
    if any(models.check_intertwiner(crossing, us, twisted=True, tol=1e-8)):
        return False, "a Haar rotation passed the twisted crossing"
    return True, "exhaustive signed permutations pass; 20/20 Haar samples separate"


def check_monte_carlo(quick: bool = False, report: list | None = None):
    """Criterion 12: exact u11^4 moment against seeded Haar sampling."""
    samples = 20_000 if quick else 100_000
    real = GroupSpec(Field.REAL, Level.CLASSICAL)
    for n in (3, 4):
        exact = float(moment(real, n, (1,) * 4, (1,) * 4))
        est, se = models.haar_moment_mc("orthogonal", n, (1,) * 4, (1,) * 4,
                                        samples=samples, seed=17 + n)
        if report is not None:
            report.append({"word": "u11^4", "n": n, "exact": exact,
                           "estimate": est, "se": se})
        if abs(est - exact) > 3 * se:
            return False, f"N={n}: {est:.5f} vs {exact:.5f} exceeds 3 s.e. ({se:.5f})"
    return True, f"within 3 s.e. at N=3,4 with {samples} samples"


_ALPHAS = {2: ("1*",), 4: ("1*1*", "11**"), 6: ("1*1*1*", "111***")}


def _random_sphere_points(s: SphereSpec, n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    if not s.twisted:
        return [models.sample_classical_point(s.field, n, int(rng.integers(0, 2 ** 31)))
                for _ in range(count)]
    pts = []
    for _ in range(count):
        axis = int(rng.integers(0, n))
        if s.field is Field.REAL:
            phase = complex(rng.choice((-1.0, 1.0)))
        else:
            phase = complex(np.exp(2j * np.pi * rng.random()))
        coords = np.zeros((n, 1, 1), dtype=complex)
        coords[axis] = phase
        pts.append(models.Model(coords))
    return pts


def check_fixed_vector_identity(quick: bool = False):
    """Criterion 13: the fixed-vector sum equals one on random compatible
    points, for every sphere and category pairing with l <= 6."""
    n = 3
    count = 10 if quick else 100
    checked = 0
    for s in SPHERES:
        g = s.isometry_group
        pts = _random_sphere_points(s, n, count,
                                    seed=sum(map(ord, s.name)) % 10_000)
        for l in (2, 4, 6):
            alphas = _ALPHAS[l] if s.field is Field.COMPLEX else (None,)
            for alpha in alphas:
                for p in category_pairings(g, alpha=alpha, k=l):
                    for pt in pts:
                        r = models.check_fixed_vector_identity(p, pt, s.twisted)
                        if r >= 1e-10:
                            return False, (f"residual {r:.2e} on {s.name}, "
                                           f"pairing {p}, point {pt.coordinates.ravel()}")
                        checked += 1
    return True, f"{checked} residuals below 1e-10"


def check_ergodicity(quick: bool = False):
    """Criterion 14: the row and column Weingarten sums weight the
    Kronecker symbols identically, exactly."""
    ns = (2, 3) if quick else (1, 2, 3, 4)
    checked = 0
    for g in GROUPS:
        for k in (2, 4, 6):
            alphas = _ALPHAS[k] if g.field is Field.COMPLEX else (None,)
            for alpha in alphas:
                # never empty: the adjacent or the nested pairing lies in it
                ps = category_pairings(g, alpha=alpha, k=k)
                for n in ns:
                    try:
                        w = weingarten_matrix(g, n, alpha=alpha, k=k)
                    except SingularGramError:
                        continue  # the Gram matrix degenerates below N = k/2
                    # sum_a (row sum - column sum)_a xi_a must vanish
                    weights = [r - c for r, c in zip(w.row_sums(), w.transpose().row_sums())]
                    diff: dict = {}
                    for weight, p in zip(weights, ps):
                        for key, coeff in xi_vector(p, n, g.twisted).entries.items():
                            diff[key] = diff.get(key, 0) + coeff * weight
                    if any(diff.values()):
                        return False, f"mismatch for {g.name}, k={k}, N={n}"
                    checked += 1
    return True, f"{checked} exact group/degree/dimension combinations"


CRITERIA: list[tuple[str, Callable]] = [
    ("weingarten_closed_forms", check_weingarten_closed_forms),
    ("scalar_products", check_scalar_products),
    ("functoriality", check_functoriality),
    ("explicit_twisted_maps", check_explicit_twisted_maps),
    ("classification", check_classification),
    ("derivations", check_derivations),
    ("halfcommuting_structure", check_halfcommuting_structure),
    ("product_ranks", check_product_ranks),
    ("stochasticity", check_stochasticity),
    ("sign_table", check_sign_table),
    ("intertwiners", check_intertwiners),
    ("monte_carlo", check_monte_carlo),
    ("fixed_vector_identity", check_fixed_vector_identity),
    ("ergodicity", check_ergodicity),
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_suite(suite: str = "paper") -> tuple[list[CheckResult], list[dict]]:
    """Run a named suite; returns the per-criterion results and, for the
    Monte Carlo suite, the estimate/error table."""
    if suite not in ("paper", "quick", "mc"):
        raise ValueError(f"unknown suite {suite!r}")
    mc_report: list[dict] = []
    results = []
    for name, fn in CRITERIA:
        if suite == "mc" and name != "monte_carlo":
            continue
        if suite == "quick" and name == "monte_carlo":
            continue
        kwargs = {"quick": suite == "quick"}
        if name == "monte_carlo":
            kwargs["report"] = mc_report
        passed, detail = fn(**kwargs)
        results.append(CheckResult(name, passed, detail))
    return results, mc_report
