"""Command-line front end: every operation behind a subcommand, with
deterministic JSON (default) or CSV output.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 verification
failure.  Matrices of rationals serialize entries as exact ``p/q``
strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import models, relations, verify
from .errors import NCSphereError, SizeLimitError
from .partitions import (
    PartitionClass,
    crossing_count,
    enumerate_partitions,
    halfcommuting_membership,
    is_member,
    parse_partition,
    perm_to_partition,
    signature,
    standard_form,
)
from .relations import (
    NCCombination,
    classify_monomial_sphere,
    comult_sign_check,
    group_relation_sign,
    monomial_system,
    parse_word,
    reduce as reduce_expr,
    saturate,
    sphere_relations,
)
from .weingarten import (
    Field,
    Level,
    category_pairings,
    gram,
    gram_rank_products,
    group_by_name,
    moment,
    parse_alpha,
    sphere_by_name,
    sphere_trace,
    weingarten_matrix,
)

# `reduce --expr` expands a power only when its coefficients fit in this many
# bits: every coefficient of c**n is at most (sum of |c|'s coefficients)**n,
# and each factor counts at least one bit, so a zero or unit base cannot ask
# for millions of multiplications either
POWER_BIT_BOUND = 4096

# operations running (directly or transitively) under each subcommand, for
# the coverage check
COMMAND_OPERATIONS = {
    "partitions": ["enumerate_partitions", "is_member", "kernel"],
    "signature": ["parse_partition", "signature", "standard_form", "crossing_count", "kernel"],
    "gram": ["category_pairings", "gram"],
    "weingarten": ["category_pairings", "gram", "weingarten_matrix"],
    "moment": ["moment", "category_pairings", "weingarten_matrix", "delta",
               "is_constant_on_blocks"],
    "trace": ["sphere_trace"],
    "rank": ["gram_rank_products"],
    "classify": ["classify_monomial_sphere", "halfcommuting_membership",
                 "perm_to_partition"],
    "saturate": ["saturate", "sphere_relations", "relation_sign",
                 "group_relation_sign", "relation_group", "comult_sign_check"],
    "reduce": ["reduce", "parse_word"],
    "check": ["sample_classical_point", "twisted_classical_points",
              "antidiagonal_model", "sqrt_positive_model", "clifford_model",
              "check_sphere_relations", "check_intertwiner",
              "check_fixed_vector_identity", "coaction_check",
              "enumerate_signed_permutations", "haar_moment_mc"],
    "verify": ["t_map", "xi_vector", "inner_product", "tensor_concat",
               "compose", "involution", "join"],
}


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
        return
    # csv: matrices become rows, lists one item per line, scalars key,value
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            for row in value:
                lines.append(",".join(str(x) for x in row))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for row in value:
                lines.append(",".join(str(x) for x in row.values()))
        elif isinstance(value, list):
            lines.extend(str(x) for x in value)
        else:
            lines.append(f"{key},{value}")
    print("\n".join(lines))


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


def _parse_legs(text: str):
    return int(text) if text.isdigit() else text


def _dimension(text: str) -> int:
    """The ``--n`` argument: a dimension N >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"N must be at least 1, got {n}")
    return n


def _bound(text: str) -> int:
    """The ``--degree``/``--indices`` arguments: a search bound >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"bound must be at least 1, got {n}")
    return n


def _perm_arg(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def cmd_partitions(args) -> dict:
    cls = PartitionClass(args.cls)
    got = enumerate_partitions(cls, _parse_legs(args.upper), _parse_legs(args.lower))
    return {"class": cls.value, "count": len(got),
            "partitions": [p.literal() for p in got]}


def cmd_signature(args) -> dict:
    p = parse_partition(args.partition)
    form, switches = standard_form(p)
    out = {"partition": p.literal(), "signature": signature(p),
           "switches": switches, "standard_form": form.literal()}
    if p.is_pairing():
        out["crossings"] = crossing_count(p)
    return out


def _pairing_args(args):
    group = group_by_name(args.group)
    alpha = args.alpha
    k = args.k
    if group.field is Field.COMPLEX and alpha is None:
        raise NCSphereError("complex groups need --alpha")
    return group, alpha, k


def cmd_gram(args) -> dict:
    group, alpha, k = _pairing_args(args)
    ps = category_pairings(group, alpha, k)
    g = gram(group, args.n, alpha, k)
    return {"group": group.name, "alpha": alpha, "k": k or len(alpha or ""),
            "N": args.n, "pairings": [p.literal() for p in ps],
            "gram": g.to_strings(),
            "row_sums": [str(x) for x in g.row_sums()]}


def cmd_weingarten(args) -> dict:
    group, alpha, k = _pairing_args(args)
    ps = category_pairings(group, alpha, k)
    g = gram(group, args.n, alpha, k)
    w = weingarten_matrix(group, args.n, alpha, k)
    return {"group": group.name, "alpha": alpha, "k": k or len(alpha or ""),
            "N": args.n, "pairings": [p.literal() for p in ps],
            "gram": g.to_strings(), "weingarten": w.to_strings()}


def cmd_moment(args) -> dict:
    group = group_by_name(args.group)
    value = moment(group, args.n, _parse_tuple(args.i), _parse_tuple(args.j),
                   alpha=args.alpha)
    return {"group": group.name, "N": args.n, "i": list(_parse_tuple(args.i)),
            "j": list(_parse_tuple(args.j)), "alpha": args.alpha,
            "moment": str(value)}


def cmd_trace(args) -> dict:
    sphere = sphere_by_name(args.sphere)
    value = sphere_trace(sphere, args.n, _parse_tuple(args.i), alpha=args.alpha)
    return {"sphere": sphere.name, "N": args.n, "i": list(_parse_tuple(args.i)),
            "alpha": args.alpha, "trace": str(value)}


def cmd_rank(args) -> dict:
    sphere = sphere_by_name(args.sphere)
    rank = gram_rank_products(sphere, args.n, conjugated=args.conjugated)
    return {"sphere": sphere.name, "N": args.n, "conjugated": args.conjugated,
            "rank": rank}


def cmd_classify(args) -> dict:
    perms = [_perm_arg(p) for p in args.perm]
    got = classify_monomial_sphere(perms, args.regime,
                                   max_degree=args.degree,
                                   max_indices=args.indices)
    out = {"perms": ["".join(str(x) for x in p) for p in perms],
           "regime": args.regime, "sphere": got,
           "halfcommuting": [halfcommuting_membership(p) for p in perms]}
    if got != "undetermined":
        spec = sphere_by_name(got)
        out["field"] = spec.field.value
        out["level"] = spec.level.value
        out["twisted"] = spec.twisted
    return out


def cmd_saturate(args) -> dict:
    if args.group:
        # group-level presets: report the commutation sign rules and, for
        # the twisted half-liberated groups, the span-table consistency
        g = group_by_name(args.group)
        out: dict = {"group": g.name}
        out["pair_signs"] = {
            "same_row": group_relation_sign(g, ((1, 1), (1, 2))),
            "same_column": group_relation_sign(g, ((1, 1), (2, 1))),
            "generic": group_relation_sign(g, ((1, 1), (2, 2))),
        }
        out["triple_signs"] = {
            "span_3_3": group_relation_sign(g, ((1, 1), (2, 2), (3, 3))),
            "span_3_1": group_relation_sign(g, ((1, 1), (2, 1), (3, 1))),
            "span_2_3": group_relation_sign(g, ((1, 1), (1, 2), (2, 3))),
        }
        if g.level is Level.HALF and g.twisted:
            out["comult_sign_check"] = comult_sign_check(g)
        return out
    system = _system(args)
    source = ({"sphere": args.sphere} if args.sphere
              else {"regime": args.regime, "perms": list(args.perm)})
    result = saturate(system, args.degree, args.indices)
    out = {**source,
           "derived": [s.literal() for s in result.schemas],
           "truncated": result.truncated,
           "trace": result.engine.trace}
    if args.k:
        group = relations.relation_group(system, args.k)
        out["relation_group"] = sorted(
            "".join(str(x) for x in s) for s in group)
    return out


def _system(args) -> relations.RelationSystem:
    """The relation system of `saturate`/`reduce`: a sphere preset, or the
    monomial system of the given permutations over the regime."""
    if args.sphere:
        return sphere_relations(sphere_by_name(args.sphere))
    return monomial_system([_perm_arg(p) for p in args.perm],
                           *relations.REGIMES[args.regime])


def cmd_reduce(args) -> dict:
    expr = _parse_expression(args.expr, args.degree)
    out, trace = reduce_expr(expr, _system(args), args.degree, args.indices)
    return {"expr": args.expr, "reduced": str(out), "zero": out.is_zero(),
            "trace": trace}


def _parse_expression(text: str, max_degree: int) -> NCCombination:
    """Tiny expression grammar: words, + -, integer coefficients,
    parentheses and ^n powers, with juxtaposition as product.

    A product or power whose words would be longer than ``max_degree``,
    or a power whose coefficients could need more than ``POWER_BIT_BOUND``
    bits, raises ``SizeLimitError`` before it is expanded.
    """
    pos = 0

    def bounded(length: int) -> None:
        if length > max_degree:
            raise SizeLimitError(f"expression degree {length} exceeds the bound {max_degree}")

    def degree(c: NCCombination) -> int:
        return max(map(len, c.terms), default=0)

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_sum():
        nonlocal pos
        acc = parse_product()
        while True:
            skip_ws()
            if pos < len(text) and text[pos] in "+-":
                op = text[pos]
                pos += 1
                term = parse_product()
                acc = acc + term if op == "+" else acc - term
            else:
                return acc

    def parse_product():
        nonlocal pos
        acc = parse_power()
        while True:
            skip_ws()
            if pos < len(text) and (text[pos].islower() or text[pos].isdigit()
                                    or text[pos] == "("):
                factor = parse_power()
                if acc.terms and factor.terms:
                    bounded(degree(acc) + degree(factor))
                acc = acc * factor
            else:
                return acc

    def parse_power():
        nonlocal pos
        base = parse_atom()
        skip_ws()
        if pos < len(text) and text[pos] == "^":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            exponent = int(text[start:pos])
            bounded(degree(base) * exponent)
            bits = exponent * max(1, sum(map(abs, base.terms.values())).bit_length())
            if bits > POWER_BIT_BOUND:
                raise SizeLimitError(f"power needs up to {bits} coefficient bits, "
                                     f"over the bound {POWER_BIT_BOUND}")
            base = base ** exponent
        return base

    def parse_atom():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ValueError("unexpected end of expression")
        if text[pos] == "(":
            pos += 1
            inner = parse_sum()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError("unbalanced parenthesis")
            pos += 1
            return inner
        if text[pos].isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            return NCCombination({(): int(text[start:pos])})
        start = pos
        while pos < len(text) and (text[pos].islower() or text[pos] == "*"):
            pos += 1
        if pos == start:
            raise ValueError(f"expected a word, a number or '(' at {text[pos:]!r}")
        return NCCombination.monomial(parse_word(text[start:pos]))

    out = parse_sum()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input in expression: {text[pos:]!r}")
    return out


def cmd_check(args) -> dict:
    sphere = sphere_by_name(args.sphere) if args.sphere else None
    out: dict = {"N": args.n}
    model = None
    if args.op in ("relations", "fixed_vector", "coaction"):
        model = _build_model(args, sphere)
        out["model"] = args.model
        out["model_data"] = model.to_json_dict()
    if args.op == "relations":
        if sphere is None:
            raise NCSphereError("--op relations needs --sphere")
        violations = models.check_sphere_relations(model, sphere, args.tol)
        out["violations"] = [{"relation": d, "residual": r} for d, r in violations]
        out["ok"] = not violations
    if args.op in ("fixed_vector", "intertwiner") and not args.partition:
        raise NCSphereError(f"--op {args.op} needs --partition")
    if args.op == "fixed_vector":
        p = parse_partition(args.partition)
        out["partition"] = p.literal()
        out["residual"] = models.check_fixed_vector_identity(p, model, args.twisted)
        out["ok"] = out["residual"] < args.tol
    if args.op == "intertwiner":
        p = parse_partition(args.partition)
        if args.matrix == "signed":
            mats = models.enumerate_signed_permutations(args.n)
        else:
            mats = models.haar_batch(Field.REAL, args.n, args.samples, args.seed)
        passed = models.check_intertwiner(p, mats, args.twisted, args.tol)
        out.update({"partition": p.literal(), "matrix": args.matrix,
                    "pass_count": sum(passed), "total": len(passed)})
    if args.op == "coaction":
        if sphere is None:
            raise NCSphereError("--op coaction needs --sphere")
        elements = models.enumerate_signed_permutations(args.n)
        if not 0 <= args.element < len(elements):
            raise NCSphereError(f"--element must lie in 0..{len(elements) - 1}, "
                                f"got {args.element}")
        out["ok"] = models.coaction_check(elements[args.element], model, sphere, args.tol)
    if args.op == "mc_moment":
        if args.i is None or args.j is None:
            raise NCSphereError("--op mc_moment needs --i and --j")
        i, j = _parse_tuple(args.i), _parse_tuple(args.j)
        alpha = parse_alpha(args.alpha) or ("1",) * len(i)
        if not len(i) == len(j) == len(alpha):
            raise NCSphereError("--i, --j and --alpha must share a length")
        est, se = models.haar_moment_mc(args.mc_group, args.n, list(zip(i, j, alpha)),
                                        samples=args.samples, seed=args.seed)
        out.update({"estimate": est, "se": se, "group": args.mc_group})
    return out


def _build_model(args, sphere):
    name = args.model
    if name == "classical_point":
        field = sphere.field if sphere else Field.REAL
        return models.sample_classical_point(field, args.n, args.seed)
    if name == "twisted_point":
        field = sphere.field if sphere else Field.REAL
        pts = models.twisted_classical_points(field, args.n)
        return pts[args.seed % len(pts)]
    if name == "antidiagonal":
        z = models.sample_classical_point(Field.COMPLEX, args.n, args.seed)
        return models.antidiagonal_model(z)
    if name == "clifford":
        return models.clifford_model(args.n)
    if name == "sqrt_positive":
        if args.n != 3:
            raise NCSphereError(f"the sqrt_positive model has 3 coordinates, got --n {args.n}")
        w = np.exp(2j * np.pi / 3)
        model, _ = models.sqrt_positive_model(
            (1 / 3, 1 / 3, 1 / 3), (1 / 3, 1 / 3, 1 / 3),
            (0.1, 0.1 * w, 0.1 * w ** 2))
        return model
    raise NCSphereError(f"unknown model {name!r}")


def cmd_verify(args) -> dict:
    results, mc_report = verify.run_suite(args.suite)
    payload = {
        "suite": args.suite,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "passed": all(r.passed for r in results),
    }
    if args.suite == "mc":
        payload["estimates"] = mc_report
    return payload


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged,
    so every call of `main` reuses it."""
    ap = argparse.ArgumentParser(
        prog="ncspheres",
        description="Diagram calculus and exact Weingarten integration for "
                    "the ten liberated/twisted spheres.")
    sub = ap.add_subparsers(dest="command", required=True)

    # option groups shared by several subcommands; argparse lists a
    # parent's options before the subcommand's own
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--degree", type=_bound, default=6)
    bounds.add_argument("--indices", type=_bound, default=4)
    monomial = argparse.ArgumentParser(add_help=False)
    monomial.add_argument("--perm", action="append", default=[])
    monomial.add_argument("--regime", default="real", choices=relations.REGIMES)

    def command(name, handler, summary, parents=()):
        p = sub.add_parser(name, help=summary, parents=[fmt, *parents])
        p.set_defaults(handler=handler)
        return p

    p = command("partitions", cmd_partitions, "enumerate a partition class")
    p.add_argument("--class", dest="cls", required=True,
                   choices=[c.value for c in PartitionClass])
    p.add_argument("--upper", default="0")
    p.add_argument("--lower", default="0")

    p = command("signature", cmd_signature, "twisted signature of a partition")
    p.add_argument("--partition", required=True)

    for name, handler in (("gram", cmd_gram), ("weingarten", cmd_weingarten)):
        p = command(name, handler, f"{name} matrix of a group category")
        p.add_argument("--group", required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--alpha")
        p.add_argument("--n", type=_dimension, required=True)

    p = command("moment", cmd_moment, "exact Haar moment of a coordinate word")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--i", required=True)
    p.add_argument("--j", required=True)
    p.add_argument("--alpha")

    p = command("trace", cmd_trace, "canonical trace of a sphere monomial")
    p.add_argument("--sphere", required=True)
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--i", required=True)
    p.add_argument("--alpha")

    p = command("rank", cmd_rank, "rank of the degree-2 product Gram matrix")
    p.add_argument("--sphere", required=True)
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--conjugated", action="store_true")

    p = command("classify", cmd_classify, "identify a monomial sphere", [bounds])
    p.add_argument("--perm", action="append", required=True,
                   help="one-line permutation word, e.g. 321")
    p.add_argument("--regime", required=True, choices=relations.REGIMES)

    p = command("saturate", cmd_saturate, "derived low-degree relation schemas",
                [bounds, monomial])
    p.add_argument("--sphere", help="saturate a sphere preset instead")
    p.add_argument("--group", help="report a group preset's sign rules instead")
    p.add_argument("--k", type=int,
                   help="also report the derivable permutation group at length k")

    p = command("reduce", cmd_reduce, "normal form of a word combination",
                [bounds, monomial])
    p.add_argument("--expr", required=True, help='e.g. "(ab-ba)^2"')
    p.add_argument("--sphere")

    p = command("check", cmd_check, "numeric model checks")
    p.add_argument("--op", default="relations",
                   choices=("relations", "fixed_vector", "intertwiner",
                            "coaction", "mc_moment"))
    p.add_argument("--sphere")
    p.add_argument("--model", default="classical_point",
                   choices=("classical_point", "twisted_point", "antidiagonal",
                            "clifford", "sqrt_positive"))
    p.add_argument("--n", type=_dimension, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--partition")
    p.add_argument("--twisted", action="store_true")
    p.add_argument("--matrix", choices=("signed", "haar"), default="signed")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--element", type=int, default=0)
    p.add_argument("--mc-group", default="orthogonal",
                   choices=("orthogonal", "unitary", "hyperoctahedral", "k_n"))
    p.add_argument("--i")
    p.add_argument("--j")
    p.add_argument("--alpha")

    p = command("verify", cmd_verify, "run an acceptance suite")
    p.add_argument("--suite", default="paper", choices=("paper", "quick", "mc"))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
        _emit(payload, args.format)
    except (NCSphereError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 3 if args.command == "verify" and not payload["passed"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
