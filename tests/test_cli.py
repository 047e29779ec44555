import contextlib
import io
import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres.cli import (
    POWER_BIT_BOUND,
    _parse_expression,
    build_parser,
    main,
)
from ncspheres.errors import SizeLimitError
from ncspheres.relations import NCCombination
from ncspheres.weingarten import GROUPS, SPHERES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# subcommands


def test_weingarten_closed_form_at_n5(capsys):
    code, data = run_json(capsys, "weingarten", "--group", "o_n", "--k", "4", "--n", "5")
    assert code == 0
    w = data["weingarten"]
    assert w[0][0] == "3/70" and w[0][1] == "-1/140"  # 1/(5*4*7) * [[6,-1,..]]
    assert all(w[i][i] == "3/70" for i in range(3))


def test_gram_output(capsys):
    code, data = run_json(capsys, "gram", "--group", "u_n", "--alpha", "11**", "--n", "3")
    assert code == 0
    assert data["gram"] == [["9", "3"], ["3", "9"]]
    assert data["row_sums"] == ["12", "12"]


def test_partitions_and_signature(capsys):
    code, data = run_json(capsys, "partitions", "--class", "p2", "--lower", "4")
    assert code == 0 and data["count"] == 3
    code, data = run_json(capsys, "signature", "--partition", "|abab")
    assert data["signature"] == -1 and data["crossings"] == 1


def test_moment_and_trace(capsys):
    code, data = run_json(capsys, "moment", "--group", "o_n", "--n", "3",
                          "--i", "1,1,1,1", "--j", "1,1,1,1")
    assert data["moment"] == "1/5"  # 3/(N(N+2)) at N=3
    code, data = run_json(capsys, "trace", "--sphere", "bar_s_r", "--n", "3",
                          "--i", "1,2,2,1")
    assert data["trace"] == "1/15"


def test_rank(capsys):
    code, data = run_json(capsys, "rank", "--sphere", "bar_s_c", "--n", "3",
                          "--conjugated")
    assert data["rank"] == 9
    code, data = run_json(capsys, "rank", "--sphere", "s_r", "--n", "3")
    assert data["rank"] == 6


def test_rank_at_n1_is_one_on_every_sphere(capsys):
    # one unitary z generates every sphere at N = 1, so the one product's
    # Gram matrix is [1], whether or not W exists there
    for s in SPHERES:
        for conjugated in (), ("--conjugated",):
            assert main(["rank", "--sphere", s.name, "--n", "1", *conjugated]) == 0
            captured = capsys.readouterr()
            assert json.loads(captured.out)["rank"] == 1 and captured.err == "", s.name


def test_classify(capsys):
    code, data = run_json(capsys, "classify", "--perm", "321", "--regime", "real")
    assert code == 0
    assert data["sphere"] == "s_r_star"
    assert data["field"] == "real" and data["level"] == "half"


def test_saturate(capsys):
    code, data = run_json(capsys, "saturate", "--perm", "312", "--regime", "real")
    assert code == 0
    assert "ab=+ba[a≠b]" in data["derived"]


# the sign rules `saturate --group` prints for each group: the pair signs
# (same row, same column, generic) and the triple signs (spans 3/3, 3/1, 2/3)
NONE3 = (None, None, None)
GROUP_SIGNS = {
    "o_n": ((1, 1, 1), (1, 1, 1)),
    "u_n": ((1, 1, 1), (1, 1, 1)),
    "bar_o_n": ((-1, -1, 1), (1, -1, -1)),
    "bar_u_n": ((-1, -1, 1), (1, -1, -1)),
    "o_n_star": (NONE3, (1, 1, 1)),
    "u_n_star2": (NONE3, (1, 1, 1)),
    "bar_o_n_star": (NONE3, (1, -1, -1)),
    "bar_u_n_star2": (NONE3, (1, -1, -1)),
    "o_n_plus": (NONE3, NONE3),
    "u_n_plus": (NONE3, NONE3),
}


def test_group_signs_cover_every_group():
    assert set(GROUP_SIGNS) == {g.name for g in GROUPS}


@pytest.mark.parametrize("group", sorted(GROUP_SIGNS))
def test_saturate_group_output_is_pinned(capsys, group):
    pairs, triples = GROUP_SIGNS[group]
    want = {"group": group,
            "pair_signs": dict(zip(("same_row", "same_column", "generic"), pairs)),
            "triple_signs": dict(zip(("span_3_3", "span_3_1", "span_2_3"), triples))}
    if group in ("bar_o_n_star", "bar_u_n_star2"):
        want["comult_sign_check"] = True
    code, out = run_cli(capsys, "saturate", "--group", group)
    assert code == 0
    assert out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("sphere", [s.name for s in SPHERES])
def test_saturate_reports_the_relation_group_at_k_zero(capsys, sphere):
    # the group of the empty word is the trivial group {()}
    code, data = run_json(capsys, "saturate", "--sphere", sphere, "--k", "0")
    assert code == 0 and data["relation_group"] == [""]


@pytest.mark.parametrize("argv,first,second", [
    (["reduce", "--expr", "ab", "--sphere", "s_r", "--perm", "21"], "--sphere", "--perm"),
    (["saturate", "--sphere", "s_r", "--perm", "21"], "--sphere", "--perm"),
    (["saturate", "--group", "o_n", "--k", "3"], "--group", "--k"),
    (["saturate", "--group", "o_n", "--k", "0"], "--group", "--k"),
    (["saturate", "--group", "o_n", "--sphere", "s_r"], "--group", "--sphere"),
    (["saturate", "--group", "o_n", "--perm", "21"], "--group", "--perm"),
    # a preset fixes its own regime and a group report has no search bounds,
    # so these options would be dropped without a word
    (["reduce", "--expr", "ab-ba", "--sphere", "s_r", "--regime", "complex_twisted"],
     "--sphere", "--regime"),
    (["saturate", "--sphere", "s_r", "--regime", "real"], "--sphere", "--regime"),
    (["saturate", "--group", "o_n", "--regime", "complex"], "--group", "--regime"),
    (["saturate", "--group", "o_n", "--degree", "3"], "--group", "--degree"),
    (["saturate", "--group", "o_n", "--indices", "4"], "--group", "--indices"),
])
def test_conflicting_relation_options_are_refused(capsys, argv, first, second):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert first in captured.err and second in captured.err


def test_regime_and_bounds_default_when_not_given(capsys):
    # no --regime is the real regime, no --degree/--indices the library bounds
    default = run_json(capsys, "saturate", "--perm", "312")
    explicit = run_json(capsys, "saturate", "--perm", "312", "--regime", "real",
                        "--degree", "6", "--indices", "4")
    assert default == explicit and default[1]["regime"] == "real"
    assert run_json(capsys, "reduce", "--expr", "ab-ba", "--perm", "21") \
        == run_json(capsys, "reduce", "--expr", "ab-ba", "--perm", "21", "--regime", "real")


@pytest.mark.parametrize("expr", ["é", "aé", "(ab+ß)^2"])
def test_reduce_refuses_a_letter_outside_a_to_z(capsys, expr):
    # lowercase letters outside a..z name no index block
    assert main(["reduce", "--expr", expr, "--perm", "21"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "bad word literal" in captured.err


def test_reduce(capsys):
    code, data = run_json(capsys, "reduce", "--expr", "(ab-ba)^2",
                          "--perm", "312", "--regime", "real")
    assert code == 0 and data["zero"]
    code, data = run_json(capsys, "reduce", "--expr", "(ab+ba)^2",
                          "--perm", "312", "--regime", "real_twisted")
    assert data["zero"]


def test_check_relations(capsys):
    code, data = run_json(capsys, "check", "--op", "relations", "--sphere", "bar_s_r",
                          "--model", "clifford", "--n", "3")
    assert code == 0 and data["ok"]


def test_check_intertwiner(capsys):
    code, data = run_json(capsys, "check", "--op", "intertwiner",
                          "--partition", "ab|ba", "--twisted",
                          "--matrix", "signed", "--n", "2")
    assert data["pass_count"] == data["total"] == 8


def test_check_fixed_vector(capsys):
    code, data = run_json(capsys, "check", "--op", "fixed_vector",
                          "--partition", "|abab", "--twisted",
                          "--model", "clifford", "--sphere", "bar_s_r", "--n", "3")
    assert data["ok"]


def test_fixed_vector_of_the_empty_partition_is_one(capsys):
    # xi of "|" is the scalar 1, so the sum is 1 and the residual 0
    code, data = run_json(capsys, "check", "--op", "fixed_vector", "--sphere", "s_r",
                          "--model", "classical_point", "--partition", "|")
    assert code == 0 and data["residual"] == 0.0 and data["ok"]


def test_check_mc_moment(capsys):
    code, data = run_json(capsys, "check", "--op", "mc_moment",
                          "--mc-group", "hyperoctahedral", "--n", "2",
                          "--i", "1,1", "--j", "1,2", "--model", "classical_point")
    assert data["estimate"] == 0.0


def test_verify_quick(capsys):
    code, data = run_json(capsys, "verify", "--suite", "quick")
    assert code == 0
    assert data["passed"] and len(data["results"]) == 13


def test_verify_mc(capsys):
    code, data = run_json(capsys, "verify", "--suite", "mc")
    assert code == 0 and data["passed"]
    assert [(row["word"], row["n"]) for row in data["estimates"]] == [("u11^4", 3), ("u11^4", 4)]
    for row in data["estimates"]:
        assert abs(row["estimate"] - row["exact"]) <= 3 * row["se"]


def test_error_exit_codes(capsys):
    code, _ = run_cli(capsys, "weingarten", "--group", "nope", "--k", "4", "--n", "3")
    assert code == 1
    code, _ = run_cli(capsys, "weingarten", "--group", "o_n", "--k", "4", "--n", "1")
    assert code == 1  # singular Gram matrix
    with pytest.raises(SystemExit) as exc:
        main(["weingarten", "--bad-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["moment", "--group", "o_n", "--n", "3", "--i", "5,5", "--j", "1,1"],
    ["moment", "--group", "o_n", "--n", "3", "--i", "0,0", "--j", "0,0"],
    ["moment", "--group", "u_n", "--n", "2", "--i", "1,1", "--j", "1,3", "--alpha", "1*"],
    ["trace", "--sphere", "bar_s_r", "--n", "2", "--i", "1,2,3,1"],
    ["check", "--op", "mc_moment", "--n", "3", "--i", "7", "--j", "1"],
    ["check", "--op", "mc_moment", "--mc-group", "k_n", "--n", "3",
     "--i", "0,1", "--j", "1,1", "--alpha", "1*"],
])
def test_index_outside_range_is_an_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "outside 1.." in captured.err


@pytest.mark.parametrize("argv", [
    ["rank", "--sphere", "s_r", "--n", "0"],
    ["weingarten", "--group", "o_n", "--k", "4", "--n", "-2"],
    ["check", "--op", "relations", "--sphere", "s_r", "--model", "clifford", "--n", "0"],
    ["moment", "--group", "o_n", "--n", "0", "--i", "1,1", "--j", "1,1"],
])
def test_dimension_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "N must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
def test_tolerance_must_be_finite_and_not_negative(capsys, tol):
    # the anticommuting model violates s_r; a NaN tolerance would pass it
    argv = ["check", "--op", "relations", "--sphere", "s_r", "--model", "clifford", "--n", "3"]
    code, data = run_json(capsys, *argv)
    assert code == 0 and not data["ok"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={tol}"])
    assert exc.value.code == 2
    assert "tolerance must be finite and at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("element", ["9999", "48", "-1"])
def test_element_outside_the_list_is_an_error(capsys, element):
    # B_3 has 2**3 * 3! = 48 signed permutations
    assert main(["check", "--op", "coaction", "--sphere", "s_r", "--n", "3",
                 "--element", element]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "0..47" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["gram", "--group", "o_n", "--k", "-2", "--n", "3"], "negative leg count"),
    (["saturate", "--perm", "21", "--k", "-1"], "k >= 0"),
    (["check", "--op", "mc_moment", "--n", "2", "--i", "1", "--j", "1", "--samples", "1"],
     "at least 2 samples"),
    (["check", "--op", "mc_moment", "--mc-group", "unitary", "--n", "2", "--i", "1",
      "--j", "1", "--samples", "0"], "at least 2 samples"),
    (["partitions", "--class", "nc2", "--upper", "-1", "--lower", "2"], "negative leg count -1"),
    (["partitions", "--class", "nc2", "--upper", "2", "--lower", "-3"], "negative leg count -3"),
])
def test_meaningless_sizes_are_errors(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv", [
    ["saturate", "--perm", "21", "--degree", "-1"],
    ["saturate", "--perm", "21", "--indices", "-3"],
    ["classify", "--perm", "321", "--regime", "real", "--indices", "0"],
    ["classify", "--perm", "12", "--regime", "complex", "--degree", "0"],
    ["reduce", "--expr", "ab", "--perm", "21", "--indices", "-2"],
])
def test_search_bound_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "bound must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gram", "--group", "o_n", "--k", "2", "--alpha", "1", "--n", "2"],
    ["gram", "--group", "u_n", "--alpha", "1*", "--k", "4", "--n", "2"],
    ["weingarten", "--group", "o_n_star", "--alpha", "11", "--k", "4", "--n", "3"],
])
def test_k_and_alpha_of_different_lengths_are_an_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "disagrees" in captured.err


def test_weingarten_builds_the_gram_matrix_once(monkeypatch, capsys):
    # what is expensive: the block counts |p v q| (once per pairing set) and
    # the inversion (once per category and N); a Gram matrix is a table of
    # powers of N over the block counts
    from ncspheres import weingarten

    builds, inversions = [], []
    real_block_counts, real_inverse = weingarten._block_counts, weingarten.ExactMatrix.inverse
    monkeypatch.setattr(weingarten, "_memo", OrderedDict())
    monkeypatch.setattr(weingarten, "_held", 0)
    monkeypatch.setattr(weingarten, "_block_counts",
                        lambda ps: builds.append(len(ps)) or real_block_counts(ps))
    monkeypatch.setattr(weingarten.ExactMatrix, "inverse",
                        lambda m, *gens: inversions.append(m.nrows) or real_inverse(m, *gens))
    for group, n, expect in (("o_n_star", 4, [6]), ("o_n_star", 5, [6, 6]),
                             ("bar_o_n_star", 4, [6, 6]), ("o_n_star", 5, [6, 6])):
        code, data = run_json(capsys, "weingarten", "--group", group, "--k", "6", "--n", str(n))
        assert code == 0 and len(data["pairings"]) == 6
        assert builds == [6] and inversions == expect


# ---------------------------------------------------------------------------
# determinism and coverage


def test_byte_identical_output(capsys):
    argv = ["check", "--op", "relations", "--sphere", "s_r",
            "--model", "classical_point", "--n", "4", "--seed", "9"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_csv_format(capsys):
    code, out = run_cli(capsys, "gram", "--group", "o_n", "--k", "2", "--n", "3",
                        "--format", "csv")
    assert code == 0
    assert "3" in out and "{" not in out


OPERATIONS = [
    # partitions
    "enumerate_partitions", "is_member", "join", "kernel",
    "is_constant_on_blocks", "standard_form", "signature", "crossing_count",
    "halfcommuting_membership",
    # tensors
    "delta", "t_map", "xi_vector", "inner_product", "tensor_concat",
    "compose", "involution",
    # weingarten
    "category_pairings", "gram", "weingarten_matrix", "moment",
    "sphere_trace", "gram_rank_products",
    # relations
    "sphere_relations", "group_relation_sign", "relation_sign", "saturate",
    "reduce", "classify_monomial_sphere", "relation_group",
    "comult_sign_check",
    # models
    "sample_classical_point", "twisted_classical_points",
    "antidiagonal_model", "sqrt_positive_model", "check_sphere_relations",
    "enumerate_signed_permutations", "check_intertwiner", "haar_moment_mc",
    "check_fixed_vector_identity", "coaction_check",
]


# representative argv of each subcommand, one per mode where it has several
REPRESENTATIVE_ARGV = {
    "partitions": [["partitions", "--class", "p2", "--lower", "4"]],
    "signature": [["signature", "--partition", "|abab"]],
    "gram": [["gram", "--group", "o_n", "--k", "4", "--n", "3"]],
    "weingarten": [["weingarten", "--group", "o_n", "--k", "4", "--n", "3"]],
    "moment": [["moment", "--group", "o_n", "--n", "3", "--i", "1,1,2,2", "--j", "1,2,1,2"]],
    "trace": [["trace", "--sphere", "bar_s_r", "--n", "3", "--i", "1,2,2,1"]],
    "rank": [["rank", "--sphere", "s_r", "--n", "2"]],
    "classify": [["classify", "--perm", "321", "--regime", "real"]],
    "saturate": [["saturate", "--sphere", "bar_s_r", "--k", "3"],
                 ["saturate", "--group", "bar_o_n_star"]],
    "reduce": [["reduce", "--expr", "(ab-ba)^2", "--perm", "312"]],
    "check": [["check", "--op", "relations", "--sphere", "s_r", "--model", "classical_point"],
              ["check", "--op", "relations", "--sphere", "bar_s_r", "--model", "twisted_point"],
              ["check", "--op", "relations", "--sphere", "s_c_star2", "--model", "antidiagonal"],
              ["check", "--op", "relations", "--sphere", "bar_s_r", "--model", "clifford"],
              ["check", "--op", "relations", "--sphere", "s_r_plus", "--model", "sqrt_positive"],
              ["check", "--op", "fixed_vector", "--partition", "|abab", "--twisted",
               "--sphere", "bar_s_r", "--model", "clifford"],
              ["check", "--op", "intertwiner", "--partition", "ab|ba", "--n", "2"],
              ["check", "--op", "coaction", "--sphere", "s_r", "--n", "2"],
              ["check", "--op", "mc_moment", "--n", "2", "--i", "1,1", "--j", "1,1"]],
    "verify": [["verify", "--suite", "quick"]],
}


def test_every_operation_is_reachable(monkeypatch, capsys):
    import importlib

    assert set(REPRESENTATIVE_ARGV) == {
        "partitions", "signature", "gram", "weingarten", "moment", "trace",
        "rank", "classify", "saturate", "reduce", "check", "verify",
    }
    # wrap each operation under every name a library module looks it up by
    modules = [importlib.import_module(f"ncspheres.{name}") for name in (
        "cli", "models", "partitions", "relations", "tensors", "verify", "weingarten")]
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in OPERATIONS:
        fn = next(vars(m)[name] for m in modules if name in vars(m))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted(name, fn))
    for argvs in REPRESENTATIVE_ARGV.values():
        for argv in argvs:
            assert main(argv) == 0, argv
    capsys.readouterr()
    missing = sorted(set(OPERATIONS) - called)
    assert not missing, f"operations not reachable from any subcommand: {missing}"


def test_expression_parser():
    expr = _parse_expression("(ab-ba)^2", 6)
    assert len(expr.terms) == 4
    expr2 = _parse_expression("2ab - ab - ab", 6)
    assert expr2.is_zero()
    expr3 = _parse_expression("ab*a", 6)
    assert list(expr3.terms) == [bytes([0, 3, 0])]  # 2·block + star per letter
    with pytest.raises(ValueError):
        _parse_expression("(ab", 6)


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once(monkeypatch, capsys):
    import argparse

    assert build_parser() is build_parser()
    run_cli(capsys, "signature", "--partition", "|abab")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _ = run_cli(capsys, "moment", "--group", "o_n", "--n", "3",
                      "--i", "1,1", "--j", "1,1")
    assert code == 0 and not built


@pytest.mark.parametrize("before,argv", [
    (["saturate", "--perm", "312"], ["saturate", "--sphere", "s_r"]),
    (["saturate", "--perm", "312"], ["saturate", "--perm", "321", "--regime", "complex"]),
    (["classify", "--perm", "321", "--regime", "complex"],
     ["reduce", "--expr", "(ab-ba)^2", "--perm", "312"]),
    (["reduce", "--expr", "ab", "--perm", "21", "--regime", "real_twisted",
      "--degree", "4", "--format", "csv"],
     ["reduce", "--expr", "(ab+ba)^2", "--perm", "312"]),
    (["check", "--op", "intertwiner", "--partition", "ab|ba", "--twisted", "--n", "2"],
     ["check", "--op", "intertwiner", "--partition", "ab|ba", "--n", "2"]),
])
def test_output_does_not_depend_on_earlier_calls(capsys, before, argv):
    alone = run_cli(capsys, *argv)
    run_cli(capsys, *before)
    assert run_cli(capsys, *argv) == alone


def test_failed_verification_exits_3(monkeypatch, capsys):
    from ncspheres import verify

    monkeypatch.setattr(verify, "CRITERIA",
                        [("forced_failure", lambda quick: (False, "forced"))])
    code, data = run_json(capsys, "verify", "--suite", "quick")
    assert code == 3
    assert data["passed"] is False
    assert data["results"] == [{"name": "forced_failure", "passed": False,
                                "detail": "forced"}]


@pytest.mark.parametrize("command", [["classify"], ["saturate"], ["reduce", "--expr", "ab"]])
def test_regime_choices_are_the_regime_table(capsys, command):
    from ncspheres.relations import REGIMES

    for regime in REGIMES:
        args = build_parser().parse_args(command + ["--perm", "21", "--regime", regime])
        assert args.regime == regime
    with pytest.raises(SystemExit):
        build_parser().parse_args(command + ["--perm", "21", "--regime", "quaternion"])
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# meaningless model sizes


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_haar_intertwiner_check_needs_a_sample(capsys, samples):
    assert main(["check", "--op", "intertwiner", "--partition", "ab|ba",
                 "--matrix", "haar", "--samples", samples, "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "at least 1 sample" in captured.err


def test_intertwiner_check_refuses_a_dense_frame_past_the_bound(capsys):
    # 6^8 cells per matrix: refused before any dense map is built
    assert main(["check", "--op", "intertwiner", "--partition", "abcd|abcd",
                 "--matrix", "haar", "--samples", "20", "--n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "dense cells" in captured.err


def test_intertwiner_check_refuses_work_past_the_bound(capsys, monkeypatch):
    # 2000 samples x 4^8 cells, past 2^26: refused before T_p is built
    from ncspheres import models

    def no_map(*args):
        raise AssertionError("T_p built past the work bound")

    monkeypatch.setattr(models, "t_entries", no_map)
    assert main(["check", "--op", "intertwiner", "--partition", "abcd|abcd",
                 "--matrix", "haar", "--samples", "2000", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "dense cells in all" in captured.err


@pytest.mark.parametrize("argv", [
    ["--op", "intertwiner", "--partition", "ab|ba", "--matrix", "haar"],
    ["--op", "mc_moment", "--mc-group", "orthogonal", "--i", "1,1", "--j", "1,1"],
    ["--op", "mc_moment", "--mc-group", "unitary", "--i", "1,1", "--j", "1,1", "--alpha", "1*"],
], ids=["intertwiner", "mc_orthogonal", "mc_unitary"])
def test_haar_samples_past_the_bound_are_refused_before_any_draw(capsys, monkeypatch, argv):
    # 10^8 samples at N = 4 would be 1.6e9 Gaussians drawn at once (13 GB)
    import numpy as np

    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator made past the Haar bound")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert main(["check", *argv, "--samples", "100000000", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Haar bound" in captured.err


@pytest.mark.parametrize("argv,message", [
    # a Clifford model of 14 coordinates has dimension 2^7, past 2^6
    (["check", "--op", "relations", "--sphere", "bar_s_r", "--model", "clifford",
      "--n", "14"], "dimension"),
    # 11^5 tuples x 10 legs on a point, past 2^20 multiply-adds
    (["check", "--op", "fixed_vector", "--sphere", "s_r", "--model", "classical_point",
      "--partition", "|aabbccddee", "--n", "11"], "1610510 multiply-adds"),
    # 12^4 tuples x 8 legs x 64^3 at d = 64: refused at once, where the
    # products alone would run for seconds
    (["check", "--op", "fixed_vector", "--sphere", "bar_s_r", "--model", "clifford",
      "--n", "12", "--partition", "|aabbccdd", "--twisted"], "multiply-adds"),
    # N^k relation tuples past 4^8: 41^3 and 257^2
    (["check", "--op", "relations", "--sphere", "s_r_star", "--n", "41"], "68921 index tuples"),
    (["check", "--op", "relations", "--sphere", "s_c", "--n", "257"], "66049 index tuples"),
])
def test_dense_model_checks_refuse_sizes_past_their_bounds(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


_CHECK_BASE = {"relations": ["--sphere", "s_r"], "fixed_vector": ["--partition", "|aabb"],
               "intertwiner": ["--partition", "ab|ba"], "coaction": ["--sphere", "s_r"],
               "mc_moment": ["--mc-group", "k_n", "--i", "1,1", "--j", "1,1"]}
_CHECK_OPTIONS = {"sphere": ["--sphere", "s_r"], "partition": ["--partition", "|aabb"],
                  "twisted": ["--twisted"], "i": ["--i", "1,1"], "j": ["--j", "1,1"],
                  "alpha": ["--alpha", "1*"]}
_CHECK_READS = {"relations": {"sphere"}, "fixed_vector": {"sphere", "partition", "twisted"},
                "intertwiner": {"partition", "twisted"}, "coaction": {"sphere"},
                "mc_moment": {"i", "j", "alpha"}}


@pytest.mark.parametrize("op,name", [(op, name) for op in _CHECK_BASE
                                     for name in _CHECK_OPTIONS if name not in _CHECK_READS[op]])
def test_check_refuses_an_option_its_op_does_not_read(capsys, op, name):
    # the op alone answers; the option it would drop makes it exit 1
    assert main(["check", "--op", op, *_CHECK_BASE[op]]) == 0
    capsys.readouterr()
    assert main(["check", "--op", op, *_CHECK_BASE[op], *_CHECK_OPTIONS[name]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --op {op} does not read --{name}\n"


def test_sqrt_positive_model_needs_three_coordinates(capsys):
    argv = ["check", "--op", "relations", "--sphere", "s_r_plus", "--model", "sqrt_positive"]
    code, data = run_json(capsys, *argv)
    assert code == 0 and data["N"] == data["model_data"]["N"] == 3
    assert main(argv + ["--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "3 coordinates" in captured.err


# ---------------------------------------------------------------------------
# the Monte Carlo moment word and the Gram bound


@pytest.mark.parametrize("argv,message", [
    (["--n", "2", "--j", "1"], "needs --i and --j"),
    (["--n", "2", "--i", "1"], "needs --i and --j"),
    (["--mc-group", "hyperoctahedral", "--n", "2", "--i", "1,1", "--j", "1,1",
      "--alpha", "1"], "share a length"),
    (["--mc-group", "hyperoctahedral", "--n", "2", "--i", "1,1", "--j", "1"],
     "share a length"),
    (["--mc-group", "k_n", "--n", "2", "--i", "1,1", "--j", "1,1", "--alpha", "1*1"],
     "share a length"),
    (["--mc-group", "hyperoctahedral", "--n", "2", "--i", "1,1", "--j", "1,1",
      "--alpha", "1x"], "bad exponent"),
])
def test_mc_moment_word_must_be_whole(capsys, argv, message):
    assert main(["check", "--op", "mc_moment", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_mc_moment_reads_alpha_like_moment(capsys):
    base = ["check", "--op", "mc_moment", "--mc-group", "k_n", "--n", "2",
            "--i", "1,1", "--j", "1,1"]
    code, data = run_json(capsys, *base, "--alpha", "1*")
    assert code == 0 and data["estimate"] == 0.5
    code, data = run_json(capsys, *base, "--alpha", "o*")
    assert code == 0 and data["estimate"] == 0.5
    code, data = run_json(capsys, *base, "--alpha", "11")
    assert code == 0 and data["estimate"] == 0.0


def test_k_n_moment_enumerates_no_permutation(monkeypatch, capsys):
    # the K_N average is (N - m)!/N! on a balanced partial injection of m rows;
    # at N = 12 a list of the permutations would hold 479001600 tuples
    from ncspheres import models

    def no_permutations(*args):
        raise AssertionError("K_N enumerated")

    monkeypatch.setattr(models.itertools, "permutations", no_permutations)
    base = ["check", "--op", "mc_moment", "--mc-group", "k_n", "--n", "12"]
    code, data = run_json(capsys, *base, "--i", "1,1", "--j", "2,2", "--alpha", "1*")
    assert code == 0 and data["estimate"] == 1 / 12 and data["se"] == 0.0
    code, data = run_json(capsys, *base, "--i", "1,2", "--j", "1,2")
    assert code == 0 and data["estimate"] == 0.0


def test_k_n_moment_takes_no_factorial(monkeypatch, capsys):
    # 1/perm(N, m) takes m factors, where two full factorials of N = 10^6
    # would take many seconds
    from ncspheres import models

    def no_factorial(*args):
        raise AssertionError("a factorial computed")

    monkeypatch.setattr(models.math, "factorial", no_factorial)
    code, data = run_json(capsys, "check", "--op", "mc_moment", "--mc-group", "k_n",
                          "--n", "1000000", "--i", "1,1", "--j", "1,1", "--alpha", "1*")
    assert code == 0 and data["estimate"] == 1e-6 and data["se"] == 0.0


@pytest.mark.parametrize("n,estimate", [("5", 1 / 5), ("6", 1 / 6), ("1000000", 1e-6)])
def test_hyperoctahedral_moment_past_the_enumeration(capsys, n, estimate):
    # the closed form answers at any N, also past N = 6, where the signed
    # permutations are no longer enumerated
    code, data = run_json(capsys, "check", "--op", "mc_moment", "--mc-group",
                          "hyperoctahedral", "--n", n, "--i", "1,1", "--j", "1,1")
    assert code == 0 and data["estimate"] == estimate and data["se"] == 0.0


@pytest.mark.parametrize("argv", [
    ["weingarten", "--group", "o_n", "--k", "10", "--n", "3"],
    ["gram", "--group", "o_n_star", "--k", "12", "--n", "5"],
    ["moment", "--group", "o_n", "--n", "2", "--i", ",".join("1" * 10),
     "--j", ",".join("1" * 10)],
])
def test_gram_bound_is_an_error(monkeypatch, capsys, argv):
    from ncspheres import weingarten

    def no_block_counts(ps):
        raise AssertionError("block counts built above the Gram bound")

    monkeypatch.setattr(weingarten, "_memo", OrderedDict())
    monkeypatch.setattr(weingarten, "_held", 0)
    monkeypatch.setattr(weingarten, "_block_counts", no_block_counts)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Gram bound" in captured.err


def test_rank_answers_far_past_the_elimination_in_four_sums(monkeypatch, capsys):
    from ncspheres import weingarten

    calls, weingarten_sum = [], weingarten._weingarten_sum

    def counted_sum(*args):
        calls.append(args)
        return weingarten_sum(*args)

    monkeypatch.setattr(weingarten, "_weingarten_sum", counted_sum)
    for conjugated, rank in ((), 5050), (("--conjugated",), 10000):
        calls.clear()
        assert main(["rank", "--sphere", "s_c", "--n", "100", *conjugated]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rank"] == rank and captured.err == ""
        assert 0 < len(calls) <= 4


@pytest.mark.parametrize("expr,message", [
    ("a^30000", "exceeds the bound 6"),
    ("(a+b)^20", "exceeds the bound 6"),
    ("a^10 - a^10", "exceeds the bound 6"),
    ("ab(ab*)^3", "exceeds the bound 6"),
    ("A", "expected a word"),
    ("ab中", "trailing input"),
    ("(1+1)^99999999", "coefficient bits"),
    ("1^99999999", "coefficient bits"),
    ("(a-a)^99999999", "coefficient bits"),
    ("((2^50)^100)", "coefficient bits"),
    ("-1", "expected a word"),
    ("()", "expected a word"),
])
def test_reduce_refuses_an_expression_before_expanding_it(monkeypatch, capsys, expr, message):
    # a word longer than --degree, or a character no atom reads, must stop
    # the parser before it multiplies on for minutes or forever
    real_mul = NCCombination.__mul__
    products = []

    def bounded_mul(self, other):
        products.append(1)
        out = real_mul(self, other)
        assert len(products) < 100 and all(len(word) <= 6 for word in out.terms)
        return out

    monkeypatch.setattr(NCCombination, "__mul__", bounded_mul)
    assert main(["reduce", "--expr", expr, "--perm", "312", "--degree", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_constant_powers_are_bounded_in_coefficient_bits():
    assert POWER_BIT_BOUND == 4096
    # every factor of 2 counts its two bits: 2^2048 is the largest power of 2
    assert str(_parse_expression("2^10", 6)) == "1024"
    assert str(_parse_expression("2^2048", 6)) == str(2 ** 2048)
    for expr in ("2^2049", "(1+1)^99999999", "1^4097", "(1-1)^4097"):
        with pytest.raises(SizeLimitError):
            _parse_expression(expr, 6)


@pytest.mark.parametrize("expr,reduced", [
    ("3", "3"),
    ("2+ab", "2 +ab"),
    ("2^10", "1024"),
    ("a-2", "-2 +a"),
    ("ab-1", "-1 +ab"),
    ("1+1-1", "1"),
    ("(ab-ba)^2", "0"),
])
def test_reduce_prints_a_constant_term_as_its_value(capsys, expr, reduced):
    code, data = run_json(capsys, "reduce", "--expr", expr, "--perm", "312")
    assert code == 0 and data["reduced"] == reduced


@pytest.mark.parametrize("argv", [
    ["saturate", "--perm", "4"],
    ["saturate", "--perm", "11"],
    ["saturate", "--perm", "21", "--perm", "0"],
    ["reduce", "--expr", "ab", "--perm", "13"],
    ["classify", "--perm", "13", "--regime", "real"],
])
def test_a_word_that_is_not_a_permutation_is_an_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not a permutation" in captured.err


# ---------------------------------------------------------------------------
# random argv: an exit code, never a traceback


def _option(name, values):
    """``[name, value]`` or nothing, so that required options go missing too."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


_DIMENSIONS = st.one_of(st.integers(-1, 6), st.sampled_from(["", "x", "2.5", "+3"]))
_INDICES = st.one_of(
    st.lists(st.integers(-1, 4), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["a", "1,,2", " 1, 2", "1;2"]))
_WORDS = st.text(alphabet="1*o x", max_size=6)
_PARTITIONS = st.text(alphabet="ab|c ", max_size=7)
# permutations of at most 3 letters, so that no search grows past S_3
_PERMS = st.one_of(st.permutations([1, 2, 3]).map(lambda p: "".join(map(str, p))),
                   st.sampled_from(["1", "21", "11", "0", "x", "", "4"]))
_LEGS = st.one_of(st.integers(-1, 4), st.text(alphabet="o*", min_size=1, max_size=4),
                  st.sampled_from(["x", ""]))
# up to three terms, each an atom or a power (exponent up to 40) of a sum
# of atoms; powers do not nest, so constants stay small
_ATOMS = st.sampled_from(["a", "b", "ab*", "ba", "2", "0", "A", "(", ""])
_POWERS = st.tuples(st.lists(_ATOMS, min_size=1, max_size=3), st.integers(0, 40)).map(
    lambda t: f"({'+'.join(t[0])})^{t[1]}")
_EXPRESSIONS = st.lists(st.tuples(st.sampled_from(["+", "-", " ", ""]),
                                  st.one_of(_ATOMS, _POWERS)),
                        min_size=1, max_size=3).map(lambda ts: "".join(op + t for op, t in ts))


def _bounds():
    return [_option("--degree", st.integers(-1, 4)), _option("--indices", st.integers(-1, 3))]


def _flag(name):
    return st.sampled_from([[], [name]])


def _repeated(name, values):
    return st.lists(values, max_size=2).map(lambda vs: [w for v in vs for w in (name, v)])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["partitions", "signature", "gram", "weingarten",
                                    "moment", "trace", "rank", "classify", "saturate",
                                    "reduce", "check"]))
    groups = st.sampled_from([g.name for g in GROUPS] + ["o_n_bogus", ""])
    spheres = st.sampled_from([s.name for s in SPHERES] + ["s_x", ""])
    regimes = st.sampled_from(["real", "complex", "real_twisted", "complex_twisted", "x"])
    dimension = _option("--n", _DIMENSIONS)
    if command == "partitions":
        options = [_option("--class", st.sampled_from(["p", "p_even", "p2", "p2_star",
                                                        "nc2", "x"])),
                   _option("--upper", _LEGS), _option("--lower", _LEGS)]
    elif command == "signature":
        options = [_option("--partition", _PARTITIONS)]
    elif command in ("gram", "weingarten"):
        options = [_option("--group", groups), _option("--k", st.integers(-2, 7)),
                   _option("--alpha", _WORDS), dimension]
    elif command == "moment":
        options = [_option("--group", groups), _option("--i", _INDICES),
                   _option("--j", _INDICES), _option("--alpha", _WORDS), dimension]
    elif command == "trace":
        options = [_option("--sphere", spheres), _option("--i", _INDICES),
                   _option("--alpha", _WORDS), dimension]
    elif command == "rank":
        options = [_option("--sphere", spheres), _flag("--conjugated"), dimension]
    elif command == "classify":
        options = [_repeated("--perm", _PERMS), _option("--regime", regimes), *_bounds()]
    elif command == "saturate":
        options = [_repeated("--perm", _PERMS), _option("--regime", regimes),
                   _option("--sphere", spheres), _option("--group", groups),
                   _option("--k", st.integers(-1, 4)), *_bounds()]
    elif command == "reduce":
        options = [_option("--expr", _EXPRESSIONS), _repeated("--perm", _PERMS),
                   _option("--regime", regimes), _option("--sphere", spheres), *_bounds()]
    else:
        options = [
            _option("--op", st.sampled_from(["relations", "fixed_vector", "intertwiner",
                                             "coaction", "mc_moment", "x"])),
            _option("--sphere", spheres),
            _option("--model", st.sampled_from(["classical_point", "twisted_point",
                                                "antidiagonal", "clifford",
                                                "sqrt_positive", "x"])),
            _option("--n", st.integers(-1, 3)), _option("--seed", st.integers(0, 3)),
            _option("--tol", st.sampled_from(["1e-10", "0", "nan", "inf", "x"])),
            _option("--partition", _PARTITIONS), _flag("--twisted"),
            _option("--matrix", st.sampled_from(["signed", "haar"])),
            _option("--samples", st.integers(-1, 5)), _option("--element", st.integers(-1, 50)),
            _option("--mc-group", st.sampled_from(["orthogonal", "unitary",
                                                   "hyperoctahedral", "k_n"])),
            _option("--i", _INDICES), _option("--j", _INDICES), _option("--alpha", _WORDS)]
    return [command] + [word for option in options for word in draw(option)]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(_argv())
@settings(max_examples=600, deadline=None)
def test_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)
