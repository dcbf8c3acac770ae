import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lvk.cli import main
from lvk.forms import OneForm
from lvk.integrator import integrate_closed
from lvk.parsing import parse_ratfunc

from conftest import CATALOG, catalog_entries


@pytest.fixture
def sys2(tmp_path):
    p = tmp_path / "sys2.system"
    p.write_text("vars x, y\ndx = x\ndy = y\n")
    return str(p)


@pytest.fixture
def lotka(tmp_path):
    p = tmp_path / "lotka.system"
    p.write_text("vars x, y\ndx = x - x*y\ndy = x*y - y\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes --------------------------------------------------------------------


def test_verify_ok_and_failed(capsys, lotka, sys2):
    code, out, _ = run(capsys, "verify", "--system", lotka, "--multiplier", "1/(x*y)")
    assert code == 0
    assert "status: ok" in out
    code, out, _ = run(capsys, "verify", "--system", sys2, "--multiplier", "1")
    assert code == 3
    assert "NONZERO" in out


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.system"
    bad.write_text("vars x, y\ndx = $\ndy = y\n")
    code, _, err = run(capsys, "verify", "--system", str(bad), "--multiplier", "1")
    assert code == 2
    assert "parse error" in err
    code, _, err = run(capsys, "verify", "--system", str(tmp_path / "nope"), "--multiplier", "1")
    assert code == 2


@pytest.mark.parametrize("flag", ["--system", "--form"])
def test_unreadable_input_is_a_parse_error_exit_2(capsys, tmp_path, flag):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"vars x\n\xff\n")
    command = ["verify", "--multiplier", "1"] if flag == "--system" else ["integrate-form"]
    for path in (tmp_path, binary):
        code, out, err = run(capsys, *command, flag, str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: cannot read {path}: ")


def test_var_order_with_a_repeated_name_exit_2(capsys, lotka):
    argv = ["pipeline", "--system", lotka, "--mode", "theorem2", "--integral", "x*y"]
    code, _, err = run(capsys, *argv, "--var-order", "x,x")
    assert code == 2
    assert err.startswith("parse error: duplicate variable 'x'")


# every class of malformed input: (command line, file contents by name)
MALFORMED = [
    (["verify", "--system", "{dir}", "--multiplier", "1"], {}),
    (["verify", "--system", "{dir}/bin", "--multiplier", "1"], {"bin": b"\xff"}),
    (["integrate-form", "--form", "{dir}"], {}),
    (["integrate-form", "--form", "{dir}/bin"], {"bin": b"vars x\n\xff"}),
    (["verify", "--system", "{dir}/s", "--multiplier", "1"], {"s": b"vars x\ndx = x +\n"}),
    (["integrate-form", "--form", "{dir}/f"], {"f": b"vars x, y\ny,\nx + * y\n"}),
    (["integrate-form", "--vars", "x,y", "--component", "y, x + * y"], {}),
    (["integrate-form", "--vars", "x,,y", "--component", "y, x"], {}),
    (["integrate-form", "--vars", "x,1y", "--component", "y, x"], {}),
    (["integrate-form", "--vars", "x,y", "--component", "y, x", "--var-order", "y,y"], {}),
    (["verify", "--system", "{dir}/s", "--multiplier", "2^(1/2)"], {"s": b"vars x\ndx = x\n"}),
    (["verify", "--system", "{dir}/s", "--multiplier", "exp(x)/0"], {"s": b"vars x\ndx = x\n"}),
    (["verify", "--system", "{dir}/s", "--first-integral", "0"], {"s": b"vars x\ndx = x\n"}),
    (["verify", "--system", "{dir}/s", "--first-integral", "2*²"], {"s": b"vars x\ndx = x\n"}),
    (["verify", "--system", "{dir}/s", "--multiplier", "x/0^-1"], {"s": b"vars x\ndx = x\n"}),
    (["verify", "--system", "{dir}/s", "--multiplier", "x^(1/0)"], {"s": b"vars x\ndx = x\n"}),
    (["verify", "--system", "{dir}/s", "--multiplier", "1"], {"s": b"vars x\ndx = " + b"(" * 260 + b"x" + b")" * 260}),
    (["verify", "--system", "{dir}/s", "--multiplier", "exp(" * 300 + "x" + ")" * 300], {"s": b"vars x\ndx = x\n"}),
    (["verify", "--system", "{dir}/s", "--multiplier", "1"], {"s": b"vars x\ndx = " + b"-" * 1200 + b"x\n"}),
]


def test_malformed_input_exits_2_with_one_line_and_no_traceback(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "LVK_MAX_DEGREE"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for i, (argv, files) in enumerate(MALFORMED):
        case = tmp_path / str(i)
        case.mkdir()
        for name, data in files.items():
            (case / name).write_bytes(data)
        argv = [a.replace("{dir}", str(case)) for a in argv]
        out = subprocess.run(
            [sys.executable, "-m", "lvk.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 2, (argv, out.stderr)
        assert out.stderr.startswith("parse error: "), (argv, out.stderr)
        assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--darboux-poly=exp(x)"], "exp(...) is not allowed in a polynomial"),
        (["integrate-form", "--vars", "x", "--component=exp(x)"],
         "exp(...) is not allowed in a rational expression"),
        (["verify", "--multiplier=-exp(x)"], "negation of a non-rational Darboux expression"),
        (["verify", "--multiplier=-(x^(1/2))"], "negation of a non-rational Darboux expression"),
    ],
)
def test_exp_and_negation_where_the_grammar_forbids_them_exit_2(capsys, lotka, argv, message):
    if argv[0] == "verify":
        argv = [*argv, "--system", lotka]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"parse error: {message} (line 1, column 1)\n"


def test_negated_rational_multiplier_verifies(capsys, lotka):
    code, out, _ = run(capsys, "verify", "--system", lotka, "--multiplier=-x^-1*y^-1")
    assert code == 0
    assert "multiplier-residual: 0  [zero]" in out


def test_not_closed_exit_5(capsys):
    code, out, _ = run(
        capsys, "integrate-form", "--vars", "x,y", "--component", "y", "--component", "0"
    )
    assert code == 5


def test_option_value_starting_with_a_minus_needs_the_equals_form(capsys):
    # argparse reads "-y" after a space as an option, so the run stops at a
    # usage error; "--component=-y" passes the value through
    with pytest.raises(SystemExit) as exit_:
        main(["integrate-form", "--vars", "x,y", "--component", "-y", "--component", "-x"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --component: expected one argument" in err
    code, out, _ = run(capsys, "integrate-form", "--vars", "x,y", "--component=-y", "--component=-x")
    assert code == 0
    assert "potential: -x*y" in out


def test_rational_only_exit_4(capsys):
    code, out, _ = run(
        capsys,
        "integrate-form",
        "--vars",
        "x",
        "--component",
        "1/(x^2-2)",
        "--rational-only",
    )
    assert code == 4
    assert "unavailable" in out


def test_group_root_is_not_named_after_a_variable(capsys):
    # with a variable named t, the root of the group's minimal polynomial is t1
    argv = ["integrate-form", "--vars", "x,t", "--component", "1/(x^2-2)", "--component=0"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    group = "sum[t1: 8*t1^2 - 1 = 0] t1*log(x - 4*t1)"
    assert result["potential"] == group
    assert result["darboux"] == f"exp({group})"
    assert [g["minPoly"] for g in result["logGroups"]] == ["8*t1^2 - 1"]


def test_negative_rational_part_is_a_signed_term(capsys):
    # log(x) - x/y, not log(x) + -x/y
    argv = ["integrate-form", "--vars", "x,y", "--component", "1/x - 1/y, x/y^2"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["result"]["potential"] == "log(x) - x/y"
    w = OneForm([parse_ratfunc(c, ["x", "y"]) for c in ("1/x - 1/y", "x/y^2")])
    assert integrate_closed(w).render(["x", "y"]) == "log(x) - x/y"


def test_degree_cap_is_a_resource_limit_exit_3(capsys, lotka, monkeypatch):
    monkeypatch.setenv("LVK_MAX_DEGREE", "2")
    code, out, err = run(capsys, "verify", "--system", lotka, "--multiplier", "1/(x^2*y^2)")
    assert code == 3
    assert err.startswith("resource limit: ") and "LVK_MAX_DEGREE=2" in err
    assert "verification failure" not in err
    assert out == ""


@pytest.mark.parametrize("multiplier", ["2^4/(x*y)", "(2*exp(x))^4"])
def test_constant_power_above_the_degree_cap_is_a_resource_limit(capsys, lotka, monkeypatch, multiplier):
    """A constant's digits grow with its power, so 2^99999999999 would run without bound."""
    monkeypatch.setenv("LVK_MAX_DEGREE", "3")
    code, out, err = run(capsys, "verify", "--system", lotka, "--multiplier", multiplier)
    assert code == 3
    assert err.startswith("resource limit: ") and "LVK_MAX_DEGREE=3" in err
    assert out == ""


@pytest.mark.parametrize("value", ["abc", "1e4", "-1", "6_4", "\u0666\u0664"])
def test_malformed_or_negative_degree_cap_is_a_parse_error_exit_2(capsys, lotka, monkeypatch, value):
    monkeypatch.setenv("LVK_MAX_DEGREE", value)
    code, out, err = run(capsys, "verify", "--system", lotka, "--multiplier", "1/(x*y)")
    assert code == 2
    assert err.startswith("parse error: ") and "LVK_MAX_DEGREE" in err and repr(value) in err
    assert out == ""


def test_synthesize_no_solution_exit_3(capsys, sys2):
    code, _, _ = run(
        capsys, "synthesize", "--system", sys2, "--poly", "x", "--target", "first-integral"
    )
    assert code == 3


def test_synthesize_with_zero_cofactors_finds_the_first_integral(capsys):
    """x^2 + y^2 has cofactor 0 under the rotation, so the cofactor equation has
    no nonzero coefficient; the solution space is still one-dimensional."""
    system = str(CATALOG / "hamiltonian2.system")
    argv = ["synthesize", "--system", system, "--poly", "x^2+y^2", "--target", "first-integral"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 1
    assert result["solutions"] == ["(x^2 + y^2)"]


# -- payload content ------------------------------------------------------------------


def test_pipeline_theorem2_json(capsys, tmp_path):
    p = tmp_path / "sys3.system"
    p.write_text("vars x, y, z\ndx = x\ndy = y\ndz = z\n")
    code, out, _ = run(
        capsys,
        "pipeline",
        "--system",
        str(p),
        "--mode",
        "theorem2",
        "--integral",
        "x/y",
        "--integral",
        "x/z",
        "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "ok"
    assert rep["result"]["multiplier"] == "x * y^-2 * z^-2"
    assert rep["result"]["gamma"] == "x/(y^2*z)"
    assert all(c["isZero"] for c in rep["certificates"])


def test_pipeline_theorem1_2d(capsys, sys2):
    code, out, _ = run(
        capsys,
        "pipeline",
        "--system",
        sys2,
        "--mode",
        "theorem1",
        "--multiplier",
        "1/(x*y)",
        "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["firstIntegral"] == "log(x) - log(y)"


def test_pipeline_dependent_multipliers_exit_3(capsys, tmp_path):
    p = tmp_path / "sys3.system"
    p.write_text("vars x, y, z\ndx = x\ndy = y\ndz = z\n")
    code, out, _ = run(
        capsys,
        "pipeline",
        "--system",
        str(p),
        "--mode",
        "theorem1",
        "--multiplier",
        "1/(x*y*z)",
        "--multiplier",
        "1/(x*y*z)",
        "--json",
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["result"]["dependent"] is True


@pytest.mark.parametrize(
    "multipliers, code, rank, witness_rows, witness_cols",
    [
        # column 1's pivot is found in the second ratio form
        (["1/(x*y*z*w)", "1/(x*y^2*z)", "1/(x*y*z^2)"], 0, 2, [0, 1], [1, 2]),
        # the first ratio form is zero, so the witness is the second alone
        (["2/(x*y*z*w)", "1/(x*y^2*z)", "1/(x*y*z*w)"], 3, 1, [1], [1]),
    ],
    ids=["independent", "dependent"],
)
def test_pipeline_theorem1_4d_witness(capsys, tmp_path, multipliers, code, rank, witness_rows, witness_cols):
    p = tmp_path / "sys4.system"
    p.write_text("vars x, y, z, w\ndx = x\ndy = y\ndz = z\ndw = w\n")
    argv = ["pipeline", "--system", str(p), "--mode", "theorem1", "--json"]
    for m in multipliers:
        argv += ["--multiplier", m]
    got, out, _ = run(capsys, *argv)
    assert got == code
    rep = json.loads(out)["result"]
    assert (rep["rank"], rep["witnessRows"], rep["witnessCols"]) == (rank, witness_rows, witness_cols)
    assert rep["dependent"] is (rank < len(multipliers) - 1)


SYS4 = "vars x, y, z, w\ndx = x\ndy = y\ndz = z\ndw = w\n"
SYS4_MULTIPLIERS = ["1/(x*y*z*w)", "1/(x^2*y*z)", "1/(x*y^2*w)"]
# J_1/J_3 and J_2/J_3 in lowest terms, as verify echoes them
SYS4_RATIOS = ["y * z^-1", "(x*z)^-1 * y*w"]


def sys4_theorem1(tmp_path, *extra):
    p = tmp_path / "sys4.system"
    p.write_text(SYS4)
    argv = ["pipeline", "--system", str(p), "--mode", "theorem1", *extra]
    for m in SYS4_MULTIPLIERS:
        argv += ["--multiplier", m]
    return argv


def test_human_report_keeps_each_ratio_form_together(capsys, tmp_path):
    # each ratio integral is one "-" item, its factors on that line
    argv = sys4_theorem1(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    ratios = json.loads(run(capsys, *argv, "--json")[1])["result"]["ratioIntegrals"]
    assert ratios == SYS4_RATIOS
    expected = ["  ratioIntegrals:"] + [f"    - {r}" for r in ratios]
    lines = out.splitlines()
    start = lines.index("  ratioIntegrals:")
    assert lines[start : start + len(expected)] == expected
    assert lines[start + len(expected)] == "  rank: 2"


def test_printed_ratio_integrals_verify_as_printed(capsys, tmp_path):
    # each printed ratio is a first integral that verify accepts and echoes unchanged
    code, out, _ = run(capsys, *sys4_theorem1(tmp_path, "--json"))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ratioIntegrals"] == SYS4_RATIOS
    assert [c["identity"] for c in report["certificates"]] == [
        "ratio-derivative[0]",
        "ratio-derivative[1]",
    ]
    system = str(tmp_path / "sys4.system")
    for ratio in SYS4_RATIOS:
        code, out, _ = run(capsys, "verify", "--system", system, f"--first-integral={ratio}", "--json")
        assert code == 0
        assert json.loads(out)["result"]["object"] == ratio


def test_printed_ratio_integrals_are_first_integrals_to_sympy(capsys, tmp_path):
    # an oracle outside lvk: sympy reads the printed text alone and finds
    # sum_i P_i d_i R = 0 for each ratio R
    sympy = pytest.importorskip("sympy")
    code, out, _ = run(capsys, *sys4_theorem1(tmp_path, "--json"))
    assert code == 0
    symbols = sympy.symbols("x y z w")
    scope = {str(v): v for v in symbols}
    field = [sympy.sympify(line.split(" = ")[1], locals=scope) for line in SYS4.splitlines()[1:]]
    ratios = json.loads(out)["result"]["ratioIntegrals"]
    assert len(ratios) == 2
    for text in ratios:
        R = sympy.sympify(text.replace("^", "**"), locals=scope)
        assert not R.is_constant()
        assert sympy.simplify(sum(P * sympy.diff(R, v) for P, v in zip(field, symbols))) == 0


def test_human_report_keeps_each_log_group_together(capsys):
    # a mapping inside a list is one "-" item too, with its keys one level deeper
    argv = ["integrate-form", "--vars", "x,y", "--component", "1/x + 1/(x^2-2)", "--component", "0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    start = lines.index("  logGroups:")
    assert lines[start : start + 12] == [
        "  logGroups:",
        "    -",
        "      minPoly: t - 1",
        "      arg:",
        "        - x",
        "      weight: 1",
        "    -",
        "      minPoly: 8*t^2 - 1",
        "      arg:",
        "        - x",
        "        - -4",
        "      weight: 1",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        # dependent ratio forms: every ratio-derivative certificate is zero
        ["pipeline", "--mode", "theorem1", "--multiplier", "1/(x*y*z)", "--multiplier", "1/(x*y*z)"],
        # no solution: there is no certificate at all
        ["synthesize", "--poly", "x", "--target", "first-integral"],
    ],
    ids=["theorem1-dependent", "synthesize-no-solution"],
)
def test_failed_status_without_a_nonzero_certificate(capsys, tmp_path, argv):
    p = tmp_path / "sys3.system"
    p.write_text("vars x, y, z\ndx = x\ndy = y\ndz = z\n")
    code, out, _ = run(capsys, *argv, "--system", str(p), "--json")
    rep = json.loads(out)
    assert (code, rep["status"]) == (3, "failed")
    assert all(c["isZero"] for c in rep["certificates"])
    assert len(rep["certificates"]) == (1 if argv[0] == "pipeline" else 0)
    code, out, _ = run(capsys, *argv, "--system", str(p))
    assert code == 3 and "status: failed" in out


def test_var_order_flag(capsys, tmp_path):
    p = tmp_path / "sys3.system"
    p.write_text("vars x, y, z\ndx = x\ndy = y\ndz = z\n")
    code, out, _ = run(
        capsys,
        "pipeline",
        "--system",
        str(p),
        "--mode",
        "theorem2",
        "--integral",
        "y/x",
        "--integral",
        "y/z",
        "--var-order",
        "x,z,y",
        "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["lastVariable"] == "y"


GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize(
    "flag,expr,outcome,code",
    [
        ("--darboux-poly", "x", "ok", 0),
        ("--darboux-poly", "x+1", "failed", 3),
        ("--exp-factor", "x+y", "ok", 0),
        ("--exp-factor", "1/(x+1)", "failed", 3),
    ],
)
def test_verify_darboux_poly_and_exp_factor_goldens(capsys, flag, expr, outcome, code):
    argv = ["verify", "--system", str(CATALOG / "lotka2.system"), flag, expr, "--json"]
    got = run(capsys, *argv)
    golden = (GOLDENS / f"lotka2-{flag[2:]}-{outcome}.json").read_text()
    assert got == (code, golden, "")


def test_verify_darboux_poly_takes_one_lie_derivative(capsys, monkeypatch):
    # a rejected candidate's X(f)/f residual reuses the X(f) of the divisibility test
    from lvk.vectorfield import PolyVectorField

    calls = []
    lie_derivative = PolyVectorField.lie_derivative
    monkeypatch.setattr(
        PolyVectorField, "lie_derivative", lambda X, f: calls.append(f) or lie_derivative(X, f)
    )
    argv = ["verify", "--system", str(CATALOG / "lotka2.system"), "--darboux-poly", "x+1", "--json"]
    got = run(capsys, *argv)
    assert got == (3, (GOLDENS / "lotka2-darboux-poly-failed.json").read_text(), "")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "system, flag, expr, identity, residual",
    [
        ("quad2", "--multiplier", "x^-2", "multiplier-residual", "x"),
        (
            "lotka2",
            "--multiplier",
            "exp(x/y)*x^(1/2)",
            "multiplier-residual",
            "(-x^2 - 3/2*y^2 + 2*x + 1/2*y)/y",
        ),
        (
            "lotka2",
            "--first-integral",
            "exp(1/(x-y))",
            "first-integral-residual",
            "(2*x*y - x - y)/(x^2 - 2*x*y + y^2)",
        ),
    ],
)
def test_failing_darboux_residuals_keep_their_lowest_terms(capsys, system, flag, expr, identity, residual):
    # a nonzero residual of the one certificate sum is reduced to lowest terms
    argv = ["verify", "--system", str(CATALOG / f"{system}.system"), flag, expr, "--json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "")
    assert json.loads(out)["certificates"] == [
        {"identity": identity, "isZero": False, "residual": residual}
    ]


def test_theorem1_rejection_prints_the_residual_over_the_system_names(capsys):
    argv = ["pipeline", "--mode", "theorem1", "--system", str(CATALOG / "lotka2.system")]
    got = run(capsys, *argv, "--multiplier", "exp(x)")
    err = "verification failure: not a Jacobian multiplier (residual -x*y + 2*x - y)\n"
    assert got == (3, "", err)


def test_synthesize_checks_each_multiplier_once(capsys, monkeypatch):
    # synthesize certifies every solution; the report does not check it again
    import lvk.cli
    import lvk.darboux

    calls = []
    check = lvk.darboux.is_jacobian_multiplier

    def counted(X, D):
        calls.append(D)
        return check(X, D)

    for module in (lvk.darboux, lvk.cli):
        if getattr(module, "is_jacobian_multiplier", None) is check:
            monkeypatch.setattr(module, "is_jacobian_multiplier", counted)
    argv = ["synthesize", "--poly", "x", "--poly", "y", "--target", "multiplier"]
    argv += ["--system", str(CATALOG / "lotka2.system"), "--json"]
    got = run(capsys, *argv)
    assert got == (0, (CATALOG / "lotka2.golden.json").read_text(), "")
    assert len(calls) == len(json.loads(got[1])["result"]["solutions"]) == 1

def test_json_and_human_agree(capsys, lotka):
    argv = ["verify", "--system", lotka, "--multiplier", "1/(x*y)"]
    code_h, human, _ = run(capsys, *argv)
    code_j, js, _ = run(capsys, *argv, "--json")
    assert code_h == code_j == 0
    rep = json.loads(js)
    assert f"status: {rep['status']}" in human
    assert f"system: {rep['systemName']}" in human
    for cert in rep["certificates"]:
        assert cert["identity"] in human
        assert cert["residual"] in human
    assert rep["result"]["object"] in human


# -- catalog -----------------------------------------------------------------------


@pytest.mark.parametrize("name,argv", catalog_entries())
def test_catalog_goldens_byte_identical(capsys, name, argv):
    golden = (CATALOG / f"{name}.golden.json").read_text()
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2, "same input must give byte-identical JSON"
    assert out1 == golden
    rep = json.loads(out1)
    assert rep["status"] == "ok"
    for cert in rep["certificates"]:
        assert cert["residual"] == "0" and cert["isZero"]


RUN_CLI = "import sys; from lvk.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("name,argv", catalog_entries())
def test_catalog_goldens_at_default_degree_cap(name, argv):
    # the rest of the suite runs with LVK_MAX_DEGREE=4096; the CLI default is 64
    env = {k: v for k, v in os.environ.items() if k != "LVK_MAX_DEGREE"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (CATALOG / f"{name}.golden.json").read_text()


@pytest.mark.parametrize("name", ["linear3", "potential2"])
def test_catalog_goldens_under_python_optimize(name):
    # -O strips asserts; every certificate must still be computed and checked
    argv = dict(catalog_entries())[name]
    env = {k: v for k, v in os.environ.items() if k != "LVK_MAX_DEGREE"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    flag = subprocess.run(
        [sys.executable, "-O", "-c", "import sys; print(sys.flags.optimize)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert flag.stdout.strip() == "1"
    out = subprocess.run(
        [sys.executable, "-O", "-m", "lvk.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (CATALOG / f"{name}.golden.json").read_text()


def test_lvk_source_has_no_assert_statement():
    # -O strips assert statements, so a certificate checked by one would vanish
    src = Path(__file__).resolve().parent.parent / "src" / "lvk"
    files = sorted(src.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
