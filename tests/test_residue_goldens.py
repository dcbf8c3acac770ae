"""Rendered Rothstein-Trager groups of degree >= 2, pinned against recorded goldens.

No catalog entry has a residue group of degree 2 or more, so these files pin
the algebraic path: Bronstein's (x^4 - 3x^2 + 6)/(x^6 - 5x^4 + 5x^2 + 4), the
x-level of three closed forms d(sum_{m(t)=0} t*log(arg) + x/(y+1)) in x, y, z,
and every twelfth kept draw of the seeded univariate set of ``seeded_draws``.
``PYTHONPATH=src python tests/test_residue_goldens.py`` prints the JSON these
tests compare with; the recorded file changes only with an intended change
of output.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lvk.cli import main
from lvk.integrator import IntegrationResult, differentiate
from lvk.parsing import parse_poly, parse_ratfunc
from lvk.residues import ResidueGroup, rothstein_trager
from lvk.unipoly import UniPoly, gcd_uni, hermite_reduce, ratfunc_as_unipair

GOLDENS = Path(__file__).resolve().parent / "goldens"
F = Fraction
XYZ = ["x", "y", "z"]

# (name, minimal polynomial ascending, argument coefficients of t^0, t^1, ...)
FORMS = [
    ("t2-2", (F(-2), F(0), F(1)), ("x", "y")),
    ("t3-2", (F(-2), F(0), F(0), F(1)), ("x^2 + 1", "y", "1")),
    ("t3-t-1", (F(-1), F(-1), F(0), F(1)), ("x", "y", "z")),
]


def form_of(minpoly, arg):
    """d(sum over m(t) = 0 of t*log(arg) + x/(y+1)) in x, y, z."""
    group = ResidueGroup(minpoly=minpoly, arg=tuple(parse_ratfunc(a, XYZ) for a in arg))
    return differentiate(
        IntegrationResult(log_groups=((group, F(1)),), rat_part=parse_ratfunc("x/(y+1)", XYZ))
    )


def x_level(w):
    """The residue groups of the x-component, as ``integrate_closed`` takes them."""
    num, den = ratfunc_as_unipair(w[0], 0)
    _, proper = num.divmod(den)
    _, res_num, res_den = hermite_reduce(proper, den)
    return rothstein_trager(res_num, res_den)


def seeded_draws():
    """(draw, num, den) over Q in x: 400 draws of random.Random(0), kept when den is
    squarefree and gcd(num, den) = 1.  den = x^d + sum_{i<d} c_i x^i with
    d = randint(2, 6) and c_i = randint(-3, 3); num has randint(1, d)
    coefficients, each randint(-4, 4)."""
    rng = random.Random(0)
    for draw in range(400):
        d = rng.randint(2, 6)
        den = UniPoly(0, 1, [F(rng.randint(-3, 3)) for _ in range(d)] + [F(1)])
        num = UniPoly(0, 1, [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, d))])
        if num.is_zero() or gcd_uni(den, den.derivative()).degree() > 0:
            continue
        if gcd_uni(num, den).degree() == 0:
            yield draw, num, den


def residue_groups():
    """name -> (groups, variable names), every case the golden file records."""
    out = {}
    names = ["x"]
    num = UniPoly.of_poly(parse_poly("x^4 - 3*x^2 + 6", names), 0)
    den = UniPoly.of_poly(parse_poly("x^6 - 5*x^4 + 5*x^2 + 4", names), 0)
    out["bronstein"] = rothstein_trager(num, den), names
    for name, minpoly, arg in FORMS:
        out[f"form-{name}"] = x_level(form_of(minpoly, arg)), XYZ
    for k, (draw, num, den) in enumerate(seeded_draws()):
        if k % 12 == 0:
            out[f"seeded-{draw}"] = rothstein_trager(num, den), names
    return out


def residue_cases():
    """name -> rendered groups, every case the golden file records."""
    return {
        name: [g.render(names) for g in groups]
        for name, (groups, names) in residue_groups().items()
    }


def form_text():
    """The t^2 - 2 form as a form file."""
    w = form_of(*FORMS[0][1:])
    return "vars x, y, z\n" + ", ".join(c.render(XYZ) for c in w.components) + "\n"


@pytest.fixture
def wide_cap(monkeypatch):
    monkeypatch.setenv("LVK_MAX_DEGREE", "4096")


@pytest.fixture
def default_cap(monkeypatch):
    # conftest widens the cap for every test; the CLI's default is 64
    monkeypatch.delenv("LVK_MAX_DEGREE", raising=False)


def _check_residue_goldens():
    golden = json.loads((GOLDENS / "residue-groups.json").read_text())
    got = residue_cases()
    assert list(got) == list(golden)
    for name, groups in golden.items():
        assert got[name] == groups, name
    assert golden["bronstein"] == ["sum[t: 4*t^2 + 1 = 0] t*log(x^3 + 2*x^2*t - 3*x - 4*t)"]
    assert sum(any(g.startswith("sum[") for g in gs) for gs in golden.values()) >= 10


def test_rothstein_trager_renders_match_goldens(wide_cap):
    _check_residue_goldens()


def test_rothstein_trager_renders_match_goldens_at_the_default_cap(default_cap):
    _check_residue_goldens()


def test_form_file_is_the_recorded_form():
    assert (GOLDENS / "algebraic-t2-2.form").read_text() == form_text()


def test_integrate_algebraic_form_golden(capsys):
    code = main(["integrate-form", "--form", str(GOLDENS / "algebraic-t2-2.form"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDENS / "algebraic-t2-2.golden.json").read_text()
    assert json.loads(out)["status"] == "ok"


def test_integrate_cubic_form_at_the_default_cap(default_cap, tmp_path, capsys):
    # the t^3 - t - 1 form once outgrew the default cap of 64 modulo m(t)
    w = form_of(*FORMS[2][1:])
    path = tmp_path / "cubic.form"
    path.write_text("vars x, y, z\n" + ", ".join(c.render(XYZ) for c in w.components) + "\n")
    code = main(["integrate-form", "--form", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["status"] == "ok"
    assert [g["minPoly"] for g in report["result"]["logGroups"]] == ["t^3 - t - 1"]
    certificates = report["certificates"]
    assert certificates and all(c["isZero"] and c["residual"] == "0" for c in certificates)


def test_seeded_set_keeps_the_stated_draws():
    assert sum(1 for _ in seeded_draws()) == 357


if __name__ == "__main__":
    print(json.dumps(residue_cases(), indent=2))
