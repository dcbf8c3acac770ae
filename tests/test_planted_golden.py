"""Theorem 2 on the benchmark's seed-5 planted systems, pinned byte for byte.

Each line of ``goldens/planted-theorem2-seed5.txt`` is one case of the
planted workload: its label, the renders of Gamma, the Gamma_i, h, the A-form
d log h (derived from h for the report) and the multiplier, and each
certificate's name and residual (the Cramer identities, determinant
cancellation and the multiplier identity), separated by `` | ``.  To
regenerate after an intended output change, run
``PYTHONPATH=src:tests python tests/test_planted_golden.py``.
"""

from pathlib import Path

from lvk.pipeline import theorem2_pipeline

from conftest import bench_cases

GOLDEN = Path(__file__).resolve().parent / "goldens" / "planted-theorem2-seed5.txt"


def planted_line(case) -> str:
    X, integrals = case.data
    names = list(X.var_names)
    d = theorem2_pipeline(X, integrals).derivation
    fields = [
        case.label,
        f"gamma={d.gamma.render(names)}",
        "gammas=" + "; ".join(
            f"{names[i]}: {g.render(names)}" for i, g in zip(d.columns, d.gammas)
        ),
        f"h={d.h.render(names)}",
        "aForm=" + "; ".join(c.render(names) for c in d.a_form.components),
        f"multiplier={d.result.render(names)}",
        *(f"{label}={residual.render(names)}" for label, residual in d.identities),
    ]
    return " | ".join(fields)


def golden_text() -> str:
    return "".join(planted_line(case) + "\n" for case in bench_cases("planted"))


def test_planted_theorem2_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = golden_text().splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
