"""Command-line surface: load inputs, dispatch analyses, emit certificates.

Input text is read here and parsed in `lvk.parsing`, which owns every
format: system files, form files, expressions, and the variable lists of
--vars and --var-order.

Every command produces an AnalysisReport: command name, system name, status,
a result payload, and a list of (identity, residual, isZero) certificates.
JSON output is byte-stable for identical input (canonical term order plus
sorted keys).  Exit codes: 0 ok, 2 parse error or unreadable input, 3
verification or solution failure, 4 algebraic-extension unavailability,
5 non-closed form.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .darboux import (
    Reject,
    cofactor_of,
    is_first_integral,
    is_jacobian_multiplier,
    synthesize,
)
from .darboux import verify_exponential_factor as _verify_exp
from .errors import (
    DegreeCapExceeded,
    LvkError,
    NonConstantResidue,
    NotClosed,
    ParseError,
    VerificationError,
)
from .forms import OneForm, is_closed
from .integrator import differentiate, integrate_closed, to_darboux
from .parsing import (
    parse_components,
    parse_darboux,
    parse_form,
    parse_poly,
    parse_ratfunc,
    parse_variables,
)
from .pipeline import (
    ClosedFormUnavailable,
    first_integral_2d,
    multiplier_from_rational_integrals,
    ratio_first_integrals,
)
from .ratfunc import fraction_sum
from .residues import bound_name, qpoly_render
from .vectorfield import parse_system

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_ALGEBRAIC = 4
EXIT_NOT_CLOSED = 5


# -- report plumbing -----------------------------------------------------------


def _certificate(name: str, residual, names) -> dict:
    if residual is None:
        rendered, zero = "0", True
    else:
        rendered, zero = residual.render(names), residual.is_zero()
    return {"identity": name, "residual": rendered, "isZero": zero}


def _report(command: str, system_name: str, status: str, result: dict, certs: list) -> dict:
    return {
        "command": command,
        "systemName": system_name,
        "status": status,
        "result": result,
        "certificates": certs,
    }


def _certified(command: str, system_name: str, result: dict, certs: list) -> tuple[dict, int]:
    """The report whose status, and exit code, follow from its certificates."""
    ok = all(c["isZero"] for c in certs)
    report = _report(command, system_name, "ok" if ok else "failed", result, certs)
    return report, EXIT_OK if ok else EXIT_VERIFY


def _dump_human(value, indent: int, out: list) -> None:
    """Indented lines; a nested value goes one level below its key or its "-" list item."""
    pad = "  " * indent
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                _dump_human(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                out.append(f"{pad}-")
                _dump_human(v, indent + 1, out)
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{value}")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    lines = [
        f"command: {report['command']}",
        f"system: {report['systemName']}",
        f"status: {report['status']}",
        "result:",
    ]
    _dump_human(report["result"], 1, lines)
    lines.append("certificates:")
    for c in report["certificates"]:
        mark = "zero" if c["isZero"] else "NONZERO"
        lines.append(f"  {c['identity']}: {c['residual']}  [{mark}]")
    sys.stdout.write("\n".join(lines) + "\n")


# -- input loading -------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None


def _load_system(args):
    if not getattr(args, "system", None):
        raise ParseError("--system FILE is required for this command")
    X = parse_system(_read_text(args.system))
    name = "stdin" if args.system == "-" else Path(args.system).stem
    return X, name


def _parse_var_order(text: str | None, names: list[str]) -> list[int] | None:
    if text is None:
        return None
    wanted = parse_variables(text)
    if sorted(wanted) != sorted(names):
        raise ParseError(
            f"--var-order must be a permutation of {', '.join(names)}"
        )
    return [names.index(w) for w in wanted]


def _load_form(args) -> tuple[OneForm, list[str], str]:
    if args.form:
        names, comps = parse_form(_read_text(args.form))
        name = Path(args.form).stem
    else:
        if not args.vars:
            raise ParseError("--vars is required with inline components")
        names = parse_variables(args.vars)
        comps = [c for chunk in args.component or [] for c in parse_components(chunk, names)]
        name = "inline"
    if len(comps) != len(names):
        raise ParseError(
            f"{len(names)} variables but {len(comps)} form components"
        )
    return OneForm(comps), names, name


# -- commands ------------------------------------------------------------------


def _group_payload(group, weight: Fraction, names) -> dict:
    return {
        "minPoly": qpoly_render(group.minpoly, bound_name(names)),
        "arg": [c.render(names) for c in group.arg],
        "weight": str(weight),
    }


def cmd_verify(args) -> tuple[dict, int]:
    X, name = _load_system(args)
    names = list(X.var_names)
    given = [
        flag
        for flag in ("darboux_poly", "multiplier", "first_integral", "exp_factor")
        if getattr(args, flag)
    ]
    if len(given) != 1:
        raise ParseError(
            "verify needs exactly one of --darboux-poly, --multiplier, "
            "--first-integral, --exp-factor"
        )
    kind = given[0]
    certs: list = []
    result: dict = {}
    if kind == "darboux_poly":
        f = parse_poly(args.darboux_poly, names)
        k = cofactor_of(X, f)
        rejected = isinstance(k, Reject)
        result = {"object": f.render(names), "cofactor": None if rejected else k.render(names)}
        certs.append(_certificate("invariance", k.residual if rejected else None, names))
    elif kind == "exp_factor":
        arg = parse_ratfunc(args.exp_factor, names)
        outcome = _verify_exp(X, arg.num, arg.den)
        if isinstance(outcome, Reject):
            result = {"object": arg.render(names), "reason": outcome.reason}
            certs.append(_certificate("exp-factor", outcome.residual, names))
        else:
            result = {
                "object": arg.render(names),
                "cofactor": outcome.cofactor.render(names),
            }
            certs.append(_certificate("exp-factor", None, names))
    else:
        expr = args.multiplier if kind == "multiplier" else args.first_integral
        D = parse_darboux(expr, names)
        check = (
            is_jacobian_multiplier(X, D)
            if kind == "multiplier"
            else is_first_integral(X, D)
        )
        label = (
            "multiplier-residual" if kind == "multiplier" else "first-integral-residual"
        )
        result = {"object": D.render(names)}
        certs.append(_certificate(label, check.residual, names))
    return _certified("verify", name, result, certs)


def cmd_synthesize(args) -> tuple[dict, int]:
    X, name = _load_system(args)
    names = list(X.var_names)
    polys = [parse_poly(e, names) for e in args.poly or []]
    exps = [
        (r.num, r.den)
        for r in (parse_ratfunc(e, names) for e in args.exp_factor or [])
    ]
    solutions = synthesize(X, polys, exps, target=args.target)
    if not solutions:
        report = _report(
            "synthesize",
            name,
            "failed",
            {"target": args.target, "solutions": [], "dimension": 0},
            [],
        )
        return report, EXIT_VERIFY
    # synthesize raises unless every solution's residual is zero
    rendered = [D.render(names) for D in solutions]
    certs = [_certificate(f"solution[{i}]", None, names) for i in range(len(solutions))]
    result = {
        "target": args.target,
        "dimension": len(solutions),
        "representative": rendered[0],
        "solutions": rendered,
    }
    return _certified("synthesize", name, result, certs)


def cmd_integrate_form(args) -> tuple[dict, int]:
    w, names, name = _load_form(args)
    order = _parse_var_order(args.var_order, names)
    witness = is_closed(w)
    if not witness.closed:
        report = _report(
            "integrate-form",
            name,
            "failed",
            {
                "pair": [names[witness.pair[0]], names[witness.pair[1]]],
            },
            [_certificate("closedness", witness.residual, names)],
        )
        return report, EXIT_NOT_CLOSED
    result = integrate_closed(w, order=order, check=False)
    algebraic = [g for g, _ in result.log_groups if g.degree > 1]
    if args.rational_only and algebraic:
        report = _report(
            "integrate-form",
            name,
            "unavailable",
            {
                "reason": "potential needs an algebraic extension "
                "(a residue group of degree > 1) and --rational-only was set",
                "groups": [
                    _group_payload(g, s, names)
                    for g, s in result.log_groups
                    if g.degree > 1
                ],
            },
            [_certificate("closedness", None, names)],
        )
        return report, EXIT_ALGEBRAIC
    certs = [_certificate("closedness", None, names)]
    back = differentiate(result)
    for i, n_ in enumerate(names):
        residual = fraction_sum(w.arity, [(back[i].num, back[i].den), (-w[i].num, w[i].den)])
        certs.append(_certificate(f"roundtrip[{n_}]", residual, names))
    payload = {
        "potential": result.render(names),
        "ratPart": result.rat_part.render(names),
        "logGroups": [_group_payload(g, s, names) for g, s in result.log_groups],
        "darboux": to_darboux(result).render(names),
    }
    return _certified("integrate-form", name, payload, certs)


def _pipeline_theorem2(args, X, name) -> tuple[dict, int]:
    names = list(X.var_names)
    order = _parse_var_order(args.var_order, names)
    last_var = order[-1] if order is not None else None
    integrals = [parse_ratfunc(e, names) for e in args.integral or []]
    if not integrals:
        raise ParseError("theorem2 mode needs --integral (one per first integral)")
    d = multiplier_from_rational_integrals(X, integrals, last_var=last_var)
    certs = [_certificate(label, residual, names) for label, residual in d.identities]
    payload = {
        "mode": "theorem2",
        "lastVariable": names[d.last_var],
        "gamma": d.gamma.render(names),
        "gammas": {
            names[i]: g.render(names) for i, g in zip(d.columns, d.gammas)
        },
        "h": d.h.render(names),
        "aForm": [c.render(names) for c in d.a_form.components],
        "multiplier": d.result.render(names),
        "warnings": list(d.warnings),
    }
    return _certified("pipeline", name, payload, certs)


def _pipeline_theorem1(args, X, name) -> tuple[dict, int]:
    names = list(X.var_names)
    multipliers = [parse_darboux(e, names) for e in args.multiplier or []]
    if not multipliers:
        raise ParseError("theorem1 mode needs --multiplier (one per multiplier)")
    ratios = ratio_first_integrals(X, multipliers)
    certs = [
        _certificate(f"ratio-derivative[{i}]", residual, names)
        for i, residual in enumerate(ratios.residuals)
    ]
    payload = {
        "mode": "theorem1",
        "ratioIntegrals": [ratio.render(names) for ratio in ratios.forms],
        "rank": ratios.certificate.rank,
        "witnessRows": list(ratios.certificate.witness_rows),
        "witnessCols": list(ratios.certificate.witness_cols),
        "dependent": ratios.dependent,
    }
    if ratios.dependent:
        report = _report("pipeline", name, "failed", payload, certs)
        return report, EXIT_VERIFY
    if X.arity == 2:
        outcome = first_integral_2d(X, multipliers[0])
        if isinstance(outcome, ClosedFormUnavailable):
            payload["firstIntegral"] = None
            payload["reason"] = outcome.reason
            # first_integral_2d returns this only past its multiplier check,
            # which certifies the closedness of V*(P_2, -P_1)
            certs.append(_certificate("closedness", None, names))
            report = _report("pipeline", name, "unavailable", payload, certs)
            return report, EXIT_ALGEBRAIC
        payload["firstIntegral"] = outcome.render(names)
        # first_integral_2d raises unless the residual is zero
        certs.append(_certificate("first-integral-residual", None, names))
    return _certified("pipeline", name, payload, certs)


def cmd_pipeline(args) -> tuple[dict, int]:
    X, name = _load_system(args)
    if args.mode == "theorem2":
        return _pipeline_theorem2(args, X, name)
    return _pipeline_theorem1(args, X, name)


# -- argument parsing ----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvk",
        description="Exact Darboux/Liouvillian integrability toolkit "
        "for polynomial vector fields.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--system", help="system description file ('-' for stdin)")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("verify", help="verify an invariant object against a system")
    common(p)
    p.add_argument("--darboux-poly", help="candidate invariant polynomial")
    p.add_argument("--multiplier", help="candidate Jacobian multiplier expression")
    p.add_argument("--first-integral", help="candidate first-integral expression")
    p.add_argument("--exp-factor", help="candidate exponential-factor argument g/h")

    p = sub.add_parser(
        "synthesize", help="solve the cofactor equation for exponents"
    )
    common(p)
    p.add_argument("--poly", action="append", help="invariant polynomial (repeatable)")
    p.add_argument(
        "--exp-factor", action="append", help="exponential-factor argument (repeatable)"
    )
    p.add_argument(
        "--target",
        choices=("first-integral", "multiplier"),
        required=True,
    )

    p = sub.add_parser(
        "integrate-form", help="potential of a closed rational 1-form"
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--form", help="form file: a 'vars' line then the components")
    p.add_argument("--vars", help="comma-separated variable names (inline mode)")
    p.add_argument(
        "--component", action="append", help="form component expression (repeatable)"
    )
    p.add_argument("--var-order", help="integration order, e.g. x,z,y")
    p.add_argument(
        "--rational-only",
        action="store_true",
        help="fail (exit 4) instead of introducing algebraic residue groups",
    )

    p = sub.add_parser("pipeline", help="run a full multiplier/integral construction")
    common(p)
    p.add_argument("--mode", choices=("theorem1", "theorem2"), required=True)
    p.add_argument(
        "--integral", action="append", help="rational first integral (repeatable)"
    )
    p.add_argument(
        "--multiplier", action="append", help="Jacobian multiplier (repeatable)"
    )
    p.add_argument("--var-order", help="variable order, e.g. x,z,y")
    return parser


_DISPATCH = {
    "verify": cmd_verify,
    "synthesize": cmd_synthesize,
    "integrate-form": cmd_integrate_form,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _DISPATCH[args.cmd](args)
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_PARSE
    except NotClosed as e:
        sys.stderr.write(f"not closed: {e}\n")
        return EXIT_NOT_CLOSED
    except NonConstantResidue as e:
        sys.stderr.write(f"algebraic obstruction: {e}\n")
        return EXIT_ALGEBRAIC
    except DegreeCapExceeded as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return EXIT_VERIFY
    except (VerificationError, LvkError) as e:
        sys.stderr.write(f"verification failure: {e}\n")
        return EXIT_VERIFY
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
