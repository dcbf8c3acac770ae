"""Spans and counters around lvk's public functions, recorded from outside lvk.

``Tracer.install`` wraps each function in ``SPANS`` at every lvk module that
binds it, so a call through any import site is seen; the wrapper name may
depend on the site, which splits ``determinant`` into its resultant and
Gamma callers.  Three hot methods are counted without spans.  Spans live in
in-memory arrays (name, start, end, parent span, operation id), are written
out once by ``write_spans``, and ``uninstall`` puts every original back.
Nothing is recorded outside an operation, so the benchmark's own checks do
not count.  Growth hooks are timed, and their time is taken out of every
span still open, so hook work shows in no layer's self or inclusive time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name or {binding module: span name}, growth hook name)
SPANS = [
    ("lvk.cli", "main", "cli.main", None),
    ("lvk.vectorfield", "parse_system", "parsing.parse_system", None),
    ("lvk.parsing", "parse_poly", "parsing.parse_poly", None),
    ("lvk.parsing", "parse_ratfunc", "parsing.parse_ratfunc", None),
    ("lvk.parsing", "parse_darboux", "parsing.parse_darboux", None),
    ("lvk.darboux", "synthesize", "darboux.synthesize", None),
    ("lvk.darboux", "cofactor_of", "darboux.cofactor_of", None),
    ("lvk.darboux", "is_jacobian_multiplier", "darboux.is_jacobian_multiplier", None),
    ("lvk.pipeline", "theorem2_pipeline", "pipeline.theorem2_pipeline", None),
    (
        "lvk.pipeline",
        "multiplier_from_rational_integrals",
        "pipeline.multiplier_from_rational_integrals",
        None,
    ),
    ("lvk.pipeline", "gamma_determinants", "pipeline.gamma_determinants", None),
    ("lvk.integrator", "integrate_closed", "integrator.integrate_closed", None),
    ("lvk.integrator", "differentiate", "integrator.differentiate", None),
    ("lvk.forms", "is_closed", "forms.is_closed", None),
    ("lvk.unipoly", "hermite_reduce", "unipoly.hermite_reduce", None),
    ("lvk.unipoly", "squarefree_yun", "unipoly.squarefree_yun", None),
    ("lvk.unipoly", "gcd_uni", "unipoly.gcd_uni", None),
    ("lvk.unipoly", "extended_gcd_uni", "unipoly.extended_gcd_uni", None),
    ("lvk.unipoly", "resultant", "unipoly.resultant", "sylvester"),
    ("lvk.residues", "rothstein_trager", "residues.rothstein_trager", "groups"),
    ("lvk.residues", "d5_gcd", "residues.d5_gcd", None),
    (
        "lvk.linalg",
        "determinant",
        {
            "lvk.unipoly": "linalg.determinant.from_resultant",
            "lvk.pipeline": "linalg.determinant.from_gamma",
            None: "linalg.determinant",
        },
        "determinant",
    ),
    ("lvk.linalg", "solve_linear", "linalg.solve_linear", None),
    ("lvk.multipoly", "gcd_multivar", "multipoly.gcd_multivar", "gcd"),
    ("lvk.multipoly", "exact_div", "multipoly.exact_div", None),
]

# Spans of one family nest without counting twice in an inclusive time.
FAMILY = {
    "parsing.parse_system": "parsing",
    "parsing.parse_poly": "parsing",
    "parsing.parse_ratfunc": "parsing",
    "parsing.parse_darboux": "parsing",
    "linalg.determinant.from_resultant": "linalg.determinant",
    "linalg.determinant.from_gamma": "linalg.determinant",
}

# (class path, method, counter name): counted only, hundreds of thousands of calls a run.
COUNTED = [
    ("lvk.multipoly.MultiPoly", "__init__", "multipoly.construct.calls"),
    ("lvk.multipoly.MultiPoly", "__mul__", "multipoly.mul.calls"),
    ("lvk.ratfunc.RatFunc", "__neg__", "ratfunc.neg.calls"),
]
NORMALIZE = "ratfunc.normalize"


def _coeff_bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.top = array("b")  # 1 when no enclosing span of the same family
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.op_id = -1  # -1: outside an operation, nothing is recorded
        self.hook_s = 0.0  # time spent in growth hooks, subtracted from every timestamp
        self.counts: Counter = Counter()
        self.growth: Counter = Counter()
        self.patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        # an operation stopped by its budget can leave one span half appended
        n = min(map(len, (self.name, self.parent, self.op, self.top, self.start, self.end)))
        for arr in (self.name, self.parent, self.op, self.top, self.start, self.end):
            del arr[n:]
        self.op_id = op_id
        self._stack.clear()
        self._depth.clear()

    def end_op(self) -> None:
        self.op_id = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _max(self, key: str, value: int) -> None:
        if value > self.growth[key]:
            self.growth[key] = value

    def _span(self, name: str, fn, hook=None):
        nid = self._id(name)
        family = FAMILY.get(name, name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.top.append(0 if self._depth[family] else 1)
            self.end.append(0.0)
            self._stack.append(idx)
            self._depth[family] += 1
            self.start.append(perf() - self.hook_s)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf() - self.hook_s
                self._depth[family] -= 1
                if self._stack:
                    self._stack.pop()
            if hook is not None:
                h0 = perf()
                hook(args, result)
                self.hook_s += perf() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.op_id >= 0:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- growth hooks --------------------------------------------------------------

    def _hook(self, kind: str | None, site: str):
        """A function of (args, result) that records growth at one boundary."""
        top = self._max
        if kind == "sylvester":
            def hook(a, r):
                top("unipoly.resultant.sylvester_dim_max", a[0].degree() + a[1].degree())
        elif kind == "groups":
            def hook(a, r):
                top("residues.group_degree_max", max((g.degree for g in r), default=0))
        elif kind == "determinant":
            def hook(a, r):
                top("linalg.determinant.dim_max", len(a[0]))
        elif kind == "gcd":
            def hook(a, r):
                top("multipoly.gcd_multivar.deg_max", max(p.total_degree() for p in a[:2]))
                top("multipoly.gcd_multivar.terms_max", max(len(p.terms) for p in a[:2]))
                top("multipoly.gcd_multivar.coeff_bits_max", max(map(_coeff_bits, a[:2])))
                # RatFunc.__init__ is the only caller of gcd_multivar in lvk.ratfunc
                if site == "lvk.ratfunc" and not r.is_constant():
                    self.counts["ratfunc.normalize.useful"] += 1
        else:
            return None
        return hook

    # -- installing ------------------------------------------------------------------

    def install(self) -> None:
        self.patches = []
        mods = {k: m for k, m in sys.modules.items() if k == "lvk" or k.startswith("lvk.")}
        for modname, attr, names, hook in SPANS:
            fn = getattr(mods[modname], attr)
            for site, mod in mods.items():
                for key, value in list(vars(mod).items()):
                    if value is not fn:
                        continue
                    name = names if isinstance(names, str) else names.get(site, names[None])
                    self._patch(mod, key, self._span(name, fn, self._hook(hook, site)))
        rf = mods["lvk.ratfunc"].RatFunc
        self._patch(rf, "__init__", self._span(NORMALIZE, rf.__init__))
        for path, method, key in COUNTED:
            modname, cls_name = path.rsplit(".", 1)
            cls = getattr(mods[modname], cls_name)
            self._patch(cls, method, self._count(key, vars(cls)[method]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, wrapper.__wrapped__))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost of a family), self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.top[i]:
                row["incl_s"] += dur
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, parent, op, start, end (s)."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("id\tname\tparent\top\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
