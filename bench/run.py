"""lvk benchmark: one workload in a closed loop, end to end or traced per layer.

    python3 bench/run.py --workload {catalog,roundtrip,planted} --seed N \
        --seconds S --trace {0,1}

One caller in one process and one thread starts the next operation only
after the previous one returns; lvk queues no work, waits on nothing and
does no I/O in the timed loop, so no waiting-time metric is reported.  The
loop runs whole passes over the workload's cases, as many as end within
``--seconds``, so every run measures the same mix.  Each operation gets a time
budget enforced with ``signal.setitimer``; lvk keeps no global state, so an
interrupted operation leaves nothing behind.  A timeout, an exception
(``DegreeCapExceeded`` included) or a wrong output is a failure.

Each pass runs its operations first and checks their outputs after, so the
timed loop holds operations only.

The host this benchmark was defined on changes speed by up to 1.5x for tens
of seconds to minutes at a time, so runs of the same code disagreed by more
than any useful bound.  Every time metric is therefore reported at a fixed
reference speed: a stdlib ``Fraction`` kernel that does not touch lvk runs
before and after every operation (and every set-up), and the wall time is
scaled by ``REF_MS`` over the mean of those two kernel times.  On a host
where the kernel takes ``REF_MS`` the figures are plain wall time; the raw
wall-time figures are printed beside them.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes, so both see
the same host conditions, and prints per-layer metrics per traced pass plus
the tracing overhead; spans go to ``bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

BUDGET_S = 30.0
#: Set-up runs at least this many times and until SETUP_MIN_S have gone by.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.5
#: Median time of ``reference_s``'s kernel, in ms, on the 2-core Xeon VM
#: (CPython 3.11.7) the benchmark was defined on; times are reported at this speed.
REF_MS = 0.87
#: Set before lvk is imported, as tests/conftest.py does for randomized inputs.
MAX_DEGREE = "4096"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, the end-to-end metric and workload it should move / leave alone)
PER_LAYER = [
    ("cli.main.calls", "count", "catalog.op_p50_ms; absent elsewhere"),
    ("cli.main.self_s", "s", "catalog.op_p50_ms; absent elsewhere"),
    ("parsing.calls", "count", "catalog.op_p50_ms"),
    ("parsing.incl_s", "s", "catalog.op_p50_ms"),
    ("darboux.synthesize.incl_s", "s", "catalog only"),
    ("darboux.cofactor_of.calls", "count", "catalog only"),
    ("darboux.is_jacobian_multiplier.incl_s", "s", "catalog and planted"),
    ("pipeline.multiplier_from_rational_integrals.self_s", "s",
     "planted.ops_per_s, catalog.op_p90_ms; not roundtrip"),
    ("pipeline.gamma_determinants.incl_s", "s",
     "planted.ops_per_s, catalog.op_p90_ms; not roundtrip"),
    ("integrator.integrate_closed.incl_s", "s", "roundtrip.ops_per_s"),
    ("integrator.integrate_closed.self_s", "s", "roundtrip.ops_per_s"),
    ("integrator.differentiate.incl_s", "s", "roundtrip.ops_per_s"),
    ("forms.is_closed.incl_s", "s", "roundtrip.ops_per_s"),
    ("unipoly.hermite_reduce.incl_s", "s", "roundtrip.op_p50_ms"),
    ("unipoly.squarefree_yun.incl_s", "s", "roundtrip.op_p50_ms"),
    ("unipoly.gcd_uni.calls", "count", "roundtrip.op_p50_ms"),
    ("unipoly.extended_gcd_uni.incl_s", "s", "roundtrip.op_p50_ms"),
    ("unipoly.resultant.calls", "count", "roundtrip.op_p90_ms; not catalog"),
    ("unipoly.resultant.incl_s", "s", "roundtrip.op_p90_ms; not catalog"),
    ("unipoly.resultant.sylvester_dim_max", "count", "roundtrip.op_p90_ms; not catalog"),
    ("residues.rothstein_trager.self_s", "s", "roundtrip.op_p50_ms"),
    ("residues.d5_gcd.incl_s", "s", "roundtrip.op_p50_ms"),
    ("residues.group_degree_max", "count", "roundtrip.op_p50_ms"),
    ("linalg.determinant.from_resultant.incl_s", "s", "roundtrip only"),
    ("linalg.determinant.from_gamma.incl_s", "s", "planted only"),
    ("linalg.determinant.dim_max", "count", "roundtrip and planted"),
    ("linalg.solve_linear.incl_s", "s", "catalog"),
    ("ratfunc.normalize.calls", "count", "ops_per_s everywhere, most on planted"),
    ("ratfunc.normalize.incl_s", "s", "ops_per_s everywhere, most on planted"),
    ("ratfunc.normalize.useful_ratio", "ratio", "ops_per_s everywhere, most on planted"),
    ("ratfunc.neg.calls", "count", "ops_per_s everywhere, most on planted"),
    ("multipoly.gcd_multivar.calls", "count", "all three workloads"),
    ("multipoly.gcd_multivar.self_s", "s", "all three workloads"),
    ("multipoly.gcd_multivar.incl_s", "s", "all three workloads"),
    ("multipoly.gcd_multivar.deg_max", "count", "all three workloads"),
    ("multipoly.gcd_multivar.terms_max", "count", "all three workloads"),
    ("multipoly.gcd_multivar.coeff_bits_max", "count", "all three workloads"),
    ("multipoly.exact_div.calls", "count", "all three workloads"),
    ("multipoly.exact_div.incl_s", "s", "all three workloads"),
    ("multipoly.mul.calls", "count", "ops_per_s everywhere"),
    ("multipoly.construct.calls", "count", "ops_per_s everywhere"),
    ("failed.timeout", "count", "failed_share"),
    ("failed.error", "count", "failed_share"),
    ("failed.wrong", "count", "failed_share"),
    ("trace.overhead_share", "ratio", "none: 1 - traced/untraced ops_per_s"),
]


class OverBudget(BaseException):
    """Raised from the alarm handler; a BaseException so no lvk handler catches it."""


def _alarm(signum, frame):
    raise OverBudget()


@dataclass
class Outcome:
    times: list = field(default_factory=list)  # wall time of every operation, in order
    scaled: list = field(default_factory=list)  # the same at the reference speed
    ok: int = 0
    passes: int = 0
    failures: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ops_per_s(self, times=None) -> float:
        """Correct operations per second spent in operations, at the reference speed."""
        return self.ok / sum(self.scaled if times is None else times)


def reference_s() -> float:
    """Wall time of one run of a fixed stdlib kernel that gauges the host's speed.

    The collector is off while it runs, so garbage an operation left behind
    is not collected, and timed, here.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 200):
        total += Fraction((i * 7919) % 13 - 6, i)
        seen[(i % 17, i % 5)] = total
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def at_reference(dt: float, before: float, after: float) -> float:
    """``dt`` seconds scaled to the host speed at which the kernel takes REF_MS."""
    return dt * REF_MS * 2e-3 / (before + after)


def import_lvk():
    """A fresh import of lvk from this checkout's ``src``."""
    for name in [k for k in sys.modules if k == "lvk" or k.startswith("lvk.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lvk = importlib.import_module("lvk")
    importlib.import_module("lvk.cli")  # the package does not import its front end
    if Path(lvk.__file__).resolve().parent != SRC / "lvk":
        raise ImportError(f"lvk imported from {lvk.__file__}, not from {SRC}")
    return lvk


def setup(workload: str, seed: int):
    """Import lvk and build the cases repeatedly; the median time is setup_s."""
    build = workloads.WORKLOADS[workload][0]
    times, scaled = [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        gc.collect()
        before = reference_s()
        t0 = time.perf_counter()
        lvk = import_lvk()
        wl = build(lvk, seed)
        times.append(time.perf_counter() - t0)
        scaled.append(at_reference(times[-1], before, reference_s()))
    gc.collect()
    return lvk, wl, statistics.median(scaled), statistics.median(times)


def run_pass(lvk, wl, workload, out: Outcome, budget=BUDGET_S, tracer=None) -> None:
    """One timed pass over ``wl.cases``, then the checks of its outputs, into ``out``."""
    _, operate, check = workloads.WORKLOADS[workload]
    results = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    before = reference_s()
    try:
        for case in wl.cases:
            kind, result = None, None
            if tracer is not None:
                tracer.begin_op(len(out.times))
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                result = operate(lvk, case)
            except OverBudget:
                kind = "timeout"
            except Exception as e:  # every lvk error, DegreeCapExceeded included
                kind = "error"
                out.errors[type(e).__name__] += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                out.times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
            after = reference_s()
            out.scaled.append(at_reference(out.times[-1], before, after))
            before = after
            results.append((case, kind, result))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for case, kind, result in results:
        if kind is None and not check(lvk, case, result):
            kind = "wrong"
        if kind is None:
            out.ok += 1
        else:
            out.failures[kind] += 1
    out.passes += 1


def _more(start: float, passes: int, seconds: float) -> bool:
    """Whether another pass of the mean length so far still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def run_passes(lvk, wl, workload, seconds, budget=BUDGET_S) -> Outcome:
    """Whole passes over ``wl.cases`` that end within ``seconds`` (at least one)."""
    out = Outcome()
    start = time.perf_counter()
    while True:
        run_pass(lvk, wl, workload, out, budget)
        if not _more(start, out.passes, seconds):
            return out


def run_traced(lvk, wl, workload, seconds, tracer) -> tuple[Outcome, Outcome]:
    """Untraced and traced passes in turn, the tracer installed around each traced one."""
    untraced, traced = Outcome(), Outcome()
    start = time.perf_counter()
    while True:
        run_pass(lvk, wl, workload, untraced)
        tracer.install()
        try:
            run_pass(lvk, wl, workload, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        if not _more(start, traced.passes, seconds):
            return untraced, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(out: Outcome, setup_s: float, times=None) -> dict:
    """The end-to-end metrics at the reference speed, or from raw ``times`` if given."""
    times = out.scaled if times is None else times
    return {
        "ops_per_s": out.ops_per_s(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def _per_pass(total, passes):
    return total // passes if total % passes == 0 else total / passes


def per_layer(tracer, traced: Outcome, untraced: Outcome) -> dict:
    table = tracer.summary()
    passes = traced.passes

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    m = {}
    for metric, _, _ in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if key in ("calls", "incl_s", "self_s") and head in table:
            m[metric] = get(head, key)
    parsing = [n for n in table if n.startswith("parsing.")]
    m["parsing.calls"] = sum(get(n, "calls") for n in parsing)
    m["parsing.incl_s"] = sum(get(n, "incl_s") for n in parsing)
    m.update({k: v for k, v in tracer.counts.items() if k in {n for n, _, _ in PER_LAYER}})
    m = {k: _per_pass(v, passes) for k, v in m.items()}
    m.update(tracer.growth)
    normalize = get(spans.NORMALIZE, "calls")
    m["ratfunc.normalize.useful_ratio"] = (
        tracer.counts["ratfunc.normalize.useful"] / normalize if normalize else 0.0
    )
    for kind in ("timeout", "error", "wrong"):
        m[f"failed.{kind}"] = untraced.failures[kind] + traced.failures[kind]
    m["trace.overhead_share"] = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
    return {name: m.get(name, 0) for name, _, _ in PER_LAYER}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        # four certificate checks in lvk are asserts; -O would measure a program without them
        print("refusing to run under python -O: lvk's certificate asserts would be stripped",
              file=sys.stderr)
        return 2
    os.environ["LVK_MAX_DEGREE"] = MAX_DEGREE
    lvk, wl, setup_s, setup_wall_s = setup(args.workload, args.seed)
    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    print(f"cases per pass: {len(wl.cases)} {wl.counts}; fixed: {wl.fixed}")
    print(f"closed loop, 1 caller, 1 process, 1 thread; budget {BUDGET_S:g} s per operation; "
          f"LVK_MAX_DEGREE={os.environ['LVK_MAX_DEGREE']}; Python {sys.version.split()[0]}; "
          f"nproc {os.cpu_count()}")
    print("no waiting-time metrics: lvk queues no work and does no I/O in the timed loop")

    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = run_traced(lvk, wl, args.workload, args.seconds, tracer)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(spans_path)
        outcomes = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        units = {n: u for n, u, _ in PER_LAYER}
        print(f"traced {traced.passes} passes, untraced {untraced.passes}; values per traced pass; "
              f"ops_per_s untraced {untraced.ops_per_s():.4g}, traced {traced.ops_per_s():.4g}; "
              f"{len(tracer.start)} spans in {spans_path.relative_to(ROOT)}")
        for name, unit, moves in PER_LAYER:
            print(f"  {name:52s} {_fmt(metrics[name]):>14s} {unit:6s} moves: {moves}")
    else:
        out = run_passes(lvk, wl, args.workload, args.seconds)
        outcomes = [out]
        metrics = end_to_end(out, setup_s)
        wall = end_to_end(out, setup_wall_s, out.times)
        units = dict(END_TO_END)
        beyond = sum(t * 1e3 > metrics["op_p90_ms"] for t in out.scaled)
        print(f"  at the reference speed; the host ran at {sum(out.scaled) / sum(out.times):.3f} "
              f"of it (REF_MS {REF_MS} ms)")
        for name, unit in END_TO_END:
            print(f"  {name:12s} {metrics[name]:.6g} {unit}  (wall time: {wall[name]:.6g})")
        print(f"  samples {out.attempted} over {out.passes} passes, {beyond} beyond op_p90_ms")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    causes = sum((o.failures for o in outcomes), Counter())
    errors = sum((o.errors for o in outcomes), Counter())
    print(f"  failed_share {failed / attempted:.6g} ratio ({failed} of {attempted}: "
          f"timeout {causes['timeout']}, error {causes['error']}, wrong {causes['wrong']}"
          + (f"; {dict(errors)}" if errors else "") + ")")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
