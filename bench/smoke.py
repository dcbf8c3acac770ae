"""The benchmark's own smoke test, on tiny workloads.

    python3 bench/smoke.py

Checks that every operation of every workload is checked; that counts and
growth counters repeat exactly between two traced passes at one seed; that
every wrapped lvk function is the original object again after tracing; that
a form which is not closed counts under ``failed.error`` and an operation
over budget under ``failed.timeout``; that ``python -O`` is refused; and
that ``BENCHMARK.json`` names exactly the metrics the runner prints.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def shrink() -> None:
    workloads.ROUNDTRIP_DRAWN = 4
    workloads.PLANTED_DRAWN = {3: 2, 4: 1}
    workloads.FIXED_ARITIES = (5,)


def traced_pass(lvk, wl, name):
    tracer = spans.Tracer()
    _, out = run.run_traced(lvk, wl, name, 0, tracer)
    restored = all(vars(owner)[attr] is original for owner, attr, original in tracer.patches)
    return tracer, out, restored


def exact_counts(tracer, out) -> dict:
    metrics = run.per_layer(tracer, out, out)
    units = {n: u for n, u, _ in run.PER_LAYER}
    return {k: v for k, v in metrics.items() if units[k] == "count"}


def main() -> int:
    os.environ["LVK_MAX_DEGREE"] = run.MAX_DEGREE
    shrink()
    why = {}
    for name in workloads.WORKLOADS:
        lvk, wl, _, _ = run.setup(name, seed=1)
        why[name] = wl.why
        out = run.run_passes(lvk, wl, name, 0)
        expect(
            out.attempted == len(wl.cases) and out.ok == out.attempted,
            f"{name}: all {len(wl.cases)} operations ran, checked and correct",
        )
        first, out1, restored = traced_pass(lvk, wl, name)
        expect(restored and len(first.patches) > 30,
               f"{name}: {len(first.patches)} wrappers restored")
        second, out2, _ = traced_pass(lvk, wl, name)
        counts = exact_counts(first, out1)
        expect(counts == exact_counts(second, out2) and any(counts.values()),
               f"{name}: counts and growth counters repeat exactly")

    lvk = run.import_lvk()
    base = workloads.roundtrip_cases(lvk, 1)
    y = lvk.RatFunc(lvk.MultiPoly.variable(2, 1))
    not_closed = lvk.forms.OneForm([y, lvk.RatFunc.zero(2)])
    wl = dataclasses.replace(base, cases=[workloads.Case("not-closed", (not_closed,))])
    out = run.run_passes(lvk, wl, "roundtrip", 0)
    expect(dict(out.failures) == {"error": 1} and dict(out.errors) == {"NotClosed": 1},
           "a form that is not closed counts as failed.error")

    stress = lvk.differentiate(workloads.fixed_potential(lvk, workloads.STRESS_FORM))
    wl = dataclasses.replace(base, cases=[workloads.Case("stress", (stress,))])
    out = run.run_passes(lvk, wl, "roundtrip", 0, budget=1.0)
    expect(dict(out.failures) == {"timeout": 1},
           "an operation over budget counts as failed.timeout")

    p = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "catalog",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    expect(p.returncode != 0 and not p.stdout.strip(), "python -O is refused without a result")

    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in manifest["end_to_end"]] == run.END_TO_END
           and [(m["name"], m["unit"]) for m in manifest["per_layer"]]
           == [(n, u) for n, u, _ in run.PER_LAYER]
           and {w["name"]: w["why"] for w in manifest["workloads"]} == why,
           "BENCHMARK.json names the metrics, units and workloads the runner prints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
