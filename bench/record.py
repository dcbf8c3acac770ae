"""Print the end-to-end metrics of every workload and record the run.

    python3 bench/record.py

Runs every workload once untraced and once traced, each in its own process,
at seed ``SEED`` for ``run_seconds`` from ``BENCHMARK.json``.  Prints the
end-to-end metrics with failed_share, and writes ``bench_out/baseline.json``:
the end-to-end metrics, the per-layer table and what each run was made of
(seed, case counts, fixed cases, the reason for the workload, the
per-operation budget, the Python version and ``nproc``).  Copying that file
over ``bench/baseline.json`` is the separate step that adopts it as the
baseline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=BENCH.parent,
    )
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()} | {
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def main() -> int:
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    os.environ["LVK_MAX_DEGREE"] = run.MAX_DEGREE
    lvk = run.import_lvk()
    record = {
        "seed": SEED,
        "run_seconds": seconds,
        "budget_s_per_operation": run.BUDGET_S,
        "reference_kernel_ms": run.REF_MS,
        "LVK_MAX_DEGREE": run.MAX_DEGREE,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loop": "closed: 1 caller, 1 process, 1 thread; whole passes over the cases",
        "shape_seeds": {
            "roundtrip": workloads.ROUNDTRIP_SHAPE_SEED,
            "planted": workloads.PLANTED_SHAPE_SEED,
        },
        "excluded": {
            "roadmap-3log": "d(log(x^2+y^2+1) - 2 log(xy+1) + 3 log(x+y^3) + x/(y+1)): "
            "integrate_closed does not finish; the smoke test uses it as the "
            "operation over budget",
            **workloads.PLANTED_EXCLUDED,
        },
        "moves": {name: moves for name, _, moves in run.PER_LAYER},
        "workloads": {},
    }
    for name, (build, _, _) in workloads.WORKLOADS.items():
        wl = build(lvk, SEED)
        record["workloads"][name] = {
            "why": wl.why,
            "cases_per_pass": len(wl.cases),
            "counts": wl.counts,
            "fixed": wl.fixed,
            "end_to_end": measure(name, SEED, seconds, 0),
            "per_layer": measure(name, SEED, seconds, 1),
        }
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    units = dict(run.END_TO_END) | {"failed_share": "ratio"}
    print(f"{'metric':14s}" + "".join(f"{name:>14s}" for name in record["workloads"]) + "  unit")
    for metric, unit in units.items():
        cells = []
        for w in record["workloads"].values():
            e2e = w["end_to_end"]
            value = e2e["failed"] / e2e["attempted"] if metric == "failed_share" else e2e[metric]
            cells.append(f"{value:14.6g}")
        print(f"{metric:14s}" + "".join(cells) + f"  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
