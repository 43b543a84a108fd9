"""Print the README's baseline tables: every end-to-end metric over seeds
1-10 per workload (median, quartiles, spread = IQR / median), then the
per-layer metrics of one traced seed-0 run per workload.  Each run measures
for the run_seconds of BENCHMARK.json.

    python3 perfbench/baseline.py

Runs are serial and take about 30 minutes.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
WORKLOADS = ("compare", "semiclassics", "cold_cli")
LAYER_ROWS = (
    "cli.import_s", "pipeline.build_engine.s", "quadrature.ActionFn.build.calls",
    "quadrature.ActionFn.build.s", "quadrature.cache_nodes", "quadrature.ActionFn.call.calls",
    "semiclassics.bohr_sommerfeld.calls", "semiclassics.bs_reuse", "semiclassics.det_one_minus_m.calls",
    "semiclassics.count_by_argument_principle.s", "semiclassics.pseudo_resonances.s",
    "semiclassics.width_coefficient.calls", "pipeline.select_anchor.s", "pipeline.width_dips.s",
    "oracle.refine_resonance.calls", "oracle.MatchingProblem.W.calls", "oracle.MatchingProblem.W.s",
    "oracle.W_per_refine", "oracle.ode_steps", "oracle.ode_rhs_evals", "oracle.width_from_state.s",
    "process.cpu_s", "trace.overhead_s",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=str(HERE.parent), stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().split("\n")[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} --trace {trace}: incorrect output")
    return result


def fmt(v: float) -> str:
    return f"{v:.4g}"


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    print("| workload | metric | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|")
    for w in WORKLOADS:
        values = {}
        for seed in range(1, RUNS + 1):
            for k, m in run(w, seed, seconds, 0)["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        for k, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"| {w} | `{k}` | {fmt(med)} | {fmt(q1)} | {fmt(q3)} | {(q3 - q1) / med:.3f} |")
    traced = {w: run(w, 0, seconds, 1)["metrics"] for w in WORKLOADS}
    print()
    print("| per-layer metric (seed 0) | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for k in LAYER_ROWS:
        print(f"| `{k}` | " + " | ".join(fmt(traced[w][k]["value"]) for w in WORKLOADS) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
