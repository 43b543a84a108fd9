"""crosswidth benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload {compare,semiclassics,cold_cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/``.  The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``.  The line before it holds provenance and the details behind
each metric.  Spans of a traced run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread: the matrices are tiny, and the machine has two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from speed import Speed  # noqa: E402

WORKLOADS = ("compare", "semiclassics", "cold_cli")
SETUP_REPS = 6   # half before the first pass, half after the last
OUT_DIR = HERE / "out"
REFERENCE_DIR = HERE / "reference"

# per-layer metric name -> span name, reported as .calls, .s and .self_s
SPAN_METRICS = {
    "config.load_config": "config.load_config",
    "model.validate_structure": "model.validate_structure",
    "geometry.build_graph": "geometry.build_graph",
    "pipeline.build_engine": "pipeline.build_engine",
    "quadrature.ActionFn.build": "quadrature.ActionFn.build",
    "quadrature.action_edge": "quadrature.action_edge",
    "quadrature.ActionFn.call": "quadrature.ActionFn.call",
    "semiclassics.bohr_sommerfeld": "semiclassics.SemiclassicsEngine.bohr_sommerfeld",
    "semiclassics.det_one_minus_m": "semiclassics.SemiclassicsEngine.det_one_minus_m",
    "semiclassics.monodromy": "semiclassics.SemiclassicsEngine.monodromy",
    "semiclassics.count_by_argument_principle": "semiclassics.SemiclassicsEngine.count_by_argument_principle",
    "semiclassics.pseudo_resonances": "semiclassics.SemiclassicsEngine.pseudo_resonances",
    "semiclassics.width_coefficient": "semiclassics.SemiclassicsEngine.width_coefficient",
    "geometry.paths_one_switch": "geometry.paths_one_switch",
    "geometry.primitive_cycles": "geometry.primitive_cycles",
    "pipeline.select_anchor": "pipeline.select_anchor",
    "pipeline.width_dips": "pipeline.width_dips",
    "oracle.refine_resonance": "oracle.refine_resonance",
    "oracle.MatchingProblem.W": "oracle.MatchingProblem.W",
    "oracle.propagate": "oracle.propagate",
    "oracle.width_from_state": "oracle.width_from_state",
    "oracle.solve_ivp": "oracle.solve_ivp",
}
NAMED_METRICS = {
    "cli.import_s": "s",
    "quadrature.cache_nodes": "count",
    "quadrature.cache_err_max": "abs",
    "semiclassics.bs_reuse": "ratio",
    "semiclassics.newton_iters": "count",
    "semiclassics.newton_residual_max": "abs",
    "oracle.W_per_refine": "ratio",
    "oracle.ode_steps": "count",
    "oracle.ode_rhs_evals": "count",
    "oracle.residual_max": "abs",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_names():
    names = {}
    for metric in SPAN_METRICS:
        names[f"{metric}.calls"] = "count"
        names[f"{metric}.s"] = "s"
        names[f"{metric}.self_s"] = "s"
    names.update(NAMED_METRICS)
    return names


# --- workloads -------------------------------------------------------------------------


class Workload:
    """Set-up and passes of one workload, with the inputs its seed gives."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.inp = wl.inputs(name, seed)

    def prepare(self):
        """One set-up sample after the import: (seconds, state for a pass).
        Only semiclassics builds engines before its tasks; the compare
        command and each cold_cli child build their own inside the task."""
        if self.name == "semiclassics":
            return wl.prepare_engines(self.inp)
        return 0.0, None

    def run_pass(self, state, tracer=None, trace_dir=None, speed=None):
        if self.name == "compare":
            return wl.run_inprocess_cli_pass(wl.compare_tasks(self.inp), tracer, speed)
        if self.name == "semiclassics":
            return wl.run_semiclassics_pass(state, self.inp, tracer, speed)
        return wl.run_cold_cli_pass(wl.cold_cli_tasks(self.inp), trace_dir)

    def check_context(self, state) -> dict:
        from crosswidth.config import load_config

        boxes = {}

        def box(stem):
            if stem not in boxes:
                p = load_config(wl.config_path(stem)).problem
                boxes[stem] = (p.e0, p.L)
            return boxes[stem]

        ctx = {"box": box}
        if self.name == "semiclassics":
            ctx["closed_form"] = lambda stem, E, h: state[stem].closed_form_width_example(E, h)
        return ctx


# --- helpers -------------------------------------------------------------------------


def tail(xs):
    """The highest percentile with at least 10 samples beyond it.  Below 20
    samples no percentile above the median has 10 samples beyond it, so the
    tail is the median itself: a maximum of a few samples is too noisy to
    gate on."""
    s = sorted(xs)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return statistics.median(s), 50.0


def provenance(seed: int, passes: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    sha = "unavailable: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        sha = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") and \
            (ROOT / ".git" / ref[5:]).is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
        "seed": seed,
        "passes": passes,
        "setup_reps": SETUP_REPS,
    }


def load_reference(name: str, seed: int):
    """The stored seed-0 outputs, for any seed whose inputs are seed 0's
    (every seed of semiclassics), else None."""
    path = REFERENCE_DIR / f"seed0_{name}.json"
    if wl.inputs(name, seed) != wl.inputs(name, 0) or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def max_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# --- a run --------------------------------------------------------------------------------


class Run:
    def __init__(self, work: Workload, write_reference: bool):
        self.work = work
        self.write_reference = write_reference
        self.reference = None if write_reference else load_reference(work.name, work.seed)
        self.statuses = []   # (task name, status, problems, seconds)

    def check(self, outcomes, state):
        ctx = self.work.check_context(state)
        for o in outcomes:
            ref = None
            if self.reference is not None and o.task.known_defect is None:
                ref = self.reference.get(o.task.name)
                if ref is None:
                    self.statuses.append((o.task.name, "bad", ["no seed-0 reference"], o.seconds))
                    continue
            status, problems = checks.classify(o, ctx, ref)
            self.statuses.append((o.task.name, status, problems, o.seconds))
        if self.write_reference and self.work.seed == 0:
            REFERENCE_DIR.mkdir(exist_ok=True)
            ref = {o.task.name: o.output for o in outcomes if o.task.known_defect is None}
            (REFERENCE_DIR / f"seed0_{self.work.name}.json").write_text(
                json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            self.write_reference = False

    def setup(self, reps):
        """`reps` set-up samples: (import seconds, in-process seconds,
        state of the last)."""
        imports, prepares, state = [], [], None
        for _ in range(reps):
            imports.append(wl.import_seconds())
            sec, state = self.work.prepare()
            prepares.append(sec)
        return imports, prepares, state

    def task_seconds(self):
        """Task latencies, without the tasks that failed as known defects."""
        return [s[3] for s in self.statuses if s[1] != "known"]

    def counts(self):
        attempted = len(self.statuses)
        bad = sum(1 for s in self.statuses if s[1] == "bad")
        known = sum(1 for s in self.statuses if s[1] == "known")
        return attempted, bad, known


def end_to_end(run: Run, seconds: float):
    """Time spent in this process is reported at the reference speed:
    measured, times the run's speed factor (speed.py).  Time spent in child
    interpreters (cold_cli's tasks, the import in set-up) is reported as
    measured."""
    work = run.work
    speed = Speed() if work.name != "cold_cli" else None
    imports, prepares, state = run.setup(SETUP_REPS // 2)
    walls, elapsed = [], []
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if state is None:
            _, state = work.prepare()
        with speed.marking() if speed is not None else contextlib.nullcontext():
            outcomes = work.run_pass(state, speed=speed)
        walls.append(sum(o.seconds for o in outcomes))
        run.check(outcomes, state)
        state = None
        elapsed.append(time.perf_counter() - t_pass)
        if time.perf_counter() - t_begin + statistics.median(elapsed) > seconds:
            break
    # the other set-up samples come after the passes, so that the median
    # spans the run rather than its first seconds
    more = run.setup(SETUP_REPS - SETUP_REPS // 2)
    imports, prepares = imports + more[0], prepares + more[1]
    attempted, bad, known = run.counts()
    task_times = run.task_seconds()
    tail_value, tail_pct = tail(task_times)
    f = speed.factor() if speed is not None else 1.0
    setup_samples = [imp + f * sec for imp, sec in zip(imports, prepares)]
    metrics = {
        "wall_s": (f * statistics.median(walls), "s"),
        "task_p50_s": (f * statistics.median(task_times), "s"),
        "task_tail_s": (f * tail_value, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (max_rss_mb(children=work.name == "cold_cli"), "MB"),
        "fail_frac": ((bad + known) / attempted, "ratio"),
    }
    details = {
        "speed": speed.summary() if speed is not None else {"factor": 1.0},
        "wall_s": {"passes": len(walls), "measured": walls},
        "task_p50_s": {"n": len(task_times)},
        "task_tail_s": {"percentile": tail_pct, "n": len(task_times)},
        "setup_s": {"samples": setup_samples, "measured_imports": imports,
                    "measured_in_process": prepares},
        "peak_rss_mb": {"of": "children (max)" if work.name == "cold_cli" else "this process"},
        "fail_frac": {"failed": bad + known, "known_defects": known, "unexpected": bad,
                      "attempted": attempted},
    }
    return metrics, details, len(walls), True


def traced(run: Run, seconds: float):
    from tracer import Tracer, merge, write_spans

    work = run.work
    imports, _, state = run.setup(SETUP_REPS // 2)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{work.name}-seed{work.seed}.spans.jsonl"
    spans_path.unlink(missing_ok=True)

    t0 = time.perf_counter()
    plain = work.run_pass(state)
    wall_plain = time.perf_counter() - t0
    run.check(plain, state)
    state = None

    cpu0, child0 = time.process_time(), children_cpu()
    trace_dir = OUT_DIR / f"{work.name}-seed{work.seed}-children" if work.name == "cold_cli" else None
    if trace_dir is not None:
        trace_dir.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        outcomes = work.run_pass(None, trace_dir=trace_dir)
        wall_traced = time.perf_counter() - t0
        children = [json.loads((trace_dir / f"child-{i}.json").read_text(encoding="utf-8"))
                    for i in range(len(outcomes))]
        summary = merge([c["summary"] for c in children])
        restored = all(c["restored"] for c in children)
        for i, c in enumerate(children):
            write_spans(spans_path, c["spans"], prefix=f"c{i}-")
    else:
        tr = Tracer().install()
        try:
            tr.task = "setup"
            _, state = work.prepare()
            t0 = time.perf_counter()
            outcomes = work.run_pass(state, tracer=tr)
            wall_traced = time.perf_counter() - t0
        finally:
            saved = tr.restore()
        restored = Tracer.all_restored(saved)
        summary = merge([tr.summary()])
        write_spans(spans_path, tr.spans)
    cpu_s = time.process_time() - cpu0 + children_cpu() - child0
    run.check(outcomes, state)

    differs = [a.task.name for a, b in zip(plain, outcomes)
               if (a.task.name, a.output, a.rc) != (b.task.name, b.output, b.rc)]
    if len(plain) != len(outcomes):
        differs.append("task lists differ")
    attempted, bad, known = run.counts()

    stats, counts, maxima = summary["stats"], summary["counts"], summary["maxima"]
    metrics = {}
    for metric, span in SPAN_METRICS.items():
        calls, sec, self_s = stats.get(span, (0, 0.0, 0.0))
        metrics[f"{metric}.calls"] = (calls, "count")
        metrics[f"{metric}.s"] = (sec, "s")
        metrics[f"{metric}.self_s"] = (self_s, "s")
    bs_calls = stats.get(SPAN_METRICS["semiclassics.bohr_sommerfeld"], (0,))[0]
    refines = stats.get("oracle.refine_resonance", (0,))[0]
    named = {
        "cli.import_s": statistics.median(imports),
        "quadrature.cache_nodes": counts.get("quadrature.cache_nodes", 0),
        "quadrature.cache_err_max": maxima.get("quadrature.cache_err_max", 0.0),
        "semiclassics.bs_reuse": summary["bs_distinct"] / bs_calls if bs_calls else 0.0,
        "semiclassics.newton_iters": counts.get("semiclassics.newton_iters", 0),
        "semiclassics.newton_residual_max": maxima.get("semiclassics.newton_residual_max", 0.0),
        "oracle.W_per_refine": stats.get("oracle.MatchingProblem.W", (0,))[0] / refines if refines else 0.0,
        "oracle.ode_steps": counts.get("oracle.ode_steps", 0),
        "oracle.ode_rhs_evals": counts.get("oracle.ode_rhs_evals", 0),
        "oracle.residual_max": maxima.get("oracle.residual_max", 0.0),
        "process.cpu_s": cpu_s,
        "trace.overhead_s": wall_traced - wall_plain,
    }
    for k, unit in NAMED_METRICS.items():
        metrics[k] = (named[k], unit)
    details = {
        "wall_untraced_s": wall_plain,
        "wall_traced_s": wall_traced,
        "traced_output_differs": differs,
        "wrappers_restored": restored,
        "bs_distinct": summary["bs_distinct"],
        "dropped_spans": summary["dropped_spans"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "fail_frac": {"failed": bad + known, "known_defects": known, "unexpected": bad,
                      "attempted": attempted},
    }
    return metrics, details, 2, restored and not differs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crosswidth benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="with --seed 0: store this run's outputs as the reference")
    args = ap.parse_args(argv)

    missing = [p for p in (wl.SRC / "crosswidth" / "cli.py", wl.CONFIGS / "f1.cfg") if not p.is_file()]
    if missing:
        print(f"crosswidth sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    import crosswidth

    if Path(crosswidth.__file__).resolve().parent != (wl.SRC / "crosswidth").resolve():
        print(f"crosswidth imported from {crosswidth.__file__}, not from this checkout", file=sys.stderr)
        return 2
    # loaded before any pass: the import is set-up, which setup_s times in a
    # fresh interpreter, not part of the first pass's wall_s
    import crosswidth.cli  # noqa: F401

    run = Run(Workload(args.workload, args.seed), args.write_reference)
    measure = traced if args.trace else end_to_end
    metrics, details, passes, ok = measure(run, args.seconds)
    attempted, bad, known = run.counts()
    details.update({
        "workload": args.workload,
        "inputs": run.work.inp,
        "provenance": provenance(args.seed, passes),
        "tasks": [{"task": n, "status": st, "seconds": sec, **({"problems": pr} if pr else {})}
                  for n, st, pr, sec in run.statuses],
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": bool(ok and bad == 0),
        "attempted": attempted,
        "failed": bad,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
