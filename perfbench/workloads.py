"""Workload inputs, set-up and task runners for the crosswidth benchmark.

A workload is a list of tasks built from a seed.  A task is one CLI command
or one library query; a pass runs every task of the list once, in order, in
one process.  cold_cli starts one child interpreter per command, one at a
time.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

SHIPPED_SWEEP = (0.08, 0.06, 0.05, 0.04, 0.03)
H_RANGE = (0.03, 0.08)
SEMI_CONFIGS = ("f0", "f1_arc", "f2")
# acceptance criterion 7
STPHASE_ARGS = ("--m", "1", "--h-list", "1e-2,1e-3,1e-4,1e-5", "--phi", "x^2", "--sigma", "1")
CHILD_TIMEOUT_S = 120.0

# Known defects of the program, keyed by (kind, config, h): the CLI exit code
# and the diagnostic.  They count as failed tasks in fail_frac; the run stays
# correct while they fail exactly like this.
KNOWN_DEFECTS = {
    ("widths", "f2", 0.05): (3, "CountMismatch: argument principle counts 3 zeros, Newton found 2"),
    ("bs", "harmonic", 0.05): (2, "structure checks failed: window_settled"),
    ("analyze", "harmonic", None): (2, "structure validation failed"),
}


@dataclass(frozen=True)
class Task:
    name: str
    kind: str                   # compare|analyze|bs|widths|stphase|anchor|full
    config: str                 # config file stem
    h: Optional[float] = None
    argv: Tuple[str, ...] = ()  # CLI arguments; empty for a library query

    @property
    def known_defect(self) -> Optional[Tuple[int, str]]:
        return KNOWN_DEFECTS.get((self.kind, self.config, self.h))


@dataclass
class Outcome:
    task: Task
    seconds: float
    rc: Optional[int]   # exit code of a command; 0, or 1 on an exception, for a query
    output: str         # stdout of a command, canonical text of a query result
    error: str = ""     # "Type: message" of a query's exception


def config_path(stem: str) -> str:
    return str(CONFIGS / f"{stem}.cfg")


def fmt_h(h: float) -> str:
    return repr(float(h))


def draw_h_list(rng: random.Random, n: int) -> List[float]:
    """n strictly decreasing h, each log-uniform in H_RANGE, rounded to 4
    significant digits.  One h falls in each of n equal slices of the
    log-range, at offsets that are a shuffled, randomly shifted lattice
    (u + j/n mod 1): the points vary with the seed while the sweep's total
    cost, which grows like the sum of 1/h, varies little."""
    lo, hi = math.log(H_RANGE[0]), math.log(H_RANGE[1])
    width = (hi - lo) / n
    u = rng.random()
    offsets = [(u + j / n) % 1.0 for j in range(n)]
    rng.shuffle(offsets)
    hs = sorted({float(f"{math.exp(lo + width * (k + offsets[k])):.4g}") for k in range(n)},
                reverse=True)
    if len(hs) != n:
        raise RuntimeError("rounding merged two h values")
    return hs


def draw_h(rng: random.Random) -> float:
    lo, hi = math.log(H_RANGE[0]), math.log(H_RANGE[1])
    return float(f"{math.exp(lo + (hi - lo) * rng.random()):.4g}")


def inputs(workload: str, seed: int) -> dict:
    """Everything a workload feeds the program, as a function of the seed."""
    if workload == "compare":
        if seed == 0:
            return {"h_list": list(SHIPPED_SWEEP), "pass_h_list": False}
        return {"h_list": draw_h_list(random.Random(f"compare/{seed}"), 5), "pass_h_list": True}
    if workload == "semiclassics":
        # The seed does not move these: f1_arc and f2 fail the
        # argument-principle count at scattered h (README, known defects),
        # so a drawn sweep would make fail_frac depend on the seed.
        return {stem: list(SHIPPED_SWEEP) for stem in SEMI_CONFIGS}
    if workload == "cold_cli":
        return {"h": 0.05 if seed == 0 else draw_h(random.Random(f"cold_cli/{seed}"))}
    raise KeyError(workload)


def compare_tasks(inp: dict) -> List[Task]:
    """The compare command, then the harmonic known-defect command.  The
    latter fails structure validation in about 15 ms; it keeps compare's
    fail_frac at a known, nonzero base, so the metric is never 0."""
    argv = ["compare", config_path("f1")]
    if inp["pass_h_list"]:
        argv += ["--h-list", ",".join(fmt_h(h) for h in inp["h_list"])]
    return [Task("compare f1", "compare", "f1", None, tuple(argv)),
            Task("bs harmonic --h 0.05", "bs", "harmonic", 0.05,
                 ("bs", config_path("harmonic"), "--h", "0.05"))]


def cold_cli_tasks(inp: dict) -> List[Task]:
    """analyze plus one bs or widths command per shipped config, and
    criterion 7's stphase.  f2 and harmonic run the known-defect commands."""
    h = inp["h"]
    spec = []
    for stem, kind, hh in (
        ("f0", "widths", h), ("f0_decoupled", "bs", h), ("f1", "widths", h), ("f1_arc", "bs", h),
        ("f2", "widths", 0.05), ("harmonic", "bs", 0.05), ("single_transversal", "bs", h),
    ):
        spec += [("analyze", stem, None), (kind, stem, hh)]
    tasks = []
    for kind, stem, hh in spec:
        argv = (kind, config_path(stem)) + (("--h", fmt_h(hh)) if hh is not None else ())
        name = f"{kind} {stem}" + (f" --h {fmt_h(hh)}" if hh is not None else "")
        tasks.append(Task(name, kind, stem, hh, argv))
    tasks.append(Task("stphase f0 " + " ".join(STPHASE_ARGS), "stphase", "f0", None,
                      ("stphase", config_path("f0")) + STPHASE_ARGS))
    return tasks


# --- runners ---------------------------------------------------------------------


def _spent(speed) -> float:
    """Seconds spent so far in calibration marks (speed.py).  Marks
    interrupt in-process tasks; their time is not the task's."""
    return 0.0 if speed is None else speed.spent


def run_cli_inprocess(task: Task, speed=None) -> Outcome:
    from crosswidth import cli

    out, err = io.StringIO(), io.StringIO()
    spent0, t0 = _spent(speed), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(task.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - t0 - (_spent(speed) - spent0)
    return Outcome(task, seconds, rc, out.getvalue())


def run_query(task: Task, fn: Callable[[], str], speed=None) -> Outcome:
    err = io.StringIO()
    spent0, t0 = _spent(speed), time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            text, rc, error = fn(), 0, ""
        except Exception as exc:  # a failed query is a failed task, reported below
            text, rc, error = "", 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0 - (_spent(speed) - spent0)
    return Outcome(task, seconds, rc, text, error)


def run_child(argv: List[str], timeout: float = CHILD_TIMEOUT_S) -> Tuple[float, int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def run_cli_child(task: Task, trace_file: Optional[Path] = None) -> Outcome:
    if trace_file is None:
        argv = [sys.executable, "-m", "crosswidth.cli", *task.argv]
    else:
        argv = [sys.executable, str(HERE / "trace_child.py"), str(trace_file), *task.argv]
    seconds, rc, out = run_child(argv)
    return Outcome(task, seconds, rc, out)


def import_seconds() -> float:
    """Wall time of a fresh interpreter running ``import crosswidth.cli``."""
    seconds, rc, _ = run_child([sys.executable, "-c", "import crosswidth.cli"])
    if rc != 0:
        raise RuntimeError("a fresh interpreter cannot import crosswidth.cli")
    return seconds


# --- in-process set-up ---------------------------------------------------------------


def prepare_engines(sweeps: dict) -> Tuple[float, dict]:
    """Config load, build_engine and one cache-filling call per engine; the
    set-up the in-process workloads pay before their first task."""
    from crosswidth.config import load_config
    from crosswidth.pipeline import build_engine

    t0 = time.perf_counter()
    engines = {}
    for stem, hs in sweeps.items():
        cfg = load_config(config_path(stem))
        _, _, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=max(hs))
        engine.bohr_sommerfeld(max(hs))
        engines[stem] = engine
    return time.perf_counter() - t0, engines


# --- canonical text of library results -------------------------------------------------


def floats_text(values) -> str:
    return "\n".join(repr(float(v)) for v in values)


def table_text(rows) -> str:
    keys = ("seed", "pseudo_re", "pseudo_im", "D", "im_pred")
    return "\n".join(",".join(repr(float(r[k])) for k in keys) for r in rows)


# --- passes ----------------------------------------------------------------------


# An in-process pass takes an optional tracer, whose task it names, and an
# optional speed.Speed, whose marks it leaves out of the task times.


def run_inprocess_cli_pass(tasks: List[Task], tracer=None, speed=None) -> List[Outcome]:
    outcomes = []
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        outcomes.append(run_cli_inprocess(task, speed))
    return outcomes


def run_semiclassics_pass(engines: dict, sweeps: dict, tracer=None, speed=None) -> List[Outcome]:
    """Per engine: select_anchor over its sweep, then per h the bs grid,
    the widths table and the "full" resolvent width at each grid seed."""
    from crosswidth.pipeline import select_anchor

    outcomes = []

    def query(task, fn):
        if tracer is not None:
            tracer.task = task.name
        outcomes.append(run_query(task, fn, speed))
        return outcomes[-1]

    for stem, hs in sweeps.items():
        eng = engines[stem]
        query(Task(f"anchor {stem}", "anchor", stem),
              lambda: floats_text([select_anchor(eng, hs)]))
        for h in hs:
            bs = query(Task(f"bs {stem} --h {fmt_h(h)}", "bs", stem, h),
                       lambda: floats_text(eng.bohr_sommerfeld(h)))
            query(Task(f"widths {stem} --h {fmt_h(h)}", "widths", stem, h),
                  lambda: table_text(eng.resonance_table(h)))
            seeds = [float(s) for s in bs.output.split()] if bs.rc == 0 else []
            for s in seeds:
                query(Task(f"full {stem} --h {fmt_h(h)} E={s!r}", "full", stem, h),
                      lambda: floats_text([eng.width_coefficient(s, h, "full").D]))
    return outcomes


def run_cold_cli_pass(tasks: List[Task], trace_dir: Optional[Path] = None) -> List[Outcome]:
    outcomes = []
    for i, task in enumerate(tasks):
        trace_file = None if trace_dir is None else trace_dir / f"child-{i}.json"
        outcomes.append(run_cli_child(task, trace_file))
    return outcomes
