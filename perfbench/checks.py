"""Output checks.  Every check holds for any seed; a run whose inputs are
seed 0's also compares against the stored reference.  A task's status is

* ``ok``: it ran and its output passed every check;
* ``known``: it failed exactly as a listed known defect (counts in fail_frac);
* ``bad``: anything else (counts in fail_frac and makes the run incorrect).
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List, Optional, Tuple

from workloads import SHIPPED_SWEEP, Outcome, Task

ORACLE_REL_TOL = 1e-8
RATIO_TOL = 0.25        # |ratio - 1| for h <= 0.05
RATIO_H_MAX = 0.05
GREEN_TOL = 0.10        # |im_green / im_oracle - 1|
SLOPE_TOL = 0.10        # |fitted oracle slope - (m0+3)/(m0+1)|
CLOSED_FORM_TOL = 1e-10

SEMICLASSICAL_COLS = ("h", "seed", "pseudo_re", "pseudo_im", "D", "im_pred")
ORACLE_COLS = ("re_oracle", "im_oracle", "im_green", "ratio")


def _finite(*xs) -> bool:
    return all(isinstance(x, float) and math.isfinite(x) for x in xs)


def _num(s: str) -> float:
    return math.nan if s == "null" else float(s)


def _diagnostics(outcome: Outcome) -> str:
    if not outcome.task.argv:
        return outcome.error
    try:
        return str(json.loads(outcome.output).get("diagnostics", ""))
    except (ValueError, AttributeError):
        return outcome.output.strip()[-200:]


# --- parsers ---------------------------------------------------------------------------


def parse_compare(text: str) -> Tuple[List[Dict[str, str]], dict]:
    lines = text.rstrip("\n").split("\n")
    cols = lines[0].split(",")
    rows, summary = [], None
    for line in lines[1:]:
        if line.startswith("# summary: "):
            summary = json.loads(line[len("# summary: "):])
        else:
            rows.append(dict(zip(cols, line.split(","))))
    if summary is None:
        raise ValueError("no summary line")
    return rows, summary


def _csv(text: str) -> Tuple[List[str], List[List[float]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [[_num(v) for v in line.split(",")] for line in lines[1:]]


# --- per-kind checks ---------------------------------------------------------------------


def check_compare(task: Task, text: str, ctx: dict) -> List[str]:
    rows, summary = parse_compare(text)
    hs = ([float(v) for v in task.argv[task.argv.index("--h-list") + 1].split(",")]
          if "--h-list" in task.argv else list(SHIPPED_SWEEP))
    problems = []
    if [float(r["h"]) for r in rows] != hs:
        problems.append(f"rows for h {[r['h'] for r in rows]}, expected {hs}")
    for r in rows:
        h, ratio, im_o, im_g = (_num(r[k]) for k in ("h", "ratio", "im_oracle", "im_green"))
        if not _finite(_num(r["re_oracle"]), im_o, im_g, ratio):
            problems.append(f"h={r['h']}: non-finite oracle value")
            continue
        if h <= RATIO_H_MAX and abs(ratio - 1.0) > RATIO_TOL:
            problems.append(f"h={r['h']}: |ratio - 1| = {abs(ratio - 1):.3g} > {RATIO_TOL}")
        if abs(im_g / im_o - 1.0) > GREEN_TOL:
            problems.append(f"h={r['h']}: |im_green/im_oracle - 1| = {abs(im_g / im_o - 1):.3g} > {GREEN_TOL}")
    slope = summary.get("fit_oracle", {}).get("slope")
    m0 = summary.get("m0")
    if slope is None or m0 is None:
        problems.append("summary lacks fit_oracle slope or m0")
    elif abs(slope - (m0 + 3.0) / (m0 + 1.0)) > SLOPE_TOL:
        problems.append(f"oracle slope {slope:.4f} not within {SLOPE_TOL} of {(m0 + 3) / (m0 + 1):.4f}")
    return problems


def check_analyze(task: Task, text: str, ctx: dict) -> List[str]:
    payload = json.loads(text)
    problems = []
    if payload.get("report", {}).get("passed") is not True:
        problems.append("structure report did not pass")
    graph = payload.get("graph") or {}
    if not graph.get("edges") or not graph.get("vertices"):
        problems.append("graph has no edges or vertices")
    return problems


def _check_grid(task: Task, es: List[float], ctx: dict) -> List[str]:
    if not es or not _finite(*es):
        return ["empty or non-finite Bohr-Sommerfeld grid"]
    if any(b <= a for a, b in zip(es, es[1:])):
        return ["grid not strictly increasing"]
    e0, L = ctx["box"](task.config)
    lo, hi = e0 - L * task.h, e0 + L * task.h
    if es[0] < lo or es[-1] > hi:
        return [f"grid leaves the box [{lo}, {hi}]"]
    return []


def check_bs(task: Task, text: str, ctx: dict) -> List[str]:
    if task.argv:
        cols, rows = _csv(text)
        if cols != ["index", "E"] or [int(r[0]) for r in rows] != list(range(len(rows))):
            return ["bs CSV has the wrong columns or indices"]
        es = [r[1] for r in rows]
    else:
        es = [float(v) for v in text.split()]
    return _check_grid(task, es, ctx)


def _check_width_rows(rows: List[Tuple[float, ...]]) -> List[str]:
    if not rows:
        return ["no width records"]
    problems = []
    for seed, _, _, D, im_pred in rows:
        if not _finite(seed, D, im_pred) or D < 0 or im_pred > 0:
            problems.append(f"seed {seed!r}: bad D = {D!r} or im_pred = {im_pred!r}")
    return problems


def check_widths(task: Task, text: str, ctx: dict) -> List[str]:
    if task.argv:
        payload = json.loads(text)
        if payload.get("h") != task.h:
            return [f"h = {payload.get('h')!r}, expected {task.h!r}"]
        rows = [tuple(float(r[k]) if r[k] is not None else math.nan
                      for k in ("seed", "pseudo_re", "pseudo_im", "D", "im_pred"))
                for r in payload["records"]]
        return _check_width_rows(rows)
    rows = [tuple(float(v) for v in line.split(",")) for line in text.split("\n") if line]
    problems = _check_width_rows(rows)
    closed_form = ctx.get("closed_form")
    if task.config == "f1_arc" and closed_form is not None and not problems:
        dmax = max(r[3] for r in rows)
        for seed, _, _, D, _ in rows:
            cf = closed_form(task.config, seed, task.h)
            if max(D, cf) <= 1e-14 * dmax:
                continue  # interference zero: both vanish to roundoff
            if abs(D - cf) > CLOSED_FORM_TOL * max(D, cf):
                problems.append(f"seed {seed!r}: one-switch D {D!r} != closed form {cf!r}")
    return problems


def check_stphase(task: Task, text: str, ctx: dict) -> List[str]:
    cols, rows = _csv(text)
    if len(rows) != 4:
        return [f"{len(rows)} stphase rows, expected 4"]
    scaled = []
    for h, nre, nim, are, aim, _ in rows:
        scaled.append(abs(complex(nre, nim) - complex(are, aim)) / math.sqrt(h))
    problems = [f"error decays by {a / b:.3g} < 2 per decade" for a, b in zip(scaled, scaled[1:]) if a / b < 2.0]
    if abs(rows[-1][5] - 1.0) > 0.01:
        problems.append(f"ratio {rows[-1][5]!r} at the smallest h is not within 1% of 1")
    return problems


def check_anchor(task: Task, text: str, ctx: dict) -> List[str]:
    return [] if _finite(float(text)) else ["non-finite anchor"]


def check_full(task: Task, text: str, ctx: dict) -> List[str]:
    D = float(text)
    return [] if _finite(D) and D >= 0 else [f"bad full-resolvent D = {D!r}"]


CHECKS: Dict[str, Callable[[Task, str, dict], List[str]]] = {
    "compare": check_compare, "analyze": check_analyze, "bs": check_bs, "widths": check_widths,
    "stphase": check_stphase, "anchor": check_anchor, "full": check_full,
}


# --- reference ---------------------------------------------------------------------------


def _rel_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ORACLE_REL_TOL * max(abs(a), abs(b))


def _flat(v) -> List[float]:
    if isinstance(v, dict):
        return [float(v[k]) for k in sorted(v)]
    if isinstance(v, list):
        return [float(x) for x in v]
    return [] if v is None else [float(v)]


def compare_to_reference(task: Task, text: str, ref: str) -> List[str]:
    """Semiclassical outputs byte-identical; oracle values to 1e-8 relative."""
    if task.kind != "compare":
        return [] if text == ref else ["output differs from the seed-0 reference"]
    rows, summary = parse_compare(text)
    ref_rows, ref_summary = parse_compare(ref)
    if len(rows) != len(ref_rows):
        return ["row count differs from the reference"]
    problems = []
    for r, q in zip(rows, ref_rows):
        if any(r[c] != q[c] for c in SEMICLASSICAL_COLS):
            problems.append(f"h={r['h']}: semiclassical columns differ from the reference")
        if not all(_rel_close(_num(r[c]), _num(q[c])) for c in ORACLE_COLS):
            problems.append(f"h={r['h']}: oracle columns differ from the reference beyond 1e-8")
    for key in ("m0", "anchor", "exponent_expected", "fit_pred"):
        if summary.get(key) != ref_summary.get(key):
            problems.append(f"summary {key} differs from the reference")
    for key in ("fit_oracle", "ratio_drift", "calib_ratio"):
        a, b = _flat(summary.get(key)), _flat(ref_summary.get(key))
        if len(a) != len(b) or not all(_rel_close(x, y) for x, y in zip(a, b)):
            problems.append(f"summary {key} differs from the reference beyond 1e-8")
    return problems


# --- status ----------------------------------------------------------------------------


def classify(outcome: Outcome, ctx: dict, ref: Optional[str] = None) -> Tuple[str, List[str]]:
    task = outcome.task
    known = task.known_defect
    if outcome.rc != 0:
        diag = _diagnostics(outcome)
        if known is not None and diag == known[1] and outcome.rc == (known[0] if task.argv else 1):
            return "known", []
        return "bad", [f"exit {outcome.rc}: {diag}"]
    try:
        problems = CHECKS[task.kind](task, outcome.output, ctx)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        problems = [f"unparseable output: {type(exc).__name__}: {exc}"]
    if ref is not None and known is None:
        problems += compare_to_reference(task, outcome.output, ref)
    return ("bad" if problems else "ok"), problems
