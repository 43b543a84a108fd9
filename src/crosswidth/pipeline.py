"""Sweep orchestration: engines, tracked seeds, oracle joins and fits.

The compare pipeline follows one Bohr-Sommerfeld index across the h sweep
(the index is an offset from the grid point nearest the reference energy,
chosen so the tracked energies stay at least a quarter grid spacing away
from the width-coefficient dips at every h), refines the oracle resonance
from each tracked seed, and fits the width exponent.
"""

from __future__ import annotations

import math
import warnings
from typing import List, Optional, Sequence

import numpy as np

from .config import ConfigError, RunConfig
from .geometry import build_graph
from .model import Problem, StructureReport, validate_structure
from .semiclassics import SemiclassicsEngine, TopologyMismatch, energy_domain

__all__ = [
    "ValidationFailed",
    "build_engine",
    "width_dips",
    "box_levels",
    "tracked_seed",
    "select_anchor",
    "oracle_row",
    "compare_sweep",
]

# candidate anchors tried by select_anchor
_ANCHOR_GRID = 192


class ValidationFailed(Exception):
    def __init__(self, report: StructureReport):
        self.report = report
        bad = [name for name, (ok, _) in report.assumption_flags.items() if not ok]
        super().__init__(f"structure checks failed: {', '.join(bad)}")


def build_engine(problem: Problem, calib: float = 1.0, h_max: float = 0.1):
    report = validate_structure(problem)
    if not report.passed:
        raise ValidationFailed(report)
    domain_lo = energy_domain(problem, report, h_max)[0]
    # base cuts must sit clearly below the domain floor, or the cached
    # segment actions develop a near-edge singularity in energy
    level_max = max(problem.e0 - c.xi * c.xi for c in report.crossings)
    e_floor = level_max + 0.7 * (domain_lo - level_max)
    graph = build_graph(report, problem, e_floor)
    engine = SemiclassicsEngine(problem, report, graph, calib=calib, h_max=h_max)
    return report, graph, engine


def width_dips(engine: SemiclassicsEngine, h: float) -> List[float]:
    """Energies in the box where the one-switch width coefficient (nearly)
    vanishes.  Uses the closed-form condition on the single-pair topology
    and a grid scan of D(E) otherwise."""
    try:
        return engine.vanishing_energies(h)
    except TopologyMismatch:
        pass
    lo, hi = engine.box(h)
    es = np.linspace(lo, hi, 801)
    return _dips(es, engine.width_coefficient(es, h, "one_switch").D)


def _dips(es: np.ndarray, dvals: np.ndarray) -> List[float]:
    """The interior scan points where D has a local minimum (ties count)
    below 2% of its largest value."""
    top = float(np.max(dvals))
    if top <= 0:
        return []
    mid = dvals[1:-1]
    dip = (mid <= dvals[:-2]) & (mid <= dvals[2:]) & (mid < 0.02 * top)
    return es[1:-1][dip].tolist()


def box_levels(engine: SemiclassicsEngine, h: float) -> List[float]:
    """The Bohr-Sommerfeld grid at h, for the commands that need a level:
    a box e0 +/- L*h too small to hold one is bad input."""
    levels = engine.bohr_sommerfeld(h)
    if not levels:
        raise ConfigError(f"no Bohr-Sommerfeld level in the box e0 +/- L*h at h = {h!r} with "
                          f"L = {engine.p.L!r}; raise L")
    return levels


def tracked_seed(seeds: Sequence[float], anchor: float) -> Optional[float]:
    """The quantization-grid point nearest a fixed anchor energy (the
    'fixed index' followed across the h sweep)."""
    if not seeds:
        return None
    return min(seeds, key=lambda s: abs(s - anchor))


def select_anchor(engine: SemiclassicsEngine, h_list: Sequence[float]) -> float:
    """Anchor energy for seed tracking.

    Each h has its own quantization grid, so the tracked energies wander
    around any anchor by up to half a spacing; since the width coefficient
    varies with energy, a wander that trends with h biases the fitted
    exponent.  The anchor is chosen so the tracked energies decorrelate
    from log h (and keep a quarter spacing away from the width dips).
    When no candidate keeps clear of the dips, it warns and returns e0,
    which is never a candidate (the grid has an even number of points,
    symmetric about e0).
    """
    e0 = engine.p.e0
    sp0 = engine.level_spacing(max(h_list))
    logh = np.log(np.asarray(h_list, dtype=float))
    logh = logh - logh.mean()
    grids = {h: box_levels(engine, h) for h in h_list}
    dips_by_h = {h: width_dips(engine, h) for h in h_list}
    best_anchor, best_score = None, math.inf
    for anchor in np.linspace(e0 - sp0, e0 + sp0, _ANCHOR_GRID):
        seeds = []
        ok = True
        for h in h_list:
            s = tracked_seed(grids[h], float(anchor))
            quarter = 0.25 * engine.level_spacing(h)
            dips = dips_by_h[h]
            if dips and min(abs(s - d) for d in dips) < quarter:
                ok = False
                break
            seeds.append(s)
        if not ok:
            continue
        es = np.asarray(seeds)
        trend = abs(float(np.dot(es - es.mean(), logh)) / float(np.dot(logh, logh)))
        if trend < best_score:
            best_anchor, best_score = float(anchor), trend
    if best_anchor is None:
        warnings.warn("no anchor clears the width dips; tracking from e0")
        return e0
    return best_anchor


def oracle_row(cfg: RunConfig, report: StructureReport, m0: int, start: complex, h: float) -> dict:
    """The oracle resonance refined from ``start``, the seed and its
    predicted imaginary part.

    Returns the refined resonance ``res`` and, as its cross-check, the
    Green-identity width ``im_green``, taken on the matching problem that
    refined the root.
    """
    from . import oracle as oracle_mod  # loaded by the commands that run it

    contour = oracle_mod.default_contour(cfg.problem, report, h)
    mp = oracle_mod.MatchingProblem(cfg.problem, h, contour)
    res = oracle_mod.refine_resonance(mp, start, m0)
    im_green = oracle_mod.width_from_state(mp, res.E, report.a0.x - 1.0, report.b0.x + 1.0)
    return {"res": res, "im_green": im_green}


def compare_sweep(cfg: RunConfig, h_list: Optional[Sequence[float]] = None) -> dict:
    """Joined semiclassical/oracle table over the h sweep plus exponent fits."""
    from . import oracle as oracle_mod
    hs = list(h_list if h_list is not None else (cfg.h_list or []))
    if len(hs) < 2:
        # select_anchor decorrelates the tracked energies from log h
        raise ConfigError(f"compare needs at least two values of h (h_list or --h-list), got {len(hs)}")
    report, graph, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=max(hs))
    anchor = select_anchor(engine, hs)
    rows = []
    for h in hs:
        table = {entry["seed"]: entry for entry in engine.resonance_table(h)}
        seed = tracked_seed(list(table), anchor)
        entry = table[seed]
        im_pred = entry["im_pred"]
        row = oracle_row(cfg, report, engine.m0, complex(seed, im_pred), h)
        res = row["res"]
        rows.append(
            {
                "h": h,
                "seed": seed,
                "pseudo_re": entry["pseudo_re"],
                "pseudo_im": entry["pseudo_im"],
                "D": entry["D"],
                "im_pred": im_pred,
                "im_oracle": res.E.imag,
                "re_oracle": res.E.real,
                "residual": res.residual,
                "im_green": row["im_green"],
                "ratio": res.E.imag / im_pred if im_pred != 0 else math.nan,
            }
        )
    out = {
        "m0": engine.m0,
        "anchor": anchor,
        "exponent_expected": engine.width_exponent,
        "rows": rows,
        "ratio_drift": [abs(r["ratio"] - 1.0) for r in rows],
    }
    if anchor == engine.p.e0:
        out["anchor_fallback"] = "no anchor clears the width dips; tracking from e0"
    # no exponent to fit without four h, nor where a predicted width is 0
    # (an uncoupled problem, whose oracle widths are roundoff)
    if len(hs) >= 4 and all(r["im_pred"] != 0 for r in rows):
        for name, key in (("fit_oracle", "im_oracle"), ("fit_pred", "im_pred")):
            fit = oracle_mod.exponent_fit(hs, [r[key] for r in rows])
            out[name] = dict(zip(("slope", "intercept", "r2"), fit))
    out["calib_ratio"] = rows[-1]["ratio"]
    return out
