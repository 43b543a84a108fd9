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

from . import oracle as oracle_mod
from .config import RunConfig
from .geometry import build_graph
from .model import Problem, StructureReport, validate_structure
from .semiclassics import SemiclassicsEngine, TopologyMismatch, energy_domain

__all__ = [
    "ValidationFailed",
    "build_engine",
    "width_dips",
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
    graph = build_graph(report, problem.e0, problem=problem, e_floor=e_floor)
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
    dvals = np.array([engine.width_coefficient(float(E), h, "one_switch").D for E in es])
    top = float(np.max(dvals))
    if top <= 0:
        return []
    dips = []
    for i in range(1, len(es) - 1):
        if dvals[i] <= dvals[i - 1] and dvals[i] <= dvals[i + 1] and dvals[i] < 0.02 * top:
            dips.append(float(es[i]))
    return dips


def tracked_seed(engine: SemiclassicsEngine, h: float, anchor: float) -> Optional[float]:
    """The quantization-grid point nearest a fixed anchor energy (the
    'fixed index' followed across the h sweep)."""
    seeds = engine.bohr_sommerfeld(h)
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
    """
    e0 = engine.p.e0
    sp0 = 2.0 * math.pi * max(h_list) / abs(engine._ap0)
    logh = np.log(np.asarray(h_list, dtype=float))
    logh = logh - logh.mean()
    dips_by_h = {h: width_dips(engine, h) for h in h_list}
    best_anchor, best_score = None, math.inf
    for anchor in np.linspace(e0 - sp0, e0 + sp0, _ANCHOR_GRID):
        seeds = []
        ok = True
        for h in h_list:
            s = tracked_seed(engine, h, float(anchor))
            if s is None:
                ok = False
                break
            quarter = 0.25 * 2.0 * math.pi * h / abs(engine._ap0)
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


def oracle_row(cfg: RunConfig, report: StructureReport, engine: SemiclassicsEngine,
               seed: float, h: float, include_green: bool = True) -> dict:
    """The oracle resonance refined from one Bohr-Sommerfeld seed.

    Returns the width coefficient ``D``, the predicted imaginary part
    ``im_pred`` that starts the refinement, the refined resonance ``res``
    and the Green-identity width ``im_green`` (None without include_green).
    """
    D = engine.width_coefficient(seed, h, "one_switch").D
    im_pred = -D * h ** ((engine.m0 + 3.0) / (engine.m0 + 1.0))
    contour = oracle_mod.default_contour(
        cfg.problem, report, h, theta=cfg.theta, R0=cfg.contour_R0, X=cfg.contour_X
    )
    ode_tol = cfg.oracle_ode_tol or cfg.problem.tolerances.ode_tol
    res = oracle_mod.refine_resonance(
        cfg.problem, complex(seed, im_pred), h, contour, engine.m0, ode_tol=ode_tol
    )
    im_green = None
    if include_green:
        im_green = oracle_mod.width_from_state(
            cfg.problem, res.E, h, contour, report.a0.x - 1.0, report.b0.x + 1.0, ode_tol=ode_tol
        )
    return {"D": D, "im_pred": im_pred, "res": res, "im_green": im_green}


def compare_sweep(
    cfg: RunConfig,
    h_list: Optional[Sequence[float]] = None,
    include_green: bool = True,
) -> dict:
    """Joined semiclassical/oracle table over the h sweep plus exponent fits."""
    hs = list(h_list if h_list is not None else (cfg.h_list or []))
    if not hs:
        raise ValueError("compare needs a non-empty h_list")
    report, graph, engine = build_engine(cfg.problem, calib=cfg.calib, h_max=max(hs))
    anchor = select_anchor(engine, hs)
    expo = (engine.m0 + 3.0) / (engine.m0 + 1.0)
    rows = []
    for h in hs:
        seed = tracked_seed(engine, h, anchor)
        if seed is None:
            raise ValueError(f"no Bohr-Sommerfeld seed near {anchor} for h = {h}")
        pseudo = {pr.seed: pr for pr in engine.pseudo_resonances(h)}.get(seed)
        row = oracle_row(cfg, report, engine, seed, h, include_green)
        res, im_pred = row["res"], row["im_pred"]
        rows.append(
            {
                "h": h,
                "seed": seed,
                "pseudo_re": pseudo.E.real if pseudo else math.nan,
                "pseudo_im": pseudo.E.imag if pseudo else math.nan,
                "D": row["D"],
                "im_pred": im_pred,
                "im_oracle": res.E.imag,
                "re_oracle": res.E.real,
                "residual": res.residual,
                "im_green": row["im_green"],
                "ratio": res.E.imag / im_pred if im_pred != 0 else math.nan,
            }
        )
    fit_oracle = oracle_mod.exponent_fit(hs, [r["im_oracle"] for r in rows]) if len(hs) >= 4 else None
    fit_pred = oracle_mod.exponent_fit(hs, [r["im_pred"] for r in rows]) if len(hs) >= 4 else None
    out = {
        "m0": engine.m0,
        "anchor": anchor,
        "exponent_expected": expo,
        "rows": rows,
        "ratio_drift": [abs(r["ratio"] - 1.0) for r in rows],
    }
    if fit_oracle:
        out["fit_oracle"] = dict(zip(("slope", "intercept", "r2"), fit_oracle))
        out["fit_pred"] = dict(zip(("slope", "intercept", "r2"), fit_pred))
    out["calib_ratio"] = rows[-1]["ratio"]
    return out
