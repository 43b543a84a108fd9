"""Problem definition and structural validation.

Holds the two potentials, the coupling coefficients and the reference
energy, checks the geometric hypotheses the width asymptotics rely on
(simple well in channel 1, non-trapping channel 2, crossings away from
turning points), and locates turning points and crossing points together
with their contact orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import brentq

from . import exprs
from .exprs import ExprAst

__all__ = [
    "ToleranceSet",
    "Problem",
    "TurningPoint",
    "CrossingPoint",
    "TailInfo",
    "StructureReport",
    "StructureError",
    "DegenerateTurningPoint",
    "CrossingAtTurningPoint",
    "ContactOrderOverflow",
    "NoCrossing",
    "MissedBracket",
    "turning_points",
    "crossing_points",
    "validate_structure",
]


class StructureError(Exception):
    """A geometric hypothesis failed numerically."""


class DegenerateTurningPoint(StructureError):
    pass


class CrossingAtTurningPoint(StructureError):
    pass


class ContactOrderOverflow(StructureError):
    pass


class NoCrossing(StructureError):
    pass


class MissedBracket(UserWarning):
    """Grid-level sign pattern was inconsistent on refinement."""


@dataclass(frozen=True)
class ToleranceSet:
    root_tol: float = 1e-12
    contact_tol: float = 1e-9
    newton_tol: float = 1e-12
    quad_tol: float = 1e-11
    ode_tol: float = 1e-12
    scan_points: int = 4096

    def __post_init__(self):
        for name in ("root_tol", "contact_tol", "newton_tol", "quad_tol", "ode_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.scan_points <= 0:
            raise ValueError("scan_points must be positive")


@dataclass
class Problem:
    """Full model: channel potentials V1, V2, coupling coefficients r0, r1
    (the coupling symbol is r0(x) + i r1(x) xi), reference energy e0,
    computational window standing in for the real line, and the box
    half-width parameter L (the resonance box is e0 +/- L*h +/- i L*h).
    """

    v1: ExprAst
    v2: ExprAst
    r0: ExprAst
    r1: ExprAst
    e0: float
    window: Tuple[float, float]
    L: float
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)
    k_max: int = 12

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ValueError("window must satisfy x_min < x_max")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if not math.isfinite(self.e0):
            raise ValueError("e0 must be finite")

    # compiled evaluators, built once on first use
    @cached_property
    def v1_np(self):
        return exprs.compile_fn(self.v1)

    @cached_property
    def v2_np(self):
        return exprs.compile_fn(self.v2)

    @cached_property
    def v1p_np(self):
        return exprs.compile_fn(exprs.differentiate(self.v1))

    @cached_property
    def v2p_np(self):
        return exprs.compile_fn(exprs.differentiate(self.v2))

    @cached_property
    def coeffs_np(self):
        """(v1, v2, r0, r1, r1') as numpy callables for contour work; they take
        complex arrays, and a constant coefficient comes back as a scalar."""
        r = (exprs.compile_fn(e) for e in (self.r0, self.r1, exprs.differentiate(self.r1)))
        return (self.v1_np, self.v2_np, *r)

    def v_np(self, channel: int):
        return self.v1_np if channel == 1 else self.v2_np

    def vp_np(self, channel: int):
        return self.v1p_np if channel == 1 else self.v2p_np


@dataclass(frozen=True)
class TurningPoint:
    x: float
    which: int  # channel, 1 or 2
    side: str  # "left" if the classically allowed region lies to the right


@dataclass(frozen=True)
class CrossingPoint:
    """A crossing of the two characteristic curves, stored for xi > 0.

    The mirror point at -xi is implied.  ``m`` is the contact order (first
    derivative order at which the potentials differ), ``dv`` the signed
    difference V2^(m) - V1^(m) there, and ``u_plus``/``u_minus`` the coupling
    symbol evaluated at (x, +xi)/(x, -xi).
    """

    x: float
    xi: float
    m: int
    dv: float
    u_plus: complex
    u_minus: complex

    def u(self, sign: int) -> complex:
        return self.u_plus if sign > 0 else self.u_minus


@dataclass(frozen=True)
class TailInfo:
    direction: int  # +1 for the +infinity end, -1 for the -infinity end
    xi_sign: int
    kind: str  # "incoming" or "outgoing"


@dataclass
class StructureReport:
    a0: TurningPoint
    b0: TurningPoint
    v2_turning: List[TurningPoint]
    crossings: List[CrossingPoint]
    m0: int
    tails: List[TailInfo]
    assumption_flags: dict
    window: Tuple[float, float]
    e0: float

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.assumption_flags.values())


def _grid(window: Tuple[float, float], n: int) -> np.ndarray:
    return np.linspace(window[0], window[1], n + 1)


def _refine_root(fn, lo: float, hi: float, tol: float) -> float:
    try:
        return brentq(fn, lo, hi, xtol=tol, rtol=8.9e-16)
    except ValueError as exc:
        warnings.warn(MissedBracket(f"bracket [{lo}, {hi}] lost its sign change: {exc}"))
        raise


def turning_points(
    V: ExprAst,
    E: float,
    window: Tuple[float, float],
    tols: Optional[ToleranceSet] = None,
    channel: int = 1,
) -> List[TurningPoint]:
    """All simple roots of V(x) = E in the window, sorted and refined.

    Raises DegenerateTurningPoint when `|V'|` at a root falls below the
    contact tolerance (the root is not simple).
    """
    tols = tols or ToleranceSet()
    vfn = exprs.compile_fn(V)
    vpfn = exprs.compile_fn(exprs.differentiate(V))
    xs = _grid(window, tols.scan_points)
    vals = np.asarray(vfn(xs), dtype=float) - E
    roots: List[float] = []
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(xs[i])
            continue
        if a * b < 0.0:
            roots.append(_refine_root(lambda x: float(vfn(x)) - E, xs[i], xs[i + 1], tols.root_tol))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    out = []
    for r in roots:
        slope = float(vpfn(r))
        if abs(slope) <= tols.contact_tol:
            raise DegenerateTurningPoint(f"V' = {slope:.3e} at root x = {r:.12g}")
        out.append(TurningPoint(x=r, which=channel, side="left" if slope < 0 else "right"))
    out.sort(key=lambda t: t.x)
    return out


def _well_walls(p: Problem) -> Tuple[TurningPoint, TurningPoint]:
    tps = turning_points(p.v1, p.e0, p.window, p.tolerances, channel=1)
    if len(tps) != 2:
        raise NoCrossing(
            f"V1 = e0 has {len(tps)} roots in the window; a simple well needs exactly 2"
        )
    return tps[0], tps[1]


def _contact_order(p: Problem, x0: float, tols: ToleranceSet,
                   cluster_radius: float = 1e-3):
    """Contact order and refined position of a crossing near x0.

    The jets give the local difference polynomial (V2 - V1)(x0 + u) exactly;
    the multiplicity is the number of its roots clustered at the origin and
    the cluster centroid relocates the crossing far more accurately than a
    bisection on the (possibly flat) difference itself can.
    """
    x_c = x0
    for _ in range(2):
        j1 = exprs.taylor_jet(p.v1, x_c, p.k_max)
        j2 = exprs.taylor_jet(p.v2, x_c, p.k_max)
        d = [c2 - c1 for c1, c2 in zip(j1.coeffs, j2.coeffs)]
        if all(abs(d[k]) <= tols.contact_tol * max(1.0, abs(j1.coeffs[k]), abs(j2.coeffs[k]))
               for k in range(1, p.k_max + 1)):
            raise ContactOrderOverflow(
                f"V1 and V2 agree to order {p.k_max} at x = {x_c:.12g}"
            )
        roots = np.roots(d[::-1])
        cluster = roots[np.abs(roots) < cluster_radius]
        if cluster.size == 0:
            raise NoCrossing(f"candidate at x = {x_c:.12g} is not a root of V1 - V2")
        shift = float(np.mean(cluster.real))
        x_c += shift
        if abs(shift) < 1e-14 * max(1.0, abs(x_c)):
            break
    j1 = exprs.taylor_jet(p.v1, x_c, p.k_max)
    j2 = exprs.taylor_jet(p.v2, x_c, p.k_max)
    d = [c2 - c1 for c1, c2 in zip(j1.coeffs, j2.coeffs)]
    roots = np.roots(d[::-1])
    m = int(np.sum(np.abs(roots) < cluster_radius))
    if m < 1 or m > p.k_max:
        raise ContactOrderOverflow(f"contact order {m} out of range at x = {x_c:.12g}")
    return x_c, m, d


def crossing_points(p: Problem) -> List[CrossingPoint]:
    """Roots of V1 - V2 inside the well where V1 < e0, with contact orders.

    Transversal roots come from sign changes of V1 - V2 on the scan grid;
    tangential roots (even order) from interior minima of |V1 - V2| that
    refine to below the root tolerance.
    """
    tols = p.tolerances
    a0, b0 = _well_walls(p)
    # the scan stays a hair inside the well: a root exactly at a wall is a
    # turning-point crossing, which is not part of the crossing set at the
    # reference energy (roots merely close to a wall still get flagged by
    # the level check below)
    pad = 10.0 * tols.root_tol
    xs = _grid((a0.x + pad, b0.x - pad), tols.scan_points)
    g = np.asarray(p.v1_np(xs), dtype=float) - np.asarray(p.v2_np(xs), dtype=float)
    gscale = float(np.max(np.abs(g))) or 1.0

    def gfn(x):
        return float(p.v1_np(x)) - float(p.v2_np(x))

    def gpfn(x):
        return float(p.v1p_np(x)) - float(p.v2p_np(x))

    roots: List[float] = []
    # sign changes
    for i in range(len(xs) - 1):
        if g[i] == 0.0:
            roots.append(xs[i])
        elif g[i] * g[i + 1] < 0.0:
            roots.append(_refine_root(gfn, xs[i], xs[i + 1], tols.root_tol))
    if g[-1] == 0.0:
        roots.append(xs[-1])
    # interior minima of |g| dipping to zero (tangential crossings)
    absg = np.abs(g)
    for i in range(1, len(xs) - 1):
        if absg[i] < absg[i - 1] and absg[i] <= absg[i + 1] and g[i - 1] * g[i] > 0 and g[i] * g[i + 1] > 0:
            if gpfn(xs[i - 1]) * gpfn(xs[i + 1]) < 0:
                x_star = _refine_root(gpfn, xs[i - 1], xs[i + 1], tols.root_tol)
                if abs(gfn(x_star)) <= tols.root_tol * max(1.0, gscale):
                    roots.append(x_star)
    roots.sort()
    merged: List[float] = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 50 * tols.root_tol:
            merged.append(r)

    out: List[CrossingPoint] = []
    for x_c in merged:
        x_c, m, d = _contact_order(p, x_c, tols)
        level = float(p.v1_np(x_c))
        if level >= p.e0 - tols.contact_tol:
            raise CrossingAtTurningPoint(
                f"crossing at x = {x_c:.12g} has V1 = {level:.12g} >= e0 - contact_tol"
            )
        xi = math.sqrt(p.e0 - level)
        dv = d[m] * math.factorial(m)
        r0v = exprs.evaluate(p.r0, x_c).real
        r1v = exprs.evaluate(p.r1, x_c).real
        out.append(
            CrossingPoint(
                x=x_c,
                xi=xi,
                m=m,
                dv=dv,
                u_plus=complex(r0v, r1v * xi),
                u_minus=complex(r0v, -r1v * xi),
            )
        )
    if not out:
        raise NoCrossing("V1 = V2 has no root below e0 inside the well")
    return out


def validate_structure(p: Problem) -> StructureReport:
    """Run all geometric hypothesis checks and classify the unbounded
    branches of the channel-2 characteristic set.

    A failed flag means downstream pipelines must not run.  The window
    boundary stands in for infinity; it is the caller's obligation to pick
    a window where the potentials have settled to their limits.
    """
    tols = p.tolerances
    flags = {}
    xs = _grid(p.window, tols.scan_points)
    v1g = np.asarray(p.v1_np(xs), dtype=float)
    v2g = np.asarray(p.v2_np(xs), dtype=float)

    # channel-1 simple well
    a0 = b0 = None
    try:
        a0, b0 = _well_walls(p)
        inside = (xs > a0.x + 1e-9) & (xs < b0.x - 1e-9)
        outside = (xs < a0.x - 1e-9) | (xs > b0.x + 1e-9)
        ok = bool(np.all(v1g[inside] < p.e0)) and bool(np.all(v1g[outside] > p.e0))
        flags["simple_well"] = (ok, "" if ok else "V1 - e0 has the wrong sign pattern")
    except StructureError as exc:
        flags["simple_well"] = (False, str(exc))

    # channel-2 turning points all simple
    v2_turning: List[TurningPoint] = []
    try:
        v2_turning = turning_points(p.v2, p.e0, p.window, tols, channel=2)
        flags["v2_simple_roots"] = (True, "")
    except StructureError as exc:
        flags["v2_simple_roots"] = (False, str(exc))

    # allowed region of channel 2: unbounded components only
    mask = v2g <= p.e0
    tails: List[TailInfo] = []
    bounded_components = 0
    i = 0
    n = len(xs)
    touches_any = False
    while i < n:
        if not mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and mask[j + 1]:
            j += 1
        touches_left = i == 0
        touches_right = j == n - 1
        if not (touches_left or touches_right):
            bounded_components += 1
        if touches_left:
            touches_any = True
            tails.append(TailInfo(direction=-1, xi_sign=+1, kind="incoming"))
            tails.append(TailInfo(direction=-1, xi_sign=-1, kind="outgoing"))
        if touches_right:
            touches_any = True
            tails.append(TailInfo(direction=+1, xi_sign=+1, kind="outgoing"))
            tails.append(TailInfo(direction=+1, xi_sign=-1, kind="incoming"))
        i = j + 1
    ok = bounded_components == 0 and touches_any
    flags["v2_nontrapping"] = (
        ok,
        "" if ok else f"{bounded_components} bounded allowed component(s) inside the window",
    )

    # crossings and contact orders
    crossings: List[CrossingPoint] = []
    m0 = 0
    try:
        crossings = crossing_points(p)
        m0 = max(c.m for c in crossings)
        flags["crossings"] = (True, "")
    except StructureError as exc:
        flags["crossings"] = (False, str(exc))

    # window must look like infinity: derivatives settled, e0 off the limits
    xb = np.array(p.window)
    settled = bool(np.all(np.abs(np.asarray(p.v1p_np(xb), dtype=float)) < 1e-4)) and bool(
        np.all(np.abs(np.asarray(p.v2p_np(xb), dtype=float)) < 1e-4)
    )
    flags["window_settled"] = (settled, "" if settled else "potentials still varying at the window boundary")
    limits_ok = all(abs(p.e0 - float(v(np.array([w]))[0])) > 1e-6 for v in (p.v1_np, p.v2_np) for w in p.window)
    flags["e0_off_limits"] = (limits_ok, "" if limits_ok else "e0 coincides with a potential limit")

    if a0 is None:
        a0 = TurningPoint(x=p.window[0], which=1, side="left")
        b0 = TurningPoint(x=p.window[1], which=1, side="right")
    return StructureReport(
        a0=a0,
        b0=b0,
        v2_turning=v2_turning,
        crossings=crossings,
        m0=m0,
        tails=tails,
        assumption_flags=flags,
        window=p.window,
        e0=p.e0,
    )
