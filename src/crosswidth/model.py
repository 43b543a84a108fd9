"""Problem definition and structural validation.

Holds the two potentials, the coupling coefficients and the reference
energy, checks the geometric hypotheses the width asymptotics rely on
(simple well in channel 1, non-trapping channel 2, crossings away from
turning points), and locates turning points and crossing points together
with their contact orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import exprs
from .errors import InputError
from .exprs import ExprAst

__all__ = [
    "ROOT_TOL",
    "CONTACT_TOL",
    "SCAN_POINTS",
    "K_MAX",
    "Problem",
    "TurningPoint",
    "CrossingPoint",
    "StructureReport",
    "StructureError",
    "DegenerateTurningPoint",
    "CrossingAtTurningPoint",
    "ContactOrderOverflow",
    "NoCrossing",
    "brentq",
    "turning_points",
    "crossing_points",
    "validate_structure",
]


class StructureError(InputError):
    """A geometric hypothesis failed numerically."""


class DegenerateTurningPoint(StructureError):
    pass


class CrossingAtTurningPoint(StructureError):
    pass


class ContactOrderOverflow(StructureError):
    pass


class NoCrossing(StructureError):
    pass


# Fixed accuracy targets of the structure checks: brentq's xtol for turning
# and crossing points; the slope, relative jet agreement and margin below e0
# within which a root counts as degenerate; the intervals of the window
# scans; and the highest Taylor order a contact order is read from.
ROOT_TOL = 1e-12
CONTACT_TOL = 1e-9
SCAN_POINTS = 4096
K_MAX = 12


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

    def __post_init__(self):
        if not all(math.isfinite(w) for w in self.window):
            raise InputError(f"window bounds must be finite, got {self.window!r}")
        if not self.window[0] < self.window[1]:
            raise InputError("window must satisfy x_min < x_max")
        if not self.L > 0:
            raise InputError("L must be positive")
        if not math.isfinite(self.e0):
            raise InputError("e0 must be finite")

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
        complex arrays and return arrays of the same shape (read-only for a
        constant)."""
        r = (exprs.compile_fn(e) for e in (self.r0, self.r1, exprs.differentiate(self.r1)))
        return (self.v1_np, self.v2_np, *r)

    @cached_property
    def turns(self) -> dict:
        """Turning points re-solved at an energy, keyed (channel, reference
        location, E): quadrature's memo of its turning-point solves."""
        return {}

    def v_np(self, channel: int):
        return self.v1_np if channel == 1 else self.v2_np

    def vp_np(self, channel: int):
        return self.v1p_np if channel == 1 else self.v2p_np


@dataclass(frozen=True)
class TurningPoint:
    x: float


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


@dataclass
class StructureReport:
    a0: TurningPoint
    b0: TurningPoint
    v2_turning: List[TurningPoint]
    crossings: List[CrossingPoint]
    m0: int
    assumption_flags: dict
    window: Tuple[float, float]

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.assumption_flags.values())


def _grid(window: Tuple[float, float], n: int) -> np.ndarray:
    return np.linspace(window[0], window[1], n + 1)


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float,
           ends: Optional[Tuple[float, float]] = None) -> float:
    """The root of f in [a, b] by Brent's method: a port of the C routine
    behind scipy.optimize.brentq (``Zeros/brentq.c``) that does the same
    float operations in the same order, so its roots are bit-identical to
    scipy's, with rtol fixed at 8.9e-16 and at most 100 iterations.  A
    caller that already has f(a) and f(b) passes them as ``ends``.  Raises
    ValueError when f(a) and f(b) have the same sign or f returns NaN, and
    RuntimeError when it does not converge."""

    def call(x: float, fx: Optional[float] = None) -> float:
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fa, fb = ends or (None, None)
    fpre, fcur = call(xpre, fa), call(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 8.9e-16 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an inf or a NaN, which bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur!r}")


def _scan(fn: Callable, xs: np.ndarray, what: str) -> Tuple[np.ndarray, List[float]]:
    """fn sampled on the grid xs, and its roots there: the grid points where
    it is 0 and, refined from the sampled ends, one in each interval where
    it changes sign.
    Raises StructureError, naming ``what`` and x, where a sample is not
    finite (a pole on the grid), before any root is refined."""
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise StructureError(f"{what} is not finite at x = {xs[np.argmax(bad)]:.12g}")
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    roots = [xs[i] if vals[i] == 0.0
             else brentq(lambda x: float(fn(x)), xs[i], xs[i + 1], ROOT_TOL, (vals[i], vals[i + 1]))
             for i in hits]
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return vals, roots


def turning_points(p: Problem, channel: int, E: float) -> List[TurningPoint]:
    """All simple roots of V(x) = E in the window, for the potential of
    channel 1 or 2, sorted and refined.

    Raises DegenerateTurningPoint when `|V'|` at a root falls below the
    contact tolerance (the root is not simple).
    """
    vfn, vpfn = p.v_np(channel), p.vp_np(channel)
    _, roots = _scan(lambda x: vfn(x) - E, _grid(p.window, SCAN_POINTS), f"V{channel}")
    out = []
    for r in roots:
        slope = float(vpfn(r))
        if abs(slope) <= CONTACT_TOL:
            raise DegenerateTurningPoint(f"V' = {slope:.3e} at root x = {r:.12g}")
        out.append(TurningPoint(x=r))
    out.sort(key=lambda t: t.x)
    return out


def _well_walls(p: Problem) -> Tuple[TurningPoint, TurningPoint]:
    tps = turning_points(p, 1, p.e0)
    if len(tps) != 2:
        raise NoCrossing(
            f"V1 = e0 has {len(tps)} roots in the window; a simple well needs exactly 2"
        )
    return tps[0], tps[1]


# radius around the origin within which roots of the local difference
# polynomial count toward a crossing's contact order
_CLUSTER_RADIUS = 1e-3


def _contact_order(p: Problem, x0: float):
    """Contact order and refined position of a crossing near x0.

    The jets give the local difference polynomial (V2 - V1)(x0 + u) exactly;
    the multiplicity is the number of its roots clustered at the origin and
    the cluster centroid relocates the crossing far more accurately than a
    bisection on the (possibly flat) difference itself can.
    """
    x_c = x0
    for _ in range(2):
        j1 = exprs.taylor_jet(p.v1, x_c, K_MAX)
        j2 = exprs.taylor_jet(p.v2, x_c, K_MAX)
        d = [c2 - c1 for c1, c2 in zip(j1.coeffs, j2.coeffs)]
        if all(abs(d[k]) <= CONTACT_TOL * max(1.0, abs(j1.coeffs[k]), abs(j2.coeffs[k]))
               for k in range(1, K_MAX + 1)):
            raise ContactOrderOverflow(
                f"V1 and V2 agree to order {K_MAX} at x = {x_c:.12g}"
            )
        roots = np.roots(d[::-1])
        cluster = roots[np.abs(roots) < _CLUSTER_RADIUS]
        if cluster.size == 0:
            raise NoCrossing(f"candidate at x = {x_c:.12g} is not a root of V1 - V2")
        shift = float(np.mean(cluster.real))
        x_c += shift
        if abs(shift) < 1e-14 * max(1.0, abs(x_c)):
            break
    j1 = exprs.taylor_jet(p.v1, x_c, K_MAX)
    j2 = exprs.taylor_jet(p.v2, x_c, K_MAX)
    d = [c2 - c1 for c1, c2 in zip(j1.coeffs, j2.coeffs)]
    roots = np.roots(d[::-1])
    m = int(np.sum(np.abs(roots) < _CLUSTER_RADIUS))
    if m < 1 or m > K_MAX:
        raise ContactOrderOverflow(f"contact order {m} out of range at x = {x_c:.12g}")
    return x_c, m, d


def crossing_points(p: Problem) -> List[CrossingPoint]:
    """Roots of V1 - V2 inside the well where V1 < e0, with contact orders.

    Transversal roots come from sign changes of V1 - V2 on the scan grid;
    tangential roots (even order) from interior minima of |V1 - V2| that
    refine to below the root tolerance.
    """
    a0, b0 = _well_walls(p)
    # the scan stays a hair inside the well: a root exactly at a wall is a
    # turning-point crossing, which is not part of the crossing set at the
    # reference energy (roots merely close to a wall still get flagged by
    # the level check below)
    pad = 10.0 * ROOT_TOL
    xs = _grid((a0.x + pad, b0.x - pad), SCAN_POINTS)

    def gfn(x):
        return p.v1_np(x) - p.v2_np(x)

    def gpfn(x):
        return float(p.v1p_np(x)) - float(p.v2p_np(x))

    # sign changes
    g, roots = _scan(gfn, xs, "V1 - V2")
    gscale = float(np.max(np.abs(g))) or 1.0
    # interior minima of |g| dipping to zero (tangential crossings)
    absg = np.abs(g)
    minima = ((absg[1:-1] < absg[:-2]) & (absg[1:-1] <= absg[2:])
              & (g[:-2] * g[1:-1] > 0) & (g[1:-1] * g[2:] > 0))
    for i in np.flatnonzero(minima) + 1:
        ga, gb = gpfn(xs[i - 1]), gpfn(xs[i + 1])
        if ga * gb < 0:
            x_star = brentq(gpfn, xs[i - 1], xs[i + 1], ROOT_TOL, (ga, gb))
            if abs(gfn(x_star)) <= ROOT_TOL * max(1.0, gscale):
                roots.append(x_star)
    roots.sort()
    merged: List[float] = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 50 * ROOT_TOL:
            merged.append(r)

    out: List[CrossingPoint] = []
    for x_c in merged:
        x_c, m, d = _contact_order(p, x_c)
        level = float(p.v1_np(x_c))
        if level >= p.e0 - CONTACT_TOL:
            raise CrossingAtTurningPoint(
                f"crossing at x = {x_c:.12g} has V1 = {level:.12g} >= e0 - contact_tol"
            )
        xi = math.sqrt(p.e0 - level)
        dv = d[m] * math.factorial(m)
        r0v = exprs.evaluate(p.r0, x_c)
        r1v = exprs.evaluate(p.r1, x_c)
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


# a pole on the scan grid or at the window edge fails a flag, without a
# numpy warning
@np.errstate(all="ignore")
def validate_structure(p: Problem) -> StructureReport:
    """Run all geometric hypothesis checks, including that every allowed
    component of channel 2 reaches the window edge (the graph builds the
    tails on those unbounded branches).

    A failed flag means downstream pipelines must not run.  The window
    boundary stands in for infinity; it is the caller's obligation to pick
    a window where the potentials have settled to their limits.
    """
    flags = {}
    xs = _grid(p.window, SCAN_POINTS)
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
        v2_turning = turning_points(p, 2, p.e0)
        flags["v2_simple_roots"] = (True, "")
    except StructureError as exc:
        flags["v2_simple_roots"] = (False, str(exc))

    # allowed region of channel 2: unbounded components only, a run of
    # allowed grid points [start, end) being bounded unless it meets an edge
    step = np.diff(np.concatenate(([0], (v2g <= p.e0).astype(int), [0])))
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    at_edge = (starts == 0) | (ends == len(xs))
    bounded_components = int(np.count_nonzero(~at_edge))
    ok = bounded_components == 0 and bool(at_edge.any())
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
        a0 = TurningPoint(x=p.window[0])
        b0 = TurningPoint(x=p.window[1])
    return StructureReport(
        a0=a0,
        b0=b0,
        v2_turning=v2_turning,
        crossings=crossings,
        m0=m0,
        assumption_flags=flags,
        window=p.window,
    )
