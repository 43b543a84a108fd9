"""Action integrals, oscillatory integrals and stationary-phase asymptotics.

Turning-point square-root singularities are absorbed by substitutions
(x = mid + half*sin t across a full arc, x = x_turn -/+ u^2 one-sided)
before Gauss-Legendre panels are applied, so every integrand handed to
the quadrature driver is smooth.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.optimize import brentq

from .geometry import Edge
from .model import DegenerateTurningPoint, Problem, turning_points

__all__ = [
    "NoTurningPoints",
    "QuadratureError",
    "BudgetExceeded",
    "PreconditionViolated",
    "ActionFn",
    "action_loop",
    "action_derivative",
    "action_edge",
    "oscillatory_integral",
    "crossing_phase",
    "stationary_phase",
]


class NoTurningPoints(Exception):
    pass


class QuadratureError(Exception):
    pass


class BudgetExceeded(QuadratureError):
    pass


class PreconditionViolated(ValueError):
    pass


_GL_CACHE = {}
# panel rule and panel doublings of the adaptive action quadrature
_GL_POINTS = 32
_MAX_DOUBLINGS = 13
# phase change per oscillatory panel, in units of h
_PHASE_PER_PANEL = 6.0
# Chebyshev degrees tried in turn by the action cache
_CHEB_DEGREES = (16, 32, 64, 128, 192)


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _composite_gl(fvec: Callable, lo: float, hi: float, panels: int, n: int) -> float:
    t, w = _gl(n)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    xs = (mids[:, None] + halfs[:, None] * t[None, :]).ravel()
    vals = np.asarray(fvec(xs), dtype=float).reshape(panels, n)
    return float(np.sum(vals @ w * halfs))


def _adaptive_gl(fvec: Callable, lo: float, hi: float, tol: float) -> Tuple[float, float]:
    """Composite Gauss with panel doubling until two passes agree to tol.

    Deep refinement can start resolving sub-roundoff structure (for
    integrands built from near-cancelling differences, e.g. E - V close to
    a just-solved turning point), after which the estimates drift instead
    of converging.  When the successive differences grow twice in a row,
    the best earlier estimate is returned with its difference as the
    error, provided it is within a few orders of the target.
    """
    prev = None
    best_val, best_err = None, math.inf
    growth = 0
    panels = 1
    for _ in range(_MAX_DOUBLINGS + 1):
        cur = _composite_gl(fvec, lo, hi, panels, _GL_POINTS)
        if prev is not None:
            err = abs(cur - prev)
            if err <= tol:
                return cur, err
            if err < best_err:
                best_val, best_err = cur, err
                growth = 0
            else:
                growth += 1
                if growth >= 2 and best_err <= 2000.0 * tol:
                    return best_val, best_err
        prev = cur
        panels *= 2
    if best_err <= 2000.0 * tol:
        return best_val, best_err
    raise QuadratureError(f"no convergence to {tol:g} on [{lo}, {hi}]")


def sqrt_piece_integral(vfn: Callable, E: float, lo: float, hi: float,
                        lo_sing: bool, hi_sing: bool, tol: float) -> float:
    """integral of sqrt(E - V) over [lo, hi]; singular flags mark turning
    points sitting exactly at an endpoint."""
    if hi <= lo:
        return 0.0

    def clamped(x):
        return np.sqrt(np.maximum(E - np.asarray(vfn(x), dtype=float), 0.0))

    if lo_sing and hi_sing:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

        def f(t):
            return clamped(mid + half * np.sin(t)) * half * np.cos(t)

        val, _ = _adaptive_gl(f, -math.pi / 2, math.pi / 2, tol)
        return val
    if lo_sing or hi_sing:
        turn, sgn = (hi, -1.0) if hi_sing else (lo, 1.0)

        def f(u):
            return clamped(turn + sgn * u * u) * 2.0 * u

        val, _ = _adaptive_gl(f, 0.0, math.sqrt(hi - lo), tol)
        return val
    val, _ = _adaptive_gl(clamped, lo, hi, tol)
    return val


def _well_at(p: Problem, E: float) -> Optional[Tuple[float, float]]:
    try:
        tps = turning_points(p.v1, E, p.window, p.tolerances, channel=1)
    except DegenerateTurningPoint:
        tps = []
    if len(tps) == 2:
        return tps[0].x, tps[1].x
    if len(tps) < 2:
        xs = np.linspace(p.window[0], p.window[1], p.tolerances.scan_points + 1)
        if abs(float(np.min(np.asarray(p.v1_np(xs), dtype=float))) - E) <= 1e-9:
            return None  # collapsed loop at the well bottom
    raise NoTurningPoints(f"V1 = {E} has {len(tps)} roots in the window, need 2")


def action_loop(p: Problem, E: float) -> float:
    """Loop action of the channel-1 closed trajectory,
    2 * integral_a^b sqrt(E - V1)."""
    well = _well_at(p, E)
    if well is None:
        return 0.0
    a, b = well
    return 2.0 * sqrt_piece_integral(p.v1_np, E, a, b, True, True, p.tolerances.quad_tol)


def action_derivative(p: Problem, E: float) -> float:
    """d/dE of the loop action, integral_a^b dx / sqrt(E - V1), with the
    endpoint singularities absorbed by the sine substitution."""
    well = _well_at(p, E)
    if well is None:
        raise NoTurningPoints("loop collapsed, derivative undefined")
    a, b = well
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vfn = p.v1_np

    def f(t):
        under = np.maximum(E - np.asarray(vfn(mid + half * np.sin(t)), dtype=float), 1e-300)
        return half * np.cos(t) / np.sqrt(under)

    val, _ = _adaptive_gl(f, -math.pi / 2, math.pi / 2, p.tolerances.quad_tol)
    return val


def _resolve_turn(p: Problem, channel: int, E: float, x0: float, inward: float) -> float:
    """Re-solve the turning point V_ch(x) = E near its reference location x0.
    ``inward`` points toward the allowed side."""
    vfn = p.v_np(channel)

    def f(x):
        return float(vfn(x)) - E

    slope = float(p.vp_np(channel)(x0))
    d = max(1e-9, 4.0 * abs(E - float(vfn(x0))) / max(abs(slope), 1e-9))
    for _ in range(60):
        lo, hi = x0 - d, x0 + d
        if f(lo) * f(hi) < 0:
            return brentq(f, lo, hi, xtol=p.tolerances.root_tol, rtol=8.9e-16)
        d *= 2.0
        if d > 10.0:
            break
    raise NoTurningPoints(f"turning point near x = {x0:.6g} lost at E = {E:.6g}")


def action_edge(p: Problem, edge: Edge, E: float, flo: float = 0.0, fhi: float = 1.0,
                quad_tol: Optional[float] = None) -> float:
    """integral of xi dx along (a fraction of) an oriented edge segment.

    Positive by flow orientation.  Turning-point endpoints are re-solved at
    the requested energy; vertex endpoints stay fixed.
    """
    pieces, _ = edge.sub_pieces(flo, fhi)
    tol = quad_tol if quad_tol is not None else p.tolerances.quad_tol
    total = 0.0
    for pc in pieces:
        lo, hi = pc.x_lo, pc.x_hi
        if pc.lo_turn:
            lo = _resolve_turn(p, edge.channel, E, lo, +1.0)
        if pc.hi_turn:
            hi = _resolve_turn(p, edge.channel, E, hi, -1.0)
        if hi <= lo:
            if pc.lo_turn or pc.hi_turn:
                raise NoTurningPoints("segment collapsed at this energy")
            continue
        total += sqrt_piece_integral(p.v_np(edge.channel), E, lo, hi, pc.lo_turn, pc.hi_turn, tol)
    return total


# --- oscillatory integrals ---------------------------------------------------


def _panel_edges(phi: Callable, lo: float, hi: float, h: float, max_panels: int) -> np.ndarray:
    """Split [lo, hi] until the sampled phase change per panel is below
    _PHASE_PER_PANEL * h, with a hard floor of h/4 on the panel size."""
    edges = [lo]
    stack = [(lo, hi, float(phi(lo)), float(phi(hi)), 0)]
    accepted = []
    while stack:
        a, b, fa, fb, depth = stack.pop()
        mdpt = 0.5 * (a + b)
        fm = float(phi(mdpt))
        resolved = max(abs(fm - fa), abs(fb - fm)) <= 0.5 * _PHASE_PER_PANEL * h
        small_enough = (b - a) <= max(0.25 * h, (hi - lo) * 2.0 ** -40)
        if (resolved and (b - a) <= (hi - lo) / 16) or small_enough or depth >= 48:
            accepted.append((a, b))
            if len(accepted) > max_panels:
                raise BudgetExceeded("oscillatory quadrature node budget hit")
            continue
        stack.append((mdpt, b, fm, fb, depth + 1))
        stack.append((a, mdpt, fa, fm, depth + 1))
    accepted.sort()
    return np.array([a for a, _ in accepted] + [hi])


def oscillatory_integral(
    sigma: Callable,
    phi: Callable,
    interval: Tuple[float, float],
    h: float,
    quad_tol: float = 1e-11,
    node_budget: int = 2_000_000,
) -> complex:
    """integral of sigma(x) exp(i phi(x) / h) over the interval.

    Brute-force panel quadrature: panels are sized to keep the phase change
    per panel to a few radians (so a 28-point Gauss rule per panel is exact
    to machine precision), graded down to h/4 in steep-phase regions.  Both
    callables must accept numpy arrays.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo or h <= 0:
        raise PreconditionViolated("need a non-empty interval and h > 0")
    edges = _panel_edges(phi, lo, hi, h, max_panels=node_budget // 28)
    panels = len(edges) - 1

    def pass_with(n: int) -> complex:
        t, w = _gl(n)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        xs = (mids[:, None] + halfs[:, None] * t[None, :]).ravel()
        if xs.size > node_budget:
            raise BudgetExceeded(f"{xs.size} nodes exceed the budget {node_budget}")
        sg = np.broadcast_to(np.asarray(sigma(xs), dtype=complex), xs.shape)
        ph = np.asarray(phi(xs), dtype=float)
        vals = (sg * np.exp(1j * ph / h)).reshape(panels, n)
        return complex(np.sum((vals @ w) * halfs))

    coarse = pass_with(20)
    fine = pass_with(28)
    if abs(fine - coarse) > max(quad_tol, 1e-3 * h * h):
        raise QuadratureError(
            f"oscillatory panels did not settle: |delta| = {abs(fine - coarse):.3e}"
        )
    return fine


def crossing_phase(m: int, sign: float) -> complex:
    """Phase mu of the order-m stationary-phase constant: e^{+/- i pi/(2(m+1))}
    by the sign of ``sign`` for odd m, the real cos(pi/(2(m+1))) for even m."""
    if m % 2 == 1:
        return cmath.exp(1j * math.pi * math.copysign(1.0, sign) / (2 * (m + 1)))
    return complex(math.cos(math.pi / (2 * (m + 1))))


def stationary_phase(sigma0: complex, phi_jet, m: int, h: float, calib: float = 2.0) -> complex:
    """Leading-order value of the oscillatory integral with a single interior
    stationary point of degeneracy m (phi' = ... = phi^(m) = 0 there).

    calib rescales the one-sided textbook constant; calib = 2 accounts for
    both sides of an interior stationary point and reproduces the Fresnel
    value at m = 1.
    """
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    coeffs = phi_jet.coeffs
    if len(coeffs) < m + 2:
        raise PreconditionViolated("jet order too low for the requested m")
    scale = max(1.0, abs(coeffs[m + 1]))
    for k in range(1, m + 1):
        if abs(coeffs[k]) > 1e-9 * scale:
            raise PreconditionViolated(f"phi jet coefficient c_{k} = {coeffs[k]:g} is not 0")
    dphi = coeffs[m + 1] * math.factorial(m + 1)  # phi^(m+1)(x0)
    if dphi == 0.0:
        raise PreconditionViolated("phi^(m+1)(x0) must not vanish")
    amp = (
        crossing_phase(m, dphi)
        * complex(sigma0)
        * (math.factorial(m + 1) / abs(dphi)) ** (1.0 / (m + 1))
        * math.gamma((m + 2) / (m + 1))
    )
    return calib * amp * np.exp(1j * coeffs[0] / h) * h ** (1.0 / (m + 1))


# --- cached action evaluators -------------------------------------------------


@dataclass
class ActionFn:
    """Chebyshev cache of a smooth energy-to-action map.

    Built once over the resonance box (plus margin); evaluations and the
    energy derivative are then essentially free.
    """

    cheb: Chebyshev
    domain: Tuple[float, float]
    err_estimate: float
    n_nodes: int

    @classmethod
    def build(cls, fn: Callable[[float], float], domain: Tuple[float, float],
              tol: float = 1e-12) -> "ActionFn":
        lo, hi = domain

        def fnv(xs):
            return np.array([fn(float(x)) for x in np.atleast_1d(xs)])

        last_err = math.inf
        cheb = None
        nodes = 0
        for deg in _CHEB_DEGREES:
            cheb = Chebyshev.interpolate(fnv, deg, domain=[lo, hi])
            nodes += deg + 1
            probe = lo + (hi - lo) * (0.5 + 0.5 * np.cos(np.pi * (np.arange(2 * deg) + 0.5) / (2 * deg)))
            last_err = float(np.max(np.abs(cheb(probe) - fnv(probe))))
            nodes += probe.size
            if last_err <= tol:
                break
        if last_err > tol:
            raise QuadratureError(f"action cache residual {last_err:.3e} exceeds {tol:g}")
        return cls(cheb=cheb, domain=(lo, hi), err_estimate=last_err, n_nodes=nodes)

    def __call__(self, E: float) -> float:
        lo, hi = self.domain
        if not (lo - 1e-12 <= E <= hi + 1e-12):
            raise ValueError(f"E = {E:.8g} outside the cached domain [{lo:.8g}, {hi:.8g}]")
        return float(self.cheb(E))

    def derivative(self) -> "ActionFn":
        return ActionFn(cheb=self.cheb.deriv(), domain=self.domain,
                        err_estimate=self.err_estimate, n_nodes=self.n_nodes)
