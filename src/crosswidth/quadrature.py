"""Action integrals, oscillatory integrals and stationary-phase asymptotics.

Turning-point square-root singularities are absorbed by substitutions
(x = mid + half*sin t across a full arc, x = x_turn -/+ u^2 one-sided)
before Gauss-Legendre panels are applied, so every integrand handed to
the quadrature driver is smooth.  The driver takes one interval per row
(an energy, for the edge actions) and refines each row on its own, so a
row's value does not depend on the rows batched with it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .errors import InputError, NumericalFailure
from .geometry import Edge
from .model import ROOT_TOL, SCAN_POINTS, DegenerateTurningPoint, Problem, brentq, turning_points

__all__ = [
    "QUAD_TOL",
    "EDGE_QUAD_TOL",
    "CACHE_TOL",
    "NoTurningPoints",
    "QuadratureError",
    "BudgetExceeded",
    "PreconditionViolated",
    "ActionFn",
    "ActionTable",
    "action_loop",
    "action_derivative",
    "action_edge",
    "oscillatory_integral",
    "crossing_phase",
    "stationary_phase",
]


class NoTurningPoints(NumericalFailure):
    pass


class QuadratureError(NumericalFailure):
    pass


class BudgetExceeded(QuadratureError):
    pass


class PreconditionViolated(InputError, ValueError):
    pass


# fixed accuracy target of the action quadratures and of the oscillatory
# panel check, the tighter one of the edge actions that the engine's
# Chebyshev caches are fitted to, and the residual bound of those fits
QUAD_TOL = 1e-11
EDGE_QUAD_TOL = 1e-13
CACHE_TOL = 3e-13

_GL_CACHE = {}
# panel rule and panel doublings of the adaptive action quadrature
_GL_POINTS = 32
_MAX_DOUBLINGS = 13
# most Gauss nodes one block of rows holds in a quadrature pass
_PASS_NODES = 2 ** 17
# phase change per oscillatory panel, in units of h, and the most Gauss
# nodes an oscillatory integral may take
_PHASE_PER_PANEL = 6.0
_NODE_BUDGET = 2_000_000
# oscillatory panels one block of a pass holds.  Each panel's Gauss sum
# must come out as from one product over all panels: numpy's product of
# a one-row block takes another BLAS path that can change the last bit,
# so a pass never ends on a one-panel block
_PANEL_BLOCK = 1024
# Chebyshev degrees tried in turn by the action cache
_CHEB_DEGREES = (16, 32, 64, 128, 192)


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _composite_gl(f: Callable, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray,
                  panels: int) -> np.ndarray:
    """Composite Gauss-Legendre sums over [lo[k], hi[k]], one per row k.
    f(x, rows) gives the integrand of the given rows at x, shaped
    (rows, panels, nodes); rows are taken a block at a time so that a
    deep pass holds at most _PASS_NODES nodes."""
    t, w = _gl(_GL_POINTS)
    step = max(1, _PASS_NODES // (panels * _GL_POINTS))
    out = np.empty(len(rows))
    for i in range(0, len(rows), step):
        block = slice(i, i + step)
        # C order, so that each row's products and sums run as for one row
        edges = np.ascontiguousarray(np.linspace(lo[block], hi[block], panels + 1, axis=1))
        mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
        halfs = 0.5 * (edges[:, 1:] - edges[:, :-1])
        vals = np.asarray(f(mids[:, :, None] + halfs[:, :, None] * t, rows[block]), dtype=float)
        out[block] = np.sum(vals @ w * halfs, axis=1)
    return out


def _adaptive_gl(f: Callable, lo, hi, tol: float) -> np.ndarray:
    """Composite Gauss with panel doubling until two passes agree to tol,
    for each row's interval [lo[k], hi[k]] on its own: all rows start at
    one panel and double together, and a row drops out once it is done,
    so each row gets the float a run on it alone gives.

    Deep refinement can start resolving sub-roundoff structure (for
    integrands built from near-cancelling differences, e.g. E - V close to
    a just-solved turning point), after which the estimates drift instead
    of converging.  When a row's successive differences grow twice in a
    row, its best earlier estimate is returned, provided its difference is
    within a few orders of the target.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out = np.empty(len(lo))
    rows = np.arange(len(lo))  # the rows still refining
    prev = None
    best_val, best_err = np.zeros(len(lo)), np.full(len(lo), math.inf)
    growth = np.zeros(len(lo), dtype=int)
    panels = 1
    for _ in range(_MAX_DOUBLINGS + 1):
        cur = _composite_gl(f, lo[rows], hi[rows], rows, panels)
        if prev is not None:
            err = np.abs(cur - prev)
            better = err < best_err
            best_val = np.where(better, cur, best_val)
            best_err = np.where(better, err, best_err)
            growth = np.where(better, 0, growth + 1)
            done = err <= tol
            out[rows[done]] = cur[done]
            gave_up = ~done & (growth >= 2) & (best_err <= 2000.0 * tol)
            out[rows[gave_up]] = best_val[gave_up]
            keep = ~(done | gave_up)
            rows, cur, best_val, best_err, growth = (
                a[keep] for a in (rows, cur, best_val, best_err, growth))
            if not rows.size:
                return out
        prev = cur
        panels *= 2
    failed = best_err > 2000.0 * tol
    if failed.any():
        k = rows[failed][0]
        raise QuadratureError(f"no convergence to {tol:g} on [{lo[k]}, {hi[k]}]")
    out[rows] = best_val
    return out


def sqrt_piece_integral(vfn: Callable, E, lo, hi, lo_sing: bool, hi_sing: bool,
                        tol: float) -> np.ndarray:
    """integral of sqrt(E - V) over [lo, hi], one row per energy: E, lo and
    hi are 1-D arrays of one length, and a row with hi <= lo gives 0.  The
    singular flags mark turning points sitting exactly at an endpoint."""
    E, lo, hi = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (E, lo, hi))
    out = np.zeros(len(E))
    live = np.flatnonzero(hi > lo)
    if not live.size:
        return out
    E, lo, hi = E[live, None, None], lo[live], hi[live]

    def clamped(x, rows):
        return np.sqrt(np.maximum(E[rows] - np.asarray(vfn(x), dtype=float), 0.0))

    if lo_sing and hi_sing:
        mid, half = (v[:, None, None] for v in (0.5 * (lo + hi), 0.5 * (hi - lo)))

        def f(t, rows):
            return clamped(mid[rows] + half[rows] * np.sin(t), rows) * half[rows] * np.cos(t)

        a, b = np.full(len(live), -math.pi / 2), np.full(len(live), math.pi / 2)
    elif lo_sing or hi_sing:
        turn, sgn = (hi, -1.0) if hi_sing else (lo, 1.0)
        turn = turn[:, None, None]

        def f(u, rows):
            return clamped(turn[rows] + sgn * u * u, rows) * 2.0 * u

        a, b = np.zeros(len(live)), np.sqrt(hi - lo)
    else:
        f, a, b = clamped, lo, hi
    out[live] = _adaptive_gl(f, a, b, tol)
    return out


def _well_at(p: Problem, E: float) -> Optional[Tuple[float, float]]:
    try:
        tps = turning_points(p, 1, E)
    except DegenerateTurningPoint:
        tps = []
    if len(tps) == 2:
        return tps[0].x, tps[1].x
    if len(tps) < 2:
        xs = np.linspace(p.window[0], p.window[1], SCAN_POINTS + 1)
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
    return 2.0 * float(sqrt_piece_integral(p.v1_np, E, a, b, True, True, QUAD_TOL)[0])


def action_derivative(p: Problem, E: float) -> float:
    """d/dE of the loop action, integral_a^b dx / sqrt(E - V1), with the
    endpoint singularities absorbed by the sine substitution."""
    well = _well_at(p, E)
    if well is None:
        raise NoTurningPoints("loop collapsed, derivative undefined")
    a, b = well
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vfn = p.v1_np

    def f(t, rows):
        under = np.maximum(E - np.asarray(vfn(mid + half * np.sin(t)), dtype=float), 1e-300)
        return half * np.cos(t) / np.sqrt(under)

    return float(_adaptive_gl(f, [-math.pi / 2], [math.pi / 2], QUAD_TOL)[0])


def _resolve_turn(p: Problem, channel: int, E: float, x0: float) -> float:
    """Re-solve the turning point V_ch(x) = E near its reference location
    x0.  Each solve is kept in p.turns: the action fits share one domain
    and one degree ladder, so segments that end on one turning point ask
    for it at the same energies."""
    key = (channel, x0, E)
    if key in p.turns:
        return p.turns[key]
    vfn = p.v_np(channel)

    def f(x):
        return float(vfn(x)) - E

    slope = float(p.vp_np(channel)(x0))
    d = max(1e-9, 4.0 * abs(E - float(vfn(x0))) / max(abs(slope), 1e-9))
    for _ in range(60):
        lo, hi = x0 - d, x0 + d
        flo, fhi = f(lo), f(hi)
        if flo * fhi < 0:
            x = p.turns[key] = brentq(f, lo, hi, ROOT_TOL, (flo, fhi))
            return x
        d *= 2.0
        if d > 10.0:
            break
    raise NoTurningPoints(f"turning point near x = {x0:.6g} lost at E = {E:.6g}")


def action_edge(p: Problem, edge: Edge, E, flo: float = 0.0, fhi: float = 1.0):
    """integral of xi dx along (a fraction of) an oriented edge segment, at
    one energy (a float) or at each of a 1-D array of energies (an array).

    Positive by flow orientation.  Turning-point endpoints are re-solved at
    each energy; vertex endpoints stay fixed.  Each energy is a row of one
    quadrature per piece, and gets the float a call with it alone gives.
    """
    Es = np.atleast_1d(np.asarray(E, dtype=float))
    energies = Es.tolist()
    pieces = edge.sub_pieces(flo, fhi)
    total = np.zeros(len(Es))
    for pc in pieces:
        lo, hi = np.full(len(Es), pc.x_lo), np.full(len(Es), pc.x_hi)
        if pc.lo_turn:
            lo = np.array([_resolve_turn(p, edge.channel, e, pc.x_lo) for e in energies])
        if pc.hi_turn:
            hi = np.array([_resolve_turn(p, edge.channel, e, pc.x_hi) for e in energies])
        if (pc.lo_turn or pc.hi_turn) and np.any(hi <= lo):
            raise NoTurningPoints("segment collapsed at this energy")
        total += sqrt_piece_integral(p.v_np(edge.channel), Es, lo, hi, pc.lo_turn, pc.hi_turn, EDGE_QUAD_TOL)
    return total if np.ndim(E) else float(total[0])


# --- oscillatory integrals ---------------------------------------------------


def _panel_edges(phi: Callable, lo: float, hi: float, h: float) -> np.ndarray:
    """Split [lo, hi] until the sampled phase change per panel is below
    _PHASE_PER_PANEL * h, with a hard floor of h/4 on the panel size.

    The bisection tree grows level by level: each of its at most 49
    levels is one call of phi on the midpoints of the intervals still
    open.  A panel's accept rule reads only its own interval, so the
    panels are those of a depth-first split on the same phi values; they
    come back sorted.  Every
    open interval ends as at least one panel, so the tree raises
    BudgetExceeded as soon as accepted plus open intervals pass
    _NODE_BUDGET // 28, the panels a 28-point pass may take, before the
    open intervals take more memory."""
    limit = _NODE_BUDGET // 28
    tol = 0.5 * _PHASE_PER_PANEL * h
    coarse, floor = (hi - lo) / 16, max(0.25 * h, (hi - lo) * 2.0 ** -40)
    a, b = np.array([lo]), np.array([hi])
    fa, fb = np.asarray(phi(np.array([lo, hi])), dtype=float).reshape(2, 1)
    starts, accepted = [], 0
    for depth in range(49):
        m = 0.5 * (a + b)
        fm = np.asarray(phi(m), dtype=float)
        resolved = np.maximum(np.abs(fm - fa), np.abs(fb - fm)) <= tol
        width = b - a
        done = (resolved & (width <= coarse)) | (width <= floor) | (depth >= 48)
        starts.append(a[done])
        accepted += np.count_nonzero(done)
        open_ = ~done
        if accepted + 2 * np.count_nonzero(open_) > limit:
            raise BudgetExceeded("oscillatory quadrature node budget hit")
        a, m, b, fa, fm, fb = (v[open_] for v in (a, m, b, fa, fm, fb))
        if not a.size:
            break
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
        fa, fb = np.concatenate((fa, fm)), np.concatenate((fm, fb))
    return np.append(np.sort(np.concatenate(starts)), hi)


def oscillatory_integral(
    sigma: Callable,
    phi: Callable,
    interval: Tuple[float, float],
    h: float,
) -> complex:
    """integral of sigma(x) exp(i phi(x) / h) over the interval.

    Brute-force panel quadrature: panels are sized to keep the phase change
    per panel to a few radians (so a 28-point Gauss rule per panel is exact
    to machine precision), graded down to h/4 in steep-phase regions.  Both
    callables must accept numpy arrays.  Each pass evaluates the panels
    _PANEL_BLOCK at a time, so it holds one block's nodes however many
    panels there are; _NODE_BUDGET caps the panel count, and so the time.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo or h <= 0:
        raise PreconditionViolated("need a non-empty interval and h > 0")
    edges = _panel_edges(phi, lo, hi, h)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])

    def pass_with(n: int) -> complex:
        t, w = _gl(n)
        per = np.empty(len(mids), dtype=complex)  # each panel's Gauss sum
        # a lone last panel joins the block before it (see _PANEL_BLOCK)
        bounds = list(range(0, max(len(mids) - 1, 1), _PANEL_BLOCK)) + [len(mids)]
        for i, j in zip(bounds, bounds[1:]):
            block = slice(i, j)
            xs = (mids[block, None] + halfs[block, None] * t).ravel()
            ph = np.asarray(phi(xs), dtype=float)
            per[block] = (sigma(xs) * np.exp(1j * ph / h)).reshape(-1, n) @ w
        return complex(np.sum(per * halfs))

    coarse = pass_with(20)
    fine = pass_with(28)
    if abs(fine - coarse) > max(QUAD_TOL, 1e-3 * h * h):
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


def stationary_phase(sigma0: complex, phi_jet, m: int, h: float) -> complex:
    """Leading-order value of the oscillatory integral with a single interior
    stationary point of degeneracy m (phi' = ... = phi^(m) = 0 there).

    The one-sided textbook constant is doubled for the two sides of an
    interior stationary point, which reproduces the Fresnel value at m = 1.
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
    try:
        fact = float(math.factorial(m + 1))
    except OverflowError:
        raise PreconditionViolated(f"m = {m} is too large: (m+1)! overflows a float") from None
    dphi = coeffs[m + 1] * fact  # phi^(m+1)(x0)
    if dphi == 0.0:
        raise PreconditionViolated("phi^(m+1)(x0) must not vanish")
    amp = (
        crossing_phase(m, dphi)
        * complex(sigma0)
        * (fact / abs(dphi)) ** (1.0 / (m + 1))
        * math.gamma((m + 2) / (m + 1))
    )
    return 2.0 * amp * np.exp(1j * coeffs[0] / h) * h ** (1.0 / (m + 1))


# --- cached action evaluators -------------------------------------------------


def _clenshaw(c_top, c_next, lower, t):
    """numpy's ``chebval`` recurrence, in its operation order, on the
    coefficients (c[-1], c[-2], then c[-3] down to c[0] in ``lower``) at the
    mapped energy t.  The same code runs on Python floats for one series at
    one energy and on arrays for several series at several energies; both
    give numpy's floats bit for bit."""
    x2 = 2 * t
    c0, c1 = c_next, c_top
    for c in lower:
        c0_plus = c1 * x2
        c0_plus += c0  # in place on arrays: one temporary fewer per step
        c0, c1 = c - c1, c0_plus
    return c0 + c1 * t


def _split(coef):
    """Coefficient rows in the order _clenshaw takes them."""
    return coef[-1], coef[-2], list(coef[-3::-1])


def _outside(E: float, domain: Tuple[float, float]) -> ValueError:
    lo, hi = domain
    return ValueError(f"E = {E:.8g} outside the cached domain [{lo:.8g}, {hi:.8g}]")


@dataclass
class ActionFn:
    """Chebyshev fit of a smooth energy-to-action map over an energy domain,
    with its residual and the number of function evaluations it took.
    A record only: ActionTable evaluates fits and their energy derivatives.
    """

    cheb: Chebyshev
    domain: Tuple[float, float]
    err_estimate: float
    n_nodes: int

    @classmethod
    def build(cls, fn: Callable[[np.ndarray], np.ndarray], domain: Tuple[float, float]) -> "ActionFn":
        """Fit fn, which maps a 1-D array of energies to their values, at each
        degree of _CHEB_DEGREES until the residual is within CACHE_TOL: one
        call of fn at the degree's Chebyshev nodes and one at its probes."""
        lo, hi = domain
        last_err = math.inf
        cheb = None
        nodes = 0
        for deg in _CHEB_DEGREES:
            cheb = Chebyshev.interpolate(fn, deg, domain=[lo, hi])
            nodes += deg + 1
            probe = lo + (hi - lo) * (0.5 + 0.5 * np.cos(np.pi * (np.arange(2 * deg) + 0.5) / (2 * deg)))
            last_err = float(np.max(np.abs(cheb(probe) - fn(probe))))
            nodes += probe.size
            if last_err <= CACHE_TOL:
                break
        if last_err > CACHE_TOL:
            raise QuadratureError(f"action cache residual {last_err:.3e} exceeds {CACHE_TOL:g}")
        return cls(cheb=cheb, domain=(lo, hi), err_estimate=last_err, n_nodes=nodes)


class ActionTable:
    """Values and energy derivatives of action fits over one shared domain,
    evaluated together: with n fits, series j < n is fit j and series n + j
    its energy derivative.

    For several energies the coefficients are stacked column by column,
    zero-padded to the longest series (which changes no bit), and one
    recurrence runs over an (N, series) array.  For one energy the series
    asked for run on Python floats instead: there numpy's per-call
    overhead, three calls per degree, would cost more than the arithmetic.
    Every value is bit-equal to numpy's own Chebyshev evaluation.
    """

    def __init__(self, fits: Sequence[ActionFn]):
        self.domain = fits[0].domain
        if any(fit.domain != self.domain for fit in fits):
            raise ValueError("stacked action fits must share one domain")
        chebs = [fit.cheb for fit in fits]
        chebs += [cheb.deriv() for cheb in chebs]
        # Chebyshev.__call__'s domain map and coefficients as Python floats
        self._map = tuple(float(v) for v in chebs[0].mapparms())
        self._series = [_split(cheb.coef.tolist()) for cheb in chebs]
        coef = np.zeros((max(len(cheb.coef) for cheb in chebs), len(chebs)))
        for j, cheb in enumerate(chebs):
            coef[: len(cheb.coef), j] = cheb.coef
        self._coef = coef
        self._rows = {}  # series count -> _split rows, shaped (1, count)

    def _at(self, E: float, series: Iterable[int]) -> List[float]:
        """Values of the given series at the one real energy E."""
        lo, hi = self.domain
        if not (lo - 1e-12 <= E <= hi + 1e-12):
            raise _outside(E, self.domain)
        off, scl = self._map
        t = off + scl * float(E)
        return [_clenshaw(*self._series[j], t) for j in series]

    def __call__(self, E: np.ndarray, count: Optional[int] = None) -> np.ndarray:
        """Values of the first ``count`` series (all by default) at the real
        energies E, as an (N, count) array."""
        count = len(self._series) if count is None else count
        if len(E) == 1:
            return np.array([self._at(E[0], range(count))])
        lo, hi = self.domain
        inside = (lo - 1e-12 <= E) & (E <= hi + 1e-12)
        if not inside.all():
            raise _outside(float(E[~inside][0]), self.domain)
        off, scl = self._map
        rows = self._rows.get(count)
        if rows is None:
            rows = self._rows[count] = _split(self._coef[:, None, :count])
        return _clenshaw(*rows, (off + scl * E)[:, None])
