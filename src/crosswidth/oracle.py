"""Direct resonance computation by exterior complex scaling and shooting.

Ground truth for the semiclassical predictions: the coupled system is
integrated along a contour that runs on the real axis inside [-R0, R0]
and along rays rotated by theta outside.  On the rotated rays the
outgoing waves decay, so resonances become zeros of a 4x4 matching
determinant between the admissible solution pairs shot inward from the
two ends.  The shooting ODE is linear, y' = A(t; E) y, so it is stepped
with the 4th-order Magnus integrator on fixed steps (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470 (2009)): every step propagator of a checkpoint chunk
is built and exponentiated at once, then multiplied out by pairwise
reduction.  The admissible pair is re-orthonormalized at checkpoints
(Godunov shooting) so the two columns never collapse onto the common
growing direction in classically forbidden stretches; the triangular
factors are kept so the resonant state can be reconstructed segment by
segment for the Green-identity width.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
# solve_ivp is unused here, but perfbench/tracer.py wraps oracle.solve_ivp
from scipy.integrate import simpson, solve_ivp  # noqa: F401

from .model import Problem, StructureReport

__all__ = [
    "BadContour",
    "Contour",
    "OracleResonance",
    "StepUnderflow",
    "PolesOnContour",
    "NotConverged",
    "ThetaDependent",
    "InsufficientData",
    "default_contour",
    "propagate",
    "MatchingProblem",
    "refine_resonance",
    "width_from_state",
    "exponent_fit",
]


class BadContour(ValueError):
    """The contour parameters theta, R0 or X are out of range."""


class StepUnderflow(Exception):
    pass


class PolesOnContour(Exception):
    pass


class NotConverged(Exception):
    pass


class ThetaDependent(Exception):
    pass


class InsufficientData(ValueError):
    pass


@dataclass(frozen=True)
class Contour:
    """Sharp-cornered exterior-scaling contour: identity on [-R0, R0],
    rays at angle theta beyond, truncated at parameter +/- X."""

    R0: float
    theta: float
    X: float

    def __post_init__(self):
        if not (math.isfinite(self.X) and self.X > self.R0 > 0):
            raise BadContour(f"contour needs finite X > R0 > 0, got R0 = {self.R0!r}, X = {self.X!r}")
        _check_theta(self.theta)

    def z(self, t: float) -> complex:
        if t > self.R0:
            return self.R0 + (t - self.R0) * cmath.exp(1j * self.theta)
        if t < -self.R0:
            return -self.R0 + (t + self.R0) * cmath.exp(1j * self.theta)
        return complex(t)

    def pieces_from(self, end: str) -> List[Tuple[float, float]]:
        if end == "left":
            return [(-self.X, -self.R0), (-self.R0, 0.0)]
        if end == "right":
            return [(self.X, self.R0), (self.R0, 0.0)]
        raise ValueError("end must be 'left' or 'right'")


def _check_theta(theta: float) -> None:
    if not (0 < abs(theta) < math.pi / 2):
        raise BadContour(f"theta must lie in (0, pi/2) up to sign, got {theta!r}")


@dataclass(frozen=True)
class OracleResonance:
    E: complex
    residual: float
    h: float
    seed: complex
    theta_shift: Optional[float] = None


def default_contour(p: Problem, report: StructureReport, h: float, theta: float = 0.3,
                    R0: Optional[float] = None, X: Optional[float] = None) -> Contour:
    """Contour wide enough to contain the well and all crossings on the real
    part, with rays long enough that every closed-channel solution decays by
    e^-30 before truncation."""
    _check_theta(theta)
    if R0 is None:
        extent = max(abs(report.a0.x), abs(report.b0.x), max(abs(c.x) for c in report.crossings))
        R0 = extent + 1.5
    if X is None:
        # closed channels must decay by e^-30 before truncation; open
        # channels only need the outgoing/incoming split to separate on the
        # ray, so they get a lighter e^-12 requirement
        needs = [0.0]
        for w in p.window:
            for vfn in (p.v1_np, p.v2_np):
                v = float(vfn(np.array([w]))[0])
                if v > p.e0:
                    needs.append(30.0 * h / (math.cos(theta) * math.sqrt(v - p.e0)))
                else:
                    needs.append(12.0 * h / (math.sin(theta) * math.sqrt(p.e0 - v)))
        ray = min(max(max(needs), 3.0), 20.0)
        X = R0 + ray
    c = Contour(R0=R0, theta=theta, X=X)
    _pole_check(p, c)
    return c


def _pole_check(p: Problem, c: Contour, samples: int = 512):
    z = np.array([c.z(float(t)) for t in np.linspace(-c.X, c.X, samples)])
    with np.errstate(all="ignore"):
        w = np.array([np.broadcast_to(fn(z), z.shape) for fn in p.coeffs_np])
    bad = (~np.isfinite(w) | (np.abs(w) > 1e8)).any(axis=0)
    if bad.any():
        raise PolesOnContour(f"coefficient blows up at contour point {z[np.argmax(bad)]:.4g}")


def _initial_pair(p: Problem, E: complex, c: Contour, end: str) -> np.ndarray:
    """Leading WKB data of the two admissible waves at a contour end:
    decaying for a closed channel, outgoing for an open one.  Errors lie in
    the inward-decaying directions, so the admissible span is unaffected."""
    v1, v2, _, _, _ = p.coeffs_np
    t0 = -c.X if end == "left" else c.X
    z0 = c.z(t0)
    kappa1 = cmath.sqrt(complex(v1(z0)) - E)
    if kappa1.real < 0:
        kappa1 = -kappa1
    v2e = complex(v2(z0))
    open2 = v2e.real < E.real
    pair = np.zeros((4, 2), dtype=complex)
    sgn = 1.0 if end == "left" else -1.0
    # a negative rotation is the Schwarz reflection of a positive one: the
    # admissible open-channel wave is then the conjugate (time-reversed) one
    wave = -1j if c.theta > 0 else 1j
    pair[0, 0], pair[1, 0] = 1.0, sgn * kappa1
    if open2:
        k2 = cmath.sqrt(E - v2e)
        pair[2, 1], pair[3, 1] = 1.0, sgn * wave * k2
    else:
        kappa2 = cmath.sqrt(v2e - E)
        if kappa2.real < 0:
            kappa2 = -kappa2
        pair[2, 1], pair[3, 1] = 1.0, sgn * kappa2
    return pair


@dataclass
class _Segment:
    t0: float
    t1: float
    on_ray: bool
    R: Optional[np.ndarray]  # triangular factor applied at t1 (None on the last)
    dense: Optional[Tuple[np.ndarray, np.ndarray]]  # (ts, pair values 8 x N)


@dataclass
class PairTrack:
    """Admissible solution pair shot inward from one end, orthonormalized at
    checkpoints; ``final`` is the 4x2 block at t = 0."""

    final: np.ndarray
    segments: List[_Segment] = field(default_factory=list)

    def state_on_core(self, coeff: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Values of the combination (final @ coeff) on the stored core grid.

        Walking outward, the pair on segment k ends as Q_k R_k (the basis the
        next segment started from), so the combination's coefficients there
        are R_k^{-1} times the inner ones; the triangular solves shrink the
        coefficients going outward, which is numerically stable.
        """
        ts_all, ws_all = [], []
        c = np.asarray(coeff, dtype=complex)
        for k in range(len(self.segments) - 1, -1, -1):
            seg = self.segments[k]
            if seg.dense is not None:
                ts, ys = seg.dense
                w = ys[0:4, :] * c[0] + ys[4:8, :] * c[1]
                ts_all.append(ts)
                ws_all.append(w)
            if k > 0 and self.segments[k - 1].R is not None:
                c = np.linalg.solve(self.segments[k - 1].R, c)
        ts = np.concatenate(list(reversed(ts_all))) if ts_all else np.array([])
        ws = np.concatenate(list(reversed(ws_all)), axis=1) if ws_all else np.zeros((4, 0))
        return ts, ws


def _split(t0: float, t1: float, seg_len: float) -> List[Tuple[float, float]]:
    n = max(1, int(math.ceil(abs(t1 - t0) / seg_len)))
    ts = np.linspace(t0, t1, n + 1)
    return list(zip(ts[:-1], ts[1:]))


# Gauss-Legendre nodes of a Magnus step, as fractions of the step
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# largest 1-norm that _expm exponentiates without scaling and squaring
_EXPM_THETA = 0.5


def _expm(X: np.ndarray) -> np.ndarray:
    """exp of every matrix of an (N, n, n) stack of finite matrices.

    One scaling by 2^-s brings the largest 1-norm theta of the stack to at
    most _EXPM_THETA; the Taylor series is cut where the bound
    theta^(m+1)/(m+1)! on its remainder falls below the unit roundoff,
    summed by Horner's rule in X^2 (about m/2 products instead of m), and
    squared s times.  Every stage is one numpy call over the whole stack
    (scipy.linalg.expm loops over the matrices in Python).
    """
    eye = np.eye(X.shape[-1])
    theta = float(np.abs(X).sum(axis=-2).max(initial=0.0))
    s = math.ceil(math.log2(theta / _EXPM_THETA)) if theta > _EXPM_THETA else 0
    X = X * 2.0**-s
    theta *= 2.0**-s
    m, bound = 1, theta * theta / 2.0
    while bound > 2.0**-53:
        m += 1
        bound *= theta / (m + 1)
    coef = [1.0 / math.factorial(k) for k in range(m + 1)] + [0.0]
    top = m - m % 2
    X2 = X @ X
    E = coef[top] * eye + coef[top + 1] * X
    for j in range(top // 2 - 1, -1, -1):
        E = coef[2 * j] * eye + coef[2 * j + 1] * X + X2 @ E
    for _ in range(s):
        E = E @ E
    return E


def _product(M: np.ndarray) -> np.ndarray:
    """M[-1] @ ... @ M[0], multiplied out pairwise."""
    while len(M) > 1:
        head = M[1::2] @ M[:-1:2]
        M = np.concatenate([head, M[-1:]]) if len(M) % 2 else head
    return M[0]


def _prefix_products(M: np.ndarray) -> np.ndarray:
    """C[k] = M[k] @ ... @ M[0] for every k (Hillis-Steele scan)."""
    C = M.copy()
    k = 1
    while k < len(C):
        C[k:] = C[k:] @ C[:-k]
        k *= 2
    return C


def _step_ends(t0: float, stops: np.ndarray, dt_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """Step ends from t0 through each of ``stops`` in turn, with equal steps
    of at most dt_max between consecutive stops, and the number of steps
    taken up to each stop."""
    bounds = np.concatenate([[t0], stops])
    counts = np.ceil(np.abs(np.diff(bounds)) / dt_max).astype(int)
    upto = np.cumsum(counts)
    j = np.arange(1, upto[-1] + 1)
    k = np.searchsorted(upto, j)
    frac = (j - upto[k] + counts[k]) / counts[k]
    return np.concatenate([[t0], bounds[k] + frac * (bounds[k + 1] - bounds[k])]), upto


def _step_propagators(p: Problem, E: complex, h: float, ts: np.ndarray,
                      z0: complex, phi: complex) -> np.ndarray:
    """exp(Omega) of the 4th-order Magnus step between each pair of
    consecutive ``ts`` on the straight contour piece z = z0 + phi (t - ts[0]),
    where the shooting ODE reads y' = phi A(z) y:
    Omega = dt/2 (A1 + A2) + sqrt(3)/12 dt^2 [A2, A1] at the Gauss nodes."""
    dt = np.diff(ts)
    z = z0 + phi * (ts[:-1, None] + dt[:, None] * _GAUSS - ts[0])
    v1, v2, r0, r1, r1p = (np.broadcast_to(fn(z), z.shape) for fn in p.coeffs_np)
    A = np.zeros(z.shape + (4, 4), dtype=complex)
    A[..., 0, 1] = A[..., 2, 3] = 1.0 / h
    A[..., 1, 0] = (v1 - E) / h
    A[..., 1, 2] = r0
    A[..., 1, 3] = r1
    A[..., 3, 0] = r0 - h * r1p
    A[..., 3, 1] = -r1
    A[..., 3, 2] = (v2 - E) / h
    A1, A2 = phi * A[:, 0], phi * A[:, 1]
    dt = dt[:, None, None]
    omega = 0.5 * dt * (A1 + A2) + (math.sqrt(3.0) / 12.0) * dt * dt * (A2 @ A1 - A1 @ A2)
    if not np.all(np.isfinite(omega.view(float))):
        raise StepUnderflow("shooting coefficients lost finiteness")
    return _expm(omega)


def propagate(p: Problem, E: complex, h: float, c: Contour, from_end: str,
              ode_tol: float = 1e-12, t_eval_core: Optional[np.ndarray] = None) -> PairTrack:
    """Shoot the admissible pair from one contour end to t = 0 with
    re-orthonormalization checkpoints.

    Fixed 4th-order Magnus steps of at most dt = (h/24) (ode_tol/1e-12)^(1/4):
    the global error scales like (dt/h)^4, so it follows ode_tol.  With
    ``t_eval_core``, steps on the undeformed core also end on those points
    and the pair is recorded there.  Checkpoint spacing keeps the growth
    between orthonormalizations small enough that both directions of the
    admissible span survive roundoff.
    """
    E = complex(E)
    seg_len = min(1.5, max(40.0 * h, 0.3))
    dt_max = h / 24.0 * (ode_tol / 1e-12) ** 0.25
    pair = _initial_pair(p, E, c, from_end)
    track = PairTrack(final=pair)
    chunks: List[Tuple[float, float, bool]] = []
    for (t0, t1) in c.pieces_from(from_end):
        on_ray = abs(t0) > c.R0
        for a, b in _split(t0, t1, seg_len):
            chunks.append((a, b, on_ray))
    for idx, (t0, t1, on_ray) in enumerate(chunks):
        phi = cmath.exp(1j * c.theta) if on_ray else 1.0 + 0j
        want_dense = t_eval_core is not None and not on_ray
        stops = np.array([t1])
        if want_dense:
            lo, hi = min(t0, t1), max(t0, t1)
            sel = t_eval_core[(t_eval_core >= lo) & (t_eval_core <= hi)]
            stops = sel if t1 > t0 else sel[::-1]
            if stops.size == 0 or stops[-1] != t1:
                stops = np.append(stops, t1)
        ts, upto = _step_ends(t0, stops, dt_max)
        M = _step_propagators(p, E, h, ts, c.z(t0), phi)
        dense = None
        if want_dense:
            states = np.concatenate([np.eye(4)[None], _prefix_products(M)])[upto] @ pair
            dense = (stops, states.transpose(2, 1, 0).reshape(8, -1))
            pair = states[-1]
        else:
            pair = _product(M) @ pair
        if not np.all(np.isfinite(pair.view(float))):
            raise StepUnderflow("propagated state lost finiteness")
        R = None
        if idx < len(chunks) - 1:
            pair, R = np.linalg.qr(pair)
        track.segments.append(_Segment(t0=t0, t1=t1, on_ray=on_ray, R=R, dense=dense))
    track.final = pair
    return track


class MatchingProblem:
    """Matching determinant W(E) between the two admissible pairs at t = 0,
    with column scales frozen at the first evaluation so root iterations
    see a smooth function whose zeros are the resonances."""

    def __init__(self, p: Problem, h: float, contour: Contour, ode_tol: float = 1e-12):
        self.p = p
        self.h = h
        self.contour = contour
        self.ode_tol = ode_tol
        self._scales: Optional[np.ndarray] = None

    def W(self, E: complex) -> complex:
        A = np.column_stack([propagate(self.p, E, self.h, self.contour, end, self.ode_tol).final
                             for end in ("left", "right")])
        if self._scales is None:
            self._scales = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
        return complex(np.linalg.det(A / self._scales[None, :]))


def _muller(f, x0: complex, x1: complex, x2: complex, tol: float, maxit: int = 60):
    f0, f1, f2 = f(x0), f(x1), f(x2)
    for it in range(1, maxit + 1):
        q = (x2 - x1) / (x1 - x0)
        a = q * f2 - q * (1 + q) * f1 + q * q * f0
        b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
        cc = (1 + q) * f2
        disc = cmath.sqrt(b * b - 4 * a * cc)
        den1, den2 = b + disc, b - disc
        den = den1 if abs(den1) >= abs(den2) else den2
        if den == 0:
            raise NotConverged("degenerate Muller step")
        step = -(x2 - x1) * (2 * cc / den)
        x3 = x2 + step
        if abs(step) <= tol:
            return x3, f(x3), it
        x0, x1, x2 = x1, x2, x3
        f0, f1, f2 = f1, f2, f(x3)
    raise NotConverged(f"Muller did not reach |dE| <= {tol:g} in {maxit} steps")


def refine_resonance(p: Problem, seed: complex, h: float, c: Contour, m0: int,
                     ode_tol: float = 1e-12, check_theta: bool = False) -> OracleResonance:
    """Polish a resonance from a semiclassical seed by Muller iteration on
    the matching determinant.  With ``check_theta`` the converged value is
    recomputed on a contour rotated by +0.05 and must agree to 1e-3
    relative in the imaginary part."""
    scale = h ** ((m0 + 3.0) / (m0 + 1.0))
    tol = max(1e-14, 1e-6 * scale)
    # start spread well below the oscillation scale of W in E (set by the
    # contour length over h) so Muller's quadratic model is trustworthy
    spread = max(1e-10, min(0.05 * scale, 0.02 * h * h / (c.X / 10.0)))
    mp = MatchingProblem(p, h, c, ode_tol)
    seed = complex(seed)

    def polish(start: complex):
        starts = (start, start - 1j * spread, start + spread * (0.5 - 0.5j))
        return _muller(mp.W, *starts, tol=tol)

    try:
        root, wval, _ = polish(seed)
    except NotConverged:
        # the zero's basin (radius ~ h over the contour's phase winding) can
        # be smaller than the seed error at the largest h; locate the basin
        # by a coarse scan of |W| around the seed first
        span = 8.0 * max(0.15 * scale, 4.0 * spread)
        offsets = np.linspace(-span, span, 49)
        vals = [abs(mp.W(seed + complex(d))) for d in offsets]
        best = seed + complex(offsets[int(np.argmin(vals))])
        root, wval, _ = polish(best)
    res = OracleResonance(E=root, residual=abs(wval), h=h, seed=seed)
    if check_theta:
        c2 = Contour(R0=c.R0, theta=c.theta + 0.05, X=c.X)
        mp2 = MatchingProblem(p, h, c2, ode_tol)
        root2, _, _ = _muller(mp2.W, root, root - 1j * spread * 0.3,
                              root + spread * (0.15 - 0.15j), tol=tol)
        rel = abs(root2.imag - root.imag) / max(abs(root.imag), 1e-300)
        if rel > 1e-3:
            raise ThetaDependent(f"Im shifted by {rel:.2e} under a theta change")
        res = OracleResonance(E=root, residual=abs(wval), h=h, seed=seed,
                              theta_shift=rel)
    return res


def width_from_state(p: Problem, E: complex, h: float, c: Contour, x1: float, x2: float,
                     ode_tol: float = 1e-12) -> float:
    """Green-identity width estimate from the matched resonant state:
    Im z = h^2 Im[-v1' conj(v1) - v2' conj(v2) + r1 v2 conj(v1)]_{x1}^{x2}
    normalized by the L2 norm of the state on [x1, x2] (x1 < a0 < b0 < x2)."""
    if not (-c.R0 < x1 < x2 < c.R0):
        raise BadContour(f"contour core [-R0, R0] with R0 = {c.R0!r} must contain "
                         f"[x1, x2] = [{x1!r}, {x2!r}]")
    step = h / 16.0
    ts_l = np.linspace(x1, 0.0, max(int(abs(x1) / step), 32) + 1)
    ts_r = np.linspace(0.0, x2, max(int(abs(x2) / step), 32) + 1)
    L = propagate(p, E, h, c, "left", ode_tol, t_eval_core=ts_l)
    R = propagate(p, E, h, c, "right", ode_tol, t_eval_core=ts_r)
    A = np.column_stack([L.final, R.final])
    scales = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
    _, sing, vh = np.linalg.svd(A / scales[None, :])
    nvec = vh[-1].conj() / scales
    t_l, w_l = L.state_on_core(nvec[0:2])
    t_r, w_r = R.state_on_core(-nvec[2:4])
    order_l = np.argsort(t_l)
    order_r = np.argsort(t_r)
    t_l, w_l = t_l[order_l], w_l[:, order_l]
    t_r, w_r = t_r[order_r], w_r[:, order_r]
    r1fn = p.coeffs_np[3]

    def boundary(w: np.ndarray, x: float) -> complex:
        y1, y2, y3, y4 = w
        return -h * y2 * np.conj(y1) - h * y4 * np.conj(y3) + h * h * r1fn(x) * y3 * np.conj(y1)

    g2 = boundary(w_r[:, -1], float(t_r[-1]))
    g1 = boundary(w_l[:, 0], float(t_l[0]))
    dens_l = np.abs(w_l[0, :]) ** 2 + np.abs(w_l[2, :]) ** 2
    dens_r = np.abs(w_r[0, :]) ** 2 + np.abs(w_r[2, :]) ** 2
    norm2 = float(simpson(dens_l, x=t_l) + simpson(dens_r, x=t_r))
    return float((g2 - g1).imag) / norm2


def exponent_fit(h_list: Sequence[float], im_list: Sequence[float]):
    """Least-squares slope of log|Im| against log h; returns
    (slope, intercept, r_squared)."""
    if len(h_list) < 4 or len(h_list) != len(im_list):
        raise InsufficientData("need at least 4 matched (h, Im) pairs")
    if any(v == 0 for v in im_list):
        raise InsufficientData("zero width in the fit data")
    x = np.log(np.asarray(h_list, dtype=float))
    y = np.log(np.abs(np.asarray(im_list, dtype=float)))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)
