"""Direct resonance computation by exterior complex scaling and shooting.

Ground truth for the semiclassical predictions: the coupled system is
integrated along a contour that runs on the real axis inside [-R0, R0]
and along rays rotated by theta outside.  On the rotated rays the
outgoing waves decay, so resonances become zeros of a 4x4 matching
determinant between the admissible solution pairs shot inward from the
two ends.  The shooting ODE is linear, y' = A(t; E) y, so it is stepped
with the 6th-order Magnus integrator on three Gauss nodes and fixed steps
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009), arXiv:0810.5488).
propagate shoots one checkpoint chunk at a time.  The matching
determinant W, which a root search evaluates about nine times, lays the
checkpoint chunks of its shooting plan out as one padded grid of steps
(_Stack: a row per chunk, Omega = 0 on the padding), and the step
propagators of a slice of rows are exponentiated and multiplied out
together, by pairwise reduction, in workspaces that every slice reuses.
E enters A only through its two potential entries, alike at every node,
so each step's Magnus Omega is an exact cubic in E: a MatchingProblem
builds the cubic's coefficients for every step once, and each W(E) sums
them by Horner's rule before exponentiating.  The step stacks are held as
(4, 4, ..., steps) arrays with the step index last and contiguous, and
multiplied by broadcast products over that axis (_mm): numpy's ``@`` on
an (N, 4, 4) stack spends most of its time in per-matrix overhead on
blocks this small, and each numpy call has a fixed overhead, which a
slice of several chunks pays once.  The admissible pair is
re-orthonormalized at checkpoints (Godunov shooting) so the two columns
never collapse onto the common growing direction in classically
forbidden stretches; the triangular factors are kept so the resonant
state can be reconstructed chunk by chunk for the Green-identity width.
That width is taken on the MatchingProblem that refined the root: its
last W(E), at the root, has already multiplied out the chunks of the
contour rays, which the Green-identity shooting shares, so only the core
chunks are shot again, one at a time as propagate shoots them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, NumericalFailure
from .model import Problem, StructureReport

# the ODE counter of perfbench/tracer.py wraps this name; the oracle steps
# with its own Magnus propagator and never calls it
solve_ivp = None

__all__ = [
    "THETA",
    "BadContour",
    "Contour",
    "OracleResonance",
    "StepUnderflow",
    "TooManySteps",
    "PolesOnContour",
    "NotConverged",
    "InsufficientData",
    "default_contour",
    "propagate",
    "MatchingProblem",
    "refine_resonance",
    "simpson",
    "width_from_state",
    "exponent_fit",
]


class BadContour(InputError, ValueError):
    """The contour parameters theta, R0 or X are out of range."""


class StepUnderflow(NumericalFailure):
    pass


class PolesOnContour(NumericalFailure):
    pass


class NotConverged(NumericalFailure):
    pass


class InsufficientData(NumericalFailure, ValueError):
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
        if not (0 < abs(self.theta) < math.pi / 2):
            raise BadContour(f"theta must lie in (0, pi/2) up to sign, got {self.theta!r}")

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


@dataclass(frozen=True)
class OracleResonance:
    E: complex
    residual: float


# the exterior-scaling angle of default_contour; the resonances do not
# depend on it
THETA = 0.3


def default_contour(p: Problem, report: StructureReport, h: float) -> Contour:
    """Contour wide enough to contain the well and all crossings on the real
    part (R0 is 1.5 past the farthest of them), with rays at angle THETA
    long enough that every closed-channel solution decays by e^-30 before
    truncation (X - R0 is that length, clamped to [3, 20])."""
    extent = max(abs(report.a0.x), abs(report.b0.x), max(abs(c.x) for c in report.crossings))
    R0 = extent + 1.5
    # closed channels must decay by e^-30 before truncation; open channels
    # only need the outgoing/incoming split to separate on the ray, so they
    # get a lighter e^-12 requirement
    needs = [0.0]
    for w in p.window:
        for vfn in (p.v1_np, p.v2_np):
            v = float(vfn(np.array([w]))[0])
            if v > p.e0:
                needs.append(30.0 * h / (math.cos(THETA) * math.sqrt(v - p.e0)))
            else:
                needs.append(12.0 * h / (math.sin(THETA) * math.sqrt(p.e0 - v)))
    X = R0 + min(max(max(needs), 3.0), 20.0)
    c = Contour(R0=R0, theta=THETA, X=X)
    _pole_check(p, c)
    return c


# contour points where _pole_check samples the coefficients
_POLE_SAMPLES = 512


def _pole_check(p: Problem, c: Contour):
    z = np.array([c.z(float(t)) for t in np.linspace(-c.X, c.X, _POLE_SAMPLES)])
    with np.errstate(all="ignore"):
        w = np.array([fn(z) for fn in p.coeffs_np])
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
class PairTrack:
    """Admissible solution pair shot inward from one end, orthonormalized at
    checkpoints; ``final`` is the 4x2 block at t = 0.  ``chunks`` holds, per
    checkpoint chunk in shooting order, the triangular factor R taken at its
    end (None on the last) and the recorded values (ts, pair values 8 x N),
    or None where the pair is not recorded."""

    final: np.ndarray
    chunks: List[tuple] = field(default_factory=list)

    def state_on_core(self, coeff: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Values of the combination (final @ coeff) on the recorded grid.

        Walking outward, the pair on chunk k ends as Q_k R_k (the basis the
        next chunk started from), so the combination's coefficients there
        are R_k^{-1} times the inner ones; the triangular solves shrink the
        coefficients going outward, which is numerically stable.
        """
        ts_all, ws_all = [], []
        c = np.asarray(coeff, dtype=complex)
        for R, recorded in reversed(self.chunks):
            if R is not None:
                c = np.linalg.solve(R, c)
            if recorded is not None:
                ts, ys = recorded
                w = ys[0:4, :] * c[0] + ys[4:8, :] * c[1]
                ts_all.append(ts)
                ws_all.append(w)
        ts = np.concatenate(list(reversed(ts_all))) if ts_all else np.array([])
        ws = np.concatenate(list(reversed(ws_all)), axis=1) if ws_all else np.zeros((4, 0))
        return ts, ws


def _n_chunks(t0: float, t1: float, seg_len: float) -> int:
    return max(1, math.ceil(abs(t1 - t0) / seg_len))


def _split(t0: float, t1: float, seg_len: float) -> List[Tuple[float, float]]:
    ts = np.linspace(t0, t1, _n_chunks(t0, t1, seg_len) + 1)
    return list(zip(ts[:-1], ts[1:]))


# Gauss-Legendre nodes of a Magnus step, as fractions of the step
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
# largest 1-norm that _expm exponentiates without scaling and squaring
_EXPM_THETA = 0.5


def _mm(A: np.ndarray, B: np.ndarray, out: Optional[np.ndarray] = None,
        tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """A @ B for every step of two (n, n, ...) stacks, steps on the
    trailing axes.

    Accumulated over the inner index, C = sum_k A[:, k] B[k, :], so each
    numpy call is a broadcast product over the contiguous step axis and
    every temporary is the size of C.  C goes into ``out`` and each term
    into ``tmp``; either is allocated when not given."""
    C = np.multiply(A[:, 0, None], B[None, 0], out=out)
    for k in range(1, A.shape[1]):
        C += np.multiply(A[:, k, None], B[None, k], out=tmp)
    return C


def _comm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX for every step of two step-last stacks."""
    C = _mm(X, Y)
    C -= _mm(Y, X)
    return C


def _expm(X: np.ndarray, work: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    """exp of every matrix of an (n, n, ...) stack of finite matrices, with
    the matrices on the trailing axes.

    One scaling by 2^-s brings the largest 1-norm theta of the stack to at
    most _EXPM_THETA; the Taylor series is cut where the bound
    theta^(m+1)/(m+1)! on its remainder falls below the unit roundoff,
    summed by Horner's rule in X^2 (about m/2 products instead of m), and
    squared s times.  Every stage is a few numpy calls over the whole stack
    (scipy.linalg.expm loops over the matrices in Python), and a stack of
    zeros gives exactly I.  The stack is step-last because numpy's ``@`` on
    an (N, 4, 4) stack pays a per-matrix overhead that dominates a 4x4
    product; _mm instead multiplies whole stacks elementwise.  Every stage
    writes into ``work``, four arrays shaped like X, and X is scaled in
    place; without it X is copied and the four are allocated.  The result
    is one of the four.
    """
    if work is None:
        X = X.copy()
        work = [np.empty_like(X) for _ in range(4)]
    X2, E, T, tmp = work
    theta = float(np.abs(X, out=tmp.real).sum(axis=0).max(initial=0.0))
    s = math.ceil(math.log2(theta / _EXPM_THETA)) if theta > _EXPM_THETA else 0
    if s:
        X *= 2.0**-s
        theta *= 2.0**-s
    m, bound = 1, theta * theta / 2.0
    while bound > 2.0**-53:
        m += 1
        bound *= theta / (m + 1)
    coef = [1.0 / math.factorial(k) for k in range(m + 1)] + [0.0]
    top = m - m % 2
    eye = np.eye(X.shape[0]).reshape(X.shape[:2] + (1,) * (X.ndim - 2))
    _mm(X, X, X2, tmp)
    np.multiply(X, coef[top + 1], out=E)
    E += coef[top] * eye
    for j in range(top // 2 - 1, -1, -1):
        _mm(X2, E, T, tmp)
        T += np.multiply(X, coef[2 * j + 1], out=tmp)
        T += coef[2 * j] * eye
        E, T = T, E
    for _ in range(s):
        _mm(E, E, T, tmp)
        E, T = T, E
    return E


def _take(buf: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """The front of the flat buffer ``buf`` as a C-contiguous array of
    ``shape``: numpy's broadcast products run about twice as fast into
    contiguous arrays as into strided views of a larger one."""
    return buf[:math.prod(shape)].reshape(shape)


def _product(M: np.ndarray, work: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    """M[..., -1] @ ... @ M[..., 0] over the last axis of a step-last
    stack, multiplied out pairwise.

    Each level is written into ``work``, three flat buffers of at least
    M.size entries (allocated when not given); M is left as it is.
    Identities appended to the last axis leave the product bit for bit
    unchanged: each level then holds the unpadded level's matrices first
    and identities after them."""
    if work is None:
        work = [np.empty(M.size, dtype=M.dtype) for _ in range(3)]
    a, b, tmp = work
    while M.shape[-1] > 1:
        n = M.shape[-1]
        half = n // 2
        head = _take(a, M.shape[:-1] + (n - half,))
        _mm(M[..., 1::2], M[..., :-1:2], head[..., :half], _take(tmp, M.shape[:-1] + (half,)))
        if n % 2:
            head[..., half] = M[..., -1]
        M, a, b = head, b, a
    return M[..., 0]


# Magnus steps per unit of h: the steps of a shooting plan are at most
# h / _STEPS_PER_H long, and the global error scales like (dt/h)^6.  The
# Simpson rule of the Green-identity width on the recorded steps errs like
# (dt/h)^4; at h/6 that moves the width by at most 1.1e-10 relative against
# steps of h/16 on the shipped sweeps
_STEPS_PER_H = 6.0
# most padded Magnus steps one shooting plan may hold in W's _Stack, as
# _padded_steps bounds them before any chunk exists.  MatchingProblem
# caches at most three (4, 4) complex Omega coefficients per padded step
# (_Stack.cubic), 768 B, so 2^18 steps hold at most 192 MiB.  Its five
# (4, 4) complex workspaces, 256 B per step each, span one slice of
# max(_SLICE_STEPS, L) steps, where L, the longest chunk, is at most a
# quarter of the padded steps (each end has at least two chunks); they add
# at most 80 MiB, about 272 MiB in all.  propagate holds one chunk's steps
# at a time
_MAX_STEPS = 2**18
# padded Magnus steps in one slice of a _Stack, exponentiated and multiplied
# out together in five (4, 4, rows, L) workspaces of 256 B per step
_SLICE_STEPS = 1024
# padded Magnus steps of one slice of the Omega cubic's build
# (_Stack.cubic), whose temporaries are allocated afresh: this keeps each
# within glibc's 128 KiB mmap threshold, above which it would be
# page-faulted anew on every build
_BUILD_STEPS = 512


class TooManySteps(InputError, ValueError):
    """h is so small that the shooting plan exceeds _MAX_STEPS padded
    Magnus steps."""


@dataclass(frozen=True)
class _Chunk:
    """One checkpoint chunk of a shooting plan: the straight contour piece
    z = z0 + phi (t - t0) from t0 to t1 in n_steps equal Magnus steps; the
    pair is recorded at the step ends of a ``record`` chunk."""

    t0: float
    t1: float
    z0: complex
    phi: complex
    n_steps: int
    record: bool

    def steps(self) -> np.ndarray:
        """The step ends t0 + (j / n_steps)(t1 - t0), j = 0 .. n_steps."""
        return self.t0 + np.arange(self.n_steps + 1) / self.n_steps * (self.t1 - self.t0)


def _padded_steps(c: Contour, seg_len: float, dt_max: float, ends: Sequence[str]) -> int:
    """An upper bound on the padded Magnus steps of the chunks of ``ends``
    laid out as one _Stack, as W lays them out: the number of chunks times
    the steps of the longest, counted from the piece lengths alone.  The
    chunks that _split cuts from one piece are equally long up to
    linspace's rounding, which can take a chunk one step past its length
    over dt_max, so each is counted one step longer."""
    pieces = [piece for end in ends for piece in c.pieces_from(end)]
    counts = [_n_chunks(t0, t1, seg_len) for t0, t1 in pieces]
    longest = max(math.ceil(abs(t1 - t0) / n / dt_max) + 1 for (t0, t1), n in zip(pieces, counts))
    return sum(counts) * longest


def _plan(c: Contour, h: float, ends: Sequence[str], cut: Optional[float] = None) -> List[List[_Chunk]]:
    """The checkpoint chunks of the shooting from each of ``ends`` to t = 0.

    Fixed 6th-order Magnus steps of at most h / _STEPS_PER_H.  With
    ``cut``, a point of the core, the core piece is split there, and each
    chunk of the stretch from the cut to t = 0 is stepped in an even number
    of equal steps (Simpson's panels) and recorded.  The ray chunks do not
    depend on ``cut``: every plan of an end shares them with W's.
    Checkpoints seg_len = min(1.5, 40 h) apart keep the growth between
    orthonormalizations small enough that both directions of the
    admissible span survive roundoff.  Before any chunk exists, the padded
    steps of W's _Stack over all ``ends`` are bounded (_padded_steps), and
    more than _MAX_STEPS of them raise TooManySteps; the recorded stretch
    is not counted, as propagate holds one chunk at a time.
    """
    seg_len = min(1.5, 40.0 * h)
    dt = h / _STEPS_PER_H
    total = _padded_steps(c, seg_len, dt, ends)
    if total > _MAX_STEPS:
        raise TooManySteps(f"h = {h!r} needs {total} padded Magnus steps on the oracle contour, "
                           f"more than the {_MAX_STEPS} (2^18) the oracle takes")
    plans = []
    for end in ends:
        ray, (r, _) = c.pieces_from(end)
        pieces = [(ray, False), ((r, 0.0 if cut is None else cut), False)]
        if cut is not None:
            pieces.append(((cut, 0.0), True))
        chunks = []
        for (t0, t1), record in pieces:
            phi = cmath.exp(1j * c.theta) if abs(t0) > c.R0 else 1.0 + 0j
            for a, b in _split(t0, t1, seg_len):
                if record:  # even, so that no pair of Simpson's steps straddles two chunks
                    n_steps = 2 * max(1, math.ceil(abs(b - a) / (2.0 * dt)))
                else:
                    n_steps = math.ceil(abs(b - a) / dt)
                chunks.append(_Chunk(a, b, c.z(a), phi, n_steps, record))
        plans.append(chunks)
    return plans


def _alphas(p: Problem, E: complex, h: float, ts: np.ndarray,
            z0: complex, phi: complex) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a1, a2, a3 of the 6th-order Magnus step between each pair of
    consecutive ``ts`` on the straight contour piece z = z0 + phi (t - ts[0]),
    where the shooting ODE reads y' = phi A(z) y.  With A1, A2, A3 at the
    three Gauss nodes (Blanes et al., Phys. Rep. 470 (2009)):
        a1 = dt A2,  a2 = sqrt(15)/3 dt (A3 - A1),  a3 = 10/3 dt (A3 - 2 A2 + A1),
    each a (4, 4, N) stack, steps on the last axis.  For the padded rows of
    a _Stack, ``ts`` is (C, L + 1) and z0, phi are (C, 1); the stacks are
    then (4, 4, C, L)."""
    dt = np.diff(ts)
    z = z0 + phi * (ts[..., :-1] + _GAUSS.reshape((3,) + (1,) * dt.ndim) * dt - ts[..., :1])
    v1, v2, r0, r1, r1p = (fn(z) for fn in p.coeffs_np)
    pdt = phi * dt
    a1, a2, a3 = (np.zeros((4, 4) + dt.shape, dtype=complex) for _ in range(3))
    # the eight nonzero entries of A; rows 0 and 2 are alike at every node
    a1[0, 1] = a1[2, 3] = (1.0 / h + 0j) * pdt
    for (i, j), entry in (((1, 0), (v1 - E) / h), ((1, 2), r0), ((1, 3), r1), ((3, 0), r0 - h * r1p),
                          ((3, 1), -r1), ((3, 2), (v2 - E) / h)):
        A1, A2, A3 = entry * pdt
        a1[i, j] = A2
        a2[i, j] = A3 - A1
        a2[i, j] *= math.sqrt(15.0) / 3.0
        a3[i, j] = A3 + A1
        a3[i, j] -= 2.0 * A2
        a3[i, j] *= 10.0 / 3.0
    return a1, a2, a3


# Polynomials in E are lists of step-last stacks, the coefficient of E^k at k.

def _padd(P: List[np.ndarray], Q: List[np.ndarray]) -> List[np.ndarray]:
    if len(P) < len(Q):
        P, Q = Q, P
    return [a + b for a, b in zip(P, Q)] + P[len(Q):]


def _pscale(P: List[np.ndarray], s: float) -> List[np.ndarray]:
    return [s * a for a in P]


def _pcomm(P: List[np.ndarray], Q: List[np.ndarray]) -> List[np.ndarray]:
    """[P, Q]: the coefficient of E^k sums [P_i, Q_j] over i + j = k.
    Top coefficients that vanish on every step are dropped, so that later
    commutators skip them."""
    R: List[Optional[np.ndarray]] = [None] * (len(P) + len(Q) - 1)
    for i, a in enumerate(P):
        for j, b in enumerate(Q):
            C = _comm(a, b)
            if R[i + j] is None:
                R[i + j] = C
            else:
                R[i + j] += C
    while len(R) > 1 and not R[-1].any():
        R.pop()
    return R


def _omega(a1: List[np.ndarray], a2: List[np.ndarray], a3: List[np.ndarray]) -> List[np.ndarray]:
    """The 6th-order Magnus Omega of each step (Blanes et al.),
        C1 = [a1, a2],  C2 = -1/60 [a1, 2 a3 + C1],
        Omega = a1 + a3/12 + 1/240 [-20 a1 - a3 + C1, a2 + C2],
    over polynomials in E.  With E folded into constant a1, a2, a3 this
    takes three commutators; with a1 linear in E it is the exact cubic."""
    c1 = _pcomm(a1, a2)
    c2 = _pscale(_pcomm(a1, _padd(_pscale(a3, 2.0), c1)), -1.0 / 60.0)
    left = _padd(_padd(_pscale(a1, -20.0), _pscale(a3, -1.0)), c1)
    return _padd(_padd(a1, _pscale(a3, 1.0 / 12.0)), _pscale(_pcomm(left, _padd(a2, c2)), 1.0 / 240.0))


def _exp_omega(omega: np.ndarray, work: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    if not np.all(np.isfinite(omega.view(float))):
        raise StepUnderflow("shooting coefficients lost finiteness")
    return _expm(omega, work)


def _step_propagators(p: Problem, E: complex, h: float, ts: np.ndarray,
                      z0: complex, phi: complex) -> np.ndarray:
    """exp(Omega) of the 6th-order Magnus step between each pair of
    consecutive ``ts`` at energy E (_alphas, _omega), as a (4, 4, N)
    stack."""
    a1, a2, a3 = _alphas(p, E, h, ts, z0, phi)
    return _exp_omega(_omega([a1], [a2], [a3])[0])


def _omega_cubic(p: Problem, h: float, ts: np.ndarray, z0: complex, phi: complex) -> List[np.ndarray]:
    """The coefficients of Omega(E) = Omega0 + E Omega1 + E^2 Omega2 + E^3 Omega3
    for every step of _step_propagators, up to the highest that is nonzero
    on some step (_pcomm drops the others).  E enters A only through
    A[1, 0] = (v1 - E)/h and A[3, 2] = (v2 - E)/h, alike at the three nodes,
    so a2 and a3 do not depend on E and a1 = a1(0) + E P with
    P = -(phi dt/h) (e10 + e32)."""
    a1, a2, a3 = _alphas(p, 0j, h, ts, z0, phi)
    P = np.zeros_like(a1)
    P[1, 0] = P[3, 2] = -phi * np.diff(ts) / h
    return _omega([a1, P], [a2], [a3])


def _horner(poly: List[np.ndarray], E: complex, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The value at E of a polynomial of degree at least 1, written into
    ``out`` when given."""
    val = np.multiply(poly[-1], E, out=out)
    for coef in poly[-2:0:-1]:
        val += coef
        val *= E
    val += poly[0]
    return val


def _row_slices(n_rows: int, L: int, max_steps: int) -> List[slice]:
    """Rows 0 .. n_rows - 1 of L padded steps each, in slices of equal
    size (but the last) of at most max_steps steps, or of one row."""
    n_slices = -(-n_rows // max(1, max_steps // L))
    rows = -(-n_rows // n_slices)
    return [slice(r, min(r + rows, n_rows)) for r in range(0, n_rows, rows)]


class _Stack:
    """Checkpoint chunks laid out as one padded grid of Magnus steps.

    Row c of ``ts`` holds chunk c's step ends, the last one repeated up to
    the longest chunk's L steps.  There dt = 0, so Omega = 0 and
    exp(Omega) = I exactly, and the padded steps leave every product bit
    for bit unchanged.  Step stacks are (4, 4, rows, L).  The rows are
    taken in ``slices`` of at most _SLICE_STEPS padded steps (or one row),
    and every slice is exponentiated and multiplied out in the same five
    workspaces of ``work_size`` entries, which the caller keeps."""

    def __init__(self, chunks: Sequence[_Chunk]):
        L = max(chunk.n_steps for chunk in chunks)
        self.ts = np.empty((len(chunks), L + 1))
        for row, chunk in zip(self.ts, chunks):
            ts = chunk.steps()
            row[:ts.size] = ts
            row[ts.size:] = ts[-1]
        self.n_steps = [chunk.n_steps for chunk in chunks]
        self.z0 = np.array([[chunk.z0] for chunk in chunks])
        self.phi = np.array([[chunk.phi] for chunk in chunks])
        self.slices = _row_slices(len(chunks), L, _SLICE_STEPS)
        self.work_size = 16 * self.slices[0].stop * L  # entries of a (4, 4, rows, L) slice

    def cubic(self, p: Problem, h: float) -> List[np.ndarray]:
        """_omega_cubic of every row, built in slices of at most
        _BUILD_STEPS padded steps (or one row), each up to its longest
        chunk, as (4, 4, C, L) arrays up to the highest coefficient that is
        nonzero on some step.  Omega3 vanishes on every step (P commutes
        with [P, a2], the E^1 part of C1), and Omega2 wherever r1 is
        constant, so a cubic holds two or three arrays; a coefficient is
        allocated at the first slice that has it."""
        coefs: List[np.ndarray] = []
        for rows in _row_slices(len(self.ts), self.ts.shape[1] - 1, _BUILD_STEPS):
            n = max(self.n_steps[rows])
            for k, src in enumerate(_omega_cubic(p, h, self.ts[rows, :n + 1], self.z0[rows], self.phi[rows])):
                if k == len(coefs):
                    coefs.append(np.zeros((4, 4) + self.ts[:, 1:].shape, dtype=complex))
                coefs[k][:, :, rows, :n] = src
        return coefs

    def products(self, cubic: Sequence[np.ndarray], E: complex, work: Sequence[np.ndarray]) -> np.ndarray:
        """Every row's product of step propagators exp(Omega(E)), as a
        (4, 4, C) array, with Omega summed from ``cubic`` (the cubic's
        coefficients) by Horner's rule slice by slice.  ``work`` is five
        flat complex buffers of at least ``work_size`` entries."""
        L = self.ts.shape[1] - 1
        # _expm leaves its result in work[2] or work[3]; the buffers of X,
        # of X^2 and of its terms are free again for the products
        free = (work[0], work[1], work[4])
        products = np.empty((4, 4, len(self.ts)), dtype=complex)
        for sl in self.slices:
            X, *expm_work = (_take(buf, (4, 4, sl.stop - sl.start, L)) for buf in work)
            _horner([coef[:, :, sl] for coef in cubic], E, X)
            products[:, :, sl] = _product(_exp_omega(X, expm_work), free)
        return products


def _walk(pair: np.ndarray, chunks: List[_Chunk], mats: Sequence[np.ndarray]) -> PairTrack:
    """Carry the pair through one end's chunks.  ``mats`` holds, per chunk,
    its product of step propagators, (4, 4), or for a recorded chunk its
    step propagators, (4, 4, n_steps): the pair is carried through those
    one step at a time and recorded at each step end, and at the start of
    the first recorded chunk.  The pair is orthonormalized between chunks
    (Godunov shooting)."""
    track = PairTrack(final=pair)
    for idx, (chunk, M) in enumerate(zip(chunks, mats)):
        recorded = None
        if chunk.record:
            states = [pair]
            for k in range(chunk.n_steps):
                states.append(M[..., k] @ states[-1])
            ts, states = chunk.steps(), np.array(states)
            if idx and chunks[idx - 1].record:  # its start is recorded as the last chunk's end
                ts, states = ts[1:], states[1:]
            recorded = (ts, states.transpose(2, 1, 0).reshape(8, -1))
            pair = states[-1]
        else:
            pair = M @ pair
        if not np.all(np.isfinite(pair.view(float))):
            raise StepUnderflow("propagated state lost finiteness")
        R = None
        if idx < len(chunks) - 1:
            pair, R = np.linalg.qr(pair)
        track.chunks.append((R, recorded))
    track.final = pair
    return track


def _shoot(p: Problem, E: complex, h: float, c: Contour, end: str, cut: Optional[float],
           known: Dict[_Chunk, np.ndarray]) -> PairTrack:
    """Shoot the admissible pair from one contour end to t = 0 on the
    chunks of _plan.  A chunk in ``known`` takes the product of step
    propagators held there, which must be its product at E; every other
    chunk's _step_propagators at E are multiplied out alone, or, on a
    recorded chunk, handed to _walk as they are."""
    (chunks,) = _plan(c, h, (end,), cut)
    mats = []
    for chunk in chunks:
        M = known.get(chunk)
        if M is None:
            M = _step_propagators(p, E, h, chunk.steps(), chunk.z0, chunk.phi)
            if not chunk.record:
                M = _product(M)
        mats.append(M)
    return _walk(_initial_pair(p, E, c, end), chunks, mats)


def propagate(p: Problem, E: complex, h: float, c: Contour, from_end: str,
              cut: Optional[float] = None) -> PairTrack:
    """Shoot the admissible pair from one contour end to t = 0 on the
    chunks and Magnus steps of _plan, one chunk at a time (each chunk's
    _step_propagators multiplied out alone, or walked step by step where
    recorded): the per-chunk reference of W.
    With ``cut``, a point of the core, the pair is also recorded from the
    cut to t = 0."""
    return _shoot(p, complex(E), h, c, from_end, cut, {})


class MatchingProblem:
    """Matching determinant W(E) between the two admissible pairs at t = 0,
    with column scales frozen at the first evaluation so root iterations
    see a smooth function whose zeros are the resonances.

    The first evaluation also plans both ends (_plan), lays all their
    checkpoint chunks out as one padded _Stack and builds the cubic
    Omega(E) of every step (_Stack.cubic): two or three (4, 4, n_chunks, L)
    coefficient arrays, which hold everything that does not depend on E.
    Each W(E) sums them by Horner's rule, then exponentiates and multiplies
    them out slice by slice in five workspaces kept from the first
    evaluation, and walks each pair through its end's chunk products as
    propagate does.  The chunk products of the last W(E) are kept, so the
    Green-identity width at that E (width_from_state) reuses those of the
    ray chunks (chunk_products)."""

    def __init__(self, p: Problem, h: float, contour: Contour):
        self.p = p
        self.h = h
        self.contour = contour
        self._scales: Optional[np.ndarray] = None
        self._plans: List[List[_Chunk]] = []
        self._stack: Optional[_Stack] = None
        self._cubic: List[np.ndarray] = []
        self._work: List[np.ndarray] = []
        # E and the (n_chunks, 4, 4) chunk products of the last W
        self._last: Optional[Tuple[complex, np.ndarray]] = None

    def W(self, E: complex) -> complex:
        E = complex(E)
        if self._stack is None:
            self._plans = _plan(self.contour, self.h, ("left", "right"))
            self._stack = _Stack([chunk for chunks in self._plans for chunk in chunks])
            self._cubic = self._stack.cubic(self.p, self.h)
            self._work = [np.empty(self._stack.work_size, dtype=complex) for _ in range(5)]
        mats = np.moveaxis(self._stack.products(self._cubic, E, self._work), -1, 0)
        self._last = (E, mats)
        n_left = len(self._plans[0])
        A = np.column_stack([
            _walk(_initial_pair(self.p, E, self.contour, end), chunks, prods).final
            for end, chunks, prods in zip(("left", "right"), self._plans, (mats[:n_left], mats[n_left:]))])
        if self._scales is None:
            self._scales = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
        return complex(np.linalg.det(A / self._scales[None, :]))

    def chunk_products(self, E: complex) -> Dict[_Chunk, np.ndarray]:
        """Each chunk of W's plan with its product of step propagators, as
        the last W computed them, if that W was evaluated at E; otherwise
        nothing."""
        if self._last is None or self._last[0] != E:
            return {}
        chunks = [chunk for plan in self._plans for chunk in plan]
        return dict(zip(chunks, self._last[1]))


# Muller iterations before refine_resonance gives up on a start
_MULLER_MAXIT = 60
# largest |W| accepted at a root: true roots on the shipped configs (h from
# 0.08 to 0.01) reach at most 9.4e-11, stalled iterations at least 6.6e-2
_RESIDUAL_MAX = 1e-6


def _muller(f, x0: complex, x1: complex, x2: complex, tol: float):
    f0, f1, f2 = f(x0), f(x1), f(x2)
    for _ in range(_MULLER_MAXIT):
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
            return x3, f(x3)
        x0, x1, x2 = x1, x2, x3
        f0, f1, f2 = f1, f2, f(x3)
    raise NotConverged(f"Muller did not reach |dE| <= {tol:g} in {_MULLER_MAXIT} steps")


def refine_resonance(mp: MatchingProblem, seed: complex, m0: int) -> OracleResonance:
    """Polish a resonance from a semiclassical seed by Muller iteration on
    the matching determinant ``mp.W``.  A root is accepted only where |W| is
    at most _RESIDUAL_MAX; otherwise a scan of |W| picks a new start, and a
    root that still fails the bound raises NotConverged.  The last W is
    evaluated at the returned root."""
    h, c = mp.h, mp.contour
    scale = h ** ((m0 + 3.0) / (m0 + 1.0))
    tol = max(1e-14, 1e-6 * scale)
    # start spread well below the oscillation scale of W in E (set by the
    # contour length over h) so Muller's quadratic model is trustworthy
    spread = max(1e-10, min(0.05 * scale, 0.02 * h * h / (c.X / 10.0)))
    seed = complex(seed)

    def polish(start: complex):
        starts = (start, start - 1j * spread, start + spread * (0.5 - 0.5j))
        return _muller(mp.W, *starts, tol=tol)

    try:
        root, wval = polish(seed)
    except NotConverged:
        wval = math.inf
    if abs(wval) > _RESIDUAL_MAX:
        # the zero's basin (radius ~ h over the contour's phase winding) can
        # be smaller than the seed error at the largest h, and a start
        # outside it fails or stalls at a point that is no root; locate the
        # basin by a coarse scan of |W| around the seed first
        span = 8.0 * max(0.15 * scale, 4.0 * spread)
        offsets = np.linspace(-span, span, 49)
        vals = [abs(mp.W(seed + complex(d))) for d in offsets]
        best = seed + complex(offsets[int(np.argmin(vals))])
        root, wval = polish(best)
    if abs(wval) > _RESIDUAL_MAX:
        raise NotConverged(f"Muller stalled at {root:.10g} with |W| = {abs(wval):.3g} > {_RESIDUAL_MAX:g}")
    return OracleResonance(E=root, residual=abs(wval))


def simpson(y: np.ndarray, x: np.ndarray) -> np.float64:
    """Composite Simpson's rule for samples y on a grid x of an odd number
    of points whose steps are equal in pairs, x[2k + 1] - x[2k] =
    x[2k + 2] - x[2k + 1]; on a decreasing grid the integral is negative."""
    return np.sum((x[2::2] - x[:-2:2]) / 6.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2]))


def width_from_state(mp: MatchingProblem, E: complex, x1: float, x2: float) -> float:
    """Green-identity width estimate from the matched resonant state at E
    (_green_width), normalized on [x1, x2] with x1 < a0 < b0 < x2.

    The state is shot from each end to t = 0 on the plan of propagate with
    cut x1 (resp. x2).  Its ray chunks are W's: where the last ``mp.W`` was
    evaluated at E, as refine_resonance leaves it at its root, their
    products are taken from there and only the core chunks are shot."""
    p, h, c = mp.p, mp.h, mp.contour
    if not (-c.R0 < x1 < x2 < c.R0):
        raise BadContour(f"contour core [-R0, R0] with R0 = {c.R0!r} must contain "
                         f"[x1, x2] = [{x1!r}, {x2!r}]")
    E = complex(E)
    known = mp.chunk_products(E)
    L = _shoot(p, E, h, c, "left", x1, known)
    R = _shoot(p, E, h, c, "right", x2, known)
    return _green_width(p, h, L, R, x1, x2)


def _green_width(p: Problem, h: float, L: PairTrack, R: PairTrack, x1: float, x2: float) -> float:
    """Im z = h^2 Im[-v1' conj(v1) - v2' conj(v2) + r1 v2 conj(v1)]_{x1}^{x2}
    normalized by the L2 norm of the state on [x1, x2], from the pairs shot
    from the left end with the state recorded from x1 (L) and from the
    right end with it recorded from x2 (R)."""
    A = np.column_stack([L.final, R.final])
    scales = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
    _, sing, vh = np.linalg.svd(A / scales[None, :])
    nvec = vh[-1].conj() / scales
    t_l, w_l = L.state_on_core(nvec[0:2])
    t_r, w_r = R.state_on_core(-nvec[2:4])
    r1fn = p.coeffs_np[3]

    def boundary(w: np.ndarray, x: float) -> complex:
        y1, y2, y3, y4 = w
        return -h * y2 * np.conj(y1) - h * y4 * np.conj(y3) + h * h * r1fn(x) * y3 * np.conj(y1)

    g1 = boundary(w_l[:, 0], x1)
    g2 = boundary(w_r[:, 0], x2)
    dens_l = np.abs(w_l[0, :]) ** 2 + np.abs(w_l[2, :]) ** 2
    dens_r = np.abs(w_r[0, :]) ** 2 + np.abs(w_r[2, :]) ** 2
    # t_r runs from x2 down to 0
    norm2 = float(simpson(dens_l, t_l) - simpson(dens_r, t_r))
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
