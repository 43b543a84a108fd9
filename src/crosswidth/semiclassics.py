"""Transfer matrices, path amplitudes, monodromy and resonance widths.

At each crossing the microlocal connection is Id + h^{1/(m+1)} T_sub with
an antidiagonal T_sub built from the coupling symbol; a generalized
trajectory picks up e^{iS/h} per segment, e^{-i pi/2} per turning point,
and one transfer-matrix entry per vertex.  The monodromy matrix collects
the one-vertex amplitudes between edge base points; its det(I - M) zeros
are the pseudo-resonances, and the one-switch path sum to the outgoing
tails gives the width coefficient.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.optimize import brentq

from . import quadrature
from .geometry import Edge, Graph, PathSeq, paths_one_switch, primitive_cycles
from .model import CrossingPoint, Problem, StructureReport
from .quadrature import ActionFn, action_derivative, action_edge

__all__ = [
    "BoxTooLarge",
    "PseudoResonance",
    "WidthBreakdown",
    "SingularSystem",
    "NewtonDiverged",
    "CountMismatch",
    "TopologyMismatch",
    "omega",
    "transfer_matrix",
    "bohr_sommerfeld",
    "SemiclassicsEngine",
]


def energy_domain(problem: Problem, report: StructureReport, h_max: float) -> Tuple[float, float]:
    """Energy interval over which edge actions are cached and evaluated.

    Covers the resonance box for every h up to h_max with a small margin,
    clamped away from the highest crossing level below and the well top
    above (outside of which the frozen graph geometry stops making sense).
    """
    e0 = problem.e0
    req = 1.12 * problem.L * h_max
    level_max = max(e0 - c.xi * c.xi for c in report.crossings)
    lo_bound = level_max + 0.2 * (e0 - level_max)
    vb = min(float(problem.v1_np(np.array([w]))[0]) for w in problem.window)
    hi_bound = e0 + 0.85 * (vb - e0) if vb > e0 else e0 + req
    domain = (max(e0 - req, lo_bound), min(e0 + req, hi_bound))
    need = problem.L * h_max
    if domain[0] > e0 - need or domain[1] < e0 + need:
        raise BoxTooLarge(
            "resonance box does not fit between the crossing level and the "
            f"well top; reduce L*h (domain {domain}, need e0 +/- {need:.4g})"
        )
    return domain


def _level_crossings(f: Callable[[float], float], lo: float, hi: float,
                     levels: Callable[[float, float], List[float]]) -> List[float]:
    """Sorted energies in [lo, hi] where the increasing function f meets
    each of ``levels(f(lo), f(hi))`` that lies in [f(lo), f(hi)]."""
    flo, fhi = f(lo), f(hi)
    if fhi <= flo:
        raise ValueError("action must increase with energy")
    out = []
    for target in levels(flo, fhi):
        if flo <= target <= fhi:
            out.append(brentq(lambda E: f(E) - target, lo, hi, xtol=1e-15, rtol=8.9e-16))
    return sorted(out)


def bohr_sommerfeld(action: Callable[[float], float], lo: float, hi: float,
                    h: float) -> List[float]:
    """Energies in [lo, hi] where the loop action hits an odd multiple of
    pi*h (the quantization rule cos(A/2h) = 0).  Returns an empty list when
    the interval is too small to contain a grid point."""
    if h <= 0:
        raise ValueError("h must be positive")

    def levels(alo: float, ahi: float) -> List[float]:
        k_lo = math.ceil((alo / (math.pi * h) - 1.0) / 2.0)
        k_hi = math.floor((ahi / (math.pi * h) - 1.0) / 2.0)
        return [(2 * k + 1) * math.pi * h for k in range(k_lo, k_hi + 1)]

    return _level_crossings(action, lo, hi, levels)


class BoxTooLarge(ValueError):
    """The resonance box e0 +/- L*h does not fit the energy domain."""


class SingularSystem(Exception):
    pass


class NewtonDiverged(Exception):
    pass


class CountMismatch(Exception):
    pass


class TopologyMismatch(Exception):
    pass


@dataclass(frozen=True)
class PseudoResonance:
    E: complex
    seed: float
    residual: float
    newton_iters: int


@dataclass(frozen=True)
class WidthBreakdown:
    E: float
    h: float
    D: float
    per_tail: Tuple[Tuple[int, complex], ...]
    per_path: Tuple[complex, ...]
    variant: str


def omega(c: CrossingPoint, sign: int, calib: float = 1.0) -> complex:
    """Subprincipal transfer coefficient at a crossing.

    mu * (2 (m+1)! / |dv|)^{1/(m+1)} * (xi^2)^{-m/(2(m+1))} * Gamma((m+2)/(m+1))
    * conj(U(x, sign*xi)), with mu a phase for odd contact order (sign of
    xi*dv) and cos(pi/(2(m+1))) for even order.
    """
    m = c.m
    mu = quadrature.crossing_phase(m, sign * c.xi * c.dv)
    mag = (
        (2.0 * math.factorial(m + 1) / abs(c.dv)) ** (1.0 / (m + 1))
        * (c.xi * c.xi) ** (-m / (2.0 * (m + 1)))
        * math.gamma((m + 2) / (m + 1))
    )
    return calib * mu * mag * c.u(sign).conjugate()


def transfer_matrix(c: CrossingPoint, sign: int, h: float, calib: float = 1.0) -> np.ndarray:
    """2x2 connection at one crossing point; entry [k, j] maps incoming
    channel j+1 to outgoing channel k+1.  Diagonal entries are exactly 1
    (first order in h^{1/(m+1)})."""
    if h <= 0:
        raise ValueError("h must be positive")
    w = omega(c, sign, calib)
    s = h ** (1.0 / (c.m + 1))
    return np.array([[1.0, -1j * w.conjugate() * s], [-1j * w * s, 1.0]], dtype=complex)


@dataclass
class _Segment:
    """Cached action (and derivative) of a fraction of an edge."""

    fn: ActionFn
    dfn: ActionFn
    nu: int

    def value(self, E: complex) -> complex:
        x, y = E.real, E.imag
        if y == 0.0:
            return complex(self.fn(x))
        # first-order continuation off the real axis; |Im E| <= Lh keeps the
        # quadratic remainder below the certified orders
        return self.fn(x) + 1j * y * self.dfn(x)


# residual bound of the Chebyshev edge-action caches
_CACHE_TOL = 3e-13
# energies on the argument-principle contour
_COUNT_NODES = 4096


class SemiclassicsEngine:
    """All monodromy/width computations for one validated problem.

    Edge actions are cached as Chebyshev interpolants over the energy
    domain covering the resonance box for every h up to ``h_max``; graph
    topology stays frozen at the reference energy.
    """

    def __init__(
        self,
        problem: Problem,
        report: StructureReport,
        graph: Graph,
        calib: float = 1.0,
        h_max: float = 0.1,
    ):
        self.p = problem
        self.report = report
        self.g = graph
        self.calib = calib
        self.m0 = report.m0
        self.h_max = h_max
        self._quad_tol = min(problem.tolerances.quad_tol, 1e-13)
        self.domain = energy_domain(problem, report, h_max)
        self._segments: Dict[Tuple[int, float, float], _Segment] = {}
        self._transfer: Dict[Tuple[int, int, float], list] = {}
        # A'(e0): Bohr-Sommerfeld energies near e0 lie 2 pi h / |A'(e0)| apart
        self.ap0 = action_derivative(problem, problem.e0)
        self._edges_sorted = sorted(graph.edges, key=lambda e: e.eid)
        self._index = {e.eid: i for i, e in enumerate(self._edges_sorted)}

    # --- cached quantities ---------------------------------------------------

    def _segment(self, edge: Edge, flo: float, fhi: float) -> _Segment:
        key = (edge.eid, flo, fhi)
        seg = self._segments.get(key)
        if seg is None:
            fn = ActionFn.build(
                lambda E: action_edge(self.p, edge, E, flo, fhi, quad_tol=self._quad_tol),
                self.domain,
                tol=_CACHE_TOL,
            )
            _, nu = edge.sub_pieces(flo, fhi)
            seg = _Segment(fn=fn, dfn=fn.derivative(), nu=nu)
            self._segments[key] = seg
        return seg

    def edge_action(self, edge: Edge, E: float) -> float:
        """Full edge action as the sum of its two base-point halves (the
        same floats the monodromy and path sums use)."""
        f = edge.base_frac
        return self._segment(edge, 0.0, f).fn(E) + self._segment(edge, f, 1.0).fn(E)

    def tau(self, ch_from: int, ch_to: int, vertex, h: float) -> complex:
        """Transfer-matrix entry from channel ch_from to ch_to at a vertex."""
        key = (vertex.index, vertex.sign, h)
        T = self._transfer.get(key)
        if T is None:
            T = transfer_matrix(vertex.crossing, vertex.sign, h, self.calib).tolist()
            self._transfer[key] = T
        return T[ch_to - 1][ch_from - 1]

    def _phase(self, edge: Edge, flo: float, fhi: float, E: complex, h: float) -> complex:
        if flo == fhi:
            return 1.0 + 0.0j
        f = edge.base_frac
        if (flo, fhi) == (0.0, 1.0):
            s1, s2 = self._segment(edge, 0.0, f), self._segment(edge, f, 1.0)
            S = s1.value(E) + s2.value(E)
            nu = edge.nu
        else:
            seg = self._segment(edge, flo, fhi)
            S, nu = seg.value(E), seg.nu
        return cmath.exp(1j * S / h - 1j * math.pi * nu / 2.0)

    # --- probability amplitudes ----------------------------------------------

    def probability_amplitude(self, path: PathSeq, E, h: float) -> complex:
        """Product of segment phases, turning-point factors and transfer
        entries along a generalized trajectory.

        When the path ends on a tail, the transfer entry of the final hop is
        included but the tail's own (common, unimodular at real energy)
        phase factor is dropped.
        """
        E = complex(E)
        edges = path.edges
        amp = 1.0 + 0.0j
        for k, e in enumerate(edges):
            flo = path.start_frac if k == 0 else 0.0
            fhi = path.end_frac if k == len(edges) - 1 else 1.0
            if k > 0:
                amp *= self.tau(edges[k - 1].channel, e.channel, edges[k - 1].target, h)
            amp *= self._phase(e, flo, fhi, E, h)
        if path.tail is not None:
            amp *= self.tau(edges[-1].channel, path.tail.channel, path.tail.attach, h)
        return amp

    # --- monodromy -------------------------------------------------------------

    def monodromy(self, E, h: float) -> np.ndarray:
        """Edge-indexed matrix of one-vertex amplitudes between base points
        (rows/columns ordered by edge id)."""
        E = complex(E)
        n = len(self._edges_sorted)
        M = np.zeros((n, n), dtype=complex)
        ph1 = [self._phase(e, 0.0, e.base_frac, E, h) for e in self._edges_sorted]
        ph2 = [self._phase(e, e.base_frac, 1.0, E, h) for e in self._edges_sorted]
        for j, ep in enumerate(self._edges_sorted):
            v = ep.target
            for i, e in enumerate(self._edges_sorted):
                if e.source.key == v.key:
                    M[i, j] = ph2[j] * self.tau(ep.channel, e.channel, v, h) * ph1[i]
        return M

    def det_one_minus_m(self, E, h: float) -> complex:
        M = self.monodromy(E, h)
        return complex(np.linalg.det(np.eye(M.shape[0], dtype=complex) - M))

    def det_cycle_expansion(self, E, h: float) -> complex:
        """det(I - M) from the primitive-cycle expansion: 1 plus the sum over
        sets of pairwise vertex-disjoint primitive cycles of prod(-P(cycle)).
        Combinatorial cross-check for the LU determinant."""
        E = complex(E)
        cycles = primitive_cycles(self.g)
        amps = []
        vsets = []
        for cyc in cycles:
            amp = 1.0 + 0.0j
            n = len(cyc)
            for k, e in enumerate(cyc):
                amp *= self._phase(e, 0.0, 1.0, E, h)
                nxt = cyc[(k + 1) % n]
                amp *= self.tau(e.channel, nxt.channel, e.target, h)
            amps.append(amp)
            vsets.append(frozenset(e.source.key for e in cyc))
        total = 1.0 + 0.0j

        def rec(i: int, used: frozenset, prod: complex, any_taken: bool):
            nonlocal total
            if i == len(cycles):
                if any_taken:
                    total += prod
                return
            rec(i + 1, used, prod, any_taken)
            if not (vsets[i] & used):
                rec(i + 1, used | vsets[i], prod * (-amps[i]), True)

        rec(0, frozenset(), 1.0 + 0.0j, False)
        return total

    # --- quantization ----------------------------------------------------------

    def gamma1_action(self, E: float) -> float:
        return sum(self.edge_action(e, E) for e in self.g.gamma1_edges())

    def _gamma1_action_derivative(self, E: float) -> float:
        total = 0.0
        for e in self.g.gamma1_edges():
            f = e.base_frac
            total += self._segment(e, 0.0, f).dfn(E) + self._segment(e, f, 1.0).dfn(E)
        return total

    def box(self, h: float) -> Tuple[float, float]:
        return (self.p.e0 - self.p.L * h, self.p.e0 + self.p.L * h)

    def bohr_sommerfeld(self, h: float) -> List[float]:
        """Energies in the box where the loop action hits an odd multiple of
        pi*h (cos(A/2h) = 0).  May be empty for small L."""
        return bohr_sommerfeld(self.gamma1_action, *self.box(h), h)

    # --- pseudo-resonances ------------------------------------------------------

    def _newton_root(self, seed: float, h: float) -> PseudoResonance:
        tol = self.p.tolerances.newton_tol
        f = lambda E: self.det_one_minus_m(E, h)  # noqa: E731
        E = complex(seed)
        fE = f(E)
        delta = 1e-3 * h
        for it in range(1, 51):
            if abs(fE) <= tol:
                return PseudoResonance(E=E, seed=seed, residual=abs(fE), newton_iters=it - 1)
            fp = (f(E + delta) - f(E - delta)) / (2.0 * delta)
            if fp == 0:
                break
            step = -fE / fp
            accepted = False
            for _ in range(25):
                cand = E + step
                fc = f(cand)
                if abs(fc) < abs(fE):
                    E, fE = cand, fc
                    accepted = True
                    break
                step /= 2.0
                if abs(step) < 1e-16 * max(1.0, abs(E)):
                    break
            if not accepted:
                break
        if abs(fE) <= tol:
            return PseudoResonance(E=E, seed=seed, residual=abs(fE), newton_iters=50)
        raise NewtonDiverged(f"seed {seed:.10g}: residual {abs(fE):.3e} after damped Newton")

    def count_by_argument_principle(self, h: float) -> int:
        """Winding number of det(I - M) around the resonance box boundary."""
        lo, hi = self.box(h)
        half = self.p.L * h
        per = _COUNT_NODES // 4
        corners = [complex(lo, -half), complex(hi, -half), complex(hi, half), complex(lo, half)]
        zs = []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            ts = np.arange(per) / per
            zs.extend(a + (b - a) * t for t in ts)
        vals = np.array([self.det_one_minus_m(z, h) for z in zs], dtype=complex)
        if np.any(np.abs(vals) < 1e-13):
            raise CountMismatch("det(I - M) vanishes on the counting contour")
        args = np.angle(vals)
        d = np.diff(np.concatenate([args, args[:1]]))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        winding = float(np.sum(d)) / (2.0 * math.pi)
        if abs(winding - round(winding)) > 0.25:
            raise CountMismatch(f"winding number {winding:.3f} is not close to an integer")
        return int(round(winding))

    def pseudo_resonances(self, h: float) -> List[PseudoResonance]:
        """One Newton run per Bohr-Sommerfeld seed on det(I - M), with the
        root count cross-checked by the argument principle."""
        seeds = self.bohr_sommerfeld(h)
        roots: List[PseudoResonance] = []
        for seed in seeds:
            pr = self._newton_root(seed, h)
            if any(abs(pr.E - q.E) < h * h for q in roots):
                continue
            lo, hi = self.box(h)
            half = self.p.L * h
            if lo - 1e-12 <= pr.E.real <= hi + 1e-12 and abs(pr.E.imag) <= half + 1e-12:
                roots.append(pr)
        n_wind = self.count_by_argument_principle(h)
        if n_wind != len(roots):
            raise CountMismatch(
                f"argument principle counts {n_wind} zeros, Newton found {len(roots)}"
            )
        return roots

    # --- resonant-state amplitudes ----------------------------------------------

    def amplitude_vector(self, E, h: float):
        """Per-edge amplitudes alpha solving (I - M~) alpha = delta_e0, where
        M~ is the monodromy with the reference-edge row removed, plus the
        amplitudes carried onto the attached outgoing tails.

        Returns (alpha: eid -> complex, tail_amp: tid -> complex).
        """
        E = complex(E)
        M = self.monodromy(E, h)
        n = M.shape[0]
        i0 = self._index[self.g.e0.eid]
        Mt = M.copy()
        Mt[i0, :] = 0.0
        A = np.eye(n, dtype=complex) - Mt
        rho = float(np.max(np.abs(np.linalg.eigvals(Mt))))
        if rho >= 1.0:
            warnings.warn(f"spectral radius of the cut monodromy is {rho:.3f} >= 1")
        rhs = np.zeros(n, dtype=complex)
        rhs[i0] = 1.0
        try:
            if np.linalg.cond(A) > 1e12:
                alpha_vec, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            else:
                alpha_vec = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        alpha = {e.eid: complex(alpha_vec[i]) for i, e in enumerate(self._edges_sorted)}
        tail_amp: Dict[int, complex] = {}
        for t in self.g.outgoing_tails():
            total = 0.0 + 0.0j
            for i, e in enumerate(self._edges_sorted):
                if e.target.key == t.attach.key:
                    hop = self._phase(e, e.base_frac, 1.0, E, h) * self.tau(e.channel, t.channel, t.attach, h)
                    total += hop * alpha_vec[i]
            tail_amp[t.tid] = complex(total)
        return alpha, tail_amp

    # --- widths -------------------------------------------------------------------

    def width_coefficient(self, E: float, h: float, variant: str = "one_switch") -> WidthBreakdown:
        """Leading width coefficient D(E):
        h^{-2/(m0+1)} / (2 |A'(E)|) * sum over outgoing tails of
        |sum of path amplitudes from the reference base point|^2.

        The loop-action derivative is taken at the evaluation energy rather
        than frozen at the reference energy (the two differ by O(h) inside
        the box, but the energy-resolved value tracks the true widths much
        better at finite h).  The one-switch variant sums the finitely many
        single-switch paths; the full variant replaces the inner sum by the
        resolvent amplitude.
        """
        tails = self.g.outgoing_tails()
        per_tail: List[Tuple[int, complex]] = []
        per_path: List[complex] = []
        if variant == "one_switch":
            for t in tails:
                amps = [self.probability_amplitude(pth, E, h) for pth in paths_one_switch(self.g, t)]
                per_path.extend(amps)
                per_tail.append((t.tid, complex(sum(amps))))
        elif variant == "full":
            _, tail_amp = self.amplitude_vector(E, h)
            per_tail = [(t.tid, tail_amp[t.tid]) for t in tails]
        else:
            raise ValueError(f"unknown variant {variant!r}")
        total = sum(abs(v) ** 2 for _, v in per_tail)
        ap = self._gamma1_action_derivative(E)
        D = h ** (-2.0 / (self.m0 + 1)) / (2.0 * abs(ap)) * total
        return WidthBreakdown(E=E, h=h, D=D, per_tail=tuple(per_tail), per_path=tuple(per_path), variant=variant)

    def _simple_topology(self):
        """(crossing, outgoing tail, other vertex, mixed cycle) of the
        single-crossing-pair model, or TopologyMismatch."""
        if len(self.report.crossings) != 1:
            raise TopologyMismatch("need exactly one crossing pair")
        tails = self.g.outgoing_tails()
        gamma2_edges = [e for e in self.g.edges if e.channel == 2]
        if len(tails) != 1 or len(gamma2_edges) != 1:
            raise TopologyMismatch("need one outgoing tail and one bounded channel-2 arc")
        tail = tails[0]
        att = tail.attach
        other = next(v for v in self.g.vertices if v.index == att.index and v.sign == -att.sign)
        mixed = None
        for cyc in primitive_cycles(self.g):
            if any(e.channel == 2 for e in cyc):
                mixed = cyc
                break
        if mixed is None or len(mixed) != 2:
            raise TopologyMismatch("no two-edge mixed cycle found")
        return self.report.crossings[0], tail, other, mixed

    def closed_form_width_example(self, E: float, h: float) -> float:
        """Width coefficient of the single-crossing-pair model in closed
        form: (2 (e0 - V_c)^{-m0/(m0+1)} / A'(E)) *
        Im(eta * conj(U(rho_other)) * e^{i S_gamma / 2h})^2, with eta built
        from the contact order and the potential-difference derivative at
        the crossing, and rho_other the vertex away from the outgoing tail.
        """
        c, tail, other, mixed = self._simple_topology()
        m = c.m
        v0 = abs(c.dv)
        mu = quadrature.crossing_phase(m, other.sign * c.xi * c.dv)
        eta = self.calib * mu * math.gamma((m + 2) / (m + 1)) * (2.0 * math.factorial(m + 1) / v0) ** (1.0 / (m + 1))
        u_o = c.u(other.sign).conjugate()
        s_gamma = sum(self.edge_action(e, E) for e in mixed)
        F = (eta * u_o * cmath.exp(1j * s_gamma / (2.0 * h))).imag
        ap = self._gamma1_action_derivative(E)
        return 2.0 * (c.xi * c.xi) ** (-m / (m + 1.0)) / abs(ap) * F * F

    def vanishing_energies(self, h: float) -> List[float]:
        """Energies where the closed-form width coefficient vanishes: the
        half-cycle phase S_gamma/2h aligns eta * conj(U) with the real axis."""
        c, tail, other, mixed = self._simple_topology()
        mu = quadrature.crossing_phase(c.m, other.sign * c.xi * c.dv)
        u_o = c.u(other.sign).conjugate()
        z = mu * u_o
        if z == 0:
            return []
        psi = cmath.phase(z)
        lo, hi = self.box(h)
        lo = max(lo, self.domain[0])
        hi = min(hi, self.domain[1])

        def s_gamma(E: float) -> float:
            return sum(self.edge_action(e, E) for e in mixed)

        def levels(slo: float, shi: float) -> List[float]:
            # S/2h + psi = k*pi
            k_lo = math.ceil(slo / (2.0 * math.pi * h) + psi / math.pi)
            k_hi = math.floor(shi / (2.0 * math.pi * h) + psi / math.pi)
            return [2.0 * h * (math.pi * k - psi) for k in range(k_lo, k_hi + 1)]

        return _level_crossings(s_gamma, lo, hi, levels)

    # --- the scorecard -----------------------------------------------------------

    def resonance_table(self, h: float) -> List[dict]:
        """Per Bohr-Sommerfeld seed: the pseudo-resonance, the width
        coefficient and the predicted imaginary part -D(E) h^{(m0+3)/(m0+1)}.

        The pseudo-resonance imaginary part is reported but is not the
        width prediction: the first-order transfer matrices do not certify
        it, so the prediction comes from the path-sum coefficient.
        """
        rows = []
        pseudos = {pr.seed: pr for pr in self.pseudo_resonances(h)}
        expo = (self.m0 + 3.0) / (self.m0 + 1.0)
        for seed in self.bohr_sommerfeld(h):
            pr = pseudos.get(seed)
            D = self.width_coefficient(seed, h, "one_switch").D
            rows.append(
                {
                    "seed": seed,
                    "pseudo_re": pr.E.real if pr else math.nan,
                    "pseudo_im": pr.E.imag if pr else math.nan,
                    "D": D,
                    "im_pred": -D * h ** expo,
                    "m0": self.m0,
                    "h": h,
                }
            )
        return rows
