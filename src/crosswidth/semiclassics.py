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
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import quadrature
from .errors import InputError, NumericalFailure
from .geometry import Edge, Graph, PathSeq, paths_one_switch, primitive_cycles
from .model import CrossingPoint, Problem, StructureReport, brentq
from .quadrature import ActionFn, ActionTable, action_derivative, action_edge

__all__ = [
    "BoxTooLarge",
    "HUnresolved",
    "NEWTON_TOL",
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


# the energy tolerance of _level_crossings: levels closer than this cannot
# be told apart
_LEVEL_XTOL = 1e-15


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
            out.append(brentq(lambda E: f(E) - target, lo, hi, _LEVEL_XTOL, (flo - target, fhi - target)))
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


class BoxTooLarge(InputError, ValueError):
    """The resonance box e0 +/- L*h does not fit the energy domain."""


class HUnresolved(InputError, ValueError):
    """h is too small for the Bohr-Sommerfeld levels to be told apart."""


class SingularSystem(NumericalFailure):
    pass


class NewtonDiverged(NumericalFailure):
    pass


class CountMismatch(NumericalFailure):
    pass


class TopologyMismatch(NumericalFailure):
    pass


@dataclass(frozen=True)
class PseudoResonance:
    E: complex
    seed: float
    residual: float
    newton_iters: int


@dataclass(frozen=True)
class WidthBreakdown:
    """The width coefficient D at energy E and semiclassical parameter h;
    E and D are arrays when the width was asked for an array of E."""

    E: float
    h: float
    D: float


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


# A phase key names the segments of a phase list: (edge id, flo, fhi) each.
PhaseKey = Tuple[Tuple[int, float, float], ...]


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in the operation order of Python's complex
    product.  numpy's complex multiply may fuse multiply-adds, so array
    products are spelled out on real and imaginary parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _path_key(path: PathSeq) -> PhaseKey:
    """The segments whose phases a path's amplitude multiplies."""
    last = len(path.edges) - 1
    return tuple(
        (e.eid, path.start_frac if k == 0 else 0.0, path.end_frac if k == last else 1.0)
        for k, e in enumerate(path.edges)
    )


# |det(I - M)| at which damped Newton accepts a pseudo-resonance, unless
# the roundoff floor of SemiclassicsEngine._newton_tol is larger
NEWTON_TOL = 1e-12
# the finest grid of the argument-principle contour: its nodes
_COUNT_NODES = 4096
# the count's first nodes are every _COUNT_STRIDE-th of the finest grid,
# so each corner of the box is one
_COUNT_STRIDE = 16
# the largest wrapped phase step of det(I - M), in radians, that the count
# leaves between two neighbouring evaluated nodes; a wider gap is halved
_COUNT_PHASE_STEP = 0.5
_ONE_ROW = np.zeros(1, dtype=int)


def _contour_steps(f: Callable[[np.ndarray], np.ndarray], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """A function's values on a dyadic subset of the n nodes of a closed
    contour, in node order, and the wrapped phase steps from each to the
    next.  f takes an increasing array of node indices to the values there.

    Every _COUNT_STRIDE-th node is evaluated first; then, one f call per
    round, the middle node of every gap whose phase step exceeds
    _COUNT_PHASE_STEP, until every step is within it or its gap is one
    node wide (Ying & Katz, Numer. Math. 53 (1988)).  A stretch stays
    coarse only where the phase moves by less than the bound across it;
    elsewhere it is refined down to every node.
    """
    idx = np.arange(0, n, _COUNT_STRIDE)
    vals = f(idx)
    while True:
        args = np.angle(vals)
        steps = np.diff(np.concatenate([args, args[:1]]))
        steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
        gaps = np.diff(np.append(idx, idx[0] + n))
        split = (np.abs(steps) > _COUNT_PHASE_STEP) & (gaps > 1)
        if not split.any():
            return vals, steps
        new = idx[split] + gaps[split] // 2
        order = np.argsort(np.concatenate([idx, new]))
        idx = np.concatenate([idx, new])[order]
        vals = np.concatenate([vals, f(new)])[order]


class SemiclassicsEngine:
    """All monodromy/width computations for one validated problem.

    Segment actions are fitted as Chebyshev interpolants over the energy
    domain covering the resonance box for every h up to ``h_max``, each on
    its first evaluation, and kept in one dict of fits; a fit integrates
    all of a degree's Chebyshev nodes in one batched quadrature.  Graph
    topology stays frozen at the reference energy.  Every action value, and
    every energy derivative, comes from one ActionTable that stacks the
    fits in use.  It is built on the first evaluation and rebuilt when a new
    segment is needed.  Energies are evaluated in arrays, and the table once
    per evaluation, at the distinct real parts: off the axis an action
    continues to first order from its real part, so each round of the
    argument-principle count evaluates it once for all the round's contour
    nodes.  The Newton runs of one h's seeds go in lockstep, one
    det_one_minus_m call per round, and the one-switch width forms its path
    amplitudes over arrays of energies.  A scalar energy is an array of
    one, and no value depends on how the energies are batched.
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
        # the paper's width law: Im E ~ -D(E) h^width_exponent
        self.width_exponent = (self.m0 + 3.0) / (self.m0 + 1.0)
        self.domain = energy_domain(problem, report, h_max)
        self._fits: Dict[Tuple[int, float, float], ActionFn] = {}
        self._transfer: Dict[Tuple[int, int, float], list] = {}
        self._plans: Dict[PhaseKey, tuple] = {}
        self._links: Dict[float, tuple] = {}
        self._levels: Dict[float, List[float]] = {}  # h -> Bohr-Sommerfeld grid
        self._one_switch_paths: Optional[tuple] = None
        # A'(e0): Bohr-Sommerfeld energies near e0 lie 2 pi h / |A'(e0)| apart
        self.ap0 = action_derivative(problem, problem.e0)
        self.box(h_max)  # rejects an unresolvable h before any fit
        self._edges_sorted = sorted(graph.edges, key=lambda e: e.eid)
        self._index = {e.eid: i for i, e in enumerate(self._edges_sorted)}
        # the monodromy's phases: both base-point halves of every edge
        self._halves: PhaseKey = tuple((e.eid, 0.0, e.base_frac) for e in self._edges_sorted) + tuple(
            (e.eid, e.base_frac, 1.0) for e in self._edges_sorted)
        # stacked action table: column of each segment, the loop edges'
        # halves first (A'(E) reads them) and then each segment in the order
        # an evaluation first asks for it; built on first use
        loop = [(e.eid, lo, hi) for e in graph.gamma1_edges()
                for lo, hi in ((0.0, e.base_frac), (e.base_frac, 1.0))]
        self._columns: Dict[Tuple[int, float, float], int] = {k: j for j, k in enumerate(loop)}
        self._table: Optional[ActionTable] = None
        self._n_loop = len(loop)

    # --- cached quantities ---------------------------------------------------

    def edge_action(self, edge: Edge, E: float) -> float:
        """Full edge action as the sum of its two base-point halves (the
        same floats the monodromy and path sums use)."""
        f = edge.base_frac
        cols = [self._column((edge.eid, 0.0, f)), self._column((edge.eid, f, 1.0))]
        first, second = self._action_table()._at(E, cols)
        return first + second

    def _action_sum(self, edges: Sequence[Edge], E: float) -> float:
        """Action of a cycle: the sum of its edge actions."""
        return sum(self.edge_action(e, E) for e in edges)

    def tau(self, ch_from: int, ch_to: int, vertex, h: float) -> complex:
        """Transfer-matrix entry from channel ch_from to ch_to at a vertex."""
        key = (vertex.index, vertex.sign, h)
        T = self._transfer.get(key)
        if T is None:
            T = transfer_matrix(vertex.crossing, vertex.sign, h, self.calib).tolist()
            self._transfer[key] = T
        return T[ch_to - 1][ch_from - 1]

    # --- the stacked action table ----------------------------------------------

    def _column(self, key: Tuple[int, float, float]) -> int:
        """Table column of a segment.  Columns are only ever appended, so a
        column index stays valid."""
        col = self._columns.get(key)
        if col is None:
            col = self._columns[key] = len(self._columns)
            self._table = None
        return col

    def _plan(self, key: PhaseKey) -> tuple:
        """Table columns and turning-point terms of the phases named by key:
        a full edge (0, 1) sums its two base-point halves and takes the
        edge's turning points; an empty segment has phase 1."""
        plan = self._plans.get(key)
        if plan is None:
            first, full, second, nu_terms, units = [], [], [], [], []
            for j, (eid, flo, fhi) in enumerate(key):
                edge = self._edges_sorted[self._index[eid]]
                nu = 0
                if flo == fhi:
                    units.append(j)
                    first.append(0)
                elif (flo, fhi) == (0.0, 1.0):
                    first.append(self._column((eid, 0.0, edge.base_frac)))
                    full.append(j)
                    second.append(self._column((eid, edge.base_frac, 1.0)))
                    nu = edge.nu
                else:
                    first.append(self._column((eid, flo, fhi)))
                    nu = len(edge.sub_pieces(flo, fhi)) - 1
                nu_terms.append(math.pi * nu / 2.0)
            plan = self._plans[key] = tuple(np.array(a, dtype=t) for a, t in (
                (first, int), (full, int), (second, int), (nu_terms, float), (units, int)))
        return plan

    def _fit(self, key: Tuple[int, float, float]) -> ActionFn:
        if key not in self._fits:
            eid, flo, fhi = key
            edge = self._edges_sorted[self._index[eid]]
            self._fits[key] = ActionFn.build(
                lambda E: action_edge(self.p, edge, E, flo, fhi), self.domain)
        return self._fits[key]

    def _action_table(self) -> ActionTable:
        """The table of every column's fit; a new column's segment is fitted
        here, on the first evaluation that asks for it."""
        if self._table is None:
            self._table = ActionTable([self._fit(key) for key in self._columns])
        return self._table

    def _actions(self, x: np.ndarray, count: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The table's first count series (all for None) at the distinct
        real energies of x, and the row of each entry of x: one table
        evaluation.  The segment actions come first, columns as in _column,
        then their energy derivatives in the same order, so count =
        len(_columns) + _n_loop ends with the loop halves' derivatives.  One
        energy skips np.unique, which costs about as much as the table
        there."""
        xs, rows = np.unique(x, return_inverse=True) if len(x) != 1 else (x, _ONE_ROW)
        return self._action_table()(xs, count), rows

    def _loop_derivative(self, vals: np.ndarray) -> np.ndarray:
        """A'(E) from the derivative columns of the loop edges' halves, summed
        in the scalar sum's order."""
        d = vals[:, len(self._columns):]
        total = 0.0
        for j in range(0, self._n_loop, 2):
            total = total + (d[:, j] + d[:, j + 1])
        return total

    def _evaluate(self, E: np.ndarray, h: float, key: PhaseKey,
                  loop_derivative: bool = False) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """_phases of the segments named by key at the complex energies E,
        and A'(Re E) when loop_derivative is set: one table evaluation for
        both, of every derivative series off the real axis and of the loop
        halves' alone on it."""
        plan = self._plan(key)  # first: a new column resets the table
        count = len(self._columns) + (self._n_loop if loop_derivative else 0)
        vals, rows = self._actions(E.real, None if E.imag.any() else count)
        vals = vals[rows]
        return self._phases(vals, E.imag, h, plan), (self._loop_derivative(vals) if loop_derivative else None)

    def _phases(self, vals: np.ndarray, y: np.ndarray, h: float, plan: tuple) -> np.ndarray:
        """Phases e^{iS/h - i pi nu/2} of the segments of a _plan at the
        energies x + iy, as an (N, segments) array, given the table rows
        vals at x (with derivative columns wherever y is not 0).

        Off the real axis the action continues to first order,
        S(x + iy) = S(x) + i y S'(x); |Im E| <= Lh keeps the quadratic
        remainder below the certified orders.  The argument is formed on
        real and imaginary parts, (-Im S / h, Re S / h - pi nu / 2), which
        are the floats Python's complex arithmetic gives.
        """
        first, full, second, nu_terms, units = plan
        s_re = vals[:, first]
        if full.size:
            s_re[:, full] += vals[:, second]
        arg = np.zeros(s_re.shape, dtype=complex)
        arg.imag = s_re / h - nu_terms
        if y.any():
            n = len(self._columns)
            dy = y[:, None] * vals[:, n:]
            s_im = dy[:, first]
            if full.size:
                s_im[:, full] += dy[:, second]
            arg.real = -s_im / h
        ph = np.exp(arg)
        if units.size:
            ph[:, units] = 1.0
        return ph

    # --- probability amplitudes ----------------------------------------------

    def _path_amplitude(self, path: PathSeq, ph: np.ndarray, cols: Sequence[int],
                        h: float) -> Tuple[np.ndarray, np.ndarray]:
        """A path's amplitude at each row's energy, as real and imaginary
        parts, given the phases ph of its segments at the positions cols of
        each row: 1 times each phase and transfer entry in path order, every
        product formed as Python's complex product."""
        edges = path.edges
        re, im = np.ones(len(ph)), np.zeros(len(ph))
        for k, e in enumerate(edges):
            if k > 0:
                t = self.tau(edges[k - 1].channel, e.channel, edges[k - 1].target, h)
                re, im = _cmul(re, im, t.real, t.imag)
            phase = ph[:, cols[k]]
            re, im = _cmul(re, im, phase.real, phase.imag)
        if path.tail is not None:
            t = self.tau(edges[-1].channel, path.tail.channel, path.tail.attach, h)
            re, im = _cmul(re, im, t.real, t.imag)
        return re, im

    def probability_amplitude(self, path: PathSeq, E, h: float) -> complex:
        """Product of segment phases, turning-point factors and transfer
        entries along a generalized trajectory.

        When the path ends on a tail, the transfer entry of the final hop is
        included but the tail's own (common, unimodular at real energy)
        phase factor is dropped.
        """
        ph = self._evaluate(np.array([complex(E)]), h, _path_key(path))[0]
        re, im = self._path_amplitude(path, ph, range(len(path.edges)), h)
        return complex(re[0], im[0])

    # --- monodromy -------------------------------------------------------------

    def _stack(self, ph: np.ndarray, h: float) -> np.ndarray:
        """The (N, n, n) monodromy stack with entries M[:, i, j] = ph2[j] *
        tau * ph1[i], given the halves' phases ph at N energies; the
        incidence and the tau of each entry are cached per h."""
        links = self._links.get(h)
        if links is None:
            entries = [(i, j, self.tau(ep.channel, e.channel, ep.target, h))
                       for j, ep in enumerate(self._edges_sorted)
                       for i, e in enumerate(self._edges_sorted) if e.source.key == ep.target.key]
            rows, cols, taus = (np.array(a) for a in zip(*entries))
            links = self._links[h] = (rows, cols, len(self._edges_sorted) + cols, taus.real, taus.imag)
        rows, cols, ph2_cols, tau_re, tau_im = links
        ph2, ph1 = ph[:, ph2_cols], ph[:, rows]
        m_re, m_im = _cmul(*_cmul(ph2.real, ph2.imag, tau_re, tau_im), ph1.real, ph1.imag)
        n = len(self._edges_sorted)
        M = np.zeros((len(ph), n, n), dtype=complex)
        M.real[:, rows, cols] = m_re
        M.imag[:, rows, cols] = m_im
        return M

    def monodromy(self, E, h: float) -> np.ndarray:
        """Edge-indexed matrix of one-vertex amplitudes between base points
        (rows/columns ordered by edge id); an (N, n, n) stack for an array
        of N energies."""
        Es = np.asarray(E, dtype=complex)
        M = self._stack(self._evaluate(Es.reshape(-1), h, self._halves)[0], h)
        return M if Es.ndim else M[0]

    def det_one_minus_m(self, E, h: float):
        """det(I - M(E)): a complex, or an array for an array of energies,
        on the monodromy stack of all the energies (one table evaluation)."""
        Es = np.asarray(E, dtype=complex)
        M = self._stack(self._evaluate(Es.reshape(-1), h, self._halves)[0], h)
        # I - M in place, as -M + I: the same floats
        np.negative(M, out=M)
        M += np.eye(M.shape[-1], dtype=complex)
        d = np.linalg.det(M)
        return d if Es.ndim else complex(d[0])

    def det_cycle_expansion(self, E, h: float) -> complex:
        """det(I - M) from the primitive-cycle expansion: 1 plus the sum over
        sets of pairwise vertex-disjoint primitive cycles of prod(-P(cycle)).
        Combinatorial cross-check for the LU determinant."""
        E = complex(E)
        cycles = primitive_cycles(self.g)
        key = tuple((e.eid, 0.0, 1.0) for e in self._edges_sorted)
        full = self._evaluate(np.array([E]), h, key)[0][0].tolist()
        amps = []
        vsets = []
        for cyc in cycles:
            amp = 1.0 + 0.0j
            n = len(cyc)
            for k, e in enumerate(cyc):
                amp *= full[self._index[e.eid]]
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
        return self._action_sum(self.g.gamma1_edges(), E)

    def _gamma1_action_derivative(self, E: float) -> float:
        vals, _ = self._actions(np.array([float(E)]), len(self._columns) + self._n_loop)
        return float(self._loop_derivative(vals)[0])

    def level_spacing(self, h: float) -> float:
        """Spacing 2 pi h / |A'(e0)| of the Bohr-Sommerfeld levels near e0."""
        return 2.0 * math.pi * h / abs(self.ap0)

    def box(self, h: float) -> Tuple[float, float]:
        """The resonance box e0 +/- L*h, for an h whose Bohr-Sommerfeld
        levels the solver can still separate."""
        if not self.level_spacing(h) > _LEVEL_XTOL:
            raise HUnresolved(
                f"h = {h!r} is too small: Bohr-Sommerfeld levels "
                f"{self.level_spacing(h):.3g} apart, not above the solver's {_LEVEL_XTOL:g}"
            )
        return (self.p.e0 - self.p.L * h, self.p.e0 + self.p.L * h)

    def bohr_sommerfeld(self, h: float) -> List[float]:
        """Energies in the box where the loop action hits an odd multiple of
        pi*h (cos(A/2h) = 0).  May be empty for small L; raises HUnresolved
        when two levels come out equal.  Each h's grid is solved once per
        engine; every call returns a fresh list."""
        levels = self._levels.get(h)
        if levels is None:
            levels = bohr_sommerfeld(self.gamma1_action, *self.box(h), h)
            for a, b in zip(levels, levels[1:]):
                if not b > a:
                    raise HUnresolved(f"h = {h!r} is too small: two Bohr-Sommerfeld levels "
                                      f"come out equal at E = {a!r}")
            self._levels[h] = levels
        return list(levels)

    # --- pseudo-resonances ------------------------------------------------------

    def _newton_tol(self, h: float) -> float:
        """|det(I - M)| at which damped Newton accepts a root at h:
        NEWTON_TOL, or the roundoff floor eps |A(e0)| / h where that is
        larger.  A phase e^{iS/h} is formed from S/h, whose rounding error
        is about eps |S| / h, so near a root |det(I - M)| cannot fall much
        below the floor.  With the loop action A(e0) = pi the floor passes
        NEWTON_TOL below h = 7e-4."""
        return max(NEWTON_TOL, sys.float_info.epsilon * abs(self.gamma1_action(self.p.e0)) / h)

    def _newton_run(self, seed: float, h: float, tol: float):
        """Damped Newton on det(I - M) from one seed, as a coroutine: it
        yields each energy it may step to, the seed and then each trial
        point E + step, together with its central-difference stencil
        [E, E + delta, E - delta] where the stencil stays in the cached
        energy domain, and is sent their values; an accepted step so comes
        with its derivative.  Returns the energy it ended at, the
        determinant there, the iterations taken and the tolerance tol it
        stops at.  The run stays in the cached energy domain: a step whose
        real part leaves it is halved unevaluated, and the run ends at an
        energy whose stencil would leave it."""
        lo, hi = self.domain
        delta = 1e-3 * h

        def stencil(E: complex) -> List[complex]:
            return [E, E + delta, E - delta] if lo <= E.real - delta and E.real + delta <= hi else [E]

        E = complex(seed)
        fE, *f_pm = yield stencil(E)
        for it in range(1, 51):
            if abs(fE) <= tol:
                return E, fE, it - 1, tol
            if not f_pm:
                break
            f_plus, f_minus = f_pm
            fp = (f_plus - f_minus) / (2.0 * delta)
            if fp == 0:
                break
            step = -fE / fp
            accepted = False
            for _ in range(25):
                cand = E + step
                if lo <= cand.real <= hi:
                    fc, *fc_pm = yield stencil(cand)
                    if abs(fc) < abs(fE):
                        E, fE, f_pm = cand, fc, fc_pm
                        accepted = True
                        break
                step /= 2.0
                if abs(step) < 1e-16 * max(1.0, abs(E)):
                    break
            if not accepted:
                break
        return E, fE, 50, tol

    def _newton_runs(self, seeds: List[float], h: float) -> list:
        """Every seed's _newton_run in lockstep, each round one
        det_one_minus_m call for all the energies the runs ask for (a value
        does not depend on the energies batched with it).  Returns each
        run's end."""
        tol = self._newton_tol(h)
        runs = [self._newton_run(seed, h, tol) for seed in seeds]
        ends: list = [None] * len(runs)
        asks = {k: run.send(None) for k, run in enumerate(runs)}
        while asks:
            dets = iter(self.det_one_minus_m(
                np.array([z for zs in asks.values() for z in zs], dtype=complex), h).tolist())
            for k, zs in list(asks.items()):
                try:
                    asks[k] = runs[k].send([next(dets) for _ in zs])
                except StopIteration as stop:
                    ends[k] = stop.value
                    del asks[k]
        return ends

    def _newton_root(self, seed: float, end: Tuple[complex, complex, int, float]) -> PseudoResonance:
        """The pseudo-resonance at the end (E, det(I - M(E)), iterations,
        tolerance) of the Newton run from seed, or NewtonDiverged where
        det(I - M) is not yet within the tolerance there."""
        E, fE, iters, tol = end
        if abs(fE) <= tol:
            return PseudoResonance(E=E, seed=seed, residual=abs(fE), newton_iters=iters)
        raise NewtonDiverged(f"seed {seed:.10g}: residual {abs(fE):.3e} after damped Newton")

    def count_by_argument_principle(self, h: float) -> int:
        """Winding number of det(I - M) around the resonance box boundary,
        from its values on an adaptive subset of the _COUNT_NODES contour
        nodes (_contour_steps)."""
        lo, hi = self.box(h)
        half = self.p.L * h
        per = _COUNT_NODES // 4
        corners = [complex(lo, -half), complex(hi, -half), complex(hi, half), complex(lo, half)]
        ts = np.arange(per) / per
        zs = np.empty(4 * per, dtype=complex)
        for k, (a, b) in enumerate(zip(corners, corners[1:] + corners[:1])):
            # a + (b - a) t on real and imaginary parts: on a box's sides
            # these are the floats of Python's complex arithmetic
            side = slice(k * per, (k + 1) * per)
            zs.real[side] = a.real + (b - a).real * ts
            zs.imag[side] = a.imag + (b - a).imag * ts
        vals, steps = _contour_steps(lambda idx: self.det_one_minus_m(zs[idx], h), len(zs))
        if np.any(np.abs(vals) < 1e-13):
            raise CountMismatch("det(I - M) vanishes on the counting contour")
        winding = float(np.sum(steps)) / (2.0 * math.pi)
        if abs(winding - round(winding)) > 0.25:
            raise CountMismatch(f"winding number {winding:.3f} is not close to an integer")
        return int(round(winding))

    def _roots_from_seeds(self, seeds: List[float], h: float) -> List[PseudoResonance]:
        """The distinct roots in the box that Newton reaches from the seeds.
        The runs go in lockstep; their ends are taken in seed order, so the
        first seed whose run diverged raises, as one run after another
        would."""
        roots: List[PseudoResonance] = []
        for seed, end in zip(seeds, self._newton_runs(seeds, h)):
            pr = self._newton_root(seed, end)
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
        alpha, tail_amp, _ = self._resolvent(E, h)
        return alpha, tail_amp

    def _resolvent(self, E, h: float, loop_derivative: bool = False):
        """amplitude_vector's (alpha, tail_amp), plus A'(E) when asked for,
        from one evaluation of the action table; the tail hops reuse the
        monodromy's phases."""
        ph, ap = self._evaluate(np.array([complex(E)]), h, self._halves, loop_derivative)
        n = len(self._edges_sorted)
        M = self._stack(ph, h)[0]
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
                    hop = complex(ph[0, n + i]) * self.tau(e.channel, t.channel, t.attach, h)
                    total += hop * alpha_vec[i]
            tail_amp[t.tid] = complex(total)
        return alpha, tail_amp, (None if ap is None else float(ap[0]))

    # --- widths -------------------------------------------------------------------

    def width_coefficient(self, E, h: float, variant: str = "one_switch") -> WidthBreakdown:
        """Leading width coefficient D(E):
        h^{-2/(m0+1)} / (2 |A'(E)|) * sum over outgoing tails of
        |sum of path amplitudes from the reference base point|^2.

        The loop-action derivative is taken at the evaluation energy rather
        than frozen at the reference energy (the two differ by O(h) inside
        the box, but the energy-resolved value tracks the true widths much
        better at finite h).  The one-switch variant sums the finitely many
        single-switch paths; the full variant replaces the inner sum by the
        resolvent amplitude.  The one-switch variant also takes a 1-D array
        of energies; E and D of its result are then arrays over the energies.
        """
        if variant == "one_switch":
            return self._one_switch(E, h)
        if variant != "full":
            raise ValueError(f"unknown variant {variant!r}")
        _, tail_amp, ap = self._resolvent(E, h, loop_derivative=True)
        tail_sums = [tail_amp[t.tid] for t in self.g.outgoing_tails()]
        return WidthBreakdown(E, h, self._D(tail_sums, ap, h))

    def _D(self, tail_sums: List[complex], ap: float, h: float) -> float:
        total = sum(abs(v) ** 2 for v in tail_sums)
        return h ** (-2.0 / (self.m0 + 1)) / (2.0 * abs(ap)) * total

    def _switch_paths(self):
        """The one-switch paths of each outgoing tail, each with the
        positions of its segments in the phase key that all of them share."""
        if self._one_switch_paths is None:
            tails = [[(pth, _path_key(pth)) for pth in paths_one_switch(self.g, t)]
                     for t in self.g.outgoing_tails()]
            key = tuple(dict.fromkeys(seg for ps in tails for _, k in ps for seg in k))
            pos = {seg: j for j, seg in enumerate(key)}
            self._one_switch_paths = key, [
                [(pth, [pos[seg] for seg in k]) for pth, k in ps] for ps in tails]
        return self._one_switch_paths

    def _one_switch(self, E, h: float) -> WidthBreakdown:
        es = np.asarray(E, dtype=float).reshape(-1)
        key, tails = self._switch_paths()
        sums = np.empty((len(es), len(tails)), dtype=complex)
        ph, ap = self._evaluate(es.astype(complex), h, key, loop_derivative=True)
        for t, paths in enumerate(tails):
            # the tail sum as Python's sum() forms it: 0 + a1 + a2 ...
            s_re, s_im = 0.0, 0.0
            for pth, cols in paths:
                re, im = self._path_amplitude(pth, ph, cols, h)
                s_re, s_im = s_re + re, s_im + im
            sums.real[:, t], sums.imag[:, t] = s_re, s_im
        # |v|^2 on Python floats: numpy's abs and square differ in the last bit
        D = np.array([self._D(row, a, h) for row, a in zip(sums.tolist(), ap.tolist())])
        if np.ndim(E):
            return WidthBreakdown(es, h, D)
        return WidthBreakdown(E, h, float(D[0]))

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
        form: 2 / |A'(E)| * Im(omega * e^{i S_gamma / 2h})^2, with omega the
        transfer coefficient at rho_other, the vertex away from the outgoing
        tail.
        """
        c, _, other, mixed = self._simple_topology()
        phase = cmath.exp(1j * self._action_sum(mixed, E) / (2.0 * h))
        F = (omega(c, other.sign, self.calib) * phase).imag
        return 2.0 / abs(self._gamma1_action_derivative(E)) * F * F

    def vanishing_energies(self, h: float) -> List[float]:
        """Energies where the closed-form width coefficient vanishes: the
        half-cycle phase S_gamma/2h aligns omega, whose phase is that of
        mu * conj(U), with the real axis."""
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

        def levels(slo: float, shi: float) -> List[float]:
            # S/2h + psi = k*pi
            k_lo = math.ceil(slo / (2.0 * math.pi * h) + psi / math.pi)
            k_hi = math.floor(shi / (2.0 * math.pi * h) + psi / math.pi)
            return [2.0 * h * (math.pi * k - psi) for k in range(k_lo, k_hi + 1)]

        return _level_crossings(lambda E: self._action_sum(mixed, E), lo, hi, levels)

    # --- the scorecard -----------------------------------------------------------

    def predicted_widths(self, E: Sequence[float], h: float) -> Tuple[List[float], List[float]]:
        """The one-switch width coefficients D at real energies E and the
        predicted imaginary parts -D h^width_exponent, as lists."""
        D = self.width_coefficient(np.array(E, dtype=float), h, "one_switch").D.tolist()
        return D, [-d * h ** self.width_exponent for d in D]

    def resonance_table(self, h: float) -> List[dict]:
        """Per Bohr-Sommerfeld seed: the pseudo-resonance (None where Newton
        from that seed found no new root in the box) with its real and
        imaginary parts, the width coefficient D and the predicted imaginary
        part im_pred.

        The pseudo-resonance imaginary part is reported but is not the
        width prediction: the first-order transfer matrices do not certify
        it, so the prediction comes from the path-sum coefficient.
        """
        rows = []
        seeds = self.bohr_sommerfeld(h)
        pseudos = {pr.seed: pr for pr in self._roots_from_seeds(seeds, h)}
        for seed, D, im_pred in zip(seeds, *self.predicted_widths(seeds, h)):
            pr = pseudos.get(seed)
            rows.append(
                {
                    "seed": seed,
                    "pseudo": pr,
                    "pseudo_re": pr.E.real if pr else math.nan,
                    "pseudo_im": pr.E.imag if pr else math.nan,
                    "D": D,
                    "im_pred": im_pred,
                }
            )
        return rows
