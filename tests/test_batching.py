"""Energies evaluated in arrays give the one-energy floats bit for bit.

A scalar call is the array path with one energy, so these tests compare
the bytes of each batched result with the one-energy results, and count
the calls the batched paths make.  The argument-principle count's adaptive
contour is checked against the winding numbers of its full node grid.
"""

import cmath
import dataclasses
import math
import random
import sys

import numpy as np
import pytest

import fixtures
from crosswidth import pipeline, quadrature, semiclassics
from crosswidth.geometry import Edge, Piece
from crosswidth.semiclassics import _cmul

H = 0.05


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def _recorded_dets(engine):
    """Record the energies of every det_one_minus_m call on the engine."""
    calls = []
    det = engine.det_one_minus_m

    def recorded(E, h):
        calls.append(np.array(E))
        return det(E, h)

    engine.det_one_minus_m = recorded
    return calls


def _recorded_rounds(engine, h):
    """The energies of each det_one_minus_m call that
    count_by_argument_principle(h) makes, one call per refinement round,
    the contour-node indices each call evaluates, and the count or the
    CountMismatch it raised."""
    rounds = []
    steps = semiclassics._contour_steps

    def recorded(f, n):
        def indexed(idx):
            rounds.append(idx)
            return f(idx)

        return steps(indexed, n)

    semiclassics._contour_steps = recorded
    calls = _recorded_dets(engine)
    try:
        count = engine.count_by_argument_principle(h)
    except semiclassics.CountMismatch as exc:
        count = exc
    finally:
        semiclassics._contour_steps = steps
        del engine.det_one_minus_m
    assert [len(E) for E in calls] == [len(idx) for idx in rounds]
    return calls, rounds, count


def _contour_nodes(engine, h):
    """The energies count_by_argument_principle evaluates, in the order of
    its det_one_minus_m calls."""
    calls, _, count = _recorded_rounds(engine, h)
    assert isinstance(count, int)
    return np.concatenate(calls)


@pytest.mark.parametrize("name", ["f0_engine", "f1arc_engine"])
def test_contour_batch_equals_one_energy_calls(request, name):
    _, _, engine = request.getfixturevalue(name)
    lo, hi = engine.box(H)
    zs = np.concatenate([_contour_nodes(engine, H), np.linspace(lo, hi, 5).astype(complex)])
    assert np.any(zs.imag == 0.0) and np.any(zs.imag != 0.0)
    stack = engine.monodromy(zs, H)
    assert stack.shape == (len(zs),) + engine.monodromy(zs[0], H).shape
    assert stack.tobytes() == b"".join(engine.monodromy(z, H).tobytes() for z in zs.tolist())
    dets = engine.det_one_minus_m(zs, H)
    assert dets.tobytes() == _bits([engine.det_one_minus_m(z, H) for z in zs.tolist()])
    assert isinstance(engine.det_one_minus_m(zs[0], H), complex)


def test_dip_scan_batch_equals_one_energy_calls(f0_engine):
    _, _, engine = f0_engine
    lo, hi = engine.box(H)
    es = np.linspace(lo, hi, 801)
    batch = engine.width_coefficient(es, H, "one_switch")
    single = [engine.width_coefficient(E, H, "one_switch") for E in es.tolist()]
    assert batch.D.tobytes() == np.array([w.D for w in single]).tobytes()


def test_contour_phases_and_entries_follow_python_complex_arithmetic(f0_engine):
    # the phase argument and the entry products are formed on real and
    # imaginary parts; they must give the floats of the scalar formulas
    # S(x + iy) = S(x) + i y S'(x), e^{iS/h - i pi nu/2} and ph2 * tau * ph1
    _, _, engine = f0_engine
    zs = _contour_nodes(engine, H)
    # the segment actions and their derivatives are numpy's own evaluation
    # of the fits
    ph = engine._evaluate(zs, H, engine._halves)[0]
    segs = []
    for eid, flo, fhi in engine._halves:
        fit = engine._fits[(eid, flo, fhi)]
        nu = len(engine._edges_sorted[engine._index[eid]].sub_pieces(flo, fhi)) - 1
        segs.append((fit.cheb, fit.cheb.deriv(), nu))
    want = []
    for z in zs.tolist():
        x, y = z.real, z.imag
        for fn, dfn, nu in segs:
            S = complex(float(fn(x))) if y == 0.0 else float(fn(x)) + 1j * y * float(dfn(x))
            want.append(cmath.exp(1j * S / H - 1j * math.pi * nu / 2.0))
    assert ph.tobytes() == _bits(want)
    stack = engine.monodromy(zs, H)
    edges = engine._edges_sorted
    n = len(edges)
    for k, row in enumerate(ph.tolist()):
        M = np.zeros((n, n), dtype=complex)
        for j, ep in enumerate(edges):
            for i, e in enumerate(edges):
                if e.source.key == ep.target.key:
                    M[i, j] = row[n + j] * engine.tau(ep.channel, e.channel, ep.target, H) * row[i]
        assert stack[k].tobytes() == M.tobytes()


@pytest.mark.parametrize("name", ["f0_engine", "f1arc_engine"])
def test_scalar_actions_equal_numpy_evaluation_of_the_fits(request, name):
    # edge_action and gamma1_action read the table's one-energy path; each
    # must give numpy's evaluation of the fits, summed in the same order
    _, g, engine = request.getfixturevalue(name)
    lo, hi = engine.box(H)
    engine.monodromy(engine.p.e0, H)  # every base-point half is fitted

    def numpy_edge_action(e, E):
        first = engine._fits[(e.eid, 0.0, e.base_frac)].cheb(E)
        second = engine._fits[(e.eid, e.base_frac, 1.0)].cheb(E)
        return float(first) + float(second)

    for E in np.linspace(lo, hi, 7).tolist():
        for e in g.edges:
            assert _bits([engine.edge_action(e, E)]) == _bits([numpy_edge_action(e, E)])
        want = sum(numpy_edge_action(e, E) for e in g.gamma1_edges())
        assert _bits([engine.gamma1_action(E)]) == _bits([want])


def _signed(rng):
    return rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0), rng.uniform(-1e-3, 1e-3),
                       math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-60, 60))])


def test_real_arithmetic_product_matches_python_complex():
    # numpy's complex multiply may fuse the multiply-adds; _cmul must give
    # Python's complex product, signed zeros included
    rng = random.Random(7)
    a = [complex(_signed(rng), _signed(rng)) for _ in range(4000)]
    b = [complex(_signed(rng), _signed(rng)) for _ in range(4000)]
    A, B = np.array(a), np.array(b)
    re, im = _cmul(A.real, A.imag, B.real, B.imag)
    want = np.array([x * y for x, y in zip(a, b)])
    assert re.tobytes() == want.real.copy().tobytes()
    assert im.tobytes() == want.imag.copy().tobytes()


@pytest.mark.parametrize("name", ["f0_engine", "f1arc_engine"])
def test_count_makes_one_table_evaluation_per_round(request, name, monkeypatch):
    _, _, engine = request.getfixturevalue(name)
    tables, stacks = [], []
    table_call = semiclassics.ActionTable.__call__
    stack = engine._stack

    def counted_table(table, E, count=None):
        tables.append(np.array(E))
        return table_call(table, E, count)

    def counted_stack(ph, h):
        M = stack(ph, h)
        stacks.append(M.shape)
        return M

    monkeypatch.setattr(semiclassics.ActionTable, "__call__", counted_table)
    engine._stack = counted_stack
    try:
        calls, _, _ = _recorded_rounds(engine, H)
    finally:
        del engine._stack
    # one table evaluation per round, over its nodes' distinct real parts:
    # each vertical side has one, and the top and bottom sides share theirs
    assert [t.tobytes() for t in tables] == [np.unique(E.real).tobytes() for E in calls]
    assert len(tables[0]) < len(calls[0]) // 2
    # one monodromy stack per round, over all its nodes
    n = len(engine._edges_sorted)
    assert stacks == [(len(E), n, n) for E in calls]


def _one_energy_fit(p, edge, flo, fhi, domain):
    def one_at_a_time(E):
        return np.array([quadrature.action_edge(p, edge, e, flo, fhi) for e in E.tolist()])

    return quadrature.ActionFn.build(one_at_a_time, domain)


def test_batched_fits_equal_one_energy_fits(f0_engine, f1arc_engine):
    engines = [f0_engine[2], f1arc_engine[2], pipeline.build_engine(fixtures.f2(), h_max=0.08)[2]]
    for engine in engines:
        # the monodromy's halves and every one-switch path segment
        engine.det_one_minus_m(engine.p.e0, H)
        engine.width_coefficient(np.array([engine.p.e0]), H)
        assert len(engine._fits) >= len(engine._halves)
        for (eid, flo, fhi), fit in engine._fits.items():
            edge = engine._edges_sorted[engine._index[eid]]
            one = _one_energy_fit(engine.p, edge, flo, fhi, engine.domain)
            assert fit.cheb.coef.tobytes() == one.cheb.coef.tobytes()
            assert (fit.err_estimate, fit.n_nodes) == (one.err_estimate, one.n_nodes)


def _recorded_passes(monkeypatch):
    """(rows, panels) of every quadrature pass, as they run."""
    passes = []
    composite = quadrature._composite_gl

    def recorded(f, lo, hi, rows, panels):
        passes.append((len(rows), panels))
        return composite(f, lo, hi, rows, panels)

    monkeypatch.setattr(quadrature, "_composite_gl", recorded)
    return passes


def test_action_edge_rows_equal_one_energy_calls(f1arc_engine, monkeypatch):
    passes = _recorded_passes(monkeypatch)
    # harmonic: a full arc between turning points (sine substitution),
    # one-sided arcs from a turning point on each side (u^2 substitution)
    # and a piece between fixed vertices
    p = fixtures.harmonic()
    es = np.linspace(0.6, 1.5, 7)
    for pieces in [(Piece(-1.0, 1.0, +1, True, True),), (Piece(-1.0, -0.2, +1, True, False),),
                   (Piece(0.3, 1.0, -1, False, True),), (Piece(0.3, 0.5, +1, False, False),),
                   (Piece(-1.0, 0.0, -1, True, False), Piece(-1.0, 0.0, +1, True, False))]:
        arc = Edge(0, 1, None, None, pieces, base_frac=0.5)
        got = quadrature.action_edge(p, arc, es)
        assert got.tobytes() == np.array([quadrature.action_edge(p, arc, E) for E in es.tolist()]).tobytes()
        assert isinstance(quadrature.action_edge(p, arc, 1.0), float)
    # f1_arc's channel-1 edge over the energy domain: its rows converge at
    # different panel counts and leave the batch one by one
    _, g, engine = f1arc_engine
    es = np.linspace(*engine.domain, 9)
    for edge in g.edges:
        passes.clear()
        got = quadrature.action_edge(engine.p, edge, es)
        batch = list(passes)
        assert got.tobytes() == np.array([quadrature.action_edge(engine.p, edge, E)
                                          for E in es.tolist()]).tobytes()
        if edge.eid == 0:
            assert len({rows for rows, _ in batch}) >= 3
            assert all(rows < len(es) for rows, panels in batch if panels > 2)


def test_width_dips_makes_one_batched_width_call(f0_engine):
    _, _, engine = f0_engine
    calls = []
    width = engine.width_coefficient

    def counted(E, h, variant="one_switch"):
        calls.append(np.shape(E))
        return width(E, h, variant)

    engine.width_coefficient = counted
    try:
        pipeline.width_dips(engine, H)
    finally:
        del engine.width_coefficient
    assert calls == [(801,)]


@pytest.mark.parametrize("name", ["f0_engine", "f1arc_engine"])
def test_empty_energy_array_gives_empty_results(request, name):
    # no energies is not one energy: every batched path returns nothing
    engine = request.getfixturevalue(name)[2]
    n = len(engine._edges_sorted)
    assert engine.monodromy(np.array([]), H).shape == (0, n, n)
    assert engine.det_one_minus_m(np.array([], dtype=complex), H).shape == (0,)
    wb = engine.width_coefficient(np.array([]), H)
    assert wb.E.shape == wb.D.shape == (0,)


# --- the semiclassical engine's per-seed and per-energy loops -----------------------

SWEEP = (0.08, 0.06, 0.05, 0.04, 0.03)


@pytest.fixture(scope="module")
def f2_engine():
    return pipeline.build_engine(fixtures.f2(), h_max=0.08)


def _sequential_newton(engine, seed, h):
    """Damped Newton from one seed with one det_one_minus_m call per step,
    as it ran before the seeds ran in lockstep; returns the root and the
    number of det_one_minus_m calls it made."""
    calls = []

    def f(E):
        calls.append(E)
        return engine.det_one_minus_m(E, h)

    # NEWTON_TOL, or the roundoff floor eps |A(e0)| / h of det(I - M) near
    # a root where that is larger
    tol = max(semiclassics.NEWTON_TOL, sys.float_info.epsilon * abs(engine.gamma1_action(engine.p.e0)) / h)
    E = complex(seed)
    fE = f(E)
    delta = 1e-3 * h
    for it in range(1, 51):
        if abs(fE) <= tol:
            return semiclassics.PseudoResonance(E=E, seed=seed, residual=abs(fE), newton_iters=it - 1), len(calls)
        f_plus, f_minus = f(np.array([E + delta, E - delta])).tolist()
        fp = (f_plus - f_minus) / (2.0 * delta)
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
        return semiclassics.PseudoResonance(E=E, seed=seed, residual=abs(fE), newton_iters=50), len(calls)
    raise semiclassics.NewtonDiverged(f"seed {seed:.10g}: residual {abs(fE):.3e} after damped Newton")


def _sequential_roots(engine, seeds, h):
    """_roots_from_seeds with one Newton run after another."""
    roots = []
    for seed in seeds:
        pr, _ = _sequential_newton(engine, seed, h)
        if any(abs(pr.E - q.E) < h * h for q in roots):
            continue
        lo, hi = engine.box(h)
        half = engine.p.L * h
        if lo - 1e-12 <= pr.E.real <= hi + 1e-12 and abs(pr.E.imag) <= half + 1e-12:
            roots.append(pr)
    n_wind = engine.count_by_argument_principle(h)
    if n_wind != len(roots):
        raise semiclassics.CountMismatch(
            f"argument principle counts {n_wind} zeros, Newton found {len(roots)}")
    return roots


def _outcome(fn):
    """fn's roots with their bytes, or its exception's type and message."""
    try:
        roots = fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__, str(exc)
    return [(pr.seed, _bits([pr.E]), pr.residual.hex(), pr.newton_iters) for pr in roots]


@pytest.mark.parametrize("name", ["f0_engine", "f1arc_engine", "f2_engine"])
def test_lockstep_newton_equals_sequential_runs(request, name):
    engine = request.getfixturevalue(name)[2]
    for h in SWEEP:
        seeds = engine.bohr_sommerfeld(h)
        runs = [_sequential_newton(engine, seed, h) for seed in seeds]
        calls = _recorded_dets(engine)
        try:
            ends = engine._newton_runs(seeds, h)
        finally:
            del engine.det_one_minus_m
        for seed, end, (pr, _) in zip(seeds, ends, runs):
            got = engine._newton_root(seed, end)
            assert (got.seed, _bits([got.E]), got.residual.hex(), got.newton_iters) == (
                pr.seed, _bits([pr.E]), pr.residual.hex(), pr.newton_iters)
        # one call per round: as many as the longest run made alone
        assert len(calls) == max(n for _, n in runs)
        assert _outcome(lambda: engine._roots_from_seeds(seeds, h)) == _outcome(
            lambda: _sequential_roots(engine, seeds, h))


def test_lockstep_newton_keeps_f2_count_mismatch(f2_engine):
    engine = f2_engine[2]
    seeds = engine.bohr_sommerfeld(0.05)
    want = _outcome(lambda: _sequential_roots(engine, seeds, 0.05))
    assert want == ("CountMismatch", "argument principle counts 3 zeros, Newton found 2")
    assert _outcome(lambda: engine.resonance_table(0.05)) == want


def test_lockstep_newton_keeps_the_first_diverged_seed(f0_engine, monkeypatch):
    # runs whose determinant never gets small: the first seed in seed
    # order raises, with the message a run after another gives
    engine = f0_engine[2]
    seeds = engine.bohr_sommerfeld(0.05)
    monkeypatch.setattr(semiclassics, "NEWTON_TOL", 0.0)
    monkeypatch.setattr(engine, "gamma1_action", lambda E: 0.0)  # no roundoff floor
    want = _outcome(lambda: _sequential_roots(engine, seeds, 0.05))
    assert want[0] == "NewtonDiverged" and f"seed {seeds[0]:.10g}:" in want[1]
    assert _outcome(lambda: engine._roots_from_seeds(seeds, 0.05)) == want


def test_newton_root_is_called_once_per_seed(f0_engine, monkeypatch):
    # the benchmark's tracer wraps _newton_root by name and reads each
    # call's newton_iters and residual
    engine = f0_engine[2]
    calls = []
    newton_root = semiclassics.SemiclassicsEngine._newton_root

    def recorded(self, seed, end):
        pr = newton_root(self, seed, end)
        calls.append((seed, pr))
        return pr

    monkeypatch.setattr(semiclassics.SemiclassicsEngine, "_newton_root", recorded)
    for h in SWEEP:
        calls.clear()
        seeds = engine.bohr_sommerfeld(h)
        engine.resonance_table(h)
        runs = [_sequential_newton(engine, seed, h)[0] for seed in seeds]
        assert [seed for seed, _ in calls] == seeds
        assert [pr for _, pr in calls] == runs
        assert sum(pr.newton_iters for _, pr in calls) == sum(pr.newton_iters for pr in runs)


def _sequential_path_product(engine, path, phases, cols, h):
    """A path amplitude at one energy as a Python complex product."""
    edges = path.edges
    amp = 1.0 + 0.0j
    for k, e in enumerate(edges):
        if k > 0:
            amp *= engine.tau(edges[k - 1].channel, e.channel, edges[k - 1].target, h)
        amp *= phases[cols[k]]
    if path.tail is not None:
        amp *= engine.tau(edges[-1].channel, path.tail.channel, path.tail.attach, h)
    return amp


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


@pytest.mark.parametrize("name", ["f0_engine", "f1arc_engine", "f2_engine"])
def test_one_switch_width_equals_per_energy_path_products(request, name):
    engine = request.getfixturevalue(name)[2]
    key, tails = engine._switch_paths()
    lo, hi = engine.box(H)
    es = np.linspace(lo, hi, 801)
    got = engine.width_coefficient(es, H, "one_switch")
    ph, ap = engine._evaluate(es.astype(complex), H, key, loop_derivative=True)
    for k, (phases, a) in enumerate(zip(ph.tolist(), ap.tolist())):
        sums = [complex(sum(_sequential_path_product(engine, pth, phases, cols, H) for pth, cols in paths))
                for paths in tails]
        assert float(got.D[k]).hex() == engine._D(sums, a, H).hex()
    # probability_amplitude is the same product at one energy, on or off
    # the real axis
    for E in (es[100], complex(es[500], 0.3 * engine.p.L * H)):
        for paths in tails:
            for pth, _ in paths:
                phases = engine._evaluate(np.array([E], dtype=complex), H,
                                          semiclassics._path_key(pth))[0][0].tolist()
                want = _sequential_path_product(engine, pth, phases, range(len(pth.edges)), H)
                assert _hex(engine.probability_amplitude(pth, E, H)) == _hex(want)


def _python_nodes(lo, hi, half):
    """The _COUNT_NODES contour nodes of the box [lo, hi] x [-half, half],
    each side a + (b - a) t in Python's complex arithmetic."""
    per = semiclassics._COUNT_NODES // 4
    corners = [complex(lo, -half), complex(hi, -half), complex(hi, half), complex(lo, half)]
    zs = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        zs.extend(a + (b - a) * t for t in np.arange(per) / per)
    return np.array(zs, dtype=complex)


def test_contour_nodes_equal_the_python_complex_formula(f0_engine, f1arc_engine):
    stride = semiclassics._COUNT_STRIDE

    def evaluated_nodes(engine, h):
        """The rounds of the count; every node each evaluates is bit-equal
        to python_nodes at its index: every stride-th node first, then the
        middle node of a gap halved in each round."""
        calls, rounds, _ = _recorded_rounds(engine, h)
        want = _python_nodes(*engine.box(h), engine.p.L * h)
        assert rounds[0].tolist() == list(range(0, semiclassics._COUNT_NODES, stride))
        for r, (E, idx) in enumerate(zip(calls, rounds)):
            assert E.tobytes() == want[idx].tobytes()
            if r:
                assert np.all(idx % (2 * (stride >> r)) == stride >> r)
        assert len(rounds) <= stride.bit_length()
        return rounds

    refined = 0
    for engine in (f0_engine[2], f1arc_engine[2]):
        for h in SWEEP:
            refined += len(evaluated_nodes(engine, h)) > 1
    assert refined > 0

    # random boxes, zero and negative edges included, through a stand-in
    # engine whose determinant turns by 0.6 rad per node along the bottom
    # and top sides: 1.2, 2.4, -1.48 and -2.97 rad wrapped across 2, 4, 8
    # and 16 nodes, so each round halves every gap of those sides
    class Box:
        count_by_argument_principle = semiclassics.SemiclassicsEngine.count_by_argument_principle

        def __init__(self, lo, width, L):
            self.p = type("P", (), {"L": L})()
            self._box = (lo, lo + width)
            self.width = width

        def box(self, h):
            return self._box

        def det_one_minus_m(self, E, h):
            turns = 0.6 * semiclassics._COUNT_NODES / 4
            return np.exp(1j * turns * (E.real - self._box[0]) / self.width)

    rng = random.Random(11)
    finest = 0
    for _ in range(300):
        lo = rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0), _signed(rng)])
        box = Box(lo, rng.uniform(1e-6, 1.0), rng.uniform(0.1, 5.0))
        h = rng.choice([rng.uniform(1e-4, 0.1), 0.05])
        finest += len(evaluated_nodes(box, h)) == stride.bit_length()
    assert finest > 250


# --- the adaptive counting contour ------------------------------------------------

COUNT_ENGINES = ["f0_engine", "f0_decoupled_engine", "f1_engine", "f1arc_engine", "f2_engine", "single_engine"]


def _full_grid_count(engine, h):
    """The argument-principle count on every one of the _COUNT_NODES
    contour nodes, in one det_one_minus_m call."""
    vals = engine.det_one_minus_m(_python_nodes(*engine.box(h), engine.p.L * h), h)
    if np.any(np.abs(vals) < 1e-13):
        raise semiclassics.CountMismatch("det(I - M) vanishes on the counting contour")
    args = np.angle(vals)
    steps = np.diff(np.concatenate([args, args[:1]]))
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    winding = float(np.sum(steps)) / (2.0 * math.pi)
    if abs(winding - round(winding)) > 0.25:
        raise semiclassics.CountMismatch(f"winding number {winding:.3f} is not close to an integer")
    return int(round(winding))


def _count_outcome(fn):
    """fn's count, or its CountMismatch's message."""
    try:
        return fn()
    except semiclassics.CountMismatch as exc:
        return str(exc)


@pytest.mark.parametrize("name", COUNT_ENGINES)
def test_adaptive_count_equals_the_full_grid_count(request, name):
    engine = request.getfixturevalue(name)[2]
    for h in np.geomspace(0.03, 0.08, 41).tolist():
        assert _count_outcome(lambda: engine.count_by_argument_principle(h)) == _count_outcome(
            lambda: _full_grid_count(engine, h))


@pytest.mark.parametrize("name", COUNT_ENGINES)
def test_count_evaluates_at_most_512_energies(request, name):
    engine = request.getfixturevalue(name)[2]
    for h in SWEEP:
        calls = _recorded_dets(engine)
        try:
            engine.count_by_argument_principle(h)
        finally:
            del engine.det_one_minus_m
        assert sum(len(E) for E in calls) <= 512


def test_count_refines_to_every_node_next_to_a_zero_by_the_contour():
    # a stand-in determinant E - z0 whose zero sits 1e-6 node spacings
    # above or below the bottom side, halfway between nodes 300 and 301
    class Box:
        count_by_argument_principle = semiclassics.SemiclassicsEngine.count_by_argument_principle
        p = type("P", (), {"L": 1.5})()

        def __init__(self, z0):
            self.z0 = z0

        def box(self, h):
            return (0.675, 0.825)

        def det_one_minus_m(self, E, h):
            return E - self.z0

    h = 0.05
    lo, hi = Box.box(None, h)
    spacing = (hi - lo) / (semiclassics._COUNT_NODES // 4)
    for offset, inside in ((1e-6, 1), (-1e-6, 0)):
        box = Box(complex(lo + 300.5 * spacing, -Box.p.L * h + offset * spacing))
        calls, rounds, count = _recorded_rounds(box, h)
        evaluated = set(np.concatenate(rounds).tolist())
        assert {300, 301} <= evaluated
        assert len(evaluated) <= 512
        assert count == _full_grid_count(box, h) == inside


class _Forgetful(dict):
    """A turning-point memo that keeps nothing: every request is solved."""

    def __setitem__(self, key, value):
        pass


def test_turning_point_memo_solves_each_key_once(monkeypatch):
    solves, asks = [], []
    brentq, resolve = quadrature.brentq, quadrature._resolve_turn

    def counted_brentq(*args):
        solves.append(args[1:3])
        return brentq(*args)

    def recorded(p, channel, E, x0):
        asks.append((channel, x0, E))
        return resolve(p, channel, E, x0)

    monkeypatch.setattr(quadrature, "brentq", counted_brentq)
    monkeypatch.setattr(quadrature, "_resolve_turn", recorded)
    for problem in (fixtures.f0(), fixtures.f1_arc(), fixtures.f2()):
        engine = pipeline.build_engine(problem, h_max=0.08)[2]
        solves.clear()
        asks.clear()
        engine.det_one_minus_m(engine.p.e0, H)
        engine.width_coefficient(np.array([engine.p.e0]), H)
        # one solve per distinct (channel, x0, E), and fits share them
        assert len(solves) == len(set(asks)) == len(problem.turns)
        assert len(asks) > len(set(asks))
        # the same fits from a problem that solves every request afresh
        fresh = pipeline.build_engine(dataclasses.replace(problem), h_max=0.08)[2]
        fresh.p.turns = _Forgetful()
        for (eid, flo, fhi), fit in engine._fits.items():
            edge = engine._edges_sorted[engine._index[eid]]
            again = quadrature.ActionFn.build(
                lambda E: quadrature.action_edge(fresh.p, edge, E, flo, fhi), engine.domain)
            assert fit.cheb.coef.tobytes() == again.cheb.coef.tobytes()
            assert (fit.err_estimate, fit.n_nodes) == (again.err_estimate, again.n_nodes)
        assert not fresh.p.turns


def _looped_dips(es, dvals):
    """width_dips' scan as a loop over the grid."""
    top = float(np.max(dvals))
    if top <= 0:
        return []
    dips = []
    for i in range(1, len(es) - 1):
        if dvals[i] <= dvals[i - 1] and dvals[i] <= dvals[i + 1] and dvals[i] < 0.02 * top:
            dips.append(float(es[i]))
    return dips


def test_dip_mask_equals_the_loop(f0_engine, f2_engine):
    found = 0
    for engine in (f0_engine[2], f2_engine[2]):
        for h in SWEEP:
            es = np.linspace(*engine.box(h), 801)
            dvals = engine.width_coefficient(es, h, "one_switch").D
            dips = pipeline._dips(es, dvals)
            assert _bits(dips) == _bits(_looped_dips(es, dvals))
            found += len(dips)
            # ties and a flat zero scan
            flat = np.round(dvals, 2)
            assert pipeline._dips(es, flat) == _looped_dips(es, flat)
    assert found > 0
    es = np.linspace(0.0, 1.0, 9)
    assert pipeline._dips(es, np.zeros(9)) == _looped_dips(es, np.zeros(9)) == []
