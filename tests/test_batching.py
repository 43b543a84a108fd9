"""Energies evaluated in arrays give the one-energy floats bit for bit.

A scalar call is the array path with one energy, so these tests compare
the bytes of each batched result with the one-energy results, and count
the calls the batched paths make.
"""

import cmath
import math
import random

import numpy as np
import pytest

import fixtures
from crosswidth import pipeline, quadrature, semiclassics
from crosswidth.geometry import Edge, Piece
from crosswidth.semiclassics import _cmul

H = 0.05


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def _contour_nodes(engine, h):
    """The energies count_by_argument_principle evaluates, recorded from
    its one batched det_one_minus_m call."""
    calls = []
    det = engine.det_one_minus_m

    def recorded(E, h):
        calls.append(np.array(E))
        return det(E, h)

    engine.det_one_minus_m = recorded
    try:
        engine.count_by_argument_principle(h)
    finally:
        del engine.det_one_minus_m
    assert len(calls) == 1 and calls[0].shape == (semiclassics._COUNT_NODES,)
    return calls[0]


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
    for k, (tid, sums) in enumerate(batch.per_tail):
        assert tid == single[0].per_tail[k][0]
        assert sums.tobytes() == _bits([w.per_tail[k][1] for w in single])
    for j, amps in enumerate(batch.per_path):
        assert amps.tobytes() == _bits([w.per_path[j] for w in single])


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
        _, nu = engine._edges_sorted[engine._index[eid]].sub_pieces(flo, fhi)
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
def test_count_makes_one_table_evaluation(request, name, monkeypatch):
    _, _, engine = request.getfixturevalue(name)
    tables, stacks = [], []
    table_call = semiclassics.ActionTable.__call__
    fill = engine._fill

    def counted_table(table, E, count=None):
        tables.append(np.array(E))
        return table_call(table, E, count)

    def counted_fill(M, ph, h):
        stacks.append(M.shape)
        return fill(M, ph, h)

    monkeypatch.setattr(semiclassics.ActionTable, "__call__", counted_table)
    engine._fill = counted_fill
    try:
        nodes = _contour_nodes(engine, H)
    finally:
        del engine._fill
    # one table evaluation, over the contour's distinct real parts: each
    # vertical side has one, and the top and bottom sides share theirs
    assert len(tables) == 1
    assert tables[0].tobytes() == np.unique(nodes.real).tobytes()
    assert len(tables[0]) < len(nodes) // 2
    # the phases and monodromy stacks are formed a slice of energies at a time
    step, n = semiclassics._SLICE, len(engine._edges_sorted)
    assert stacks == [(min(step, len(nodes) - i), n, n) for i in range(0, len(nodes), step)]


def _one_energy_fit(p, edge, flo, fhi, domain):
    def one_at_a_time(E):
        return np.array([quadrature.action_edge(p, edge, e, flo, fhi) for e in E.tolist()])

    return quadrature.ActionFn.build(one_at_a_time, domain, tol=semiclassics._CACHE_TOL)


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
