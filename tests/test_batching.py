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

from crosswidth import pipeline, semiclassics
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
def test_count_makes_one_batched_call(request, name):
    _, _, engine = request.getfixturevalue(name)
    calls = []
    stack = engine.monodromy

    def counted(E, h):
        calls.append(np.shape(E))
        return stack(E, h)

    engine.monodromy = counted
    try:
        nodes = _contour_nodes(engine, H)
    finally:
        del engine.monodromy
    # det_one_minus_m forms its stacks a slice of energies at a time
    step = semiclassics._SLICE
    assert calls == [(min(step, len(nodes) - i),) for i in range(0, len(nodes), step)]


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
