import cmath
import math
import random
import sys

import numpy as np
import pytest

import fixtures
from crosswidth import quadrature
from crosswidth.geometry import PathSeq, paths_bounded, paths_one_switch, primitive_cycles
from crosswidth.model import CrossingPoint
from crosswidth.semiclassics import (
    NEWTON_TOL,
    SemiclassicsEngine,
    TopologyMismatch,
    bohr_sommerfeld,
    omega,
    transfer_matrix,
)


def _crossing(x=0.0, xi=1.0, m=1, dv=-1.0, u=1.0 + 0j):
    return CrossingPoint(x=x, xi=xi, m=m, dv=dv, u_plus=complex(u), u_minus=complex(u).conjugate())


def test_transfer_identity_when_uncoupled():
    c = _crossing(u=0.0)
    T = transfer_matrix(c, +1, 0.05)
    assert np.allclose(T, np.eye(2))


def test_transfer_transversal_value():
    # m = 1, xi = 1, dv = -1, coupling symbol 1:
    # omega = e^{-i pi/4} * (2 * 2!)^{1/2} * Gamma(3/2) = sqrt(pi) e^{-i pi/4}
    c = _crossing()
    w = omega(c, +1)
    want = math.sqrt(math.pi) * cmath.exp(-1j * math.pi / 4)
    assert abs(w - want) < 1e-14
    h = 0.04
    T = transfer_matrix(c, +1, h)
    assert T[0, 0] == 1.0 and T[1, 1] == 1.0
    assert abs(T[1, 0] - (-1j) * w * math.sqrt(h)) < 1e-15
    assert abs(T[0, 1] - (-1j) * w.conjugate() * math.sqrt(h)) < 1e-15


def test_transfer_tangential_value():
    # m = 2 keeps the real Gamma/cos constants; dv = -2 -> (2*3!/2)^{1/3}
    c = _crossing(m=2, dv=-2.0)
    w = omega(c, +1)
    want = math.cos(math.pi / 6) * 6.0 ** (1.0 / 3.0) * math.gamma(4.0 / 3.0)
    assert abs(w - want) < 1e-14


def test_transfer_mirror_symmetry():
    # odd order: the mirror vertex carries the conjugate phase
    c = _crossing(u=0.3 + 0.2j)
    wp, wm = omega(c, +1), omega(c, -1)
    # |omega| is sign-independent; the phase combines mu and conj(U)
    assert abs(abs(wp) - abs(wm)) < 1e-14


def test_amplitude_single_edge(f0_engine):
    _, g, eng = f0_engine
    e = next(e for e in g.edges if e.nu == 0)
    h, E = 0.05, eng.p.e0
    amp = eng.probability_amplitude(PathSeq(edges=(e,)), E, h)
    S = eng.edge_action(e, E)
    assert abs(amp - cmath.exp(1j * S / h)) < 1e-12


def test_amplitude_full_cycle(f1arc_engine):
    # the closed channel-1 loop carries e^{iA/h} and two turning points
    _, g, eng = f1arc_engine
    h, E = 0.05, eng.p.e0
    M = eng.monodromy(E, h)
    idx = {e.eid: i for i, e in enumerate(eng._edges_sorted)}
    g1 = g.gamma1_edges()
    prod = M[idx[g1[1].eid], idx[g1[0].eid]] * M[idx[g1[0].eid], idx[g1[1].eid]]
    A = eng.gamma1_action(E)
    assert abs(prod - (-cmath.exp(1j * A / h))) < 1e-10


def test_amplitude_multiplicative_on_splits(f0_engine):
    _, g, eng = f0_engine
    h, E = 0.04, eng.p.e0
    rng = random.Random(5)
    tail = g.outgoing_tails()[0]
    long_path = max(paths_one_switch(g, tail), key=lambda p: len(p.edges))
    edges = long_path.edges
    assert len(edges) >= 3
    # split only at edges whose whole x-range stays classically allowed over
    # the cached energy domain (cut points clear of the moving turning points)
    floor = eng.domain[0] - 0.005
    safe = [
        k for k, e in enumerate(edges)
        if e.nu == 0 and all(
            float(eng.p.v_np(e.channel)(e.pieces[0].x_lo + t * e.pieces[0].width)) < floor
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        )
    ]
    assert safe
    for _ in range(12):
        k = rng.choice(safe)
        f = rng.uniform(0.1, 0.9)
        whole = eng.probability_amplitude(
            PathSeq(edges=edges, start_frac=0.1, end_frac=0.9), E, h
        )
        left = eng.probability_amplitude(
            PathSeq(edges=edges[: k + 1], start_frac=0.1, end_frac=f), E, h
        )
        right = eng.probability_amplitude(
            PathSeq(edges=edges[k:], start_frac=f, end_frac=0.9), E, h
        )
        assert abs(whole - left * right) <= 1e-12 * abs(whole)


def test_monodromy_structure_matches_transfer_assembly(f1arc_engine):
    # with base points at the edge sources, M factors as (transfer entries)
    # times diag(full edge phase); check entrywise against an independent
    # assembly from quadrature actions and the transfer formula
    import dataclasses

    rep, g, eng = f1arc_engine
    p = eng.p
    g2 = dataclasses.replace(g)
    g2.edges = [dataclasses.replace(e, base_frac=0.0) for e in g.edges]
    g2.e0 = next(e for e in g2.edges if e.eid == g.e0.eid)
    eng2 = SemiclassicsEngine(p, rep, g2, calib=1.0, h_max=0.06)
    h, E = 0.05, p.e0
    M = eng2.monodromy(E, h)
    idx = {e.eid: i for i, e in enumerate(eng2._edges_sorted)}
    c = rep.crossings[0]
    T = {+1: transfer_matrix(c, +1, h), -1: transfer_matrix(c, -1, h)}
    for ep in g2.edges:
        for e in g2.edges:
            got = M[idx[e.eid], idx[ep.eid]]
            if ep.target.key != e.source.key:
                assert got == 0
                continue
            S = quadrature.action_edge(p, ep, E)
            phase = cmath.exp(1j * S / h - 1j * math.pi * ep.nu / 2.0)
            tau = T[ep.target.sign][e.channel - 1, ep.channel - 1]
            assert abs(got - tau * phase) < 1e-10 * max(1.0, abs(got))


def test_det_lu_equals_cycle_expansion(f0_engine, f1arc_engine):
    rng = random.Random(11)
    for engine_fixture in (f0_engine, f1arc_engine):
        _, g, eng = engine_fixture
        assert len(g.edges) <= 6
        for h in (0.05, 0.03):
            lo, hi = eng.box(h)
            for _ in range(5):
                E = complex(rng.uniform(lo, hi), rng.uniform(-h, h))
                d1 = eng.det_one_minus_m(E, h)
                d2 = eng.det_cycle_expansion(E, h)
                assert abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1))


def test_bohr_sommerfeld_harmonic_closed_form():
    # A = pi E so the grid is the odd multiples of h
    p = fixtures.harmonic()
    for h in (0.05, 0.03):
        lo, hi = p.e0 - p.L * h, p.e0 + p.L * h
        got = bohr_sommerfeld(lambda E: quadrature.action_loop(p, E), lo, hi, h)
        want = [(2 * k + 1) * h for k in range(200) if lo <= (2 * k + 1) * h <= hi]
        assert len(got) == len(want)
        assert all(abs(a - b) < 1e-10 for a, b in zip(got, want))


def test_level_solves_evaluate_each_bracket_end_once():
    p = fixtures.harmonic()
    lo, hi = 0.85, 1.15
    calls = []

    def action(E):
        calls.append(E)
        return quadrature.action_loop(p, E)

    levels = bohr_sommerfeld(action, lo, hi, 0.05)
    assert len(levels) == 3
    assert calls.count(lo) == calls.count(hi) == 1


def test_engine_grid_is_solved_once_per_h(f1_engine):
    _, _, eng = f1_engine
    first = eng.bohr_sommerfeld(0.06)
    calls = []
    eng.gamma1_action = lambda E: calls.append(E)
    try:
        second = eng.bohr_sommerfeld(0.06)
    finally:
        del eng.gamma1_action
    assert calls == []
    assert second == first and second is not first
    second.clear()
    assert eng.bohr_sommerfeld(0.06) == first


def test_engine_grid_matches_loop_grid(f1arc_engine):
    _, _, eng = f1arc_engine
    h = 0.05
    a = eng.bohr_sommerfeld(h)
    b = bohr_sommerfeld(lambda E: quadrature.action_loop(eng.p, E), *eng.box(h), h)
    assert len(a) == len(b)
    assert all(abs(x - y) < 1e-9 for x, y in zip(a, b))


def test_decoupled_pseudo_resonances(f0_decoupled_engine):
    _, _, eng = f0_decoupled_engine
    for h in (0.05, 0.04):
        seeds = eng.bohr_sommerfeld(h)
        prs = fixtures.pseudo_resonances(eng, h)
        assert len(prs) == len(seeds)
        for pr, s in zip(sorted(prs, key=lambda q: q.E.real), seeds):
            assert abs(pr.E.imag) <= 1e-12
            assert abs(pr.E.real - s) <= 1e-12
            assert pr.residual <= NEWTON_TOL


@pytest.mark.parametrize("name", ["f0_engine", "f0_decoupled_engine", "f1_engine", "f1arc_engine",
                                  "single_engine"])
def test_newton_tol_is_newton_tol_down_to_h_1e_3(request, name):
    # the loop action at e0 is pi on every shipped well, so the roundoff
    # floor eps pi / h stays below NEWTON_TOL for h >= 1e-3 and passes it
    # below 7e-4
    _, _, eng = request.getfixturevalue(name)
    assert eng.gamma1_action(eng.p.e0) == pytest.approx(math.pi, rel=1e-9)
    for h in (0.08, 0.05, 0.03, 1e-2, 1e-3):
        assert eng._newton_tol(h) == NEWTON_TOL
    for h in (6e-4, 3e-4, 1e-4):
        assert eng._newton_tol(h) == sys.float_info.epsilon * abs(eng.gamma1_action(eng.p.e0)) / h > NEWTON_TOL


def test_pseudo_counts_and_scaling(f1_engine):
    _, _, eng = f1_engine
    for h in (0.05, 0.04):
        seeds = eng.bohr_sommerfeld(h)
        prs = fixtures.pseudo_resonances(eng, h)
        assert len(prs) == len(seeds)
        scale = h ** ((eng.m0 + 3.0) / (eng.m0 + 1.0))
        for pr in prs:
            assert abs(pr.E - pr.seed) <= 5.0 * scale


def test_det_asymptotics_first_order(f1arc_engine):
    # det(I - M) = 1 + e^{iA/h} + O(h^{2/(m0+1)}) on the real box
    _, _, eng = f1arc_engine
    devs = []
    for h in (0.05, 0.02):
        lo, hi = eng.box(h)
        worst = 0.0
        for E in np.linspace(lo, hi, 21):
            d = eng.det_one_minus_m(complex(E), h)
            lead = 1 + cmath.exp(1j * eng.gamma1_action(float(E)) / h)
            worst = max(worst, abs(d - lead))
        devs.append(worst)
    assert devs[1] < devs[0]
    assert devs[0] < 2.0 * 0.05 ** (2.0 / 3.0)


def test_det_derivative_tracks_action_derivative(f1arc_engine):
    # h d/dE det(I - M) follows i A'(E) e^{iA/h} up to the next order
    # h^{2/(m0+1)}, whose constant is of size S' |omega|^2 (about 12 here)
    _, _, eng = f1arc_engine
    E = eng.p.e0
    devs = []
    for h in (0.05, 0.02):
        d = 1e-6
        der = (eng.det_one_minus_m(E + d, h) - eng.det_one_minus_m(E - d, h)) / (2 * d)
        want = 1j * eng._gamma1_action_derivative(E) / h * cmath.exp(1j * eng.gamma1_action(E) / h)
        dev = abs(h * der - h * want)
        assert dev <= 20.0 * h ** (2.0 / 3.0)
        devs.append(dev)
    assert devs[1] < devs[0]


def test_amplitude_vector_decoupled(f0_decoupled_engine):
    _, g, eng = f0_decoupled_engine
    h = 0.05
    E = eng.bohr_sommerfeld(h)[0] + 0.3 * h  # away from the quantization set
    alpha, tails = eng.amplitude_vector(E, h)
    assert abs(alpha[g.e0.eid] - 1.0) < 1e-12
    for e in g.edges:
        if e.channel == 1:
            assert abs(abs(alpha[e.eid]) - 1.0) < 1e-10  # pure phases along the loop
        else:
            assert abs(alpha[e.eid]) < 1e-14
    assert all(abs(v) < 1e-14 for v in tails.values())


def test_amplitude_vector_matches_bounded_path_sum(f1arc_engine):
    _, g, eng = f1arc_engine
    tail = g.outgoing_tails()[0]
    devs = []
    for h in (0.05, 0.02):
        E = eng.p.e0
        _, tails = eng.amplitude_vector(E, h)
        series = sum(
            eng.probability_amplitude(pth, E, h) for pth in paths_bounded(g, tail, 3)
        )
        devs.append(abs(tails[tail.tid] - series) / abs(tails[tail.tid]))
    # truncation error drops at the two-extra-switch rate h^{4/(m0+1)}
    assert devs[0] < 0.05 ** (4.0 / 3.0) * 5
    assert devs[1] < devs[0] * (0.02 / 0.05) ** (4.0 / 3.0) * 3


def test_width_one_switch_equals_closed_form(f1arc_engine, single_engine):
    for engine_fixture in (f1arc_engine, single_engine):
        _, _, eng = engine_fixture
        for h in (0.05, 0.02):
            lo, hi = eng.box(h)
            for E in np.linspace(lo + 1e-4, hi - 1e-4, 7):
                D1 = eng.width_coefficient(float(E), h, "one_switch").D
                D2 = eng.closed_form_width_example(float(E), h)
                assert abs(D1 - D2) <= 1e-10 * max(D1, D2, 1e-30)


def test_width_full_close_to_one_switch(f1arc_engine):
    _, _, eng = f1arc_engine
    h = 0.04
    E = eng.p.e0
    d1 = eng.width_coefficient(E, h, "one_switch").D
    d2 = eng.width_coefficient(E, h, "full").D
    assert abs(d2 - d1) <= 2.0 * h ** (1.0 / 3.0) * d1


def test_width_zero_when_uncoupled(f0_decoupled_engine):
    _, _, eng = f0_decoupled_engine
    assert eng.width_coefficient(eng.p.e0, 0.05, "one_switch").D == 0.0
    assert eng.width_coefficient(eng.p.e0, 0.05, "full").D <= 1e-25


def test_vanishing_energies_kill_width(f1arc_engine):
    _, _, eng = f1arc_engine
    h = 0.05
    vans = eng.vanishing_energies(h)
    assert vans
    lo, hi = eng.box(h)
    dmax = max(eng.width_coefficient(float(E), h).D for E in np.linspace(lo, hi, 101))
    for Ev in vans:
        assert eng.width_coefficient(Ev, h).D <= 1e-8 * dmax


def test_vanishing_energy_spacing(f1arc_engine):
    # consecutive roots are about 2 pi h / S' apart
    _, g, eng = f1arc_engine
    h = 0.03
    vans = eng.vanishing_energies(h)
    assert len(vans) >= 2
    mixed = next(c for c in primitive_cycles(g) if any(e.channel == 2 for e in c))
    E = 0.5 * (vans[0] + vans[1])
    d = 1e-5
    sp = sum(eng.edge_action(e, E + d) - eng.edge_action(e, E - d) for e in mixed) / (2 * d)
    want = 2.0 * math.pi * h / sp
    assert abs((vans[1] - vans[0]) - want) <= 0.05 * want


def test_vanishing_requires_simple_topology(f0_engine):
    _, _, eng = f0_engine
    with pytest.raises(TopologyMismatch):
        eng.vanishing_energies(0.05)
    with pytest.raises(TopologyMismatch):
        eng.closed_form_width_example(eng.p.e0, 0.05)


def test_width_invariant_under_base_moves(f1arc_engine):
    import dataclasses

    rep, g, eng = f1arc_engine
    h, E = 0.05, eng.p.e0
    d_ref = eng.width_coefficient(E, h, "one_switch").D
    rng = random.Random(3)
    for _ in range(3):
        g2 = dataclasses.replace(g)
        g2.edges = [dataclasses.replace(e, base_frac=rng.uniform(0.05, 0.2)) for e in g.edges]
        g2.e0 = next(e for e in g2.edges if e.eid == g.e0.eid)
        eng2 = SemiclassicsEngine(eng.p, rep, g2, calib=1.0, h_max=0.06)
        d2 = eng2.width_coefficient(E, h, "one_switch").D
        assert abs(d2 - d_ref) <= 1e-12 * d_ref


def test_width_invariant_under_e0_choice(f0_engine):
    import dataclasses

    rep, g, eng = f0_engine
    assert len(g.e0_alternatives) == 2
    h, E = 0.05, eng.p.e0
    d_ref = eng.width_coefficient(E, h, "one_switch").D
    g2 = dataclasses.replace(g)
    g2.e0 = g.e0_alternatives[1]
    eng2 = SemiclassicsEngine(eng.p, rep, g2, calib=1.0, h_max=0.06)
    eng2._fits = eng._fits  # same action fits: isolate the path algebra
    d2 = eng2.width_coefficient(E, h, "one_switch").D
    assert abs(d2 - d_ref) <= 1e-12 * d_ref


def test_eta_constants():
    # closed-form width constants for contact orders 1 and 2 at unit
    # potential-difference derivative
    eta1 = cmath.exp(1j * math.pi / 4) * math.gamma(1.5) * (2.0 * 2.0) ** 0.5
    assert abs(abs(eta1) - math.gamma(1.5) * 2.0) < 1e-14
    eta2 = math.cos(math.pi / 6) * math.gamma(4.0 / 3.0) * (2.0 * 6.0) ** (1.0 / 3.0)
    assert eta2 > 0


def test_resonance_table_schema(f1_engine):
    _, _, eng = f1_engine
    h = 0.05
    rows = eng.resonance_table(h)
    assert rows
    expo = (eng.m0 + 3.0) / (eng.m0 + 1.0)
    assert eng.width_exponent == expo
    D, im_pred = eng.predicted_widths([row["seed"] for row in rows], h)
    for row, d, im in zip(rows, D, im_pred):
        assert set(row) == {"seed", "pseudo", "pseudo_re", "pseudo_im", "D", "im_pred"}
        assert (row["D"], row["im_pred"]) == (d, im)
        assert row["im_pred"] == -row["D"] * h ** expo
        assert row["D"] >= 0.0
        pr = row["pseudo"]
        assert pr.seed == row["seed"]
        assert (row["pseudo_re"], row["pseudo_im"]) == (pr.E.real, pr.E.imag)
