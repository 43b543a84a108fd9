"""Acceptance suite.

Each test drives one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run pytest with -s to see them inline).
The two oracle sweeps are shared module-level fixtures; everything is
deterministic for the shipped fixture definitions.
"""

import dataclasses
import math
import random
import time

import numpy as np
import pytest

from crosswidth import exprs, fixtures, quadrature
from crosswidth.config import RunConfig
from crosswidth.geometry import PathSeq, paths_one_switch
from crosswidth.oracle import default_contour, refine_resonance
from crosswidth.pipeline import compare_sweep
from crosswidth.semiclassics import SemiclassicsEngine, bohr_sommerfeld

H_SWEEP = [0.08, 0.06, 0.05, 0.04, 0.03]


def _verdict(num, name, ok, detail):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def f0_sweep():
    cfg = RunConfig(problem=fixtures.f0(), h_list=H_SWEEP, calib=1.0)
    t0 = time.time()
    res = compare_sweep(cfg, H_SWEEP, include_green=True)
    res["elapsed"] = time.time() - t0
    return res


@pytest.fixture(scope="module")
def f1_sweep():
    cfg = RunConfig(problem=fixtures.f1(), h_list=H_SWEEP, calib=1.0)
    t0 = time.time()
    res = compare_sweep(cfg, H_SWEEP, include_green=False)
    res["elapsed"] = time.time() - t0
    return res


def test_criterion_1_width_exponent_transversal(f0_sweep):
    slope = f0_sweep["fit_oracle"]["slope"]
    ok = abs(slope - 2.00) <= 0.10 and f0_sweep["elapsed"] < 600.0
    _verdict(1, "transversal width exponent", ok,
             f"slope = {slope:.4f} (want 2.00 +/- 0.10), "
             f"r2 = {f0_sweep['fit_oracle']['r2']:.4f}, "
             f"elapsed = {f0_sweep['elapsed']:.0f} s")


def test_criterion_2_width_exponent_tangential(f1_sweep):
    slope = f1_sweep["fit_oracle"]["slope"]
    ok = abs(slope - 5.0 / 3.0) <= 0.10
    _verdict(2, "tangential width exponent", ok,
             f"slope = {slope:.4f} (want 1.667 +/- 0.10), "
             f"r2 = {f1_sweep['fit_oracle']['r2']:.4f}")


def test_criterion_3_coefficient_match(f0_sweep):
    row = next(r for r in f0_sweep["rows"] if r["h"] == 0.03)
    drift = f0_sweep["ratio_drift"]
    monotone = all(a >= b - 1e-12 for a, b in zip(drift, drift[1:]))
    ok = abs(row["ratio"] - 1.0) <= 0.25 and monotone
    _verdict(3, "width coefficient vs oracle", ok,
             f"|ratio - 1| = {abs(row['ratio'] - 1):.4f} at h = 0.03 (<= 0.25), "
             f"drift = {[round(d, 4) for d in drift]} monotone = {monotone}; "
             f"measured overall normalization ratio = {row['ratio']:.4f}")


def test_criterion_4_closed_form_equality(f1arc_engine, single_engine):
    worst = 0.0
    checked = 0
    for _, _, eng in (f1arc_engine, single_engine):
        for h in (0.05, 0.02):
            lo, hi = eng.box(h)
            es = np.linspace(lo + 1e-6, hi - 1e-6, 50)
            dmax = 0.0
            pairs = []
            for E in es:
                d1 = eng.width_coefficient(float(E), h, "one_switch").D
                d2 = eng.closed_form_width_example(float(E), h)
                pairs.append((d1, d2))
                dmax = max(dmax, d1, d2)
            for d1, d2 in pairs:
                if max(d1, d2) <= 1e-14 * dmax:
                    continue  # interference zero: both vanish to roundoff
                worst = max(worst, abs(d1 - d2) / max(d1, d2))
                checked += 1
    ok = worst <= 1e-10 and checked >= 150
    _verdict(4, "one-switch width equals closed form", ok,
             f"worst relative gap = {worst:.2e} over {checked} energies (<= 1e-10)")


def test_criterion_5_pseudo_resonance_structure(f0_engine):
    _, _, eng = f0_engine
    qs = []
    ok = True
    detail = []
    for h in H_SWEEP:
        seeds = eng.bohr_sommerfeld(h)
        prs = eng.pseudo_resonances(h)  # raises CountMismatch on winding disagreement
        if len(prs) != len(seeds):
            ok = False
            detail.append(f"h={h}: {len(prs)} roots vs {len(seeds)} seeds")
            continue
        q = max(abs(pr.E - pr.seed) for pr in prs) / h**2
        qs.append(q)
    spreads_bounded = max(qs) <= 4.0 * min(qs)
    ok = ok and spreads_bounded
    _verdict(5, "pseudo-resonance counts and spacing", ok,
             f"counts match |B_h| with argument-principle agreement at all h; "
             f"|E~ - seed|/h^2 in [{min(qs):.3f}, {max(qs):.3f}] (bounded)")


def test_criterion_6_decoupled_limit(f0_decoupled_engine):
    rep, _, eng = f0_decoupled_engine
    p = eng.p
    h = 0.05
    seeds = eng.bohr_sommerfeld(h)
    prs = sorted(eng.pseudo_resonances(h), key=lambda q: q.E.real)
    real_ok = all(abs(pr.E.imag) <= 1e-12 and abs(pr.E.real - s) <= 1e-12
                  for pr, s in zip(prs, seeds))
    d_ok = all(eng.width_coefficient(s, h, "one_switch").D == 0.0 for s in seeds)
    c = default_contour(p, rep, h)
    ims = []
    for s in seeds[:2]:
        res = refine_resonance(p, complex(s), h, c, eng.m0)
        ims.append(abs(res.E.imag))
    oracle_ok = max(ims) <= 1e-10
    ok = real_ok and d_ok and oracle_ok
    _verdict(6, "decoupled limit", ok,
             f"pseudo real/equal to grid (1e-12): {real_ok}; D == 0: {d_ok}; "
             f"max |Im oracle| = {max(ims):.2e} (<= 1e-10)")


def test_criterion_7_stationary_phase():
    hs = [1e-2, 1e-3, 1e-4, 1e-5]
    ok = True
    details = []
    for m in (1, 2, 3):
        phi_ast = exprs.parse("x^" + str(m + 1))
        jet = exprs.taylor_jet(phi_ast, 0.0, m + 1)
        prev = None
        factors = []
        for h in hs:
            numeric = quadrature.oscillatory_integral(
                lambda x: np.ones_like(x), lambda x, q=m + 1: x**q, (-1.0, 1.0), h)
            asym = quadrature.stationary_phase(1.0, jet, m, h, calib=2.0)
            scaled = abs(numeric - asym) / h ** (1.0 / (m + 1))
            if prev is not None:
                factors.append(float(prev / scaled))
            prev = scaled
        if not all(f >= 2.0 for f in factors):
            ok = False
        details.append(f"m={m}: decay factors per decade {[round(f, 2) for f in factors]}")
    fresnel = quadrature.oscillatory_integral(
        lambda x: np.ones_like(x), lambda x: x * x, (-1.0, 1.0), 1e-5)
    want = math.sqrt(math.pi * 1e-5) * np.exp(1j * math.pi / 4)
    frel = abs(fresnel - want) / abs(want)
    ok = ok and frel <= 0.01
    _verdict(7, "stationary phase asymptotics", ok,
             "; ".join(details) + f"; Fresnel rel err at h=1e-5: {frel:.2e} (<= 1e-2)")


def test_criterion_8_harmonic_closed_forms():
    p = fixtures.harmonic()
    errs = [
        abs(quadrature.action_loop(p, 1.0) - math.pi),
        abs(quadrature.action_loop(p, 0.5) - math.pi / 2),
        abs(quadrature.action_derivative(p, 1.0) - math.pi),
    ]
    h = 0.05
    lo, hi = p.e0 - p.L * h, p.e0 + p.L * h
    grid = bohr_sommerfeld(lambda E: quadrature.action_loop(p, E), lo, hi, h)
    want = [(2 * k + 1) * h for k in range(300) if lo <= (2 * k + 1) * h <= hi]
    grid_err = max(abs(a - b) for a, b in zip(grid, want)) if len(grid) == len(want) else math.inf
    ok = max(errs) <= 1e-10 and grid_err <= 1e-10
    _verdict(8, "harmonic closed forms", ok,
             f"action/derivative errors {[f'{e:.1e}' for e in errs]}, "
             f"grid error {grid_err:.1e} (<= 1e-10)")


def test_criterion_9_green_identity_cross_check(f0_sweep):
    rows = [r for r in f0_sweep["rows"] if r["h"] <= 0.05]
    rels = [abs(r["im_green"] / r["im_oracle"] - 1.0) for r in rows]
    ok = bool(rels) and max(rels) <= 0.10
    _verdict(9, "Green-identity width", ok,
             f"max |im_green/im_oracle - 1| = {max(rels):.2e} over h <= 0.05 (<= 0.10)")


def test_criterion_10_invariance_suite(f0_engine, f1arc_engine):
    rep1, g1, eng1 = f1arc_engine
    rep0, g0, eng0 = f0_engine
    h = 0.05
    msgs = []

    # width coefficient under base-point moves (cuts stay classically
    # allowed over the cached energy domain, like the defaults)
    E = eng1.p.e0
    d_ref = eng1.width_coefficient(E, h, "one_switch").D
    worst_base = 0.0
    rng = random.Random(21)
    from crosswidth.geometry import _arc_to_x

    def random_frac(e, eng):
        vfn = eng.p.v_np(e.channel)
        for _ in range(100):
            f = rng.uniform(0.01, 0.3)
            juncs_ok = all(abs(f - a / e.arc_length) > 2e-3 for a in e._junction_arcs())
            if juncs_ok and float(vfn(_arc_to_x(e.pieces, f))) < eng.domain[0] - 0.01:
                return f
        return e.base_frac

    for _ in range(3):
        g2 = dataclasses.replace(g1)
        g2.edges = [dataclasses.replace(e, base_frac=random_frac(e, eng1)) for e in g1.edges]
        g2.e0 = next(e for e in g2.edges if e.eid == g1.e0.eid)
        eng2 = SemiclassicsEngine(eng1.p, rep1, g2, calib=1.0, h_max=0.08)
        worst_base = max(worst_base, abs(eng2.width_coefficient(E, h, "one_switch").D - d_ref) / d_ref)
    msgs.append(f"base moves {worst_base:.2e}")

    # width coefficient under the admissible alternative reference edge
    E0f = eng0.p.e0
    da = eng0.width_coefficient(E0f, h, "one_switch").D
    g2 = dataclasses.replace(g0)
    g2.e0 = g0.e0_alternatives[1]
    eng2 = SemiclassicsEngine(eng0.p, rep0, g2, calib=1.0, h_max=0.08)
    eng2._segments = eng0._segments
    rel_e0 = abs(eng2.width_coefficient(E0f, h, "one_switch").D - da) / da
    msgs.append(f"e0 choice {rel_e0:.2e}")

    # amplitude multiplicativity on random splits (low-lying edges)
    tail = g0.outgoing_tails()[0]
    path = max(paths_one_switch(g0, tail), key=lambda p: len(p.edges))
    floor = eng0.domain[0] - 0.005
    safe = [k for k, e in enumerate(path.edges)
            if e.nu == 0 and all(
                float(eng0.p.v_np(e.channel)(e.pieces[0].x_lo + t * e.pieces[0].width)) < floor
                for t in (0.0, 0.5, 1.0))]
    worst_mult = 0.0
    for _ in range(10):
        k = rng.choice(safe)
        f = rng.uniform(0.1, 0.9)
        whole = eng0.probability_amplitude(PathSeq(edges=path.edges, start_frac=0.1, end_frac=0.9), E0f, h)
        left = eng0.probability_amplitude(PathSeq(edges=path.edges[: k + 1], start_frac=0.1, end_frac=f), E0f, h)
        right = eng0.probability_amplitude(PathSeq(edges=path.edges[k:], start_frac=f, end_frac=0.9), E0f, h)
        worst_mult = max(worst_mult, abs(whole - left * right) / abs(whole))
    msgs.append(f"multiplicativity {worst_mult:.2e}")

    # LU determinant vs primitive-cycle expansion on <= 6-edge graphs
    worst_det = 0.0
    for eng in (eng0, eng1):
        lo, hi = eng.box(h)
        for _ in range(5):
            z = complex(rng.uniform(lo, hi), rng.uniform(-h, h))
            d1 = eng.det_one_minus_m(z, h)
            d2 = eng.det_cycle_expansion(z, h)
            worst_det = max(worst_det, abs(d1 - d2) / max(1.0, abs(d1)))
    msgs.append(f"det expansion {worst_det:.2e}")

    ok = max(worst_base, rel_e0, worst_mult, worst_det) <= 1e-12
    _verdict(10, "invariance suite", ok, ", ".join(msgs) + " (all <= 1e-12)")
