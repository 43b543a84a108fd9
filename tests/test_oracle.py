import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from crosswidth import exprs, fixtures, oracle, pipeline
from crosswidth.model import Problem
from crosswidth.oracle import (
    Contour,
    InsufficientData,
    MatchingProblem,
    PairTrack,
    PolesOnContour,
    default_contour,
    exponent_fit,
    propagate,
    refine_resonance,
    width_from_state,
)


def _flat_problem(v1="4", v2="0", e0=1.0):
    return Problem(
        v1=exprs.parse(v1), v2=exprs.parse(v2), r0=exprs.parse("0"), r1=exprs.parse("0"),
        e0=e0, window=(-6.0, 6.0), L=1.0,
    )


def _raw_final(track: PairTrack) -> np.ndarray:
    """The pair at t = 0 without the checkpoint orthonormalizations: the
    stored triangular factors multiplied back in, last to first."""
    raw = track.final
    for seg in reversed(track.segments):
        if seg.R is not None:
            raw = raw @ seg.R
    return raw


def test_contour_geometry():
    c = Contour(R0=2.0, theta=0.3, X=6.0)
    assert c.z(1.0) == 1.0
    z = c.z(4.0)
    assert abs(z - (2.0 + 2.0 * cmath.exp(0.3j))) < 1e-15
    with pytest.raises(ValueError):
        Contour(R0=3.0, theta=0.3, X=2.0)


def test_free_wave_phase_accumulation():
    # open channel with V2 = 0: the propagated wave carries exp(i sqrt(E) z / h)
    p = _flat_problem()
    h = 0.05
    c = Contour(R0=5.0, theta=0.3, X=5.5)
    track = propagate(p, complex(1.0), h, c, "right", ode_tol=1e-12)
    z_end = c.z(5.5)
    want = cmath.exp(1j * math.sqrt(1.0) * (0.0 - z_end) / h)
    got = _raw_final(track)[2, 1]  # channel-2 value of the channel-2 column at t = 0
    assert abs(got - want) / abs(want) < 1e-9


def test_closed_channel_growth_rate():
    # closed channel with V1 = 4, E = 1: the decaying initial wave grows
    # inward like e^{sqrt(3) Re(z_end - z) / h}
    p = _flat_problem()
    h = 0.1
    c = Contour(R0=2.0, theta=0.3, X=2.5)
    track = propagate(p, complex(1.0), h, c, "left", ode_tol=1e-12)
    got = _raw_final(track)[0, 0]
    want_log = math.sqrt(3.0) * abs(c.z(-2.5).real) / h
    assert abs(math.log(abs(got)) - want_log) / want_log < 1e-2


def test_conjugate_symmetry_of_matching():
    p = fixtures.f0()
    rep, _, eng = pipeline.build_engine(p, h_max=0.06)
    h = 0.05
    E = complex(0.76, 0.004)
    c_pos = Contour(R0=3.0, theta=0.25, X=8.0)
    c_neg = Contour(R0=3.0, theta=-0.25, X=8.0)
    # raw propagation (no checkpoint factorization, whose phase conventions
    # are not conjugation-equivariant): Schwarz reflection is then exact
    def raw_matching(E, c):
        A = np.column_stack([_raw_final(propagate(p, E, h, c, end)) for end in ("left", "right")])
        return complex(np.linalg.det(A / np.linalg.norm(A, axis=0)[None, :]))

    w1 = raw_matching(E, c_pos)
    w2 = raw_matching(E.conjugate(), c_neg)
    assert abs(w2 - w1.conjugate()) <= 1e-9 * abs(w1)


def test_decoupled_resonances_match_exact_spectrum(f0_decoupled_engine):
    # the sech-squared well has exact eigenvalues 1 - h^2 (s - n)^2 with
    # s = (sqrt(1 + 4/h^2) - 1)/2
    rep, _, eng = f0_decoupled_engine
    p = eng.p
    h = 0.05
    s = (math.sqrt(1.0 + 4.0 / h**2) - 1.0) / 2.0
    exact = sorted(1.0 - h * h * (s - n) ** 2 for n in range(25) if 0 < 1.0 - h * h * (s - n) ** 2 < 1)
    c = default_contour(p, rep, h)
    for seed in eng.bohr_sommerfeld(h):
        res = refine_resonance(p, complex(seed), h, c, eng.m0)
        nearest = min(exact, key=lambda v: abs(v - res.E.real))
        assert abs(res.E.real - nearest) < 5e-10
        assert abs(res.E.imag) <= 1e-10


def test_theta_independence(f0_engine):
    rep, _, eng = f0_engine
    p = eng.p
    h = 0.05
    seed = eng.bohr_sommerfeld(h)[1]
    D = eng.width_coefficient(seed, h).D
    c = default_contour(p, rep, h)
    res = refine_resonance(p, complex(seed, -D * h * h), h, c, eng.m0, check_theta=True)
    assert res.theta_shift is not None and res.theta_shift <= 1e-3


def test_width_from_state_decoupled(f0_decoupled_engine):
    rep, _, eng = f0_decoupled_engine
    p = eng.p
    h = 0.05
    c = default_contour(p, rep, h)
    seed = eng.bohr_sommerfeld(h)[1]
    res = refine_resonance(p, complex(seed), h, c, eng.m0)
    ig = width_from_state(p, res.E, h, c, x1=rep.a0.x - 1.0, x2=rep.b0.x + 1.0)
    assert abs(ig) < 1e-12


def test_matching_bounded_away_from_zero_between_resonances(f0_engine):
    rep, _, eng = f0_engine
    p = eng.p
    h = 0.05
    seeds = eng.bohr_sommerfeld(h)
    mid = 0.5 * (seeds[0] + seeds[1])
    c = default_contour(p, rep, h)
    assert abs(MatchingProblem(p, h, c).W(complex(mid))) > 1e-3


def test_pole_guard():
    p = _flat_problem(v1="exp(x^2)", v2="0")
    with pytest.raises(PolesOnContour):
        c = Contour(R0=1.0, theta=0.3, X=8.0)
        oracle._pole_check(p, c)


def test_exponent_fit_synthetic():
    hs = [0.08, 0.06, 0.05, 0.04, 0.03]
    ims = [-3.0 * h * h for h in hs]
    slope, intercept, r2 = exponent_fit(hs, ims)
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept - math.log(3.0)) < 1e-12
    assert abs(r2 - 1.0) < 1e-12


def test_exponent_fit_guards():
    with pytest.raises(InsufficientData):
        exponent_fit([0.1, 0.2, 0.3], [-1, -2, -3])
    with pytest.raises(InsufficientData):
        exponent_fit([0.1, 0.2, 0.3, 0.4], [-1, 0.0, -3, -4])


def test_matching_problem_scale_freeze(f0_engine):
    rep, _, eng = f0_engine
    p = eng.p
    h = 0.05
    c = default_contour(p, rep, h)
    mp = MatchingProblem(p, h, c)
    E = complex(eng.p.e0)
    w1 = mp.W(E)
    w2 = mp.W(E)  # scales frozen after the first evaluation
    assert w1 == w2


def test_ode_accuracy_stability(f0_engine):
    # a tenfold tighter integrator tolerance moves the width by well under 1%
    rep, _, eng = f0_engine
    p = eng.p
    h = 0.05
    seed = eng.bohr_sommerfeld(h)[1]
    D = eng.width_coefficient(seed, h).D
    c = default_contour(p, rep, h)
    r1 = refine_resonance(p, complex(seed, -D * h * h), h, c, eng.m0, ode_tol=1e-9)
    r2 = refine_resonance(p, complex(seed, -D * h * h), h, c, eng.m0, ode_tol=1e-10)
    assert abs(r2.E.imag - r1.E.imag) / abs(r2.E.imag) < 0.01


@pytest.mark.parametrize("norm", [0.05, 0.4, 3.0, 40.0])
def test_batched_expm_matches_scipy(norm):
    # norms on both sides of oracle._EXPM_THETA, so the squaring path runs too
    rng = np.random.default_rng(7)
    X = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    X *= norm / np.abs(X).sum(axis=-2).max()  # largest 1-norm of the stack
    want = scipy.linalg.expm(X)
    err = np.linalg.norm(oracle._expm(X) - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert err.max() < 1e-13


def test_magnus_fourth_order(f0_engine):
    # ode_tol / 16 halves the Magnus step; a 4th-order scheme then shrinks
    # the change in W by about 16x
    rep, _, eng = f0_engine
    p = eng.p
    h = 0.05
    seeds = eng.bohr_sommerfeld(h)
    E = complex(0.5 * (seeds[0] + seeds[1]), -0.001)
    c = default_contour(p, rep, h)
    w = [MatchingProblem(p, h, c, ode_tol=1e-8 / 16**k).W(E) for k in range(3)]
    assert abs(w[2] - w[1]) * 10 <= abs(w[1] - w[0])
