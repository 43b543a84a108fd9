import cmath
import math

import numpy as np
import pytest
import scipy.linalg

import fixtures
from crosswidth import exprs, oracle, pipeline
from crosswidth.model import Problem
from crosswidth.oracle import (
    BadContour,
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
    for R, _ in reversed(track.chunks):
        if R is not None:
            raw = raw @ R
    return raw


def test_contour_geometry():
    c = Contour(R0=2.0, theta=0.3, X=6.0)
    assert c.z(1.0) == 1.0
    z = c.z(4.0)
    assert abs(z - (2.0 + 2.0 * cmath.exp(0.3j))) < 1e-15
    with pytest.raises(ValueError):
        Contour(R0=3.0, theta=0.3, X=2.0)


@pytest.mark.parametrize("theta", [0.0, 2.0, math.nan], ids=["0", "2", "nan"])
def test_contour_theta_out_of_range(theta):
    # default_contour always takes oracle.THETA; Contour itself refuses an
    # angle outside (0, pi/2) up to sign
    assert 0 < oracle.THETA < math.pi / 2
    with pytest.raises(BadContour, match=r"theta must lie in \(0, pi/2\) up to sign"):
        Contour(R0=2.0, theta=theta, X=6.0)


def test_free_wave_phase_accumulation():
    # open channel with V2 = 0: the propagated wave carries exp(i sqrt(E) z / h)
    p = _flat_problem()
    h = 0.05
    c = Contour(R0=5.0, theta=0.3, X=5.5)
    track = propagate(p, complex(1.0), h, c, "right")
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
    track = propagate(p, complex(1.0), h, c, "left")
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
        res = refine_resonance(MatchingProblem(p, h, c), complex(seed), eng.m0)
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
    res = refine_resonance(MatchingProblem(p, h, c), complex(seed, -D * h * h), eng.m0)
    rotated_c = Contour(R0=c.R0, theta=c.theta + 0.05, X=c.X)
    rotated = refine_resonance(MatchingProblem(p, h, rotated_c), res.E, eng.m0)
    assert abs(rotated.E.imag - res.E.imag) <= 1e-3 * abs(res.E.imag)


def test_width_from_state_decoupled(f0_decoupled_engine):
    rep, _, eng = f0_decoupled_engine
    p = eng.p
    h = 0.05
    c = default_contour(p, rep, h)
    seed = eng.bohr_sommerfeld(h)[1]
    mp = MatchingProblem(p, h, c)
    res = refine_resonance(mp, complex(seed), eng.m0)
    ig = width_from_state(mp, res.E, x1=rep.a0.x - 1.0, x2=rep.b0.x + 1.0)
    assert abs(ig) < 1e-12


def _green_error(p, rep, eng, h):
    """|im_green / Im E - 1| at the resonance refined from the second
    Bohr-Sommerfeld seed, with x1 = a0 - 1 and x2 = b0 + 1 as compare takes them."""
    seed = eng.bohr_sommerfeld(h)[1]
    D = eng.width_coefficient(seed, h).D
    mp = MatchingProblem(p, h, default_contour(p, rep, h))
    res = refine_resonance(mp, complex(seed, -D * h ** ((eng.m0 + 3.0) / (eng.m0 + 1.0))), eng.m0)
    return abs(width_from_state(mp, res.E, x1=rep.a0.x - 1.0, x2=rep.b0.x + 1.0) / res.E.imag - 1.0)


def test_recorded_state_spans_exactly_the_green_interval(f1_engine):
    # at h = 0.01 the core chunks are at most 0.4 long and neither x1 nor
    # x2 falls on a chunk end; the pair must still be recorded from the cut
    # exactly, on W's steps of at most h/6 that are equal in pairs
    # (Simpson's panels)
    rep, _, eng = f1_engine
    h = 0.01
    c = default_contour(eng.p, rep, h)
    for end, cut, sign in (("left", rep.a0.x - 1.0, 1.0), ("right", rep.b0.x + 1.0, -1.0)):
        ts, ws = propagate(eng.p, complex(0.755, -2e-5), h, c, end, cut=cut).state_on_core([1.0, 0.0])
        assert ws.shape == (4, ts.size)
        assert ts[0] == cut and ts[-1] == 0.0
        steps = sign * np.diff(ts)
        assert steps.size % 2 == 0 and np.all(steps > 0) and steps.max() <= h / 6.0
        assert np.allclose(steps[0::2], steps[1::2], rtol=1e-9, atol=0.0)
    # a cut at t = 0 records an empty stretch as two steps of length 0
    ts, _ = propagate(eng.p, complex(0.755, -2e-5), h, c, "left", cut=0.0).state_on_core([1.0, 0.0])
    assert ts.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("s", [1.0, 2.5])
def test_green_width_with_the_well_off_centre(s):
    # f0 and its window moved by s: the contour's centre t = 0 is no longer
    # in the well, and at s = 2.5 x1 = a0 - 1 = 0.18 lies right of it, so
    # the left state is recorded running back from x1 to 0.  A Green grid
    # that misses [x1, x2] put im_green 2.0e-4 and 2.6e-4 off Im E;
    # measured now: 2.5e-10 and 3.5e-11
    rep, _, eng = pipeline.build_engine(fixtures.f0_shifted(s), calib=1.0, h_max=0.08)
    assert _green_error(eng.p, rep, eng, 0.05) <= 1e-9


def test_green_width_at_small_h(f1_engine):
    # measured 1.3e-12; a grid starting left of x1 gave 2.3e-10
    rep, _, eng = f1_engine
    assert _green_error(eng.p, rep, eng, 0.01) <= 1e-11


def _refined(eng, rep, h):
    """The matching problem at h after refining the resonance tracked from
    e0, with that resonance and the Green interval [x1, x2] compare takes."""
    p = eng.p
    table = {entry["seed"]: entry for entry in eng.resonance_table(h)}
    seed = pipeline.tracked_seed(list(table), p.e0)
    mp = MatchingProblem(p, h, default_contour(p, rep, h))
    res = refine_resonance(mp, complex(seed, table[seed]["im_pred"]), eng.m0)
    return mp, res.E, rep.a0.x - 1.0, rep.b0.x + 1.0


def test_green_width_reuses_the_ray_products_of_the_last_W(f1_engine, monkeypatch):
    # at the root refine_resonance left W at, the Green width evaluates no
    # W and builds no cubic; it steps each core chunk of its two plans
    # once and no ray chunk
    rep, _, eng = f1_engine
    h = 0.03
    mp, E, x1, x2 = _refined(eng, rep, h)
    c = mp.contour
    calls = {"W": 0, "cubic": 0}
    stepped = []
    evaluate, build, step = MatchingProblem.W, oracle._omega_cubic, oracle._step_propagators

    def counted_W(self, E):
        calls["W"] += 1
        return evaluate(self, E)

    def counted_build(*args):
        calls["cubic"] += 1
        return build(*args)

    def counted_step(p, E, h, ts, z0, phi):
        stepped.append(ts[0])
        return step(p, E, h, ts, z0, phi)

    monkeypatch.setattr(MatchingProblem, "W", counted_W)
    monkeypatch.setattr(oracle, "_omega_cubic", counted_build)
    monkeypatch.setattr(oracle, "_step_propagators", counted_step)
    width_from_state(mp, E, x1, x2)
    core = [chunk.t0 for end, cut in (("left", x1), ("right", x2))
            for chunk in oracle._plan(c, h, (end,), cut)[0] if abs(chunk.t0) <= c.R0]
    assert calls == {"W": 0, "cubic": 0}
    assert sorted(stepped) == sorted(core)


@pytest.mark.parametrize("h", [0.08, 0.03])
@pytest.mark.parametrize("engine", ["f0_engine", "f1_engine"])
def test_green_width_from_reused_products_matches_propagate(engine, h, request):
    # the ray products of W's stacked cubic against propagate's per-chunk
    # ones on the same plans: measured, the widths agree to 2.0e-13 relative
    rep, _, eng = request.getfixturevalue(engine)
    mp, E, x1, x2 = _refined(eng, rep, h)
    p, c = eng.p, mp.contour
    assert mp.chunk_products(E)
    want = oracle._green_width(p, h, propagate(p, E, h, c, "left", cut=x1),
                               propagate(p, E, h, c, "right", cut=x2), x1, x2)
    assert abs(width_from_state(mp, E, x1, x2) / want - 1.0) <= 1e-12


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


def test_ode_accuracy_stability(f0_engine, monkeypatch):
    # Magnus steps of h/1.897 and h/2.785, ten times apart in the (dt/h)^6
    # error bound, move the width by well under 1%
    rep, _, eng = f0_engine
    p = eng.p
    h = 0.05
    seed = eng.bohr_sommerfeld(h)[1]
    D = eng.width_coefficient(seed, h).D
    c = default_contour(p, rep, h)
    widths = []
    for steps_per_h in (6.0 / 1e3 ** (1.0 / 6.0), 6.0 / 1e2 ** (1.0 / 6.0)):
        monkeypatch.setattr(oracle, "_STEPS_PER_H", steps_per_h)
        widths.append(refine_resonance(MatchingProblem(p, h, c), complex(seed, -D * h * h), eng.m0).E.imag)
    assert abs(widths[1] - widths[0]) / abs(widths[1]) < 0.01


@pytest.mark.parametrize("norm", [0.05, 0.4, 3.0, 40.0])
def test_batched_expm_matches_scipy(norm):
    # norms on both sides of oracle._EXPM_THETA, so the squaring path runs too
    rng = np.random.default_rng(7)
    X = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    X *= norm / np.abs(X).sum(axis=-2).max()  # largest 1-norm of the stack
    want = scipy.linalg.expm(X)
    got = np.moveaxis(oracle._expm(np.moveaxis(X, 0, -1)), -1, 0)  # the kernel is step-last
    err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert err.max() < 1e-13


def _sequential_products(M):
    """M[k] @ ... @ M[0] for every k of an (N, 4, 4) stack, one @ at a time."""
    out = [M[0]]
    for m in M[1:]:
        out.append(m @ out[-1])
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_stack_products_match_sequential_loop(n):
    # scaled near unitary, as the step propagators are, so the bound is relative
    rng = np.random.default_rng(n)
    M = np.eye(4) + 0.3 * (rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4)))
    want = _sequential_products(M)
    stack = np.moveaxis(M, 0, -1)
    scale = np.linalg.norm(want, axis=(1, 2))
    assert np.linalg.norm(oracle._product(stack) - want[-1]) / scale[-1] < 1e-13


def _a_matrix(p, E, h, z):
    """The shooting matrix A(z) from the scalar coefficients."""
    v1, v2, r0, r1, r1p = (complex(np.asarray(fn(np.array([z]))).reshape(-1)[0]) for fn in p.coeffs_np)
    return np.array([
        [0, 1 / h, 0, 0],
        [(v1 - E) / h, 0, r0, r1],
        [0, 0, 0, 1 / h],
        [r0 - h * r1p, -r1, (v2 - E) / h, 0],
    ])


def _comm(x, y):
    return x @ y - y @ x


def _sixth_order_reference(p, E, h, ts, k, z0, phi):
    """exp(Omega) of step k, Omega assembled from the scalar coefficients
    and exponentiated by scipy, and the 4th-order two-node propagator."""
    dt = ts[k + 1] - ts[k]
    A1, A2, A3 = (phi * _a_matrix(p, E, h, z0 + phi * (ts[k] + g * dt - ts[0])) for g in oracle._GAUSS)
    a1 = dt * A2
    a2 = math.sqrt(15.0) / 3.0 * dt * (A3 - A1)
    a3 = 10.0 / 3.0 * dt * (A3 - 2.0 * A2 + A1)
    c1 = _comm(a1, a2)
    c2 = -_comm(a1, 2.0 * a3 + c1) / 60.0
    sixth = scipy.linalg.expm(a1 + a3 / 12.0 + _comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0)
    gauss4 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    B1, B2 = (phi * _a_matrix(p, E, h, z0 + phi * (ts[k] + g * dt - ts[0])) for g in gauss4)
    fourth = scipy.linalg.expm(0.5 * dt * (B1 + B2) + math.sqrt(3.0) / 12.0 * dt * dt * _comm(B2, B1))
    return sixth, fourth


def _test_chunks(c, h):
    """At the production step h/6, one core chunk through the well and one
    ray chunk ending at R0: (step ends, z0, phi) of each."""
    for t0, t1, phi in ((-0.3, 0.0, 1.0 + 0j), (c.R0 + 0.3, c.R0, cmath.exp(1j * c.theta))):
        chunk = oracle._Chunk(t0, t1, c.z(t0), phi, math.ceil(abs(t1 - t0) / (h / 6.0)), False)
        yield chunk.steps(), c.z(t0), phi


def test_step_propagators_match_scipy_per_step(f1_engine):
    # there the 4th-order Omega differs by 8e-9 to 1.1e-8 (core) and 1.3e-10
    # to 2.3e-10 (ray), so the 1e-13 bound tells the two schemes apart
    rep, _, eng = f1_engine
    p = eng.p
    h = 0.05
    E = complex(0.76, -3e-4)
    c = default_contour(p, rep, h)
    for ts, z0, phi in _test_chunks(c, h):
        got = oracle._step_propagators(p, E, h, ts, z0, phi)
        assert got.shape == (4, 4, len(ts) - 1)
        for k in range(len(ts) - 1):
            want, fourth = _sixth_order_reference(p, E, h, ts, k, z0, phi)
            assert np.linalg.norm(got[..., k] - want) / np.linalg.norm(want) < 1e-13
            assert np.linalg.norm(fourth - want) / np.linalg.norm(want) > 1e-11


def test_omega_cubic_matches_scipy_per_step(f1_engine, f1_varying_r1_engine):
    # the cubic in E that MatchingProblem caches, evaluated at a complex E
    # near a resonance, one further off and a real one, then exponentiated.
    # The coefficients _omega keeps: Omega3 vanishes on every step, and
    # Omega2 too where r1 is constant (f1), so those are dropped; a varying
    # r1 keeps Omega2, and _horner's loop runs (measured: at most 1.3e-16)
    h = 0.05
    base = complex(0.76, -3e-4)
    for (rep, _, eng), n_coefs in ((f1_engine, 2), (f1_varying_r1_engine, 3)):
        p = eng.p
        for ts, z0, phi in _test_chunks(default_contour(p, rep, h), h):
            cubic = oracle._omega_cubic(p, h, ts, z0, phi)
            assert len(cubic) == n_coefs
            for E in (base, base - 0.06 - 0.02j, complex(0.71)):
                got = oracle._expm(oracle._horner(cubic, E))
                for k in range(len(ts) - 1):
                    want, _ = _sixth_order_reference(p, E, h, ts, k, z0, phi)
                    assert np.linalg.norm(got[..., k] - want) / np.linalg.norm(want) < 1e-13


def test_matching_builds_each_cubic_once(f1_engine, monkeypatch):
    # one refine_resonance evaluates W nine times; the cubics are built on
    # the first only, in stacked slices of several chunks, and they cover
    # every chunk's steps exactly once (the padding past a chunk's last step
    # has dt = 0)
    rep, _, eng = f1_engine
    p = eng.p
    h = 0.08
    table = {entry["seed"]: entry for entry in eng.resonance_table(h)}
    seed = pipeline.tracked_seed(list(table), p.e0)
    c = default_contour(p, rep, h)
    builds, rows, calls = [], [], []
    build, evaluate = oracle._omega_cubic, MatchingProblem.W

    def counted_build(p, h, ts, z0, phi):
        builds.append(len(calls))
        rows.extend((row[0], int(np.count_nonzero(np.diff(row)))) for row in ts)
        return build(p, h, ts, z0, phi)

    def counted_W(self, E):
        calls.append(E)
        return evaluate(self, E)

    monkeypatch.setattr(oracle, "_omega_cubic", counted_build)
    monkeypatch.setattr(MatchingProblem, "W", counted_W)
    refine_resonance(MatchingProblem(p, h, c), complex(seed, table[seed]["im_pred"]), eng.m0)
    chunks = [chunk for end in oracle._plan(c, h, ("left", "right"), None) for chunk in end]
    assert len(calls) == 9
    assert set(builds) == {1} and len(builds) < len(chunks)
    assert sorted(rows) == sorted((chunk.t0, chunk.n_steps) for chunk in chunks)


@pytest.mark.parametrize("h", [0.08, 0.03])
@pytest.mark.parametrize("engine", ["f0_engine", "f1_engine", "f1_varying_r1_engine"])
def test_stacked_matching_matches_per_chunk_reference(engine, h, request):
    # f1's chunks (98 and 106 steps at h = 0.08, 188 and 200 at 0.03) are
    # padded in the stack.  The columns are scaled to unit norm at the
    # first point, so |W| is of order 1 at most, and W agrees with the
    # per-chunk walk of propagate to 1e-12 on that scale (measured: at
    # most 7.8e-13).  With a varying r1 the stacked cubics hold Omega2.
    # Relative to |W| the bound would fail on f0 at h = 0.03 for the
    # unstacked cubic W too: there its cubic Omega and the per-chunk Omega
    # at E put W 1.3e-11 apart relative to |W| = 0.029
    rep, _, eng = request.getfixturevalue(engine)
    p = eng.p
    c = default_contour(p, rep, h)
    seeds = eng.bohr_sommerfeld(h)
    points = [complex(s, -0.3 * h * h) for s in seeds[:3]] + [complex(0.5 * (seeds[0] + seeds[1]), -0.001)]
    mp = MatchingProblem(p, h, c)
    scales = None
    for E in points:
        A = np.column_stack([propagate(p, E, h, c, end).final for end in ("left", "right")])
        if scales is None:
            scales = np.maximum(np.linalg.norm(A, axis=0), 1e-300)
        want = complex(np.linalg.det(A / scales[None, :]))
        assert abs(mp.W(E) - want) <= 1e-12
    assert len(mp._cubic) == (3 if engine == "f1_varying_r1_engine" else 2)


@pytest.mark.parametrize("h", [0.08, 0.03, 0.005, 0.001])
@pytest.mark.parametrize("engine", ["f0_engine", "f1_engine"])
def test_step_budget_bounds_the_padded_stack(engine, h, request, monkeypatch):
    # the step budget is counted from the piece lengths before any chunk
    # exists; it must not undercount what W's stack then holds, and it
    # counts each chunk at most one step longer (measured: exact at
    # h <= 0.005, where seg_len / dt_max is 240 and linspace's rounding
    # takes the longest chunk to 241 steps, and one step over per chunk
    # above)
    rep, _, eng = request.getfixturevalue(engine)
    c = default_contour(eng.p, rep, h)
    chunks = [chunk for end in oracle._plan(c, h, ("left", "right"), None) for chunk in end]
    stack = oracle._Stack(chunks)
    padded = stack.ts.shape[0] * (stack.ts.shape[1] - 1)
    monkeypatch.setattr(oracle, "_MAX_STEPS", padded + len(chunks))
    oracle._plan(c, h, ("left", "right"), None)
    monkeypatch.setattr(oracle, "_MAX_STEPS", padded - 1)
    with pytest.raises(oracle.TooManySteps):
        oracle._plan(c, h, ("left", "right"), None)


def test_expm_of_zero_stack_is_exactly_identity():
    zero = np.zeros((4, 4, 3, 5), dtype=complex)
    eye = np.broadcast_to(np.eye(4)[:, :, None, None], zero.shape)
    assert np.array_equal(oracle._expm(zero), eye)
    work = [np.full(zero.shape, np.nan, dtype=complex) for _ in range(4)]
    assert np.array_equal(oracle._expm(zero.copy(), work), eye)


def test_padded_products_are_bit_equal_to_unpadded():
    # rows of one stack padded with identities up to the longest: the
    # full-length rows, and the padded ones too, give the unpadded
    # product bit for bit
    rng = np.random.default_rng(3)
    lengths = (13, 8, 13, 1)
    chunks = [np.eye(4)[:, :, None] + 0.3 * (rng.standard_normal((4, 4, n)) + 1j * rng.standard_normal((4, 4, n)))
              for n in lengths]
    stack = np.broadcast_to(np.eye(4, dtype=complex)[:, :, None, None], (4, 4, len(lengths), max(lengths))).copy()
    for row, M in enumerate(chunks):
        stack[:, :, row, :M.shape[-1]] = M
    product = oracle._product(stack)
    for row, M in enumerate(chunks):
        assert np.array_equal(product[:, :, row], oracle._product(M))


def test_magnus_sixth_order(f0_engine, monkeypatch):
    # each row halves the Magnus step; a 6th-order scheme then shrinks the
    # change in W by about 64x (60 to 69 measured)
    rep, _, eng = f0_engine
    p = eng.p
    h = 0.05
    seeds = eng.bohr_sommerfeld(h)
    E = complex(0.5 * (seeds[0] + seeds[1]), -0.001)
    c = default_contour(p, rep, h)
    steps = []
    planner = oracle._plan

    def counted(c, h, ends, cut=None):
        plans = planner(c, h, ends, cut)
        steps[-1] += sum(chunk.n_steps for chunks in plans for chunk in chunks)
        return plans

    monkeypatch.setattr(oracle, "_plan", counted)
    w = []
    for k in range(3):
        steps.append(0)
        # steps of h/1.29, h/2.59 and h/5.17
        monkeypatch.setattr(oracle, "_STEPS_PER_H", 6.0 / 10 ** (2.0 / 3.0) * 2**k)
        w.append(MatchingProblem(p, h, c).W(E))
    assert all(1.9 < b / a < 2.1 for a, b in zip(steps, steps[1:]))
    assert abs(w[2] - w[1]) * 40 <= abs(w[1] - w[0])


@pytest.mark.parametrize("h", [0.08, 0.03])
@pytest.mark.parametrize("engine", ["f0_engine", "f1_engine"])
def test_richardson_error_of_refined_resonance(engine, h, request, monkeypatch):
    # the resonance at the default step against the one at half the step:
    # measured, the width moves by at most 3.5e-11 relative
    # and the real part by at most 3.5e-12 relative; the former 4th-order
    # scheme at h/24 moved them by up to 3e-10 and 4.2e-11
    rep, _, eng = request.getfixturevalue(engine)
    p = eng.p
    table = {entry["seed"]: entry for entry in eng.resonance_table(h)}
    seed = pipeline.tracked_seed(list(table), p.e0)
    start = complex(seed, table[seed]["im_pred"])
    c = default_contour(p, rep, h)
    coarse = refine_resonance(MatchingProblem(p, h, c), start, eng.m0).E
    monkeypatch.setattr(oracle, "_STEPS_PER_H", 2.0 * oracle._STEPS_PER_H)
    fine = refine_resonance(MatchingProblem(p, h, c), start, eng.m0).E
    assert abs(fine.imag - coarse.imag) <= 1e-9 * abs(fine.imag)
    assert abs(fine.real - coarse.real) <= 1e-11 * abs(fine)
