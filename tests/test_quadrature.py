import math

import numpy as np
import pytest

import fixtures
from crosswidth import exprs, quadrature
from crosswidth.geometry import Edge, Piece
from crosswidth.quadrature import (
    ActionFn,
    ActionTable,
    BudgetExceeded,
    NoTurningPoints,
    PreconditionViolated,
    action_derivative,
    action_edge,
    action_loop,
    oscillatory_integral,
    stationary_phase,
)


def test_harmonic_loop_action():
    p = fixtures.harmonic()
    assert abs(action_loop(p, 1.0) - math.pi) < 1e-12
    assert abs(action_loop(p, 0.5) - math.pi / 2) < 1e-12


def test_harmonic_loop_degenerate():
    assert action_loop(fixtures.harmonic(), 0.0) == 0.0


def test_loop_no_turning_points():
    with pytest.raises(NoTurningPoints):
        action_loop(fixtures.harmonic(), -1.0)


def test_harmonic_action_derivative():
    assert abs(action_derivative(fixtures.harmonic(), 1.0) - math.pi) < 1e-11


def test_sech_well_closed_form_action():
    # the sech-squared well has A(E) = 2 pi (1 - sqrt(1 - E)) in closed form
    p = fixtures.f1()
    for E in (0.3, 0.5, 0.75, 0.9):
        want = 2 * math.pi * (1 - math.sqrt(1 - E))
        assert abs(action_loop(p, E) - want) < 1e-11
    for E in (0.5, 0.75):
        want = math.pi / math.sqrt(1 - E)
        assert abs(action_derivative(p, E) - want) < 1e-10


def test_action_derivative_matches_finite_difference():
    p = fixtures.f0()
    E = p.e0
    d = 1e-5
    fd = (action_loop(p, E + d) - action_loop(p, E - d)) / (2 * d)
    assert abs(action_derivative(p, E) - fd) <= 1e-6 * abs(fd)


def test_action_derivative_harmonic_bottom_limit():
    # near the well bottom A'(E) approaches 2 pi / sqrt(2 V''), within 1%
    p = fixtures.f1()
    got = action_derivative(p, 0.015)
    want = 2 * math.pi / math.sqrt(2 * 2.0)  # V1''(0) = 2
    assert abs(got - want) / want < 0.01


def test_action_edge_harmonic_half_loop():
    # left arc of the harmonic loop from (0, 1) around x = -1 to (0, -1)
    p = fixtures.harmonic()
    e = Edge(0, 1, None, None,
             (Piece(-1.0, 0.0, -1, True, False), Piece(-1.0, 0.0, +1, True, False)),
             base_frac=0.3)
    assert abs(action_edge(p, e, 1.0) - math.pi / 2) < 1e-11


def test_action_edge_zero_length():
    p = fixtures.harmonic()
    e = Edge(0, 1, None, None, (Piece(0.3, 0.3, +1, False, False),), base_frac=0.5)
    assert action_edge(p, e, 1.0) == 0.0


def test_edge_additivity(f0_engine, f1_engine):
    for engine_fixture in (f0_engine, f1_engine):
        _, g, eng = engine_fixture
        p = eng.p
        for E in (p.e0, p.e0 + 0.02):
            total = sum(action_edge(p, e, E) for e in g.gamma1_edges())
            assert abs(total - action_loop(p, E)) < 1e-10


def test_mixed_cycle_action_matches_direct_quadrature():
    # the directed-cycle action equals the explicit two-branch integral
    # 2 int_{x_c}^{b} sqrt(E - V1) + 2 int_{c}^{x_c} sqrt(E - V2)
    from crosswidth import model, pipeline
    from crosswidth.geometry import primitive_cycles
    from crosswidth.quadrature import sqrt_piece_integral

    p = fixtures.f1_arc()
    rep, g, eng = pipeline.build_engine(p, h_max=0.06)
    mixed = next(c for c in primitive_cycles(g) if any(e.channel == 2 for e in c))
    E = p.e0
    got = sum(action_edge(p, e, E) for e in mixed)
    x_c = rep.crossings[0].x
    b = model.turning_points(p, 1, E)[1].x
    cc = model.turning_points(p, 2, E)[0].x
    want = 2 * sqrt_piece_integral(p.v1_np, E, x_c, b, False, True, 1e-13) \
        + 2 * sqrt_piece_integral(p.v2_np, E, cc, x_c, True, False, 1e-13)
    assert abs(got - want) < 1e-10


def test_fresnel_and_linear_phase():
    h = 1e-4
    got = oscillatory_integral(lambda x: np.ones_like(x), lambda x: x * x, (-1, 1), h)
    want = math.sqrt(math.pi * h) * np.exp(1j * math.pi / 4)
    assert abs(got - want) / abs(want) < 2e-2  # boundary term is O(h)
    got = oscillatory_integral(lambda x: np.ones_like(x), lambda x: x, (1, 2), 0.01)
    want = 0.01 / 1j * (np.exp(2j / 0.01) - np.exp(1j / 0.01))
    assert abs(got - want) < 1e-14


def test_oscillatory_zero_amplitude():
    got = oscillatory_integral(lambda x: np.zeros_like(x), lambda x: x * x, (-1, 1), 0.01)
    assert got == 0


def test_oscillatory_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 2000)
    with pytest.raises(BudgetExceeded):
        oscillatory_integral(lambda x: np.ones_like(x), lambda x: x * x, (-1, 1), 1e-7)


def test_stationary_phase_fresnel_value():
    jet = exprs.taylor_jet(exprs.parse("x^2"), 0.0, 2)
    for h in (1e-3, 1e-5):
        got = stationary_phase(1.0, jet, 1, h)
        want = math.sqrt(math.pi * h) * np.exp(1j * math.pi / 4)
        assert abs(got - want) < 1e-14


def test_stationary_phase_cubic_modulus():
    # interior cubic stationary point: |value| = 2 cos(pi/6) Gamma(4/3) h^{1/3}
    jet = exprs.taylor_jet(exprs.parse("x^3"), 0.0, 3)
    h = 1e-4
    got = stationary_phase(1.0, jet, 2, h)
    want = 2.0 * math.cos(math.pi / 6) * math.gamma(4.0 / 3.0) * h ** (1.0 / 3.0)
    assert abs(abs(got) - want) < 1e-14


def test_stationary_phase_sign_of_phase():
    # negative phi''' flips the odd-order phase factor to its conjugate
    jet_neg = exprs.taylor_jet(exprs.parse("0 - x^2"), 0.0, 2)
    got = stationary_phase(1.0, jet_neg, 1, 1e-3)
    want = math.sqrt(math.pi * 1e-3) * np.exp(-1j * math.pi / 4)
    assert abs(got - want) < 1e-14


def test_stationary_phase_zero_amplitude():
    jet = exprs.taylor_jet(exprs.parse("x^2"), 0.0, 2)
    assert stationary_phase(0.0, jet, 1, 1e-3) == 0


def test_stationary_phase_preconditions():
    jet = exprs.taylor_jet(exprs.parse("x^2 + x"), 0.0, 2)
    with pytest.raises(PreconditionViolated):
        stationary_phase(1.0, jet, 1, 1e-3)
    flat = exprs.taylor_jet(exprs.parse("x^4"), 0.0, 4)
    with pytest.raises(PreconditionViolated):
        stationary_phase(1.0, flat, 2, 1e-3)  # phi''' vanishes


def test_action_fn_cache():
    fit = ActionFn.build(np.sin, (0.0, 1.0))
    table = ActionTable([fit])
    xs = np.linspace(0.05, 0.95, 17)
    vals = table(xs)
    # numpy's own evaluation is the reference, on arrays and one energy at a time
    assert vals[:, 0].tobytes() == fit.cheb(xs).tobytes()
    assert vals[:, 1].tobytes() == fit.cheb.deriv()(xs).tobytes()
    for k, x in enumerate(xs.tolist()):
        one = np.array(table._at(x, [0, 1]))
        assert one.tobytes() == np.array([fit.cheb(x), fit.cheb.deriv()(x)]).tobytes()
        assert table(np.array([x])).tobytes() == vals[k].tobytes()
    assert np.max(np.abs(vals[:, 0] - np.sin(xs))) < 1e-12
    assert np.max(np.abs(vals[:, 1] - np.cos(xs))) < 1e-9
    assert fit.err_estimate <= 1e-13
    with pytest.raises(ValueError):
        table._at(2.0, [0])
    with pytest.raises(ValueError):
        table(np.array([0.5, 2.0]))


def test_adaptive_rows_keep_their_own_bookkeeping():
    # row 0 converges at two panels; row 1's estimates drift apart after its
    # second pass, so it returns that pass's value; row 2 needs many panels
    def drift(panels):
        return {1: 0.0, 2: 1e-12, 4: 3e-12}.get(panels, 6e-12)

    integrands = [lambda x: np.cos(x), lambda x: np.cos(x) + drift(x.shape[1]),
                  lambda x: np.sqrt(x + 1e-3)]

    def f(x, rows):
        return np.stack([integrands[r](x[k:k + 1])[0] for k, r in enumerate(rows.tolist())])

    lo, hi = np.zeros(3), np.ones(3)
    batch = quadrature._adaptive_gl(f, lo, hi, 1e-14)
    for r in range(3):
        one = quadrature._adaptive_gl(lambda x, rows: f(x, rows + r), lo[r:r + 1], hi[r:r + 1], 1e-14)
        assert batch[r:r + 1].tobytes() == one.tobytes()
    assert abs(batch[0] - math.sin(1.0)) < 1e-15
    assert abs(batch[1] - (math.sin(1.0) + 1e-12)) < 1e-15
    assert abs(batch[2] - 2.0 / 3.0 * (1.001 ** 1.5 - 0.001 ** 1.5)) < 1e-13

    # a row that never settles fails the whole batch and is named
    def settles_then_not(x, rows):
        return np.where(rows[:, None, None] == 0, np.cos(x), np.sqrt(x))

    with pytest.raises(quadrature.QuadratureError, match=r"on \[0.0, 2.0\]"):
        quadrature._adaptive_gl(settles_then_not, lo[:2], np.array([1.0, 2.0]), 1e-14)
