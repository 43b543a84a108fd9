import math
import tracemalloc

import numpy as np
import pytest

import fixtures
from crosswidth import exprs, pipeline, quadrature
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


def _panel_edges_depth_first(phi, lo, hi, h):
    """Reference panel tree: the scalar depth-first bisection that
    quadrature._panel_edges replaces, one phi call per tree node."""
    stack = [(lo, hi, float(phi(lo)), float(phi(hi)), 0)]
    accepted = []
    while stack:
        a, b, fa, fb, depth = stack.pop()
        mdpt = 0.5 * (a + b)
        fm = float(phi(mdpt))
        resolved = max(abs(fm - fa), abs(fb - fm)) <= 0.5 * quadrature._PHASE_PER_PANEL * h
        small_enough = (b - a) <= max(0.25 * h, (hi - lo) * 2.0 ** -40)
        if (resolved and (b - a) <= (hi - lo) / 16) or small_enough or depth >= 48:
            accepted.append((a, b))
            if len(accepted) > quadrature._NODE_BUDGET // 28:
                raise BudgetExceeded("oscillatory quadrature node budget hit")
            continue
        stack.append((mdpt, b, fm, fb, depth + 1))
        stack.append((a, mdpt, fa, fm, depth + 1))
    accepted.sort()
    return np.array([a for a, _ in accepted] + [hi])


_CRITERION7_H = (1e-2, 1e-3, 1e-4, 1e-5)


@pytest.mark.parametrize("phase, interval, hs", [
    ("x^2", (-1.0, 1.0), _CRITERION7_H),
    ("x^3", (-1.0, 1.0), _CRITERION7_H),
    ("x^4", (-1.0, 1.0), _CRITERION7_H),
    ("sin(3*x) + x^2", (-1.0, 1.0), (1e-2, 1e-3, 1e-4)),
    ("exp(x) - x", (-1.0, 1.0), (1e-2, 1e-3, 1e-4)),
    ("log(2 + x) * x^2", (-0.7, 1.3), (1e-2, 1e-3, 1e-4)),
    ("x^3 / (1 + x^2)", (0.1, 1.0), (1e-2, 1e-3, 1e-4)),
])
def test_panel_edges_match_depth_first_split(phase, interval, hs):
    phi = exprs.compile_fn(exprs.parse(phase))
    for h in hs:
        got = quadrature._panel_edges(phi, *interval, h)
        want = _panel_edges_depth_first(phi, *interval, h)
        assert got.tolist() == want.tolist(), h


def test_panel_edges_budget_matches_depth_first_split(monkeypatch):
    phi = exprs.compile_fn(exprs.parse("x^2"))
    panels = len(_panel_edges_depth_first(phi, -1.0, 1.0, 1e-4)) - 1
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 28 * panels)
    assert len(quadrature._panel_edges(phi, -1.0, 1.0, 1e-4)) == panels + 1
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 28 * (panels - 1))
    for split in (quadrature._panel_edges, _panel_edges_depth_first):
        with pytest.raises(BudgetExceeded):
            split(phi, -1.0, 1.0, 1e-4)


def test_panel_tree_frontier_stays_within_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_NODE_BUDGET", 28 * 100)
    widest = []

    def phi(x):
        widest.append(np.size(x))
        return x * x

    with pytest.raises(BudgetExceeded):
        quadrature._panel_edges(phi, -1.0, 1.0, 1e-7)
    assert max(widest) <= 100


def test_panel_tree_calls_phi_once_per_level():
    calls = []

    def phi(x):
        calls.append(np.size(x))
        return x * x

    edges = quadrature._panel_edges(phi, -1.0, 1.0, 1e-5)
    assert len(edges) - 1 == 45176
    assert len(calls) <= 51


@pytest.mark.parametrize("interval, h", [
    ((-1.0, 1.0), 1e-4),  # 4842 panels
    ((0.1, 1.0), 0.0002894266124716752),  # 769 panels: 12 blocks of 64 and one more
])
def test_oscillatory_integral_same_floats_for_any_block(monkeypatch, interval, h):
    phi = exprs.compile_fn(exprs.parse("x^2"))
    panels = len(quadrature._panel_edges(phi, *interval, h)) - 1
    assert panels % 64 and panels % 1024
    values = set()
    for block in (64, 1024, panels):
        monkeypatch.setattr(quadrature, "_PANEL_BLOCK", block)
        values.add(oscillatory_integral(lambda x: np.cos(x) + 0.3 * x, phi, interval, h))
    assert len(values) == 1


def test_oscillatory_integral_memory_is_one_block():
    phi = exprs.compile_fn(exprs.parse("x^2"))
    sigma = exprs.compile_fn(exprs.parse("1"))
    tracemalloc.start()
    try:
        oscillatory_integral(sigma, phi, (-1.0, 1.0), 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


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


def test_turning_point_far_from_its_reference_energy():
    # f1 with e0 = 0.65 and L = 3 at h = 0.08: near the box floor the
    # symmetric bracket around the turning point at x = 1.11615 reaches
    # past the well's other wall, so the walk from x0 toward V = E finds it
    h = 0.08
    engine = pipeline.build_engine(fixtures.f1(e0=0.65, L=3.0), h_max=h)[2]
    grid = engine.bohr_sommerfeld(h)
    lo, hi = engine.box(h)
    assert len(grid) == 5
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert lo <= grid[0] and grid[-1] <= hi
