import dataclasses
import math

import numpy as np
import pytest

import fixtures
from crosswidth import exprs, model
from crosswidth.model import (
    ROOT_TOL,
    CrossingAtTurningPoint,
    DegenerateTurningPoint,
    NoCrossing,
    Problem,
    crossing_points,
    turning_points,
    validate_structure,
)


def _mk(v1, v2, e0, window=(-8.0, 8.0), r0="0.3", r1="0.15", L=1.5):
    return Problem(
        v1=exprs.parse(v1), v2=exprs.parse(v2), r0=exprs.parse(r0), r1=exprs.parse(r1),
        e0=e0, window=window, L=L,
    )


def _channel_1(v1, window):
    return _mk(v1, "0 - x", 1.0, window=window)


def test_turning_points_parabola():
    tps = turning_points(_channel_1("x^2", (-6.0, 6.0)), 1, 1.0)
    assert len(tps) == 2
    assert abs(tps[0].x + 1.0) < 1e-12 and abs(tps[1].x - 1.0) < 1e-12
    assert tps[0].x < tps[1].x


def test_turning_points_sech_well():
    # sech(x)^2 = 1/4 at x = arccosh(2)
    want = math.acosh(2.0)
    tps = turning_points(_channel_1("1-1/cosh(x)^2", (-8.0, 8.0)), 1, 0.75)
    assert len(tps) == 2
    assert abs(tps[1].x - want) < 1e-11
    assert abs(tps[0].x + want) < 1e-11


def test_turning_points_none():
    assert turning_points(_channel_1("x^2", (-6.0, 6.0)), 1, -1.0) == []


def test_turning_point_degenerate():
    with pytest.raises(DegenerateTurningPoint):
        turning_points(_channel_1("x^2", (-6.0, 6.0)), 1, 0.0)


def test_crossing_transversal_textbook():
    p = _mk("x^2", "0 - x", 1.0, window=(-4.0, 4.0))
    out = crossing_points(p)
    assert len(out) == 1
    c = out[0]
    assert abs(c.x) < 1e-10
    assert abs(c.xi - 1.0) < 1e-10
    assert c.m == 1
    assert abs(c.dv + 1.0) < 1e-9


def test_crossing_tangential_textbook():
    p = _mk("x^2", "0 - x^2", 1.0, window=(-4.0, 4.0))
    out = crossing_points(p)
    assert len(out) == 1
    c = out[0]
    assert c.m == 2
    # dv is the difference of second derivatives, (-x^2)'' - (x^2)'' = -4
    assert abs(c.dv + 4.0) < 1e-8


def test_crossing_cubic_multiplicity():
    # V1 - V2 = (x - 0.2)^3 has a triple root; detected order must match
    p = _mk("x^2", "x^2 - (x - 0.2)^3", 1.0, window=(-4.0, 4.0))
    out = crossing_points(p)
    assert len(out) == 1
    assert out[0].m == 3
    assert abs(out[0].dv + 6.0) < 1e-7
    assert abs(out[0].x - 0.2) < 1e-10


def test_crossing_at_turning_point_rejected():
    # V1 - V2 = (x - x*)(x - 3) with x* a hair inside the right wall, so the
    # crossing level sits within contact_tol of the reference energy
    x_star = 1.0 - 1e-10
    v2 = f"{3.0 + x_star!r}*x - {3.0 * x_star!r}"
    p = _mk("x^2", v2, 1.0, window=(-4.0, 4.0))
    with pytest.raises(CrossingAtTurningPoint):
        crossing_points(p)


def test_no_crossing():
    p = _mk("x^2", "8 + x", 1.0, window=(-4.0, 4.0))
    with pytest.raises(NoCrossing):
        crossing_points(p)


def test_f1_tangency_parameters_closed_form():
    # the 2x2 value/slope match at x_c = -1 solves to
    # nu = 2 tanh(1), mu = -tanh(1)^2
    mu, nu = (float(v) for v in fixtures.tangency_params(-1.0, 2))
    t = math.tanh(1.0)
    assert abs(nu - 2 * t) < 1e-14
    assert abs(mu + t * t) < 1e-14


def test_f2_tangency_parameters_closed_form():
    # triple contact at x_c = -1: sigma = 1/(3 tanh 1), nu = tanh 1,
    # mu = -tanh(1)^2/3
    mu, nu, sigma = (float(v) for v in fixtures.tangency_params(-1.0, 3))
    t = math.tanh(1.0)
    assert abs(sigma - 1.0 / (3.0 * t)) < 1e-13
    assert abs(nu - t) < 1e-13
    assert abs(mu + t * t / 3.0) < 1e-13


def test_validate_f0_passes():
    rep = validate_structure(fixtures.f0())
    assert rep.passed
    assert rep.m0 == 1
    assert all(c.m == 1 for c in rep.crossings)


def test_validate_no_well():
    rep = validate_structure(_mk("x^2+2", "0 - x", 1.0, window=(-4.0, 4.0)))
    assert not rep.passed
    assert not rep.assumption_flags["simple_well"][0]


def test_validate_f1_passes_with_tails(f1arc_engine):
    rep = validate_structure(fixtures.f1_arc())
    assert rep.passed
    assert rep.m0 == 2
    _, g, _ = f1arc_engine
    outs = [t for t in g.tails if t.kind == "outgoing"]
    ins = [t for t in g.tails if t.kind == "incoming"]
    assert len(outs) == 1 and outs[0].direction == +1
    assert len(ins) == 1


def test_validate_f2_passes():
    rep = validate_structure(fixtures.f2())
    assert rep.passed
    assert rep.m0 == 3


@pytest.mark.parametrize("v2, bounded", [
    ("0.2 + 0.6 * tanh(x) ^ 2 - 0.5 / cosh(x - 4.0) ^ 2", 1),
    ("0.8 - 0.5 / cosh(x - 3) ^ 2 - 0.5 / cosh(x + 3) ^ 2", 2),
    # a pocket beside a component that reaches the window edge
    ("0.9 - 0.6 * tanh(x) - 0.9 / cosh(x + 3) ^ 2", 1),
    # no allowed point at all: nothing bounded, and no tail either
    ("2", 0),
])
def test_validate_counts_bounded_channel_2_components(v2, bounded):
    rep = validate_structure(dataclasses.replace(fixtures.f1(), v2=exprs.parse(v2)))
    assert not rep.passed
    assert rep.assumption_flags["v2_nontrapping"] == (
        False, f"{bounded} bounded allowed component(s) inside the window")
    assert rep.assumption_flags["simple_well"][0]


def test_crossing_invariants():
    for p in (fixtures.f0(), fixtures.f1(), fixtures.f1_arc(), fixtures.f2(),
              fixtures.single_transversal()):
        for c in crossing_points(p):
            gap = abs(float(p.v1_np(c.x)) - float(p.v2_np(c.x)))
            assert gap <= 10.0 * ROOT_TOL
            assert abs(c.xi**2 + float(p.v1_np(c.x)) - p.e0) <= 1e-12
            assert c.dv != 0.0
            assert c.u_minus == c.u_plus.conjugate()


def test_contact_order_stable_under_jitter():
    for p in (fixtures.f1(), fixtures.f1_arc(), fixtures.f2()):
        c = crossing_points(p)[0]
        for eps in (-1e-12, 1e-12):
            _, m, _ = model._contact_order(p, c.x + eps)
            assert m == c.m


def test_report_deterministic():
    p = fixtures.f0()
    r1, r2 = validate_structure(p), validate_structure(p)
    assert [(c.x, c.m, c.dv) for c in r1.crossings] == [(c.x, c.m, c.dv) for c in r2.crossings]
    assert r1.a0 == r2.a0 and r1.b0 == r2.b0


def test_boundary_root_excluded():
    # V1 = V2 exactly at the well wall is a turning-point crossing and is
    # not part of the crossing set at the reference energy
    p = _mk("x^2", "0 - x", 1.0, window=(-4.0, 4.0))
    out = crossing_points(p)
    assert [round(c.x, 8) for c in out] == [0.0]


def test_scan_refines_each_bracket_from_its_samples():
    # one-point calls that disagree in sign with the grid's samples at the
    # bracket's ends cannot unmake the bracket: brentq starts from the
    # samples and calls fn only inside
    xs = model._grid((-1.0, 1.0), 8)

    def fn(x):
        if np.ndim(x):
            return x - 0.1
        return x - 0.1 if 0.0 < x < 0.25 else 1.0

    vals, roots = model._scan(fn, xs, "f")
    assert vals.tolist() == (xs - 0.1).tolist()
    assert len(roots) == 1 and abs(roots[0] - 0.1) < ROOT_TOL
