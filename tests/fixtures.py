"""Named test problems used across the test suite and the shipped configs.

The channel-1 potential is the sech-squared well 1 - 1/cosh(x)^2 (range
[0, 1)); channel-2 potentials are tanh profiles whose parameters are
solved for the wanted crossing geometry:

* f0: generic transversal pair of crossings (max contact order 1),
* f1: tangential crossing of order 2 at x_c = -1,
* f2: cubic tangency of order 3 at x_c = -1,
* single_transversal: one transversal crossing pair only (the
  single-pair closed-form topology),
* harmonic: V1 = x^2 for quadrature closed forms.
"""

from __future__ import annotations

import numpy as np

from crosswidth import exprs
from crosswidth.model import Problem

V1_WELL = "1 - 1/cosh(x)^2"


def _problem(v2_src: str, r0: str = "0.3", r1: str = "0.15", e0: float = 0.75,
             window=(-8.0, 8.0), L: float = 1.5, v1_src: str = V1_WELL) -> Problem:
    return Problem(
        v1=exprs.parse(v1_src),
        v2=exprs.parse(v2_src),
        r0=exprs.parse(r0),
        r1=exprs.parse(r1),
        e0=e0,
        window=tuple(window),
        L=L,
    )


def tangency_params(x_c: float, order: int) -> np.ndarray:
    """Parameters of V2 = mu - nu*tanh(x) [- sigma*tanh(x)^3] matching the
    well potential to the given derivative order at x_c (linear solve)."""
    basis = ["1", "0 - tanh(x)", "0 - tanh(x)^3"][:order]
    rows = []
    rhs = []
    v1 = exprs.parse(V1_WELL)
    jets = [exprs.taylor_jet(exprs.parse(b), x_c, order - 1) for b in basis]
    j1 = exprs.taylor_jet(v1, x_c, order - 1)
    for k in range(order):
        rows.append([j.coeffs[k] for j in jets])
        rhs.append(j1.coeffs[k])
    return np.linalg.solve(np.array(rows), np.array(rhs))


def f0() -> Problem:
    """Two transversal crossing pairs (max contact order 1); channel 2 is
    open at both infinities, so the graph has four vertices, six edges and
    four tails."""
    return _problem("0.1 - 0.6*tanh(x)")


def f0_shifted(s: float) -> Problem:
    """f0 moved right by s, its window alike: the well no longer sits on
    the contour's centre t = 0."""
    return _problem(f"0.1 - 0.6*tanh(x - {s!r})", v1_src=f"1 - 1/cosh(x - {s!r})^2",
                    window=(-8.0 + s, 8.0 + s))


def f0_decoupled() -> Problem:
    return _problem("0.1 - 0.6*tanh(x)", r0="0", r1="0")


def f1(x_c: float = -0.2, r1: str = "0.15", e0: float = 0.75, L: float = 1.5) -> Problem:
    """Order-2 tangency at x_c: V2 = mu - nu*tanh(x) with (mu, nu) from the
    2x2 value/slope match.

    The default tangency sits deep in the well (E0 - V = 0.71, firmly
    semiclassical at desk-scale h) where channel 2 stays open on both
    sides: the width has no interference dips, which keeps the measured
    exponent clean over the shipped h sweep.
    """
    mu, nu = (float(v) for v in tangency_params(x_c, 2))
    return _problem(f"{mu!r} - {nu!r}*tanh(x)", r1=r1, e0=e0, L=L)


def f1_varying_r1() -> Problem:
    """f1 with r1 = 0.15 + 0.05*tanh(x): the one problem whose r1 is not
    constant, so the oracle's Omega cubic keeps its E^2 coefficient."""
    return f1(r1="0.15 + 0.05*tanh(x)")


def f1_arc(x_c: float = -1.0) -> Problem:
    """Order-2 tangency at x_c = -1: the channel-2 curve turns just outside
    the well, giving the single-crossing-pair topology with one bounded
    channel-2 arc, one outgoing tail and a directed mixed cycle (the
    closed-form width geometry)."""
    mu, nu = (float(v) for v in tangency_params(x_c, 2))
    return _problem(f"{mu!r} - {nu!r}*tanh(x)")


def f2(x_c: float = -1.0, e0: float = 0.75) -> Problem:
    """Order-3 tangency at x_c: V2 = mu - nu*tanh(x) - sigma*tanh(x)^3 from
    the 3x3 match (value, slope, curvature)."""
    mu, nu, sigma = (float(v) for v in tangency_params(x_c, 3))
    return _problem(f"{mu!r} - {nu!r}*tanh(x) - {sigma!r}*tanh(x)^3", e0=e0)


def single_transversal() -> Problem:
    """Exactly one transversal crossing pair below the reference energy."""
    return _problem("0.3 - 0.6*tanh(x)")


def pseudo_resonances(engine, h: float):
    """The pseudo-resonances of engine.resonance_table(h), in seed order."""
    return [row["pseudo"] for row in engine.resonance_table(h) if row["pseudo"] is not None]


def harmonic() -> Problem:
    """V1 = x^2 (loop action pi*E); only the quadrature operations apply."""
    return _problem("0.2 - 0.7*x", r0="0", r1="0", e0=1.0, window=(-6.0, 6.0),
                    L=2.0, v1_src="x^2")
