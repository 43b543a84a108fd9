"""The runtime needs numpy only: ``model.brentq`` and ``oracle.simpson``
are ports of scipy's routines, checked here bit for bit against scipy
itself (a test dependency)."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from crosswidth import oracle
from crosswidth.model import MissedBracket, _refine_root, brentq
from crosswidth.oracle import default_contour, refine_resonance, simpson, width_from_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _functions(rng):
    """Smooth monotone and oscillatory functions with random parameters."""
    c, k = rng.uniform(0.1, 3.0), rng.uniform(1.0, 40.0)
    p, t = rng.uniform(0.0, 6.3), rng.uniform(-0.9, 0.9)
    return [
        lambda x: x ** 3 + c * x - t,
        lambda x: math.atan(c * x) - t,
        lambda x: math.exp(c * x) - 1.0 - t,
        lambda x: math.sin(k * x + p) - t,
        lambda x: math.cos(k * x) * math.exp(-0.5 * x * x) + 0.3 * math.sin(3.0 * x + p) - 0.2 * t,
    ]


@pytest.mark.parametrize("xtol", [1e-15, 1e-12, 2e-12])
def test_brentq_bit_identical_to_scipy(xtol):
    rng = np.random.default_rng(11)
    compared = 0
    for _ in range(1000):
        for f in _functions(rng):
            a, b = sorted(float(v) for v in rng.uniform(-2.0, 2.0, 2))
            if f(a) * f(b) >= 0:
                continue
            want = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=8.9e-16)
            assert brentq(f, a, b, xtol).hex() == want.hex(), (a, b)
            compared += 1
    assert compared > 2000


@pytest.mark.parametrize("scale", [1e-120, 1e-200])
def test_brentq_underflowing_extrapolation_bisects_as_scipy(scale):
    # the extrapolation's denominator underflows to 0, where C divides to inf
    def f(x):
        return scale * (math.exp(3.0 * x) - 2.0)

    assert brentq(f, 0.0, 1.0, 1e-12).hex() == scipy.optimize.brentq(
        f, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16).hex()


def test_brentq_root_at_an_endpoint():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12) == 1.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0


def test_brentq_errors():
    with pytest.raises(ValueError, match="must have different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):  # NaN inside the bracket
        brentq(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, 0.0, 1.0, 1e-12)
    with pytest.warns(MissedBracket), pytest.raises(ValueError):
        _refine_root(lambda x: 1.0, 0.0, 1.0, 1e-12)


def test_brentq_returns_a_python_float():
    root = brentq(lambda x: np.float64(x) ** 3 - 2.0, 0.0, 2.0, 1e-12)
    assert type(root) is float
    assert root.hex() == scipy.optimize.brentq(lambda x: np.float64(x) ** 3 - 2.0, 0.0, 2.0,
                                               xtol=1e-12, rtol=8.9e-16).hex()


def _same_bits(got, want):
    return float(got).hex() == float(want).hex()


@pytest.mark.parametrize("n", [33, 34, 101, 102])
def test_simpson_bit_identical_to_scipy(n):
    rng = np.random.default_rng(n)
    t = np.linspace(-1.7, 0.0, n)
    y = np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n)) ** 2
    assert _same_bits(simpson(y, t), scipy.integrate.simpson(y, x=t))
    # two chunks stored outermost first, put in order by argsort as in width_from_state
    split = n // 3
    ts = np.concatenate([t[split:][::-1], t[:split][::-1]])
    ys = np.concatenate([y[split:][::-1], y[:split][::-1]])
    order = np.argsort(ts)
    ts, ys = ts[order], ys[order]
    assert _same_bits(simpson(ys, ts), scipy.integrate.simpson(ys, x=ts))


def test_simpson_bit_identical_to_scipy_on_irregular_grids():
    # uneven last spacings reach the powers in Cartwright's correction, where
    # Python floats and numpy arrays round differently on some inputs
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6) * 100:
        t = np.sort(rng.uniform(-2.0, 0.0, n))
        y = rng.uniform(0.0, 1.0, n)
        assert _same_bits(simpson(y, t), scipy.integrate.simpson(y, x=t)), (t, y)


def test_simpson_bit_identical_on_width_from_state_grids(monkeypatch, f0_decoupled_engine):
    rep, _, eng = f0_decoupled_engine
    h = 0.05
    c = default_contour(eng.p, rep, h)
    res = refine_resonance(eng.p, complex(eng.bohr_sommerfeld(h)[1]), h, c, eng.m0)
    calls = []

    def recorded(y, x):
        calls.append((y, x))
        return simpson(y, x)

    monkeypatch.setattr(oracle, "simpson", recorded)
    width_from_state(eng.p, res.E, h, c, x1=rep.a0.x - 1.0, x2=rep.b0.x + 1.0)
    assert len(calls) == 2
    for y, x in calls:
        assert _same_bits(simpson(y, x), scipy.integrate.simpson(y, x=x))


def test_runtime_loads_no_scipy():
    code = ("import sys\n"
            "from crosswidth import cli\n"
            "code = cli.main(['widths', 'configs/f0.cfg', '--h', '0.05'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [d for d in deps if d.lower().startswith("scipy")] == []
