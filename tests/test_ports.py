"""The runtime needs numpy only: ``model.brentq`` is a port of
``scipy.optimize.brentq``, checked here bit for bit against scipy itself
(a test dependency), and ``oracle.simpson`` is the composite Simpson rule
on grids whose steps are equal in pairs, checked against exact integrals
and against ``scipy.integrate.simpson``."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from crosswidth.model import brentq
from crosswidth.oracle import simpson

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


def test_brentq_returns_a_python_float():
    root = brentq(lambda x: np.float64(x) ** 3 - 2.0, 0.0, 2.0, 1e-12)
    assert type(root) is float
    assert root.hex() == scipy.optimize.brentq(lambda x: np.float64(x) ** 3 - 2.0, 0.0, 2.0,
                                               xtol=1e-12, rtol=8.9e-16).hex()


def test_simpson_exact_for_cubics_across_a_chunk_junction():
    # two recorded chunks: 6 steps of 0.18 up to the junction at -0.6, then
    # 10 of 0.06; each pair of steps lies within one chunk.  On the
    # reversed grid the rule gives the negated integral
    x = np.concatenate([np.linspace(-1.68, -0.6, 7), np.linspace(-0.6, 0.0, 11)[1:]])
    rng = np.random.default_rng(7)
    for _ in range(20):
        cubic = np.polynomial.Polynomial(rng.uniform(-2.0, 2.0, 4))
        exact = cubic.integ()(0.0) - cubic.integ()(-1.68)
        y = cubic(x)
        assert abs(simpson(y, x) - exact) <= 1e-14 * np.abs(y).max()
        assert abs(simpson(y[::-1], x[::-1]) + exact) <= 1e-14 * np.abs(y).max()


@pytest.mark.parametrize("n", [3, 33, 101, 641])
def test_simpson_matches_scipy_on_uniform_grids(n):
    rng = np.random.default_rng(n)
    t = np.linspace(-1.7, 0.0, n)
    y = np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n)) ** 2
    want = scipy.integrate.simpson(y, x=t)
    assert abs(simpson(y, t) - want) <= 1e-14 * abs(want)


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
