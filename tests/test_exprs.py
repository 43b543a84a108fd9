import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosswidth import exprs
from crosswidth.exprs import (
    Add, Call, Div, DomainError, ExprSyntaxError, Mul, Neg, Num, Pow, Sub, Var,
    differentiate, evaluate, parse, taylor_jet, unparse,
)


def test_parse_power_plus_one():
    assert parse("x^2 + 1") == Add(Pow(Var(), 2), Num(1.0))


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2x")
    assert err.value.offset == 1


def test_parse_nested_call():
    assert parse("1 - 1/cosh(x)^2") == Sub(Num(1.0), Div(Num(1.0), Pow(Call("cosh", Var()), 2)))


def test_parse_noninteger_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5")
    with pytest.raises(ExprSyntaxError):
        parse("x^y")


def test_parse_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse("foo(x)")


def test_eval_polynomial():
    assert evaluate(parse("x^2+1"), 2) == 5


def test_eval_odd_function_at_zero():
    assert evaluate(parse("tanh(x)"), 0) == 0


def test_eval_sech_well_at_one():
    # 1 - sech(1)^2, cross-checked with 50-digit mpmath arithmetic
    mpmath.mp.dps = 50
    want = float(1 - 1 / mpmath.cosh(1) ** 2)
    got = evaluate(parse("1-1/cosh(x)^2"), 1)
    assert got.imag == 0.0
    assert abs(got.real - want) < 1e-15


def test_eval_real_is_exactly_real():
    e = parse("exp(sin(x)) * tanh(x) - sqrt(x^2 + 1)/3")
    for x in (-2.0, -0.5, 0.3, 1.7):
        assert evaluate(e, x).imag == 0.0


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), -2.0)
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("exp(x)"), 1000.0)  # overflow
    with pytest.raises(DomainError):
        taylor_jet(parse("sqrt(x)"), 0.0, 1)  # sqrt' has a pole at a root


def test_domain_error_names_expression_and_point():
    with pytest.raises(DomainError) as exc:
        evaluate(parse("2*log(x)"), -1.2)
    assert str(exc.value) == "log of a non-positive real in 2.0 * log(x) at x = -1.2"
    with pytest.raises(DomainError) as exc:
        taylor_jet(parse("1/(x - 1)"), 1, 2)
    assert str(exc.value) == "division by zero in 1.0 / (x - 1.0) at x = 1.0"


def test_eval_keeps_the_sign_of_zero():
    # sqrt has a value at a root, where its order-1 jet does not
    assert math.copysign(1.0, evaluate(parse("sqrt(x)"), 0.0)) == 1.0
    assert math.copysign(1.0, evaluate(parse("sqrt(-x)"), 0.0)) == -1.0
    assert math.copysign(1.0, evaluate(parse("x * 0 - 0"), -1.0)) == -1.0
    assert math.copysign(1.0, evaluate(parse("x^3"), -0.0)) == -1.0


def test_jet_cubic_binomial():
    assert taylor_jet(parse("x^3"), 1.0, 3).coeffs == (1.0, 3.0, 3.0, 1.0)


def test_jet_exponential_series():
    got = taylor_jet(parse("exp(x)"), 0.0, 4).coeffs
    want = (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0)
    assert all(abs(a - b) < 1e-15 for a, b in zip(got, want))


def test_jet_sech_well_series():
    # 1 - sech(x)^2 = x^2 - 2 x^4/3 + ...; verified against mpmath.taylor
    mpmath.mp.dps = 40
    want = mpmath.taylor(lambda t: 1 - 1 / mpmath.cosh(t) ** 2, 0, 4)
    got = taylor_jet(parse("1-1/cosh(x)^2"), 0.0, 4).coeffs
    assert abs(got[2] - 1.0) < 1e-14
    for a, b in zip(got, want):
        assert abs(a - float(b)) < 1e-13


_FUNCS = ["exp", "sin", "cos", "sinh", "cosh", "tanh", "sqrt", "log"]


def test_jet_first_coefficient_matches_finite_difference():
    # 1000 random (function, point, order) draws: c_1 against the central
    # difference of pointwise evaluation
    rng = random.Random(1234)
    checked = 0
    while checked < 1000:
        fname = rng.choice(_FUNCS)
        x0 = rng.uniform(-2.0, 2.0)
        if fname in ("sqrt", "log"):
            x0 = rng.uniform(0.2, 3.0)
        K = rng.randint(1, 8)
        e = Call(fname, Add(Mul(Num(0.7), Var()), Num(0.1)))
        jet = taylor_jet(e, x0, K)
        step = 1e-6
        fd = (evaluate(e, x0 + step).real - evaluate(e, x0 - step).real) / (2 * step)
        scale = max(abs(fd), 1e-3)
        assert abs(jet.coeffs[1] - fd) <= 1e-6 * scale, (fname, x0, K)
        checked += 1


def test_jet_order_zero_matches_mpmath():
    sources = {
        "1 - 1/cosh(x)^2": lambda t: 1 - 1 / mpmath.cosh(t) ** 2,
        "0.3 - 0.6*tanh(x)": lambda t: mpmath.mpf("0.3") - mpmath.mpf("0.6") * mpmath.tanh(t),
        "exp(sin(x)) * (x^3 - 2*x)/(x^2 + 1)":
            lambda t: mpmath.exp(mpmath.sin(t)) * (t**3 - 2 * t) / (t**2 + 1),
        "sqrt(x^2 + 2) - log(cosh(x))": lambda t: mpmath.sqrt(t**2 + 2) - mpmath.log(mpmath.cosh(t)),
    }
    mpmath.mp.dps = 50
    rng = random.Random(7)
    for src, exact in sources.items():
        e = parse(src)
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0)
            want = float(exact(mpmath.mpf(x)))
            assert abs(evaluate(e, x) - want) <= 1e-14 * max(1.0, abs(want)), (src, x)
            assert taylor_jet(e, x, 4).coeffs[0] == evaluate(e, x)


# random well-formed expression trees for the round-trip property
_leaf = st.sampled_from([Num(2.0), Num(0.5), Num(3.0), Var(), exprs.Pi()])


def _tree(depth):
    if depth == 0:
        return _leaf
    sub = _tree(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(min_value=0, max_value=4)),
        st.builds(Call, st.sampled_from(list(exprs.FUNCTIONS)), sub),
    )


@given(_tree(4))
@settings(max_examples=300, deadline=None)
def test_unparse_roundtrip(tree):
    assert parse(unparse(tree)) == tree


@given(st.text(alphabet="x0123456789+-*/^(). picoshinqrtae", max_size=30))
@settings(max_examples=400, deadline=None)
def test_parser_totality(source):
    # malformed text raises ExprSyntaxError, anything accepted re-parses
    try:
        tree = parse(source)
    except ExprSyntaxError:
        return
    assert parse(unparse(tree)) == tree


def test_differentiate_matches_jet():
    rng = random.Random(99)
    for src in ("tanh(x)^3 - x^2", "exp(x)/(x^2+2)", "sqrt(x^2+1)*sin(x)", "log(cosh(x))"):
        e = parse(src)
        d = differentiate(e)
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0)
            want = taylor_jet(e, x, 1).derivative(1)
            got = evaluate(d, x).real
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("src", ["0.1", "-2*pi + sqrt(2)", "exp(1)/3"])
def test_compiled_values_are_shaped_like_the_argument(src):
    # an expression without x, and the derivative of one, gives an array
    # like its argument; the floats are those of the scalar expression
    fn, dfn = exprs.compile_fn(parse(src)), exprs.compile_fn(differentiate(parse(src)))
    for arg in (0.5, np.linspace(-1.0, 1.0, 5), np.ones((2, 3)), np.full(4, 0.3 - 0.2j)):
        assert np.shape(fn(arg)) == np.shape(arg) == np.shape(dfn(arg))
        assert np.all(fn(arg) == fn(0.5))
        assert np.all(dfn(arg) == dfn(0.5))
    assert float(fn(0.5)) == evaluate(parse(src), 0.5)
