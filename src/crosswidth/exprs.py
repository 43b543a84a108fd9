"""Analytic expressions in one variable: parsing, evaluation, Taylor jets.

Potentials and coupling coefficients are given as strings in a small infix
language (variable ``x``, constant ``pi``, the functions exp/log/sin/cos/
sinh/cosh/tanh/sqrt, and +, -, *, /, ^ with integer exponents).  Parsed
expressions are immutable trees that can be evaluated at real or complex
points and differentiated to arbitrary order by propagating truncated
Taylor series through the tree.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Callable, List, Union

import numpy as np

__all__ = [
    "ExprAst",
    "TaylorJet",
    "ExprSyntaxError",
    "DomainError",
    "parse",
    "unparse",
    "evaluate",
    "taylor_jet",
    "differentiate",
    "compile_fn",
    "FUNCTIONS",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt")


class ExprSyntaxError(ValueError):
    """Malformed expression text.

    Carries the character offset of the failure and a description of what
    was expected there.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"at offset {offset}: expected {expected}")


class DomainError(ArithmeticError):
    """Evaluation hit a pole or a branch cut (division by zero, log/sqrt
    of a non-positive real, or a point exactly on the principal cut)."""


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Add:
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Sub:
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Mul:
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Div:
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Num, Pi, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


@dataclass(frozen=True)
class TaylorJet:
    """Truncated Taylor expansion at a real base point.

    ``coeffs[k]`` is f^(k)(x0)/k!, so ``coeffs[0]`` is the point value.
    """

    x0: float
    order: int
    coeffs: tuple

    def derivative(self, k: int) -> float:
        return self.coeffs[k] * math.factorial(k)


# --- tokenizer / parser ----------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(source, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        raise ExprSyntaxError(i, "a number, name, operator or parenthesis")
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], what)
        return self.advance()

    def parse(self) -> ExprAst:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExprSyntaxError(tok[2], "an operator or end of input")
        return e

    def expr(self) -> ExprAst:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> ExprAst:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> ExprAst:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num", "an integer exponent")
            if not tok[1].isdigit():
                raise ExprSyntaxError(tok[2], "an integer exponent (got a non-integer literal)")
            return Pow(base, int(tok[1]))
        return base

    def atom(self) -> ExprAst:
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            value = float(tok[1])
            if not math.isfinite(value):
                raise ExprSyntaxError(tok[2], "a finite numeric literal")
            return Num(value)
        if tok[0] == "name":
            self.advance()
            name = tok[1]
            if name == "pi":
                return Pi()
            if name == "x":
                return Var()
            if name in FUNCTIONS:
                self.expect("(", "'(' after function name")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(name, arg)
            raise ExprSyntaxError(tok[2], f"a known identifier (got '{name}')")
        if tok[0] == "(":
            self.advance()
            e = self.expr()
            self.expect(")", "')'")
            return e
        raise ExprSyntaxError(tok[2], "a number, 'x', 'pi', a function call or '('")


def parse(source: str) -> ExprAst:
    """Parse an expression string.  Implicit multiplication is rejected."""
    return _Parser(source).parse()


# --- unparser ---------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Pi: 5, Var: 5, Call: 5}


def _prec(e: ExprAst) -> int:
    return _PREC[type(e)]


def unparse(e: ExprAst) -> str:
    """Render back to source.  unparse(parse(s)) reparses to the same tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Call):
        return f"{e.fn}({unparse(e.arg)})"
    if isinstance(e, Neg):
        inner = unparse(e.arg)
        if _prec(e.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Pow):
        base = unparse(e.base)
        if _prec(e.base) < 5:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    lhs, rhs = unparse(e.lhs), unparse(e.rhs)
    if isinstance(e, (Add, Sub)):
        op, p = ("+", 1) if isinstance(e, Add) else ("-", 1)
    else:
        op, p = ("*", 2) if isinstance(e, Mul) else ("/", 2)
    if _prec(e.lhs) < p:
        lhs = f"({lhs})"
    # binary operators are left-associative: a right child at equal
    # precedence must keep its parentheses to reparse to the same tree
    if _prec(e.rhs) <= p:
        rhs = f"({rhs})"
    return f"{lhs} {op} {rhs}"


# --- evaluation ------------------------------------------------------------


def _ipow(base, n: int):
    """Integer power by binary exponentiation.

    Shared by the scalar evaluators and the jet engine so that the order-0
    jet coefficient is bit-identical to pointwise evaluation.
    """
    result = None
    acc = base
    k = n
    while k > 0:
        if k & 1:
            result = acc if result is None else result * acc
        acc = acc * acc
        k >>= 1
    return 1.0 if result is None else result


_REAL_FN = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
}

_COMPLEX_FN = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "tanh": cmath.tanh,
    "sqrt": cmath.sqrt,
}


def _eval_real(e: ExprAst, x: float) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_eval_real(e.arg, x)
    if isinstance(e, Add):
        return _eval_real(e.lhs, x) + _eval_real(e.rhs, x)
    if isinstance(e, Sub):
        return _eval_real(e.lhs, x) - _eval_real(e.rhs, x)
    if isinstance(e, Mul):
        return _eval_real(e.lhs, x) * _eval_real(e.rhs, x)
    if isinstance(e, Div):
        denom = _eval_real(e.rhs, x)
        if denom == 0.0:
            raise DomainError("division by zero")
        return _eval_real(e.lhs, x) / denom
    if isinstance(e, Pow):
        return _ipow(_eval_real(e.base, x), e.exponent)
    v = _eval_real(e.arg, x)
    if e.fn == "log" and v <= 0.0:
        raise DomainError("log of a non-positive real")
    if e.fn == "sqrt" and v < 0.0:
        raise DomainError("sqrt of a negative real")
    try:
        return _REAL_FN[e.fn](v)
    except OverflowError as exc:
        raise DomainError(f"{e.fn} overflow at {v}") from exc


def _eval_complex(e: ExprAst, z: complex) -> complex:
    if isinstance(e, Num):
        return complex(e.value)
    if isinstance(e, Pi):
        return complex(math.pi)
    if isinstance(e, Var):
        return z
    if isinstance(e, Neg):
        return -_eval_complex(e.arg, z)
    if isinstance(e, Add):
        return _eval_complex(e.lhs, z) + _eval_complex(e.rhs, z)
    if isinstance(e, Sub):
        return _eval_complex(e.lhs, z) - _eval_complex(e.rhs, z)
    if isinstance(e, Mul):
        return _eval_complex(e.lhs, z) * _eval_complex(e.rhs, z)
    if isinstance(e, Div):
        denom = _eval_complex(e.rhs, z)
        if denom == 0:
            raise DomainError("division by zero")
        return _eval_complex(e.lhs, z) / denom
    if isinstance(e, Pow):
        return _ipow(_eval_complex(e.base, z), e.exponent)
    v = _eval_complex(e.arg, z)
    if e.fn in ("log", "sqrt") and v.imag == 0.0 and (v.real < 0.0 or (v.real == 0.0 and e.fn == "log")):
        raise DomainError(f"{e.fn} on the principal branch cut at {v}")
    return _COMPLEX_FN[e.fn](v)


def evaluate(e: ExprAst, x) -> complex:
    """Evaluate at a real or complex point.

    Real arguments run through pure real arithmetic, so real-coefficient
    expressions come back with imaginary part exactly zero.
    """
    if isinstance(x, complex) and x.imag != 0.0:
        return _eval_complex(e, x)
    xr = x.real if isinstance(x, complex) else float(x)
    return complex(_eval_real(e, xr), 0.0)


# --- Taylor jets ------------------------------------------------------------
#
# A jet is a list c[0..K] with c[k] = f^(k)(x0)/k!.  Arithmetic propagates
# through the tree; every c[0] is produced by the same scalar operation as
# pointwise evaluation.


def _jmul(a: List[float], b: List[float]) -> List[float]:
    K = len(a) - 1
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(K + 1)]


def _jdiv(a: List[float], b: List[float]) -> List[float]:
    if b[0] == 0.0:
        raise DomainError("division by zero in jet")
    K = len(a) - 1
    q = [0.0] * (K + 1)
    for k in range(K + 1):
        q[k] = (a[k] - sum(q[j] * b[k - j] for j in range(k))) / b[0]
    return q


def _jpow(f: List[float], n: int) -> List[float]:
    K = len(f) - 1
    if n == 0:
        return [1.0] + [0.0] * K
    if f[0] == 0.0:
        # fall back to binary exponentiation of the jet itself
        result = None
        acc = f
        k = n
        while k > 0:
            if k & 1:
                result = acc if result is None else _jmul(result, acc)
            acc = _jmul(acc, acc)
            k >>= 1
        return result
    g = [0.0] * (K + 1)
    g[0] = _ipow(f[0], n)
    for k in range(1, K + 1):
        g[k] = sum(((n + 1) * j - k) * f[j] * g[k - j] for j in range(1, k + 1)) / (k * f[0])
    return g


def _jcall(fn: str, f: List[float]) -> List[float]:
    K = len(f) - 1
    if fn == "exp":
        g = [0.0] * (K + 1)
        g[0] = math.exp(f[0])
        for k in range(1, K + 1):
            g[k] = sum(j * f[j] * g[k - j] for j in range(1, k + 1)) / k
        return g
    if fn == "log":
        if f[0] <= 0.0:
            raise DomainError("log of a non-positive real in jet")
        g = [0.0] * (K + 1)
        g[0] = math.log(f[0])
        for k in range(1, K + 1):
            g[k] = (f[k] - sum(j * g[j] * f[k - j] for j in range(1, k)) / k) / f[0]
        return g
    if fn == "sqrt":
        if f[0] < 0.0:
            raise DomainError("sqrt of a negative real in jet")
        if f[0] == 0.0:
            raise DomainError("sqrt jet at a root of the argument")
        g = [0.0] * (K + 1)
        g[0] = math.sqrt(f[0])
        for k in range(1, K + 1):
            g[k] = (f[k] - sum(g[j] * g[k - j] for j in range(1, k))) / (2.0 * g[0])
        return g
    if fn in ("sin", "cos"):
        s = [0.0] * (K + 1)
        c = [0.0] * (K + 1)
        s[0], c[0] = math.sin(f[0]), math.cos(f[0])
        for k in range(1, K + 1):
            s[k] = sum(j * f[j] * c[k - j] for j in range(1, k + 1)) / k
            c[k] = -sum(j * f[j] * s[k - j] for j in range(1, k + 1)) / k
        return s if fn == "sin" else c
    if fn in ("sinh", "cosh"):
        s = [0.0] * (K + 1)
        c = [0.0] * (K + 1)
        s[0], c[0] = math.sinh(f[0]), math.cosh(f[0])
        for k in range(1, K + 1):
            s[k] = sum(j * f[j] * c[k - j] for j in range(1, k + 1)) / k
            c[k] = sum(j * f[j] * s[k - j] for j in range(1, k + 1)) / k
        return s if fn == "sinh" else c
    if fn == "tanh":
        # t' = f'(1 - t^2); u tracks 1 - t^2 one order behind
        t = [0.0] * (K + 1)
        t[0] = math.tanh(f[0])
        u = [0.0] * (K + 1)
        u[0] = 1.0 - t[0] * t[0]
        for k in range(1, K + 1):
            t[k] = sum(j * f[j] * u[k - j] for j in range(1, k + 1)) / k
            u[k] = -sum(t[j] * t[k - j] for j in range(k + 1))
        return t
    raise ValueError(f"unknown function {fn!r}")


def _jet(e: ExprAst, x0: float, K: int) -> List[float]:
    if isinstance(e, Num):
        return [e.value] + [0.0] * K
    if isinstance(e, Pi):
        return [math.pi] + [0.0] * K
    if isinstance(e, Var):
        c = [x0] + [0.0] * K
        if K >= 1:
            c[1] = 1.0
        return c
    if isinstance(e, Neg):
        return [-v for v in _jet(e.arg, x0, K)]
    if isinstance(e, Add):
        a, b = _jet(e.lhs, x0, K), _jet(e.rhs, x0, K)
        return [u + v for u, v in zip(a, b)]
    if isinstance(e, Sub):
        a, b = _jet(e.lhs, x0, K), _jet(e.rhs, x0, K)
        return [u - v for u, v in zip(a, b)]
    if isinstance(e, Mul):
        return _jmul(_jet(e.lhs, x0, K), _jet(e.rhs, x0, K))
    if isinstance(e, Div):
        return _jdiv(_jet(e.lhs, x0, K), _jet(e.rhs, x0, K))
    if isinstance(e, Pow):
        return _jpow(_jet(e.base, x0, K), e.exponent)
    return _jcall(e.fn, _jet(e.arg, x0, K))


def taylor_jet(e: ExprAst, x0: float, K: int) -> TaylorJet:
    """Taylor coefficients f^(k)(x0)/k!, k = 0..K, by jet propagation."""
    if K < 0:
        raise ValueError("jet order must be non-negative")
    return TaylorJet(x0=float(x0), order=K, coeffs=tuple(_jet(e, float(x0), K)))


# --- symbolic derivative ----------------------------------------------------


def differentiate(e: ExprAst) -> ExprAst:
    """Exact derivative as another expression tree.

    Stays inside the grammar (tanh' = 1 - tanh^2 etc.); used to build fast
    compiled derivative callables for root refinement and the shooting ODE.
    """
    if isinstance(e, (Num, Pi)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg))
    if isinstance(e, Add):
        return Add(differentiate(e.lhs), differentiate(e.rhs))
    if isinstance(e, Sub):
        return Sub(differentiate(e.lhs), differentiate(e.rhs))
    if isinstance(e, Mul):
        return Add(Mul(differentiate(e.lhs), e.rhs), Mul(e.lhs, differentiate(e.rhs)))
    if isinstance(e, Div):
        num = Sub(Mul(differentiate(e.lhs), e.rhs), Mul(e.lhs, differentiate(e.rhs)))
        return Div(num, Pow(e.rhs, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(0.0)
        return Mul(Mul(Num(float(e.exponent)), Pow(e.base, e.exponent - 1)), differentiate(e.base))
    d = differentiate(e.arg)
    if e.fn == "exp":
        outer: ExprAst = Call("exp", e.arg)
    elif e.fn == "log":
        return Div(d, e.arg)
    elif e.fn == "sin":
        outer = Call("cos", e.arg)
    elif e.fn == "cos":
        outer = Neg(Call("sin", e.arg))
    elif e.fn == "sinh":
        outer = Call("cosh", e.arg)
    elif e.fn == "cosh":
        outer = Call("sinh", e.arg)
    elif e.fn == "tanh":
        outer = Sub(Num(1.0), Pow(Call("tanh", e.arg), 2))
    elif e.fn == "sqrt":
        return Div(d, Mul(Num(2.0), Call("sqrt", e.arg)))
    else:
        raise ValueError(f"unknown function {e.fn!r}")
    return Mul(outer, d)


# --- compilation ------------------------------------------------------------


def _emit(e: ExprAst) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "_pi"
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        return f"(-{_emit(e.arg)})"
    if isinstance(e, Add):
        return f"({_emit(e.lhs)} + {_emit(e.rhs)})"
    if isinstance(e, Sub):
        return f"({_emit(e.lhs)} - {_emit(e.rhs)})"
    if isinstance(e, Mul):
        return f"({_emit(e.lhs)} * {_emit(e.rhs)})"
    if isinstance(e, Div):
        return f"({_emit(e.lhs)} / {_emit(e.rhs)})"
    if isinstance(e, Pow):
        return f"({_emit(e.base)} ** {e.exponent})"
    return f"_{e.fn}({_emit(e.arg)})"


def compile_fn(e: ExprAst) -> Callable:
    """Compile to a fast numpy callable that handles scalars and arrays,
    real or complex.  Compiled callables skip the branch-cut checks of
    :func:`evaluate` (the contours used by callers are chosen to stay off
    the cuts).
    """
    ns = {f"_{name}": getattr(np, name) for name in FUNCTIONS}
    ns["_pi"] = np.pi
    src = f"lambda x: ({_emit(e)})"
    return eval(compile(src, "<expr>", "eval"), ns)  # noqa: S307 - own AST only
