"""Analytic expressions in one variable: parsing, evaluation, Taylor jets.

Potentials and coupling coefficients are given as strings in a small infix
language (variable ``x``, constant ``pi``, the functions exp/log/sin/cos/
sinh/cosh/tanh/sqrt, and +, -, *, /, ^ with integer exponents).  Parsed
expressions are immutable trees.  One walker propagates truncated Taylor
series through a tree: its order-0 jet is the value at a real point, with
poles and branch cuts raising DomainError.  Complex and array arguments go
through :func:`compile_fn` instead.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, List, Union

import numpy as np

from .errors import InputError

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


class ExprSyntaxError(InputError, ValueError):
    """Malformed expression text.

    Carries the character offset of the failure and a description of what
    was expected there.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"at offset {offset}: expected {expected}")


class DomainError(InputError, ArithmeticError):
    """Evaluation hit a pole, a branch cut or an overflow (division by
    zero, log of a non-positive or sqrt of a negative real, sqrt jet of
    order >= 1 at a root, exp/sinh/cosh overflow)."""


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


def _ipow(base, n: int, mul=operator.mul):
    """Integer power by binary exponentiation, of a float or, with
    ``mul=_jmul``, of a jet (n >= 1 there)."""
    result = None
    acc = base
    k = n
    while k > 0:
        if k & 1:
            result = acc if result is None else mul(result, acc)
        acc = mul(acc, acc)
        k >>= 1
    return 1.0 if result is None else result


def evaluate(e: ExprAst, x: float) -> float:
    """Value at a real point: the order-0 Taylor jet.

    Raises DomainError where the expression is undefined (a pole, log or
    sqrt of a negative real, log of zero) or overflows.
    """
    return taylor_jet(e, x, 0).coeffs[0]


# --- Taylor jets ------------------------------------------------------------
#
# A jet is a list c[0..K] with c[k] = f^(k)(x0)/k!.  Arithmetic propagates
# through the tree; c[0] is the point value, so the order-0 jet is the
# scalar evaluator.


def _jmul(a: List[float], b: List[float]) -> List[float]:
    # c[0] is the bare product: a sum starting from 0 would turn -0.0 into 0.0
    K = len(a) - 1
    return [a[0] * b[0]] + [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(1, K + 1)]


def _jdiv(a: List[float], b: List[float]) -> List[float]:
    if b[0] == 0.0:
        raise DomainError("division by zero")
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
        # the recurrence divides by f[0]: exponentiate the jet itself
        return _ipow(f, n, _jmul)
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
            raise DomainError("log of a non-positive real")
        g = [0.0] * (K + 1)
        g[0] = math.log(f[0])
        for k in range(1, K + 1):
            g[k] = (f[k] - sum(j * g[j] * f[k - j] for j in range(1, k)) / k) / f[0]
        return g
    if fn == "sqrt":
        if f[0] < 0.0:
            raise DomainError("sqrt of a negative real")
        if f[0] == 0.0 and K >= 1:
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
    f = _jet(e.arg, x0, K)
    try:
        return _jcall(e.fn, f)
    except OverflowError as exc:  # exp, sinh, cosh
        raise DomainError(f"{e.fn} overflow at {f[0]}") from exc


def taylor_jet(e: ExprAst, x0: float, K: int) -> TaylorJet:
    """Taylor coefficients f^(k)(x0)/k!, k = 0..K, by jet propagation.  A
    DomainError names the operation, the expression and the point."""
    if K < 0:
        raise ValueError("jet order must be non-negative")
    x0 = float(x0)
    try:
        coeffs = tuple(_jet(e, x0, K))
    except DomainError as exc:
        raise DomainError(f"{exc} in {unparse(e)} at x = {x0!r}") from exc
    return TaylorJet(x0=x0, order=K, coeffs=coeffs)


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


def _depends_on_x(e: ExprAst) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Num, Pi)):
        return False
    if isinstance(e, (Neg, Call)):
        return _depends_on_x(e.arg)
    if isinstance(e, Pow):
        return _depends_on_x(e.base)
    return _depends_on_x(e.lhs) or _depends_on_x(e.rhs)


def compile_fn(e: ExprAst) -> Callable:
    """Compile to a fast numpy callable that handles scalars and arrays,
    real or complex; its value is shaped like its argument, also for an
    expression without x (a read-only broadcast of the constant, which
    takes no memory per point).  Compiled callables skip the domain
    checks of :func:`evaluate` (the contours used by callers are chosen to
    stay off the cuts).
    """
    ns = {f"_{name}": getattr(np, name) for name in FUNCTIONS}
    ns.update(_pi=np.pi, _broadcast_to=np.broadcast_to, _shape=np.shape)
    body = _emit(e) if _depends_on_x(e) else f"_broadcast_to({_emit(e)}, _shape(x))"
    src = f"lambda x: ({body})"
    return eval(compile(src, "<expr>", "eval"), ns)  # noqa: S307 - own AST only
