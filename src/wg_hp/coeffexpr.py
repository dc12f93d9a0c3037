"""Coefficient expressions: parsing, pointwise evaluation, symbolic derivative.

The grammar is deliberately small -- single variable x, the arithmetic
operators, and a handful of analytic functions.  The symbolic derivative is
what feeds the weak convection derivative (which needs b') and the
gamma-assumption check r - eps2*b'/2 > 0, so it must be free of step-size
error; only constant folding is performed, no other simplification.

Grammar (EBNF):
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := number | "x" | ident "(" expr ")" | "(" expr ")"
    ident  := "sin"|"cos"|"tan"|"exp"|"log"|"sqrt"|"abs"
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from wg_hp._frozen import Frozen

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class EvalDomainError(ExprError):
    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in subexpression {to_string(subexpr)}")
        self.subexpr = subexpr


class UnsupportedDerivativeError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST


class Expr(Frozen):
    @cached_property
    def _program(self) -> tuple:
        """The straight-line program evaluate runs, compiled on first use."""
        return _compile(self)


class Num(Expr):
    _fields = ("value",)

    def __init__(self, value: float):
        vars(self)["value"] = value


class Var(Expr):
    pass


class Neg(Expr):
    _fields = ("arg",)

    def __init__(self, arg: Expr):
        vars(self)["arg"] = arg


class BinOp(Expr):
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        vars(self).update(op=op, left=left, right=right)  # op is one of + - * / ^


class Call(Expr):
    _fields = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        vars(self).update(func=func, arg=arg)


X = Var()


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError("unexpected trailing input", self.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self._peek() == "-":
            self.pos += 1
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        if self._peek() == "^":
            self.pos += 1
            e = BinOp("^", e, self.factor())  # right-associative
        return e

    def atom(self) -> Expr:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self._expect(")")
            return e
        if ch.isdigit() or ch == ".":
            return self._number()
        if ch.isalpha():
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            name = self.text[start : self.pos]
            if name == "x":
                return X
            if name in FUNCTIONS:
                self._expect("(")
                arg = self.expr()
                self._expect(")")
                return Call(name, arg)
            raise UnknownIdentifierError(f"unknown identifier '{name}'", start)
        raise ExprSyntaxError("expected number, 'x', function call or '('", start)

    def _number(self) -> Num:
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isdigit() or t[self.pos] == "."):
            self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' was not an exponent
        try:
            return Num(float(t[start : self.pos]))
        except ValueError:
            raise ExprSyntaxError("malformed number", start) from None


def parse(text: str) -> Expr:
    """Parse an expression string into an AST."""
    return _Parser(text).parse()


def to_string(e: Expr) -> str:
    """Fully parenthesized textual form; re-parses to an equivalent AST."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_string(e.left)}{e.op}{to_string(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
#
# An Expr is compiled once, on first evaluation, into a straight-line program
# cached on the instance (Expr._program).  Each structurally distinct
# subexpression is one step, placed where a left-to-right walk of the tree
# first finishes it, so the domain checks run in the walk's order and name
# the same subexpression.  A step is (kind, fn, i, j, node): fn applied to the
# values of steps i and j (j is None for a unary step), and node the
# subexpression a domain check names.  A constant's step holds its value in
# place of fn, and a fill step fills step i's value to x's shape.
#
# Constants stay Python floats, except where they feed ^ and x is an array:
# there they are first filled to x's shape, as the tree walk filled every
# constant.  np.power(array, 2.0) and np.power(array, 0.5) differ by an ulp
# from np.power(array, array); the other operations give the same bits for
# a float as for an array of it.

_NUM, _VAR, _FILL, _APPLY, _CHECKED = range(5)


def _any(mask) -> bool:
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _divide(node, a, b):
    if _any(b == 0):
        raise EvalDomainError("division by zero", node)
    return a / b


def _power(node, a, b):
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.power(a, b)
    if not np.isfinite(out).all():
        raise EvalDomainError("invalid power", node)
    return out


def _log(node, a):
    if _any(a <= 0):
        raise EvalDomainError("log of non-positive value", node)
    return np.log(a)


def _sqrt(node, a):
    if _any(a < 0):
        raise EvalDomainError("sqrt of negative value", node)
    return np.sqrt(a)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_CHECKED_BINARY = {"/": _divide, "^": _power}
_CHECKED_CALLS = {"log": _log, "sqrt": _sqrt}


def _compile(root: Expr) -> tuple:
    steps: list = []
    slot: dict = {}  # step key -> step index; keys name children by index
    const: list = []  # step index -> independent of x

    def emit(key, step, is_const: bool) -> int:
        k = slot.get(key)
        if k is None:
            k = slot[key] = len(steps)
            steps.append(step)
            const.append(is_const)
        return k

    def filled(k: int) -> int:
        return emit(("fill", k), (_FILL, None, k, None, None), False) if const[k] else k

    def visit(e: Expr) -> int:
        if isinstance(e, Num):
            # repr keeps -0.0 apart from 0.0
            return emit(("num", repr(e.value)), (_NUM, e.value, None, None, None), True)
        if isinstance(e, Var):
            return emit(("x",), (_VAR, None, None, None, None), False)
        if isinstance(e, Neg):
            a = visit(e.arg)
            return emit(("neg", a), (_APPLY, operator.neg, a, None, None), const[a])
        if isinstance(e, BinOp):
            a = visit(e.left)
            b = visit(e.right)
            if e.op in _BINARY:
                step = (_APPLY, _BINARY[e.op], a, b, None)
            elif e.op in _CHECKED_BINARY:
                if e.op == "^":
                    a, b = filled(a), filled(b)
                step = (_CHECKED, _CHECKED_BINARY[e.op], a, b, e)
            else:
                raise ValueError(f"bad operator {e.op!r}")
            return emit((e.op, a, b), step, const[a] and const[b])
        if isinstance(e, Call):
            a = visit(e.arg)
            if e.func in _CHECKED_CALLS:
                step = (_CHECKED, _CHECKED_CALLS[e.func], a, None, e)
            else:
                step = (_APPLY, getattr(np, e.func), a, None, None)
            return emit((e.func, a), step, const[a])
        raise TypeError(f"not an Expr: {e!r}")

    visit(root)  # the root is finished last, so it is the last step
    return tuple(steps)


def _run(program: tuple, x, array: bool):
    vals: list = []
    push = vals.append
    for kind, fn, i, j, node in program:
        if kind == _APPLY:
            push(fn(vals[i]) if j is None else fn(vals[i], vals[j]))
        elif kind == _CHECKED:
            push(fn(node, vals[i]) if j is None else fn(node, vals[i], vals[j]))
        elif kind == _VAR:
            push(x)
        elif kind == _NUM:
            push(fn)
        else:
            push(np.full_like(x, vals[i]) if array else vals[i])
    return vals[-1]


def evaluate(e: Expr, x):
    """Evaluate at a scalar or ndarray of points (IEEE double)."""
    program = e._program
    if np.ndim(x) == 0:
        return float(_run(program, float(x), False))
    xv = np.asarray(x, dtype=float)
    if xv.size == 0:
        # no point to evaluate, so no domain check can fail
        return np.empty(xv.shape)
    out = _run(program, xv, True)
    # a fresh float array of x's shape is returned as it is; x itself (the
    # expression "x") and anything else is copied, so the caller always owns
    # the result
    if (
        isinstance(out, np.ndarray)
        and out.dtype == float
        and out.shape == xv.shape
        and out.flags.c_contiguous
        and out is not xv
    ):
        return out
    return np.broadcast_to(np.asarray(out, dtype=float), xv.shape).copy()


# ---------------------------------------------------------------------------
# Constant-folding constructors (used by differentiate and manufacture)


def _is_num(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b) and b.value != 0:
        return Num(a.value / b.value)
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def neg(a: Expr) -> Expr:
    if _is_num(a):
        return Num(-a.value)
    return Neg(a)


def powx(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return BinOp("^", a, b)


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expr) -> Expr:
    """Symbolic d/dx by the standard rules; abs is rejected."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg))
    if isinstance(e, BinOp):
        u, v = e.left, e.right
        du, dv = differentiate(u), differentiate(v)
        if e.op == "+":
            return add(du, dv)
        if e.op == "-":
            return sub(du, dv)
        if e.op == "*":
            return add(mul(du, v), mul(u, dv))
        if e.op == "/":
            return div(sub(mul(du, v), mul(u, dv)), mul(v, v))
        if e.op == "^":
            if isinstance(v, Num):
                return mul(mul(v, powx(u, Num(v.value - 1.0))), du)
            # general case: u^v * (v' log u + v u'/u)
            return mul(
                powx(u, v),
                add(mul(dv, Call("log", u)), div(mul(v, du), u)),
            )
        raise ValueError(f"bad operator {e.op!r}")
    if isinstance(e, Call):
        da = differentiate(e.arg)
        a = e.arg
        if e.func == "sin":
            outer = Call("cos", a)
        elif e.func == "cos":
            outer = neg(Call("sin", a))
        elif e.func == "tan":
            outer = div(Num(1.0), mul(Call("cos", a), Call("cos", a)))
        elif e.func == "exp":
            outer = Call("exp", a)
        elif e.func == "log":
            outer = div(Num(1.0), a)
        elif e.func == "sqrt":
            outer = div(Num(0.5), Call("sqrt", a))
        elif e.func == "abs":
            raise UnsupportedDerivativeError("abs is not differentiable")
        else:
            raise ValueError(f"bad function {e.func!r}")
        return mul(outer, da)
    raise TypeError(f"not an Expr: {e!r}")
