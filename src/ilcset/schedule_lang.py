"""Tiny expression language for time-varying matrix entries.

Matrix coefficients like ``"1+0.1*cos(0.1*k)^2"`` are written as strings in
one free variable ``k`` (the time step) and compiled once into an immutable
per-horizon cache.  Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' uint)?          # uint is a nonnegative integer <= 8
    atom   := number | 'k' | 'pi' | fn '(' expr ')' | '(' expr ')' | '-' factor
    fn     := 'sin' | 'cos' | 'exp'

Whitespace is ignored; operators are left-associative with the usual
precedence.  Unary minus binds looser than ``^`` (so ``-2^2`` is ``-4``)
and tighter than ``*``.

One walker evaluates a tree: `eval_expr` runs it at one step k, and a
`MatrixSchedule` once per cell over the whole horizon, with ``k`` the
vector ``0.0, 1.0, ..., N``, which gives exactly the bits `eval_expr`
would (see `MatrixSchedule`).
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import EvalError, ParseError, ScheduleBuildError
from .matrix_core import Mat

MAX_EXPONENT = 8
# A cell whose tree is deeper than Python's recursion limit fails with this.
_TOO_DEEP = "expression nested too deeply"
_CONSTANTS = {"pi": math.pi}
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


# --- AST -------------------------------------------------------------------

class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    """The time-step variable k."""


class Neg(NamedTuple):
    child: "Node"


class BinOp(NamedTuple):
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


class Pow(NamedTuple):
    base: "Node"
    exponent: int


class Call(NamedTuple):
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Pow, Call]


# --- Tokenizer -------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?", re.ASCII)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Token(NamedTuple):
    kind: str  # number | ident | op | lparen | rparen | end
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789.":
            m = _NUMBER_RE.match(src, i)
            if m is None:
                raise ParseError("malformed number", i, expected=("number",))
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
        elif ch.isascii() and (ch.isalpha() or ch == "_"):
            m = _IDENT_RE.match(src, i)
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
        elif ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i,
                             expected=("number", "identifier", "operator", "parenthesis"))
    tokens.append(_Token("end", "", len(src)))
    return tokens


# --- Parser ----------------------------------------------------------------

_ATOM_EXPECTED = ("number", "k", "pi", "function", "(", "-")


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text if text is not None else kind
            raise ParseError(f"expected {wanted}", tok.offset, expected=(wanted,))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.offset,
                             expected=("end of input",))
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not tok.text.isdigit():
                raise ParseError("exponent must be a plain nonnegative integer",
                                 tok.offset, expected=("integer",))
            self.advance()
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds {MAX_EXPONENT}",
                                 tok.offset, expected=(f"integer <= {MAX_EXPONENT}",))
            return Pow(base, exponent)
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "k":
                return Var()
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text])
            if tok.text in _FUNCTIONS:
                self.expect("lparen")
                arg = self.expr()
                self.expect("rparen")
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset,
                             expected=("k", "pi") + tuple(sorted(_FUNCTIONS)))
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            self.expect("rparen")
            return inner
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.offset,
                         expected=_ATOM_EXPECTED)


def parse_expr(src: str) -> Node:
    """Parse one entry expression into its tree; raises ParseError with
    offset on failure.  Named constants parse to their value: ``pi`` is
    ``Num(math.pi)``."""
    if not isinstance(src, str) or not src.strip():
        raise ParseError("empty expression", 0, expected=_ATOM_EXPECTED)
    return _Parser(src).parse()


# --- Evaluation ------------------------------------------------------------

def _per_element(fn, x, *args):
    """fn(v, *args) for a float x, or for each element v of a vector x.

    numpy's ``power``, ``exp`` (and, on some CPUs, ``sin``/``cos``) round
    differently from Python's ``**`` and ``math``, so these nodes keep the
    scalar operation over ``tolist()``.
    """
    if isinstance(x, float):
        return fn(x, *args)
    return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), np.float64, len(x))


def _eval(node: Node, k):
    """Walk the tree at k: a float (one step), or the float64 vector of
    every step, where each k-dependent subtree is a vector over k and each
    constant subtree a float.  ``+ - * /`` and negation are the same
    correctly rounded IEEE operations on both, so every element of a
    vector walk is the float walk's value at that k."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return k
    if isinstance(node, Neg):
        return -_eval(node.child, k)
    if isinstance(node, BinOp):
        a = _eval(node.left, k)
        b = _eval(node.right, k)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        # Checked here, not by the result: 1/(1/(k-3)) is finite at k = 3.
        if (b == 0.0) if isinstance(b, float) else 0.0 in b:
            raise EvalError(f"division by zero ({a!r} / 0)")
        return a / b
    if isinstance(node, Pow):
        return _per_element(pow, _eval(node.base, k), node.exponent)
    if isinstance(node, Call):
        try:
            return _per_element(_FUNCTIONS[node.fn], _eval(node.arg, k))
        except (OverflowError, ValueError) as exc:
            raise EvalError(f"{node.fn} evaluation failed: {exc}") from exc
    raise EvalError(f"unknown node {node!r}")


def eval_expr(e: Node, k: int) -> float:
    """Evaluate at time step k (taken as a real); result must be finite."""
    if k < 0:
        raise EvalError(f"time step must be nonnegative, got {k}")
    try:
        value = _eval(e, float(k))
    except OverflowError as exc:
        raise EvalError(f"overflow at k={k}") from exc
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value} at k={k}")
    return value


# --- Schedules -------------------------------------------------------------

class MatrixSchedule:
    """A rows x cols grid of entry expressions, pre-evaluated for k in 0..N.

    ``values`` is the read-only (N+1, rows, cols) stack computed eagerly at
    construction; `at(k)` is a bounds-checked view of one step.

    Each cell's tree is walked once, by the walker behind `eval_expr`,
    with ``k`` the float64 vector ``arange(N+1)``.  A cell whose walk
    divides by zero, overflows in ``^`` or a function, or ends non-finite
    at any k is walked again step by step through `eval_expr`, so
    ``ScheduleBuildError.failures`` lists the same failures, in the same
    (k, row, col) order, as a per-step evaluation of the whole grid would.
    """

    def __init__(self, exprs: Sequence[Sequence[Node]], N: int):
        if N < 1:
            raise ScheduleBuildError([(0, 0, f"horizon must be >= 1, got {N}")])
        rows = len(exprs)
        if rows == 0 or len(exprs[0]) == 0:
            raise ScheduleBuildError([(0, 0, "empty grid")])
        cols = len(exprs[0])
        if any(len(row) != cols for row in exprs):
            raise ScheduleBuildError([(0, 0, "ragged grid")])
        self.rows = rows
        self.cols = cols
        self.N = N
        steps = np.arange(N + 1, dtype=np.float64)
        failures: list[tuple[int, int, int, str]] = []
        values = np.empty((N + 1, rows, cols))
        for i, j in np.ndindex(rows, cols):
            expr = exprs[i][j]
            try:
                try:
                    with np.errstate(all="ignore"):
                        value = _eval(expr, steps)
                    if np.isfinite(value).all():
                        values[:, i, j] = value
                        continue
                except (EvalError, OverflowError):
                    pass
                for k in range(N + 1):
                    try:
                        values[k, i, j] = eval_expr(expr, k)
                    except EvalError as exc:
                        failures.append((k, i, j, f"k={k}: {exc}"))
            except RecursionError:
                failures.append((0, i, j, _TOO_DEEP))
        if failures:
            failures.sort(key=lambda f: f[:3])
            raise ScheduleBuildError([(i, j, detail) for _, i, j, detail in failures])
        values.flags.writeable = False
        self.values = values

    def at(self, k: int) -> Mat:
        if not 0 <= k <= self.N:
            raise IndexError(f"time step {k} outside 0..{self.N}")
        return self.values[k]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def from_values(cls, values, N: int) -> "MatrixSchedule":
        """Constant schedule from a nested grid of numbers."""
        grid = [[Num(float(v)) for v in row] for row in np.atleast_2d(values)]
        return cls(grid, N)


def build_schedule(grid: Sequence[Sequence[str]], N: int) -> MatrixSchedule:
    """Parse every cell of a text grid and cache values over the horizon.

    All parse failures are collected (with row/column locations) before
    raising, so a config with several bad cells reports them all at once.
    """
    failures: list[tuple[int, int, str]] = []
    exprs: list[list[Node]] = []
    for i, row in enumerate(grid):
        expr_row = []
        for j, cell in enumerate(row):
            try:
                expr_row.append(parse_expr(cell))
            except ParseError as exc:
                failures.append((i, j, f"parse: {exc}"))
                expr_row.append(Num(0.0))
            except RecursionError:
                failures.append((i, j, f"parse: {_TOO_DEEP}"))
                expr_row.append(Num(0.0))
        exprs.append(expr_row)
    if failures:
        raise ScheduleBuildError(failures)
    return MatrixSchedule(exprs, N)
