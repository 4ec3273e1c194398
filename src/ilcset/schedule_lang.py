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

`eval_expr` is the scalar reference: one tree walk per (cell, k).  A
`MatrixSchedule` instead walks each cell's tree once over the whole
horizon, with ``k`` as the vector ``0.0, 1.0, ..., N``, and stores exactly
the bits `eval_expr` would give (see `MatrixSchedule`).
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    EvalError,
    ParseError,
    ScheduleBuildError,
    UnknownFunctionError,
)
from .matrix_core import Mat

MAX_EXPONENT = 8
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

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
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
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(src, i)
            if m is None:
                raise ParseError("malformed number", i, expected=("number",))
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
        elif ch.isalpha() or ch == "_":
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
            raise UnknownFunctionError(f"unknown identifier {tok.text!r}", tok.offset,
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

def _eval_node(node: Node, k: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return k
    if isinstance(node, Neg):
        return -_eval_node(node.child, k)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, k)
        b = _eval_node(node.right, k)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise EvalError(f"division by zero ({a!r} / 0)")
        return a / b
    if isinstance(node, Pow):
        return _eval_node(node.base, k) ** node.exponent
    if isinstance(node, Call):
        try:
            return _FUNCTIONS[node.fn](_eval_node(node.arg, k))
        except (OverflowError, ValueError) as exc:
            raise EvalError(f"{node.fn} evaluation failed: {exc}") from exc
    raise EvalError(f"unknown node {node!r}")


def eval_expr(e: Node, k: int) -> float:
    """Evaluate at time step k (taken as a real); result must be finite."""
    if k < 0:
        raise EvalError(f"time step must be nonnegative, got {k}")
    try:
        value = _eval_node(e, float(k))
    except OverflowError as exc:
        raise EvalError(f"overflow at k={k}") from exc
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value} at k={k}")
    return value


# --- Whole-horizon evaluation ---------------------------------------------

class _NotExact(Exception):
    """The whole-array walk cannot reproduce the scalar walk at some k."""


def _per_element(fn, x):
    """fn applied with Python floats, element by element.

    numpy's ``power``, ``exp`` (and, on some CPUs, ``sin``/``cos``) round
    differently from Python's ``**`` and ``math``, so these nodes keep the
    scalar operation over ``tolist()``.
    """
    try:
        if isinstance(x, float):
            return fn(x)
        return np.array([fn(v) for v in x.tolist()])
    except (OverflowError, ValueError) as exc:
        raise _NotExact from exc


def _eval_horizon(node: Node, k: np.ndarray):
    """Evaluate a tree at every step at once: a Python float where the
    subtree does not depend on k, a float64 vector over k where it does.

    ``+ - * /`` and negation are correctly rounded IEEE operations in
    numpy as in Python, so each element equals the scalar walk's value.
    Raises _NotExact wherever the scalar walk would raise at some k.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return k
    if isinstance(node, Neg):
        return -_eval_horizon(node.child, k)
    if isinstance(node, BinOp):
        a = _eval_horizon(node.left, k)
        b = _eval_horizon(node.right, k)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        # Checked here, not by the result: 1/(1/(k-3)) is finite at k = 3.
        if np.any(b == 0.0):
            raise _NotExact
        return a / b
    if isinstance(node, Pow):
        exponent = node.exponent
        return _per_element(lambda x: x ** exponent, _eval_horizon(node.base, k))
    if isinstance(node, Call):
        return _per_element(_FUNCTIONS[node.fn], _eval_horizon(node.arg, k))
    raise _NotExact


def _eval_cell(e: Node, k: np.ndarray):
    """The cell's values at every k, bit-equal to eval_expr; raises
    _NotExact if eval_expr fails at any k."""
    with np.errstate(all="ignore"):
        value = _eval_horizon(e, k)
        if not np.isfinite(value).all():
            raise _NotExact
    return value


# --- Schedules -------------------------------------------------------------

class MatrixSchedule:
    """A rows x cols grid of entry expressions, pre-evaluated for k in 0..N.

    ``values`` is the read-only (N+1, rows, cols) stack computed eagerly at
    construction; `at(k)` is a bounds-checked view of one step.

    Each cell's tree is walked once on ``k = arange(N+1)`` as a float64
    vector: ``+ - * /`` and negation become numpy operations, which round
    exactly as Python's do, while ``^`` and ``sin``/``cos``/``exp`` run per
    element with Python's ``**`` and ``math``, because numpy's versions can
    differ in the last bit.  A cell that divides by zero, overflows in
    ``^`` or a function, or ends non-finite at any k is evaluated again
    with `eval_expr` step by step, so ``ScheduleBuildError.failures``
    lists the same failures, in the same (k, row, col) order, as a per-step
    evaluation of the whole grid would.
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
        for i in range(rows):
            for j in range(cols):
                expr = exprs[i][j]
                try:
                    values[:, i, j] = _eval_cell(expr, steps)
                except _NotExact:
                    for k in range(N + 1):
                        try:
                            values[k, i, j] = eval_expr(expr, k)
                        except EvalError as exc:
                            failures.append((k, i, j, f"k={k}: {exc}"))
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
        exprs.append(expr_row)
    if failures:
        raise ScheduleBuildError(failures)
    return MatrixSchedule(exprs, N)
