"""Expression language: grammar, evaluation, and schedule caching."""

import math
import random

import numpy as np
import pytest

from ilcset.errors import EvalError, ParseError, ScheduleBuildError, UnknownFunctionError
from ilcset.schedule_lang import (
    MAX_EXPONENT,
    BinOp,
    Call,
    MatrixSchedule,
    Neg,
    Num,
    Pow,
    Var,
    build_schedule,
    eval_expr,
    parse_expr,
)


def test_parse_literal_zero():
    assert parse_expr("0") == Num(0.0)


def test_pi_parses_to_its_value():
    assert parse_expr("pi") == Num(math.pi)
    assert parse_expr("2*pi") == BinOp("*", Num(2.0), Num(math.pi))


def test_parse_builds_expected_tree():
    got = parse_expr("1+0.1*cos(0.1*k)^2")
    want = BinOp(
        "+",
        Num(1.0),
        BinOp("*", Num(0.1), Pow(Call("cos", BinOp("*", Num(0.1), Var())), 2)),
    )
    assert got == want


def test_unclosed_call_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("sin(")
    assert err.value.offset == 4


def test_parse_error_carries_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse_expr("1+*2")
    assert err.value.offset == 2
    assert len(err.value.expected) > 0


def test_unknown_identifier():
    with pytest.raises(UnknownFunctionError):
        parse_expr("tan(k)")
    with pytest.raises(UnknownFunctionError):
        parse_expr("q+1")


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse_expr("1 2")
    assert err.value.offset == 2


@pytest.mark.parametrize("src", ["", "   "])
def test_empty_expression_rejected(src):
    with pytest.raises(ParseError):
        parse_expr(src)


def test_eval_variable():
    assert eval_expr(parse_expr("k"), 7) == 7.0


def test_eval_reference_trajectory_entry():
    # 20*(50/100)^2*(1-50/100) = 20 * 0.25 * 0.5, by hand.
    assert eval_expr(parse_expr("20*(k/100)^2*(1-k/100)"), 50) == pytest.approx(2.5, abs=1e-15)


def test_eval_rational_entry():
    assert eval_expr(parse_expr("0.01/(k+2)"), 0) == pytest.approx(0.005, abs=1e-18)


def test_precedence():
    assert eval_expr(parse_expr("2+3*4"), 0) == 14.0
    assert eval_expr(parse_expr("-2^2"), 0) == -4.0
    assert eval_expr(parse_expr("(-2)^2"), 0) == 4.0
    assert eval_expr(parse_expr("10-4-3"), 0) == 3.0  # left association


def test_pi_constant():
    assert eval_expr(parse_expr("pi"), 0) == math.pi
    assert eval_expr(parse_expr("sin(pi/2)"), 0) == pytest.approx(1.0, abs=1e-15)


def test_whitespace_insensitive():
    assert eval_expr(parse_expr(" 1 + 2 * k "), 3) == 7.0


@pytest.mark.parametrize("src", ["2^9", "2^-1", "2^2.5", "2^k"])
def test_bad_exponents_rejected(src):
    with pytest.raises(ParseError):
        parse_expr(src)


def test_division_by_zero_is_eval_error():
    expr = parse_expr("1/(k-3)")
    assert eval_expr(expr, 2) == -1.0
    with pytest.raises(EvalError):
        eval_expr(expr, 3)


def test_overflow_is_eval_error():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("exp(exp(exp(k)))"), 9)


def _parenthesized(node) -> str:
    """Fully parenthesized source of a tree, which the parser must read back
    as an equivalent tree whatever its precedence rules."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "k"
    if isinstance(node, Neg):
        return f"(-{_parenthesized(node.child)})"
    if isinstance(node, BinOp):
        return f"({_parenthesized(node.left)}{node.op}{_parenthesized(node.right)})"
    if isinstance(node, Pow):
        return f"({_parenthesized(node.base)})^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.fn}({_parenthesized(node.arg)})"
    raise ValueError(f"unknown node {node!r}")


@pytest.mark.parametrize(
    "src",
    [
        "0",
        "k",
        "-2^2",
        "1+0.1*cos(0.1*k)^2",
        "20*(k/100)^2*(1-k/100)",
        "3*sin(0.02*pi*k)",
        "0.01*exp(0.01*k)",
        "4+5*sin(3*k)",
        "0.25+0.1*sin(0.1*k)",
        "0.01/(k+2)",
        "-(1+k)/(2+k)",
    ],
)
def test_pretty_print_round_trip(src):
    original = parse_expr(src)
    reparsed = parse_expr(_parenthesized(original))
    for k in range(201):
        assert abs(eval_expr(reparsed, k) - eval_expr(original, k)) <= 1e-12


def test_build_minimal_schedule():
    sched = build_schedule([["k"]], N=2)
    assert sched.shape == (1, 1)
    assert [float(sched.at(k)[0, 0]) for k in range(3)] == [0.0, 1.0, 2.0]


def test_reference_trajectory_vanishes_at_endpoints():
    grid = [["20*(k/100)^2*(1-k/100)"], ["3*sin(0.02*pi*k)"]]
    sched = build_schedule(grid, N=100)
    np.testing.assert_allclose(sched.at(0), np.zeros((2, 1)), atol=1e-12)
    np.testing.assert_allclose(sched.at(100), np.zeros((2, 1)), atol=1e-12)


def test_build_aggregates_parse_failures():
    with pytest.raises(ScheduleBuildError) as err:
        build_schedule([["q", "sin("]], N=1)
    locations = [(row, col) for row, col, _ in err.value.failures]
    assert locations == [(0, 0), (0, 1)]


def test_build_reports_eval_failure_with_time_step():
    with pytest.raises(ScheduleBuildError) as err:
        build_schedule([["1/(k-1)"]], N=2)
    row, col, detail = err.value.failures[0]
    assert (row, col) == (0, 0)
    assert "k=1" in detail


def test_cache_is_deterministic_and_immutable():
    grid = [["0.25+0.1*sin(0.1*k)", "-0.1"], ["0", "0.15+0.1*cos(3*k)^2"]]
    a = build_schedule(grid, N=100)
    b = build_schedule(grid, N=100)
    for k in range(101):
        assert a.at(k).tobytes() == b.at(k).tobytes()
    with pytest.raises(ValueError):
        a.at(0)[0, 0] = 99.0


def test_at_bounds_checked():
    sched = build_schedule([["k"]], N=3)
    with pytest.raises(IndexError):
        sched.at(4)
    with pytest.raises(IndexError):
        sched.at(-1)


def test_constant_helpers():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    sched = MatrixSchedule.from_values(m, N=5)
    for k in range(6):
        np.testing.assert_array_equal(sched.at(k), m)
    vals = MatrixSchedule.from_values([[7.0]], N=1)
    assert vals.at(1)[0, 0] == 7.0


# --- Whole-horizon compile against the per-step walk -------------------------

def per_step_build(grid, N):
    """The per-(k, i, j) evaluation loop that MatrixSchedule replaced, kept
    as the reference for its values and its failure list."""
    exprs = [[parse_expr(cell) for cell in row] for row in grid]
    values = np.empty((N + 1, len(exprs), len(exprs[0])))
    failures = []
    for k in range(N + 1):
        for i, row in enumerate(exprs):
            for j, expr in enumerate(row):
                try:
                    values[k, i, j] = eval_expr(expr, k)
                except EvalError as exc:
                    failures.append((i, j, f"k={k}: {exc}"))
    return values, failures


def assert_build_matches_per_step(grid, N):
    values, failures = per_step_build(grid, N)
    if failures:
        with pytest.raises(ScheduleBuildError) as err:
            build_schedule(grid, N)
        assert err.value.failures == failures
    else:
        got = build_schedule(grid, N).values
        # Bitwise, so that -0.0 against 0.0 counts as a difference.
        assert got.view(np.uint64).tobytes() == values.view(np.uint64).tobytes(), grid


_NUMBERS = ("0", "1", "2", "3", "0.1", "0.37", "1e200", "7.5e-3")


def random_source(rnd: random.Random, depth: int) -> str:
    if depth == 0 or rnd.random() < 0.2:
        pick = rnd.random()
        if pick < 0.45:
            return "k"
        if pick < 0.55:
            return "pi"
        if pick < 0.6:
            return "(k-3)"
        if pick < 0.75:
            return rnd.choice(_NUMBERS)
        return repr(rnd.uniform(0.0, 4.0))
    a = random_source(rnd, depth - 1)
    kind = rnd.choice(("op", "op", "op", "pow", "fn", "neg"))
    if kind == "op":
        return f"({a}{rnd.choice('+-*/')}{random_source(rnd, depth - 1)})"
    if kind == "pow":
        return f"({a})^{rnd.randint(0, MAX_EXPONENT)}"
    if kind == "fn":
        return f"{rnd.choice(('sin', 'cos', 'exp'))}({a})"
    return f"-({a})"


def test_whole_horizon_build_matches_per_step_on_random_expressions():
    rnd = random.Random(20261018)
    failing = 0
    for _ in range(600):
        grid = [[random_source(rnd, 4)]]
        N = rnd.randint(1, 60)
        failing += bool(per_step_build(grid, N)[1])
        assert_build_matches_per_step(grid, N)
    assert 30 <= failing <= 200  # both outcomes well exercised


def test_whole_horizon_build_matches_per_step_on_random_grids():
    rnd = random.Random(7)
    for _ in range(100):
        grid = [[random_source(rnd, 3) for _ in range(3)] for _ in range(2)]
        assert_build_matches_per_step(grid, rnd.randint(1, 30))


@pytest.mark.parametrize("grid", [
    [[f"(0.37*k+0.1)^{e}" for e in range(MAX_EXPONENT + 1)]],
    [[f"(k/7-13.3)^{e}" for e in range(MAX_EXPONENT + 1)]],
    [["sin(0.37*k)", "cos(1.3*k+0.2)", "exp(0.0123*k-1.7)", "exp(k/13)"]],
    [["sin(exp(0.01*k))*cos(k)^3", "-exp(-k/50)^2", "0", "pi"]],
])
def test_whole_horizon_powers_and_functions_are_bit_exact(grid):
    assert_build_matches_per_step(grid, 400)


@pytest.mark.parametrize("grid", [
    [["1/(k-3)"]],
    [["1/(1/(k-3))"]],  # finite at k = 3 in floating point, an error per step
    [["exp(exp(exp(k)))"]],
    [["(1e200*(k+1))^2"]],
    [["1e300*1e300*(k-2)/(k-2)"]],
    [["k", "1/(k-3)"], ["1/(k-2)", "exp(exp(exp(k)))"]],  # failures in (k, i, j) order
])
def test_whole_horizon_failures_match_per_step(grid):
    assert_build_matches_per_step(grid, 12)
