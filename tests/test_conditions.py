"""Condition checks: spectral radii and the multiplier feasibility test."""

import math

import numpy as np
import pytest

from ilcset import conditions
from ilcset.conditions import (
    ConditionReport,
    check_lmi,
    check_rho_cb_gamma,
    check_rho_dxi,
    check_rho_gamma_cb,
    check_rho_xid,
)
from ilcset.errors import IlcsetError
from ilcset.matrix_core import spectral_norms
from ilcset.schedule_lang import MatrixSchedule, build_schedule


def constant(values, N=1):
    return MatrixSchedule.from_values(values, N)


def zeros_like(rows, cols, N=1):
    return MatrixSchedule.from_values(np.zeros((rows, cols)), N)


# --- output-side contraction ----------------------------------------------

def test_rho_dxi_trivial_cases():
    eye = constant(np.eye(2))
    assert check_rho_dxi(eye, eye).worst == pytest.approx(0.0, abs=1e-12)
    report = check_rho_dxi(eye, constant(2.0 * np.eye(2)))
    assert report.worst == pytest.approx(1.0, abs=1e-12)
    assert not report.satisfied  # strict inequality at the boundary


def test_rho_dxi_benchmark_against_triangular_oracle(example1):
    # D(k)Xi(k) is upper triangular for this plant, so its eigenvalues are
    # the two diagonal products, written out from the published entries.
    report = check_rho_dxi(example1.system.D, example1.xi)
    for k, value in report.per_k:
        d1 = (1 + 0.1 * math.cos(0.1 * k) ** 2) * (0.25 + 0.1 * math.sin(0.1 * k))
        d2 = (2 + 0.5 * math.sin(3 * k)) * (0.15 + 0.1 * math.cos(3 * k) ** 2)
        assert value == pytest.approx(max(abs(1 - d1), abs(1 - d2)), abs=1e-10)
    assert report.satisfied
    assert report.worst <= 0.85
    # Interval bound on the factor ranges: [1.0,1.1]x[0.15,0.35] and
    # [1.5,2.5]x[0.15,0.25] keep both products inside (0, 1.0].
    assert report.margin >= 0.15 - 1e-9


def test_rho_xid_square_case_matches_rho_dxi():
    rng = np.random.default_rng(8)
    for _ in range(20):
        D = constant(rng.normal(size=(2, 2)))
        Xi = constant(rng.normal(size=(2, 2)))
        assert check_rho_xid(D, Xi).worst == pytest.approx(
            check_rho_dxi(D, Xi).worst, abs=1e-8)


def test_rho_xid_benchmark_pinned_at_one(example1):
    # Xi(k)D(k) is 3x3 of rank at most 2: an eigenvalue of the loop matrix
    # sits at exactly 1 for every k.
    report = check_rho_xid(example1.system.D, example1.xi)
    assert not report.satisfied
    for _, value in report.per_k:
        assert value >= 1.0 - 1e-9
    product = example1.xi.at(0) @ example1.system.D.at(0)
    assert abs(np.linalg.det(product)) <= 1e-12
    eigs = np.linalg.eigvals(np.eye(3) - product)
    assert min(abs(eigs - 1.0)) <= 1e-12


def test_rho_xid_zero_gain():
    report = check_rho_xid(constant([[1.0, 0.0]]), zeros_like(2, 1))
    assert report.worst == pytest.approx(1.0, abs=1e-15)
    assert not report.satisfied


# --- coupling-side contraction --------------------------------------------

def test_rho_cb_gamma_scalar():
    N = 1
    B = MatrixSchedule.from_values([[1.0]], N)
    C = MatrixSchedule.from_values([[1.0]], N)
    gamma = MatrixSchedule.from_values([[0.5]], N)
    assert check_rho_cb_gamma(B, C, gamma).worst == pytest.approx(0.5, abs=1e-12)
    assert check_rho_gamma_cb(B, C, gamma).worst == pytest.approx(0.5, abs=1e-12)


def test_rho_cb_gamma_benchmark_against_triangular_oracle(example2):
    # C(k+1)B(k)Gamma(k) is lower triangular with diagonal products
    # rebuilt from the published formulas.
    report = check_rho_cb_gamma(example2.system.B, example2.system.C, example2.gamma)
    assert len(report.per_k) == 100
    for k, value in report.per_k:
        g1 = (1 + 0.1 * math.cos(0.1 * k) ** 2) * (0.3 + 0.1 * math.sin(0.1 * k))
        g2 = (2 + 0.5 * math.sin(3 * k)) * (0.2 + 0.1 * math.cos(3 * k) ** 2)
        assert value == pytest.approx(max(abs(1 - g1), abs(1 - g2)), abs=1e-10)
    assert report.satisfied
    assert report.worst <= 0.8


def test_rho_gamma_cb_benchmark_violated(example2):
    report = check_rho_gamma_cb(example2.system.B, example2.system.C, example2.gamma)
    assert not report.satisfied
    for _, value in report.per_k:
        assert value >= 1.0 - 1e-9


def test_rho_gamma_cb_zero_gain(example2):
    report = check_rho_gamma_cb(example2.system.B, example2.system.C,
                                zeros_like(3, 2, N=100))
    assert report.worst == pytest.approx(1.0, abs=1e-15)
    assert not report.satisfied


# --- multiplier feasibility test ------------------------------------------

def test_lmi_scalar_cases():
    D = constant([[1.0]])
    zero = zeros_like(1, 1)
    feasible = check_lmi(D, constant([[0.5]]), zero, zero)
    assert feasible.satisfied
    assert feasible.worst == pytest.approx(-0.5, abs=1e-9)
    boundary = check_lmi(D, constant([[2.0]]), zero, zero)
    assert not boundary.satisfied
    assert boundary.worst == pytest.approx(0.0, abs=1e-9)


def test_lmi_reduces_to_spectral_norm_without_structure():
    rng = np.random.default_rng(555)
    agreements = 0
    for _ in range(50):
        p = int(rng.integers(1, 3))
        m = int(rng.integers(p, p + 3))
        D = rng.normal(size=(p, m))
        Xi = rng.normal(size=(m, p)) * rng.uniform(0.1, 1.2)
        sigma = float(spectral_norms(np.eye(p) - D @ Xi))
        report = check_lmi(constant(D), constant(Xi),
                           zeros_like(p, 1), zeros_like(1, m))
        assert report.worst == pytest.approx(sigma - 1.0, abs=1e-8)
        assert report.satisfied == (sigma < 1.0)
        agreements += 1
    assert agreements == 50


def test_lmi_monotone_in_structure_size():
    rng = np.random.default_rng(99)
    D = rng.normal(size=(2, 3))
    Xi = 0.5 * D.T @ np.linalg.inv(D @ D.T)  # sigma(I - D Xi) = 0.5
    E0 = rng.normal(size=(2, 2))
    F0 = rng.normal(size=(2, 3))
    verdicts = []
    for alpha in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        report = check_lmi(constant(D), constant(Xi),
                           constant(alpha * E0), constant(F0))
        verdicts.append(report.satisfied)
    # Growing the structure never turns an infeasible case feasible.
    assert verdicts[0]
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert earlier or not later


def test_lmi_feasibility_implies_radius_condition():
    rng = np.random.default_rng(123)
    implied = 0
    for _ in range(30):
        p, m = 2, 3
        D = rng.normal(size=(p, m))
        Xi = rng.uniform(0.2, 0.8) * D.T @ np.linalg.inv(D @ D.T)
        E = 0.1 * rng.normal(size=(p, 2))
        F = 0.1 * rng.normal(size=(2, m))
        lmi = check_lmi(constant(D), constant(Xi), constant(E), constant(F))
        if lmi.satisfied:
            implied += 1
            assert check_rho_dxi(constant(D), constant(Xi)).satisfied
    assert implied > 0


def test_lmi_records_multiplier():
    report = check_lmi(constant([[1.0]]), constant([[0.5]]),
                       constant([[0.1]]), constant([[0.1]]))
    assert report.best_lambda is not None
    assert len(report.best_lambda) == len(report.per_k)
    assert all(lam > 0 for lam in report.best_lambda)


# Per-step reference for the batched multiplier search: the search as it ran
# one k at a time, kept verbatim so the stacked version can be compared
# bit for bit.

def _ref_lmi_matrix(S, E, FXi, lam):
    p = S.shape[0]
    s = E.shape[1]
    dim = 2 * p + 2 * s
    M = np.zeros((dim, dim))
    M[:p, :p] = -np.eye(p)
    M[p:2 * p, p:2 * p] = -np.eye(p)
    M[p:2 * p, :p] = S
    M[:p, p:2 * p] = S.T
    M[p:2 * p, 2 * p:2 * p + s] = E
    M[2 * p:2 * p + s, p:2 * p] = E.T
    M[2 * p:2 * p + s, 2 * p:2 * p + s] = -lam * np.eye(s)
    M[2 * p + s:, :p] = FXi
    M[:p, 2 * p + s:] = FXi.T
    M[2 * p + s:, 2 * p + s:] = -lam * np.eye(s)
    return M


def _ref_min_max_eig(S, E, FXi, lambda_grid):
    def f(lam):
        return float(np.linalg.eigvalsh(_ref_lmi_matrix(S, E, FXi, lam))[-1])

    values = [f(lam) for lam in lambda_grid]
    best = int(np.argmin(values))
    lo = lambda_grid[max(best - 1, 0)]
    hi = lambda_grid[min(best + 1, len(lambda_grid) - 1)]
    a, b = np.log(lo), np.log(hi)
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(np.exp(c)), f(np.exp(d))
    for _ in range(60):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(np.exp(d))
    refined_lam = float(np.exp((a + b) / 2.0))
    refined = f(refined_lam)
    if refined < values[best]:
        return refined, refined_lam
    return values[best], float(lambda_grid[best])


def _ref_check_lmi(D, Xi, E, F, lambda_grid=np.logspace(-4.0, 4.0, 40)):
    values, lambdas = [], []
    for k in range(D.N + 1):
        S = np.eye(D.rows) - D.at(k) @ Xi.at(k)
        value, lam = _ref_min_max_eig(S, E.at(k), F.at(k) @ Xi.at(k), lambda_grid)
        values.append(value)
        lambdas.append(lam)
    return values, lambdas


def _random_schedule(rng, rows, cols, N, scale=1.0):
    """Time-varying schedule a + b sin(w k) per cell, written as source text."""
    grid = [[f"{scale * rng.normal()!r} + {scale * rng.normal()!r}"
             f"*sin({rng.uniform(0.05, 3.0)!r}*k)" for _ in range(cols)]
            for _ in range(rows)]
    return build_schedule(grid, N)


def test_lmi_batched_search_matches_per_step_reference_exactly():
    rng = np.random.default_rng(2024)
    grid = set(np.logspace(-4.0, 4.0, 40).tolist())
    chosen = []
    for case in range(30):
        p = int(rng.integers(1, 4))
        m = p + int(rng.integers(0, 3))
        s = int(rng.integers(1, 3))
        N = int(rng.integers(1, 41))  # MatrixSchedule needs a horizon >= 1
        D = _random_schedule(rng, p, m, N)
        Xi = _random_schedule(rng, m, p, N, scale=rng.uniform(0.1, 0.8))
        if case % 3 == 0:
            E, F = zeros_like(p, s, N), zeros_like(s, m, N)
        else:
            E = _random_schedule(rng, p, s, N, scale=rng.uniform(0.01, 0.5))
            F = _random_schedule(rng, s, m, N, scale=rng.uniform(0.01, 0.5))
        report = check_lmi(D, Xi, E, F)
        values, lambdas = _ref_check_lmi(D, Xi, E, F)
        assert [v for _, v in report.per_k] == values
        assert [k for k, _ in report.per_k] == list(range(N + 1))
        assert list(report.best_lambda) == lambdas
        chosen.extend(lam in grid for lam in lambdas)
    # Both outcomes of the final grid-versus-refined choice are exercised.
    assert any(chosen) and not all(chosen)


def _schedule_around(rng, base, N, spread):
    """Time-varying schedule base + spread sin(w k) per cell, as source text."""
    grid = [[f"{float(b)!r} + {spread * rng.normal()!r}"
             f"*sin({rng.uniform(0.05, 3.0)!r}*k)" for b in row] for row in base]
    return build_schedule(grid, N)


def test_lmi_decoupled_search_matches_per_step_reference_exactly(monkeypatch):
    # E = F = 0 takes one eigenvalue call instead of the grid and golden
    # section; its values and multipliers must still be the reference's.
    rng = np.random.default_rng(808)
    short_grid = np.array([0.01, 0.1])  # on most plants -0.1 > top(M0), so -lam wins
    satisfied = 0
    for case in range(48):
        p = int(rng.integers(1, 4))
        m = p + int(rng.integers(0, 3))
        s = int(rng.integers(1, 3))
        N = int(rng.integers(1, 11))
        D0 = rng.normal(size=(p, m))
        right_inverse = D0.T @ np.linalg.inv(D0 @ D0.T)
        D = _schedule_around(rng, D0, N, 0.02)
        Xi = _schedule_around(rng, rng.uniform(0.2, 1.0) * right_inverse, N, 0.02)
        E, F = zeros_like(p, s, N), zeros_like(s, m, N)
        grids = [np.logspace(-4.0, 4.0, 40)] + [short_grid] * (case % 4 == 0)
        for grid in grids:
            monkeypatch.setattr(conditions, "LAMBDA_GRID", grid)
            report = check_lmi(D, Xi, E, F)
            values, lambdas = _ref_check_lmi(D, Xi, E, F, lambda_grid=grid)
            assert [v for _, v in report.per_k] == values
            assert list(report.best_lambda) == lambdas
        satisfied += report.satisfied
    assert satisfied >= 24
    # A grid point equal to -top: the first of the tied minima wins.
    D, Xi, zero = constant([[1.0]]), constant([[0.5]]), zeros_like(1, 1)
    grid = np.array([0.25, 0.5, 1.0])
    monkeypatch.setattr(conditions, "LAMBDA_GRID", grid)
    report = check_lmi(D, Xi, zero, zero)
    values, lambdas = _ref_check_lmi(D, Xi, zero, zero, lambda_grid=grid)
    assert [v for _, v in report.per_k] == values == [-0.5, -0.5]
    assert list(report.best_lambda) == lambdas == [0.5, 0.5]


@pytest.mark.parametrize("N", [3, 60])
def test_lmi_eigenvalue_calls_per_search(monkeypatch, N):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rng = np.random.default_rng(N)
    D = _random_schedule(rng, 2, 3, N)
    Xi = _random_schedule(rng, 3, 2, N, scale=0.3)
    E0, F0 = zeros_like(2, 2, N), zeros_like(2, 3, N)
    E = _random_schedule(rng, 2, 2, N, scale=0.1)
    F = _random_schedule(rng, 2, 3, N, scale=0.1)
    for E_k, F_k, expected in ((E0, F0, 1), (E, F0, 103), (E0, F, 103), (E, F, 103)):
        calls.clear()
        check_lmi(D, Xi, E_k, F_k)
        assert len(calls) == expected
        assert set(calls) == {(N + 1, 8, 8)}


def test_lmi_eigenvalue_failure_raises_no_convergence(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    zero = zeros_like(1, 1)
    with pytest.raises(IlcsetError,
                       match="eigenvalue iteration failed: Eigenvalues did not converge"):
        check_lmi(constant([[1.0]]), constant([[0.5]]), zero, zero)


def test_report_shape_invariants(example1):
    report = check_rho_dxi(example1.system.D, example1.xi)
    assert isinstance(report, ConditionReport)
    assert len(report.per_k) == 101
    assert report.margin == pytest.approx(report.threshold - report.worst, abs=0.0)
    worst_pair = dict(report.per_k)[report.worst_k]
    assert worst_pair == report.worst
