"""Convergence and boundedness condition checks.

Four spectral-radius conditions (output-side and input-side, for the
feedthrough-coupled and feedthrough-free plants), a structured-uncertainty
feasibility test posed as a symmetric-eigenvalue problem in one scalar
multiplier, a realized-norm check, and uncertainty budget bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .matrix_core import inf_norm, spectral_norm, spectral_radii
from .plant import NominalSystem, UncertaintySpec
from .schedule_lang import MatrixSchedule

SPECTRAL_THRESHOLD = 1.0
LMI_THRESHOLD = 0.0


@dataclass(frozen=True)
class ConditionReport:
    """Per-step values of one condition with its worst case and verdict.

    ``satisfied`` is strict: worst < threshold with zero slack.  ``margin``
    (threshold - worst) is reported so callers can impose their own safety
    factor.
    """

    name: str
    per_k: tuple           # (key, value) pairs; key is k or (l, k)
    worst_k: object
    worst: float
    threshold: float
    satisfied: bool
    margin: float
    best_lambda: Optional[tuple] = None

    @classmethod
    def from_values(cls, name: str, pairs, threshold: float,
                    best_lambda=None) -> "ConditionReport":
        pairs = tuple(pairs)
        worst_idx = int(np.argmax([v for _, v in pairs]))
        worst_k, worst = pairs[worst_idx]
        return cls(name=name, per_k=pairs, worst_k=worst_k, worst=worst,
                   threshold=threshold, satisfied=worst < threshold,
                   margin=threshold - worst, best_lambda=best_lambda)


def loop_radii(products: np.ndarray) -> np.ndarray:
    """rho(I - P(k)) for every loop product in a (steps, n, n) stack."""
    return spectral_radii(np.eye(products.shape[-1]) - products)


def contraction_report(name: str, products: np.ndarray) -> ConditionReport:
    """Spectral-radius condition rho(I - P(k)) < 1 over k = 0, 1, ..."""
    return ConditionReport.from_values(
        name, enumerate(loop_radii(products).tolist()), SPECTRAL_THRESHOLD)


def check_rho_dxi(D: MatrixSchedule, Xi: MatrixSchedule) -> ConditionReport:
    """Output-side contraction rho(I - D(k)Xi(k)) over k in 0..N."""
    return contraction_report("rho_dxi", D.values @ Xi.values)


def check_rho_xid(D: MatrixSchedule, Xi: MatrixSchedule) -> ConditionReport:
    """Input-side companion rho(I - Xi(k)D(k)): provably >= 1 when m > p."""
    return contraction_report("rho_xid", Xi.values @ D.values)


def check_rho_cb_gamma(B: MatrixSchedule, C: MatrixSchedule,
                       Gamma: MatrixSchedule) -> ConditionReport:
    """rho(I - C(k+1)B(k)Gamma(k)) over k in 0..N-1."""
    return contraction_report("rho_cbgamma",
                              C.values[1:] @ B.values[:-1] @ Gamma.values[:-1])


def check_rho_gamma_cb(B: MatrixSchedule, C: MatrixSchedule,
                       Gamma: MatrixSchedule) -> ConditionReport:
    """rho(I - Gamma(k)C(k+1)B(k)): the input-side mirror, >= 1 when m > p."""
    return contraction_report("rho_gammacb",
                              Gamma.values[:-1] @ C.values[1:] @ B.values[:-1])


def _lmi_matrix(S: np.ndarray, E: np.ndarray, FXi: np.ndarray, lam: float) -> np.ndarray:
    """Symmetric block matrix whose negativity certifies the norm condition.

    Blocks (sizes p, p, s, s):

        [ -I    S^T      0     (FXi)^T ]
        [  S    -I       E        0    ]
        [  0    E^T   -lam I      0    ]
        [ FXi   0        0     -lam I  ]

    with S = I - D Xi.  The multiplier lam absorbs the norm-bounded
    contraction linking E and F.
    """
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


def _min_max_eig(S, E, FXi, lambda_grid) -> tuple:
    """Minimize the top eigenvalue over the multiplier: grid + golden section.

    The matrix is affine in lam, so the top eigenvalue is convex in lam and
    a bracketed 1-D search is sound.
    """
    def f(lam: float) -> float:
        return float(np.linalg.eigvalsh(_lmi_matrix(S, E, FXi, lam))[-1])

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


def default_lambda_grid() -> np.ndarray:
    return np.logspace(-4.0, 4.0, 40)


def check_lmi(D: MatrixSchedule, Xi: MatrixSchedule, E: MatrixSchedule,
              F: MatrixSchedule, lambda_grid=None) -> ConditionReport:
    """Structured-uncertainty feasibility at every k.

    Reports, per step, the minimum over the multiplier grid of the top
    eigenvalue; satisfied iff every step's minimum is strictly negative.
    With E = F = 0 the test reduces exactly to
    spectral_norm(I - D(k)Xi(k)) < 1.
    """
    p, m = D.rows, D.cols
    if E.rows != p or F.cols != m or E.cols != F.rows:
        raise DimensionMismatchError(
            f"structure grids E {E.shape}, F {F.shape} do not fit D {D.shape}")
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    pairs = []
    lambdas = []
    for k in range(D.N + 1):
        S = np.eye(p) - D.at(k) @ Xi.at(k)
        value, lam = _min_max_eig(S, E.at(k), F.at(k) @ Xi.at(k), lambda_grid)
        pairs.append((k, value))
        lambdas.append(lam)
    return ConditionReport.from_values("lmi", pairs, LMI_THRESHOLD,
                                       best_lambda=tuple(lambdas))


def verify_norm_condition(D_realized: Sequence[Sequence[np.ndarray]],
                          Xi: MatrixSchedule) -> ConditionReport:
    """Spectral norm of I - D_l(k)Xi(k) across sampled realizations."""
    pairs = []
    for l, D_seq in enumerate(D_realized):
        for k, Dk in enumerate(D_seq):
            p = Dk.shape[0]
            pairs.append(((l, k), spectral_norm(np.eye(p) - Dk @ Xi.at(k))))
    return ConditionReport.from_values("norm_condition", pairs, SPECTRAL_THRESHOLD)


@dataclass(frozen=True)
class UncertaintyBudget:
    """Worst-case infinity-norm bounds: amplitude share plus nominal peak."""

    beta_A: float
    beta_B: float
    beta_C: float
    beta_D: float
    beta_w: float
    beta_v: float
    beta_r: float
    beta_x0: float


def budget(sys: NominalSystem, unc: UncertaintySpec) -> UncertaintyBudget:
    """Combine amplitudes with nominal peaks, Remark-style: amplitude bounds
    are entrywise, so a width-c matrix contributes amp * c to the row-sum
    norm; a structured D perturbation contributes via the norm product of
    its factor schedules.
    """
    def peak(sched: MatrixSchedule) -> float:
        return float(np.abs(sched.values).sum(axis=2).max())

    def beta(sched: MatrixSchedule, amp: float) -> float:
        return amp * sched.cols + peak(sched)

    if unc.structured_D is not None:
        sd = unc.structured_D
        delta_d = max(inf_norm(sd.E.at(k)) * np.sqrt(sd.s) * inf_norm(sd.F.at(k))
                      for k in range(sd.E.N + 1))
        beta_D = delta_d + peak(sys.D)
    else:
        beta_D = beta(sys.D, unc.amp_D)
    return UncertaintyBudget(
        beta_A=beta(sys.A, unc.amp_A),
        beta_B=beta(sys.B, unc.amp_B),
        beta_C=beta(sys.C, unc.amp_C),
        beta_D=beta_D,
        beta_w=beta(sys.w, unc.amp_w),
        beta_v=beta(sys.v, unc.amp_v),
        beta_r=beta(sys.r, unc.amp_r),
        beta_x0=unc.amp_x0 + inf_norm(sys.x0),
    )
