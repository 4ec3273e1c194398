"""Design-condition checks: when they hold, the learning converges and
every signal stays bounded.

Four spectral-radius conditions (output-side and input-side, for the
feedthrough-coupled and feedthrough-free plants) and a structured-uncertainty
feasibility test posed as a symmetric-eigenvalue problem in one scalar
multiplier.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import IlcsetError
from .matrix_core import spectral_radii, symmetric_eigvals
from .schedule_lang import MatrixSchedule

SPECTRAL_THRESHOLD = 1.0
LMI_THRESHOLD = 0.0
LAMBDA_GRID = np.logspace(-4.0, 4.0, 40)


class ConditionReport(NamedTuple):
    """Per-step values of one condition with its worst case and verdict.

    ``satisfied`` is strict: worst < threshold with zero slack.  ``margin``
    (threshold - worst) is reported so callers can impose their own safety
    factor.
    """

    name: str
    per_k: tuple           # (k, value) pairs
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


def contraction_report(name: str, products: np.ndarray) -> ConditionReport:
    """Spectral-radius condition rho(I - P(k)) < 1 over k = 0, 1, ... for a
    (steps, n, n) stack of loop products P(k)."""
    radii = spectral_radii(np.eye(products.shape[-1]) - products)
    return ConditionReport.from_values(name, enumerate(radii.tolist()), SPECTRAL_THRESHOLD)


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


def _lmi_stack(S: np.ndarray, E: np.ndarray, FXi: np.ndarray) -> np.ndarray:
    """Symmetric block matrices, one per step, whose negativity certifies the
    norm condition; the multiplier blocks are left at zero (lam = 0).

    Blocks (sizes p, p, s, s):

        [ -I    S^T      0     (FXi)^T ]
        [  S    -I       E        0    ]
        [  0    E^T   -lam I      0    ]
        [ FXi   0        0     -lam I  ]

    with S = I - D Xi, given as (steps, ...) stacks.  The multiplier lam
    absorbs the norm-bounded contraction linking E and F.
    """
    steps, p, _ = S.shape
    s = E.shape[-1]
    dim = 2 * p + 2 * s
    M = np.zeros((steps, dim, dim))
    M[:, :p, :p] = -np.eye(p)
    M[:, p:2 * p, p:2 * p] = -np.eye(p)
    M[:, p:2 * p, :p] = S
    M[:, :p, p:2 * p] = np.swapaxes(S, -1, -2)
    M[:, p:2 * p, 2 * p:2 * p + s] = E
    M[:, 2 * p:2 * p + s, p:2 * p] = np.swapaxes(E, -1, -2)
    M[:, 2 * p + s:, :p] = FXi
    M[:, :p, 2 * p + s:] = np.swapaxes(FXi, -1, -2)
    return M


def _min_max_eig(work: np.ndarray, s: int, lambda_grid: np.ndarray) -> tuple:
    """Minimize the top eigenvalue over the multiplier at every step at once:
    grid + golden section, elementwise over k.

    ``work`` is the lam = 0 stack from `_lmi_stack`; each evaluation writes
    -lam(k) I into its two multiplier blocks and takes one stacked
    eigenvalue call.  The matrix is affine in lam, so the top eigenvalue is
    convex in lam and a bracketed 1-D search is sound.

    When every coupling block (E and F Xi) is zero, the matrix is
    M0 (+) -lam I, whose top eigenvalue is max(top(M0), -lam): one
    evaluation at the largest grid point gives it for every k, the grid's
    first strict minimum is the first lam >= -top (the largest point is one,
    as top >= -lam there), and the golden section cannot go lower, so it is
    skipped.  The value is read from that full (2p+2s)-square evaluation,
    the same matrices the grid would take; the 2p-square block M0 alone, or
    a singular-value norm, differs from it in the last bits.
    """
    steps, dim, _ = work.shape
    eye_s = np.eye(s)

    def f(lam) -> np.ndarray:
        block = -np.asarray(lam)[..., None, None] * eye_s
        work[:, dim - 2 * s:dim - s, dim - 2 * s:dim - s] = block
        work[:, dim - s:, dim - s:] = block
        # A copy, not a view: a view keeps the whole (steps, dim) result alive.
        return symmetric_eigvals(work)[:, -1].copy()

    if not work[:, dim - 2 * s:, :dim - 2 * s].any():
        top = f(lambda_grid[-1])
        return top, lambda_grid[np.searchsorted(lambda_grid, -top, side="left")]
    best = np.zeros(steps, dtype=np.intp)
    best_values = f(lambda_grid[0])
    for g in range(1, len(lambda_grid)):
        value = f(lambda_grid[g])
        lower = value < best_values  # strict: the first minimum wins, as argmin
        best = np.where(lower, g, best)
        best_values = np.where(lower, value, best_values)
    lo = lambda_grid[np.maximum(best - 1, 0)]
    hi = lambda_grid[np.minimum(best + 1, len(lambda_grid) - 1)]
    a, b = np.log(lo), np.log(hi)
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(np.exp(c)), f(np.exp(d))
    for _ in range(60):
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - gr * (b - a), a + gr * (b - a))
        fx = f(np.exp(x))
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    refined_lam = np.exp((a + b) / 2.0)
    refined = f(refined_lam)
    use_refined = refined < best_values
    return (np.where(use_refined, refined, best_values),
            np.where(use_refined, refined_lam, lambda_grid[best]))


def check_lmi(D: MatrixSchedule, Xi: MatrixSchedule, E: MatrixSchedule,
              F: MatrixSchedule) -> ConditionReport:
    """Structured-uncertainty feasibility at every k.

    Reports, per step, the minimum over the multiplier of the top
    eigenvalue; satisfied iff every step's minimum is strictly negative.
    With E = F = 0 the test reduces exactly to
    ||I - D(k)Xi(k)||_2 < 1.

    The search runs on all N+1 steps together: the 40-point LAMBDA_GRID
    (read at each call), then 60 golden-section steps on log(lam),
    elementwise over k.  Every evaluation is one stacked eigenvalue call,
    so the search takes 103 calls whatever the horizon.  When E and F Xi
    are zero at every step (no ``structured_D``), the multiplier blocks
    decouple and one call at the largest grid point gives the same values
    and multipliers bit for bit (see `_min_max_eig`).  Its memory is one
    reused (N+1, 2p+2s, 2p+2s) work stack plus a few (N+1,) vectors; the
    grid keeps a running minimum, not a table of every grid value.
    LAMBDA_GRID must be finite, positive and strictly increasing, since
    the search brackets on log(lam).
    """
    p, m = D.rows, D.cols
    if E.rows != p or F.cols != m or E.cols != F.rows:
        raise IlcsetError(f"structure grids E {E.shape}, F {F.shape} do not fit D {D.shape}")
    S = np.eye(p) - D.values @ Xi.values
    work = _lmi_stack(S, E.values, F.values @ Xi.values)
    values, lambdas = _min_max_eig(work, E.cols, LAMBDA_GRID)
    return ConditionReport.from_values("lmi", enumerate(values.tolist()),
                                       LMI_THRESHOLD,
                                       best_lambda=tuple(lambdas.tolist()))

