"""Input-space equivalence transforms for nonsquare plants.

A plant with m inputs and p < m outputs cannot satisfy the input-side
contraction rho(I - Xi(k)D(k)) < 1 (the product has rank at most p), yet
the output-side condition rho(I - D(k)Xi(k)) < 1 is achievable.  The
resolution is a nonsingular per-step transform of the input space that
splits the input into p actively updated channels and m - p frozen ones,
leaving an equivalent square p-by-p loop.

Two variants share the same block algebra: one couples through the
feedthrough D(k) with gain Xi(k); the other, for feedthrough-free plants,
couples through C(k+1)B(k) with gain Gamma(k) and lives on k in 0..N-1.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    ModelMismatchError,
    RankDeficientError,
)
from .conditions import ConditionReport, check_rho_cb_gamma, check_rho_dxi
from .matrix_core import Mat, block2x2, inf_norms, invert, per_step
from .plant import RealizedIteration
from .schedule_lang import MatrixSchedule

RANK_RTOL = 1e-10        # relative pivot tolerance for row-rank detection
PERM_DET_RTOL = 1e-10    # relative |det| floor for reusing the k=0 permutation
COUPLING_RESIDUAL_TOL = 1e-9


def select_nonsingular_block(M: Mat):
    """Pick p independent columns of a p x m matrix by greedy elimination.

    Returns (perm, M1, M2) where perm lists the chosen columns first (the
    rest keep their original order), M1 = M[:, perm[:p]] is nonsingular,
    and M2 holds the remaining columns.  Rows are processed in order; each
    row takes the remaining column with the largest (eliminated) entry, so
    |det(M1)| grows greedily.  A vanishing pivot means the current row is a
    combination of the rows above it: the row rank is below p.
    """
    M = np.asarray(M, dtype=np.float64)
    p, m = M.shape
    if p > m:
        raise RankDeficientError(f"more rows than columns: {M.shape}")
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    threshold = RANK_RTOL * max(scale, np.finfo(np.float64).tiny)
    work = M.copy()
    remaining = list(range(m))
    chosen: list[int] = []
    for row in range(p):
        col_off = int(np.argmax(np.abs(work[row, remaining])))
        col = remaining[col_off]
        pivot = abs(work[row, col])
        if pivot <= threshold:
            raise RankDeficientError(
                f"row rank {row} < {p} (pivot {pivot:.3e} in row {row})")
        remaining.pop(col_off)
        chosen.append(col)
        for r in range(row + 1, p):
            work[r] -= (work[r, col] / work[row, col]) * work[row]
    perm = np.array(chosen + remaining, dtype=np.intp)
    return perm, M[:, perm[:p]], M[:, perm[p:]]


def _fixed_perm_is_valid(coupling: np.ndarray, perm: np.ndarray, p: int) -> bool:
    """Whether the columns perm[:p] stay nonsingular at every step."""
    M1 = coupling[:, :, perm[:p]]
    tiny = np.finfo(np.float64).tiny
    # Python's ** per step: numpy's power can round differently.
    scales = np.array([max(norm ** p, tiny) for norm in inf_norms(M1).tolist()])
    return not np.any(np.abs(np.linalg.det(M1)) < PERM_DET_RTOL * scales)


def _take_columns(stack: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """stack[k][:, cols[k]] for every k.

    Each step comes out column-major, as ``M[:, cols]`` does: a
    matrix-vector product then takes the same BLAS path, and rounds the
    same way, as the per-step product.
    """
    rows_of_transpose = np.take_along_axis(np.swapaxes(stack, 1, 2), cols[:, :, None], axis=1)
    return np.swapaxes(rows_of_transpose, 1, 2)


def _take_rows(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """stack[k][..., rows[k], :] for every k, as one contiguous stack."""
    return np.take_along_axis(stack, per_step(rows[:, :, None], stack), axis=-2)


class InputTransform:
    """Per-step forward/inverse matrices shared by both transform kinds.

    For each defined k the forward matrix is

        [[t11, t12], [t21, t22]]  =  [[M1, M2], [-G2 G^-1 M1, I - G2 G^-1 M2]]

    where M = coupling (p x m, columns permuted so M1 is nonsingular),
    G = M(k) gain(k) (permutation-invariant), and G2 is the lower block of
    the permuted gain.  The inverse comes in closed form with ti22 = I
    exactly.  Applied to the permuted input, the forward transform sends
    the gain to [G; 0]: updates touch only the first p channels.

    Everything is held as stacks over k: ``T`` and ``Tinv`` (steps, m, m),
    ``gain_products`` (steps, p, p), ``col_perm`` (steps, m), ``coupling``
    (steps, p, m) and ``gain`` (steps, m, p).  ``report`` is the contraction
    condition rho(I - G(k)) < 1 the builder checked, which the split loop
    reports as its own.
    """

    kind = "generic"

    def __init__(self, coupling, gain, perms, report: ConditionReport):
        self.report = report
        self.coupling = np.asarray(coupling, dtype=np.float64)
        self.gain = np.asarray(gain, dtype=np.float64)
        self.col_perm = np.asarray(perms, dtype=np.intp)
        self.steps, self.p, self.m = self.coupling.shape
        p = self.p
        lead, rest = self.col_perm[:, :p], self.col_perm[:, p:]
        M1 = _take_columns(self.coupling, lead)
        M2 = _take_columns(self.coupling, rest)
        Xi1 = _take_rows(self.gain, lead)
        Xi2 = _take_rows(self.gain, rest)
        G = self.coupling @ self.gain
        Ginv = invert(G)
        M1inv = invert(M1)
        X2G = Xi2 @ Ginv
        eye_rest = np.eye(self.m - p)
        t21, t22 = -X2G @ M1, eye_rest - X2G @ M2
        ti12 = -M1inv @ M2
        self.T = block2x2(M1, M2, t21, t22)
        self.Tinv = block2x2(Xi1 @ Ginv, ti12, X2G, eye_rest)
        self.gain_products = G
        # Routes the permuted initial input into the frozen channels and
        # back, built block by block as [[ti12], [ti22]] @ [t21, t22].
        self.frozen_mix = block2x2(ti12 @ t21, ti12 @ t22, eye_rest @ t21, eye_rest @ t22)
        # The first p columns of the inverse: what u1* drives.
        self.active_columns = np.ascontiguousarray(self.Tinv[:, :, :p])


class QTransform(InputTransform):
    """Feedthrough-coupled transform: coupling D(k), gain Xi(k), k in 0..N."""

    kind = "xi"


class PTransform(InputTransform):
    """First-Markov-parameter transform: coupling C(k+1)B(k), gain Gamma(k),
    defined on k in 0..N-1.  Keeps the nominal B/C stacks so the repetitive
    precondition can be enforced when transforming a realization.
    """

    kind = "gamma"

    def __init__(self, coupling, gain, perms, report, b_cache, c_cache):
        super().__init__(coupling, gain, perms, report)
        self.b_cache = b_cache
        self.c_cache = c_cache


def _build(coupling, report: ConditionReport, label: str):
    """Column permutations for the coupling stack, once the contraction
    condition holds at every step."""
    for k, value in report.per_k:
        if value >= report.threshold:
            raise ConditionViolatedError(f"{label} contraction precondition fails",
                                         k=k, value=value)
    p = coupling.shape[1]
    perm0, _, _ = select_nonsingular_block(coupling[0])
    if _fixed_perm_is_valid(coupling, perm0, p):
        perms = [perm0] * len(coupling)
    else:
        perms = [select_nonsingular_block(M)[0] for M in coupling]
    return perms


def build_q_transform(D: MatrixSchedule, Xi: MatrixSchedule) -> QTransform:
    """Construct the feedthrough-coupled transform for k in 0..N.

    Requires rho(I - D(k)Xi(k)) < 1 at every step; a single column
    permutation fixed at k = 0 is reused whenever it stays nonsingular
    over the whole horizon.
    """
    if D.cols != Xi.rows or D.rows != Xi.cols or D.N != Xi.N:
        raise DimensionMismatchError(
            f"D {D.shape} and gain {Xi.shape} do not conform")
    report = check_rho_dxi(D, Xi)
    perms = _build(D.values, report, "feedthrough-gain")
    return QTransform(D.values, Xi.values, perms, report)


def build_p_transform(B: MatrixSchedule, C: MatrixSchedule,
                      Gamma: MatrixSchedule) -> PTransform:
    """Construct the C(k+1)B(k)-coupled transform for k in 0..N-1."""
    if B.rows != C.cols or B.cols != Gamma.rows or C.rows != Gamma.cols:
        raise DimensionMismatchError(
            f"B {B.shape}, C {C.shape}, gain {Gamma.shape} do not conform")
    if not (B.N == C.N == Gamma.N):
        raise DimensionMismatchError("schedule horizons differ")
    coupling = C.values[1:] @ B.values[:-1]
    report = check_rho_cb_gamma(B, C, Gamma)
    perms = _build(coupling, report, "coupling-gain")
    return PTransform(coupling, Gamma.values[:-1], perms, report,
                      b_cache=B.values, c_cache=C.values)


class TransformedSystem(NamedTuple):
    """The equivalent square system driven only by the p updated channels."""

    Bstar: np.ndarray           # (steps, n, p)
    Dstar: Optional[np.ndarray]  # (steps, p, p), absent for the feedthrough-free case
    wstar: np.ndarray
    vstar: np.ndarray
    gain_star: np.ndarray       # (steps, p, p) updated-channel gain


def _initial_input_correction(transform: InputTransform, u0: np.ndarray) -> np.ndarray:
    return transform.frozen_mix @ _take_rows(u0, transform.col_perm)


def apply_q_transform(realized: RealizedIteration, q: QTransform,
                       u0) -> TransformedSystem:
    """Square the feedthrough-coupled plant for one realized iteration.

    The realized B/D matrices are pushed through the inverse's active
    columns; the disturbance and noise pick up the frozen-channel share of
    the initial input.
    """
    if q.steps != realized.N + 1:
        raise DimensionMismatchError(
            f"transform defined on {q.steps} steps, plant horizon {realized.N}")
    if realized.D.shape[1:] != (q.p, q.m):
        raise DimensionMismatchError(
            f"plant D shape {realized.D.shape[1:]} vs transform {(q.p, q.m)}")
    if len(u0) != realized.N + 1:
        raise DimensionMismatchError("initial input length mismatch")
    Bk = _take_columns(realized.B, q.col_perm)
    Dk = _take_columns(realized.D, q.col_perm)
    correction = _initial_input_correction(q, np.asarray(u0, dtype=np.float64))
    return TransformedSystem(Bstar=Bk @ q.active_columns,
                             Dstar=Dk @ q.active_columns,
                             wstar=realized.w + Bk @ correction,
                             vstar=realized.v + Dk @ correction,
                             gain_star=q.gain_products)


def _first_mismatch(checks) -> None:
    """Raise ModelMismatchError for the earliest flagged step, in check order."""
    first = min((int(np.argmax(flags)) for _, flags in checks if flags.any()),
                default=None)
    if first is None:
        return
    for message, flags in checks:
        if flags[first]:
            raise ModelMismatchError(f"{message} at k={first}")


def apply_p_transform(realized: RealizedIteration, p: PTransform,
                       u0) -> TransformedSystem:
    """Square the feedthrough-free plant for one realized iteration.

    Requires the realization to match the transform's nominal B and C
    exactly (repetitive input/output maps) and to have zero feedthrough.
    The resulting coupling satisfies C(k+1) Bstar(k) = I.
    """
    if p.steps != realized.N:
        raise DimensionMismatchError(
            f"transform defined on {p.steps} steps, expected {realized.N}")
    if len(u0) != realized.N + 1:
        raise DimensionMismatchError("initial input length mismatch")
    _first_mismatch((
        ("feedthrough must be zero, nonzero", np.any(realized.D != 0.0, axis=(1, 2))),
        ("B is nonrepetitive", np.any(realized.B != p.b_cache, axis=(1, 2))),
        ("C is nonrepetitive", np.any(realized.C != p.c_cache, axis=(1, 2))),
    ))
    N = realized.N
    Bk = _take_columns(p.b_cache[:N], p.col_perm)
    Bstar = Bk @ p.active_columns
    residuals = inf_norms(p.c_cache[1:] @ Bstar - np.eye(p.p))
    too_large = np.flatnonzero(residuals > COUPLING_RESIDUAL_TOL)
    if too_large.size:
        k = int(too_large[0])
        raise ModelMismatchError(
            f"coupling inverse residual {residuals[k]:.3e} at k={k}")
    correction = _initial_input_correction(p, np.asarray(u0, dtype=np.float64)[:N])
    return TransformedSystem(Bstar=Bstar, Dstar=None,
                             wstar=realized.w[:N] + Bk @ correction,
                             vstar=realized.v, gain_star=p.gain_products)


def split_input(transform: InputTransform, u):
    """Map an input stack (steps, m, 1) through the forward transform and
    split it into the active (steps, p, 1) and frozen (steps, m-p, 1) parts.

    Batch axes between the step and matrix axes, (steps, S, m, 1) for S
    seeds, carry through to both parts.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 3 or u.shape[0] != transform.steps or u.shape[-2:] != (transform.m, 1):
        raise DimensionMismatchError(
            f"input shape {u.shape}, expected {(transform.steps, transform.m, 1)}")
    star = per_step(transform.T, u) @ _take_rows(u, transform.col_perm)
    return star[..., :transform.p, :], star[..., transform.p:, :]


def assemble_input(transform: InputTransform, u1star, u2star) -> np.ndarray:
    """Invert split_input: recover the original-coordinate input stack."""
    steps, p, m = transform.steps, transform.p, transform.m
    batch = u1star.shape[1:-2]
    if u1star.shape != (steps,) + batch + (p, 1) or u2star.shape != (steps,) + batch + (m - p, 1):
        raise DimensionMismatchError(
            f"split shapes {u1star.shape}, {u2star.shape} do not match "
            f"steps={steps}, p={p}, m={m}")
    permuted = per_step(transform.Tinv, u1star) @ np.concatenate([u1star, u2star], axis=-2)
    u = np.empty(permuted.shape)
    np.put_along_axis(u, per_step(transform.col_perm[:, :, None], u), permuted, axis=-2)
    return u
