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

import numpy as np

from .errors import ConditionViolatedError, IlcsetError
from .conditions import ConditionReport, check_rho_cb_gamma, check_rho_dxi
from .config import GAMMA_MODES
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
        raise IlcsetError(f"more rows than columns: {M.shape}")
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
            raise IlcsetError(f"row rank {row} < {p} (pivot {pivot:.3e} in row {row})")
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
    """Per-step forward/inverse matrices of either transform family.

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
    reports as its own.  Construction raises IlcsetError at the first k
    where the coupling pushed through the inverse's active columns is more
    than COUPLING_RESIDUAL_TOL from I in the infinity norm.

    ``kind`` names the family.  "xi" couples through the feedthrough D(k)
    with gain Xi(k) on k in 0..N.  "gamma" couples through the nominal
    C(k+1)B(k) with gain Gamma(k) on k in 0..N-1.  apply_transform reads
    the family from ``kind`` and the horizon from ``steps``.
    """

    def __init__(self, kind: str, coupling, gain, perms, report: ConditionReport):
        self.kind = kind
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
        # The coupling pushed through them, the nominal D*(k) or
        # C(k+1) B*(k), is I at every step up to roundoff.
        residuals = inf_norms(_take_columns(self.coupling, self.col_perm)
                              @ self.active_columns - np.eye(p))
        too_large = np.flatnonzero(residuals > COUPLING_RESIDUAL_TOL)
        if too_large.size:
            k = int(too_large[0])
            raise IlcsetError(f"coupling inverse residual {residuals[k]:.3e} at k={k}")


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


def build_q_transform(D: MatrixSchedule, Xi: MatrixSchedule) -> InputTransform:
    """Construct the feedthrough-coupled transform for k in 0..N.

    Requires rho(I - D(k)Xi(k)) < 1 at every step; a single column
    permutation fixed at k = 0 is reused whenever it stays nonsingular
    over the whole horizon.
    """
    if D.cols != Xi.rows or D.rows != Xi.cols or D.N != Xi.N:
        raise IlcsetError(f"D {D.shape} and gain {Xi.shape} do not conform")
    report = check_rho_dxi(D, Xi)
    perms = _build(D.values, report, "feedthrough-gain")
    return InputTransform("xi", D.values, Xi.values, perms, report)


def build_p_transform(B: MatrixSchedule, C: MatrixSchedule,
                      Gamma: MatrixSchedule) -> InputTransform:
    """Construct the C(k+1)B(k)-coupled transform for k in 0..N-1 from the
    nominal B and C; apply_transform takes realizations of any B and C."""
    if B.rows != C.cols or B.cols != Gamma.rows or C.rows != Gamma.cols:
        raise IlcsetError(f"B {B.shape}, C {C.shape}, gain {Gamma.shape} do not conform")
    if not (B.N == C.N == Gamma.N):
        raise IlcsetError("schedule horizons differ")
    coupling = C.values[1:] @ B.values[:-1]
    report = check_rho_cb_gamma(B, C, Gamma)
    perms = _build(coupling, report, "coupling-gain")
    return InputTransform("gamma", coupling, Gamma.values[:-1], perms, report)


def _for_config(cfg) -> InputTransform:
    """The transform of an ExperimentConfig's family: the look-ahead modes
    couple through C(k+1)B(k) with Gamma, the others through D with Xi."""
    if cfg.mode in GAMMA_MODES:
        return build_p_transform(cfg.system.B, cfg.system.C, cfg.gamma)
    return build_q_transform(cfg.system.D, cfg.xi)


def apply_transform(realized: RealizedIteration, transform: InputTransform,
                    u0) -> RealizedIteration:
    """Square the plant of one realized iteration for either family, as a
    RealizedIteration with p inputs that simulate runs.

    On the transform's steps the realized B is pushed through the
    inverse's active columns, and w picks up the frozen-channel share of
    the initial input; for "xi", D and v are treated the same way.  "gamma"
    requires zero feedthrough and takes any realized B and C: the nominal
    coupling pushed through the inverse's active columns is I on k in
    0..N-1 (checked when the transform is built), so the realized
    C_l(k+1) B*_l(k) is I plus the perturbation.  It stops at N - 1, so
    B(N) = 0 and D = 0: the active input at k = N drives nothing, as u(N)
    drives nothing in the original plant.
    """
    steps, p, m, N = transform.steps, transform.p, transform.m, realized.N
    look_ahead = transform.kind == "gamma"
    if steps != N + 1 - look_ahead:
        raise IlcsetError(f"{transform.kind} transform defined on {steps} steps, "
                          f"plant horizon {N}")
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (N + 1, m, 1):
        raise IlcsetError(f"initial input shape {u0.shape}, expected {(N + 1, m, 1)}")
    if realized.D.shape[1:] != (p, m):
        raise IlcsetError(f"plant D shape {realized.D.shape[1:]} vs transform {(p, m)}")
    if look_ahead and realized.D.any():
        k = int(np.flatnonzero(realized.D.any(axis=(1, 2)))[0])
        raise IlcsetError(f"feedthrough must be zero, nonzero at k={k}")
    Bk = _take_columns(realized.B[:steps], transform.col_perm)
    Bstar = Bk @ transform.active_columns
    correction = transform.frozen_mix @ _take_rows(u0[:steps], transform.col_perm)
    wstar = realized.w[:steps] + Bk @ correction
    if not look_ahead:
        Dk = _take_columns(realized.D, transform.col_perm)
        return realized._replace(B=Bstar, D=Dk @ transform.active_columns, w=wstar,
                                 v=realized.v + Dk @ correction)
    return realized._replace(B=np.concatenate([Bstar, np.zeros((1,) + Bstar.shape[1:])]),
                             D=np.zeros((N + 1, p, p)),
                             w=np.concatenate([wstar, realized.w[N:]]))


def split_input(transform: InputTransform, u):
    """Map an input stack (steps, m, 1) through the forward transform and
    split it into the active (steps, p, 1) and frozen (steps, m-p, 1) parts.

    Batch axes between the step and matrix axes, (steps, S, m, 1) for S
    seeds, carry through to both parts.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 3 or u.shape[0] != transform.steps or u.shape[-2:] != (transform.m, 1):
        raise IlcsetError(f"input shape {u.shape}, expected {(transform.steps, transform.m, 1)}")
    star = per_step(transform.T, u) @ _take_rows(u, transform.col_perm)
    return star[..., :transform.p, :], star[..., transform.p:, :]


def assemble_input(transform: InputTransform, u1star, u2star) -> np.ndarray:
    """Invert split_input: recover the original-coordinate input stack."""
    steps, p, m = transform.steps, transform.p, transform.m
    batch = u1star.shape[1:-2]
    if u1star.shape != (steps,) + batch + (p, 1) or u2star.shape != (steps,) + batch + (m - p, 1):
        raise IlcsetError(
            f"split shapes {u1star.shape}, {u2star.shape} do not match "
            f"steps={steps}, p={p}, m={m}")
    permuted = per_step(transform.Tinv, u1star) @ np.concatenate([u1star, u2star], axis=-2)
    u = np.empty(permuted.shape)
    np.put_along_axis(u, per_step(transform.col_perm[:, :, None], u), permuted, axis=-2)
    return u
