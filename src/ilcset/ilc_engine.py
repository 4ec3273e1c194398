"""The iteration-domain loop.

Each iteration realizes the uncertain plant, simulates one trial under the
current input, records worst-case error/input metrics, and forms the next
input from the tracking error.  Two families of runs exist: direct runs
apply the update in original input coordinates; transformed runs iterate
only the p active channels of the split input, keep the remaining channels
frozen at their initial values, and map back through the closed-form
inverse each trial — producing (up to roundoff) identical trajectories.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conditions import (
    ConditionReport,
    check_rho_cb_gamma,
    check_rho_dxi,
    contraction_report,
)
from .errors import (
    DimensionMismatchError,
    MissingDataError,
    NotConvergedError,
)
from .plant import (
    NominalSystem,
    RealizedIteration,
    Trajectory,
    UncertaintySpec,
    sample_iteration,
    simulate,
)
from .schedule_lang import MatrixSchedule
from .set_transform import (
    InputTransform,
    PTransform,
    QTransform,
    assemble_input,
    split_input,
)

log = logging.getLogger(__name__)

MODES = ("direct-xi", "direct-gamma", "transformed-xi", "transformed-gamma", "repetitive")
GAMMA_MODES = ("direct-gamma", "transformed-gamma", "repetitive")
CONVERGENCE_THRESHOLD = 1e-9


@dataclass(frozen=True)
class IlcConfig:
    """Loop parameters: update mode, trial count, and the starting input."""

    mode: str
    iterations: int
    u0: np.ndarray         # (N+1, m, 1) input stack (N+1 (m, 1) arrays also work)
    record_every: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise DimensionMismatchError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise DimensionMismatchError("iterations must be positive")
        if self.record_every < 1:
            raise DimensionMismatchError("record_every must be positive")


@dataclass(frozen=True)
class RunResult:
    """Everything recorded over one run.

    E_hist[l] = max_k ||e_l(k)||_inf and U_hist[l] = max_k ||u_l(k)||_inf,
    with k ranging over 0..N in the current-error modes and over 1..N
    (errors) / 0..N-1 (inputs) in the look-ahead modes.  converged_value
    estimates the asymptotic error level as the maximum of E over the last
    tenth of the iterations.  xi_seq / gamma_seq are the (N+1, m, p) gain
    stacks the run effectively applied, retained so recorded data can be
    re-checked against the iteration-domain recursions afterwards.
    inputs is the (L, N+1, m, 1) stack of applied inputs and the split
    histories are (L, steps, p, 1) and (L, steps, m-p, 1) stacks.
    """

    mode: str
    iterations: int
    E_hist: tuple
    U_hist: tuple
    inputs: np.ndarray     # inputs[l][k]: the input applied on iteration l
    trajectories: tuple    # one Trajectory per iteration
    converged_value: float
    xi_seq: np.ndarray
    gamma_seq: np.ndarray
    condition_report: Optional[ConditionReport] = None
    warnings: tuple = ()
    u1star_history: Optional[np.ndarray] = None
    u2star_history: Optional[np.ndarray] = None

    @property
    def final_trajectory(self) -> Trajectory:
        return self.trajectories[-1]

    @property
    def final_input(self) -> np.ndarray:
        return self.inputs[-1]


def update_input(u, e, Xi: MatrixSchedule, Gamma: MatrixSchedule) -> np.ndarray:
    """One step of the update law: u + Xi e(k) + Gamma e(k+1).

    The look-ahead term is dropped at k = N where e(N+1) does not exist.
    """
    N = len(u) - 1
    if len(e) != N + 1:
        raise DimensionMismatchError("input and error sequences differ in length")
    u = np.asarray(u, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    # Divergent configurations are allowed to overflow here; the next
    # simulation reports the non-finite values with their iteration.
    with np.errstate(over="ignore", invalid="ignore"):
        out = u + Xi.values @ e
        out[:N] = out[:N] + Gamma.values[:N] @ e[1:]
    return out


def _metrics(mode: str, traj: Trajectory, u: np.ndarray, N: int) -> tuple:
    if mode in GAMMA_MODES:
        return float(np.abs(traj.e[1:]).max()), float(np.abs(u[:N]).max())
    return float(np.abs(traj.e).max()), float(np.abs(u).max())


def _converged_value(E_hist: Sequence[float]) -> float:
    tail = max(1, -(-len(E_hist) // 10))  # ceil(L / 10)
    return max(E_hist[-tail:])


def _precheck(report: ConditionReport) -> tuple:
    if report.satisfied:
        return report, ()
    message = (f"condition {report.name} violated: worst {report.worst:.6g} "
               f"at k={report.worst_k}; the run may diverge")
    log.warning(message)
    return report, (message,)


def run(sys: NominalSystem, unc: UncertaintySpec, gains: tuple,
        cfg: IlcConfig) -> RunResult:
    """Direct loop in original input coordinates.

    A violated contraction condition logs a warning but does not abort, so
    divergent configurations stay runnable; numerical blow-up surfaces as
    NonFinite carrying the offending step and iteration.
    """
    xi, gamma = gains
    if cfg.mode in GAMMA_MODES:
        report, warnings = _precheck(check_rho_cb_gamma(sys.B, sys.C, gamma))
    else:
        report, warnings = _precheck(check_rho_dxi(sys.D, xi))
    u = np.array(cfg.u0, dtype=np.float64)
    E_hist, U_hist, trajectories = [], [], []
    inputs = np.empty((cfg.iterations,) + u.shape)
    for l in range(cfg.iterations):
        realized = sample_iteration(sys, unc, l)
        traj = simulate(realized, u)
        E, U = _metrics(cfg.mode, traj, u, sys.N)
        E_hist.append(E)
        U_hist.append(U)
        inputs[l] = u
        trajectories.append(traj)
        u = update_input(u, traj.e, xi, gamma)
    return RunResult(mode=cfg.mode, iterations=cfg.iterations,
                     E_hist=tuple(E_hist), U_hist=tuple(U_hist),
                     inputs=inputs, trajectories=tuple(trajectories),
                     converged_value=_converged_value(E_hist),
                     xi_seq=xi.values, gamma_seq=gamma.values,
                     condition_report=report, warnings=warnings)


def run_transformed(sys: NominalSystem, unc: UncertaintySpec,
                    transform: InputTransform, cfg: IlcConfig) -> RunResult:
    """Split-coordinate loop: update the p active channels only.

    The frozen channels keep their initial split values for the whole run;
    the applied input is reassembled through the closed-form inverse each
    iteration and drives the original uncertain plant.  The active update
    uses the collapsed square gain, so its loop matrix coincides with the
    direct one and the same contraction condition applies.
    """
    m, p, N = sys.m, sys.p, sys.N
    zero_gains = np.zeros((N + 1, m, p))
    if cfg.mode == "transformed-xi":
        if not isinstance(transform, QTransform):
            raise DimensionMismatchError(
                "transformed-xi needs a feedthrough-coupled transform")
        active_steps = N + 1
        xi_seq, gamma_seq = transform.gain, zero_gains
        report, warnings = _precheck(
            contraction_report("rho_dxi", transform.gain_products))
    elif cfg.mode in ("transformed-gamma", "repetitive"):
        if not isinstance(transform, PTransform):
            raise DimensionMismatchError(
                f"{cfg.mode} needs a state-coupled transform on k in 0..N-1")
        active_steps = N
        xi_seq, gamma_seq = zero_gains, np.concatenate([transform.gain, zero_gains[:1]])
        report, warnings = _precheck(
            contraction_report("rho_cbgamma", transform.gain_products))
    else:
        raise DimensionMismatchError(f"mode {cfg.mode!r} is not a transformed mode")

    u0 = np.asarray(cfg.u0, dtype=np.float64)
    u1, frozen = split_input(transform, u0[:active_steps])
    tail = u0[active_steps:]

    E_hist, U_hist, trajectories = [], [], []
    L = cfg.iterations
    inputs = np.empty((L,) + u0.shape)
    u1_hist = np.empty((L,) + u1.shape)
    u2_hist = np.empty((L,) + frozen.shape)
    shift = 0 if cfg.mode == "transformed-xi" else 1
    for l in range(L):
        u = np.concatenate([assemble_input(transform, u1, frozen), tail])
        realized = sample_iteration(sys, unc, l)
        traj = simulate(realized, u)
        E, U = _metrics(cfg.mode, traj, u, N)
        E_hist.append(E)
        U_hist.append(U)
        inputs[l] = u
        trajectories.append(traj)
        u1_hist[l] = u1
        u2_hist[l] = frozen
        u1 = u1 + transform.gain_products @ traj.e[shift:shift + active_steps]
    return RunResult(mode=cfg.mode, iterations=L,
                     E_hist=tuple(E_hist), U_hist=tuple(U_hist),
                     inputs=inputs, trajectories=tuple(trajectories),
                     converged_value=_converged_value(E_hist),
                     xi_seq=xi_seq, gamma_seq=gamma_seq,
                     condition_report=report, warnings=warnings,
                     u1star_history=u1_hist, u2star_history=u2_hist)


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case violation of an iteration-domain identity over a run.

    per_iteration[i] is the worst residual of the transition from iteration
    i to i + 1, so it has one entry fewer than the run has iterations.
    """

    name: str
    max_residual: float
    per_iteration: tuple = ()
    max_state_residual: Optional[float] = None


def _require_logged(result: RunResult) -> None:
    if len(result.trajectories) < 2 or len(result.inputs) < 2:
        raise MissingDataError("run must retain at least two iterations of data")


def realizations_for(sys: NominalSystem, unc: UncertaintySpec,
                     iterations: int) -> list:
    """Recreate the deterministic realization sequence of a run."""
    return [sample_iteration(sys, unc, l) for l in range(iterations)]


def verify_error_recursion(result: RunResult,
                           realizations: Sequence[RealizedIteration]) -> ResidualReport:
    """Check e_{l+1} = (I - D_l Xi) e_l + tau_l on logged data.

    tau_l collects the iteration-to-iteration shifts: the propagated state
    difference plus model, reference, and noise shifts.  The state
    difference itself obeys a companion recursion, re-derived and checked
    alongside.  All shifted-matrix products are taken in the dimensionally
    meaningful order (matrix shift times vector).  Each transition is
    checked at every k at once.
    """
    _require_logged(result)
    inputs = np.asarray(result.inputs, dtype=np.float64)
    N = len(result.trajectories[0].e) - 1
    eye = np.eye(result.trajectories[0].e.shape[1])
    per_iteration = []
    worst_state = 0.0
    for l in range(len(result.trajectories) - 1):
        cur, nxt = realizations[l], realizations[l + 1]
        t_cur, t_nxt = result.trajectories[l], result.trajectories[l + 1]
        u_cur, u_nxt = inputs[l], inputs[l + 1]
        dx = t_nxt.x - t_cur.x
        tau = (-cur.C @ dx - (nxt.C - cur.C) @ t_nxt.x - (nxt.D - cur.D) @ u_nxt
               + (nxt.r - cur.r) - (nxt.v - cur.v))
        loop = eye - cur.D @ result.xi_seq
        residual = t_nxt.e - loop @ t_cur.e - tau
        per_iteration.append(float(np.abs(residual).max()))
        predicted = (cur.A[:N] @ dx[:N] + (nxt.A[:N] - cur.A[:N]) @ t_nxt.x[:N]
                     + cur.B[:N] @ (u_nxt[:N] - u_cur[:N])
                     + (nxt.B[:N] - cur.B[:N]) @ u_nxt[:N] + (nxt.w[:N] - cur.w[:N]))
        worst_state = max(worst_state, float(np.abs(dx[1:] - predicted).max()))
    return ResidualReport(name="error_recursion",
                          max_residual=max(per_iteration),
                          per_iteration=tuple(per_iteration),
                          max_state_residual=worst_state)


def verify_input_recursion(result: RunResult,
                           realizations: Sequence[RealizedIteration]) -> ResidualReport:
    """Check the input's own iteration-domain dynamics on logged data.

    Current-error modes: u_{l+1} = (I - Xi D_l) u_l + Xi (r_l - C_l x_l - v_l).
    Look-ahead modes eliminate e_l(k+1) through the one-step state update:
    u_{l+1}(k) = (I - Gamma C_l(k+1) B_l(k)) u_l(k)
    + Gamma [r_l(k+1) - C_l(k+1)(A_l(k) x_l(k) + w_l(k)) - v_l(k+1)]
    for k in 0..N-1, while the final input is never updated.
    """
    _require_logged(result)
    inputs = np.asarray(result.inputs, dtype=np.float64)
    N = len(result.trajectories[0].e) - 1
    eye = np.eye(inputs.shape[2])
    look_ahead = result.mode in GAMMA_MODES
    G, Xi = result.gamma_seq[:N], result.xi_seq
    per_iteration = []
    for l in range(len(inputs) - 1):
        cur = realizations[l]
        x = result.trajectories[l].x
        u_cur, u_nxt = inputs[l], inputs[l + 1]
        if look_ahead:
            loop = eye - G @ cur.C[1:] @ cur.B[:N]
            drive = G @ (cur.r[1:] - cur.C[1:] @ (cur.A[:N] @ x[:N] + cur.w[:N])
                         - cur.v[1:])
            residual = u_nxt[:N] - loop @ u_cur[:N] - drive
            worst = max(float(np.abs(residual).max()),
                        float(np.abs(u_nxt[N] - u_cur[N]).max()))
        else:
            loop = eye - Xi @ cur.D
            drive = Xi @ (cur.r - cur.C @ x - cur.v)
            worst = float(np.abs(u_nxt - loop @ u_cur - drive).max())
        per_iteration.append(worst)
    return ResidualReport(name="input_recursion",
                          max_residual=max(per_iteration),
                          per_iteration=tuple(per_iteration))


def limit_input(sys: NominalSystem, transform: PTransform, u0,
                result: RunResult) -> np.ndarray:
    """Closed-form limit of the input in the uncertainty-free look-ahead case.

    Maps the converged active channels and the frozen share of the initial
    input back through the inverse; the claim is that this matches the
    empirically converged input.  The supplied run must have essentially
    vanished tracking error, otherwise its final input is not yet the limit.
    """
    final_E = result.E_hist[-1]
    if final_E > CONVERGENCE_THRESHOLD:
        raise NotConvergedError(
            f"final error {final_E:.3e} above {CONVERGENCE_THRESHOLD:.0e}")
    N = sys.N
    if result.u1star_history is not None:
        u1_inf = result.u1star_history[-1]
    else:
        u1_inf = split_input(transform, result.final_input[:N])[0]
    u0 = np.asarray(u0, dtype=np.float64)
    _, frozen = split_input(transform, u0[:N])
    return np.concatenate([assemble_input(transform, u1_inf, frozen), u0[N:]])
