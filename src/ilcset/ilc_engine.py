"""The iteration-domain loop.

Each iteration realizes the uncertain plant once, simulates one trial under
the current input, records worst-case error/input metrics, checks the
transition from the previous trial against the error and input recursions,
and forms the next input from the tracking error.  One loop serves both
coordinate systems; only the update law differs.  Direct runs apply the
update in original input coordinates; transformed runs iterate only the p
active channels of the split input, keep the remaining channels frozen at
their initial values, and map back through the closed-form inverse each
trial — producing (up to roundoff) identical trajectories.
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

    def __post_init__(self):
        if self.mode not in MODES:
            raise DimensionMismatchError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise DimensionMismatchError("iterations must be positive")


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
    inputs is the (L, N+1, m, 1) stack of applied inputs.
    error_recursion / input_recursion are the residuals of both recursions,
    checked transition by transition on the realizations the run drew;
    they are None when the run has fewer than two iterations.
    equivalence_gap is the worst output gap to the counterpart run in the
    other coordinate system, or None when the run had none.
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
    error_recursion: Optional[ResidualReport] = None
    input_recursion: Optional[ResidualReport] = None
    equivalence_gap: Optional[float] = None

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
        return ()
    message = (f"condition {report.name} violated: worst {report.worst:.6g} "
               f"at k={report.worst_k}; the run may diverge")
    log.warning(message)
    return (message,)


def _error_residuals(cur: RealizedIteration, nxt: RealizedIteration,
                     t_cur: Trajectory, t_nxt: Trajectory,
                     u_cur: np.ndarray, u_nxt: np.ndarray, xi_seq: np.ndarray) -> tuple:
    """Worst residuals of one transition l -> l+1 of the error recursion
    e_{l+1} = (I - D_l Xi) e_l + tau_l and of the state difference in tau_l.

    tau_l collects the iteration-to-iteration shifts: the propagated state
    difference plus model, reference, and noise shifts.  The state
    difference itself obeys a companion recursion, re-derived and checked
    alongside.  All shifted-matrix products are taken in the dimensionally
    meaningful order (matrix shift times vector), at every k at once.
    """
    N = len(t_cur.x) - 1
    dx = t_nxt.x - t_cur.x
    tau = (-cur.C @ dx - (nxt.C - cur.C) @ t_nxt.x - (nxt.D - cur.D) @ u_nxt
           + (nxt.r - cur.r) - (nxt.v - cur.v))
    loop = np.eye(t_cur.y.shape[1]) - cur.D @ xi_seq
    residual = t_nxt.e - loop @ t_cur.e - tau
    predicted = (cur.A[:N] @ dx[:N] + (nxt.A[:N] - cur.A[:N]) @ t_nxt.x[:N]
                 + cur.B[:N] @ (u_nxt[:N] - u_cur[:N])
                 + (nxt.B[:N] - cur.B[:N]) @ u_nxt[:N] + (nxt.w[:N] - cur.w[:N]))
    return float(np.abs(residual).max()), float(np.abs(dx[1:] - predicted).max())


def _input_residual(look_ahead: bool, cur: RealizedIteration, x: np.ndarray,
                    u_cur: np.ndarray, u_nxt: np.ndarray,
                    xi_seq: np.ndarray, gamma_seq: np.ndarray) -> float:
    """Worst residual of one transition l -> l+1 of the input's own dynamics.

    Current-error modes: u_{l+1} = (I - Xi D_l) u_l + Xi (r_l - C_l x_l - v_l).
    Look-ahead modes eliminate e_l(k+1) through the one-step state update:
    u_{l+1}(k) = (I - Gamma C_l(k+1) B_l(k)) u_l(k)
    + Gamma [r_l(k+1) - C_l(k+1)(A_l(k) x_l(k) + w_l(k)) - v_l(k+1)]
    for k in 0..N-1, while the final input is never updated.
    """
    N = len(u_cur) - 1
    eye = np.eye(u_cur.shape[1])
    if look_ahead:
        G = gamma_seq[:N]
        loop = eye - G @ cur.C[1:] @ cur.B[:N]
        drive = G @ (cur.r[1:] - cur.C[1:] @ (cur.A[:N] @ x[:N] + cur.w[:N])
                     - cur.v[1:])
        residual = u_nxt[:N] - loop @ u_cur[:N] - drive
        return max(float(np.abs(residual).max()),
                   float(np.abs(u_nxt[N] - u_cur[N]).max()))
    loop = eye - xi_seq @ cur.D
    drive = xi_seq @ (cur.r - cur.C @ x - cur.v)
    return float(np.abs(u_nxt - loop @ u_cur - drive).max())


def _report(name: str, per_iteration: Sequence[float],
            state: Optional[Sequence[float]] = None) -> Optional[ResidualReport]:
    """The report of a run's transitions; None when it has none."""
    if not per_iteration:
        return None
    return ResidualReport(name=name, max_residual=max(per_iteration),
                          per_iteration=tuple(per_iteration),
                          max_state_residual=None if state is None else max(0.0, *state))


def _learn(sys: NominalSystem, unc: UncertaintySpec, cfg: IlcConfig,
           law: tuple, counterpart: Optional[tuple] = None) -> RunResult:
    """The trial loop of both coordinate systems.

    law is (report, xi_seq, gamma_seq, u0, advance); advance(l, u, e) forms
    the input of trial l + 1 from trial l's input and tracking error.
    Trial l draws its realization once, simulates it under the input u,
    records the metrics, the input and the trajectory, checks the
    transition from trial l - 1 against the error and input recursions and
    then lets the previous realization go.  A counterpart law is simulated
    on the same realization after the main one; only its worst output gap
    to the main run is kept.
    """
    report, xi_seq, gamma_seq, u, advance = law
    warnings = _precheck(report)
    L = cfg.iterations
    look_ahead = cfg.mode in GAMMA_MODES
    E_hist, U_hist, trajectories = [], [], []
    inputs = np.empty((L,) + u.shape)
    errors, states, input_residuals = [], [], []
    if counterpart is not None:
        gap, u_other, advance_other = 0.0, counterpart[3], counterpart[4]
    for l in range(L):
        realized = sample_iteration(sys, unc, l)
        traj = simulate(realized, u)
        if counterpart is not None:
            other = simulate(realized, u_other)
            gap = max(gap, float(np.abs(traj.y - other.y).max()))
        E, U = _metrics(cfg.mode, traj, u, sys.N)
        E_hist.append(E)
        U_hist.append(U)
        inputs[l] = u
        trajectories.append(traj)
        if l:
            t_prev, u_prev = trajectories[l - 1], inputs[l - 1]
            error, state = _error_residuals(previous, realized, t_prev, traj,
                                            u_prev, inputs[l], xi_seq)
            errors.append(error)
            states.append(state)
            input_residuals.append(_input_residual(look_ahead, previous, t_prev.x,
                                                   u_prev, inputs[l], xi_seq, gamma_seq))
        previous = realized
        if l + 1 < L:
            u = advance(l, u, traj.e)
            if counterpart is not None:
                u_other = advance_other(l, u_other, other.e)
    return RunResult(mode=cfg.mode, iterations=L,
                     E_hist=tuple(E_hist), U_hist=tuple(U_hist),
                     inputs=inputs, trajectories=tuple(trajectories),
                     converged_value=_converged_value(E_hist),
                     xi_seq=xi_seq, gamma_seq=gamma_seq,
                     condition_report=report, warnings=warnings,
                     error_recursion=_report("error_recursion", errors, states),
                     input_recursion=_report("input_recursion", input_residuals),
                     equivalence_gap=None if counterpart is None else gap)


def _direct_law(sys: NominalSystem, gains: tuple, cfg: IlcConfig) -> tuple:
    """The update law in original input coordinates."""
    xi, gamma = gains
    if cfg.mode in GAMMA_MODES:
        report = check_rho_cb_gamma(sys.B, sys.C, gamma)
    else:
        report = check_rho_dxi(sys.D, xi)
    return (report, xi.values, gamma.values, np.array(cfg.u0, dtype=np.float64),
            lambda l, u, e: update_input(u, e, xi, gamma))


def _split_law(sys: NominalSystem, transform: InputTransform, cfg: IlcConfig) -> tuple:
    """The update law of the p active channels of the split input."""
    m, p, N = sys.m, sys.p, sys.N
    zero_gains = np.zeros((N + 1, m, p))
    look_ahead = cfg.mode in GAMMA_MODES
    if not isinstance(transform, PTransform if look_ahead else QTransform):
        raise DimensionMismatchError(f"{cfg.mode} needs a " + (
            "state-coupled transform on k in 0..N-1" if look_ahead
            else "feedthrough-coupled transform"))
    if look_ahead:
        active_steps = N
        xi_seq, gamma_seq = zero_gains, np.concatenate([transform.gain, zero_gains[:1]])
        report = contraction_report("rho_cbgamma", transform.gain_products)
    else:
        active_steps = N + 1
        xi_seq, gamma_seq = transform.gain, zero_gains
        report = contraction_report("rho_dxi", transform.gain_products)

    u0 = np.asarray(cfg.u0, dtype=np.float64)
    u1, frozen = split_input(transform, u0[:active_steps])
    tail = u0[active_steps:]
    shift = int(look_ahead)

    def assemble(active: np.ndarray) -> np.ndarray:
        return np.concatenate([assemble_input(transform, active, frozen), tail])

    def advance(l, u, e):
        nonlocal u1
        u1 = u1 + transform.gain_products @ e[shift:shift + active_steps]
        return assemble(u1)

    return report, xi_seq, gamma_seq, assemble(u1), advance


def run(sys: NominalSystem, unc: UncertaintySpec, gains: tuple,
        cfg: IlcConfig, counterpart: Optional[InputTransform] = None) -> RunResult:
    """Direct loop in original input coordinates.

    A violated contraction condition logs a warning but does not abort, so
    divergent configurations stay runnable; numerical blow-up surfaces as
    NonFinite carrying the offending step and iteration.  Given a transform
    as counterpart, the split-coordinate loop runs beside it on the same draws.
    """
    return _learn(sys, unc, cfg, _direct_law(sys, gains, cfg),
                  None if counterpart is None else _split_law(sys, counterpart, cfg))


def run_transformed(sys: NominalSystem, unc: UncertaintySpec,
                    transform: InputTransform, cfg: IlcConfig,
                    counterpart: Optional[tuple] = None) -> RunResult:
    """Split-coordinate loop: update the p active channels only.

    The frozen channels keep their initial split values for the whole run;
    the applied input is reassembled through the closed-form inverse each
    iteration and drives the original uncertain plant.  The active update
    uses the collapsed square gain, so its loop matrix coincides with the
    direct one and the same contraction condition applies.  Given (Xi,
    Gamma) as counterpart, the direct loop runs beside it on the same draws.
    """
    return _learn(sys, unc, cfg, _split_law(sys, transform, cfg),
                  None if counterpart is None else _direct_law(sys, counterpart, cfg))


def _require_logged(result: RunResult) -> None:
    if len(result.trajectories) < 2 or len(result.inputs) < 2:
        raise MissingDataError("run must retain at least two iterations of data")


def realizations_for(sys: NominalSystem, unc: UncertaintySpec,
                     iterations: int) -> list:
    """Recreate the deterministic realization sequence of a run."""
    return [sample_iteration(sys, unc, l) for l in range(iterations)]


def verify_error_recursion(result: RunResult,
                           realizations: Sequence[RealizedIteration]) -> ResidualReport:
    """Check e_{l+1} = (I - D_l Xi) e_l + tau_l on recorded data.

    The same per-transition check the run applies as it goes, here on data
    a caller has kept or altered; see _error_residuals.
    """
    _require_logged(result)
    inputs = np.asarray(result.inputs, dtype=np.float64)
    T = result.trajectories
    errors, states = zip(*(
        _error_residuals(realizations[l], realizations[l + 1], T[l], T[l + 1],
                         inputs[l], inputs[l + 1], result.xi_seq)
        for l in range(len(T) - 1)))
    return _report("error_recursion", errors, states)


def verify_input_recursion(result: RunResult,
                           realizations: Sequence[RealizedIteration]) -> ResidualReport:
    """Check u_{l+1} = (I - Xi D_l) u_l + Xi (r_l - C_l x_l - v_l), or its
    look-ahead form, on recorded data.

    The same per-transition check the run applies as it goes, here on data
    a caller has kept or altered; see _input_residual.
    """
    _require_logged(result)
    inputs = np.asarray(result.inputs, dtype=np.float64)
    look_ahead = result.mode in GAMMA_MODES
    return _report("input_recursion", [
        _input_residual(look_ahead, realizations[l], result.trajectories[l].x,
                        inputs[l], inputs[l + 1], result.xi_seq, result.gamma_seq)
        for l in range(len(inputs) - 1)])


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
    u1_inf = split_input(transform, result.final_input[:N])[0]
    u0 = np.asarray(u0, dtype=np.float64)
    _, frozen = split_input(transform, u0[:N])
    return np.concatenate([assemble_input(transform, u1_inf, frozen), u0[N:]])
