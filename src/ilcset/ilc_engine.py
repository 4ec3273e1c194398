"""The iteration-domain loop.

Each iteration realizes the uncertain plant once, simulates one trial under
the current input, records worst-case error/input metrics, checks the
transition from the previous trial against the error and input recursions,
and forms the next input from the tracking error.  One loop serves both
coordinate systems; only the update law differs.  Direct runs apply the
update in original input coordinates; transformed runs iterate only the p
active channels of the split input, keep the remaining channels frozen at
their initial values, and map back through the closed-form inverse each
trial — producing (up to roundoff) identical trajectories.  Several seeds
share the loop on a seed axis, each rounding exactly as it would alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

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
    NonFiniteError,
    NotConvergedError,
)
from .matrix_core import per_step
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
        out = u + per_step(Xi.values, e) @ e
        out[:N] = out[:N] + per_step(Gamma.values[:N], e) @ e[1:]
    return out


def _worst(stack: np.ndarray) -> np.ndarray:
    """max |entry| over the steps and the matrix axes: one value per seed
    (a 0-d array without a seed axis).  Reducing the step axis on its own
    first is several times faster than one reduction over all three."""
    return np.abs(stack).max(axis=0).max(axis=(-2, -1))


def _metrics(mode: str, traj: Trajectory, u: np.ndarray, N: int) -> tuple:
    if mode in GAMMA_MODES:
        return _worst(traj.e[1:]), _worst(u[:N])
    return _worst(traj.e), _worst(u)


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
    Returns both worst residuals per seed (see _worst).
    """
    N = len(t_cur.x) - 1
    dx = t_nxt.x - t_cur.x
    tau = (-cur.C @ dx - (nxt.C - cur.C) @ t_nxt.x - (nxt.D - cur.D) @ u_nxt
           + (nxt.r - cur.r) - (nxt.v - cur.v))
    loop = np.eye(t_cur.y.shape[-2]) - cur.D @ per_step(xi_seq, cur.D)
    residual = t_nxt.e - loop @ t_cur.e - tau
    predicted = (cur.A[:N] @ dx[:N] + (nxt.A[:N] - cur.A[:N]) @ t_nxt.x[:N]
                 + cur.B[:N] @ (u_nxt[:N] - u_cur[:N])
                 + (nxt.B[:N] - cur.B[:N]) @ u_nxt[:N] + (nxt.w[:N] - cur.w[:N]))
    return _worst(residual), _worst(dx[1:] - predicted)


def _input_residual(look_ahead: bool, cur: RealizedIteration, x: np.ndarray,
                    u_cur: np.ndarray, u_nxt: np.ndarray,
                    xi_seq: np.ndarray, gamma_seq: np.ndarray) -> float:
    """Worst residual of one transition l -> l+1 of the input's own dynamics.

    Current-error modes: u_{l+1} = (I - Xi D_l) u_l + Xi (r_l - C_l x_l - v_l).
    Look-ahead modes eliminate e_l(k+1) through the one-step state update:
    u_{l+1}(k) = (I - Gamma C_l(k+1) B_l(k)) u_l(k)
    + Gamma [r_l(k+1) - C_l(k+1)(A_l(k) x_l(k) + w_l(k)) - v_l(k+1)]
    for k in 0..N-1, while the final input is never updated.
    Returns the worst residual per seed (see _worst).
    """
    N = len(u_cur) - 1
    eye = np.eye(u_cur.shape[-2])
    if look_ahead:
        G = per_step(gamma_seq[:N], u_cur)
        loop = eye - G @ cur.C[1:] @ cur.B[:N]
        drive = G @ (cur.r[1:] - cur.C[1:] @ (cur.A[:N] @ x[:N] + cur.w[:N])
                     - cur.v[1:])
        residual = u_nxt[:N] - loop @ u_cur[:N] - drive
        return np.maximum(_worst(residual), _worst(u_nxt[N:] - u_cur[N:]))
    xi = per_step(xi_seq, u_cur)
    loop = eye - xi @ cur.D
    drive = xi @ (cur.r - cur.C @ x - cur.v)
    return _worst(u_nxt - loop @ u_cur - drive)


def _report(name: str, per_iteration: Sequence[float],
            state: Optional[Sequence[float]] = None) -> Optional[ResidualReport]:
    """The report of a run's transitions; None when it has none."""
    if not per_iteration:
        return None
    return ResidualReport(name=name, max_residual=max(per_iteration),
                          per_iteration=tuple(per_iteration),
                          max_state_residual=None if state is None else max(0.0, *state))


def _draw(sys: NominalSystem, uncs: Sequence[UncertaintySpec], l: int) -> RealizedIteration:
    """Trial l's realization of every spec, stacked on a seed axis after the
    step axis; a single spec's draw is returned as it is, without one."""
    draws = [sample_iteration(sys, unc, l) for unc in uncs]
    if len(draws) == 1:
        return draws[0]

    def stack(name: str, axis: int) -> np.ndarray:
        fields = [getattr(draw, name) for draw in draws]
        if all(field is fields[0] for field in fields):  # unperturbed: one nominal stack
            return np.expand_dims(fields[0], axis)
        return np.stack(fields, axis=axis)

    return RealizedIteration(l=l, N=sys.N, x0=stack("x0", 0),
                             **{name: stack(name, 1) for name in "ABCDwvr"})


def _simulate(realized: RealizedIteration, u: np.ndarray, faults: list) -> Trajectory:
    """simulate, keeping each seed's first blow-up in faults and going on
    with the others; only the first seed's stops the loop, as no other can
    then come before it in seed order."""
    try:
        return simulate(realized, u)
    except NonFiniteError as exc:
        faults[:] = [new if old is None else old for old, new in zip(faults, exc.faults)]
        if faults[0] is not None:
            raise faults[0]
        return exc.trajectory


def _learn(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec],
           cfg: IlcConfig, law: Callable,
           counterpart: Optional[Callable] = None) -> RunResult | list:
    """The trial loop of both coordinate systems.

    unc is one UncertaintySpec, or a sequence of them (seeds) that run side
    by side: every per-trial array then carries a seed axis after the step
    axis, (N+1, S, rows, cols).  law(S) builds (report, xi_seq, gamma_seq,
    u0, advance) for S seeds; advance(l, u, e) forms the input of trial
    l + 1 from trial l's input and tracking error.  Trial l draws its
    realizations once, simulates them under the input u, records the
    metrics, the input and the trajectory, checks the transition from trial
    l - 1 against the error and input recursions and then lets the previous
    realization go.  A counterpart law is simulated on the same realization
    after the main one; only its worst output gap to the main run is kept.
    Returns a RunResult, or a list of them for a sequence.  A seed that
    blows up raises its NonFiniteError once every seed before it has
    finished, so the first failing seed in order is reported.
    """
    uncs = (unc,) if isinstance(unc, UncertaintySpec) else tuple(unc)
    if not uncs:
        raise DimensionMismatchError("no uncertainty spec to run")
    report, xi_seq, gamma_seq, u, advance = law(len(uncs))
    other = None if counterpart is None else counterpart(len(uncs))
    warnings = _precheck(report)
    L = cfg.iterations
    look_ahead = cfg.mode in GAMMA_MODES
    seeds = u.shape[1:-2]
    E_hist, U_hist = np.empty((L,) + seeds), np.empty((L,) + seeds)
    errors, states, input_residuals = (np.empty((L - 1,) + seeds) for _ in range(3))
    inputs = np.empty((L,) + u.shape)
    trajectories = []
    faults = [None] * len(uncs)
    if other is not None:
        gap, u_other, advance_other = np.zeros(seeds), other[3], other[4]
    # A seed that blew up runs on beside the others; its NonFiniteError, not
    # numpy's overflow warnings, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(L):
            realized = _draw(sys, uncs, l)
            traj = _simulate(realized, u, faults)
            if other is not None:
                t_other = _simulate(realized, u_other, faults)
                gap = np.maximum(gap, _worst(traj.y - t_other.y))
            E_hist[l], U_hist[l] = _metrics(cfg.mode, traj, u, sys.N)
            inputs[l] = u
            trajectories.append(traj)
            if l:
                t_prev, u_prev = trajectories[l - 1], inputs[l - 1]
                errors[l - 1], states[l - 1] = _error_residuals(
                    previous, realized, t_prev, traj, u_prev, inputs[l], xi_seq)
                input_residuals[l - 1] = _input_residual(
                    look_ahead, previous, t_prev.x, u_prev, inputs[l], xi_seq, gamma_seq)
            previous = realized
            if l + 1 < L:
                u = advance(l, u, traj.e)
                if other is not None:
                    u_other = advance_other(l, u_other, t_other.e)
    failed = next((fault for fault in faults if fault is not None), None)
    if failed is not None:
        raise failed

    def result(seed: tuple) -> RunResult:
        at = (slice(None),) + seed
        E = tuple(E_hist[at].tolist())
        trials = tuple(Trajectory(x=t.x[at], y=t.y[at],
                                  r=np.broadcast_to(t.r, t.y.shape)[at])
                       for t in trajectories)
        return RunResult(mode=cfg.mode, iterations=L,
                         E_hist=E, U_hist=tuple(U_hist[at].tolist()),
                         inputs=inputs[(slice(None),) + at], trajectories=trials,
                         converged_value=_converged_value(E),
                         xi_seq=xi_seq, gamma_seq=gamma_seq,
                         condition_report=report, warnings=warnings,
                         error_recursion=_report("error_recursion", errors[at].tolist(),
                                                 states[at].tolist()),
                         input_recursion=_report("input_recursion",
                                                 input_residuals[at].tolist()),
                         equivalence_gap=None if other is None else float(gap[seed]))

    results = [result(seed) for seed in np.ndindex(*seeds)]
    return results[0] if isinstance(unc, UncertaintySpec) else results


def _initial_input(cfg: IlcConfig, seeds: int) -> np.ndarray:
    """cfg.u0 as a float stack, repeated on a seed axis for several seeds."""
    u0 = np.asarray(cfg.u0, dtype=np.float64)
    return u0 if seeds == 1 else np.repeat(u0[:, None], seeds, axis=1)


def _direct_law(sys: NominalSystem, gains: tuple, cfg: IlcConfig, seeds: int) -> tuple:
    """The update law in original input coordinates."""
    xi, gamma = gains
    if cfg.mode in GAMMA_MODES:
        report = check_rho_cb_gamma(sys.B, sys.C, gamma)
    else:
        report = check_rho_dxi(sys.D, xi)
    return (report, xi.values, gamma.values, _initial_input(cfg, seeds),
            lambda l, u, e: update_input(u, e, xi, gamma))


def _split_law(sys: NominalSystem, transform: InputTransform, cfg: IlcConfig,
               seeds: int) -> tuple:
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

    u0 = _initial_input(cfg, seeds)
    u1, frozen = split_input(transform, u0[:active_steps])
    tail = u0[active_steps:]
    shift = int(look_ahead)

    def assemble(active: np.ndarray) -> np.ndarray:
        return np.concatenate([assemble_input(transform, active, frozen), tail])

    def advance(l, u, e):
        nonlocal u1
        u1 = u1 + per_step(transform.gain_products, e) @ e[shift:shift + active_steps]
        return assemble(u1)

    return report, xi_seq, gamma_seq, assemble(u1), advance


def run(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec], gains: tuple,
        cfg: IlcConfig, counterpart: Optional[InputTransform] = None) -> RunResult | list:
    """Direct loop in original input coordinates.

    A violated contraction condition logs a warning but does not abort, so
    divergent configurations stay runnable; numerical blow-up surfaces as
    NonFinite carrying the offending step and iteration.  Given a transform
    as counterpart, the split-coordinate loop runs beside it on the same draws.
    unc may also be a sequence of UncertaintySpecs (one per seed, say): they
    run side by side through the one loop, and a list of RunResults, one
    per spec in order, comes back.
    """
    return _learn(sys, unc, cfg, partial(_direct_law, sys, gains, cfg),
                  None if counterpart is None else partial(_split_law, sys, counterpart, cfg))


def run_transformed(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec],
                    transform: InputTransform, cfg: IlcConfig,
                    counterpart: Optional[tuple] = None) -> RunResult | list:
    """Split-coordinate loop: update the p active channels only.

    The frozen channels keep their initial split values for the whole run;
    the applied input is reassembled through the closed-form inverse each
    iteration and drives the original uncertain plant.  The active update
    uses the collapsed square gain, so its loop matrix coincides with the
    direct one and the same contraction condition applies.  Given (Xi,
    Gamma) as counterpart, the direct loop runs beside it on the same draws.
    A sequence of specs as unc runs them side by side, as in run.
    """
    return _learn(sys, unc, cfg, partial(_split_law, sys, transform, cfg),
                  None if counterpart is None else partial(_direct_law, sys, counterpart, cfg))


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
        map(float, _error_residuals(realizations[l], realizations[l + 1], T[l], T[l + 1],
                                    inputs[l], inputs[l + 1], result.xi_seq))
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
        float(_input_residual(look_ahead, realizations[l], result.trajectories[l].x,
                              inputs[l], inputs[l + 1], result.xi_seq, result.gamma_seq))
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
