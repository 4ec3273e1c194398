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

from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .conditions import ConditionReport, check_rho_cb_gamma, check_rho_dxi
from .config import GAMMA_MODES, MODES
from .errors import (
    DimensionMismatchError,
    MissingDataError,
    NonFiniteError,
    NotConvergedError,
)
from .matrix_core import per_step
from .plant import (
    Checked,
    NominalSystem,
    RealizedIteration,
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

CONVERGENCE_THRESHOLD = 1e-9


class _IlcConfig(NamedTuple):
    mode: str
    iterations: int
    u0: np.ndarray         # (N+1, m, 1) input stack (N+1 (m, 1) arrays also work)


class IlcConfig(Checked, _IlcConfig):
    """Loop parameters: update mode, trial count, and the starting input."""

    __slots__ = ()

    def _check(self) -> None:
        if self.mode not in MODES:
            raise DimensionMismatchError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise DimensionMismatchError("iterations must be positive")


class ResidualReport(NamedTuple):
    """Worst-case violation of an iteration-domain identity over a run.

    per_iteration[i] is the worst residual of the transition from iteration
    i to i + 1, so it has one entry fewer than the run has iterations.
    """

    name: str
    max_residual: float
    per_iteration: tuple = ()
    max_state_residual: Optional[float] = None


class RunResult(NamedTuple):
    """Everything recorded over one run.

    E_hist[l] = max_k ||e_l(k)||_inf and U_hist[l] = max_k ||u_l(k)||_inf,
    with k ranging over 0..N in the current-error modes and over 1..N
    (errors) / 0..N-1 (inputs) in the look-ahead modes.  converged_value
    estimates the asymptotic error level as the maximum of E over the last
    tenth of the iterations.  xi_seq / gamma_seq are the (N+1, m, p) gain
    stacks the run effectively applied, retained so recorded data can be
    re-checked against the iteration-domain recursions afterwards.
    inputs, states, outputs and references stack each trial's (N+1, rows, 1)
    signal by trial; trial l's tracking error is references[l] - outputs[l].
    The results of specs run side by side are views into shared stacks.
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
    inputs: np.ndarray      # inputs[l][k]: the input applied on iteration l
    states: np.ndarray      # states[l][k]: x_l(k)
    outputs: np.ndarray     # outputs[l][k]: y_l(k)
    references: np.ndarray  # references[l][k]: r_l(k)
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
    in the trial loop, a 0-d array on one seed's recorded data.  Reducing
    the step axis on its own first is several times faster than one
    reduction over all three."""
    return np.abs(stack).max(axis=0).max(axis=(-2, -1))


def _metrics(mode: str, e: np.ndarray, u: np.ndarray, N: int) -> tuple:
    if mode in GAMMA_MODES:
        return _worst(e[1:]), _worst(u[:N])
    return _worst(e), _worst(u)


def _converged_value(E_hist: Sequence[float]) -> float:
    tail = max(1, -(-len(E_hist) // 10))  # ceil(L / 10)
    return max(E_hist[-tail:])


def _precheck(report: ConditionReport) -> tuple:
    """The run's warnings: one if its contraction condition is violated."""
    if report.satisfied:
        return ()
    return (f"condition {report.name} violated: worst {report.worst:.6g} "
            f"at k={report.worst_k}; the run may diverge",)


def _error_residuals(cur: RealizedIteration, nxt: RealizedIteration,
                     x_cur: np.ndarray, x_nxt: np.ndarray, e_cur: np.ndarray,
                     e_nxt: np.ndarray, u_cur: np.ndarray, u_nxt: np.ndarray,
                     xi_seq: np.ndarray) -> tuple:
    """Worst residuals of one transition l -> l+1 of the error recursion
    e_{l+1} = (I - D_l Xi) e_l + tau_l and of the state difference in tau_l.

    tau_l collects the iteration-to-iteration shifts: the propagated state
    difference plus model, reference, and noise shifts.  The state
    difference itself obeys a companion recursion, re-derived and checked
    alongside.  All shifted-matrix products are taken in the dimensionally
    meaningful order (matrix shift times vector), at every k at once.
    Returns both worst residuals per seed (see _worst).
    """
    N = len(x_cur) - 1
    dx = x_nxt - x_cur
    tau = (-cur.C @ dx - (nxt.C - cur.C) @ x_nxt - (nxt.D - cur.D) @ u_nxt
           + (nxt.r - cur.r) - (nxt.v - cur.v))
    loop = np.eye(e_cur.shape[-2]) - cur.D @ per_step(xi_seq, cur.D)
    residual = e_nxt - loop @ e_cur - tau
    predicted = (cur.A[:N] @ dx[:N] + (nxt.A[:N] - cur.A[:N]) @ x_nxt[:N]
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
    step axis."""
    draws = [sample_iteration(sys, unc, l) for unc in uncs]

    def stack(name: str, axis: int) -> np.ndarray:
        fields = [getattr(draw, name) for draw in draws]
        if all(field is fields[0] for field in fields):  # one spec, or unperturbed
            return fields[0][:, None] if axis else fields[0][None]
        return np.stack(fields, axis=axis)

    return RealizedIteration(l=l, N=sys.N, x0=stack("x0", 0),
                             **{name: stack(name, 1) for name in "ABCDwvr"})


def _with_lane_axis(realized: RealizedIteration) -> RealizedIteration:
    """The realization viewed with a unit lane axis ahead of the seed axis;
    x0, (S or 1, n, 1), already broadcasts against it."""
    return realized._replace(**{name: getattr(realized, name)[:, None] for name in "ABCDwvr"})


def _simulate(realized: RealizedIteration, u: np.ndarray, faults: list) -> tuple:
    """simulate, keeping each seed's first blow-up in faults and going on
    with the others; only the first seed's stops the loop, as no other can
    then come before it in seed order.  u may carry a lane axis ahead of
    the seed axis (the main run, then its counterpart): a seed's faults
    then merge main lane first, as if the lanes had been simulated in turn."""
    try:
        return simulate(realized, u)
    except NonFiniteError as exc:
        S = len(faults)
        faults[:] = [old or next(filter(None, exc.faults[s::S]), None)
                     for s, old in enumerate(faults)]
        if faults[0] is not None:
            raise faults[0]
        return exc.trajectory


def _learn(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec],
           cfg: IlcConfig, law: Callable,
           counterpart: Optional[Callable] = None) -> RunResult | list:
    """The trial loop of both coordinate systems.

    unc is one UncertaintySpec, or a sequence of S of them (seeds) that run
    side by side; one spec runs as S = 1.  Every per-trial array carries
    the seed axis after the step axis, (N+1, S, rows, cols).  law(S) builds
    (report, xi_seq, gamma_seq, u0, advance) for S seeds; advance(l, u, e)
    forms the input of trial l + 1 from trial l's input and tracking error.
    Trial l draws its realizations once, simulates them under the input u,
    writes the input, states, outputs and reference into the run's stacks
    and forms the tracking error once, for the metrics, the checks of the
    transition from trial l - 1 against both recursions, and the update.
    A counterpart law shares that simulate call: its input rides beside u
    on a lane axis ahead of the seed axis, (N+1, 2, S, m, 1), over the
    realization viewed with a unit lane axis, and only its worst output gap
    to the main run is kept.  Returns a RunResult, or a list of them for a
    sequence.  A seed that blows up raises its NonFiniteError once every
    seed before it has finished, so the first failing seed in order is
    reported; within a trial, the main run's blow-up comes before the
    counterpart's.
    """
    uncs = (unc,) if isinstance(unc, UncertaintySpec) else tuple(unc)
    if not uncs:
        raise DimensionMismatchError("no uncertainty spec to run")
    S = len(uncs)
    report, xi_seq, gamma_seq, u, advance = law(S)
    other = None if counterpart is None else counterpart(S)
    warnings = _precheck(report)
    L, steps, look_ahead = cfg.iterations, sys.N + 1, cfg.mode in GAMMA_MODES
    E_hist, U_hist = np.empty((L, S)), np.empty((L, S))
    error_res, state_res, input_res = (np.empty((L - 1, S)) for _ in range(3))
    inputs = np.empty((L,) + u.shape)
    states = np.empty((L, steps, S, sys.n, 1))
    outputs, references = (np.empty((L, steps, S, sys.p, 1)) for _ in range(2))
    faults = [None] * S
    if other is not None:
        gap, u_other, advance_other = np.zeros(S), other[3], other[4]
    # A seed that blew up runs on beside the others; its NonFiniteError, not
    # numpy's overflow warnings, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(L):
            realized = _draw(sys, uncs, l)
            if other is None:
                x, y = _simulate(realized, u, faults)
            else:
                x, y = _simulate(_with_lane_axis(realized), np.stack((u, u_other), axis=1),
                                 faults)
                x, y, y_other = x[:, 0], y[:, 0], y[:, 1]
                gap = np.maximum(gap, _worst(y - y_other))
            inputs[l], states[l], outputs[l], references[l] = u, x, y, realized.r
            e = realized.r - y
            E_hist[l], U_hist[l] = _metrics(cfg.mode, e, u, sys.N)
            if l:
                error_res[l - 1], state_res[l - 1] = _error_residuals(
                    previous, realized, states[l - 1], x, e_previous, e,
                    inputs[l - 1], u, xi_seq)
                input_res[l - 1] = _input_residual(
                    look_ahead, previous, states[l - 1], inputs[l - 1], u, xi_seq, gamma_seq)
            previous, e_previous = realized, e
            if l + 1 < L:
                u = advance(l, u, e)
                if other is not None:
                    u_other = advance_other(l, u_other, realized.r - y_other)
    failed = next((fault for fault in faults if fault is not None), None)
    if failed is not None:
        raise failed

    def result(s: int) -> RunResult:
        E = tuple(E_hist[:, s].tolist())
        return RunResult(mode=cfg.mode, iterations=L,
                         E_hist=E, U_hist=tuple(U_hist[:, s].tolist()),
                         inputs=inputs[:, :, s], states=states[:, :, s],
                         outputs=outputs[:, :, s], references=references[:, :, s],
                         converged_value=_converged_value(E),
                         xi_seq=xi_seq, gamma_seq=gamma_seq,
                         condition_report=report, warnings=warnings,
                         error_recursion=_report("error_recursion", error_res[:, s].tolist(),
                                                 state_res[:, s].tolist()),
                         input_recursion=_report("input_recursion",
                                                 input_res[:, s].tolist()),
                         equivalence_gap=None if other is None else float(gap[s]))

    results = [result(s) for s in range(S)]
    return results[0] if isinstance(unc, UncertaintySpec) else results


def _initial_input(cfg: IlcConfig, seeds: int) -> np.ndarray:
    """cfg.u0 as a float stack, repeated on a seed axis."""
    return np.repeat(np.asarray(cfg.u0, dtype=np.float64)[:, None], seeds, axis=1)


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
    else:
        active_steps = N + 1
        xi_seq, gamma_seq = transform.gain, zero_gains

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

    return transform.report, xi_seq, gamma_seq, assemble(u1), advance


def run(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec], gains: tuple,
        cfg: IlcConfig, counterpart: Optional[InputTransform] = None) -> RunResult | list:
    """Direct loop in original input coordinates.

    A violated contraction condition does not abort: its warning is kept in
    RunResult.warnings, so divergent configurations stay runnable.  Numerical
    blow-up surfaces as NonFinite carrying the offending step and iteration.  Given a transform
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
    if len(result.states) < 2 or len(result.inputs) < 2:
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
    x, e = result.states, result.references - result.outputs
    errors, states = zip(*(
        map(float, _error_residuals(realizations[l], realizations[l + 1], x[l], x[l + 1],
                                    e[l], e[l + 1], inputs[l], inputs[l + 1], result.xi_seq))
        for l in range(len(x) - 1)))
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
        float(_input_residual(look_ahead, realizations[l], result.states[l],
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
