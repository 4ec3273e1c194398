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
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .conditions import ConditionReport, check_rho_cb_gamma, check_rho_dxi
from .config import (
    CHANNELS,
    GAMMA_MODES,
    MODES,
    SCHEDULES,
    Checked,
    NominalSystem,
    UncertaintySpec,
    mode_premises,
)
from .errors import IlcsetError, NonFiniteError
from .matrix_core import per_step
from .plant import RealizedIteration, _draw_plan, draw_trial, sample_iteration, simulate

if TYPE_CHECKING:
    from .set_transform import InputTransform

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
            raise IlcsetError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise IlcsetError("iterations must be positive")


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
    tenth of the iterations.  gain_seq is the one gain stack the run
    applied in original input coordinates: Xi's (N+1, m, p) on k in 0..N,
    or Gamma's (N, m, p) on k in 0..N-1, retained so recorded data can be
    re-checked against the iteration-domain recursions afterwards.
    inputs, states, outputs and references stack every trial's (N+1, rows, 1)
    signals, row l for trial l, or are None for a run given a sink.
    final_input is the last trial's input.  The results of specs run side
    by side are views into shared stacks.
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
    final_input: np.ndarray  # the input applied on the last trial
    converged_value: float
    gain_seq: np.ndarray
    condition_report: Optional[ConditionReport] = None
    warnings: tuple = ()
    error_recursion: Optional[ResidualReport] = None
    input_recursion: Optional[ResidualReport] = None
    equivalence_gap: Optional[float] = None
    inputs: Optional[np.ndarray] = None      # inputs[l][k]: u_l(k)
    states: Optional[np.ndarray] = None      # states[l][k]: x_l(k)
    outputs: Optional[np.ndarray] = None     # outputs[l][k]: y_l(k)
    references: Optional[np.ndarray] = None  # references[l][k]: r_l(k)


class Trial(NamedTuple):
    """A finished trial of S seeds, as the loop hands it to a sink: each
    seed's E and U (see RunResult) and worst (error, state, input) residuals
    of the transition from trial l - 1 (None on trial 0), and the trial's
    (N+1, S, rows, 1) signals, the loop's own arrays: copy them to keep."""

    l: int
    E: np.ndarray
    U: np.ndarray
    residuals: Optional[tuple]
    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    r: np.ndarray


def update_input(u, e, gain: np.ndarray, shift: int = 0) -> np.ndarray:
    """One step of the update law: u(k) + G(k) e(k + shift) on the steps k
    of the gain stack G; the inputs after them are left as they are.

    Xi learns from the current error (shift 0, k in 0..N), Gamma from the
    next one (shift 1, k in 0..N-1), so the look-ahead law never updates
    the final input: e(N+1) does not exist.
    """
    steps = len(gain)
    if len(e) != steps + shift or len(u) < steps:
        raise IlcsetError("input, gain and error sequences differ in length")
    out = np.array(u, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    # Divergent configurations are allowed to overflow here; the next
    # simulation reports the non-finite values with their iteration.
    with np.errstate(over="ignore", invalid="ignore"):
        out[:steps] += per_step(gain, e) @ e[shift:]
    return out


def _worst(stack: np.ndarray) -> np.ndarray:
    """max |entry| over the steps and the matrix axes: one value per seed
    in the trial loop, a 0-d array on one seed's recorded data.  Reducing
    the step axis on its own first is several times faster than one
    reduction over all three."""
    return np.abs(stack).max(axis=0).max(axis=(-2, -1))


def _converged_value(E_hist: Sequence[float]) -> float:
    tail = max(1, -(-len(E_hist) // 10))  # ceil(L / 10)
    return max(E_hist[-tail:])


def _precheck(report: ConditionReport) -> tuple:
    """The run's warnings: one if its contraction condition is violated."""
    if report.satisfied:
        return ()
    return (f"condition {report.name} violated: worst {report.worst:.6g} "
            f"at k={report.worst_k}; the run may diverge",)


def _error_loop(D, gain_seq) -> np.ndarray:
    """I - D Xi at every k.  A gain on k in 0..N-1 is Gamma, whose modes
    have D = 0: the loop is then I."""
    eye = np.eye(D.shape[-2])
    return eye if len(gain_seq) < len(D) else eye - D @ per_step(gain_seq, D)


def _input_loop(look_ahead, cur, u, gain_seq) -> np.ndarray:
    """I - Xi D at every k, or I - Gamma C(k+1) B(k) on k in 0..N-1."""
    if look_ahead:
        return np.eye(u.shape[-2]) - per_step(gain_seq, u) @ cur.C[1:] @ cur.B[:-1]
    return np.eye(u.shape[-2]) - per_step(gain_seq, u) @ cur.D


def _error_residuals(cur: RealizedIteration, nxt: RealizedIteration,
                     x_cur: np.ndarray, x_nxt: np.ndarray, e_cur: np.ndarray,
                     e_nxt: np.ndarray, u_cur: np.ndarray, u_nxt: np.ndarray,
                     gain_seq: np.ndarray, fixed=(), loop=None) -> tuple:
    """Worst residuals of one transition l -> l+1 of the error recursion
    e_{l+1} = (I - D_l Xi) e_l + tau_l and of the state difference in tau_l.

    tau_l collects the iteration-to-iteration shifts: the propagated state
    difference plus model, reference, and noise shifts.  The state
    difference itself obeys a companion recursion, re-derived and checked
    alongside.  All shifted-matrix products are taken in the dimensionally
    meaningful order (matrix shift times vector), at every k at once.
    The shifts of B, C and D are left out when fixed, the channels no seed
    perturbs, holds them: they are exact zeros.  loop, when given, is
    _error_loop's.  Returns both worst residuals per seed (see _worst).
    """
    N = len(x_cur) - 1
    dx = x_nxt - x_cur
    tau = -cur.C @ dx
    if "C" not in fixed:
        tau -= (nxt.C - cur.C) @ x_nxt
    if "D" not in fixed:
        tau -= (nxt.D - cur.D) @ u_nxt
    tau += nxt.r - cur.r
    tau -= nxt.v - cur.v
    if loop is None:
        loop = _error_loop(cur.D, gain_seq)
    residual = e_nxt - loop @ e_cur - tau
    predicted = cur.A[:N] @ dx[:N]
    predicted += (nxt.A[:N] - cur.A[:N]) @ x_nxt[:N]
    predicted += cur.B[:N] @ (u_nxt[:N] - u_cur[:N])
    if "B" not in fixed:
        predicted += (nxt.B[:N] - cur.B[:N]) @ u_nxt[:N]
    predicted += nxt.w[:N] - cur.w[:N]
    return _worst(residual), _worst(dx[1:] - predicted)


def _input_residual(look_ahead: bool, cur: RealizedIteration, x: np.ndarray,
                    u_cur: np.ndarray, u_nxt: np.ndarray,
                    gain_seq: np.ndarray, loop=None) -> float:
    """Worst residual of one transition l -> l+1 of the input's own dynamics.

    Current-error modes: u_{l+1} = (I - Xi D_l) u_l + Xi (r_l - C_l x_l - v_l).
    Look-ahead modes eliminate e_l(k+1) through the one-step state update:
    u_{l+1}(k) = (I - Gamma C_l(k+1) B_l(k)) u_l(k)
    + Gamma [r_l(k+1) - C_l(k+1)(A_l(k) x_l(k) + w_l(k)) - v_l(k+1)]
    for k in 0..N-1, while the final input is never updated.  loop, when
    given, is _input_loop's.  Returns the worst residual per seed (see
    _worst).
    """
    N = len(u_cur) - 1
    if loop is None:
        loop = _input_loop(look_ahead, cur, u_cur, gain_seq)
    if look_ahead:
        drive = per_step(gain_seq, u_cur) @ (
            cur.r[1:] - cur.C[1:] @ (cur.A[:N] @ x[:N] + cur.w[:N]) - cur.v[1:])
        residual = u_nxt[:N] - loop @ u_cur[:N] - drive
        return np.maximum(_worst(residual), _worst(u_nxt[N:] - u_cur[N:]))
    drive = per_step(gain_seq, u_cur) @ (cur.r - cur.C @ x - cur.v)
    return _worst(u_nxt - loop @ u_cur - drive)


def _report(name: str, per_iteration: Sequence[float],
            state: Optional[Sequence[float]] = None) -> Optional[ResidualReport]:
    """The report of a run's transitions; None when it has none."""
    if not per_iteration:
        return None
    return ResidualReport(name=name, max_residual=max(per_iteration),
                          per_iteration=tuple(per_iteration),
                          max_state_residual=None if state is None else max(0.0, *state))


def _with_lane_axis(realized: RealizedIteration) -> RealizedIteration:
    """The realization viewed with a unit lane axis ahead of the seed axis;
    x0, (S or 1, n, 1), already broadcasts against it."""
    return realized._replace(**{name: getattr(realized, name)[:, None] for name in SCHEDULES})


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


def _stack_shapes(L: int, S: int) -> tuple:
    """The float64 arrays _learn allocates for L trials of S seeds given a
    sink: the E and U histories and three residuals."""
    return ((L, S),) * 2 + ((L - 1, S),) * 3


def _learn(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec],
           cfg: IlcConfig, law: Callable, counterpart: Optional[Callable] = None,
           sink: Optional[Callable] = None, gains: Optional[tuple] = None) -> RunResult | list:
    """The trial loop of both coordinate systems.

    unc is one UncertaintySpec, or a sequence of S of them (seeds) that run
    side by side; one spec runs as S = 1.  Every per-trial array carries
    the seed axis after the step axis, (N+1, S, rows, cols).  law(S) builds
    (report, gain_seq, u0, advance) for S seeds; advance(l, u, e)
    forms the input of trial l + 1 from trial l's input and tracking error.
    Trial l draws its realizations once, simulates them under the input u
    and forms the tracking error once, for the metrics, the checks of the
    transition from trial l - 1 against both recursions, and the update.
    Each finished trial goes to sink(Trial), or without a sink into the
    results' stacks.  The checks hold trial l - 1 on their own, so a run
    given a sink holds a fixed amount of signal data, whatever its length.
    A counterpart law shares that simulate call: its input rides beside u
    on a lane axis ahead of the seed axis, (N+1, 2, S, m, 1), over the
    realization viewed with a unit lane axis, and only its worst output gap
    to the main run is kept.  Returns a RunResult, or a list of them for a
    sequence.  A seed that blows up raises its NonFiniteError once every
    seed before it has finished, so the first failing seed in order is
    reported; within a trial, the main run's blow-up comes before the
    counterpart's.  The sink has then had every trial before it.
    """
    uncs = (unc,) if isinstance(unc, UncertaintySpec) else tuple(unc)
    if not uncs:
        raise IlcsetError("no uncertainty spec to run")
    for spec in uncs:
        violated = mode_premises(cfg.mode, sys.D, spec, gains)
        if violated:
            raise IlcsetError(violated[0])
    shape = np.shape(cfg.u0)
    if shape != (sys.N + 1, sys.m, 1):
        raise IlcsetError(f"initial input shape {shape}, expected {(sys.N + 1, sys.m, 1)}")
    S = len(uncs)
    report, gain_seq, u, advance = law(S)
    other = None if counterpart is None else counterpart(S)
    warnings = _precheck(report)
    # E and U run over the gain's steps k: e(k + shift) and u(k).
    steps = len(gain_seq)
    L, look_ahead = cfg.iterations, cfg.mode in GAMMA_MODES
    # Trial l's draws leave trial l - 1's, which the checks still read.
    plan = _draw_plan(sys, uncs)
    fixed = set(CHANNELS).difference(plan.stacks[0])
    error_loop = input_loop = None
    E_hist, U_hist, error_res, state_res, input_res = map(np.empty, _stack_shapes(L, S))
    signals = {}
    if sink is None:
        signals = {name: np.empty((L, sys.N + 1, S, rows, 1)) for name, rows in (
            ("inputs", sys.m), ("states", sys.n), ("outputs", sys.p), ("references", sys.p))}

        def sink(trial: Trial) -> None:
            for stack, signal in zip(signals.values(), trial[4:]):
                stack[trial.l] = signal
    faults = [None] * S
    if other is not None:
        gap, u_other, advance_other = np.zeros(S), other[2], other[3]
    # A seed that blew up runs on beside the others; its NonFiniteError, not
    # numpy's overflow warnings, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(L):
            realized = draw_trial(plan, l)
            if other is None:
                x, y = _simulate(realized, u, faults)
            else:
                x, y = _simulate(_with_lane_axis(realized), np.stack((u, u_other), axis=1),
                                 faults)
                x, y, y_other = x[:, 0], y[:, 0], y[:, 1]
                gap = np.maximum(gap, _worst(y - y_other))
            e = realized.r - y
            E_hist[l], U_hist[l] = _worst(e[sys.N + 1 - steps:]), _worst(u[:steps])
            residuals = None
            if l == 1:
                # A channel no spec perturbs is the same view in every trial,
                # so a loop matrix made only of such channels is formed once.
                if "D" in fixed:
                    error_loop = _error_loop(previous.D, gain_seq)
                if (fixed >= {"B", "C"}) if look_ahead else ("D" in fixed):
                    input_loop = _input_loop(look_ahead, previous, u, gain_seq)
            if l:
                residuals = (*_error_residuals(previous, realized, x_previous, x, e_previous,
                                               e, u_previous, u, gain_seq, fixed, error_loop),
                             _input_residual(look_ahead, previous, x_previous, u_previous,
                                             u, gain_seq, input_loop))
                error_res[l - 1], state_res[l - 1], input_res[l - 1] = residuals
            sink(Trial(l, E_hist[l], U_hist[l], residuals, u, x, y, realized.r))
            previous, x_previous, u_previous, e_previous = realized, x, u, e
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
                         final_input=u[:, s], converged_value=_converged_value(E),
                         gain_seq=gain_seq,
                         condition_report=report, warnings=warnings,
                         error_recursion=_report("error_recursion", error_res[:, s].tolist(),
                                                 state_res[:, s].tolist()),
                         input_recursion=_report("input_recursion",
                                                 input_res[:, s].tolist()),
                         equivalence_gap=None if other is None else float(gap[s]),
                         **{name: stack[:, :, s] for name, stack in signals.items()})

    results = [result(s) for s in range(S)]
    return results[0] if isinstance(unc, UncertaintySpec) else results


def _initial_input(cfg: IlcConfig, seeds: int) -> np.ndarray:
    """cfg.u0 as a float stack, repeated on a seed axis."""
    return np.repeat(np.asarray(cfg.u0, dtype=np.float64)[:, None], seeds, axis=1)


def _direct_law(sys: NominalSystem, gains: tuple, cfg: IlcConfig, seeds: int) -> tuple:
    """The update law in original input coordinates, with the mode's one
    gain of (Xi, Gamma) = gains."""
    look_ahead = int(cfg.mode in GAMMA_MODES)
    gain = gains[look_ahead]
    report = check_rho_cb_gamma(sys.B, sys.C, gain) if look_ahead else check_rho_dxi(sys.D, gain)
    gain_seq = gain.values[:sys.N + 1 - look_ahead]
    return (report, gain_seq, _initial_input(cfg, seeds),
            lambda l, u, e: update_input(u, e, gain_seq, look_ahead))


def _split_law(sys: NominalSystem, transform: InputTransform, cfg: IlcConfig,
               seeds: int) -> tuple:
    """The update law of the p active channels of the split input."""
    # Imported here, so that a direct run never loads the transform module.
    from .set_transform import assemble_input, split_input

    look_ahead = cfg.mode in GAMMA_MODES
    # The look-ahead family is defined on k in 0..N-1 and learns from e(k+1).
    active_steps = transform.steps
    shift = sys.N + 1 - active_steps
    if transform.kind != ("gamma" if look_ahead else "xi") or shift != look_ahead:
        raise IlcsetError(f"{cfg.mode} needs a " + (
            "state-coupled transform on k in 0..N-1" if look_ahead
            else "feedthrough-coupled transform on k in 0..N"))

    u0 = _initial_input(cfg, seeds)
    u1, frozen = split_input(transform, u0[:active_steps])
    tail = u0[active_steps:]

    def assemble(active: np.ndarray) -> np.ndarray:
        return np.concatenate([assemble_input(transform, active, frozen), tail])

    def advance(l, u, e):
        nonlocal u1
        u1 = update_input(u1, e, transform.gain_products, shift)
        return assemble(u1)

    return transform.report, transform.gain, assemble(u1), advance


def run(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec], gains: tuple,
        cfg: IlcConfig, counterpart: Optional[InputTransform] = None,
        sink: Optional[Callable] = None) -> RunResult | list:
    """Direct loop in original input coordinates.

    gains is (Xi, Gamma).  A u0 that is not (N+1, m, 1), or a violated
    mode premise (config.mode_premises), raises IlcsetError before any
    trial.  A violated contraction condition does not abort: its warning is
    kept in RunResult.warnings, so divergent configurations stay runnable.
    Numerical blow-up surfaces as NonFiniteError carrying the offending
    step and iteration.  Given a transform as counterpart, the
    split-coordinate loop runs beside it on the same draws.
    unc may also be a sequence of UncertaintySpecs (one per seed, say): they
    run side by side through the one loop, and a list of RunResults, one
    per spec in order, comes back.  Given a sink, each finished Trial goes
    to sink(trial) as it finishes, and the results keep no trial's signals.
    """
    return _learn(sys, unc, cfg, partial(_direct_law, sys, gains, cfg),
                  None if counterpart is None else partial(_split_law, sys, counterpart, cfg),
                  sink, gains)


def run_transformed(sys: NominalSystem, unc: UncertaintySpec | Sequence[UncertaintySpec],
                    transform: InputTransform, cfg: IlcConfig,
                    counterpart: Optional[tuple] = None,
                    sink: Optional[Callable] = None) -> RunResult | list:
    """Split-coordinate loop: update the p active channels only.

    The frozen channels keep their initial split values for the whole run;
    the applied input is reassembled through the closed-form inverse each
    iteration and drives the original uncertain plant.  The active update
    uses the collapsed square gain, so its loop matrix coincides with the
    direct one and the same contraction condition applies.  Given (Xi,
    Gamma) as counterpart, the direct loop runs beside it on the same draws.
    u0 and the premises are checked as in run, on the counterpart's gains.
    A sequence of specs as unc runs them side by side, and a sink takes
    each finished trial, as in run.
    """
    return _learn(sys, unc, cfg, partial(_split_law, sys, transform, cfg),
                  None if counterpart is None else partial(_direct_law, sys, counterpart, cfg),
                  sink, counterpart)


def _require_logged(result: RunResult) -> None:
    if result.iterations < 2 or result.inputs is None:
        raise IlcsetError("run must retain every trial's data, and at least two")


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
                                    e[l], e[l + 1], inputs[l], inputs[l + 1], result.gain_seq))
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
                              inputs[l], inputs[l + 1], result.gain_seq))
        for l in range(len(inputs) - 1)])


def limit_input(sys: NominalSystem, transform: InputTransform, u0,
                result: RunResult) -> np.ndarray:
    """Closed-form limit of the input in the uncertainty-free look-ahead case.

    Maps the converged active channels and the frozen share of the initial
    input back through the inverse; the claim is that this matches the
    empirically converged input.  The supplied run must have essentially
    vanished tracking error, otherwise its final input is not yet the limit.
    """
    from .set_transform import assemble_input, split_input  # see _split_law

    final_E = result.E_hist[-1]
    if final_E > CONVERGENCE_THRESHOLD:
        raise IlcsetError(f"final error {final_E:.3e} above {CONVERGENCE_THRESHOLD:.0e}")
    N = sys.N
    u1_inf = split_input(transform, result.final_input[:N])[0]
    u0 = np.asarray(u0, dtype=np.float64)
    _, frozen = split_input(transform, u0[:N])
    return np.concatenate([assemble_input(transform, u1_inf, frozen), u0[N:]])
