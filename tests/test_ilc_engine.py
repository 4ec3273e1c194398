"""Iteration-loop behaviour: exact scalar decay laws, equivalence of the
direct and split-coordinate runs, frozen channels, recursion residuals,
and the closed-form input limit."""

import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

import ilcset.conditions
import ilcset.ilc_engine
import ilcset.set_transform
from ilcset.config import CHANNELS, NominalSystem, StructuredD, UncertaintySpec, config_from_dict
from ilcset.errors import IlcsetError, NonFiniteError, SchemaError
from ilcset.ilc_engine import (
    IlcConfig,
    limit_input,
    realizations_for,
    run,
    run_transformed,
    update_input,
    verify_error_recursion,
    verify_input_recursion,
)
from ilcset.matrix_core import inf_norm
from ilcset.plant import simulate
from ilcset.presets import preset_config
from ilcset.schedule_lang import MatrixSchedule, build_schedule
from ilcset.set_transform import assemble_input, split_input
from test_golden import STRUCTURED_CONFIG


def tiny_system(A="0", B="0", C="0", D="1", w="0", v="0", r="1",
                x0=0.0, N=4) -> NominalSystem:
    build = lambda src: build_schedule([[src]], N)
    return NominalSystem(
        n=1, m=1, p=1, N=N, A=build(A), B=build(B), C=build(C), D=build(D),
        w=build(w), v=build(v), r=build(r), x0=np.array([[x0]]))


def const_gain(value, N):
    return MatrixSchedule.from_values(np.array([[float(value)]]), N)


def no_uncertainty():
    return UncertaintySpec(seed=0)


def test_update_input_hand_example():
    # Xi learns from the current error at every k in 0..N.
    xi = np.array([[[0.1]], [[0.3]]])
    u = [np.array([[1.0]]), np.array([[1.0]])]
    e = [np.array([[2.0]]), np.array([[3.0]])]
    out = update_input(u, e, xi)
    assert out[0][0, 0] == pytest.approx(1.0 + 0.1 * 2.0, abs=1e-15)
    assert out[1][0, 0] == pytest.approx(1.0 + 0.3 * 3.0, abs=1e-15)


def test_update_input_look_ahead_hand_example():
    # Gamma learns from the next-step error on k in 0..N-1; k = N has no
    # next-step error, so u(N) is left as it is, down to the sign of a zero.
    gamma = np.array([[[0.2]], [[0.5]]])
    u = np.array([[[1.0]], [[1.0]], [[-0.0]]])
    e = np.array([[[2.0]], [[3.0]], [[5.0]]])
    out = update_input(u, e, gamma, shift=1)
    assert out[0, 0, 0] == pytest.approx(1.0 + 0.2 * 3.0, abs=1e-15)
    assert out[1, 0, 0] == pytest.approx(1.0 + 0.5 * 5.0, abs=1e-15)
    assert out[2, 0, 0] == 0.0 and np.signbit(out[2, 0, 0])
    # The update returns a new input; the one it was given is unchanged.
    assert u[0, 0, 0] == 1.0 and u[1, 0, 0] == 1.0


def test_update_input_length_mismatch():
    gain = np.full((2, 1, 1), 0.1)
    for u, e, shift in (([np.zeros((1, 1))] * 2, [np.zeros((1, 1))] * 3, 0),
                        ([np.zeros((1, 1))] * 2, [np.zeros((1, 1))] * 2, 1),
                        ([np.zeros((1, 1))], [np.zeros((1, 1))] * 2, 0)):
        with pytest.raises(IlcsetError, match="input, gain and error sequences differ in length"):
            update_input(u, e, gain, shift)


def test_config_rejects_unknown_mode_and_bad_counts():
    u0 = tuple(np.zeros((3, 1, 1)))
    with pytest.raises(IlcsetError, match="unknown mode 'sideways'"):
        IlcConfig(mode="sideways", iterations=5, u0=u0)
    with pytest.raises(IlcsetError, match="iterations must be positive"):
        IlcConfig(mode="direct-xi", iterations=0, u0=u0)


@pytest.mark.parametrize("make_bad, message", [
    (lambda: UncertaintySpec(seed=0)._replace(seed=2 ** 64),
     r"seed must lie in \[0, 2\*\*64\), got 18446744073709551616"),
    (lambda: UncertaintySpec(seed=0)._replace(amp_D=-1.0), "amp_D must be finite and nonnegative"),
    (lambda: IlcConfig(mode="direct-xi", iterations=5, u0=np.zeros((5, 1, 1)))
     ._replace(mode="sideways"), "unknown mode 'sideways'"),
    (lambda: tiny_system(N=4)._replace(A=build_schedule([["0"]], 3)),  # horizon 3, not 4
     "A schedule horizon 3 != 4"),
    (lambda: tiny_system()._replace(D=build_schedule([["1", "0"]], 4)),  # (1, 2), not (1, 1)
     r"D schedule has shape \(1, 2\), expected \(1, 1\)"),
    (lambda: UncertaintySpec._make([0.0] * 8 + [None, -1]),
     r"seed must lie in \[0, 2\*\*64\), got -1"),
], ids=["seed", "amplitude", "mode", "horizon", "shape", "make"])
def test_records_check_their_fields_on_replace(make_bad, message):
    with pytest.raises(IlcsetError, match=message):
        make_bad()


def test_scalar_feedthrough_error_halves_exactly():
    # Pure feedthrough y = u with unit D and gain 0.5: the error contracts
    # by exactly one half per iteration and every value is a power of two,
    # so the histories are exact in floating point.
    sys = tiny_system(A="0", B="0", C="0", D="1", r="1", N=4)
    cfg = IlcConfig(mode="direct-xi", iterations=12,
                    u0=tuple(np.zeros((5, 1, 1))))
    result = run(sys, no_uncertainty(), (const_gain(0.5, 4), const_gain(0.0, 4)), cfg)
    assert result.E_hist == tuple(0.5 ** l for l in range(12))
    assert result.U_hist == tuple(1.0 - 0.5 ** l for l in range(12))
    assert result.converged_value == 0.5 ** 10
    assert result.condition_report.satisfied
    assert result.warnings == ()


def test_scalar_look_ahead_decay_exact():
    # One-step delay plant x(k+1) = u(k), y = x, gain 0.5 on the next-step
    # error: each time step is an independent loop contracting by 0.5.
    sys = tiny_system(A="0", B="1", C="1", D="0", r="1", N=4)
    cfg = IlcConfig(mode="direct-gamma", iterations=10,
                    u0=tuple(np.zeros((5, 1, 1))))
    result = run(sys, no_uncertainty(), (const_gain(0.0, 4), const_gain(0.5, 4)), cfg)
    assert result.E_hist == tuple(0.5 ** l for l in range(10))
    # The final input is outside the metric window and never updated.
    for l in range(10):
        assert result.inputs[l][4][0, 0] == 0.0


def test_look_ahead_metrics_skip_time_zero():
    # Reference hits only k = 0, which no input can influence when there is
    # no feedthrough; the error metric must therefore ignore it.
    sys = tiny_system(A="0", B="1", C="1", D="0",
                      r="5*(1-k)*(2-k)/2", N=2)
    cfg = IlcConfig(mode="direct-gamma", iterations=3,
                    u0=tuple(np.zeros((3, 1, 1))))
    result = run(sys, no_uncertainty(), (const_gain(0.0, 2), const_gain(0.5, 2)), cfg)
    assert result.references[0][0][0, 0] - result.outputs[0][0][0, 0] == 5.0
    assert result.E_hist[0] == 0.0

    cfg_xi = IlcConfig(mode="direct-xi", iterations=3,
                       u0=tuple(np.zeros((3, 1, 1))))
    res_xi = run(sys, no_uncertainty(), (const_gain(0.0, 2), const_gain(0.0, 2)),
                 cfg_xi)
    assert res_xi.E_hist[0] == 5.0


def test_divergent_gain_warns_and_blows_up():
    # Loop factor |1 - 4| = 3: the precheck flags it and the error grows
    # geometrically until the simulation reports non-finite values.
    sys = tiny_system(A="0", B="0", C="0", D="1", r="1", N=1)
    cfg = IlcConfig(mode="direct-xi", iterations=700,
                    u0=tuple(np.zeros((2, 1, 1))))
    with pytest.raises(NonFiniteError) as exc:
        run(sys, no_uncertainty(), (const_gain(-3.0, 1), const_gain(0.0, 1)), cfg)
    assert exc.value.iteration is not None
    assert exc.value.iteration > 400


def test_divergence_flagged_without_abort_when_finite():
    sys = tiny_system(A="0", B="0", C="0", D="1", r="1", N=1)
    cfg = IlcConfig(mode="direct-xi", iterations=30,
                    u0=tuple(np.zeros((2, 1, 1))))
    result = run(sys, no_uncertainty(), (const_gain(-3.0, 1), const_gain(0.0, 1)), cfg)
    assert not result.condition_report.satisfied
    assert len(result.warnings) == 1
    assert "diverge" in result.warnings[0]
    assert result.E_hist[-1] > 1e3


def _poisoned_law(law, poison):
    """law, with the input of trial l + 1 set to inf at step k for each
    (l, k) in poison: that trial's output blows up at k."""
    def build(seeds):
        *rest, advance = law(seeds)

        def advance_poisoned(l, u, e):
            u = advance(l, u, e)
            for k in (k for when, k in poison if when == l):
                u[k] = np.inf
            return u
        return (*rest, advance_poisoned)
    return build


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("main_poison, other_poison, expected", [
    ((), ((2, 4),), "output diverged (l=3, k=4)"),
    (((2, 4),), ((2, 1),), "output diverged (l=3, k=4)"),
    (((3, 1),), ((1, 4),), "output diverged (l=2, k=4)"),
], ids=["counterpart-only", "main-lane-first", "earlier-trial-first"])
def test_counterpart_lane_faults_in_loop_order(main_poison, other_poison, expected):
    # The main run and its counterpart share each trial's simulation.  A
    # blow-up in the counterpart alone is raised; within one trial the main
    # run's comes first, whatever its step, and an earlier trial beats both.
    sys = tiny_system(A="0", B="1", C="1", D="1", r="1", N=4)
    cfg = IlcConfig(mode="direct-xi", iterations=6, u0=np.zeros((5, 1, 1)))
    law = partial(ilcset.ilc_engine._direct_law, sys,
                  (const_gain(0.5, 4), const_gain(0.0, 4)), cfg)
    with pytest.raises(NonFiniteError) as err:
        ilcset.ilc_engine._learn(sys, no_uncertainty(), cfg, _poisoned_law(law, main_poison),
                                 counterpart=_poisoned_law(law, other_poison))
    assert str(err.value) == expected


def _output_gap(a, b):
    """Worst output difference between two runs, trial by trial."""
    return max(float(np.abs(ya - yb).max()) for ya, yb in zip(a.outputs, b.outputs))


def _check_counterparts(cfg, transform, mode, iterations=8):
    # Each mode runs in both coordinate systems, each side once as the main
    # run with the other as counterpart.  The gap the loop keeps must equal
    # the gap between two separate runs, and the counterpart must leave the
    # main run's record bit for bit as it is without one.
    engine = IlcConfig(mode=mode, iterations=iterations, u0=cfg.u0)
    gains = (cfg.xi, cfg.gamma)
    direct = run(cfg.system, cfg.uncertainty, gains, engine)
    split = run_transformed(cfg.system, cfg.uncertainty, transform, engine)
    for alone, other, paired in (
            (direct, split, run(cfg.system, cfg.uncertainty, gains, engine,
                                counterpart=transform)),
            (split, direct, run_transformed(cfg.system, cfg.uncertainty, transform,
                                            engine, counterpart=gains))):
        assert alone.equivalence_gap is None
        assert paired.equivalence_gap == _output_gap(alone, other)
        assert paired.equivalence_gap <= 1e-9
        assert paired.E_hist == alone.E_hist and paired.U_hist == alone.U_hist
        assert np.array_equal(paired.inputs, alone.inputs)
        assert paired.error_recursion == alone.error_recursion
        assert paired.input_recursion == alone.input_recursion
    assert np.abs(direct.inputs - split.inputs).max() <= 1e-9


def test_split_run_matches_direct_run_feedthrough(example1, q_example1):
    for mode in ("direct-xi", "transformed-xi"):
        _check_counterparts(example1, q_example1, mode)


def test_split_run_matches_direct_run_look_ahead(example2, example2_clean, p_example2):
    for cfg, mode in ((example2, "direct-gamma"), (example2, "transformed-gamma"),
                      (example2_clean, "repetitive")):
        _check_counterparts(cfg, p_example2, mode)


def _assert_side_by_side_is_alone(go, specs):
    # Each spec's record from one loop over all of them is bit for bit its
    # own run's, every stack and the gap included.
    side_by_side = go(specs)
    assert len(side_by_side) == len(specs)
    for spec, result in zip(specs, side_by_side):
        alone = go(spec)
        assert result.E_hist == alone.E_hist and result.U_hist == alone.U_hist
        for name in ("inputs", "states", "outputs", "references"):
            assert getattr(result, name).shape == getattr(alone, name).shape
            assert np.array_equal(getattr(result, name), getattr(alone, name)), name
        assert result.error_recursion == alone.error_recursion
        assert result.input_recursion == alone.input_recursion
        assert result.equivalence_gap == alone.equivalence_gap


# example1 perturbs every channel; example2 never B, C or D, whose shift
# terms and loop matrices the loop then leaves out or forms once.
@pytest.mark.parametrize("mode", ["direct-xi", "transformed-xi",
                                  "direct-gamma", "transformed-gamma"])
def test_specs_side_by_side_match_separate_runs(request, mode):
    # Three seeds through one loop, with a counterpart.
    cfg, transform = ((request.getfixturevalue("example1"), request.getfixturevalue("q_example1"))
                      if mode.endswith("xi") else
                      (request.getfixturevalue("example2"), request.getfixturevalue("p_example2")))
    engine = IlcConfig(mode=mode, iterations=5, u0=cfg.u0)
    gains = (cfg.xi, cfg.gamma)
    go = ((lambda unc: run(cfg.system, unc, gains, engine, counterpart=transform))
          if mode.startswith("direct") else
          (lambda unc: run_transformed(cfg.system, unc, transform, engine,
                                       counterpart=gains)))
    _assert_side_by_side_is_alone(go, [cfg.uncertainty._replace(seed=seed)
                                       for seed in (3, 4, 5)])


@pytest.mark.parametrize("mode", ["direct-gamma", "transformed-gamma"])
def test_batch_with_one_spec_perturbing_b_c_matches_separate_runs(example2, p_example2, mode):
    # Only the middle spec perturbs B and C (the look-ahead modes take no D
    # uncertainty): the batch draws them into its stacks and checks their
    # shift terms, while the outer specs alone leave those out.  Each run
    # alone reports what the after-the-fact checks find on a fresh draw
    # with the full formulas.
    cfg = example2
    engine = IlcConfig(mode=mode, iterations=6, u0=cfg.u0)
    specs = [cfg.uncertainty._replace(seed=3),
             cfg.uncertainty._replace(seed=4, amp_B=0.05, amp_C=0.05),
             cfg.uncertainty._replace(seed=5)]
    go = ((lambda unc: run(cfg.system, unc, (cfg.xi, cfg.gamma), engine))
          if mode == "direct-gamma" else
          (lambda unc: run_transformed(cfg.system, unc, p_example2, engine)))
    _assert_side_by_side_is_alone(go, specs)
    for spec in specs:
        alone = go(spec)
        reals = realizations_for(cfg.system, spec, 6)
        assert alone.error_recursion == verify_error_recursion(alone, reals)
        assert alone.input_recursion == verify_input_recursion(alone, reals)


def test_frozen_channels_bitwise_constant(monkeypatch, example1, q_example1,
                                          example2, example2_clean, p_example2):
    # Every frozen share a run hands to assemble_input is the split of u0,
    # bit for bit, in both transformed modes and the repetitive counterpart.
    shares = []

    def spy(transform, u1star, u2star):
        shares.append(u2star.copy())
        return assemble_input(transform, u1star, u2star)

    monkeypatch.setattr(ilcset.set_transform, "assemble_input", spy)
    for cfg, transform, mode in ((example1, q_example1, "transformed-xi"),
                                 (example2, p_example2, "transformed-gamma"),
                                 (example2_clean, p_example2, "repetitive")):
        shares.clear()
        result = run_transformed(cfg.system, cfg.uncertainty, transform,
                                 IlcConfig(mode=mode, iterations=6, u0=cfg.u0))
        steps = transform.steps
        # The loop carries a seed axis after the step axis, one seed here.
        frozen = split_input(transform, np.asarray(cfg.u0)[:steps, None])[1]
        assert len(shares) == 6
        for share in shares:
            assert np.array_equal(share, frozen)
        # The frozen share recomputed from the applied inputs agrees to roundoff.
        for l in range(6):
            _, u2 = split_input(transform, result.inputs[l][:steps])
            for k in range(steps):
                assert inf_norm(u2[k] - frozen[k, 0]) <= 1e-9


def test_recursion_residuals_small_with_uncertainty(example1):
    cfg = example1
    result = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                 IlcConfig(mode="direct-xi", iterations=6, u0=cfg.u0))
    reals = realizations_for(cfg.system, cfg.uncertainty, 6)
    err = verify_error_recursion(result, reals)
    assert err.max_residual <= 1e-8
    assert err.max_state_residual <= 1e-8
    inp = verify_input_recursion(result, reals)
    assert inp.max_residual <= 1e-8


def test_recursion_residuals_small_look_ahead(example2):
    cfg = example2
    result = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                 IlcConfig(mode="direct-gamma", iterations=6, u0=cfg.u0))
    reals = realizations_for(cfg.system, cfg.uncertainty, 6)
    assert verify_error_recursion(result, reals).max_residual <= 1e-8
    assert verify_input_recursion(result, reals).max_residual <= 1e-8


def test_recursion_residuals_small_split_runs(example1, example2,
                                              q_example1, p_example2):
    for cfg, transform, mode in ((example1, q_example1, "transformed-xi"),
                                 (example2, p_example2, "transformed-gamma")):
        result = run_transformed(cfg.system, cfg.uncertainty, transform,
                                 IlcConfig(mode=mode, iterations=5, u0=cfg.u0))
        reals = realizations_for(cfg.system, cfg.uncertainty, 5)
        assert verify_error_recursion(result, reals).max_residual <= 1e-8
        assert verify_input_recursion(result, reals).max_residual <= 1e-8


def test_verifiers_detect_tampered_data(example1):
    cfg = example1
    result = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                 IlcConfig(mode="direct-xi", iterations=4, u0=cfg.u0))
    tampered_inputs = list(list(seq) for seq in result.inputs)
    tampered_inputs[2][10] = tampered_inputs[2][10] + 0.5
    bad = result._replace(inputs=tuple(tuple(seq) for seq in tampered_inputs))
    reals = realizations_for(cfg.system, cfg.uncertainty, 4)
    assert verify_input_recursion(bad, reals).max_residual > 1e-3
    assert verify_error_recursion(bad, reals).max_state_residual > 1e-3


def test_verifiers_need_two_iterations(example1):
    cfg = example1
    result = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                 IlcConfig(mode="direct-xi", iterations=1, u0=cfg.u0))
    assert result.error_recursion is None and result.input_recursion is None
    with pytest.raises(IlcsetError, match="run must retain every trial's data, and at least two"):
        verify_error_recursion(result, realizations_for(cfg.system,
                                                        cfg.uncertainty, 1))


# (config fixture, mode, transform fixture or None for the direct loop);
# "structured" is the structured-D config of the golden cases.
RECURSION_RUNS = [
    ("example1", "direct-xi", None),
    ("example2", "direct-gamma", None),
    ("example1", "transformed-xi", "q_example1"),
    ("example2", "transformed-gamma", "p_example2"),
    ("example2_clean", "repetitive", None),
    ("example2_clean", "repetitive", "p_example2"),
    ("structured", "direct-xi", None),
]


@pytest.mark.parametrize("config, mode, transform", RECURSION_RUNS)
def test_run_reports_equal_checks_on_a_fresh_draw(request, config, mode, transform):
    # The residuals the run checks as it goes must be bit-equal to the
    # after-the-fact check against an independent re-draw of every
    # realization: the same realizations, paired the same way, for every
    # transition.
    if config == "structured":
        cfg = config_from_dict(STRUCTURED_CONFIG)
    else:
        cfg = request.getfixturevalue(config)
    engine = IlcConfig(mode=mode, iterations=12, u0=cfg.u0)
    if transform is None:
        result = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma), engine)
    else:
        result = run_transformed(cfg.system, cfg.uncertainty,
                                 request.getfixturevalue(transform), engine)
    reals = realizations_for(cfg.system, cfg.uncertainty, 12)
    assert len(result.error_recursion.per_iteration) == 11
    assert result.error_recursion == verify_error_recursion(result, reals)
    assert result.input_recursion == verify_input_recursion(result, reals)
    # The record itself: each trial's states and outputs are the simulation
    # of its input on the fresh draw, and its references are that draw's.
    for l, real in enumerate(reals):
        x, y = simulate(real, result.inputs[l])
        assert np.array_equal(result.states[l], x) and np.array_equal(result.outputs[l], y)
        assert np.array_equal(result.references[l], real.r)


@pytest.mark.parametrize("config, mode, transform",
                         [("example1", "transformed-xi", "q_example1"),
                          ("example2", "transformed-gamma", "p_example2")])
def test_split_run_reports_the_transforms_condition(monkeypatch, request, config, mode,
                                                    transform):
    # The builder checked the contraction condition; the split loop reports
    # that check and computes no spectral radius of its own.
    cfg, transform = request.getfixturevalue(config), request.getfixturevalue(transform)
    calls = []
    radii = ilcset.conditions.spectral_radii
    monkeypatch.setattr(ilcset.conditions, "spectral_radii",
                        lambda m: calls.append(m.shape) or radii(m))
    result = run_transformed(cfg.system, cfg.uncertainty, transform,
                             IlcConfig(mode=mode, iterations=2, u0=cfg.u0))
    assert result.condition_report is transform.report
    assert calls == []


def test_clean_run_decays_in_blocks(example1_clean):
    # The worst-case error is not monotone step to step (the state carries
    # transients along the time axis), but its 20-iteration block maxima
    # shrink strictly and the run ends two orders of magnitude down.
    cfg = example1_clean
    result = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                 IlcConfig(mode="direct-xi", iterations=140, u0=cfg.u0))
    E = np.array(result.E_hist)
    block_max = [E[lo:lo + 20].max() for lo in range(0, 140, 20)]
    assert all(a > b for a, b in zip(block_max, block_max[1:]))
    assert E[-1] < 0.01 * E[0]


def test_limit_input_matches_converged_run(example2_clean, p_example2):
    cfg = example2_clean
    result = run_transformed(cfg.system, cfg.uncertainty, p_example2,
                             IlcConfig(mode="transformed-gamma", iterations=250,
                                       u0=cfg.u0))
    assert result.E_hist[-1] <= 1e-9
    limit = limit_input(cfg.system, p_example2, cfg.u0, result)
    gap = max(inf_norm(limit[k] - result.final_input[k])
              for k in range(cfg.system.N + 1))
    assert gap <= 1e-6


def test_limit_input_from_direct_run(example2_clean, p_example2):
    cfg = example2_clean
    result = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                 IlcConfig(mode="direct-gamma", iterations=250, u0=cfg.u0))
    limit = limit_input(cfg.system, p_example2, cfg.u0, result)
    gap = max(inf_norm(limit[k] - result.final_input[k])
              for k in range(cfg.system.N + 1))
    assert gap <= 1e-6


def test_limit_input_needs_no_kept_trial(example2_clean, p_example2):
    # The final input is a field of its own, so the limit check reads the
    # same input whether or not the run kept any trial's signals.
    cfg = example2_clean
    engine = IlcConfig(mode="transformed-gamma", iterations=250, u0=cfg.u0)
    every, none = (run_transformed(cfg.system, cfg.uncertainty, p_example2, engine, sink=sink)
                   for sink in (None, lambda trial: None))
    assert len(every.inputs) == 250 and none.inputs is None
    assert np.array_equal(none.final_input, every.inputs[-1])
    assert np.array_equal(limit_input(cfg.system, p_example2, cfg.u0, none),
                          limit_input(cfg.system, p_example2, cfg.u0, every))


def test_kept_trials_are_rows_of_the_full_record(example1):
    # A sink is handed every trial in order, with the metrics, residuals
    # and signals that the runs keeping every trial record, seed s of a
    # side-by-side run on axis 1; the run given it keeps no signals.
    cfg = example1
    engine = IlcConfig(mode="direct-xi", iterations=12, u0=cfg.u0)
    specs = [cfg.uncertainty, cfg.uncertainty._replace(seed=7)]
    fulls = [run(cfg.system, unc, (cfg.xi, cfg.gamma), engine) for unc in specs]
    trials = []

    def sink(trial):
        trials.append(trial._replace(**{name: getattr(trial, name).copy()
                                        for name in ("u", "x", "y", "r")}))

    parts = run(cfg.system, specs, (cfg.xi, cfg.gamma), engine, sink=sink)
    assert [trial.l for trial in trials] == list(range(12))
    for s, (full, part) in enumerate(zip(fulls, parts)):
        assert part.inputs is part.states is part.outputs is part.references is None
        assert part.E_hist == full.E_hist and part.U_hist == full.U_hist
        assert part.error_recursion == full.error_recursion
        assert part.input_recursion == full.input_recursion
        assert np.array_equal(part.final_input, full.final_input)
        assert trials[0].residuals is None
        states = []
        for l, trial in enumerate(trials):
            assert (trial.E[s], trial.U[s]) == (full.E_hist[l], full.U_hist[l])
            if l:
                error, state, inputs = (residual[s] for residual in trial.residuals)
                assert error == full.error_recursion.per_iteration[l - 1]
                assert inputs == full.input_recursion.per_iteration[l - 1]
                states.append(state)
            for name, stack in (("u", full.inputs), ("x", full.states),
                                ("y", full.outputs), ("r", full.references)):
                assert np.array_equal(getattr(trial, name)[:, s], stack[l]), (name, l)
        assert max(states) == full.error_recursion.max_state_residual
        # The recursions can be re-checked only on every trial's record.
        with pytest.raises(IlcsetError, match="run must retain every trial's data"):
            verify_input_recursion(part, realizations_for(cfg.system, specs[s], 12))


def test_memory_kept_without_trials_does_not_grow_with_the_run(monkeypatch, example1):
    # The numpy bytes held when the last trial starts, at L = 3 and at
    # L = 30 with a sink, differ by the five (L, S) and (L-1, S) float64
    # histories alone: the recursion checks carry one trial.
    cfg, S = example1, 2
    seeds = [cfg.uncertainty._replace(seed=s) for s in range(S)]
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    draw = ilcset.ilc_engine.draw_trial

    def numpy_bytes():
        return sum(trace.size for trace in
                   tracemalloc.take_snapshot().filter_traces(numpy_only).traces)

    def held_at_last_trial(L):
        held = []

        def spy(plan, l):
            if l == L - 1:
                held.append(numpy_bytes())
            return draw(plan, l)

        monkeypatch.setattr(ilcset.ilc_engine, "draw_trial", spy)
        tracemalloc.start()
        try:
            before = numpy_bytes()
            run(cfg.system, seeds, (cfg.xi, cfg.gamma),
                IlcConfig(mode="direct-xi", iterations=L, u0=cfg.u0), sink=lambda trial: None)
        finally:
            tracemalloc.stop()
        return held[0] - before

    held_at_last_trial(3)  # numpy's and the draws' one-time set-up
    assert held_at_last_trial(30) - held_at_last_trial(3) == 5 * (30 - 3) * S * 8


def test_limit_input_rejects_unconverged(example2_clean, p_example2):
    cfg = example2_clean
    result = run_transformed(cfg.system, cfg.uncertainty, p_example2,
                             IlcConfig(mode="transformed-gamma", iterations=5,
                                       u0=cfg.u0))
    with pytest.raises(IlcsetError, match=r"final error \S+ above 1e-09"):
        limit_input(cfg.system, p_example2, cfg.u0, result)


def test_transform_kind_checked_against_mode(example1, example2,
                                             q_example1, p_example2):
    trials = []
    with pytest.raises(IlcsetError, match="transformed-xi needs a feedthrough-coupled transform"):
        run_transformed(example1.system, example1.uncertainty, p_example2,
                        IlcConfig(mode="transformed-xi", iterations=2,
                                  u0=example1.u0), sink=trials.append)
    with pytest.raises(IlcsetError, match="transformed-gamma needs a state-coupled transform "
                                          r"on k in 0\.\.N-1"):
        run_transformed(example2.system, example2.uncertainty, q_example1,
                        IlcConfig(mode="transformed-gamma", iterations=2,
                                  u0=example2.u0), sink=trials.append)
    assert trials == []


@pytest.mark.parametrize("plant, mode, transform, message", [
    ("example1", "direct-xi", "p_example2", "direct-xi needs a feedthrough-coupled transform"),
    ("example2", "direct-gamma", "q_example1",
     r"direct-gamma needs a state-coupled transform on k in 0\.\.N-1"),
])
def test_counterpart_kind_checked_against_mode(request, plant, mode, transform, message):
    cfg, transform = request.getfixturevalue(plant), request.getfixturevalue(transform)
    trials = []
    with pytest.raises(IlcsetError, match=message):
        run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
            IlcConfig(mode=mode, iterations=2, u0=cfg.u0), counterpart=transform,
            sink=trials.append)
    assert trials == []


@pytest.mark.parametrize("plant, mode, transform, unused", [
    ("example1", "direct-xi", None, "Gamma"),
    ("example2", "direct-gamma", None, "Xi"),
    ("example1", "transformed-xi", "q_example1", "Gamma"),
    ("example2", "transformed-gamma", "p_example2", "Xi"),
])
def test_nonzero_gain_of_the_unused_family_rejected(request, plant, mode, transform, unused):
    # Each run applies its mode's one gain, so a nonzero gain of the other
    # family, as main run or as counterpart, is refused in config's words
    # before any trial.
    cfg = request.getfixturevalue(plant)
    sys = cfg.system
    stray = MatrixSchedule.from_values(np.full((sys.m, sys.p), 0.1), sys.N)
    gains = (stray, cfg.gamma) if unused == "Xi" else (cfg.xi, stray)
    engine = IlcConfig(mode=mode, iterations=2, u0=cfg.u0)
    trials = []
    with pytest.raises(IlcsetError, match=f"^{mode} requires {unused} identically zero$"):
        if transform is None:
            run(sys, cfg.uncertainty, gains, engine, sink=trials.append)
        else:
            run_transformed(sys, cfg.uncertainty, request.getfixturevalue(transform), engine,
                            counterpart=gains, sink=trials.append)
    assert trials == []


def _assert_refused_as_config_refuses(doc, sys, unc, gains, transform):
    # The engine, given what doc describes, refuses before any trial with
    # the first /run/mode message config_from_dict gives for doc itself.
    with pytest.raises(SchemaError) as refused:
        config_from_dict(doc)
    assert refused.value.path == "/run/mode"
    expected = str(refused.value).removeprefix("/run/mode: ").split("; /run/mode: ")[0]
    mode = doc["run"]["mode"]
    engine = IlcConfig(mode=mode, iterations=2, u0=np.zeros((sys.N + 1, sys.m, 1)))
    trials = []
    with pytest.raises(IlcsetError) as err:
        if mode.startswith("transformed"):
            run_transformed(sys, unc, transform, engine, sink=trials.append)
        else:
            run(sys, unc, gains, engine, sink=trials.append)
    assert str(err.value) == expected
    assert trials == []


_D_GRID = [["0.1", "0", "0"], ["0", "0.1", "0"]]
_E_GRID, _F_GRID = [["1"], ["0"]], [["0.1", "0", "0"]]


@pytest.mark.parametrize("mode", ["direct-gamma", "transformed-gamma"])
@pytest.mark.parametrize("violation", ["amp_D", "structured_D", "nominal D"])
def test_look_ahead_runs_refuse_feedthrough_as_config_does(example2, p_example2, mode,
                                                           violation):
    # The look-ahead law assumes a feedthrough-free plant: no nominal D and
    # no D uncertainty, in either coordinate system.
    doc = preset_config("example2", iterations=2)
    doc["run"]["mode"] = mode
    sys, unc, N = example2.system, example2.uncertainty, example2.system.N
    if violation == "amp_D":
        doc["uncertainty"]["amplitudes"]["D"] = 0.05
        unc = unc._replace(amp_D=0.05)
    elif violation == "structured_D":
        doc["uncertainty"]["structured_D"] = {"E": _E_GRID, "F": _F_GRID}
        unc = unc._replace(structured_D=StructuredD(E=build_schedule(_E_GRID, N),
                                                    F=build_schedule(_F_GRID, N)))
    else:
        doc["system"]["D"] = _D_GRID
        sys = sys._replace(D=build_schedule(_D_GRID, N))
    _assert_refused_as_config_refuses(doc, sys, unc, (example2.xi, example2.gamma), p_example2)


@pytest.mark.parametrize("channel", CHANNELS)
def test_repetitive_runs_refuse_any_amplitude_as_config_does(example2_clean, channel):
    doc = preset_config("example2-clean", iterations=2)
    doc["run"]["mode"] = "repetitive"
    doc["uncertainty"]["amplitudes"] = {channel: 0.05}
    cfg = example2_clean
    _assert_refused_as_config_refuses(doc, cfg.system,
                                      cfg.uncertainty._replace(**{f"amp_{channel}": 0.05}),
                                      (cfg.xi, cfg.gamma), None)


@pytest.mark.parametrize("shape", [(101, 2, 1), (101, 3), (100, 3, 1)])
@pytest.mark.parametrize("split", [False, True])
def test_initial_input_of_the_wrong_shape_refused(example1, q_example1, shape, split):
    cfg = example1
    engine = IlcConfig(mode="transformed-xi" if split else "direct-xi", iterations=2,
                       u0=np.zeros(shape))
    trials = []
    with pytest.raises(IlcsetError, match=re.escape(f"initial input shape {shape}, "
                                                    "expected (101, 3, 1)")):
        if split:
            run_transformed(cfg.system, cfg.uncertainty, q_example1, engine,
                            sink=trials.append)
        else:
            run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma), engine, sink=trials.append)
    assert trials == []


def test_look_ahead_runs_never_update_the_final_input(p_example2):
    # u(N) drives nothing and e(N+1) does not exist: both look-ahead loops
    # hand it on untouched, down to the sign of a -0 cell.
    doc = preset_config("example2", iterations=3)
    doc["run"]["u0"] = [["-0"]] * 3
    cfg = config_from_dict(doc)
    N = cfg.system.N
    assert np.signbit(cfg.u0[N]).all()
    direct = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                 IlcConfig(mode="direct-gamma", iterations=3, u0=cfg.u0))
    split = run_transformed(cfg.system, cfg.uncertainty, p_example2,
                            IlcConfig(mode="transformed-gamma", iterations=3, u0=cfg.u0))
    assert np.signbit(direct.final_input[N]).all()
    assert np.array_equal(np.signbit(direct.final_input[N]), np.signbit(split.final_input[N]))
    assert direct.gain_seq.shape == split.gain_seq.shape == (N, 3, 2)


def test_transform_horizon_checked_against_plant(example1):
    # The right family, built on N = 98 for a plant with N = 100.
    cfg, N = example1, 98
    transform = ilcset.set_transform.build_q_transform(
        MatrixSchedule.from_values(cfg.system.D.values[0], N),
        MatrixSchedule.from_values(cfg.xi.values[0], N))
    trials = []
    with pytest.raises(IlcsetError, match=r"transformed-xi needs a feedthrough-coupled "
                                          r"transform on k in 0\.\.N$"):
        run_transformed(cfg.system, cfg.uncertainty, transform,
                        IlcConfig(mode="transformed-xi", iterations=2, u0=cfg.u0),
                        sink=trials.append)
    assert trials == []
