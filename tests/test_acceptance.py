"""End-to-end gate: one test per delivered guarantee of the toolkit.

Every test prints the quantities it judges, so a verbose run doubles as a
numerical report.  Module-scoped fixtures share the expensive simulations:
the equivalence pairs (both benchmarks, 50 iterations), the robust runs
(300 iterations at two amplitudes) and the clean convergence runs.
"""

import math
import time

import numpy as np
import pytest

from ilcset import cli, ilc_engine
from ilcset.conditions import (
    check_lmi,
    check_rho_cb_gamma,
    check_rho_dxi,
    check_rho_gamma_cb,
    check_rho_xid,
)
from ilcset.ilc_engine import (
    IlcConfig,
    limit_input,
    realizations_for,
    run,
    run_transformed,
    verify_error_recursion,
    verify_input_recursion,
)
from ilcset.config import config_from_dict
from ilcset.matrix_core import inf_norm, spectral_norms
from ilcset.plant import sample_iteration, simulate
from ilcset.presets import preset_config
from ilcset.schedule_lang import MatrixSchedule
from ilcset.set_transform import assemble_input, build_p_transform, split_input


RECURSION_TOL = 1e-8


@pytest.fixture(scope="module")
def frozen_shares():
    """label -> (split of u0, every frozen share the split run of that label
    handed to assemble_input), filled by the fixtures that run them."""
    return {}


def _split_run(label, cfg, transform, mode, iterations, frozen_shares):
    """run_transformed, recording the frozen share of each assembled input."""
    shares = []

    def spy(t, u1star, u2star):
        shares.append(u2star.copy())
        return assemble_input(t, u1star, u2star)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilc_engine, "assemble_input", spy)
        result = run_transformed(cfg.system, cfg.uncertainty, transform,
                                 IlcConfig(mode=mode, iterations=iterations, u0=cfg.u0))
    # The loop carries a seed axis after the step axis, one seed here.
    u0 = np.asarray(cfg.u0)[:transform.steps, None]
    frozen_shares[label] = (split_input(transform, u0)[1], shares)
    return result


@pytest.fixture(scope="module")
def equivalence_runs(example1, example2, q_example1, p_example2, frozen_shares):
    """Direct/split pairs for both benchmarks: seed 42, 50 iterations."""
    start = time.perf_counter()
    pairs = {}
    for name, cfg, transform, direct_mode, split_mode in (
            ("example1", example1, q_example1, "direct-xi", "transformed-xi"),
            ("example2", example2, p_example2, "direct-gamma", "transformed-gamma")):
        direct = run(cfg.system, cfg.uncertainty, (cfg.xi, cfg.gamma),
                     IlcConfig(mode=direct_mode, iterations=50, u0=cfg.u0))
        split = _split_run(f"{name} split", cfg, transform, split_mode, 50, frozen_shares)
        pairs[name] = (cfg, direct, split)
    return pairs, time.perf_counter() - start


@pytest.fixture(scope="module")
def robust_runs(example1):
    """Uncertain benchmark at its stock amplitude and at one tenth of it."""
    full = run(example1.system, example1.uncertainty, (example1.xi, example1.gamma),
               IlcConfig(mode="direct-xi", iterations=300, u0=example1.u0))
    tenth_doc = preset_config("example1")
    tenth_doc["uncertainty"]["amplitudes"] = 0.00002
    tenth_cfg = config_from_dict(tenth_doc)
    tenth = run(tenth_cfg.system, tenth_cfg.uncertainty,
                (tenth_cfg.xi, tenth_cfg.gamma),
                IlcConfig(mode="direct-xi", iterations=300, u0=tenth_cfg.u0))
    return {"amplitude 2e-4": (example1, full), "amplitude 2e-5": (tenth_cfg, tenth)}


@pytest.fixture(scope="module")
def clean_runs(example1_clean, example2_clean, frozen_shares):
    """Noise-free runs: both benchmarks direct, plus the split run used to
    evaluate the limit-input formula."""
    transform = build_p_transform(example2_clean.system.B, example2_clean.system.C,
                                  example2_clean.gamma)
    out = {}
    start = time.perf_counter()
    out["example1-clean"] = (example1_clean, run(
        example1_clean.system, example1_clean.uncertainty,
        (example1_clean.xi, example1_clean.gamma),
        IlcConfig(mode="direct-xi", iterations=600, u0=example1_clean.u0)),
        time.perf_counter() - start)
    start = time.perf_counter()
    out["example2-clean"] = (example2_clean, run(
        example2_clean.system, example2_clean.uncertainty,
        (example2_clean.xi, example2_clean.gamma),
        IlcConfig(mode="direct-gamma", iterations=150, u0=example2_clean.u0)),
        time.perf_counter() - start)
    start = time.perf_counter()
    out["example2-clean split"] = (example2_clean, _split_run(
        "example2-clean split", example2_clean, transform, "transformed-gamma", 150,
        frozen_shares), time.perf_counter() - start)
    out["transform"] = transform
    return out


@pytest.fixture(scope="module")
def all_acceptance_runs(equivalence_runs, robust_runs, clean_runs):
    """Every (system, uncertainty, result) triple produced by this module."""
    pairs, _ = equivalence_runs
    runs = []
    for name, (cfg, direct, split) in pairs.items():
        runs.append((f"{name} direct", cfg.system, cfg.uncertainty, direct))
        runs.append((f"{name} split", cfg.system, cfg.uncertainty, split))
    for label, (cfg, result) in robust_runs.items():
        runs.append((f"example1 {label}", cfg.system, cfg.uncertainty, result))
    for label in ("example1-clean", "example2-clean", "example2-clean split"):
        cfg, result, _ = clean_runs[label]
        runs.append((label, cfg.system, cfg.uncertainty, result))
    return runs


def test_direct_and_transformed_outputs_agree(equivalence_runs):
    """Running the split loop through the inverse transform reproduces the
    direct loop's outputs on the uncertain plant, iteration by iteration."""
    pairs, elapsed = equivalence_runs
    for name, (cfg, direct, split) in pairs.items():
        gap = max(inf_norm(yd - yt)
                  for ld, lt in zip(direct.outputs, split.outputs)
                  for yd, yt in zip(ld, lt))
        print(f"{name}: max output gap over (l, k) = {gap:.3e}")
        assert gap <= 1e-9
    print(f"four 50-iteration runs in {elapsed:.2f} s")
    assert elapsed < 10.0


def test_frozen_channels_never_change_across_iterations(all_acceptance_runs,
                                                       frozen_shares):
    """The m - p frozen input channels of a split run stay bit-identical to
    the split of the initial input, with no tolerance: every input the run
    assembles gets exactly that frozen share."""
    seen = 0
    for label, _, _, result in all_acceptance_runs:
        if not result.mode.startswith("transformed"):
            continue
        seen += 1
        frozen, shares = frozen_shares[label]
        assert len(shares) == result.iterations
        for l, u2 in enumerate(shares):
            assert np.array_equal(u2, frozen), f"{label}: frozen channel moved at l={l}"
        print(f"{label}: {len(shares)} iterations frozen exactly")
    assert seen == 3


def test_closed_form_inverses_match(q_example1, p_example2):
    """The block-form inverse is a true inverse and agrees with a numeric one."""
    for transform in (q_example1, p_example2):
        identity_gap = max(
            inf_norm(transform.T[k] @ transform.Tinv[k] - np.eye(transform.m))
            for k in range(transform.steps))
        numeric_gap = max(
            inf_norm(transform.Tinv[k] - np.linalg.inv(transform.T[k]))
            for k in range(transform.steps))
        print(f"{transform.kind}: ||T Tinv - I|| = {identity_gap:.3e}, "
              f"closed-form vs numeric = {numeric_gap:.3e}")
        assert identity_gap <= 1e-9
        assert numeric_gap <= 1e-8


def test_output_side_conditions_hold_input_side_fail(example1, example2):
    """For both nonsquare benchmarks the p x p loop contracts at every step
    while the m x m companion is pinned at spectral radius one - the gap the
    input split exists to close."""
    dxi = check_rho_dxi(example1.system.D, example1.xi)
    assert dxi.satisfied
    assert all(v <= 0.9 for _, v in dxi.per_k)
    xid = check_rho_xid(example1.system.D, example1.xi)
    assert not xid.satisfied
    for k, v in xid.per_k:
        assert v >= 1.0 - 1e-8
        eigs = np.linalg.eigvals(
            np.eye(example1.system.m)
            - example1.xi.at(k) @ example1.system.D.at(k))
        assert min(abs(eigs - 1.0)) <= 1e-8
    print(f"example1: rho_dxi worst {dxi.worst:.6f}, rho_xid worst {xid.worst:.6f}")

    cbg = check_rho_cb_gamma(example2.system.B, example2.system.C, example2.gamma)
    assert cbg.satisfied
    assert len(cbg.per_k) == example2.system.N
    gcb = check_rho_gamma_cb(example2.system.B, example2.system.C, example2.gamma)
    assert not gcb.satisfied
    for k, v in gcb.per_k:
        assert v >= 1.0 - 1e-8
        eigs = np.linalg.eigvals(
            np.eye(example2.system.m)
            - example2.gamma.at(k) @ example2.system.C.at(k + 1)
            @ example2.system.B.at(k))
        assert min(abs(eigs - 1.0)) <= 1e-8
    print(f"example2: rho_cbgamma worst {cbg.worst:.6f}, "
          f"rho_gammacb worst {gcb.worst:.6f}")

    assert cli.main(["check", "--preset", "example1", "--require", "rho_dxi"]) == 0
    assert cli.main(["check", "--preset", "example1", "--require", "rho_xid"]) == 1
    assert cli.main(["check", "--preset", "example2", "--require", "rho_cbgamma"]) == 0
    assert cli.main(["check", "--preset", "example2", "--require", "rho_gammacb"]) == 1


def _lifted_plant(system):
    """The nominal trial as one linear map over the stacked time axis.

    Outputs stack y(0..N), p rows per step; inputs stack u(0..N), m per
    step.  G maps state injections into x(0..N) (the initial state, then
    one n-block per step) to the outputs, so y = H u + free with
    H = G blockdiag(B) shifted one step + blockdiag(D) and free the
    response to x0, w and v.
    """
    n, m, p, N = system.n, system.m, system.p, system.N
    G = np.zeros(((N + 1) * p, (N + 1) * n))
    for c in range(N + 1):
        phi = np.eye(n)  # transition from x(c) to x(k)
        for k in range(c, N + 1):
            G[k * p:(k + 1) * p, c * n:(c + 1) * n] = system.C.at(k) @ phi
            phi = system.A.at(k) @ phi
    H = np.zeros(((N + 1) * p, (N + 1) * m))
    for j in range(N + 1):
        H[j * p:(j + 1) * p, j * m:(j + 1) * m] = system.D.at(j)
        if j < N:
            H[:, j * m:(j + 1) * m] += G[:, (j + 1) * n:(j + 2) * n] @ system.B.at(j)
    injections = np.concatenate([system.x0] + [system.w.at(k) for k in range(N)])
    free = G @ injections + np.concatenate([system.v.at(k) for k in range(N + 1)])
    return G, H, free


def _predicted_error_rms(cfg, limit):
    """Per-entry stationary RMS of e_l(noisy) - e_l(clean), stacked like y.

    Linearised along the clean limit (x*, u*) of ``limit``, a fresh
    realization shifts the error by eps_l = G s_l + o_l, with state
    injections s_l = (dx0, dA(j) x*(j) + dB(j) u*(j) + dw(j) for j < N) and
    output shifts o_l(k) = dr(k) - dC(k) x*(k) - dD(k) u*(k) - dv(k).  Every
    delta entry is i.i.d. uniform on [-amp, amp] (plant.sample_iteration),
    variance amp^2 / 3.  The update u_{l+1} = u_l + L e_l then gives
    e_l = eps_l - sum_{j>=1} S^(j-1) M eps_{l-j} with M = H L, S = I - M,
    whose stationary covariance is cov(eps) + P, P = S P S^T + M cov(eps) M^T.
    Uses nominal matrices, amplitudes and the clean limit only.  Returns
    (with the loop, eps alone).
    """
    system, unc = cfg.system, cfg.uncertainty
    assert unc.structured_D is None
    n, m, p, N = system.n, system.m, system.p, system.N
    G, H, _ = _lifted_plant(system)
    x2 = np.array([np.sum(x ** 2) for x in limit.states[-1]])
    u2 = np.array([np.sum(u ** 2) for u in limit.final_input])
    state_var = np.concatenate([
        [unc.amp_x0 ** 2],
        (unc.amp_A ** 2 * x2 + unc.amp_B ** 2 * u2 + unc.amp_w ** 2)[:N]]) / 3
    output_var = (unc.amp_C ** 2 * x2 + unc.amp_D ** 2 * u2
                  + unc.amp_v ** 2 + unc.amp_r ** 2) / 3
    cov_eps = ((G * np.repeat(state_var, n)) @ G.T
               + np.diag(np.repeat(output_var, p)))
    L = np.zeros(((N + 1) * m, (N + 1) * p))
    for k in range(N + 1):
        L[k * m:(k + 1) * m, k * p:(k + 1) * p] = cfg.xi.at(k)
        if k < N:
            L[k * m:(k + 1) * m, (k + 1) * p:(k + 2) * p] = cfg.gamma.at(k)
    M = H @ L
    S = np.eye(len(M)) - M
    # Doubling: after i rounds P holds the first 2^i terms of the series.
    P = M @ cov_eps @ M.T
    power = S
    for _ in range(12):
        P = P + power @ P @ power.T
        power = power @ power
    assert np.abs(power).max() < 1e-12, "loop operator does not contract"
    return np.sqrt(np.diag(cov_eps + P)), np.sqrt(np.diag(cov_eps))


def test_lifted_plant_reproduces_simulate(example1_clean):
    """The lifted plant behind the predicted error floor reproduces
    plant.simulate on a random input, so the prediction cannot agree with
    the robust runs by accident."""
    system = example1_clean.system
    _, H, free = _lifted_plant(system)
    u = np.random.default_rng(11).standard_normal((system.N + 1, system.m, 1))
    _, y = simulate(sample_iteration(system, example1_clean.uncertainty, 0), list(u))
    gap = np.abs(H @ u.reshape(-1, 1) + free - np.concatenate(y)).max()
    print(f"lifted vs simulated output: max gap {gap:.3e}")
    assert gap <= 1e-9


def test_robust_runs_stay_bounded_and_shrink_with_amplitude(robust_runs, clean_runs):
    """Under the stock uncertainty the input stays bounded and the error
    settles at the floor the uncertainty predicts; shrinking the amplitude
    shrinks that floor in proportion."""
    _, full = robust_runs["amplitude 2e-4"]
    _, tenth = robust_runs["amplitude 2e-5"]
    tail = max(full.E_hist[-30:])
    u_early = max(full.U_hist[:10])
    u_peak = max(full.U_hist)
    print(f"amplitude 2e-4: final-30 error level {tail:.6f}, "
          f"input peak {u_peak:.3f} vs early bound {10.0 * u_early:.3f}")
    print(f"converged values: {full.converged_value:.6f} (2e-4) "
          f"vs {tenth.converged_value:.6f} (2e-5)")
    assert u_peak < 10.0 * u_early
    assert tenth.converged_value < full.converged_value
    # No learning law can cancel a realization it has not seen yet.  With
    # the input held at the clean limit u*, fresh realizations alone give a
    # final-30 level of 0.319 at amplitude 2e-4, 0.311 of it from A alone
    # (B 0.039, C 0.021, every other channel <= 0.005): dA multiplies
    # x4 ~ 97 (B(4,2) = 4 + 5 sin 3k drives it with u2 up to 10.4) and
    # C(2,1) = 0.2 (k - 1) reaches 19.8.  The loop adds a factor of only
    # 1.18 on top (worst-entry RMS 0.207 against 0.176 without it), and the
    # runs measure 0.206 against the predicted 0.207, so no correct loop
    # settles near a fixed level such as 0.05.  The checks below tie the
    # settled level to the floor the uncertainty predicts.
    _, clean, _ = clean_runs["example1-clean"]
    first = 50  # past the learning transient
    for label, (cfg, result) in robust_runs.items():
        predicted, eps_only = _predicted_error_rms(cfg, clean)
        sigma = predicted.max()
        errors = [run.references - run.outputs for run in (result, clean)]
        deviation = np.array([
            np.concatenate(errors[0][l]) - np.concatenate(errors[1][l])
            for l in range(first, result.iterations)])
        measured = np.sqrt(np.mean(deviation ** 2, axis=0)).max()
        # Band: the RMS averages n = 250 squared deviations.  For a
        # near-Gaussian series its relative standard error is
        # sqrt(sum_h rho_h^2 / (2 n)); the worst entry's lag correlations
        # under the loop (rho_1 = -0.10, rho_2 = -0.08, ...) give
        # sum_h rho_h^2 = 1.06, so the error is 4.6% and +-20% is about
        # four standard errors.  A floor 25% above the prediction fails.
        print(f"{label}: predicted worst-entry RMS {sigma:.4f} "
              f"(eps alone {eps_only.max():.4f}), measured {measured:.4f}")
        assert 0.8 * sigma <= measured <= 1.2 * sigma
        # Extreme-value factor for the final-30 level: linearised, each
        # deviation entry is a linear combination of independent uniform
        # draws, hence sub-Gaussian with its variance as proxy:
        # P(|d| > z sigma) <= 2 exp(-z^2 / 2).  A union bound over the
        # 30 trials x 202 entries puts the chance that any one exceeds
        # z sigma at 1e-3 for z = sqrt(2 ln(2 * 6060 / 1e-3)) = 5.71.  The
        # clean run's own residual error over those trials adds on top.
        tail = max(result.E_hist[-30:])
        samples = 30 * deviation.shape[1]
        factor = math.sqrt(2.0 * math.log(2.0 * samples / 1e-3))
        clean_tail = max(clean.E_hist[result.iterations - 30:result.iterations])
        print(f"{label}: final-30 level {tail:.6f} = {tail / sigma:.2f} sigma, "
              f"bound {clean_tail:.2e} + {factor:.2f} sigma")
        assert tail <= clean_tail + factor * sigma


def test_clean_presets_reach_perfect_tracking(clean_runs, example2_clean):
    """With every disturbance off the error drops below 1e-6 well inside
    1000 iterations, and the closed-form limit input matches the input the
    loop actually converged to."""
    for label in ("example1-clean", "example2-clean"):
        _, result, elapsed = clean_runs[label]
        first = next(l for l, e in enumerate(result.E_hist) if e < 1e-6)
        print(f"{label}: error < 1e-6 first at iteration {first} "
              f"(final {result.E_hist[-1]:.3e}, {elapsed:.2f} s)")
        assert first <= 1000
        assert result.E_hist[-1] < 1e-6
        assert elapsed < 30.0

    _, split_result, elapsed = clean_runs["example2-clean split"]
    assert elapsed < 30.0
    predicted = limit_input(example2_clean.system, clean_runs["transform"],
                            example2_clean.u0, split_result)
    gap = max(inf_norm(pk - uk)
              for pk, uk in zip(predicted, split_result.final_input))
    print(f"limit input vs converged input: max gap {gap:.3e}")
    assert gap <= 1e-6


def test_recursion_identities_hold_on_every_run(all_acceptance_runs):
    """The stored iterates of every run in this module satisfy the
    error-propagation and input-propagation identities to 1e-8."""
    for label, system, uncertainty, result in all_acceptance_runs:
        realizations = realizations_for(system, uncertainty, result.iterations)
        err = verify_error_recursion(result, realizations)
        inp = verify_input_recursion(result, realizations)
        print(f"{label}: error residual {err.max_residual:.3e}, "
              f"state residual {err.max_state_residual:.3e}, "
              f"input residual {inp.max_residual:.3e}")
        assert err.max_residual <= RECURSION_TOL
        assert err.max_state_residual <= RECURSION_TOL
        assert inp.max_residual <= RECURSION_TOL


def test_lmi_verdict_matches_spectral_norm_test():
    """With no structure the feasibility check must coincide with the plain
    spectral-norm test, and with small structure a pass must imply the
    unstructured contraction condition (necessity)."""
    rng = np.random.default_rng(733)
    verdicts = []
    lmi_passes = 0
    for trial in range(50):
        p = int(rng.integers(1, 4))
        m = p if trial % 2 == 0 else p + int(rng.integers(1, 3))
        D = rng.uniform(-1.0, 1.0, (p, m))
        if trial % 4 < 2:
            Xi = rng.uniform(0.2, 1.8) * np.linalg.pinv(D)
        else:
            Xi = rng.uniform(-1.0, 1.0, (m, p))
        Ds = MatrixSchedule.from_values(D, 1)
        Xis = MatrixSchedule.from_values(Xi, 1)
        direct = spectral_norms(np.eye(p) - D @ Xi) < 1.0
        report = check_lmi(Ds, Xis,
                           MatrixSchedule.from_values(np.zeros((p, 1)), 1),
                           MatrixSchedule.from_values(np.zeros((1, m)), 1))
        assert report.satisfied == direct, (
            f"trial {trial}: verdict {report.satisfied} vs "
            f"spectral norm test {direct}")
        verdicts.append(direct)

        s = 1 + trial % 2
        structured = check_lmi(
            Ds, Xis,
            MatrixSchedule.from_values(rng.uniform(-0.05, 0.05, (p, s)), 1),
            MatrixSchedule.from_values(rng.uniform(-0.05, 0.05, (s, m)), 1))
        if structured.satisfied:
            lmi_passes += 1
            assert check_rho_dxi(Ds, Xis).satisfied
    print(f"verdicts: {sum(verdicts)} pass / {50 - sum(verdicts)} fail; "
          f"{lmi_passes} structured passes checked for necessity")
    assert any(verdicts) and not all(verdicts)
    assert lmi_passes >= 5


def test_cli_metrics_are_byte_identical(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    for out in (first, second):
        status = cli.main(["run", "--preset", "example1", "--seed", "7",
                           "--iterations", "100", "--out", str(out)])
        assert status == 0
    assert first.read_bytes() == second.read_bytes()
    print(f"{len(first.read_bytes())} CSV bytes reproduced exactly")
