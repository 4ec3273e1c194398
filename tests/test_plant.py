"""Plant realization sampling and single-trial simulation."""

import concurrent.futures
import math
import sys

import numpy as np
import pytest

from ilcset.errors import DimensionMismatchError, NonFiniteError
from ilcset.matrix_core import spectral_norms
from ilcset.plant import (
    NominalSystem,
    StructuredD,
    UncertaintySpec,
    sample_iteration,
    simulate,
)
from ilcset.presets import build_preset
from ilcset.schedule_lang import MatrixSchedule, build_schedule


TAGS = {"A": 0, "B": 1, "C": 2, "D": 3, "w": 4, "v": 5, "r": 6, "x0": 7, "sigma": 8}
MASK64 = (1 << 64) - 1


def fresh_noise(seed, l, tag, count, shape):
    """Reference draw: uniform [-1, 1] from a new Philox keyed by (seed, l, tag)."""
    key = np.array([seed & MASK64, ((l << 8) | TAGS[tag]) & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).uniform(-1.0, 1.0,
                                                                  size=(count, *shape))


def sampled_sigma(sys, unc, l, k):
    """Per-step reference for the structured D contraction matrix at (l, k)."""
    s = unc.structured_D.E.cols
    raw = fresh_noise(unc.seed, l, "sigma", sys.N + 1, (s, s))[k]
    return raw / max(1.0, float(spectral_norms(raw)))


def scalar_system(a=0.5, b=1.0, c=1.0, d=0.0, w=0.0, v=0.0, r=0.0, x0=1.0, N=2):
    return NominalSystem(
        n=1, m=1, p=1, N=N,
        A=MatrixSchedule.from_values([[a]], N),
        B=MatrixSchedule.from_values([[b]], N),
        C=MatrixSchedule.from_values([[c]], N),
        D=MatrixSchedule.from_values([[d]], N),
        w=MatrixSchedule.from_values([[w]], N),
        v=MatrixSchedule.from_values([[v]], N),
        r=MatrixSchedule.from_values([[r]], N),
        x0=np.array([[x0]]),
    )


def test_zero_amplitudes_reproduce_nominal_exactly():
    cfg = build_preset("example1-clean")
    realized = sample_iteration(cfg.system, cfg.uncertainty, l=5)
    for k in range(cfg.system.N + 1):
        np.testing.assert_array_equal(realized.A[k], cfg.system.A.at(k))
        np.testing.assert_array_equal(realized.D[k], cfg.system.D.at(k))
        np.testing.assert_array_equal(realized.r[k], cfg.system.r.at(k))
    np.testing.assert_array_equal(realized.x0, cfg.system.x0)


def test_sampling_is_deterministic_in_seed_and_iteration():
    cfg = build_preset("example1", seed=123)
    a = sample_iteration(cfg.system, cfg.uncertainty, l=3)
    b = sample_iteration(cfg.system, cfg.uncertainty, l=3)
    for k in range(cfg.system.N + 1):
        assert a.A[k].tobytes() == b.A[k].tobytes()
        assert a.D[k].tobytes() == b.D[k].tobytes()
    assert a.x0.tobytes() == b.x0.tobytes()
    other = sample_iteration(cfg.system, cfg.uncertainty, l=4)
    assert a.A[0].tobytes() != other.A[0].tobytes()


def test_reference_perturbation_respects_amplitude():
    cfg = build_preset("example1", seed=9)
    amp = cfg.uncertainty.amp_r
    for l in range(20):
        realized = sample_iteration(cfg.system, cfg.uncertainty, l)
        for k in range(cfg.system.N + 1):
            delta = realized.r[k] - cfg.system.r.at(k)
            assert np.all(np.abs(delta) <= amp)


def test_all_delta_families_respect_bounds_over_many_draws():
    sys = scalar_system(N=3)
    unc = UncertaintySpec(amp_A=0.1, amp_B=0.2, amp_C=0.3, amp_D=0.4,
                          amp_w=0.5, amp_v=0.6, amp_r=0.7, amp_x0=0.8, seed=321)
    nominal = {"A": sys.A, "B": sys.B, "C": sys.C, "D": sys.D,
               "w": sys.w, "v": sys.v, "r": sys.r}
    amps = {"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4, "w": 0.5, "v": 0.6, "r": 0.7}
    saw_nonzero = dict.fromkeys(amps, False)
    for l in range(1000):
        realized = sample_iteration(sys, unc, l)
        for name, amp in amps.items():
            for k in range(sys.N + 1):
                delta = getattr(realized, name)[k] - nominal[name].at(k)
                assert np.all(np.abs(delta) <= amp)
                saw_nonzero[name] |= bool(np.any(delta != 0.0))
        assert np.all(np.abs(realized.x0 - sys.x0) <= 0.8)
    assert all(saw_nonzero.values())


def test_initial_state_shift_varies_with_iteration_only():
    cfg = build_preset("example1", seed=77)
    first = sample_iteration(cfg.system, cfg.uncertainty, l=0)
    again = sample_iteration(cfg.system, cfg.uncertainty, l=0)
    np.testing.assert_array_equal(first.x0, again.x0)
    assert first.x0.shape == (4, 1)
    assert np.any(first.x0 != cfg.system.x0)


def test_structured_sigma_is_contractive_and_consistent():
    N = 10
    sys = NominalSystem(
        n=2, m=3, p=2, N=N,
        A=MatrixSchedule.from_values(np.zeros((2, 2)), N),
        B=MatrixSchedule.from_values(np.zeros((2, 3)), N),
        C=MatrixSchedule.from_values(np.zeros((2, 2)), N),
        D=MatrixSchedule.from_values([[1.0, 0.5, 0.0], [0.0, 2.0, 0.4]], N),
        w=MatrixSchedule.from_values(np.zeros((2, 1)), N),
        v=MatrixSchedule.from_values(np.zeros((2, 1)), N),
        r=MatrixSchedule.from_values(np.zeros((2, 1)), N),
        x0=np.zeros((2, 1)),
    )
    structured = StructuredD(
        E=build_schedule([["0.1", "0"], ["0", "0.2"]], N),
        F=build_schedule([["1", "0", "0"], ["0", "1", "0.5"]], N),
    )
    unc = UncertaintySpec(structured_D=structured, seed=5)
    for l in range(30):
        realized = sample_iteration(sys, unc, l)
        for k in range(N + 1):
            sigma = sampled_sigma(sys, unc, l, k)
            assert spectral_norms(sigma) <= 1.0 + 1e-12
            expected = sys.D.at(k) + structured.E.at(k) @ sigma @ structured.F.at(k)
            np.testing.assert_allclose(realized.D[k], expected, atol=1e-15)


def every_tag_system(N=6):
    """A 2-state, 3-input, 2-output plant with every quantity perturbed, and
    the same plant with a structured perturbation of D (the sigma tag)."""
    rng = np.random.default_rng(8)
    grid = lambda rows, cols: MatrixSchedule.from_values(rng.normal(size=(rows, cols)), N)
    sys = NominalSystem(n=2, m=3, p=2, N=N, A=grid(2, 2), B=grid(2, 3), C=grid(2, 2),
                        D=grid(2, 3), w=grid(2, 1), v=grid(2, 1), r=grid(2, 1),
                        x0=rng.normal(size=(2, 1)))
    amps = dict(amp_A=0.1, amp_B=0.2, amp_C=0.3, amp_D=0.4, amp_w=0.5, amp_v=0.6,
                amp_r=0.7, amp_x0=0.8)
    structured = StructuredD(E=grid(2, 2), F=grid(2, 3))
    return sys, amps, structured


def expected_draw(sys, amps, structured, seed, l):
    """Every field of sample_iteration, from one fresh Philox per tag."""
    steps = sys.N + 1
    fields = {tag: getattr(sys, tag).values + amps[f"amp_{tag}"] * fresh_noise(
        seed, l, tag, steps, getattr(sys, tag).shape) for tag in "ABCDwvr"}
    if structured is not None:
        sigmas = fresh_noise(seed, l, "sigma", steps, (2, 2))
        sigmas = sigmas / np.maximum(1.0, spectral_norms(sigmas))[:, None, None]
        fields["D"] = sys.D.values + structured.E.values @ sigmas @ structured.F.values
    fields["x0"] = sys.x0 + amps["amp_x0"] * fresh_noise(seed, l, "x0", 1, (2, 1))[0]
    return fields


@pytest.mark.parametrize("seed", [0, 17, 2 ** 64 - 1])
@pytest.mark.parametrize("l", [0, 5, 2 ** 56 + 3], ids=["l=0", "l=5", "l-wraps-mask"])
@pytest.mark.parametrize("with_sigma", [False, True], ids=["amp-D", "structured-D"])
def test_each_tag_matches_a_fresh_philox_bit_for_bit(seed, l, with_sigma):
    # The one bit generator re-keyed per tag draws what a new Philox keyed
    # by (seed, l, tag) draws, including the last seed and an l whose key
    # wraps past 64 bits.
    sys, amps, structured = every_tag_system()
    structured = structured if with_sigma else None
    realized = sample_iteration(sys, UncertaintySpec(**amps, structured_D=structured,
                                                     seed=seed), l)
    for name, expected in expected_draw(sys, amps, structured, seed, l).items():
        assert np.array_equal(getattr(realized, name), expected), name


def test_draws_do_not_depend_on_call_order_or_threads():
    # Each call keys its own generator: interleaved calls, from one thread
    # or several, draw what each call draws alone.
    system, amps, structured = every_tag_system()
    keys = [(seed, l) for seed in (3, 4, 2 ** 64 - 1) for l in range(6)]

    def draw(key):
        seed, l = key
        unc = UncertaintySpec(**amps, structured_D=structured, seed=seed)
        realized = sample_iteration(system, unc, l)
        return [getattr(realized, name).tobytes() for name in ("A", "B", "C", "D", "w", "v",
                                                                "r", "x0")]

    alone = {key: draw(key) for key in keys}
    assert [draw(key) for key in reversed(keys)] == [alone[key] for key in reversed(keys)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            drawn = list(pool.map(draw, keys * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert drawn == [alone[key] for key in keys * 3]


def test_one_philox_per_sample_iteration(monkeypatch):
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    sys, amps, structured = every_tag_system()
    monkeypatch.setattr(np.random, "Philox", counting)
    for unc in (UncertaintySpec(**amps, seed=1),
                UncertaintySpec(**amps, structured_D=structured, seed=1)):
        built.clear()
        for l in range(4):
            sample_iteration(sys, unc, l)
        assert len(built) == 4


def test_structured_shape_conflict_raises():
    sys = scalar_system()
    structured = StructuredD(
        E=MatrixSchedule.from_values([[1.0, 0.0]], sys.N),
        F=MatrixSchedule.from_values([[1.0]], sys.N),
    )
    with pytest.raises(DimensionMismatchError):
        sample_iteration(sys, UncertaintySpec(structured_D=structured, seed=1), 0)


def test_simulate_zero_system_returns_reference_as_error():
    N = 4
    zeros = MatrixSchedule.from_values(np.zeros((1, 1)), N)
    sys = NominalSystem(n=1, m=1, p=1, N=N, A=zeros, B=zeros, C=zeros, D=zeros,
                        w=zeros, v=zeros,
                        r=MatrixSchedule.from_values([[2.0]], N),
                        x0=np.zeros((1, 1)))
    realized = sample_iteration(sys, UncertaintySpec(), 0)
    x, y = simulate(realized, np.zeros((N + 1, 1, 1)))
    for k in range(N + 1):
        assert x[k][0, 0] == 0.0
        assert y[k][0, 0] == 0.0
        assert (realized.r - y)[k][0, 0] == 2.0


def test_simulate_scalar_decay_by_hand():
    sys = scalar_system(a=0.5, x0=1.0, N=2)
    states, outputs = simulate(sample_iteration(sys, UncertaintySpec(), 0), np.zeros((3, 1, 1)))
    assert [x[0, 0] for x in states] == [1.0, 0.5, 0.25]
    assert [y[0, 0] for y in outputs] == [1.0, 0.5, 0.25]


def test_benchmark_trajectory_matches_independent_recursion():
    # The same recursion scripted from scratch on plain floats: schedules
    # re-derived from the published formulas, no package machinery.
    def A(k):
        return [[0.16, 0.0, 0.0, 0.0],
                [0.01 * math.exp(0.01 * k), -0.1, -0.08, 0.01 / (k + 2)],
                [0.0, 0.08, 0.0, 0.01 * math.cos(2 * k)],
                [-0.01 * k, 0.0, 0.0, -0.3]]

    def C(k):
        return [[2.0, 0.0, 0.1 * math.cos(0.1 * (k - 1)), 0.0],
                [0.2 * (k - 1), 2.0, 0.0, 0.1]]

    def w(k):
        return [0.8 * math.cos(0.1 * k), 0.6 * math.sin(0.3 * k),
                0.4 * math.cos(0.5 * k), 0.2 * math.sin(0.7 * k)]

    def v(k):
        return [0.2 * math.sin(0.4 * k), 0.5 * math.cos(0.6 * k)]

    x = [-1.0, 3.0, -2.0, 4.0]
    expected_y = []
    for k in range(101):
        Ck, vk = C(k), v(k)
        expected_y.append([sum(Ck[i][j] * x[j] for j in range(4)) + vk[i] for i in range(2)])
        if k < 100:
            Ak, wk = A(k), w(k)
            x = [sum(Ak[i][j] * x[j] for j in range(4)) + wk[i] for i in range(4)]

    cfg = build_preset("example1-clean")
    x, y = simulate(sample_iteration(cfg.system, cfg.uncertainty, 0), np.zeros((101, 3, 1)))
    for k in range(101):
        np.testing.assert_allclose(y[k][:, 0], expected_y[k], atol=1e-12)

    # Values pinned from the recursion's first verified run.
    np.testing.assert_allclose(
        x[100][:, 0],
        [-0.8540058041196521, -0.5730624050112123, 0.24074889533953742, 0.7289043065416032],
        atol=1e-12)
    np.testing.assert_allclose(
        y[100][:, 0], [-1.580396154917459, -18.458755791144956], atol=1e-12)
    peak = max(float(np.max(np.abs(y_k))) for y_k in y)
    assert peak == pytest.approx(18.94263103267792, abs=1e-12)


def test_superposition_of_forced_response():
    cfg = build_preset("example1", seed=5)
    realized = sample_iteration(cfg.system, cfg.uncertainty, l=2)
    rng = np.random.default_rng(0)
    u1 = [rng.normal(size=(3, 1)) for _ in range(101)]
    u2 = [rng.normal(size=(3, 1)) for _ in range(101)]
    u12 = [a + b for a, b in zip(u1, u2)]
    y0 = simulate(realized, np.zeros((101, 3, 1)))[1]
    f1 = [a - b for a, b in zip(simulate(realized, u1)[1], y0)]
    f2 = [a - b for a, b in zip(simulate(realized, u2)[1], y0)]
    f12 = [a - b for a, b in zip(simulate(realized, u12)[1], y0)]
    for k in range(101):
        np.testing.assert_allclose(f12[k], f1[k] + f2[k], atol=1e-9)


def test_batched_simulation_matches_per_step_recursion_exactly():
    # The per-step recursion in the order the model states it; the batched
    # products must round exactly as these do.
    cfg = build_preset("example1", seed=11)
    realized = sample_iteration(cfg.system, cfg.uncertainty, l=4)
    u = np.random.default_rng(2).normal(size=(101, 3, 1))
    states, outputs = simulate(realized, u)
    x = realized.x0
    for k in range(101):
        y = realized.C[k] @ x + realized.D[k] @ u[k] + realized.v[k]
        np.testing.assert_array_equal(states[k], x)
        np.testing.assert_array_equal(outputs[k], y)
        x = realized.A[k] @ x + realized.B[k] @ u[k] + realized.w[k]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_seed_axis_runs_each_trial_as_alone_and_reports_each_blow_up():
    # Three inputs side by side on one realization (a unit seed axis on
    # every field): each slice rounds as it would alone, and each trial's
    # blow-up is reported on its own while the others' values are kept.
    cfg = build_preset("example1", seed=11)
    realized = sample_iteration(cfg.system, cfg.uncertainty, l=4)
    batch = realized._replace(**{name: getattr(realized, name)[:, None]
                                 for name in "ABCDwvr"})
    u = np.random.default_rng(3).normal(size=(101, 3, 3, 1))
    alone = [simulate(realized, u[:, s]) for s in range(3)]
    x, y = simulate(batch, u)
    for s in range(3):
        assert np.array_equal(x[:, s], alone[s][0])
        assert np.array_equal(y[:, s], alone[s][1])
    u[40, 1] = np.inf
    u[10, 2] = np.inf
    with pytest.raises(NonFiniteError) as err:
        simulate(batch, u)
    assert [None if f is None else str(f) for f in err.value.faults] == [
        None, "output diverged (l=4, k=40)", "output diverged (l=4, k=10)"]
    assert err.value is err.value.faults[1]
    assert np.array_equal(err.value.trajectory[1][:, 0], alone[0][1])


def test_final_input_feeds_output_only():
    sys = scalar_system(a=0.5, b=1.0, c=1.0, d=2.0, x0=1.0, N=2)
    realized = sample_iteration(sys, UncertaintySpec(), 0)
    u = np.zeros((3, 1, 1))
    base_x, base_y = simulate(realized, u)
    u[2] = np.array([[1.0]])
    bumped_x, bumped_y = simulate(realized, u)
    assert np.array_equal(bumped_x, base_x)
    assert bumped_y[2][0, 0] == base_y[2][0, 0] + 2.0


def test_divergence_raises_non_finite_with_location():
    sys = scalar_system(a=1e200, x0=1.0, N=3)
    with pytest.raises(NonFiniteError) as err:
        simulate(sample_iteration(sys, UncertaintySpec(), 7), np.zeros((4, 1, 1)))
    assert err.value.k == 2
    assert err.value.iteration == 7


def test_output_divergence_reports_its_step():
    # A huge feedthrough at k = 2 only: y(2) overflows while every state
    # stays finite, so the output is blamed at that step.
    sys = scalar_system(a=0.5, x0=1.0, N=4)
    realized = sample_iteration(sys, UncertaintySpec(), 3)
    D = realized.D.copy()
    D[2] = 1e300
    u = np.zeros((5, 1, 1)) + 1e10
    with pytest.raises(NonFiniteError) as err:
        simulate(realized._replace(D=D), u)
    assert str(err.value).startswith("output diverged")
    assert err.value.k == 2
    assert err.value.iteration == 3


def test_state_is_blamed_before_the_output_of_the_same_step():
    # x(k+1) and y(k+1) both blow up; x(k+1) is computed first, so the
    # state is reported at k+1.
    sys = scalar_system(a=1e200, c=1.0, x0=1.0, N=3)
    with pytest.raises(NonFiniteError) as err:
        simulate(sample_iteration(sys, UncertaintySpec(), 5), np.zeros((4, 1, 1)))
    assert str(err.value).startswith("state diverged")
    assert err.value.k == 2
    assert err.value.iteration == 5


def test_simulate_checks_input_length():
    sys = scalar_system()
    with pytest.raises(DimensionMismatchError):
        simulate(sample_iteration(sys, UncertaintySpec(), 0), np.zeros((6, 1, 1)))


def test_negative_amplitude_rejected():
    with pytest.raises(DimensionMismatchError):
        UncertaintySpec(amp_A=-0.1)


def test_trajectory_error_definition():
    sys = scalar_system(c=1.0, r=3.0, x0=1.0, N=1)
    realized = sample_iteration(sys, UncertaintySpec(), 0)
    x, y = simulate(realized, np.zeros((2, 1, 1)))
    assert x.shape == y.shape == (2, 1, 1)
    assert (realized.r - y)[0][0, 0] == 3.0 - 1.0
