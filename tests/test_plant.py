"""Plant realization sampling and single-trial simulation."""

import concurrent.futures
import math
import sys

import numpy as np
import pytest

from ilcset.config import (
    CHANNELS,
    SCHEDULES,
    NominalSystem,
    StructuredD,
    UncertaintySpec,
    config_from_dict,
)
from ilcset.errors import IlcsetError, NonFiniteError
from ilcset.ilc_engine import _with_lane_axis
from ilcset.matrix_core import spectral_norms
from ilcset.plant import _TAG, _draw_plan, draw_trial, sample_iteration, simulate
from ilcset.presets import build_preset
from ilcset.schedule_lang import MatrixSchedule, build_schedule
from test_golden import LONG_HORIZON_CONFIG


TAGS = {"A": 0, "B": 1, "C": 2, "D": 3, "w": 4, "v": 5, "r": 6, "x0": 7, "sigma": 8}
MASK64 = (1 << 64) - 1


def test_stream_tags_keep_their_values():
    # A tag is part of every draw's Philox key: renumbering one changes
    # every realization of that quantity.
    assert _TAG == TAGS
    assert CHANNELS == ("A", "B", "C", "D", "w", "v", "r", "x0")
    assert tuple(SCHEDULES) == CHANNELS[:-1]


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


def batch_draw(sys, specs, l):
    """Trial l of the specs side by side, as the trial loop draws it."""
    return draw_trial(_draw_plan(sys, specs), l)


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


def test_one_philox_per_thread(monkeypatch):
    # A thread builds one Philox, on its first draw, and re-keys it for every
    # draw after: at most one in this thread, which may have drawn before,
    # and exactly one in a new thread, over any number of calls.
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    sys, amps, structured = every_tag_system()
    monkeypatch.setattr(np.random, "Philox", counting)

    def draw_all():
        for unc in (UncertaintySpec(**amps, seed=1),
                    UncertaintySpec(**amps, structured_D=structured, seed=2)):
            for l in range(4):
                sample_iteration(sys, unc, l)

    draw_all()
    assert len(built) <= 1
    built.clear()
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(draw_all).result(timeout=60)
    assert len(built) == 1


def signed_zero_system():
    """every_tag_system's plants with a -0.0 cell in every nominal channel."""
    sys, amps, structured = every_tag_system()

    def signed(sched):
        grid = sched.values[0].copy()
        grid[0, 0] = -0.0
        return MatrixSchedule.from_values(grid, sys.N)

    x0 = sys.x0.copy()
    x0[0, 0] = -0.0
    sys = sys._replace(**{name: signed(getattr(sys, name)) for name in SCHEDULES}, x0=x0)
    return sys, amps, structured


def mixed_specs(amps, structured, S):
    """S specs, seeds 0 and 2**64 - 1 among them, each perturbing some
    channels that other seeds leave alone (one at amplitude -0.0), and a
    structured D on every third."""
    seeds = [0, 2 ** 64 - 1] + list(range(3, S + 1))
    specs = []
    for s in range(S):
        own = {name: amp if (s + i) % 3 else 0.0 for i, (name, amp) in enumerate(amps.items())}
        if s % 4 == 1:
            own["amp_v"] = -0.0
        specs.append(UncertaintySpec(**own, structured_D=structured if s % 3 == 2 else None,
                                     seed=seeds[s]))
    return specs


def fresh_draw(sys, unc, l):
    """One spec's realization, channel by channel, from one fresh Philox per
    tag: nominal + amp * noise where the spec perturbs a channel, else the
    nominal itself."""
    steps, fields = sys.N + 1, {}
    for name in CHANNELS:
        nominal = sys.x0 if name == "x0" else getattr(sys, name).values
        amp, sd = getattr(unc, f"amp_{name}"), unc.structured_D
        if name == "D" and sd is not None:
            sigmas = fresh_noise(unc.seed, l, "sigma", steps, (sd.E.cols, sd.E.cols))
            sigmas = sigmas / np.maximum(1.0, spectral_norms(sigmas))[:, None, None]
            fields[name] = nominal + sd.E.values @ sigmas @ sd.F.values
        elif amp:
            noise = fresh_noise(unc.seed, l, name, steps, nominal.shape[-2:])
            fields[name] = nominal + amp * (noise[0] if name == "x0" else noise)
        else:
            fields[name] = nominal
    return fields


def seed_field(realized, name, s, S):
    """Seed s's slice of a batch realization's field, (steps, rows, cols) or
    x0's (n, 1); a field with a unit seed axis is every seed's."""
    field = getattr(realized, name)
    return np.broadcast_to(field, field.shape[:-3] + (S,) + field.shape[-2:])[..., s, :, :]


def assert_batch_is_fresh(sys, specs, l, realized):
    for s, spec in enumerate(specs):
        for name, expected in fresh_draw(sys, spec, l).items():
            got = seed_field(realized, name, s, len(specs))
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), (s, name)


@pytest.mark.parametrize("S", [1, 4, 16])
@pytest.mark.parametrize("l", [0, 5, 2 ** 56 + 3], ids=["l=0", "l=5", "l-wraps-mask"])
def test_batch_draws_match_a_fresh_philox_per_seed_bit_for_bit(S, l):
    # The batch path draws each channel of all seeds into one scratch and
    # scales all seeds at once: bit for bit what a new Philox per (seed, l,
    # tag) draws.  A seed that leaves a channel alone, also at amplitude
    # -0.0, keeps its nominal's bits, -0.0 cells included.
    sys, amps, structured = signed_zero_system()
    assert all(np.signbit(getattr(sys, name).values[:, 0, 0]).all() for name in SCHEDULES)
    specs = mixed_specs(amps, structured, S)
    plan = _draw_plan(sys, specs)
    assert_batch_is_fresh(sys, specs, l, draw_trial(plan, l))
    # The plan's stacks are reused: a later trial on the same plan draws
    # what a fresh plan draws, and leaves the trial before it as it was.
    previous = draw_trial(plan, l + 1)
    assert_batch_is_fresh(sys, specs, l + 2, draw_trial(plan, l + 2))
    assert_batch_is_fresh(sys, specs, l + 1, previous)
    if S > 1:
        dead = seed_field(draw_trial(plan, l), "A", 0, S)
        assert np.signbit(dead[:, 0, 0]).all() and specs[0].amp_A == 0.0


@pytest.mark.parametrize("S", [1, 3])
def test_amp_d_beside_a_structured_d_is_not_drawn(S):
    # A structured D takes the place of its spec's amp_D: no seed draws D
    # noise for it, and D, like every other channel, is bit for bit the
    # same at amp_D 0 and 2e-4.
    sys, amps, structured = every_tag_system()
    drawn = {}
    for amp_D in (0.0, 2e-4):
        specs = [UncertaintySpec(**amps | {"amp_D": amp_D}, structured_D=structured, seed=s)
                 for s in range(S)]
        plan = _draw_plan(sys, specs)
        assert [seeds for name, seeds, _, _ in plan.channels if name == "D"] == [[None] * S]
        realized = draw_trial(plan, 3)
        drawn[amp_D] = {name: getattr(realized, name).tobytes() for name in CHANNELS}
    assert drawn[0.0] == drawn[2e-4]


def test_batch_draws_do_not_depend_on_call_order_or_threads():
    # Each batch call re-keys the thread's own generator: interleaved
    # calls on one plan, or on plans of several threads, draw what each
    # call draws alone.
    system, amps, structured = signed_zero_system()
    specs = mixed_specs(amps, structured, 4)
    keys = [(first, l) for first in (0, 2) for l in range(6)]

    def draw(key, plan=None):
        first, l = key
        realized = draw_trial(plan or _draw_plan(system, specs[first:]), l)
        return [getattr(realized, name).tobytes() for name in CHANNELS]

    alone = {key: draw(key) for key in keys}
    plans = {first: _draw_plan(system, specs[first:]) for first in (0, 2)}
    assert [draw(key, plans[key[0]]) for key in reversed(keys)] == [
        alone[key] for key in reversed(keys)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            drawn = list(pool.map(draw, keys * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert drawn == [alone[key] for key in keys * 3]


def test_one_philox_per_thread_on_the_batch_path(monkeypatch):
    # The batch path re-keys the thread's one Philox too: at most one built
    # in this thread, and exactly one in a new thread, over any number of
    # plans and trials.
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    sys, amps, structured = every_tag_system()
    monkeypatch.setattr(np.random, "Philox", counting)

    def draw_all():
        for S in (1, 4):
            plan = _draw_plan(sys, mixed_specs(amps, structured, S))
            for l in range(4):
                draw_trial(plan, l)

    draw_all()
    assert len(built) <= 1
    built.clear()
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(draw_all).result(timeout=60)
    assert len(built) == 1


def test_structured_shape_conflict_raises():
    sys = scalar_system()
    structured = StructuredD(
        E=MatrixSchedule.from_values([[1.0, 0.0]], sys.N),
        F=MatrixSchedule.from_values([[1.0]], sys.N),
    )
    with pytest.raises(IlcsetError, match=r"structured D blocks E\(1, 2\), F\(1, 1\) "
                                          r"do not match p=1, s=2, m=1"):
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


def stepwise(realized, u, index=()):
    """Reference: the states and outputs of one trial of a batch, by the
    recursion x = A[k] @ x + B[k] @ u[k] + w[k] on its 2-D per-step slices,
    in the order the model states it.  index picks the trial on the batch
    axes, which each field broadcasts over."""
    batch = np.broadcast_shapes(u.shape[1:-2], realized.x0.shape[:-2],
                                *(getattr(realized, name).shape[1:-2] for name in SCHEDULES))

    def trial(a):
        return np.broadcast_to(a, a.shape[:1] + batch + a.shape[-2:])[(slice(None),) + index]

    A, B, C, D, w, v = map(trial, (realized.A, realized.B, realized.C, realized.D,
                                   realized.w, realized.v))
    u = trial(u)
    x = np.broadcast_to(realized.x0, batch + realized.x0.shape[-2:])[index]
    states, outputs = [], []
    for k in range(realized.N + 1):
        states.append(x)
        outputs.append(C[k] @ x + D[k] @ u[k] + v[k])
        x = A[k] @ x + B[k] @ u[k] + w[k]
    return np.stack(states), np.stack(outputs)


def assert_trial_is_stepwise(realized, u, x, y, index=()):
    ref_x, ref_y = stepwise(realized, u, index)
    assert np.array_equal(x[(slice(None),) + index], ref_x)
    assert np.array_equal(y[(slice(None),) + index], ref_y)


def test_single_trial_in_the_loop_layout_is_the_stepwise_recursion():
    # The trial loop's S = 1 layout, (N+1, 1, rows, cols), at N = 1000 on
    # the long-horizon plant: the single-trial kernel (ndarray.dot on 2-D
    # step views, taken for C-contiguous A steps) over 1000 steps.
    cfg = config_from_dict(LONG_HORIZON_CONFIG)
    realized = batch_draw(cfg.system, [cfg.uncertainty._replace(seed=7)], 3)
    assert realized.A.shape == (1001, 1, 4, 4) and realized.A[0].flags.c_contiguous
    u = np.random.default_rng(5).normal(size=(1001, 1, 3, 1))
    x, y = simulate(realized, u)
    assert x.shape == (1001, 1, 4, 1)
    assert_trial_is_stepwise(realized, u, x, y, (0,))


def test_lanes_and_seeds_are_each_the_stepwise_recursion_alone():
    # The batch kernel (one matmul per step): _with_lane_axis's two lanes
    # share A and w, and four seeds each have their own A.  Every trial is
    # the recursion on its own slices and the single-trial kernel's result.
    cfg = build_preset("example1", seed=11)
    rng = np.random.default_rng(6)
    realized = batch_draw(cfg.system, [cfg.uncertainty], 2)
    lanes = _with_lane_axis(realized)
    u = rng.normal(size=(101, 2, 1, 3, 1))
    x, y = simulate(lanes, u)
    assert x.shape == (101, 2, 1, 4, 1)
    for lane in range(2):
        assert_trial_is_stepwise(lanes, u, x, y, (lane, 0))
        alone = simulate(realized, u[:, lane])
        assert np.array_equal(x[:, lane], alone[0]) and np.array_equal(y[:, lane], alone[1])

    specs = [cfg.uncertainty._replace(seed=seed) for seed in range(4)]
    seeds = batch_draw(cfg.system, specs, 2)
    assert seeds.A.shape == (101, 4, 4, 4)
    u = rng.normal(size=(101, 4, 3, 1))
    x, y = simulate(seeds, u)
    for s, spec in enumerate(specs):
        assert_trial_is_stepwise(seeds, u, x, y, (s,))
        alone = simulate(sample_iteration(cfg.system, spec, 2), u[:, s])
        assert np.array_equal(x[:, s], alone[0]) and np.array_equal(y[:, s], alone[1])


@pytest.mark.parametrize("layout", [
    np.asfortranarray,
    lambda A: np.ascontiguousarray(A.swapaxes(-1, -2)).swapaxes(-1, -2),
], ids=["fortran-stack", "fortran-steps"])
def test_non_contiguous_steps_are_the_stepwise_recursion(layout):
    # A Fortran-ordered copy of the whole A stack, and one whose every step
    # is Fortran-ordered: neither has C-contiguous steps, so both take the
    # batch kernel, which must still be the recursion on those operands.
    cfg = build_preset("example1", seed=11)
    realized = sample_iteration(cfg.system, cfg.uncertainty, 4)
    realized = realized._replace(A=layout(realized.A))
    assert not realized.A[0].flags.c_contiguous
    u = np.random.default_rng(7).normal(size=(101, 3, 1))
    x, y = simulate(realized, u)
    assert_trial_is_stepwise(realized, u, x, y)


@pytest.mark.parametrize("n", range(1, 9))
def test_dot_is_matmul_bit_for_bit(n):
    # The single-trial kernel's ndarray.dot(A, x, out) and the model's A @ x
    # reach the same BLAS product on C-contiguous (n, n) and (n, 1) operands.
    rng = np.random.default_rng(n)
    out = np.empty((n, 1))
    for _ in range(500):
        A, x = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4), rng.normal(size=(n, 1))
        np.ndarray.dot(A, x, out)
        assert np.array_equal(out, A @ x)


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
    with pytest.raises(IlcsetError, match="input sequence has 6 entries, expected 3"):
        simulate(sample_iteration(sys, UncertaintySpec(), 0), np.zeros((6, 1, 1)))


def test_negative_amplitude_rejected():
    with pytest.raises(IlcsetError, match="amp_A must be finite and nonnegative"):
        UncertaintySpec(amp_A=-0.1)


def test_trajectory_error_definition():
    sys = scalar_system(c=1.0, r=3.0, x0=1.0, N=1)
    realized = sample_iteration(sys, UncertaintySpec(), 0)
    x, y = simulate(realized, np.zeros((2, 1, 1)))
    assert x.shape == y.shape == (2, 1, 1)
    assert (realized.r - y)[0][0, 0] == 3.0 - 1.0
