"""The built-in benchmark configurations, pinned entry by entry.

The expected values are evaluated here with the math module directly —
independently of the expression language — at the probe steps 0, 1, 50,
and 100, plus a handful of frozen decimal literals."""

import json
import math

import numpy as np
import pytest

from ilcset.presets import (
    PRESET_NAMES,
    build_preset,
    preset_config,
)

PROBE_STEPS = (0, 1, 50, 100)
STOCK_AMPLITUDE = 0.0002  # the uncertainty level of the noisy presets


def expected_shared(k: int) -> dict:
    c, s, e = math.cos, math.sin, math.exp
    return {
        "A": [[0.16, 0, 0, 0],
              [0.01 * e(0.01 * k), -0.1, -0.08, 0.01 / (k + 2)],
              [0, 0.08, 0, 0.01 * c(2 * k)],
              [-0.01 * k, 0, 0, -0.3]],
        "B": [[0.5, 0, 0],
              [0, 0.8, -0.1 * k],
              [c(0.1 * k), 0, 0.5],
              [0, 4 + 5 * s(3 * k), 3 * k + 4]],
        "C": [[2, 0, 0.1 * c(0.1 * (k - 1)), 0],
              [0.2 * (k - 1), 2, 0, 0.1]],
        "w": [[0.8 * c(0.1 * k)], [0.6 * s(0.3 * k)],
              [0.4 * c(0.5 * k)], [0.2 * s(0.7 * k)]],
        "v": [[0.2 * s(0.4 * k)], [0.5 * c(0.6 * k)]],
        "r": [[20 * (k / 100) ** 2 * (1 - k / 100)],
              [3 * s(0.02 * math.pi * k)]],
    }


def expected_d(k: int):
    c, s = math.cos, math.sin
    return [[1 + 0.1 * c(0.1 * k) ** 2, 0.5, 0.05 * c(0.1 * k)],
            [0, 2 + 0.5 * s(3 * k), 0.4 + 0.1 * c(k)]]


def expected_xi(k: int):
    return [[0.25 + 0.1 * math.sin(0.1 * k), -0.1],
            [0, 0.15 + 0.1 * math.cos(3 * k) ** 2],
            [0, 0]]


def expected_gamma(k: int):
    return [[0.3 + 0.1 * math.sin(0.1 * k), 0],
            [0, 0.2 + 0.1 * math.cos(3 * k) ** 2],
            [0, 0]]


@pytest.mark.parametrize("k", PROBE_STEPS)
def test_shared_system_entries(k, example1):
    sysm = example1.system
    expected = expected_shared(k)
    for name in ("A", "B", "C", "w", "v", "r"):
        got = getattr(sysm, name).at(k)
        np.testing.assert_allclose(got, np.array(expected[name]), rtol=0,
                                   atol=1e-13, err_msg=f"{name} at k={k}")


@pytest.mark.parametrize("k", PROBE_STEPS)
def test_feedthrough_and_gains_entries(k, example1, example2):
    np.testing.assert_allclose(example1.system.D.at(k), np.array(expected_d(k)),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(example1.xi.at(k), np.array(expected_xi(k)),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(example2.gamma.at(k), np.array(expected_gamma(k)),
                               rtol=0, atol=1e-13)
    assert np.all(example2.system.D.at(k) == 0.0)
    assert np.all(example2.xi.at(k) == 0.0)
    assert np.all(example1.gamma.at(k) == 0.0)


def test_frozen_spot_values(example1):
    sysm = example1.system
    # Exact at k = 0: every trig argument vanishes.
    np.testing.assert_array_equal(
        sysm.D.at(0), np.array([[1.1, 0.5, 0.05], [0.0, 2.0, 0.5]]))
    np.testing.assert_array_equal(
        example1.xi.at(0), np.array([[0.25, -0.1], [0.0, 0.25], [0.0, 0.0]]))
    assert sysm.w.at(0)[0, 0] == 0.8
    assert sysm.v.at(0)[1, 0] == 0.5
    # Frozen decimals at other steps.
    assert sysm.A.at(100)[1, 0] == pytest.approx(0.027182818284590453, abs=1e-16)
    assert sysm.B.at(100)[3, 1] == pytest.approx(-0.9987791995057478, abs=1e-14)
    assert sysm.D.at(100)[0, 0] == pytest.approx(1.0704041030906697, abs=1e-14)
    assert sysm.C.at(0)[0, 2] == pytest.approx(0.09950041652780259, abs=1e-16)
    assert sysm.r.at(50)[0, 0] == 2.5
    assert sysm.B.at(100)[2, 0] == pytest.approx(math.cos(10.0), abs=1e-16)


def test_reference_peak_location(example1):
    r = example1.system.r
    peaks = [abs(r.at(k)).max() for k in range(101)]
    assert max(peaks) == 3.0
    assert int(np.argmax(peaks)) == 25  # the sine channel hits its crest


def test_dimensions_task_and_start(example1, example2):
    for cfg in (example1, example2):
        sysm = cfg.system
        assert (sysm.n, sysm.m, sysm.p, sysm.N) == (4, 3, 2, 100)
        np.testing.assert_array_equal(sysm.x0,
                                      np.array([[-1.0], [3.0], [-2.0], [4.0]]))
        assert len(cfg.u0) == 101
        assert all(np.all(u == 0.0) for u in cfg.u0)
    assert example1.mode == "direct-xi"
    assert example2.mode == "direct-gamma"


def test_uncertainty_amplitudes(example1, example2, example1_clean, example2_clean):
    unc1 = example1.uncertainty
    assert all(getattr(unc1, f"amp_{q}") == STOCK_AMPLITUDE
               for q in ("A", "B", "C", "D", "w", "v", "r", "x0"))
    unc2 = example2.uncertainty
    assert all(getattr(unc2, f"amp_{q}") == STOCK_AMPLITUDE
               for q in ("A", "w", "v", "r", "x0"))
    # The look-ahead benchmark keeps its input/output maps repetitive.
    assert unc2.amp_B == unc2.amp_C == unc2.amp_D == 0.0
    for clean in (example1_clean, example2_clean):
        assert all(getattr(clean.uncertainty, f"amp_{q}") == 0.0
                   for q in ("A", "B", "C", "D", "w", "v", "r", "x0"))
    assert unc1.seed == 42 and unc2.seed == 42


def test_seed_and_iteration_overrides():
    cfg = build_preset("example1", seed=7, iterations=10)
    assert cfg.uncertainty.seed == 7
    assert cfg.iterations == 10


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_overrides_change_only_the_values_given(name):
    # The documents alone hold the stock seed and trial count.
    stock = preset_config(name)
    assert stock["uncertainty"]["seed"] == 42 and stock["run"]["iterations"] == 300
    seeded = preset_config(name, seed=5)
    assert seeded["uncertainty"]["seed"] == 5 and seeded["run"]["iterations"] == 300
    shortened = preset_config(name, iterations=3)
    assert shortened["uncertainty"]["seed"] == 42 and shortened["run"]["iterations"] == 3
    assert shortened == {**stock, "run": {**stock["run"], "iterations": 3}}


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset_config("example3")


def test_preset_documents_are_plain_json():
    for name in PRESET_NAMES:
        doc = preset_config(name)
        # round-trips through the serializer unchanged
        assert json.loads(json.dumps(doc)) == doc
