"""Input-space transforms: block formulas, inverses, and squared systems."""

import numpy as np
import pytest

from ilcset.conditions import check_rho_cb_gamma, check_rho_dxi
from ilcset.errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    ModelMismatchError,
    RankDeficientError,
)
from ilcset.matrix_core import inf_norm, invert, spectral_radius
from ilcset.plant import UncertaintySpec, sample_iteration
from ilcset.schedule_lang import MatrixSchedule, build_schedule
from ilcset.set_transform import (
    assemble_input,
    build_p_transform,
    build_q_transform,
    select_nonsingular_block,
    split_input,
    apply_q_transform,
    apply_p_transform,
)


# --- column selection ------------------------------------------------------

def test_select_identity_block_untouched():
    perm, M1, M2 = select_nonsingular_block(np.hstack([np.eye(2), np.zeros((2, 1))]))
    assert list(perm) == [0, 1, 2]
    np.testing.assert_array_equal(M1, np.eye(2))
    np.testing.assert_array_equal(M2, np.zeros((2, 1)))


def test_select_forced_permutation():
    perm, M1, _ = select_nonsingular_block(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert list(perm) == [2, 1, 0]
    np.testing.assert_array_equal(M1, np.eye(2))


def test_select_on_benchmark_feedthrough(example1):
    # D(0) evaluated by hand: 1+0.1cos^2(0) = 1.1, 0.05cos(0) = 0.05,
    # 2+0.5sin(0) = 2, 0.4+0.1cos(0) = 0.5; leading block det = 2.2.
    d0 = example1.system.D.at(0)
    np.testing.assert_allclose(d0, [[1.1, 0.5, 0.05], [0.0, 2.0, 0.5]], atol=1e-12)
    perm, M1, _ = select_nonsingular_block(d0)
    assert list(perm) == [0, 1, 2]
    assert abs(np.linalg.det(M1) - 2.2) < 1e-12


def test_select_rejects_rank_deficient():
    with pytest.raises(RankDeficientError):
        select_nonsingular_block(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(RankDeficientError):
        select_nonsingular_block(np.zeros((2, 3)))


# --- transform construction ------------------------------------------------

def test_square_case_blocks():
    N = 3
    q = build_q_transform(MatrixSchedule.from_values(np.eye(2), N),
                          MatrixSchedule.from_values(0.5 * np.eye(2), N))
    for k in range(N + 1):
        np.testing.assert_allclose(q.T[k], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(q.Tinv[k], np.eye(2), atol=1e-12)
        assert q.T[k][:2, 2:].shape == (2, 0)
        assert q.T[k][2:, :2].shape == (0, 2)


def test_wide_case_closed_form_by_hand():
    # Coupling [2, 1] with gain [0.2; 0.1]: the product is 0.5, and the
    # closed-form blocks reduce to numbers checked on paper.
    N = 2
    q = build_q_transform(MatrixSchedule.from_values([[2.0, 1.0]], N),
                          MatrixSchedule.from_values([[0.2], [0.1]], N))
    for k in range(N + 1):
        np.testing.assert_allclose(q.T[k], [[2.0, 1.0], [-0.4, 0.8]], atol=1e-12)
        np.testing.assert_allclose(q.Tinv[k], [[0.4, -0.5], [0.2, 1.0]], atol=1e-12)
        np.testing.assert_allclose(q.T[k] @ q.Tinv[k], np.eye(2), atol=1e-12)


def test_second_kind_matches_first_kind_algebra():
    # Same numbers as above but realized through C(k+1)B(k).
    N = 2
    p = build_p_transform(
        B=MatrixSchedule.from_values([[2.0, 1.0]], N),
        C=MatrixSchedule.from_values([[1.0]], N),
        Gamma=MatrixSchedule.from_values([[0.2], [0.1]], N),
    )
    assert p.steps == N
    for k in range(N):
        np.testing.assert_allclose(p.T[k], [[2.0, 1.0], [-0.4, 0.8]], atol=1e-12)
        np.testing.assert_allclose(p.Tinv[k], [[0.4, -0.5], [0.2, 1.0]], atol=1e-12)


def test_benchmark_q_identity_residuals(q_example1):
    assert q_example1.steps == 101
    for k in range(101):
        assert list(q_example1.col_perm[k]) == [0, 1, 2]
        residual = inf_norm(q_example1.T[k] @ q_example1.Tinv[k] - np.eye(3))
        assert residual <= 1e-9


def test_benchmark_p_identity_residuals(p_example2):
    assert p_example2.steps == 100
    for k in range(100):
        residual = inf_norm(p_example2.T[k] @ p_example2.Tinv[k] - np.eye(3))
        assert residual <= 1e-9


def test_closed_form_inverse_vs_numeric(q_example1, p_example2):
    for transform in (q_example1, p_example2):
        for k in range(transform.steps):
            gap = inf_norm(transform.Tinv[k] - invert(transform.T[k]))
            assert gap <= 1e-8


def test_gain_annihilation(q_example1, p_example2):
    # Forward-transforming the gain leaves [coupling @ gain; 0]: the update
    # law touches only the first p channels.
    for transform in (q_example1, p_example2):
        p = transform.p
        for k in range(transform.steps):
            pushed = transform.T[k] @ transform.gain[k][transform.col_perm[k], :]
            assert inf_norm(pushed[:p, :] - transform.gain_products[k]) <= 1e-10
            assert inf_norm(pushed[p:, :]) <= 1e-10


def test_inverse_hat_bottom_right_is_exact_identity(q_example1, p_example2):
    for transform in (q_example1, p_example2):
        for k in range(transform.steps):
            p = transform.p
            assert np.array_equal(transform.Tinv[k][p:, p:], np.eye(transform.m - p))


def test_contraction_precondition_enforced():
    N = 1
    with pytest.raises(ConditionViolatedError) as err:
        build_q_transform(MatrixSchedule.from_values([[2.0, 1.0]], N),
                          MatrixSchedule.from_values([[0.0], [0.0]], N))
    assert err.value.k == 0
    assert err.value.value == pytest.approx(1.0, abs=1e-12)


def test_builders_keep_the_condition_they_checked(example1, example2, q_example1,
                                                  p_example2):
    want_q = check_rho_dxi(example1.system.D, example1.xi)
    want_p = check_rho_cb_gamma(example2.system.B, example2.system.C, example2.gamma)
    for got, want in ((q_example1.report, want_q), (p_example2.report, want_p)):
        assert got == want
        assert (np.array([v for _, v in got.per_k]).tobytes()
                == np.array([v for _, v in want.per_k]).tobytes())


def test_precondition_fails_at_the_first_violating_step():
    # rho(I - D Xi) = |0.5 - k|: 0.5, 0.5, 1.5, 2.5; the worst step is k = 3,
    # the first to fail k = 2.
    N = 3
    with pytest.raises(ConditionViolatedError) as err:
        build_q_transform(MatrixSchedule.from_values([[1.0, 0.5]], N),
                          build_schedule([["0.5+k"], ["0"]], N))
    assert (err.value.k, err.value.value) == (2, 1.5)
    assert str(err.value) == "feedthrough-gain contraction precondition fails: rho=1.5 at k=2"


def test_fixed_permutation_with_per_step_fallback():
    # The k=0 choice (first column) goes singular at k=1, forcing a
    # per-step permutation there.
    N = 1
    q = build_q_transform(build_schedule([["1-k", "1"]], N),
                          build_schedule([["0.5"], ["0.5"]], N))
    assert list(q.col_perm[0]) == [0, 1]
    assert list(q.col_perm[1]) == [1, 0]
    for k in range(2):
        np.testing.assert_allclose(q.T[k] @ q.Tinv[k], np.eye(2), atol=1e-12)


def test_conforming_shapes_required():
    N = 1
    with pytest.raises(DimensionMismatchError):
        build_q_transform(MatrixSchedule.from_values([[1.0, 0.0]], N),
                          MatrixSchedule.from_values([[1.0]], N))


# --- the existence-iff-rank dichotomy --------------------------------------

def test_rank_deficient_coupling_never_contracts():
    # With a row-rank-deficient coupling the product with any gain is
    # singular, pinning an eigenvalue of I - coupling @ gain at exactly 1.
    rng = np.random.default_rng(2024)
    row = rng.normal(size=(1, 3))
    D = np.vstack([row, 2.0 * row])  # rank 1 < p = 2
    worst = np.inf
    for _ in range(10_000):
        Xi = rng.uniform(-5.0, 5.0, size=(3, 2))
        worst = min(worst, spectral_radius(np.eye(2) - D @ Xi))
    assert worst >= 1.0 - 1e-9


def test_full_rank_coupling_always_admits_a_gain():
    rng = np.random.default_rng(7)
    for _ in range(50):
        D = rng.normal(size=(2, 4))
        Xi = 0.5 * D.T @ invert(D @ D.T)
        assert spectral_radius(np.eye(2) - D @ Xi) == pytest.approx(0.5, abs=1e-9)


# --- squared systems -------------------------------------------------------

def test_squared_feedthrough_is_identity_when_clean(example1_clean, q_example1):
    realized = sample_iteration(example1_clean.system, example1_clean.uncertainty, 0)
    ts = apply_q_transform(realized, q_example1, np.zeros((101, 3, 1)))
    for k in range(101):
        assert inf_norm(ts.Dstar[k] - np.eye(2)) <= 1e-9
        np.testing.assert_array_equal(ts.wstar[k], realized.w[k])
        np.testing.assert_array_equal(ts.vstar[k], realized.v[k])


def test_squared_feedthrough_shift_equals_pushed_delta(example1, q_example1):
    realized = sample_iteration(example1.system, example1.uncertainty, 4)
    ts = apply_q_transform(realized, q_example1, np.zeros((101, 3, 1)))
    for k in range(101):
        delta_D = realized.D[k] - example1.system.D.at(k)
        pushed = delta_D[:, q_example1.col_perm[k]] @ q_example1.active_columns[k]
        assert inf_norm((ts.Dstar[k] - np.eye(2)) - pushed) <= 1e-10


def test_initial_input_correction_two_routes(example1, q_example1):
    realized = sample_iteration(example1.system, example1.uncertainty, 1)
    rng = np.random.default_rng(3)
    u0 = [rng.normal(size=(3, 1)) for _ in range(101)]
    ts = apply_q_transform(realized, q_example1, u0)
    for k in range(0, 101, 10):
        perm = q_example1.col_perm[k]
        u0p = u0[k][perm, :]
        # Compact route: land in the frozen channels first, then map back.
        frozen = q_example1.T[k][2:, :] @ u0p
        back = q_example1.Tinv[k][:, 2:] @ frozen
        expected_w = realized.w[k] + realized.B[k][:, perm] @ back
        np.testing.assert_allclose(ts.wstar[k], expected_w, atol=1e-12)


def test_spectrum_agreement_under_squaring(example1, q_example1):
    # The three loop matrices I - gain_star @ Dstar, I - Dstar @ gain_star,
    # and I - D_l @ Xi share a spectrum.
    for l in (0, 3, 11):
        realized = sample_iteration(example1.system, example1.uncertainty, l)
        ts = apply_q_transform(realized, q_example1, np.zeros((101, 3, 1)))
        for k in (0, 17, 50, 100):
            gain_star = ts.gain_star[k]
            eigs = [
                np.sort_complex(np.linalg.eigvals(np.eye(2) - gain_star @ ts.Dstar[k])),
                np.sort_complex(np.linalg.eigvals(np.eye(2) - ts.Dstar[k] @ gain_star)),
                np.sort_complex(np.linalg.eigvals(
                    np.eye(2) - realized.D[k] @ example1.xi.at(k))),
            ]
            np.testing.assert_allclose(eigs[0], eigs[1], atol=1e-8)
            np.testing.assert_allclose(eigs[0], eigs[2], atol=1e-8)


def test_feedthrough_free_squaring_unit_coupling(example2, p_example2):
    realized = sample_iteration(example2.system, example2.uncertainty, 2)
    ts = apply_p_transform(realized, p_example2, np.zeros((101, 3, 1)))
    assert ts.Dstar is None
    for k in range(100):
        residual = inf_norm(example2.system.C.at(k + 1) @ ts.Bstar[k] - np.eye(2))
        assert residual <= 1e-9
        np.testing.assert_array_equal(ts.wstar[k], realized.w[k])


def test_feedthrough_free_loop_matrices_coincide(example2, p_example2):
    for k in range(100):
        coupling_star = p_example2.c_cache[k + 1] @ (
            p_example2.b_cache[k][:, p_example2.col_perm[k]] @ p_example2.active_columns[k])
        gain_star = p_example2.gain_products[k]
        direct = p_example2.coupling[k] @ p_example2.gain[k]
        a = np.eye(2) - gain_star @ coupling_star
        b = np.eye(2) - coupling_star @ gain_star
        c = np.eye(2) - direct
        assert inf_norm(a - b) <= 1e-9
        assert inf_norm(a - c) <= 1e-9


def test_scalar_chain_unit_coupling():
    N = 2
    p = build_p_transform(
        B=MatrixSchedule.from_values([[1.0]], N),
        C=MatrixSchedule.from_values([[1.0]], N),
        Gamma=MatrixSchedule.from_values([[0.8]], N),
    )
    sys_like = sample_iteration_scalar_chain(N)
    ts = apply_p_transform(sys_like, p, np.zeros((N + 1, 1, 1)))
    for k in range(N):
        assert ts.Bstar[k][0, 0] == pytest.approx(1.0, abs=1e-12)


def sample_iteration_scalar_chain(N):
    from ilcset.plant import NominalSystem
    zeros = MatrixSchedule.from_values([[0.0]], N)
    ones = MatrixSchedule.from_values([[1.0]], N)
    sys = NominalSystem(n=1, m=1, p=1, N=N, A=zeros, B=ones, C=ones, D=zeros,
                        w=zeros, v=zeros, r=zeros, x0=np.zeros((1, 1)))
    return sample_iteration(sys, UncertaintySpec(), 0)


def test_feedthrough_free_rejects_mismatched_plants(example1, example2, p_example2):
    noisy_b = UncertaintySpec(amp_B=0.01, seed=1)
    realized = sample_iteration(example2.system, noisy_b, 0)
    with pytest.raises(ModelMismatchError):
        apply_p_transform(realized, p_example2, np.zeros((101, 3, 1)))
    with_feedthrough = sample_iteration(example1.system, example1.uncertainty, 0)
    with pytest.raises(ModelMismatchError):
        apply_p_transform(with_feedthrough, p_example2, np.zeros((101, 3, 1)))


# --- split / assemble ------------------------------------------------------

def test_split_zero_input(q_example1):
    u1, u2 = split_input(q_example1, np.zeros((101, 3, 1)))
    np.testing.assert_array_equal(u1, np.zeros((101, 2, 1)))
    np.testing.assert_array_equal(u2, np.zeros((101, 1, 1)))


def test_split_by_hand():
    N = 1
    q = build_q_transform(MatrixSchedule.from_values([[2.0, 1.0]], N),
                          MatrixSchedule.from_values([[0.2], [0.1]], N))
    u1, u2 = split_input(q, np.ones((2, 2, 1)))
    assert u1[0, 0, 0] == pytest.approx(3.0, abs=1e-12)
    assert u2[0, 0, 0] == pytest.approx(0.4, abs=1e-12)


def test_split_square_case_has_empty_remainder():
    N = 1
    q = build_q_transform(MatrixSchedule.from_values(np.eye(2), N),
                          MatrixSchedule.from_values(0.5 * np.eye(2), N))
    u1, u2 = split_input(q, np.array([[[1.0], [2.0]]] * 2))
    assert u2.shape == (2, 0, 1)
    np.testing.assert_allclose(u1[0], [[1.0], [2.0]], atol=1e-12)


def test_split_assemble_round_trip(q_example1, p_example2):
    rng = np.random.default_rng(11)
    for transform in (q_example1, p_example2):
        u = rng.normal(size=(transform.steps, 3, 1))
        u1, u2 = split_input(transform, u)
        back = assemble_input(transform, u1, u2)
        np.testing.assert_allclose(back, u, atol=1e-10)
        # The stack matches the per-step matrices, permutation included.
        for k in (0, 13, transform.steps - 1):
            star = transform.T[k] @ u[k][transform.col_perm[k], :]
            np.testing.assert_allclose(np.vstack([u1[k], u2[k]]), star, atol=1e-12)


def test_split_rejects_wrong_stack_shape(q_example1):
    with pytest.raises(DimensionMismatchError):
        split_input(q_example1, np.zeros((3, 1)))
    with pytest.raises(DimensionMismatchError):
        assemble_input(q_example1, np.zeros((101, 2, 1)), np.zeros((101, 2, 1)))


def test_stacked_squaring_matches_per_step_products_exactly():
    # Four inputs, one output, a nonzero initial input and a permutation
    # that changes with k: the stacked products must round exactly as the
    # per-step matrix products they replace.
    N = 6
    q = build_q_transform(build_schedule([["1-k", "1", "0.3*sin(k)", "0.2"]], N),
                          build_schedule([["0"], ["0.5"], ["0.1"], ["0"]], N))
    assert len({tuple(perm) for perm in q.col_perm}) > 1
    sys = sample_iteration_wide_plant(N)
    realized = sample_iteration(sys, UncertaintySpec(amp_B=0.1, amp_w=0.1, seed=3), 2)
    rng = np.random.default_rng(8)
    u0 = rng.normal(size=(N + 1, 4, 1))
    ts = apply_q_transform(realized, q, u0)
    for k in range(N + 1):
        perm = q.col_perm[k]
        correction = q.frozen_mix[k] @ u0[k][perm, :]
        np.testing.assert_array_equal(ts.wstar[k],
                                      realized.w[k] + realized.B[k][:, perm] @ correction)
        np.testing.assert_array_equal(ts.Bstar[k],
                                      realized.B[k][:, perm] @ q.active_columns[k])
    u1, u2 = split_input(q, u0)
    np.testing.assert_allclose(assemble_input(q, u1, u2), u0, atol=1e-12)


def sample_iteration_wide_plant(N):
    from ilcset.plant import NominalSystem
    return NominalSystem(
        n=2, m=4, p=1, N=N,
        A=MatrixSchedule.from_values([[0.5, 0.1], [0.0, 0.3]], N),
        B=build_schedule([["1", "0.5", "cos(k)", "0.2"], ["0", "1", "0.3", "k"]], N),
        C=MatrixSchedule.from_values([[1.0, 0.0]], N),
        D=build_schedule([["1-k", "1", "0.3*sin(k)", "0.2"]], N),
        w=MatrixSchedule.from_values(np.zeros((2, 1)), N),
        v=MatrixSchedule.from_values([[0.0]], N),
        r=MatrixSchedule.from_values([[1.0]], N),
        x0=np.zeros((2, 1)))
