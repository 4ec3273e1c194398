"""Matrix substrate: frozen examples and cross-checked properties."""

import numpy as np
import pytest

from ilcset.errors import NoConvergenceError, NonSquareError, SingularError
from ilcset import matrix_core as mc


# ---------------------------------------------------------------------------
# Independent oracle: Gelfand's formula via repeated squaring.
#
# rho(M) = lim_K ||M^K||^(1/K).  Squaring t times reaches K = 2^t; per-step
# renormalization keeps entries in range and the scale factors are folded
# back in log space.  No eigenvalue solver is involved anywhere.
# ---------------------------------------------------------------------------

def rho_by_squaring(m, steps=48):
    work = np.array(m, dtype=np.float64)
    log_scale = 0.0
    for i in range(steps):
        nu = np.linalg.norm(work)
        if nu == 0.0:
            return 0.0
        log_scale += np.log(nu) / 2.0 ** i
        work = (work / nu) @ (work / nu)
    nu = np.linalg.norm(work)
    if nu == 0.0:
        return 0.0
    return float(np.exp(log_scale + np.log(nu) / 2.0 ** steps))


def test_inf_norm_frozen_values():
    assert mc.inf_norm(np.zeros((3, 3))) == 0.0
    assert mc.inf_norm(np.eye(4)) == 1.0
    assert mc.inf_norm(np.array([[1.0, -2.0], [3.0, 0.5]])) == 3.5


def test_inf_norm_rectangular():
    assert mc.inf_norm(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])) == 3.0


def test_spectral_radius_quadratic_formula_oracle():
    # Eigenvalues of [[0.5, 0.2], [0.1, 0.3]] by hand: trace 0.8, det 0.13,
    # largest root (0.8 + sqrt(0.64 - 0.52)) / 2.
    expected = (0.8 + np.sqrt(0.12)) / 2.0
    assert expected == pytest.approx(0.5732050807568877, abs=1e-15)
    got = mc.spectral_radius(np.array([[0.5, 0.2], [0.1, 0.3]]))
    assert got == pytest.approx(expected, abs=1e-12)


def test_spectral_radius_requires_square():
    with pytest.raises(NonSquareError):
        mc.spectral_radius(np.ones((2, 3)))


def test_spectral_radius_nilpotent_is_zero():
    m = np.array([[0.0, 5.0], [0.0, 0.0]])
    assert mc.spectral_radius(m) == pytest.approx(0.0, abs=1e-12)


def test_spectral_norm_frozen_values():
    assert mc.spectral_norms(np.diag([2.0, -3.0])) == pytest.approx(3.0, abs=1e-12)
    assert mc.spectral_norms(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_column_vector():
    v = np.array([[3.0], [4.0]])
    assert mc.spectral_norms(v) == pytest.approx(5.0, abs=1e-12)


def test_invert_hand_checked_2x2():
    m = np.array([[2.0, 1.0], [-0.4, 0.8]])
    # det = 1.6 + 0.4 = 2; adjugate / det done by hand.
    expected = np.array([[0.4, -0.5], [0.2, 1.0]])
    np.testing.assert_allclose(mc.invert(m), expected, atol=1e-12)


def test_invert_singular_raises():
    with pytest.raises(SingularError):
        mc.invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularError):
        mc.invert(np.zeros((3, 3)))


def test_invert_identity_residual_within_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = rng.uniform(-2.0, 2.0, size=(n, n)) + 0.5 * np.eye(n)
        if abs(np.linalg.det(m)) < 1e-6:
            continue
        res = mc.inf_norm(m @ mc.invert(m) - np.eye(n))
        assert res <= 1e-9


def test_spectral_radius_against_squaring_oracle():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        m = rng.uniform(-1.0, 1.0, size=(4, 4))
        assert mc.spectral_radius(m) == pytest.approx(rho_by_squaring(m), abs=1e-8)


def test_radius_bounded_by_norms():
    rng = np.random.default_rng(99)
    for _ in range(100):
        m = rng.normal(size=(5, 5))
        r = mc.spectral_radius(m)
        assert r <= mc.inf_norm(m) + 1e-12
        assert r <= mc.spectral_norms(m) + 1e-12


def test_radius_invariant_under_transpose():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.normal(size=(4, 4))
        assert mc.spectral_radius(m.T) == pytest.approx(mc.spectral_radius(m), abs=1e-9)


def test_double_inversion_round_trip():
    rng = np.random.default_rng(11)
    m = rng.uniform(-1.0, 1.0, size=(5, 5)) + np.eye(5)
    np.testing.assert_allclose(mc.invert(mc.invert(m)), m, atol=1e-8)


def test_block2x2_assembly():
    out = mc.block2x2(
        np.array([[1.0]]),
        np.array([[2.0, 3.0]]),
        np.array([[4.0], [5.0]]),
        np.array([[6.0, 7.0], [8.0, 9.0]]),
    )
    np.testing.assert_array_equal(
        out, np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 7.0], [5.0, 8.0, 9.0]])
    )


def test_block2x2_tolerates_empty_blocks():
    # A degenerate split (zero frozen channels) must still assemble.
    out = mc.block2x2(
        np.ones((2, 2)),
        np.zeros((2, 0)),
        np.zeros((0, 2)),
        np.zeros((0, 0)),
    )
    np.testing.assert_array_equal(out, np.ones((2, 2)))


def test_block2x2_assembles_stacks_with_broadcast_blocks():
    # A 2-D block broadcasts across the leading step axis of the others.
    rng = np.random.default_rng(5)
    m11, m12, m21 = (rng.normal(size=(4, 2, 2)), rng.normal(size=(4, 2, 1)),
                     rng.normal(size=(4, 1, 2)))
    out = mc.block2x2(m11, m12, m21, np.eye(1))
    assert out.shape == (4, 3, 3)
    for k in range(4):
        np.testing.assert_array_equal(out[k], mc.block2x2(m11[k], m12[k], m21[k], np.eye(1)))


def test_stacked_radii_and_norms_match_single_matrix_values_exactly():
    rng = np.random.default_rng(17)
    square = rng.normal(size=(30, 3, 3))
    wide = rng.normal(size=(30, 2, 3))
    radii = mc.spectral_radii(square)
    norms = mc.spectral_norms(wide)
    row_sums = mc.inf_norms(wide)
    for k in range(30):
        assert radii[k] == mc.spectral_radius(square[k])
        assert norms[k] == mc.spectral_norms(wide[k])
        assert row_sums[k] == mc.inf_norm(wide[k])
    with pytest.raises(NonSquareError):
        mc.spectral_radii(wide)


def test_symmetric_eigenvalue_failure_raises_no_convergence(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError):
        mc.symmetric_eigvals(np.eye(2))
    with pytest.raises(NoConvergenceError):
        mc.spectral_norms(np.ones((3, 2, 2)))


def invert_one_matrix(m):
    """The one-matrix Gauss-Jordan elimination that the stacked invert
    replaced, verbatim: the reference for its bits and its error text."""
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    threshold = mc.PIVOT_RTOL * max(mc.inf_norm(m), np.finfo(np.float64).tiny)
    aug = np.hstack([m.astype(np.float64, copy=True), np.eye(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) < threshold:
            raise SingularError(f"pivot {abs(pivot):.3e} below threshold {threshold:.3e}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        others = [r for r in range(n) if r != col]
        aug[others] -= np.outer(aug[others, col], aug[col])
    return aug[:, n:]


def test_stacked_invert_matches_one_matrix_elimination_exactly():
    rng = np.random.default_rng(2026)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        stack = rng.normal(size=(int(rng.integers(1, 12)), n, n))
        stack *= 10.0 ** rng.integers(-3, 4, size=(len(stack), 1, 1))
        got = mc.invert(stack)
        assert got.shape == stack.shape
        for k, m in enumerate(stack):
            assert got[k].tobytes() == np.ascontiguousarray(invert_one_matrix(m)).tobytes()


def test_stacked_invert_names_the_first_singular_matrix():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        stack = rng.normal(size=(8, n, n))
        # Singular members that fail at different elimination columns.
        for k in rng.choice(8, size=int(rng.integers(1, 4)), replace=False):
            col = int(rng.integers(1, n))
            stack[k, :, col] = stack[k, :, :col] @ rng.normal(size=col)
        if trial % 3 == 0:
            stack[int(rng.integers(8))] = 0.0
        messages = []
        for m in stack:
            try:
                invert_one_matrix(m)
            except SingularError as exc:
                messages.append(str(exc))
        assert messages
        with pytest.raises(SingularError) as exc:
            mc.invert(stack)
        assert str(exc.value) == messages[0]
    # Two small pivots that leave each other's columns untouched: the
    # error names the first one.
    with pytest.raises(SingularError) as exc:
        mc.invert(np.stack([np.eye(3), np.diag([1.0, 1e-15, 3e-15])]))
    assert str(exc.value) == "pivot 1.000e-15 below threshold 1.000e-12"


def test_stacked_invert_keeps_leading_axes():
    m = np.array([[2.0, 1.0], [-0.4, 0.8]])
    stack = np.broadcast_to(m, (3, 2, 2, 2))
    got = mc.invert(stack)
    assert got.shape == (3, 2, 2, 2)
    assert np.array_equal(got[2, 1], mc.invert(m))
    assert mc.invert(np.zeros((4, 0, 0))).shape == (4, 0, 0)
