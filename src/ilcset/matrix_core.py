"""Dense real-matrix substrate.

A matrix is a 2-D float64 numpy array (row-major); vectors are (n, 1)
columns throughout the package.  Everything here is a pure function on
immutable inputs; no NaN/Inf is admitted into any operation.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSquareError,
    SingularError,
)

Mat = np.ndarray

PIVOT_RTOL = 1e-12        # pivot magnitude below PIVOT_RTOL * ||M||_inf => singular


def _require_square(m: Mat) -> None:
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NonSquareError(f"square matrix required, got shape {m.shape}")


def inf_norms(m: Mat) -> np.ndarray:
    """Maximum absolute row sum of each matrix in a (..., r, c) stack."""
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    return np.abs(m).sum(axis=-1).max(axis=-1)


def inf_norm(m: Mat) -> float:
    """Maximum absolute row sum."""
    return float(inf_norms(m))


def spectral_radii(m: Mat) -> np.ndarray:
    """Largest eigenvalue magnitude of each matrix in a (..., n, n) stack."""
    _require_square(m)
    if m.shape[-1] == 0:
        return np.zeros(m.shape[:-2])
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return np.max(np.abs(eigs), axis=-1)


def spectral_radius(m: Mat) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    if m.ndim != 2:
        raise NonSquareError(f"square matrix required, got shape {m.shape}")
    return float(spectral_radii(m))


def symmetric_eigvals(m: Mat) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix in a (..., n, n) stack
    (only the lower triangle is read)."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def spectral_norms(m: Mat) -> np.ndarray:
    """Largest singular value of each matrix in a (..., r, c) stack,
    sigma_max(m) = sqrt(rho(m^T m))."""
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    gram_eigs = symmetric_eigvals(np.swapaxes(m, -1, -2) @ m)
    return np.sqrt(np.maximum(gram_eigs[..., -1], 0.0))


def invert(m: Mat) -> Mat:
    """Inverse of each matrix in a (..., n, n) stack, by Gauss-Jordan
    elimination with partial pivoting.

    Every matrix goes through the same steps, column by column, as a
    one-matrix elimination would, so each inverse is bit-equal to
    inverting that matrix alone.  Raises SingularError when a pivot
    magnitude falls below PIVOT_RTOL * ||m||_inf; in a stack the error
    names the pivot of the first singular matrix in stack order.
    """
    _require_square(m)
    n = m.shape[-1]
    if n == 0:
        return np.zeros(m.shape)
    stack = m.reshape((-1, n, n))
    count = len(stack)
    threshold = PIVOT_RTOL * np.maximum(inf_norms(stack), np.finfo(np.float64).tiny)
    aug = np.concatenate([stack.astype(np.float64), np.broadcast_to(np.eye(n), stack.shape)],
                         axis=2)
    every = np.arange(count)
    singular = np.zeros(count, dtype=bool)
    bad_pivot = np.zeros(count)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(n):
            pivot_row = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
            pivot = aug[every, pivot_row, col]
            # A singular matrix's first small pivot is kept for the error;
            # its elimination runs on harmlessly, as the others need theirs.
            new = (np.abs(pivot) < threshold) & ~singular
            bad_pivot[new] = np.abs(pivot[new])
            singular |= new
            pivot_rows = aug[every, pivot_row]
            aug[every, pivot_row] = aug[:, col]
            aug[:, col] = pivot_rows
            aug[:, col] /= pivot[:, None]
            others = [r for r in range(n) if r != col]
            aug[:, others] -= aug[:, others, col][:, :, None] * aug[:, col][:, None, :]
    if singular.any():
        first = int(np.argmax(singular))
        raise SingularError(f"pivot {bad_pivot[first]:.3e} below threshold "
                            f"{threshold[first]:.3e}")
    return np.ascontiguousarray(aug[:, :, n:]).reshape(m.shape)


def block2x2(m11: Mat, m12: Mat, m21: Mat, m22: Mat) -> Mat:
    """Assemble [[m11, m12], [m21, m22]]; blocks may have zero rows/columns.

    Blocks may be stacks (..., rows, cols); the leading axes broadcast.
    """
    if m11.shape[-2] != m12.shape[-2] or m21.shape[-2] != m22.shape[-2]:
        raise DimensionMismatchError("block row heights do not match")
    if m11.shape[-1] != m21.shape[-1] or m12.shape[-1] != m22.shape[-1]:
        raise DimensionMismatchError("block column widths do not match")
    top = m11.shape[-2]
    left = m11.shape[-1]
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in (m11, m12, m21, m22)))
    out = np.empty(lead + (top + m21.shape[-2], left + m12.shape[-1]))
    out[..., :top, :left] = m11
    out[..., :top, left:] = m12
    out[..., top:, :left] = m21
    out[..., top:, left:] = m22
    return out
