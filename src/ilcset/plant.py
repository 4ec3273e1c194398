"""Uncertain discrete LTV plant: realization sampling and trial simulation.

A trial applies the state/output recursion

    x(k+1) = A_l(k) x(k) + B_l(k) u(k) + w_l(k)
    y(k)   = C_l(k) x(k) + D_l(k) u(k) + v_l(k)

over k in 0..N, where every quantity splits into a repetitive nominal part
plus a bounded nonrepetitive perturbation resampled each iteration l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .matrix_core import Mat, spectral_norms
from .schedule_lang import MatrixSchedule

_MASK64 = (1 << 64) - 1

# Stable stream tags: each perturbed quantity owns one substream per iteration.
_TAG = {"A": 0, "B": 1, "C": 2, "D": 3, "w": 4, "v": 5, "r": 6, "x0": 7, "sigma": 8}


@dataclass(frozen=True)
class NominalSystem:
    """Repetitive (iteration-independent) part of the plant and task."""

    n: int
    m: int
    p: int
    N: int
    A: MatrixSchedule
    B: MatrixSchedule
    C: MatrixSchedule
    D: MatrixSchedule
    w: MatrixSchedule
    v: MatrixSchedule
    r: MatrixSchedule
    x0: Mat

    def __post_init__(self):
        n, m, p = self.n, self.m, self.p
        expected = {
            "A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m),
            "w": (n, 1), "v": (p, 1), "r": (p, 1),
        }
        for name, shape in expected.items():
            sched = getattr(self, name)
            if sched.shape != shape:
                raise DimensionMismatchError(
                    f"{name} schedule has shape {sched.shape}, expected {shape}")
            if sched.N != self.N:
                raise DimensionMismatchError(
                    f"{name} schedule horizon {sched.N} != {self.N}")
        if self.x0.shape != (n, 1):
            raise DimensionMismatchError(
                f"x0 has shape {self.x0.shape}, expected {(n, 1)}")


@dataclass(frozen=True)
class StructuredD:
    """Norm-bounded structure delta_D = E(k) Sigma_l(k) F(k), Sigma^T Sigma <= I."""

    E: MatrixSchedule  # p x s
    F: MatrixSchedule  # s x m
    s: int


@dataclass(frozen=True)
class UncertaintySpec:
    """Per-entry uniform amplitudes (the bounds of the boundedness assumption)."""

    amp_A: float = 0.0
    amp_B: float = 0.0
    amp_C: float = 0.0
    amp_D: float = 0.0
    amp_w: float = 0.0
    amp_v: float = 0.0
    amp_r: float = 0.0
    amp_x0: float = 0.0
    structured_D: Optional[StructuredD] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("amp_A", "amp_B", "amp_C", "amp_D",
                     "amp_w", "amp_v", "amp_r", "amp_x0"):
            if not 0 <= getattr(self, name) < np.inf:
                raise DimensionMismatchError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class RealizedIteration:
    """One iteration's fully sampled plant: nominal + perturbation at every k.

    Every per-step field is a stacked (N+1, rows, cols) array.  The trial
    loop stacks the draws of its S seeds (S = 1 for one spec) as (N+1, S,
    rows, cols), with a unit seed axis on the fields no seed perturbs, and
    x0 as (S or 1, n, 1).
    """

    l: int
    N: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    w: np.ndarray
    v: np.ndarray
    r: np.ndarray
    x0: Mat


def _noise(seed: int, l: int):
    """draw(tag, count, shape): a uniform [-1, 1] block, deterministic in
    (seed, l, tag) and call-order free.

    One Philox serves every tag: each draw re-keys it to (seed, l, tag) with
    a zero counter and an empty buffer, which is exactly the state of a new
    Philox with that key (counter-based streams may be re-keyed; Salmon et
    al., SC'11).  It is built with a fixed seed, which the first key replaces,
    so building it reads no entropy from the operating system.
    """
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    zero = np.zeros(4, dtype=np.uint64)

    def draw(tag: str, count: int, shape: tuple) -> np.ndarray:
        key = np.array([seed & _MASK64, ((l << 8) | _TAG[tag]) & _MASK64], dtype=np.uint64)
        bits.state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
                      "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gen.uniform(-1.0, 1.0, size=(count, *shape))

    return draw


def sample_iteration(sys: NominalSystem, unc: UncertaintySpec, l: int) -> RealizedIteration:
    """Draw one iteration's perturbations and attach them to the nominal plant.

    Every delta entry is i.i.d. uniform on [-amp, amp] from a counter-based
    stream keyed by (seed, l, quantity); the same (seed, l) always reproduces
    the same realization regardless of sampling order.  Each call draws
    every quantity from one Philox bit generator of its own, re-keyed per
    quantity, so calls from several threads do not interfere.  The
    initial-state shift varies with l only.  With a structured perturbation
    on D, the contraction matrix is rescaled to keep its largest singular
    value <= 1.
    """
    n, m, p, N = sys.n, sys.m, sys.p, sys.N
    steps = N + 1
    noise = _noise(unc.seed, l)

    def perturbed(tag: str, sched: MatrixSchedule, amp: float) -> np.ndarray:
        if amp == 0.0:
            return sched.values
        return sched.values + amp * noise(tag, steps, sched.shape)

    A = perturbed("A", sys.A, unc.amp_A)
    B = perturbed("B", sys.B, unc.amp_B)
    C = perturbed("C", sys.C, unc.amp_C)
    w = perturbed("w", sys.w, unc.amp_w)
    v = perturbed("v", sys.v, unc.amp_v)
    r = perturbed("r", sys.r, unc.amp_r)

    if unc.structured_D is not None:
        sd = unc.structured_D
        if sd.E.shape != (p, sd.s) or sd.F.shape != (sd.s, m):
            raise DimensionMismatchError(
                f"structured D blocks E{sd.E.shape}, F{sd.F.shape} "
                f"do not match p={p}, s={sd.s}, m={m}")
        sigmas = noise("sigma", steps, (sd.s, sd.s))
        sigmas = sigmas / np.maximum(1.0, spectral_norms(sigmas))[:, None, None]
        D = sys.D.values + sd.E.values @ sigmas @ sd.F.values
    else:
        D = perturbed("D", sys.D, unc.amp_D)

    if unc.amp_x0 == 0.0:
        x0 = sys.x0
    else:
        x0 = sys.x0 + unc.amp_x0 * noise("x0", 1, (n, 1))[0]

    return RealizedIteration(l=l, N=N, A=A, B=B, C=C, D=D, w=w, v=v, r=r, x0=x0)


def _first_fault(bad_x: np.ndarray, bad_y: np.ndarray, l: int) -> Optional[NonFiniteError]:
    """One trial's first non-finite quantity in step order y(0), x(1), y(1),
    x(2), ..., given the flags of x(1..N) and y(0..N); None if there is none."""
    bad_x, bad_y = np.flatnonzero(bad_x), np.flatnonzero(bad_y)
    if bad_x.size and (not bad_y.size or bad_x[0] < bad_y[0]):
        return NonFiniteError("state diverged", k=int(bad_x[0]) + 1, iteration=l)
    if bad_y.size:
        return NonFiniteError("output diverged", k=int(bad_y[0]), iteration=l)
    return None


def simulate(realized: RealizedIteration, u) -> tuple:
    """Run one trial under the given (N+1, m, 1) input stack and return its
    states x, (N+1, n, 1), and outputs y, (N+1, p, 1).

    The state recursion stops at k = N-1; u[N] feeds only the output
    equation at the final step.  Only the state recursion loops over k;
    the input and output terms are batched matmuls over the horizon.

    Axes between the step axis and the matrix axes are batch axes: an
    (N+1, S, m, 1) input on a realization whose fields are (N+1, S or 1,
    rows, cols) runs S independent trials side by side, each rounding as
    it would alone.  A blow-up is reported at each trial's first non-finite
    quantity in step order y(0), x(1), y(1), x(2), ...: the NonFiniteError
    raised is the first trial's in batch order, and carries every trial's
    as ``faults`` and the whole batch's (x, y) as ``trajectory``.
    """
    N = realized.N
    if len(u) != N + 1:
        raise DimensionMismatchError(f"input sequence has {len(u)} entries, expected {N + 1}")
    u = np.asarray(u, dtype=np.float64)
    A, w, x0 = realized.A, realized.w, realized.x0
    batch = np.broadcast_shapes(x0.shape[:-2], *(a.shape[1:-2] for a in (
        A, realized.B, realized.C, realized.D, w, realized.v, realized.r, u)))
    x = np.empty((N + 1,) + batch + x0.shape[-2:])
    x[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        Bu = realized.B[:N] @ u[:N]
        # x(k+1) = (A x(k) + B u(k)) + w(k), summed in place in x's own row.
        for A_k, x_k, x_next, Bu_k, w_k in zip(A, x, x[1:], Bu, w):
            np.add(np.add(A_k @ x_k, Bu_k, out=x_next), w_k, out=x_next)
        y = realized.C @ x + realized.D @ u + realized.v
    if np.isfinite(x[1:]).all() and np.isfinite(y).all():
        return x, y
    bad_x = ~np.isfinite(x[1:]).all(axis=(-2, -1))
    bad_y = ~np.isfinite(y).all(axis=(-2, -1))
    faults = tuple(_first_fault(bad_x[(slice(None),) + i], bad_y[(slice(None),) + i],
                                realized.l) for i in np.ndindex(*batch))
    first = next(f for f in faults if f is not None)
    first.faults, first.trajectory = faults, (x, y)
    raise first
