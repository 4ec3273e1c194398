"""Uncertain discrete LTV plant: realization sampling and trial simulation.

A trial applies the state/output recursion

    x(k+1) = A_l(k) x(k) + B_l(k) u(k) + w_l(k)
    y(k)   = C_l(k) x(k) + D_l(k) u(k) + v_l(k)

over k in 0..N, where every quantity splits into a repetitive nominal part
plus a bounded nonrepetitive perturbation resampled each iteration l.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple, Optional

import numpy as np

from .config import CHANNELS, SCHEDULES, SEED_LIMIT, NominalSystem, UncertaintySpec
from .errors import IlcsetError, NonFiniteError
from .matrix_core import Mat, spectral_norms

_MASK64 = SEED_LIMIT - 1
# Stable stream tags: each perturbed quantity owns one substream per iteration.
_TAG = {name: tag for tag, name in enumerate((*CHANNELS, "sigma"))}
# Each thread's (Philox, Generator), built on the thread's first _noise call.
_GEN = threading.local()


class RealizedIteration(NamedTuple):
    """One iteration's fully sampled plant: nominal + perturbation at every k.

    Every per-step field is a stacked (N+1, rows, cols) array.  The trial
    loop stacks the draws of its S seeds (S = 1 for one spec) as (N+1, S,
    rows, cols), with a unit seed axis on the fields no seed perturbs, and
    x0 as (S or 1, n, 1).  set_transform.apply_transform returns the SET's
    square plant of either family in this form, with p inputs.
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


def _perturbed(uncs) -> tuple:
    """The channels, in CHANNELS order, that some of the specs uncs perturb:
    amp_<name> > 0, or for D a structured perturbation.  sample_iteration
    returns every other channel as its nominal schedule (or x0) itself."""
    return tuple(name for name in CHANNELS if any(
        getattr(unc, f"amp_{name}") or name == "D" and unc.structured_D is not None
        for unc in uncs))


def _seed_stacks(sys: NominalSystem, uncs) -> dict:
    """Empty stacks, in the trial loop's layout, of the fields that S > 1
    specs perturb (see _perturbed): (N+1, S, rows, cols), and x0's
    (S, n, 1).  A single spec has none."""
    S = len(uncs)
    return {name: np.empty(((S,) if name == "x0" else (sys.N + 1, S)) + getattr(sys, name).shape)
            for name in (_perturbed(uncs) if S > 1 else ())}


def _noise(seed: int, l: int):
    """draw(tag, count, shape): a uniform [-1, 1] block, deterministic in
    (seed, l, tag) and call-order free.

    One Philox per thread serves every draw the thread makes: each draw
    re-keys it to (seed, l, tag) with a zero counter and an empty buffer,
    which is exactly the state of a new Philox with that key (counter-based
    streams may be re-keyed; Salmon et al., SC'11), so no draw depends on
    the ones before it.  It is built with a fixed seed, which the first key
    replaces, so building it reads no entropy from the operating system.
    """
    parts = getattr(_GEN, "parts", None)
    if parts is None:
        bits = np.random.Philox(0)
        parts = _GEN.parts = bits, np.random.Generator(bits)
    bits, gen = parts
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
    the same realization regardless of sampling order.  Each thread draws
    from one Philox bit generator of its own, re-keyed before every
    quantity, so calls from several threads do not interfere.  The
    initial-state shift varies with l only.  With a structured perturbation
    on D, the contraction matrix is rescaled to keep its largest singular
    value <= 1.
    """
    n, m, p, N = sys.n, sys.m, sys.p, sys.N
    steps, sd = N + 1, unc.structured_D
    # A spec that perturbs nothing draws nothing: it never loads numpy.random.
    noise = _noise(unc.seed, l) if _perturbed((unc,)) else None

    def perturbed(name: str) -> np.ndarray:
        sched, amp = getattr(sys, name), getattr(unc, f"amp_{name}")
        if amp == 0.0:
            return sched.values
        return sched.values + amp * noise(name, steps, sched.shape)

    fields = {name: perturbed(name) for name in SCHEDULES if name != "D" or sd is None}
    if sd is not None:
        s = sd.E.cols
        if sd.E.rows != p or sd.F.shape != (s, m):
            raise IlcsetError(
                f"structured D blocks E{sd.E.shape}, F{sd.F.shape} "
                f"do not match p={p}, s={s}, m={m}")
        sigmas = noise("sigma", steps, (s, s))
        sigmas = sigmas / np.maximum(1.0, spectral_norms(sigmas))[:, None, None]
        fields["D"] = sys.D.values + sd.E.values @ sigmas @ sd.F.values

    if unc.amp_x0 == 0.0:
        x0 = sys.x0
    else:
        x0 = sys.x0 + unc.amp_x0 * noise("x0", 1, (n, 1))[0]

    return RealizedIteration(l=l, N=N, x0=x0, **fields)


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

    u[N] feeds only the output equation.  Only the state recursion loops
    over k, forming (A x(k) + B u(k)) + w(k) in that order: by ndarray.dot
    for one trial with C-contiguous A steps, else by a batched matmul.

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
        raise IlcsetError(f"input sequence has {len(u)} entries, expected {N + 1}")
    u = np.asarray(u, dtype=np.float64)
    A, w, x0 = realized.A, realized.w, realized.x0
    batch = np.broadcast_shapes(x0.shape[:-2], u.shape[1:-2], *(
        getattr(realized, name).shape[1:-2] for name in SCHEDULES))
    x = np.empty((N + 1,) + batch + x0.shape[-2:])
    x[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        Bu = realized.B[:N] @ u[:N]
        # dot: matmul's BLAS gemv at half the call cost, but it does not
        # broadcast and its BLAS flags follow the strides.
        if math.prod(batch) == 1 and A[0].flags.c_contiguous:
            product = np.ndarray.dot
            A_s, x_s, Bu_s, w_s = (a.reshape(len(a), *a.shape[-2:]) for a in (A, x, Bu, w))
        else:
            product, A_s, x_s = np.matmul, A, x
            Bu_s, w_s = (np.ascontiguousarray(np.broadcast_to(a, a.shape[:1] + x.shape[1:]))
                         for a in (Bu, w))
        for A_k, x_k, x_next, Bu_k, w_k in zip(A_s, x_s, x_s[1:], Bu_s, w_s):
            product(A_k, x_k, x_next)
            x_next += Bu_k
            x_next += w_k
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
