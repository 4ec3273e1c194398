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
# Each thread's (Philox, Generator, state, key), built on the thread's first draw.
_GEN = threading.local()


class RealizedIteration(NamedTuple):
    """One iteration's fully sampled plant: nominal + perturbation at every k.

    Every per-step field is a stacked (N+1, rows, cols) array.  The trial
    loop stacks the draws of its S seeds as (N+1, S, rows, cols), with a
    unit seed axis on the fields no seed perturbs, and x0 as (S or 1, n,
    1).  set_transform.apply_transform returns the SET's square plant of
    either family in this form, with p inputs.
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


class _Plan(NamedTuple):
    """A run's draws, worked out once from its specs (see _draw_plan)."""

    N: int
    stacks: list    # two {channel: seed stack} of the channels some spec perturbs
    fields: dict    # every channel's nominal, in the trial loop's layout
    channels: list  # (name, seeds, amps, draws' shape) per perturbed channel
    sigmas: list    # (s, seed, E, F, nominal D) per spec with a structured D


def _draw_shapes(sys: NominalSystem, uncs, S: int) -> dict:
    """The shapes of the seed stacks a run of S seeds draws into, the seeds
    perturbing what the specs uncs do: one per channel some spec perturbs
    (amp_<name> > 0, or for D a structured perturbation), in CHANNELS
    order, (N+1, S, rows, cols) or x0's (S, n, 1).  While it draws a
    channel, draw_trial also holds a scratch of the stack's size."""
    return {name: ((S,) if name == "x0" else (sys.N + 1, S)) + getattr(sys, name).shape
            for name in CHANNELS if any(getattr(unc, f"amp_{name}") or name == "D"
                                        and unc.structured_D is not None for unc in uncs)}


def _draw_plan(sys: NominalSystem, uncs) -> _Plan:
    """Work out the draws of the specs uncs, S seeds side by side, once for
    a whole run: the seeds that draw each channel, their amplitudes, the
    shape of its scratch, and two sets of seed stacks in _draw_shapes'
    shapes.  A structured perturbation of D takes the place of its spec's
    amp_D, which is not drawn."""
    S = len(uncs)
    shapes = _draw_shapes(sys, uncs, S)
    stacks = [{name: np.empty(shape) for name, shape in shapes.items()} for _ in range(2)]
    fields = {name: getattr(sys, name).values[:, None] for name in SCHEDULES}
    fields["x0"] = sys.x0[None]
    channels, sigmas = [], []
    for name, shape in shapes.items():
        # A seed that leaves the channel alone draws nothing: a zero row at
        # amplitude +0.0 adds 0.0 * (2 * 0 - 1) = -0.0, which keeps every
        # bit of the nominal, -0.0 included.  A structured D is drawn in
        # place of its spec's amp_D, which therefore draws nothing either.
        amps = [0.0 if name == "D" and unc.structured_D is not None
                else getattr(unc, f"amp_{name}") + 0.0 for unc in uncs]
        # The scratch holds one row per seed, (S, N+1, rows, cols) or x0's
        # (S, n, 1); the amplitudes broadcast against its transpose.
        channels.append((name, [unc.seed if amp else None for unc, amp in zip(uncs, amps)],
                         np.array(amps), (S, *shape[:-3], *shape[-2:])))
    for s, unc in enumerate(uncs):
        sd = unc.structured_D
        if sd is not None:
            k = sd.E.cols
            if sd.E.rows != sys.p or sd.F.shape != (k, sys.m):
                raise IlcsetError(f"structured D blocks E{sd.E.shape}, F{sd.F.shape} "
                                  f"do not match p={sys.p}, s={k}, m={sys.m}")
            sigmas.append((s, unc.seed, sd.E.values, sd.F.values, sys.D.values))
    return _Plan(sys.N, stacks, fields, channels, sigmas)


def draw_trial(plan: _Plan, l: int) -> RealizedIteration:
    """Trial l's realization of a run's specs (see _draw_plan), stacked on
    a seed axis after the step axis: every channel some spec perturbs is
    written into its stack in the plan's stacks[l % 2], so that trial l -
    1's stays as it was, and every other is its nominal schedule (or x0)
    with a unit seed axis.

    Every delta entry is i.i.d. uniform on [-amp, amp] from a counter-based
    stream keyed by (seed, l, quantity); the same (seed, l) always
    reproduces the same realization regardless of sampling order.  Each
    thread draws from one Philox bit generator of its own, built on the
    thread's first draw, and re-keys it per seed and quantity, so calls
    from several threads do not interfere.  Its doubles d fill a scratch
    per channel, where -1 + 2 d is exactly numpy's uniform(-1, 1) of them;
    then all seeds are scaled and added to the nominal at once.
    The initial-state shift varies with l only.  With a structured
    perturbation on D, the contraction matrix is rescaled to keep its
    largest singular value <= 1.  A plan that draws nothing never loads
    numpy.random.
    """
    out = plan.stacks[l % 2]
    if out:
        # With the key set, assigning the state puts the Philox in exactly
        # the state of a new one with that key, a zero counter and an empty
        # buffer (counter-based streams may be re-keyed; Salmon et al.,
        # SC'11), so no draw depends on the ones before it.  It is built
        # with a fixed seed, which the first key replaces, so building it
        # reads no entropy from the operating system.
        if not hasattr(_GEN, "parts"):
            bits = np.random.Philox(0)
            state = bits.state  # a new Philox's: zero counter, empty buffer
            _GEN.parts = bits, np.random.Generator(bits), state, state["state"]["key"]
        bits, gen, state, key = _GEN.parts
    word = (l << 8) & _MASK64
    for name, seeds, amps, shape in plan.channels:
        # Made per channel and trial, the scratch is free again while the
        # trial's results are written; one kept for the run would add its
        # size to the peak RSS.  A seed that leaves the channel alone keeps
        # a zero row.
        draws = np.zeros(shape)
        key[1] = word | _TAG[name]
        for seed, row in zip(seeds, draws):
            if seed is not None:
                key[0] = seed
                bits.state = state
                gen.random(out=row)
        seeds_last = draws.T
        seeds_last *= 2.0
        seeds_last -= 1.0
        seeds_last *= amps
        # Swapping the seed axis with the step axis (none for x0) lays the
        # rows out as the stack.
        np.add(plan.fields[name], draws.swapaxes(0, -3), out=out[name])
    for s, seed, E, F, D in plan.sigmas:
        key[:] = seed, word | _TAG["sigma"]
        bits.state = state
        sigma = 2.0 * gen.random((len(E), F.shape[1], F.shape[1])) - 1.0
        sigma /= np.maximum(1.0, spectral_norms(sigma))[:, None, None]
        out["D"][:, s] = D + E @ sigma @ F
    return RealizedIteration(l, plan.N, **plan.fields | out)


def sample_iteration(sys: NominalSystem, unc: UncertaintySpec, l: int) -> RealizedIteration:
    """Draw one iteration's perturbations and attach them to the nominal
    plant: draw_trial's one-spec case, with every per-step field (N+1,
    rows, cols) and x0 (n, 1)."""
    realized = draw_trial(_draw_plan(sys, (unc,)), l)
    return RealizedIteration(l, sys.N, *(np.squeeze(field, -3) for field in realized[2:]))


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
