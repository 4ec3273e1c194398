"""Experiment configs: JSON documents with expression-string matrices.

A document has four sections: ``system`` (dimensions plus grids for the
plant schedules), ``uncertainty`` (per-entry amplitudes, seed, optional
structured perturbation of D), ``gains`` (Xi and/or Gamma grids), and
``run`` (mode, iteration count, recording).  Validation collects every
violation before raising, each tagged with its JSON Pointer (RFC 6901)
path.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Optional

import numpy as np

from .errors import IlcsetError, SchemaError
from .matrix_core import Mat
from .schedule_lang import MatrixSchedule, ScheduleBuildError, build_schedule

SEED_LIMIT = 1 << 64  # seeds lie in [0, 2**64): one Philox key word

# The plant's schedules in the order configs list them, each with its
# (rows, cols) in the dimensions n (states), m (inputs) and p (outputs).
SCHEDULES = {"A": "nn", "B": "nm", "C": "pn", "D": "pm", "w": "n1", "v": "p1", "r": "p1"}
# The quantities with a nonrepetitive perturbation, each of amplitude amp_<name>.
CHANNELS = (*SCHEDULES, "x0")


def _shapes(n: int, m: int, p: int) -> dict:
    """Each schedule's (rows, cols) for n states, m inputs and p outputs."""
    dims = {"n": n, "m": m, "p": p, "1": 1}
    return {name: (dims[rows], dims[cols]) for name, (rows, cols) in SCHEDULES.items()}


class Checked:
    """Base of a NamedTuple record that checks its fields.  Construction,
    _make and _replace (which goes through _make) all run the record's
    _check, which raises on a bad field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _NominalSystem(NamedTuple):
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


class NominalSystem(Checked, _NominalSystem):
    """Repetitive (iteration-independent) part of the plant and task."""

    __slots__ = ()

    def _check(self) -> None:
        for name, shape in _shapes(self.n, self.m, self.p).items():
            sched = getattr(self, name)
            if sched.shape != shape:
                raise IlcsetError(f"{name} schedule has shape {sched.shape}, expected {shape}")
            if sched.N != self.N:
                raise IlcsetError(f"{name} schedule horizon {sched.N} != {self.N}")
        if self.x0.shape != (self.n, 1):
            raise IlcsetError(f"x0 has shape {self.x0.shape}, expected {(self.n, 1)}")


class StructuredD(NamedTuple):
    """Norm-bounded structure delta_D = E(k) Sigma_l(k) F(k), Sigma^T Sigma <= I;
    Sigma is s x s with s = E.cols."""

    E: MatrixSchedule  # p x s
    F: MatrixSchedule  # s x m


class _UncertaintySpec(NamedTuple):
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


class UncertaintySpec(Checked, _UncertaintySpec):
    """Per-entry uniform amplitudes (the bounds of the boundedness assumption)."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0 <= self.seed < SEED_LIMIT:
            raise IlcsetError(f"seed must lie in [0, 2**64), got {self.seed}")
        for name in CHANNELS:
            if not 0 <= getattr(self, f"amp_{name}") < np.inf:
                raise IlcsetError(f"amp_{name} must be finite and nonnegative")


# The modes that learn in the SET's transformed input coordinates.
TRANSFORMED_MODES = ("transformed-xi", "transformed-gamma")
MODES = ("direct-xi", "direct-gamma", *TRANSFORMED_MODES, "repetitive")
# The next-step-error (look-ahead) modes, which learn through Gamma.
GAMMA_MODES = ("direct-gamma", "transformed-gamma", "repetitive")
# The largest count numpy can take as an array dimension, less one so that
# N + 1 steps fit as well.
_MAX_COUNT = int(np.iinfo(np.intp).max) - 1
_SHOWN_CHARS = 30
# The keys each object of a document accepts, by the object's path.
_KEYS = {
    "": ("system", "uncertainty", "gains", "run"),
    "/system": ("n", "m", "p", "N", *SCHEDULES, "x0"),
    "/uncertainty": ("amplitudes", "seed", "structured_D"),
    "/uncertainty/structured_D": ("E", "F"),
    "/gains": ("Xi", "Gamma"),
    "/run": ("mode", "iterations", "record_every", "u0"),
}


def mode_premises(mode: str, D: MatrixSchedule, unc: UncertaintySpec,
                  gains: Optional[tuple] = None) -> list:
    """The premises of mode that the nominal feedthrough D, the spec unc and
    the gain pair (Xi, Gamma), when given, violate, as messages in order.

    The look-ahead (Gamma) law and its convergence condition assume a
    feedthrough-free plant, so D = 0 with no D uncertainty; each mode
    applies one gain family, so the other's must be zero; and the
    repetitive case has no nonrepetitive uncertainty at all.
    """
    look_ahead = mode in GAMMA_MODES
    violated = []
    if look_ahead and np.any(D.values):
        violated.append(f"{mode} requires D identically zero")
    if look_ahead and (unc.amp_D or unc.structured_D is not None):
        violated.append(f"{mode} requires zero D uncertainty")
    if gains is not None:
        unused, name = (gains[0], "Xi") if look_ahead else (gains[1], "Gamma")
        if np.any(unused.values):
            violated.append(f"{mode} requires {name} identically zero")
    if mode == "repetitive" and any(getattr(unc, f"amp_{q}") for q in CHANNELS):
        violated.append("repetitive mode requires all amplitudes zero")
    return violated


class ExperimentConfig(NamedTuple):
    system: NominalSystem
    uncertainty: UncertaintySpec
    xi: MatrixSchedule       # m x p
    gamma: MatrixSchedule    # m x p
    mode: str
    iterations: int
    record_every: int
    u0: np.ndarray           # (N+1, m, 1) initial input stack


def _raise_if_any(problems: list) -> None:
    """Raise the (path, message) problems, if any, as one SchemaError at
    the first one's path."""
    if problems:
        (path, message), *rest = problems
        raise SchemaError(path, message + "".join(f"; {p}: {m}" for p, m in rest))


def _shown(value) -> str:
    """repr(value) for an error message, cut after _SHOWN_CHARS characters."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def _segment(key) -> str:
    """key as one JSON Pointer (RFC 6901) segment: ~ as ~0, then / as ~1."""
    return str(key).replace("~", "~0").replace("/", "~1")


def _known_keys(doc: dict, path: str, problems: list) -> None:
    """Report each key of the object at path that it does not accept, with
    the closest accepted key as a hint."""
    for key in doc:
        if key not in _KEYS[path]:
            import difflib  # only a document in error pays for its import

            close = difflib.get_close_matches(str(key), _KEYS[path], n=1)
            problems.append((f"{path}/{_segment(key)}", "unknown key"
                             + (f" (did you mean {close[0]!r}?)" if close else "")))


def _section(doc: dict, key: str, problems: list) -> dict:
    """The object doc[key], {} when it is absent, with its unknown keys
    reported; one that is not an object is reported and read as {}."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        problems.append((f"/{key}", "expected an object"))
        return {}
    _known_keys(section, f"/{key}", problems)
    return section


def _as_cell(value) -> Optional[str]:
    """A grid cell as expression text: a string as it is, a finite number
    as its repr; None for anything else, non-finite numbers included."""
    if isinstance(value, str):
        return value
    if _finite_number(value):
        return repr(float(value))
    return None


def _finite_number(value) -> bool:
    """A JSON number that is a finite float: not a bool, not the NaN and
    infinities json.load makes of NaN, Infinity and 1e309, and not an
    integer too large to be a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _normalize_grid(value, path: str, problems: list):
    """Accept a nested grid or (for vectors) a flat list of cells."""
    if not isinstance(value, list) or not value:
        problems.append((path, "expected a non-empty list"))
        return None
    if all(isinstance(row, list) for row in value):
        rows = value
    elif any(isinstance(row, list) for row in value):
        problems.append((path, "mixed flat and nested rows"))
        return None
    else:
        rows = [[cell] for cell in value]
    grid = []
    ok = True
    for i, row in enumerate(rows):
        parsed_row = []
        for j, cell in enumerate(row):
            src = _as_cell(cell)
            if src is None:
                problems.append((f"{path}/{i}/{j}",
                                 f"cell must be a string or a finite number, got {_shown(cell)}"))
                ok = False
            parsed_row.append(src if src is not None else "0")
        grid.append(parsed_row)
    if not ok:
        return None
    if any(len(row) != len(grid[0]) for row in grid):
        problems.append((path, "ragged grid"))
        return None
    return grid


def _byte_limit() -> tuple:
    """The most bytes a run's arrays may take, and what sets it: what numpy
    can address, or the machine's memory where the platform says and it
    is less."""
    limit, what = int(np.iinfo(np.intp).max), "numpy can address"
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return limit, what
    if pages > 0 and page_size > 0 and pages * page_size < limit:
        return pages * page_size, "of physical memory"
    return limit, what


def _schedule(doc: dict, key: str, shape: tuple, N: int, path: str,
              problems: list) -> Optional[MatrixSchedule]:
    if key not in doc:
        problems.append((f"{path}/{key}", "missing required field"))
        return None
    grid = _normalize_grid(doc[key], f"{path}/{key}", problems)
    if grid is None:
        return None
    rows, cols = len(grid), len(grid[0])
    if (rows, cols) != shape:
        problems.append((f"{path}/{key}",
                         f"shape {(rows, cols)} does not match expected {shape}"))
        return None
    return _build(grid, N, f"{path}/{key}", problems)


def _build(grid, N: int, path: str, problems: list) -> Optional[MatrixSchedule]:
    try:
        return build_schedule(grid, N)
    except ScheduleBuildError as exc:
        for i, j, detail in exc.failures:
            problems.append((f"{path}/{i}/{j}", detail))
        return None


def _positive_int(doc: dict, key: str, path: str, problems: list,
                  default=None) -> Optional[int]:
    if key not in doc:
        if default is None:
            problems.append((f"{path}/{key}", "missing required field"))
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= _MAX_COUNT:
        problems.append((f"{path}/{key}",
                         f"expected an integer in [1, {_MAX_COUNT}], got {_shown(value)}"))
        return None
    return value


def _amplitudes(doc, path: str, problems: list) -> Optional[dict]:
    amps = dict.fromkeys(CHANNELS, 0.0)
    if doc is None:
        return amps
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        if not _finite_number(doc) or doc < 0:
            problems.append((path, f"amplitude must be a finite nonnegative number, "
                                   f"got {_shown(doc)}"))
            return None
        return dict.fromkeys(CHANNELS, float(doc))
    if isinstance(doc, dict):
        count = len(problems)
        for key, value in doc.items():
            if key not in CHANNELS:
                problems.append((f"{path}/{_segment(key)}",
                                 f"unknown quantity (expected one of {CHANNELS})"))
            elif not _finite_number(value) or value < 0:
                problems.append((f"{path}/{key}", f"amplitude must be a finite nonnegative "
                                                  f"number, got {_shown(value)}"))
            else:
                amps[key] = float(value)
        return amps if len(problems) == count else None
    problems.append((path, "expected a number or an object of per-quantity amplitudes"))
    return None


def _structured_D(doc, p: int, m: int, N: int, problems: list) -> Optional[StructuredD]:
    """The structured perturbation of D that doc describes, or None."""
    path = "/uncertainty/structured_D"
    if doc is None:
        return None
    if not isinstance(doc, dict):
        problems.append((path, "expected an object with E and F grids"))
        return None
    _known_keys(doc, path, problems)
    e_grid = _normalize_grid(doc.get("E"), f"{path}/E", problems)
    f_grid = _normalize_grid(doc.get("F"), f"{path}/F", problems)
    if e_grid is None or f_grid is None:
        return None
    s = len(e_grid[0])
    if len(e_grid) != p:
        problems.append((f"{path}/E", f"expected {p} rows"))
        return None
    if len(f_grid) != s or len(f_grid[0]) != m:
        problems.append((f"{path}/F", f"expected shape {(s, m)}"))
        return None
    E = _build(e_grid, N, f"{path}/E", problems)
    F = _build(f_grid, N, f"{path}/F", problems)
    return None if E is None or F is None else StructuredD(E=E, F=F)


def config_from_dict(doc) -> ExperimentConfig:
    """Validate a parsed JSON document into runnable objects.

    Every violation is collected with a path into the document before the
    single SchemaError is raised.
    """
    if not isinstance(doc, dict):
        raise SchemaError("/", "top-level document must be an object")
    problems = []
    _known_keys(doc, "", problems)
    sys_doc = doc.get("system")
    if not isinstance(sys_doc, dict):
        problems.append(("/system", "missing or not an object"))
        _raise_if_any(problems)
    _known_keys(sys_doc, "/system", problems)

    n, m, p, N = (_positive_int(sys_doc, key, "/system", problems) for key in "nmpN")
    _raise_if_any(problems)
    if p > m:
        raise SchemaError("/system/p", f"output count p={p} exceeds input count m={m}")
    shapes = _shapes(n, m, p)
    # Every grid built below holds N + 1 float64 steps: the plant's
    # schedules, both gains and the initial input.
    cells = sum(rows * cols for rows, cols in shapes.values()) + 2 * m * p + m
    nbytes, (limit, what) = 8 * (N + 1) * cells, _byte_limit()
    if nbytes > limit:
        raise SchemaError("/system/N", f"{N + 1} steps of {cells} schedule cells need "
                                       f"{nbytes} bytes, more than the {limit} bytes {what}")

    schedules = {name: _schedule(sys_doc, name, shape, N, "/system", problems)
                 for name, shape in shapes.items()}
    x0 = sys_doc.get("x0")
    if not isinstance(x0, list) or len(x0) != n or not all(map(_finite_number, x0)):
        problems.append(("/system/x0", f"expected a list of {n} finite numbers"))

    unc_doc = _section(doc, "uncertainty", problems)
    amps = _amplitudes(unc_doc.get("amplitudes"), "/uncertainty/amplitudes", problems)
    seed = unc_doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_LIMIT:
        problems.append(("/uncertainty/seed",
                         f"expected an integer in [0, 2**64), got {_shown(seed)}"))
    structured = _structured_D(unc_doc.get("structured_D"), p, m, N, problems)

    gains_doc = _section(doc, "gains", problems)
    zero = MatrixSchedule.from_values(np.zeros((m, p)), N)
    xi, gamma = (_schedule(gains_doc, name, (m, p), N, "/gains", problems)
                 if name in gains_doc else zero for name in ("Xi", "Gamma"))

    run_doc = _section(doc, "run", problems)
    mode = run_doc.get("mode", "direct-xi")
    if mode not in MODES:
        problems.append(("/run/mode", f"unknown mode {mode!r} (expected one of {MODES})"))
    iterations = _positive_int(run_doc, "iterations", "/run", problems, default=300)
    record_every = _positive_int(run_doc, "record_every", "/run", problems, default=1)
    u0 = _schedule(run_doc, "u0", (m, 1), N, "/run", problems) if "u0" in run_doc else None

    _raise_if_any(problems)
    system = NominalSystem(n=n, m=m, p=p, N=N, **schedules,
                           x0=np.array(x0, dtype=np.float64).reshape(n, 1))
    uncertainty = UncertaintySpec(**{f"amp_{name}": amp for name, amp in amps.items()},
                                  structured_D=structured, seed=seed)
    problems = [("/run/mode", message)
                for message in mode_premises(mode, system.D, uncertainty, (xi, gamma))]
    _raise_if_any(problems)

    return ExperimentConfig(system=system, uncertainty=uncertainty, xi=xi, gamma=gamma,
                            mode=mode, iterations=iterations, record_every=record_every,
                            u0=np.zeros((N + 1, m, 1)) if u0 is None else u0.values)
