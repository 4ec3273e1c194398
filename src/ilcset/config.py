"""Experiment configs: JSON documents with expression-string matrices.

A document has four sections: ``system`` (dimensions plus grids for the
plant schedules), ``uncertainty`` (per-entry amplitudes, seed, optional
structured perturbation of D), ``gains`` (Xi and/or Gamma grids), and
``run`` (mode, iteration count, recording).  Validation collects every
violation before raising, each tagged with a JSON-pointer-style path.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import SchemaError
from .plant import SEED_LIMIT, NominalSystem, StructuredD, UncertaintySpec
from .schedule_lang import MatrixSchedule, ScheduleBuildError, build_schedule

MODES = ("direct-xi", "direct-gamma", "transformed-xi", "transformed-gamma", "repetitive")
# The next-step-error (look-ahead) modes, which learn through Gamma.
GAMMA_MODES = ("direct-gamma", "transformed-gamma", "repetitive")
_AMP_KEYS = ("A", "B", "C", "D", "w", "v", "r", "x0")
# The largest count numpy can take as an array dimension, less one so that
# N + 1 steps fit as well.
_MAX_COUNT = int(np.iinfo(np.intp).max) - 1
_SHOWN_CHARS = 30


class ExperimentConfig(NamedTuple):
    system: NominalSystem
    uncertainty: UncertaintySpec
    xi: MatrixSchedule       # m x p
    gamma: MatrixSchedule    # m x p
    mode: str
    iterations: int
    record_every: int
    u0: np.ndarray           # (N+1, m, 1) initial input stack


class _Collector:
    def __init__(self):
        self.problems: list[tuple[str, str]] = []

    def add(self, path: str, message: str) -> None:
        self.problems.append((path, message))

    def raise_if_any(self) -> None:
        if self.problems:
            (path, message), *rest = self.problems
            detail = message + "".join(f"; {p}: {m}" for p, m in rest)
            raise SchemaError(path, detail)


def _shown(value) -> str:
    """repr(value) for an error message, cut after _SHOWN_CHARS characters."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


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


def _normalize_grid(value, path: str, problems: _Collector):
    """Accept a nested grid or (for vectors) a flat list of cells."""
    if not isinstance(value, list) or not value:
        problems.add(path, "expected a non-empty list")
        return None
    if all(isinstance(row, list) for row in value):
        rows = value
    elif any(isinstance(row, list) for row in value):
        problems.add(path, "mixed flat and nested rows")
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
                problems.add(f"{path}/{i}/{j}",
                             f"cell must be a string or a finite number, got {_shown(cell)}")
                ok = False
            parsed_row.append(src if src is not None else "0")
        grid.append(parsed_row)
    return grid if ok else None


def _schedule(doc: dict, key: str, shape: tuple, N: int, path: str,
              problems: _Collector) -> Optional[MatrixSchedule]:
    if key not in doc:
        problems.add(f"{path}/{key}", "missing required field")
        return None
    grid = _normalize_grid(doc[key], f"{path}/{key}", problems)
    if grid is None:
        return None
    rows, cols = len(grid), len(grid[0])
    if any(len(row) != cols for row in grid):
        problems.add(f"{path}/{key}", "ragged grid")
        return None
    if (rows, cols) != shape:
        problems.add(f"{path}/{key}", f"shape {(rows, cols)} does not match expected {shape}")
        return None
    return _build(grid, N, f"{path}/{key}", problems)


def _build(grid, N: int, path: str, problems: _Collector) -> Optional[MatrixSchedule]:
    try:
        return build_schedule(grid, N)
    except ScheduleBuildError as exc:
        for i, j, detail in exc.failures:
            problems.add(f"{path}/{i}/{j}", detail)
        return None


def _positive_int(doc: dict, key: str, path: str, problems: _Collector,
                  default=None) -> Optional[int]:
    if key not in doc:
        if default is not None:
            return default
        problems.add(f"{path}/{key}", "missing required field")
        return None
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= _MAX_COUNT:
        problems.add(f"{path}/{key}",
                     f"expected an integer in [1, {_MAX_COUNT}], got {_shown(value)}")
        return None
    return value


def _amplitudes(doc, path: str, problems: _Collector) -> Optional[dict]:
    amps = dict.fromkeys(_AMP_KEYS, 0.0)
    if doc is None:
        return amps
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        if not _finite_number(doc) or doc < 0:
            problems.add(path, f"amplitude must be a finite nonnegative number, "
                               f"got {_shown(doc)}")
            return None
        return dict.fromkeys(_AMP_KEYS, float(doc))
    if isinstance(doc, dict):
        ok = True
        for key, value in doc.items():
            if key not in _AMP_KEYS:
                problems.add(f"{path}/{key}", f"unknown quantity (expected one of {_AMP_KEYS})")
                ok = False
                continue
            if not _finite_number(value) or value < 0:
                problems.add(f"{path}/{key}",
                             f"amplitude must be a finite nonnegative number, "
                             f"got {_shown(value)}")
                ok = False
                continue
            amps[key] = float(value)
        return amps if ok else None
    problems.add(path, "expected a number or an object of per-quantity amplitudes")
    return None


def config_from_dict(doc) -> ExperimentConfig:
    """Validate a parsed JSON document into runnable objects.

    Every violation is collected with a path into the document before the
    single SchemaError is raised.
    """
    problems = _Collector()
    if not isinstance(doc, dict):
        raise SchemaError("/", "top-level document must be an object")
    sys_doc = doc.get("system")
    if not isinstance(sys_doc, dict):
        problems.add("/system", "missing or not an object")
        problems.raise_if_any()

    n = _positive_int(sys_doc, "n", "/system", problems)
    m = _positive_int(sys_doc, "m", "/system", problems)
    p = _positive_int(sys_doc, "p", "/system", problems)
    N = _positive_int(sys_doc, "N", "/system", problems)
    problems.raise_if_any()
    if p > m:
        problems.add("/system/p", f"output count p={p} exceeds input count m={m}")
        problems.raise_if_any()

    A = _schedule(sys_doc, "A", (n, n), N, "/system", problems)
    B = _schedule(sys_doc, "B", (n, m), N, "/system", problems)
    C = _schedule(sys_doc, "C", (p, n), N, "/system", problems)
    D = _schedule(sys_doc, "D", (p, m), N, "/system", problems)
    w = _schedule(sys_doc, "w", (n, 1), N, "/system", problems)
    v = _schedule(sys_doc, "v", (p, 1), N, "/system", problems)
    r = _schedule(sys_doc, "r", (p, 1), N, "/system", problems)

    x0 = None
    x0_doc = sys_doc.get("x0")
    if not isinstance(x0_doc, list) or len(x0_doc) != n or not all(
            map(_finite_number, x0_doc)):
        problems.add("/system/x0", f"expected a list of {n} finite numbers")
    else:
        x0 = np.array(x0_doc, dtype=np.float64).reshape(n, 1)

    unc_doc = doc.get("uncertainty", {})
    uncertainty = None
    if not isinstance(unc_doc, dict):
        problems.add("/uncertainty", "expected an object")
    else:
        amps = _amplitudes(unc_doc.get("amplitudes"), "/uncertainty/amplitudes", problems)
        seed = unc_doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_LIMIT:
            problems.add("/uncertainty/seed",
                         f"expected an integer in [0, 2**64), got {_shown(seed)}")
            seed = 0
        structured = None
        sd_doc = unc_doc.get("structured_D")
        if sd_doc is not None:
            if not isinstance(sd_doc, dict):
                problems.add("/uncertainty/structured_D", "expected an object with E and F grids")
            else:
                e_grid = _normalize_grid(sd_doc.get("E"), "/uncertainty/structured_D/E", problems)
                f_grid = _normalize_grid(sd_doc.get("F"), "/uncertainty/structured_D/F", problems)
                if e_grid is not None and f_grid is not None:
                    s = len(e_grid[0])
                    if len(e_grid) != p:
                        problems.add("/uncertainty/structured_D/E", f"expected {p} rows")
                    elif len(f_grid) != s or len(f_grid[0]) != m:
                        problems.add("/uncertainty/structured_D/F", f"expected shape {(s, m)}")
                    else:
                        E = _build(e_grid, N, "/uncertainty/structured_D/E", problems)
                        F = _build(f_grid, N, "/uncertainty/structured_D/F", problems)
                        if E is not None and F is not None:
                            structured = StructuredD(E=E, F=F)
        if amps is not None:
            uncertainty = UncertaintySpec(
                amp_A=amps["A"], amp_B=amps["B"], amp_C=amps["C"], amp_D=amps["D"],
                amp_w=amps["w"], amp_v=amps["v"], amp_r=amps["r"], amp_x0=amps["x0"],
                structured_D=structured, seed=seed)

    gains_doc = doc.get("gains", {})
    xi = gamma = None
    if not isinstance(gains_doc, dict):
        problems.add("/gains", "expected an object")
    else:
        if "Xi" in gains_doc:
            xi = _schedule(gains_doc, "Xi", (m, p), N, "/gains", problems)
        if "Gamma" in gains_doc:
            gamma = _schedule(gains_doc, "Gamma", (m, p), N, "/gains", problems)
    if xi is None:
        xi = MatrixSchedule.from_values(np.zeros((m, p)), N)
    if gamma is None:
        gamma = MatrixSchedule.from_values(np.zeros((m, p)), N)

    run_doc = doc.get("run", {})
    mode = "direct-xi"
    iterations = 300
    record_every = 1
    u0 = None
    if not isinstance(run_doc, dict):
        problems.add("/run", "expected an object")
    else:
        mode = run_doc.get("mode", "direct-xi")
        if mode not in MODES:
            problems.add("/run/mode", f"unknown mode {mode!r} (expected one of {MODES})")
            mode = "direct-xi"
        iterations = _positive_int(run_doc, "iterations", "/run", problems, default=300) or 300
        record_every = _positive_int(run_doc, "record_every", "/run", problems, default=1) or 1
        if "u0" in run_doc:
            u0_sched = _schedule(run_doc, "u0", (m, 1), N, "/run", problems)
            if u0_sched is not None:
                u0 = u0_sched.values
    if u0 is None:
        u0 = np.zeros((N + 1, m, 1))

    problems.raise_if_any()
    system = NominalSystem(n=n, m=m, p=p, N=N, A=A, B=B, C=C, D=D, w=w, v=v, r=r, x0=x0)

    def _zero_schedule(sched: MatrixSchedule) -> bool:
        return not np.any(sched.values)

    if mode in GAMMA_MODES:
        if not _zero_schedule(D):
            problems.add("/run/mode", f"{mode} requires D identically zero")
        if uncertainty.amp_B or uncertainty.amp_C or uncertainty.amp_D \
                or uncertainty.structured_D is not None:
            problems.add("/run/mode", f"{mode} requires repetitive B, C and zero D uncertainty")
        if not _zero_schedule(xi):
            problems.add("/run/mode", f"{mode} requires Xi identically zero")
    else:
        if not _zero_schedule(gamma):
            problems.add("/run/mode", f"{mode} requires Gamma identically zero")
    if mode == "repetitive":
        if any(getattr(uncertainty, f"amp_{q}") for q in _AMP_KEYS):
            problems.add("/run/mode", "repetitive mode requires all amplitudes zero")
    problems.raise_if_any()

    return ExperimentConfig(system=system, uncertainty=uncertainty, xi=xi, gamma=gamma,
                            mode=mode, iterations=iterations, record_every=record_every,
                            u0=u0)

