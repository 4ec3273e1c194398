"""The parts of the command-line front end that only ``run`` uses: building
the learning loop from a config, and writing its metrics CSV, trajectory
CSV and summary.  ``cli.cmd_run`` loads this module, and with it the
engine, before it builds the config.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import re
import sys

import numpy as np

from .config import SEED_LIMIT, ExperimentConfig, _byte_limit
from .errors import SchemaError
from .ilc_engine import IlcConfig, RunResult, _stack_shapes, run, run_transformed
from .plant import _draw_shapes

CSV_HEADER = ("l", "E_inf", "U_inf", "res_err_rec", "res_in_rec")
_BLOCK = 128  # trajectory rows formatted at a time
_SWEEP_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips, for reproducible output."""
    return repr(x)


def _check_stack_size(cfg: ExperimentConfig, seeds: int) -> None:
    """Reject a run whose arrays need more bytes than numpy can address or
    the machine has, before anything is drawn.  They are what the loop
    allocates up front, _learn's histories in _stack_shapes' shapes and the
    plant's two sets of seed stacks in _draw_shapes', for seeds that all
    perturb what cfg.uncertainty does, and the scratch of the largest
    stack's size that the plant holds while it draws a channel."""
    stacks = [*_draw_shapes(cfg.system, (cfg.uncertainty,), seeds).values()]
    shapes = [*_stack_shapes(cfg.iterations, seeds), *stacks, *stacks,
              max(stacks, key=math.prod, default=(0,))]
    nbytes = sum(8 * math.prod(shape) for shape in shapes)
    limit, what = _byte_limit()
    if nbytes > limit:
        raise SchemaError("/run/iterations",
                          f"{cfg.iterations} trials of {seeds} seed(s) need {nbytes} "
                          f"bytes of trial stacks, more than the {limit} bytes {what}")


def _prepare(cfg: ExperimentConfig, seeds: range | None = None,
             verify_set: bool = False) -> functools.partial:
    """cfg's loop, built but not started; called with sink=, it runs under
    cfg.uncertainty, or each seed of seeds, for one RunResult per seed."""
    _check_stack_size(cfg, 1 if seeds is None else seeds.stop - seeds.start)
    unc = (cfg.uncertainty if seeds is None
           else [cfg.uncertainty._replace(seed=seed) for seed in seeds])
    engine = IlcConfig(mode=cfg.mode, iterations=cfg.iterations, u0=cfg.u0)
    gains = (cfg.xi, cfg.gamma)
    transformed, transform = cfg.mode.startswith("transformed"), None
    if transformed or verify_set:
        # Imported here, so that a direct run without --verify-set never loads it.
        from .set_transform import _for_config
        transform = _for_config(cfg)
    if transformed:
        return functools.partial(run_transformed, cfg.system, unc, transform, engine,
                                 counterpart=gains if verify_set else None)
    return functools.partial(run, cfg.system, unc, gains, engine, counterpart=transform)


def _trial_values(trial) -> np.ndarray:
    """Each seed's E, U and, after trial 0, error and input residuals."""
    return np.stack([trial.E, trial.U, *(trial.residuals or ())[::2]], axis=1)


def _metric_row(l: int, *values: float) -> list:
    return [str(l), *map(_fmt, values)] + ["", ""] * (l == 0)


def _traj_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return stem + "_traj" + (ext or ".csv")


def _trajectory_writer(fh, p: int):
    """Write the trajectory header to fh; write(l, y, r) then writes a row
    l, k, y, r, e = r - y per step of trial l's (steps, p) signals, in
    csv.writer's bytes, _BLOCK rows at a time from one row template."""
    # %r of a Python float is csv.writer's text for it, as _fmt's is; k is
    # a float in the block and exact, so %d writes it as the integer.
    tail = ",%d" + ",%r" * (3 * p) + "\r\n"
    csv.writer(fh).writerow(["l", "k"] + [f"{c}{i + 1}" for c in "yre" for i in range(p)])

    def write(l: int, y: np.ndarray, r: np.ndarray) -> None:
        row = str(l) + tail
        table = np.concatenate([np.arange(len(y), dtype=np.float64)[:, None], y, r, r - y],
                               axis=1)
        for start in range(0, len(y), _BLOCK):
            block = table[start:start + _BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    return write


@contextlib.contextmanager
def _writers(args, cfg: ExperimentConfig):
    """A single run's sink, with --out (or stdout) and the _traj.csv open:
    it writes each trial's metric row, and the trajectory rows of recorded
    trials (the last, or every record_every-th), as the trial finishes."""
    with contextlib.ExitStack() as files:
        def open_csv(path):
            return files.enter_context(open(path, "w", newline="", encoding="utf-8"))

        metrics = csv.writer(sys.stdout if args.out is None else open_csv(args.out))
        metrics.writerow(CSV_HEADER)
        L = cfg.iterations
        recorded = {"none": range(0), "final": range(L - 1, L),
                    "all": range(0, L, cfg.record_every)}[args.record_trajectories]
        if recorded:
            write = _trajectory_writer(open_csv(_traj_path(args.out)), cfg.system.p)

        def sink(trial) -> None:
            metrics.writerow(_metric_row(trial.l, *_trial_values(trial)[0].tolist()))
            if trial.l in recorded:
                write(trial.l, trial.y[:, 0, :, 0], trial.r[:, 0, :, 0])
        yield sink


def _write_sweep(out: str | None, rows: list) -> None:
    """Write a sweep's metric rows, each behind its seed, to out or stdout."""
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", newline="", encoding="utf-8")) as fh:
        csv.writer(fh).writerows([("seed",) + CSV_HEADER] + rows)


def _summary_lines(result: RunResult) -> list:
    lines = [f"mode: {result.mode}",
             f"iterations: {result.iterations}",
             f"final E_inf: {_fmt(result.E_hist[-1])}",
             f"final U_inf: {_fmt(result.U_hist[-1])}",
             f"converged value: {_fmt(result.converged_value)}"]
    report = result.condition_report
    if report is not None:
        verdict = "pass" if report.satisfied else "FAIL"
        lines.append(f"condition {report.name}: {verdict} "
                     f"(worst {report.worst:.6g} at k={report.worst_k})")
    if result.error_recursion is not None:
        lines.append(f"max residual (error recursion): "
                     f"{_fmt(result.error_recursion.max_residual)}")
        lines.append(f"max residual (input recursion): "
                     f"{_fmt(result.input_recursion.max_residual)}")
    lines.extend(f"warning: {w}" for w in result.warnings)
    return lines


def _parse_sweep(text: str) -> range:
    prefix = "seeds="
    if not text.startswith(prefix):
        raise SchemaError("/sweep", "expected seeds=A..B")
    bounds = _SWEEP_RE.fullmatch(text[len(prefix):])
    if bounds is None:
        raise SchemaError("/sweep", "expected seeds=A..B with integers A <= B")
    first, last = int(bounds[1]), int(bounds[2])
    if first > last:
        raise SchemaError("/sweep", "sweep range is empty")
    if first < 0 or last >= SEED_LIMIT:
        raise SchemaError("/sweep", "seeds must lie in [0, 2**64)")
    return range(first, last + 1)
