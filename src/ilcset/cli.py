"""Command-line front end.

Three subcommands share a config pipeline (JSON file or named preset plus
overrides): ``run`` executes the iteration loop and writes metrics CSV,
``check`` prints the contraction/feasibility report table, ``transform``
dumps the per-step transform blocks and transformed system as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import gc
import importlib
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .conditions import (
    check_lmi,
    check_rho_cb_gamma,
    check_rho_dxi,
    check_rho_gamma_cb,
    check_rho_xid,
)
from .config import GAMMA_MODES, ExperimentConfig, _byte_limit, config_from_dict
from .errors import IlcsetError, SchemaError
from .plant import SEED_LIMIT, sample_iteration
from .presets import PRESET_NAMES, preset_config
from .schedule_lang import MatrixSchedule

if TYPE_CHECKING:
    from .ilc_engine import RunResult

CSV_HEADER = ("l", "E_inf", "U_inf", "res_err_rec", "res_in_rec")
_BLOCK = 128  # trajectory rows formatted at a time
EQUIVALENCE_TOL = 1e-9
_SWEEP_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")

def _fmt(x: float) -> str:
    """Shortest decimal that round-trips, for reproducible output."""
    return repr(x)


def _load_doc(args) -> dict:
    if args.preset is not None:
        doc = preset_config(args.preset)
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, undecodable UTF-8, an integer literal longer
            # than Python converts and nesting deeper than the decoder
            # recurses; none of their messages echo the offending text.
            raise SchemaError("/", f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("/", "top level must be an object")
    if args.seed is not None:
        _override(doc, "uncertainty", "seed", args.seed)
    if args.iterations is not None:
        _override(doc, "run", "iterations", args.iterations)
    return doc


def _override(doc: dict, section: str, key: str, value) -> None:
    """Set doc[section][key] from a flag; a section that is there but not
    an object is left for config_from_dict to report."""
    part = doc.setdefault(section, {})
    if isinstance(part, dict):
        part[key] = value


def _build_config(args) -> ExperimentConfig:
    doc = _load_doc(args)
    if getattr(args, "mode", None):
        _override(doc, "run", "mode", args.mode)
    return config_from_dict(doc)


def _build_transform(cfg: ExperimentConfig):
    # Imported here, so that check never loads the transform module.
    from .set_transform import build_p_transform, build_q_transform

    if cfg.mode in GAMMA_MODES:
        return build_p_transform(cfg.system.B, cfg.system.C, cfg.gamma)
    return build_q_transform(cfg.system.D, cfg.xi)


def _check_stack_size(cfg: ExperimentConfig, seeds: int) -> None:
    """Reject a run whose histories need more bytes than numpy can address
    or the machine has, before anything is drawn; _learn allocates them up
    front, in _stack_shapes' shapes."""
    from .ilc_engine import _stack_shapes

    nbytes = sum(8 * math.prod(shape) for shape in _stack_shapes(cfg.iterations, seeds))
    limit, what = _byte_limit()
    if nbytes > limit:
        raise SchemaError("/run/iterations",
                          f"{cfg.iterations} trials of {seeds} seed(s) need {nbytes} "
                          f"bytes of trial stacks, more than the {limit} bytes {what}")


def _prepare(cfg: ExperimentConfig, seeds: range | None = None,
             verify_set: bool = False) -> functools.partial:
    """cfg's loop, built but not started; called with sink=, it runs under
    cfg.uncertainty, or each seed of seeds, for one RunResult per seed."""
    from .ilc_engine import IlcConfig, run, run_transformed

    _check_stack_size(cfg, 1 if seeds is None else seeds.stop - seeds.start)
    unc = (cfg.uncertainty if seeds is None
           else [cfg.uncertainty._replace(seed=seed) for seed in seeds])
    engine = IlcConfig(mode=cfg.mode, iterations=cfg.iterations, u0=cfg.u0)
    gains = (cfg.xi, cfg.gamma)
    if cfg.mode.startswith("transformed"):
        return functools.partial(run_transformed, cfg.system, unc, _build_transform(cfg),
                                 engine, counterpart=gains if verify_set else None)
    return functools.partial(run, cfg.system, unc, gains, engine,
                             counterpart=_build_transform(cfg) if verify_set else None)


def _require_open(stream: str) -> None:
    """Fail before any work when the command writes to this standard stream
    ("stdout" or "stderr") and its fd was closed at start-up, which leaves
    sys.stdout or sys.stderr None."""
    if getattr(sys, stream) is None:
        raise OSError(errno.EBADF, f"{stream} is closed")


def _diagnose(line: str) -> None:
    """Write one diagnostic line to stderr and nowhere else: with fd 2
    closed at start-up (print(file=None) would write to stdout) or a write
    that fails, it is dropped, and the exit status already chosen stands."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


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


def _applicable_reports(cfg: ExperimentConfig) -> list:
    sysm = cfg.system
    if cfg.mode in GAMMA_MODES:
        return [check_rho_cb_gamma(sysm.B, sysm.C, cfg.gamma),
                check_rho_gamma_cb(sysm.B, sysm.C, cfg.gamma)]
    if cfg.uncertainty.structured_D is not None:
        E = cfg.uncertainty.structured_D.E
        F = cfg.uncertainty.structured_D.F
    else:
        E = MatrixSchedule.from_values(np.zeros((sysm.p, 1)), sysm.N)
        F = MatrixSchedule.from_values(np.zeros((1, sysm.m)), sysm.N)
    return [check_rho_dxi(sysm.D, cfg.xi),
            check_rho_xid(sysm.D, cfg.xi),
            check_lmi(sysm.D, cfg.xi, E, F)]


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


def _sweep_rows(args, seeds: range) -> tuple:
    """Every seed's metric rows in order, behind a seed column, and the
    seeds' distinct warnings; the seeds share one trial loop."""
    cfg = _build_config(args)
    values = []
    results = _prepare(cfg, seeds)(sink=lambda trial: values.append(_trial_values(trial)))
    rows = [[str(seed)] + _metric_row(l, *trial[s].tolist())
            for s, seed in enumerate(seeds) for l, trial in enumerate(values)]
    return rows, tuple(dict.fromkeys(w for result in results for w in result.warnings))


def cmd_run(args) -> int:
    # Only run needs the engine, and only a run that builds a transform the
    # transform module.  Compiled after the config's arrays exist, they
    # fragment the heap (the sweep's peak RSS rose by ~0.4 MB).  The order of
    # the two moves --verify-set's peak RSS ~0.1 MB: transform first is lower.
    # A transformed mode named only in the config file loads it later.
    if args.verify_set or (args.mode or "").startswith("transformed"):
        importlib.import_module(f"{__package__}.set_transform")
    importlib.import_module(f"{__package__}.ilc_engine")
    # Fail before any trial when --out or its _traj.csv cannot be opened:
    # its directory is missing or it names a directory.
    for path in ([] if args.out is None else [args.out] + [
            _traj_path(args.out)] * (args.record_trajectories != "none")):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    # Only a sweep into --out writes nothing to stdout: other runs write
    # the metrics CSV or the summary there.  The summary of a run without
    # --out goes to stderr.
    if args.sweep is None or args.out is None:
        _require_open("stdout")
    if args.sweep is None and args.out is None:
        _require_open("stderr")
    if args.sweep is not None:
        seeds = _parse_sweep(args.sweep)
        if args.verify_set or args.record_trajectories != "none" or args.seed is not None:
            raise SchemaError("/sweep", "--sweep cannot be combined with "
                                        "--verify-set, --record-trajectories or --seed")
        rows, warnings = _sweep_rows(args, seeds)
        # A sweep prints no summary, so its warnings go to stderr on their own.
        for w in warnings:
            _diagnose(f"warning: {w}")
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", newline="", encoding="utf-8")) as fh:
            csv.writer(fh).writerows([("seed",) + CSV_HEADER] + rows)
        return 0
    if args.record_trajectories != "none" and args.out is None:
        raise SchemaError("/out", "--record-trajectories needs --out")

    cfg = _build_config(args)
    loop = _prepare(cfg, verify_set=args.verify_set)
    with _writers(args, cfg) as sink:
        result = loop(sink=sink)

    info = sys.stdout if args.out is not None else sys.stderr
    for line in _summary_lines(result):
        print(line, file=info)

    status = 0
    if not np.isfinite(result.E_hist[-1]):
        print("run diverged: final error is not finite", file=info)
        status = 1
    if args.verify_set:
        print(f"set-equivalence max output gap: {_fmt(result.equivalence_gap)}", file=info)
        if not result.equivalence_gap <= EQUIVALENCE_TOL:
            status = 1
    return status


def cmd_check(args) -> int:
    _require_open("stdout")
    cfg = _build_config(args)
    reports = _applicable_reports(cfg)
    names = [r.name for r in reports]
    required = set(names) if args.require_all else set(args.require or ())
    unknown = required - set(names)
    if unknown:
        raise SchemaError("/require",
                          f"not applicable here: {sorted(unknown)}; "
                          f"choose from {names}")
    widths = (14, 9, 16, 16)
    print(f"{'name':<{widths[0]}}{'worst_k':<{widths[1]}}"
          f"{'value':<{widths[2]}}{'margin':<{widths[3]}}verdict")
    for r in reports:
        verdict = "pass" if r.satisfied else "fail"
        print(f"{r.name:<{widths[0]}}{str(r.worst_k):<{widths[1]}}"
              f"{r.worst:<{widths[2]}.9g}{r.margin:<{widths[3]}.9g}{verdict}")
    failed = [r.name for r in reports if r.name in required and not r.satisfied]
    if failed:
        print(f"required conditions failed: {', '.join(failed)}")
        return 1
    return 0


def _json_list(item: str, count: int, level: int) -> str:
    """json.dumps(indent=2)'s text of a list of count items, each item's text
    at nesting level + 1, for the list at nesting level."""
    if not count:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join([item] * count) + "\n" + "  " * level + "]"


def _json_object(items: list, level: int) -> str:
    """json.dumps(indent=2)'s text of an object of (key, value text) items,
    each value's text at nesting level + 1, for the object at nesting level."""
    pad = "\n" + "  " * (level + 1)
    return ("{" + pad + ("," + pad).join(f"{json.dumps(key)}: {text}" for key, text in items)
            + "\n" + "  " * level + "}")


@functools.lru_cache(maxsize=32)
def _array_layout(shape: tuple, level: int) -> str:
    """json.dumps(indent=2)'s text of an array of this shape at nesting
    level, with %s in place of each number."""
    if not shape:
        return "%s"
    return _json_list(_array_layout(shape[1:], level + 1), shape[0], level)


def _number_text(a: np.ndarray) -> tuple:
    """The JSON text of each number of a in C order, from one pass of the C
    encoder: float repr, NaN and +-Infinity as json.dumps(indent=2) writes them."""
    if not a.size:
        return ()
    return tuple(json.dumps(a.ravel().tolist())[1:-1].split(", "))


def _step_text(*stacks: np.ndarray) -> tuple:
    """The number text of stacks that share a leading step axis, step by step:
    step 0's numbers of each stack in turn, then step 1's, and so on."""
    steps = len(stacks[0])
    return _number_text(np.concatenate(
        [a.reshape(steps, math.prod(a.shape[1:])).astype(object) for a in stacks], axis=1))


def _transform_json(transform, square) -> str:
    """transform's document for one iteration's square plant, in
    json.dumps(indent=2)'s text: every step's blocks, then the square plant's
    B and w on the transform's steps, its D (null for "gamma") and its v."""
    steps = transform.steps
    stacks = {"col_perm": transform.col_perm, "matrix": transform.T,
              "inverse": transform.Tinv, "gain_product": transform.gain_products}
    block = _json_object([("k", "%s")] + [(key, _array_layout(a.shape[1:], 3))
                                          for key, a in stacks.items()], 2)
    blocks = _json_list(block, steps, 1) % _step_text(np.arange(steps), *stacks.values())
    Dstar = None if transform.kind == "gamma" else square.D[:steps]
    transformed = _json_object(
        [(key, "null" if a is None else _array_layout(a.shape, 2) % _number_text(a))
         for key, a in (("Bstar", square.B[:steps]), ("Dstar", Dstar),
                        ("wstar", square.w[:steps]), ("vstar", square.v),
                        ("gain_star", transform.gain_products))], 1)
    return _json_object([("kind", json.dumps(transform.kind)), ("p", json.dumps(transform.p)),
                         ("m", json.dumps(transform.m)), ("steps", json.dumps(steps)),
                         ("iteration", "0"), ("blocks", blocks),
                         ("transformed", transformed)], 0)


def cmd_transform(args) -> int:
    from .set_transform import apply_transform

    if args.out is None:
        _require_open("stdout")
    cfg = _build_config(args)
    transform = _build_transform(cfg)
    realized = sample_iteration(cfg.system, cfg.uncertainty, 0)
    square = apply_transform(realized, transform, cfg.u0)
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", encoding="utf-8")) as fh:
        fh.write(_transform_json(transform, square))
        fh.write("\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilcset",
        description="Iterative learning control with input-space "
                    "equivalence transforms for time-varying MIMO plants.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH",
                        help="JSON experiment description")
    source.add_argument("--preset", choices=PRESET_NAMES,
                        help="built-in benchmark configuration")
    common.add_argument("--seed", type=int, default=None,
                        help="uncertainty stream seed (default 42 for presets)")
    common.add_argument("--iterations", type=int, default=None, metavar="L",
                        help="number of trials (default 300 for presets)")
    common.add_argument("--mode", default=None,
                        help="override the configured update mode")

    p_run = sub.add_parser("run", parents=[common],
                           help="execute the learning loop and emit metrics CSV")
    p_run.add_argument("--out", metavar="PATH",
                       help="metrics CSV path (stdout when omitted)")
    p_run.add_argument("--record-trajectories", choices=("final", "all", "none"),
                       default="none",
                       help="also write a *_traj.csv with k, y, r, e columns")
    p_run.add_argument("--verify-set", action="store_true",
                       help="also execute the counterpart run in the other "
                            "coordinates and report the worst output gap")
    p_run.add_argument("--sweep", metavar="seeds=A..B",
                       help="run every seed in the range and merge the CSVs")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", parents=[common],
                             help="evaluate the applicable design conditions")
    p_check.add_argument("--require", action="append", metavar="NAME",
                         help="exit 1 unless this condition holds (repeatable)")
    p_check.add_argument("--require-all", action="store_true",
                         help="exit 1 unless every listed condition holds")
    p_check.set_defaults(func=cmd_check)

    p_tr = sub.add_parser("transform", parents=[common],
                          help="dump the per-step transform blocks as JSON")
    p_tr.add_argument("--out", metavar="PATH",
                      help="JSON path (stdout when omitted)")
    p_tr.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    """Run one subcommand in this process and return its exit status.

    This is the entry for in-process callers; it leaves the garbage
    collector as it found it.  `console_main` is the process entry."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # A short output is still in stdout's buffer.  Flushing it here makes
        # an unwritable stdout an io error, not a failure at shutdown.
        if sys.stdout is not None:
            sys.stdout.flush()
        return status
    except SchemaError as exc:
        _diagnose(f"config error: {exc}")
        return 2
    except OSError as exc:
        _diagnose(f"io error: {exc}")
        return 2
    except IlcsetError as exc:
        _diagnose(f"error: {exc}")
        return 1


def console_main() -> int | str | None:
    """The process entry (``ilcset`` and ``python -m ilcset.cli``): `main`,
    then ready the process to exit.

    If stdout still cannot be flushed, fd 1 is pointed at the null device,
    so that the interpreter's flush at exit cannot fail; a failure nothing
    reported yet (argparse's ``--help`` text, say) becomes an io error.
    Then every object is frozen, so the collections at exit skip them."""
    try:
        status = main()
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        status = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not status:
            _diagnose(f"io error: {exc}")
            status = 2
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(console_main())
