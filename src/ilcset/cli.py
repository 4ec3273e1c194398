"""Command-line front end.

Three subcommands share a config pipeline (JSON file or named preset plus
overrides): ``run`` executes the iteration loop and writes metrics CSV,
``check`` prints the contraction/feasibility report table, ``transform``
dumps the per-step transform blocks and transformed system as JSON.
What only ``run`` uses is in ``cli_run``, what only ``transform`` uses in
``cli_transform``; each command loads only those modules it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import importlib
import json
import os
import sys

import numpy as np

from . import __version__
from .conditions import (
    check_lmi,
    check_rho_cb_gamma,
    check_rho_dxi,
    check_rho_gamma_cb,
    check_rho_xid,
)
from .config import GAMMA_MODES, TRANSFORMED_MODES, ExperimentConfig, config_from_dict
from .errors import IlcsetError, SchemaError
from .presets import PRESET_NAMES, preset_config
from .schedule_lang import MatrixSchedule

EQUIVALENCE_TOL = 1e-9


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


def _sweep_rows(args, seeds: range) -> tuple:
    """Every seed's metric rows in order, behind a seed column, and the
    seeds' distinct warnings; the seeds share one trial loop."""
    from .cli_run import _metric_row, _prepare, _trial_values

    cfg = _build_config(args)
    values = []
    results = _prepare(cfg, seeds)(sink=lambda trial: values.append(_trial_values(trial)))
    rows = [[str(seed)] + _metric_row(l, *trial[s].tolist())
            for s, seed in enumerate(seeds) for l, trial in enumerate(values)]
    return rows, tuple(dict.fromkeys(w for result in results for w in result.warnings))


def cmd_run(args) -> int:
    # Only run needs the engine and cli_run, and only a run that builds a
    # transform the transform module.  Compiled after the config's arrays
    # exist, they fragment the heap (the sweep's peak RSS rose by ~0.4 MB).
    # Their order moves --verify-set's peak RSS: medians of six 10 s
    # perfbench runs of ex1-verify read 37.13 MB in this order, 37.17 with
    # the engine first and 37.20 with cli_run (and so the engine) first.
    # A transformed mode named only in the config file loads it later.
    if args.verify_set or args.mode in TRANSFORMED_MODES:
        importlib.import_module(f"{__package__}.set_transform")
    importlib.import_module(f"{__package__}.ilc_engine")
    from .cli_run import (_fmt, _parse_sweep, _prepare, _summary_lines, _traj_path,
                          _write_sweep, _writers)

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
        _write_sweep(args.out, rows)
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


def cmd_transform(args) -> int:
    from .cli_transform import _transform_json
    from .plant import sample_iteration
    from .set_transform import _for_config, apply_transform

    if args.out is None:
        _require_open("stdout")
    cfg = _build_config(args)
    transform = _for_config(cfg)
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
