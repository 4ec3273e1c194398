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
import dataclasses
import errno
import json
import logging
import os
import re
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
from .config import ExperimentConfig, config_from_dict
from .errors import IlcsetError, SchemaError
from .ilc_engine import (
    GAMMA_MODES,
    IlcConfig,
    RunResult,
    run,
    run_transformed,
)
from .plant import SEED_LIMIT, sample_iteration
from .presets import PRESET_NAMES, preset_config
from .schedule_lang import MatrixSchedule
from .set_transform import (
    build_p_transform,
    build_q_transform,
    apply_q_transform,
    apply_p_transform,
)

log = logging.getLogger(__name__)

CSV_HEADER = ("l", "E_inf", "U_inf", "res_err_rec", "res_in_rec")
EQUIVALENCE_TOL = 1e-9
_SWEEP_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("ILCSET_LOG", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


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
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("/", "top level must be an object")
    if args.seed is not None:
        doc.setdefault("uncertainty", {})["seed"] = args.seed
    if args.iterations is not None:
        doc.setdefault("run", {})["iterations"] = args.iterations
    return doc


def _build_config(args) -> ExperimentConfig:
    doc = _load_doc(args)
    if getattr(args, "mode", None):
        doc.setdefault("run", {})["mode"] = args.mode
    return config_from_dict(doc)


def _build_transform(cfg: ExperimentConfig):
    if cfg.mode in GAMMA_MODES:
        return build_p_transform(cfg.system.B, cfg.system.C, cfg.gamma)
    return build_q_transform(cfg.system.D, cfg.xi)


def _execute(cfg: ExperimentConfig, unc, verify_set: bool = False) -> RunResult | list:
    """Run cfg's loop under unc: one UncertaintySpec, or a list of them that
    run side by side and give one RunResult each."""
    engine = IlcConfig(mode=cfg.mode, iterations=cfg.iterations, u0=cfg.u0)
    gains = (cfg.xi, cfg.gamma)
    if cfg.mode.startswith("transformed"):
        return run_transformed(cfg.system, unc, _build_transform(cfg), engine,
                               counterpart=gains if verify_set else None)
    return run(cfg.system, unc, gains, engine,
               counterpart=_build_transform(cfg) if verify_set else None)


def _metric_rows(result: RunResult) -> list:
    rows = []
    for l in range(result.iterations):
        row = [str(l), _fmt(result.E_hist[l]), _fmt(result.U_hist[l])]
        if result.error_recursion is not None and l >= 1:
            row.append(_fmt(result.error_recursion.per_iteration[l - 1]))
            row.append(_fmt(result.input_recursion.per_iteration[l - 1]))
        else:
            row.extend(["", ""])
        rows.append(row)
    return rows


def _write_csv(path, header, rows) -> None:
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _traj_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return stem + "_traj" + (ext or ".csv")


def _trajectory_header(p: int) -> list:
    return (["l", "k"] + [f"y{i + 1}" for i in range(p)]
            + [f"r{i + 1}" for i in range(p)] + [f"e{i + 1}" for i in range(p)])


def _trajectory_rows(cfg: ExperimentConfig, result: RunResult, which: str):
    """One row per (recorded iteration, k), produced as the writer asks."""
    if which == "final":
        selected = [result.iterations - 1]
    else:
        selected = range(0, result.iterations, cfg.record_every)
    for l in selected:
        y, r = result.outputs[l], result.references[l]
        # Python floats: csv writes them with repr, the same text as _fmt.
        columns = np.concatenate([y, r, r - y], axis=1)[:, :, 0].tolist()
        for k, values in enumerate(columns):
            yield [l, k, *values]


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


def _sweep_rows(args, seeds: range) -> list:
    """The metric rows of every seed in order, behind a seed column; the
    config is built once and the seeds share one trial loop."""
    cfg = _build_config(args)
    results = _execute(cfg, [dataclasses.replace(cfg.uncertainty, seed=seed)
                             for seed in seeds])
    return [[str(seed)] + row
            for seed, result in zip(seeds, results) for row in _metric_rows(result)]


def cmd_run(args) -> int:
    # Fail before any trial runs when --out cannot be opened for writing
    # because its directory is missing or it names a directory.
    if args.out is not None:
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        if os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if args.sweep is not None:
        seeds = _parse_sweep(args.sweep)
        if args.verify_set or args.record_trajectories != "none" or args.seed is not None:
            raise SchemaError("/sweep", "--sweep cannot be combined with "
                                        "--verify-set, --record-trajectories or --seed")
        _write_csv(args.out, ("seed",) + CSV_HEADER, _sweep_rows(args, seeds))
        return 0
    if args.record_trajectories != "none" and args.out is None:
        raise SchemaError("/out", "--record-trajectories needs --out")

    cfg = _build_config(args)
    result = _execute(cfg, cfg.uncertainty, args.verify_set)
    _write_csv(args.out, CSV_HEADER, _metric_rows(result))

    if args.record_trajectories != "none":
        _write_csv(_traj_path(args.out), _trajectory_header(cfg.system.p),
                   _trajectory_rows(cfg, result, args.record_trajectories))

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
    cfg = _build_config(args)
    reports = _applicable_reports(cfg)
    names = [r.name for r in reports]
    widths = (14, 9, 16, 16)
    print(f"{'name':<{widths[0]}}{'worst_k':<{widths[1]}}"
          f"{'value':<{widths[2]}}{'margin':<{widths[3]}}verdict")
    for r in reports:
        verdict = "pass" if r.satisfied else "fail"
        print(f"{r.name:<{widths[0]}}{str(r.worst_k):<{widths[1]}}"
              f"{r.worst:<{widths[2]}.9g}{r.margin:<{widths[3]}.9g}{verdict}")
    required = set(names) if args.require_all else set(args.require or ())
    unknown = required - set(names)
    if unknown:
        raise SchemaError("/require",
                          f"not applicable here: {sorted(unknown)}; "
                          f"choose from {names}")
    failed = [r.name for r in reports if r.name in required and not r.satisfied]
    if failed:
        print(f"required conditions failed: {', '.join(failed)}")
        return 1
    return 0


def cmd_transform(args) -> int:
    cfg = _build_config(args)
    transform = _build_transform(cfg)
    realized = sample_iteration(cfg.system, cfg.uncertainty, 0)
    if cfg.mode in GAMMA_MODES:
        star = apply_p_transform(realized, transform, cfg.u0)
    else:
        star = apply_q_transform(realized, transform, cfg.u0)
    doc = {
        "kind": transform.kind,
        "p": transform.p,
        "m": transform.m,
        "steps": transform.steps,
        "iteration": 0,
        "blocks": [
            {
                "k": k,
                "col_perm": [int(c) for c in transform.col_perm[k]],
                "matrix": transform.T[k].tolist(),
                "inverse": transform.Tinv[k].tolist(),
                "gain_product": transform.gain_products[k].tolist(),
            }
            for k in range(transform.steps)
        ],
        "transformed": {
            "Bstar": star.Bstar.tolist(),
            "Dstar": None if star.Dstar is None else star.Dstar.tolist(),
            "wstar": star.wstar.tolist(),
            "vstar": star.vstar.tolist(),
            "gain_star": star.gain_star.tolist(),
        },
    }
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", encoding="utf-8")) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
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
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except IlcsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
