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
from .config import GAMMA_MODES, ExperimentConfig, config_from_dict
from .errors import IlcsetError, SchemaError
from .plant import SEED_LIMIT, sample_iteration
from .presets import PRESET_NAMES, preset_config
from .schedule_lang import MatrixSchedule

if TYPE_CHECKING:
    from .ilc_engine import RunResult

CSV_HEADER = ("l", "E_inf", "U_inf", "res_err_rec", "res_in_rec")
EQUIVALENCE_TOL = 1e-9
_SWEEP_RE = re.compile(r"(-?\d+)\.\.(-?\d+)")

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
    # Imported here, so that check never loads the transform module.
    from .set_transform import build_p_transform, build_q_transform

    if cfg.mode in GAMMA_MODES:
        return build_p_transform(cfg.system.B, cfg.system.C, cfg.gamma)
    return build_q_transform(cfg.system.D, cfg.xi)


def _physical_memory() -> int | None:
    """The machine's memory in bytes, or None where the platform does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _check_stack_size(cfg: ExperimentConfig, seeds: int) -> None:
    """Reject a run whose trial stacks need more bytes than numpy can
    address or the machine has, before any spec is built or anything drawn.
    _learn allocates them up front, all float64: inputs (m rows), states
    (n), outputs and references (p each), each (L, N+1, seeds, rows, 1),
    and five (L, seeds) histories."""
    sysm = cfg.system
    rows = sysm.m + sysm.n + 2 * sysm.p
    nbytes = 8 * cfg.iterations * seeds * ((sysm.N + 1) * rows + 5)
    limit, what = int(np.iinfo(np.intp).max), "numpy can address"
    memory = _physical_memory()
    if memory is not None and memory < limit:
        limit, what = memory, "of physical memory"
    if nbytes > limit:
        raise SchemaError("/run/iterations",
                          f"{cfg.iterations} trials of {seeds} seed(s) need {nbytes} "
                          f"bytes of trial stacks, more than the {limit} bytes {what}")


def _execute(cfg: ExperimentConfig, seeds: range | None = None,
             verify_set: bool = False) -> RunResult | list:
    """Run cfg's loop: under cfg.uncertainty, or under each seed of seeds side
    by side, which gives one RunResult per seed."""
    from .ilc_engine import IlcConfig, run, run_transformed

    _check_stack_size(cfg, 1 if seeds is None else seeds.stop - seeds.start)
    unc = (cfg.uncertainty if seeds is None
           else [cfg.uncertainty._replace(seed=seed) for seed in seeds])
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


def _write_trajectories(path: str, result: RunResult, iterations) -> None:
    """The trajectory CSV: one row l, k, y, r, e = r - y per recorded
    iteration l and step k, in csv.writer's bytes.  Each iteration's rows
    come from one row template, so one iteration's text is held at a time."""
    _, steps, p, _ = result.outputs.shape
    # %r of a Python float is csv.writer's text for it, as _fmt's is.
    rows = (",".join(["%d", "%d"] + ["%r"] * (3 * p)) + "\r\n") * steps
    table = np.empty((steps, 2 + 3 * p), dtype=object)
    table[:, 1] = range(steps)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_trajectory_header(p))
        for l in iterations:
            y, r = result.outputs[l, :, :, 0], result.references[l, :, :, 0]
            table[:, 0] = l
            table[:, 2:] = np.concatenate([y, r, r - y], axis=1)
            fh.write(rows % tuple(table.ravel().tolist()))


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
    """The metric rows of every seed in order, behind a seed column, and the
    distinct warnings of the seeds' runs; the config is built once and the
    seeds share one trial loop."""
    cfg = _build_config(args)
    results = _execute(cfg, seeds)
    rows = [[str(seed)] + row
            for seed, result in zip(seeds, results) for row in _metric_rows(result)]
    return rows, tuple(dict.fromkeys(w for result in results for w in result.warnings))


def cmd_run(args) -> int:
    # Only run needs the engine. It is loaded before the config is built:
    # compiled after the config's arrays exist, its transient compile memory
    # fragments the heap further and the sweep's peak RSS rose by ~0.4 MB.
    importlib.import_module(f"{__package__}.ilc_engine")
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
        rows, warnings = _sweep_rows(args, seeds)
        # A sweep prints no summary, so its warnings go to stderr on their own.
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        _write_csv(args.out, ("seed",) + CSV_HEADER, rows)
        return 0
    if args.record_trajectories != "none" and args.out is None:
        raise SchemaError("/out", "--record-trajectories needs --out")

    cfg = _build_config(args)
    result = _execute(cfg, verify_set=args.verify_set)
    _write_csv(args.out, CSV_HEADER, _metric_rows(result))

    if args.record_trajectories != "none":
        recorded = ([result.iterations - 1] if args.record_trajectories == "final"
                    else range(0, result.iterations, cfg.record_every))
        _write_trajectories(_traj_path(args.out), result, recorded)

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


def _transform_json(transform, star) -> str:
    """transform's document for one iteration's transformed system, in
    json.dumps(indent=2)'s text: every step's blocks, then star's arrays."""
    steps = transform.steps
    stacks = {"col_perm": transform.col_perm, "matrix": transform.T,
              "inverse": transform.Tinv, "gain_product": transform.gain_products}
    block = _json_object([("k", "%s")] + [(key, _array_layout(a.shape[1:], 3))
                                          for key, a in stacks.items()], 2)
    blocks = _json_list(block, steps, 1) % _step_text(np.arange(steps), *stacks.values())
    transformed = _json_object(
        [(key, "null" if a is None else _array_layout(a.shape, 2) % _number_text(a))
         for key, a in (("Bstar", star.Bstar), ("Dstar", star.Dstar), ("wstar", star.wstar),
                        ("vstar", star.vstar), ("gain_star", star.gain_star))], 1)
    return _json_object([("kind", json.dumps(transform.kind)), ("p", json.dumps(transform.p)),
                         ("m", json.dumps(transform.m)), ("steps", json.dumps(steps)),
                         ("iteration", "0"), ("blocks", blocks),
                         ("transformed", transformed)], 0)


def cmd_transform(args) -> int:
    from .set_transform import apply_p_transform, apply_q_transform

    cfg = _build_config(args)
    transform = _build_transform(cfg)
    realized = sample_iteration(cfg.system, cfg.uncertainty, 0)
    if cfg.mode in GAMMA_MODES:
        star = apply_p_transform(realized, transform, cfg.u0)
    else:
        star = apply_q_transform(realized, transform, cfg.u0)
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", encoding="utf-8")) as fh:
        fh.write(_transform_json(transform, star))
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
