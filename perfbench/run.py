"""ilcset benchmark: end-to-end CLI metrics and a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ex1-verify --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) is one ``python -m ilcset.cli``
invocation of the checkout's ``src``, run as a child process, one at a
time. With ``--trace 0`` it first times ``ilcset transform`` on the
workload's source a few times (``setup_s``), then repeats the invocation
until ``--seconds`` have passed since the start (set-up included) and
reports medians of

- ``wall_s``: wall time of the invocation,
- ``cpu_s``: user plus system time of that child alone,
- ``peak_rss_mb``: peak RSS of that child alone,
- ``setup_s``: wall time of ``transform`` (import, config validation,
  schedule compilation, transform construction).

The three times are in reference seconds. Before and after each
invocation the benchmark runs ``reference.py``, a fixed numpy program that
uses nothing from ilcset, and divides the invocation's wall (cpu) time by
the mean wall (cpu) time of the two reference runs around it;
``REF_SECONDS`` times the median of these ratios is the metric. On a
shared 2-vCPU host the speed of the machine shifts by up to 2x from one
minute to the next, and the two programs slow down together, so the ratio
holds still where the raw time does not.
The raw medians are kept in the record line (``raw_wall_s``,
``raw_cpu_s``, ``raw_setup_s``, ``ref_wall_s``). Children run with one
BLAS thread, as the reference does (with more, a busy host stalls BLAS
threads that wait for each other), and all on the same CPU: the host slows
its vCPUs at different moments, and the ratio cancels only a slowdown that
both programs saw.

Each child's resources come from ``os.wait4`` on its own pid:
``getrusage(RUSAGE_CHILDREN)`` keeps a high-water mark across all children,
so a small child run after a large one would report the large one's peak.

With ``--trace 1`` it alternates untraced invocations and invocations under
``tracer.py`` for ``--seconds`` and reports the medians of the per-layer
metrics of ``PER_LAYER`` instead; ``trace.overhead_s`` is the median traced
wall time minus the median untraced one.

Every invocation passes a correctness gate (``workloads.gate``) and its
output digest must repeat across the samples of one seed; a failure counts
in ``failed`` instead of dropping the sample. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record: environment stamp, every sample, output
digests, ``err_floor``, ``trial_steps_per_s`` and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_ENV = {"PYTHONPATH": str(SRC), **{k: "1" for k in BLAS_ENV}}
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Scale of the reported times: the reference program counts as this many seconds.
REF_SECONDS = 1.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# (metric, unit, kind, traced names). kind: self = summed self time,
# calls = span or counter count, wait = summed span wall minus thread CPU,
# useful = distinct (seed, l) samples per call.
_SPANNED = ("cli", "config", "schedule_lang", "presets", "plant", "ilc_engine",
            "set_transform", "conditions")
_CHECK_RHO = tuple(f"conditions.check_rho_{s}" for s in ("dxi", "xid", "cb_gamma", "gamma_cb"))
PER_LAYER = (
    ("config.config_from_dict.self_s", "s", "self", ("config.config_from_dict",)),
    ("schedule_lang.build_schedule.self_s", "s", "self", ("schedule_lang.build_schedule",)),
    ("schedule_lang.build_schedule.calls", "count", "calls", ("schedule_lang.build_schedule",)),
    ("schedule_lang.MatrixSchedule.at.calls", "count", "calls",
     ("schedule_lang.MatrixSchedule.at",)),
    ("plant.sample_iteration.self_s", "s", "self", ("plant.sample_iteration",)),
    ("plant.sample_iteration.calls", "count", "calls", ("plant.sample_iteration",)),
    ("plant.sample_iteration.useful_ratio", "ratio", "useful", ("plant.sample_iteration",)),
    ("plant.simulate.self_s", "s", "self", ("plant.simulate",)),
    ("plant.simulate.calls", "count", "calls", ("plant.simulate",)),
    ("ilc_engine.run.self_s", "s", "self", ("ilc_engine.run",)),
    ("ilc_engine.run_transformed.self_s", "s", "self", ("ilc_engine.run_transformed",)),
    ("ilc_engine.update_input.self_s", "s", "self", ("ilc_engine.update_input",)),
    ("ilc_engine.realizations_for.self_s", "s", "self", ("ilc_engine.realizations_for",)),
    ("ilc_engine.verify_error_recursion.self_s", "s", "self",
     ("ilc_engine.verify_error_recursion",)),
    ("ilc_engine.verify_input_recursion.self_s", "s", "self",
     ("ilc_engine.verify_input_recursion",)),
    ("set_transform.build_q_transform.self_s", "s", "self", ("set_transform.build_q_transform",)),
    ("set_transform.build_p_transform.self_s", "s", "self", ("set_transform.build_p_transform",)),
    ("set_transform.assemble_input.self_s", "s", "self", ("set_transform.assemble_input",)),
    ("set_transform.assemble_input.calls", "count", "calls", ("set_transform.assemble_input",)),
    ("set_transform.split_input.calls", "count", "calls", ("set_transform.split_input",)),
    ("conditions.check_lmi.self_s", "s", "self", ("conditions.check_lmi",)),
    ("conditions.check_rho.self_s", "s", "self", _CHECK_RHO),
    ("matrix_core.inf_norm.calls", "count", "calls", ("matrix_core.inf_norm",)),
    ("matrix_core.spectral_radius.calls", "count", "calls", ("matrix_core.spectral_radius",)),
    ("cli.cmd_run.self_s", "s", "self", ("cli.cmd_run",)),
    ("cli.cmd_check.self_s", "s", "self", ("cli.cmd_check",)),
    ("cli.sweep.wait_s", "s", "wait", ("cli.sweep",)),
    ("cli.out_bytes", "bytes", "out_bytes", ()),
    *((f"{layer}.self_s", "s", "layer", (layer,)) for layer in _SPANNED),
    ("trace.wall_s", "s", "trace_wall", ()),
    ("trace.overhead_s", "s", "overhead", ()),
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    stdout: bytes


def run_child(argv: list, cwd: Path) -> Sample:
    """Run one child to completion and read its own resource usage."""
    env = dict(os.environ, **CHILD_ENV)
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
                  status=proc.returncode, stdout=stdout)


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "ilcset.cli", *args]


def stamp() -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_env": {k: CHILD_ENV[k] for k in BLAS_ENV}}


class Measurement:
    """Invocations of one workload at one seed, with their gates."""

    def __init__(self, workload: wl.Workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.records: list = []
        self.digests: list = []
        self.ref_outputs: list = []
        self.last_reference = None

    def _clear_outputs(self) -> None:
        for name in self.workload.outputs():
            (self.workdir / name).unlink(missing_ok=True)

    def setup(self) -> Sample:
        sample = run_child(cli_argv(self.workload.setup_argv(self.seed)), self.workdir)
        problems = [] if sample.status == 0 else [f"exit status {sample.status}"]
        self._record("setup", sample, problems)
        return sample

    def reference(self) -> Sample:
        """One run of the reference program; its output must repeat."""
        sample = run_child([sys.executable, str(REFERENCE)], self.workdir)
        problems = [] if sample.status == 0 else [f"exit status {sample.status}"]
        if self.ref_outputs and sample.stdout != self.ref_outputs[0]:
            problems.append(f"reference printed {sample.stdout!r}, "
                            f"not {self.ref_outputs[0]!r}")
        self.ref_outputs.append(sample.stdout)
        self._record("reference", sample, problems)
        return sample

    def invoke(self, argv_prefix=None, kind="sample") -> Sample:
        self._clear_outputs()
        args = self.workload.argv(self.seed)
        argv = cli_argv(args) if argv_prefix is None else [*argv_prefix, *args]
        sample = run_child(argv, self.workdir)
        problems = wl.gate(self.workdir, self.workload, sample.status, sample.stdout)
        digest = wl.digest(self.workdir, self.workload, sample.stdout)
        if self.digests and digest != self.digests[0]:
            problems.append(f"output digest {digest[:12]} differs from {self.digests[0][:12]}")
        self.digests.append(digest)
        self._record(kind, sample, problems, digest=digest)
        return sample

    def _record(self, kind: str, sample: Sample, problems: list, **extra) -> None:
        self.records.append({"kind": kind, "wall_s": sample.wall_s, "cpu_s": sample.cpu_s,
                             "peak_rss_mb": sample.peak_rss_mb, "status": sample.status,
                             "problems": problems, **extra})

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    def bracketed(self, step, min_count: int, deadline: float) -> list:
        """(reference, step(), reference) triples, at least ``min_count``.

        Consecutive triples share their reference run. No triple starts that
        would probably end after ``deadline`` (a ``time.perf_counter`` value).
        """
        out = []
        before = self.last_reference or self.reference()
        while True:
            t0 = time.perf_counter()
            sample = step()
            self.last_reference = self.reference()
            out.append((before, sample, self.last_reference))
            before = self.last_reference
            now = time.perf_counter()
            if len(out) >= min_count and now + (now - t0) > deadline:
                return out


def ref_ratio(triples: list, field: str) -> float:
    """``REF_SECONDS`` times the median ratio of ``field`` of each sample to the
    mean of the reference runs on either side of it."""
    return REF_SECONDS * statistics.median(
        2.0 * getattr(s, field) / (getattr(r0, field) + getattr(r1, field))
        for r0, s, r1 in triples)


def end_to_end(m: Measurement, seconds: float) -> tuple:
    start = time.perf_counter()
    setups = m.bracketed(m.setup, SETUP_REPEATS, deadline=start)
    samples = m.bracketed(m.invoke, 1, start + seconds)
    metrics = {"wall_s": ref_ratio(samples, "wall_s"),
               "cpu_s": ref_ratio(samples, "cpu_s"),
               "peak_rss_mb": statistics.median(s.peak_rss_mb for _, s, _ in samples),
               "setup_s": ref_ratio(setups, "wall_s")}
    refs = [r for r in m.records if r["kind"] == "reference"]
    extra = {"samples": len(samples), "setups": len(setups),
             "raw_wall_s": statistics.median(s.wall_s for _, s, _ in samples),
             "raw_cpu_s": statistics.median(s.cpu_s for _, s, _ in samples),
             "raw_setup_s": statistics.median(s.wall_s for _, s, _ in setups),
             "ref_wall_s": statistics.median(r["wall_s"] for r in refs)}
    if m.workload.trial_steps:
        extra["trial_steps_per_s"] = m.workload.trial_steps / extra["raw_wall_s"]
    if m.workload.floor and m.failed == 0:
        extra["err_floor"] = wl.err_floor(m.workdir)
    return metrics, extra


_NO_SPANS = (0, 0.0, 0.0)


def layer_metrics(doc: dict, out_bytes: int, overhead: float) -> tuple:
    """Per-layer metrics from a tracer document; names no longer traced are absent."""
    spans = doc["spans"]
    selfs = tracer.self_times(spans)
    by_name: dict = {}   # name -> [calls, self_s, wait_s]
    for sid, _parent, name, _thread, t0, t1, cpu in spans:
        agg = by_name.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += selfs[sid]
        agg[2] += (t1 - t0) - cpu
    traced = set(doc["traced"])
    counts = doc["counts"]
    metrics, absent = {}, []
    for metric, unit, kind, names in PER_LAYER:
        if kind == "layer":
            names = tuple(n for n in traced if n.startswith(names[0] + "."))
            if not names:
                absent.append(metric)
                continue
        elif names and not traced.intersection(names):
            absent.append(metric)
            continue
        if kind == "self" or kind == "layer":
            value = sum(by_name.get(n, _NO_SPANS)[1] for n in names)
        elif kind == "calls":
            value = sum(counts[n] if n in counts else by_name.get(n, _NO_SPANS)[0] for n in names)
        elif kind == "wait":
            value = sum(by_name.get(n, _NO_SPANS)[2] for n in names)
        elif kind == "useful":
            calls = by_name.get(names[0], _NO_SPANS)[0]
            value = doc["distinct_samples"] / calls if calls else 0.0
        elif kind == "out_bytes":
            value = out_bytes
        elif kind == "trace_wall":
            value = doc["wall_s"]
        else:
            value = overhead
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, absent


def per_layer(m: Measurement, seconds: float) -> tuple:
    """Alternate untraced and traced invocations for ``seconds``; medians per metric."""
    m.setup()
    trace_file = m.workdir / "trace.json"
    tracer_argv = [sys.executable, str(Path(tracer.__file__).resolve()), str(trace_file)]
    untraced, traced, docs = [], [], []
    start = time.perf_counter()
    while not docs or time.perf_counter() - start < seconds:
        untraced.append(m.invoke())
        trace_file.unlink(missing_ok=True)
        traced.append(m.invoke(tracer_argv, kind="traced"))
        if traced[-1].status != 0 or not trace_file.exists():
            return {}, {"absent": [name for name, *_ in PER_LAYER]}
        docs.append(json.loads(trace_file.read_text(encoding="utf-8")))
    out_bytes = wl.out_bytes(m.workdir, m.workload, untraced[-1].stdout)
    overhead = (statistics.median(s.wall_s for s in traced)
                - statistics.median(s.wall_s for s in untraced))
    runs = [layer_metrics(doc, out_bytes, overhead) for doc in docs]
    # median_low keeps counts integral and picks a measured value.
    metrics = {name: {"value": statistics.median_low(r[0][name]["value"] for r in runs),
                      "unit": entry["unit"]}
               for name, entry in runs[0][0].items()}
    return metrics, {"absent": runs[0][1], "traced_runs": len(docs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "ilcset" / "cli.py").is_file():
        print(f"no ilcset sources under {SRC}", file=sys.stderr)
        return 2

    # Children inherit this: every invocation and reference run shares one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = wl.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        if workload.needs_config:
            wl.write_inputs(ROOT, workdir)
        m = Measurement(workload, args.seed, workdir)
        if args.trace:
            metrics, extra = per_layer(m, args.seconds)
        else:
            values, extra = end_to_end(m, args.seconds)
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    failed = m.failed
    correct = failed == 0 and bool(metrics)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "stamp": stamp(), "failed_frac": failed / m.attempted,
              "digest": m.digests[0] if m.digests else None, **extra,
              "invocations": m.records}
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
