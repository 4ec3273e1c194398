"""The four benchmark workloads, their generated input and their correctness gates.

Every workload is one ``python -m ilcset.cli`` invocation built from the
benchmark seed ``S``:

- ``ex1-verify``: ``run --preset example1 --seed S --iterations 60
  --verify-set``. Current-error (Xi) plant with feedthrough and all eight
  uncertainty channels; the direct loop, the transformed loop and both
  recursion checks. The heavy case for ``plant``, ``ilc_engine`` and
  ``set_transform.assemble_input`` (L (N+1) = 6 060 calls).
- ``ex2-sweep``: ``run --preset example2 --sweep seeds=S..S+3 --iterations
  40``. Next-step-error (Gamma) plant without feedthrough, four seeds on the
  CLI's thread pool: the case for seed batching and GIL contention. It
  never touches ``set_transform``, so a transform optimisation must show no
  change here. The error settles within about 30 trials.
- ``long-horizon``: ``run --config <generated> --seed S
  --record-trajectories all`` at N = 1000, L = 10. Per-step overhead at a
  10x horizon, memory held by the retained trajectories, and the trajectory
  CSV write path (10 010 rows, about 1.2 MB), which no other workload
  reaches.
- ``design-check``: ``check --config <generated> --require rho_dxi
  --require lmi``. The ``conditions`` layer (``check_lmi``'s eigenvalue
  search) and schedule compilation at N = 1000, with no trial simulated.

Trial counts are chosen so that one invocation takes 2-5 s on a 2-core
machine: the host's speed drifts by up to 2x within a minute, and a median
over many short invocations is steadier than one over two or three long
ones (the 300-trial ``--verify-set`` run takes about 8 s, a four-seed
300-trial sweep 25 s). Per-trial work is the same as at 300 trials.

The long-horizon config is ``example1`` with ``(0.1*k)`` substituted for the
identifier ``k`` in every schedule and gain cell, and N = 1000. Plain
``example1`` with only N raised diverges (E is about 1e61 by L = 40: cells
such as ``3*k+4`` and ``0.2*(k-1)`` grow with k); the rescaled plant keeps
every cell on the range it spans at N = 100 and stays finite (E about 86 at
L = 40, recursion residual 7e-14, equivalence gap 1e-13).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

# tests/test_acceptance.py RECURSION_TOL and the CLI's --verify-set tolerance.
RECURSION_TOL = 1e-8
EQUIVALENCE_TOL = 1e-9
LONG_HORIZON_N = 1000
LONG_HORIZON_L = 10
GENERATED_CONFIG = "long-horizon.json"
METRICS_CSV = "metrics.csv"
TRAJ_CSV = "metrics_traj.csv"
_K = re.compile(r"\bk\b")
_GAP = re.compile(r"^set-equivalence max output gap: (\S+)$", re.M)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # "run" or "check"
    source: tuple         # CLI source flags; GENERATED_CONFIG is made per run
    flags: tuple          # flags after the source and seed
    sweep: int = 0        # seeds per invocation via --sweep (0: --seed S)
    loops: int = 1        # learning loops per seed
    iterations: int = 0   # L, for trial_steps_per_s
    horizon: int = 0      # N
    floor: bool = False   # report err_floor

    def argv(self, seed: int) -> list:
        """CLI arguments of one invocation, run in the work directory."""
        args = [self.command, *self.source]
        if self.sweep:
            args += ["--sweep", f"seeds={seed}..{seed + self.sweep - 1}"]
        else:
            args += ["--seed", str(seed)]
        args += list(self.flags)
        if self.command == "run":
            args += ["--out", METRICS_CSV]
        return args

    def setup_argv(self, seed: int) -> list:
        """``transform`` on the workload's source: the set-up a user pays."""
        return ["transform", *self.source, "--seed", str(seed), "--out", "transform.json"]

    def outputs(self) -> tuple:
        if self.command != "run":
            return ()
        if "--record-trajectories" in self.flags:
            return (METRICS_CSV, TRAJ_CSV)
        return (METRICS_CSV,)

    @property
    def trial_steps(self) -> int:
        """Simulated plant steps per invocation: L (N+1) loops seeds."""
        return self.iterations * (self.horizon + 1) * self.loops * max(1, self.sweep)

    @property
    def needs_config(self) -> bool:
        return GENERATED_CONFIG in self.source


WORKLOADS = {w.name: w for w in (
    Workload("ex1-verify",
             "Xi plant with feedthrough and all uncertainty channels; direct and "
             "transformed loops plus both recursion checks (plant, engine, assemble_input)",
             "run", ("--preset", "example1"), ("--iterations", "60", "--verify-set"),
             loops=2, iterations=60, horizon=100, floor=True),
    Workload("ex2-sweep",
             "Gamma plant, four seeds on the CLI thread pool: seed batching and GIL "
             "contention; never touches set_transform",
             "run", ("--preset", "example2"), ("--iterations", "40"),
             sweep=4, iterations=40, horizon=100, floor=True),
    Workload("long-horizon",
             "rescaled example1 at N=1000 with all trajectories recorded: per-step "
             "overhead, retained memory and the trajectory CSV write path",
             "run", ("--config", GENERATED_CONFIG), ("--record-trajectories", "all"),
             iterations=LONG_HORIZON_L, horizon=LONG_HORIZON_N),
    Workload("design-check",
             "rho_dxi and the structured LMI at N=1000 with no trial simulated: "
             "the conditions layer and schedule compilation",
             "check", ("--config", GENERATED_CONFIG), ("--require", "rho_dxi", "--require", "lmi")),
)}


def rescale_k(cell):
    """Substitute ``(0.1*k)`` for the identifier ``k`` in a cell or grid."""
    if isinstance(cell, str):
        return _K.sub("(0.1*k)", cell)
    if isinstance(cell, list):
        return [rescale_k(c) for c in cell]
    return cell


def long_horizon_config(example1: dict) -> dict:
    """The long-horizon experiment document built from ``example1``'s."""
    doc = json.loads(json.dumps(example1))
    system = doc["system"]
    for key, value in system.items():
        if isinstance(value, list):
            system[key] = rescale_k(value)
    doc["gains"] = {name: rescale_k(grid) for name, grid in doc["gains"].items()}
    system["N"] = LONG_HORIZON_N
    doc["run"]["iterations"] = LONG_HORIZON_L
    return doc


def write_inputs(root: Path, workdir: Path) -> None:
    """Generate the long-horizon config from the checkout's example1."""
    example1 = json.loads((root / "src" / "ilcset" / "data" / "example1.json")
                          .read_text(encoding="utf-8"))
    (workdir / GENERATED_CONFIG).write_text(
        json.dumps(long_horizon_config(example1), indent=2) + "\n", encoding="utf-8")


def digest(workdir: Path, workload: Workload, stdout: bytes) -> str:
    """sha256 over the invocation's output files, or its stdout for ``check``."""
    h = hashlib.sha256()
    names = workload.outputs()
    if not names:
        h.update(stdout)
    for name in names:
        path = workdir / name
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def _metric_rows(workdir: Path) -> list:
    with open(workdir / METRICS_CSV, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def gate(workdir: Path, workload: Workload, status: int, stdout: bytes) -> list:
    """Correctness problems of one finished invocation (empty when it is correct)."""
    if status != 0:
        return [f"exit status {status}"]
    text = stdout.decode("utf-8", "replace")
    problems = []
    if workload.command == "check":
        verdicts = {}
        for line in text.splitlines()[1:]:
            fields = line.split()
            if len(fields) == 5:
                verdicts[fields[0]] = fields[4]
        for name in ("rho_dxi", "lmi"):
            if verdicts.get(name) != "pass":
                problems.append(f"{name} verdict {verdicts.get(name)!r}")
        return problems
    try:
        rows = _metric_rows(workdir)
    except (OSError, csv.Error) as exc:
        return [f"metrics CSV unreadable: {exc}"]
    if not rows:
        problems.append("metrics CSV has no rows")
    for row in rows:
        for col in ("res_err_rec", "res_in_rec"):
            cell = row.get(col)
            if cell is None:
                problems.append(f"missing column {col}")
                return problems
            if cell and not float(cell) <= RECURSION_TOL:
                problems.append(f"{col}={cell} at l={row['l']} above {RECURSION_TOL}")
    if "--verify-set" in workload.flags:
        match = _GAP.search(text)
        if match is None:
            problems.append("no set-equivalence gap reported")
        elif not float(match.group(1)) <= EQUIVALENCE_TOL:
            problems.append(f"set-equivalence gap {match.group(1)} above {EQUIVALENCE_TOL}")
    for name in workload.outputs():
        if not (workdir / name).exists():
            problems.append(f"{name} not written")
    return problems


def err_floor(workdir: Path) -> float:
    """Largest E_inf over the last tenth of iterations, maximised over seeds."""
    by_seed: dict = {}
    for row in _metric_rows(workdir):
        by_seed.setdefault(row.get("seed"), []).append(float(row["E_inf"]))
    return max(max(E[-max(1, math.ceil(len(E) / 10)):]) for E in by_seed.values())


def out_bytes(workdir: Path, workload: Workload, stdout: bytes) -> int:
    """Bytes the invocation wrote: its output files plus standard output."""
    return len(stdout) + sum((workdir / name).stat().st_size
                             for name in workload.outputs() if (workdir / name).exists())
