"""Golden bytes: CLI outputs must match the recorded reference exactly.

Each case is one ``ilcset`` invocation run in-process.  Small outputs are
stored whole under ``tests/golden/``; large ones (the transform JSON, the
trajectory CSV) are stored as sha256 digests in ``tests/golden/digests.json``.
The references were recorded with numpy 2.4.6 on its OpenBLAS wheel; another
BLAS or LAPACK build may move the last bits of an eigenvalue or a product.

Re-record only when an output is meant to change::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from ilcset.cli import main
from ilcset.presets import preset_config

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
L = "12"

# A feedthrough plant with a structured D perturbation (the README example).
STRUCTURED_CONFIG = {
    "system": {
        "n": 1, "m": 2, "p": 1, "N": 50,
        "A": [["0.2"]], "B": [["0.5", "0.2*sin(0.3*k)"]],
        "C": [["1"]], "D": [["1", "0.5"]],
        "w": ["0"], "v": ["0"], "r": ["sin(0.1*k)"], "x0": [0],
    },
    "uncertainty": {
        "seed": 7,
        "amplitudes": {"A": 0.0002, "w": 0.0002},
        "structured_D": {"E": [[0.01]], "F": [["0.01", "0"]]},
    },
    "gains": {"Xi": [["0.8"], ["0"]]},
    "run": {"mode": "direct-xi", "iterations": 12, "record_every": 1},
}
# The same plant recording every third trial's trajectory.
STRIDED_CONFIG = {**STRUCTURED_CONFIG,
                  "run": {**STRUCTURED_CONFIG["run"], "record_every": 3}}



def _rescale_k(cell):
    if isinstance(cell, list):
        return [_rescale_k(c) for c in cell]
    return re.sub(r"\bk\b", "(0.1*k)", cell) if isinstance(cell, str) else cell


# example1 at N = 1000 with (0.1*k) for k in every schedule and gain cell, so
# that each cell spans the range it spans at N = 100 (the benchmark's
# long-horizon workload).
LONG_HORIZON_CONFIG = preset_config("example1", iterations=10)
LONG_HORIZON_CONFIG["system"] = {key: _rescale_k(value)
                                 for key, value in LONG_HORIZON_CONFIG["system"].items()}
LONG_HORIZON_CONFIG["system"]["N"] = 1000
LONG_HORIZON_CONFIG["gains"] = {name: _rescale_k(grid)
                                for name, grid in LONG_HORIZON_CONFIG["gains"].items()}

VERIFY_SET_RECORDING = ["run", "--preset", "example1", "--iterations", "30", "--verify-set",
                        "--out", "{out}", "--record-trajectories"]

# name -> (argv, output): "out" is the file passed as --out, "stdout" the
# captured standard output, "traj" the trajectory CSV beside "out".
# "{out}", "{config}", "{strided}" and "{long}" are filled in per run.
CASES = {
    "ex1_direct_xi.csv": (
        ["run", "--preset", "example1", "--iterations", L, "--out", "{out}"], "out"),
    "ex1_transformed_xi.csv": (
        ["run", "--preset", "example1", "--iterations", L, "--mode", "transformed-xi",
         "--out", "{out}"], "out"),
    "ex2_direct_gamma.csv": (
        ["run", "--preset", "example2", "--iterations", L, "--out", "{out}"], "out"),
    "ex2_transformed_gamma.csv": (
        ["run", "--preset", "example2", "--iterations", L, "--mode", "transformed-gamma",
         "--out", "{out}"], "out"),
    "ex2_clean_repetitive.csv": (
        ["run", "--preset", "example2-clean", "--iterations", L, "--mode", "repetitive",
         "--out", "{out}"], "out"),
    "ex1_sweep_0_2.csv": (
        ["run", "--preset", "example1", "--iterations", L, "--sweep", "seeds=0..2",
         "--out", "{out}"], "out"),
    "ex2_sweep_0_3.csv": (
        ["run", "--preset", "example2", "--iterations", L, "--sweep", "seeds=0..3",
         "--out", "{out}"], "out"),
    "ex1_sweep_transformed_xi_0_2.csv": (
        ["run", "--preset", "example1", "--iterations", L, "--mode", "transformed-xi",
         "--sweep", "seeds=0..2", "--out", "{out}"], "out"),
    "ex1_verify_set_summary.txt": (
        ["run", "--preset", "example1", "--iterations", L, "--verify-set",
         "--out", "{out}"], "stdout"),
    "ex2_verify_set_summary.txt": (
        ["run", "--preset", "example2", "--iterations", L, "--mode", "transformed-gamma",
         "--verify-set", "--out", "{out}"], "stdout"),
    "ex2_direct_gamma_verify_set_summary.txt": (
        ["run", "--preset", "example2", "--iterations", L, "--verify-set",
         "--out", "{out}"], "stdout"),
    "ex1_transformed_xi_verify_set_summary.txt": (
        ["run", "--preset", "example1", "--iterations", L, "--mode", "transformed-xi",
         "--verify-set", "--out", "{out}"], "stdout"),
    "ex2_clean_repetitive_verify_set_summary.txt": (
        ["run", "--preset", "example2-clean", "--iterations", L, "--mode", "repetitive",
         "--verify-set", "--out", "{out}"], "stdout"),
    "structured_verify_set.csv": (
        ["run", "--config", "{config}", "--verify-set", "--out", "{out}"], "out"),
    "ex1_check.txt": (["check", "--preset", "example1"], "stdout"),
    "ex2_check.txt": (["check", "--preset", "example2"], "stdout"),
    "structured_check.txt": (["check", "--config", "{config}"], "stdout"),
    "ex1_traj_all.csv": (
        ["run", "--preset", "example1", "--iterations", "4",
         "--record-trajectories", "all", "--out", "{out}"], "traj"),
    "ex2_transformed_gamma_traj_final.csv": (
        ["run", "--preset", "example2", "--mode", "transformed-gamma", "--iterations", "4",
         "--record-trajectories", "final", "--out", "{out}"], "traj"),
    "structured_traj_every3.csv": (
        ["run", "--config", "{strided}", "--record-trajectories", "all",
         "--out", "{out}"], "traj"),
    "ex1_transform.json": (["transform", "--preset", "example1", "--out", "{out}"], "out"),
    "ex2_transform.json": (["transform", "--preset", "example2", "--out", "{out}"], "out"),
    "long_horizon_transform.json": (
        ["transform", "--config", "{long}", "--seed", "7", "--out", "{out}"], "out"),
    "long_horizon_traj_all.csv": (
        ["run", "--config", "{long}", "--seed", "7", "--record-trajectories", "all",
         "--out", "{out}"], "traj"),
    # Trajectories together with --verify-set's lane axis: the metrics CSV
    # and the trajectory CSV, recording every trial or the last one.
    "ex1_verify_set_all.csv": (VERIFY_SET_RECORDING + ["all"], "out"),
    "ex1_verify_set_traj_all.csv": (VERIFY_SET_RECORDING + ["all"], "traj"),
    "ex1_verify_set_final.csv": (VERIFY_SET_RECORDING + ["final"], "out"),
    "ex1_verify_set_traj_final.csv": (VERIFY_SET_RECORDING + ["final"], "traj"),
}
DIGESTED = ("ex1_traj_all.csv", "ex2_transformed_gamma_traj_final.csv",
            "structured_traj_every3.csv", "ex1_transform.json", "ex2_transform.json",
            "long_horizon_transform.json", "long_horizon_traj_all.csv",
            "ex1_verify_set_all.csv", "ex1_verify_set_traj_all.csv",
            "ex1_verify_set_final.csv", "ex1_verify_set_traj_final.csv")


def produce(name: str) -> bytes:
    """Run one case in a fresh directory and return its output bytes."""
    argv, output = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        config, strided = Path(tmp) / "config.json", Path(tmp) / "strided.json"
        long = Path(tmp) / "long.json"
        config.write_text(json.dumps(STRUCTURED_CONFIG), encoding="utf-8")
        strided.write_text(json.dumps(STRIDED_CONFIG), encoding="utf-8")
        long.write_text(json.dumps(LONG_HORIZON_CONFIG), encoding="utf-8")
        args = [a.format(out=out, config=config, strided=strided, long=long) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = main(args)
        if status != 0:
            raise AssertionError(f"{name}: exit status {status}")
        if output == "stdout":
            return buf.getvalue().encode("utf-8")
        if output == "traj":
            return (Path(tmp) / "out_traj.csv").read_bytes()
        return out.read_bytes()


@pytest.mark.parametrize("name", sorted(set(CASES) - set(DIGESTED)))
def test_output_bytes_match_golden(name):
    assert produce(name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", DIGESTED)
def test_output_digest_matches_golden(name):
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert hashlib.sha256(produce(name)).hexdigest() == digests[name]


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    digests = {}
    for name in CASES:
        data = produce(name)
        if name in DIGESTED:
            digests[name] = hashlib.sha256(data).hexdigest()
        else:
            (GOLDEN / name).write_bytes(data)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
