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
import sys
import tempfile
from pathlib import Path

import pytest

from ilcset.cli import main

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

# name -> (argv, output): "out" is the file passed as --out, "stdout" the
# captured standard output.  "{out}" and "{config}" are filled in per run.
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
    "ex1_transform.json": (["transform", "--preset", "example1", "--out", "{out}"], "out"),
    "ex2_transform.json": (["transform", "--preset", "example2", "--out", "{out}"], "out"),
}
DIGESTED = ("ex1_traj_all.csv", "ex1_transform.json", "ex2_transform.json")


def produce(name: str) -> bytes:
    """Run one case in a fresh directory and return its output bytes."""
    argv, output = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(STRUCTURED_CONFIG), encoding="utf-8")
        args = [a.format(out=out, config=config) for a in argv]
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
