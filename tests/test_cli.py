"""End-to-end command behaviour: CSV emission and reproducibility, exit
codes, the condition table, transform dumps, and the seed sweep."""

import collections
import csv
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ilcset.cli
import ilcset.ilc_engine
import ilcset.plant
from ilcset.cli import main
from ilcset.ilc_engine import GAMMA_MODES, MODES
from ilcset.plant import sample_iteration

CSV_HEADER = "l,E_inf,U_inf,res_err_rec,res_in_rec"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def make_divergent_config(tmp_path, iterations, amp_D=0.0, xi="-3"):
    # Loop factor 1 - Xi D_l: with amp_D = 0 and Xi = -3 the error grows as 4^l.
    doc = {
        "system": {
            "n": 1, "m": 1, "p": 1, "N": 1,
            "A": [["0"]], "B": [["0"]], "C": [["0"]], "D": [["1"]],
            "w": ["0"], "v": ["0"], "r": ["1"], "x0": [0.0],
        },
        "uncertainty": {"amplitudes": {"D": amp_D}},
        "gains": {"Xi": [[xi]]},
        "run": {"mode": "direct-xi", "iterations": iterations},
    }
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_metrics_csv(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(["run", "--preset", "example1", "--iterations", "4",
                 "--out", str(out)])
    assert code == 0
    raw = out.read_bytes()
    assert raw.startswith(CSV_HEADER.encode() + b"\r\n")
    rows = read_rows(out)
    assert len(rows) == 5  # header + one row per iteration
    assert rows[1][0] == "0" and rows[1][3] == "" and rows[1][4] == ""
    assert float(rows[2][3]) < 1e-8  # residual present from the second row on
    summary = capsys.readouterr().out
    assert "mode: direct-xi" in summary
    assert "converged value:" in summary


def test_identical_invocations_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--preset", "example2", "--iterations", "5", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_the_rows(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--preset", "example1", "--iterations", "3",
                 "--seed", "1", "--out", str(a)]) == 0
    assert main(["run", "--preset", "example1", "--iterations", "3",
                 "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_run_without_out_streams_csv(capsys):
    code = main(["run", "--preset", "example1", "--iterations", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith(CSV_HEADER)
    assert "mode: direct-xi" in captured.err  # summary kept off the data stream


def test_trajectory_file_final(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["run", "--preset", "example1", "--iterations", "3",
                 "--out", str(out), "--record-trajectories", "final"]) == 0
    rows = read_rows(tmp_path / "m_traj.csv")
    assert rows[0] == ["l", "k", "y1", "y2", "r1", "r2", "e1", "e2"]
    assert len(rows) == 1 + 101
    assert all(row[0] == "2" for row in rows[1:])
    assert [row[1] for row in rows[1:]] == [str(k) for k in range(101)]


def test_trajectory_file_all(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["run", "--preset", "example1", "--iterations", "3",
                 "--out", str(out), "--record-trajectories", "all"]) == 0
    rows = read_rows(tmp_path / "m_traj.csv")
    assert len(rows) == 1 + 3 * 101


def test_trajectories_need_out_path(monkeypatch, capsys):
    # Rejected before the config is built: no trial runs, no CSV on stdout.
    def no_config(args):
        raise AssertionError("config built")

    monkeypatch.setattr(ilcset.cli, "_build_config", no_config)
    code = main(["run", "--preset", "example1", "--iterations", "2",
                 "--record-trajectories", "final"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "config error: /out: --record-trajectories needs --out\n"


def test_config_error_names_each_path_once(tmp_path, capsys):
    doc = {
        "system": {
            "n": 1, "m": 2, "p": 1, "N": 3,
            "A": [["1/(k-2)"]], "B": [["1", "0"]], "C": [["1"]], "D": [["1", "0.5"]],
            "w": ["0"], "v": ["0"], "r": ["1"], "x0": [0.0],
        },
        "uncertainty": {"structured_D": {"E": [["1/(k-1)"]], "F": [["exp(1000)", "0"]]}},
        "gains": {"Xi": [["0.5"], ["0"]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "config error: /system/A/0/0: k=2: division by zero (1.0 / 0); "
        "/uncertainty/structured_D/E/0/0: k=1: division by zero (1.0 / 0); "
        + "; ".join(f"/uncertainty/structured_D/F/0/0: k={k}: exp evaluation failed: "
                    "math range error" for k in range(4))]


def test_verify_set_reports_gap(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["run", "--preset", "example1", "--iterations", "4",
                 "--out", str(out), "--verify-set"])
    assert code == 0
    summary = capsys.readouterr().out
    line = next(l for l in summary.splitlines()
                if l.startswith("set-equivalence max output gap:"))
    assert float(line.rsplit(" ", 1)[1]) <= 1e-9


def test_check_table_and_requirements(capsys):
    assert main(["check", "--preset", "example1"]) == 0
    table = capsys.readouterr().out
    assert "rho_dxi" in table and "rho_xid" in table and "lmi" in table
    assert "pass" in table and "fail" in table

    assert main(["check", "--preset", "example1", "--require", "rho_dxi"]) == 0
    assert main(["check", "--preset", "example1", "--require", "rho_xid"]) == 1
    assert main(["check", "--preset", "example1", "--require-all"]) == 1
    capsys.readouterr()
    assert main(["check", "--preset", "example1", "--require", "bogus"]) == 2


def test_check_look_ahead_family(capsys):
    assert main(["check", "--preset", "example2", "--require", "rho_cbgamma"]) == 0
    table = capsys.readouterr().out
    assert "rho_cbgamma" in table and "rho_gammacb" in table
    assert "lmi" not in table
    assert main(["check", "--preset", "example2", "--require-all"]) == 1


def test_check_eigenvalue_failure_exits_one(monkeypatch, capsys):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["check", "--preset", "example1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eigenvalue iteration failed")


def test_transform_dump(tmp_path):
    out = tmp_path / "t.json"
    assert main(["transform", "--preset", "example1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "xi"
    assert doc["steps"] == 101 and len(doc["blocks"]) == 101
    block = doc["blocks"][0]
    assert block["col_perm"] == [0, 1, 2]
    assert len(block["matrix"]) == 3 and len(block["inverse"]) == 3
    assert len(doc["transformed"]["Bstar"]) == 101
    assert doc["transformed"]["Dstar"] is not None


def test_transform_dump_look_ahead(capsys):
    assert main(["transform", "--preset", "example2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "gamma"
    assert doc["steps"] == 100
    assert doc["transformed"]["Dstar"] is None
    assert len(doc["transformed"]["vstar"]) == 101


def test_config_file_with_overrides(tmp_path, capsys):
    path = make_divergent_config(tmp_path, 30)
    code = main(["run", "--config", path, "--iterations", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.strip().splitlines()) == 4  # header + 3 rows
    assert "warning" in captured.err  # contraction violated but finite


def test_mode_override(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["run", "--preset", "example1", "--iterations", "3",
                 "--mode", "transformed-xi", "--out", str(out)])
    assert code == 0
    assert "mode: transformed-xi" in capsys.readouterr().out


def test_divergent_run_exits_one(tmp_path, capsys):
    path = make_divergent_config(tmp_path, 600)
    code = main(["run", "--config", path, "--out", str(tmp_path / "m.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", "--config", str(bad)]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["run", "--config", str(empty)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_preset_and_config_mutually_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "example1", "--config", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("mode", MODES)
def test_sweep_merges_in_seed_order(tmp_path, mode):
    # Each seed's block of the sweep, seed column dropped, is the bytes of
    # the single-seed run.
    preset = ("example2-clean" if mode == "repetitive"
              else "example2" if mode in GAMMA_MODES else "example1")
    argv = ["run", "--preset", preset, "--mode", mode, "--iterations", "3"]
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--sweep", "seeds=3..5", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["seed"] + CSV_HEADER.split(",")
    assert [row[0] for row in rows[1:]] == ["3"] * 3 + ["4"] * 3 + ["5"] * 3
    lines = out.read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    for seed in (3, 4, 5):
        single = tmp_path / f"seed{seed}.csv"
        assert main(argv + ["--seed", str(seed), "--out", str(single)]) == 0
        prefix = f"{seed},".encode()
        block = [line[len(prefix):] for line in lines[1:-1] if line.startswith(prefix)]
        assert b"\r\n".join([CSV_HEADER.encode()] + block + [b""]) == single.read_bytes()
    again = tmp_path / "sweep2.csv"
    assert main(argv + ["--sweep", "seeds=3..5", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


# With amp_D = 1.2 over 600 trials seed 2 stays finite, while seeds 0, 1
# and 3 diverge at l = 587, 582 and 577: later seeds blow up first.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, first", [("seeds=0..3", "l=587, k=1"),
                                         ("seeds=2..3", "l=577, k=1")],
                         ids=["first-seed-fails-last", "finite-seed-first"])
def test_sweep_reports_first_diverging_seed(tmp_path, capsys, spec, first):
    path = make_divergent_config(tmp_path, 600, amp_D=1.2)
    out = tmp_path / "sweep.csv"
    assert main(["run", "--config", path, "--sweep", spec, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: output diverged ({first})\n")
    assert not out.exists()


# With Xi = 1.9 the nominal loop factor is -0.9, so --verify-set's transform
# builds; the realized factors 1 - 1.9 D_l, D_l uniform on [-4, 6], still
# grow the error until trial 545 overflows.  Both lanes blow up there, and
# the main run's fault is the one reported.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["direct-xi", "transformed-xi"])
def test_verify_set_reports_the_main_runs_blow_up(tmp_path, capsys, mode):
    path = make_divergent_config(tmp_path, 600, amp_D=5.0, xi="1.9")
    out = tmp_path / "m.csv"
    assert main(["run", "--config", path, "--mode", mode, "--verify-set",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output diverged (l=545, k=0)\n"
    assert not out.exists()


def test_non_finite_grid_cell_exits_two(tmp_path, capsys):
    # json.load reads NaN as a float; the cell is named by its path.
    path = pathlib.Path(make_divergent_config(tmp_path, 3))
    path.write_text(path.read_text().replace('"A": [["0"]]', '"A": [[NaN]]'))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "m.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: /system/A/0/0: ")
    assert "finite" in captured.err


def test_sweep_bad_spec_exits_two(capsys):
    assert main(["run", "--preset", "example1", "--sweep", "3..5"]) == 2
    capsys.readouterr()
    for spec in ("seeds=--1..2", "seeds=0..--2", "seeds=1..2-", "seeds=0..1..2",
                 "seeds=\u00b2..3"):
        assert main(["run", "--preset", "example1", "--iterations", "2",
                     "--sweep", spec]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: /sweep: expected seeds=A..B "
                                "with integers A <= B\n"), spec


@pytest.mark.parametrize("flags", [["--verify-set"], ["--record-trajectories", "final"],
                                   ["--record-trajectories", "all"], ["--seed", "5"]])
def test_sweep_rejects_flags_it_cannot_honour(tmp_path, capsys, flags):
    out = tmp_path / "sweep.csv"
    assert main(["run", "--preset", "example1", "--iterations", "2",
                 "--sweep", "seeds=0..1", "--out", str(out), *flags]) == 2
    assert "cannot be combined" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, mode", [("example1", "direct-xi"),
                                          ("example1", "transformed-xi"),
                                          ("example2", "transformed-gamma")])
def test_each_realization_is_drawn_once(monkeypatch, tmp_path, capsys, preset, mode):
    # The run checks both recursions on the realizations it draws, so each
    # (seed, l) is sampled once; --verify-set's counterpart runs in the same
    # loop on the same draws.
    draws = collections.Counter()

    def counting(sys, unc, l):
        draws[unc.seed, l] += 1
        return sample_iteration(sys, unc, l)

    for module in (ilcset.plant, ilcset.ilc_engine, ilcset.cli):
        monkeypatch.setattr(module, "sample_iteration", counting)

    def drawn(*flags):
        draws.clear()
        assert main(["run", "--preset", preset, "--mode", mode, "--iterations", "5",
                     "--out", str(tmp_path / "m.csv"), *flags]) == 0
        return dict(draws)

    assert drawn() == {(42, l): 1 for l in range(5)}
    assert drawn("--verify-set") == {(42, l): 1 for l in range(5)}
    assert drawn("--sweep", "seeds=3..4") == {(s, l): 1 for s in (3, 4) for l in range(5)}
    capsys.readouterr()


def test_verify_set_counterpart_shares_the_loop(monkeypatch, tmp_path, capsys):
    # One draw per trial, one simulation of it with the main and counterpart
    # inputs side by side, one split of u0 and one assembly per trial for
    # the split-coordinate side.
    calls = collections.Counter()

    def spy(name):
        real = getattr(ilcset.ilc_engine, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ilcset.ilc_engine, name, counted)

    for name in ("sample_iteration", "simulate", "assemble_input", "split_input"):
        spy(name)
    assert main(["run", "--preset", "example1", "--iterations", "30", "--verify-set",
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert calls == {"sample_iteration": 30, "simulate": 30,
                     "assemble_input": 30, "split_input": 1}
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--sweep", "seeds=0..1"]])
@pytest.mark.parametrize("out, message", [
    ("missing-dir/m.csv", "[Errno 2] No such file or directory: 'missing-dir/m.csv'"),
    ("out-dir", "[Errno 21] Is a directory: 'out-dir'"),
], ids=["missing", "directory"])
def test_missing_out_directory_fails_before_any_draw(monkeypatch, tmp_path, capsys,
                                                     flags, out, message):
    def no_draw(sys, unc, l):
        raise AssertionError("trial ran")

    for module in (ilcset.plant, ilcset.ilc_engine, ilcset.cli):
        monkeypatch.setattr(module, "sample_iteration", no_draw)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out-dir").mkdir()
    code = main(["run", "--preset", "example1", "--out", out, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"io error: {message}\n"


def test_verify_set_unbuildable_transform_fails_before_any_trial(tmp_path, capsys):
    # rho(I - D Xi) = |1 - 3| = 2: the direct run is allowed (it only warns),
    # but the counterpart's transform cannot be built.
    doc = {
        "system": {
            "n": 1, "m": 2, "p": 1, "N": 3,
            "A": [["0.5"]], "B": [["1", "0"]], "C": [["1"]], "D": [["1", "0.5"]],
            "w": ["0"], "v": ["0"], "r": ["1"], "x0": [0.0],
        },
        "gains": {"Xi": [["3"], ["0"]]},
        "run": {"mode": "direct-xi"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "m.csv"
    code = main(["run", "--config", str(path), "--iterations", "3", "--verify-set",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: feedthrough-gain contraction precondition "
                            "fails: rho=2 at k=0\n")
    assert not out.exists()


def test_version_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "ilcset.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
