"""End-to-end command behaviour: CSV emission and reproducibility, exit
codes, the condition table, transform dumps, and the seed sweep."""

import collections
import csv
import gc
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

import ilcset.cli
import ilcset.cli_run
import ilcset.cli_transform
import ilcset.config
import ilcset.ilc_engine
import ilcset.plant
import ilcset.set_transform
from ilcset.cli import main
from ilcset.config import config_from_dict
from ilcset.errors import SchemaError
from ilcset.ilc_engine import GAMMA_MODES, MODES
from ilcset.plant import sample_iteration
from ilcset.presets import build_preset, preset_config

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
    # An unknown name is a config error found before the table is printed.
    assert main(["check", "--preset", "example1", "--require", "rho_dxi",
                 "--require", "bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: /require: not applicable here: ['bogus']")


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
    assert len(doc["transformed"]["Bstar"]) == len(doc["transformed"]["wstar"]) == 100
    assert len(doc["transformed"]["vstar"]) == 101


def test_look_ahead_modes_run_with_nonrepetitive_b_and_c(tmp_path, capsys):
    # The look-ahead family takes B and C that change from trial to trial;
    # feedthrough uncertainty is still refused.
    doc = preset_config("example2")
    doc["uncertainty"]["amplitudes"].update(B=2e-4, C=2e-4)
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(doc))
    for mode in ("direct-gamma", "transformed-gamma"):
        assert main(["run", "--config", str(path), "--mode", mode, "--iterations", "30",
                     "--verify-set", "--out", str(tmp_path / f"{mode}.csv")]) == 0
        summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert float(summary["max residual (error recursion)"]) <= 1e-8
        assert float(summary["max residual (input recursion)"]) <= 1e-8
        assert (float(summary["set-equivalence max output gap"])
                <= ilcset.cli.EQUIVALENCE_TOL)
    assert main(["transform", "--config", str(path)]) == 0
    dumped = json.loads(capsys.readouterr().out)
    cfg = config_from_dict(doc)
    square = ilcset.set_transform.apply_transform(
        sample_iteration(cfg.system, cfg.uncertainty, 0),
        ilcset.set_transform.build_p_transform(cfg.system.B, cfg.system.C, cfg.gamma),
        cfg.u0)
    assert np.array_equal(np.array(dumped["transformed"]["Bstar"]), square.B[:100])
    doc["uncertainty"]["amplitudes"]["D"] = 2e-4
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--iterations", "1"]) == 2
    assert (capsys.readouterr().err
            == "config error: /run/mode: direct-gamma requires zero D uncertainty\n")


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


@pytest.mark.parametrize("value", [None, [], "x"], ids=["null", "list", "string"])
@pytest.mark.parametrize("flag, section", [("--seed", "uncertainty"), ("--iterations", "run"),
                                           ("--mode", "run")])
def test_flag_on_a_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys, flag,
                                                                    section, value):
    path = pathlib.Path(make_divergent_config(tmp_path, 3))
    doc = json.loads(path.read_text())
    doc[section] = value
    path.write_text(json.dumps(doc))
    arg = "direct-xi" if flag == "--mode" else "3"
    assert main(["check", "--config", str(path), flag, arg]) == 2
    assert capsys.readouterr().err == f"config error: /{section}: expected an object\n"


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
# the main run's fault is the one reported.  The rows of trials 0..544 are
# written, as the run cut at 545 trials writes them.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["direct-xi", "transformed-xi"])
def test_verify_set_reports_the_main_runs_blow_up(tmp_path, capsys, mode):
    path = make_divergent_config(tmp_path, 600, amp_D=5.0, xi="1.9")
    out, cut = tmp_path / "m.csv", tmp_path / "cut.csv"
    argv = ["run", "--config", path, "--mode", mode, "--verify-set"]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output diverged (l=545, k=0)\n"
    main(argv + ["--iterations", "545", "--out", str(cut)])
    capsys.readouterr()
    assert len(read_rows(out)) == 1 + 545
    assert out.read_bytes() == cut.read_bytes()


# The error of make_divergent_config's loop grows as 4^l until trial 512
# overflows.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [["--out", "m.csv"],
                                   ["--out", "m.csv", "--record-trajectories", "all"], []],
                         ids=["out", "trajectories", "stdout"])
def test_diverged_run_keeps_its_finished_rows(monkeypatch, tmp_path, capsys, flags):
    # Each trial's rows are written as it finishes, so the run that stops
    # at trial 512 leaves the rows of trials 0..511, byte for byte as the
    # run cut at 512 trials writes them; its exit status and error line are
    # as before, and no summary follows them.
    path = make_divergent_config(tmp_path, 600)

    def run_in(name, *extra):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code = main(["run", "--config", path, *flags, *extra])
        return code, capsys.readouterr()

    code, diverged = run_in("diverged")
    assert code == 1
    assert diverged.err == "error: output diverged (l=512, k=0)\n"
    code, cut = run_in("cut", "--iterations", "512")
    assert code == 0
    if not flags:
        assert diverged.out == cut.out
        assert len(diverged.out.splitlines()) == 1 + 512
        return
    assert diverged.out == ""
    names = ["m.csv"] + ["m_traj.csv"] * ("--record-trajectories" in flags)
    for name in names:
        assert (tmp_path / "diverged" / name).read_bytes() == (
            tmp_path / "cut" / name).read_bytes(), name
    assert sorted(os.listdir(tmp_path / "diverged")) == names
    assert len(read_rows(tmp_path / "diverged" / "m.csv")) == 1 + 512


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
                 "seeds=\u00b2..3", "seeds=\u0663..\u0665"):
        assert main(["run", "--preset", "example1", "--iterations", "2",
                     "--sweep", spec]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: /sweep: expected seeds=A..B "
                                "with integers A <= B\n"), spec


SEED_LIMIT = 2 ** 64


@pytest.mark.parametrize("flags", [["--seed", str(SEED_LIMIT)],
                                   ["--sweep", f"seeds={SEED_LIMIT}..{SEED_LIMIT}"],
                                   ["--sweep", f"seeds={SEED_LIMIT - 1}..{SEED_LIMIT}"]],
                         ids=["seed", "sweep", "sweep-last"])
def test_seed_the_philox_key_would_wrap_exits_two(tmp_path, capsys, flags):
    # Seed 2**64 + s would draw what seed s draws.
    out = tmp_path / "m.csv"
    assert main(["run", "--preset", "example1", "--iterations", "1", "--out", str(out),
                 *flags]) == 2
    captured = capsys.readouterr()
    path = "/uncertainty/seed" if flags[0] == "--seed" else "/sweep"
    assert captured.err.startswith(f"config error: {path}: ")
    assert "[0, 2**64)" in captured.err
    assert not out.exists()


def test_largest_seed_still_runs(tmp_path):
    last = str(SEED_LIMIT - 1)
    single, sweep = tmp_path / "single.csv", tmp_path / "sweep.csv"
    argv = ["run", "--preset", "example1", "--iterations", "2"]
    assert main(argv + ["--seed", last, "--out", str(single)]) == 0
    assert main(argv + ["--sweep", f"seeds={last}..{last}", "--out", str(sweep)]) == 0
    assert [row[1:] for row in read_rows(sweep)[1:]] == read_rows(single)[1:]
    assert {row[0] for row in read_rows(sweep)[1:]} == {last}


# The schedules of 2**50 steps fit in intp bytes but in no machine's memory,
# those of 2**62 steps not in intp bytes: both are refused before any is built.
@pytest.mark.parametrize("section, key, value",
                         [("run", "iterations", 2 ** 63), ("system", "N", 10 ** 400),
                          ("system", "N", 2 ** 50), ("system", "N", 2 ** 62)],
                         ids=["iterations", "N", "N-schedules-beyond-memory",
                              "N-schedules-beyond-intp"])
def test_count_numpy_cannot_index_exits_two(tmp_path, capsys, section, key, value):
    path = pathlib.Path(make_divergent_config(tmp_path, 3))
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: /{section}/{key}: ")
    assert len(err) < 200 and "Traceback" not in err


def test_iterations_flag_numpy_cannot_index_exits_two(capsys):
    assert main(["run", "--preset", "example1", "--iterations", str(2 ** 63)]) == 2
    assert capsys.readouterr().err.startswith("config error: /run/iterations: ")


@pytest.mark.parametrize("cell, detail", [
    ("(" * 250 + "1" + ")" * 250, "parse: expression nested too deeply"),
    ("-" * 500 + "1", "parse: expression nested too deeply"),
    # The parser reads a sum in a loop, but the tree is left-deep, so the
    # evaluation recurses once per term.
    ("+".join(["0.0001"] * 1000), "expression nested too deeply"),
], ids=["parentheses", "minuses", "long-sum"])
def test_expression_nested_too_deeply_is_a_config_error(tmp_path, capsys, cell, detail):
    path = pathlib.Path(make_divergent_config(tmp_path, 3))
    doc = json.loads(path.read_text())
    doc["system"]["A"][0][0] = cell
    path.write_text(json.dumps(doc))
    assert main(["check", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: /system/A/0/0: {detail}\n"


@pytest.mark.parametrize("command", [["run", "--iterations", "2"], ["check"], ["transform"]])
def test_misspelled_key_is_a_config_error(tmp_path, capsys, command):
    # Ignored, the misspelling would run example1 with no uncertainty at all.
    doc = preset_config("example1")
    doc["uncertainty"]["amplitude"] = doc["uncertainty"].pop("amplitudes")
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(doc))
    assert main(command + ["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: /uncertainty/amplitude: unknown key "
                            "(did you mean 'amplitudes'?)\n")


def test_non_ascii_cell_is_a_config_error(tmp_path, capsys):
    # A letter or a digit of another script: neither is part of the grammar.
    for cell in ("é", "\u0663"):
        doc = preset_config("example1")
        doc["system"]["A"][0][0] = cell
        path = tmp_path / "accent.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "--config", str(path)]) == 2, cell
        err = capsys.readouterr().err
        assert err.startswith("config error: /system/A/0/0: parse: "
                              f"unexpected character {cell!r} "), cell
        assert "Traceback" not in err


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
    # (seed, l) is drawn once; --verify-set's counterpart runs in the same
    # loop on the same draws.  Every draw goes through draw_trial, whose
    # plan holds the seeds that _draw_plan was given.
    draws = collections.Counter()
    seeds_of = {}
    real_plan, real_draw = ilcset.plant._draw_plan, ilcset.plant.draw_trial

    def planning(sys, uncs):
        plan = real_plan(sys, uncs)
        seeds_of[id(plan)] = [unc.seed for unc in uncs]
        return plan

    def counting(plan, l):
        for seed in seeds_of[id(plan)]:
            draws[seed, l] += 1
        return real_draw(plan, l)

    for module in (ilcset.plant, ilcset.ilc_engine):
        monkeypatch.setattr(module, "_draw_plan", planning)
        monkeypatch.setattr(module, "draw_trial", counting)

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

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for name in ("draw_trial", "simulate"):
        spy(ilcset.ilc_engine, name)
    for name in ("assemble_input", "split_input"):
        spy(ilcset.set_transform, name)
    assert main(["run", "--preset", "example1", "--iterations", "30", "--verify-set",
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert calls == {"draw_trial": 30, "simulate": 30,
                     "assemble_input": 30, "split_input": 1}
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--sweep", "seeds=0..1"]])
@pytest.mark.parametrize("out, message", [
    ("missing-dir/m.csv", "[Errno 2] No such file or directory: 'missing-dir/m.csv'"),
    ("out-dir", "[Errno 21] Is a directory: 'out-dir'"),
], ids=["missing", "directory"])
def test_missing_out_directory_fails_before_any_draw(monkeypatch, tmp_path, capsys,
                                                     flags, out, message):
    def no_draw(plan, l):
        raise AssertionError("trial ran")

    for module in (ilcset.plant, ilcset.ilc_engine):
        monkeypatch.setattr(module, "draw_trial", no_draw)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out-dir").mkdir()
    code = main(["run", "--preset", "example1", "--out", out, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"io error: {message}\n"


def test_unopenable_trajectory_path_fails_before_any_trial(monkeypatch, tmp_path, capsys):
    # The _traj.csv is checked with --out: no trial runs and no CSV is made.
    def no_draw(plan, l):
        raise AssertionError("trial ran")

    monkeypatch.setattr(ilcset.ilc_engine, "draw_trial", no_draw)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m_traj.csv").mkdir()
    code = main(["run", "--preset", "example1", "--iterations", "3",
                 "--record-trajectories", "all", "--out", "m.csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "io error: [Errno 21] Is a directory: 'm_traj.csv'\n"
    assert not (tmp_path / "m.csv").exists()


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


def test_unbuildable_coupling_gain_transform_message(tmp_path, capsys):
    # rho(I - C B Gamma) = |1 - 3| = 2 at k = 0: the look-ahead transform
    # cannot be built, with or without a counterpart.
    doc = {
        "system": {
            "n": 1, "m": 2, "p": 1, "N": 3,
            "A": [["0.5"]], "B": [["1", "0.5"]], "C": [["1"]], "D": [["0", "0"]],
            "w": ["0"], "v": ["0"], "r": ["1"], "x0": [0.0],
        },
        "gains": {"Gamma": [["3"], ["0"]]},
        "run": {"mode": "transformed-gamma"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--mode", "direct-gamma", "--verify-set"]):
        code = main(["run", "--config", str(path), "--iterations", "3", *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: coupling-gain contraction precondition "
                                "fails: rho=2 at k=0\n")


def test_version_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "ilcset.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


@pytest.mark.parametrize("argv, loaded", [
    (["run", "--preset", "example2-clean", "--mode", "repetitive", "--iterations", "3"], False),
    (["transform", "--preset", "example2-clean"], False),
    (["run", "--preset", "example2", "--iterations", "3"], True),
], ids=["clean-run", "clean-transform", "perturbed-run"])
def test_numpy_random_loads_only_when_a_channel_is_perturbed(tmp_path, argv, loaded):
    # A clean spec draws no noise, so its run never imports numpy.random
    # (about 6 MB of peak RSS).  A child interpreter, since this one may
    # have imported it already.
    script = textwrap.dedent("""
        import sys
        from ilcset.cli import main
        status = main(sys.argv[1:])
        print(status, "numpy.random" in sys.modules, file=sys.stderr)
    """)
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--out",
                           str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.stderr.splitlines()[-1] == f"0 {loaded}", proc.stderr


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    # Only the process entry freezes the heap; an in-process caller such as
    # this test run keeps collecting what main leaves behind.
    frozen = gc.get_freeze_count()
    assert main(["check", "--preset", "example1"]) == 0
    assert main(["run", "--preset", "example1", "--iterations", "2"]) == 0
    assert main(["transform", "--preset", "example2", "--out", str(tmp_path / "t.json")]) == 0
    with pytest.raises(SystemExit):
        main(["check", "--preset", "no-such-preset"])
    assert gc.get_freeze_count() == frozen


def test_module_and_script_share_the_process_entry():
    # python -m ilcset.cli freezes the heap before the interpreter exits...
    script = textwrap.dedent("""
        import atexit, gc, runpy, sys
        atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
        sys.argv = ["ilcset", "check", "--preset", "example1"]
        runpy.run_module("ilcset.cli", run_name="__main__", alter_sys=True)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("name ")
    assert proc.stderr == "frozen True\n"
    # ...and the installed ilcset command runs the same function.
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    module, _, name = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ilcset"].partition(":")
    assert getattr(importlib.import_module(module), name) is ilcset.cli.console_main


def test_profiler_still_reports_after_the_command():
    # The process entry returns to the interpreter, so exit handlers such
    # as cProfile's report still run.
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "ilcset.cli", "check",
                           "--preset", "example1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    table, _, stats = proc.stdout.partition("function calls")
    assert table.startswith("name ") and stats


def _buffered_env() -> dict:
    # Unbuffered, every write reaches the fd at once and fails inside the
    # command; buffered, a short output waits in stdout's buffer.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.fixture(scope="module")
def started_together(tmp_path_factory):
    """The children of one parametrized test, started together.

    On its first call with a given start and cases, started_together(cases,
    start, case) calls start(directory, c), which starts a child, for every c
    in cases, each with a fresh directory, so that the children run side by
    side.  It then waits on case's own child and returns its
    CompletedProcess and directory.
    """
    batches = {}

    def finished(cases, start, case):
        key = (start, id(cases))
        if key not in batches:
            batches[key] = []
            for c in cases:
                directory = tmp_path_factory.mktemp("child")
                batches[key].append((start(directory, c), directory))
        proc, directory = batches[key][cases.index(case)]
        out, err = proc.communicate(timeout=120)
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, err), directory

    yield finished
    for batch in batches.values():
        for proc, _ in batch:
            if proc.returncode is None:  # its case did not run, or timed out
                proc.kill()
                proc.communicate()


def _assert_one_io_error(proc, message: str) -> None:
    # run's summary goes to stderr ahead of the error; nothing follows it.
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"io error: {message}\n")
    assert proc.stderr.count("io error") == 1
    assert "Exception ignored" not in proc.stderr


UNWRITABLE_STDOUT_ARGV = [
    ["check", "--preset", "example1"],
    ["run", "--preset", "example1", "--iterations", "2"],
    ["--version"],
]


def _start_on_closed_pipe(directory, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.Popen([sys.executable, "-m", "ilcset.cli", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=_buffered_env())
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", UNWRITABLE_STDOUT_ARGV)
def test_stdout_on_a_closed_pipe_is_an_io_error(started_together, argv):
    proc, _ = started_together(UNWRITABLE_STDOUT_ARGV, _start_on_closed_pipe, argv)
    _assert_one_io_error(proc, "[Errno 32] Broken pipe")


def _start_on_full_device(directory, argv):
    with open("/dev/full", "w") as full:
        return subprocess.Popen([sys.executable, "-m", "ilcset.cli", *argv], stdout=full,
                                stderr=subprocess.PIPE, text=True, env=_buffered_env())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", UNWRITABLE_STDOUT_ARGV)
def test_stdout_on_a_full_device_is_an_io_error(started_together, argv):
    proc, _ = started_together(UNWRITABLE_STDOUT_ARGV, _start_on_full_device, argv)
    _assert_one_io_error(proc, "[Errno 28] No space left on device")


def _with_stdout_closed(directory, argv):
    """The CLI started with fd 1 closed, as a shell's ``ilcset ... >&-`` starts it;
    each argument ending in .csv or .json names a file in directory."""
    argv = [str(directory / arg) if arg.endswith((".csv", ".json")) else arg for arg in argv]
    return subprocess.Popen(["sh", "-c", 'exec "$@" >&-', "sh",
                             sys.executable, "-m", "ilcset.cli", *argv],
                            stderr=subprocess.PIPE, text=True)


STDOUT_NEEDED_ARGV = [
    ["check", "--preset", "example1"],
    ["run", "--preset", "example1", "--iterations", "2"],
    ["run", "--preset", "example2", "--iterations", "2", "--sweep", "seeds=0..1"],
    ["transform", "--preset", "example1"],
    # The summary, --verify-set's gap with it, goes to stdout beside --out.
    ["run", "--preset", "example1", "--iterations", "2", "--verify-set", "--out", "m.csv"],
]


@pytest.mark.parametrize("argv", STDOUT_NEEDED_ARGV,
                         ids=["check", "run", "sweep", "transform", "run-out"])
def test_closed_stdout_is_an_io_error_before_any_work(started_together, argv):
    proc, directory = started_together(STDOUT_NEEDED_ARGV, _with_stdout_closed, argv)
    assert proc.returncode == 2
    assert proc.stderr == "io error: [Errno 9] stdout is closed\n"
    assert list(directory.iterdir()) == []


STDOUT_UNUSED_ARGV = [
    ["transform", "--preset", "example1", "--out", "t.json"],
    ["run", "--preset", "example2", "--iterations", "2", "--sweep", "seeds=0..1",
     "--out", "s.csv"],
]


@pytest.mark.parametrize("argv", STDOUT_UNUSED_ARGV, ids=["transform", "sweep"])
def test_closed_stdout_is_no_error_when_nothing_goes_there(started_together, argv):
    proc, directory = started_together(STDOUT_UNUSED_ARGV, _with_stdout_closed, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (directory / argv[-1]).stat().st_size > 0


RUN_SUMMARY_TO_STDERR = ["run", "--preset", "example1", "--iterations", "2"]
RUN_MISSING_CONFIG = ["run", "--config", "missing.json"]
SWEEP_WITH_WARNING = ["run", "--config", "divergent.json", "--sweep", "seeds=0..1"]
UNWRITABLE_STDERR_CASES = [
    # Closed, the run stops before any trial; read-only, writing the summary
    # fails after the metrics CSV.
    ("2>&-", RUN_SUMMARY_TO_STDERR, 2, 0),
    ("2</dev/null", RUN_SUMMARY_TO_STDERR, 2, 3),
    ("2>&-", RUN_MISSING_CONFIG, 2, 0),
    ("2</dev/null", RUN_MISSING_CONFIG, 2, 0),
    ("2>&-", SWEEP_WITH_WARNING, 0, 5),
    ("2</dev/null", SWEEP_WITH_WARNING, 0, 5),
]


def _start_with_unwritable_stderr(directory, case):
    redirect, argv, _, _ = case
    make_divergent_config(directory, 2)
    argv = [str(directory / arg) if arg.endswith(".json") else arg for arg in argv]
    return subprocess.Popen(["sh", "-c", f'exec "$@" {redirect}', "sh",
                             sys.executable, "-m", "ilcset.cli", *argv],
                            stdout=subprocess.PIPE, text=True)


@pytest.mark.parametrize("redirect, argv, status, lines", UNWRITABLE_STDERR_CASES,
                         ids=["closed-run", "read-only-run", "closed-io-error",
                              "read-only-io-error", "closed-sweep-warning",
                              "read-only-sweep-warning"])
def test_stderr_that_cannot_be_written_leaves_stdout_clean(started_together, redirect, argv,
                                                           status, lines):
    # Closed, fd 2 leaves sys.stderr None, and print(file=None) would write
    # to stdout; read-only, as a shell wrapper can leave it, every write to
    # it fails.  Diagnostics are dropped, never moved to stdout, and a
    # dropped one leaves the exit status as it was.
    proc, _ = started_together(UNWRITABLE_STDERR_CASES, _start_with_unwritable_stderr,
                               (redirect, argv, status, lines))
    assert proc.returncode == status
    rows = proc.stdout.splitlines()
    assert len(rows) == lines
    assert all(row.startswith(("l,", "seed,")) for row in rows[:1])
    assert all(row[0].isdigit() for row in rows[1:])


def test_check_and_transform_leave_the_engine_unloaded(tmp_path):
    # Each command loads only what it uses: check neither the plant, the
    # engine, the transform module nor the run or transform parts of the
    # CLI; transform not the engine or the run part; a run not the
    # transform part, and a direct run not the transform module; and no
    # command dataclasses or logging.  Each command loads its modules before
    # the config is built, so that compiling them does not fragment the heap
    # under the config's arrays.  Each command runs in a fresh interpreter,
    # all of them at once.
    run = ["run", "--preset", "example1", "--iterations", "2"]
    plant, engine, transform, run_part, transform_part = (
        "ilcset.plant", "ilcset.ilc_engine", "ilcset.set_transform", "ilcset.cli_run",
        "ilcset.cli_transform")
    watched = (plant, engine, transform, run_part, transform_part, "dataclasses", "logging")
    procs = []
    for i, (argv, expected) in enumerate((
            (["check", "--preset", "example1"], []),
            (["transform", "--preset", "example2"], [plant, transform, transform_part]),
            (run, [plant, engine, run_part]),
            ([*run, "--verify-set"], [plant, engine, transform, run_part]),
            ([*run, "--mode", "transformed-xi"], [plant, engine, transform, run_part]))):
        if argv[0] != "check":
            argv = [*argv, "--out", str(tmp_path / f"out{i}")]
        script = textwrap.dedent(f"""
            import sys
            import ilcset.cli
            from ilcset.cli import main

            def loaded():
                return [name for name in {watched!r} if name in sys.modules]

            at_config = []
            build = ilcset.cli.config_from_dict

            def spy(doc):
                at_config.append(loaded())
                return build(doc)

            ilcset.cli.config_from_dict = spy
            assert main({argv!r}) == 0
            assert loaded() == {expected!r}, loaded()
            assert at_config == [{expected!r}], at_config
        """)
        procs.append((argv, subprocess.Popen([sys.executable, "-c", script],
                                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                             text=True)))
    for argv, proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, (argv, err)


@pytest.mark.parametrize("text", [
    '{"uncertainty": {"seed": ' + "7" * 5001 + "}}",   # past int's 4300-digit limit
    '{"run": ' + "[" * 100000 + "]" * 100000 + "}",   # past the decoder's recursion limit
])
def test_json_python_cannot_read_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: /: invalid JSON: ")
    assert "7777" not in err and len(err) < 300


def test_run_larger_than_numpy_can_address_is_a_config_error(monkeypatch, capsys):
    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(what)
        return call
    monkeypatch.setattr(ilcset.ilc_engine, "draw_trial", refuse("drew a realization"))
    monkeypatch.setattr(ilcset.ilc_engine, "_learn", refuse("allocated the stacks"))
    monkeypatch.setattr(ilcset.config.UncertaintySpec, "_replace", refuse("built a spec"))
    for argv in (
        # L (N+1) m 8 bytes overflows intp: numpy refuses it before allocating.
        ["--preset", "example1", "--iterations", str(2 ** 62)],
        # 8.8 TB of stacks fit in intp, but in no machine's memory.
        ["--preset", "example1", "--iterations", str(2 ** 40)],
        # So do one trial's stacks of 2**40 seeds, rejected before any spec is built.
        ["--preset", "example2", "--iterations", "1", "--sweep", f"seeds=0..{2 ** 40 - 1}"],
    ):
        assert main(["run", *argv]) == 2, argv
        assert capsys.readouterr().err.startswith("config error: /run/iterations: "), argv


def plant_stacks(preset, S):
    """The seed stacks the plant allocates, in order, for a run of S seeds
    of a preset: one of each channel it perturbs (example1 all eight,
    example2 A, w, v, r and x0)."""
    return {"example1": [(101, S, 4, 4), (101, S, 4, 3), (101, S, 2, 4), (101, S, 2, 3),
                         (101, S, 4, 1), (101, S, 2, 1), (101, S, 2, 1), (S, 4, 1)],
            "example2": [(101, S, 4, 4), (101, S, 4, 1), (101, S, 2, 1), (101, S, 2, 1),
                         (S, 4, 1)],
            "example2-clean": []}[preset]


def test_stack_size_check_counts_what_the_loop_allocates(monkeypatch, tmp_path, capsys):
    # The check, _learn and the plant read one layout, so the check counts
    # exactly the bytes the loop allocates: a budget one byte short refuses
    # the run.  Every run of the CLI hands its trials to a sink, so the loop
    # allocates the five histories and no signal stack, whatever trials it
    # writes; the plant's draw plan allocates two sets of seed stacks, and
    # each trial draws each channel into a scratch of its stack's size,
    # seed axis first, one channel at a time.  simulate's per-trial results
    # are not counted.
    allocated, scratches = [], []

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape):
            allocated.append(np.empty(shape))
            return allocated[-1]

    class SpyPlantNumpy(SpyNumpy):
        @staticmethod
        def zeros(shape):
            scratches.append(np.zeros(shape))
            return scratches[-1]

    def spying(real):
        def call(*args):
            with monkeypatch.context() as patch:
                patch.setattr(ilcset.plant, "np", SpyPlantNumpy())
                return real(*args)
        return call

    monkeypatch.setattr(ilcset.ilc_engine, "np", SpyNumpy())
    for name in ("_draw_plan", "draw_trial"):
        monkeypatch.setattr(ilcset.ilc_engine, name, spying(getattr(ilcset.plant, name)))
    for preset, flags, S in (("example1", ["--sweep", "seeds=0..1"], 2), ("example1", [], 1),
                             ("example1", ["--record-trajectories", "final"], 1),
                             ("example1", ["--record-trajectories", "all"], 1),
                             ("example2", ["--sweep", "seeds=0..3"], 4),
                             ("example2-clean", ["--mode", "repetitive"], 1)):
        allocated.clear()
        scratches.clear()
        assert main(["run", "--preset", preset, "--iterations", "7", *flags,
                     "--out", str(tmp_path / "m.csv")]) == 0
        capsys.readouterr()
        stacks = plant_stacks(preset, S)
        assert [a.shape for a in allocated] == (
            stacks * 2 + [(7, S)] * 2 + [(6, S)] * 3), (preset, flags)
        assert [a.shape for a in scratches] == [
            shape if len(shape) == 3 else (S, 101, *shape[2:]) for shape in stacks] * 7
        nbytes = sum(a.nbytes for a in allocated) + max((a.nbytes for a in scratches), default=0)
        cfg = build_preset(preset, iterations=7)
        with monkeypatch.context() as patch:
            patch.setattr(ilcset.cli_run, "_byte_limit", lambda: (nbytes, "allowed"))
            ilcset.cli_run._check_stack_size(cfg, S)
            patch.setattr(ilcset.cli_run, "_byte_limit", lambda: (nbytes - 1, "allowed"))
            with pytest.raises(SchemaError, match=f" need {nbytes} bytes "):
                ilcset.cli_run._check_stack_size(cfg, S)


def test_sweep_whose_seed_stacks_exceed_memory_fails_before_any_draw(monkeypatch, capsys):
    # 200 000 seeds of example1 need 3.2 MB of histories but 2 x 200 000 x
    # (101 * 50 + 4) x 8 B = 16.2 GB of seed stacks, and a scratch of A's
    # stack, 2.6 GB: more than an 8 GiB machine has.  The check counts them
    # before any spec is built or anything is drawn.
    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(what)
        return call
    for module in (ilcset.plant, ilcset.ilc_engine):
        monkeypatch.setattr(module, "_draw_plan", refuse("allocated the seed stacks"))
        monkeypatch.setattr(module, "draw_trial", refuse("drew a realization"))
    monkeypatch.setattr(ilcset.config.UncertaintySpec, "_replace", refuse("built a spec"))
    monkeypatch.setattr(ilcset.cli_run, "_byte_limit", lambda: (8 << 30, "of physical memory"))
    assert main(["run", "--preset", "example1", "--iterations", "1",
                 "--sweep", "seeds=0..199999"]) == 2
    stacks = 2 * 200000 * (101 * 50 + 4) * 8
    scratch = 200000 * 101 * 16 * 8
    assert capsys.readouterr().err == (
        f"config error: /run/iterations: 1 trials of 200000 seed(s) need "
        f"{stacks + scratch + 2 * 200000 * 8} bytes of trial stacks, more than the "
        f"{8 << 30} bytes of physical memory\n")


def test_sweep_prints_a_violated_condition(tmp_path):
    # A sweep prints no summary, so the warning comes on stderr on its own,
    # once for all seeds.
    path = make_divergent_config(tmp_path, 3)
    proc = subprocess.run([sys.executable, "-m", "ilcset.cli", "run", "--config", path,
                           "--sweep", "seeds=0..2"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "condition rho_dxi violated" in proc.stderr
    assert proc.stderr == ("warning: condition rho_dxi violated: worst 4 at k=0; "
                           "the run may diverge\n")
    assert len(proc.stdout.splitlines()) == 1 + 3 * 3


def _special_values(rng, shape):
    """Seeded floats of every magnitude, with the values JSON and CSV spell out."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1.0, -2.5e-7]
    flat = a.reshape(-1)
    flat[: min(len(flat), len(specials))] = specials[: len(flat)]
    return a


ARRAY_SHAPES = [(), (0,), (3,), (2, 0), (0, 3), (4, 2, 1), (3, 2, 2), (2, 0, 3), (1, 1, 1, 2)]


@pytest.mark.parametrize("shape", ARRAY_SHAPES)
@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.intp])
def test_array_text_equals_indented_json_dumps(shape, level, dtype):
    rng = np.random.default_rng(sum(shape) + 10 * level)
    if dtype is np.float64:
        a = _special_values(rng, shape)
    else:
        a = rng.integers(-10 ** 12, 10 ** 12, size=shape, dtype=dtype)
    text = (ilcset.cli_transform._array_layout(a.shape, level)
            % ilcset.cli_transform._number_text(a))
    assert text == json.dumps(a.tolist(), indent=2).replace("\n", "\n" + "  " * level)


def _reference_transform_doc(transform, square):
    # The document transform wrote through json.dumps(doc, indent=2).
    steps = transform.steps
    return {
        "kind": transform.kind, "p": transform.p, "m": transform.m,
        "steps": steps, "iteration": 0,
        "blocks": [{"k": k, "col_perm": [int(c) for c in transform.col_perm[k]],
                    "matrix": transform.T[k].tolist(), "inverse": transform.Tinv[k].tolist(),
                    "gain_product": transform.gain_products[k].tolist()}
                   for k in range(steps)],
        "transformed": {
            "Bstar": square.B[:steps].tolist(),
            "Dstar": None if transform.kind == "gamma" else square.D[:steps].tolist(),
            "wstar": square.w[:steps].tolist(), "vstar": square.v.tolist(),
            "gain_star": transform.gain_products.tolist()},
    }


@pytest.mark.parametrize("steps,p,m,n,star_steps,feedthrough", [
    (5, 1, 2, 2, 5, True),
    (4, 2, 3, 1, 3, False),   # the gamma kind: Dstar is null
    (3, 0, 2, 2, 3, True),    # empty per-step gain products
    (0, 1, 2, 1, 0, True),    # no steps at all
    (2, 1, 2, 0, 2, False),   # a zero-length state axis
])
def test_transform_json_equals_indented_json_dumps(steps, p, m, n, star_steps, feedthrough):
    rng = np.random.default_rng(steps * 100 + p * 10 + m)
    transform = SimpleNamespace(
        kind="xi" if feedthrough else "gamma", p=p, m=m, steps=steps,
        col_perm=np.array([rng.permutation(m) for _ in range(steps)], dtype=np.intp)
        .reshape(steps, m),
        T=_special_values(rng, (steps, m, m)), Tinv=_special_values(rng, (steps, m, m)),
        gain_products=_special_values(rng, (steps, p, p)))
    square = SimpleNamespace(
        B=_special_values(rng, (star_steps, n, p)),
        D=_special_values(rng, (star_steps, p, p)),
        w=_special_values(rng, (star_steps, n, 1)),
        v=_special_values(rng, (star_steps + 1, p, 1)))
    assert ilcset.cli_transform._transform_json(transform, square) == json.dumps(
        _reference_transform_doc(transform, square), indent=2)


@pytest.mark.parametrize("L,steps,p,recorded", [
    (3, 5, 1, range(3)), (4, 3, 2, range(0, 4, 2)), (2, 1, 3, range(1, 2)),
    (1, 4, 0, range(1)), (2, 300, 2, range(2)), (1, 256, 1, range(1)),
])
def test_trajectory_writer_equals_csv_writer(tmp_path, L, steps, p, recorded):
    # Of an L-trial run, the writer is handed the recorded trials, in order;
    # 256 and 300 steps take more than one block of rows.
    rng = np.random.default_rng(L * 100 + steps * 10 + p)
    K = len(recorded)
    outputs, references = (_special_values(rng, (K, steps, p)) for _ in range(2))
    path = tmp_path / "traj.csv"
    with np.errstate(invalid="ignore"):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write = ilcset.cli_run._trajectory_writer(fh, p)
            for l, y, r in zip(recorded, outputs, references):
                write(l, y, r)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["l", "k"] + [f"y{i + 1}" for i in range(p)]
                            + [f"r{i + 1}" for i in range(p)] + [f"e{i + 1}" for i in range(p)])
            for l, y, r in zip(recorded, outputs, references):
                for k in range(steps):
                    writer.writerow([l, k, *y[k].tolist(), *r[k].tolist(),
                                     *(r[k] - y[k]).tolist()])
    assert path.read_bytes() == expected.read_bytes()
