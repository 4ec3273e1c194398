"""End-to-end command behaviour: CSV emission and reproducibility, exit
codes, the condition table, transform dumps, and the seed sweep."""

import collections
import csv
import json
import pathlib
import subprocess
import sys
import textwrap
from types import SimpleNamespace

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


@pytest.mark.parametrize("section, key, value",
                         [("run", "iterations", 2 ** 63), ("system", "N", 10 ** 400)],
                         ids=["iterations", "N"])
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


def test_check_and_transform_leave_the_engine_unloaded(tmp_path):
    # Each command loads only what it uses: check not even the transform
    # module, and no command dataclasses or logging.
    script = textwrap.dedent(f"""
        import sys
        from ilcset.cli import main

        WATCHED = ("ilcset.ilc_engine", "ilcset.set_transform", "dataclasses", "logging")

        def loaded():
            return [name for name in WATCHED if name in sys.modules]

        assert main(["check", "--preset", "example1"]) == 0
        assert loaded() == [], loaded()
        assert main(["transform", "--preset", "example2", "--out", {str(tmp_path / "t.json")!r}]) == 0
        assert loaded() == ["ilcset.set_transform"], loaded()
        assert main(["run", "--preset", "example1", "--iterations", "2",
                     "--out", {str(tmp_path / "m.csv")!r}]) == 0
        assert loaded() == ["ilcset.ilc_engine", "ilcset.set_transform"], loaded()
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    monkeypatch.setattr(ilcset.ilc_engine, "sample_iteration", refuse("drew a realization"))
    monkeypatch.setattr(ilcset.ilc_engine, "_learn", refuse("allocated the stacks"))
    monkeypatch.setattr(ilcset.plant.UncertaintySpec, "_replace", refuse("built a spec"))
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
    text = ilcset.cli._array_layout(a.shape, level) % ilcset.cli._number_text(a)
    assert text == json.dumps(a.tolist(), indent=2).replace("\n", "\n" + "  " * level)


def _reference_transform_doc(transform, star):
    # The document transform wrote through json.dumps(doc, indent=2).
    return {
        "kind": transform.kind, "p": transform.p, "m": transform.m,
        "steps": transform.steps, "iteration": 0,
        "blocks": [{"k": k, "col_perm": [int(c) for c in transform.col_perm[k]],
                    "matrix": transform.T[k].tolist(), "inverse": transform.Tinv[k].tolist(),
                    "gain_product": transform.gain_products[k].tolist()}
                   for k in range(transform.steps)],
        "transformed": {name: None if getattr(star, name) is None
                        else getattr(star, name).tolist()
                        for name in ("Bstar", "Dstar", "wstar", "vstar", "gain_star")},
    }


@pytest.mark.parametrize("steps,p,m,n,star_steps,feedthrough", [
    (5, 1, 2, 2, 5, True),
    (4, 2, 3, 1, 3, False),   # the gamma kind: no Dstar, star stacks one step shorter
    (3, 0, 2, 2, 3, True),    # empty per-step gain products
    (0, 1, 2, 1, 0, True),    # no steps at all
    (2, 1, 2, 0, 2, False),   # a zero-length state axis
])
def test_transform_json_equals_indented_json_dumps(steps, p, m, n, star_steps, feedthrough):
    rng = np.random.default_rng(steps * 100 + p * 10 + m)
    transform = SimpleNamespace(
        kind="q" if feedthrough else "p", p=p, m=m, steps=steps,
        col_perm=np.array([rng.permutation(m) for _ in range(steps)], dtype=np.intp)
        .reshape(steps, m),
        T=_special_values(rng, (steps, m, m)), Tinv=_special_values(rng, (steps, m, m)),
        gain_products=_special_values(rng, (steps, p, p)))
    star = SimpleNamespace(
        Bstar=_special_values(rng, (star_steps, n, p)),
        Dstar=_special_values(rng, (star_steps, p, p)) if feedthrough else None,
        wstar=_special_values(rng, (star_steps, n, 1)),
        vstar=_special_values(rng, (star_steps + 1, p, 1)),
        gain_star=_special_values(rng, (steps, p, p)))
    assert ilcset.cli._transform_json(transform, star) == json.dumps(
        _reference_transform_doc(transform, star), indent=2)


@pytest.mark.parametrize("L,steps,p,recorded", [
    (3, 5, 1, [0, 1, 2]), (4, 3, 2, [0, 2]), (2, 1, 3, [1]), (1, 4, 0, [0]),
])
def test_trajectory_writer_equals_csv_writer(tmp_path, L, steps, p, recorded):
    rng = np.random.default_rng(L * 100 + steps * 10 + p)
    result = SimpleNamespace(outputs=_special_values(rng, (L, steps, p, 1)),
                             references=_special_values(rng, (L, steps, p, 1)))
    path = tmp_path / "traj.csv"
    with np.errstate(invalid="ignore"):
        ilcset.cli._write_trajectories(str(path), result, recorded)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(ilcset.cli._trajectory_header(p))
            for l in recorded:
                y, r = result.outputs[l, :, :, 0], result.references[l, :, :, 0]
                for k in range(steps):
                    writer.writerow([l, k, *y[k].tolist(), *r[k].tolist(),
                                     *(r[k] - y[k]).tolist()])
    assert path.read_bytes() == expected.read_bytes()
