"""Command-line runner: manifests, CSV artifacts, exit codes, reproducibility."""

import csv
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fraclap
from fraclap import barriers, cli
from fraclap.cli import main
from fraclap.errors import DomainError
from fraclap.grid import GridFunction


def run_cli(args):
    return main(list(args))


def load_manifest(outdir):
    with (outdir / "manifest.json").open() as fh:
        return json.load(fh)


def _check_history(trace, sup_norm):
    # one recorded sup-change per sweep: the sandwich shift is never rebuilt;
    # the last one passed the stop test at the default sup_tol 1e-9 (sup_norm
    # bounds max|u| on the free nodes, so the bound holds a fortiori)
    changes = trace["sup_changes"]
    assert len(changes) == trace["iterations"] - trace["shift_rebuilds"]
    assert changes[-1] < 1e-9 * (1.0 + sup_norm)


def test_tau0_command(tmp_path):
    out = tmp_path / "t"
    assert run_cli(["tau0", "--alpha", "0.5", "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["tau0"] == -0.5
    assert m["p_star"] == 3.0
    # |C(tau0)|: zero up to the rounding of sin(pi) in the closed form
    assert m["residual"] < 1e-13
    assert "deviation_from_alpha_minus_1" not in m


def test_ctau_grid(tmp_path):
    out = tmp_path / "c"
    assert run_cli(
        ["ctau", "--alpha", "0.5", "--tau-grid=-0.9:-0.1:0.1", "--out", str(out)]
    ) == 0
    lines = (out / "ctau.csv").read_text().splitlines()
    assert lines[0] == "tau,C,C1,C2"
    assert len(lines) == 10
    m = load_manifest(out)
    assert m["convex_everywhere"] is True


def test_regime_command(tmp_path):
    out = tmp_path / "r"
    assert run_cli(
        ["regime", "--alpha", "0.5", "--p", "4", "--gamma", "-1.2", "--out", str(out)]
    ) == 0
    m = load_manifest(out)
    assert m["zone"] == "weak_source"
    assert abs(m["predicted_exponent"] + 0.2) < 1e-9
    # at p = 2.5 the same source leaves the interaction rate -2/3 alone:
    # a --tau asking for another rate is excluded, not ignored
    out = tmp_path / "r_tau"
    assert run_cli(["regime", "--alpha", "0.5", "--p", "2.5", "--gamma", "-1.2",
                    "--tau", "-0.3", "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["zone"] == "unclassified" and m["predicted_exponent"] is None


def test_regime_ambiguity_exit_code(tmp_path):
    out = tmp_path / "amb"
    code = run_cli(["regime", "--alpha", "0.5", "--p", "2.0", "--out", str(out)])
    assert code == 4
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "AmbiguousRegimeError"


def test_config_error_exit_code(tmp_path):
    out = tmp_path / "bad"
    code = run_cli(["regime", "--alpha", "1.5", "--p", "2.5", "--out", str(out)])
    assert code == 2
    out = tmp_path / "grading"
    code = run_cli(["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--n", "151",
                    "--grading", "0.5", "--out", str(out)])
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "DomainError"


def test_missing_required_from_config(tmp_path, capsys):
    # argparse enforces the required options, given as flags or in an option
    # file alike, and reads the file itself: exit 2 before any work
    cfg = tmp_path / "run.args"
    cfg.write_text(f"--out={tmp_path / 'x'}\n")
    for argv, named in ((["tau0", "--out", str(tmp_path / "x")], "--alpha"),
                        (["tau0", f"@{cfg}"], "--alpha"),
                        (["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1.0", f"@{cfg}"],
                         "--tau-grid"),
                        (["tau0", "--alpha", "0.5", f"@{tmp_path / 'absent.args'}"],
                         "absent.args")):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_file_and_flag_override(tmp_path):
    # @FILE stands for the arguments in FILE, one per line, and an option
    # given twice takes its later value: a flag after the file wins, a flag
    # before it loses.  The file may hold the subcommand too.
    cfg = tmp_path / "run.args"
    cfg.write_text("--alpha=0.5\n")
    out1 = tmp_path / "o1"
    assert run_cli(["tau0", f"@{cfg}", "--out", str(out1)]) == 0
    m1 = load_manifest(out1)
    assert m1["config"]["alpha"] == 0.5
    out2 = tmp_path / "o2"
    assert run_cli(["tau0", f"@{cfg}", "--alpha", "0.25", "--out", str(out2)]) == 0
    assert abs(load_manifest(out2)["tau0"] + 0.75) < 1e-7
    out3 = tmp_path / "o3"
    assert run_cli(["tau0", "--alpha", "0.25", f"@{cfg}", "--out", str(out3)]) == 0
    assert load_manifest(out3)["tau0"] == -0.5
    cfg.write_text("tau0\n--alpha=0.25\n")
    out4 = tmp_path / "o4"
    assert run_cli([f"@{cfg}", "--out", str(out4)]) == 0
    assert load_manifest(out4)["command"] == "tau0"
    assert load_manifest(out4)["tau0"] == -0.75


def test_config_sets_options_that_have_defaults(tmp_path):
    # the file sets options that have defaults (--out) as well as required
    # ones, and a flag after the file overrides them
    cfg = tmp_path / "run.args"
    cfg.write_text(f"--alpha=0.5\n--out={tmp_path / 'from_cfg'}\n")
    assert run_cli(["tau0", f"@{cfg}"]) == 0
    assert load_manifest(tmp_path / "from_cfg")["config"]["alpha"] == 0.5
    assert run_cli(["tau0", f"@{cfg}", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "manifest.json").exists()


def test_flag_given_at_its_default_beats_config(tmp_path, monkeypatch):
    # a flag typed after the file wins over it even when its value equals the
    # subcommand default, in any spelling argparse accepts; the file's lines
    # may abbreviate a flag as well
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.args"
    cfg.write_text("--ou=from_cfg\n")
    manifest = tmp_path / "fraclap-out" / "manifest.json"
    spellings = (["--alpha", "0.5", "--out", "fraclap-out"], ["--alp", "0.5", "--out=fraclap-out"])
    for flags in spellings:
        manifest.unlink(missing_ok=True)
        assert run_cli(["tau0", f"@{cfg}", *flags]) == 0
        assert manifest.exists()
        assert not (tmp_path / "from_cfg").exists()
    cfg.write_text("--lev=8,16\n--out=levels_out\n")
    # a loose fit tolerance: two shells are too shallow for the rate, and
    # this test is about which shells ran
    args = ["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "401", "--sup-tol", "1e-7",
            "--fit-tol", "1.0"]
    assert run_cli(args + [f"@{cfg}", "--levels", "8,16,32,64,128"]) == 0
    m = load_manifest(tmp_path / "levels_out")
    assert m["config"]["levels"] == [8, 16, 32, 64, 128]
    assert run_cli(args + ["--levels", "8,16,32,64,128", f"@{cfg}"]) == 0
    assert load_manifest(tmp_path / "levels_out")["config"]["levels"] == [8, 16]


def test_unknown_config_key(tmp_path, capsys):
    # tau0 is exact, so the root finder's tol is gone; an option file that
    # still sets it is rejected rather than silently ignored, and so is the
    # parser's own bookkeeping
    cfg = tmp_path / "run.args"
    for text in ("--bogus=1", "--tol=1e-8", "--command=blowup"):
        cfg.write_text(f"--alpha=0.5\n{text}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["tau0", f"@{cfg}", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {text}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_value_that_fails_to_parse(tmp_path, capsys):
    # each value is cast by its option's own type: a value that type refuses
    # is a configuration error (exit 2), before any work
    for cmd, text in ((["tau0"], "--alpha=half"),
                      (["blowup", "--alpha", "0.5", "--p", "2.5"], "--levels=8,x")):
        cfg = tmp_path / "run.args"
        cfg.write_text(text + "\n")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli(cmd + [f"@{cfg}", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument " + text.split("=")[0] in capsys.readouterr().err
        assert not out.exists()


def test_options_that_would_be_ignored_are_refused(tmp_path):
    # --kappa-f scales the source d^gamma, and ctau evaluates either one tau
    # or a tau grid: a combination that would drop an option exits 2
    for name, cmd in (
        ("kappa", ["solve", "--alpha", "0.5", "--p", "2", "--kappa-f", "5", "--n", "101"]),
        ("both", ["ctau", "--alpha", "0.5", "--tau", "-0.3", "--tau-grid=-0.9:-0.1:0.4"]),
        ("neither", ["ctau", "--alpha", "0.5"]),
    ):
        out = tmp_path / name
        assert run_cli(cmd + ["--out", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "DomainError"
        assert not (out / "manifest.json").exists()


def test_verify_prop32_command(tmp_path):
    out = tmp_path / "vp"
    assert run_cli(["verify-prop32", "--alpha", "0.5", "--tau", "-0.8", "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["case"] == "i" and m["passed"] is True


def test_verify_barriers_command(tmp_path):
    out = tmp_path / "vb"
    assert run_cli(["verify-barriers", "--alpha", "0.5", "--p", "2.5", "--out", str(out)]) == 0
    m = load_manifest(out)
    assert m["passed"] is True
    assert m["super"]["passed"] and m["sub"]["passed"]


def test_verify_barriers_tau_needs_family_t(tmp_path):
    # --tau only picks a nonexistence family member; without --family-t it
    # would be echoed in the manifest and ignored
    out = tmp_path / "vb"
    cmd = ["verify-barriers", "--alpha", "0.5", "--p", "2.5", "--tau", "-0.3", "--out", str(out)]
    assert run_cli(cmd) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "DomainError"
    assert not (out / "manifest.json").exists()


def test_solve_command(tmp_path):
    out = tmp_path / "s"
    code = run_cli(
        ["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--n", "151",
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,d,value"
    m = load_manifest(out)
    _check_history(m["trace"], m["sup_norm"])


def test_solve_refuses_a_stop_far_from_the_fixed_point(tmp_path):
    # f = 10 d^-1.9 makes the sandwich shift huge near the boundary, so the
    # first step is tiny and the sup-change test stops at once; the relative
    # residual (1.0) shows the stop is nowhere near the fixed point
    out = tmp_path / "s"
    code = run_cli(
        ["solve", "--alpha", "0.5", "--p", "4", "--gamma", "-1.9", "--kappa-f", "10",
         "--n", "1001", "--out", str(out)]
    )
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConvergenceError"
    assert "solve_semilinear" in err["message"] and "residual" in err["message"]
    assert not (out / "manifest.json").exists()


def test_blowup_command_small(tmp_path):
    out = tmp_path / "b"
    code = run_cli(
        ["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "501",
         "--levels", "8,16,32", "--fit-lo", "0.05", "--fit-hi", "0.3",
         "--fit-tol", "0.9", "--out", str(out)]
    )
    assert code == 0
    m = load_manifest(out)
    assert m["monotone_in_levels"] and m["sandwich_ok"]
    for lev in m["levels"]:
        with (out / f"level_{lev['shell']}.csv").open() as fh:
            _check_history(lev, max(abs(float(r["value"])) for r in csv.DictReader(fh)))
    assert (out / "solution.csv").exists()
    assert (out / "level_8.csv").exists()


def test_blowup_profile_bytes(tmp_path, monkeypatch):
    # every level profile is byte-equal to a csv.writer per-row reference of
    # its level solution, and solution.csv to the last level's file
    real, results = cli.solve_blowup, []

    def recorded(*a, **k):
        results.append(real(*a, **k))
        return results[-1]

    monkeypatch.setattr(cli, "solve_blowup", recorded)
    out = tmp_path / "b"
    code = run_cli(["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "201", "--levels", "8,16",
                    "--fit-tol", "1.0", "--out", str(out)])
    assert code == 0
    (res,) = results
    assert load_manifest(out)["profiles"] == ["level_8.csv", "level_16.csv", "solution.csv"]
    for lev in res.levels:
        ref = tmp_path / "ref.csv"
        with ref.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "d", "value"])
            grid = lev.solution.grid
            for x, d, v in zip(grid.nodes, grid.d, lev.solution.values):
                writer.writerow([repr(float(x)), repr(float(d)), repr(float(v))])
        assert (out / f"level_{lev.shell}.csv").read_bytes() == ref.read_bytes()
    assert (out / "solution.csv").read_bytes() == (out / "level_16.csv").read_bytes()


def test_blowup_refuses_shells_sharing_a_node(tmp_path):
    # at n = 21 the shells 256 and 512 would snap onto one node, and the
    # level of shell 256 would have no node on its boundary
    out = tmp_path / "b"
    levels = ",".join(str(2**k) for k in range(3, 15))
    code = run_cli(["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "21", "--levels", levels,
                    "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "DomainError"
    assert "0.00390625 and 0.001953125" in err["message"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("flag", ["sandwich_ok", "monotone_in_levels"])
def test_blowup_false_flag_exits_4(tmp_path, monkeypatch, flag):
    # a blow-up whose rate fits but whose sandwich or level ordering fails is
    # a verification failure, recorded in the manifest
    real = cli.solve_blowup
    monkeypatch.setattr(
        cli, "solve_blowup", lambda *a, **k: dataclasses.replace(real(*a, **k), **{flag: False})
    )
    out = tmp_path / "b"
    code = run_cli(["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "201", "--levels", "8,16",
                    "--fit-tol", "1.0", "--out", str(out)])
    assert code == 4
    m = load_manifest(out)
    assert m[flag] is False
    assert m["fit_within_tolerance"] is True


def test_blowup_negative_final_shell_exits_4(tmp_path, monkeypatch):
    # a blow-up that fits, keeps its sandwich and its level ordering but has a
    # nonpositive value on the final free set (here the midpoint, free at
    # every shell and outside the fit window [2.5/16, 0.4]) is a
    # verification failure
    real = cli.solve_blowup

    def negative_midpoint(*a, **k):
        res = real(*a, **k)
        last = res.levels[-1]
        values = last.solution.values.copy()
        values[values.size // 2] = -1.0
        last = dataclasses.replace(last, solution=GridFunction(last.solution.grid, values))
        return dataclasses.replace(res, levels=res.levels[:-1] + [last])

    monkeypatch.setattr(cli, "solve_blowup", negative_midpoint)
    out = tmp_path / "b"
    code = run_cli(["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "201", "--levels", "8,16",
                    "--fit-tol", "1.0", "--fit-hi", "0.4", "--out", str(out)])
    assert code == 4
    m = load_manifest(out)
    assert m["positive_on_final_shell"] is False
    assert m["fit_within_tolerance"] is True
    assert m["sandwich_ok"] is True and m["monotone_in_levels"] is True


def test_shift_mode_option_is_rejected(tmp_path, capsys):
    # each solver has one automatic shift policy, so there is no shift mode
    # to choose: the flag is an error, typed or in an option file
    cfg = tmp_path / "run.args"
    cfg.write_text("--shift-mode=adaptive\n")
    for cmd in (["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--n", "151"],
                ["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "151", "--levels", "8"]):
        for given in (["--shift-mode", "scalar"], [f"@{cfg}"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(cmd + given + ["--out", str(tmp_path / "b")])
            assert exc.value.code == 2
            assert "unrecognized arguments: --shift-mode" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


def _zone_map_rows(outdir):
    with (outdir / "zone_map.csv").open() as fh:
        return list(csv.DictReader(fh))


def test_sweep_command(tmp_path):
    out = tmp_path / "sw"
    code = run_cli(
        ["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1.0",
         "--tau-grid=-0.8:-0.2:0.3", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "zone_map.csv").read_text().splitlines()
    assert lines[0] == "p,tau,zone,role,mu,passed,regime,predicted_exponent,note"
    assert len(lines) == 1 + 3 * 3
    m = load_manifest(out)
    assert m["n_points"] == 9

    # no profile d^tau exists for tau outside (-1, 0]: such a grid is refused
    # before any work, naming its first offending tau
    for name, spec, first in (("pos", "-0.2:0.4:0.3", -0.2 + 0.3), ("neg", "-1:-0.5:0.5", -1.0)):
        out = tmp_path / f"sw_{name}"
        code = run_cli(
            ["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1.0",
             f"--tau-grid={spec}", "--out", str(out)]
        )
        assert code == 2
        assert not (out / "zone_map.csv").exists()
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "DomainError"
        assert err["message"] == f"sweep tau={first!r} outside (-1, 0]"

    # the family t V_tau + mu V_0 needs t > 0: refused before the loop
    for t in ("0", "-1"):
        out = tmp_path / f"sw_t{t}"
        code = run_cli(
            ["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1.0",
             "--tau-grid=-0.8:-0.2:0.3", "--family-t", t, "--out", str(out)]
        )
        assert code == 2
        assert not (out / "zone_map.csv").exists()
        assert json.loads((out / "error.json").read_text())["error"] == "DomainError"

    # lo + step*k overshoots 0 by rounding on grids that end at 0 (by 5.6e-17
    # and 1.1e-16 here); those points are pinned to 0, inside the domain
    for name, spec in (("end0", "-0.3:0:0.1"), ("end0b", "-0.6:0:0.2")):
        out = tmp_path / f"sw_{name}"
        code = run_cli(
            ["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1.0",
             f"--tau-grid={spec}", "--out", str(out)]
        )
        assert code == 0
        assert max(float(r["tau"]) for r in _zone_map_rows(out)) == 0.0
    # a crossing of 0 inside the grid is pinned as well, and so is the end
    taus = cli._grid_spec("-0.3:0.3:0.1")
    assert taus[3] == 0.0 and taus[-1] == 0.3

    # regime column: p = 2 = 1 + 2 alpha ties a zone boundary; tau = 0 lies
    # outside the open domain (-1, 0) of the regime classification, which is
    # not a tie
    out = tmp_path / "rg"
    code = run_cli(
        ["sweep", "--alpha", "0.5", "--p-grid", "2:2.5:0.5", "--tau-grid=-0.1:0:0.05",
         "--out", str(out)]
    )
    assert code == 0
    regime = {(float(r["p"]), float(r["tau"])): r["regime"] for r in _zone_map_rows(out)}
    assert len(regime) == 6
    assert all(v == "boundary" for (p, _), v in regime.items() if p == 2.0)
    assert regime[(2.5, 0.0)] == "unclassified"


@pytest.mark.parametrize("argv", [
    ["sweep", "--alpha", "0.5", "--p-grid", "2:3:nan", "--tau-grid=-0.8:-0.2:0.3"],
    ["sweep", "--alpha", "0.5", "--p-grid", "inf:inf:1", "--tau-grid=-0.8:-0.2:0.3"],
    ["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1", "--tau-grid=-0.8:-0.2:-inf"],
    ["ctau", "--alpha", "0.5", "--tau-grid=-0.5:inf:0.1"],
    ["ctau", "--alpha", "0.5", "--tau-grid=nan:0:0.1"],
    # finite, but more points than the ceiling: refused before any allocation
    ["sweep", "--alpha", "0.5", "--p-grid", "2:1e300:1e-300", "--tau-grid=-0.8:-0.2:0.3"],
    ["sweep", "--alpha", "0.5", "--p-grid=-1e308:1e308:1", "--tau-grid=-0.8:-0.2:0.3"],
    ["ctau", "--alpha", "0.5", f"--tau-grid=-0.9:-0.1:{0.4 / cli.GRID_MAX_POINTS}"],
])
def test_grid_spec_refuses_nonfinite_and_oversized(tmp_path, argv):
    out = tmp_path / "grid"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "DomainError"
    assert err["message"].startswith("grid spec ")


BLOWUP = ["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "201", "--levels", "8,16"]
STRONG = ["--alpha", "0.5", "--p", "4", "--gamma", "-1.8"]
SPECIAL = ["--alpha", "0.5", "--p", "2.5"]


@pytest.mark.parametrize("argv, named", [
    (["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--n", "151",
      "--sup-tol", "inf"], "sup_tol=inf"),
    (BLOWUP + ["--sup-tol", "inf"], "sup_tol=inf"),
    (["regime", "--alpha", "0.5", "--p", "inf"], "p=inf"),
    (["regime", *STRONG, "--kappa-f", "nan"], "kappa_f=nan"),
    (["blowup", *STRONG, "--n", "201", "--levels", "8,16", "--kappa-f", "nan"], "kappa_f=nan"),
    (["verify-barriers", *STRONG, "--kappa-f", "nan"], "kappa_f=nan"),
    (BLOWUP + ["--family-t", "nan"], "t=nan"),
    (BLOWUP + ["--family-t", "inf"], "t=inf"),
    (["verify-barriers", *SPECIAL, "--family-t", "nan"], "t=nan"),
    (["verify-barriers", *SPECIAL, "--tau", "-0.3", "--family-t", "inf"], "t=inf"),
    (["sweep", "--alpha", "0.5", "--p-grid", "2:3:1", "--tau-grid=-0.8:-0.2:0.3",
      "--family-t", "inf"], "--family-t=inf"),
    (["sweep", "--alpha", "0.5", "--p-grid", "2:3:1", "--tau-grid=-0.8:-0.2:0.3",
      "--family-t", "nan"], "--family-t=nan"),
    (BLOWUP + ["--fit-tol", "nan"], "--fit-tol=nan"),
    (BLOWUP + ["--fit-tol", "-0.1"], "--fit-tol=-0.1"),
    (BLOWUP + ["--fit-tol", "inf"], "--fit-tol=inf"),
    (["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--n", "-5"], "n=-5"),
    (["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--n", "2"], "n=2"),
    (["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--grading", "nan"], "got nan"),
    (["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--grading", "inf"], "got inf"),
])
def test_nonfinite_and_out_of_range_values_are_refused(tmp_path, argv, named):
    # each value is refused by the validator that owns it, before any work:
    # exit 2, an error.json naming the value, and no profile or manifest
    out = tmp_path / "bad"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "DomainError"
    assert named in err["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_grid_spec_ceiling():
    # the largest grid the ceiling admits is built; one point more is not,
    # also where the interval count rounds up to it
    n = cli.GRID_MAX_POINTS - 1
    assert cli._grid_spec(f"0:{n}:1").size == cli.GRID_MAX_POINTS
    assert cli._grid_spec(f"0:{n + 0.4}:1").size == cli.GRID_MAX_POINTS
    for hi in (n + 1, n + 0.6):
        with pytest.raises(DomainError):
            cli._grid_spec(f"0:{hi}:1")


def test_sweep_evaluates_operator_once_per_tau(tmp_path, monkeypatch):
    """Each sweep evaluates the family's power term once per tau that has a
    point off the zone boundaries, and a second identical sweep in the same
    process does the same work: nothing is carried between runs."""
    taus = []
    real = barriers.eval_on_power

    def counting(tau, *args, **kwargs):
        taus.append(tau)
        return real(tau, *args, **kwargs)

    monkeypatch.setattr(barriers, "eval_on_power", counting)
    # tau = -0.5 is the root tau0, on a zone boundary for every p of the grid
    argv = ["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1.0", "--tau-grid=-0.8:-0.2:0.3"]
    for run in ("first", "second"):
        taus.clear()
        assert run_cli(argv + ["--out", str(tmp_path / run)]) == 0
        rows = _zone_map_rows(tmp_path / run)
        inner = {float(r["tau"]) for r in rows if r["zone"] != "boundary"}
        assert len(inner) == 2
        assert sorted(taus) == sorted(inner)


_RUN = {"command", "config", "library_version", "timestamp"}
_TRACE = {"final_residual", "final_residual_rel", "iterations", "shift_rebuilds", "sup_changes"}
_REPORT = {"margins", "mu", "nodes", "passed", "role", "worst_margin", "worst_x", "zone"}
_PROBLEM = {"command", "out", "alpha", "p", "gamma", "kappa_f"}
_SOLVER = {"n", "grading", "max_iters", "sup_tol"}

# argv, then the key set of the manifest and of each named entry
MANIFEST_KEYS = {
    "ctau": (["ctau", "--alpha", "0.5", "--tau", "-0.5"], {
        "": _RUN | {"n_points", "C_first", "C_last", "convex_everywhere"},
        "config": {"command", "out", "alpha", "tau", "tau_grid"},
    }),
    "tau0": (["tau0", "--alpha", "0.5"], {
        "": _RUN | {"tau0", "p_star", "residual"},
        "config": {"command", "out", "alpha"},
    }),
    "regime": (["regime", "--alpha", "0.5", "--p", "4", "--gamma", "-1.2"], {
        "": _RUN | {"tau0", "p_star", "zone", "predicted_exponent", "notes"},
        "config": _PROBLEM | {"tau"},
    }),
    "solve": (["solve", "--alpha", "0.5", "--p", "2", "--gamma", "-0.5", "--n", "151"], {
        "": _RUN | {"trace", "sup_norm", "profiles"},
        "trace": _TRACE,
        "config": _PROBLEM | _SOLVER,
    }),
    "blowup": (["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "201", "--levels", "8,16",
                "--fit-tol", "1.0"], {
        "": _RUN | {"tau0", "p_star", "zone", "predicted_exponent", "fit",
                    "fit_within_tolerance", "monotone_in_levels", "sandwich_ok",
                    "positive_on_final_shell", "levels", "profiles"},
        "fit": {"exponent", "intercept", "r_squared", "window", "band", "n_points",
                "verified"},
        "levels": _TRACE | {"shell"},
        "config": _PROBLEM | _SOLVER | {"levels", "full_level", "family_t", "fit_lo", "fit_hi",
                                        "fit_tol"},
    }),
    "verify-barriers": (["verify-barriers", "--alpha", "0.5", "--p", "2.5"], {
        "": _RUN | {"passed", "zone", "super", "sub", "super_terms", "sub_terms"},
        "super": _REPORT,
        "config": _PROBLEM | {"tau", "family_t"},
    }),
    "verify-barriers-family": (["verify-barriers", "--alpha", "0.5", "--p", "2.5", "--tau",
                                "-0.3", "--family-t", "1"], {
        "": _RUN | {"passed", "family", "report"},
        "report": _REPORT,
        "config": _PROBLEM | {"tau", "family_t"},
    }),
    "verify-prop32": (["verify-prop32", "--alpha", "0.5", "--tau", "-0.8"], {
        "": _RUN | {"tau", "alpha", "case", "sign_ok", "exponent", "expected_exponent",
                    "exponent_ok", "band", "bound_ok", "passed"},
        "config": {"command", "out", "alpha", "tau"},
    }),
    "sweep": (["sweep", "--alpha", "0.5", "--p-grid", "1.5:2.5:1", "--tau-grid=-0.8:-0.5:0.3"], {
        "": _RUN | {"tau0", "p_star", "n_points", "n_passed", "outputs"},
        "config": {"command", "out", "alpha", "p_grid", "tau_grid", "family_t"},
    }),
}


@pytest.mark.parametrize("case", MANIFEST_KEYS)
def test_manifest_keys(tmp_path, case):
    """Each subcommand's manifest carries exactly these keys: the run's own,
    the result dataclasses' fields, and one config entry per option."""
    argv, keys = MANIFEST_KEYS[case]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    m = load_manifest(tmp_path)
    for name, expected in keys.items():
        entry = m if name == "" else m[name]
        assert set(entry[0] if name == "levels" else entry) == expected, name


def _readme_commands():
    """Each `fraclap ...` line of the README, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fraclap ")]


def test_readme_commands_parse():
    """Every README example parses, required options included; none is run."""
    commands = _readme_commands()
    assert commands
    for argv in commands:
        args = cli.build_parser(argv[0]).parse_args(argv)
        assert args.command == argv[0]


def test_manifest_reproducible_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    for out in (out1, out2):
        assert run_cli(["tau0", "--alpha", "0.5", "--out", str(out)]) == 0
    m1, m2 = load_manifest(out1), load_manifest(out2)
    m1.pop("timestamp"), m2.pop("timestamp")
    m1["config"].pop("out"), m2["config"].pop("out")
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)


def _run_child(*args):
    # the child imports the same fraclap as this process, installed or not
    src = str(Path(fraclap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(tmp_path):
    proc = _run_child("-m", "fraclap.cli", "tau0", "--alpha", "0.5", "--out", str(tmp_path / "ep"))
    assert proc.returncode == 0


def test_cold_import_leaves_out_integrate_and_optimize(tmp_path):
    """A fresh process (this one imported scipy for the test oracles) imports
    the CLI and runs tau0, ctau, a small sweep and a small blowup through
    `main` without loading any scipy module: the runtime is numpy-only."""
    commands = [
        ["tau0", "--alpha", "0.3"],
        ["ctau", "--alpha", "0.3", "--tau-grid=-0.9:-0.1:0.4"],
        ["sweep", "--alpha", "0.5", "--p-grid", "1.5:3.5:1.0", "--tau-grid=-0.8:-0.2:0.3"],
        ["blowup", "--alpha", "0.5", "--p", "4", "--gamma", "-1.8", "--n", "201",
         "--levels", "8,16", "--fit-lo", "0.05", "--fit-hi", "0.3", "--fit-tol", "0.9"],
    ]
    commands = [cmd + ["--out", str(tmp_path / cmd[0])] for cmd in commands]
    proc = _run_child(
        "-c",
        "import sys, fraclap.cli; "
        f"codes = [fraclap.cli.main(cmd) for cmd in {commands!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] []"


def test_convergence_failure_exit_code(tmp_path):
    out = tmp_path / "cv"
    code = run_cli(
        ["blowup", "--alpha", "0.5", "--p", "2.5", "--n", "301", "--levels", "8",
         "--max-iters", "2", "--out", str(out)]
    )
    assert code == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConvergenceError"
