import json
import os

import numpy as np
import pytest

from rsir1d import cli


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_list_shows_catalog(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    assert "euler-shock-tube" in out
    assert "tp-shock-tube" in out
    assert "[two-phase]" in out


def test_run_builtin_writes_outputs(tmp_path, capsys):
    code, out, _ = run_cli(
        ["run", "euler-shock-tube", "--set", "mesh.n_cells=50",
         "--set", "time.end=1e-4", "--out", str(tmp_path), "--plot"], capsys)
    assert code == 0
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    manifest = json.loads((tmp_path / "euler-shock-tube-manifest.json").read_text())
    assert manifest["n_cells"] == 50
    assert manifest["steps"] > 0
    assert (tmp_path / "euler-shock-tube.gp").exists()
    assert "conservation defect" in out


@pytest.mark.parametrize("case, overrides", [
    ("euler-shock-tube", ["state.left=0.05 -600 1e4", "state.right=5 600 2e5",
                          "time.end=2e-4"]),
    ("tp-alpha-rest", [f"state.{side}=0.999999999 1000 0 1e5 1 0 1e5"
                       for side in ("left", "right")]
     + ["mesh.n_cells=20", "time.end=1e-4"]),
])
def test_run_prints_its_nonzero_counters(tmp_path, capsys, case, overrides):
    """A run that takes a fallback (a strong double expansion for rsir) or
    clamps alpha1 (a state within the floor of 1) prints its manifest's
    three counters on one line."""
    args = ["run", case, "--out", str(tmp_path)]
    for o in overrides:
        args += ["--set", o]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    m = json.loads((tmp_path / f"{case}-manifest.json").read_text())
    assert m["positivity_fallbacks"] or m["alpha_clamps"]
    assert (f"\n  fallbacks {m['positivity_fallbacks']}, alpha clamps "
            f"{m['alpha_clamps']}, dt rejections {m['dt_rejections']}\n"
            in out)


def test_run_config_file(tmp_path, capsys):
    cfg = tmp_path / "mycase.cfg"
    cfg.write_text(
        "model = euler\nsolver = hll\nmesh.n_cells = 40\ntime.end = 1e-4\n"
        "state.left = 1,0,1e5\nstate.right = 0.125,0,1e4\n")
    code, out, _ = run_cli(
        ["run", str(cfg), "--out", str(tmp_path / "res")], capsys)
    assert code == 0
    assert (tmp_path / "res" / "mycase-manifest.json").exists()


def test_run_unknown_case_fails_cleanly(capsys):
    code, _, err = run_cli(["run", "not-a-case"], capsys)
    assert code == 2
    assert "error" in err


def test_bad_override_fails_cleanly(capsys):
    code, _, err = run_cli(["run", "euler-shock-tube", "--set", "beta=7"],
                           capsys)
    assert code == 2
    assert "beta" in err


@pytest.mark.parametrize("case, state", [
    ("euler-shock-tube", "state.left=-1 0 1e5"),
    ("water-nasg-shock-tube", "state.left=30000 0 1e9"),
    ("tp-shock-tube", "state.left=0.2 1000 0 1e6 10 0 -1e6"),
])
def test_state_outside_the_eos_domain_fails_cleanly(tmp_path, case, state,
                                                    capsys):
    """A state with rho <= 0, rho b >= 1 or p <= -p_inf in any phase is
    one error line and exit 2 before the run, not a failure inside it."""
    code, out, err = run_cli(["run", case, "--set", state, "--out",
                              str(tmp_path)], capsys)
    assert code == 2 and not out
    assert err.startswith("error: ") and "state.left" in err
    assert err.count("\n") == 1 and not os.listdir(tmp_path)


def test_compare_prints_table(capsys):
    code, out, _ = run_cli(
        ["compare", "euler-shock-tube", "--solvers", "hllc,rsir",
         "--set", "mesh.n_cells=50"], capsys)
    assert code == 0
    assert "exact" in out
    assert "hllc" in out and "rsir" in out
    assert "rho" in out


def test_sweep_runs_each_value(capsys):
    code, out, _ = run_cli(
        ["sweep", "euler-shock-tube", "--param", "beta",
         "--values", "0,0.5,1", "--set", "mesh.n_cells=40",
         "--set", "time.end=1e-4"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and ln[0] in "01"]
    assert len(lines) == 3


def test_sweep_rejects_a_bad_value_before_any_run(capsys):
    """A bad value anywhere in --values stops the sweep before the first
    run: exit 2, one error line and no result row."""
    code, out, err = run_cli(
        ["sweep", "tp-shock-tube", "--param", "drag.model",
         "--values", "constant,bogus", "--set", "mesh.n_cells=20"], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "constant" not in out


def test_run_failure_is_one_error_line(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "water-nasg-transport", "--set", "solver=linde",
         "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: StepError: step ")
    assert err.count("\n") == 1
    assert "np.float64" not in err


def test_nasg_phase_with_pressure_relaxation_is_a_config_error(tmp_path,
                                                               capsys):
    code, _, err = run_cli(
        ["run", "tp-shock-tube", "--set", "eos1.preset=water-nasg",
         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "NASG" in err
    assert err.count("\n") == 1


def test_output_time_past_the_end_is_a_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "tp-shock-tube-long", "--set", "time.end=1e-4",
         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "time.outputs" in err
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("case, override", [
    ("euler-shock-tube", "eos1.gamma=0.5"),
    ("tp-shock-tube", "eos2.b=1e-3"),
])
def test_rejected_eos_override_is_a_config_error(tmp_path, capsys, case,
                                                 override):
    code, _, err = run_cli(["run", case, "--set", override,
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and override.split("=")[0] in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["run", "no-such-case"],
    ["run", "euler-shock-tube", "--set", "eos1.preset=foo"],
])
def test_unknown_name_error_is_not_quoted(tmp_path, capsys, args):
    code, _, err = run_cli(args + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "unknown" in err
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert '"' not in err


@pytest.mark.parametrize("case, overrides", [
    ("euler-shock-tube", ["mesh.n_cells=2"]),
    ("tp-shock-tube", ["drag.model=clift-gauvin", "drag.radius=-1"]),
    ("tp-shock-tube", ["drag.model=constant", "drag.lambda=-5"]),
])
def test_invalid_mesh_or_drag_is_a_config_error(tmp_path, capsys, case,
                                                overrides):
    args = ["run", case, "--out", str(tmp_path)]
    for o in overrides:
        args += ["--set", o]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("args", [
    ["run", "euler-shock-tube", "--set", "time.end=nan"],
    ["run", "euler-shock-tube", "--set", "state.left=nan 0 1e5"],
    ["run", "euler-shock-tube", "--set", "mesh.x_max=inf"],
    ["run", "euler-shock-tube", "--set", "eos1.preset=air-ideal",
     "--set", "eos1.p_inf=nan"],
    ["compare", "euler-shock-tube", "--solvers", "foo"],
    ["compare", "euler-shock-tube", "--solvers", "hll-tp"],
    ["compare", "tp-shock-tube", "--n-ref", "150"],
    ["run", "euler-shock-tube", "--set", "state.left=1 0 1e308"],
    ["run", "euler-shock-tube", "--set", "eos1.cv=1.0"],
])
def test_bad_invocation_is_one_error_line(tmp_path, capsys, args):
    if args[0] == "run":
        args = args + ["--out", str(tmp_path)]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("name", ["a/b", "../escaped", "..", ""])
def test_name_that_is_not_a_file_name_fails_cleanly(tmp_path, capsys, name):
    """The outputs are named after the case, so a name with a path
    separator, or one that is no file name, is one error line and exit 2
    before the run, and nothing is written inside or beside --out."""
    code, out, err = run_cli(["run", "euler-shock-tube", "--set",
                              f"name={name}", "--out",
                              str(tmp_path / "out")], capsys)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("below", ["", "sub"])
def test_unusable_out_is_one_error_line_before_the_run(tmp_path, capsys,
                                                       monkeypatch, below):
    """``--out`` naming a file, or a path below one, exits 2 with one error
    line before the case is integrated."""
    taken = tmp_path / "taken"
    taken.write_text("")
    runs = []
    monkeypatch.setattr(cli._driver, "run", runs.append)
    code, out, err = run_cli(
        ["run", "euler-shock-tube", "--out", str(taken / below)], capsys)
    assert code == 2 and not runs and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_vacuum_in_the_exact_solution_is_one_error_line(capsys):
    """The oracle of ``compare`` raises VacuumError for states that ``run``
    integrates: exit 1 with one error line."""
    code, _, err = run_cli(
        ["compare", "euler-shock-tube", "--solvers", "rusanov",
         "--set", "state.left=1 -5000 1e5"], capsys)
    assert code == 1
    assert err.startswith("error: VacuumError: ") and err.count("\n") == 1


def test_undecodable_config_file_is_one_error_line(tmp_path, capsys):
    """A byte that is not UTF-8 is one error line naming the file and the
    1-based line of that byte, not its offset in the whole file."""
    path = tmp_path / "latin1.cfg"
    path.write_bytes("name = café\n".encode("latin-1"))
    code, _, err = run_cli(["run", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "line 1:" in err and "0xe9" in err
    assert "position" not in err
    assert os.listdir(tmp_path) == ["latin1.cfg"]
    path.write_bytes("# a comment\nmodel = euler\nname = café\n".encode(
        "latin-1"))
    code, _, err = run_cli(["run", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2 and f"{path} line 3:" in err and err.count("\n") == 1


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A mesh too large to allocate ends in MemoryError, which numpy raises
    as a subclass; ``driver.run`` is replaced, so nothing large is made."""
    def run(case):
        assert case.n_cells == 100_000_000_000
        raise MemoryError("Unable to allocate 5.09 TiB for an array")

    monkeypatch.setattr(cli._driver, "run", run)
    code, out, err = run_cli(
        ["run", "euler-shock-tube", "--set", "mesh.n_cells=100000000000",
         "--out", str(tmp_path)], capsys)
    assert code == 1 and not out
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1


def test_config_file_error_names_the_file(tmp_path, capsys):
    """A config file's own ConfigError names the file, as an undecodable
    byte in it does, not the generic source "config"."""
    path = tmp_path / "x.cfg"
    path.write_text("model = euler\nfoo = 1\n")
    code, _, err = run_cli(["run", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"error: {path} line 2 ('foo = 1'): unknown key 'foo'\n"
    assert os.listdir(tmp_path) == ["x.cfg"]
