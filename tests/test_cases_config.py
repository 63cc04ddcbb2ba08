import re

import numpy as np
import pytest

from dataclasses import replace

from rsir1d import cases, driver
from rsir1d import eos as _eos


def test_catalog_names_and_validation():
    names = cases.case_names()
    assert "euler-shock-tube" in names
    assert "tp-shock-tube-long" in names
    assert len(names) == 11
    for name in names:
        case = cases.builtin_case(name)
        assert case.validate() is case
        assert case.description


def test_builtin_case_returns_copy():
    a = cases.builtin_case("euler-shock-tube")
    a.cfl = 0.1
    b = cases.builtin_case("euler-shock-tube")
    assert b.cfl == 0.5


def test_unknown_case_raises():
    with pytest.raises(KeyError, match="euler-shock-tube"):
        cases.builtin_case("nope")


CONFIG = """
# a liquid shock tube
name = demo
model = euler
solver = hllc
cfl = 0.4
mesh.x_min = 0.0
mesh.x_max = 2.0
mesh.n_cells = 50
mesh.x_disc = 1.0
time.end = 1e-4
time.outputs = 5e-5
eos1.preset = water-sg
state.left = 1100, 0, 1e8
state.right = 1000, 0, 1e5
"""


def test_parse_config_roundtrip():
    case = cases.parse_config(CONFIG)
    assert case.name == "demo"
    assert case.solver == "hllc"
    assert case.n_cells == 50
    assert case.eos1.p_inf == 6e8
    assert case.left == (1100.0, 0.0, 1e8)
    assert case.output_times == (5e-5,)


def test_parse_config_explicit_eos_fields():
    case = cases.parse_config(
        "model = euler\neos1.gamma = 1.667\neos1.p_inf = 0\n"
        "state.left = 1,0,1e5\nstate.right = 1,0,1e4\ntime.end = 1e-4")
    assert case.eos1.gamma == 1.667


def test_parse_config_preset_with_override():
    case = cases.parse_config(
        "model = euler\neos1.preset = water-sg\neos1.gamma = 4.0\n"
        "state.left = 1000,0,1e6\nstate.right = 1000,0,1e5\ntime.end = 1e-4")
    assert case.eos1.gamma == 4.0
    assert case.eos1.p_inf == 6e8


def test_parse_errors_carry_line_context():
    with pytest.raises(cases.ConfigError, match="line 2"):
        cases.parse_config("model = euler\nbogus.key = 3\n")
    with pytest.raises(cases.ConfigError, match="key = value"):
        cases.parse_config("model euler\n")


def test_validation_rules():
    with pytest.raises(cases.ConfigError, match="beta"):
        cases.parse_config("beta = 1.5")
    with pytest.raises(cases.ConfigError, match="not valid for model"):
        cases.parse_config("model = euler\nsolver = rsir-tp")
    with pytest.raises(cases.ConfigError, match="needs eos2"):
        cases.parse_config(
            "model = two-phase\nsolver = rsir-tp\n"
            "state.left = .5,1000,0,1e5,1,0,1e5\n"
            "state.right = .4,1000,0,1e5,1,0,1e5")
    with pytest.raises(cases.ConfigError, match="entries"):
        cases.parse_config("model = euler\nstate.left = 1, 0")
    with pytest.raises(cases.ConfigError, match="relaxation"):
        cases.parse_config("model = euler\nrelax.pressure = on")


def test_apply_overrides():
    case = cases.builtin_case("euler-shock-tube")
    out = cases.apply_overrides(case, ["mesh.n_cells=400", "beta=0.5"])
    assert out.n_cells == 400 and out.beta == 0.5
    with pytest.raises(cases.ConfigError):
        cases.apply_overrides(case, ["oops"])


def test_output_times_must_lie_within_the_run():
    """An output time past time.end (the catalog's 6e-4 and 1.2e-3 after
    shortening the run) or before 0 is rejected, not run to."""
    case = cases.builtin_case("tp-shock-tube-long")
    with pytest.raises(cases.ConfigError, match="time.outputs.*time.end"):
        cases.apply_overrides(case, ["time.end=1e-4"])
    out = cases.apply_overrides(case, ["time.end=1e-4", "time.outputs="])
    assert out.end_time == 1e-4 and out.output_times == ()
    with pytest.raises(cases.ConfigError, match="time.outputs"):
        cases.apply_overrides(case, ["time.outputs=-1e-4"])


def test_emit_csv_euler(tmp_path):
    case = cases.builtin_case("euler-shock-tube")
    res = driver.run(replace(case, n_cells=50, end_time=1e-4))
    path = tmp_path / "out.csv"
    cases.emit_csv(path, case, res.mesh.centers, res.snapshots[-1][1])
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert tuple(data.dtype.names) == cases.EULER_COLUMNS
    assert len(data) == 50
    # round trip at full precision
    assert np.array_equal(data["rho"], res.snapshots[-1][1][:, 0])


def test_emit_csv_twophase(tmp_path):
    case = replace(cases.builtin_case("tp-shock-tube"), n_cells=50,
                   end_time=5e-5)
    res = driver.run(case)
    path = tmp_path / "out.csv"
    w = res.snapshots[-1][1]
    cases.emit_csv(path, case, res.mesh.centers, w)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert tuple(data.dtype.names) == cases.TP_COLUMNS
    mix = w[:, 0] * w[:, 1] + (1 - w[:, 0]) * w[:, 4]
    assert np.allclose(data["rho_mix"], mix, rtol=1e-15)


def test_emit_plot_script(tmp_path):
    case = cases.builtin_case("euler-shock-tube")
    script = tmp_path / "plot.gp"
    cases.emit_plot_script(script, ["a.csv", "b.csv"], case)
    text = script.read_text()
    assert "plot" in text and "a.csv" in text and "b.csv" in text


# a gnuplot single-quoted string, in which '' stands for one quote
GP_STRING = r"'(?:[^']|'')*'"


@pytest.mark.parametrize("name, columns", [
    ("euler-shock-tube", (2, 3, 4, 5)),
    ("tp-shock-tube", (2, 9, 4, 5)),
], ids=["euler", "two-phase"])
def test_plot_script_quotes_its_strings_and_plots_each_model(tmp_path, name,
                                                             columns):
    """Each model's script plots its four panels of every CSV, and a quote
    in the case name or in a CSV path is doubled, so that each string ends
    where it should: outside the strings only gnuplot syntax is left."""
    case = replace(cases.builtin_case(name), name="it's")
    csvs = ["o'ut/it's-t0.csv", "b.csv"]
    script = tmp_path / "plot.gp"
    cases.emit_plot_script(script, csvs, case)
    lines = script.read_text().splitlines()
    assert "set output 'it''s.png'" in lines
    plots = [ln for ln in lines if ln.startswith("plot ")]
    assert len(plots) == len(columns)
    for line, col in zip(plots, columns):
        assert [s[1:-1].replace("''", "'")
                for s in re.findall(GP_STRING, line)] == [
            csvs[0], csvs[0], csvs[1], csvs[1]]
        one = f"S using 1:{col} with lines title S"
        assert re.sub(GP_STRING, "S", line) == f"plot {one}, {one}"


def test_compare_solvers_exact_reference():
    case = replace(cases.builtin_case("euler-shock-tube"), n_cells=50)
    label, table = cases.compare_solvers(case, solvers=("rusanov", "hllc"))
    assert label == "exact"
    assert set(table) == {"rusanov", "hllc"}
    # the contact-preserving solver beats plain Rusanov on density
    assert table["hllc"]["rho"] < table["rusanov"]["rho"]


def test_compare_solvers_fine_reference():
    case = replace(cases.builtin_case("water-nasg-shock-tube"), n_cells=50)
    label, table = cases.compare_solvers(case, solvers=("hllc", "rsir"),
                                         n_ref=500)
    assert "fine-mesh" in label
    assert all(v >= 0.0 for errs in table.values() for v in errs.values())


@pytest.mark.parametrize("boundary", ["reflective", "periodic"])
def test_compare_solvers_walls_use_the_fine_reference(boundary):
    """The exact solution is that of an unbounded domain; once the waves
    meet a reflective or periodic boundary it no longer holds, so the
    reference is the fine-mesh HLLC run."""
    case = replace(cases.builtin_case("euler-shock-tube"), n_cells=50,
                   boundary=boundary, end_time=2e-3)
    label, table = cases.compare_solvers(case, solvers=("hllc",), n_ref=200)
    assert label == "fine-mesh hllc (200 cells)"
    assert table["hllc"]["rho"] < 0.05


def test_compare_solvers_vacuum_data_use_the_fine_reference():
    """Data that open a vacuum have no oracle solution, so the reference
    is the fine-mesh HLLC run."""
    case = replace(cases.builtin_case("euler-shock-tube"),
                   left=(1.0, -5000.0, 1e5))
    label, table = cases.compare_solvers(case, solvers=("hll",), n_ref=200)
    assert label == "fine-mesh hllc (200 cells)"
    assert set(table) == {"hll"}


def test_nasg_phase_rejected_for_sg_only_closures():
    """Pressure relaxation and rsir-tp assume SG/ideal phases; a NASG
    phase is rejected up front, and the other two-phase solvers take it."""
    case = cases.builtin_case("tp-shock-tube")
    assert case.pressure_relax and case.solver == "rsir-tp"
    for overrides in (["eos1.preset=water-nasg"],
                      ["eos1.preset=water-nasg", "relax.pressure=off"],
                      ["eos2.preset=water-nasg", "solver=hll-tp"]):
        with pytest.raises(cases.ConfigError, match="NASG"):
            cases.apply_overrides(case, overrides)
    for solver in ("hll-tp", "rusanov-basic", "rusanov-local"):
        ok = cases.apply_overrides(case, ["eos1.preset=water-nasg",
                                          "relax.pressure=off",
                                          f"solver={solver}"])
        assert ok.eos1.b > 0.0


@pytest.mark.parametrize("override", ["mesh.n_cells=3", "mesh.n_cells=0",
                                      "mesh.n_cells=-10"])
def test_too_few_cells_is_a_config_error(override):
    """A mesh needs two ghost layers' worth of cells; fewer is rejected up
    front instead of failing in Mesh1D with a bare ValueError."""
    case = cases.builtin_case("euler-shock-tube")
    with pytest.raises(cases.ConfigError, match="mesh.n_cells"):
        cases.apply_overrides(case, [override])
    assert cases.apply_overrides(case, ["mesh.n_cells=4"]).n_cells == 4


@pytest.mark.parametrize("overrides, key", [
    (["drag.model=clift-gauvin", "drag.radius=-1"], "drag.radius"),
    (["drag.model=clift-gauvin", "drag.radius=0"], "drag.radius"),
    (["drag.model=clift-gauvin", "drag.mu2=0"], "drag.mu2"),
    (["drag.model=clift-gauvin", "drag.mu2=nan"], "drag.mu2"),
    (["drag.model=constant", "drag.lambda=-5"], "drag.lambda"),
    (["drag.lambda=-1e-3"], "drag.lambda"),
])
def test_drag_parameters_are_validated(overrides, key):
    """Clift-Gauvin needs a positive radius and viscosity, and no drag
    model takes a negative lambda (it would run silently without drag)."""
    case = cases.builtin_case("tp-shock-tube")
    with pytest.raises(cases.ConfigError, match=key):
        cases.apply_overrides(case, overrides)


def test_valid_drag_parameters_are_accepted():
    case = cases.builtin_case("tp-shock-tube")
    out = cases.apply_overrides(case, ["drag.model=clift-gauvin",
                                       "drag.radius=2e-4", "drag.mu2=1e-3"])
    assert (out.drag_radius, out.drag_mu2) == (2e-4, 1e-3)
    # radius and viscosity only matter to the clift-gauvin model
    assert cases.apply_overrides(
        case, ["drag.model=constant", "drag.lambda=0", "drag.radius=0"]
    ).drag_lambda == 0.0


E, T = "euler-shock-tube", "tp-alpha-rest"
# config key -> (base case, value, field value it must give, other overrides
# the base case needs to stay valid)
KEY_SAMPLES = {
    "name": (E, "demo", "demo", []),
    "model": (T, "euler", "euler", ["solver=hllc", "state.left=1,0,1e5",
                                    "state.right=1,0,1e4"]),
    "solver": (E, "hllc", "hllc", []),
    "beta": (E, "0.25", 0.25, []),
    "cfl": (E, "0.4", 0.4, []),
    "limiter": (E, "none", "none", []),
    "boundary": (E, "periodic", "periodic", []),
    "mesh.x_min": (E, "-1", -1.0, []),
    "mesh.x_max": (E, "2", 2.0, []),
    "mesh.n_cells": (E, "64", 64, []),
    "mesh.x_disc": (E, "0.25", 0.25, []),
    "time.end": (E, "2e-4", 2e-4, []),
    "time.outputs": (E, "1e-4, 2e-4", (1e-4, 2e-4), []),
    "state.left": (E, "2 10 3e5", (2.0, 10.0, 3e5), []),
    "state.right": (E, "0.5,0,1e4", (0.5, 0.0, 1e4), []),
    "relax.pressure": (T, "on", True, []),
    "drag.model": (T, "clift-gauvin", "clift-gauvin", []),
    "drag.lambda": (T, "5", 5.0, []),
    "drag.radius": (T, "2e-4", 2e-4, []),
    "drag.mu2": (T, "1e-3", 1e-3, []),
}
# EOS field -> (value, field value it must give)
EOS_SAMPLES = {
    "preset": ("water-sg", _eos.preset("water-sg")),
    "gamma": ("1.3", 1.3),
    "p_inf": ("2e5", 2e5),
    "b": ("1e-3", 1e-3),
}


@pytest.mark.parametrize("key", [*cases._KEYS, *(
    f"eos{i}.{f}" for i in (1, 2) for f in cases._EOS_KEYS)])
def test_every_key_round_trips_into_its_field(key):
    """Each entry of the key tables sets its own CaseConfig field."""
    if key.startswith("eos"):
        which, sub = key.split(".")
        value, want = EOS_SAMPLES[sub]
        base = E if which == "eos1" else T
        # on a preset, so that each field has a known base value
        extra = [] if sub == "preset" else [f"{which}.preset=air-ideal"]
        extra += ["solver=hll-tp"] if which == "eos2" else []

        def get(c):
            eos = getattr(c, which)
            return eos if sub == "preset" else getattr(eos, sub)
    else:
        base, value, want, extra = KEY_SAMPLES[key]

        def get(c):
            return getattr(c, cases._KEYS[key][0])
    case = cases.builtin_case(base)
    assert get(case) != want
    assert get(cases.apply_overrides(case, extra + [f"{key}={value}"])) == want


@pytest.mark.parametrize("overrides, key", [
    (["time.end=inf"], "time.end"),
    (["time.end=nan"], "time.end"),
    (["state.left=nan 0 1e5"], "state.left"),
    (["state.right=0.125 0 inf"], "state.right"),
    (["mesh.x_max=inf"], "mesh.x_max"),
    (["eos1.preset=air-ideal", "eos1.p_inf=nan"], "p_inf"),
    (["eos1.gamma=1.4", "eos1.b=inf"], "covolume b"),
    # states outside the EOS domain of a phase
    (["state.left=-1 0 1e5"], "state.left"),
    (["state.right=0.125 0 0"], "state.right"),
    (["eos1.preset=water-nasg", "state.left=30000 0 1e9"], "state.left"),
    (["eos1.preset=water-sg", "state.right=1000 0 -6e8"], "state.right"),
    (["model=two-phase", "solver=rsir-tp", "eos1.preset=water-sg",
      "eos2.preset=air-ideal", "state.left=0.2 1000 0 1e6 10 0 -1e6",
      "state.right=0.2 1000 0 1e6 10 0 1e5"], "state.left"),
    (["model=two-phase", "solver=hll-tp", "eos1.preset=water-nasg",
      "eos2.preset=air-ideal", "state.left=0.2 1000 0 1e6 10 0 1e5",
      "state.right=0.2 20000 0 1e6 10 0 1e5"], "state.right"),
    # a conserved energy that overflows, of the Euler state or of a phase
    (["state.left=1 0 1e308"], "state.left: energy rho E overflows"),
    (["state.right=1 1e200 1e5"], "state.right: energy rho E overflows"),
    (["model=two-phase", "solver=hll-tp", "eos1.preset=water-sg",
      "eos2.preset=air-ideal", "state.left=0.2 1000 0 1e6 10 0 1e308",
      "state.right=0.2 1000 0 1e6 10 0 1e5"], "state.left: energy"),
    # names that are not one file name: the run's outputs are named by them
    (["name=a/b"], "name 'a/b'"),
    (["name=../escaped"], "name '../escaped'"),
    (["name=.."], "name '..'"),
    (["name="], "name ''"),
    # values outside their ranges
    (["model=foo"], "unknown model"),
    (["cfl=0"], "cfl must lie"),
    (["cfl=1.5"], "cfl must lie"),
    (["limiter=superbee"], "unknown limiter"),
    (["boundary=open"], "unknown boundary"),
    (["model=two-phase", "solver=hll-tp", "eos1.preset=water-sg",
      "eos2.preset=air-ideal", "state.left=1 1000 0 1e6 10 0 1e5",
      "state.right=0.2 1000 0 1e6 10 0 1e5"], "state.left volume fraction"),
    (["time.end=0"], "time.end must be positive"),
    (["mesh.x_disc=1"], "mesh.x_disc must lie inside"),
    # a value that does not parse, and an EOS field that no longer exists
    (["relax.pressure=maybe"], "expected on/off, got 'maybe'"),
    (["eos1.cv=1.0"], "unknown EOS field 'cv'"),
])
def test_non_finite_input_is_a_config_error(overrides, key):
    """A NaN or infinite number, an overflowing energy, a name that is not
    a file name, a value outside its range or that does not parse, and an
    unknown EOS field are rejected up front:
    time.end = inf would otherwise never end, a NaN state or energy would
    run to NaN output, and a name such as ../x writes outside --out."""
    case = cases.builtin_case("euler-shock-tube")
    with pytest.raises(cases.ConfigError, match=key):
        cases.apply_overrides(case, overrides)


def test_eos_field_override_edits_the_case_eos():
    """A field without a preset changes only that field of the case's own
    EOS: water-SG keeps its p_inf when gamma changes."""
    case = cases.builtin_case("tp-shock-tube")
    assert case.eos1 == _eos.preset("water-sg")
    got = cases.apply_overrides(case, ["eos1.gamma=4.0"])
    assert got.eos1 == replace(_eos.preset("water-sg"), gamma=4.0)
    assert got.eos2 == case.eos2


def test_lone_eos_field_override_needs_no_preset():
    """A lone p_inf edits the case's EOS; only an absent EOS (eos2 of an
    Euler case) still needs a preset or gamma."""
    case = cases.builtin_case("tp-shock-tube")
    got = cases.apply_overrides(case, ["eos1.p_inf=1e8"])
    assert got.eos1 == replace(case.eos1, p_inf=1e8)
    with pytest.raises(cases.ConfigError, match="preset or at least gamma"):
        cases.apply_overrides(cases.builtin_case("euler-shock-tube"),
                              ["eos2.p_inf=1e8"])


def test_nasg_rejection_names_the_offending_key():
    """A covolume on the carrier of a relaxed rsir-tp case is rejected by
    the NASG check, whose message names the key that made it NASG."""
    case = cases.builtin_case("tp-shock-tube")
    with pytest.raises(cases.ConfigError,
                       match=r"got eos2\.b = 0\.001 \(NASG\)"):
        cases.apply_overrides(case, ["eos2.b=1e-3"])
