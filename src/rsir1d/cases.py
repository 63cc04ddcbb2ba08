"""Run configurations: the CaseConfig record, a text config-file parser
(flat dotted keys), a catalog of built-in verification cases, and CSV /
plot-script / comparison output helpers.
"""

import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import driver as _driver
from . import eos as _eos
from . import exact_riemann as _exact

__all__ = [
    "CaseConfig",
    "ConfigError",
    "parse_config",
    "apply_overrides",
    "builtin_case",
    "case_names",
    "emit_csv",
    "emit_plot_script",
    "compare_solvers",
]

EULER_SOLVERS = ("rusanov", "hll", "hllc", "linde", "rsir")
TWOPHASE_SOLVERS = ("rusanov-basic", "rusanov-local", "hll-tp", "rsir-tp")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class CaseConfig:
    name: str = "custom"
    model: str = "euler"            # "euler" | "two-phase"
    solver: str = "rsir"
    beta: float = 1.0
    cfl: float = 0.5
    limiter: str = "minmod"         # "minmod" | "none"
    boundary: str = "transmissive"  # | "reflective" | "periodic"
    x_min: float = 0.0
    x_max: float = 1.0
    n_cells: int = 100
    x_disc: float = 0.5
    end_time: float = 1e-3
    output_times: tuple = ()
    eos1: _eos.EosParams = field(default_factory=lambda: _eos.preset("air-ideal"))
    eos2: _eos.EosParams = None
    left: tuple = (1.0, 0.0, 1e5)
    right: tuple = (0.125, 0.0, 1e4)
    pressure_relax: bool = False
    drag_model: str = "none"        # "none" | "constant" | "clift-gauvin"
    drag_lambda: float = 0.0
    drag_radius: float = 1e-4
    drag_mu2: float = 1.8e-5
    description: str = ""

    def validate(self):
        if (self.name in ("", ".", "..")
                or os.path.basename(self.name) != self.name):
            raise ConfigError(f"name {self.name!r} is not a file name")
        for key, (name, parse) in _KEYS.items():
            value = getattr(self, name)
            if parse in (float, _parse_floats) and not all(map(
                    math.isfinite, (value,) if parse is float else value)):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.model not in ("euler", "two-phase"):
            raise ConfigError(f"unknown model {self.model!r}")
        solvers = EULER_SOLVERS if self.model == "euler" else TWOPHASE_SOLVERS
        if self.solver not in solvers:
            raise ConfigError(
                f"solver {self.solver!r} is not valid for model "
                f"{self.model!r}; choose one of {', '.join(solvers)}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl!r}")
        if self.limiter not in ("minmod", "none"):
            raise ConfigError(f"unknown limiter {self.limiter!r}")
        if self.boundary not in ("transmissive", "reflective", "periodic"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        nstate = 3 if self.model == "euler" else 7
        for side, st in (("left", self.left), ("right", self.right)):
            if len(st) != nstate:
                raise ConfigError(
                    f"state.{side} needs {nstate} entries for model "
                    f"{self.model!r}, got {len(st)}")
        if self.model == "two-phase":
            if self.eos2 is None:
                raise ConfigError("two-phase model needs eos2")
            nasg = [f"eos{i}.b = {e.b!r}"
                    for i, e in ((1, self.eos1), (2, self.eos2)) if e.b]
            if nasg and (self.pressure_relax or self.solver == "rsir-tp"):
                raise ConfigError(
                    "pressure relaxation and solver rsir-tp need SG/ideal "
                    f"phases (covolume b = 0), got {', '.join(nasg)} (NASG)")
        # (density slot, pressure slot, EOS) of each phase
        phases = ([(0, 2, self.eos1)] if self.model == "euler"
                  else [(1, 3, self.eos1), (4, 6, self.eos2)])
        for side, st in (("left", self.left), ("right", self.right)):
            if self.model == "two-phase" and not 0.0 < st[0] < 1.0:
                raise ConfigError(
                    f"state.{side} volume fraction must lie in (0, 1)")
            for r, p, e in phases:
                if not (st[r] > 0.0 and st[r] * e.b < 1.0
                        and st[p] > -e.p_inf):
                    raise ConfigError(
                        f"state.{side} lies outside the EOS domain (need rho "
                        f"> 0, rho b < 1, p > -p_inf), got rho {st[r]!r}, p "
                        f"{st[p]!r}")
                with np.errstate(over="ignore"):
                    energy = st[r] * (0.5 * st[r + 1] * st[r + 1]
                                      + _eos.internal_energy(e, st[r], st[p]))
                if not math.isfinite(energy):  # if it is, so is alpha rho E
                    raise ConfigError(f"state.{side}: energy rho E overflows")
        if self.end_time <= 0.0:
            raise ConfigError("time.end must be positive")
        if not all(0.0 <= t <= self.end_time for t in self.output_times):
            raise ConfigError("time.outputs must lie in [0, time.end]")
        if not self.x_min < self.x_disc < self.x_max:
            raise ConfigError("mesh.x_disc must lie inside the domain")
        if self.n_cells < 4:
            raise ConfigError(f"mesh.n_cells must be at least 4 (two ghost "
                              f"layers each side), got {self.n_cells!r}")
        if self.drag_model not in ("none", "constant", "clift-gauvin"):
            raise ConfigError(f"unknown drag model {self.drag_model!r}")
        if not self.drag_lambda >= 0.0:
            raise ConfigError(
                f"drag.lambda must be >= 0, got {self.drag_lambda!r}")
        if self.drag_model == "clift-gauvin" and not (self.drag_radius > 0.0
                                                      and self.drag_mu2 > 0.0):
            raise ConfigError(
                f"drag.radius and drag.mu2 must be positive for the "
                f"clift-gauvin model, got {self.drag_radius!r} and "
                f"{self.drag_mu2!r}")
        if self.model == "euler" and (self.pressure_relax
                                      or self.drag_model != "none"):
            raise ConfigError("relaxation sources need the two-phase model")
        return self


# ---------------------------------------------------------------------------
# Config parsing (flat "dotted.key = value" lines, '#' comments)
# ---------------------------------------------------------------------------

def _parse_bool(s):
    if s.lower() in ("on", "true", "yes", "1"):
        return True
    if s.lower() in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {s!r}")


def _parse_floats(s):
    return tuple(float(tok) for tok in s.replace(",", " ").split())


# config key -> (CaseConfig field, parser of its value); validate() also
# reads the parsers to find the numeric keys, whose values must be finite
_KEYS = {
    "name": ("name", str), "model": ("model", str),
    "solver": ("solver", str), "beta": ("beta", float),
    "cfl": ("cfl", float), "limiter": ("limiter", str),
    "boundary": ("boundary", str),
    "mesh.x_min": ("x_min", float), "mesh.x_max": ("x_max", float),
    "mesh.n_cells": ("n_cells", int), "mesh.x_disc": ("x_disc", float),
    "time.end": ("end_time", float),
    "time.outputs": ("output_times", _parse_floats),
    "state.left": ("left", _parse_floats),
    "state.right": ("right", _parse_floats),
    "relax.pressure": ("pressure_relax", _parse_bool),
    "drag.model": ("drag_model", str), "drag.lambda": ("drag_lambda", float),
    "drag.radius": ("drag_radius", float), "drag.mu2": ("drag_mu2", float),
}
# "eos1.<field>" and "eos2.<field>": field -> parser
_EOS_KEYS = {"preset": str, "gamma": float, "p_inf": float, "b": float}


def _build_eos(d, current):
    """The preset named in ``d``, else the case's EOS, with d's fields."""
    base = _eos.preset(d["preset"]) if "preset" in d else current
    if base is None and "gamma" not in d:
        raise ValueError("EOS needs a preset or at least gamma")
    fields = {k: v for k, v in d.items() if k != "preset"}
    return _eos.EosParams(**d) if base is None else replace(base, **fields)


def apply_overrides(case, pairs):
    """Apply "dotted.key=value" strings on top of an existing CaseConfig."""
    lines = []
    for p in pairs:
        if "=" not in p:
            raise ConfigError(f"override {p!r} is not of the form key=value")
        lines.append(p.replace("=", " = ", 1))
    return _apply_lines(case, lines, source="override")


def parse_config(text, source="config"):
    """Build a CaseConfig from config text; unknown keys raise ConfigError
    with the offending line of ``source``, such as the file's name."""
    return _apply_lines(CaseConfig(name="custom"), text.splitlines(), source)


def _apply_lines(case, lines, source):
    eos_fields = {}
    updates = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source} line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        try:
            if key.startswith(("eos1.", "eos2.")):
                which, sub = key.split(".", 1)
                if sub not in _EOS_KEYS:
                    raise ValueError(f"unknown EOS field {sub!r}")
                eos_fields.setdefault(which, {})[sub] = _EOS_KEYS[sub](value)
            elif key in _KEYS:
                name, parse = _KEYS[key]
                updates[name] = parse(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as err:
            raise ConfigError(
                f"{source} line {lineno} ({raw.strip()!r}): {err}") from err
    for which, fields in eos_fields.items():
        try:
            updates[which] = _build_eos(fields, getattr(case, which))
        except (ValueError, KeyError) as err:
            given = ", ".join(f"{which}.{k} = {v}" for k, v in fields.items())
            msg = err.args[0] if isinstance(err, KeyError) else err
            raise ConfigError(f"{source} {which} ({given}): {msg}") from err
    return replace(case, **updates).validate()


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

@functools.cache
def _catalog():
    air = _eos.preset("air-ideal")
    water = _eos.preset("water-sg")
    nasg = _eos.preset("water-nasg")
    cases = {}

    cases["euler-contact-rest"] = CaseConfig(
        name="euler-contact-rest", model="euler", solver="rsir",
        eos1=air, x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.5,
        left=(1.0, 0.0, 1e5), right=(0.125, 0.0, 1e5), end_time=6e-3,
        description="Stationary density jump at uniform pressure and zero "
                    "velocity; contact-preserving fluxes keep it exact.")

    cases["euler-contact-transport"] = CaseConfig(
        name="euler-contact-transport", model="euler", solver="rsir",
        eos1=air, x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.2,
        left=(1.0, 100.0, 1e5), right=(0.125, 100.0, 1e5), end_time=6e-3,
        description="Density jump advected at 100 m/s through uniform "
                    "pressure; isolates contact smearing of each flux.")

    cases["euler-shock-tube"] = CaseConfig(
        name="euler-shock-tube", model="euler", solver="rsir",
        eos1=air, x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.5,
        left=(1.0, 0.0, 1e5), right=(0.125, 0.0, 1e4), end_time=3e-4,
        description="Air shock tube: left rarefaction, contact, right "
                    "shock; exact solution available.")

    cases["euler-double-expansion"] = CaseConfig(
        name="euler-double-expansion", model="euler", solver="rsir",
        eos1=air, x_min=0.0, x_max=2.0, n_cells=200, x_disc=1.0,
        left=(1.0, -100.0, 1e5), right=(1.0, 100.0, 1e5), end_time=8.5e-4,
        description="Symmetric receding streams create twin rarefactions "
                    "and a low-density center; positivity stress test.")

    cases["euler-double-shock"] = CaseConfig(
        name="euler-double-shock", model="euler", solver="rsir",
        eos1=air, x_min=0.0, x_max=2.0, n_cells=200, x_disc=1.0,
        left=(1.0, 100.0, 1e5), right=(1.0, -100.0, 1e5), end_time=8.5e-4,
        description="Colliding streams create twin shocks around a dense "
                    "center state.")

    cases["water-nasg-transport"] = CaseConfig(
        name="water-nasg-transport", model="euler", solver="rsir",
        eos1=nasg, x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.2,
        left=(1000.0, 100.0, 1e5), right=(1200.0, 100.0, 1e5),
        end_time=6e-3,
        description="Liquid density jump advected at uniform pressure with "
                    "a covolume EOS; exercises the general reconstruction.")

    cases["water-nasg-shock-tube"] = CaseConfig(
        name="water-nasg-shock-tube", model="euler", solver="rsir",
        eos1=nasg, x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.5,
        left=(1200.0, 0.0, 1e9), right=(1000.0, 0.0, 1e5), end_time=7.5e-5,
        description="Strong liquid shock tube with the covolume EOS.")

    tp_kw = dict(model="two-phase", solver="rsir-tp", eos1=water, eos2=air)

    cases["tp-alpha-rest"] = CaseConfig(
        name="tp-alpha-rest", x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.5,
        left=(0.8, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5),
        right=(0.2, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5),
        end_time=6e-3, **tp_kw,
        description="Stationary volume-fraction jump at full mechanical "
                    "equilibrium; must stay unchanged.")

    cases["tp-alpha-transport"] = CaseConfig(
        name="tp-alpha-transport", x_min=0.0, x_max=1.0, n_cells=100,
        x_disc=0.2,
        left=(0.8, 1000.0, 100.0, 1e5, 1.0, 100.0, 1e5),
        right=(0.2, 1000.0, 100.0, 1e5, 1.0, 100.0, 1e5),
        end_time=6e-3, **tp_kw,
        description="Volume-fraction jump advected at uniform pressure and "
                    "common velocity; mechanical equilibrium must persist.")

    cases["tp-shock-tube"] = CaseConfig(
        name="tp-shock-tube", x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.5,
        left=(0.2, 1000.0, 0.0, 1e6, 10.0, 0.0, 1e6),
        right=(0.15, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5),
        end_time=3e-4, pressure_relax=True, **tp_kw,
        description="Dense-dilute shock tube with stiff pressure "
                    "relaxation after every step.")

    cases["tp-shock-tube-long"] = CaseConfig(
        name="tp-shock-tube-long", x_min=0.0, x_max=5.0, n_cells=1000,
        x_disc=2.5,
        left=(0.2, 1000.0, 0.0, 1e6, 10.0, 0.0, 1e6),
        right=(0.1, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5),
        end_time=1.8e-3, output_times=(6e-4, 1.2e-3),
        pressure_relax=True, **tp_kw,
        description="Long-domain variant of the relaxed shock tube with "
                    "intermediate output times.")

    for c in cases.values():
        c.validate()
    return cases


def case_names():
    return sorted(_catalog())


def builtin_case(name):
    cat = _catalog()
    if name not in cat:
        raise KeyError(
            f"unknown case {name!r}; available: {', '.join(sorted(cat))}")
    return replace(cat[name])


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

EULER_COLUMNS = ("x", "rho", "u", "p", "e")
TP_COLUMNS = ("x", "alpha1", "rho1", "u1", "p1", "rho2", "u2", "p2",
              "rho_mix")


def emit_csv(path, case, centers, w):
    """Write one snapshot as CSV with a header row, '%.17g' formatting."""
    if case.model == "euler":
        e = _eos.internal_energy(case.eos1, w[:, 0], w[:, 2])
        cols = np.column_stack([centers, w, e])
        header = ",".join(EULER_COLUMNS)
    else:
        a1 = w[:, 0]
        rho_mix = a1 * w[:, 1] + (1.0 - a1) * w[:, 4]
        cols = np.column_stack([centers, w, rho_mix])
        header = ",".join(TP_COLUMNS)
    np.savetxt(path, cols, delimiter=",", fmt="%.17g", header=header,
               comments="")


def emit_plot_script(path, csv_paths, case):
    """Write a gnuplot script plotting the main fields of each CSV."""
    def quoted(s):  # gnuplot reads '' as one ' inside '...'
        return "'" + str(s).replace("'", "''") + "'"

    if case.model == "euler":
        panels = [("rho", 2), ("u", 3), ("p", 4), ("e", 5)]
    else:
        panels = [("alpha1", 2), ("rho_mix", 9), ("u1", 4), ("p1", 5)]
    lines = [
        "set datafile separator ','",
        f"set output {quoted(case.name + '.png')}",
        "set terminal pngcairo size 1200,900",
        "set multiplot layout 2,2",
        "set key top right",
    ]
    for label, col in panels:
        lines.append(f"set ylabel '{label}'")
        plots = ", ".join(
            f"{quoted(p)} using 1:{col} with lines title {quoted(p)}"
            for p in csv_paths)
        lines.append(f"plot {plots}")
    lines.append("unset multiplot")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_field(case, n_ref=2000):
    """Reference primitives on the case mesh at the end time: the exact
    solution if one exists and the boundary is transmissive, otherwise a
    fine-mesh HLLC (or same-model) run averaged onto the coarse mesh."""
    mesh = _driver.Mesh1D(case.x_min, case.x_max, case.n_cells)
    if (case.model == "euler" and case.eos1.b == 0.0
            and case.boundary == "transmissive"):
        try:
            sol = _exact.solve_exact(case.left, case.right, case.eos1)
        except _exact.VacuumError:
            pass  # the data open a vacuum: no exact solution
        else:
            return _exact.sample(
                sol, (mesh.centers - case.x_disc) / case.end_time), "exact"
    if n_ref < case.n_cells or n_ref % case.n_cells:
        raise ConfigError(f"n_ref must be a positive multiple of mesh.n_cells"
                          f" = {case.n_cells}, got {n_ref!r}")
    ref_solver = "hllc" if case.model == "euler" else case.solver
    ref_case = replace(case, n_cells=n_ref, solver=ref_solver)
    res = _driver.run(ref_case)
    w_fine = res.snapshots[-1][1]
    w = w_fine.reshape(case.n_cells, -1, w_fine.shape[1]).mean(axis=1)
    return w, f"fine-mesh {ref_solver} ({n_ref} cells)"


def compare_solvers(case, solvers=None, n_ref=2000):
    """L1 errors of each solver on the case against a common reference.

    Returns (reference label, {solver: {column: error}}).
    """
    if solvers is None:
        solvers = EULER_SOLVERS if case.model == "euler" else TWOPHASE_SOLVERS
    runs = [replace(case, solver=s).validate() for s in solvers]
    for i, s in enumerate(solvers):
        if s in solvers[:i]:
            raise ConfigError(f"solver {s!r} is listed twice")
    ref, label = _reference_field(case, n_ref)
    mesh = _driver.Mesh1D(case.x_min, case.x_max, case.n_cells)
    cols = EULER_COLUMNS[1:4] if case.model == "euler" else TP_COLUMNS[1:8]
    table = {}
    for run in runs:
        res = _driver.run(run)
        w = res.snapshots[-1][1]
        errs = np.sum(np.abs(w[:, :len(cols)] - ref[:, :len(cols)]),
                      axis=0) * mesh.dx
        table[run.solver] = dict(zip(cols, (float(e) for e in errs)))
    return label, table
