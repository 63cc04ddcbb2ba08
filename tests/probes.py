"""The measurements that CI prints, and the helpers the tests share with
them.  ``PYTHONPATH=src:tests python tests/probes.py NAME...`` runs the
probes NAME of ``PROBES`` and exits 1 if one returns a count other than 0."""

import collections
import hashlib
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_euler_states, random_twophase_states
from rsir1d import cases, driver, eos, euler, twophase
from rsir1d import exact_riemann as ex

TIMED_RUNS = 7  # runs per solver on each 100-cell case; the median is printed
FAULT_CELLS = (100, 10_000)  # one-block Euler meshes
LONG_CELLS = 1000  # tp-shock-tube-long, as in the tp-relax benchmark
LARGE_CELLS = 200_000
ODD_EVEN_CELLS = 1000
ORACLE_PROBLEMS = 100  # seeded problems per EOS
FALLBACK_PAIRS = 20_000
SEED = 20240817
SOURCES = {  # fields replaced in relaxed tp-shock-tube to give each source
    "no sources": dict(pressure_relax=False),
    "relaxation": {},
    "clift-gauvin drag": dict(pressure_relax=False, drag_model="clift-gauvin"),
    "constant drag, lambda 0": dict(pressure_relax=False,
                                    drag_model="constant"),
    "drag and relaxation": dict(drag_model="clift-gauvin")}


def counted_calls_per_step(case, targets):
    """Calls per step of each (module, function) target, counted between
    a run's first and last ``cfl_dt`` call (the call that opens a step);
    each such window holds one step and the next wave-speed estimate."""
    events = []

    def counting(label, fn):
        return lambda *args, **kw: events.append(label) or fn(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        for module, name in [*targets, (driver, "cfl_dt")]:
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            mp.setattr(module, name, counting(label, getattr(module, name)))
        res = driver.run(case)
    marks = [i for i, e in enumerate(events) if e == "driver.cfl_dt"]
    assert len(marks) == res.manifest["steps"] > 2
    assert res.manifest["dt_rejections"] == 0
    counts = collections.Counter(events[marks[0]:marks[-1]])
    return {e: c / (len(marks) - 1) for e, c in counts.items()
            if e != "driver.cfl_dt"}


def traced_peak(fn):
    """``fn()`` and the peak traced memory in bytes while it runs."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def first_step(case, make):
    """The model, initial u and w (as ``driver.run`` makes them), dt, dx."""
    model = make(case)
    mesh = driver.Mesh1D(case.x_min, case.x_max, case.n_cells)
    u = model.to_cons(np.where((mesh.centers < case.x_disc)[:, None],
                               [case.left], [case.right]))
    w = model.to_prim(u)
    return model, u, w, driver.cfl_dt(model.max_speed(w), mesh.dx,
                                      case.cfl), mesh.dx


def two_step_tp_peak(**fields):
    """Traced peak, in state arrays, of 2 hll-tp steps of ``fields``."""
    case = replace(cases.builtin_case("tp-shock-tube"), n_cells=LARGE_CELLS,
                   solver="hll-tp", output_times=(), **fields)
    case = replace(case, end_time=1.5 * first_step(case, driver._tp_model)[3])
    res, peak = traced_peak(lambda: driver.run(case))
    assert res.manifest["steps"] == 2
    state = res.final_cons.nbytes
    assert state == case.n_cells * 7 * 8
    return peak / state


def odd_even_amplitude(a):
    """A(a) = max over windows of 8 consecutive cells of |mean of
    (-1)^j r_j|, where r_j = a_j - (a_{j-1} + a_{j+1}) / 2: the windowed
    amplitude of the cell-scale (-1)^j mode of the field ``a``."""
    r = a[1:-1] - 0.5 * (a[:-2] + a[2:])
    r[1::2] *= -1.0
    return float(np.max(np.abs(np.convolve(r, np.full(8, 1 / 8), "valid"))))


def residual(p, sol):
    """The pressure function f_L(p) + f_R(p) + u_R - u_L of the oracle."""
    return (ex._side_function(p, sol.wl, sol.eos)[0]
            + ex._side_function(p, sol.wr, sol.eos)[0]
            + (sol.wr[1] - sol.wl[1]))


def times():
    """Median µs per step of each solver on the 100-cell cases."""
    for name, solvers in (("euler-shock-tube", cases.EULER_SOLVERS),
                          ("euler-contact-transport", cases.EULER_SOLVERS),
                          ("euler-contact-rest", cases.EULER_SOLVERS),
                          ("tp-shock-tube", cases.TWOPHASE_SOLVERS)):
        case = cases.builtin_case(name)
        assert case.n_cells == 100
        for solver in solvers:
            runs = [driver.run(replace(case, solver=solver)).manifest
                    for _ in range(TIMED_RUNS)]
            us = statistics.median(m["wall_time"] / m["steps"] * 1e6
                                   for m in runs)
            print(f"{name:23s} {solver:13s} {us:7.1f} us/step")


def _warm_run(case):
    """µs and minor page faults per step of a run after a warm-up run."""
    driver.run(case)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    m = driver.run(case).manifest
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return m["wall_time"] / m["steps"] * 1e6, faults / m["steps"]


def faults():
    """Minor page faults per step of one-block runs, and their stores."""
    for n in FAULT_CELLS:
        for solver in cases.EULER_SOLVERS:
            case = replace(cases.builtin_case("euler-shock-tube"), n_cells=n,
                           solver=solver)
            print(f"euler-shock-tube n={n:<6d} {solver:8s} "
                  f"{_warm_run(case)[1]:6.1f} minor faults/step")
    long = replace(cases.builtin_case("tp-shock-tube-long"),
                   n_cells=LONG_CELLS, output_times=())
    items = [(s, replace(long, solver=s)) for s in cases.TWOPHASE_SOLVERS]
    items.append(("rsir-tp+clift-gauvin", replace(
        long, solver="rsir-tp", drag_model="clift-gauvin")))
    models, tp_model = [], driver._tp_model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "_tp_model",
                   lambda case: models.append(tp_model(case)) or models[-1])
        for label, case in items:
            us, per_step = _warm_run(case)
            store = models[-1].scratch
            print(f"tp-shock-tube-long n={LONG_CELLS} {label:20s} {us:7.1f} "
                  f"us/step {per_step:6.1f} minor faults/step, store "
                  f"{len(store)} arrays "
                  f"{sum(a.nbytes for a in store.values()) / 2**10:.0f} KiB")


def peaks():
    """Traced peaks of one rsir step and of 2-step hll-tp runs."""
    case = replace(cases.builtin_case("euler-shock-tube"),
                   n_cells=LARGE_CELLS, solver="rsir", output_times=())
    model, u, w, dt, dx = first_step(case, driver._euler_model)
    sums = driver._sums(u)
    _, peak = traced_peak(lambda: driver._step(model, u, w, sums, dt, dx,
                                            case.boundary, False))
    print(f"rsir step on 2e5 cells: traced peak {peak / 2**20:.1f} MiB"
          f" = {peak / u.nbytes:.2f} state arrays beyond u and w")
    for label, fields in (
            ("relaxed", {}),
            ("drag only", SOURCES["clift-gauvin drag"]),
            ("drag and relaxed", SOURCES["drag and relaxation"])):
        print(f"hll-tp {label} 2-step run on 2e5 cells: traced peak "
              f"{two_step_tp_peak(**fields):.2f} state arrays")


def recoveries():
    """tp_prim_from_cons calls per tp-shock-tube step with each source."""
    for label, fields in SOURCES.items():
        case = replace(cases.builtin_case("tp-shock-tube"), **fields)
        (calls,) = counted_calls_per_step(
            case, [(twophase, "tp_prim_from_cons")]).values()
        print(f"tp-shock-tube {label:24s} {calls:.2f} "
              f"tp_prim_from_cons calls per step")


def odd_even():
    """Odd-even amplitude of alpha1 on first-order tp-shock-tube."""
    case = replace(cases.builtin_case("tp-shock-tube"), limiter="none",
                   n_cells=ODD_EVEN_CELLS)
    for solver in cases.TWOPHASE_SOLVERS:
        w = driver.run(replace(case, solver=solver)).snapshots[-1][1]
        print(f"tp-shock-tube first order n={ODD_EVEN_CELLS} {solver:13s} "
              f"A(alpha1) {odd_even_amplitude(w[:, 0]):.3e}")


def _digest(problems):
    h = hashlib.sha256()
    for wl, wr, e in problems:
        try:
            sol = ex.solve_exact(wl, wr, e)
        except ex.VacuumError:
            h.update(b"vacuum")
            continue
        h.update(repr((sol.p_star, sol.u_star, sol.rho_star_l,
                       sol.rho_star_r, sol.wave_l, sol.wave_r,
                       sol.residual, sol.iterations)).encode())
        span = 1.5 * max(abs(w[1]) + float(eos.sound_speed(e, w[0], w[2]))
                         for w in (sol.wl, sol.wr))
        h.update(ex.sample(sol, np.linspace(-span, span, 4001)).tobytes())
    return h.hexdigest()


def oracle():
    """The oracle's fingerprint and halvings; returns solutions off root."""
    for name in cases.case_names():
        case = cases.builtin_case(name)
        if case.model == "euler" and case.eos1 == eos.preset("air-ideal"):
            digest = _digest([(case.left, case.right, case.eos1)])
            print(f"{name:26s} {digest}")
    rng, problems = np.random.default_rng(SEED), []
    for e in (eos.preset("air-ideal"), eos.preset("water-sg")):
        wl, wr = random_euler_states(rng, ORACLE_PROBLEMS, e, mach_max=3.0)
        problems += [(a, b, e) for a, b in zip(wl, wr)]
    print(f"{f'{len(problems)} seeded problems':26s} {_digest(problems)}")
    sols, t0 = [], time.perf_counter()
    for wl, wr, e in problems:
        try:
            sols.append(ex.solve_exact(wl, wr, e))
        except ex.VacuumError:
            pass
    us = (time.perf_counter() - t0) / len(problems) * 1e6
    its = [s.iterations for s in sols]
    off = sum(not residual(np.nextafter(s.p_star, -np.inf), s) <= 0.0
              <= residual(s.p_star, s) for s in sols)
    print(f"{len(sols)} non-vacuum seeded problems: halvings min "
          f"{min(its)} median {statistics.median(its)} max {max(its)}, "
          f"{us:.0f} us per solve_exact, {off} off the float root")
    return off


def fallbacks():
    """Fallback shares at beta 0 and 1; returns the fallbacks at beta 0."""
    n, at_zero = FALLBACK_PAIRS, 0

    def show(solver, pair, fans):
        print(f"{solver:8s} {pair:10s} fallbacks of {n} interfaces: "
              + ", ".join(f"beta {b:g} {f.n_fallback:5d} "
                          f"({f.n_fallback / n:5.1%})"
                          for b, f in zip((0.0, 1.0), fans)))
        return fans[0].n_fallback

    for name in ("air-ideal", "water-sg", "water-nasg"):
        e = eos.preset(name)
        wl, wr = random_euler_states(np.random.default_rng(SEED), n, e)
        for solver in ("linde", "rsir"):
            flux = getattr(euler, f"{solver}_flux")
            at_zero += show(solver, name,
                            [flux(wl, wr, e, b) for b in (0.0, 1.0)])
    water, air = eos.preset("water-sg"), eos.preset("air-ideal")
    wl, wr = random_twophase_states(np.random.default_rng(SEED), n, water, air)
    return at_zero + show("rsir-tp", "water/air", [
        twophase.rsir_tp_flux(wl, wr, water, air, b) for b in (0.0, 1.0)])


PROBES = {f.__name__: f for f in (times, faults, peaks, recoveries, odd_even,
                                  oracle, fallbacks)}

if __name__ == "__main__":
    sys.exit(any([PROBES[name]() for name in sys.argv[1:]]))
