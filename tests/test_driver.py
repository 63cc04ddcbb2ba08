import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dataclasses import replace

from rsir1d import cases, driver
from rsir1d import eos as _eos
from rsir1d import euler as _euler
from rsir1d import exact_riemann as ex
from rsir1d import twophase as tp
from rsir1d.eos import EosDomainError
from conftest import random_euler_states, random_twophase_states
from probes import (SOURCES, counted_calls_per_step, first_step,
                    odd_even_amplitude, traced_peak, two_step_tp_peak)


def test_mesh_basics():
    mesh = driver.Mesh1D(0.0, 1.0, 100)
    assert mesh.dx == pytest.approx(0.01)
    assert mesh.centers[0] == pytest.approx(0.005)
    assert mesh.centers[-1] == pytest.approx(0.995)
    with pytest.raises(ValueError):
        driver.Mesh1D(1.0, 0.0, 100)
    with pytest.raises(ValueError):
        driver.Mesh1D(0.0, 1.0, 2)


def test_minmod_properties(rng):
    a = rng.normal(size=1000)
    b = rng.normal(size=1000)
    m = driver.minmod(a, b)
    assert np.all(m * a >= 0.0)
    assert np.all(np.abs(m) <= np.abs(a) + 1e-15)
    assert np.all(np.abs(m) <= np.abs(b) + 1e-15)
    assert np.all(m[a * b <= 0.0] == 0.0)


def _minmod_rule(a, b):
    """The limiter's rule for one pair, written out as the reference."""
    if (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0):
        return a if abs(a) < abs(b) else b
    return 0.0


SLOPES = st.floats(allow_nan=False)  # signed zeros, subnormals, infinities


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(SLOPES, SLOPES), min_size=1, max_size=32))
@example([(1e-200, 3e-200), (-1e-200, -1e-300), (0.0, -0.0), (-0.0, -0.0),
          (-0.0, 2.0), (-3.0, -0.0), (5e-324, 5e-324)])
def test_minmod_is_zero_on_a_sign_change_else_the_smaller_slope(pairs):
    """0.0 on a sign change or a zero, else the argument of smaller
    magnitude, bit for bit.  Tiny slopes of one sign, whose product
    underflows to 0, keep the smaller one."""
    a, b = (np.array(x) for x in zip(*pairs))
    got = driver.minmod(a, b)
    ref = np.array([_minmod_rule(x, y) for x, y in pairs])
    assert got.tobytes() == ref.tobytes()


def test_minmod_accepts_scalars_and_lists():
    assert driver.minmod(2.0, 3.0) == 2.0
    assert driver.minmod(-2.0, 3.0) == 0.0
    assert not np.signbit(driver.minmod(-0.0, -1.0))
    assert driver.minmod([1.0, -2.0, 4.0], [3.0, 1.0, 0.5]).tolist() == [
        1.0, 0.0, 0.5]
    # a (n, k) array against a broadcast row
    rows = driver.minmod(np.array([[1.0, -1.0], [-4.0, 2.0]]), [-2.0, -3.0])
    assert rows.tolist() == [[0.0, -1.0], [-2.0, 0.0]]


def test_boundary_transmissive_and_reflective():
    """The ghost cells -2, -1, n and n+1 of each boundary kind copy the
    interior cells 0, 0, n-1, n-1 (transmissive), 1, 0, n-1, n-2 with the
    velocity slots negated (reflective) or n-2, n-1, 0, 1 (periodic),
    leaving the interior field unchanged; an unknown kind raises."""
    for slots, k in (((1,), 3), ((2, 5), 7)):
        u = np.arange(1.0, 5.0 * k + 1.0).reshape(5, k)
        sign = np.ones(k)
        sign[list(slots)] = -1.0
        for kind, cells, factor in (
                ("transmissive", [0, 0, 4, 4], 1.0),
                ("reflective", [1, 0, 4, 3], sign),
                ("periodic", [3, 4, 0, 1], 1.0)):
            g = driver._ghosts(u, kind, velocity_slots=slots)
            assert g.tobytes() == (u[cells] * factor).tobytes(), kind
        assert np.array_equal(u, np.arange(1.0, 5.0 * k + 1.0).reshape(5, k))
        with pytest.raises(ValueError, match="unknown boundary kind 'open'"):
            driver._ghosts(u, "open", velocity_slots=slots)


def test_cfl_dt():
    assert driver.cfl_dt(100.0, 0.01, 0.5) == pytest.approx(5e-5)
    with pytest.raises(ValueError):
        driver.cfl_dt(0.0, 0.01, 0.5)


def test_run_reaches_end_time_and_snapshots():
    case = replace(cases.builtin_case("euler-shock-tube"),
                   output_times=(1e-4, 2e-4))
    res = driver.run(case)
    times = [t for t, _ in res.snapshots]
    assert times == [1e-4, 2e-4, 3e-4]
    for _, w in res.snapshots:
        assert w.shape == (case.n_cells, 3)
    assert res.manifest["steps"] > 0
    assert res.manifest["max_conservation_defect"] <= 1e-12


def test_first_order_switch_changes_result():
    case = cases.builtin_case("euler-shock-tube")
    w2 = driver.run(case).snapshots[-1][1]
    w1 = driver.run(replace(case, limiter="none")).snapshots[-1][1]
    sol = ex.solve_exact(case.left, case.right, case.eos1)
    mesh = driver.Mesh1D(case.x_min, case.x_max, case.n_cells)
    e2 = ex.l1_error(w2[:, 0], sol, case.end_time, mesh.centers,
                     x0=case.x_disc, component=0)
    e1 = ex.l1_error(w1[:, 0], sol, case.end_time, mesh.centers,
                     x0=case.x_disc, component=0)
    assert e2 < e1  # the limiter earns its keep


def test_euler_solvers_converge_to_oracle():
    case = cases.builtin_case("euler-shock-tube")
    sol = ex.solve_exact(case.left, case.right, case.eos1)
    for solver in ("rusanov", "hll", "hllc", "rsir"):
        errs = []
        for n in (50, 200):
            c = replace(case, solver=solver, n_cells=n)
            res = driver.run(c)
            w = res.snapshots[-1][1]
            errs.append(ex.l1_error(w[:, 0], sol, c.end_time,
                                    res.mesh.centers, x0=c.x_disc,
                                    component=0))
        assert errs[1] < errs[0]


def test_periodic_advection_returns_home():
    """A smooth density bump advected once around a periodic domain."""
    eos = _eos.preset("air-ideal")
    case = cases.CaseConfig(
        name="periodic", model="euler", solver="hllc", boundary="periodic",
        x_min=0.0, x_max=1.0, n_cells=200, x_disc=0.5, eos1=eos,
        left=(1.0, 0.0, 1e5), right=(1.0, 0.0, 1e5), end_time=1e-2)
    mesh = driver.Mesh1D(0.0, 1.0, 200)
    # step manually: build a bump initial condition and advect at u=100
    w0 = np.stack([1.0 + 0.1 * np.exp(-200.0 * (mesh.centers - 0.5) ** 2),
                   np.full(200, 100.0), np.full(200, 1e5)], axis=-1)
    model = driver._euler_model(case)
    u = model.to_cons(w0)
    w = model.to_prim(u)
    sums = driver._sums(u)
    dt_total = 1.0 / 100.0  # one period
    t = 0.0
    while t < dt_total * (1 - 1e-12):
        dt = min(driver.cfl_dt(model.max_speed(w), mesh.dx, 0.5),
                 dt_total - t)
        u, w, sums, _, _, _ = driver._step(model, u, w, sums, dt, mesh.dx,
                                           "periodic", False)
        t += dt
    # the carried primitives are the recovery of the final state
    assert np.array_equal(w, model.to_prim(u))
    # the bump comes back (diffused but centered)
    assert np.argmax(w[:, 0]) == pytest.approx(100, abs=2)


def test_reflective_wall_conserves_mass():
    eos = _eos.preset("air-ideal")
    case = cases.CaseConfig(
        name="wall", model="euler", solver="hllc", boundary="reflective",
        x_min=0.0, x_max=1.0, n_cells=100, x_disc=0.5, eos1=eos,
        left=(1.0, 200.0, 1e5), right=(1.0, 200.0, 1e5), end_time=1e-3)
    res = driver.run(case)
    w = res.snapshots[-1][1]
    mass = np.sum(w[:, 0]) * res.mesh.dx
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_two_phase_run_counters_present():
    res = driver.run(cases.builtin_case("tp-shock-tube"))
    m = res.manifest
    for key in ("positivity_fallbacks", "alpha_clamps", "dt_rejections",
                "max_conservation_defect", "steps", "wall_time"):
        assert key in m
    assert m["max_conservation_defect"] <= 1e-12


def test_two_phase_solver_variants_all_run():
    case = cases.builtin_case("tp-shock-tube")
    profiles = {}
    for solver in ("rusanov-basic", "rusanov-local", "hll-tp", "rsir-tp"):
        res = driver.run(replace(case, solver=solver))
        profiles[solver] = res.snapshots[-1][1]
    # all agree on the gross structure (same shock position within a few
    # cells, similar alpha range)
    ref = profiles["rsir-tp"]
    for solver, w in profiles.items():
        assert np.max(np.abs(w[:, 0] - ref[:, 0])) < 0.1


def test_unknown_solver_raises():
    case = replace(cases.builtin_case("euler-shock-tube"))
    case.solver = "roe"
    with pytest.raises(ValueError):
        driver.run(case)


def test_primitive_ghost_fill_equals_conserved_ghost_fill(rng):
    """Ghost cells filled on primitives equal the recovery of the ghost
    cells of conserved states, bit for bit, for every boundary kind and
    both models: a wall negates velocity and momentum alike."""
    air, water = _eos.preset("air-ideal"), _eos.preset("water-sg")
    for w, slots, to_cons, to_prim in (
            (random_euler_states(rng, 20, air)[0], (1,),
             lambda w: _euler.cons_from_prim(w, air),
             lambda u: _euler.prim_from_cons(u, air)),
            (random_twophase_states(rng, 20, water, air)[0], (2, 5),
             lambda w: tp.tp_cons_from_prim(w, water, air),
             lambda u: tp.tp_prim_from_cons(u, water, air))):
        u = to_cons(w)
        w = to_prim(u)
        for bc in ("transmissive", "reflective", "periodic"):
            assert driver._ghosts(w, bc, slots).tobytes() == to_prim(
                driver._ghosts(u, bc, slots)).tobytes(), bc


@pytest.mark.parametrize("name", ["euler-shock-tube", "tp-shock-tube"])
def test_output_time_zero_is_the_initial_state(name):
    """An output time of 0.0, or of -0.0, gives the initial primitives,
    recovered from the initial conserved states, as the first snapshot,
    at t = 0.0 and bit for bit; the later snapshots are unchanged."""
    case = replace(cases.builtin_case(name), output_times=(0.0, 1e-4))
    w0 = first_step(case, driver._euler_model if case.model == "euler"
                    else driver._tp_model)[2]
    ref = driver.run(replace(case, output_times=(1e-4,)))
    for zero in (0.0, -0.0):
        res = driver.run(replace(case, output_times=(zero, 1e-4)))
        (t, w), *later = res.snapshots
        assert t == 0.0 and not np.signbit(t)
        assert w.tobytes() == w0.tobytes()
        assert res.final_cons.tobytes() == ref.final_cons.tobytes()
        assert [(t, w.tobytes()) for t, w in later] == [
            (t, w.tobytes()) for t, w in ref.snapshots]


def test_alpha_clamps_count_once_per_cell_per_step():
    """A uniform state at rest with alpha1 above 1 - floor stays
    unchanged, so every cell is clamped in every step's final recovery and
    in no other count."""
    state = (1.0 - 1e-9, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5)
    case = replace(cases.builtin_case("tp-alpha-rest"), left=state,
                   right=state, n_cells=20, end_time=1e-4)
    for limiter in ("minmod", "none"):
        res = driver.run(replace(case, limiter=limiter))
        m = res.manifest
        assert m["steps"] > 0
        assert m["alpha_clamps"] == case.n_cells * m["steps"]
        assert np.all(res.snapshots[-1][1][:, 0] == 1.0 - tp.ALPHA_FLOOR)


def test_snapshots_do_not_alias_the_final_state():
    case = replace(cases.builtin_case("tp-shock-tube-long"), n_cells=100,
                   output_times=(0.0, 6e-4))
    res = driver.run(case)
    ws = [w for _, w in res.snapshots]
    assert len(ws) == 3
    assert not any(np.shares_memory(a, b) for i, a in enumerate(ws)
                   for b in ws[i + 1:] + [res.final_cons])
    assert not np.array_equal(ws[1], ws[2])
    assert np.array_equal(ws[2], tp.tp_prim_from_cons(
        res.final_cons, case.eos1, case.eos2))


EOS_FUNCTIONS = [(_eos, name) for name in
                 ("pressure", "internal_energy", "sound_speed", "entropy")]


def _eos_calls(per_step):
    return sum(v for k, v in per_step.items() if k.startswith("eos."))


def test_euler_step_converts_each_state_once():
    """Public EOS calls per step: the CFL sound speed, the predictor's
    internal energy and pressure, the interface flux's internal energy
    (both sides as one batch; its squared sound speed comes from the
    private ``eos._sound_speed_sq``) and the update's pressure."""
    targets = [(_euler, "prim_from_cons")] + EOS_FUNCTIONS
    case = replace(cases.builtin_case("euler-shock-tube"), solver="rsir")
    per_step = counted_calls_per_step(case, targets)
    assert per_step["euler.prim_from_cons"] == pytest.approx(2.0)
    assert _eos_calls(per_step) == pytest.approx(5.0)


def test_nasg_step_eos_calls():
    case = cases.builtin_case("water-nasg-shock-tube")
    assert case.solver == "rsir" and case.eos1.b > 0.0
    per_step = counted_calls_per_step(case, EOS_FUNCTIONS)
    assert _eos_calls(per_step) == pytest.approx(5.0)


@pytest.mark.parametrize("limiter", ["none", "minmod"])
def test_inadmissible_rsir_star_states_fall_back_per_interface(limiter):
    """A strong double expansion in air: rsir's beta = 1 star density goes
    non-positive at some interfaces; those take the HLL star state and are
    counted, and no step is rejected."""
    case = replace(cases.builtin_case("euler-shock-tube"), limiter=limiter,
                   left=(0.05, -600.0, 1e4), right=(5.0, 600.0, 2e5),
                   end_time=2e-4).validate()
    res = driver.run(case)
    assert res.snapshots[-1][0] == case.end_time
    assert res.manifest["positivity_fallbacks"] >= 1
    assert res.manifest["dt_rejections"] == 0


@pytest.mark.parametrize("source, calls", zip(SOURCES, [2, 3, 3, 2, 4]))
def test_two_phase_step_recovers_primitives_once_per_state(source, calls):
    """The predicted edges and the update, then the relaxed and the
    dragged state, which each source recovers through tp_prim_from_cons
    itself; constant drag with lambda = 0 is skipped."""
    case = cases.builtin_case("tp-shock-tube-long")
    assert case.pressure_relax and case.drag_model == "none"
    case = replace(case, n_cells=200, end_time=2e-4, output_times=(),
                   **SOURCES[source])
    (per_step,) = counted_calls_per_step(
        case, [(tp, "tp_prim_from_cons")]).values()
    assert per_step == pytest.approx(calls)


@pytest.mark.parametrize("relax", [True, False])
def test_constant_drag_with_zero_lambda_is_no_drag(relax):
    """Constant drag with lambda = 0, CaseConfig's default lambda, is
    skipped: the run recovers primitives as often as one without drag
    (3 times per step with relaxation, 2 without), has no sources without
    relaxation, and is bitwise equal to the run without drag."""
    case = replace(cases.builtin_case("tp-shock-tube-long"), n_cells=200,
                   end_time=2e-4, output_times=(), pressure_relax=relax)
    dragged = replace(case, drag_model="constant", drag_lambda=0.0)
    assert (driver._tp_model(dragged).sources is None) is not relax
    ref, res = driver.run(case), driver.run(dragged)
    assert np.array_equal(res.final_cons, ref.final_cons)
    assert res.manifest["steps"] == ref.manifest["steps"]
    per_step = counted_calls_per_step(dragged, [(tp, "tp_prim_from_cons")])
    assert per_step["twophase.tp_prim_from_cons"] == pytest.approx(
        3.0 if relax else 2.0)


def test_constant_drag_shrinks_the_slip():
    """Constant drag with lambda > 0 relaxes u2 - u1 after every step: the
    largest slip of the relaxed shock tube falls from 340 to 42 m/s."""
    case = cases.builtin_case("tp-shock-tube")
    slip = [np.max(np.abs(w[:, 5] - w[:, 2])) for w in (
        driver.run(c).snapshots[-1][1] for c in (
            case, replace(case, drag_model="constant", drag_lambda=1e5)))]
    assert slip[1] < 0.25 * slip[0], slip


@pytest.mark.parametrize("solver", ["hll-tp", "rsir-tp"])
def test_relaxed_two_phase_step_eos_calls(solver):
    """Public EOS calls per relaxed step: the CFL sound speed, the
    predictor's internal energy and pressure per phase, the interface
    flux's carrier sound speed and internal energy per phase (both sides
    as one batch) and the pressure per phase of the update and of the
    relaxed state."""
    case = replace(cases.builtin_case("tp-shock-tube"), solver=solver)
    assert case.pressure_relax and case.drag_model == "none"
    per_step = counted_calls_per_step(case, EOS_FUNCTIONS)
    assert _eos_calls(per_step) == pytest.approx(12.0)


@pytest.mark.parametrize("name", ["euler-shock-tube", "tp-shock-tube"])
def test_run_returns_component_major_states(name):
    """Each component of the final state and of every snapshot is one
    contiguous block, for both models."""
    case = replace(cases.builtin_case(name), output_times=(0.0, 1e-4))
    res = driver.run(case)
    assert len(res.snapshots) == 3
    for state in [res.final_cons] + [w for _, w in res.snapshots]:
        for k in range(state.shape[1]):
            assert state[:, k].flags.c_contiguous, k


def test_relaxation_report_is_kept_in_the_manifest(monkeypatch):
    """Every step's RelaxReport feeds max_relax_residual and
    max_relax_energy_defect; runs without relaxation record 0.0."""
    case = cases.builtin_case("tp-shock-tube")
    assert case.pressure_relax
    res = driver.run(case)
    m = res.manifest
    assert 0.0 < m["max_relax_residual"] < 1e-9
    original = driver._relax.pressure_relax_stiff
    reports = []

    def relax(uc, w, eos1, eos2):
        out, report, w_out = original(uc, w, eos1, eos2)
        reports.append(report)
        return out, report, w_out

    monkeypatch.setattr(driver._relax, "pressure_relax_stiff", relax)
    m = driver.run(case).manifest
    assert len(reports) == m["steps"]
    assert m["max_relax_residual"] == max(r.residual for r in reports)
    assert m["max_relax_energy_defect"] == max(r.conservation_defect
                                               for r in reports)
    for name in ("euler-shock-tube", "tp-alpha-transport"):
        m = driver.run(cases.builtin_case(name)).manifest
        assert m["max_relax_residual"] == 0.0
        assert m["max_relax_energy_defect"] == 0.0


def _defect_from_cell_totals(totals, u0, u1, f, lam):
    """The audit as one totals call per array: cell rows -> totals."""
    budget = (totals(u1) - totals(u0)
              + lam * (totals(f[-1:]) - totals(f[:1])))
    denom = totals(np.abs(u1))
    denom[-2] = max(denom[-2], np.sqrt(sum(denom[:-2]) * denom[-1]))
    return float(np.max(np.abs(budget) / denom))


def _tp_cell_totals(u):
    return np.array([np.sum(u[:, 1]), np.sum(u[:, 4]),
                     np.sum(u[:, 2] + u[:, 5]), np.sum(u[:, 3] + u[:, 6])])


@pytest.mark.parametrize("name", ["euler-shock-tube", "tp-shock-tube"])
def test_defect_from_column_sums_matches_the_cell_totals(monkeypatch, name):
    """The audit from one column sum per array equals the one that sums
    the audited combinations cell by cell: bitwise for Euler, within
    1e-15 for the two-phase model, on every step of a run."""
    original, step = driver._defect, driver._step
    seen, steps = [], []

    def recording_step(model, u, *args):
        steps.append(u)
        return step(model, u, *args)

    def defect(totals, s0, u1, f, lam):
        value = original(totals, s0, u1, f, lam)
        seen.append((value[0], steps[-1], u1, np.array(f), lam))
        return value

    monkeypatch.setattr(driver, "_step", recording_step)
    monkeypatch.setattr(driver, "_defect", defect)
    driver.run(cases.builtin_case(name))
    assert seen
    for value, u0, u1, f, lam in seen:
        if name.startswith("euler"):
            ref = _defect_from_cell_totals(lambda u: np.sum(u, axis=0),
                                           u0, u1, f, lam)
            assert value == ref
        else:
            ref = _defect_from_cell_totals(_tp_cell_totals, u0, u1, f, lam)
            assert abs(value - ref) <= 1e-15


def _checking_carried_sums(monkeypatch):
    """Make ``_step`` check that the column sums it is handed are a fresh
    reduction of its ``u``, bitwise; returns the list of checked calls."""
    step, checked = driver._step, []

    def checking(model, u, w, sums, *args):
        fresh = np.add.reduce(u, axis=0)
        assert np.array(sums).tobytes() == fresh.tobytes()
        checked.append(len(u))
        return step(model, u, w, sums, *args)

    monkeypatch.setattr(driver, "_step", checking)
    return checked


@pytest.mark.parametrize("name, failing_call", [
    ("euler-shock-tube", None), ("tp-shock-tube", None),
    ("euler-shock-tube", 4)])
def test_carried_column_sums_are_fresh_on_every_step(monkeypatch, name,
                                                     failing_call):
    """The column sums that a step carries over, or that the run takes
    again after the relaxation source and keeps through a rejected
    attempt, equal a fresh reduction of the state, bit for bit."""
    case = cases.builtin_case(name)
    checked = _checking_carried_sums(monkeypatch)
    if failing_call is None:
        m = driver.run(case).manifest
        assert m["dt_rejections"] == 0
        assert case.pressure_relax == (case.model == "two-phase")
    else:
        m = _run_failing_once(monkeypatch, replace(case, n_cells=24),
                              failing_call)[0].manifest
        assert m["dt_rejections"] == 1
    assert len(checked) == m["steps"] + m["dt_rejections"] > 2


@pytest.mark.parametrize("s0, u1, want", [
    ((np.nan, 4.0, 4.0), np.ones((4, 3)), "nan"),
    ((1.0, 1.0, 2.0), np.repeat([[0.0, 0.0, 0.5]], 4, axis=0), "inf"),
    ((0.0, 0.0, 0.0), np.zeros((4, 3)), "nan")])
def test_defect_keeps_a_nan_and_divides_by_zero_as_numpy(s0, u1, want):
    """``_defect`` runs before the recovery's checks: a NaN budget gives
    NaN, and a zero denominator gives numpy's inf or nan, not an
    exception."""
    f = np.zeros((2, 3))
    with np.errstate(all="raise"):
        value, s1 = driver._defect(lambda s: s, list(s0), u1, f.tolist(), 0.1)
    assert s1 == np.add.reduce(u1, axis=0).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = _defect_from_cell_totals(lambda u: np.sum(u, axis=0),
                                       np.array([s0]), u1, f, 0.1)
    assert repr(value) == repr(ref) == want


def _assert_same_run(res, ref):
    """Final state, every snapshot and the manifest but wall_time, bitwise."""
    assert res.final_cons.tobytes() == ref.final_cons.tobytes()
    assert len(res.snapshots) == len(ref.snapshots)
    for (t, w), (t_ref, w_ref) in zip(res.snapshots, ref.snapshots):
        assert t == t_ref and w.tobytes() == w_ref.tobytes()
    skip = {"wall_time"}
    assert ({k: v for k, v in res.manifest.items() if k not in skip}
            == {k: v for k, v in ref.manifest.items() if k not in skip})


def _blocking_cases():
    euler = replace(cases.builtin_case("euler-shock-tube"), n_cells=24,
                    output_times=(1e-4,), end_time=2e-4)
    for solver in cases.EULER_SOLVERS:
        for limiter in ("minmod", "none"):
            for bc in ("transmissive", "reflective", "periodic"):
                yield (f"{solver}-{limiter}-{bc}",
                       replace(euler, solver=solver, limiter=limiter,
                               boundary=bc))
    tp = replace(cases.builtin_case("tp-shock-tube-long"), n_cells=40,
                 output_times=(2e-4,), end_time=4e-4)
    assert tp.pressure_relax
    for solver in cases.TWOPHASE_SOLVERS:
        yield f"tp-{solver}", replace(tp, solver=solver)
    yield ("tp-rsir-tp-clift-gauvin",
           replace(tp, solver="rsir-tp", drag_model="clift-gauvin"))
    # moving fluid at both ends, so that the padded edge pieces of 7-slot
    # states carry non-zero velocity slots 2 and 5 into the ghost cells
    moving = replace(tp, left=(0.2, 1000.0, 20.0, 1e6, 10.0, 30.0, 1e6),
                     right=(0.1, 1000.0, -10.0, 1e5, 1.0, -40.0, 1e5))
    for solver, bc in (("rsir-tp", "reflective"), ("hll-tp", "periodic")):
        yield f"tp-{solver}-{bc}", replace(moving, solver=solver, boundary=bc)
    yield ("air-double-expansion",
           replace(cases.builtin_case("euler-shock-tube"),
                   name="air-double-expansion", limiter="none",
                   left=(0.05, -600.0, 1e4), right=(5.0, 600.0, 2e5),
                   end_time=2e-4))


@pytest.mark.parametrize("case", [pytest.param(c, id=label)
                                  for label, c in _blocking_cases()])
def test_blocked_step_equals_one_block(monkeypatch, case):
    """Blocks of 1, 2, 7 and n - 8 faces give the single-block run bit for
    bit, fallback and clamp counters included.  With n - 8 faces the first
    block ends 8 cells before the mesh end, and the second one pads it."""
    case = case.validate()
    ref = driver.run(case)
    assert case.n_cells + 1 <= driver._BLOCK_FACES
    if case.name == "air-double-expansion":  # each fallback counted once
        assert ref.manifest["positivity_fallbacks"] == 2
    for size in (1, 2, 7, case.n_cells - 8):
        monkeypatch.setattr(driver, "_BLOCK_FACES", size)
        _assert_same_run(driver.run(case), ref)


def _predict_by_slices(model, wg, half_lam):
    """The predictor on 2-D slices of ``wg``, written out as the
    reference of the flat stencil."""
    d = wg[1:] - wg[:-1]
    a, b = d[:-1], d[1:]
    half = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), 0.0))
    half *= 0.5
    wc = wg[1:-1]
    ue, fe = model.edge(np.stack((wc - half, wc + half)), wc, (None, None))
    we = model.to_prim(ue - (fe[1] - fe[0]) * half_lam)
    return we[0], we[1]


@pytest.mark.parametrize("name", ["euler-shock-tube", "tp-shock-tube-long"])
@pytest.mark.parametrize("bc", ["transmissive", "reflective", "periodic"])
@pytest.mark.parametrize("block", [None, 7])
def test_flat_predictor_equals_the_slice_predictor(monkeypatch, name, bc,
                                                   block):
    """``_predict`` equals the predictor on 2-D slices bit for bit, for
    both models and every boundary, on one block and on edge and interior
    blocks of 7 faces."""
    case = replace(cases.builtin_case(name), n_cells=24, boundary=bc,
                   end_time=1e-4, output_times=())
    if case.model == "two-phase":  # moving fluid in the ghost cells
        case = replace(case, left=(0.2, 1000.0, 20.0, 1e6, 10.0, 30.0, 1e6),
                       right=(0.1, 1000.0, -10.0, 1e5, 1.0, -40.0, 1e5))
    if block is not None:
        monkeypatch.setattr(driver, "_BLOCK_FACES", block)
    predict, sizes = driver._predict, []

    def checked(model, wg, half_lam):
        ref = _predict_by_slices(model, wg.copy(), half_lam)
        got = predict(model, wg, half_lam)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, ref))
        sizes.append(len(wg))
        return got

    monkeypatch.setattr(driver, "_predict", checked)
    driver.run(case)
    per_step = [block + 3] * 3 + [7] if block else [case.n_cells + 4]
    assert sizes[:len(per_step)] == per_step


def _run_failing_once(monkeypatch, case, failing_call):
    """Run ``case`` with its interface flux raising EosDomainError on the
    ``failing_call``-th call only."""
    calls = []
    flux_fn = driver._flux_fn

    def failing_flux_fn(case, scratch):
        flux = flux_fn(case, scratch)

        def wrapped(wl, wr):
            calls.append(len(wl))
            if len(calls) == failing_call:
                raise EosDomainError("injected")
            return flux(wl, wr)
        return wrapped

    monkeypatch.setattr(driver, "_flux_fn", failing_flux_fn)
    return driver.run(case), calls


def test_a_failing_block_rejects_the_whole_step(monkeypatch):
    """A block that raises rejects its step after earlier blocks of that
    step finished: the run equals a single-block run whose step raised at
    the same step, and no partial update leaks into the state."""
    case = replace(cases.builtin_case("euler-shock-tube"), solver="rsir",
                   n_cells=24, end_time=2e-4)
    step = 3
    ref, calls = _run_failing_once(monkeypatch, case, step + 1)
    assert ref.manifest["dt_rejections"] == 1
    assert calls[step] == case.n_cells + 1
    monkeypatch.setattr(driver, "_BLOCK_FACES", 7)  # 4 blocks per step
    res, calls = _run_failing_once(monkeypatch, case, 4 * step + 2)
    assert calls[4 * step:4 * step + 2] == [7, 7]
    assert res.manifest["dt_rejections"] == 1
    _assert_same_run(res, ref)


def test_manifest_maxima_keep_a_nan():
    """An unvalidated NaN state gives a NaN audit, not a perfect one."""
    case = cases.builtin_case("euler-shock-tube")
    m = driver.run(replace(case, left=(float("nan"), 0.0, 1e5))).manifest
    assert np.isnan(m["max_conservation_defect"])


@pytest.mark.parametrize("name", ["euler-shock-tube", "water-nasg-shock-tube"])
def test_large_run_holds_four_states_and_one_block(monkeypatch, name):
    """A 2-step rsir run on 2e5 cells needs u, w, the new u and the new w,
    plus one block's temporaries and a few columns: its traced peak stays
    within 5 state arrays and the peak of one full block of faces.  With
    blocks of 2**10 faces, whose temporaries are small, its peak is that of
    the end-of-step recovery (the new w and its column temporaries, measured
    on their own) beside u, w and the new u.  Half a state array of slack
    covers smaller temporaries, so one more whole-mesh array kept anywhere
    in the step (a ghosted copy of w, the face fluxes, the initial
    primitives) shows."""
    case = replace(cases.builtin_case(name), n_cells=200_000, solver="rsir",
                   beta=1.0, output_times=())
    model, _, _, dt, dx = first_step(case, driver._euler_model)
    case = replace(case, end_time=1.5 * dt)
    m = driver._BLOCK_FACES  # faces [0, m) read m + 3 cells
    ends = np.array([case.left, case.right])
    cells = model.to_prim(model.to_cons(np.repeat(ends, [m // 2, m // 2 + 3],
                                                  axis=0)))
    _, block_peak = traced_peak(
        lambda: driver._faces(model, cells, 0.5 * dt / dx, False))
    res, run_peak = traced_peak(lambda: driver.run(case))
    assert res.manifest["steps"] == 2
    state = res.final_cons.nbytes
    assert state == case.n_cells * 3 * 8
    assert run_peak <= 5 * state + block_peak, (run_peak / state,
                                                block_peak / state)
    monkeypatch.setattr(driver, "_BLOCK_FACES", 2 ** 10)
    _, small_block_peak = traced_peak(lambda: driver.run(case))
    _, recovery_peak = traced_peak(lambda: model.to_prim(res.final_cons))
    assert small_block_peak < 3.5 * state + recovery_peak, (
        small_block_peak / state, recovery_peak / state)


@pytest.mark.parametrize("drag", ["none", "clift-gauvin"])
def test_relaxed_run_drops_its_report_before_the_next_step(drag):
    """A 2-step relaxed hll-tp run on 2e5 cells, with or without
    Clift-Gauvin drag, peaks at 4.86 state arrays, below 4.95:

    - once a step succeeds the old u and w are dropped, so relaxation runs
      beside the step's u and w only (keeping them through the sources
      reads 9.75 without drag);
    - ``run`` hands [u, w] to the sources and keeps neither, and the stale
      w goes before drag, so the old state is freed once drag has its copy
      (keeping u and w referenced through the sources reads 7.00 with
      drag);
    - ``run`` drops each RelaxReport once it has read its counters, so the
      report's whole-mesh p_eq (1/7 of a state array) is not alive through
      the next step (5.00 while the report is kept)."""
    assert cases.builtin_case("tp-shock-tube").pressure_relax
    peak = two_step_tp_peak(drag_model=drag)
    assert peak < 4.95, peak


def test_drag_run_copies_the_state_once_per_step():
    """A 2-step hll-tp run on 2e5 cells with Clift-Gauvin drag and no
    pressure relaxation: drag copies the state once and updates the copy
    in place on every sub-step.  Its traced peak (5.43 state arrays) stays
    below 5.75; a new state per sub-step reads 6.29."""
    peak = two_step_tp_peak(drag_model="clift-gauvin", pressure_relax=False)
    assert peak < 5.75, peak


def _recorded_stores(monkeypatch):
    """A list that gets a copy of the run's store after each step."""
    stores = []
    step = driver._step

    def recording(model, *args):
        result = step(model, *args)
        stores.append(None if model.scratch is None else dict(model.scratch))
        return result

    monkeypatch.setattr(driver, "_step", recording)
    return stores


@pytest.mark.parametrize("solver, drag", [
    *((s, "none") for s in cases.TWOPHASE_SOLVERS),
    ("rsir-tp", "clift-gauvin")])
def test_one_block_run_reuses_its_store(monkeypatch, solver, drag):
    """A one-block two-phase run takes the same arrays from its store on
    every step after the first, and its final state and snapshots share
    no memory with them."""
    case = replace(cases.builtin_case("tp-shock-tube-long"), n_cells=200,
                   solver=solver, drag_model=drag, output_times=(2e-4,),
                   end_time=4e-4)
    stores = _recorded_stores(monkeypatch)
    res = driver.run(case)
    assert len(stores) == res.manifest["steps"] > 2
    first = stores[0]
    assert len(first) >= 6
    for store in stores[1:]:
        assert store.keys() == first.keys()
        assert all(store[k] is first[k] for k in first)
    kept = [res.final_cons] + [w for _, w in res.snapshots]
    assert not any(np.shares_memory(x, a)
                   for x in kept for a in first.values())


def test_only_a_one_block_run_keeps_a_store(monkeypatch):
    """A mesh of one block of faces gets a store; a larger one gets none,
    so a multi-block step allocates as before."""
    m = driver._BLOCK_FACES
    for name, make in (("euler-shock-tube", driver._euler_model),
                       ("tp-shock-tube", driver._tp_model)):
        case = cases.builtin_case(name)
        assert make(replace(case, n_cells=m - 1)).scratch == {}
        assert make(replace(case, n_cells=m)).scratch is None
    monkeypatch.setattr(driver, "_BLOCK_FACES", 7)
    stores = _recorded_stores(monkeypatch)
    driver.run(replace(cases.builtin_case("tp-shock-tube"), n_cells=40))
    assert stores and all(store is None for store in stores)


@pytest.mark.xfail(raises=driver.StepError, strict=True,
                   reason="second-order rsir-tp leaves the admissible set "
                          "after 1037 steps (ROADMAP item 1)")
def test_rsir_tp_long_shock_tube_runs_to_its_end():
    """The 2000-cell reference of ``rsir1d compare tp-shock-tube-long``.
    With stiff relaxation and no drag the failure sits at a fixed step
    count on every mesh; the fix of that failure turns this into a pass."""
    case = replace(cases.builtin_case("tp-shock-tube-long"), n_cells=2000,
                   output_times=())
    res = driver.run(case)
    assert res.snapshots[-1][0] == case.end_time


_ODD_EVEN = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the two-phase HLL fan's left bound sits on the dispersed phase, "
           "so its phase-1 slots carry an odd-even mode (ROADMAP item 1)")


@pytest.mark.parametrize("solver", [
    "rusanov-basic", "rusanov-local", pytest.param("hll-tp", marks=_ODD_EVEN),
    pytest.param("rsir-tp", marks=_ODD_EVEN)])
def test_first_order_tp_shock_tube_has_no_odd_even_mode(solver):
    """First-order tp-shock-tube at 1000 cells, at its end time: the
    odd-even amplitude of alpha1 stays within 1e-3.  Rusanov reads 1.6e-6;
    hll-tp reads 5.6e-2 and rsir-tp 1.1e-1 until ROADMAP item 1 is done.
    That item may tighten this bound but not loosen it."""
    case = replace(cases.builtin_case("tp-shock-tube"), solver=solver,
                   limiter="none", n_cells=1000)
    res = driver.run(case)
    assert res.snapshots[-1][0] == case.end_time
    amplitude = odd_even_amplitude(res.snapshots[-1][1][:, 0])
    assert amplitude <= 1e-3, amplitude
