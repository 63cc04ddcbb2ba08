import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from rsir1d import cases
from rsir1d import eos as _eos
from rsir1d import exact_riemann as ex
from conftest import random_euler_states
from probes import residual

AIR = _eos.preset("air-ideal")
WATER = _eos.preset("water-sg")
G14 = _eos.EosParams(gamma=1.4)
FLIP = np.array([1.0, -1.0, 1.0])  # mirrors a state: u -> -u


def test_sod_star_values():
    """Classic nondimensional shock tube; star values from the standard
    tabulation of the iterative solution."""
    sol = ex.solve_exact([1.0, 0.0, 1.0], [0.125, 0.0, 0.1], G14)
    assert sol.p_star == pytest.approx(0.30313, abs=2e-5)
    assert sol.u_star == pytest.approx(0.92745, abs=2e-5)
    assert sol.rho_star_l == pytest.approx(0.42632, abs=2e-5)
    assert sol.rho_star_r == pytest.approx(0.26557, abs=2e-5)
    assert sol.wave_l == "rarefaction" and sol.wave_r == "shock"


def test_two_shock_and_two_rarefaction_structure():
    sol = ex.solve_exact([1.0, 300.0, 1e5], [1.0, -300.0, 1e5], G14)
    assert sol.wave_l == "shock" and sol.wave_r == "shock"
    assert sol.u_star == pytest.approx(0.0, abs=1e-9)
    assert sol.p_star > 1e5
    sol = ex.solve_exact([1.0, -300.0, 1e5], [1.0, 300.0, 1e5], G14)
    assert sol.wave_l == "rarefaction" and sol.wave_r == "rarefaction"
    assert sol.p_star < 1e5


def test_residual_is_tiny(rng):
    wl, wr = random_euler_states(rng, 1, AIR, mach_max=1.0)
    sol = ex.solve_exact(wl[0], wr[0], AIR)
    assert sol.residual <= 1e-10 * max(wl[0, 2], wr[0, 2], 1.0)


def test_random_pairs_satisfy_jump_conditions(rng):
    """p*, u* from the solver satisfy both side relations: u* computed
    from the left wave equals u* computed from the right wave."""
    wl, wr = random_euler_states(rng, 50, AIR, mach_max=1.5)
    for a, b in zip(wl, wr):
        try:
            sol = ex.solve_exact(a, b, AIR)
        except ex.VacuumError:
            continue
        fl, _ = ex._side_function(sol.p_star, a, AIR)
        fr, _ = ex._side_function(sol.p_star, b, AIR)
        u_from_l = a[1] - fl
        u_from_r = b[1] + fr
        assert u_from_l == pytest.approx(u_from_r, abs=1e-6 * (abs(sol.u_star) + 1.0))


@pytest.mark.parametrize("name", ["euler-contact-rest",
                                  "euler-contact-transport"])
def test_contact_has_the_data_pressure_exactly(name):
    """Equal pressures and velocities: p* is the data pressure and u* the
    data velocity, to the last bit."""
    case = cases.builtin_case(name)
    sol = ex.solve_exact(case.left, case.right, case.eos1)
    assert sol.p_star == case.left[2] == 1e5
    assert sol.u_star == case.left[1]


def test_sg_reduces_to_shifted_ideal():
    """A SG problem maps onto an ideal-gas problem in pi = p + p_inf with
    identical densities and velocities."""
    pinf = 2.0e5
    sg = _eos.EosParams(gamma=1.4, p_inf=pinf)
    wl = np.array([1.0, 0.0, 3.0e5])
    wr = np.array([0.5, 0.0, 1.0e5])
    sol_sg = ex.solve_exact(wl, wr, sg)
    wl_i = wl.copy(); wl_i[2] += pinf
    wr_i = wr.copy(); wr_i[2] += pinf
    sol_i = ex.solve_exact(wl_i, wr_i, G14)
    assert sol_sg.p_star + pinf == pytest.approx(sol_i.p_star, rel=1e-10)
    assert sol_sg.u_star == pytest.approx(sol_i.u_star, rel=1e-10, abs=1e-10)
    assert sol_sg.rho_star_l == pytest.approx(sol_i.rho_star_l, rel=1e-10)


def test_water_shock_tube_solves():
    sol = ex.solve_exact([1200.0, 0.0, 1e9], [1000.0, 0.0, 1e5], WATER)
    assert 1e5 < sol.p_star < 1e9
    assert sol.u_star > 0.0


def test_vacuum_raises():
    with pytest.raises(ex.VacuumError):
        ex.solve_exact([1.0, -3000.0, 1e5], [1.0, 3000.0, 1e5], G14)


def test_covolume_rejected():
    nasg = _eos.preset("water-nasg")
    with pytest.raises(ValueError):
        ex.solve_exact([1000.0, 0.0, 1e5], [900.0, 0.0, 1e4], nasg)


def test_sample_limits_and_star_region():
    sol = ex.solve_exact([1.0, 0.0, 1.0], [0.125, 0.0, 0.1], G14)
    w = ex.sample(sol, np.array([-10.0, 10.0]))
    assert np.allclose(w[0], [1.0, 0.0, 1.0])
    assert np.allclose(w[1], [0.125, 0.0, 0.1])
    # just left / right of the contact
    eps = 1e-9
    w = ex.sample(sol, np.array([sol.u_star - eps, sol.u_star + eps]))
    assert w[0, 0] == pytest.approx(sol.rho_star_l, rel=1e-9)
    assert w[1, 0] == pytest.approx(sol.rho_star_r, rel=1e-9)
    assert np.allclose(w[:, 2], sol.p_star, rtol=1e-12)


def test_sample_rarefaction_is_continuous():
    sol = ex.solve_exact([1.0, 0.0, 1.0], [0.125, 0.0, 0.1], G14)
    c_l = float(_eos.sound_speed(G14, 1.0, 1.0))
    xi = np.linspace(-c_l - 0.1, sol.u_star - 1e-6, 500)
    w = ex.sample(sol, xi)
    # no jumps anywhere across the fan
    assert np.max(np.abs(np.diff(w[:, 0]))) < 5e-3
    # entropy is constant through the rarefaction
    s = _eos.entropy(G14, w[:, 0], w[:, 2])
    assert np.ptp(s) < 1e-10


def test_l1_error_zero_for_exact_field():
    sol = ex.solve_exact([1.0, 0.0, 1.0], [0.125, 0.0, 0.1], G14)
    x = np.linspace(0.005, 0.995, 100)
    t = 0.2
    w = ex.sample(sol, (x - 0.5) / t)
    assert ex.l1_error(w, sol, t, x, x0=0.5) == 0.0
    assert ex.l1_error(w[:, 0], sol, t, x, x0=0.5, component=0) == 0.0


def _wave_bounds(sol):
    """Heads and tails of both waves, by the oracle's own formulas."""
    eos, g = sol.eos, sol.eos.gamma
    out = []
    for s, w, rho_star, wave in ((1.0, sol.wl, sol.rho_star_l, sol.wave_l),
                                 (-1.0, sol.wr, sol.rho_star_r, sol.wave_r)):
        c = float(_eos.sound_speed(eos, w[0], w[2]))
        if wave == "shock":
            out.append(w[1] - s * c * np.sqrt(
                (g + 1.0) / (2.0 * g) * (sol.p_star + eos.p_inf)
                / (w[2] + eos.p_inf) + (g - 1.0) / (2.0 * g)))
        else:
            c_star = float(_eos.sound_speed(eos, rho_star, sol.p_star))
            out += [w[1] - s * c, sol.u_star - s * c_star]
    return out


@st.composite
def _problems(draw):
    """(eos, wl, wr) over the ranges of ``conftest.random_euler_states``
    for air and water-SG, with |u| <= 3 c."""
    eos = _eos.preset(draw(st.sampled_from(["air-ideal", "water-sg"])))

    def state():
        r, q, m = (draw(st.floats(0.0, 1.0)) for _ in range(3))
        if eos.p_inf > 0.0:
            rho, p = 800.0 + 500.0 * r, 10.0 ** (4.0 + 5.0 * q)
        else:
            rho, p = 10.0 ** (-1.5 + 2.5 * r), 10.0 ** (3.0 + 3.5 * q)
        c = float(_eos.sound_speed(eos, rho, p))
        return np.array([rho, 3.0 * (2.0 * m - 1.0) * c, p])
    return eos, state(), state()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_problems())
def test_mirrored_problem_gives_the_mirrored_solution(problem):
    """Swapping the sides and negating u gives the same p*, swapped star
    densities and waves, -u*, and the mirrored samples at -xi, bit for
    bit. The one exception is xi = u*, which lies in the right star state
    of both problems."""
    eos, wl, wr = problem
    try:
        sol = ex.solve_exact(wl, wr, eos)
    except ex.VacuumError:
        reject()
    mir = ex.solve_exact(FLIP * wr, FLIP * wl, eos)
    assert mir.p_star == sol.p_star and mir.u_star == -sol.u_star
    assert (mir.rho_star_l, mir.rho_star_r) == (sol.rho_star_r,
                                                sol.rho_star_l)
    assert (mir.wave_l, mir.wave_r) == (sol.wave_r, sol.wave_l)
    assert (mir.residual, mir.iterations) == (sol.residual, sol.iterations)

    bounds = [sol.u_star, 0.0, -0.0, *_wave_bounds(sol)]
    span = max(abs(b) for b in bounds) + 1.0
    xi = np.concatenate([np.linspace(-2.0 * span, 2.0 * span, 401), bounds,
                         np.nextafter(bounds, -np.inf),
                         np.nextafter(bounds, np.inf)])
    got, want = ex.sample(mir, -xi), FLIP * ex.sample(sol, xi)
    contact = xi == sol.u_star
    assert np.array_equal(got[~contact], want[~contact])
    assert (got[contact] == FLIP * [sol.rho_star_l, sol.u_star,
                                    sol.p_star]).all()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_problems())
def test_p_star_is_the_float_where_the_residual_changes_sign(problem):
    """p* has a residual >= 0 and the float below it one <= 0, so no
    float is closer to the root."""
    eos, wl, wr = problem
    try:
        sol = ex.solve_exact(wl, wr, eos)
    except ex.VacuumError:
        reject()
    assert (residual(np.nextafter(sol.p_star, -np.inf), sol) <= 0.0
            <= residual(sol.p_star, sol))
    assert sol.residual == abs(residual(sol.p_star, sol))
