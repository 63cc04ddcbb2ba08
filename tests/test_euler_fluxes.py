import numpy as np
import pytest

from rsir1d import eos as _eos
from rsir1d import euler
from conftest import random_euler_states

AIR = _eos.preset("air-ideal")
WATER = _eos.preset("water-sg")
NASG = _eos.preset("water-nasg")


def test_cons_prim_roundtrip(rng):
    for par in (AIR, WATER, NASG):
        wl, _ = random_euler_states(rng, 300, par)
        uc = euler.cons_from_prim(wl, par)
        w2 = euler.prim_from_cons(uc, par)
        assert np.allclose(w2[..., 0], wl[..., 0], rtol=1e-12)
        c = _eos.sound_speed(par, wl[..., 0], wl[..., 2])
        assert np.all(np.abs(w2[..., 1] - wl[..., 1]) <= 1e-10 * c)
        # pressure error scales with p + gamma p_inf for stiffened fluids
        assert np.all(np.abs(w2[..., 2] - wl[..., 2])
                      <= 1e-10 * (wl[..., 2] + par.gamma * par.p_inf))


def test_physical_flux_values():
    # rho=2, u=3, p=10, ideal gamma=1.4: e=12.5, E=2*(12.5+4.5)=34
    g = _eos.EosParams(gamma=1.4)
    f = euler.cons_and_flux(np.array([2.0, 3.0, 10.0]), g)[1]
    assert np.allclose(f, [6.0, 28.0, (34.0 + 10.0) * 3.0], rtol=1e-14)


def test_davis_signed_speeds():
    wl = np.array([1.0, 500.0, 1e5])
    wr = np.array([1.0, 480.0, 1e5])
    fan = euler.rusanov_flux(wl, wr, AIR)
    s_l, s_r = fan.s_l, fan.s_r
    c = float(_eos.sound_speed(AIR, 1.0, 1e5))
    assert s_l == pytest.approx(480.0 - c)
    assert s_r == pytest.approx(500.0 + c)
    assert s_l > 0.0  # supersonic to the right: signed form keeps S_L > 0


def test_hll_state_consistency(rng):
    """The HLL state satisfies the integral relation over the fan."""
    wl, wr = random_euler_states(rng, 200, AIR)
    fan = euler.rusanov_flux(wl, wr, AIR)
    s_l, s_r = fan.s_l, fan.s_r
    ul, fl = euler.cons_and_flux(wl, AIR)
    ur, fr = euler.cons_and_flux(wr, AIR)
    u_hll = euler.hll_state(ul, ur, fl, fr, s_l, s_r)
    lhs = (s_r - s_l)[..., None] * u_hll
    rhs = s_r[..., None] * ur - s_l[..., None] * ul - (fr - fl)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-8)


def test_star_states_recombine_to_hll(rng):
    """omega_R U_R* + omega_L U_L* equals the HLL state for every member
    of the reconstruction family."""
    wl, wr = random_euler_states(rng, 300, AIR)
    fan = euler.rusanov_flux(wl, wr, AIR)
    s_l, s_r = fan.s_l, fan.s_r
    ul, fl = euler.cons_and_flux(wl, AIR)
    ur, fr = euler.cons_and_flux(wr, AIR)
    u_hll = euler.hll_state(ul, ur, fl, fr, s_l, s_r)
    for beta in (0.0, 0.3, 1.0):
        fan = euler.rsir_flux(wl, wr, AIR, beta)
        om_l = (fan.s_m - fan.s_l) / (fan.s_r - fan.s_l)
        om_r = (fan.s_r - fan.s_m) / (fan.s_r - fan.s_l)
        rec = om_r[..., None] * fan.u_star_r + om_l[..., None] * fan.u_star_l
        assert np.allclose(rec, u_hll, rtol=1e-10, atol=1e-7)


def test_contact_preservation_rsir_and_hllc():
    """Pure contact: flux must be the exact contact flux."""
    wl = np.array([[1.0, 100.0, 1e5]])
    wr = np.array([[0.125, 100.0, 1e5]])
    for flux in (euler.rsir_flux(wl, wr, AIR, 1.0).flux,
                 euler.hllc_flux(wl, wr, AIR).flux):
        # exact solution: contact moving at u=100; the interface flux
        # upwinds the left state
        f_exact = euler.cons_and_flux(wl, AIR)[1]
        assert np.allclose(flux, f_exact, rtol=1e-11, atol=1e-8)


def test_stationary_contact_zero_mass_flux():
    wl = np.array([[1.0, 0.0, 1e5]])
    wr = np.array([[0.125, 0.0, 1e5]])
    fan = euler.rsir_flux(wl, wr, AIR, 1.0)
    assert abs(fan.flux[0, 0]) < 1e-10
    assert fan.flux[0, 1] == pytest.approx(1e5, rel=1e-12)
    assert abs(fan.flux[0, 2]) < 1e-5
    # Linde with beta < 1 loses this property
    f_linde = euler.linde_flux(wl, wr, AIR, 0.5).flux
    assert abs(f_linde[0, 0]) > 1e-3


def test_rsir_mass_dissipation_monotone_in_beta():
    """Star mass-density contrast grows linearly with beta, so smearing
    of the contact decreases monotonically."""
    wl = np.array([[1.0, 50.0, 1.4e5]])
    wr = np.array([[0.5, 30.0, 0.9e5]])
    jumps = []
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        fan = euler.rsir_flux(wl, wr, AIR, beta)
        jumps.append(float(fan.u_star_r[0, 0] - fan.u_star_l[0, 0]))
    diffs = np.diff(jumps)
    assert np.all(np.sign(diffs) == np.sign(diffs[0]))
    # and the growth is exactly linear in beta
    assert np.allclose(np.diff(jumps), jumps[-1] / 4.0, rtol=1e-9)


def test_rsir_energy_jump_is_the_eos_at_the_contact_pressure(rng):
    """The energy jump of the star states is rho_R* e(rho_R*, p*) -
    rho_L* e(rho_L*, p*) + S_M^2/2 (rho_R* - rho_L*), with p* the average
    of the per-side estimates p_k + c_k^2 (rho_k* - rho_k)."""
    for par in (WATER, NASG):
        wl, wr = random_euler_states(rng, 2000, par)
        fan = euler.rsir_flux(wl, wr, par, 1.0)
        rho_l, rho_r = fan.u_star_l[:, 0], fan.u_star_r[:, 0]
        cl2 = _eos.sound_speed(par, wl[:, 0], wl[:, 2]) ** 2
        cr2 = _eos.sound_speed(par, wr[:, 0], wr[:, 2]) ** 2
        p_star = 0.5 * (wl[:, 2] + cl2 * (rho_l - wl[:, 0])
                        + wr[:, 2] + cr2 * (rho_r - wr[:, 0]))
        want = (rho_r * _eos.internal_energy(par, rho_r, p_star)
                - rho_l * _eos.internal_energy(par, rho_l, p_star)
                + 0.5 * fan.s_m * fan.s_m * (rho_r - rho_l))
        got = fan.u_star_r[:, 2] - fan.u_star_l[:, 2]
        scale = np.maximum(np.abs(fan.u_star_l[:, 2]),
                           np.abs(fan.u_star_r[:, 2]))
        assert np.all(np.abs(got - want) <= 1e-10 * scale)


def test_rsir_general_contact_preservation_nasg():
    wl = np.array([[1000.0, 100.0, 1e5]])
    wr = np.array([[1200.0, 100.0, 1e5]])
    f = euler.rsir_flux(wl, wr, NASG, 1.0).flux
    f_exact = euler.cons_and_flux(wl, NASG)[1]
    assert np.allclose(f, f_exact, rtol=1e-9, atol=1e-4)


def test_supersonic_upwinding():
    """Fully supersonic fans, right-moving (S_L >= 0) or left-moving
    (S_R <= 0), return the pure upwind flux for every solver."""
    for ul, ur in ((900.0, 880.0), (-900.0, -880.0)):
        wl = np.array([[1.0, ul, 1e5]])
        wr = np.array([[0.9, ur, 1.1e5]])
        fan = euler.rusanov_flux(wl, wr, AIR)
        s_l, s_r = fan.s_l, fan.s_r
        assert s_l[0] >= 0.0 if ul > 0.0 else s_r[0] <= 0.0
        f_ref = euler.cons_and_flux(wl if ul > 0.0 else wr, AIR)[1]
        for f in (euler.hll_flux(wl, wr, AIR).flux,
                  euler.hllc_flux(wl, wr, AIR).flux,
                  euler.rsir_flux(wl, wr, AIR, 1.0).flux,
                  euler.linde_flux(wl, wr, AIR, 1.0).flux):
            assert np.array_equal(f, f_ref)


def test_invalid_beta_raises():
    w = np.array([1.0, 0.0, 1e5])
    with pytest.raises(ValueError):
        euler.rsir_flux(w, w, AIR, 1.5)
    with pytest.raises(ValueError):
        euler.linde_flux(w, w, AIR, -0.1)


def test_degenerate_fan_raises():
    w = np.array([1.0, 0.0, 1e5])
    with pytest.raises(euler.DegenerateFanError):
        euler.hll_state(w, w, w, w, 1.0, 1.0)
