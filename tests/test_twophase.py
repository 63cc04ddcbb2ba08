import numpy as np
import pytest

from rsir1d import eos as _eos
from rsir1d import twophase as tp
from rsir1d.euler import PositivityError
from conftest import random_twophase_states

WATER = _eos.preset("water-sg")
AIR = _eos.preset("air-ideal")


def test_cons_prim_roundtrip(rng):
    wl, _ = random_twophase_states(rng, 300, WATER, AIR)
    uc = tp.tp_cons_from_prim(wl, WATER, AIR)
    w2 = tp.tp_prim_from_cons(uc, WATER, AIR)
    assert np.allclose(w2[..., 0], wl[..., 0], rtol=1e-13)
    assert np.allclose(w2[..., [1, 4]], wl[..., [1, 4]], rtol=1e-12)
    # pressure errors scale with p + gamma p_inf
    assert np.all(np.abs(w2[..., 3] - wl[..., 3])
                  <= 1e-9 * (wl[..., 3] + WATER.gamma * WATER.p_inf))
    assert np.allclose(w2[..., 6], wl[..., 6], rtol=1e-9)


def test_alpha_bounds_enforced():
    w = np.array([1.2, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5])
    with pytest.raises(PositivityError):
        tp.tp_cons_from_prim(w, WATER, AIR)


def test_alpha_clamp_counted():
    uc = tp.tp_cons_from_prim(
        np.array([0.5, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5]), WATER, AIR)
    uc[0] = 1e-12  # push below the floor
    assert tp.alpha_clamps(uc) == 1
    assert tp.tp_prim_from_cons(uc, WATER, AIR)[0] == tp.ALPHA_FLOOR
    assert tp.alpha_clamps(np.stack([uc, uc, uc])) == 3


def test_interfacial_pressure_upwind_rule():
    wl = np.array([0.8, 1000.0, 0.0, 2e5, 1.0, 0.0, 1e5])
    wr = np.array([0.2, 1000.0, 0.0, 3e5, 1.0, 0.0, 1e5])
    assert tp.interfacial_pressure(wl, wr) == 2e5   # phase 1 lives on the left
    assert tp.interfacial_pressure(wr, wl) == 2e5   # and on the right here
    wr2 = wr.copy(); wr2[0] = 0.8
    assert tp.interfacial_pressure(wl, wr2) == 2.5e5  # tie: average


def test_local_flux_reduces_to_phys_flux():
    """Adding the frozen-p_i corrections to the local-conservative flux
    recovers the flux of the plain formulation, the local flux at p_i = 0."""
    w = np.array([0.3, 1000.0, 10.0, 2e5, 1.0, 20.0, 1e5])
    p_i = 2e5
    _, phi = tp.tp_cons_and_local_flux(w, p_i, WATER, AIR)
    f = tp.tp_cons_and_local_flux(w, 0.0, WATER, AIR)[1]
    a1, a2 = 0.3, 0.7
    assert phi[2] + p_i * a1 == pytest.approx(f[2], rel=1e-13)
    assert phi[3] + p_i * phi[0] == pytest.approx(f[3], rel=1e-13)
    assert phi[5] + p_i * a2 == pytest.approx(f[5], rel=1e-13)
    assert phi[6] - p_i * phi[0] == pytest.approx(f[6], rel=1e-13)
    assert np.allclose(tp._f_from_phi(phi.copy(), p_i, a1), f, rtol=1e-13)
    # alpha2 = 1 - alpha1 has the flux -phi[0], so by saturation the
    # corrections cancel in the mixture energy and add up to p_i in the
    # mixture momentum
    assert phi[3] + phi[6] == pytest.approx(f[3] + f[6], rel=1e-13)
    assert phi[2] + phi[5] + p_i == pytest.approx(f[2] + f[5], rel=1e-13)


def test_wave_bounds_contain_eigenvalues(rng):
    wl, wr = random_twophase_states(rng, 200, WATER, AIR)
    fan = tp.rusanov_basic_flux(wl, wr, WATER, AIR)
    s_l, s_r = fan.s_l, fan.s_r
    for w in (wl, wr):
        c2 = _eos.sound_speed(AIR, w[..., 4], w[..., 6])
        for lam in (w[..., 2], w[..., 5] - c2, w[..., 5] + c2):
            assert np.all(s_l <= lam + 1e-9)
            assert np.all(lam <= s_r + 1e-9)


def test_star_states_recombine_to_hll(rng):
    wl, wr = random_twophase_states(rng, 200, WATER, AIR, slip=0.1)
    w, _, _, fan = tp._tp_fan_common(wl, wr, WATER, AIR)
    assert np.array_equal(w[0], wl) and np.array_equal(w[1], wr)
    u_hll, s_l, s_m1, s_r = fan.u_hll, fan.s_l, fan.s_m, fan.s_r
    assert fan.u_star_r is u_hll and u_hll.shape == wl.shape
    u_star_l, u_star_r, bad = tp.rsir_reconstruct(fan, wl, wr, 1.0,
                                                  WATER, AIR)
    om_l = ((s_m1 - s_l) / (s_r - s_l))[..., None]
    om_r = ((s_r - s_m1) / (s_r - s_l))[..., None]
    rec = om_r * u_star_r + om_l * u_star_l
    scale = np.maximum(np.abs(u_hll), 1.0)
    assert np.all(np.abs(rec - u_hll) <= 1e-9 * scale)


def test_psi_vanishes_at_beta_zero(rng):
    wl, wr = random_twophase_states(rng, 50, WATER, AIR)
    _, _, _, fan = tp._tp_fan_common(wl, wr, WATER, AIR)
    u_hll, s_l, s_m1, s_r = fan.u_hll, fan.s_l, fan.s_m, fan.s_r
    om_l = (s_m1 - s_l) / (s_r - s_l)
    om_r = (s_r - s_m1) / (s_r - s_l)
    psi = tp._tp_psi(fan, wl, wr, om_l, om_r, 0.0, WATER, AIR)
    assert psi.shape == u_hll.shape and np.all(psi == 0.0)
    # so both star states, their phase-1 energies included, are U_HLL
    u_star_l, u_star_r, _ = tp.rsir_reconstruct(fan, wl, wr, 0.0, WATER, AIR)
    for star in (u_star_l, u_star_r):
        assert np.array_equal(star, u_hll)


def test_mechanical_equilibrium_flux_is_exact():
    """Uniform p and u with an alpha jump: the interface flux must be the
    exact transported flux (no pressure or velocity perturbation)."""
    wl = np.array([[0.8, 1000.0, 100.0, 1e5, 1.0, 100.0, 1e5]])
    wr = np.array([[0.2, 1000.0, 100.0, 1e5, 1.0, 100.0, 1e5]])
    rec = tp.rsir_tp_flux(wl, wr, WATER, AIR, 1.0)
    f_exact = tp.tp_cons_and_local_flux(wl, 0.0, WATER, AIR)[1]  # u > 0 side
    # the phase momentum slots carry the p_i alpha_face split that the
    # non-conservative cell terms balance; everything else is exact, and
    # so is the mixture momentum flux
    assert np.allclose(rec.flux[..., [0, 1, 3, 4, 6]],
                       f_exact[..., [0, 1, 3, 4, 6]], rtol=1e-9)
    assert np.allclose(rec.flux[..., 2] + rec.flux[..., 5],
                       f_exact[..., 2] + f_exact[..., 5], rtol=1e-12)
    # and the momentum correction is consistent with the face alpha
    assert np.allclose(rec.flux[..., 2] + rec.p_i * (wl[..., 0] - rec.alpha_face),
                       f_exact[..., 2], rtol=1e-9)
    assert rec.n_fallback == 0


def test_supersonic_upwinding():
    """Both phases at +-900 m/s, so S_L >= 0 or S_R <= 0: the HLL-family
    fluxes return the upwind state's F-flux, alpha1 and alpha1 u1
    bitwise."""
    for ul, ur in ((900.0, 880.0), (-900.0, -880.0)):
        wl = np.array([[0.3, 1000.0, ul, 1e5, 1.0, ul, 1e5]])
        wr = np.array([[0.2, 1000.0, ur, 1.1e5, 0.9, ur, 1.1e5]])
        fan = tp.rusanov_basic_flux(wl, wr, WATER, AIR)
        s_l, s_r = fan.s_l, fan.s_r
        assert s_l[0] >= 0.0 if ul > 0.0 else s_r[0] <= 0.0
        w = wl if ul > 0.0 else wr
        for rec in (tp.tp_hll_flux(wl, wr, WATER, AIR),
                    tp.rsir_tp_flux(wl, wr, WATER, AIR, 1.0)):
            assert np.array_equal(
                rec.flux, tp.tp_cons_and_local_flux(w, 0.0, WATER, AIR)[1])
            assert np.array_equal(rec.alpha_face, w[..., 0])
            assert np.array_equal(rec.phi_alpha_face, w[..., 0] * w[..., 2])


def test_fallback_counted_on_inadmissible_reconstruction():
    """A huge alpha contrast with tiny apparent densities forces the
    per-interface fallback to the single-state solver."""
    wl = np.array([[0.97, 1000.0, 5.0, 1e5, 1.0, 400.0, 1e5]])
    wr = np.array([[0.03, 1000.0, -5.0, 4e6, 30.0, -400.0, 4e6]])
    rec1 = tp.rsir_tp_flux(wl, wr, WATER, AIR, 1.0)
    rec0 = tp.tp_hll_flux(wl, wr, WATER, AIR)
    if rec1.n_fallback:
        assert np.allclose(rec1.flux, rec0.flux)


def test_invalid_beta_raises():
    w = np.array([0.5, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e5])
    with pytest.raises(ValueError):
        tp.rsir_tp_flux(w, w, WATER, AIR, 2.0)


@pytest.mark.parametrize("batch", [(), (2,)])
def test_cons_and_local_flux_is_component_major(rng, batch):
    """The conserved state and local flux of component-major (n, 7) and
    (2, n, 7) primitives: the conserved state is tp_cons_from_prim's and
    each component of both is one contiguous block."""
    n = 64
    states = np.stack([random_twophase_states(rng, n, WATER, AIR)[0]
                       for _ in range(2)])
    w = np.moveaxis(np.empty((7,) + batch + (n,)), 0, -1)
    w[...] = states if batch else states[0]
    p_i = w[..., 3] * rng.uniform(0.5, 2.0, size=w.shape[:-1])
    uc, phi = tp.tp_cons_and_local_flux(w, p_i, WATER, AIR)
    assert uc.shape == phi.shape == batch + (n, 7)
    assert np.array_equal(uc, tp.tp_cons_from_prim(w, WATER, AIR))
    for j in range(7):
        assert uc[..., j].flags.c_contiguous
        assert phi[..., j].flags.c_contiguous


FLUXES = {
    "rusanov-basic": lambda wl, wr, **kw: tp.rusanov_basic_flux(
        wl, wr, WATER, AIR, **kw),
    "rusanov-local": lambda wl, wr, **kw: tp.rusanov_local_flux(
        wl, wr, WATER, AIR, **kw),
    "hll-tp": lambda wl, wr, **kw: tp.tp_hll_flux(wl, wr, WATER, AIR, **kw),
    "rsir-tp": lambda wl, wr, **kw: tp.rsir_tp_flux(wl, wr, WATER, AIR, 1.0,
                                                    **kw),
}


@pytest.mark.parametrize("name", sorted(FLUXES))
def test_flux_arrays_are_new_unless_a_store_is_given(rng, name):
    """Without a store two calls return arrays that share no memory; with
    one, the record is the same bit for bit and a second call reuses the
    store's arrays."""
    wl, wr = random_twophase_states(rng, 50, WATER, AIR)
    flux = FLUXES[name]

    def arrays(rec):
        return [a for a in vars(rec).values() if isinstance(a, np.ndarray)]

    first, second = flux(wl, wr), flux(wl, wr)
    assert not any(np.shares_memory(a, b)
                   for a in arrays(first) for b in arrays(second))
    store = {}
    stored = flux(wl, wr, scratch=store)
    for a, b in zip(arrays(first), arrays(stored)):
        assert np.array_equal(a, b)
    kept = dict(store)
    flux(wl, wr, scratch=store)
    assert store.keys() == kept.keys()
    assert all(store[k] is kept[k] for k in kept)
