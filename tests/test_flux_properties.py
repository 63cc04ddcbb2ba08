"""Property tests of the Euler interface fluxes, with states drawn by
hypothesis over the ranges of ``conftest.random_euler_states``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rsir1d import eos as _eos
from rsir1d import euler

EOS = {"air-ideal": _eos.preset("air-ideal"),
       "water-sg": _eos.preset("water-sg")}
MACH_MAX = 2.0

# deterministic, so that the suite gives the same verdict on every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

FLUXES = {
    "rusanov": lambda wl, wr, eos: euler.rusanov_flux(wl, wr, eos),
    "hll": lambda wl, wr, eos: euler.hll_flux(wl, wr, eos).flux,
    "hllc": lambda wl, wr, eos: euler.hllc_flux(wl, wr, eos).flux,
    "linde": lambda wl, wr, eos: euler.linde_flux(wl, wr, eos, 1.0).flux,
    "rsir": lambda wl, wr, eos: euler.rsir_flux(wl, wr, eos, 1.0).flux,
}


def _states(draw, eos, n):
    """n admissible primitive states: log-uniform density and pressure
    (uniform density for stiffened water), |u| <= MACH_MAX c."""
    def unit():
        return np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                      max_size=n)))
    if eos.p_inf > 0.0:
        rho = 800.0 + 500.0 * unit()
        p = 10.0 ** (4.0 + 5.0 * unit())
    else:
        rho = 10.0 ** (-1.5 + 2.5 * unit())
        p = 10.0 ** (3.0 + 3.5 * unit())
    u = MACH_MAX * (2.0 * unit() - 1.0) * _eos.sound_speed(eos, rho, p)
    return np.stack([rho, u, p], axis=-1)


@st.composite
def state_pairs(draw):
    """(eos, wl, wr) with 1 to 16 interfaces for air or water-SG."""
    eos = EOS[draw(st.sampled_from(sorted(EOS)))]
    n = draw(st.integers(1, 16))
    return eos, _states(draw, eos, n), _states(draw, eos, n)


@PROPERTY
@given(state_pairs())
def test_every_flux_is_consistent(drawn):
    """F(w, w) = f(w): equal states give the physical flux."""
    eos, w, _ = drawn
    uc, f = euler.cons_and_flux(w, eos)
    assert np.array_equal(f, euler.physical_flux(w, eos))
    assert np.array_equal(uc, euler.cons_from_prim(w, eos))
    # rounding scale of a fan sum: |f| + (|u| + c) |U|
    speed = np.abs(w[:, 1]) + _eos.sound_speed(eos, w[:, 0], w[:, 2])
    scale = np.abs(f) + speed[:, None] * np.abs(uc)
    for name, flux in FLUXES.items():
        err = np.abs(flux(w, w, eos) - f)
        assert np.all(err <= 1e-12 * scale), name


@PROPERTY
@given(state_pairs())
def test_rsir_at_beta_zero_is_hll_bitwise(drawn):
    eos, wl, wr = drawn
    fan = euler.rsir_flux(wl, wr, eos, 0.0)
    hll = euler.hll_flux(wl, wr, eos)
    assert np.array_equal(fan.flux, hll.flux)
    assert np.array_equal(fan.u_star_l, hll.u_star_l)
    assert np.array_equal(fan.u_star_r, hll.u_star_r)
