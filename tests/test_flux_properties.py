"""Property tests of the interface fluxes, with states drawn by
hypothesis over the ranges of ``conftest.random_euler_states`` and
``conftest.random_twophase_states``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsir1d import cases, driver, euler, twophase
from rsir1d import eos as _eos
from conftest import random_euler_states, random_twophase_states

EOS = {"air-ideal": _eos.preset("air-ideal"),
       "water-sg": _eos.preset("water-sg"),
       "water-nasg": _eos.preset("water-nasg")}
MACH_MAX = 2.0

# deterministic, so that the suite gives the same verdict on every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

# the Euler interface solvers, each returning an ``euler.Fan``
FLUXES = {
    "rusanov": lambda wl, wr, eos: euler.rusanov_flux(wl, wr, eos),
    "hll": lambda wl, wr, eos: euler.hll_flux(wl, wr, eos),
    "hllc": lambda wl, wr, eos: euler.hllc_flux(wl, wr, eos),
    "linde": lambda wl, wr, eos: euler.linde_flux(wl, wr, eos, 1.0),
    "rsir": lambda wl, wr, eos: euler.rsir_flux(wl, wr, eos, 1.0),
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
    """(eos, wl, wr) with 1 to 16 interfaces for air, water-SG or
    water-NASG."""
    eos = EOS[draw(st.sampled_from(sorted(EOS)))]
    n = draw(st.integers(1, 16))
    return eos, _states(draw, eos, n), _states(draw, eos, n)


@PROPERTY
@given(state_pairs())
def test_every_flux_is_consistent(drawn):
    """F(w, w) = f(w): equal states give the physical flux."""
    eos, w, _ = drawn
    uc, f = euler.cons_and_flux(w, eos)
    assert np.array_equal(uc, euler.cons_from_prim(w, eos))
    # rounding scale of a fan sum: |f| + (|u| + c) |U|
    speed = np.abs(w[:, 1]) + _eos.sound_speed(eos, w[:, 0], w[:, 2])
    scale = np.abs(f) + speed[:, None] * np.abs(uc)
    for name, flux in FLUXES.items():
        err = np.abs(flux(w, w, eos).flux - f)
        assert np.all(err <= 1e-12 * scale), name


@PROPERTY
@given(state_pairs())
def test_rsir_at_beta_zero_is_hll_bitwise(drawn):
    eos, wl, wr = drawn
    fan = euler.rsir_flux(wl, wr, eos, 0.0)
    hll = euler.hll_flux(wl, wr, eos)
    assert fan.n_fallback == 0
    assert np.array_equal(fan.flux, hll.flux)
    assert np.array_equal(fan.u_star_l, hll.u_star_l)
    assert np.array_equal(fan.u_star_r, hll.u_star_r)


@PROPERTY
@given(state_pairs())
def test_rsir_falls_back_to_hll_where_the_star_state_is_inadmissible(drawn):
    """At beta = 1, interfaces whose reconstructed star state is
    inadmissible get the HLL star states and flux and are counted if that
    changes them; the others keep the reconstructed star densities, and
    all are positive."""
    eos, wl, wr = drawn
    fan = euler.rsir_flux(wl, wr, eos, 1.0)
    hll = euler.hll_flux(wl, wr, eos)
    # the reconstruction without fallback
    cl2 = _eos._sound_speed_sq(eos, wl[:, 0], wl[:, 2])
    cr2 = _eos._sound_speed_sq(eos, wr[:, 0], wr[:, 2])
    psi = wr[:, 0] - wl[:, 0] + (wl[:, 2] - wr[:, 2]) / (0.5 * (cl2 + cr2))
    den = fan.s_r - fan.s_l
    rho_l = hll.u_star_l[:, 0] - (fan.s_r - fan.s_m) / den * psi
    rho_r = hll.u_star_l[:, 0] + (fan.s_m - fan.s_l) / den * psi
    p_star = 0.5 * (wl[:, 2] + cl2 * (rho_l - wl[:, 0])
                    + wr[:, 2] + cr2 * (rho_r - wr[:, 0]))
    bad = (rho_l <= 0.0) | (rho_r <= 0.0)
    lam_e = 0.5 * fan.s_m * fan.s_m
    if eos.b:
        bad |= ((p_star + eos.p_inf <= 0.0) | (rho_l * eos.b >= 1.0)
                | (rho_r * eos.b >= 1.0))
        lam_e -= eos.b * (p_star + eos.gamma * eos.p_inf) / (eos.gamma - 1.0)
    # an inadmissible reconstruction equal to U_HLL (psi = 0) changes nothing
    jump = np.stack([psi, psi * fan.s_m, psi * lam_e], axis=-1)
    u_hll = hll.u_star_l
    bad &= ((u_hll - ((fan.s_r - fan.s_m) / den)[:, None] * jump != u_hll)
            | (u_hll + ((fan.s_m - fan.s_l) / den)[:, None] * jump != u_hll)
            ).any(axis=-1)
    assert fan.n_fallback == np.count_nonzero(bad)
    assert np.all(fan.u_star_l[:, 0] > 0.0) and np.all(fan.u_star_r[:, 0] > 0.0)
    for name in ("flux", "u_star_l", "u_star_r"):
        assert np.array_equal(getattr(fan, name)[bad], getattr(hll, name)[bad])
    assert np.array_equal(fan.u_star_l[~bad, 0], rho_l[~bad])
    assert np.array_equal(fan.u_star_r[~bad, 0], rho_r[~bad])


@PROPERTY
@given(state_pairs())
def test_every_fan_flux_is_the_four_branch_sample(drawn):
    """Each fan's flux is its star fluxes F_K + S_K (U_K* - U_K), sampled
    at S_M (left at S_M = 0), then F_L where S_L >= 0 and F_R where
    S_R <= 0, bitwise.  Rusanov's record has no contact."""
    eos, wl, wr = drawn
    ul, fl = euler.cons_and_flux(wl, eos)
    ur, fr = euler.cons_and_flux(wr, eos)
    for name, fan_of in FLUXES.items():
        fan = fan_of(wl, wr, eos)
        if fan.s_m is None:
            assert name == "rusanov" and fan.u_star_l is fan.u_star_r is None
            continue
        f_star_l = fl + fan.s_l[:, None] * (fan.u_star_l - ul)
        f_star_r = fr + fan.s_r[:, None] * (fan.u_star_r - ur)
        want = np.where(fan.s_m[:, None] >= 0.0, f_star_l, f_star_r)
        want = np.where(fan.s_l[:, None] >= 0.0, fl, want)
        want = np.where(fan.s_r[:, None] <= 0.0, fr, want)
        assert np.array_equal(fan.flux, want), name


@PROPERTY
@given(state_pairs())
def test_rusanov_flux_uses_the_largest_speed_of_both_sides(drawn):
    """rusanov_flux = 0.5 (F_L + F_R - S (U_R - U_L)) with
    S = max(|u| + c) over both states, bitwise."""
    eos, wl, wr = drawn
    ul, fl = euler.cons_and_flux(wl, eos)
    ur, fr = euler.cons_and_flux(wr, eos)
    cl = _eos.sound_speed(eos, wl[:, 0], wl[:, 2])
    cr = _eos.sound_speed(eos, wr[:, 0], wr[:, 2])
    s = np.maximum(np.abs(wl[:, 1]) + cl, np.abs(wr[:, 1]) + cr)[:, None]
    want = 0.5 * (fr + fl - s * (ur - ul))
    assert np.array_equal(euler.rusanov_flux(wl, wr, eos).flux, want)


# -- one record per model ---------------------------------------------------

TP_EOS = (_eos.preset("water-sg"), _eos.preset("air-ideal"))

TP_FLUXES = {
    "rusanov-basic": lambda wl, wr: twophase.rusanov_basic_flux(
        wl, wr, *TP_EOS),
    "rusanov-local": lambda wl, wr: twophase.rusanov_local_flux(
        wl, wr, *TP_EOS),
    "hll-tp": lambda wl, wr: twophase.tp_hll_flux(wl, wr, *TP_EOS),
    "rsir-tp": lambda wl, wr: twophase.rsir_tp_flux(wl, wr, *TP_EOS, 1.0),
}


@pytest.mark.parametrize("name", [*FLUXES, *TP_FLUXES])
def test_every_solver_returns_its_models_face_record(rng, name):
    """Each of the nine interface solvers returns one record: the flux, an
    int fallback count and every face field the step reads for its model,
    one entry per face."""
    if name in FLUXES:
        eos = EOS["air-ideal"]
        wl, wr = random_euler_states(rng, 8, eos)
        rec = FLUXES[name](wl, wr, eos)
        case = cases.builtin_case("euler-shock-tube")
        model = driver._euler_model(replace(case, solver=name))
    else:
        wl, wr = random_twophase_states(rng, 8, *TP_EOS)
        rec = TP_FLUXES[name](wl, wr)
        case = cases.builtin_case("tp-shock-tube")
        model = driver._tp_model(replace(case, solver=name))
    assert model.face_fields[0] == "flux"
    assert rec.flux.shape == wl.shape
    assert type(rec.n_fallback) is int
    for field in model.face_fields:
        assert np.shape(getattr(rec, field))[0] == len(wl), field


# -- memory layout ----------------------------------------------------------

def _tp_states(draw, n):
    """n admissible two-phase primitive states (water-SG in air), drawn
    over the ranges of ``conftest.random_twophase_states``."""
    def unit():
        return np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                      max_size=n)))
    a1 = 0.05 + 0.9 * unit()
    rho1 = 800.0 + 500.0 * unit()
    p1 = 10.0 ** (4.5 + 3.0 * unit())
    rho2 = 10.0 ** (-0.5 + 2.0 * unit())
    p2 = 10.0 ** (4.5 + 2.0 * unit())
    c2 = _eos.sound_speed(TP_EOS[1], rho2, p2)
    u2 = (2.0 * unit() - 1.0) * c2
    u1 = u2 + 0.3 * (2.0 * unit() - 1.0) * c2
    return np.stack([a1, rho1, u1, p1, rho2, u2, p2], axis=-1)


@st.composite
def layout_states(draw):
    """(eos, Euler pair, two-phase pair) with 1 to 16 interfaces."""
    eos, wl, wr = draw(state_pairs())
    n = len(wl)
    return eos, wl, wr, _tp_states(draw, n), _tp_states(draw, n)


def _layouts(w):
    """The same (n, k) states as a C-ordered array, a component-major
    array, a strided view into a larger buffer, and a component-major
    (1, n, k) batch."""
    n, k = w.shape
    strided = np.zeros((2 * n, k + 2))[::2, 1:-1]
    strided[...] = w
    batch = np.moveaxis(np.empty((k, 1, n)), 0, -1)
    batch[0] = w
    return {"C": np.ascontiguousarray(w),
            "component-major": np.asfortranarray(w),
            "strided": strided, "batch": batch}


def _outputs(wl, wr, eos, tl, tr):
    """Every layout-sensitive output, as name -> array."""
    out = {}
    for name, flux in FLUXES.items():
        out[name] = flux(wl, wr, eos).flux
    for name, flux in TP_FLUXES.items():
        rec = flux(tl, tr)
        out[name] = rec.flux
        out[name + ".alpha_face"] = rec.alpha_face
        out[name + ".phi_alpha_face"] = rec.phi_alpha_face
    out["cons_from_prim"] = euler.cons_from_prim(wl, eos)
    out["prim_from_cons"] = euler.prim_from_cons(
        euler.cons_from_prim(wr, eos), eos)
    out["tp_cons_from_prim"] = twophase.tp_cons_from_prim(tl, *TP_EOS)
    out["tp_prim_from_cons"] = twophase.tp_prim_from_cons(
        twophase.tp_cons_from_prim(tr, *TP_EOS), *TP_EOS)
    return out


@PROPERTY
@given(layout_states())
def test_outputs_do_not_depend_on_the_input_layout(drawn):
    """C-ordered, component-major and strided inputs give bitwise-equal
    results, and the conversions return component-major arrays."""
    eos, wl, wr, tl, tr = drawn
    layouts = [_layouts(a) for a in (wl, wr, tl, tr)]
    results = {}
    for name in layouts[0]:
        l_, r_, tl_, tr_ = (lay[name] for lay in layouts)
        out = _outputs(l_, r_, eos, tl_, tr_)
        results[name] = {k: v[0] if name == "batch" else v
                         for k, v in out.items()}
    ref = results.pop("C")
    for name, out in results.items():
        for key, value in out.items():
            assert np.array_equal(value, ref[key]), (name, key)
    for key in ("cons_from_prim", "prim_from_cons", "tp_cons_from_prim",
                "tp_prim_from_cons"):
        for j in range(ref[key].shape[-1]):
            assert ref[key][:, j].flags.c_contiguous, (key, j)


# -- two-phase fluxes ---------------------------------------------------------

@st.composite
def tp_state_pairs(draw):
    """(wl, wr): 1 to 16 two-phase interfaces (water-SG in air)."""
    n = draw(st.integers(1, 16))
    return _tp_states(draw, n), _tp_states(draw, n)


@PROPERTY
@given(tp_state_pairs())
def test_rsir_tp_at_beta_zero_is_tp_hll_bitwise(drawn):
    wl, wr = drawn
    rec = twophase.rsir_tp_flux(wl, wr, *TP_EOS, 0.0)
    hll = twophase.tp_hll_flux(wl, wr, *TP_EOS)
    for name in ("flux", "alpha_face", "phi_alpha_face", "u_star_l",
                 "u_star_r"):
        assert np.array_equal(getattr(rec, name), getattr(hll, name)), name
    # nothing falls back where the star states already are U_HLL
    assert rec.n_fallback == 0


@PROPERTY
@given(tp_state_pairs())
def test_rusanov_basic_is_the_rusanov_flux_of_phys_flux(drawn):
    """rusanov_basic_flux = 0.5 (F_R + F_L - S (U_R - U_L)) with U and F
    from tp_cons_and_local_flux at p_i = 0 and S = max(-S_L, S_R) of its
    own bounds, bitwise."""
    wl, wr = drawn
    (ul, fl), (ur, fr) = (twophase.tp_cons_and_local_flux(w, 0.0, *TP_EOS)
                          for w in (wl, wr))
    fan = twophase.rusanov_basic_flux(wl, wr, *TP_EOS)
    s = np.maximum(-fan.s_l, fan.s_r)[:, None]
    want = 0.5 * (fr + fl - s * (ur - ul))
    assert np.array_equal(fan.flux, want)


@PROPERTY
@given(tp_state_pairs())
def test_rusanov_speed_is_the_largest_eigenvalue_magnitude(drawn):
    """The Rusanov speed max(-S_L, S_R) of rusanov_basic_flux and
    rusanov_local_flux = max over both states of max(|min(u1, u2 - c2)|,
    max(u1, u2 + c2)), bitwise."""
    wl, wr = drawn
    speeds = []
    for w in (wl, wr):
        c2 = _eos.sound_speed(TP_EOS[1], w[:, 4], w[:, 6])
        lo = np.minimum(w[:, 2], w[:, 5] - c2)
        hi = np.maximum(w[:, 2], w[:, 5] + c2)
        speeds.append(np.maximum(np.abs(lo), hi))
    for flux in (twophase.rusanov_basic_flux, twophase.rusanov_local_flux):
        fan = flux(wl, wr, *TP_EOS)
        assert np.array_equal(np.maximum(-fan.s_l, fan.s_r),
                              np.maximum(*speeds))


@PROPERTY
@given(tp_state_pairs())
def test_every_two_phase_flux_is_consistent(drawn):
    """F(w, w) = F(w) within the rounding scale of a fan sum,
    |F| + S |U| + p_1 + p_2, where S bounds the signal speeds and the
    pressures bound the frozen-p_i corrections."""
    w, _ = drawn
    uc, f = twophase.tp_cons_and_local_flux(w, 0.0, *TP_EOS)
    fan = twophase.rusanov_basic_flux(w, w, *TP_EOS)
    speed = np.maximum(-fan.s_l, fan.s_r)
    scale = (np.abs(f) + speed[:, None] * np.abs(uc)
             + (w[:, 3] + w[:, 6])[:, None])
    for name, flux in TP_FLUXES.items():
        err = np.abs(flux(w, w).flux - f)
        assert np.all(err <= 1e-12 * scale), name


@PROPERTY
@given(tp_state_pairs())
def test_rsir_tp_fallback_interfaces_carry_the_hll_star_state(drawn):
    """At beta = 1 the interfaces counted in n_fallback are exactly those
    whose reconstruction is inadmissible; they carry the HLL star states,
    flux and face values bitwise, and the others keep the reconstruction."""
    wl, wr = drawn
    rec = twophase.rsir_tp_flux(wl, wr, *TP_EOS, 1.0)
    hll = twophase.tp_hll_flux(wl, wr, *TP_EOS)
    u_star_l, u_star_r, bad = twophase.rsir_reconstruct(hll, wl, wr, 1.0,
                                                        *TP_EOS)
    assert rec.n_fallback == np.count_nonzero(bad)
    for name in ("u_star_l", "u_star_r", "flux", "alpha_face",
                 "phi_alpha_face"):
        assert np.array_equal(getattr(rec, name)[bad],
                              getattr(hll, name)[bad]), name
    assert np.array_equal(rec.u_star_l[~bad], u_star_l[~bad])
    assert np.array_equal(rec.u_star_r[~bad], u_star_r[~bad])
