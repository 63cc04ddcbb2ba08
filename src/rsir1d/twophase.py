"""Dense-dilute two-phase model: state algebra, interfacial-pressure
rule, local conservative formulation, Rusanov variants, and the two-phase
internal-reconstruction solver.

Phase 1 is the dispersed fluid, phase 2 the carrier.  Layouts:

primitive  (7): (alpha1, rho1, u1, p1, rho2, u2, p2)
conserved  (7): (alpha1, (ar)1, (aru)1, (arE)1, (ar)2, (aru)2, (arE)2)
local-conservative state (8): conserved with alpha2 inserted at slot 4:
            (alpha1, (ar)1, (aru)1, (arE)1, alpha2, (ar)2, (aru)2, (arE)2)

The interfacial pressure p_i is frozen per interface (pressure of
phase 1 on the side where that phase is present), which makes the system
locally conservative; the 8-slot flux of that system is called `phi`
throughout.  All functions are vectorized over leading axes.
"""

from dataclasses import dataclass

import numpy as np

from . import eos as _eos
from . import euler as _euler
from .euler import (PositivityError, _check_beta, _component_major,
                    _stack_last, _star_flux, _weights)

__all__ = [
    "ALPHA_FLOOR",
    "TwoPhaseFaceFlux",
    "TwoPhaseFan",
    "tp_cons_from_prim",
    "tp_prim_from_cons",
    "alpha_clamps",
    "interfacial_pressure",
    "local_state_and_flux",
    "tp_cons_and_local_flux",
    "phys_flux",
    "tp_wave_bounds",
    "rusanov_speed",
    "rusanov_basic_flux",
    "rusanov_local_flux",
    "tp_hll_state",
    "rsir_reconstruct",
    "tp_hll_flux",
    "rsir_tp_flux",
    "mixture_entropy",
]

# volume fraction floor applied at state recovery; clamps are counted, not silent
ALPHA_FLOOR = 1e-8


@dataclass
class TwoPhaseFaceFlux:
    """Per-interface flux record shared by every two-phase solver.

    f_flux         : 7-component flux of the non-conservative-form system
    alpha_face     : face value of alpha1 feeding the momentum H-terms
    phi_alpha_face : face value of the alpha1-equation flux (alpha1*u1)
                     feeding the energy H-terms
    p_i            : frozen interfacial pressure of this interface
    """

    f_flux: np.ndarray
    alpha_face: np.ndarray
    phi_alpha_face: np.ndarray
    p_i: np.ndarray


@dataclass
class TwoPhaseFan(TwoPhaseFaceFlux):
    """Reconstruction record of the two-phase internal-reconstruction solver."""

    s_l: np.ndarray = None
    s_m1: np.ndarray = None
    s_m2: np.ndarray = None
    s_r: np.ndarray = None
    u_star_l: np.ndarray = None
    u_star_r: np.ndarray = None
    n_fallback: int = 0


def _phase_terms(w, eos1, eos2):
    """Pieces shared by the conserved state and the fluxes of primitive
    states, with one internal-energy evaluation per phase: (a1, a2, u1,
    u2, p1, p2, (ar)1, (ar)2, (aru)1, (aru)2, (arE)1, (arE)2)."""
    w = np.asarray(w, dtype=float)
    a1 = w[..., 0]
    if np.count_nonzero((a1 <= 0.0) | (a1 >= 1.0)):
        raise PositivityError(
            f"alpha1 must lie strictly inside (0,1), got extrema "
            f"[{float(np.min(a1))!r}, {float(np.max(a1))!r}]"
        )
    a2 = 1.0 - a1
    rho1, u1, p1 = w[..., 1], w[..., 2], w[..., 3]
    rho2, u2, p2 = w[..., 4], w[..., 5], w[..., 6]
    m1 = a1 * rho1
    m2 = a2 * rho2
    en1 = m1 * (_eos.internal_energy(eos1, rho1, p1) + 0.5 * u1 * u1)
    en2 = m2 * (_eos.internal_energy(eos2, rho2, p2) + 0.5 * u2 * u2)
    return a1, a2, u1, u2, p1, p2, m1, m2, m1 * u1, m2 * u2, en1, en2


def tp_cons_from_prim(w, eos1, eos2):
    a1, _, _, _, _, _, m1, m2, q1, q2, en1, en2 = _phase_terms(w, eos1, eos2)
    return _stack_last((a1, m1, q1, en1, m2, q2, en2))


def alpha_clamps(uc):
    """Number of states whose alpha1 :func:`tp_prim_from_cons` clamps to
    [floor, 1-floor]."""
    a1 = np.asarray(uc, dtype=float)[..., 0]
    return int(np.count_nonzero((a1 < ALPHA_FLOOR) | (a1 > 1.0 - ALPHA_FLOOR)))


def tp_prim_from_cons(uc, eos1, eos2):
    """Recover primitives; alpha1 is clamped to [floor, 1-floor] (count
    the clamps with :func:`alpha_clamps`)."""
    uc = np.asarray(uc, dtype=float)
    m1, m2 = uc[..., 1], uc[..., 4]
    if np.count_nonzero(m1 <= 0.0) or np.count_nonzero(m2 <= 0.0):
        raise PositivityError(
            f"non-positive apparent density (min phase1 "
            f"{float(np.min(m1))!r}, phase2 {float(np.min(m2))!r})"
        )
    cols = np.empty(uc.shape[-1:] + uc.shape[:-1])  # one row per column
    a1, rho1, u1, p1, rho2, u2, p2 = (cols[k, ...] for k in range(7))
    np.clip(uc[..., 0], ALPHA_FLOOR, 1.0 - ALPHA_FLOOR, out=a1)
    np.divide(m1, a1, out=rho1)
    np.divide(m2, np.subtract(1.0, a1, out=rho2), out=rho2)
    e = np.empty(a1.shape)
    for k, rho, u, p, eos in ((1, rho1, u1, p1, eos1),
                              (4, rho2, u2, p2, eos2)):
        np.divide(uc[..., k + 1], uc[..., k], out=u)
        np.divide(uc[..., k + 2], uc[..., k], out=e)
        e -= np.multiply(np.multiply(0.5, u, out=p), u, out=p)
        _eos.pressure(eos, rho, e, out=p)
    if (np.count_nonzero(p1 <= -eos1.p_inf)
            or np.count_nonzero(p2 <= -eos2.p_inf)):
        raise PositivityError(
            f"recovered phase pressure below -p_inf (min p1 "
            f"{float(np.min(p1))!r}, min p2 {float(np.min(p2))!r})"
        )
    return _component_major(cols)


def interfacial_pressure(wl, wr):
    """p_i = phase-1 pressure on the side where phase 1 is present; the
    average of the two phase-1 pressures breaks exact ties."""
    wl = np.asarray(wl, float)
    wr = np.asarray(wr, float)
    a1l, a1r = wl[..., 0], wr[..., 0]
    p1l, p1r = wl[..., 3], wr[..., 3]
    return np.where(a1l > a1r, p1l,
                    np.where(a1l < a1r, p1r, 0.5 * (p1l + p1r)))


def _local_columns(w, p_i, eos1, eos2):
    """(state columns, flux columns) of :func:`local_state_and_flux` less
    its alpha2 slot 4, and that slot's (alpha2, alpha1 u1)."""
    (a1, a2, u1, u2, p1, p2,
     m1, m2, q1, q2, en1, en2) = _phase_terms(w, eos1, eos2)
    p_i = np.asarray(p_i, dtype=float)
    au1 = a1 * u1
    return ([a1, m1, q1, en1, m2, q2, en2],
            [au1, q1, q1 * u1 + a1 * (p1 - p_i), (en1 + a1 * (p1 - p_i)) * u1,
             q2, q2 * u2 + a2 * (p2 - p_i),
             (en2 + a2 * p2) * u2 + p_i * a1 * u1], a2, au1)


def local_state_and_flux(w, p_i, eos1, eos2):
    """The 8-slot local-conservative state of primitive states ``w`` and
    the flux of the locally conservative system for frozen ``p_i``,
    sharing one internal-energy evaluation per phase."""
    v, phi, a2, au1 = _local_columns(w, p_i, eos1, eos2)
    return (_stack_last(v[:4] + [a2] + v[4:]),
            _stack_last(phi[:4] + [-au1] + phi[4:]))


def tp_cons_and_local_flux(w, p_i, eos1, eos2):
    """:func:`local_state_and_flux` less its alpha2 slot 4: the conserved
    state and the MUSCL-Hancock predictor flux for frozen p_i."""
    v, phi, _, _ = _local_columns(w, p_i, eos1, eos2)
    return _stack_last(v), _stack_last(phi)


def phys_flux(w, eos1, eos2):
    """Flux F of the non-conservative formulation (7 slots)."""
    w = np.asarray(w, dtype=float)
    uc = tp_cons_from_prim(w, eos1, eos2)
    return _phys_flux_of(w, uc[..., 2], uc[..., 3], uc[..., 5], uc[..., 6])


def _phys_flux_of(w, q1, en1, q2, en2):
    """:func:`phys_flux` of primitive states ``w`` from their phase momenta
    and total energies, which a conserved or local state already holds."""
    a1, u1, p1 = w[..., 0], w[..., 2], w[..., 3]
    a2, u2, p2 = 1.0 - a1, w[..., 5], w[..., 6]
    return _stack_last((a1 * u1, q1, q1 * u1 + a1 * p1, (en1 + a1 * p1) * u1,
                        q2, q2 * u2 + a2 * p2, (en2 + a2 * p2) * u2))


def tp_wave_bounds(wl, wr, eos2):
    """Davis-type exterior bounds over the eigenvalues u1, u2 -+ c2."""
    lo, hi = [], []
    for w in (np.asarray(wl, float), np.asarray(wr, float)):
        c2 = _eos.sound_speed(eos2, w[..., 4], w[..., 6])
        lo.append(np.minimum(w[..., 2], w[..., 5] - c2))
        hi.append(np.maximum(w[..., 2], w[..., 5] + c2))
    return np.minimum(*lo), np.maximum(*hi)


def rusanov_speed(wl, wr, eos2):
    """S = max over both states of max_k |lambda_k|, which is
    max(-S_L, S_R) of :func:`tp_wave_bounds`."""
    s_l, s_r = tp_wave_bounds(wl, wr, eos2)
    return np.maximum(-s_l, s_r)


def rusanov_basic_flux(wl, wr, eos1, eos2):
    """Rusanov flux on the non-conservative form; pairs with arithmetic
    face averages in the H-terms."""
    wl = np.asarray(wl, float)
    wr = np.asarray(wr, float)
    s = rusanov_speed(wl, wr, eos2)[..., None]
    ul = tp_cons_from_prim(wl, eos1, eos2)
    ur = tp_cons_from_prim(wr, eos1, eos2)
    fl = _phys_flux_of(wl, ul[..., 2], ul[..., 3], ul[..., 5], ul[..., 6])
    fr = _phys_flux_of(wr, ur[..., 2], ur[..., 3], ur[..., 5], ur[..., 6])
    f = 0.5 * (fr + fl - s * (ur - ul))
    alpha_face = 0.5 * (wl[..., 0] + wr[..., 0])
    phi_alpha_face = 0.5 * (wl[..., 0] * wl[..., 2] + wr[..., 0] * wr[..., 2])
    return TwoPhaseFaceFlux(f_flux=f, alpha_face=alpha_face,
                            phi_alpha_face=phi_alpha_face,
                            p_i=interfacial_pressure(wl, wr))


def _f_from_phi(phi, p_i, a1_face, a2_face, phi_a1, phi_a2):
    """F-flux of the non-conservative form from a local-conservative flux
    ``phi`` and the face values of its frozen-p_i corrections."""
    return _stack_last((
        phi[..., 0], phi[..., 1], phi[..., 2] + p_i * a1_face,
        phi[..., 3] + p_i * phi_a1, phi[..., 5], phi[..., 6] + p_i * a2_face,
        phi[..., 7] + p_i * phi_a2))


def rusanov_local_flux(wl, wr, eos1, eos2):
    """Rusanov flux built on the locally conservative system; the F-flux
    of the non-conservative form is recovered by adding the frozen-p_i
    corrections."""
    wl = np.asarray(wl, float)
    wr = np.asarray(wr, float)
    p_i = interfacial_pressure(wl, wr)
    s = rusanov_speed(wl, wr, eos2)
    ul, phil = local_state_and_flux(wl, p_i, eos1, eos2)
    ur, phir = local_state_and_flux(wr, p_i, eos1, eos2)
    phi_star = 0.5 * (phir + phil - s[..., None] * (ur - ul))
    # face volume fractions from the Rusanov intermediate state
    a1l, a1r = wl[..., 0], wr[..., 0]
    au1l = a1l * wl[..., 2]
    au1r = a1r * wr[..., 2]
    a1_star = 0.5 * (a1r + a1l - (au1r - au1l) / s)
    a2_star = 0.5 * ((1.0 - a1r) + (1.0 - a1l) - (-au1r + au1l) / s)
    f = _f_from_phi(phi_star, p_i, a1_star, a2_star, phi_star[..., 0],
                    phi_star[..., 4])
    return TwoPhaseFaceFlux(f_flux=f, alpha_face=a1_star,
                            phi_alpha_face=phi_star[..., 0], p_i=p_i)


def tp_hll_state(vl, vr, phil, phir, s_l, s_r):
    """HLL state of the local conservative system plus the two contact
    speeds and the prolonged carrier density.

    Returns (u_hll, s_m1, s_m2, rho2_bar).
    """
    u_hll = _euler.hll_state(vl, vr, phil, phir, s_l, s_r)
    for slot, name in ((1, "phase 1"), (5, "phase 2")):
        if np.count_nonzero(u_hll[..., slot] <= 0.0):
            raise PositivityError(
                f"non-positive HLL apparent density for {name}")
    s_m1 = u_hll[..., 2] / u_hll[..., 1]
    s_m2 = u_hll[..., 6] / u_hll[..., 5]
    rho2_bar = u_hll[..., 5] / u_hll[..., 4]
    return u_hll, s_m1, s_m2, rho2_bar


def _tp_psi(wl, wr, u_hll, s_m1, s_m2, rho2_bar, p_i, om_l, om_r, beta,
            eos1, eos2):
    """Jump vector psi across the phase-1 contact wave (8 slots); its
    energy slot 3 uses the star masses u_hll[1] -/+ om_r/om_l psi[1]."""
    a1l, a1r = wl[..., 0], wr[..., 0]
    m1l = a1l * wl[..., 1]
    m1r = a1r * wr[..., 1]
    d_a1 = beta * (a1r - a1l)
    d_m1 = beta * (m1r - m1l)
    g1 = eos1.gamma
    g2 = eos2.gamma
    psi = _component_major(np.empty((8,) + np.broadcast(a1l, a1r).shape))
    psi[..., 0] = d_a1
    psi[..., 1] = d_m1
    psi[..., 2] = d_m1 * s_m1
    m1_star_l = u_hll[..., 1] - om_r * d_m1
    m1_star_r = u_hll[..., 1] + om_l * d_m1
    # the velocity terms also carry beta so that beta = 0 degenerates
    # exactly to the single-state HLL solver
    u1l = wl[..., 2]
    u1r = wr[..., 2]
    psi[..., 3] = (d_a1 * (p_i + g1 * eos1.p_inf) / (g1 - 1.0)
                   + d_m1 * 0.5 * s_m1 * s_m1
                   + beta * (m1_star_l * u1l * (u1l - s_m1)
                             - m1_star_r * u1r * (u1r - s_m1)) / (g1 - 1.0))
    # phase 2: alpha2 jump is minus the phase-1 jump, carrier density
    # prolonged as rho2_bar, single carrier star velocity S_M2
    d_a2 = -d_a1
    psi[..., 4] = d_a2
    psi[..., 5] = d_a2 * rho2_bar
    psi[..., 6] = d_a2 * rho2_bar * s_m2
    psi[..., 7] = d_a2 * (
        rho2_bar * (0.5 * s_m2 * s_m2 - s_m2 * (s_m2 - s_m1) / (g2 - 1.0))
        + (p_i + g2 * eos2.p_inf) / (g2 - 1.0))
    return psi


def rsir_reconstruct(u_hll, wl, wr, s_l, s_m1, s_m2, s_r, rho2_bar, p_i,
                     beta, eos1, eos2):
    """Split the HLL state into two star states using the phase-1 contact
    jump conditions (mass/momentum first, then energy) and the prolonged
    carrier-density closure for phase 2.

    Returns (u_star_l, u_star_r, bad) where ``bad`` flags interfaces whose
    inadmissible reconstruction the caller's beta=0 fallback changes.
    """
    om_l, om_r = _weights(s_l, s_m1, s_r)
    psi = _tp_psi(wl, wr, u_hll, s_m1, s_m2, rho2_bar, p_i, om_l, om_r, beta,
                  eos1, eos2)
    u_star_l = u_hll - om_r[..., None] * psi
    u_star_r = u_hll + om_l[..., None] * psi
    bad = np.zeros(np.shape(s_m1), dtype=bool)
    for star in (u_star_l, u_star_r):
        bad |= (star[..., 0] < ALPHA_FLOOR) | (star[..., 0] > 1.0 - ALPHA_FLOOR)
        bad |= (star[..., 4] < ALPHA_FLOOR) | (star[..., 4] > 1.0 - ALPHA_FLOOR)
        bad |= (star[..., 1] <= 0.0) | (star[..., 5] <= 0.0)
    if np.count_nonzero(bad):
        bad &= ((u_star_l != u_hll) | (u_star_r != u_hll)).any(axis=-1)
    return u_star_l, u_star_r, bad


def _tp_flux_from_fan(wl, wr, vl, vr, phil, phir, u_star_l, u_star_r,
                      s_l, s_m1, s_m2, s_r, p_i, n_fallback=0):
    phi_star = _star_flux(u_star_l, u_star_r, vl, vr, phil, phir,
                          s_l, s_m1, s_r)
    a1l, a1r = wl[..., 0], wr[..., 0]
    au1l = a1l * wl[..., 2]
    au1r = a1r * wr[..., 2]
    # HLL-form face volume fraction, sampled in the supersonic branches
    a1_face = (au1r - au1l + s_l * a1l - s_r * a1r) / (s_l - s_r)
    # face value of the alpha1-equation flux, same sampling as the F-flux
    phi_a1 = phi_star[..., 0]
    flux = _f_from_phi(phi_star, p_i, a1_face, 1.0 - a1_face, phi_a1,
                       -phi_a1)
    # supersonic faces take a side's F-flux, built from its local state
    # (no second EOS pass) and only when some face needs it
    for sup, w, v, a1, au1 in ((s_l >= 0.0, wl, vl, a1l, au1l),
                               (s_r <= 0.0, wr, vr, a1r, au1r)):
        if np.count_nonzero(sup):
            a1_face = np.where(sup, a1, a1_face)
            phi_a1 = np.where(sup, au1, phi_a1)
            np.copyto(flux, _phys_flux_of(w, v[..., 2], v[..., 3], v[..., 6],
                                          v[..., 7]), where=sup[..., None])
    return TwoPhaseFan(
        f_flux=flux, alpha_face=a1_face, phi_alpha_face=phi_a1, p_i=p_i,
        s_l=s_l, s_m1=s_m1, s_m2=s_m2, s_r=s_r,
        u_star_l=u_star_l, u_star_r=u_star_r, n_fallback=n_fallback)


def _tp_fan_common(wl, wr, eos1, eos2):
    wl = np.asarray(wl, float)
    wr = np.asarray(wr, float)
    s_l, s_r = tp_wave_bounds(wl, wr, eos2)
    p_i = interfacial_pressure(wl, wr)
    vl, phil = local_state_and_flux(wl, p_i, eos1, eos2)
    vr, phir = local_state_and_flux(wr, p_i, eos1, eos2)
    u_hll, s_m1, s_m2, rho2_bar = tp_hll_state(vl, vr, phil, phir, s_l, s_r)
    return wl, wr, vl, vr, phil, phir, u_hll, s_l, s_m1, s_m2, s_r, rho2_bar, p_i


def tp_hll_flux(wl, wr, eos1, eos2):
    """Pure two-phase HLL flux: both star states are the HLL state array."""
    (wl, wr, vl, vr, phil, phir, u_hll,
     s_l, s_m1, s_m2, s_r, rho2_bar, p_i) = _tp_fan_common(wl, wr, eos1, eos2)
    return _tp_flux_from_fan(wl, wr, vl, vr, phil, phir, u_hll, u_hll,
                             s_l, s_m1, s_m2, s_r, p_i)


def rsir_tp_flux(wl, wr, eos1, eos2, beta):
    """Two-phase internal-reconstruction flux with per-interface beta=0
    fallback when a reconstructed star state is inadmissible."""
    _check_beta(beta)
    (wl, wr, vl, vr, phil, phir, u_hll,
     s_l, s_m1, s_m2, s_r, rho2_bar, p_i) = _tp_fan_common(wl, wr, eos1, eos2)
    u_star_l, u_star_r, bad = rsir_reconstruct(
        u_hll, wl, wr, s_l, s_m1, s_m2, s_r, rho2_bar, p_i, beta, eos1, eos2)
    n_fallback = int(np.count_nonzero(bad))
    if n_fallback:
        np.copyto(u_star_l, u_hll, where=bad[..., None])
        np.copyto(u_star_r, u_hll, where=bad[..., None])
    return _tp_flux_from_fan(wl, wr, vl, vr, phil, phir,
                             u_star_l, u_star_r, s_l, s_m1, s_m2, s_r,
                             p_i, n_fallback)


def mixture_entropy(w, eos1, eos2):
    """Diagnostic mixture entropy alpha1 rho1 s1 + alpha2 rho2 s2."""
    w = np.asarray(w, float)
    a1 = w[..., 0]
    s1 = _eos.entropy(eos1, w[..., 1], w[..., 3])
    s2 = _eos.entropy(eos2, w[..., 4], w[..., 6])
    return a1 * w[..., 1] * s1 + (1.0 - a1) * w[..., 4] * s2
