"""Dense-dilute two-phase model: state algebra, interfacial-pressure
rule, local conservative formulation, Rusanov variants, and the two-phase
internal-reconstruction solver.

Phase 1 is the dispersed fluid, phase 2 the carrier.  Both layouts have
the 7 slots of the model's 7 equations:

primitive  (7): (alpha1, rho1, u1, p1, rho2, u2, p2)
conserved  (7): (alpha1, (ar)1, (aru)1, (arE)1, (ar)2, (aru)2, (arE)2)

The interfacial pressure p_i is frozen per interface (pressure of
phase 1 on the side where that phase is present), which makes the system
locally conservative in the same 7 unknowns, with alpha2 = 1 - alpha1;
the flux of that system is called `phi` throughout.  All functions are
vectorized over leading axes.
"""

import numpy as np

from . import eos as _eos
from . import euler as _euler
from .euler import (Fan, PositivityError, _buffer, _check_beta,
                    _component_major, _rows, _star_flux, _weights)

__all__ = [
    "ALPHA_FLOOR",
    "tp_cons_from_prim",
    "tp_prim_from_cons",
    "alpha_clamps",
    "interfacial_pressure",
    "tp_cons_and_local_flux",
    "rusanov_basic_flux",
    "rusanov_local_flux",
    "tp_hll_state",
    "rsir_reconstruct",
    "tp_hll_flux",
    "rsir_tp_flux",
]

# volume fraction floor applied at state recovery; clamps are counted, not silent
ALPHA_FLOOR = 1e-8


def tp_cons_from_prim(w, eos1, eos2, out=None):
    """Conserved states of primitive states ``w``, into ``out``."""
    w = np.asarray(w, dtype=float)
    a1 = w[..., 0]
    if np.count_nonzero((a1 <= 0.0) | (a1 >= 1.0)):
        raise PositivityError(
            f"alpha1 must lie strictly inside (0,1), got extrema "
            f"[{float(np.min(a1))!r}, {float(np.max(a1))!r}]"
        )
    cols = _rows(out, w.shape)  # one row per column
    cols[0] = a1
    np.multiply(a1, w[..., 1], out=cols[1, ...])
    np.multiply(np.subtract(1.0, a1, out=cols[4, ...]), w[..., 4],
                out=cols[4, ...])
    for k, eos in ((1, eos1), (4, eos2)):
        m, u = cols[k, ...], w[..., k + 1]
        np.multiply(m, u, out=cols[k + 1, ...])
        en = np.multiply(0.5, u, out=cols[k + 2, ...])
        en *= u
        en += _eos.internal_energy(eos, w[..., k], w[..., k + 2])
        en *= m
    return _component_major(cols)


def alpha_clamps(uc):
    """Number of states whose alpha1 :func:`tp_prim_from_cons` clamps to
    [floor, 1-floor]."""
    a1 = np.asarray(uc, dtype=float)[..., 0]
    return int(np.count_nonzero((a1 < ALPHA_FLOOR) | (a1 > 1.0 - ALPHA_FLOOR)))


def tp_prim_from_cons(uc, eos1, eos2, out=None):
    """Recover primitives into ``out``; alpha1 is clamped to [floor,
    1-floor] (count the clamps with :func:`alpha_clamps`), and a phase
    pressure at or below its -p_inf raises."""
    uc = np.asarray(uc, dtype=float)
    m1, m2 = uc[..., 1], uc[..., 4]
    if np.count_nonzero(m1 <= 0.0) or np.count_nonzero(m2 <= 0.0):
        raise PositivityError(
            f"non-positive apparent density (min phase1 "
            f"{float(np.min(m1))!r}, phase2 {float(np.min(m2))!r})"
        )
    cols = _rows(out, uc.shape)  # one row per column
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


def tp_cons_and_local_flux(w, p_i, eos1, eos2, out=(None, None)):
    """Conserved state of primitive states ``w`` and the flux ``phi`` of
    the locally conservative system for frozen ``p_i``, into the pair
    ``out``, sharing one internal-energy evaluation per phase."""
    uc = tp_cons_from_prim(w, eos1, eos2, out[0])
    return uc, _phi(np.asarray(w, dtype=float), uc, p_i, out[1])


def _phi(w, uc, p_i, out=None):
    """The flux ``phi`` of primitive states ``w`` with conserved states
    ``uc`` for frozen ``p_i``, into ``out``; at p_i = 0 it is the flux F
    of the non-conservative form."""
    a1, u1, p1, u2, p2 = (w[..., k] for k in (0, 2, 3, 5, 6))
    _, _, q1, en1, _, q2, en2 = (uc[..., k] for k in range(7))
    cols = _rows(out, uc.shape)
    f0, f1, f2, f3, f4, f5, f6 = (cols[k, ...] for k in range(7))
    np.multiply(a1, u1, out=f0)
    f1[...] = q1
    np.multiply(np.subtract(p1, p_i, out=f3), a1, out=f3)
    np.add(np.multiply(q1, u1, out=f2), f3, out=f2)
    f3 += en1
    f3 *= u1
    f4[...] = q2
    a2 = np.subtract(1.0, a1, out=np.empty(a1.shape))
    np.multiply(np.subtract(p2, p_i, out=f6), a2, out=f6)
    np.add(np.multiply(q2, u2, out=f5), f6, out=f5)
    np.multiply(a2, p2, out=f6)
    f6 += en2
    f6 *= u2
    f6 += np.multiply(np.multiply(p_i, a1, out=a2), u1, out=a2)
    return _component_major(cols)


def _bounds(w, eos2):
    """(S_L, S_R) of a side batch ``w`` of shape (2, ..., 7), left at
    index 0: Davis-type exterior bounds over the eigenvalues u1, u2 -+ c2."""
    c2 = _eos.sound_speed(eos2, w[..., 4], w[..., 6])
    lo = np.minimum(w[..., 2], w[..., 5] - c2)
    hi = np.maximum(w[..., 2], w[..., 5] + c2)
    return np.minimum(lo[0], lo[1]), np.maximum(hi[0], hi[1])


def _sides(wl, wr, eos1, eos2, scratch, local=True):
    """Both sides as one batch: (primitives, conserved states, fluxes ``phi``
    for p_i, or for 0, which is F, if not ``local``) of shape (2, ..., 7),
    p_i, S_L, S_R; the batch arrays come from the store ``scratch``."""
    shape = (2,) + np.broadcast(wl, wr).shape
    w = _buffer(scratch, "sides", shape)
    w[0], w[1] = wl, wr
    p_i = interfacial_pressure(w[0], w[1])
    out = (_buffer(scratch, "side states", shape),
           _buffer(scratch, "side fluxes", shape))
    s_l, s_r = _bounds(w, eos2)
    uc, f = tp_cons_and_local_flux(w, p_i if local else 0.0, eos1, eos2, out)
    return w, uc, f, p_i, s_l, s_r


def rusanov_basic_flux(wl, wr, eos1, eos2, scratch=None):
    """Rusanov flux on the non-conservative form; pairs with arithmetic
    face averages in the H-terms.  Its side batch comes from ``scratch``."""
    w, uc, f, p_i, s_l, s_r = _sides(wl, wr, eos1, eos2, scratch, local=False)
    s = np.maximum(-s_l, s_r)[..., None]
    flux = 0.5 * (f[1] + f[0] - s * (uc[1] - uc[0]))
    a1, au1 = w[..., 0], f[..., 0]
    return Fan(flux, s_l=s_l, s_r=s_r, alpha_face=0.5 * (a1[0] + a1[1]),
               phi_alpha_face=0.5 * (au1[0] + au1[1]), p_i=p_i)


def _f_from_phi(phi, p_i, a1_face):
    """F-flux of the non-conservative form, in place of the local flux
    ``phi``, whose slot 0 is the face value of alpha1 u1."""
    phi[..., 2] += p_i * a1_face
    phi[..., 3] += p_i * phi[..., 0]
    phi[..., 5] += p_i * (1.0 - a1_face)
    phi[..., 6] -= p_i * phi[..., 0]
    return phi


def rusanov_local_flux(wl, wr, eos1, eos2, scratch=None):
    """Rusanov flux built on the locally conservative system; the F-flux
    of the non-conservative form is recovered by adding the frozen-p_i
    corrections.  Its side batch comes from ``scratch``."""
    w, v, phi, p_i, s_l, s_r = _sides(wl, wr, eos1, eos2, scratch)
    s = np.maximum(-s_l, s_r)
    phi_star = 0.5 * (phi[1] + phi[0] - s[..., None] * (v[1] - v[0]))
    # face volume fraction from the Rusanov intermediate state
    a1, au1 = v[..., 0], phi[..., 0]
    a1_star = 0.5 * (a1[1] + a1[0] - (au1[1] - au1[0]) / s)
    f = _f_from_phi(phi_star, p_i, a1_star)
    return Fan(f, s_l=s_l, s_r=s_r, alpha_face=a1_star,
               phi_alpha_face=f[..., 0], p_i=p_i)


def tp_hll_state(vl, vr, phil, phir, s_l, s_r, out=None):
    """(HLL state of the local system, into ``out``, S_M1, S_M2)."""
    u_hll = _euler.hll_state(vl, vr, phil, phir, s_l, s_r, out)
    for slot, name in ((1, "phase 1"), (4, "phase 2")):
        if np.count_nonzero(u_hll[..., slot] <= 0.0):
            raise PositivityError(
                f"non-positive HLL apparent density for {name}")
    return u_hll, u_hll[..., 2] / u_hll[..., 1], u_hll[..., 5] / u_hll[..., 4]


def _tp_psi(fan, wl, wr, om_l, om_r, beta, eos1, eos2, scratch=None):
    """Jump vector psi across the phase-1 contact wave of the HLL fan
    ``fan``, from the store ``scratch``; its energy slot 3 uses the star
    masses u_hll[1] -/+ om_r/om_l psi[1]."""
    u_hll, s_m1, s_m2, p_i = fan.u_hll, fan.s_m, fan.s_m2, fan.p_i
    a1l, a1r = wl[..., 0], wr[..., 0]
    m1l = a1l * wl[..., 1]
    m1r = a1r * wr[..., 1]
    d_a1 = beta * (a1r - a1l)
    d_m1 = beta * (m1r - m1l)
    g1 = eos1.gamma
    g2 = eos2.gamma
    psi = _buffer(scratch, "psi", np.broadcast(a1l, a1r).shape + (7,))
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
    # phase 2: alpha2 jumps by minus the phase-1 jump, the carrier density
    # is prolonged as rho2_bar = (ar)2 / (1 - alpha1) of the HLL state, and
    # the carrier has the single star velocity S_M2
    d_a2 = -d_a1
    rho2_bar = u_hll[..., 4] / (1.0 - u_hll[..., 0])
    psi[..., 4] = d_a2 * rho2_bar
    psi[..., 5] = d_a2 * rho2_bar * s_m2
    psi[..., 6] = d_a2 * (
        rho2_bar * (0.5 * s_m2 * s_m2 - s_m2 * (s_m2 - s_m1) / (g2 - 1.0))
        + (p_i + g2 * eos2.p_inf) / (g2 - 1.0))
    return psi


def rsir_reconstruct(fan, wl, wr, beta, eos1, eos2, scratch=None):
    """Split the HLL state of ``fan``, an HLL fan such as :func:`tp_hll_flux`
    returns, into two star states using the phase-1 contact jump
    conditions (mass/momentum first, then energy) and the prolonged
    carrier-density closure for phase 2.  psi and the star states come
    from the store ``scratch``.

    Returns (u_star_l, u_star_r, bad) where ``bad`` flags interfaces whose
    inadmissible reconstruction the caller's beta=0 fallback changes.
    """
    u_hll = fan.u_hll
    om_l, om_r = _weights(fan.s_l, fan.s_m, fan.s_r)
    psi = _tp_psi(fan, wl, wr, om_l, om_r, beta, eos1, eos2, scratch)
    shape = np.broadcast(u_hll, psi).shape
    u_star_l, u_star_r = (_buffer(scratch, role, shape)
                          for role in ("star left", "star right"))
    np.subtract(u_hll, np.multiply(om_r[..., None], psi, out=u_star_l),
                out=u_star_l)
    np.add(u_hll, np.multiply(om_l[..., None], psi, out=u_star_r),
           out=u_star_r)
    bad = np.zeros(np.shape(fan.s_m), dtype=bool)
    for star in (u_star_l, u_star_r):  # alpha2 = 1 - alpha1 passes with it
        bad |= (star[..., 0] < ALPHA_FLOOR) | (star[..., 0] > 1.0 - ALPHA_FLOOR)
        bad |= (star[..., 1] <= 0.0) | (star[..., 4] <= 0.0)
    if np.count_nonzero(bad):
        bad &= ((u_star_l != u_hll) | (u_star_r != u_hll)).any(axis=-1)
    return u_star_l, u_star_r, bad


def _tp_fan_common(wl, wr, eos1, eos2, scratch=None):
    """The side batch of each face and its HLL fan: (w, v, phi, fan),
    where both star states of ``fan`` are the HLL state and its face
    fields are left for :func:`_tp_build_fan`."""
    w, v, phi, p_i, s_l, s_r = _sides(wl, wr, eos1, eos2, scratch)
    u_hll, s_m1, s_m2 = tp_hll_state(v[0], v[1], phi[0], phi[1], s_l, s_r,
                                     _buffer(scratch, "u_hll", v.shape[1:]))
    return w, v, phi, Fan(s_l=s_l, s_m=s_m1, s_r=s_r, u_hll=u_hll,
                          u_star_l=u_hll, u_star_r=u_hll, p_i=p_i, s_m2=s_m2)


def _tp_build_fan(w, v, phi, fan, scratch):
    """Fill in the face fields of ``fan`` from its star states: the F-flux
    from the star flux of the face's side of the phase-1 contact, or a
    side's own F-flux at a supersonic face."""
    s_l, s_r = fan.s_l, fan.s_r
    flux = _star_flux(fan.u_star_l, fan.u_star_r, v, phi, s_l, fan.s_m, s_r,
                      _buffer(scratch, "star flux", v.shape[1:]))
    # the HLL state's volume fraction, sampled in the supersonic branches
    a1_face = fan.u_hll[..., 0]
    _f_from_phi(flux, fan.p_i, a1_face)
    # supersonic faces take a side's F-flux, built from its conserved
    # state (no second EOS pass) and only when some face needs it
    for k, sup in enumerate((s_l >= 0.0, s_r <= 0.0)):
        if np.count_nonzero(sup):
            a1_face = np.where(sup, w[k, ..., 0], a1_face)
            np.copyto(flux, _phi(w[k], v[k], 0.0), where=sup[..., None])
    # the face value of the alpha1-equation flux is the F-flux's slot 0
    fan.flux, fan.alpha_face, fan.phi_alpha_face = flux, a1_face, flux[..., 0]
    return fan


def tp_hll_flux(wl, wr, eos1, eos2, scratch=None):
    """Pure two-phase HLL flux: both star states are the HLL state array.
    Its batch arrays come from the store ``scratch``, if one is given."""
    return _tp_build_fan(*_tp_fan_common(wl, wr, eos1, eos2, scratch),
                         scratch)


def rsir_tp_flux(wl, wr, eos1, eos2, beta, scratch=None):
    """Two-phase internal-reconstruction flux with per-interface beta=0
    fallback when a reconstructed star state is inadmissible.  Its batch
    arrays come from the store ``scratch``, if one is given."""
    _check_beta(beta)
    w, v, phi, fan = _tp_fan_common(wl, wr, eos1, eos2, scratch)
    fan.u_star_l, fan.u_star_r, bad = rsir_reconstruct(fan, w[0], w[1], beta,
                                                       eos1, eos2, scratch)
    fan.n_fallback = int(np.count_nonzero(bad))
    if fan.n_fallback:
        np.copyto(fan.u_star_l, fan.u_hll, where=bad[..., None])
        np.copyto(fan.u_star_r, fan.u_hll, where=bad[..., None])
    return _tp_build_fan(w, v, phi, fan, scratch)
