"""Single-phase Euler flux kernels.

States are numpy arrays with a trailing component axis of size 3:
primitive (rho, u, p) and conserved (rho, rho*u, rho*E).  All flux
functions are vectorized over any number of interfaces, so a batch of
shape (n, 3) evaluates n Riemann fans at once.

Interface solvers: Rusanov, HLL, HLLC, the original Linde two-state
reconstruction, and the internal-reconstruction solver with the
quasi-isentropic contact closure, one kernel for ideal gas, SG and NASG.
"""

from dataclasses import dataclass

import numpy as np

from . import eos as _eos
from .eos import EosDomainError

__all__ = [
    "DegenerateFanError",
    "PositivityError",
    "Fan",
    "cons_from_prim",
    "prim_from_cons",
    "cons_and_flux",
    "hll_state",
    "contact_speed",
    "rusanov_flux",
    "hll_flux",
    "linde_flux",
    "rsir_flux",
    "hllc_flux",
]


class DegenerateFanError(ValueError):
    """Left and right wave speed estimates collapsed (S_L = S_R)."""


class PositivityError(ValueError):
    """A reconstructed star state left the admissible region."""


@dataclass
class Fan:
    """Per-interface record of all nine interface solvers, both models.

    flux : sampled interface flux (two-phase: F of the non-conservative
           form)
    n_fallback : interfaces whose inadmissible reconstructed star state
                 was replaced by a different HLL one
    s_l, s_m, s_r : wave speeds; s_m, the contact that the star states
                    straddle (phase 1's), is None for Rusanov
    u_hll, u_star_l, u_star_r : HLL and star states (None for Rusanov)
    alpha_face, phi_alpha_face : face values of alpha1 and of alpha1 u1
                                 that the two-phase H-terms read
    p_i, s_m2 : frozen interfacial pressure and carrier star velocity of
                the two-phase model (None for Euler)
    """

    flux: np.ndarray = None
    n_fallback: int = 0
    s_l: np.ndarray = None
    s_m: np.ndarray = None
    s_r: np.ndarray = None
    u_hll: np.ndarray = None
    u_star_l: np.ndarray = None
    u_star_r: np.ndarray = None
    alpha_face: np.ndarray = None
    phi_alpha_face: np.ndarray = None
    p_i: np.ndarray = None
    s_m2: np.ndarray = None


# by ndim, the axis orders of _component_major and of _rows
_AXES = tuple(((*range(1, n), 0), (n - 1, *range(n - 1))) for n in range(65))


def _component_major(a):
    """View ``a``, of shape (k,) + shape, as shape + (k,): the layout of
    every state array, in which each component is one contiguous block."""
    return a.transpose(_AXES[a.ndim][0])


def _rows(out, shape):
    """The component rows, shape (k,) + shape[:-1], of ``out`` or, if it
    is None, of a new component-major array of ``shape`` = (..., k)."""
    if out is None:
        return np.empty(shape[-1:] + shape[:-1])
    return out.transpose(_AXES[out.ndim][1])


def _buffer(scratch, role, shape):
    """A component-major array of ``shape``: a new one without a store, else
    the one that the per-run store ``scratch`` keeps for ``role``."""
    if scratch is None:
        return _component_major(_rows(None, shape))
    buf = scratch.get((role, shape))
    if buf is None:
        buf = scratch[role, shape] = _buffer(None, role, shape)
    return buf


def _stack_last(columns):
    """Stack equally shaped arrays along a new trailing axis."""
    return _component_major(np.array(columns, dtype=float))


def cons_from_prim(w, eos, out=None):
    """(rho, u, p) -> (rho, rho u, rho E) with E = e + u^2/2, into ``out``."""
    w = np.asarray(w, dtype=float)
    rho, u, p = w[..., 0], w[..., 1], w[..., 2]
    if np.count_nonzero(rho <= 0.0):
        raise EosDomainError(f"non-positive density (min {float(np.min(rho))!r})")
    cols = _rows(out, w.shape)  # one row per column
    cols[0] = rho
    np.multiply(rho, u, out=cols[1, ...])
    etot = np.multiply(0.5, u, out=cols[2, ...])
    etot *= u
    etot += _eos.internal_energy(eos, rho, p)
    etot *= rho
    return _component_major(cols)


def prim_from_cons(uc, eos, out=None):
    """Inverse of :func:`cons_from_prim`, into ``out``."""
    uc = np.asarray(uc, dtype=float)
    rho = uc[..., 0]
    if np.count_nonzero(rho <= 0.0):
        raise EosDomainError(f"non-positive density (min {float(np.min(rho))!r})")
    cols = _rows(out, uc.shape)
    cols[0] = rho
    u, p = np.divide(uc[..., 1], rho, out=cols[1, ...]), cols[2, ...]
    e = uc[..., 2] / rho
    e -= np.multiply(np.multiply(0.5, u, out=p), u, out=p)
    _eos.pressure(eos, rho, e, out=p)
    if np.count_nonzero(p <= -eos.p_inf):  # p + p_inf <= 0, without the sum
        raise EosDomainError(
            f"recovered pressure below -p_inf (min p = {float(np.min(p))!r})"
        )
    return _component_major(cols)


def cons_and_flux(w, eos, out=(None, None)):
    """(U, F(U) = (rho u, rho u^2 + p, (rho E + p) u)) of primitive states,
    into the pair ``out``, sharing one internal-energy evaluation."""
    uc = cons_from_prim(w, eos, out[0])
    w = np.asarray(w, dtype=float)
    u, p, ru, etot = w[..., 1], w[..., 2], uc[..., 1], uc[..., 2]
    cols = _rows(out[1], uc.shape)
    cols[0] = ru
    np.add(np.multiply(ru, u, out=cols[1, ...]), p, out=cols[1, ...])
    np.multiply(np.add(etot, p, out=cols[2, ...]), u, out=cols[2, ...])
    return uc, _component_major(cols)


def hll_state(ul, ur, fl, fr, s_l, s_r, out=None):
    """Single intermediate state from integral consistency, into ``out``:

        U*_HLL = (F_R - F_L + S_L U_L - S_R U_R) / (S_L - S_R)
    """
    den = np.subtract(s_l, s_r, dtype=float)
    if np.count_nonzero(den >= 0.0):  # S_R - S_L <= 0, negated exactly
        raise DegenerateFanError("degenerate fan: S_L >= S_R")
    u_hll = np.subtract(fr, fl, dtype=float, out=out)
    u_hll += np.asarray(s_l, float)[..., None] * np.asarray(ul, float)
    u_hll -= np.asarray(s_r, float)[..., None] * np.asarray(ur, float)
    u_hll /= den[..., None]
    return u_hll


def contact_speed(wl, wr, s_l, s_r):
    """Contact wave speed S_M from the Rankine-Hugoniot conditions across
    the two exterior waves (same estimate as HLLC)."""
    wl = np.asarray(wl, float)
    wr = np.asarray(wr, float)
    rho_l, u_l, p_l = wl[..., 0], wl[..., 1], wl[..., 2]
    rho_r, u_r, p_r = wr[..., 0], wr[..., 1], wr[..., 2]
    ml = rho_l * (s_l - u_l)
    mr = rho_r * (s_r - u_r)
    den = ml - mr
    if np.count_nonzero(den == 0.0):
        raise DegenerateFanError("vanishing denominator in contact speed")
    return (p_r - p_l + u_l * ml - u_r * mr) / den


def rusanov_flux(wl, wr, eos):
    """Rusanov fan without contact or star states: its flux takes S =
    max(|u| + c) over both states, which is max(-S_L, S_R) of the Davis
    bounds."""
    _, uc, f, _, s_l, s_r = _sides(wl, wr, eos)
    s = np.maximum(-s_l, s_r)[..., None]
    flux = 0.5 * (f[1] + f[0] - s * (uc[1] - uc[0]))
    return Fan(flux, s_l=s_l, s_r=s_r)


def _star_flux(u_star_l, u_star_r, uc, f, s_l, s_m, s_r, out=None):
    """Star flux F + S (U* - U) of each face's side of S_M (the left one at
    S_M = 0), selected from the side batches ``uc`` and ``f``; into ``out``."""
    left = (s_m >= 0.0)[..., None]
    single = u_star_l is u_star_r  # one star state array: nothing to select
    star = u_star_l if single else np.where(left, u_star_l, u_star_r)
    out = np.subtract(star, np.where(left, uc[0], uc[1]),
                      out=star if out is None and not single else out)
    out *= np.where(left[..., 0], s_l, s_r)[..., None]
    out += np.where(left, f[0], f[1])
    return out


def _sides(wl, wr, eos):
    """Both sides as one batch, left at index 0: (primitives, conserved,
    fluxes) of shape (2, ..., 3), c^2 of shape (2, ...), and the Davis
    bounds S_L = min(u_L - c_L, u_R - c_R), S_R = max(u_L + c_L, u_R + c_R)."""
    w = _component_major(np.empty((3, 2) + np.broadcast(wl, wr).shape[:-1]))
    w[0], w[1] = wl, wr
    c2 = _eos._sound_speed_sq(eos, w[..., 0], w[..., 2])
    uc, f = cons_and_flux(w, eos)
    c = np.sqrt(c2)
    lo, hi = w[..., 1] - c, w[..., 1] + c
    return w, uc, f, c2, np.minimum(lo[0], lo[1]), np.maximum(hi[0], hi[1])


def _fan_common(wl, wr, eos):
    """The side batch of each face and its HLL fan: (w, uc, f, c^2, fan),
    where both star states of ``fan`` are its HLL state."""
    w, uc, f, c2, s_l, s_r = _sides(wl, wr, eos)
    u_hll = hll_state(uc[0], uc[1], f[0], f[1], s_l, s_r)
    return w, uc, f, c2, Fan(s_l=s_l, s_m=contact_speed(w[0], w[1], s_l, s_r),
                             s_r=s_r, u_hll=u_hll, u_star_l=u_hll,
                             u_star_r=u_hll)


def _build_fan(uc, f, fan):
    """Fill in ``fan.flux``: F_L where S_L >= 0, F_R where S_R <= 0, else
    the star flux."""
    s_l, s_r = fan.s_l, fan.s_r
    flux = _star_flux(fan.u_star_l, fan.u_star_r, uc, f, s_l, fan.s_m, s_r)
    for sup, side in ((s_l >= 0.0, f[0]), (s_r <= 0.0, f[1])):
        if np.count_nonzero(sup):
            np.copyto(flux, side, where=sup[..., None])
    fan.flux = flux
    return fan


def hll_flux(wl, wr, eos):
    """HLL solver written as the beta = 0 member of the reconstruction
    family: both star states equal U*_HLL, fluxes through the per-wave
    Rankine-Hugoniot relations, same sampling as the two-state solvers."""
    _, uc, f, _, fan = _fan_common(wl, wr, eos)
    return _build_fan(uc, f, fan)


def _check_beta(beta):
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0,1], got {beta}")


def linde_flux(wl, wr, eos, beta):
    """Original Linde reconstruction: U_R* - U_L* = beta (U_R - U_L)."""
    _check_beta(beta)
    _, uc, f, _, fan = _fan_common(wl, wr, eos)
    om_l, om_r = _weights(fan.s_l, fan.s_m, fan.s_r)
    jump = beta * (uc[1] - uc[0])
    fan.u_star_l = fan.u_hll - om_r[..., None] * jump
    fan.u_star_r = fan.u_hll + om_l[..., None] * jump
    return _build_fan(uc, f, fan)


def _weights(s_l, s_m, s_r):
    den = s_r - s_l
    return (s_m - s_l) / den, (s_r - s_m) / den


def rsir_flux(wl, wr, eos, beta):
    """Internal reconstruction with the quasi-isentropic contact closure,
    for every EOS of the NASG family (SG and the ideal gas at b = 0):

        psi = beta [rho_R - rho_L + (p_L - p_R)/cbar^2]
        U_L* = U*_HLL - omega_R psi Lambda,  U_R* = U*_HLL + omega_L psi Lambda
        Lambda = (1, S_M, S_M^2/2 - b (p* + gamma p_inf)/(gamma - 1))

    The last term of Lambda is rho_R* e_R* - rho_L* e_L* per unit density
    jump, taken at the contact pressure p*, the average of the per-side
    estimates p_k + c_k^2 (rho_k* - rho_k); with b = 0, rho e depends on p
    alone and the term vanishes.  Interfaces with an inadmissible star
    state (rho* <= 0; for b > 0 also p* + p_inf <= 0 or rho* b >= 1) get
    the HLL (beta = 0) star state, and are counted in ``n_fallback`` if
    that changes their star states.
    """
    _check_beta(beta)
    w, uc, f, c2, fan = _fan_common(wl, wr, eos)
    u_hll, s_m = fan.u_hll, fan.s_m
    om_l, om_r = _weights(fan.s_l, s_m, fan.s_r)
    rho_l, rho_r, cl2 = w[0, ..., 0], w[1, ..., 0], c2[0]
    p_l, p_r, cr2 = w[0, ..., 2], w[1, ..., 2], c2[1]
    psi = beta * (rho_r - rho_l + (p_l - p_r) / (0.5 * (cl2 + cr2)))
    lam_e = 0.5 * s_m * s_m
    if eos.b:
        rho_star_l = u_hll[..., 0] - om_r * psi
        rho_star_r = u_hll[..., 0] + om_l * psi
        p_star = 0.5 * (p_l + cl2 * (rho_star_l - rho_l)
                        + p_r + cr2 * (rho_star_r - rho_r))
        saturated = ((p_star + eos.p_inf <= 0.0) | (rho_star_l * eos.b >= 1.0)
                     | (rho_star_r * eos.b >= 1.0))
        lam_e -= eos.b * (p_star + eos.gamma * eos.p_inf) / (eos.gamma - 1.0)
    jump = _stack_last((psi, psi * s_m, psi * lam_e))
    fan.u_star_l = u_star_l = u_hll - om_r[..., None] * jump
    fan.u_star_r = u_star_r = u_hll + om_l[..., None] * jump
    bad = (u_star_l[..., 0] <= 0.0) | (u_star_r[..., 0] <= 0.0)
    if eos.b:
        bad |= saturated
    if np.count_nonzero(bad):
        bad &= ((u_star_l != u_hll) | (u_star_r != u_hll)).any(axis=-1)
        u_star_l[bad] = u_hll[bad]
        u_star_r[bad] = u_hll[bad]
    fan.n_fallback = int(np.count_nonzero(bad))
    return _build_fan(uc, f, fan)


def hllc_flux(wl, wr, eos):
    """Standard HLLC star states (comparison baseline)."""
    w, uc, f, _, fan = _fan_common(wl, wr, eos)
    s, s_m = np.array((fan.s_l, fan.s_r)), fan.s_m
    rho, u, p = w[..., 0], w[..., 1], w[..., 2]
    fac = rho * (s - u) / (s - s_m)
    energy = uc[..., 2] / rho + (s_m - u) * (s_m + p / (rho * (s - u)))
    fan.u_star_l, fan.u_star_r = _stack_last((fac, fac * s_m, fac * energy))
    return _build_fan(uc, f, fan)
