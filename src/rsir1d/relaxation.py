"""Source-term operators applied after each hyperbolic step: stiff
(instantaneous) pressure relaxation, constant-coefficient velocity
relaxation, and Clift-Gauvin drag.

All operators work on batches of 7-component two-phase conserved states,
conserve each phase mass exactly, and conserve mixture momentum and
mixture total energy to round-off.
"""

from dataclasses import dataclass

import numpy as np

from . import twophase as _tp

__all__ = [
    "RelaxationError",
    "RelaxReport",
    "pressure_relax_stiff",
    "velocity_relax",
    "clift_gauvin_cd",
    "drag_clift_gauvin",
]


class RelaxationError(RuntimeError):
    """Pressure relaxation found no admissible equilibrium root."""


@dataclass
class RelaxReport:
    """What one :func:`pressure_relax_stiff` call did. The root is closed
    form, so ``iterations`` is always 0; it stays only because the
    benchmark tracer (``perfbench/tracer.py``) reads it."""
    p_eq: np.ndarray
    iterations: int
    residual: float          # max relative |p1 - p2| after relaxation
    conservation_defect: float  # max relative mixture-energy drift


def pressure_relax_stiff(uc, w, eos1, eos2):
    """Instantaneous pressure equilibration (SG/ideal phases) of conserved
    states ``uc`` with primitives ``w`` (``tp_prim_from_cons(uc)``).

    Phase masses and momenta are untouched; conserving them and exchanging
    interface-pressure work moves alpha_k by k_k (p_k - p)/(p + p_inf_k),
    with k_k = alpha_k/gamma_k, and e_k by -p (alpha_k' - alpha_k).
    Saturation (the two moves cancel) is a quadratic in p whose larger root
    is p_eq; :class:`RelaxationError` is raised unless p_eq > -min(p_inf).
    Returns new arrays (relaxed state, RelaxReport, its primitives); the
    primitives are :func:`twophase.tp_prim_from_cons` of the relaxed
    state, so its alpha1 clamp and p_k > -p_inf check apply.
    """
    if eos1.b != 0.0 or eos2.b != 0.0:
        raise ValueError("pressure relaxation supports SG/ideal phases only")
    uc_in = np.asarray(uc, dtype=float)
    uc = uc_in.reshape(-1, 7)
    w = np.asarray(w, dtype=float).reshape(-1, 7)
    a1, p1, p2 = w[:, 0], w[:, 3], w[:, 6]
    pi1, pi2 = eos1.p_inf, eos2.p_inf
    k1 = a1 / eos1.gamma
    k2 = (1.0 - a1) / eos2.gamma
    # (k1 + k2) p^2 + b p + c = 0; q takes the sign of b so that nothing
    # cancels, and the roots are q/(k1 + k2) and c/q
    b = k1 * (pi2 - p1) + k2 * (pi1 - p2)
    c = -(k1 * p1 * pi2 + k2 * p2 * pi1)
    q = -0.5 * (b + np.copysign(
        np.sqrt(np.maximum(b * b - 4.0 * (k1 + k2) * c, 0.0)), b))
    p_eq = np.maximum(q / (k1 + k2), c / q)
    if not np.all(p_eq > -min(pi1, pi2)):
        raise RelaxationError("no admissible pressure-equilibrium root")
    out = np.copy(uc)
    da1 = k1 * (p1 - p_eq) / (p_eq + pi1)
    a1p = np.add(a1, da1, out=out[:, 0])
    out[:, 3] -= p_eq * da1
    out[:, 6] -= p_eq * (k2 * (p2 - p_eq) / (p_eq + pi2))
    del k1, k2, b, c, q, da1  # free these before the recovery
    w_out = _tp.tp_prim_from_cons(out, eos1, eos2)
    p1, p2 = w_out[:, 3], w_out[:, 6]
    # a clamped alpha1, not the relaxation, sets the pressures of its cells
    gap = np.abs(p1 - p2)
    gap[w_out[:, 0] != a1p] = 0.0
    residual = float(np.max(gap / (np.maximum(np.abs(p1), np.abs(p2))
                                   + 1e-300)))
    e_before = uc[:, 3] + uc[:, 6]
    e_after = out[:, 3] + out[:, 6]
    defect = float(np.max(np.abs(e_after - e_before)
                          / (np.abs(e_before) + 1e-300)))
    report = RelaxReport(p_eq=p_eq.reshape(uc_in.shape[:-1]), iterations=0,
                         residual=residual, conservation_defect=defect)
    return out.reshape(uc_in.shape), report, w_out.reshape(uc_in.shape)


def _apply_velocity_update(uc, factor):
    """Relax the velocity difference of ``uc`` by ``factor`` in place and
    return it; interface velocity u1 means the dissipated kinetic energy
    heats the carrier phase."""
    m1, q1 = uc[..., 1], uc[..., 2]
    m2, q2 = uc[..., 4], uc[..., 5]
    u1 = q1 / m1
    u2 = q2 / m2
    u_mix = (q1 + q2) / (m1 + m2)
    du = (u2 - u1) * factor
    u1p = u_mix - m2 * du / (m1 + m2)
    u2p = u_mix + m1 * du / (m1 + m2)
    # phase 1 stays on its internal-energy level; phase 2 takes the rest
    en = uc[..., 3] + uc[..., 6]
    e1 = uc[..., 3] / m1 - 0.5 * u1 * u1
    uc[..., 2] = m1 * u1p
    uc[..., 5] = m2 * u2p
    uc[..., 3] = m1 * (e1 + 0.5 * u1p * u1p)
    uc[..., 6] = en - uc[..., 3]
    return uc


def velocity_relax(uc, lam, dt):
    """Constant-coefficient drag: analytic exponential decay of u2 - u1."""
    if lam < 0.0:
        raise ValueError("drag coefficient lambda must be >= 0")
    uc = np.array(uc, dtype=float, order="K")
    if lam == 0.0 or dt == 0.0:
        return uc
    m1, m2 = uc[..., 1], uc[..., 4]
    factor = np.exp(-lam * dt * (1.0 / m1 + 1.0 / m2))
    return _apply_velocity_update(uc, factor)


def clift_gauvin_cd(re):
    """Sphere drag coefficient; piecewise rule kept exactly as published
    (the two branches do not meet at Re = 800)."""
    re = np.asarray(re, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        low = 24.0 / re * (1.0 + 0.15 * re ** 0.687)
    return np.where(re < 800.0, low, 0.438)


def drag_clift_gauvin(uc, radius, mu2, dt):
    """Clift-Gauvin drag over one step, sub-cycled with the drag
    coefficient frozen inside each internal step.

    radius : particle radius R1 [m]
    mu2    : carrier dynamic viscosity [Pa s]
    """
    if radius <= 0.0 or mu2 <= 0.0:
        raise ValueError("radius and viscosity must be positive")
    uc = np.array(uc, dtype=float, order="K")
    # clamped as tp_prim_from_cons clamps it, so that rho2 stays positive
    a1 = np.clip(uc[..., 0], _tp.ALPHA_FLOOR, 1.0 - _tp.ALPHA_FLOOR)
    remaining = dt
    steps = 0
    while remaining > 0.0:
        m1, q1 = uc[..., 1], uc[..., 2]
        m2, q2 = uc[..., 4], uc[..., 5]
        u1 = q1 / m1
        u2 = q2 / m2
        rho2 = m2 / (1.0 - a1)
        du = np.abs(u2 - u1)
        re = 2.0 * radius * rho2 * du / mu2
        cd = clift_gauvin_cd(re)
        # F_D = lam_eff (u2 - u1); cd diverges as Re -> 0 but cd*du -> 0,
        # so the product is forced to its limit at vanishing slip
        lam_eff = np.where(
            du > 0.0, 3.0 / (8.0 * radius) * a1 * np.where(du > 0.0, cd, 0.0)
            * rho2 * du, 0.0)
        tau = 1.0 / (np.max(lam_eff * (1.0 / m1 + 1.0 / m2)) + 1e-300)
        # the 10 000th sub-step takes the rest of dt, whatever its size
        sub_dt = remaining if steps == 9_999 else min(remaining, 0.2 * tau)
        factor = np.exp(-lam_eff * sub_dt * (1.0 / m1 + 1.0 / m2))
        _apply_velocity_update(uc, factor)
        remaining -= sub_dt
        steps += 1
    return uc
