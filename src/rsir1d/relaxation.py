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
    p_eq: np.ndarray
    iterations: int
    residual: float          # max relative |p1 - p2| after relaxation
    conservation_defect: float  # max relative mixture-energy drift


def _saturation_residual(p, coeffs, eos1, eos2):
    A1, B1, A2, B2 = coeffs
    return ((A1 + B1 * p) / (p + eos1.p_inf)
            + (A2 + B2 * p) / (p + eos2.p_inf) - 1.0)


def _equilibrium_pressure(coeffs, p1, p2, eos1, eos2):
    """(p_eq, bisection iterations): the admissible root of the saturation
    quadratic, refined by bisection where the closed form is unusable."""
    A1, B1, A2, B2 = coeffs
    pi1, pi2 = eos1.p_inf, eos2.p_inf
    qa = B1 + B2 - 1.0
    qb = A1 + A2 + B1 * pi2 + B2 * pi1 - pi1 - pi2
    qc = A1 * pi2 + A2 * pi1 - pi1 * pi2
    disc = qb * qb - 4.0 * qa * qc
    bad = disc < 0.0
    sq = np.sqrt(np.where(bad, 0.0, disc))
    # qa < 0 always (sum of B_k < 1); the admissible branch is the larger root
    r1 = (-qb - sq) / (2.0 * qa)
    r2 = (-qb + sq) / (2.0 * qa)
    p_floor = -min(pi1, pi2)
    p_eq = np.where(r1 > p_floor, r1, r2)
    iters = 0

    admissible = (~bad) & (p_eq > p_floor) \
        & (np.abs(_saturation_residual(p_eq, coeffs, eos1, eos2)) < 1e-9)
    if not np.all(admissible):
        # safeguarded bisection on the saturation residual
        idx = ~admissible
        lo = np.full(np.count_nonzero(idx), p_floor + 1e-30)
        hi = np.maximum(p1[idx], p2[idx]) + 1.0
        sub = tuple(c[idx] for c in coeffs)
        for _ in range(200):
            if np.all(_saturation_residual(hi, sub, eos1, eos2) < 0.0):
                break
            hi *= 2.0
        if np.any(_saturation_residual(lo, sub, eos1, eos2) < 0.0):
            raise RelaxationError("no admissible pressure-equilibrium root")
        for iters in range(1, 200):
            mid = 0.5 * (lo + hi)
            gm = _saturation_residual(mid, sub, eos1, eos2)
            lo = np.where(gm > 0.0, mid, lo)
            hi = np.where(gm <= 0.0, mid, hi)
            if np.max(hi - lo) <= 1e-14 * np.max(np.abs(hi) + 1.0):
                break
        p_eq = np.where(idx, 0.0, p_eq)
        p_eq[idx] = 0.5 * (lo + hi)
    return p_eq, iters


def pressure_relax_stiff(uc, w, eos1, eos2):
    """Instantaneous pressure equilibration (SG/ideal phases) of conserved
    states ``uc`` with primitives ``w`` (``tp_prim_from_cons(uc)``).

    Phase masses and momenta are untouched; phase internal energies are
    updated by interface-pressure work e_k' = e_k - p_eq (v_k' - v_k).
    Imposing the saturation constraint yields a quadratic in p_eq; the
    admissible root is refined by bisection when the closed form is
    unusable.  Returns new arrays (relaxed state, RelaxReport, its
    primitives); the primitives are :func:`twophase.tp_prim_from_cons` of
    the relaxed state, so its alpha1 clamp and p_k > -p_inf check apply.
    """
    if eos1.b != 0.0 or eos2.b != 0.0:
        raise ValueError("pressure relaxation supports SG/ideal phases only")
    uc_in = np.asarray(uc, dtype=float)
    uc = uc_in.reshape(-1, 7)
    w = np.asarray(w, dtype=float).reshape(-1, 7)
    a1 = w[:, 0]
    a2 = 1.0 - a1
    g1, g2 = eos1.gamma, eos2.gamma
    pi1, pi2 = eos1.p_inf, eos2.p_inf
    # alpha_k'(p) = (A_k + B_k p)/(p + p_inf_k) for SG/ideal phases, from
    # conserving phase masses and exchanging interface-pressure work
    coeffs = A1, B1, A2, B2 = (
        a1 * (w[:, 3] + g1 * pi1) / g1, a1 * (g1 - 1.0) / g1,
        a2 * (w[:, 6] + g2 * pi2) / g2, a2 * (g2 - 1.0) / g2)
    p_eq, iters = _equilibrium_pressure(coeffs, w[:, 3], w[:, 6], eos1, eos2)
    # new volume fractions at p_eq; each phase's energy takes the
    # interface-pressure work -p_eq (alpha_k' - alpha_k)
    out = np.copy(uc)
    a1p = np.divide(A1 + B1 * p_eq, p_eq + pi1, out=out[:, 0])
    out[:, 3] -= p_eq * (a1p - a1)
    out[:, 6] -= p_eq * ((A2 + B2 * p_eq) / (p_eq + pi2) - a2)
    del coeffs, A1, B1, A2, B2, a2  # free these before the recovery
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
    report = RelaxReport(p_eq=p_eq.reshape(uc_in.shape[:-1]),
                         iterations=iters, residual=residual,
                         conservation_defect=defect)
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
    a1 = uc[..., 0]
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
