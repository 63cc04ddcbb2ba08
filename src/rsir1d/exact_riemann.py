"""Exact Riemann solution for the Euler equations with ideal-gas or SG
EOS, used as a verification oracle only (never as a flux).

SG support comes from working in the shifted pressure pi = p + p_inf:
in that variable the shock and isentrope relations are those of an ideal
gas with the same gamma.
"""

from dataclasses import dataclass

import numpy as np

from . import eos as _eos

__all__ = ["VacuumError", "ExactSolution", "solve_exact", "sample", "l1_error"]

_MAX_ITER = 100


class VacuumError(ValueError):
    """Initial data generate vacuum; no oracle solution exists."""


@dataclass
class ExactSolution:
    p_star: float
    u_star: float
    rho_star_l: float
    rho_star_r: float
    wave_l: str  # "shock" | "rarefaction"
    wave_r: str
    wl: np.ndarray
    wr: np.ndarray
    eos: _eos.EosParams
    residual: float
    iterations: int


def _side_function(p, w, eos):
    """Pressure function f_K(p), its derivative and the star density
    rho*_K for one side: a shock if pi > pi_K, else a rarefaction."""
    g = eos.gamma
    rho, _, pk = w
    pi_k = pk + eos.p_inf
    pi = p + eos.p_inf
    if pi > pi_k:  # shock, Rankine-Hugoniot density
        a = 2.0 / ((g + 1.0) * rho)
        b = (g - 1.0) / (g + 1.0) * pi_k
        q = np.sqrt(a / (pi + b))
        f = (pi - pi_k) * q
        df = q * (1.0 - 0.5 * (pi - pi_k) / (pi + b))
        gr = (g - 1.0) / (g + 1.0)
        return f, df, rho * (pi / pi_k + gr) / (gr * pi / pi_k + 1.0)
    c = np.sqrt(g * pi_k / rho)
    f = 2.0 * c / (g - 1.0) * ((pi / pi_k) ** ((g - 1.0) / (2.0 * g)) - 1.0)
    df = (pi / pi_k) ** (-(g + 1.0) / (2.0 * g)) / (rho * c)
    return f, df, rho * (pi / pi_k) ** (1.0 / g)


def solve_exact(wl, wr, eos):
    """Exact (p*, u*) by Newton iteration on the pressure function, with a
    two-rarefaction initial guess and bisection fallback."""
    if eos.b != 0.0:
        raise ValueError("exact solver supports ideal/SG EOS only (b = 0)")
    wl = np.asarray(wl, dtype=float)
    wr = np.asarray(wr, dtype=float)
    g = eos.gamma
    rho_l, u_l, p_l = wl
    rho_r, u_r, p_r = wr
    cl = float(_eos.sound_speed(eos, rho_l, p_l))
    cr = float(_eos.sound_speed(eos, rho_r, p_r))
    if u_r - u_l >= 2.0 * (cl + cr) / (g - 1.0):
        raise VacuumError("initial velocity divergence creates vacuum")

    pi_l, pi_r = p_l + eos.p_inf, p_r + eos.p_inf
    # two-rarefaction guess in the shifted pressure
    z = (g - 1.0) / (2.0 * g)
    pi_tr = ((cl + cr - 0.5 * (g - 1.0) * (u_r - u_l))
             / (cl / pi_l**z + cr / pi_r**z)) ** (1.0 / z)
    p = max(pi_tr - eos.p_inf, -eos.p_inf + 1e-12 * max(pi_l, pi_r))

    tol, res_tol = 1e-12 * max(p_l, p_r, 1.0), 1e-10 * max(p_l, p_r, 1.0)
    # bisection bracket, expanded until the residual changes sign
    p_lo = -eos.p_inf + 1e-12 * max(pi_l, pi_r)
    p_hi = max(p_l, p_r)
    while (_side_function(p_hi, wl, eos)[0] + _side_function(p_hi, wr, eos)[0]
           + (u_r - u_l)) < 0.0:
        p_hi = 2.0 * p_hi + max(pi_l, pi_r)

    for it in range(1, _MAX_ITER + 1):
        fl, dfl, _ = _side_function(p, wl, eos)
        fr, dfr, _ = _side_function(p, wr, eos)
        res = fl + fr + (u_r - u_l)
        if res > 0.0:
            p_hi = min(p_hi, p)
        else:
            p_lo = max(p_lo, p)
        p_new = p - res / (dfl + dfr)
        if not (p_lo < p_new < p_hi):
            p_new = 0.5 * (p_lo + p_hi)
        done = abs(p_new - p) <= tol and abs(res) <= res_tol
        p = p_new
        if done:
            break
    else:
        if abs(res) > res_tol:
            raise RuntimeError("exact Riemann iteration failed to converge "
                               f"(residual {res!r})")

    fl, _, rho_star_l = _side_function(p, wl, eos)
    fr, _, rho_star_r = _side_function(p, wr, eos)
    wave_l, wave_r = ("shock" if p + eos.p_inf > w[2] + eos.p_inf
                      else "rarefaction" for w in (wl, wr))
    return ExactSolution(
        p_star=float(p), u_star=float(0.5 * (u_l + u_r) + 0.5 * (fr - fl)),
        rho_star_l=float(rho_star_l), rho_star_r=float(rho_star_r),
        wave_l=wave_l, wave_r=wave_r, wl=wl, wr=wr, eos=eos,
        residual=float(abs(res)), iterations=it,
    )


def sample(sol, xi):
    """Self-similar solution at xi = x/t; vectorized over xi.

    Returns primitive states of shape xi.shape + (3,).  Points left of the
    contact (xi < u*) take the left wave; the others take the right wave
    as the left wave of the mirrored problem (u -> -u, xi -> -xi), whose
    formulas and region bounds negate exactly in IEEE arithmetic.
    """
    xi = np.asarray(xi, dtype=float)
    eos = sol.eos
    g = eos.gamma
    out = np.empty(xi.shape + (3,), dtype=float)
    pi_s = sol.p_star + eos.p_inf
    right = xi >= sol.u_star
    for s, x, side, w, rho_star, wave in (
            (1.0, xi, ~right, sol.wl, sol.rho_star_l, sol.wave_l),
            (-1.0, -xi, right, sol.wr, sol.rho_star_r, sol.wave_r)):
        rho_k, u_k, p_k = w
        u_k = s * u_k
        c_k = float(_eos.sound_speed(eos, rho_k, p_k))
        pi_k = p_k + eos.p_inf
        if wave == "shock":
            head = tail = u_k - c_k * np.sqrt(
                (g + 1.0) / (2.0 * g) * pi_s / pi_k + (g - 1.0) / (2.0 * g))
        else:
            head = u_k - c_k
            tail = s * sol.u_star - float(
                _eos.sound_speed(eos, rho_star, sol.p_star))
        # data state up to the head, star state past the tail; the data
        # and star rows are written unmirrored
        out[side & (x <= head)] = w
        out[side & (x > tail)] = [rho_star, sol.u_star, sol.p_star]
        if wave == "rarefaction":
            fan = side & (x > head) & (x <= tail)
            xf = x[fan]
            c = (2.0 / (g + 1.0)) * (c_k + 0.5 * (g - 1.0) * (u_k - xf))
            pi = pi_k * (c / c_k) ** (2.0 * g / (g - 1.0))
            # s * xf + s * c, not s * (xf + c): a sonic zero keeps its sign
            out[fan] = np.stack([g * pi / (c * c), s * xf + s * c,
                                 pi - eos.p_inf], axis=-1)
    return out


def l1_error(numerical, sol, t, centers, x0=0.0, component=None):
    """Discrete L1 distance sum_i |q_i - q_exact((x_i - x0)/t)| dx.

    numerical : cell-averaged field, shape (n,) or (n, 3) primitives
    centers   : cell-center coordinates, shape (n,)
    component : index into the primitive vector when numerical is (n,)
    """
    if t <= 0.0:
        raise ValueError("l1_error requires t > 0")
    centers = np.asarray(centers, dtype=float)
    dx = centers[1] - centers[0]
    exact = sample(sol, (centers - x0) / t)
    numerical = np.asarray(numerical, dtype=float)
    if numerical.ndim == 1:
        exact = exact[:, component]
    return float(np.sum(np.abs(numerical - exact)) * dx)
