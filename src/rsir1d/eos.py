"""Thermodynamic closures: ideal gas, stiffened gas (SG) and Noble-Abel
stiffened gas (NASG).

A single parameter record covers all three families:

    p(rho, e) = (gamma - 1) rho e / (1 - rho b) - gamma p_inf

b = 0 recovers SG, b = 0 and p_inf = 0 recovers the ideal gas.  All
functions are vectorized over numpy arrays and raise ``EosDomainError``
outside the convexity region instead of clamping.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EosParams",
    "EosDomainError",
    "PRESETS",
    "preset",
    "pressure",
    "internal_energy",
    "sound_speed",
    "entropy",
]


class EosDomainError(ValueError):
    """State outside the admissible (convex) region of the EOS."""


@dataclass(frozen=True)
class EosParams:
    """Constants of the NASG pressure law.

    gamma : ratio of specific heats, > 1
    p_inf : pressure offset [Pa], >= 0 (0 for ideal gas)
    b     : covolume [m^3/kg], >= 0 (0 for ideal gas and SG)
    """

    gamma: float
    p_inf: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not 0.0 <= self.p_inf < np.inf:
            raise ValueError(f"p_inf must be finite, >= 0, got {self.p_inf}")
        if not 0.0 <= self.b < np.inf:
            raise ValueError(f"covolume b must be finite, >= 0, got {self.b}")


PRESETS = {
    "air-ideal": EosParams(gamma=1.4),
    "water-sg": EosParams(gamma=4.4, p_inf=6.0e8),
    "water-nasg": EosParams(gamma=4.4, p_inf=6.0e8, b=5.0e-5),
}


def preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown EOS preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def _covolume_factor(eos, rho):
    """1 - rho*b, raising if the covolume saturates."""
    rho = np.asarray(rho, dtype=float)
    fac = rho * -eos.b
    fac += 1.0  # 1 - rho*b bit for bit, without a second temporary
    bad = fac <= 0.0
    if np.count_nonzero(bad):
        raise EosDomainError(
            f"covolume saturation: 1 - rho*b <= 0 at rho = "
            f"{float(np.max(rho[bad]))!r}"
        )
    return fac


# With b = 0 the covolume factor is exactly 1, so the functions below skip
# it: its check cannot fire and multiplying or dividing by 1.0 is exact.
# With p_inf = 0 they skip its term: x - 0.0 is x, and so is x + 0.0 but at
# x = -0.0, whose e and c^2 stay -0.0 (the same 0.5 u^2 + e, the same error).

def pressure(eos, rho, e, out=None):
    """Pressure from density and specific internal energy [Pa], into out."""
    p = np.multiply(np.multiply(eos.gamma - 1.0, rho, out=out), e, out=out)
    if eos.b:
        p = np.divide(p, _covolume_factor(eos, rho), out=out)
    return np.subtract(p, eos.gamma * eos.p_inf, out=out) if eos.p_inf else p


def internal_energy(eos, rho, p):
    """Specific internal energy from density and pressure [J/kg].

    Exact analytic inverse of :func:`pressure`.
    """
    num = (np.add(p, eos.gamma * eos.p_inf) if eos.p_inf
           else np.asarray(p, float))
    if eos.b:
        num = num * _covolume_factor(eos, rho)
    return num / np.multiply(eos.gamma - 1.0, rho)


def _sound_speed_sq(eos, rho, p):
    """Checked squared sound speed; NASG has the factor 1/(1 - rho b)."""
    den = rho * _covolume_factor(eos, rho) if eos.b else rho
    pi = np.add(p, eos.p_inf) if eos.p_inf else np.asarray(p, float)
    c2 = eos.gamma * pi / den
    if np.count_nonzero(c2 <= 0.0):
        raise EosDomainError(
            f"non-positive squared sound speed (min c^2 = "
            f"{float(np.min(c2))!r}); state outside convexity region"
        )
    return c2


def sound_speed(eos, rho, p):
    """Speed of sound [m/s]."""
    return np.sqrt(_sound_speed_sq(eos, rho, p))


def entropy(eos, rho, p):
    """Diagnostic specific entropy, SG convention:

        s = ln((p + p_inf) * v**gamma),  v = 1/rho - b

    Defined up to a factor c_v and a constant; isentropes are its level sets.
    """
    rho = np.asarray(rho, float)
    _covolume_factor(eos, rho)
    v = 1.0 / rho - eos.b
    pi = np.asarray(p, float) + eos.p_inf
    if np.count_nonzero(pi <= 0.0):
        raise EosDomainError(
            f"p + p_inf must be positive (min {float(np.min(pi))!r})")
    return np.log(pi) + eos.gamma * np.log(v)
