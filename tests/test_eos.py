import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rsir1d import eos, euler, twophase


def test_presets_exist():
    air = eos.preset("air-ideal")
    assert air.gamma == 1.4 and air.p_inf == 0.0 and air.b == 0.0
    water = eos.preset("water-sg")
    assert water.gamma == 4.4 and water.p_inf == 6.0e8 and water.b == 0.0
    nasg = eos.preset("water-nasg")
    assert nasg.gamma == 4.4 and nasg.p_inf == 6.0e8 and nasg.b == 5.0e-5


def test_unknown_preset_lists_names():
    with pytest.raises(KeyError, match="air-ideal"):
        eos.preset("helium")


def test_parameter_validation():
    with pytest.raises(ValueError):
        eos.EosParams(gamma=1.0)
    with pytest.raises(ValueError):
        eos.EosParams(gamma=1.4, p_inf=-1.0)
    with pytest.raises(ValueError):
        eos.EosParams(gamma=1.4, b=-1e-6)


def test_ideal_gas_pressure_value():
    air = eos.preset("air-ideal")
    # p = (gamma-1) rho e: 0.4 * 1.2 * 2e5 = 9.6e4
    assert eos.pressure(air, 1.2, 2.0e5) == pytest.approx(9.6e4, rel=1e-14)


def test_pressure_energy_roundtrip(rng):
    for name in ("air-ideal", "water-sg", "water-nasg"):
        par = eos.preset(name)
        if par.p_inf > 0.0:
            rho = rng.uniform(700.0, 1400.0, size=200)
            p = 10.0 ** rng.uniform(3.0, 9.5, size=200)
        else:
            rho = 10.0 ** rng.uniform(-2.0, 1.5, size=200)
            p = 10.0 ** rng.uniform(2.0, 7.0, size=200)
        e = eos.internal_energy(par, rho, p)
        # the natural error scale is p + gamma p_inf (cancellation for
        # stiffened fluids at low pressure)
        p_rec = eos.pressure(par, rho, e)
        assert np.all(np.abs(p_rec - p)
                      <= 1e-12 * (p + par.gamma * par.p_inf))


def test_sg_sound_speed_value():
    water = eos.preset("water-sg")
    # c^2 = gamma (p + p_inf)/rho at rho=1000, p=1e5
    c_ref = np.sqrt(4.4 * (1e5 + 6e8) / 1000.0)
    assert eos.sound_speed(water, 1000.0, 1e5) == pytest.approx(c_ref, rel=1e-14)


def test_nasg_sound_speed_covolume_factor():
    nasg = eos.preset("water-nasg")
    rho, p = 1000.0, 1e5
    c2_ref = 4.4 * (p + 6e8) / (rho * (1.0 - rho * 5e-5))
    assert eos.sound_speed(nasg, rho, p) == pytest.approx(np.sqrt(c2_ref), rel=1e-14)


def test_covolume_saturation_raises():
    nasg = eos.preset("water-nasg")
    with pytest.raises(eos.EosDomainError, match="covolume"):
        eos.internal_energy(nasg, 2.1e4, 1e5)


def test_negative_sound_speed_raises():
    air = eos.preset("air-ideal")
    with pytest.raises(eos.EosDomainError):
        eos.sound_speed(air, 1.0, -10.0)


def test_entropy_constant_on_isentrope(rng):
    """rho varied along p = K (1/rho - b)^(-gamma) - p_inf keeps s fixed."""
    for name in ("air-ideal", "water-sg", "water-nasg"):
        par = eos.preset(name)
        rho0, p0 = (1000.0, 1e7) if par.p_inf else (1.0, 1e5)
        k = (p0 + par.p_inf) * (1.0 / rho0 - par.b) ** par.gamma
        rho = rho0 * rng.uniform(0.9, 1.1, size=50)
        p = k * (1.0 / rho - par.b) ** (-par.gamma) - par.p_inf
        s = eos.entropy(par, rho, p)
        s0 = eos.entropy(par, rho0, p0)
        assert np.allclose(s, s0, atol=1e-10 * max(1.0, abs(s0)))


def test_entropy_increases_with_pressure_at_fixed_density():
    air = eos.preset("air-ideal")
    assert eos.entropy(air, 1.0, 2e5) > eos.entropy(air, 1.0, 1e5)


AIR = eos.preset("air-ideal")
FINITE = st.floats(allow_nan=False, allow_infinity=False)  # +-0, subnormals
DENSITY = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
ZERO_P_INF = settings(max_examples=300, deadline=None, derandomize=True,
                      database=None)


def _is_minus_zero(x):
    return x == 0.0 and np.signbit(x)


@ZERO_P_INF
@given(DENSITY, FINITE, FINITE)
@example(1.0, -0.0, -0.0)
@example(1.2, 5e-324, -5e-324)
@example(5e-324, 1.0, -0.0)
def test_zero_p_inf_terms_are_skipped_exactly(rho, e, p):
    """With p_inf = 0 the EOS skips its p_inf terms.  The pressure equals
    the written-out formula bit for bit; e and c^2 differ from it only at
    p = -0.0, where e is -0.0 instead of +0.0 and the c^2 error quotes
    -0.0."""
    g, pi = AIR.gamma, AIR.p_inf
    assert pi == 0.0 and AIR.b == 0.0
    rho, e, p = (np.array([x]) for x in (rho, e, p))
    with np.errstate(all="ignore"):
        want_p = (g - 1.0) * rho * e - g * pi
        want_e = (p + g * pi) / ((g - 1.0) * rho)
        want_c2 = g * (p + pi) / rho
        assert eos.pressure(AIR, rho, e).tobytes() == want_p.tobytes()
        got_e = eos.internal_energy(AIR, rho, p)
        if _is_minus_zero(p[0]) and want_e[0] == 0.0:
            assert _is_minus_zero(got_e[0]) and not np.signbit(want_e[0])
        else:
            assert got_e.tobytes() == want_e.tobytes()
        if want_c2[0] > 0.0:
            got_c2 = eos._sound_speed_sq(AIR, rho, p)
            assert got_c2.tobytes() == want_c2.tobytes()
        else:
            quoted = ("-0.0" if _is_minus_zero(p[0])
                      else repr(float(want_c2[0])))
            with pytest.raises(eos.EosDomainError,
                               match=re.escape(f"(min c^2 = {quoted})")):
                eos._sound_speed_sq(AIR, rho, p)


@ZERO_P_INF
@given(DENSITY, FINITE, st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True))
@example(1.2, -0.0, 0.5)
def test_conserved_states_at_zero_pressure_keep_their_bits(rho, u, a1):
    """The sign of a zero pressure changes no conserved state: the energy
    0.5 u^2 + e turns e = -0.0 into the same +0.0 as the written-out
    formula gives, for Euler and for the ideal carrier of the two-phase
    model."""
    g = AIR.gamma
    water = eos.preset("water-sg")
    rho, u = np.float64(rho), np.float64(u)
    with np.errstate(all="ignore"):
        e = (0.0 + g * AIR.p_inf) / ((g - 1.0) * rho)
        want = np.array([[rho, rho * u, (0.5 * u * u + e) * rho]])
        tp = []
        for p in (0.0, -0.0):
            got = euler.cons_from_prim(np.array([[rho, u, p]]), AIR)
            assert got.tobytes() == want.tobytes()
            w = np.array([[a1, 1000.0, 2.0, 1e5, rho, u, p]])
            tp.append(twophase.tp_cons_from_prim(w, water, AIR).tobytes())
    assert tp[0] == tp[1]
