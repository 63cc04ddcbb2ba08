"""Each admissibility check raises its own error class and message on a
crafted inadmissible input, and treats NaN as it always has: a NaN entry
never trips a check by itself, and does not hide an offending entry."""

import numpy as np
import pytest

from rsir1d import eos as _eos
from rsir1d import euler, exact_riemann, relaxation, twophase
from rsir1d.eos import EosDomainError
from rsir1d.euler import DegenerateFanError, PositivityError
from rsir1d.relaxation import RelaxationError

AIR = _eos.preset("air-ideal")
WATER = _eos.preset("water-sg")
NASG = _eos.preset("water-nasg")
NAN = float("nan")


def _tp_state(a1=0.5, p1=1e5, p2=1e5):
    return np.array([a1, 1000.0, 0.0, p1, 1.2, 0.0, p2])


def _hll_inputs(slot):
    """Local states and fluxes whose HLL state at S_L = -1, S_R = 1 is
    (vl + vr + phil - phir) / 2: -0.5 in ``slot``, 1 elsewhere."""
    vl = np.ones(7)
    vl[slot] = -2.0
    return vl, np.ones(7), np.zeros(7), np.zeros(7), -1.0, 1.0


CASES = {
    "density of a primitive state": (
        lambda: euler.cons_from_prim([[1.0, 0.0, 1e5], [-0.5, 0.0, 1e5]],
                                     AIR),
        EosDomainError, "non-positive density (min -0.5)"),
    "density of a conserved state": (
        lambda: euler.prim_from_cons([[1.0, 0.0, 2.5e5], [0.0, 0.0, 1.0]],
                                     AIR),
        EosDomainError, "non-positive density (min 0.0)"),
    "recovered pressure": (
        lambda: euler.prim_from_cons([[1000.0, 0.0, 1e8],
                                      [1000.0, 0.0, -1e12]], WATER),
        EosDomainError,
        "recovered pressure below -p_inf (min p = -3402640000000.0005)"),
    "recovered pressure equal to -p_inf": (
        lambda: euler.prim_from_cons([[1.0, 0.0, 0.0]], AIR),
        EosDomainError, "recovered pressure below -p_inf (min p = 0.0)"),
    "squared sound speed": (
        lambda: _eos.sound_speed(WATER, [1000.0, 1000.0], [1e5, -7e8]),
        EosDomainError,
        "non-positive squared sound speed (min c^2 = -440000.00000000006); "
        "state outside convexity region"),
    "covolume": (
        lambda: _eos.sound_speed(NASG, [1000.0, 2.5e4], [1e5, 1e5]),
        EosDomainError,
        "covolume saturation: 1 - rho*b <= 0 at rho = 25000.0"),
    "entropy": (
        lambda: _eos.entropy(AIR, [1.0, 1.0], [1e5, -1.0]),
        EosDomainError, "p + p_inf must be positive (min -1.0)"),
    "degenerate fan": (
        lambda: euler.hll_state(np.ones((2, 3)), np.ones((2, 3)),
                                np.ones((2, 3)), np.ones((2, 3)),
                                [-1.0, 2.0], [1.0, 2.0]),
        DegenerateFanError, "degenerate fan: S_L >= S_R"),
    "contact denominator": (
        lambda: euler.contact_speed([[1.0, 0.0, 1e5]], [[1.0, 0.0, 1e5]],
                                    [1.0], [1.0]),
        DegenerateFanError, "vanishing denominator in contact speed"),
    "volume fraction": (
        lambda: twophase.tp_cons_from_prim(
            np.array([_tp_state(0.3), _tp_state(1.0)]), AIR, WATER),
        PositivityError,
        "alpha1 must lie strictly inside (0,1), got extrema [0.3, 1.0]"),
    "apparent density": (
        lambda: twophase.tp_prim_from_cons(
            [[0.5, 1.0, 0.0, 2.5e5, -1.0, 0.0, 1.0]], AIR, AIR),
        PositivityError,
        "non-positive apparent density (min phase1 1.0, phase2 -1.0)"),
    "phase pressure": (
        lambda: twophase.tp_prim_from_cons(
            [[0.5, 1.0, 0.0, -1.0, 1.0, 0.0, 2.5e5]], AIR, AIR),
        PositivityError,
        "recovered phase pressure below -p_inf (min p1 -0.7999999999999998, "
        "min p2 199999.99999999994)"),
    "HLL apparent density, phase 1": (
        lambda: twophase.tp_hll_state(*_hll_inputs(1)),
        PositivityError, "non-positive HLL apparent density for phase 1"),
    "HLL apparent density, phase 2": (
        lambda: twophase.tp_hll_state(*_hll_inputs(4)),
        PositivityError, "non-positive HLL apparent density for phase 2"),
    "pressure-equilibrium root": (  # air at 1e-35 Pa beside water
        lambda: relaxation.pressure_relax_stiff(
            twophase.tp_cons_from_prim(_tp_state(p2=1e-35), WATER, AIR),
            _tp_state(p2=1e-35), WATER, AIR),
        RelaxationError, "no admissible pressure-equilibrium root"),
    "time of an L1 error": (
        lambda: exact_riemann.l1_error(
            np.zeros(3), exact_riemann.solve_exact([1.0, 0.0, 1e5],
                                                   [0.125, 0.0, 1e4], AIR),
            0.0, np.arange(3.0), component=0),
        ValueError, "l1_error requires t > 0"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_raises_its_class_and_message(name):
    call, error, message = CASES[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_interface_flux_error_quotes_the_batch_extremum():
    """Both sides are evaluated as one batch, so a failure quotes the
    extremum over both sides: the left side's c^2 of -280000 is not the
    minimum beside the right side's -700000."""
    good = np.array([[1.0, 0.0, 1e5], [1.0, 0.0, 1e5]])
    left = np.array([[1.0, 0.0, 1e5], [1.0, 0.0, -2e5]])
    right = np.array([[1.0, 0.0, -5e5], [1.0, 0.0, 1e5]])
    for flux in (euler.hll_flux, euler.rusanov_flux):
        for wl in (left, good):
            with pytest.raises(EosDomainError) as exc:
                flux(wl, right, AIR)
            assert type(exc.value) is EosDomainError
            assert str(exc.value) == (
                "non-positive squared sound speed (min c^2 = -700000.0); "
                "state outside convexity region")
    # rho = 0 gives c^2 = inf and passes the sound speed, so the density
    # check fires, quoting the right side's -1.0 rather than the left's 0.0
    zero = np.array([[0.0, 0.0, 1e5], [1.0, 0.0, 1e5]])
    with np.errstate(divide="ignore"), pytest.raises(EosDomainError) as exc:
        euler.rsir_flux(zero, -good, AIR, 1.0)
    assert str(exc.value) == "non-positive density (min -1.0)"


def test_two_phase_flux_error_quotes_the_batch_extremum():
    """The two-phase fluxes batch both sides too: the carriers' sound
    speeds are checked first, then alpha1, and a failure quotes the
    extremum over both sides."""
    good = np.array([_tp_state(), _tp_state()])
    left, right = good.copy(), good.copy()
    left[1, 6], right[0, 6] = -2e5, -5e5
    a1_left, a1_right = good.copy(), good.copy()
    a1_left[1, 0], a1_right[0, 0] = 1.0, 0.0
    for flux in (twophase.rusanov_basic_flux, twophase.rusanov_local_flux,
                 twophase.tp_hll_flux):
        for wl in (left, good):
            with pytest.raises(EosDomainError, match=r"c\^2 = -583333\.3"):
                flux(wl, right, WATER, AIR)
        with pytest.raises(PositivityError) as exc:
            flux(a1_left, a1_right, WATER, AIR)
        assert type(exc.value) is PositivityError
        assert str(exc.value) == (
            "alpha1 must lie strictly inside (0,1), got extrema [0.0, 1.0]")


@pytest.mark.parametrize("call", [
    lambda x: euler.cons_from_prim([[x, 0.0, 1e5]], AIR),
    lambda x: euler.prim_from_cons([[x, 0.0, 2.5e5]], AIR),
    lambda x: euler.prim_from_cons([[1.0, 0.0, x]], AIR),
    lambda x: _eos.sound_speed(AIR, [1.0], [x]),
    lambda x: _eos.sound_speed(NASG, [x], [1e5]),
    lambda x: _eos.entropy(AIR, [1.0], [x]),
    lambda x: euler.contact_speed([[1.0, 0.0, 1e5]], [[1.0, 0.0, 1e5]],
                                  [x], [1.0]),
    lambda x: euler.hll_state(np.ones(3), np.ones(3), np.ones(3), np.ones(3),
                              x, 1.0),
    lambda x: twophase.tp_cons_from_prim(_tp_state(a1=x), AIR, WATER),
    lambda x: twophase.tp_prim_from_cons([0.5, x, 0.0, 2.5e5, 1.0, 0.0, 1.0],
                                         AIR, AIR),
    lambda x: twophase.tp_prim_from_cons([0.5, 1.0, 0.0, x, 1.0, 0.0, 2.5e5],
                                         AIR, AIR),
])
def test_nan_passes_every_check(call):
    """No check compares true against NaN, so a NaN entry is let through
    (and propagates), as it always was."""
    call(NAN)


@pytest.mark.parametrize("name, call", [
    ("density", lambda: euler.prim_from_cons(
        [[NAN, 0.0, 2.5e5], [-1.0, 0.0, 2.5e5]], AIR)),
    ("pressure", lambda: euler.prim_from_cons(
        [[1.0, 0.0, NAN], [1.0, 0.0, 0.0]], AIR)),
    ("sound speed", lambda: _eos.sound_speed(AIR, [1.0, 1.0], [NAN, -1.0])),
    ("volume fraction", lambda: twophase.tp_cons_from_prim(
        np.array([_tp_state(NAN), _tp_state(0.0)]), AIR, WATER)),
    ("degenerate fan", lambda: euler.hll_state(
        np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)),
        [NAN, 1.0], [1.0, 1.0])),
])
def test_nan_does_not_hide_an_offending_entry(name, call):
    with pytest.raises((EosDomainError, PositivityError, DegenerateFanError)):
        call()
