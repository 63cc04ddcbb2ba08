from fractions import Fraction

import numpy as np
import pytest

from rsir1d import eos as _eos
from rsir1d import relaxation as rlx
from rsir1d import twophase as tp
from rsir1d.euler import PositivityError

WATER = _eos.preset("water-sg")
AIR = _eos.preset("air-ideal")
SG_CARRIER = _eos.EosParams(gamma=1.9, p_inf=2e6)  # a stiffened-gas phase 2
STIFF_LIQUID = _eos.EosParams(gamma=2.8, p_inf=8.5e8)


def random_disequilibrium_states(rng, n, eos2=AIR):
    a1 = rng.uniform(0.05, 0.95, size=n)
    rho1 = rng.uniform(800.0, 1300.0, size=n)
    p1 = 10.0 ** rng.uniform(4.5, 7.5, size=n)
    rho2 = 10.0 ** rng.uniform(-0.5, 1.5, size=n)
    p2 = 10.0 ** rng.uniform(4.5, 6.5, size=n)
    u1 = rng.uniform(-50.0, 50.0, size=n)
    u2 = rng.uniform(-200.0, 200.0, size=n)
    w = np.stack([a1, rho1, u1, p1, rho2, u2, p2], axis=-1)
    return tp.tp_cons_from_prim(w, WATER, eos2)


def relax(uc, eos1=WATER, eos2=AIR):
    """pressure_relax_stiff of conserved states, from their recovery."""
    return rlx.pressure_relax_stiff(uc, tp.tp_prim_from_cons(uc, eos1, eos2),
                                    eos1, eos2)


def bisect_equilibrium(uc, eos1, eos2):
    """Independent scalar oracle: bisection on the saturation constraint
    for a single 7-component state."""
    a1 = uc[0]
    m1, m2 = uc[1], uc[4]
    e1 = uc[3] / m1 - 0.5 * (uc[2] / m1) ** 2
    e2 = uc[6] / m2 - 0.5 * (uc[5] / m2) ** 2
    g1, g2 = eos1.gamma, eos2.gamma
    p1 = (g1 - 1.0) * m1 / a1 * e1 - g1 * eos1.p_inf
    p2 = (g2 - 1.0) * m2 / (1.0 - a1) * e2 - g2 * eos2.p_inf

    def alpha_sum(p):
        n1 = a1 * (p1 + g1 * eos1.p_inf + (g1 - 1.0) * p)
        n2 = (1.0 - a1) * (p2 + g2 * eos2.p_inf + (g2 - 1.0) * p)
        return (n1 / (g1 * (p + eos1.p_inf))
                + n2 / (g2 * (p + eos2.p_inf)) - 1.0)

    lo = -min(eos1.p_inf, eos2.p_inf) + 1e-10
    hi = max(p1, p2, 1.0)
    while alpha_sum(hi) > 0.0:
        hi = 2.0 * hi + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alpha_sum(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_equilibrium_state_is_fixed_point():
    w = np.array([0.4, 1000.0, 10.0, 3e5, 2.0, 10.0, 3e5])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    out, rep, _ = relax(uc)
    assert rep.iterations == 0
    assert np.allclose(out, uc, rtol=1e-9)
    assert np.all(np.abs(rep.p_eq - 3e5) <= 1e-6 * 3e5)


def test_pressures_equal_after_relaxation(rng):
    uc = random_disequilibrium_states(rng, 1000)
    out, rep, _ = relax(uc)
    w = tp.tp_prim_from_cons(out, WATER, AIR)
    assert rep.residual <= 1e-8
    assert np.all(np.abs(w[:, 3] - w[:, 6])
                  <= 1e-8 * np.maximum(np.abs(w[:, 3]), np.abs(w[:, 6])))


def test_matches_bisection_oracle(rng):
    for eos2 in (AIR, SG_CARRIER):  # the quadratic with p_inf2 = 0 and > 0
        uc = random_disequilibrium_states(rng, 64, eos2)
        out, rep, _ = relax(uc, WATER, eos2)
        assert rep.iterations == 0  # the closed-form root
        for i in range(uc.shape[0]):
            p_ref = bisect_equilibrium(uc[i], WATER, eos2)
            assert rep.p_eq[i] == pytest.approx(p_ref, rel=1e-10, abs=1e-4)


def test_conserved_quantities_untouched(rng):
    uc = random_disequilibrium_states(rng, 500)
    out, rep, _ = relax(uc)
    # phase masses and momenta bitwise identical
    assert np.array_equal(out[:, [1, 2, 4, 5]], uc[:, [1, 2, 4, 5]])
    # mixture energy conserved to round-off
    assert rep.conservation_defect <= 1e-12
    # saturation holds for the new volume fractions
    # (alpha2 is implicit: both phases were updated consistently)
    w = tp.tp_prim_from_cons(out, WATER, AIR)
    assert np.all((w[:, 0] > 0.0) & (w[:, 0] < 1.0))


def test_scalar_and_grid_shapes():
    w = np.array([0.4, 1000.0, 0.0, 5e5, 2.0, 0.0, 1e5])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    out1, rep1, _ = relax(uc)
    assert out1.shape == (7,)
    grid = np.tile(uc, (6, 1))
    out2, rep2, _ = relax(grid)
    assert out2.shape == (6, 7)
    assert np.allclose(out2, out1[None, :])


def test_relaxed_primitives_are_the_recovery_of_the_relaxed_state(rng):
    """The primitives returned with the relaxed state equal
    tp_prim_from_cons of it bitwise, alpha1 clamp included, and a
    recovered pressure at or below -p_inf raises as it does there."""
    uc = random_disequilibrium_states(rng, 500)
    # nearly pure water at 100 times the air pressure squeezes the air
    # below the floor, so the relaxed alpha1 of these cells is clamped
    uc[:3] = tp.tp_cons_from_prim(
        [1.0 - 2e-8, 1000.0, 0.0, 1e7, 1.0, 0.0, 1e5], WATER, AIR)
    before = uc.copy()
    out, rep, w = relax(uc)
    assert np.array_equal(uc, before)  # the input is not written to
    assert np.all(out[:3, 0] > 1.0 - tp.ALPHA_FLOOR)
    assert w.tobytes() == tp.tp_prim_from_cons(out, WATER, AIR).tobytes()
    assert rep.residual <= 1e-8
    uc = random_disequilibrium_states(rng, 5)
    w = tp.tp_prim_from_cons(uc, WATER, AIR)
    uc[2, 6] = -1e9  # the relaxed carrier energy is below -p_inf
    with pytest.raises(PositivityError) as exc:
        rlx.pressure_relax_stiff(uc, w, WATER, AIR)
    assert str(exc.value).startswith("recovered phase pressure below -p_inf")


def test_root_is_exact_for_air_at_3_mpa_beside_water():
    """Air at 3 mPa beside water, where a closed form whose coefficients
    cancel at the p_inf scale misses the root: the pressure and
    primitives are as exact as for any other state."""
    w = np.array([0.7995322046405273, 2679.120966973448, -86.7459278781829,
                  567349.4211209188, 5.340546317137792, -5.971697613955318,
                  0.003227645137042819])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    out, rep, w_out = relax(uc)
    assert rep.p_eq == pytest.approx(bisect_equilibrium(uc, WATER, AIR),
                                     rel=1e-10)
    assert w_out.tobytes() == tp.tp_prim_from_cons(out, WATER, AIR).tobytes()


def test_air_at_1e_minus_35_pa_relaxes():
    """The root of water beside air at 1e-35 Pa lies just above the air's
    pressure, far below any fixed offset from the floor p = 0."""
    w = np.array([0.5, 1000.0, 0.0, 1e5, 1.0, 0.0, 1e-35])
    _, rep, _ = rlx.pressure_relax_stiff(tp.tp_cons_from_prim(w, WATER, AIR),
                                         w, WATER, AIR)
    assert 0.0 < rep.p_eq < 2e-35


@pytest.mark.parametrize("eos2", [AIR, SG_CARRIER, STIFF_LIQUID],
                         ids=["air", "sg-carrier", "stiff-liquid"])
def test_root_brackets_the_exact_saturation_root(rng, eos2):
    """In exact rational arithmetic, the saturation numerator
    k1 (p1 - p)(p + p_inf2) + k2 (p2 - p)(p + p_inf1), k_k = alpha_k/gamma_k,
    is > 0 at p_eq (1 - 1e-14) and < 0 at p_eq (1 + 1e-14), for phase
    pressures from 1 mPa to 300 MPa."""
    n = 300
    a1 = rng.uniform(0.05, 0.95, size=n)
    p1, p2 = 10.0 ** rng.uniform(-3.0, np.log10(3e8), size=(2, n))
    w = np.stack([a1, np.full(n, 1000.0), np.zeros(n), p1,
                  np.full(n, 1.0), np.zeros(n), p2], axis=-1)
    _, rep, _ = rlx.pressure_relax_stiff(tp.tp_cons_from_prim(w, WATER, eos2),
                                         w, WATER, eos2)
    pi1, pi2 = Fraction(WATER.p_inf), Fraction(eos2.p_inf)
    for i, p_eq in enumerate(rep.p_eq):
        k1 = Fraction(a1[i]) / Fraction(WATER.gamma)
        k2 = (1 - Fraction(a1[i])) / Fraction(eos2.gamma)

        def numerator(p):
            p = Fraction(p)
            return (k1 * (Fraction(p1[i]) - p) * (p + pi2)
                    + k2 * (Fraction(p2[i]) - p) * (p + pi1))

        assert numerator(p_eq - 1e-14 * abs(p_eq)) > 0, i
        assert numerator(p_eq + 1e-14 * abs(p_eq)) < 0, i


def test_covolume_rejected():
    nasg = _eos.preset("water-nasg")
    w = np.array([0.4, 1000.0, 0.0, 5e5, 2.0, 0.0, 1e5])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    with pytest.raises(ValueError):
        rlx.pressure_relax_stiff(uc, tp.tp_prim_from_cons(uc, WATER, AIR),
                                 nasg, AIR)


def test_velocity_relax_decay_rate():
    w = np.array([0.5, 1000.0, 10.0, 1e5, 1.0, 110.0, 1e5])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    lam, dt = 3.0, 0.01
    out = rlx.velocity_relax(uc, lam, dt)
    wn = tp.tp_prim_from_cons(out, WATER, AIR)
    m1, m2 = uc[1], uc[4]
    expected = 100.0 * np.exp(-lam * dt * (1.0 / m1 + 1.0 / m2))
    assert wn[5] - wn[2] == pytest.approx(expected, rel=1e-12)


def test_velocity_relax_conserves_momentum_and_energy(rng):
    uc = random_disequilibrium_states(rng, 200)
    out = rlx.velocity_relax(uc, 12.0, 1e-3)
    assert np.allclose(out[:, 2] + out[:, 5], uc[:, 2] + uc[:, 5], rtol=1e-12)
    assert np.allclose(out[:, 3] + out[:, 6], uc[:, 3] + uc[:, 6], rtol=1e-12)
    # dissipated kinetic energy heats the carrier phase: phase-1 internal
    # energy is unchanged
    e1_before = uc[:, 3] / uc[:, 1] - 0.5 * (uc[:, 2] / uc[:, 1]) ** 2
    e1_after = out[:, 3] / out[:, 1] - 0.5 * (out[:, 2] / out[:, 1]) ** 2
    assert np.allclose(e1_after, e1_before, rtol=1e-9)


def test_velocity_relax_infinite_time_limit():
    w = np.array([0.5, 1000.0, 0.0, 1e5, 1.0, 300.0, 1e5])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    out = rlx.velocity_relax(uc, 1e9, 10.0)
    wn = tp.tp_prim_from_cons(out, WATER, AIR)
    u_mix = (uc[2] + uc[5]) / (uc[1] + uc[4])
    assert wn[2] == pytest.approx(u_mix, abs=1e-9 * abs(u_mix))
    assert wn[5] == pytest.approx(u_mix, abs=1e-9 * abs(u_mix))


def test_clift_gauvin_values():
    assert rlx.clift_gauvin_cd(1.0) == 24.0 * 1.15
    assert rlx.clift_gauvin_cd(800.0) == 0.438
    assert rlx.clift_gauvin_cd(1e6) == 0.438
    re = 100.0
    assert rlx.clift_gauvin_cd(re) == pytest.approx(
        24.0 / re * (1.0 + 0.15 * re ** 0.687), rel=1e-14)


def test_drag_zero_at_velocity_equilibrium():
    w = np.array([0.5, 1000.0, 25.0, 1e5, 1.0, 25.0, 1e5])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    out = rlx.drag_clift_gauvin(uc, radius=1e-4, mu2=1.8e-5, dt=1e-3)
    assert np.allclose(out, uc, rtol=1e-13)


def test_drag_reduces_slip_and_conserves(rng):
    w = np.array([[0.3, 1000.0, 0.0, 1e5, 1.2, 150.0, 1e5]])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    out = rlx.drag_clift_gauvin(uc, radius=1e-4, mu2=1.8e-5, dt=1e-3)
    wn = tp.tp_prim_from_cons(out, WATER, AIR)
    assert 0.0 < wn[0, 5] - wn[0, 2] < 150.0
    assert np.allclose(out[:, 2] + out[:, 5], uc[:, 2] + uc[:, 5], rtol=1e-12)
    assert np.allclose(out[:, 3] + out[:, 6], uc[:, 3] + uc[:, 6], rtol=1e-12)


def test_drag_integrates_the_whole_step_beside_a_stiff_cell():
    """The dense cell's sub-steps of 0.2 tau are so short that 10 000 of
    them do not span dt; the last one takes the rest of dt, so the slip of
    the dilute cell beside it is gone too, as when it is dragged alone."""
    w = np.array([[0.5, 1000.0, 0.0, 1e5, 1.0, 50.0, 1e5],
                  [1e-5, 1000.0, 0.0, 1e5, 1.0, 50.0, 1e5]])
    uc = tp.tp_cons_from_prim(w, WATER, AIR)
    out = rlx.drag_clift_gauvin(uc, radius=1e-6, mu2=1.8e-5, dt=1e-3)
    slip = out[:, 5] / out[:, 4] - out[:, 2] / out[:, 1]
    assert np.all(np.abs(slip) < 1e-6)
    assert np.allclose(out[:, 2] + out[:, 5], uc[:, 2] + uc[:, 5], rtol=1e-12)
    assert np.allclose(out[:, 3] + out[:, 6], uc[:, 3] + uc[:, 6], rtol=1e-12)


@pytest.mark.parametrize("drag", [
    lambda uc: rlx.velocity_relax(uc, 12.0, 1e-3),
    lambda uc: rlx.velocity_relax(uc, 0.0, 1e-3),
    lambda uc: rlx.drag_clift_gauvin(uc, radius=1e-4, mu2=1.8e-5, dt=1e-3)],
    ids=["constant", "constant-zero", "clift-gauvin"])
def test_drag_returns_a_new_state_and_leaves_its_input(rng, drag):
    """Each drag call copies its input once; its sub-steps then update
    that copy in place."""
    uc = random_disequilibrium_states(rng, 50)
    before = uc.copy()
    out = drag(uc)
    assert not np.shares_memory(out, uc)
    assert np.array_equal(uc, before)


def test_drag_parameter_validation():
    uc = tp.tp_cons_from_prim(
        np.array([0.5, 1000.0, 0.0, 1e5, 1.0, 10.0, 1e5]), WATER, AIR)
    with pytest.raises(ValueError):
        rlx.drag_clift_gauvin(uc, radius=0.0, mu2=1.8e-5, dt=1e-3)
    with pytest.raises(ValueError):
        rlx.velocity_relax(uc, -1.0, 1e-3)
