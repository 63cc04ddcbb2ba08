"""1D finite-volume time integration: uniform mesh, MUSCL-Hancock
reconstruction with Minmod limiter, CFL stepping, boundary conditions,
Godunov update with non-conservative terms, and split relaxation sources.
"""

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from . import eos as _eos
from . import euler as _euler
from . import twophase as _tp
from . import relaxation as _relax
from .eos import EosDomainError
from .euler import PositivityError, DegenerateFanError

__all__ = [
    "Mesh1D",
    "RunResult",
    "StepError",
    "minmod",
    "cfl_dt",
    "run",
]

# Faces per block of a step's predictor and interface-flux stage: a block's
# temporaries then stay in a 4 MiB per-core L2 instead of streaming from L3.
_BLOCK_FACES = 2 ** 14


class StepError(RuntimeError):
    """A time step produced an inadmissible state even after dt halving."""


@dataclass(frozen=True)
class Mesh1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("need at least 4 cells (two ghost layers each side)")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self):
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class RunResult:
    mesh: Mesh1D
    snapshots: list          # list of (t, primitive interior field)
    manifest: dict
    final_cons: np.ndarray = None


def minmod(a, b, out=(None, None)):
    """0 on a sign change or a zero, else the smaller-magnitude argument:
    the median of (a, b, 0), with a zero returned as +0.0 where numpy's
    minimum and maximum break signed-zero ties by their second argument;
    into the first array of the pair ``out``, whose second is scratch."""
    hi = np.minimum(np.maximum(a, b, out=out[1]), 0.0, out=out[1])
    return np.maximum(np.minimum(a, b, out=out[0]), hi, out=out[0])


# the interior cells that the ghost cells -2, -1, n and n+1 copy
_GHOST_SOURCES = {kind: np.array(cells) for kind, cells in (
    ("transmissive", (0, 0, -1, -1)), ("reflective", (1, 0, -1, -2)),
    ("periodic", (-2, -1, 0, 1)))}


def _ghosts(u_int, kind, velocity_slots):
    """The ghost cells -2, -1, n and n+1 of the interior field ``u_int``;
    a reflective wall negates their velocity slots."""
    if kind not in _GHOST_SOURCES:
        raise ValueError(f"unknown boundary kind {kind!r}")
    g = u_int[_GHOST_SOURCES[kind]]
    if kind == "reflective":
        for s in velocity_slots:
            g[:, s] *= -1.0
    return g


def _nan_max(acc, x):
    """max(acc, x) keeping a NaN on either side; max(0.0, nan) is 0.0."""
    return x if x > acc or x != x else acc


def cfl_dt(max_speed, dx, cfl):
    if max_speed <= 0.0:
        raise ValueError("zero global wave speed; cannot pick a time step")
    return cfl * dx / max_speed


# ---------------------------------------------------------------------------
# Models: what the MUSCL-Hancock step needs to know about each system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Model:
    """The per-model operations that :func:`_step` and :func:`run` use."""

    velocity_slots: tuple  # negated at a reflective wall, in both layouts
    to_cons: object        # primitives -> conserved
    to_prim: object        # conserved -> primitives; raises if inadmissible
    edge: object           # (edge prims, cell prims) -> (cons, predictor flux)
    flux: object           # (wl, wr) -> face record with ``n_fallback``
    max_speed: object      # primitives -> largest signal speed
    totals: object         # column sums -> [masses..., momentum, energy]
    face_fields: tuple = ("flux",)  # the flux, then what increment reads
    increment: object = None  # (out, w, face fields, dt, dx): H-terms
    clamps: object = None     # conserved -> number of volume-fraction clamps
    sources: object = None    # ([u, w], dt) -> (u, w, RelaxReport|None)
    scratch: dict = None      # the step's reused batch arrays, by role


def _scratch(case):
    """A per-run store for the step's batch arrays if the mesh is one block
    of faces, else None: held past their block, they would add to the
    memory peak of a large mesh."""
    return {} if case.n_cells + 1 <= _BLOCK_FACES else None


def _flux_fn(case, scratch):
    """The interface flux (wl, wr) -> face record of the case's solver; the
    kernel is looked up through its module when the run starts."""
    e1, e2, beta = case.eos1, case.eos2, case.beta
    kernels = {
        "rusanov": (_euler.rusanov_flux, e1), "hll": (_euler.hll_flux, e1),
        "hllc": (_euler.hllc_flux, e1), "linde": (_euler.linde_flux, e1, beta),
        "rsir": (_euler.rsir_flux, e1, beta),
    } if case.model == "euler" else {
        "rusanov-basic": (_tp.rusanov_basic_flux, e1, e2, scratch),
        "rusanov-local": (_tp.rusanov_local_flux, e1, e2, scratch),
        "hll-tp": (_tp.tp_hll_flux, e1, e2, scratch),
        "rsir-tp": (_tp.rsir_tp_flux, e1, e2, beta, scratch),
    }
    if case.solver not in kernels:
        raise ValueError(f"unknown {case.model} solver {case.solver!r}")
    flux, *args = kernels[case.solver]
    return lambda wl, wr: flux(wl, wr, *args)


def _euler_model(case):
    eos = case.eos1
    scratch = _scratch(case)

    def max_speed(w):
        c = _eos.sound_speed(eos, w[..., 0], w[..., 2])
        return float(np.maximum.reduce(np.abs(w[..., 1]) + c, axis=None))

    return _Model(
        velocity_slots=(1,),
        to_cons=lambda w: _euler.cons_from_prim(w, eos),
        to_prim=lambda u, out=None: _euler.prim_from_cons(u, eos, out),
        edge=lambda we, w, out: _euler.cons_and_flux(we, eos, out),
        flux=_flux_fn(case, scratch),
        max_speed=max_speed, totals=lambda s: s, scratch=scratch)


def _tp_model(case):
    eos1, eos2 = case.eos1, case.eos2
    scratch = _scratch(case)
    drag = case.drag_model == "clift-gauvin" or (
        case.drag_model == "constant" and case.drag_lambda > 0.0)

    def edge(we, w, out):
        # predictor on the locally conservative flux with the cell's own
        # phase-1 pressure as frozen interfacial pressure
        return _tp.tp_cons_and_local_flux(we, w[..., 3], eos1, eos2, out)

    def max_speed(w):
        c2 = _eos.sound_speed(eos2, w[..., 4], w[..., 6])
        return float(np.maximum.reduce(
            np.maximum(np.abs(w[..., 2]), np.abs(w[..., 5]) + c2), axis=None))

    def totals(s):
        # phase masses, mixture momentum and mixture energy: the H-terms
        # cancel pairwise in these combinations
        return [s[1], s[4], s[2] + s[5], s[3] + s[6]]

    def increment(out, w, faces, dt, dx):
        # non-conservative terms with cell-centered interfacial pressure
        # (alpha_face, phi_alpha_face) feed the momentum and energy slots
        for face, gain, loss in zip(faces, (2, 3), (5, 6)):
            h = w[:, 3] * (face[1:] - face[:-1]) / dx
            h *= dt
            out[:, gain] += h
            out[:, loss] -= h

    def sources(state, dt):
        # [u, w] is handed over, so each is freed once replaced; drag's
        # state is recovered once, relaxation returns its own primitives
        u, w = state
        state.clear()
        if drag:
            w = None
            if case.drag_model == "clift-gauvin":
                u = _relax.drag_clift_gauvin(u, case.drag_radius,
                                             case.drag_mu2, dt)
            else:
                u = _relax.velocity_relax(u, case.drag_lambda, dt)
            w = _tp.tp_prim_from_cons(u, eos1, eos2)
        report = None
        if case.pressure_relax:
            u, report, w = _relax.pressure_relax_stiff(u, w, eos1, eos2)
        return u, w, report

    return _Model(
        velocity_slots=(2, 5),
        to_cons=lambda w: _tp.tp_cons_from_prim(w, eos1, eos2),
        to_prim=lambda u, out=None: _tp.tp_prim_from_cons(u, eos1, eos2, out),
        edge=edge,
        flux=_flux_fn(case, scratch),
        max_speed=max_speed, totals=totals, increment=increment,
        face_fields=("flux", "alpha_face", "phi_alpha_face"),
        clamps=_tp.alpha_clamps,
        sources=sources if case.pressure_relax or drag else None,
        scratch=scratch)


# ---------------------------------------------------------------------------
# MUSCL-Hancock step and time loop
# ---------------------------------------------------------------------------

def _predict(model, wg, half_lam):
    """Minmod-limited edge states (wm, wp) of the cells 1..n+2 of ``wg``,
    advanced by half a step with the model's predictor flux; both edges
    go through ``edge`` and ``to_prim`` as one (2, n+2, k) batch, in the
    model's store for a one-block step.  The slopes are 1-D passes over the
    component-major ``wg``, whose entries across two components go unread."""
    flat = wg.T.reshape(-1)
    half = _euler._buffer(model.scratch, "half slopes", flat.shape)
    work = _euler._buffer(model.scratch, "slopes", flat.shape + (2,)).T
    np.subtract(flat[1:], flat[:-1], out=work[0, :-1])
    minmod(work[0, :-2], work[0, 1:-1], (half[:-2], work[1, :-2]))
    del work  # a multi-block step frees it before the edge batches
    half[:-2] *= 0.5
    half = half.reshape(wg.shape[::-1])[:, :-2].T
    wc = wg[1:-1]
    we, ue, fe, w_edge = (
        _euler._buffer(model.scratch, role, (2,) + wc.shape)
        for role in ("edges", "edge states", "edge fluxes", "edge prims"))
    np.subtract(wc, half, out=we[0])
    np.add(wc, half, out=we[1])
    ue, fe = model.edge(we, wc, (ue, fe))
    dfl = np.subtract(fe[1], fe[0], out=fe[0])
    dfl *= half_lam
    ue -= dfl
    we = model.to_prim(ue, w_edge)
    return we[0], we[1]


def _sums(u):
    """The column sums of the cells ``u``, as a list of floats."""
    return np.add.reduce(u, axis=0).tolist()


def _defect(totals, s0, u1, f, lam):
    """(relative conservation defect of the update u0 -> u1 with the end
    fluxes f = (F_0, F_n) and lam = dt/dx, column sums of u1) from the column
    sums ``s0`` of u0, in floats, in numpy's order and with its x / 0."""
    s1 = _sums(u1)
    budget = totals([b - a + lam * (r - l) for a, b, l, r in zip(s0, s1, *f)])
    denom = totals(_sums(np.abs(u1)))
    # momentum can sum to ~0 at rest; floor it with the
    # dimensionally matching scale sqrt(mass * energy)
    denom[-2] = max(denom[-2], math.sqrt(sum(denom[:-2]) * denom[-1]))
    defect = 0.0
    for b, d in zip(budget, denom):
        defect = _nan_max(defect, abs(b) / d if d else abs(b) * math.inf)
    return defect, s1


def _faces(model, wg, half_lam, first_order):
    """(the model's face fields, fallback count) of the m + 1 faces
    between the cells 1..m+2 of the m + 4 ghosted cells ``wg``."""
    wm = wp = wg[1:-1]  # left and right edges of those cells
    if not first_order:
        wm, wp = _predict(model, wg, half_lam)
    rec = model.flux(wp[:-1], wm[1:])
    return [getattr(rec, f) for f in model.face_fields], rec.n_fallback


def _step(model, u, w, sums, dt, dx, bc, first_order):
    """Advance ``u``, with primitives ``w`` and column sums ``sums``, by dt.

    Ghost cells are filled on the primitives: a reflective wall only
    negates the velocity slots, so this equals recovering primitives from
    ghosted conserved states.  Returns (u_new, w_new, column sums of
    u_new, conservation defect, positivity fallbacks, alpha clamps); w_new
    is the end-of-step recovery that also checks u_new for admissibility.
    """
    n, k = w.shape
    half_lam = 0.5 * dt / dx
    fallbacks = 0
    # faces [a, b) read cells a-2..b: one contiguous copy of them, padded
    # with the ghost cells where it touches a mesh end
    g = _ghosts(w, bc, model.velocity_slots)
    for a in range(0, n + 1, _BLOCK_FACES):
        b = min(a + _BLOCK_FACES, n + 1)
        cells = np.concatenate(
            (g[a:2], w[max(a - 2, 0):b + 1], g[2:max(b + 3 - n, 2)]),
            out=_euler._buffer(model.scratch, "cells", (b - a + 3, k)))
        block, n_fb = _faces(model, cells, half_lam, first_order)
        fallbacks += n_fb
        if a == 0:
            faces = block if b == n + 1 else [
                _euler._component_major(np.empty(x.shape[1:] + (n + 1,)))
                for x in block]
        if faces is not block:
            for j, x in enumerate(block):
                faces[j][a:b] = x
    f, block = faces[0], None  # a face field may view its block's u_hll
    lam = dt / dx
    out = np.subtract(f[1:], f[:-1])
    out *= lam
    np.subtract(u, out, out=out)
    if model.increment is not None:
        model.increment(out, w, faces[1:], dt, dx)
    f, faces = f[::n].tolist(), None  # keep the end fluxes
    defect, sums = _defect(model.totals, sums, out, f, lam)  # before w_out
    w_out = model.to_prim(out)
    clamps = model.clamps(out) if model.clamps is not None else 0
    return out, w_out, sums, defect, fallbacks, clamps


def run(case):
    """Integrate a CaseConfig to its end time.

    Returns a RunResult with primitive-field snapshots at the requested
    output times (end time always included) and a manifest recording the
    run parameters, conservation defects and fallback/clamp counters.
    """
    mesh = Mesh1D(case.x_min, case.x_max, case.n_cells)
    dx = mesh.dx
    first_order = case.limiter == "none"
    t_wall = _time.perf_counter()
    model = _euler_model(case) if case.model == "euler" else _tp_model(case)
    u = model.to_cons(np.where((mesh.centers < case.x_disc)[:, None],
                               np.asarray(case.left, float)[None, :],
                               np.asarray(case.right, float)[None, :]))
    w = model.to_prim(u)
    sums = _sums(u)  # carried from step to step until a source changes u

    # + 0.0 makes an output time of -0.0 the snapshot time 0.0
    out_times = sorted({t + 0.0 for t in (*case.output_times, case.end_time)})
    snapshots = []
    t = 0.0
    step = 0
    max_defect = 0.0
    n_fallback = n_clamp = n_reject = 0
    max_residual = max_energy_defect = 0.0

    for t_out in out_times:
        while t < t_out * (1.0 - 1e-14):
            dt = cfl_dt(model.max_speed(w), dx, case.cfl)
            dt = min(dt, t_out - t)  # land exactly on output times
            if t_out + dt == t_out:  # the clock would stall below t_out
                raise StepError(f"step {step}: dt = {dt!r} cannot advance "
                                f"t = {t!r} to the output time {t_out!r}")
            for attempt in range(12):
                try:
                    # binds u and w only once the step has succeeded
                    u, w, sums, defect, fallbacks, clamps = _step(
                        model, u, w, sums, dt, dx, case.boundary, first_order)
                    break
                except (EosDomainError, PositivityError,
                        DegenerateFanError) as err:
                    n_reject += 1
                    dt *= 0.5
                    if attempt == 11:
                        raise StepError(
                            f"step {step} rejected repeatedly at t = {t!r}: "
                            f"{err}") from err
            max_defect = _nan_max(max_defect, defect)
            n_fallback += fallbacks
            n_clamp += clamps
            if model.sources is not None:
                state = [u, w]
                del u, w  # the sources free each array once it is replaced
                u, w, report = model.sources(state, dt)
                sums = _sums(u)
                if report is not None:
                    max_residual = _nan_max(max_residual, report.residual)
                    max_energy_defect = _nan_max(max_energy_defect,
                                                 report.conservation_defect)
                del report  # its whole-mesh p_eq must not outlive this step
            t += dt
            step += 1
        snapshots.append((t_out, w))

    manifest = {
        "model": case.model,
        "solver": case.solver,
        "beta": case.beta,
        "cfl": case.cfl,
        "n_cells": case.n_cells,
        "limiter": case.limiter,
        "end_time": case.end_time,
        "steps": step,
        "wall_time": _time.perf_counter() - t_wall,
        "max_conservation_defect": max_defect,
        "positivity_fallbacks": n_fallback,
        "alpha_clamps": n_clamp,
        "dt_rejections": n_reject,
        "max_relax_residual": max_residual,
        "max_relax_energy_defect": max_energy_defect,
    }
    return RunResult(mesh=mesh, snapshots=snapshots, manifest=manifest,
                     final_cons=u)
