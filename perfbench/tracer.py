"""Span tracer for the rsir1d modules, installed from outside the library.

``Tracer.install`` replaces every function named in a module's
``__all__`` with a timing wrapper, set as a module attribute.  rsir1d
looks those functions up through their module at call time (``_euler.
prim_from_cons``, ``_driver.run``, and plain global names inside a
module), so every call passes through a wrapper.  Each call records a
span (function, start, end, parent) in flat arrays kept in memory;
``analyse`` turns them into per-module self times and call counts.
"""

import inspect
import time
from array import array

import numpy as np

from rsir1d import cases, driver, eos, euler, exact_riemann, relaxation
from rsir1d import twophase

# the layers; cli (argument parsing and CSV writing) is left unmeasured
LAYERS = {
    "driver": driver,
    "euler": euler,
    "eos": eos,
    "twophase": twophase,
    "relaxation": relaxation,
    "exact_riemann": exact_riemann,
    "cases": cases,
}

# euler's interface-flux kernels; euler work below them is "euler.flux"
FLUX_KERNELS = ("rusanov_flux", "hll_flux", "hllc_flux", "linde_flux",
                "rsir_flux", "rsir_flux_general")
STEP_MARKER = "driver.cfl_dt"  # called once at the start of every step


class Tracer:
    def __init__(self):
        self.names = []          # "module.function", indexed by function id
        self.fid = array("i")    # per span, in call (pre-order) order
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.relax_calls = 0
        self.relax_bisections = 0
        self._stack = [-1]
        self._originals = []

    def install(self):
        for layer, module in LAYERS.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    self._originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        if name in self.names:
            fid = self.names.index(name)
        else:
            fid = len(self.names)
            self.names.append(name)
        fids, parents = self.fid, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        observe = (self._observe_relax
                   if name == "relaxation.pressure_relax_stiff" else None)

        def wrapper(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_relax(self, out):
        self.relax_calls += 1
        self.relax_bisections += out[1].iterations > 0

    def spans(self):
        """The recorded spans as numpy arrays (copies)."""
        return {"fid": np.array(self.fid, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end),
                "names": np.array(self.names)}


def slice_spans(spans, lo, hi):
    """Spans lo..hi-1 as a trace of their own; lo must start a subtree."""
    parent = spans["parent"][lo:hi] - lo
    return {"fid": spans["fid"][lo:hi], "parent": np.maximum(parent, -1),
            "start": spans["start"][lo:hi], "end": spans["end"][lo:hi],
            "names": spans["names"]}


def self_times(parent, duration):
    """Each span's duration minus the durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def analyse(spans):
    """Self time per layer and per function, call counts, and the
    euler work done inside flux kernels.  Times are in seconds."""
    fid, parent = spans["fid"], spans["parent"]
    names = [str(n) for n in spans["names"]]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)
    span_layer = np.array([n.split(".")[0] for n in names])[fid]

    kernels = {f"euler.{k}" for k in FLUX_KERNELS}
    kernel = [n in kernels for n in names]
    flux_ctx = []
    for f, p in zip(fid.tolist(), parent.tolist()):
        flux_ctx.append(kernel[f] or (p >= 0 and flux_ctx[p]))
    in_flux = np.array(flux_ctx, dtype=bool)

    calls = np.bincount(fid, minlength=len(names))
    fn_self = np.bincount(fid, weights=own, minlength=len(names))
    return {
        "layer_self_s": {layer: float(own[span_layer == layer].sum())
                         for layer in LAYERS},
        "euler_flux_self_s": float(
            own[in_flux & (span_layer == "euler")].sum()),
        "calls": {n: int(c) for n, c in zip(names, calls)},
        "function_self_s": {n: float(s) for n, s in zip(names, fn_self)},
        "total_s": float(duration[parent < 0].sum()),
    }


def calls_per_step(spans, targets):
    """Calls per step of each target ("layer" or "layer.function").

    Steps are delimited by the driver's once-per-step ``cfl_dt`` call.
    Only a run's interior windows count, from its first to its last
    ``cfl_dt``: each holds one step's work plus the next step's wave-speed
    pass, while the first and last windows also hold run set-up and the
    final snapshot.  Returns ({target: calls per step}, windows counted).
    """
    fid, parent = spans["fid"], spans["parent"]
    names = [str(n) for n in spans["names"]]
    if STEP_MARKER not in names:
        return {t: 0.0 for t in targets}, 0
    markers = np.flatnonzero(fid == names.index(STEP_MARKER))
    by_run = {}
    for m, r in zip(markers.tolist(), parent[markers].tolist()):
        by_run.setdefault(r, []).append(m)
    lo = [steps[0] for steps in by_run.values()]
    hi = [steps[-1] for steps in by_run.values()]
    windows = sum(len(steps) - 1 for steps in by_run.values())
    out = {}
    for target in targets:
        match = np.array([n == target or n.split(".")[0] == target
                          for n in names])
        cum = np.concatenate([[0], np.cumsum(match[fid])])
        total = sum(int(cum[b] - cum[a]) for a, b in zip(lo, hi))
        out[target] = total / windows if windows else 0.0
    return out, windows
