"""Timing loop, run capture, result fingerprints and the correctness gate."""

import hashlib
import statistics
import time
from contextlib import contextmanager

import numpy as np

from rsir1d import driver

CONSERVATION_LIMIT = 1e-12
# An oracle-scored run may lose at most this share of accuracy against the
# L1 error its run key has in the baseline trajectory point.
L1_GROWTH_LIMIT = 0.10


@contextmanager
def captured_runs():
    """Collect (RunResult, seconds) of every ``driver.run`` call made
    inside the block, however deep in rsir1d it is made."""
    runs = []
    original = driver.run

    def run(case):
        t0 = time.perf_counter()
        res = original(case)
        runs.append((res, time.perf_counter() - t0))
        return res

    driver.run = run
    try:
        yield runs
    finally:
        driver.run = original


def fingerprint(final_cons):
    data = np.ascontiguousarray(final_cons, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


def tail(samples, percentile):
    """(value, samples beyond it) of ``percentile`` of ``samples``."""
    beyond = round(len(samples) * (100.0 - percentile) / 100.0, 9)
    return float(np.percentile(samples, percentile)), beyond


def check_run(res, l1, expected_l1):
    """Problems with one run's output; an empty list means it passed."""
    problems = []
    if not (np.all(np.isfinite(res.final_cons))
            and all(np.all(np.isfinite(w)) for _, w in res.snapshots)):
        problems.append("non-finite state")
    defect = res.manifest["max_conservation_defect"]
    if not defect <= CONSERVATION_LIMIT:
        problems.append(f"conservation defect {defect:.3g} > "
                        f"{CONSERVATION_LIMIT:g}")
    if l1 is not None:
        if not np.isfinite(l1):
            problems.append("non-finite L1 error")
        elif expected_l1 is not None and \
                l1 > expected_l1 * (1.0 + L1_GROWTH_LIMIT) + 1e-15:
            problems.append(f"L1 density error {l1:.6g} exceeds baseline "
                            f"{expected_l1:.6g} by more than "
                            f"{L1_GROWTH_LIMIT:.0%}")
    return problems


class Ledger:
    """Per-item times, per-run samples, fingerprints and failures."""

    def __init__(self, items, expected_l1=None):
        self.items = items
        self.expected_l1 = expected_l1 or {}
        self.times = {it.name: [] for it in items}
        self.traced_times = {it.name: [] for it in items}
        self.ns_per_cell_step = []
        self.runs = {}           # run key -> record of its first execution
        self.traced_results = []  # RunResults of traced executions
        self.span_ranges = {}    # item -> spans of its first traced run
        self.failures = []       # one message per problem found
        self.attempted = 0
        self.failed = 0

    def execute(self, item, tracer=None):
        """Run ``item`` once, time it and check its output.  Exceptions
        from rsir1d are counted as failures, not raised."""
        self.attempted += 1
        if tracer is not None:
            first_span = len(tracer.fid)
        try:
            if tracer is not None:
                tracer.install()
            try:
                with captured_runs() as runs:
                    t0 = time.perf_counter()
                    value = item.execute()
                    elapsed = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            l1 = item.l1(value, runs)
        except Exception as err:  # any solver failure is a counted result
            self.failed += 1
            self.failures.append(f"{item.name}: {type(err).__name__}: {err}")
            return False
        problems = []
        if len(runs) != len(item.run_keys):
            problems.append(f"expected {len(item.run_keys)} runs, "
                            f"saw {len(runs)}")
        for key, (res, seconds) in zip(item.run_keys, runs):
            problems += [f"{key}: {p}" for p in
                         check_run(res, l1[key], self.expected_l1.get(key))]
            fp = fingerprint(res.final_cons)
            first = self.runs.setdefault(key, {
                "fingerprint": fp,
                "n_cells": res.manifest["n_cells"],
                "steps": res.manifest["steps"],
                "dt_rejections": res.manifest["dt_rejections"],
                "max_conservation_defect":
                    res.manifest["max_conservation_defect"],
                "l1_rho": l1[key],
            })
            if first["fingerprint"] != fp:
                kind = "traced" if tracer is not None else "repeated"
                problems.append(f"{key}: {kind} run fingerprint differs")
            if tracer is not None:
                self.traced_results.append(res)
            elif not item.seeded:
                cell_steps = res.manifest["n_cells"] * res.manifest["steps"]
                self.ns_per_cell_step.append(seconds / cell_steps * 1e9)
        if problems:
            self.failed += 1
            self.failures += problems
            return False
        times = self.times if tracer is None else self.traced_times
        times[item.name].append(elapsed)
        if tracer is not None:
            self.span_ranges.setdefault(item.name, (first_span,
                                                    len(tracer.fid)))
        return True

    def loop(self, seconds, min_rounds, tracer=None):
        """Execute the items round robin, each at least ``min_rounds``
        times, then as long as the next one fits into ``seconds``.  With
        a tracer each round runs every item untraced and then traced."""
        t_begin = time.perf_counter()
        k = 0
        while True:
            item = self.items[k % len(self.items)]
            if k >= min_rounds * len(self.items):
                guess = sum(statistics.median(t) for t in (
                    self.times[item.name], self.traced_times[item.name]) if t)
                if time.perf_counter() - t_begin + guess > seconds:
                    break
            self.execute(item)
            if tracer is not None:
                self.execute(item, tracer)
            k += 1

    def wall_s(self, traced=False):
        """Sum over items of the median time of one execution."""
        times = self.traced_times if traced else self.times
        return sum(statistics.median(t) for t in times.values() if t)
