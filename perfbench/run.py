"""rsir1d benchmark: time one workload and check its results.

    python3 perfbench/run.py --workload euler-compare --seed 1 \\
        --seconds 40 --trace 0

With ``--trace 0`` the workload's items run untraced, round robin, for
``--seconds`` (each at least three times) and the end-to-end metrics are
printed.  With ``--trace 1`` every item runs untraced and then traced,
both runs must give bitwise equal results, and the per-layer metrics are
printed.  Every run is checked by the correctness gate in measure.py.
The last line of standard output is one JSON object; the full record,
fingerprints included, is written to
perfbench/results/<workload>/seed-<n>[-trace].json.  The exit status is
1 when any item failed.  README.md describes workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import numpy as np

import bootstrap

bootstrap.use_checkout_source()
import measure  # noqa: E402
import trajectory  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = bootstrap.ROOT / "perfbench"
RESULTS = HERE / "results"
UNTRACED_ROUNDS = 3   # least executions of each item in a timed run
SETUP_REPEATS = 9     # fresh processes timed for setup_s


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def setup_seconds(workload, seed):
    """Set-up time of SETUP_REPEATS fresh processes, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, check=True,
            timeout=120)
        out.append(float(proc.stdout.split()[-1]))
    return out


def end_to_end(ledger, setup, tail_percentile):
    tail_value, beyond = measure.tail(ledger.ns_per_cell_step, tail_percentile)
    scored = [ledger.runs[key]["l1_rho"] for item in ledger.items
              if not item.seeded for key in item.run_keys
              if key in ledger.runs and ledger.runs[key]["l1_rho"] is not None]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": ledger.wall_s(),
        "ns_per_cell_step.p50": statistics.median(ledger.ns_per_cell_step),
        "ns_per_cell_step.tail": tail_value,
        "l1_rho": sum(scored),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"tail_percentile": tail_percentile,
             "ns_samples": len(ledger.ns_per_cell_step),
             "ns_samples_beyond_tail": beyond,
             "scored_runs": len(scored), "setup_samples_s": setup,
             "ns_per_cell_step_samples": ledger.ns_per_cell_step,
             "item_times_s": ledger.times}
    return values, extra


def per_step_counters(results):
    """Counters that the driver's manifests already hold."""
    man = [r.manifest for r in results]
    steps = sum(m["steps"] for m in man)
    attempts = sum(m["steps"] + m["dt_rejections"] for m in man)
    tp = [m for m in man if m["model"] == "two-phase"]
    tp_steps = sum(m["steps"] for m in tp)
    faces = sum((m["steps"] + m["dt_rejections"]) * (m["n_cells"] + 1)
                for m in tp)
    return {
        "steps": steps,
        "driver.reject_ratio": (attempts - steps) / attempts,
        "twophase.fallback_ratio":
            sum(m["positivity_fallbacks"] for m in tp) / faces if faces
            else 0.0,
        "twophase.alpha_clamps_per_step":
            sum(m["alpha_clamps"] for m in tp) / tp_steps if tp_steps
            else 0.0,
    }


COUNTED = ("euler.prim_from_cons", "eos", "twophase.tp_prim_from_cons")


def layer_breakdown(spans, results):
    """Self ms per step of each layer, and calls per step."""
    an = tracer.analyse(spans)
    steps = sum(r.manifest["steps"] for r in results)
    out = {f"{layer}.self_ms_per_step": s * 1e3 / steps
           for layer, s in an["layer_self_s"].items()}
    out["euler.flux.self_ms_per_step"] = an["euler_flux_self_s"] * 1e3 / steps
    counts, _ = tracer.calls_per_step(spans, COUNTED)
    out.update({f"{t}.calls_per_step": c for t, c in counts.items()})
    return out, an


def per_layer(ledger, tr):
    spans = tr.spans()
    values, an = layer_breakdown(spans, ledger.traced_results)
    values.update(per_step_counters(ledger.traced_results))
    rounds = sum(len(t) for t in ledger.traced_times.values()) \
        / len(ledger.items)
    values.update({
        "relaxation.bisection_ratio":
            tr.relax_bisections / tr.relax_calls if tr.relax_calls else 0.0,
        "exact_riemann.self_ms":
            an["layer_self_s"]["exact_riemann"] * 1e3 / rounds,
        "cases.self_ms": an["layer_self_s"]["cases"] * 1e3 / rounds,
        "trace_overhead": ledger.wall_s(traced=True) / ledger.wall_s(),
    })
    items = {name: tracer.calls_per_step(
                 tracer.slice_spans(spans, lo, hi), COUNTED)[0]
             for name, (lo, hi) in ledger.span_ranges.items()}
    extra = {"steps": values["steps"], "traced_rounds": rounds,
             "untraced_wall_s": ledger.wall_s(),
             "traced_wall_s": ledger.wall_s(traced=True),
             "calls_per_step_by_item": items,
             "calls": an["calls"], "function_self_s": an["function_self_s"],
             "relax_calls": tr.relax_calls,
             "relax_bisections": tr.relax_bisections}
    return values, extra, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    items = workloads.build(args.workload, args.seed)
    ledger = measure.Ledger(items, trajectory.expected_l1(args.workload))
    if args.trace:
        tr = tracer.Tracer()
        ledger.loop(args.seconds, min_rounds=1, tracer=tr)
        timed = ledger.traced_times
    else:
        for item in items:
            item.prepare()
        setup = setup_seconds(args.workload, args.seed)
        ledger.loop(args.seconds, min_rounds=UNTRACED_ROUNDS)
        timed = ledger.times
    # metrics need every item to have passed at least once
    values, extra, spans = {}, {}, None
    if all(timed.values()):
        if args.trace:
            values, extra, spans = per_layer(ledger, tr)
        else:
            values, extra = end_to_end(
                ledger, setup, workloads.TAIL_PERCENTILE[args.workload])
    extra["fail_ratio"] = ledger.failed / ledger.attempted

    spec = trajectory.spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec if values}
    correct = ledger.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(), "correct": correct,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures[:50], "metrics": metrics,
        "extra": extra, "runs": ledger.runs,
    }
    out_dir = RESULTS / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"seed-{args.seed}" + ("-trace" if args.trace else "")
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        np.savez(out_dir / f"{stem}-spans.npz", **spans)

    print(f"{args.workload} seed {args.seed}: {ledger.attempted} item "
          f"executions, {ledger.failed} failed "
          f"(fail_ratio {extra['fail_ratio']:.4g})")
    for msg in ledger.failures[:20]:
        print(f"  FAIL {msg}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for name, counts in extra.get("calls_per_step_by_item", {}).items():
        print(f"  calls/step in {name}: " + ", ".join(
            f"{t} {c:g}" for t, c in counts.items()))
    if "tail_percentile" in extra:
        print(f"  ns_per_cell_step.tail is p{extra['tail_percentile']:g} "
              f"of {extra['ns_samples']} runs "
              f"({extra['ns_samples_beyond_tail']:g} beyond it)")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
