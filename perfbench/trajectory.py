"""Result sets: save a trajectory point, diff two result sets.

A result set is a directory of run records (what run.py writes under
perfbench/results/) or a saved trajectory point (one JSON file holding
the environment and the records).

    python3 perfbench/trajectory.py save LABEL [RESULTS_DIR]
        freeze RESULTS_DIR (default perfbench/results) into
        perfbench/trajectory/LABEL.json
    python3 perfbench/trajectory.py diff BEFORE AFTER
        per workload and metric: medians, quartiles and the verdict
        against the bound in BENCHMARK.json, then the fingerprint diff;
        exits 1 when an end-to-end metric got worse than its bound
"""

import json
import statistics
import sys
from pathlib import Path

import bootstrap

HERE = bootstrap.ROOT / "perfbench"
TRAJECTORY = HERE / "trajectory"
# the first trajectory point: the seed commit, whose oracle L1 errors
# the correctness gate holds later commits to
BASELINE = TRAJECTORY / "seed-762f87f.json"


def spec():
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load(path):
    """The run records of a result set (directory or saved point)."""
    path = Path(path)
    if path.is_dir():
        records = []
        for f in sorted(path.rglob("*.json")):
            with open(f) as fh:
                records.append(json.load(fh))
        return records
    with open(path) as fh:
        return json.load(fh)["records"]


def expected_l1(workload):
    """Baseline L1 density error of each oracle-scored run key."""
    if not BASELINE.exists():
        return {}
    out = {}
    for rec in load(BASELINE):
        if rec["workload"] == workload:
            for key, run in rec["runs"].items():
                if run["l1_rho"] is not None:
                    out[key] = max(out.get(key, 0.0), run["l1_rho"])
    return out


def save(label, results_dir):
    records = load(results_dir)
    if not records:
        raise SystemExit(f"no run records under {results_dir}")
    TRAJECTORY.mkdir(exist_ok=True)
    out = TRAJECTORY / f"{label}.json"
    with open(out, "w") as fh:
        json.dump({"label": label, "env": records[0]["env"],
                   "records": records}, fh, indent=1)
    print(f"wrote {len(records)} records to {out}")


def _series(records):
    """{(workload, trace): {metric: [values]}} and the fingerprints."""
    series, prints = {}, {}
    for rec in records:
        per = series.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
        for key, run in rec["runs"].items():
            prints[(rec["workload"], rec["seed"], key)] = run["fingerprint"]
    return series, prints


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(before, after, better, bound):
    """Compare two samples of one metric against its bound."""
    q1a, ma, q3a = _quartiles(before)
    q1b, mb, q3b = _quartiles(after)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    beats_all = (max(after) < min(before) if better == "lower"
                 else min(after) > max(before))
    if worse > bound:
        return "WORSE"
    if spread > bound and not beats_all:
        return "unresolved"
    if -worse > (q3a - q1a) / ma:
        return "better"
    return "same"


def diff(before_path, after_path):
    bench = spec()
    bounds = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    before, prints_a = _series(load(before_path))
    after, prints_b = _series(load(after_path))
    regressed = False
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'})")
        print(f"  {'metric':40s} {'before q1/med/q3':>32s} "
              f"{'after q1/med/q3':>32s} {'change':>8s}  verdict")
        for name in before[key]:
            if name not in after[key] or name not in bounds:
                continue
            a, b = before[key][name], after[key][name]
            qa, qb = _quartiles(a), _quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            m = bounds[name]
            if "bound" in m:
                v = verdict(a, b, m["better"], m["bound"])
                regressed |= v == "WORSE"
                v += f" (bound {m['bound']:.0%}, n={len(a)}/{len(b)})"
            else:
                v = "no bound"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:40s} {fmt.format(*qa):>32s} "
                  f"{fmt.format(*qb):>32s} {change:+8.1%}  {v}")
    shared = sorted(set(prints_a) & set(prints_b))
    differ = [k for k in shared if prints_a[k] != prints_b[k]]
    print(f"fingerprints: {len(shared) - len(differ)} equal, "
          f"{len(differ)} differ, {len(set(prints_a) - set(prints_b))} "
          f"only before, {len(set(prints_b) - set(prints_a))} only after")
    for workload, seed, run in differ[:30]:
        print(f"  differs: {workload} seed {seed} {run}")
    return 1 if regressed else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "save":
        save(argv[1], argv[2] if len(argv) > 2 else HERE / "results")
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
