"""Tests of the benchmark itself: span accounting, exact counts, failure
counting, the correctness gate and the diff verdicts.

    python3 -m pytest -q perfbench/tests
"""

import json
from dataclasses import replace

import numpy as np

import measure
import run
import trajectory
import tracer
import workloads
from rsir1d import cases, driver


def shock_tube_item(n_cells=1000):
    case = replace(cases.builtin_case("euler-shock-tube"), n_cells=n_cells,
                   solver="rsir", beta=1.0)
    return workloads.RunItem("shock-tube/rsir", case)


def traced(item):
    tr = tracer.Tracer()
    ledger = measure.Ledger([item])
    assert ledger.execute(item)
    assert ledger.execute(item, tr), ledger.failures
    return ledger, tr.spans()


def test_self_time_plus_child_time_is_span_time():
    # synthetic tree: 0 -> (1 -> 2), 3
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    own = tracer.self_times(parent, end - start)
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0]

    _, spans = traced(shock_tube_item(200))
    duration = spans["end"] - spans["start"]
    own = tracer.self_times(spans["parent"], duration)
    children = np.zeros_like(duration)
    np.add.at(children, spans["parent"][spans["parent"] >= 0],
              duration[spans["parent"] >= 0])
    assert np.allclose(own + children, duration, rtol=0, atol=1e-12)
    assert np.all(own >= -1e-9)
    an = tracer.analyse(spans)
    assert np.isclose(sum(an["layer_self_s"].values()), an["total_s"],
                      rtol=1e-9)


def test_counts_repeat_exactly_and_match_the_seed_step():
    item = shock_tube_item()
    first_ledger, first = traced(item)
    _, second = traced(item)
    assert tracer.analyse(first)["calls"] == tracer.analyse(second)["calls"]
    counted = ("euler.prim_from_cons", "eos")
    per_step, windows = tracer.calls_per_step(first, counted)
    assert per_step == tracer.calls_per_step(second, counted)[0]
    assert windows == first_ledger.runs["shock-tube/rsir"]["steps"] - 1
    assert per_step == {"euler.prim_from_cons": 5.0, "eos": 16.0}


def test_traced_run_is_bitwise_equal_to_untraced():
    item = shock_tube_item(300)
    ledger, _ = traced(item)   # execute() flags any fingerprint change
    plain = driver.run(item.case)
    assert ledger.runs[item.name]["fingerprint"] == \
        measure.fingerprint(plain.final_cons)
    assert driver.run.__module__ == "rsir1d.driver"  # wrappers removed


def test_known_seed_failure_is_counted_not_raised():
    case = replace(cases.builtin_case("water-nasg-transport"), solver="linde")
    item = workloads.RunItem("water-nasg-transport/linde", case)
    ledger = measure.Ledger([item])
    assert ledger.execute(item) is False
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "StepError" in ledger.failures[0]
    assert "step 439" in ledger.failures[0]


def test_gate_rejects_bad_outputs():
    res = driver.run(shock_tube_item(50).case)
    assert measure.check_run(res, 0.01, 0.01) == []
    assert measure.check_run(res, 0.0115, 0.01)      # 15% less accurate
    assert measure.check_run(res, float("nan"), None)
    res.manifest["max_conservation_defect"] = 1e-9
    assert measure.check_run(res, None, None)
    res.manifest["max_conservation_defect"] = 0.0
    res.final_cons[3, 0] = np.nan
    assert measure.check_run(res, None, None) == ["non-finite state"]


def test_tail_counts_samples_beyond_the_percentile():
    assert measure.tail(list(range(101)), 90.0) == (90.0, 10.1)
    assert measure.tail(list(range(40)), 75.0)[1] == 10.0


def test_inputs_come_from_the_seed():
    a = workloads.build("euler-compare", 4)
    b = workloads.build("euler-compare", 4)
    c = workloads.build("euler-compare", 5)
    assert [i.case for i in a] == [i.case for i in b]
    assert a[-1].case.left != c[-1].case.left
    assert [i.case for i in a[:5]] == [i.case for i in c[:5]]


def test_diff_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert trajectory.verdict(base, [1.3, 1.31, 1.29], "lower", 0.1) == \
        "WORSE"
    assert trajectory.verdict(base, [0.7, 0.71, 0.69], "lower", 0.1) == \
        "better"
    assert trajectory.verdict(base, [1.0, 1.005, 0.995], "lower", 0.1) == \
        "same"
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert trajectory.verdict(base, noisy, "lower", 0.1) == "unresolved"


def test_failed_item_makes_the_command_fail(monkeypatch, tmp_path, capsys):
    case = replace(cases.builtin_case("water-nasg-transport"), solver="linde")
    monkeypatch.setattr(run.workloads, "build", lambda name, seed: [
        workloads.RunItem("water-nasg-transport/linde", case)])
    monkeypatch.setattr(run, "setup_seconds", lambda name, seed: [0.1])
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    status = run.main(["--workload", "failing", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert (last["correct"], last["attempted"], last["failed"]) == \
        (False, 3, 3)
