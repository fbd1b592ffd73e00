"""Tests of the benchmark itself: tracing, row accounting and determinism."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

xt = run.load_package()


def _module_functions():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "exptwolevel" or name.startswith("exptwolevel.")
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_cover_imported_names_and_restore_originals():
    before = _module_functions()
    with tracing.Tracer():
        # analytic holds kummer_m and sweep holds populations under their own names
        assert xt.analytic.kummer_m is not before[("exptwolevel.specfun", "kummer_m")]
        assert xt.sweep.populations is not before[("exptwolevel.analytic", "populations")]
        assert xt.sweep.populations is xt.analytic.populations
    after = _module_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ["fig-populations", "spectral-maps", "t-scan", "random-box"])
def test_traced_rows_equal_untraced_rows(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = w.inputs(xt, 1, small=True)[0][:1]  # one sweep, or one random point
    plain = w.run(xt, inputs, str(tmp_path))
    plain_digests = w.digests(plain)
    with tracing.Tracer() as tracer:
        traced, wall = tracer.run(0, w.run, xt, inputs, str(tmp_path))
    spans = tracer.take()
    assert w.digests(traced) == plain_digests
    if name == "random-box":
        assert repr(plain[1]) == repr(traced[1])
        assert np.array_equal(plain[2], traced[2], equal_nan=True)
    m = tracing.pass_metrics(spans, traced[0], tracing.calibrate())
    assert m["trace.wall_s"] == pytest.approx(wall)
    assert 0 < m["trace.overhead_s"] < wall
    self_total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["bench.self_s"]
    assert self_total + m["trace.overhead_s"] == pytest.approx(wall, rel=1e-6)
    assert m["specfun.kummer_m.calls"] > 0 or name == "spectral-maps"


def _span(name, parent, start, end, cpu=None):
    sp = tracing.Span(name, name.split(".", 1)[0], parent, 0, 0)
    sp.start, sp.end = start, end
    if cpu is not None:
        sp.cpu_start, sp.cpu_end = 0.0, cpu
    return sp


def test_calibrated_wrapper_time_comes_off_self_times():
    # root 0..10 s; a run-thread child 1..5 s with a worker grandchild of 2 s CPU
    root = _span(tracing.ROOT_SPAN, None, 0.0, 10.0)
    child = _span("sweep.run_sweep", root, 1.0, 5.0)
    worker = _span("specfun.kummer_m", child, 1.5, 4.5, cpu=2.0)
    cost = {False: (0.1, 0.2), True: (0.01, 0.02)}
    m = tracing.pass_metrics([worker, child, root], 1, cost)
    assert m["specfun.kummer_m.self_s"] == pytest.approx(2.0 - 0.01)
    assert m["sweep.run_sweep.self_s"] == pytest.approx(4.0 - 2.0 - 0.1 - 0.02)
    assert m["bench.self_s"] == pytest.approx(10.0 - 4.0 - 0.2)
    assert m["trace.overhead_s"] == pytest.approx(0.1 + 0.2 + 0.01 + 0.02)
    assert m["trace.wall_s"] == pytest.approx(10.0)


def test_calibrated_cost_is_small_and_positive():
    cost = tracing.calibrate()
    for inside, outside in cost.values():
        assert 0 <= inside < 1e-4 and 0 <= outside < 1e-4
    assert sum(cost[False]) > 0


def test_flagged_row_counts_toward_fail_share_only():
    tally = workloads.Tally()
    tally.add(True, None)
    tally.add(False, 1e-3)  # unflagged and out of tolerance
    tally.add(False, 1e-9)
    tally.add(False, math.nan)
    tally.add(False, None)  # unchecked
    assert (tally.attempted, tally.flagged, tally.silent_wrong, tally.checked) == (5, 1, 2, 3)
    assert tally.fail_share == 3 / 5
    assert tally.silent_wrong_share == 2 / 5
    assert tally.max_dev == math.inf


def test_small_random_box_counts_repeat(tmp_path):
    w = workloads.WORKLOADS["random-box"]
    counts = []
    for _ in range(2):
        tally = workloads.Tally()
        w.check(xt, w.run(xt, w.inputs(xt, 3, small=True)[0], str(tmp_path)), 3, tally)
        counts.append(vars(tally))
    assert counts[0] == counts[1]
    assert counts[0]["attempted"] == 8


def test_random_box_draws_are_seeded_and_cover_the_box():
    w = workloads.WORKLOADS["random-box"]
    draws = w.inputs(xt, 5)
    assert draws == w.inputs(xt, 5) and draws != w.inputs(xt, 6)
    assert len(draws) == workloads.RANDOM_DRAWS
    for draw in draws:
        alpha = np.log([p["alpha"] for p in draw])
        # one point in each of the equal bins of log alpha
        bins = np.floor((alpha - np.log(0.02)) / np.log(5.0 / 0.02) * len(draw))
        assert sorted(bins) == list(range(len(draw)))
        assert all(-4.0 <= p["beta"] and p["alpha"] + p["beta"] <= 2.0 for p in draw)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in tracing.PER_LAYER]
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "t-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
