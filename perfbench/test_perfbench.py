"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload's deterministic counts (hits, misses, rent rounds,
evictions, frontier peak, states expanded, audit events, verify checks,
report bytes) must repeat exactly between two untraced runs and the traced
run, and every op must pass its checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import import_cachelab  # noqa: E402

import_cachelab(ROOT)

import measure  # noqa: E402

EXPECTED_COUNTS = {
    "zipf_files": {"hits", "misses", "rent_rounds", "evictions"},
    "hot_set": {"hits", "misses", "rent_rounds", "evictions", "report_bytes", "trace_lines"},
    "adversarial_sweep": {"hits", "misses", "rent_rounds", "evictions", "verify_checks",
                          "paging_requests"},
    "desk_exact": {"hits", "misses", "rent_rounds", "evictions", "frontier_peak",
                   "states_expanded", "audit_events"},
}


@pytest.mark.parametrize("name", sorted(measure.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # zero seconds: exactly one round of ops
    runs = [measure.benchmark(name, 3, 0, traced)[0] for traced in (False, False, True)]
    for run in runs:
        assert run.failed == 0, run.problems
        assert run.rounds == 1
    assert set(runs[0].counts) == EXPECTED_COUNTS[name]
    assert runs[0].counts == runs[1].counts == runs[2].counts
    assert all(value > 0 for value in runs[0].counts.values())


def test_runs_report_every_declared_metric(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, e2e, layer = measure.benchmark("hot_set", 5, 0, True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for reported, kind in ((e2e, "end_to_end"), (layer, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        assert {key: unit for key, (_, unit) in reported.items()} == declared
    assert layer["reports.bytes"][0] > 0 and layer["trace.parse_s"][0] > 0


def test_command_line_names_every_workload():
    import run
    assert set(run.WORKLOAD_NAMES) == set(measure.WORKLOADS)


def test_tail_has_ten_ops_beyond_it():
    assert measure.tail(list(range(100))) == (89, 90.0, 10)
    assert measure.tail([3, 1, 2]) == (3, 100.0, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot_set", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_clock_scales_each_segment(monkeypatch):
    import reference
    times = iter([0.009, 0.003])    # the reference loop before and after
    monkeypatch.setattr(reference, "reference_time", lambda: next(times))
    clock = reference.ReferenceClock()
    clock.start -= 1.0              # a segment of one second
    clock.cut()
    wall, scaled = clock.totals()
    assert wall == pytest.approx(1.0, abs=0.05)
    assert scaled == pytest.approx(wall * reference.REFERENCE_S / 0.006)
    assert clock.references == [0.009, 0.003]
