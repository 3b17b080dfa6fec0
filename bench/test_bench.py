"""Tests of the benchmark itself, on smoke-sized inputs.

    python -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import (CliMix, SplitMix64, WindowScan, symmetry_failures,
                       window_count)

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
EXACT = ("ideals.nodes", "ideals.members", "ideals.pools",
         "core.color.calls", "core.edge_index.calls", "core.contains.calls")


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def test_generator_is_splitmix64():
    assert SplitMix64(0).next() == 0xE220A8397B1DCDAF
    a, b = SplitMix64(7), SplitMix64(7)
    assert a.shuffled(list(range(20))) == b.shuffled(list(range(20)))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (False, True))
def test_smoke_run_reports_every_metric(name, trace):
    result, env = run.run_benchmark(name, 3, 0, trace, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert env["nproc"] == run.nproc()
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ("window-scan", "cli-mix"))
def test_exact_counters_repeat_across_seeds(name):
    first, _ = run.run_benchmark(name, 1, 0, True, smoke=True)
    second, _ = run.run_benchmark(name, 2, 0, True, smoke=True)
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["ideals.pools"] == 0


def _wrong(counts: dict) -> dict:
    bad = dict(counts)
    bad[max(bad)] += 1
    return bad


def test_window_oracles_trip(workdir):
    wl = WindowScan(0, workdir, smoke=True)
    counts = {n: window_count("0110", n) for n in range(1, 6)}
    exact = {n: True for n in counts}
    ok = (counts, exact, "linear-floor satisfied")
    assert wl.check("0110", ok) is None
    assert wl.check("0110", (_wrong(counts), exact, ok[2]))
    assert wl.check("0110", (counts, exact, "violation"))
    seqs = {format(b, "04b"): tuple(window_count(format(b, "04b"), n)
                                    for n in range(1, 7)) for b in range(16)}
    assert symmetry_failures(seqs) == []
    seqs["0001"] = seqs["0001"][:-1] + (seqs["0001"][-1] + 1,)
    assert "0001" in symmetry_failures(seqs)


def test_cli_oracle_trips(workdir):
    wl = CliMix(0, workdir, smoke=True)
    wl.begin_pass()
    ops = wl.pass_ops()
    results = {op.key: op.call() for op in ops}
    assert all(wl.check(k, r) is None for k, r in results.items())
    key = next(k for k in results if k.endswith(" miss"))
    rc, out = results[key]
    assert wl.check(key, (rc, out + "n=6 count=1\n"))
    assert wl.check(key, (1, out))


def test_reference_kernel_is_fixed_work():
    assert run.reference_kernel() == run.KERNEL_RESULT
    ref = run.KERNEL_REF_S
    assert run.in_reference_s(3.0, ref, ref) == pytest.approx(3.0)
    # a host running the kernel at half speed halves every scaled time
    assert run.in_reference_s(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "window-scan", "--seed", "5", "--seconds", "0", "--trace", "0",
         "--smoke"], cwd=run.ROOT, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "window-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
