"""Benchmark of the hypergrowth toolkit: end-to-end and per-layer numbers.

Run from the root of a source checkout:

    python3 bench/run.py --workload window-scan --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of that checkout (nothing needs to
be installed); without ``src/hypergrowth`` the run exits with code 2 and
prints no result.

A run sets the workload up (fresh import plus input generation), runs one
warm-up pass, then runs whole passes of the workload, one caller, each op
after the previous one (closed loop), until ``--seconds`` have elapsed and
at least ``MIN_PASSES`` passes are done.  Before each timed pass and at
the end it sets up ``SETUP_REPS`` more times and starts
``STARTUP_PROBES`` subprocesses; ``setup_s`` is the median of the set-up
samples and ``startup_ms`` the interquartile mean of the start times.
Every op's output is checked by the workload's oracle; a wrong or failed
op counts in ``failed`` and makes the run exit with code 1.

Times are reported in reference seconds.  A shared host runs the same
code up to twice as fast in some spells as in others, and a spell can
last a whole run, so seconds as measured move with the host, not the
program.  The benchmark therefore times a fixed kernel of its own
(``reference_kernel``) before and after every stretch of about the
workload's ``calibrate_every_s`` of ops, every set-up and every startup
probe, and scales each time by ``KERNEL_REF_S`` over the mean of the two
kernel times around it: a reference second is the time in which the kernel
would run ``1 / KERNEL_REF_S`` times.  The library never runs inside
the kernel, so a change to it moves the scaled times as it moves the
measured ones.  The machine line keeps the times as measured.

Before each kernel run the benchmark collects garbage.  The engine's
recursive walk leaves reference cycles that hold whole levels of members
until the cyclic collector runs, and when it runs depends on what ran
before, the kernel included.  window-scan therefore calibrates, and so
collects, between every two ops: with a collection only every 0.4 s,
``peak_rss_mb`` moved by up to 25 % between runs of the same code.
Garbage made inside an op still counts, as it is not collected until
the op ends.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``op_p50_ms`` is the median op time over all timed passes and
``op_tail_ms`` the mean of the op times at or above the tail percentile
(the highest of ``TAIL_LADDER`` with at least 10 of ``MIN_PASSES``
passes' ops beyond it); ``startup_ms`` times a subprocess start of a
trivial verb.  ``--trace 1``
alternates traced and untraced passes after the warm-up (at least one of
each) and reports the per-layer metrics of the traced passes (lower
median over passes), plus ``trace.overhead_s``: traced minus untraced
median pass wall time.  Spans go to ``.bench_out/spans-<workload>.tsv``
(the last traced run).

The last line of stdout is the result object; the line before it records
the machine (CPU count, Python, CPU model, load average at start and end),
the tail percentile used, and the raw samples, scaled and as measured.
``--smoke`` shrinks the inputs to a few seconds for the benchmark's own
tests (``python -m pytest bench``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3
SETUP_REPS = 3
STARTUP_PROBES = 6
STARTUP_ARGV = ["sequence", "--name", "G", "--n", "11"]
STARTUP_OUT = "G(11)=41\n"
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
# the reference kernel: its size, its result, and its time in reference
# seconds (about its median time on a shared 2-vCPU Xeon VM)
KERNEL_BITS = 17
KERNEL_RESULT = (35890, 85522)
KERNEL_REF_S = 0.040


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "python": platform.python_version(),
            "cpu_model": model}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the samples.

    Start times on a shared host fall into a fast and a slow cluster; the
    median jumps between them as their shares change, this mean does not.
    """
    xs = sorted(values)
    lo, hi = len(xs) // 4, len(xs) - len(xs) // 4
    return statistics.fmean(xs[lo:hi])


def tail_mean(values: list[float], p: float) -> float:
    """Mean of the samples at or above the p-th percentile.

    The slowest ops of a pass are a few distinct inputs with very
    different times, so the percentile itself jumps between them as
    their order shifts; the mean beyond it does not.
    """
    cut = percentile(values, p)
    return statistics.fmean(x for x in values if x >= cut)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def cpu_now() -> float:
    """Own plus reaped children's CPU seconds."""
    return sum(ru.ru_utime + ru.ru_stime for ru in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _library_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "hypergrowth" or name.startswith("hypergrowth.")}


def fresh_setup(cls, seed: int, workdir: str, smoke: bool):
    """Import the library anew and build the workload's inputs.

    The modules already imported are put back afterwards, so a workload
    built earlier keeps finding its own functions under their import
    paths (worker pools pickle functions by that path).
    """
    live = _library_modules()
    for name in live:
        del sys.modules[name]
    t0 = time.perf_counter()
    wl = cls(seed, workdir, smoke)
    elapsed = time.perf_counter() - t0
    if live:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(live)
    return wl, elapsed


def reference_kernel(m: int = KERNEL_BITS) -> tuple[int, int]:
    """Fixed pure-Python work shaped like the engine's level step.

    A depth-first walk over m-bit masks without three adjacent ones,
    collecting the leaves and sorting them.  It uses only the benchmark's
    own code, so no change to the library can change its time; only the
    machine's speed can.
    """
    members = []
    nodes = 0

    def walk(j: int, mask: int):
        nonlocal nodes
        if j == m:
            members.append(mask)
            return
        for col in (0, 1):
            nodes += 1
            nm = mask | (col << j)
            if j >= 2 and (nm >> (j - 2)) & 7 == 7:
                continue
            walk(j + 1, nm)

    walk(0, 0)
    members.sort(key=lambda x: -x)
    return len(members), nodes


def kernel_seconds() -> float:
    gc.collect()
    t0 = time.perf_counter()
    got = reference_kernel()
    dt = time.perf_counter() - t0
    if got != KERNEL_RESULT:
        raise RuntimeError(f"reference kernel gave {got}")
    return dt


def in_reference_s(seconds: float, kernel_before: float,
                   kernel_after: float) -> float:
    """Seconds measured between two kernel runs, in reference seconds."""
    return seconds * 2 * KERNEL_REF_S / (kernel_before + kernel_after)


def run_pass(wl, tracer, op_base: int):
    """One pass; returns wall, cpu, op times, results and failures.

    The reference kernel runs before the first op and again whenever
    the workload's ``calibrate_every_s`` of op time has passed since it
    last ran.  The ops between two kernel runs form a stretch; their wall
    and CPU times are converted to reference seconds with the kernel
    times at the two ends of the stretch.  ``raw_wall`` is the pass's op
    time as measured.
    """
    wl.begin_pass()
    ops = wl.pass_ops()
    times, results, errors = [], {}, {}
    kernels = [kernel_seconds()]
    wall = cpu = raw = 0.0
    stretch, cpu0 = [], cpu_now()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_base + i
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception:  # a failed op is counted, the run goes on
            errors[op.key] = traceback.format_exc()
            res = None
        stretch.append(time.perf_counter() - t0)
        results[op.key] = res
        if sum(stretch) >= wl.calibrate_every_s or i == len(ops) - 1:
            stretch_cpu = cpu_now() - cpu0
            kernels.append(kernel_seconds())
            ends = kernels[-2:]
            times.extend(in_reference_s(t, *ends) for t in stretch)
            wall += in_reference_s(sum(stretch), *ends)
            cpu += in_reference_s(stretch_cpu, *ends)
            raw += sum(stretch)
            stretch, cpu0 = [], cpu_now()
    members = 0
    for key, res in results.items():
        if key in errors:
            continue
        err = wl.check(key, res)
        if err:
            errors[key] = err
        else:
            members += wl.members(key, res)
    for key in wl.check_pass({k: v for k, v in results.items()
                              if k not in errors}):
        errors.setdefault(key, f"{key}: whole-pass oracle failed")
    return {"wall": wall, "cpu": cpu, "raw_wall": raw, "kernels": kernels,
            "times": times, "ops": len(ops),
            "members": members, "errors": errors}


# Runs each probe for the benchmark and times it.  Probes start from this
# small process, not from the benchmark: a child started by vfork reports
# its parent's peak RSS, which would mask the workers' peak.
LAUNCHER = """
import json, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, env = json.loads(line)
    t0 = time.perf_counter()
    p = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                       text=True, timeout=60)
    print(json.dumps([time.perf_counter() - t0, p.returncode, p.stdout]),
          flush=True)
"""


class Launcher:
    """Helper process that starts and times the startup probes."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def probe(self) -> tuple[float, bool]:
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("HYPERGROWTH_CACHE", None)
        argv = [sys.executable, "-m", "hypergrowth.cli", *STARTUP_ARGV]
        self.proc.stdin.write(json.dumps([argv, ROOT, env]) + "\n")
        self.proc.stdin.flush()
        dt, rc, out = json.loads(self.proc.stdout.readline())
        return dt, rc == 0 and out == STARTUP_OUT

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False) -> tuple[dict, dict]:
    """Returns (result object, machine record)."""
    env = machine()
    env["load_start"] = os.getloadavg()
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    launcher = None if trace else Launcher()
    try:
        cls = WORKLOADS[workload]
        kernel = kernel_seconds()
        wl, setup_s = fresh_setup(cls, seed, workdir, smoke)
        setups = [in_reference_s(setup_s, kernel, kernel_seconds())]
        probes, raw_setups, raw_probes = [], [setup_s], []

        def sample_setup_and_startup():
            # spread over the run, so that the medians see more than one
            # spell of the machine's speed
            if trace:
                return
            for _ in range(SETUP_REPS):
                before = kernel_seconds()
                dt = fresh_setup(cls, seed, spare, smoke)[1]
                setups.append(in_reference_s(dt, before, kernel_seconds()))
                raw_setups.append(dt)
            before = kernel_seconds()
            for _ in range(STARTUP_PROBES):
                dt, ok = launcher.probe()
                after = kernel_seconds()
                probes.append((in_reference_s(dt, before, after), ok))
                raw_probes.append(dt)
                before = after

        spare = workdir + "-spare"
        os.makedirs(spare, exist_ok=True)
        # the warm-up pass grows the heap; it is checked but not timed
        passes = [run_pass(wl, None, 0)]
        start = time.perf_counter()
        tracer = Tracer() if trace else None
        traced = []
        while True:
            sample_setup_and_startup()
            use_trace = trace and len(passes) % 2 == 1
            if use_trace:
                tracer.install()
                tracer.begin_pass()
            try:
                p = run_pass(wl, tracer if use_trace else None,
                             sum(q["ops"] for q in passes))
            finally:
                if use_trace:
                    tracer.uninstall()
            p["traced"] = use_trace
            if use_trace:
                traced.append(tracer.pass_metrics())
            passes.append(p)
            done = time.perf_counter() - start >= seconds
            if done and len(passes) > (2 if trace else MIN_PASSES):
                break
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        failures = {k: v for p in passes for k, v in p["errors"].items()}
        attempted = sum(p["ops"] for p in passes)
        failed = sum(len(p["errors"]) for p in passes)
        timed = passes[1:]
        plain = [p for p in timed if not p["traced"]]
        if trace:
            # an observed value, so exact counters stay whole numbers
            metrics = {name: statistics.median_low(t[name] for t in traced)
                       for name in traced[0]}
            metrics["trace.overhead_s"] = (
                statistics.median(p["wall"] for p in timed if p["traced"])
                - statistics.median(p["wall"] for p in plain))
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            tracer.write_spans(os.path.join(
                ROOT, ".bench_out", f"spans-{workload}.tsv"))
        else:
            sample_setup_and_startup()
            attempted += len(probes)
            failed += sum(1 for _, ok in probes if not ok)
            if not all(ok for _, ok in probes):
                failures["startup"] = "startup probe output or exit code wrong"
            times = [t for p in plain for t in p["times"]]
            # fixed by the pass size, not by how many passes fitted in
            tail = tail_percentile(MIN_PASSES * plain[0]["ops"])
            env.update(tail_percentile=tail, ops=len(times),
                       pass_wall_s=[p["wall"] for p in plain],
                       setup_s=setups,
                       startup_s=[t for t, _ in probes],
                       measured={
                           "pass_wall_s": [p["raw_wall"] for p in plain],
                           "setup_s": raw_setups,
                           "startup_s": raw_probes,
                           "kernel_s": [k for p in plain
                                        for k in p["kernels"]]})
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p["wall"] for p in plain),
                "cpu_s": statistics.median(p["cpu"] for p in plain),
                "members_per_s": statistics.median(
                    p["members"] / p["wall"] for p in plain),
                "op_p50_ms": percentile(times, 50) * 1e3,
                "op_tail_ms": tail_mean(times, tail) * 1e3,
                "peak_rss_mb": kb / 1024,
                "startup_ms": interquartile_mean(
                    [t for t, _ in probes]) * 1e3,
            }
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-spare", ignore_errors=True)
    for key, err in sorted(failures.items()):
        print(f"FAILED {key}: {err}", file=sys.stderr)
    env["load_end"] = os.getloadavg()
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="few-second inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypergrowth", "__init__.py")):
        print(f"error: no hypergrowth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, env = run_benchmark(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    print(json.dumps({"machine": env}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
