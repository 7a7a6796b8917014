"""Benchmark of gridse: closed-loop estimates on three seeded workloads.

    python3 perfbench/run.py --workload ac_lattice --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root.  One caller in one process estimates, checks
the estimate against its synthesized truth, then starts the next.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
first runs untraced, then replays the same scenarios with every gridse
layer wrapped, and reports self time and calls per layer, exact counts and
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Run records land in ``.perfbench_runs/``.

End-to-end metrics (``--trace 0``): setup_s is the median, over this
process and fresh ones started before and after the timed loop, of the
time from just before ``import gridse`` to the end of the checked warm-up
estimate; estimates_per_s the estimates that passed their check per second
of timed calls; peak_rss_mb the peak resident set; gn_iterations_mean the
mean Gauss-Newton iterations, 1 for one-shot solves.  Printed as lines:
estimate_s_p50, the median time of one estimate call (on cli_mix, of the
mean over each cycle of its ten formulation x method calls), failed_frac,
state_err_max, state_err_rms and, with at least 100 estimates,
estimate_s_p90.

The exit code is 0 when every estimate passed its check and every exact
count repeated, 1 when one did not, and 2 when gridse cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("ac_lattice", "pmu_lattice", "cli_mix")
# BLAS threads, fixed so both sides of a comparison use the same count.
# One: with two, whole runs on a shared two-core machine drifted in speed
# far more (ac_lattice median spread 0.28 across seeds, against 0.04).
BLAS_THREADS = 1
# Set-up is measured this many times per run and reported as the median:
# in one fresh process before the timed loop, in this process, and in fresh
# processes after the loop.  Spread over the run, the samples meet the
# shared machine in more than one of its slow or fast phases; back to back
# they read the same phase.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def self_command(args, workload, *extra):
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def source_digest() -> str:
    """sha256 over everything a run depends on: gridse, fixtures, benchmark."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "gridse"), os.path.join(ROOT, "tests"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, digest: str) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(self_command(args, name), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        code = max(code, proc.returncode)
        doc = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for key, val in doc["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return code


def setup_samples(args, count: int) -> list[float]:
    """Set-up times of `count` fresh processes, measured as in this one."""
    times = []
    for _ in range(count):
        proc = subprocess.run(self_command(args, args.workload, "--setup-only"),
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Runner:
    """Prepares, times and checks estimates of one workload."""

    def __init__(self, workload, gate, drops):
        self.wl = workload
        self.gate = gate
        self.drops = drops
        self.recorder = None

    def measure(self, index: int, count: bool = False):
        """(outcome, seconds) of estimate `index`; only the estimate call
        itself is timed, not synthesis or the check."""
        rec = self.recorder
        if rec is not None:
            rec.estimate_id = index
        case = self.wl.prepare(index)
        before = self.drops.rows
        if rec is not None:
            rec.begin("estimate")
        t = time.perf_counter()
        raw = self.wl.estimate(case)
        dt = time.perf_counter() - t
        if rec is not None:
            rec.end()
            rec.estimate_id = None
        out = self.wl.outcome(case, raw)
        out.rows_dropped = self.drops.rows - before
        out.failures = self.gate(case, out)
        if count and rec is None:
            out.gain_nnz = self.wl.gain_nnz(case)
        return out, dt

    def loop(self, first: int, seconds: float, at_least: int):
        """Estimates first, first+1, ... until `seconds` have passed and at
        least `at_least` are done."""
        samples = []
        start = time.perf_counter()
        index = first
        while len(samples) < at_least or time.perf_counter() - start < seconds:
            samples.append(self.measure(index, count=len(samples) < at_least))
            index += 1
        return samples


def cycle_counts(samples, cycle: int) -> dict:
    """Exact counts over the first `cycle` estimates of a phase."""
    head = [out for out, _ in samples[:cycle]]
    return {
        "measurements.rows": sum(o.m for o in head),
        "estimators.unknowns": sum(o.n for o in head),
        "estimators.rows_dropped": sum(o.rows_dropped for o in head),
        "estimators.iterations": sum(o.iterations for o in head),
        "cli.result_bytes": sum(o.result_bytes for o in head),
    }


def check_counts(counts: dict, workload: str, seed: int, digest: str) -> list[str]:
    """Compare exact counts with an earlier run of the same code and seed."""
    path = os.path.join(RUNS, "counts", f"{workload}-seed{seed}-{digest[:16]}.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    bad = [f"{k}: {known[k]} earlier, {v} now" for k, v in counts.items()
           if k in known and known[k] != v]
    if not bad:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**known, **counts}, fh, indent=1, sort_keys=True)
    return bad


def rms_error(outs) -> float:
    """Root mean square bus-voltage error over every bus of every estimate."""
    squares = sum(float(o.bus_err @ o.bus_err) for o in outs)
    return (squares / sum(o.bus_err.size for o in outs)) ** 0.5


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for need in (os.path.join(SRC, "gridse", "__init__.py"),
                 os.path.join(ROOT, "tests", "conftest.py"),
                 os.path.join(ROOT, "tests", "fixtures", "net14.json")):
        if not os.path.isfile(need):
            print(f"error: {need} is missing; run from a gridse checkout",
                  file=sys.stderr)
            return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    extra_setups = []
    if not args.trace and not args.setup_only:
        extra_setups = setup_samples(args, 1)

    # Set-up starts here: nothing of gridse or numpy is loaded yet.
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests"), HERE]
    import gridse
    import_s = time.perf_counter() - t0
    if not os.path.abspath(gridse.__file__).startswith(SRC + os.sep):
        print(f"error: imported gridse from {gridse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads as W

    drops = spans.DropCounter().attach()
    work_dir = os.path.join(RUNS, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = W.make_workload(args.workload, args.seed, ROOT, work_dir)
        runner = Runner(wl, W.gate, drops)
        warm, _ = runner.measure(0)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            result = traced_run(args, spans, runner, import_s, t0)
        else:
            result = timed_run(args, runner, setup_s, extra_setups)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    samples, metrics, counts, extra = result
    digest = source_digest()
    env = environment(args, digest)
    problems = check_counts(counts, args.workload, args.seed, digest)
    problems += extra.pop("count_mismatch", [])
    outs = [warm] + [out for out, _ in samples]
    failed = [o for o in outs if o.failures]
    for o in failed[:5]:
        print("FAILED estimate: " + "; ".join(o.failures))
    for p in problems:
        print("count check: " + p)
    correct = not failed and not problems

    record = {"env": env, "metrics": metrics, "counts": counts, **extra,
              "samples": [{"seconds": dt, "iterations": o.iterations,
                           "objective": o.objective,
                           "state_err_max": float(o.bus_err.max()),
                           "m": o.m, "n": o.n, "failures": o.failures}
                          for o, dt in samples]}
    os.makedirs(RUNS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RUNS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env))
    for line in extra.get("lines", []):
        print(line)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outs),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


def timed_run(args, runner, setup_s, extra_setups):
    cycle = runner.wl.cycle
    samples = runner.loop(1, args.seconds, at_least=cycle)
    setups = [setup_s] + extra_setups + setup_samples(args, SETUP_SAMPLES - 2)
    times = [dt for _, dt in samples]
    outs = [o for o, _ in samples]
    passed = sum(1 for o in outs if not o.failures)
    # One timing sample per cycle of the scenario mix: a single estimate on
    # a lattice, the mean of the ten formulation x method runs on cli_mix,
    # whose per-call times fall in clusters a median would jump between.
    per_cycle = [statistics.fmean(times[k:k + cycle])
                 for k in range(0, len(times) - cycle + 1, cycle)]
    # The rate over the whole run is the timing metric; the median is a
    # printed line.  On a shared two-vCPU Xeon VM, Python code ran at two
    # speeds 1.5-1.75x apart, each held for seconds to minutes.  Within a
    # run the samples then split into a fast and a slow cluster, and the
    # median lands in whichever holds half of them, while the rate moves
    # smoothly with the share of the run spent slow.  Over three sets of
    # six to ten runs of the same code, the median's quartile spread was the
    # larger in eight of the nine workload sets (cli_mix: 0.26 against
    # 0.19 of the median).
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "estimates_per_s": metric(passed / sum(times), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "gn_iterations_mean": metric(statistics.fmean(o.iterations for o in outs),
                                     "count"),
    }
    lines = [f"samples: {len(times)} timed estimates in {len(per_cycle)} cycles, "
             f"{len(setups)} set-ups",
             f"estimate_s_p50 {statistics.median(per_cycle):.6g} s",
             f"failed_frac {(len(outs) - passed) / len(outs):.6g} ratio",
             f"state_err_max {max(float(o.bus_err.max()) for o in outs):.6g} p.u.",
             f"state_err_rms {rms_error(outs):.6g} p.u."]
    if len(times) >= 100:
        lines.append(f"estimate_s_p90 {statistics.quantiles(times, n=10)[-1]:.6g} s")
    counts = cycle_counts(samples, cycle)
    counts["estimators.gain_nnz"] = sum(o.gain_nnz for o, _ in samples[:cycle])
    return samples, metrics, counts, {"lines": lines,
                                      "setup_samples": setups}


def traced_run(args, spans, runner, import_s, t0):
    cycle = runner.wl.cycle
    plain = runner.loop(1, args.seconds / 2.0, at_least=cycle)
    rec = spans.SpanRecorder()
    rec.add("cli.import", t0, t0 + import_s)
    runner.recorder = rec
    rec.install()
    try:
        traced = [runner.measure(1 + k) for k in range(len(plain))]
    finally:
        rec.uninstall()
        runner.recorder = None
    k = len(traced)
    plain_s = sum(dt for _, dt in plain)
    traced_s = sum(dt for _, dt in traced)
    metrics = {"cli.import_s": metric(import_s, "s")}
    totals = rec.self_times()
    for layer in spans.LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = metric(self_s / k, "s")
        metrics[f"{layer}_calls"] = metric(calls / k, "count")
    metrics["trace.estimate_s"] = metric(traced_s / k, "s")
    metrics["trace.overhead_frac"] = metric((traced_s - plain_s) / plain_s, "ratio")

    counts = cycle_counts(traced, cycle)
    plain_counts = cycle_counts(plain, cycle)
    mismatch = [f"{key}: {plain_counts[key]} untraced, {val} traced"
                for key, val in counts.items() if plain_counts[key] != val]
    counts["estimators.gain_nnz"] = sum(o.gain_nnz for o, _ in plain[:cycle])
    counts["network.admittance_nnz"] = runner.wl.admittance_nnz()
    counts["functions.rows_evaluated"] = sum(
        out.m * (rec.calls_in("functions.h_jac", 1 + i) + rec.calls_in("functions.h", 1 + i))
        for i, (out, _) in enumerate(traced[:cycle]))
    for key, val in counts.items():
        metrics[key] = metric(val, "count")
    os.makedirs(RUNS, exist_ok=True)
    rec.write(os.path.join(RUNS, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    est = traced_s / k
    lines = [f"samples: {k} traced estimates after {k} untraced ones",
             f"self time per estimate as a share of the timed estimate call "
             f"({est:.4g} s); synthesis runs before that call:"]
    lines += [f"  {layer:28s} {totals[layer][0] / k / est:7.1%}"
              for layer in spans.LAYERS if layer in totals]
    return traced, metrics, counts, {"lines": lines, "count_mismatch": mismatch}


if __name__ == "__main__":
    sys.exit(main())
