"""Gauss-Newton iterations per estimate, per nonlinear formulation and
linear method, with the benchmark's scenarios and correctness gate.

    python3 bench/gn_iterations.py --baseline REF   # writes BENCH_gn_iterations.json
    python3 bench/gn_iterations.py --quick          # fewer scenarios, prints, writes nothing

Run from the repository root.  On the IEEE 14-bus fixture (100 scenarios)
and on the 20 x 20 lattice of ``perfbench/lattice.py`` (20 scenarios), it
estimates each scenario of ``perfbench/workloads.py`` from the flat start,
for conventional, simultaneous_polar and simultaneous_rect under both
linear methods.  A third case is the benchmark's ``ac_lattice`` workload:
200 consecutive scenarios of its seed 7, conventional, normal method,
whose sets lack the current rows of lightly loaded branches.  Each case
runs on a network of its own, so its scenarios share what the network
keeps between estimates and no other case's.  Per case it records:

* the mean and the largest iteration count (``EstimationResult.iterations``);
* how many estimates fail ``workloads.gate`` (not converged, a state error
  beyond three noise sigmas or an objective outside its chi-square
  interval), and how many end in an EstimationError;
* ``curvature_refused``: how many iterates took the plain Gauss-Newton
  step because their gain with the current magnitudes' second-order term
  was refused, counted from gridse's DEBUG records (0 for sources without
  the term);
* ``factorizations_mean``: gain factorizations per estimate, the calls of
  ``_factor_band`` and ``_factor_lu`` (0 under the orthogonal method,
  which factors by QR);
* ``kept_factor_converged``: how many estimates converged on the factor
  their gain plan kept from the iterate before, counted from gridse's
  DEBUG records (0 for sources without it);
* ``layout_analyses`` and ``plan_builds``: how many layout analyses
  (``_Layout``) and gain plans (``_GainPlan``) the case built;
* the median wall time of ``gridse.solve`` in ms, and
  ``estimate_ms_median``, that of ``assemble_problem`` and ``solve``
  together, as the benchmark times an estimate (synthesis is not timed;
  one untimed estimate warms each process up).  Where a set's analysis
  is reused, its gain plan is built in ``assemble_problem``.

``--baseline REF`` also measures the gridse sources of the git commit REF,
exported by ``git archive`` into a temporary directory, on the same
scenarios, and records both columns with the largest difference between
their estimated bus voltages where both passed the gate.  The columns
then run twice, in the order this tree, REF, REF, this tree, and each
solve time is the lower of its two medians, so that a drift of the
machine's speed over the run favours neither.  Each column
runs in its own process, so the two sources never share an import; the
scenarios, plans and gate come from this tree's ``perfbench`` and
``tests`` in both.

The exit code is 1 when an estimate of this tree fails its gate, else 0.
BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_gn_iterations.json")
SEED = 3
FORMULATIONS = ("conventional", "simultaneous_polar", "simultaneous_rect")
METHODS = ("normal", "orthogonal")
# name -> network, seed, formulations, methods, and the scenarios in a
# full run and in a quick one
CASES = {"net14": ("net14", SEED, FORMULATIONS, METHODS, (100, 20)),
         "lattice20": ("lattice20", SEED, FORMULATIONS, METHODS, (20, 2)),
         "ac_lattice": ("lattice20", 7, ("conventional",), ("normal",), (200, 20))}


def measure(src: str, quick: bool) -> dict:
    """Every case on the gridse sources under ``src``: {case: stats},
    with the estimated bus voltages of each scenario under "v", None
    where the estimate failed its gate."""
    sys.path[:0] = [src, os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    import gridse
    import workloads
    from lattice import lattice_network

    # Counts the DEBUG records; the flat-start warnings, one per
    # estimate, would otherwise go to stderr.
    records = RecordCount()
    logger = logging.getLogger("gridse")
    logger.addHandler(records)
    logger.setLevel(logging.DEBUG)
    logger.propagate = False
    factors = count_factors(gridse.estimators)
    builds = count_builds(gridse.estimators)

    nets = {"net14": lambda: gridse.load_network(
                os.path.join(ROOT, "tests", "fixtures", "net14.json")),
            "lattice20": lambda: lattice_network(workloads.AC_LATTICE_K,
                                                 workloads.LatticeWorkload.NETWORK_SEED)}
    warm_net = nets["net14"]()
    warm = workloads.synthesize_case(warm_net, SEED, 0, "conventional",
                                     *workloads.PLANS["conventional"])
    gridse.solve(gridse.assemble_problem(warm_net, warm.mset, "conventional"))
    cases = {}
    for name, (network, seed, formulations, methods, counts) in CASES.items():
        count = counts[quick]
        for formulation in formulations:
            plan, noise = workloads.PLANS[formulation]
            for method in methods:
                net = nets[network]()
                cfg = gridse.SolverConfig(linear_system_method=method)
                iterations, seconds, estimates, failures, errors, v = [], [], [], 0, 0, []
                factorizations = []
                records.refused = records.confirmed = 0
                builds.update(dict.fromkeys(builds, 0))
                for index in range(count):
                    case = workloads.synthesize_case(net, seed, index, formulation,
                                                     plan, noise, method)
                    factors[0] = 0
                    t0 = time.perf_counter()
                    problem = gridse.assemble_problem(net, case.mset, formulation)
                    t = time.perf_counter()
                    try:
                        result = gridse.solve(problem, cfg)
                    except gridse.EstimationError:
                        errors += 1
                        failures += 1
                        v.append(None)
                        continue
                    done = time.perf_counter()
                    seconds.append(done - t)
                    estimates.append(done - t0)
                    factorizations.append(factors[0])
                    x = result.x_hat
                    out = workloads.Outcome(
                        exit_code=0, converged=bool(result.converged),
                        iterations=int(result.iterations),
                        objective=float(result.objective_trace[-1]),
                        bus_err=workloads.bus_errors(formulation, case.truth,
                                                     x.angles, x.magnitudes),
                        m=problem.m, n=problem.n)
                    iterations.append(out.iterations)
                    if workloads.gate(case, out):
                        failures += 1
                        v.append(None)
                        continue
                    volts = x.magnitudes * np.exp(1j * x.angles)
                    v.append([volts.real.tolist(), volts.imag.tolist()])
                cases[f"{name}/{formulation}/{method}"] = {
                    "scenarios": count,
                    "iterations_mean": round(float(np.mean(iterations)), 3)
                    if iterations else None,
                    "iterations_max": max(iterations, default=None),
                    "gate_failures": failures,
                    "errors": errors,
                    "curvature_refused": records.refused,
                    "factorizations_mean": round(float(np.mean(factorizations)), 3)
                    if factorizations else None,
                    "kept_factor_converged": records.confirmed,
                    "layout_analyses": builds["_Layout"],
                    "plan_builds": builds["_GainPlan"],
                    "solve_ms_median": round(1e3 * float(np.median(seconds)), 2)
                    if seconds else None,
                    "estimate_ms_median": round(1e3 * float(np.median(estimates)), 2)
                    if estimates else None,
                    "v": v,
                }
    return cases


class RecordCount(logging.Handler):
    """Counts gridse's DEBUG records of a refused second-order gain and of
    an estimate that converged on its kept factor."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.refused = self.confirmed = 0

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("second-order gain refused"):
            self.refused += 1
        elif message.startswith("converged on the kept factor"):
            self.confirmed += 1


def count_factors(estimators) -> list:
    """Wraps the gain factors of the module ``estimators``, which look
    each other up as its globals; the one entry of the list returned
    counts their calls."""
    count = [0]
    for name in ("_factor_band", "_factor_lu"):
        def counted(*args, _factor=getattr(estimators, name)):
            count[0] += 1
            return _factor(*args)

        setattr(estimators, name, counted)
    return count


def count_builds(estimators) -> dict:
    """Replaces the layout analysis and gain plan classes of the module
    ``estimators``, which builds them through its globals, by subclasses
    that count their builds in the dict returned, by class name."""
    count = {"_Layout": 0, "_GainPlan": 0}
    for name in count:
        class Counted(getattr(estimators, name)):
            def __init__(self, *args, _name=name, **kwargs):
                count[_name] += 1
                super().__init__(*args, **kwargs)

        setattr(estimators, name, Counted)
    return count


def column(src: str, quick: bool) -> dict:
    """``measure`` on ``src`` in a new process."""
    argv = [sys.executable, os.path.abspath(__file__), "--worker", src]
    if quick:
        argv.append("--quick")
    done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def best_of(first: dict, second: dict) -> dict:
    """Two runs of one column as one: the lower of their median times
    per case.  Everything else is exact and must repeat."""
    timed = ("solve_ms_median", "estimate_ms_median")

    def exact(case):
        return {k: v for k, v in case.items() if k not in timed}

    for key, case in first.items():
        again = second[key]
        if exact(case) != exact(again):
            raise RuntimeError(f"{key}: two runs of one source disagree")
        for k in timed:
            if again[k] is not None:
                case[k] = min(case[k], again[k])
    return first


def exported(ref: str, into: str) -> tuple[str, str]:
    """(commit, src directory) of git commit ``ref``, exported into ``into``."""
    def git(*args, **kwargs):
        return subprocess.run(["git", "-C", ROOT, *args], check=True, **kwargs)

    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}", stdout=subprocess.PIPE,
                 text=True).stdout.strip()
    archive = git("archive", commit, "src", stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return commit, os.path.join(into, "src")


def max_voltage_diff(a: list, b: list) -> float | None:
    """Largest |V_a - V_b| over the scenarios that passed the gate in
    both columns."""
    diffs = [float(np.max(np.hypot(*(np.array(x) - np.array(y)))))
             for x, y in zip(a, b) if x is not None and y is not None]
    return max(diffs, default=None)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true",
                   help="20 net14, 2 lattice20 and 20 ac_lattice scenarios per case; "
                   "print, write no file")
    p.add_argument("--baseline", metavar="REF",
                   help="also measure the gridse sources of git commit REF")
    p.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        json.dump(measure(args.worker, args.quick), sys.stdout)
        return 0
    here = os.path.join(ROOT, "src")
    base, commit = None, None
    if args.baseline:
        scratch = tempfile.mkdtemp(prefix="gn_iterations-")
        try:
            commit, src = exported(args.baseline, scratch)
            this, base = column(here, args.quick), column(src, args.quick)
            base = best_of(base, column(src, args.quick))
            this = best_of(this, column(here, args.quick))
        finally:
            shutil.rmtree(scratch)
    else:
        this = column(here, args.quick)
    entries = []
    for key, now in this.items():
        network, formulation, method = key.split("/")
        entry = {"network": network, "formulation": formulation, "method": method,
                 "this": {k: v for k, v in now.items() if k != "v"}}
        if base is not None:
            entry["baseline"] = {k: v for k, v in base[key].items() if k != "v"}
            entry["max_v_diff"] = max_voltage_diff(now["v"], base[key]["v"])
        entries.append(entry)
        line = (f"{key}: iterations {now['iterations_mean']} (max {now['iterations_max']}), "
                f"{now['gate_failures']} failed, {now['curvature_refused']} refused, "
                f"{now['factorizations_mean']} factors, {now['kept_factor_converged']} "
                f"on the kept factor, {now['layout_analyses']} analyses, "
                f"{now['plan_builds']} plans, {now['solve_ms_median']} ms solve, "
                f"{now['estimate_ms_median']} ms estimate")
        if base is not None:
            was = base[key]
            line += (f"; baseline {was['iterations_mean']} (max {was['iterations_max']}), "
                     f"{was['gate_failures']} failed, {was['curvature_refused']} refused, "
                     f"{was['factorizations_mean']} factors, "
                     f"{was['layout_analyses']} analyses, {was['plan_builds']} plans, "
                     f"{was['solve_ms_median']} ms solve, "
                     f"{was['estimate_ms_median']} ms estimate; "
                     f"max |dV| {entry['max_v_diff']:.3g}")
        print(line)
    # gain_factor imports this tree's gridse, so never in a worker
    from gain_factor import cpu_model
    doc = {
        "what": "Gauss-Newton iterations, gain factorizations, gate failures and "
                "solve time per estimate from the flat start, benchmark scenarios",
        "seeds": {name: case[1] for name, case in CASES.items()},
        "scenarios": {name: case[4][0] for name, case in CASES.items()},
        "baseline_commit": commit,
        "environment": {"cpu": cpu_model(), "python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "blas_threads": 1},
        "entries": entries,
    }
    if not args.quick:
        with open(OUT, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    failed = [e for e in entries if e["this"]["gate_failures"]]
    for e in failed:
        print(f"error: {e['network']} {e['formulation']} {e['method']}: "
              f"{e['this']['gate_failures']} estimate(s) failed the gate", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
