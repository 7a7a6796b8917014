"""Gain factor sweep: the band ordering, the banded Cholesky against
SuperLU, and the gain plan of a normal solve against the product path and
SuperLU, per gain.

    python3 bench/gain_factor.py            # writes BENCH_gain_factor.json
    python3 bench/gain_factor.py --quick    # N <= 2 025, prints, writes nothing

Run from the repository root.  For seeded lattices (``perfbench/lattice.py``)
at N = 400, 2 025 and 10 000 and for binary trees (radial feeders) of 1 023
and 4 095 buses, it builds the gain G = J^T R^-1 J of a conventional, a
simultaneous_rect, a linear_rect and a DC scenario at the true state, with the
benchmark's own scenario synthesis (``perfbench/workloads.py``), and records
per gain:

* n, nnz(G) and G's bandwidth under three orders: the one gridse ships
  (``EstimationProblem.order``, from the network's ``bus_order``), reverse
  Cuthill-McKee on G's own graph, and the network file's bus order
  expanded to the unknowns; and the ratio of the shipped band's entries
  n * (bandwidth + 1) to nnz(G);
* the storage ``gridse.estimators`` picks for it ("band" or "superlu");
* the best of k factor-plus-solve times of SuperLU, of the shipped rule
  and of the band: the rule's own time where it picks the band, else a
  forced band where that takes under 64 MB;
* the largest difference between the band's and SuperLU's dx, relative to
  the largest entry of SuperLU's dx.

Every normal solve, a nonlinear Gauss-Newton iterate's or a DC or
linear_rect estimate's, runs on its layout's gain plan.  Per gain the sweep
records the path the plan takes ("plan": its band, summed from J's pairs
for the nonlinear formulations and by one sparse product of the folded
pairs and R^-1's entries for DC and linear_rect; "superlu": the band does
not fit, and the gain is formed by sparse products), the best of k times
of the product path (J's free-column slice for an iterate, gain,
right-hand side, factor and solve), of the plan's one-off build and of its
solve (band, right-hand side, factor and solve), and the largest
difference between the plan's and SuperLU's dx, relative to the largest
entry of SuperLU's.  For the two nonlinear formulations it also records
the G entries the product path drops because they come out exactly zero,
which the plan's structural pattern keeps.

The exit code is 1 when a band's or a plan's dx differs from SuperLU's by
more than 1e-9 relative, or when a gain kept in band storage has a shipped
band of more than 1.05 times the entries of RCM's on G, else 0.  BLAS runs
on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from unittest import mock

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.sparse import csc_matrix, csr_matrix  # noqa: E402
from scipy.sparse.csgraph import reverse_cuthill_mckee  # noqa: E402
from gridse.network import bandwidth  # noqa: E402

import gridse  # noqa: E402
import gridse.estimators as E  # noqa: E402
import workloads  # noqa: E402
from lattice import lattice_network  # noqa: E402

OUT = os.path.join(ROOT, "BENCH_gain_factor.json")
SEED = 5
BAND_MB_CAP = 64.0
AGREEMENT = 1e-9
# The shipped order's band may hold at most this many times the entries
# of RCM's on G, where the gain stays in band storage.
BAND_OVER_RCM = 1.05
FORMULATIONS = ("conventional", "simultaneous_rect", "linear_rect", "dc")


def binary_tree(n: int, seed: int = 0) -> gridse.NetworkModel:
    """Buses 1..n, bus i fed from bus i // 2, with the lattice's branch
    parameter ranges; bus 1 is the slack."""
    rng = np.random.default_rng([seed, 3])
    x = rng.uniform(0.04, 0.25, n - 1)
    r = x / rng.uniform(3.0, 10.0, n - 1)
    half_charging = rng.uniform(0.005, 0.03, n - 1)
    branches = [gridse.Branch(i // 2, i, float(r[i - 2]), float(x[i - 2]),
                              bs_from=float(half_charging[i - 2]),
                              bs_to=float(half_charging[i - 2]))
                for i in range(2, n + 1)]
    buses = [gridse.Bus(i, is_slack=(i == 1)) for i in range(1, n + 1)]
    return gridse.NetworkModel(buses, branches)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def networks(quick: bool):
    yield "lattice", 400, lattice_network(20, 0)
    yield "lattice", 2025, lattice_network(45, 0)
    yield "tree", 1023, binary_tree(1023)
    if not quick:
        yield "lattice", 10000, lattice_network(100, 0)
        yield "tree", 4095, binary_tree(4095)


def linearization(net, formulation: str):
    """The problem, J, R^-1 and r of one scenario: J at the true state, r
    at the flat start."""
    plan, noise = workloads.PLANS[formulation]
    case = workloads.synthesize_case(net, SEED, 0, formulation, plan, noise)
    problem = gridse.assemble_problem(net, case.mset, formulation)
    if problem.is_linear:
        j = problem.h_matrix
    else:
        _, j, _ = problem.rows(case.truth)
    rinv = problem.covariance.inverse()
    return problem, j, rinv, problem.residuals(problem.initial_state())


def best_of(k: int, factor, g, rhs):
    """(dx, best seconds) of k factor-plus-solve calls."""
    return timed(k, lambda: factor(g)(rhs))


def timed(k: int, call):
    """(result, best seconds) of k calls."""
    times = []
    for _ in range(k):
        t = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t)
    return result, min(times)


def dropped_entries(a, rinv, g) -> int:
    """Entries of the pattern's J^T R^-1 J that G lacks: exact zeros."""
    def ones(m):
        return csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
    return int(csc_matrix(ones(a).T @ ones(rinv) @ ones(a)).nnz - g.nnz)


def rel_diff(dx, want) -> float:
    """The largest difference of dx from want, relative to want's largest entry."""
    return float(np.max(np.abs(dx - want)) / np.max(np.abs(want)))


def plan_timings(problem, j, rinv, r, lu_dx, k: int) -> dict:
    """A normal solve's timings at J on the product path and on the
    layout's gain plan, and how far the plan's dx is from SuperLU's."""
    layout, order = problem._layout, problem.order
    curved = None if problem.is_linear else layout.curved

    def product():  # J's free columns, H's for DC and linear_rect
        return E._solve_normal(j[:, layout.free], rinv, r, order=order)

    _, product_s = timed(k, product)
    plan, build_s = timed(k, lambda: E._GainPlan(j, layout.free, layout.inverse_pattern,
                                                  curved, order))
    plan_dx, plan_s = timed(k, lambda: plan.solve(problem, j, rinv, r))
    return {"gain_path": "superlu" if plan._perm is None else "plan",
            "product_iter_s": product_s, "plan_build_s": build_s, "plan_iter_s": plan_s,
            "plan_dx_rel_diff": rel_diff(plan_dx, lu_dx)}


def band_width(g, perm) -> int:
    """G's bandwidth with unknown perm[k] at position k."""
    where = np.empty(g.shape[0], dtype=np.intp)
    where[perm] = np.arange(g.shape[0])
    return bandwidth(g, where)


def entry(kind: str, buses: int, net, formulation: str, k: int) -> dict:
    problem, j, rinv, r = linearization(net, formulation)
    a = j[:, problem.free_indices]
    g = csc_matrix(a.T @ rinv @ a)
    rhs = a.T @ (rinv @ r)
    n = g.shape[0]
    order = problem.order
    widths = {"shipped": band_width(g, order),
              "rcm_on_g": band_width(g, reverse_cuthill_mckee(g, symmetric_mode=True)),
              "file_order": band_width(g, problem._layout.unknown_order(
                  np.arange(net.n_buses)))}
    band_mb = n * (widths["shipped"] + 1) * 8 / 2**20
    out = {
        "network": kind, "buses": buses, "formulation": formulation,
        "n": n, "nnz_g": int(g.nnz), "bandwidth": widths,
        "bus_order": "file" if np.array_equal(net.bus_order, np.arange(net.n_buses))
        else "rcm",
        "band_over_nnz": round(n * (widths["shipped"] + 1) / g.nnz, 2),
        "band_over_rcm": round((widths["shipped"] + 1) / (widths["rcm_on_g"] + 1), 3),
        "band_mb": round(band_mb, 2),
    }
    lu_dx, out["superlu_s"] = best_of(k, E._factor_lu, g, rhs)
    if not problem.is_linear:
        out["dropped_entries"] = dropped_entries(a, rinv, g)
    out.update(plan_timings(problem, j, rinv, r, lu_dx, k))

    def factor(g):
        return E._factor_gain(g, order)

    def forced_band(g):
        with mock.patch.object(E, "_BAND_LIMIT", math.inf):
            return factor(g)

    with mock.patch.object(E, "splu", wraps=E.splu) as splu:
        band_dx, out["rule_s"] = best_of(k, factor, g, rhs)
    out["storage"] = "superlu" if splu.called else "band"
    if out["storage"] == "band":
        out["band_s"] = out["rule_s"]
    elif band_mb < BAND_MB_CAP:
        band_dx, out["band_s"] = best_of(k, forced_band, g, rhs)
    else:
        return out
    out["dx_rel_diff"] = rel_diff(band_dx, lu_dx)
    return out


def ms(e: dict, key: str) -> str:
    return f"{1e3 * e[key]:.2f} ms" if key in e else "-"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true",
                   help="N <= 2 025 and 3 calls per timing; print, write no file")
    args = p.parse_args(argv)
    k = 3 if args.quick else 7
    entries = []
    for kind, buses, net in networks(args.quick):
        for formulation in FORMULATIONS:
            e = entry(kind, buses, net, formulation, k)
            entries.append(e)
            bw = e["bandwidth"]
            print(f"{kind} {buses} {formulation}: n {e['n']} nnz {e['nnz_g']} "
                  f"bw {bw['shipped']} ({e['bus_order']} bus order; RCM on G "
                  f"{bw['rcm_on_g']}, file order {bw['file_order']}) "
                  f"band/nnz {e['band_over_nnz']} -> "
                  f"{e['storage']}; superlu {ms(e, 'superlu_s')}, "
                  f"band {ms(e, 'band_s')}, rule {ms(e, 'rule_s')}, "
                  f"dx diff {e.get('dx_rel_diff', '-')}")
            zeros = (f" ({e['dropped_entries']} exact zeros in G)"
                     if "dropped_entries" in e else "")
            print(f"  normal solve -> {e['gain_path']}{zeros}; product "
                  f"{ms(e, 'product_iter_s')}, plan build {ms(e, 'plan_build_s')}, "
                  f"plan {ms(e, 'plan_iter_s')}, plan dx diff {e['plan_dx_rel_diff']}")
    doc = {
        "what": "best-of-k factor+solve of the WLS gain at the true state, "
                "and of a normal solve on its layout's gain plan against the "
                "product path",
        "k": k,
        "band_limit": E._BAND_LIMIT,
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
    bad = [(e, f"the {what}'s and SuperLU's dx differ by {e[key]:.3g} relative")
           for e in entries
           for key, what in (("dx_rel_diff", "band"), ("plan_dx_rel_diff", "plan"))
           if e.get(key, 0.0) > AGREEMENT]
    bad += [(e, f"the shipped band holds {e['band_over_rcm']} times RCM's on G")
            for e in entries
            if e["storage"] == "band" and e["bandwidth"]["shipped"] + 1
            > BAND_OVER_RCM * (e["bandwidth"]["rcm_on_g"] + 1)]
    for e, what in bad:
        print(f"error: {e['network']} {e['buses']} {e['formulation']}: {what}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
