"""The three benchmark workloads and the correctness gate on each estimate.

Every workload is a closed loop with one caller: the next estimate starts
when the previous one returns.  Each estimate gets a fresh scenario
synthesized from the benchmark seed and the estimate index, and each
result is checked against its synthesized truth.

* ``ac_lattice``: conventional Gauss-Newton on a 20 x 20 lattice.  The
  per-row Python measurement kernel dominates (h and Jacobian rows, plus
  the second h pass inside ``objective``).
* ``pmu_lattice``: one-shot ``linear_rect`` solve on a 60 x 60 lattice.
  The dense gain build and its Cholesky factor dominate; the nonlinear
  kernel never runs.
* ``cli_mix``: ``gridse.cli.main(["estimate", ...])`` on the IEEE 14-bus
  fixture, cycling all five formulations with both linear methods.  The
  fixed cost per call dominates: JSON in, problem assembly, JSON out.  It
  is the only workload that runs the orthogonal path, DC, polar PMU rows
  and flat-start row dropping.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import conftest as plans
import gridse
import gridse.cli
from gridse.measurements import measurements_to_dict
from gridse.states import wrap_angles
from lattice import lattice_network

# Truth angles within +-0.05 rad and magnitudes in [0.97, 1.03] give
# neighbouring buses the angle differences of a loaded transmission grid.
# Wider angles leave the flat start in a bad basin.  With +-0.2 rad on a
# 20 x 20 lattice, gridse 0.1.0 has reported converged=True after 36
# iterations with objective/(m - n) ~ 1.5e3 and a state error of 0.1 p.u.;
# on the lattices of lattice.py (seeds 1-3, legacy plan) it stopped
# unconverged after 50 iterations with objective/(m - n) 257-494 and state
# errors of 0.08-2.1 p.u.  gridse has no chi-square test yet, so it does
# not flag the first of these bad fits.  That is an estimator defect,
# not something this benchmark hides: the gate below fails such an
# estimate.
V_RANGE = (0.97, 1.03)
THETA_RANGE = (-0.05, 0.05)

# An estimate fails the gate when its largest bus-voltage error exceeds
# this multiple of the largest noise stddev in its scenario, or when its
# objective lies outside the two-sided chi-square(m - n) interval at
# this false-alarm probability.
STATE_ERR_SIGMAS = 3.0
CHI2_ALPHA = 1e-6

PMU_AND_LEGACY_NOISE = {**plans.LEGACY_NOISE, **plans.PMU_NOISE}


# Current magnitude and angle rows are placed only on branches whose true
# current is at least MIN_CURRENT (five I_mag noise stddevs), as an EMS
# leaves out current telemetry on lightly loaded lines.  Below it the
# synthesizer can record a negative magnitude, and the plain Gauss-Newton
# of gridse 0.1.0 then cycles at the kink of |I| and never converges.
# With every current row kept, that hit about one estimate in ten on the
# 30 x 30 lattice (seed 2 estimate 3, seed 4 estimate 1) and one in 150
# of the nonlinear IEEE-14 estimates (cli_mix seed 2 estimates 480 and
# 852).  That is a gridse defect, not a property of the workloads.
MIN_CURRENT = 5.0 * plans.LEGACY_NOISE[gridse.MeasurementKind.I_MAG]
CURRENT_KINDS = frozenset({gridse.MeasurementKind.I_MAG,
                           gridse.MeasurementKind.I_MAG_PMU,
                           gridse.MeasurementKind.I_ANG_PMU})

# formulation -> (plan builder, noise table)
PLANS = {
    "conventional": (plans.legacy_plan, plans.LEGACY_NOISE),
    "simultaneous_polar": (plans.simultaneous_polar_plan, PMU_AND_LEGACY_NOISE),
    "simultaneous_rect": (plans.simultaneous_rect_plan, PMU_AND_LEGACY_NOISE),
    "linear_rect": (plans.linear_rect_plan, plans.PMU_NOISE),
    "dc": (plans.dc_plan, plans.DC_NOISE),
}


@dataclass
class Case:
    """One synthesized scenario, ready to estimate."""
    formulation: str
    method: str
    truth: gridse.StateVector
    mset: gridse.MeasurementSet
    sigma: float


@dataclass
class Outcome:
    """What one estimate returned, in the terms the gate checks."""
    exit_code: int
    converged: bool
    iterations: int
    objective: float
    bus_err: np.ndarray
    m: int
    n: int
    result_bytes: int = 0
    rows_dropped: int = 0
    gain_nnz: int = 0
    failures: list = field(default_factory=list)


def scenario_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def chi2_interval(dof: int, alpha: float) -> tuple[float, float]:
    """Two-sided chi-square acceptance interval (Wilson-Hilferty)."""
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    a = 2.0 / (9.0 * dof)
    lo = dof * max(1.0 - a - z * math.sqrt(a), 0.0) ** 3
    hi = dof * (1.0 - a + z * math.sqrt(a)) ** 3
    return lo, hi


def bus_errors(formulation: str, truth: gridse.StateVector,
               theta: np.ndarray, vmag: np.ndarray) -> np.ndarray:
    """|V_est - V_true| per bus in p.u.; for DC the angle error in rad,
    which is the voltage error at unit magnitude."""
    if formulation == "dc":
        return np.abs(wrap_angles(theta - truth.angles))
    est = vmag * np.exp(1j * theta)
    return np.abs(est - truth.complex_voltages())


def gate(case: Case, out: Outcome) -> list[str]:
    """Reasons the estimate fails; empty when it passes."""
    failures = []
    if out.exit_code != 0:
        failures.append(f"exit code {out.exit_code}")
    if not out.converged:
        failures.append("not converged")
    limit = STATE_ERR_SIGMAS * case.sigma
    worst = float(np.max(out.bus_err))
    if not worst <= limit:
        failures.append(f"state error {worst:.3e} > {limit:.3e}")
    if out.m <= out.n:
        failures.append(f"{out.m} rows for {out.n} unknowns")
        return failures
    lo, hi = chi2_interval(out.m - out.n, CHI2_ALPHA)
    if not lo <= out.objective <= hi:
        failures.append(f"objective {out.objective:.6g} outside chi2({out.m - out.n}) "
                        f"interval [{lo:.6g}, {hi:.6g}]")
    return failures


def branch_current(net, v: np.ndarray, i: int, j: int) -> float:
    """|I| leaving bus i towards bus j at complex bus voltages v."""
    br, reverse = net.branch_between(i, j)
    y = complex(*gridse.branch_admittance(br.r, br.x))
    ys = complex(br.gs_to, br.bs_to) if reverse else complex(br.gs_from, br.bs_from)
    return abs((y + ys) * v[i - 1] - y * v[j - 1])


def synthesize_case(net, seed: int, index: int, formulation: str, plan,
                    noise, method: str = "normal") -> Case:
    def scenario(placements):
        return plans.make_scenario(net, placements, noise=noise,
                                   seed=scenario_seed(seed, index),
                                   v_range=V_RANGE, t_range=THETA_RANGE)

    placements = plan(net)
    # The true state depends on the seed alone, not on the placements.
    truth = gridse.sample_true_state(scenario(placements))
    v = truth.complex_voltages()
    spec = scenario([(kind, at) for kind, at in placements
                     if kind not in CURRENT_KINDS
                     or branch_current(net, v, *at) >= MIN_CURRENT])
    mset = gridse.synthesize(spec, truth)
    return Case(formulation, method, truth, mset, max(noise.values()))


class Workload:
    """Exact counts shared by every workload on its network `net`."""

    def gain_nnz(self, case: Case) -> int:
        """nnz of J_free^T R^-1 J_free at the truth, computed by the
        benchmark from the public pieces, not measured inside gridse."""
        problem = gridse.assemble_problem(self.net, case.mset, case.formulation)
        if problem.is_linear:
            j = problem.h_matrix
        else:
            _, j, _ = problem.rows(case.truth)
        j = j[:, problem.free_indices]
        return int((j.T @ problem.covariance.inverse() @ j).nnz)

    def admittance_nnz(self) -> int:
        return gridse.assemble_admittance(self.net).nnz


class LatticeWorkload(Workload):
    """A fixed lattice; each estimate is assemble_problem plus solve.

    The lattice is the same for every benchmark seed, as the IEEE-14
    network is for cli_mix, so runs with different seeds measure one grid
    and the seed varies only the scenarios.
    """

    cycle = 1
    NETWORK_SEED = 0

    def __init__(self, seed: int, k: int, formulation: str, plan, noise):
        self.seed = seed
        self.formulation = formulation
        self.plan = plan
        self.noise = noise
        self.net = lattice_network(k, self.NETWORK_SEED)

    def prepare(self, index: int) -> Case:
        return synthesize_case(self.net, self.seed, index, self.formulation,
                               self.plan, self.noise)

    def estimate(self, case: Case):
        problem = gridse.assemble_problem(self.net, case.mset, case.formulation)
        return problem, gridse.solve(problem)

    def outcome(self, case: Case, raw) -> Outcome:
        problem, result = raw
        x = result.x_hat
        if x.coordinates == "rectangular":
            x = gridse.to_polar(x)
        return Outcome(
            exit_code=0, converged=bool(result.converged),
            iterations=int(result.iterations),
            objective=float(result.objective_trace[-1]),
            bus_err=bus_errors(case.formulation, case.truth, x.angles, x.magnitudes),
            m=problem.m, n=problem.n)


class CliMixWorkload(Workload):
    """IEEE-14 through the command line, files on disk, all formulations."""

    COMBOS = [(f, m) for f in PLANS for m in ("normal", "orthogonal")]
    cycle = len(COMBOS)

    def __init__(self, seed: int, root: str, work_dir: str):
        self.seed = seed
        self.net_path = os.path.join(root, "tests", "fixtures", "net14.json")
        self.net = gridse.load_network(self.net_path)
        self.meas_path = os.path.join(work_dir, "measurements.json")
        self.out_dir = os.path.join(work_dir, "out")
        self.result_path = os.path.join(self.out_dir, "result.json")
        os.makedirs(self.out_dir, exist_ok=True)

    def prepare(self, index: int) -> Case:
        formulation, method = self.COMBOS[index % len(self.COMBOS)]
        plan, noise = PLANS[formulation]
        case = synthesize_case(self.net, self.seed, index, formulation, plan,
                               noise, method)
        with open(self.meas_path, "w", encoding="utf-8") as fh:
            json.dump(measurements_to_dict(case.mset), fh)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.result_path)
        return case

    def estimate(self, case: Case) -> int:
        argv = ["estimate", "--net", self.net_path,
                "--measurements", self.meas_path,
                "--formulation", case.formulation,
                "--linear-method", case.method, "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            return gridse.cli.main(argv)

    def outcome(self, case: Case, exit_code: int) -> Outcome:
        path = self.result_path
        if not os.path.exists(path):
            return Outcome(exit_code=int(exit_code), converged=False,
                           iterations=0, objective=math.nan,
                           bus_err=np.array([math.inf]), m=0, n=0)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        buses = doc["state"]["buses"]
        theta = np.array([b["theta"] for b in buses])
        vmag = np.array([b["V"] for b in buses])
        n_bus = len(buses)
        return Outcome(
            exit_code=int(exit_code), converged=bool(doc["converged"]),
            iterations=int(doc["iterations"]),
            objective=float(doc["objective_trace"][-1]),
            bus_err=bus_errors(case.formulation, case.truth, theta, vmag),
            m=len(doc["residuals"]),
            n=(n_bus if case.formulation == "dc" else 2 * n_bus) - 1,
            result_bytes=os.path.getsize(path))


# Lattice sides.  ac_lattice is 20 x 20 (N = 400, m ~ 3.6k, n = 799), not
# 30 x 30: an estimate there took 2-3 s, so a run held about ten of them
# and its median jumped between the 8- and 9-iteration clusters, on top of
# the machine's own drift.  At 20 x 20 an estimate takes about 1 s and the
# per-row kernel still dominates it.
AC_LATTICE_K = 20
PMU_LATTICE_K = 60


def make_workload(name: str, seed: int, root: str, work_dir: str):
    if name == "ac_lattice":
        return LatticeWorkload(seed, AC_LATTICE_K, "conventional",
                               plans.legacy_plan, plans.LEGACY_NOISE)
    if name == "pmu_lattice":
        return LatticeWorkload(seed, PMU_LATTICE_K, "linear_rect",
                               plans.linear_rect_plan, plans.PMU_NOISE)
    if name == "cli_mix":
        return CliMixWorkload(seed, root, work_dir)
    raise ValueError(f"unknown workload {name!r}")
