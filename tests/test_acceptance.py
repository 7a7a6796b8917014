"""Acceptance suite: one test per release criterion.

Each test prints a [PASS]/[FAIL] line; run with `pytest -s
tests/test_acceptance.py` to see the checklist.

 C1  Jacobian battery: analytic vs central differences, both fixtures.
 C2  Zero-noise recovery for all five formulations, flat start.
 C3  Gauss-Newton equals the one-shot linear solve on linear models.
 C4  Current/flow/injection identity cross-checks.
 C5  Admittance matrix properties on random networks up to N = 200.
 C6  DC linearization fidelity on lossless small-angle states.
 C7  Linear WLS optimality (orthogonality plus dense 2x2 oracle).
 C8  Monte-Carlo validation of the polar-to-rectangular covariance.
 C9  Chi-square consistency of the synthesizer noise model.
 C10 Near-quadratic convergence on consistent data.
"""

import math
import time

import numpy as np
import pytest

from gridse import (
    Branch,
    Bus,
    FlatStartSingularity,
    Formulation,
    Measurement,
    MeasurementKind,
    MeasurementSet,
    NetworkModel,
    SolverConfig,
    assemble_admittance,
    assemble_problem,
    gauss_newton,
    linear_wls,
    objective,
    polar_to_rect_variance,
    sample_true_state,
    solve,
    synthesize,
    to_rectangular,
)
from gridse.functions import evaluate_row, evaluate_value

from conftest import (
    DC_NOISE,
    LEGACY_NOISE,
    PMU_NOISE,
    branch_ends,
    dc_plan,
    fd_gradient,
    incident_ends,
    legacy_plan,
    linear_rect_plan,
    make_scenario,
    random_polar_state,
    simultaneous_polar_plan,
    simultaneous_rect_plan,
)

K = MeasurementKind

BRANCH_KINDS = [K.P_FLOW, K.Q_FLOW, K.I_MAG, K.I_MAG_PMU, K.I_ANG_PMU,
                K.I_RE, K.I_IM]
BUS_KINDS = [K.P_INJ, K.Q_INJ, K.V_MAG, K.V_MAG_PMU, K.V_ANG_PMU,
             K.V_RE, K.V_IM]


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def shuntless(net):
    return NetworkModel(
        [Bus(b.id, is_slack=b.is_slack) for b in net.buses],
        [Branch(br.from_bus, br.to_bus, br.r, br.x) for br in net.branches])


def lossless(net):
    return NetworkModel(
        [Bus(b.id, is_slack=b.is_slack) for b in net.buses],
        [Branch(br.from_bus, br.to_bus, 0.0, br.x) for br in net.branches])


def test_c01_jacobian_battery(net3, net14):
    started = time.monotonic()
    worst = 0.0
    checked = 0
    skipped = 0
    for net in (net3, net14):
        rng = np.random.default_rng(101)
        ends = branch_ends(net)
        buses = [b.id for b in net.buses]
        for _ in range(100):
            x = random_polar_state(net, rng)
            picks = [ends[int(k)] for k in rng.integers(0, len(ends), 2)]
            bus_picks = [buses[int(k)] for k in rng.integers(0, len(buses), 2)]
            for kind in BRANCH_KINDS:
                for at in picks:
                    try:
                        row = evaluate_row(net, x, kind, at)
                    except FlatStartSingularity:
                        skipped += 1
                        continue
                    fd = fd_gradient(net, x, kind, at, sorted(row.gradient))
                    for c, a in row.gradient.items():
                        err = abs(a - fd[c])
                        tol = max(1e-6 * abs(fd[c]), 1e-9)
                        worst = max(worst, err / tol)
                        checked += 1
            for kind in BUS_KINDS:
                for b in bus_picks:
                    row = evaluate_row(net, x, kind, (b,))
                    fd = fd_gradient(net, x, kind, (b,), sorted(row.gradient))
                    for c, a in row.gradient.items():
                        err = abs(a - fd[c])
                        tol = max(1e-6 * abs(fd[c]), 1e-9)
                        worst = max(worst, err / tol)
                        checked += 1
    elapsed = time.monotonic() - started
    check("C1 Jacobian battery",
          worst <= 1.0 and elapsed < 10.0,
          f"{checked} entries, worst {worst:.3f}x tolerance, "
          f"{skipped} singular rows skipped, {elapsed:.1f}s")


def test_c02_zero_noise_recovery(net3, net14):
    cases = [
        (Formulation.CONVENTIONAL, legacy_plan, True),
        (Formulation.SIMULTANEOUS_POLAR, simultaneous_polar_plan, True),
        (Formulation.SIMULTANEOUS_RECT, simultaneous_rect_plan, True),
        (Formulation.LINEAR_RECT, linear_rect_plan, False),
        (Formulation.DC, dc_plan, False),
    ]
    worst = 0.0
    for net, label in ((net3, "3-bus"), (net14, "14-bus")):
        for formulation, plan_fn, iterative in cases:
            v_range = (1.0, 1.0) if formulation == Formulation.DC else (0.95, 1.05)
            spec = make_scenario(net, plan_fn(net), noise={}, seed=42,
                                 v_range=v_range)
            x_true = sample_true_state(spec)
            mset = synthesize(spec, x_true)
            problem = assemble_problem(net, mset, formulation)
            assert problem.m / problem.n >= 1.5, (formulation, label)
            result = solve(problem)
            assert result.converged, (formulation, label)
            if iterative:
                assert result.iterations <= 10, (formulation, label)
            if formulation == Formulation.DC:
                err = np.max(np.abs(result.x_hat.angles - x_true.angles))
            elif formulation == Formulation.LINEAR_RECT:
                err = np.max(np.abs(result.x_hat.values
                                    - to_rectangular(x_true).values))
            else:
                err = np.max(np.abs(result.x_hat.values - x_true.values))
            assert err < 1e-8, (formulation, label, err)
            worst = max(worst, err)
    check("C2 zero-noise recovery (5 formulations x 2 fixtures)",
          worst < 1e-8, f"worst state error {worst:.2e}")


def test_c03_linear_exactness(net3, net14):
    worst = 0.0
    for net in (net3, net14):
        # all-linear polar rows: magnitude plus angle at every bus
        rng = np.random.default_rng(7)
        rows = []
        for b in net.buses:
            rows.append(Measurement(K.V_MAG_PMU, (b.id,),
                                    float(rng.uniform(0.95, 1.05)), 1e-4))
            rows.append(Measurement(K.V_ANG_PMU, (b.id,),
                                    float(rng.uniform(-0.2, 0.2)), 1e-4))
        mset = MeasurementSet(rows)
        problem = assemble_problem(net, mset, Formulation.SIMULTANEOUS_POLAR)
        gn = gauss_newton(problem)
        assert gn.converged and gn.iterations == 1
        h, j, _ = problem.rows(problem.initial_state())
        raw = linear_wls(j[:, problem.free_indices], mset.variances(),
                         mset.values())
        err = np.max(np.abs(gn.x_hat.values[problem.free_indices] - raw))
        worst = max(worst, err)

        # the DC family run through the Gauss-Newton loop
        spec = make_scenario(net, dc_plan(net), noise=DC_NOISE, seed=13,
                             v_range=(1.0, 1.0))
        x_true = sample_true_state(spec)
        problem = assemble_problem(net, synthesize(spec, x_true), Formulation.DC)
        gn = gauss_newton(problem)
        direct = solve(problem)
        assert gn.converged and gn.iterations == 1
        err = np.max(np.abs(gn.x_hat.values - direct.x_hat.values))
        worst = max(worst, err)
    check("C3 linear exactness (Gauss-Newton == linear WLS, 1 iteration)",
          worst < 1e-12, f"worst solution gap {worst:.2e}")


def test_c04_identity_cross_checks(net3, net14):
    worst_cur = worst_pol = worst_kir = 0.0
    for net in (net3, net14):
        net_noshunt = shuntless(net)
        rng = np.random.default_rng(55)
        for _ in range(50):
            x = random_polar_state(net, rng)
            for i, j in branch_ends(net):
                p = evaluate_row(net, x, K.P_FLOW, (i, j)).value
                q = evaluate_row(net, x, K.Q_FLOW, (i, j)).value
                mag = evaluate_row(net, x, K.I_MAG, (i, j)).value
                ang = evaluate_row(net, x, K.I_ANG_PMU, (i, j)).value
                re = evaluate_row(net, x, K.I_RE, (i, j)).value
                im = evaluate_row(net, x, K.I_IM, (i, j)).value
                worst_cur = max(worst_cur, abs(
                    mag - math.hypot(p, q) / x.magnitudes[i - 1]))
                worst_pol = max(worst_pol, abs(mag * math.cos(ang) - re),
                                abs(mag * math.sin(ang) - im))
            for b in net_noshunt.buses:
                p_sum = q_sum = 0.0
                for br, rev in incident_ends(net_noshunt, b.id):
                    jb = br.from_bus if rev else br.to_bus
                    p_sum += evaluate_row(net_noshunt, x, K.P_FLOW, (b.id, jb)).value
                    q_sum += evaluate_row(net_noshunt, x, K.Q_FLOW, (b.id, jb)).value
                worst_kir = max(
                    worst_kir,
                    abs(evaluate_row(net_noshunt, x, K.P_INJ, (b.id,)).value - p_sum),
                    abs(evaluate_row(net_noshunt, x, K.Q_INJ, (b.id,)).value - q_sum))
    ok = worst_cur < 1e-10 and worst_pol < 1e-10 and worst_kir < 1e-10
    check("C4 identity cross-checks (current, polar/rect, Kirchhoff)", ok,
          f"I=|S|/V {worst_cur:.1e}, polar/rect {worst_pol:.1e}, "
          f"injection {worst_kir:.1e}")


def test_c05_admittance_properties():
    rng = np.random.default_rng(77)
    worst_sym = worst_row = 0.0
    pattern_ok = True
    for n in (5, 23, 57, 121, 200):
        buses = [Bus(1, is_slack=True)] + [Bus(i) for i in range(2, n + 1)]
        branches = []
        for i in range(2, n + 1):
            j = int(rng.integers(1, i))
            branches.append(Branch(j, i, float(rng.uniform(0.0, 0.05)),
                                   float(rng.uniform(0.01, 0.4)),
                                   bs_from=float(rng.uniform(0, 0.05)),
                                   bs_to=float(rng.uniform(0, 0.05))))
        for _ in range(n // 2):
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            branches.append(Branch(int(i), int(j),
                                   float(rng.uniform(0.0, 0.05)),
                                   float(rng.uniform(0.01, 0.4))))
        net = NetworkModel(buses, branches)
        y = assemble_admittance(net).toarray()
        worst_sym = max(worst_sym, float(np.max(np.abs(y - y.T))))
        incident = {(br.from_bus, br.to_bus) for br in net.branches}
        incident |= {(j, i) for i, j in incident}
        nz = set(zip(*np.nonzero(y)))
        offdiag = {(i + 1, j + 1) for i, j in nz if i != j}
        pattern_ok = pattern_ok and offdiag == incident
        # shunt-free variant has exact Kirchhoff row balance
        bare = NetworkModel(
            buses, [Branch(b.from_bus, b.to_bus, b.r, b.x) for b in branches])
        yb = assemble_admittance(bare).toarray()
        worst_row = max(worst_row, float(np.max(np.abs(yb.sum(axis=1)))))
    ok = worst_sym == 0.0 and worst_row < 1e-12 and pattern_ok
    check("C5 admittance properties up to N=200", ok,
          f"symmetry gap {worst_sym:.1e}, max row sum {worst_row:.1e}, "
          f"pattern {'ok' if pattern_ok else 'BROKEN'}")


def test_c06_dc_linearization_fidelity(net3, net14):
    worst = 0.0
    rng = np.random.default_rng(66)
    for base in (net3, net14):
        net = lossless(base)
        for _ in range(50):
            n = net.n_buses
            theta = rng.uniform(-5e-4, 5e-4, n)
            theta[net.slack_bus - 1] = 0.0
            x = random_polar_state(net, rng, v_range=(1.0, 1.0), t_range=(0, 0))
            x.values[:n] = theta
            for i, j in branch_ends(net):
                ac = evaluate_row(net, x, K.P_FLOW, (i, j)).value
                dc = evaluate_value(net, x, K.P_FLOW_DC, (i, j))
                worst = max(worst, abs(ac - dc))
    check("C6 DC linearization fidelity on lossless small angles",
          worst <= 5e-7, f"worst flow gap {worst:.2e}")


def test_c07_wls_optimality(net3):
    # orthogonality of the reduced normal equations (unit variances keep
    # the 1e-10 absolute threshold meaningful)
    spec = make_scenario(net3, dc_plan(net3), noise=DC_NOISE, seed=3,
                         v_range=(1.0, 1.0))
    x_true = sample_true_state(spec)
    mset0 = synthesize(spec, x_true)
    rows = [Measurement(m.kind, m.at, m.value, 1.0) for m in mset0]
    mset = MeasurementSet(rows)
    from gridse.functions import dc_rows
    h = dc_rows(net3, mset)[:, [1, 2]].toarray()
    z = mset.values()
    res = linear_wls(h, mset.variances(), z)
    grad = h.T @ np.diag(1.0 / mset.variances()) @ (z - h @ res)
    worst_orth = float(np.max(np.abs(grad)))

    # dense 2-variable, 3-row hand oracle
    h2 = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    variances = np.array([0.5, 0.25, 1.0])
    z2 = np.array([1.0, 2.0, 1.5])
    rinv = np.diag(1.0 / variances)
    want = np.linalg.solve(h2.T @ rinv @ h2, h2.T @ rinv @ z2)
    got = linear_wls(h2, variances, z2)
    worst_tiny = float(np.max(np.abs(got - want)))
    ok = worst_orth < 1e-10 and worst_tiny < 1e-12
    check("C7 WLS optimality (orthogonality + 2x2 oracle)", ok,
          f"gradient {worst_orth:.1e}, oracle gap {worst_tiny:.1e}")


def test_c08_covariance_monte_carlo():
    rng = np.random.default_rng(88)
    z_mag, z_ang = 2.0, math.pi / 4
    v_mag, v_ang = 1e-4, 1e-4
    n = 1_000_000
    mags = z_mag + math.sqrt(v_mag) * rng.standard_normal(n)
    angs = z_ang + math.sqrt(v_ang) * rng.standard_normal(n)
    re = mags * np.cos(angs)
    im = mags * np.sin(angs)
    sample = np.cov(np.vstack([re, im]))
    v_re, v_im, cov = polar_to_rect_variance(z_mag, v_mag, z_ang, v_ang)
    rel = max(abs(sample[0, 0] - v_re) / v_re,
              abs(sample[1, 1] - v_im) / v_im,
              abs(sample[0, 1] - cov) / abs(cov))
    check("C8 covariance transformation vs 1e6-sample Monte Carlo",
          rel <= 0.03, f"worst relative gap {rel:.4f}")


def test_c09_chi_square_consistency(net3):
    plan = simultaneous_polar_plan(net3)
    noise = dict(LEGACY_NOISE)
    noise.update(PMU_NOISE)
    objs = []
    m = None
    for seed in range(250):
        spec = make_scenario(net3, plan, noise=noise, seed=seed)
        x_true = sample_true_state(spec)
        mset = synthesize(spec, x_true)
        problem = assemble_problem(net3, mset, Formulation.SIMULTANEOUS_POLAR)
        objs.append(objective(problem, x_true))
        m = problem.m
    mean = float(np.mean(objs))
    check("C9 chi-square consistency of synthesized noise",
          abs(mean - m) <= 0.1 * m,
          f"mean objective {mean:.2f} vs m={m} over {len(objs)} scenarios")


def test_c10_convergence_rate(net3):
    spec = make_scenario(net3, legacy_plan(net3), noise={}, seed=29)
    x_true = sample_true_state(spec)
    problem = assemble_problem(net3, synthesize(spec, x_true),
                               Formulation.CONVENTIONAL)
    result = gauss_newton(problem, cfg=SolverConfig(step_tolerance=1e-10))
    steps = result.max_step_trace
    assert result.converged
    assert len(steps) >= 4, steps
    ratios = [steps[k] / steps[k - 1] for k in range(len(steps) - 3, len(steps))]
    check("C10 near-quadratic convergence on consistent data",
          all(r < 0.1 for r in ratios),
          "final step ratios " + ", ".join(f"{r:.2e}" for r in ratios))
