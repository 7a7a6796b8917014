import dataclasses
import inspect
import itertools
import json
import math
import sys

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

import gridse.cli
import gridse.estimators
import gridse.functions
import gridse.network
from gridse import (
    Branch,
    Bus,
    CovarianceModel,
    EmptyMeasurementSet,
    Formulation,
    GainSystem,
    InputError,
    Measurement,
    MeasurementKind,
    MeasurementSet,
    NetworkModel,
    SingularGain,
    SolverConfig,
    StateVector,
    UnsupportedKind,
    assemble_problem,
    gauss_newton,
    linear_wls,
    load_network,
    measurements_to_dict,
    objective,
    result_to_dict,
    solve,
    sample_true_state,
    synthesize,
    to_rectangular,
)
from gridse.measurements import KIND_CODE, measurements_from_dict

from conftest import (
    DC_NOISE,
    FIXTURES,
    LEGACY_NOISE,
    PMU_NOISE,
    dc_plan,
    legacy_plan,
    linear_rect_plan,
    make_scenario,
    random_polar_state,
    simultaneous_polar_plan,
    simultaneous_rect_plan,
)
from test_golden import NET14, PLANS, THETA_RANGE, V_RANGE, small_lattice, synthesized

K = MeasurementKind


def other_values(net, formulation, plan=None, seed=7):
    """A set of the golden set's layout, or of ``plan``'s, under another
    seed: the same kind codes, locations and correlated pairs, other
    values, variances and covariances."""
    builder, noise = PLANS[formulation]
    spec = make_scenario(net, builder(net) if plan is None else plan, noise=noise,
                         seed=seed, v_range=V_RANGE, t_range=THETA_RANGE)
    return synthesize(spec, sample_true_state(spec))


def zero_noise_problem(net, plan, formulation, seed=3, **kwargs):
    spec = make_scenario(net, plan, noise={}, seed=seed)
    x_true = sample_true_state(spec)
    mset = synthesize(spec, x_true)
    return assemble_problem(net, mset, formulation, **kwargs), x_true


class TestAssembleProblem:
    def test_legacy_only_covariance_is_diagonal(self, net3):
        problem, _ = zero_noise_problem(net3, legacy_plan(net3),
                                        Formulation.CONVENTIONAL)
        assert problem.covariance.is_diagonal

    def test_rect_phasor_blocks_kept_by_default(self, net3):
        problem, _ = zero_noise_problem(net3, simultaneous_rect_plan(net3),
                                        Formulation.SIMULTANEOUS_RECT)
        assert not problem.covariance.is_diagonal
        assert len(problem.covariance.blocks) == \
            len(problem.mset.correlations)

    def test_rect_phasor_blocks_neglect_switch(self, net3):
        problem, _ = zero_noise_problem(net3, simultaneous_rect_plan(net3),
                                        Formulation.SIMULTANEOUS_RECT,
                                        neglect_phasor_covariance=True)
        assert problem.covariance.is_diagonal

    def test_dc_rejects_reactive_flow(self, net3):
        mset = MeasurementSet([
            Measurement(K.P_FLOW_DC, (1, 2), 0.0, 1e-4),
            Measurement(K.Q_FLOW, (1, 2), 0.0, 1e-4),
        ])
        with pytest.raises(UnsupportedKind):
            assemble_problem(net3, mset, Formulation.DC)

    def test_linear_rect_rejects_legacy(self, net3):
        mset = MeasurementSet([Measurement(K.V_MAG, (1,), 1.0, 1e-4)])
        with pytest.raises(UnsupportedKind):
            assemble_problem(net3, mset, Formulation.LINEAR_RECT)

    def test_conventional_rejects_pmu_kinds(self, net3):
        mset = MeasurementSet([Measurement(K.V_ANG_PMU, (1,), 0.0, 1e-4)])
        with pytest.raises(UnsupportedKind):
            assemble_problem(net3, mset, Formulation.CONVENTIONAL)

    def test_empty_set_rejected(self, net3):
        with pytest.raises(EmptyMeasurementSet):
            assemble_problem(net3, MeasurementSet([]), Formulation.CONVENTIONAL)

    def test_unknown_location_rejected(self, net3):
        mset = MeasurementSet([Measurement(K.P_FLOW, (1, 9), 0.0, 1e-4)])
        with pytest.raises(Exception, match="no branch"):
            assemble_problem(net3, mset, Formulation.CONVENTIONAL)

    def test_slack_elimination_count(self, net3):
        problem, _ = zero_noise_problem(net3, legacy_plan(net3),
                                        Formulation.CONVENTIONAL)
        assert problem.n == 2 * net3.n_buses - 1
        problem, _ = zero_noise_problem(net3, dc_plan(net3), Formulation.DC)
        assert problem.n == net3.n_buses - 1

    @pytest.mark.parametrize("formulation, plan, builds", [
        (Formulation.DC, dc_plan, 0),
        (Formulation.LINEAR_RECT, linear_rect_plan, 0),
        (Formulation.CONVENTIONAL, legacy_plan, 1),
    ])
    def test_admittance_built_only_where_rows_read_it(
            self, monkeypatch, formulation, plan, builds):
        calls = []
        build = gridse.network.assemble_admittance
        monkeypatch.setattr(gridse.network, "assemble_admittance",
                            lambda net: calls.append(net) or build(net))
        net = load_network(FIXTURES / "net3.json")
        zero_noise_problem(net, plan(net), formulation)
        assert len(calls) == builds
        assert ("admittance" in vars(net)) == (builds == 1)


class TestObjective:
    def test_zero_at_exact_fit(self, net3):
        problem, x_true = zero_noise_problem(net3, legacy_plan(net3),
                                             Formulation.CONVENTIONAL)
        assert objective(problem, x_true) == 0.0

    def test_single_row_value(self, net3):
        mset = MeasurementSet([Measurement(K.V_MAG, (2,), 1.1, 0.01)])
        problem = assemble_problem(net3, mset, Formulation.CONVENTIONAL)
        x = StateVector.flat(3, 1)  # residual 0.1, variance 0.01
        assert objective(problem, x) == pytest.approx(1.0, rel=1e-12)


class TestLinearWls:
    def test_dc_two_bus_hand_solve(self):
        net = NetworkModel([Bus(1, is_slack=True), Bus(2)],
                           [Branch(1, 2, 0.0, 0.1)])  # b = -10
        mset = MeasurementSet([Measurement(K.P_FLOW_DC, (1, 2), 1.0, 1.0)])
        problem = assemble_problem(net, mset, Formulation.DC)
        result = solve(problem)
        assert result.converged and result.iterations == 1
        assert result.x_hat.angles[1] == pytest.approx(-0.1, rel=1e-12)

    def test_identity_row_passthrough(self, net3):
        mset = MeasurementSet([
            Measurement(K.THETA, (2,), 0.05, 1e-4),
            Measurement(K.THETA, (3,), -0.02, 1e-4),
        ])
        problem = assemble_problem(net3, mset, Formulation.DC)
        result = solve(problem)
        assert result.x_hat.angles[1] == pytest.approx(0.05, rel=1e-12)
        assert result.x_hat.angles[2] == pytest.approx(-0.02, rel=1e-12)

    def test_equal_weight_average(self, net3):
        mset = MeasurementSet([
            Measurement(K.THETA, (2,), 0.04, 1e-4),
            Measurement(K.THETA, (2,), 0.06, 1e-4),
            Measurement(K.THETA, (3,), 0.0, 1e-4),
        ])
        problem = assemble_problem(net3, mset, Formulation.DC)
        result = solve(problem)
        assert result.x_hat.angles[1] == pytest.approx(0.05, rel=1e-12)

    def test_normal_equation_orthogonality(self, net3):
        problem, _ = zero_noise_problem(net3, dc_plan(net3), Formulation.DC,
                                        seed=7)
        # perturb z so residuals are nonzero; unit variances keep the
        # gain matrix at a scale where 1e-10 absolute is meaningful
        rows = [Measurement(m.kind, m.at, m.value + 0.01 * (k % 3 - 1), 1.0)
                for k, m in enumerate(problem.mset)]
        mset = MeasurementSet(rows)
        h = __import__("gridse.functions", fromlist=["dc_rows"]).dc_rows(net3, mset)
        hr = h[:, [1, 2]].toarray()
        z = mset.values()
        result = linear_wls(hr, mset.variances(), z)
        rinv = np.diag(1.0 / mset.variances())
        grad = hr.T @ rinv @ (z - hr @ result)
        assert np.max(np.abs(grad)) < 1e-10

    def test_two_by_two_dense_hand_oracle(self):
        h = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        variances = np.array([0.5, 0.25, 1.0])
        z = np.array([1.0, 2.0, 1.5])
        # independent dense normal-equation solve
        rinv = np.diag(1.0 / variances)
        want = np.linalg.solve(h.T @ rinv @ h, h.T @ rinv @ z)
        got = linear_wls(h, variances, z)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_orthogonal_method_matches_normal(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(12, 5))
        variances = rng.uniform(0.1, 2.0, 12)
        z = rng.normal(size=12)
        a = linear_wls(h, variances, z, method="normal")
        b = linear_wls(h, variances, z, method="orthogonal")
        assert np.max(np.abs(a - b)) < 1e-10

    def test_orders_its_own_gain(self, net14, monkeypatch):
        # no network: the narrower-of-two rule runs on the gain's graph
        graphs = []
        narrow_order = gridse.estimators.narrow_order

        def recorded(graph):
            graphs.append(graph.toarray())
            return narrow_order(graph)

        monkeypatch.setattr(gridse.estimators, "narrow_order", recorded)
        problem = assemble_problem(net14, synthesized(net14, "dc"), "dc")
        h = problem.h_matrix[:, problem.free_indices]
        got = linear_wls(h, problem.mset.variances(), problem.z)
        w = 1.0 / problem.mset.variances()
        g = (h.T @ (h.multiply(w[:, None]))).toarray()
        assert len(graphs) == 1 and np.array_equal(graphs[0] != 0, g != 0)
        assert np.max(np.abs(got - np.linalg.solve(g, h.T @ (w * problem.z)))) < 1e-12
        # a problem on the network takes the network's order, not G's
        assert solve(problem).converged and len(graphs) == 1

    def test_rank_deficient_raises_singular_gain(self):
        h = np.array([[1.0, 0.0, 0.0]])  # 1 row, 3 unknowns
        with pytest.raises(SingularGain):
            linear_wls(h, np.array([1.0]), np.array([0.5]))
        with pytest.raises(SingularGain):
            linear_wls(h, np.array([1.0]), np.array([0.5]), method="orthogonal")


def grid_network(k, seed=0):
    """k x k grid, each bus joined to its right and lower neighbours."""
    rng = np.random.default_rng(seed)
    branches = []
    for r in range(k):
        for c in range(k):
            i = r * k + c + 1
            for j in ([i + 1] if c + 1 < k else []) + ([i + k] if r + 1 < k else []):
                branches.append(Branch(i, j, float(rng.uniform(0.005, 0.03)),
                                       float(rng.uniform(0.05, 0.2))))
    buses = [Bus(1, is_slack=True)] + [Bus(i) for i in range(2, k * k + 1)]
    return NetworkModel(buses, branches)


def dense_normal_solution(problem):
    """Independent dense WLS solve over the free unknowns: R assembled
    from the measurement set, the normal equations by np.linalg.solve."""
    mset = problem.mset
    r = np.diag(mset.variances())
    for c in mset.correlations:
        a, b = c.rows
        r[a, b] = r[b, a] = c.cov
    h = problem.h_matrix.toarray()
    z = mset.values() - h[:, problem.fixed_index] * problem.fixed_value
    hr = h[:, problem.free_indices]
    rinv_h = np.linalg.solve(r, hr)
    return np.linalg.solve(hr.T @ rinv_h, rinv_h.T @ z)


def binary_tree_network(n):
    """Buses 1..n, bus i fed from bus i // 2: a radial feeder whose gain
    has a bandwidth of nearly n under any profile-reducing ordering."""
    rng = np.random.default_rng(5)
    branches = [Branch(i // 2, i, float(rng.uniform(0.005, 0.03)),
                       float(rng.uniform(0.05, 0.2))) for i in range(2, n + 1)]
    return NetworkModel([Bus(1, is_slack=True)] + [Bus(i) for i in range(2, n + 1)],
                        branches)


@pytest.fixture
def superlu_calls(monkeypatch):
    """The gains factored by SuperLU while the test runs."""
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g.shape)
        return splu(g, *args, **kwargs)

    monkeypatch.setattr(gridse.estimators, "splu", counted)
    return calls


class TestSparseGain:
    @pytest.fixture(scope="class")
    def grid12(self):
        return grid_network(12)

    def noisy_problem(self, net, plan, noise, formulation, seed):
        spec = make_scenario(net, plan, noise=noise, seed=seed,
                             v_range=(1.0, 1.0) if formulation == "dc"
                             else (0.95, 1.05))
        mset = synthesize(spec, sample_true_state(spec))
        return assemble_problem(net, mset, formulation)

    def free_values(self, problem, result):
        x = result.x_hat
        full = x.angles if problem.formulation == Formulation.DC else x.values
        return full[problem.free_indices]

    def test_dc_matches_dense_oracle(self, grid12, superlu_calls):
        problem = self.noisy_problem(grid12, dc_plan(grid12), DC_NOISE,
                                     Formulation.DC, seed=12)
        want = dense_normal_solution(problem)
        got = self.free_values(problem, solve(problem))
        assert np.max(np.abs(got - want)) < 1e-10
        assert superlu_calls == []  # the banded Cholesky solved it

    def test_linear_rect_with_correlated_blocks_matches_dense_oracle(
            self, grid12, superlu_calls):
        problem = self.noisy_problem(grid12, linear_rect_plan(grid12),
                                     PMU_NOISE, Formulation.LINEAR_RECT, seed=13)
        assert len(problem.covariance.blocks) == len(linear_rect_plan(grid12)) // 2
        want = dense_normal_solution(problem)
        normal = self.free_values(problem, solve(problem))
        assert np.max(np.abs(normal - want)) < 1e-10
        assert superlu_calls == []
        cfg = SolverConfig(linear_system_method="orthogonal")
        orthogonal = self.free_values(problem, solve(problem, cfg))
        assert np.max(np.abs(orthogonal - normal)) < 1e-10

    def test_radial_feeder_gain_goes_to_superlu(self, superlu_calls):
        # A band over a 1 023-bus binary tree would hold ~85 times the
        # gain's entries, so SuperLU factors it; the dense oracle needs
        # no R matrix because DC rows are uncorrelated.
        tree = binary_tree_network(1023)
        problem = self.noisy_problem(tree, dc_plan(tree), DC_NOISE,
                                     Formulation.DC, seed=15)
        got = self.free_values(problem, solve(problem))
        assert superlu_calls == [(1022, 1022)]
        h = problem.h_matrix.toarray()[:, problem.free_indices]
        w = 1.0 / problem.mset.variances()
        want = np.linalg.solve(h.T @ (h * w[:, None]), h.T @ (w * problem.z))
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("g, pivot", [
        ([[1.0, 1.0], [1.0, 1.0]], "0"),  # the second pivot is exactly 0
        ([[1.0, 2.0], [2.0, 1.0]], "-3"),  # its square would pass the n * eps test
    ])
    def test_non_positive_pivot_names_an_unknown(self, g, pivot):
        # dpbtrf stops at the first pivot that is not positive
        with pytest.raises(SingularGain, match=rf"numerically singular: pivot {pivot} "
                           r"for unknown [01] against its diagonal 1"):
            gridse.estimators._factor_gain(csc_matrix(g), np.arange(2), lambda k: f"unknown {k}")

    @pytest.mark.parametrize("formulation", list(Formulation))
    def test_normal_agrees_with_orthogonal_on_golden_replays(self, net14, formulation):
        # The scenarios of tests/test_golden.py: the orthogonal replay
        # digests do not depend on the gain factor, the normal ones do.
        problem = assemble_problem(net14, synthesized(net14, formulation.value),
                                   formulation)
        normal = solve(problem)
        orthogonal = solve(problem, SolverConfig(linear_system_method="orthogonal"))
        assert normal.converged and orthogonal.converged
        assert normal.iterations == orthogonal.iterations
        assert np.max(np.abs(normal.x_hat.values - orthogonal.x_hat.values)) <= 1e-9

    def test_orthogonal_matches_normal_with_blocks_in_gauss_newton(self, net3):
        spec = make_scenario(net3, simultaneous_rect_plan(net3),
                             noise={**PMU_NOISE, K.P_FLOW: 0.01,
                                    K.Q_FLOW: 0.01, K.V_MAG: 0.004}, seed=14)
        mset = synthesize(spec, sample_true_state(spec))
        problem = assemble_problem(net3, mset, Formulation.SIMULTANEOUS_RECT)
        assert problem.covariance.blocks
        a = solve(problem)
        b = solve(problem, SolverConfig(linear_system_method="orthogonal"))
        assert a.converged and b.converged
        assert np.max(np.abs(a.x_hat.values - b.x_hat.values)) < 1e-10

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    def test_numerically_singular_gain_raises(self, net14, method):
        # theta_2 and theta_4 appear only in the injection row at bus 4:
        # one equation, two unknowns.  One pivot of the gain comes out
        # as rounding noise, not as an exact zero.
        rows = [Measurement(K.THETA, (i,), 0.01 * i, 1e-4)
                for i in range(1, 15) if i not in (2, 4)]
        rows.append(Measurement(K.P_INJ_DC, (4,), 0.3, 1e-4))
        problem = assemble_problem(net14, MeasurementSet(rows), Formulation.DC)
        match = "numerically singular" if method == "normal" else "rank deficient"
        with pytest.raises(SingularGain, match=match):
            solve(problem, SolverConfig(linear_system_method=method))


class TestGaussNewton:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, 0.0])
    def test_step_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(InputError, match="step_tolerance must be finite and > 0"):
            SolverConfig(step_tolerance=tol)

    def test_linear_rows_converge_in_one_iteration(self, net3):
        # V_mag + V_ang rows only: the model is linear in the polar state
        rows = []
        rng = np.random.default_rng(9)
        for b in net3.buses:
            rows.append(Measurement(K.V_MAG_PMU, (b.id,),
                                    float(rng.uniform(0.95, 1.05)), 1e-4))
            rows.append(Measurement(K.V_ANG_PMU, (b.id,),
                                    float(rng.uniform(-0.2, 0.2)), 1e-4))
        mset = MeasurementSet(rows)
        problem = assemble_problem(net3, mset, Formulation.SIMULTANEOUS_POLAR)
        result = gauss_newton(problem)
        assert result.converged
        assert result.iterations == 1
        # identical solution via the one-shot linear path
        h, j, _ = problem.rows(problem.initial_state())
        hr = j[:, problem.free_indices]
        raw = linear_wls(hr, mset.variances(), mset.values())
        got = result.x_hat.values[problem.free_indices]
        assert np.max(np.abs(got - raw)) < 1e-12

    def test_duplicate_conflicting_rows_split_residual(self, net3):
        rows = []
        for b in net3.buses:
            rows.append(Measurement(K.V_ANG_PMU, (b.id,), 0.0, 1e-4))
        rows.append(Measurement(K.V_MAG_PMU, (1,), 1.0, 1e-4))
        rows.append(Measurement(K.V_MAG_PMU, (3,), 1.0, 1e-4))
        a, b_val = 1.01, 1.03
        rows.append(Measurement(K.V_MAG_PMU, (2,), a, 1e-4))
        rows.append(Measurement(K.V_MAG_PMU, (2,), b_val, 1e-4))
        mset = MeasurementSet(rows)
        problem = assemble_problem(net3, mset, Formulation.SIMULTANEOUS_POLAR)
        result = gauss_newton(problem)
        assert result.x_hat.magnitudes[1] == pytest.approx((a + b_val) / 2, rel=1e-12)
        assert result.residuals[-2] == pytest.approx((a - b_val) / 2, rel=1e-9)
        assert result.residuals[-1] == pytest.approx((b_val - a) / 2, rel=1e-9)

    def test_zero_noise_recovery_conventional(self, net3):
        problem, x_true = zero_noise_problem(net3, legacy_plan(net3),
                                             Formulation.CONVENTIONAL)
        result = gauss_newton(problem)
        assert result.converged
        assert result.iterations <= 10
        assert np.max(np.abs(result.x_hat.values - x_true.values)) < 1e-8

    def test_slack_entry_never_moves(self):
        net = NetworkModel(
            [Bus(1), Bus(2, is_slack=True), Bus(3)],
            [Branch(1, 2, 0.02, 0.06), Branch(2, 3, 0.06, 0.18),
             Branch(1, 3, 0.08, 0.24)],
            slack_angle=0.07)
        problem, x_true = zero_noise_problem(net, legacy_plan(net),
                                             Formulation.CONVENTIONAL)
        result = gauss_newton(problem)
        assert result.x_hat.angles[1] == 0.07  # bit-identical, never updated
        assert result.converged
        assert np.max(np.abs(result.x_hat.values - x_true.values)) < 1e-8

    def test_iteration_cap_returns_partial_result(self, net3):
        problem, _ = zero_noise_problem(net3, legacy_plan(net3),
                                        Formulation.CONVENTIONAL)
        result = gauss_newton(problem, cfg=SolverConfig(max_iterations=1))
        assert not result.converged
        assert result.iterations == 1
        assert len(result.max_step_trace) == 1

    def test_underdetermined_raises_singular_gain(self, net3):
        mset = MeasurementSet([Measurement(K.V_MAG, (1,), 1.0, 1e-4)])
        problem = assemble_problem(net3, mset, Formulation.CONVENTIONAL)
        with pytest.raises(SingularGain):
            gauss_newton(problem)

    def test_flat_singular_rows_dropped_then_recovered(self, net3):
        # shuntless variant: every branch current is exactly zero at the
        # flat start, so all I_mag rows drop in iteration one
        net = NetworkModel(
            [Bus(b.id, is_slack=b.is_slack) for b in net3.buses],
            [Branch(br.from_bus, br.to_bus, br.r, br.x) for br in net3.branches])
        problem, x_true = zero_noise_problem(net, legacy_plan(net),
                                             Formulation.CONVENTIONAL)
        result = gauss_newton(problem)
        assert result.converged
        assert np.max(np.abs(result.x_hat.values - x_true.values)) < 1e-8

    def test_converged_forced_false_when_rows_dropped_at_solution(self):
        net = NetworkModel([Bus(1, is_slack=True), Bus(2)],
                           [Branch(1, 2, 0.02, 0.06)])
        rows = [
            Measurement(K.V_MAG_PMU, (1,), 1.0, 1e-4),
            Measurement(K.V_MAG_PMU, (2,), 1.0, 1e-4),
            Measurement(K.V_ANG_PMU, (2,), 0.0, 1e-4),
            Measurement(K.I_MAG_PMU, (1, 2), 0.0, 1e-4),
        ]
        problem = assemble_problem(net, MeasurementSet(rows),
                                   Formulation.SIMULTANEOUS_POLAR)
        result = gauss_newton(problem)
        # the solution is the flat state, where the current row is singular
        assert not result.converged

    def test_angle_residual_wraps_across_branch_cut(self, net3):
        rows = [Measurement(K.V_ANG_PMU, (b.id,), 0.0, 1e-4) for b in net3.buses
                if b.id != 2]
        rows.append(Measurement(K.V_ANG_PMU, (2,), 3.1, 1e-4))
        for b in net3.buses:
            rows.append(Measurement(K.V_MAG_PMU, (b.id,), 1.0, 1e-4))
        mset = MeasurementSet(rows)
        problem = assemble_problem(net3, mset, Formulation.SIMULTANEOUS_POLAR)
        x0 = problem.initial_state()
        x0.angles[1] = -3.1  # across the cut from the measured 3.1
        r = problem.residuals(x0)
        # row 2 is the bus-2 angle; raw difference 6.2 wraps to about -0.083
        assert r[2] == pytest.approx(math.remainder(3.1 - (-3.1), 2 * math.pi))
        result = gauss_newton(problem, x0)
        assert result.converged
        # estimate lands on an angle equivalent to 3.1 (mod 2 pi)
        err = math.remainder(result.x_hat.angles[1] - 3.1, 2 * math.pi)
        assert abs(err) < 1e-8

    def test_objective_trace_finite_and_final_step_below_tol(self, net14):
        problem, _ = zero_noise_problem(net14, legacy_plan(net14),
                                        Formulation.CONVENTIONAL)
        cfg = SolverConfig()
        result = gauss_newton(problem, cfg=cfg)
        assert result.converged
        assert all(np.isfinite(v) for v in result.objective_trace)
        assert result.max_step_trace[-1] <= cfg.step_tolerance
        # descent is typical but not guaranteed for plain Gauss-Newton:
        # report the trace rather than asserting monotonicity
        print("objective trace:", ["%.3e" % v for v in result.objective_trace])

    def test_orthogonal_method_full_solve(self, net3):
        problem, x_true = zero_noise_problem(net3, legacy_plan(net3),
                                             Formulation.CONVENTIONAL)
        cfg = SolverConfig(linear_system_method="orthogonal")
        result = gauss_newton(problem, cfg=cfg)
        assert result.converged
        assert np.max(np.abs(result.x_hat.values - x_true.values)) < 1e-8


class TestFormulationSolves:
    def test_simultaneous_polar_recovery(self, net3):
        problem, x_true = zero_noise_problem(
            net3, simultaneous_polar_plan(net3), Formulation.SIMULTANEOUS_POLAR)
        result = solve(problem)
        assert result.converged
        assert np.max(np.abs(result.x_hat.values - x_true.values)) < 1e-8

    def test_simultaneous_rect_recovery_both_covariance_paths(self, net3):
        for neglect in (False, True):
            problem, x_true = zero_noise_problem(
                net3, simultaneous_rect_plan(net3), Formulation.SIMULTANEOUS_RECT,
                neglect_phasor_covariance=neglect)
            result = solve(problem)
            assert result.converged
            assert np.max(np.abs(result.x_hat.values - x_true.values)) < 1e-8

    def test_linear_rect_recovery(self, net3):
        spec = make_scenario(net3, linear_rect_plan(net3), noise={}, seed=5)
        x_true = sample_true_state(spec)
        mset = synthesize(spec, x_true)
        problem = assemble_problem(net3, mset, Formulation.LINEAR_RECT)
        result = solve(problem)
        assert result.converged and result.iterations == 1
        v_true = x_true.complex_voltages()
        got = result.x_hat
        assert np.max(np.abs(got.re - v_true.real)) < 1e-10
        assert np.max(np.abs(got.im - v_true.imag)) < 1e-10
        assert got.im[net3.slack_bus - 1] == 0.0

    def test_linear_rect_needs_zero_slack_angle(self):
        net = NetworkModel(
            [Bus(1, is_slack=True), Bus(2)],
            [Branch(1, 2, 0.02, 0.06)], slack_angle=0.1)
        mset = MeasurementSet([
            Measurement(K.V_RE, (i,), 1.0, 1e-4) for i in (1, 2)
        ] + [
            Measurement(K.V_IM, (i,), 0.0, 1e-4) for i in (1, 2)
        ])
        with pytest.raises(Exception, match="slack angle"):
            assemble_problem(net, mset, Formulation.LINEAR_RECT)

    def test_dc_recovery(self, net3):
        spec = make_scenario(net3, dc_plan(net3), noise={}, seed=6,
                             v_range=(1.0, 1.0))
        x_true = sample_true_state(spec)
        mset = synthesize(spec, x_true)
        problem = assemble_problem(net3, mset, Formulation.DC)
        result = solve(problem)
        assert result.converged and result.iterations == 1
        assert np.max(np.abs(result.x_hat.angles - x_true.angles)) < 1e-10


class TestConstantJacobianLoop:
    """DC and linear_rect run through the one Gauss-Newton loop."""

    CASES = [(Formulation.DC, dc_plan, DC_NOISE),
             (Formulation.LINEAR_RECT, linear_rect_plan, PMU_NOISE)]

    def noisy_problem(self, net, formulation, plan, noise):
        v_range = (1.0, 1.0) if formulation == Formulation.DC else (0.95, 1.05)
        spec = make_scenario(net, plan(net), noise=noise, seed=17,
                             v_range=v_range)
        x_true = sample_true_state(spec)
        return assemble_problem(net, synthesize(spec, x_true), formulation), x_true

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    @pytest.mark.parametrize("formulation, plan, noise", CASES)
    def test_one_gain_solve_one_iteration(self, net14, monkeypatch,
                                          formulation, plan, noise, method):
        calls = []
        gain_solve = GainSystem.solve

        def counted(self, method="normal"):
            calls.append(method)
            return gain_solve(self, method)

        monkeypatch.setattr(GainSystem, "solve", counted)
        problem, _ = self.noisy_problem(net14, formulation, plan, noise)
        result = solve(problem, SolverConfig(linear_system_method=method))
        assert calls == [method]
        assert isinstance(result.x_hat, StateVector)
        assert result.converged and result.iterations == 1
        assert len(result.max_step_trace) == 1
        assert len(result.objective_trace) == 1

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    @pytest.mark.parametrize("formulation, plan, noise", CASES)
    def test_warm_start_at_solution(self, net14, formulation, plan, noise,
                                    method):
        problem, _ = self.noisy_problem(net14, formulation, plan, noise)
        cfg = SolverConfig(linear_system_method=method)
        first = solve(problem, cfg)
        again = solve(problem, cfg, first.x_hat)
        assert again.converged and again.iterations == 0
        # the start is used: the only step taken from it is rounding noise
        assert again.max_step_trace[0] < 1e-12
        assert np.max(np.abs(again.x_hat.values - first.x_hat.values)) < 1e-12

    def test_linear_rect_rejects_polar_start(self, net14):
        problem, x_true = self.noisy_problem(net14, *self.CASES[1])
        with pytest.raises(InputError, match="rectangular start"):
            solve(problem, x0=x_true)
        assert solve(problem, x0=to_rectangular(x_true)).converged

    @pytest.mark.parametrize("formulation, plan", [
        (Formulation.LINEAR_RECT, linear_rect_plan),
        (Formulation.DC, dc_plan),
        (Formulation.CONVENTIONAL, legacy_plan),
    ])
    def test_start_with_other_slack_anchor_rejected(self, net14, formulation,
                                                    plan):
        problem, _ = zero_noise_problem(net14, plan(net14), formulation)
        start = problem.initial_state()
        moved = StateVector(start.coordinates, start.values, start.slack_bus, 0.1)
        with pytest.raises(InputError, match="anchors it at 0"):
            solve(problem, x0=moved)


def restrict(covariance, keep):
    """The covariance over the rows where keep is True, as the solver
    built it before inactive rows were zero-weighted: the reference
    for the masked gain solve."""
    table = np.array(covariance.blocks, dtype=float).reshape(-1, 3)
    a, b, cov = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp), table[:, 2]
    new_index = np.cumsum(keep) - 1
    kept = keep[a]
    if (kept != keep[b]).any():
        raise InputError("cannot split a correlated covariance block")
    return CovarianceModel(covariance.variances[keep], np.column_stack(
        [new_index[a[kept]], new_index[b[kept]], cov[kept]]))


class TestInactiveRows:
    """Rows outside the active mask leave the gain solve without a
    restricted covariance model."""

    def linearization(self, formulation, x=None):
        net = load_network(NET14)
        problem = assemble_problem(net, synthesized(net, formulation), formulation)
        h, j, active = problem.rows(x if x is not None else problem.initial_state())
        return problem, j[:, problem.free_indices], problem._residuals_of(h), active

    def assert_like_restricted(self, problem, j, r, active, method):
        got = GainSystem(j, problem.covariance, r, active).solve(method)
        want = GainSystem(j[active], restrict(problem.covariance, active),
                          r[active]).solve(method)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_polar"])
    def test_flat_start_drop_matches_restricted_solve(self, formulation, method):
        problem, j, r, active = self.linearization(formulation)
        assert not active.all()
        self.assert_like_restricted(problem, j, r, active, method)

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    def test_mask_over_whole_blocks_matches_restricted_solve(self, method):
        rng = np.random.default_rng(5)
        problem, j, r, active = self.linearization(
            "simultaneous_rect", random_polar_state(load_network(NET14), rng))
        assert active.all() and problem.covariance.blocks
        active = rng.random(problem.m) < 0.8
        for a, b, _ in problem.covariance.blocks:
            active[b] = active[a]
        assert not active.all()
        self.assert_like_restricted(problem, j, r, active, method)

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    def test_mask_that_cuts_a_block_raises(self, method):
        problem, j, r, active = self.linearization("linear_rect")
        a, _, _ = problem.covariance.blocks[3]
        active[a] = False
        system = GainSystem(j, problem.covariance, r, active)
        with pytest.raises(InputError, match="cannot split a correlated covariance block"):
            system.solve(method)

    def test_constant_rows_built_through_module_globals(self, monkeypatch):
        """A tracer that replaces dc_rows and linear_rows_rectstate in
        every gridse module holding them sees each problem build its
        rows once, and the problems still assemble and solve."""
        calls = []
        modules = [mod for key, mod in sys.modules.items() if key.startswith("gridse")]
        for name in ("dc_rows", "linear_rows_rectstate"):
            orig = getattr(gridse.functions, name)

            def traced(*args, _orig=orig, _name=name):
                calls.append(_name)
                return _orig(*args)

            for mod in modules:
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, traced)
        net = load_network(NET14)
        for formulation, name in (("dc", "dc_rows"),
                                  ("linear_rect", "linear_rows_rectstate")):
            calls.clear()
            problem = assemble_problem(net, synthesized(net, formulation), formulation)
            assert solve(problem).converged
            assert calls == [name]
            # another set of the same layout reuses the network's analysis
            problem = assemble_problem(net, other_values(net, formulation), formulation)
            assert solve(problem).converged
            assert calls == [name]


class TestLayoutAnalysis:
    """A network keeps its last layout analysis per formulation: a set of
    the same kind codes, locations and correlated pairs, under the same
    neglect_phasor_covariance, reuses its rows, R^-1's pattern, its order
    and its gain plan, and gives the bits it gives on a network of its
    own.  So does a set that holds only some of the analysis's rows,
    where the analysis can promise those bits; a set that brings rows
    gets one analysis of both sets' rows."""

    @staticmethod
    def outputs(problem, method="normal"):
        """x-hat, residuals, objective trace and result.json bytes."""
        result = solve(problem, SolverConfig(linear_system_method=method))
        return (result.x_hat.values.tobytes(), result.residuals.tobytes(),
                result.objective_trace, gridse.cli._encode(result_to_dict(problem, result)))

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    @pytest.mark.parametrize("formulation", list(PLANS))
    def test_hit_matches_a_fresh_network(self, formulation, method):
        net = load_network(NET14)
        first = assemble_problem(net, synthesized(net, formulation), formulation)
        self.outputs(first, method)
        plan = first._layout._plan
        mset = other_values(net, formulation)
        hit = assemble_problem(net, mset, formulation)
        assert hit._layout is first._layout
        assert hit.h_matrix is first.h_matrix and hit.kernel is first.kernel
        assert hit.covariance.pattern is first.covariance.pattern
        fresh = assemble_problem(load_network(NET14), mset, formulation)
        assert fresh._layout is not hit._layout
        assert self.outputs(hit, method) == self.outputs(fresh, method)
        # a normal solve of either family reuses the layout's gain plan
        assert (plan is not None) == (method == "normal")
        assert hit._layout._plan is plan

    @staticmethod
    def changed(mset, part):
        """The set with one part of its layout changed."""
        rows = np.arange(len(mset))
        at, pairs, covs = mset.at.copy(), mset.pairs, mset.covs
        if part == "codes":  # the first flow's P and Q rows trade places
            k = int(np.argmax(mset.codes == KIND_CODE["P_flow"]))
            rows[[k, k + 1]] = k + 1, k
        elif part == "at":  # a V_mag row moves to the next bus
            k = int(np.argmax(mset.codes == KIND_CODE["V_mag"]))
            at[k, 0] = at[k, 0] % 14 + 1
        else:  # the first pair loses its correlation
            pairs, covs = pairs[1:], covs[1:]
        return MeasurementSet.from_columns(mset.codes[rows], at[rows], mset.values()[rows],
                                           mset.variances()[rows], pairs, covs)

    @pytest.mark.parametrize("part", ["codes", "at", "pairs", "neglect", "formulation"])
    def test_any_change_of_the_key_misses(self, part):
        net = load_network(NET14)
        mset = synthesized(net, "simultaneous_rect")
        base = assemble_problem(net, mset, "simultaneous_rect")
        assert assemble_problem(net, mset, "simultaneous_rect")._layout is base._layout
        formulation, neglect = "simultaneous_rect", part == "neglect"
        if part == "formulation":  # the legacy rows alone admit conventional too
            legacy = synthesized(net, "conventional")
            base = assemble_problem(net, legacy, "simultaneous_rect")
            mset, formulation = legacy, "conventional"
        elif not neglect:
            mset = self.changed(mset, part)
        other = assemble_problem(net, mset, formulation, neglect_phasor_covariance=neglect)
        assert other._layout is not base._layout
        assert net.layouts[formulation] is other._layout
        assert (net.layouts["simultaneous_rect"] is base._layout) == (part == "formulation")
        assert self.outputs(other) == self.outputs(assemble_problem(
            load_network(NET14), mset, formulation, neglect_phasor_covariance=neglect))

    def test_gain_that_loses_entries_keeps_the_plan(self, bands):
        # Voltage phasors alone: each off-diagonal of G comes from one
        # pair's covariance, so a set whose covariances are 0 has a
        # diagonal G, since the sparse product drops the zero products.
        # The plan's pattern is structural: it keeps those entries, as 0.
        net = load_network(NET14)
        plan = [(kind, (b.id,)) for b in net.buses for kind in (K.V_RE, K.V_IM)]
        mset = other_values(net, "linear_rect", plan)
        diagonal = MeasurementSet.from_columns(mset.codes, mset.at, mset.values(),
                                               mset.variances(), mset.pairs,
                                               np.zeros_like(mset.covs))
        first = assemble_problem(net, mset, "linear_rect")
        self.outputs(first)
        plan = first._layout._plan
        hit = assemble_problem(net, diagonal, "linear_rect")
        assert hit._layout is first._layout
        h = hit.h_matrix[:, hit.free_indices]
        gains = [csc_matrix(h.T @ p.covariance.inverse() @ h) for p in (first, hit)]
        assert gains[1].nnz == hit.n < gains[0].nnz
        fresh = assemble_problem(load_network(NET14), diagonal, "linear_rect")
        bands.clear()
        assert self.outputs(hit) == self.outputs(fresh)
        assert hit._layout._plan is plan
        # both bands hold the structural slots, the dropped entries as 0
        (ab, _), (again, _) = bands
        assert np.array_equal(ab, again)
        upper = band_to_upper(ab)
        assert np.count_nonzero(upper) == hit.n
        assert np.array_equal(upper[np.argsort(hit.order)][:, np.argsort(hit.order)],
                              np.triu(gains[1].toarray()))

    def test_row_in_two_pairs_is_refused_by_the_layout(self):
        net = load_network(NET14)
        mset = synthesized(net, "linear_rect")
        b, c = int(mset.pairs[0, 1]), int(mset.pairs[1, 0])
        twice = MeasurementSet.from_columns(
            mset.codes, mset.at, mset.values(), mset.variances(),
            np.vstack([mset.pairs, [[b, c]]]), np.append(mset.covs, 0.0))
        with pytest.raises(InputError, match=f"row {b} appears in more than one correlated"):
            assemble_problem(net, twice, "linear_rect")
        assert net.layouts.get("linear_rect") is None
        # neglected, the pairs make no blocks
        problem = assemble_problem(net, twice, "linear_rect", neglect_phasor_covariance=True)
        assert problem.covariance.is_diagonal

    @pytest.mark.parametrize("formulation", ["dc", "linear_rect", "conventional"])
    def test_cached_arrays_are_read_only(self, net14, formulation):
        problem = assemble_problem(net14, synthesized(net14, formulation), formulation)
        layout = problem._layout
        pattern = layout.inverse_pattern
        arrays = [layout.free, layout.angle_rows, problem.order, pattern.indptr,
                  pattern.indices, pattern.source, pattern.a, pattern.b]
        if layout.kernel is None:
            arrays += [layout.h_matrix.data, layout.h_matrix.indices, layout.h_matrix.indptr]
        else:
            arrays += [layout.kernel.indices, layout.kernel.indptr]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("formulation", ["linear_rect", "conventional", "dc"])
    def test_alternating_layouts_match_separate_networks(self, formulation):
        net = load_network(NET14)
        plans = [PLANS[formulation][0](net), PLANS[formulation][0](net)[:-2]]
        layouts = []
        for seed in (1, 2, 3, 4):
            mset = other_values(net, formulation, plans[seed % 2], seed)
            problem = assemble_problem(net, mset, formulation)
            layouts.append(problem._layout)
            alone = assemble_problem(load_network(NET14), mset, formulation)
            assert self.outputs(problem) == self.outputs(alone)
        # the prefix's analysis, then one of the whole plan serves both
        assert len({id(layout) for layout in layouts}) == 2


@pytest.fixture
def plan_builds(monkeypatch):
    """How often a gain plan is built while the test runs."""
    calls = []

    class Counted(gridse.estimators._GainPlan):
        def __init__(self, *args):
            calls.append(1)
            super().__init__(*args)

    monkeypatch.setattr(gridse.estimators, "_GainPlan", Counted)
    return calls


def subset(mset, keep):
    """The set's rows ``keep``, in that order, with the pairs of two kept
    rows."""
    keep = np.asarray(keep, dtype=np.intp)
    new = np.full(len(mset), -1)
    new[keep] = np.arange(keep.size)
    pairs = new[mset.pairs]
    both = (pairs >= 0).all(axis=1)
    return MeasurementSet.from_columns(mset.codes[keep], mset.at[keep], mset.values()[keep],
                                       mset.variances()[keep], pairs[both], mset.covs[both])


class TestPartialSets:
    """A set that holds only some of the rows of its network's layout
    analysis shares it where that gives the set's own bits, with the rows
    it lacks inactive and weightless, and gets its own analysis where it
    does not; either way its outputs are those of a fresh network."""

    outputs = staticmethod(TestLayoutAnalysis.outputs)

    @staticmethod
    def network(formulation, plan=None, seed=11, net=None):
        """A network whose analysis is that of ``plan``'s set, and the set."""
        net = net or load_network(NET14)
        mset = other_values(net, formulation, plan, seed)
        assemble_problem(net, mset, formulation)
        return net, mset

    def check(self, net, mset, formulation, shared, method="normal"):
        """Assemble mset on net, on the network's analysis (``shared``) or
        on one of its own, with the outputs of a fresh network."""
        layout = net.layouts.get(formulation)
        problem = assemble_problem(net, mset, formulation)
        assert (problem._layout is layout) == shared
        assert (problem._rows is not None) == shared
        assert net.layouts[formulation] is problem._layout
        fresh = assemble_problem(type(net)(net.buses, net.branches), mset, formulation)
        assert self.outputs(problem, method) == self.outputs(fresh, method)
        return problem, fresh

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    @pytest.mark.parametrize("formulation", list(PLANS))
    def test_set_without_its_last_rows_shares_the_analysis(self, formulation, method):
        net, base = self.network(formulation)
        mset = subset(other_values(net, formulation, seed=12), np.arange(len(base) - 2))
        problem, fresh = self.check(net, mset, formulation, True, method)
        assert problem.m == len(mset) == problem.residuals(problem.initial_state()).size
        assert problem.values(problem.initial_state()).size == len(mset)
        # J and R^-1 over the layout's rows give the set's own gain pattern
        x = random_polar_state(net, np.random.default_rng(3), t_range=(-0.1, 0.1))
        if formulation == "linear_rect":
            x = to_rectangular(x)
        gains = []
        for p in (problem, fresh):
            _, j, active = p.rows(x)
            assert active.sum() == len(mset)
            j = j[:, p.free_indices]
            gains.append(csc_matrix(j.T @ p.covariance.inverse() @ j))
        assert gains[0].nnz == gains[1].nnz
        assert np.array_equal(gains[0].toarray(), gains[1].toarray())
        assert objective(problem, x) == objective(fresh, x)

    def test_swapped_rows_get_their_own_analysis(self):
        net, base = self.network("conventional")
        keep = np.arange(len(base) - 1)
        keep[[3, 4]] = 4, 3
        self.check(net, subset(base, keep), "conventional", False)

    def test_repeated_row_gets_its_own_analysis(self):
        net, base = self.network("conventional")
        repeated = subset(base, np.append(np.arange(len(base) - 1), 0))
        self.check(net, repeated, "conventional", False)
        # and a layout with a repeated row serves no partial set
        self.check(net, subset(base, np.arange(len(base) - 2)), "conventional", False)

    @pytest.mark.parametrize("partner", [0, 1])
    @pytest.mark.parametrize("formulation", ["linear_rect", "simultaneous_rect"])
    def test_pair_without_its_partner_gets_its_own_analysis(self, formulation, partner):
        net, base = self.network(formulation)
        pair = base.pairs[-1]
        self.check(net, subset(base, np.delete(np.arange(len(base)), pair[partner])),
                   formulation, False)
        # without both rows of the pair it shares the analysis
        net, base = self.network(formulation)
        self.check(net, subset(base, np.delete(np.arange(len(base)), pair)), formulation, True)

    def test_row_that_widens_the_band_leaves_narrower_sets_their_own(self):
        net = load_network(NET14)
        whole = other_values(net, "conventional")
        reach = assemble_problem(net, whole, "conventional")._layout.gain_plan(net)._reach
        widest = np.flatnonzero(reach == reach.max())
        narrow = subset(whole, np.delete(np.arange(len(whole)), widest))
        net = load_network(NET14)
        self.check(net, narrow, "conventional", False)
        self.check(net, whole, "conventional", False)  # the union is the whole set
        problem, _ = self.check(net, narrow, "conventional", False)
        assert problem._layout.gain_plan(net)._reach.max() < reach.max()

    def test_set_whose_band_would_not_fit_gets_its_own_analysis(self, monkeypatch):
        # P flows alone: a flow is the only row on its branch, so a set
        # without one has two entries of G fewer, and under a band limit
        # that the whole set just meets, its own gain goes to SuperLU
        net = load_network(NET14)
        plan = [(K.P_FLOW_DC, (br.from_bus, br.to_bus)) for br in net.branches]
        net, _ = self.network("dc", plan, net=net)
        layout = net.layouts["dc"]
        gain = layout.gain_plan(net)
        reach = gain._reach
        kd = int(reach.max())
        monkeypatch.setattr(gridse.estimators, "_BAND_LIMIT", gain._n * (kd + 1) / gain._nnz)
        net, whole = self.network("dc", plan)
        assert net.layouts["dc"].gain_plan(net)._perm is not None
        k = next(k for k, (_, (i, j)) in enumerate(plan)
                 if 1 not in (i, j) and reach[k] < kd)
        problem, _ = self.check(net, subset(whole, np.delete(np.arange(len(plan)), [k])),
                                "dc", False)
        assert problem._layout.gain_plan(net)._perm is None

    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_rect"])
    def test_random_subsets_share_only_where_their_own_plan_decides_alike(
            self, monkeypatch, formulation):
        # Seeded subsets of a set of about half of lattice6's rows, where
        # fewer rows fill each entry of G, each without up to an eighth of
        # its rows, of any kind, with no correlated pair cut.  They run
        # under the default band limit and under one that the whole set's
        # band over nnz(G) just meets, where a subset that loses an entry
        # of G goes to SuperLU on its own.
        estimators = gridse.estimators
        rng = np.random.default_rng(1)
        full = other_values(small_lattice(6), formulation)
        keep = rng.random(len(full)) < 0.5
        keep[full.pairs[~keep[full.pairs].all(axis=1)]] = False
        whole = subset(full, np.flatnonzero(keep))
        m = len(whole)

        def outcome(problem):
            try:
                return solve(problem).x_hat.values.tobytes()
            except SingularGain as exc:
                return str(exc)

        seen = set()
        for tight in (False, True):
            net = small_lattice(6)
            plan = assemble_problem(net, whole, formulation)._layout.gain_plan(net)
            if tight:
                monkeypatch.setattr(estimators, "_BAND_LIMIT",
                                    plan._n * (int(plan._reach.max()) + 1) / plan._nnz)
                net = small_lattice(6)
                plan = assemble_problem(net, whole, formulation)._layout.gain_plan(net)
            assert plan._perm is not None
            layout, kd = net.layouts[formulation], int(plan._reach.max())
            for _ in range(8):
                drop = np.zeros(m, dtype=bool)
                drop[rng.choice(m, size=rng.integers(1, m // 16 + 1), replace=False)] = True
                drop[whole.pairs[drop[whole.pairs].any(axis=1)]] = True
                mset = subset(whole, np.flatnonzero(~drop))
                net.layouts[formulation] = layout
                problem = assemble_problem(net, mset, formulation)
                fresh_net = small_lattice(6)
                fresh = assemble_problem(fresh_net, mset, formulation)
                own = fresh._layout.gain_plan(fresh_net)
                alike = int(own._reach.max()) == kd and own._perm is not None
                shared = problem._rows is not None
                assert shared == (problem._layout is layout)
                assert alike or not shared
                if shared:
                    assert outcome(problem) == outcome(fresh)
                seen.add((shared, alike))
        # some share, and some flip to SuperLU on their own
        assert {(True, True), (False, False)} <= seen, seen

    def test_superlu_layout_serves_a_set_without_rows(self, superlu_calls):
        net = binary_tree_network(1023)
        net, whole = self.network("dc", net=net)
        thetas = np.flatnonzero(whole.codes == KIND_CODE["Theta"])
        problem, _ = self.check(net, subset(whole, np.delete(np.arange(len(whole)), thetas)),
                                "dc", True)
        assert problem._layout._plan._perm is None and len(superlu_calls) == 2

    def test_too_many_absent_rows_get_their_own_analysis(self):
        net, base = self.network("conventional")
        currents = np.flatnonzero(base.codes == KIND_CODE["I_mag"])
        assert currents.size > gridse.estimators._ABSENT_SHARE * len(base)
        self.check(net, subset(base, np.setdiff1d(np.arange(len(base)), currents)),
                   "conventional", False)

    def test_sets_with_rows_of_their_own_share_one_analysis(self, plan_builds):
        net = load_network(NET14)
        whole = other_values(net, "conventional")
        currents = np.flatnonzero(whole.codes == KIND_CODE["I_mag"])
        problems = []
        for seed, left_out in enumerate([currents[:2], currents[2:4], currents[1:3]]):
            mset = subset(other_values(net, "conventional", seed=seed + 20),
                          np.delete(np.arange(len(whole)), left_out))
            layout = net.layouts.get("conventional")
            problem = assemble_problem(net, mset, "conventional")
            fresh = assemble_problem(load_network(NET14), mset, "conventional")
            assert self.outputs(problem) == self.outputs(fresh)
            problems.append((problem, layout))
        (first, _), (second, before), (third, _) = problems
        # the second set brings two rows: one analysis of both sets' rows
        assert first._rows is None and second._layout is not before
        assert second._layout.codes.size == len(whole) and second._rows is not None
        assert third._layout is second._layout and third._rows is not None
        assert len(plan_builds) == 2 + 3  # the network's plans and the fresh ones

    def test_absent_rows_are_never_dropped(self, caplog):
        net = load_network(NET14)
        whole = other_values(net, "conventional")
        # end voltages equal at 4-5 and 7-8, shuntless: their currents vanish
        x0 = random_polar_state(net, np.random.default_rng(8), t_range=(-0.1, 0.1))
        for i, j in ((4, 5), (7, 8)):
            x0.values[[j - 1, net.n_buses + j - 1]] = x0.values[[i - 1, net.n_buses + i - 1]]
        row = next(k for k in np.flatnonzero(whole.codes == KIND_CODE["I_mag"])
                   if tuple(whole.at[k]) == (4, 5))
        mset = subset(whole, np.delete(np.arange(len(whole)), [row]))
        assemble_problem(net, whole, "conventional")
        results = []
        for n in (net, load_network(NET14)):
            problem = assemble_problem(n, mset, "conventional")
            assert (problem._rows is not None) == (n is net)
            caplog.clear()
            with caplog.at_level("WARNING", logger="gridse"):
                results.append(solve(problem, x0=x0))
            assert "dropping 1 flat-singular row(s)" in caplog.text
            assert "dropping 2" not in caplog.text
        shared, fresh = results
        assert shared.converged and shared.iterations == fresh.iterations
        assert shared.x_hat.values.tobytes() == fresh.x_hat.values.tobytes()
        assert shared.objective_trace == fresh.objective_trace


class TestLayoutGainPlan:
    """A kernel layout builds its curvature pattern and gain plan once,
    on its first normal solve, and every problem of the layout shares
    them; each problem keeps its own factor for its estimate's last
    step and releases it when the estimate ends."""

    KERNEL = ["conventional", "simultaneous_polar", "simultaneous_rect"]

    @staticmethod
    def estimate(problem):
        """x-hat bytes, iterations and objective trace of a normal solve."""
        result = solve(problem)
        assert problem._kept is None  # released when the estimate ends
        return result.x_hat.values.tobytes(), result.iterations, result.objective_trace

    @pytest.mark.parametrize("formulation", KERNEL)
    def test_one_plan_serves_every_set_of_the_layout(self, plan_builds, formulation):
        net = load_network(NET14)
        problems = [assemble_problem(net, other_values(net, formulation, seed=seed),
                                     formulation) for seed in (1, 2, 3)]
        layout = problems[0]._layout
        assert all(p._layout is layout for p in problems) and layout._plan is None
        got = [self.estimate(problems[0])]
        plan = dict(vars(layout._plan))
        got += [self.estimate(p) for p in problems[1:]]
        assert len(plan_builds) == 1
        # the later estimates set no attribute of the plan
        assert vars(layout._plan).keys() == plan.keys()
        assert all(vars(layout._plan)[key] is value for key, value in plan.items())
        want = [self.estimate(assemble_problem(load_network(NET14), p.mset, formulation))
                for p in problems]
        assert got == want
        assert len(plan_builds) == 4  # one per fresh network

    @staticmethod
    def iterates(problem, tol=1e-8):
        """gauss_newton's normal iterates from a warm start, one dx per
        step, trying the kept factor after a step of at most sqrt(tol)."""
        x = random_polar_state(problem.net, np.random.default_rng(6), t_range=(-0.1, 0.1))
        step = math.inf
        while step > tol:
            h, j, active = problem.rows(x)
            system = problem._gain_system(j, problem._residuals_of(h), active, "normal", x,
                                          tolerance=tol if step <= math.sqrt(tol) else None)
            dx = system.solve("normal")
            x.values[problem.free_indices] += dx
            step = float(np.max(np.abs(dx)))
            yield dx.tobytes()

    @pytest.mark.parametrize("formulation", KERNEL)
    def test_alternating_problems_match_separate_networks(self, formulation, caplog):
        net = load_network(NET14)
        msets = [other_values(net, formulation, seed=seed) for seed in (4, 5)]
        problems = [assemble_problem(net, mset, formulation) for mset in msets]
        assert problems[0]._layout is problems[1]._layout
        with caplog.at_level("DEBUG", logger="gridse"):
            # the two problems' iterates taken in turn
            turns = itertools.zip_longest(*(self.iterates(p) for p in problems))
            steps = [[dx for dx in column if dx is not None] for column in zip(*turns)]
            chords = caplog.text.count(CONFIRMED)
            caplog.clear()
            alone = [list(self.iterates(assemble_problem(load_network(NET14), mset,
                                                         formulation))) for mset in msets]
        assert steps == alone
        assert chords == caplog.text.count(CONFIRMED) > 0
        # and whole estimates in turn
        for problem in problems + problems:
            assert self.estimate(problem) == self.estimate(
                assemble_problem(load_network(NET14), problem.mset, formulation))

    def test_zero_covariance_keeps_the_plan(self, plan_builds):
        net = load_network(NET14)
        first = assemble_problem(net, synthesized(net, "simultaneous_rect"),
                                 "simultaneous_rect")
        self.estimate(first)
        plan = first._layout._plan
        mset = other_values(net, "simultaneous_rect")
        covs = mset.covs.copy()
        covs[0] = 0.0
        zero = MeasurementSet.from_columns(mset.codes, mset.at, mset.values(),
                                           mset.variances(), mset.pairs, covs)
        hit = assemble_problem(net, zero, "simultaneous_rect")
        assert hit._layout is first._layout
        assert hit.covariance.inverse().nnz == first.covariance.inverse().nnz
        got = self.estimate(hit)
        assert hit._layout._plan is plan and len(plan_builds) == 1
        assert got == self.estimate(assemble_problem(load_network(NET14), zero,
                                                     "simultaneous_rect"))

    @pytest.mark.parametrize("formulation", KERNEL)
    def test_plan_and_curvature_arrays_are_read_only(self, net14, formulation):
        problem = assemble_problem(net14, synthesized(net14, formulation), formulation)
        self.estimate(problem)
        layout = problem._layout
        arrays = [v for v in vars(layout._plan).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 13
        arrays += list(layout.curved)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_gain_system_holds_no_problem_fields(self):
        assert [f.name for f in dataclasses.fields(GainSystem)] == [
            "j", "covariance", "r", "active", "name_of", "curvature"]
        # perfbench/spans.py traces GainSystem.solve for every iterate
        assert "solve" not in vars(gridse.estimators._ProblemGain)
        layout = inspect.signature(gridse.estimators.EstimationProblem).parameters["layout"]
        assert layout.default is inspect.Parameter.empty


class TestFoldedGainPlan:
    """A DC or linear_rect layout's gain plan folds H's values: every
    gain's band comes from R^-1's stored entries by one sparse product,
    with a plan built once, on the layout's first normal solve; where the
    band does not fit, its solve forms the gain by sparse products and
    factors it by SuperLU."""

    NETS = {"net14": lambda: load_network(NET14), "lattice6": lambda: small_lattice(6),
            "tree31": lambda: binary_tree_network(31),
            "tree1023": lambda: binary_tree_network(1023)}
    AGREEMENT = 1e-13  # relative to the product path's largest band entry

    @pytest.mark.parametrize("net_name", list(NETS))
    @pytest.mark.parametrize("formulation", ["dc", "linear_rect"])
    def test_band_agrees_with_the_product_path(self, bands, superlu_calls, net_name,
                                               formulation):
        net = self.NETS[net_name]()
        problem = assemble_problem(net, synthesized(net, formulation), formulation)
        x = problem.initial_state()
        r = problem.residuals(x)
        rinv = problem.covariance.inverse()
        dx = problem._gain_system(problem.h_matrix, r, np.ones(problem.m, bool),
                                  "normal").solve("normal")
        want = gridse.estimators._solve_normal(problem.h_matrix[:, problem.free_indices],
                                               rinv, r, order=problem.order)
        plan = problem._layout._plan
        if net_name == "tree1023":  # both paths form G and factor it by SuperLU
            assert plan._perm is None and not bands and len(superlu_calls) == 2
            assert dx.tobytes() == want.tobytes()
            return
        (got, _), (ab, _) = bands
        assert got.shape == ab.shape and not superlu_calls
        assert np.max(np.abs(got - ab)) <= self.AGREEMENT * np.max(np.abs(ab))
        assert np.max(np.abs(dx - want)) <= 1e-10 * np.max(np.abs(want))
        # one stored value per pair of the layout's gain pattern
        assert plan._fold.shape == (plan._slots.size, rinv.nnz)
        assert np.count_nonzero(got) <= plan._slots.size

    @pytest.mark.parametrize("formulation", ["dc", "linear_rect"])
    def test_one_plan_serves_every_set_of_the_layout(self, plan_builds, formulation):
        net = load_network(NET14)
        first = assemble_problem(net, other_values(net, formulation, seed=1), formulation)
        assert first._layout._plan is None
        solve(first)
        plan = first._layout._plan
        assert len(plan_builds) == 1
        second = assemble_problem(net, other_values(net, formulation, seed=2), formulation)
        assert second._layout is first._layout
        alone = assemble_problem(load_network(NET14), second.mset, formulation)
        assert (solve(second).x_hat.values.tobytes()
                == solve(alone).x_hat.values.tobytes())
        assert second._layout._plan is plan and len(plan_builds) == 2  # alone's

    def test_orthogonal_solve_builds_no_plan(self, plan_builds):
        net = load_network(NET14)
        problem = assemble_problem(net, synthesized(net, "linear_rect"), "linear_rect")
        solve(problem, SolverConfig(linear_system_method="orthogonal"))
        assert not plan_builds and problem._layout._plan is None

    @pytest.mark.parametrize("formulation", ["dc", "linear_rect"])
    def test_plan_arrays_are_read_only(self, net14, formulation):
        problem = assemble_problem(net14, synthesized(net14, formulation), formulation)
        solve(problem)
        plan = problem._layout._plan
        for array in (plan._perm, plan._reach, plan._pairs, plan._slots, plan._fold.data,
                      plan._fold.indices, plan._fold.indptr, plan._ht.data, plan._ht.indices,
                      plan._ht.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0


@pytest.fixture
def rcm_calls(monkeypatch):
    """How often the reverse Cuthill-McKee ordering runs while the test
    does."""
    calls = []
    rcm = gridse.network.reverse_cuthill_mckee

    def counted(*args, **kwargs):
        calls.append(1)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(gridse.network, "reverse_cuthill_mckee", counted)
    return calls


class TestBandOrder:
    """One band ordering per network: on the bus graph of the branch ends,
    the narrower of reverse Cuthill-McKee and the file's own bus order,
    the file's on a tie; each problem expands it to its unknowns."""

    @staticmethod
    def bus_graph(net):
        n = net.n_buses
        ends = np.array([(br.from_bus - 1, br.to_bus - 1) for br in net.branches])
        return csc_matrix((np.ones(2 * len(ends)), (ends.ravel(), ends[:, ::-1].ravel())),
                          shape=(n, n))

    @staticmethod
    def width(graph, perm):
        where = np.empty(len(perm), dtype=np.intp)
        where[perm] = np.arange(len(perm))
        rows, cols = graph.nonzero()
        return int(np.max(np.abs(where[rows] - where[cols])))

    @pytest.mark.parametrize("name, takes_rcm, widths", [
        ("net14", True, (5, 7)),
        ("grid12", False, (12, 12)),  # a tie goes to the file order
        ("lattice20", False, (25, 21)),
        ("tree1023", True, (256, 512)),  # its gains still go to SuperLU
    ])
    def test_never_wider_than_either_candidate(self, workloads, name, takes_rcm, widths):
        from lattice import lattice_network
        net = {"net14": lambda: load_network(NET14), "grid12": lambda: grid_network(12),
               "lattice20": lambda: lattice_network(20, 0),
               "tree1023": lambda: binary_tree_network(1023)}[name]()
        graph = self.bus_graph(net)
        rcm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        own = np.arange(net.n_buses)
        assert (self.width(graph, rcm), self.width(graph, own)) == widths
        assert np.array_equal(net.bus_order, rcm if takes_rcm else own)
        assert self.width(graph, net.bus_order) == min(widths)
        assert net.bus_order is net.bus_order  # cached

    @pytest.mark.parametrize("formulation", list(Formulation))
    def test_unknowns_follow_the_bus_order(self, net14, formulation):
        problem = assemble_problem(net14, synthesized(net14, formulation.value), formulation)
        halves = {"dc": ["theta"], "linear_rect": ["Re V", "Im V"]}.get(
            formulation.value, ["theta", "V"])
        want = [f"{half} at bus {b + 1}" for b in net14.bus_order for half in halves]
        fixed = "Im V" if formulation == Formulation.LINEAR_RECT else halves[0]
        want.remove(f"{fixed} at bus {net14.slack_bus}")
        assert sorted(problem.order.tolist()) == list(range(problem.n))
        assert [problem.unknown_name(k) for k in problem.order] == want

    @pytest.mark.parametrize("formulation", ["conventional", "linear_rect"])
    def test_order_is_the_layouts_and_cannot_be_set(self, formulation):
        # a problem whose order could be set would solve under another
        # order than its layout's plan was built under
        net = load_network(NET14)
        first = assemble_problem(net, synthesized(net, formulation), formulation)
        second = assemble_problem(net, other_values(net, formulation), formulation)
        assert second._layout is first._layout and second.order is first.order
        with pytest.raises(AttributeError):
            second.order = second.order[::-1].copy()


class TestGainPlan:
    """A kernel problem's normal Gauss-Newton iterates all run on its
    layout's gain plan, built once under the network's band order, and
    agree with the product path _solve_normal(j[:, free], R^-1, r) under
    that order to rounding."""

    NETS = {"lattice6": lambda: small_lattice(6), "net14": lambda: load_network(NET14)}
    AGREEMENT = 1e-12  # relative to the largest entry of the product path's dx

    @staticmethod
    def problem(net_name, formulation, **kwargs):
        net = TestGainPlan.NETS[net_name]()
        return assemble_problem(net, synthesized(net, formulation), formulation, **kwargs)

    def product_dx(self, problem, j, r, active):
        """The product path under the problem's order, with inactive rows
        zero-weighted in R^-1."""
        rinv = GainSystem(j, problem.covariance, r)._weights(active)
        return gridse.estimators._solve_normal(j[:, problem.free_indices], rinv, r,
                                               problem.unknown_name, order=problem.order)

    def planned_dx(self, problem, j, r, active):
        """dx of the problem's gain plan, checked against the product path."""
        system = problem._gain_system(j, r, active, "normal")
        assert isinstance(system, gridse.estimators._ProblemGain)
        dx = system.solve("normal")
        want = self.product_dx(problem, j, r, active)
        assert np.max(np.abs(dx - want)) <= self.AGREEMENT * np.max(np.abs(want))
        return dx

    @pytest.mark.parametrize("net_name", ["lattice6", "net14"])
    @pytest.mark.parametrize("formulation, neglect", [
        ("conventional", False), ("simultaneous_polar", False),
        ("simultaneous_rect", False), ("simultaneous_rect", True)])
    def test_every_iterate_agrees_with_the_product_path(self, net_name, formulation,
                                                         neglect):
        problem = self.problem(net_name, formulation, neglect_phasor_covariance=neglect)
        free = problem.free_indices
        current = gridse.estimators._POLAR_CURRENT[problem.mset.codes]
        x = problem.initial_state()
        masked = []
        for _ in range(50):
            h, j, active = problem.rows(x)
            r = problem._residuals_of(h)
            if not masked:  # the first flat-start iterate, as gauss_newton takes it
                active &= ~current
            masked.append(not active.all())
            plan = problem._layout._plan
            dx = self.planned_dx(problem, j, r, active)
            assert plan is None or problem._layout._plan is plan
            x.values[free] += dx
            if np.max(np.abs(dx)) <= 1e-8:
                break
        else:
            pytest.fail("no convergence")
        assert masked[0] == current.any()
        assert problem.covariance.is_diagonal == (neglect or formulation != "simultaneous_rect")

    def test_iterate_that_drops_rows_agrees_with_the_product_path(self, rcm_calls):
        problem = self.problem("net14", "conventional")
        h, j, active = problem.rows(problem.initial_state())
        r = problem._residuals_of(h)
        assert not active.all()
        self.planned_dx(problem, j, r, active)
        h, j, active = problem.rows(random_polar_state(problem.net, np.random.default_rng(4)))
        assert active.all()
        self.planned_dx(problem, j, problem._residuals_of(h), active)
        # the network's bus order serves the plan and the product path
        assert len(rcm_calls) == 1

    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_rect"])
    def test_kept_factor_step_agrees_with_the_product_path(self, formulation, caplog):
        # the chord step: the factor of the iterate before, this iterate's
        # right-hand side
        problem = self.problem("lattice6", formulation)
        free, rinv = problem.free_indices, problem.covariance.inverse()
        x = random_polar_state(problem.net, np.random.default_rng(7), t_range=(-0.1, 0.1))
        h, j, active = problem.rows(x)
        self.planned_dx(problem, j, problem._residuals_of(h), active)
        a = j[:, free]
        x.values[free] += 1e-3
        h, j, active = problem.rows(x)
        r = problem._residuals_of(h)
        with caplog.at_level("DEBUG", logger="gridse"):
            dx = problem._gain_system(j, r, active, "normal", tolerance=np.inf).solve("normal")
        assert CONFIRMED in caplog.text
        factor = gridse.estimators._factor_gain(csc_matrix(a.T @ rinv @ a), problem.order)
        want = factor(j[:, free].T @ (rinv @ r))
        assert np.max(np.abs(dx - want)) <= self.AGREEMENT * np.max(np.abs(want))

    def test_mask_that_cuts_a_block_raises_on_both_paths(self):
        problem = self.problem("net14", "simultaneous_rect")
        h, j, active = problem.rows(random_polar_state(problem.net, np.random.default_rng(3)))
        r = problem._residuals_of(h)
        a, _, _ = problem.covariance.blocks[2]
        active[a] = False
        for solve_it in (lambda: problem._gain_system(j, r, active, "normal").solve("normal"),
                         lambda: self.product_dx(problem, j, r, active)):
            with pytest.raises(InputError, match="cannot split a correlated covariance block"):
                solve_it()

    def test_singular_gain_message_matches_the_product_path(self):
        # No row reaches theta at bus 14: its pivot is exactly zero.
        net = load_network(NET14)
        near = {b for br in net.branches for b in (br.from_bus, br.to_bus)
                if 14 in (br.from_bus, br.to_bus)}
        placements = [(K.V_MAG, (b.id,)) for b in net.buses]
        placements += [(K.P_INJ, (b.id,)) for b in net.buses if b.id not in near]
        for br in net.branches:
            if 14 not in (br.from_bus, br.to_bus):
                placements += [(K.P_FLOW, (br.from_bus, br.to_bus)),
                               (K.Q_FLOW, (br.from_bus, br.to_bus))]
        spec = make_scenario(net, placements, noise=LEGACY_NOISE, seed=9)
        problem = assemble_problem(net, synthesize(spec, sample_true_state(spec)),
                                   "conventional")
        h, j, active = problem.rows(problem.initial_state())
        r = problem._residuals_of(h)
        messages = []
        for solve_it in (lambda: problem._gain_system(j, r, active, "normal").solve("normal"),
                         lambda: self.product_dx(problem, j, r, active)):
            with pytest.raises(SingularGain, match="theta at bus 14") as err:
                solve_it()
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_zero_partial_stays_on_the_plan(self, rcm_calls):
        # An exact zero in J leaves the product path's G with fewer
        # entries; the plan keeps its structural pattern and ordering.
        problem = self.problem("lattice6", "conventional")
        rng = np.random.default_rng(2)
        h, j, active = problem.rows(random_polar_state(problem.net, rng, t_range=(-0.1, 0.1)))
        r = problem._residuals_of(h)
        row = int(np.flatnonzero(np.diff(j.indptr) > 6)[0])  # an injection row
        j.data[j.indptr[row] + 3] = 0.0
        self.planned_dx(problem, j, r, active)
        assert len(rcm_calls) == 1  # the network's, for the plan and the product path

    def test_entry_that_cancels_stays_on_the_plan(self):
        # theta at bus 10 and V at bus 11 share only the P and Q flows of
        # branch 10-11, weighed alike: in exact arithmetic their gain entry
        # is zero, in floating point zero or not by rounding, in each
        # triangle on its own.  The plan holds it in its band whatever its
        # value.
        net = load_network(NET14)
        placements = [(kind, (br.from_bus, br.to_bus)) for br in net.branches
                      for kind in (K.P_FLOW, K.Q_FLOW)]
        placements += [(kind, (b.id,)) for b in net.buses
                       for kind in (K.P_INJ, K.Q_INJ, K.V_MAG) if b.id not in (10, 11)]
        spec = make_scenario(net, placements, noise=LEGACY_NOISE, seed=4)
        problem = assemble_problem(net, synthesize(spec, sample_true_state(spec)),
                                   "conventional")
        rinv = problem.covariance.inverse()
        theta10, v11 = 8, 13 + 10  # free columns: theta 2..14, then V 1..14
        rng = np.random.default_rng(8)
        both_nonzero = 0
        for _ in range(8):
            h, j, active = problem.rows(random_polar_state(net, rng, t_range=(-0.1, 0.1)))
            r = problem._residuals_of(h)
            a = j[:, problem.free_indices]
            g = (a.T @ rinv @ a).toarray()
            scale = math.sqrt(g[theta10, theta10] * g[v11, v11])
            assert abs(g[theta10, v11]) < 1e-14 * scale
            both_nonzero += g[theta10, v11] != 0.0 and g[v11, theta10] != 0.0
            self.planned_dx(problem, j, r, active)
        assert both_nonzero  # met though no triangle held an exact zero

    @pytest.mark.parametrize("net_name, formulation, drops", [
        ("lattice6", "conventional", 0), ("net14", "conventional", 1),
        ("net14", "simultaneous_rect", 0)])
    def test_ordered_once_per_network(self, rcm_calls, net_name, formulation, drops):
        problem = self.problem(net_name, formulation)
        rows = problem.rows
        dropping = []

        def counted_rows(x):
            h, j, active = rows(x)
            dropping.append(not active.all())
            return h, j, active

        problem.rows = counted_rows
        masks = gain_masks(problem)
        result = solve(problem)
        assert result.converged and result.iterations >= 3
        assert sum(dropping) == drops  # net14's flat start drops current rows
        assert (not masks[0].all()) == (formulation == "conventional")  # polar current rows
        assert problem.covariance.is_diagonal == (formulation == "conventional")
        # the masked first iterate, the dropping ones and 2x2 blocks
        # all run on the plan, ordered once
        assert len(rcm_calls) == 1
        # and a second problem on the network, on the product path, takes
        # the same bus order
        other = assemble_problem(problem.net, synthesized(problem.net, "dc"), "dc")
        assert solve(other).converged
        assert len(rcm_calls) == 1

    @pytest.mark.parametrize("net_name, formulation", [
        ("lattice6", "conventional"), ("net14", "simultaneous_rect")])
    def test_pairs_match_a_loop_over_every_lead(self, net_name, formulation):
        # For each stored entry (i, i') of R^-1 and each A entry (i, k) in
        # J's storage order, the partners are the rest of row i from k on
        # where i' = i, else row i''s A entries (i', l) with where[l] >=
        # where[k]; the slot is that of the min and max of the two
        # positions.
        problem = self.problem(net_name, formulation)
        assert problem.covariance.is_diagonal == (formulation == "conventional")
        rng = np.random.default_rng(5)
        _, j, _ = problem.rows(random_polar_state(problem.net, rng))
        rinv = problem.covariance.inverse()
        plan = gridse.estimators._GainPlan(j, problem.free_indices, rinv,
                                           problem._layout.curved, problem.order)
        n = problem.n
        kd = plan._size // n - 1
        where = np.empty(n, dtype=np.intp)
        where[plan._perm] = np.arange(n)
        column = np.full(j.shape[1], -1)
        column[problem.free_indices] = np.arange(n)

        def entries(i):
            """Row i's A entries (positions in J's data), in storage
            order, and where of their free column."""
            pos = np.arange(j.indptr[i], j.indptr[i + 1])
            pos = pos[column[j.indices[pos]] >= 0]
            return pos, where[column[j.indices[pos]]]

        lead, count, partner, slot = [], [], [], []
        for i in range(problem.m):
            for i2 in rinv.indices[rinv.indptr[i]:rinv.indptr[i + 1]]:
                tail, tail_at = entries(i2)
                for q, (p, at) in enumerate(zip(*entries(i))):
                    keep = np.arange(tail.size) >= q if i2 == i else tail_at >= at
                    lead.append(p)
                    count.append(int(keep.sum()))
                    partner += tail[keep].tolist()
                    lo = np.minimum(tail_at[keep], at)
                    hi = np.maximum(tail_at[keep], at)
                    slot += ((hi + 1) * kd + lo).tolist()
        assert plan._lead.tolist() == lead
        assert plan._count.tolist() == count
        assert plan._partner.tolist() == partner
        assert plan._slot.tolist() == slot

    def test_radial_feeder_ordered_once_and_factored_by_superlu_each_iterate(
            self, rcm_calls, superlu_calls, caplog):
        tree = binary_tree_network(1023)
        spec = make_scenario(tree, legacy_plan(tree), noise=LEGACY_NOISE, seed=21)
        problem = assemble_problem(tree, synthesize(spec, sample_true_state(spec)),
                                   "conventional")
        x0 = sample_true_state(spec)  # no current row is flat-singular here
        with caplog.at_level("DEBUG", logger="gridse"):
            result = solve(problem, x0=x0)
        assert result.converged
        assert len(rcm_calls) == 1
        # every iterate but the last, which converges on the kept LU
        assert CONFIRMED in caplog.text
        assert len(superlu_calls) == len(result.max_step_trace) - 1 >= 2


POLAR_CURRENT = [K.I_MAG.value, K.I_MAG_PMU.value, K.I_ANG_PMU.value]
METHODS = ["normal", "orthogonal"]


def gain_masks(problem):
    """The active mask of each gain system the problem's solves build,
    recorded as they run."""
    masks = []
    gain_system = problem._gain_system

    def recorded(j, r, active, *args, **kwargs):
        masks.append(active.copy())
        return gain_system(j, r, active, *args, **kwargs)

    problem._gain_system = recorded
    return masks


class TestFlatStartCurrentRows:
    """From the flat start the first Gauss-Newton iterate leaves the polar
    current rows (I_mag, I_mag_pmu, I_ang_pmu) out; every later iterate,
    and every iterate from another start, keeps every row."""

    def problem(self, formulation, noise=None, v_range=V_RANGE, t_range=THETA_RANGE):
        # every branch of small_lattice has line charging, so no row is
        # flat-singular and any row left out is left out by the rule
        net = small_lattice(6)
        plan, plan_noise = PLANS[formulation]
        placements = list(plan(net))
        if formulation == "simultaneous_rect":
            placements += [(K.I_MAG, at) for kind, at in placements if kind == K.I_RE]
        spec = make_scenario(net, placements, noise=plan_noise if noise is None else noise,
                             seed=11, v_range=v_range, t_range=t_range)
        return assemble_problem(net, synthesize(spec, sample_true_state(spec)), formulation)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_polar",
                                             "simultaneous_rect"])
    def test_first_iterate_masks_exactly_the_polar_current_rows(self, formulation, method):
        problem = self.problem(formulation)
        masks = gain_masks(problem)
        result = solve(problem, SolverConfig(linear_system_method=method))
        assert result.converged
        tags = np.array(problem.mset.kind_tags())
        current = np.isin(tags, POLAR_CURRENT)
        assert current.any()
        assert np.array_equal(masks[0], ~current)
        assert set(tags[masks[0]]) & {"I_re", "I_im"} == (
            {"I_re", "I_im"} if formulation == "simultaneous_rect" else set())
        assert len(masks) == len(result.max_step_trace) >= 3
        assert all(mask.all() for mask in masks[1:])

    @pytest.mark.parametrize("method", METHODS)
    def test_explicit_flat_start_gives_the_bits_of_the_default(self, method):
        cfg = SolverConfig(linear_system_method=method)
        default = solve(self.problem("simultaneous_polar"), cfg)
        problem = self.problem("simultaneous_polar")
        explicit = solve(problem, cfg, x0=problem.initial_state())
        assert explicit.x_hat.values.tobytes() == default.x_hat.values.tobytes()
        assert explicit.max_step_trace == default.max_step_trace
        assert explicit.objective_trace == default.objective_trace

    @pytest.mark.parametrize("method", METHODS)
    def test_start_off_flat_masks_nothing(self, method):
        problem = self.problem("simultaneous_polar")
        x0 = problem.initial_state()
        x0.magnitudes[1] += 1e-3
        masks = gain_masks(problem)
        result = solve(problem, SolverConfig(linear_system_method=method), x0=x0)
        assert result.converged
        assert masks and all(mask.all() for mask in masks)

    @pytest.mark.parametrize("method", METHODS)
    def test_masked_step_never_converges(self, method):
        # Exact data of the flat state: the masked first step is already
        # below the tolerance, and a full-row iterate must still follow.
        problem = self.problem("simultaneous_polar", noise={},
                               v_range=(1.0, 1.0), t_range=(0.0, 0.0))
        for cap, converged in ((1, False), (2, True)):
            cfg = SolverConfig(max_iterations=cap, linear_system_method=method)
            result = solve(problem, cfg)
            assert result.converged is converged
            assert result.iterations == 0
            assert len(result.max_step_trace) == cap
            assert max(result.max_step_trace) <= cfg.step_tolerance

    @pytest.mark.parametrize("method", METHODS)
    def test_observed_through_current_rows_falls_back(self, method, monkeypatch, caplog):
        # theta at bus 2 is seen only by the current phasor of branch 1-2:
        # without it the first gain is singular, and the first iterate is
        # solved with every row, as it would be with no rule at all.
        net = NetworkModel([Bus(1, is_slack=True), Bus(2)],
                           [Branch(1, 2, 0.02, 0.06, bs_from=0.02, bs_to=0.02)])
        placements = [(K.V_MAG_PMU, (1,)), (K.V_MAG_PMU, (2,)),
                      (K.I_MAG_PMU, (1, 2)), (K.I_ANG_PMU, (1, 2))]
        spec = make_scenario(net, placements, noise={}, seed=3)
        truth = sample_true_state(spec)
        problem = assemble_problem(net, synthesize(spec, truth), "simultaneous_polar")
        cfg = SolverConfig(linear_system_method=method)
        with caplog.at_level("DEBUG", logger="gridse"):
            result = solve(problem, cfg)
        assert "current rows carry observability" in caplog.text
        assert result.converged
        assert np.max(np.abs(result.x_hat.values - truth.values)) < 1e-8
        monkeypatch.setattr(gridse.estimators, "_POLAR_CURRENT",
                            np.zeros_like(gridse.estimators._POLAR_CURRENT))
        unmasked = solve(problem, cfg)
        assert result.x_hat.values.tobytes() == unmasked.x_hat.values.tobytes()
        assert result.max_step_trace == unmasked.max_step_trace


@pytest.fixture
def bands(monkeypatch):
    """The band and ordering of each _factor_band call, copied before the
    factor overwrites the band."""
    calls = []
    factor = gridse.estimators._factor_band

    def recorded(ab, perm, name_of=None):
        calls.append((ab.copy(), perm))
        return factor(ab, perm, name_of)

    monkeypatch.setattr(gridse.estimators, "_factor_band", recorded)
    return calls


def dense_curvature(problem, x, y):
    """S = sum_i y_i hess h_i(x) over the solved unknowns, dense, summed
    straight from the kernel's curvature entries."""
    row, a, b = problem.kernel.curvature_pattern
    size = problem.kernel.n_columns
    s = np.zeros((size, size))
    np.add.at(s, (a, b), y[row] * problem.kernel.curvature(x))
    s += s.T - np.diag(np.diag(s))  # one triangle per row, in either order
    return s[np.ix_(problem.free_indices, problem.free_indices)]


def band_to_upper(ab):
    """The upper triangle held in LAPACK upper band storage ab."""
    n, kd = ab.shape[0], ab.shape[1] - 1
    upper = np.zeros((n, n))
    cols = np.arange(n)
    for d in range(kd + 1):
        rows = cols - kd + d
        ok = rows >= 0
        upper[rows[ok], cols[ok]] = ab[cols[ok], d]
    return upper


REFUSED = "second-order gain refused"
CONFIRMED = "converged on the kept factor"


def current_phasor_problem():
    """(problem, truth): theta at bus 2 is seen only by the current
    phasor of branch 1-2, so the masked first flat-start iterate is
    singular and is solved again with every row.  The rows are
    noise-free and weigh 1e8."""
    net = NetworkModel([Bus(1, is_slack=True), Bus(2)],
                       [Branch(1, 2, 0.02, 0.06, bs_from=0.02, bs_to=0.02)])
    placements = [(K.V_MAG_PMU, (1,)), (K.V_MAG_PMU, (2,)),
                  (K.I_MAG_PMU, (1, 2)), (K.I_ANG_PMU, (1, 2))]
    spec = make_scenario(net, placements, noise={}, seed=3)
    truth = sample_true_state(spec)
    return assemble_problem(net, synthesize(spec, truth), "simultaneous_polar"), truth


class TestSecondOrderTerm:
    """Every Gauss-Newton iterate but the first from the flat start adds
    the second-order term S of the current-magnitude rows: it solves
    (G - S) dx = J^T R^-1 r, and takes the plain Gauss-Newton step where
    that gain is refused."""

    problem = staticmethod(TestGainPlan.problem)

    @pytest.mark.parametrize("net_name", ["lattice6", "net14"])
    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_polar"])
    def test_planned_band_is_the_dense_gain_less_the_term(self, bands, net_name,
                                                          formulation):
        problem = self.problem(net_name, formulation)
        rng = np.random.default_rng(6)
        x = random_polar_state(problem.net, rng, v_range=V_RANGE, t_range=THETA_RANGE)
        h, j, active = problem.rows(x)
        r = problem._residuals_of(h)
        assert active.all()
        problem._gain_system(j, r, active, "normal", x).solve("normal")
        ab, perm = bands[0]  # G - S, whether or not its step is taken
        a = j[:, problem.free_indices].toarray()
        rinv = problem.covariance.inverse().toarray()
        s = dense_curvature(problem, x, rinv @ r)
        assert np.abs(s).max() > 0.0
        want = np.triu((a.T @ rinv @ a - s)[np.ix_(perm, perm)])
        got = band_to_upper(ab)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("method", METHODS)
    def test_refused_gain_takes_the_plain_step(self, method, caplog):
        # From the flat start the current rows miss by thousands of
        # sigmas.  Some iterates' G - S is indefinite; on one it is
        # definite, but along its step the term takes 95% of the gain
        # and the step would run 2.4 p.u. off (and take 16 iterations to
        # come back, a turn of 2 pi away).
        problem, truth = current_phasor_problem()
        free = problem.free_indices
        x = problem.initial_state()
        refusals = []
        for k in range(50):
            h, j, active = problem.rows(x)
            r = problem._residuals_of(h)
            plain = problem._gain_system(j, r, active, method).solve(method)
            caplog.clear()
            with caplog.at_level("DEBUG", logger="gridse"):
                dx = problem._gain_system(j, r, active, method, x if k else None).solve(method)
            refused = [rec.getMessage() for rec in caplog.records
                       if rec.levelname == "DEBUG" and REFUSED in rec.getMessage()]
            if refused:
                refusals += refused
                assert dx.tobytes() == plain.tobytes()
            else:
                assert np.array_equal(dx, plain) == (k == 0)
            x.values[free] += dx
            if np.max(np.abs(dx)) <= 1e-8:
                break
        assert any("along its step" in m for m in refusals)
        assert any("along its step" not in m for m in refusals)
        assert np.max(np.abs(x.values - truth.values)) < 1e-8
        assert k <= 7

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("formulation", ["simultaneous_rect", "linear_rect", "dc"])
    def test_sets_without_current_magnitudes_take_no_term(self, net14, formulation,
                                                          method):
        # Their solves keep the bits of plain Gauss-Newton, so their
        # replay digests (tests/test_golden.py) hold.
        problem = assemble_problem(net14, synthesized(net14, formulation), formulation)
        for x in (problem.initial_state(), solve(problem).x_hat):
            h, j, active = problem.rows(x)
            r = problem._residuals_of(h)
            system = problem._gain_system(j, r, active, method, x)
            assert system.curvature is None
            assert system.solve(method).tobytes() == (
                problem._gain_system(j, r, active, method).solve(method).tobytes())

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("observed_through_current", [False, True])
    def test_flat_start_iterate_takes_no_term(self, method, observed_through_current):
        # the first iterate from the flat start, masked, or solved again
        # with every row
        if observed_through_current:
            problem, _ = current_phasor_problem()
        else:
            problem = self.problem("net14", "conventional")
        calls = []
        gain_system = problem._gain_system

        def recorded(j, r, active, method, x=None, **kwargs):
            system = gain_system(j, r, active, method, x, **kwargs)
            calls.append(system.curvature is not None)
            return system

        problem._gain_system = recorded
        result = solve(problem, SolverConfig(linear_system_method=method))
        assert result.converged
        first = 1 + observed_through_current  # calls for the first iterate
        assert not any(calls[:first]) and all(calls[first:]) and len(calls) >= first + 2
        calls.clear()
        solve(problem, SolverConfig(linear_system_method=method), x0=result.x_hat)
        assert all(calls)


@pytest.fixture
def factor_calls(monkeypatch):
    """How often a gain is factored, by the banded Cholesky or SuperLU,
    while the test runs."""
    calls = []
    for name in ("_factor_band", "_factor_lu"):
        def counted(*args, _factor=getattr(gridse.estimators, name)):
            calls.append(1)
            return _factor(*args)

        monkeypatch.setattr(gridse.estimators, name, counted)
    return calls


def without_kept_factor(monkeypatch):
    """Let no problem try its kept factor."""
    solve_on_plan = gridse.estimators._GainPlan.solve

    def plain(self, *args, tolerance=None):
        return solve_on_plan(self, *args)

    monkeypatch.setattr(gridse.estimators._GainPlan, "solve", plain)


class TestKeptFactor:
    """A normal-method iterate that follows a step of at most sqrt(tol)
    first solves with the factor its gain plan kept from the iterate
    before, if that was taken under the same weights: a step of at most
    tol ends the estimate without a gain of its own, a longer one is
    discarded."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("net_name", ["lattice6", "net14"])
    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_polar",
                                             "simultaneous_rect"])
    def test_only_the_last_step_changes(self, monkeypatch, factor_calls, caplog,
                                        formulation, net_name, method):
        cfg = SolverConfig(linear_system_method=method)
        with caplog.at_level("DEBUG", logger="gridse"):
            kept = solve(TestGainPlan.problem(net_name, formulation), cfg)
        factors = len(factor_calls)
        factor_calls.clear()
        without_kept_factor(monkeypatch)
        plain = solve(TestGainPlan.problem(net_name, formulation), cfg)
        assert kept.converged and plain.converged
        assert kept.iterations == plain.iterations
        if method == "orthogonal":  # a QR every iterate, as before
            assert CONFIRMED not in caplog.text
            assert factors == len(factor_calls) == 0
            assert kept.x_hat.values.tobytes() == plain.x_hat.values.tobytes()
            assert kept.max_step_trace == plain.max_step_trace
            assert kept.objective_trace == plain.objective_trace
            return
        assert CONFIRMED in caplog.text
        assert factors == len(factor_calls) - 1
        assert kept.max_step_trace[:-1] == plain.max_step_trace[:-1]
        assert kept.objective_trace[:-1] == plain.objective_trace[:-1]
        assert kept.max_step_trace[-1] <= cfg.step_tolerance
        assert np.max(np.abs(kept.x_hat.values - plain.x_hat.values)) <= 1e-9

    def test_tried_only_after_a_step_of_at_most_the_root_of_tol(self):
        problem = TestGainPlan.problem("net14", "simultaneous_polar")
        given = []
        gain_system = problem._gain_system

        def recorded(*args, tolerance=None):
            given.append(tolerance)
            return gain_system(*args, tolerance=tolerance)

        problem._gain_system = recorded
        cfg = SolverConfig()
        steps = solve(problem, cfg).max_step_trace
        root = math.sqrt(cfg.step_tolerance)
        assert given == [None] + [cfg.step_tolerance if step <= root else None
                                  for step in steps[:-1]]
        assert given[-1] == cfg.step_tolerance
        assert problem._kept is None  # released when the estimate ends

    def test_masked_flat_start_factor_is_never_used(self, factor_calls, caplog):
        # Exact data of the flat state: the masked first step is below the
        # tolerance, and so would the kept factor's be, but the full-row
        # iterate weighs the current rows.
        problem = TestFlatStartCurrentRows().problem(
            "simultaneous_polar", noise={}, v_range=(1.0, 1.0), t_range=(0.0, 0.0))
        with caplog.at_level("DEBUG", logger="gridse"):
            result = solve(problem, SolverConfig(max_iterations=2))
        assert result.converged and max(result.max_step_trace) <= 1e-8
        assert CONFIRMED not in caplog.text
        assert len(factor_calls) == 2

    def test_factor_under_dropped_rows_is_never_used(self, factor_calls, caplog):
        problem = TestGainPlan.problem("net14", "conventional")
        x = solve(problem).x_hat
        # equal end voltages: the shuntless branches carry no current, and
        # their current rows are dropped
        dropping = problem.initial_state()
        dropping.values[problem.net.n_buses:] = 1.05
        assert not problem.rows(dropping)[2].all()
        factor_calls.clear()

        def planned(at, tolerance=None):
            h, j, active = problem.rows(at)
            system = problem._gain_system(j, problem._residuals_of(h), active, "normal",
                                          tolerance=tolerance)
            return system.solve("normal")

        with caplog.at_level("DEBUG", logger="gridse"):
            full = planned(x)
            dropped = planned(dropping, np.inf)  # under every row's weights
            again = planned(x, np.inf)  # under the dropped rows'
            assert len(factor_calls) == 3 and CONFIRMED not in caplog.text
            assert again.tobytes() == full.tobytes()
            assert planned(x, np.inf).tobytes() == full.tobytes()  # the kept factor
            assert len(factor_calls) == 3 and CONFIRMED in caplog.text
        assert planned(dropping).tobytes() == dropped.tobytes()


REUSED = "reusing the layout's flat-start factor"


class TestFlatStartFactor:
    """A kernel layout holds its rows at the flat start and the factor of
    its last flat-start gain that passed the pivot test, with the weights
    it was taken under.  The first iterate of a later flat-start estimate
    under those weights takes that factor instead of one of its own, and
    every estimate gives the bits of a fresh network."""

    outputs = staticmethod(TestLayoutAnalysis.outputs)

    def fresh(self, net, mset, formulation, factor_calls):
        """The outputs of mset on a copy of net, and how many gains that
        factored."""
        factor_calls.clear()
        fresh = assemble_problem(type(net)(net.buses, net.branches), mset, formulation)
        outputs = self.outputs(fresh)
        count = len(factor_calls)
        factor_calls.clear()
        return outputs, count

    @pytest.mark.parametrize("net_name", ["lattice6", "net14"])
    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_polar"])
    def test_second_estimate_reuses_the_factor(self, factor_calls, caplog, net_name,
                                               formulation):
        net = TestGainPlan.NETS[net_name]()
        self.outputs(assemble_problem(net, synthesized(net, formulation), formulation))
        layout = net.layouts[formulation]
        kept = layout._flat_factor
        assert kept is not None
        mset = other_values(net, formulation)
        want, factors = self.fresh(net, mset, formulation, factor_calls)
        with caplog.at_level("DEBUG", logger="gridse"):
            hit = assemble_problem(net, mset, formulation)
            assert hit._layout is layout
            assert self.outputs(hit) == want
        assert len(factor_calls) == factors - 1
        assert caplog.text.count(REUSED) == 1
        assert layout._flat_factor is kept

    def test_changed_variance_factors_anew(self, factor_calls, caplog):
        net = load_network(NET14)
        base = synthesized(net, "conventional")
        self.outputs(assemble_problem(net, base, "conventional"))
        layout = net.layouts["conventional"]
        kept = layout._flat_factor
        variances = base.variances().copy()
        variances[int(np.argmax(base.codes == KIND_CODE["V_mag"]))] *= 2.0
        mset = MeasurementSet.from_columns(base.codes, base.at, base.values(), variances,
                                           base.pairs, base.covs)
        want, factors = self.fresh(net, mset, "conventional", factor_calls)
        with caplog.at_level("DEBUG", logger="gridse"):
            changed = assemble_problem(net, mset, "conventional")
            assert changed._layout is layout
            assert self.outputs(changed) == want
        assert len(factor_calls) == factors
        assert REUSED not in caplog.text
        # the new factor replaced the kept one
        assert layout._flat_factor is not kept
        assert not np.array_equal(layout._flat_factor[1], kept[1])

    def test_refused_masked_gain_is_never_kept(self, factor_calls, caplog):
        # The masked first iterate's gain is singular: only the gain of
        # the retry with every row is kept, and a second estimate's
        # masked gain is refused again, with the same records.
        problem, truth = current_phasor_problem()
        net, mset = problem.net, problem.mset
        want, factors = self.fresh(net, mset, "simultaneous_polar", factor_calls)
        logs = []
        for _ in range(2):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="gridse"):
                problem = assemble_problem(net, mset, "simultaneous_polar")
                assert self.outputs(problem) == want
            logs.append([r.getMessage() for r in caplog.records
                         if r.getMessage() != REUSED])
            assert "current rows carry observability" in caplog.text
            weights = problem._layout._flat_factor[1]
            assert np.array_equal(weights, problem.covariance.inverse().data)
        assert logs[0] == logs[1]
        assert caplog.text.count(REUSED) == 1  # the retry's
        assert len(factor_calls) == 2 * factors - 1

    def test_flat_rows_are_read_only(self):
        problem = TestGainPlan.problem("net14", "conventional")
        layout, x = problem._layout, problem.initial_state()
        # rows at any other state are the kernel's own and fix nothing
        near = x.copy()
        near.values[-1] += 1e-3
        _, j, _ = problem.rows(near)
        j.data[0] = 1.0
        assert layout._flat_rows is None
        h, j, active = problem.rows(x)
        assert not active.all()  # the shuntless branches' current rows
        for array in (h, j.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        active[:] = True
        again = problem.rows(x)
        assert again[0] is h and again[1] is j and again[2] is not active
        assert not again[2].all()
        # the kernel's own rows there, bit for bit
        h_, j_, active_ = problem.kernel.rows(x)
        assert h_.tobytes() == h.tobytes() and j_.data.tobytes() == j.data.tobytes()
        assert np.array_equal(active_, again[2])
        # a set without some of the layout's rows holds them inactive in
        # its copy only
        part = assemble_problem(problem.net, subset(problem.mset, np.arange(problem.m - 2)),
                                "conventional")
        assert part._layout is layout
        held = part.rows(x)[2]
        assert not held[-2:].any()
        assert np.array_equal(layout._flat_rows[2], active_)

    @pytest.mark.parametrize("formulation, method", [
        ("dc", "normal"), ("linear_rect", "normal"), ("conventional", "orthogonal")])
    def test_no_factor_kept_outside_kernel_normal_solves(self, factor_calls, caplog,
                                                         formulation, method):
        net = load_network(NET14)
        with caplog.at_level("DEBUG", logger="gridse"):
            for seed in (1, 2):
                problem = assemble_problem(net, other_values(net, formulation, seed=seed),
                                           formulation)
                self.outputs(problem, method)
        layout = net.layouts[formulation]
        assert layout._flat_factor is None
        assert (layout._flat_rows is None) == (layout.kernel is None)
        assert len(factor_calls) == (2 if method == "normal" else 0)
        assert REUSED not in caplog.text

    @pytest.mark.parametrize("plan", ["simultaneous_rect", "conventional"])
    def test_rectangular_pmu_rows_keep_no_factor(self, factor_calls, caplog, plan):
        # Their variances, converted at the measured values, never
        # repeat; a simultaneous_rect layout without them keeps one.
        net = load_network(NET14)
        placements = PLANS[plan][0](net)
        msets = [other_values(net, "simultaneous_rect", placements, seed) for seed in (1, 2)]
        want, factors = zip(*(self.fresh(net, mset, "simultaneous_rect", factor_calls)
                              for mset in msets))
        with caplog.at_level("DEBUG", logger="gridse"):
            for mset, expect in zip(msets, want):
                assert self.outputs(assemble_problem(net, mset, "simultaneous_rect")) == expect
        layout = net.layouts["simultaneous_rect"]
        assert layout._flat_rows is not None
        keeps = plan == "conventional"
        assert (layout._flat_factor is not None) == keeps
        assert caplog.text.count(REUSED) == keeps
        assert len(factor_calls) == sum(factors) - keeps


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's scenario synthesis and gate (perfbench/workloads.py)."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent.parent / "perfbench"))
    import workloads
    return workloads


class TestFlatStartConvergence:
    """Benchmark scenarios whose flat-start estimate took the first step
    with every polar current row and converged slowly or not at all."""

    def estimate(self, workloads, k, seed, index, formulation):
        """The result of estimate `index` of benchmark seed `seed` on the
        k x k benchmark lattice, and the gate's reasons to fail it."""
        lattice = workloads.LatticeWorkload(seed, k, formulation, *workloads.PLANS[formulation])
        case = lattice.prepare(index)
        raw = lattice.estimate(case)
        return raw[1], workloads.gate(case, lattice.outcome(case, raw))

    def test_simultaneous_polar_lattice(self, workloads):
        # Stopped unconverged after 50 iterations, objective/(m - n) = 86,
        # with the current rows in the first iterate.
        result, failures = self.estimate(workloads, 20, 3, 0, "simultaneous_polar")
        assert result.converged and not failures
        assert result.iterations <= 6

    @pytest.mark.parametrize("seed, index, before, now", [(2, 3, 10, 5), (4, 1, 11, 5)])
    def test_conventional_lattice_with_every_current_row(
            self, workloads, monkeypatch, seed, index, before, now):
        # Current rows on lightly loaded branches too, whose magnitude is
        # comparable to its noise; `before` iterations with the current
        # rows in the first iterate.  Without their second-order term it
        # took 7 and 9 iterations, with it `now`.
        monkeypatch.setattr(workloads, "MIN_CURRENT", 0.0)
        result, failures = self.estimate(workloads, 30, seed, index, "conventional")
        assert result.converged and not failures
        assert result.iterations <= now < before


class TestConvertedPhasorCovariance:
    """pmu_lattice frames with a rectangular current pair of near-zero
    magnitude.  Propagated to first order, its 2x2 block weighed the
    across component up to ~4e17; the pivot test refused an observable
    gain (seed 102) or x-hat moved by 6e-5 with the elimination order
    (seed 82).  Synthesized to second order, the largest weight is ~1e10."""

    @staticmethod
    def frame(workloads, seed, index):
        lattice = workloads.make_workload("pmu_lattice", seed, ".", ".")
        return lattice, lattice.prepare(index)

    @pytest.mark.parametrize("seed, index", [(82, 55), (102, 619)])
    def test_frame_passes_under_either_order(self, workloads, seed, index):
        lattice, case = self.frame(workloads, seed, index)
        problem, result = lattice.estimate(case)
        assert not workloads.gate(case, lattice.outcome(case, (problem, result)))
        assert problem.covariance.inverse().diagonal().max() < 1e11
        # the same set under the reverse Cuthill-McKee order of the buses
        net = problem.net
        n, key = net.n_buses, net.directed_ends.key
        rcm = reverse_cuthill_mckee(csc_matrix((np.ones(key.size), (key // n, key % n)),
                                               shape=(n, n)), symmetric_mode=True)
        order = problem._layout.unknown_order(rcm.astype(np.intp))
        assert not np.array_equal(order, problem.order)
        x = problem.initial_state()
        x.values[problem.free_indices] += gridse.estimators._solve_normal(
            problem.h_matrix[:, problem.free_indices], problem.covariance.inverse(),
            problem.residuals(x), problem.unknown_name, order=order)
        step = np.max(np.abs(x.values - result.x_hat.values))
        assert step <= SolverConfig().step_tolerance

    def test_first_order_blocks_from_a_file_are_refused(self, workloads):
        # The seed-102 frame as a converter that propagates to first order
        # writes it.  Each block is positive definite, so it is taken as
        # stated, and the solve refuses the gain it makes.
        lattice, case = self.frame(workloads, 102, 619)
        mset = case.mset
        a, b = mset.pairs.T
        assert np.isin(mset.codes[a], [KIND_CODE["V_re"], KIND_CODE["I_re"]]).all()
        current = mset.codes[a] == KIND_CODE["I_re"]
        v_mag = np.where(current, PMU_NOISE[K.I_MAG_PMU], PMU_NOISE[K.V_MAG_PMU]) ** 2
        v_ang = np.where(current, PMU_NOISE[K.I_ANG_PMU], PMU_NOISE[K.V_ANG_PMU]) ** 2
        z_re, z_im = mset.values()[a], mset.values()[b]
        square, angle = z_re * z_re + z_im * z_im, np.arctan2(z_im, z_re)
        c, s = np.cos(angle), np.sin(angle)
        variances = mset.variances().copy()
        variances[a] = v_mag * c * c + v_ang * square * s * s
        variances[b] = v_mag * s * s + v_ang * square * c * c
        first = MeasurementSet.from_columns(mset.codes, mset.at, mset.values(), variances,
                                            mset.pairs, (v_mag - v_ang * square) * s * c)
        read = measurements_from_dict(json.loads(json.dumps(measurements_to_dict(first))))
        problem = assemble_problem(lattice.net, read, "linear_rect")
        with pytest.raises(SingularGain, match="Im V at bus 2058"):
            solve(problem)


class TestResultDocument:
    def test_result_document_shape(self, net3):
        problem, _ = zero_noise_problem(net3, legacy_plan(net3),
                                        Formulation.CONVENTIONAL)
        result = solve(problem)
        doc = result_to_dict(problem, result)
        assert doc["formulation"] == "conventional"
        assert doc["converged"] is True
        assert len(doc["state"]["buses"]) == 3
        assert len(doc["residuals"]) == len(problem.mset)
        row = doc["residuals"][0]
        assert set(row) == {"kind", "at", "z", "h", "residual",
                            "normalized_residual"}
        assert row["normalized_residual"] == pytest.approx(
            row["residual"] / math.sqrt(problem.mset[0].variance))
