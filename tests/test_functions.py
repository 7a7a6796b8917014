import cmath
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from gridse import (
    Branch,
    Bus,
    FlatStartSingularity,
    Formulation,
    InputError,
    MeasurementKind,
    MeasurementSet,
    Measurement,
    NetworkModel,
    StateVector,
    UnsupportedKind,
    assemble_problem,
    gauss_newton,
    SolverConfig,
)
from gridse.functions import (
    CURRENT_GUARD,
    MeasurementKernel,
    dc_rows,
    evaluate_row,
    evaluate_value,
    linear_rows_rectstate,
)
from gridse.states import POLAR

from conftest import (
    branch_ends,
    dc_plan,
    fd_gradient,
    incident_ends,
    legacy_plan,
    oracle_value,
    parallel_reversed_net,
    random_polar_state,
)
from test_golden import small_lattice, synthesized

K = MeasurementKind


def single_branch_net(g, b, gs=0.0, bs=0.0, gs_to=0.0, bs_to=0.0):
    """Two-bus network whose series admittance is exactly g + jb."""
    d = g * g + b * b
    return NetworkModel(
        [Bus(1, is_slack=True), Bus(2)],
        [Branch(1, 2, g / d, -b / d, gs_from=gs, bs_from=bs,
                gs_to=gs_to, bs_to=bs_to)])


def state(net, theta, vmag):
    return StateVector(POLAR, np.concatenate([theta, vmag]), net.slack_bus,
                       theta[net.slack_bus - 1])


def flat(net):
    return StateVector.flat(net.n_buses, net.slack_bus)


class TestPowerFlowRows:
    def test_flat_shuntless_value_and_angle_partial(self):
        net = single_branch_net(1.0, -10.0)
        row = evaluate_row(net, flat(net), K.P_FLOW, (1, 2))
        assert row.value == pytest.approx(0.0, abs=1e-15)
        assert row.gradient[0] == pytest.approx(10.0)  # -b_ij

    def test_value_matches_complex_oracle(self):
        # independent route: S_ij = V_i * conj((y + ys) V_i - y V_j)
        net = single_branch_net(1.0, -10.0)
        vi, vj, tij = 1.02, 0.98, 0.05
        x = state(net, np.array([tij, 0.0]), np.array([vi, vj]))
        yser = complex(1.0, -10.0)
        s = (vi * cmath.exp(1j * tij)) * (yser * (vi * cmath.exp(1j * tij) - vj)).conjugate()
        p = evaluate_row(net, x, K.P_FLOW, (1, 2))
        q = evaluate_row(net, x, K.Q_FLOW, (1, 2))
        assert p.value == pytest.approx(s.real, rel=1e-13)
        assert q.value == pytest.approx(s.imag, rel=1e-13)
        assert p.value == pytest.approx(0.541641015739, rel=1e-11)

    def test_q_flow_flat_shuntless_zero(self):
        net = single_branch_net(1.0, -10.0)
        assert evaluate_row(net, flat(net), K.Q_FLOW, (1, 2)).value == pytest.approx(0.0, abs=1e-15)

    def test_q_flow_flat_only_shunt_survives(self):
        net = single_branch_net(1.0, -10.0, bs=0.05)
        assert evaluate_row(net, flat(net), K.Q_FLOW, (1, 2)).value == pytest.approx(-0.05)

    def test_orientation_uses_the_right_end_shunt(self):
        net = single_branch_net(1.0, -10.0, bs=0.05, bs_to=0.02)
        assert evaluate_row(net, flat(net), K.Q_FLOW, (2, 1)).value == pytest.approx(-0.02)


class TestCurrentMagnitude:
    def test_flat_shuntless_singular(self):
        net = single_branch_net(1.0, -10.0)
        assert evaluate_value(net, flat(net), K.I_MAG, (1, 2)) == 0.0
        with pytest.raises(FlatStartSingularity):
            evaluate_row(net, flat(net), K.I_MAG, (1, 2))

    def test_magnitude_equals_apparent_power_over_voltage(self, net3):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = random_polar_state(net3, rng)
            for i, j in branch_ends(net3):
                p = evaluate_row(net3, x, K.P_FLOW, (i, j)).value
                q = evaluate_row(net3, x, K.Q_FLOW, (i, j)).value
                expect = math.hypot(p, q) / x.magnitudes[i - 1]
                assert evaluate_row(net3, x, K.I_MAG, (i, j)).value == pytest.approx(
                    expect, abs=1e-10)

    def test_guard_threshold(self):
        net = single_branch_net(1.0, -10.0)
        x = state(net, np.array([0.0, 0.0]), np.array([1.0, 1.0 + 1e-12]))
        assert evaluate_value(net, x, K.I_MAG, (1, 2)) < CURRENT_GUARD
        with pytest.raises(FlatStartSingularity):
            evaluate_row(net, x, K.I_MAG, (1, 2))

    @staticmethod
    def branch_with_current(rng, current):
        """A two-bus branch with shunts at both ends and a state off the
        flat start whose current leaving bus 1 is ``current``, up to the
        rounding of the state."""
        net = single_branch_net(rng.uniform(0.5, 5.0), rng.uniform(-20.0, -2.0),
                                gs=rng.uniform(0.0, 0.01), bs=rng.uniform(0.0, 0.05),
                                gs_to=rng.uniform(0.0, 0.01), bs_to=rng.uniform(0.0, 0.05))
        br = net.branches[0]
        y = 1.0 / complex(br.r, br.x)
        vi = rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(-0.5, 0.5))
        vj = ((y + complex(br.gs_from, br.bs_from)) * vi - current) / y
        return net, state(net, np.array([cmath.phase(vi), cmath.phase(vj)]),
                          np.array([abs(vi), abs(vj)]))

    def test_zero_current_off_the_flat_start_is_below_the_guard(self):
        placements = [(K.I_MAG, (1, 2)), (K.I_MAG_PMU, (1, 2)), (K.I_ANG_PMU, (1, 2))]
        rng = np.random.default_rng(46)
        for _ in range(200):
            net, x = self.branch_with_current(rng, 0.0)
            h, j, active = MeasurementKernel(net, placements).rows(x)
            assert h[0] < CURRENT_GUARD
            assert not active.any()
            assert (j.data == 0.0).all()
            for kind, at in placements:
                with pytest.raises(FlatStartSingularity):
                    evaluate_row(net, x, kind, at)

    @pytest.mark.parametrize("level", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_small_current_matches_the_oracle(self, level):
        rng = np.random.default_rng(47)
        for _ in range(200):
            current = level * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            net, x = self.branch_with_current(rng, current)
            want = oracle_value(net, x, K.I_MAG, (1, 2))
            assert abs(evaluate_value(net, x, K.I_MAG, (1, 2)) - want) <= 1e-8 * want


class TestInjections:
    def test_flat_shuntless_injections_vanish(self, net14):
        shuntless = NetworkModel(
            [Bus(b.id, is_slack=b.is_slack) for b in net14.buses],
            [Branch(br.from_bus, br.to_bus, br.r, br.x) for br in net14.branches])
        x = flat(shuntless)
        for b in shuntless.buses:
            assert evaluate_row(shuntless, x, K.P_INJ, (b.id,)).value == pytest.approx(0.0, abs=1e-13)
            assert evaluate_row(shuntless, x, K.Q_INJ, (b.id,)).value == pytest.approx(0.0, abs=1e-13)

    def test_kirchhoff_reconciliation(self, net14):
        # bus shunts zeroed; branch shunts stay
        net = NetworkModel(
            [Bus(b.id, is_slack=b.is_slack) for b in net14.buses],
            list(net14.branches))
        rng = np.random.default_rng(22)
        for _ in range(20):
            x = random_polar_state(net, rng)
            for b in net.buses:
                p_sum = q_sum = 0.0
                for br, rev in incident_ends(net, b.id):
                    j = br.from_bus if rev else br.to_bus
                    p_sum += evaluate_row(net, x, K.P_FLOW, (b.id, j)).value
                    q_sum += evaluate_row(net, x, K.Q_FLOW, (b.id, j)).value
                assert evaluate_row(net, x, K.P_INJ, (b.id,)).value == pytest.approx(p_sum, abs=1e-10)
                assert evaluate_row(net, x, K.Q_INJ, (b.id,)).value == pytest.approx(q_sum, abs=1e-10)

    def test_gradient_support_is_one_hop(self, net14):
        rng = np.random.default_rng(23)
        x = random_polar_state(net14, rng)
        row = evaluate_row(net14, x, K.P_INJ, (6,))
        y = net14.admittance
        ids = y.indices[y.indptr[5]:y.indptr[6]] + 1
        allowed = set()
        for b in ids:
            allowed.add(b - 1)
            allowed.add(14 + b - 1)
        assert set(row.gradient) <= allowed


class TestIdentityRows:
    def test_v_mag_row(self, net3):
        rng = np.random.default_rng(24)
        x = random_polar_state(net3, rng)
        row = evaluate_row(net3, x, K.V_MAG, (2,))
        assert row.value == x.magnitudes[1]
        assert row.gradient == {3 + 1: 1.0}

    def test_v_ang_row_on_slack_still_valid(self, net3):
        x = random_polar_state(net3, np.random.default_rng(25))
        row = evaluate_row(net3, x, K.V_ANG_PMU, (net3.slack_bus,))
        assert row.value == x.angles[net3.slack_bus - 1]
        assert row.gradient == {net3.slack_bus - 1: 1.0}


class TestCurrentPhasor:
    def test_polar_rect_consistency(self, net3):
        rng = np.random.default_rng(26)
        for _ in range(100):
            x = random_polar_state(net3, rng)
            for i, j in branch_ends(net3):
                mag = evaluate_row(net3, x, K.I_MAG, (i, j)).value
                ang = evaluate_row(net3, x, K.I_ANG_PMU, (i, j)).value
                re = evaluate_row(net3, x, K.I_RE, (i, j)).value
                im = evaluate_row(net3, x, K.I_IM, (i, j)).value
                assert mag * math.cos(ang) == pytest.approx(re, abs=1e-10)
                assert mag * math.sin(ang) == pytest.approx(im, abs=1e-10)

    def test_rect_value_matches_complex_arithmetic(self, net3):
        rng = np.random.default_rng(27)
        for _ in range(20):
            x = random_polar_state(net3, rng)
            v = x.complex_voltages()
            for br in net3.branches:
                i, j = br.from_bus, br.to_bus
                yser = complex(*__import__("gridse").branch_admittance(br.r, br.x))
                ys = complex(br.gs_from, br.bs_from)
                cur = (yser + ys) * v[i - 1] - yser * v[j - 1]
                assert evaluate_row(net3, x, K.I_RE, (i, j)).value == pytest.approx(
                    cur.real, abs=1e-12)
                assert evaluate_row(net3, x, K.I_IM, (i, j)).value == pytest.approx(
                    cur.imag, abs=1e-12)

    def test_resistive_branch_angle_zero(self):
        net = single_branch_net(2.0, 0.0)
        x = state(net, np.array([0.0, 0.0]), np.array([1.05, 0.95]))
        assert evaluate_row(net, x, K.I_ANG_PMU, (1, 2)).value == pytest.approx(0.0, abs=1e-15)

    def test_flat_shuntless_rect_currents_zero(self):
        net = single_branch_net(1.0, -10.0)
        x = flat(net)
        assert evaluate_row(net, x, K.I_RE, (1, 2)).value == pytest.approx(0.0, abs=1e-15)
        assert evaluate_row(net, x, K.I_IM, (1, 2)).value == pytest.approx(0.0, abs=1e-15)

    def test_angle_row_singular_at_flat_start(self):
        net = single_branch_net(1.0, -10.0)
        with pytest.raises(FlatStartSingularity):
            evaluate_row(net, flat(net), K.I_ANG_PMU, (1, 2))


class TestVoltagePhasorRect:
    def test_flat_values_and_partials(self, net3):
        x = flat(net3)
        re = evaluate_row(net3, x, K.V_RE, (2,))
        im = evaluate_row(net3, x, K.V_IM, (2,))
        assert re.value == 1.0 and im.value == 0.0
        assert re.gradient[1] == 0.0 and im.gradient[1] == 1.0

    def test_quarter_turn(self, net3):
        theta = np.array([0.0, math.pi / 2, 0.0])
        vmag = np.array([1.0, 2.0, 1.0])
        x = state(net3, theta, vmag)
        assert evaluate_row(net3, x, K.V_RE, (2,)).value == pytest.approx(0.0, abs=1e-15)
        assert evaluate_row(net3, x, K.V_IM, (2,)).value == pytest.approx(2.0)


NONLINEAR_BRANCH_KINDS = [K.P_FLOW, K.Q_FLOW, K.I_MAG, K.I_MAG_PMU,
                          K.I_ANG_PMU, K.I_RE, K.I_IM]
NONLINEAR_BUS_KINDS = [K.P_INJ, K.Q_INJ, K.V_MAG, K.V_MAG_PMU, K.V_ANG_PMU,
                       K.V_RE, K.V_IM]


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind", NONLINEAR_BRANCH_KINDS)
    def test_branch_kinds(self, net3, kind):
        rng = np.random.default_rng(30)
        for _ in range(25):
            x = random_polar_state(net3, rng)
            for at in branch_ends(net3):
                _check_gradient(net3, x, kind, at)

    @pytest.mark.parametrize("kind", NONLINEAR_BUS_KINDS)
    def test_bus_kinds(self, net3, kind):
        rng = np.random.default_rng(31)
        for _ in range(25):
            x = random_polar_state(net3, rng)
            for b in net3.buses:
                _check_gradient(net3, x, kind, (b.id,))

    def test_no_hidden_columns(self, net3):
        # finite differences over every column find nothing outside the
        # declared gradient support
        rng = np.random.default_rng(32)
        x = random_polar_state(net3, rng)
        for kind, at in [(K.P_FLOW, (1, 2)), (K.Q_FLOW, (2, 3)),
                         (K.I_ANG_PMU, (1, 3)), (K.P_INJ, (2,)),
                         (K.Q_INJ, (3,)), (K.V_RE, (2,))]:
            row = evaluate_row(net3, x, kind, at)
            fd = fd_gradient(net3, x, kind, at, range(6))
            for c in range(6):
                if c not in row.gradient:
                    assert abs(fd[c]) < 1e-8, (kind, at, c)


def _check_gradient(net, x, kind, at):
    try:
        row = evaluate_row(net, x, kind, at)
    except FlatStartSingularity:
        return
    fd = fd_gradient(net, x, kind, at, sorted(row.gradient))
    for c, analytic in row.gradient.items():
        assert analytic == pytest.approx(fd[c], rel=1e-6, abs=1e-9), (kind, at, c)


@pytest.mark.parametrize("kind", [K.V_MAG, K.V_RE, K.P_INJ, K.THETA])
@pytest.mark.parametrize("bus", [0, -1, 4])  # net3 has buses 1..3
def test_bus_outside_network_rejected(net3, kind, bus):
    x = random_polar_state(net3, np.random.default_rng(38))
    with pytest.raises(InputError, match="bus does not exist"):
        evaluate_value(net3, x, kind, (bus,))
    if kind != K.THETA:
        with pytest.raises(InputError, match="bus does not exist"):
            evaluate_row(net3, x, kind, (bus,))
    if kind == K.V_RE:
        with pytest.raises(InputError, match="bus does not exist"):
            linear_rows_rectstate(net3, MeasurementSet([Measurement(kind, (bus,), 0.0, 1e-4)]))


class TestLinearRectRows:
    def test_voltage_row_is_identity_selector(self, net3):
        mset = MeasurementSet([Measurement(K.V_RE, (2,), 1.0, 1e-4)])
        h = linear_rows_rectstate(net3, mset).toarray()
        want = np.zeros(6)
        want[1] = 1.0
        assert np.array_equal(h[0], want)

    def test_current_row_coefficients(self):
        net = single_branch_net(1.0, -10.0)
        mset = MeasurementSet([Measurement(K.I_RE, (1, 2), 0.0, 1e-4)])
        h = linear_rows_rectstate(net, mset).toarray()
        # columns: Re V1, Re V2, Im V1, Im V2
        assert h[0] == pytest.approx([1.0, -1.0, 10.0, -10.0])

    def test_rows_agree_with_complex_arithmetic(self, net3):
        rng = np.random.default_rng(34)
        mset = MeasurementSet([
            Measurement(K.I_RE, (i, j), 0.0, 1e-4) for i, j in branch_ends(net3)
        ] + [
            Measurement(K.I_IM, (i, j), 0.0, 1e-4) for i, j in branch_ends(net3)
        ])
        h = linear_rows_rectstate(net3, mset)
        for _ in range(10):
            xp = random_polar_state(net3, rng)
            v = xp.complex_voltages()
            xr = np.concatenate([v.real, v.imag])
            got = h @ xr
            k = 0
            for i, j in branch_ends(net3):
                br, _ = net3.branch_between(i, j)
                yser = complex(*__import__("gridse").branch_admittance(br.r, br.x))
                ys = complex(br.gs_from, br.bs_from)
                cur = (yser + ys) * v[i - 1] - yser * v[j - 1]
                assert got[k] == pytest.approx(cur.real, abs=1e-12)
                assert got[k + len(branch_ends(net3))] == pytest.approx(
                    cur.imag, abs=1e-12)
                k += 1

    def test_parallel_and_reversed_branch_ends(self):
        net, ends = parallel_reversed_net(np.random.default_rng(36))
        placements = [(kind, at) for at in ends for kind in (K.I_RE, K.I_IM)]
        placements += [(kind, (b.id,)) for b in net.buses for kind in (K.V_RE, K.V_IM)]
        mset = MeasurementSet([Measurement(kind, at, 0.0, 1e-4) for kind, at in placements])
        h = linear_rows_rectstate(net, mset)
        x = random_polar_state(net, np.random.default_rng(37))
        v = x.complex_voltages()
        got = h @ np.concatenate([v.real, v.imag])
        for r, (kind, at) in enumerate(placements):
            assert got[r] == pytest.approx(oracle_value(net, x, kind, at), abs=1e-12)
        parallel = next(br for br in net.branches if (br.from_bus, br.to_bus) not in ends)
        with pytest.raises(InputError, match="parallel"):
            linear_rows_rectstate(net, MeasurementSet([
                Measurement(K.I_RE, (parallel.to_bus, parallel.from_bus), 0.0, 1e-4)]))

    def test_constant_between_states(self, net3):
        mset = MeasurementSet([Measurement(K.I_RE, (1, 2), 0.0, 1e-4),
                               Measurement(K.V_IM, (3,), 0.0, 1e-4)])
        h1 = linear_rows_rectstate(net3, mset).toarray()
        h2 = linear_rows_rectstate(net3, mset).toarray()
        assert np.array_equal(h1, h2)

    def test_nonlinear_kind_rejected(self, net3):
        mset = MeasurementSet([Measurement(K.P_FLOW, (1, 2), 0.0, 1e-4)])
        with pytest.raises(UnsupportedKind):
            linear_rows_rectstate(net3, mset)


class TestDcRows:
    def test_rows_match_per_row_reference_on_parallel_branches(self):
        # Reference: the rows built one by one, each bus's branch ends in
        # first-seen order (neighbours by the first branch joining them,
        # parallel branches by position), the injection diagonal summed
        # in that order.  The bits must match, parallel branches included.
        for seed in range(4):
            net, ends = parallel_reversed_net(np.random.default_rng(200 + seed), n=9 + seed)
            rows = ([Measurement(K.P_FLOW_DC, at, 0.0, 1.0) for at in ends]
                    + [Measurement(K.P_INJ_DC, (b.id,), 0.0, 1.0) for b in net.buses]
                    + [Measurement(K.THETA, (2,), 0.0, 1.0)])
            seen = {}
            for k, br in enumerate(net.branches):
                seen.setdefault((br.from_bus, br.to_bus), []).append(k)
                seen.setdefault((br.to_bus, br.from_bus), []).append(k)
            r_, c_, d_ = [], [], []
            for r, m in enumerate(rows):
                if m.kind == K.P_FLOW_DC:
                    b = -1.0 / net.branch_between(*m.at)[0].x
                    r_ += [r, r]
                    c_ += [m.at[0] - 1, m.at[1] - 1]
                    d_ += [-b, b]
                elif m.kind == K.P_INJ_DC:
                    bsum = 0.0
                    for (i, j), ks in seen.items():
                        for k in ks if i == m.at[0] else ():
                            b = -1.0 / net.branches[k].x
                            r_.append(r)
                            c_.append(j - 1)
                            d_.append(b)
                            bsum += b
                    r_.append(r)
                    c_.append(m.at[0] - 1)
                    d_.append(-bsum)
                else:
                    r_.append(r)
                    c_.append(m.at[0] - 1)
                    d_.append(1.0)
            want = coo_matrix((d_, (r_, c_)), shape=(len(rows), net.n_buses)).tocsr()
            got = dc_rows(net, MeasurementSet(rows))
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_zero_angle_difference_zero_flow(self, net3):
        x = flat(net3)
        assert evaluate_value(net3, x, K.P_FLOW_DC, (1, 2)) == 0.0

    def test_two_bus_hand_value(self):
        net = NetworkModel([Bus(1, is_slack=True), Bus(2)],
                           [Branch(1, 2, 0.0, 0.1)])  # b = -10
        x = StateVector(POLAR, np.array([0.0, -0.1, 1.0, 1.0]), 1)
        assert evaluate_value(net, x, K.P_FLOW_DC, (1, 2)) == pytest.approx(1.0)
        mset = MeasurementSet([Measurement(K.P_FLOW_DC, (1, 2), 1.0, 1e-4)])
        h = dc_rows(net, mset).toarray()
        assert h[0] == pytest.approx([10.0, -10.0])

    def test_theta_row_is_identity(self, net3):
        mset = MeasurementSet([Measurement(K.THETA, (2,), 0.0, 1e-4)])
        h = dc_rows(net3, mset).toarray()
        assert h[0] == pytest.approx([0.0, 1.0, 0.0])

    def test_injection_row_sums_branch_susceptances(self, net3):
        mset = MeasurementSet([Measurement(K.P_INJ_DC, (1,), 0.0, 1e-4)])
        h = dc_rows(net3, mset).toarray()[0]
        b12 = -1.0 / 0.06
        b13 = -1.0 / 0.24
        assert h[0] == pytest.approx(-(b12 + b13))
        assert h[1] == pytest.approx(b12)
        assert h[2] == pytest.approx(b13)
        # row of a constant-in-theta function sums to zero
        assert abs(h.sum()) < 1e-12

    def test_ac_kind_rejected(self, net3):
        mset = MeasurementSet([Measurement(K.Q_FLOW, (1, 2), 0.0, 1e-4)])
        with pytest.raises(UnsupportedKind):
            dc_rows(net3, mset)

    def test_dc_matches_nonlinear_flow_on_lossless_small_angles(self):
        # r = 0, no shunts, V = 1, |theta_ij| <= 1e-3
        net = NetworkModel(
            [Bus(1, is_slack=True), Bus(2), Bus(3)],
            [Branch(1, 2, 0.0, 0.05), Branch(2, 3, 0.0, 0.02),
             Branch(1, 3, 0.0, 0.08)])
        rng = np.random.default_rng(35)
        for _ in range(50):
            theta = rng.uniform(-5e-4, 5e-4, 3)
            theta[0] = 0.0
            x = state(net, theta, np.ones(3))
            for i, j in branch_ends(net):
                ac = evaluate_row(net, x, K.P_FLOW, (i, j)).value
                dc = evaluate_value(net, x, K.P_FLOW_DC, (i, j))
                assert abs(ac - dc) <= 5e-7


def all_polar_kinds(net, ends, rng):
    """Every polar-state kind at every branch end and bus, shuffled."""
    placements = [(kind, at) for at in ends for kind in NONLINEAR_BRANCH_KINDS]
    placements += [(kind, (b.id,)) for b in net.buses for kind in NONLINEAR_BUS_KINDS]
    return [placements[k] for k in rng.permutation(len(placements))]


def _both_directions(net):
    return [end for i, j in branch_ends(net) for end in ((i, j), (j, i))]


class TestMeasurementKernel:
    @pytest.fixture(params=["net3", "net14", "parallel_reversed"])
    def net_and_ends(self, request, net3, net14):
        if request.param == "parallel_reversed":
            return parallel_reversed_net(np.random.default_rng(40))
        net = net3 if request.param == "net3" else net14
        return net, _both_directions(net)

    def test_rows_match_oracle_and_central_differences(self, net_and_ends):
        net, ends = net_and_ends
        rng = np.random.default_rng(41)
        placements = all_polar_kinds(net, ends, rng)
        kernel = MeasurementKernel(net, placements)
        columns = range(2 * net.n_buses)
        for _ in range(2):
            x = random_polar_state(net, rng)
            h, j, active = kernel.rows(x)
            assert active.all()
            assert np.array_equal(kernel.values(x), h)
            dense = j.toarray()
            for r, (kind, at) in enumerate(placements):
                want = oracle_value(net, x, kind, at)
                assert abs(math.remainder(h[r] - want, 2 * math.pi)) <= 1e-12, (kind, at)
                fd = fd_gradient(net, x, kind, at, columns)
                for c in columns:
                    tol = max(1e-6 * abs(fd[c]), 1e-9)
                    assert abs(dense[r, c] - fd[c]) <= tol, (kind, at, c)

    def test_jacobian_pattern_is_fixed(self, net_and_ends):
        net, ends = net_and_ends
        rng = np.random.default_rng(42)
        kernel = MeasurementKernel(net, all_polar_kinds(net, ends, rng))
        states = [random_polar_state(net, rng), random_polar_state(net, rng), flat(net)]
        for x in states:
            _, j, _ = kernel.rows(x)
            assert np.array_equal(j.indptr, kernel.indptr)
            assert np.array_equal(j.indices, kernel.indices)
            assert np.isfinite(j.data).all()

    @pytest.mark.parametrize("net_name", ["net14", "lattice6"])
    @pytest.mark.parametrize("formulation", ["conventional", "simultaneous_polar",
                                             "simultaneous_rect"])
    def test_pattern_order_is_the_lexsort_of_rows_and_columns(self, net14, net_name,
                                                              formulation):
        net = net14 if net_name == "net14" else small_lattice(6)
        kernel = assemble_problem(net, synthesized(net, formulation), formulation).kernel
        patterns = [grp.pattern() for grp in kernel._groups]
        rows = np.concatenate([p[0] for p in patterns])
        cols = np.concatenate([p[1] for p in patterns])
        order = np.lexsort((cols, rows))
        assert np.array_equal(kernel._order, order)
        assert np.array_equal(kernel.indices, cols[order])
        assert np.array_equal(kernel.indptr,
                              np.searchsorted(rows[order], np.arange(kernel.m + 1)))

    def test_turning_both_ends_turns_the_current(self, net14):
        """Adding one angle to every bus leaves P, Q and |I| unchanged,
        adds it to angle I and turns I by it, so the two angle partials
        of a branch row sum to 0, to 1 for angle I, and to -Im I and
        Re I for Re I and Im I."""
        rng = np.random.default_rng(48)
        placements = [(kind, at) for at in _both_directions(net14)
                      for kind in NONLINEAR_BRANCH_KINDS]
        kernel = MeasurementKernel(net14, placements)
        for _ in range(3):
            x = random_polar_state(net14, rng)
            dense = kernel.rows(x)[1].toarray()
            for r, (kind, (i, j)) in enumerate(placements):
                d_ti, d_tj = dense[r, i - 1], dense[r, j - 1]
                cur = complex(oracle_value(net14, x, K.I_RE, (i, j)),
                              oracle_value(net14, x, K.I_IM, (i, j)))
                want = {K.I_ANG_PMU: 1.0, K.I_RE: -cur.imag, K.I_IM: cur.real}.get(kind, 0.0)
                assert abs(d_ti + d_tj - want) <= 1e-12 * max(abs(d_ti), abs(d_tj)), (kind, i, j)

    def test_flat_start_drops_singular_current_rows(self, net14, caplog):
        plan = legacy_plan(net14)
        mset = MeasurementSet([Measurement(kind, at, 0.0, 1e-4) for kind, at in plan])
        problem = assemble_problem(net14, mset, Formulation.CONVENTIONAL)
        x = problem.initial_state()
        h, j, active = problem.rows(x)
        want = [r for r, (kind, at) in enumerate(plan) if kind == K.I_MAG
                and oracle_value(net14, x, kind, at) < CURRENT_GUARD]
        assert want and np.flatnonzero(~active).tolist() == want
        for r, (kind, at) in enumerate(plan):
            assert h[r] == pytest.approx(oracle_value(net14, x, kind, at), abs=1e-12)
            if r in want:
                with pytest.raises(FlatStartSingularity):
                    evaluate_row(net14, x, kind, at)
        lo, hi = j.indptr[want], j.indptr[np.array(want) + 1]
        assert (hi - lo == 4).all()
        assert all((j.data[a:b] == 0.0).all() for a, b in zip(lo, hi))
        # the masked first iterate leaves these rows out anyway: no warning
        with caplog.at_level("WARNING", logger="gridse"):
            gauss_newton(problem, cfg=SolverConfig(max_iterations=1))
        assert "flat-singular" not in caplog.text
        # off the flat start, equal end voltages still carry no current
        # on the shuntless branches, and that iterate drops their rows
        x0 = problem.initial_state()
        x0.values[net14.n_buses:] = 1.05
        assert np.array_equal(problem.rows(x0)[2], active)
        with caplog.at_level("WARNING", logger="gridse"):
            gauss_newton(problem, x0, SolverConfig(max_iterations=1))
        assert f"dropping {len(want)} flat-singular row(s)" in caplog.text

    def test_dc_rows_are_dc_rows_on_the_angle_columns(self, net14):
        """DC kinds in a kernel, alone or among polar-state kinds, give
        the bits of dc_rows @ theta; evaluate_row returns the dc_rows row."""
        rng = np.random.default_rng(43)
        plan = list(dc_plan(net14)) + [(K.P_FLOW_DC, (j, i)) for i, j in branch_ends(net14)]
        mset = MeasurementSet([Measurement(kind, at, 0.0, 1e-4) for kind, at in plan])
        h_dc = dc_rows(net14, mset)
        polar = all_polar_kinds(net14, _both_directions(net14), rng)
        mixed = polar + plan
        order = rng.permutation(len(mixed))
        mixed = [mixed[k] for k in order]
        dc_at = np.argsort(order)[len(polar):]  # where each DC row landed
        alone, among = MeasurementKernel(net14, plan), MeasurementKernel(net14, mixed)
        for x in (random_polar_state(net14, rng), flat(net14)):
            want = (h_dc @ x.angles).tobytes()
            assert alone.values(x).tobytes() == want
            assert among.values(x)[dc_at].tobytes() == want
            h, j, active = among.rows(x)
            assert h[dc_at].tobytes() == want
            assert active[dc_at].all()
            assert np.array_equal(j[dc_at].toarray(),
                                  np.hstack([h_dc.toarray(), np.zeros(h_dc.shape)]))
            for r, (kind, at) in enumerate(plan):
                row = evaluate_row(net14, x, kind, at)
                assert row.value == evaluate_value(net14, x, kind, at) == (h_dc @ x.angles)[r]
                lo, hi = h_dc.indptr[r], h_dc.indptr[r + 1]
                assert row.gradient == dict(zip(h_dc.indices[lo:hi].tolist(),
                                                h_dc.data[lo:hi].tolist()))


class TestCurrentMagnitudeCurvature:
    """The kernel's curvature: the upper Hessian entries of every I_mag and
    I_mag_pmu row, on a fixed pattern, and nothing for any other kind."""

    @pytest.fixture(params=["net3", "parallel_reversed"])
    def net_and_ends(self, request, net3):
        # parallel_reversed: shunts at both ends, branches stored against
        # bus order, each measured from both of its ends
        if request.param == "parallel_reversed":
            return parallel_reversed_net(np.random.default_rng(44))
        return net3, _both_directions(net3)

    def test_hessian_matches_central_differences_of_the_partials(self, net_and_ends):
        net, ends = net_and_ends
        rng = np.random.default_rng(45)
        placements = all_polar_kinds(net, ends, rng)
        kernel = MeasurementKernel(net, placements)
        curved = [r for r, (kind, _) in enumerate(placements)
                  if kind in (K.I_MAG, K.I_MAG_PMU)]
        row, a, b = kernel.curvature_pattern
        assert row.size == 10 * len(curved)
        assert sorted(set(row.tolist())) == curved
        step = 1e-6
        for _ in range(3):
            x = random_polar_state(net, rng)
            hess = coo_matrix((kernel.curvature(x), (row * kernel.n_columns + a, b)),
                              shape=(kernel.m * kernel.n_columns, kernel.n_columns)).toarray()
            hess = hess.reshape(kernel.m, kernel.n_columns, kernel.n_columns)
            # one triangle per row in local (theta_i, theta_j, V_i, V_j) order
            hess = hess + hess.transpose(0, 2, 1) * (1 - np.eye(kernel.n_columns))
            for c in range(kernel.n_columns):
                base = x.values[c]
                x.values[c] = base + step
                plus = kernel.rows(x)[1].toarray()
                x.values[c] = base - step
                minus = kernel.rows(x)[1].toarray()
                x.values[c] = base
                fd = (plus - minus) / (2 * step)
                for r in curved:
                    scale = max(np.max(np.abs(fd[r])), 1.0)
                    assert np.max(np.abs(hess[r, :, c] - fd[r])) <= 1e-6 * scale, (
                        placements[r], c)

    def test_no_curvature_below_the_guard_or_for_other_kinds(self, net14):
        placements = [(kind, at) for at in _both_directions(net14)
                      for kind in NONLINEAR_BRANCH_KINDS if kind not in (K.I_MAG, K.I_MAG_PMU)]
        placements += [(kind, (b.id,)) for b in net14.buses for kind in NONLINEAR_BUS_KINDS]
        kernel = MeasurementKernel(net14, placements)
        assert all(p.size == 0 for p in kernel.curvature_pattern)
        assert kernel.curvature(random_polar_state(net14, np.random.default_rng(46))).size == 0
        # no shunts: a flat start carries no current
        net = single_branch_net(1.0, -10.0)
        kernel = MeasurementKernel(net, [(K.I_MAG, (1, 2)), (K.I_MAG_PMU, (2, 1))])
        assert kernel.curvature(flat(net)).tolist() == [0.0] * 20
        assert np.abs(kernel.curvature(state(net, np.array([0.0, 0.1]),
                                             np.array([1.0, 1.0])))).max() > 0.0
