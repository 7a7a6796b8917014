import json

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from gridse import (
    Branch,
    Bus,
    InputError,
    NetworkModel,
    NotConnected,
    ZeroImpedance,
    assemble_admittance,
    branch_admittance,
    load_network,
)
from gridse.network import network_from_dict

from conftest import incident_ends, parallel_reversed_net, random_polar_state


def two_bus_net(**bus1_kwargs):
    buses = [Bus(1, is_slack=True, **bus1_kwargs), Bus(2)]
    # r + jx chosen so the series admittance is exactly 1 - j10
    branches = [Branch(1, 2, 1.0 / 101.0, 10.0 / 101.0)]
    return NetworkModel(buses, branches)


class TestBranchAdmittance:
    def test_real_identity(self):
        assert branch_admittance(1.0, 0.0) == (1.0, 0.0)

    def test_purely_reactive(self):
        assert branch_admittance(0.0, 1.0) == (0.0, -1.0)

    def test_matches_complex_reciprocal(self):
        g, b = branch_admittance(0.01, 0.1)
        ref = 1.0 / complex(0.01, 0.1)
        assert g == pytest.approx(ref.real, rel=1e-12)
        assert b == pytest.approx(ref.imag, rel=1e-12)
        assert g == pytest.approx(0.990099009901, rel=1e-11)
        assert b == pytest.approx(-9.90099009901, rel=1e-11)

    def test_zero_impedance_rejected(self):
        with pytest.raises(ZeroImpedance):
            branch_admittance(0.0, 0.0)

    @pytest.mark.parametrize("r, x", [(1e-200, 0.0), (0.0, 1e-160), (1e200, 0.0)])
    def test_impedance_outside_the_float_range_rejected(self, r, x):
        # r^2 + x^2 underflows to zero, loses its digits, or overflows
        with pytest.raises(ZeroImpedance, match="outside the normal floating-point range"):
            branch_admittance(r, x)


class TestAssembleAdmittance:
    def test_two_bus_hand_values(self):
        y = assemble_admittance(two_bus_net()).toarray()
        want = np.array([[1 - 10j, -1 + 10j], [-1 + 10j, 1 - 10j]])
        assert np.allclose(y, want, atol=1e-12)

    def test_bus_shunt_hits_diagonal_only(self):
        y = assemble_admittance(two_bus_net(shunt_b=0.05)).toarray()
        assert y[0, 0] == pytest.approx(1 - 9.95j, abs=1e-12)
        assert y[0, 1] == pytest.approx(-1 + 10j, abs=1e-12)
        assert y[1, 1] == pytest.approx(1 - 10j, abs=1e-12)

    def test_row_sums_vanish_without_shunts(self, net14):
        shuntless = NetworkModel(
            [Bus(b.id, is_slack=b.is_slack) for b in net14.buses],
            [Branch(br.from_bus, br.to_bus, br.r, br.x) for br in net14.branches],
        )
        y = assemble_admittance(shuntless).toarray()
        assert np.max(np.abs(y.sum(axis=1))) < 1e-12

    def test_exact_symmetry_random_networks(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = _random_net(rng, n=int(rng.integers(2, 40)))
            y = assemble_admittance(net).toarray()
            assert np.max(np.abs(y - y.T)) == 0.0

    def test_sparsity_matches_branch_incidence(self):
        rng = np.random.default_rng(4)
        net = _random_net(rng, n=25)
        y = assemble_admittance(net).toarray()
        incident = {(br.from_bus, br.to_bus) for br in net.branches}
        incident |= {(j, i) for i, j in incident}
        for i in range(1, 26):
            for j in range(1, 26):
                if i == j:
                    continue
                if (i, j) in incident:
                    assert y[i - 1, j - 1] != 0.0
                else:
                    assert y[i - 1, j - 1] == 0.0

    def test_parallel_branches_sum_on_offdiagonal(self):
        buses = [Bus(1, is_slack=True), Bus(2)]
        branches = [Branch(1, 2, 0.0, 0.5), Branch(1, 2, 0.0, 0.25)]
        y = assemble_admittance(NetworkModel(buses, branches)).toarray()
        assert y[0, 1] == pytest.approx(1j * 6.0, abs=1e-12)
        assert y[0, 0] == pytest.approx(-1j * 6.0, abs=1e-12)


def per_branch_admittance(net):
    """The admittance matrix added up branch by branch, entry by entry:
    the reference whose bits the vectorized assembly keeps."""
    rows, cols, data = [], [], []

    def add(i, j, y):
        rows.append(i - 1)
        cols.append(j - 1)
        data.append(y)

    for br in net.branches:
        y = complex(*branch_admittance(br.r, br.x))
        f, t = br.from_bus, br.to_bus
        add(f, f, y + complex(br.gs_from, br.bs_from))
        add(t, t, y + complex(br.gs_to, br.bs_to))
        add(f, t, -y)
        add(t, f, -y)
    for bus in net.buses:
        if bus.shunt_g != 0.0 or bus.shunt_b != 0.0:
            add(bus.id, bus.id, complex(bus.shunt_g, bus.shunt_b))
    n = net.n_buses
    y = coo_matrix((data, (rows, cols)), shape=(n, n), dtype=complex).tocsr()
    y.sum_duplicates()
    return y


class TestTwoPort:
    @pytest.fixture(params=["net3", "net14", "parallel-reversed", "one-bus"])
    def net(self, request):
        if request.param == "parallel-reversed":
            return parallel_reversed_net(np.random.default_rng(12), n=12)[0]
        if request.param == "one-bus":
            return NetworkModel([Bus(1, shunt_b=0.1, is_slack=True)], [])
        return request.getfixturevalue(request.param)

    def test_admittance_keeps_the_per_branch_bits(self, net):
        got, want = assemble_admittance(net), per_branch_admittance(net)
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_rows_are_series_admittance_plus_near_end_shunt(self, net):
        two_port = net.two_port
        assert two_port.shape == (2 * len(net.branches), 4)
        for k, br in enumerate(net.branches):
            g, b = branch_admittance(br.r, br.x)
            shunts = [(br.gs_from, br.bs_from), (br.gs_to, br.bs_to)]
            for row, (gs, bs) in zip(two_port[2 * k:2 * k + 2], shunts):
                assert row.tobytes() == np.array([g + gs, b + bs, -g, -b]).tobytes()


class TestInjectedCurrent:
    def test_flat_state_shuntless_gives_zero(self, net14):
        shuntless = NetworkModel(
            [Bus(b.id, is_slack=b.is_slack) for b in net14.buses],
            [Branch(br.from_bus, br.to_bus, br.r, br.x) for br in net14.branches],
        )
        cur = shuntless.admittance @ np.ones(14, dtype=complex)
        assert np.max(np.abs(cur)) < 1e-12

    def test_two_bus_hand_product(self):
        cur = two_bus_net().admittance @ np.array([1.0, 0.9], dtype=complex)
        assert cur[0] == pytest.approx(0.1 - 1.0j, abs=1e-12)
        assert cur[1] == pytest.approx(-0.1 + 1.0j, abs=1e-12)

    def test_linearity_in_perturbation(self, net3):
        v = np.array([1.0, 0.98, 1.02], dtype=complex)
        base = net3.admittance @ v
        eps = 1e-3
        bumped = v.copy()
        bumped[1] += eps
        diff1 = net3.admittance @ bumped - base
        bumped = v.copy()
        bumped[1] += 2 * eps
        diff2 = net3.admittance @ bumped - base
        assert np.allclose(diff2, 2 * diff1, rtol=1e-12, atol=1e-15)

    def test_reconciles_with_branch_current_sums(self, net14):
        # per-branch currents (y + ys) V_i - y V_j, summed at each bus,
        # must match the Y row products; bus shunts zeroed
        rng = np.random.default_rng(9)
        net = NetworkModel(
            [Bus(b.id, is_slack=b.is_slack) for b in net14.buses],
            list(net14.branches),
        )
        for _ in range(5):
            x = random_polar_state(net, rng)
            v = x.complex_voltages()
            cur = net.admittance @ v
            for bus in net.buses:
                i = bus.id
                total = 0.0 + 0.0j
                for br, rev in incident_ends(net, i):
                    j = br.from_bus if rev else br.to_bus
                    g, b = branch_admittance(br.r, br.x)
                    ys = complex(br.gs_to, br.bs_to) if rev else \
                        complex(br.gs_from, br.bs_from)
                    total += (complex(g, b) + ys) * v[i - 1] \
                        - complex(g, b) * v[j - 1]
                assert abs(total - cur[i - 1]) <= 1e-12 * max(1.0, abs(cur[i - 1]))


class TestNetworkValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError, match="contiguous"):
            NetworkModel([Bus(1, is_slack=True), Bus(1)],
                         [Branch(1, 2, 0.1, 0.2)])

    def test_gap_in_ids_rejected(self):
        with pytest.raises(InputError, match="contiguous"):
            NetworkModel([Bus(1, is_slack=True), Bus(3)],
                         [Branch(1, 3, 0.1, 0.2)])

    @pytest.mark.parametrize("moved, fault", [
        (401, "id 200 is missing"), (199, "id 199 is repeated"),
        (0, "id 0 is below 1")])
    def test_bad_id_named_alone(self, moved, fault):
        # a 400-bus set with one id moved: the message names that id,
        # not the whole list
        ids = [moved if i == 200 else i for i in range(1, 401)]
        buses = [Bus(i, is_slack=(i == 1)) for i in ids]
        branches = [Branch(a, b, 0.01, 0.1) for a, b in zip(ids, ids[1:])]
        with pytest.raises(InputError) as err:
            NetworkModel(buses, branches)
        assert str(err.value) == f"bus ids must form a contiguous 1..400 set: {fault}"

    def test_no_slack_rejected(self):
        with pytest.raises(InputError, match="slack"):
            NetworkModel([Bus(1), Bus(2)], [Branch(1, 2, 0.1, 0.2)])

    def test_two_slacks_rejected(self):
        with pytest.raises(InputError, match="slack"):
            NetworkModel([Bus(1, is_slack=True), Bus(2, is_slack=True)],
                         [Branch(1, 2, 0.1, 0.2)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="itself"):
            NetworkModel([Bus(1, is_slack=True), Bus(2)],
                         [Branch(1, 1, 0.1, 0.2), Branch(1, 2, 0.1, 0.2)])

    def test_branch_to_missing_bus_rejected(self):
        with pytest.raises(InputError, match="missing"):
            NetworkModel([Bus(1, is_slack=True), Bus(2)],
                         [Branch(1, 5, 0.1, 0.2), Branch(1, 2, 0.1, 0.2)])

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected, match="not connected"):
            NetworkModel(
                [Bus(1, is_slack=True), Bus(2), Bus(3), Bus(4)],
                [Branch(1, 2, 0.1, 0.2), Branch(3, 4, 0.1, 0.2)])

    @pytest.mark.parametrize("branches, islands", [
        ([(1, 2), (2, 3), (4, 5), (5, 6)], 2),
        ([(1, 2), (2, 3), (4, 5), (5, 4), (6, 5)], 2),  # parallel branches
        ([(1, 2), (3, 5), (4, 5)], 3),  # bus 6 on its own
        ([], 6),
    ])
    def test_islands_are_counted(self, branches, islands):
        with pytest.raises(NotConnected, match=f"not connected: {islands} islands$"):
            NetworkModel([Bus(i, is_slack=i == 1) for i in range(1, 7)],
                         [Branch(i, j, 0.1, 0.2) for i, j in branches])

    def test_islands_match_a_union_find(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            ends = [tuple(int(b) for b in rng.choice(np.arange(1, n + 1), 2, replace=False))
                    for _ in range(int(rng.integers(0, 2 * n)))]
            parent = list(range(n + 1))

            def root(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for i, j in ends:
                parent[root(i)] = root(j)
            islands = len({root(i) for i in range(1, n + 1)})
            buses = [Bus(i, is_slack=i == 1) for i in range(1, n + 1)]
            branches = [Branch(i, j, 0.1, 0.2) for i, j in ends]
            if islands == 1:
                NetworkModel(buses, branches)
            else:
                with pytest.raises(NotConnected, match=f": {islands} islands$"):
                    NetworkModel(buses, branches)

    def test_zero_impedance_branch_rejected(self):
        with pytest.raises(ZeroImpedance):
            NetworkModel([Bus(1, is_slack=True), Bus(2)],
                         [Branch(1, 2, 0.0, 0.0)])

    def test_parallel_branch_measurement_lookup_ambiguous(self):
        net = NetworkModel(
            [Bus(1, is_slack=True), Bus(2)],
            [Branch(1, 2, 0.0, 0.5), Branch(1, 2, 0.0, 0.25)])
        with pytest.raises(InputError, match="parallel"):
            net.branch_between(1, 2)

    def test_end_lookup_matches_scan_of_every_end(self, net14):
        def scan(net, i, j):
            # reference: every branch joining i and j, and its orientation
            return [(k, br.from_bus != i) for k, br in enumerate(net.branches)
                    if {br.from_bus, br.to_bus} == {i, j}]

        parallel = NetworkModel(
            [Bus(1, is_slack=True), Bus(2), Bus(3)],
            [Branch(1, 2, 0.0, 0.5), Branch(2, 3, 0.01, 0.1),
             Branch(2, 1, 0.0, 0.25), Branch(1, 3, 0.02, 0.2),
             Branch(1, 2, 0.01, 0.3)])
        rng = np.random.default_rng(11)
        nets = [parallel, net14] + [_random_net(rng, 12) for _ in range(5)]
        for net in nets:
            pairs = [(i, j) for i in range(-1, net.n_buses + 3)
                     for j in range(-1, net.n_buses + 3) if i != j]
            k, reverse, hits = net.lookup_ends(*np.array(pairs).T)
            for (i, j), got_k, got_rev, got_hits in zip(pairs, k, reverse, hits):
                want = scan(net, i, j)
                assert got_hits == len(want)
                if len(want) == 1:
                    assert (got_k, got_rev) == want[0]
                    assert net.branch_index(i, j) == want[0]
                else:
                    with pytest.raises(InputError, match="parallel" if want else "no branch"):
                        net.branch_index(i, j)


class TestLoader:
    def test_load_fixture(self, net3):
        assert net3.n_buses == 3
        assert net3.slack_bus == 1
        assert len(net3.branches) == 3
        assert net3.base_mva == 100.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InputError, match="unknown network keys"):
            network_from_dict({"buses": [], "branches": [], "frequency": 50})

    def test_unknown_bus_key_rejected(self):
        with pytest.raises(InputError, match="unknown bus keys"):
            network_from_dict({
                "buses": [{"id": 1, "slack": True, "name": "a"}],
                "branches": [],
            })

    def test_unknown_branch_key_rejected(self):
        with pytest.raises(InputError, match="unknown branch keys"):
            network_from_dict({
                "buses": [{"id": 1, "slack": True}, {"id": 2}],
                "branches": [{"from": 1, "to": 2, "r": 0.1, "x": 0.2, "tap": 1.0}],
            })

    def test_shunts_default_to_zero(self):
        net = network_from_dict({
            "buses": [{"id": 1, "slack": True}, {"id": 2}],
            "branches": [{"from": 1, "to": 2, "r": 0.1, "x": 0.2}],
        })
        assert net.buses[0].shunt_g == 0.0
        assert net.branches[0].bs_from == 0.0

    def test_slack_angle_override(self, tmp_path):
        doc = {
            "buses": [{"id": 1, "slack": True}, {"id": 2}],
            "branches": [{"from": 1, "to": 2, "r": 0.1, "x": 0.2}],
            "slack_angle": 0.1,
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert load_network(path).slack_angle == 0.1

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_network(tmp_path / "nope.json")

    @pytest.mark.parametrize("where,key", [
        ("branch", "r"), ("branch", "x"), ("branch", "gs_from"),
        ("branch", "bs_from"), ("branch", "gs_to"), ("branch", "bs_to"),
        ("bus", "shunt_g"), ("bus", "shunt_b"), ("top", "slack_angle"),
        ("top", "base_mva"),
    ])
    def test_non_finite_numbers_rejected(self, where, key):
        for bad in (float("nan"), float("inf"), "abc"):
            doc = {
                "buses": [{"id": 1, "slack": True}, {"id": 2}],
                "branches": [{"from": 1, "to": 2, "r": 0.1, "x": 0.2}],
            }
            target = {"branch": doc["branches"][0], "bus": doc["buses"][1],
                      "top": doc}[where]
            target[key] = bad
            with pytest.raises(InputError, match=key):
                network_from_dict(doc)


def _random_net(rng, n):
    """Random connected network: a spanning tree plus extra branches."""
    buses = [Bus(1, is_slack=True)] + [Bus(i) for i in range(2, n + 1)]
    branches = []
    for i in range(2, n + 1):
        j = int(rng.integers(1, i))
        branches.append(Branch(j, i, float(rng.uniform(0.005, 0.1)),
                               float(rng.uniform(0.01, 0.5))))
    for _ in range(n // 3):
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        branches.append(Branch(int(i), int(j), float(rng.uniform(0.005, 0.1)),
                               float(rng.uniform(0.01, 0.5))))
    return NetworkModel(buses, branches)
