import cmath
import math
import os
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS: its default of one
# thread per core stalls small banded factors on a busy shared host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from gridse import (
    Branch,
    Bus,
    MeasurementKind,
    NetworkModel,
    ScenarioSpec,
    StateVector,
    load_network,
)
from gridse.states import POLAR

FIXTURES = Path(__file__).parent / "fixtures"

K = MeasurementKind


@pytest.fixture(scope="session")
def net3():
    return load_network(FIXTURES / "net3.json")


@pytest.fixture(scope="session")
def net14():
    return load_network(FIXTURES / "net14.json")


def random_polar_state(net, rng, v_range=(0.9, 1.1), t_range=(-0.3, 0.3)):
    n = net.n_buses
    theta = rng.uniform(*t_range, n)
    vmag = rng.uniform(*v_range, n)
    theta[net.slack_bus - 1] = net.slack_angle
    return StateVector(POLAR, np.concatenate([theta, vmag]), net.slack_bus,
                       net.slack_angle)


def incident_ends(net, i):
    """(branch, reversed) for every branch end at bus i, oriented away
    from i, in branch order; parallel branches included."""
    return [(br, br.to_bus == i) for br in net.branches if i in (br.from_bus, br.to_bus)]


def oracle_value(net, x, kind, at):
    """Independent scalar evaluation of a measurement function.

    Pure complex arithmetic from the branch parameters: currents via
    I = (y + ys) V_i - y V_j, apparent powers via V conj(I).  Shares no
    code with the package kernel, so it cross-checks the formulas, and
    its complex arithmetic keeps finite differences well conditioned.
    """
    n = net.n_buses
    th, vm = x.values[:n], x.values[n:]
    volts = [vm[k] * cmath.exp(1j * th[k]) for k in range(n)]

    def series_and_shunt(br, rev):
        y = 1.0 / complex(br.r, br.x)
        if rev:
            return y, complex(br.gs_to, br.bs_to)
        return y, complex(br.gs_from, br.bs_from)

    def branch_current(i, j):
        br, rev = net.branch_between(i, j)
        y, ys = series_and_shunt(br, rev)
        return (y + ys) * volts[i - 1] - y * volts[j - 1]

    if kind in (K.P_FLOW, K.Q_FLOW):
        i, j = at
        s = volts[i - 1] * branch_current(i, j).conjugate()
        return s.real if kind == K.P_FLOW else s.imag
    if kind in (K.I_MAG, K.I_MAG_PMU):
        return abs(branch_current(*at))
    if kind == K.I_ANG_PMU:
        return cmath.phase(branch_current(*at))
    if kind == K.I_RE:
        return branch_current(*at).real
    if kind == K.I_IM:
        return branch_current(*at).imag
    if kind in (K.P_INJ, K.Q_INJ):
        i = at[0]
        bus = net.buses[i - 1]
        cur = complex(bus.shunt_g, bus.shunt_b) * volts[i - 1]
        for br, rev in incident_ends(net, i):
            j = br.from_bus if rev else br.to_bus
            y, ys = series_and_shunt(br, rev)
            cur += (y + ys) * volts[i - 1] - y * volts[j - 1]
        s = volts[i - 1] * cur.conjugate()
        return s.real if kind == K.P_INJ else s.imag
    if kind in (K.V_MAG, K.V_MAG_PMU):
        return float(vm[at[0] - 1])
    if kind == K.V_ANG_PMU:
        return float(th[at[0] - 1])
    if kind == K.V_RE:
        return volts[at[0] - 1].real
    if kind == K.V_IM:
        return volts[at[0] - 1].imag
    # DC family: lossless flows at unit magnitude, (theta_i - theta_j) / x
    if kind == K.P_FLOW_DC:
        br, _ = net.branch_between(*at)
        return (th[at[0] - 1] - th[at[1] - 1]) / br.x
    if kind == K.P_INJ_DC:
        i = at[0]
        return sum((th[i - 1] - th[(br.from_bus if rev else br.to_bus) - 1]) / br.x
                   for br, rev in incident_ends(net, i))
    if kind == K.THETA:
        return float(th[at[0] - 1])
    raise ValueError(f"oracle has no rule for {kind}")


def fd_gradient(net, x, kind, at, columns, step=1e-6):
    """Central-difference partials of the independent oracle function.

    Angle-valued functions are differenced on the principal branch so a
    wrap between the two sample points cannot fake a huge derivative.
    """
    wrap = kind in (K.I_ANG_PMU, K.V_ANG_PMU, K.THETA)
    grads = {}
    base = x.values.copy()
    for c in columns:
        x.values[c] = base[c] + step
        fp = oracle_value(net, x, kind, at)
        x.values[c] = base[c] - step
        fm = oracle_value(net, x, kind, at)
        x.values[c] = base[c]
        d = fp - fm
        if wrap:
            d = math.remainder(d, 2.0 * math.pi)
        grads[c] = d / (2.0 * step)
    return grads


def parallel_reversed_net(rng, n=9):
    """Random connected network with bus and per-end branch shunts, half
    its branches stored against bus order, and one parallel pair.

    Returns (net, ends): ends lists both directions of every branch
    without a parallel partner, the ends a branch measurement may use.
    """
    def branch(i, j):
        return Branch(i, j, float(rng.uniform(0.005, 0.1)), float(rng.uniform(0.02, 0.4)),
                      gs_from=float(rng.uniform(0.0, 0.01)), bs_from=float(rng.uniform(0.0, 0.05)),
                      gs_to=float(rng.uniform(0.0, 0.01)), bs_to=float(rng.uniform(0.0, 0.05)))

    buses = [Bus(i, shunt_g=float(rng.uniform(0.0, 0.02)), shunt_b=float(rng.uniform(-0.05, 0.05)),
                 is_slack=(i == 1)) for i in range(1, n + 1)]
    branches = []
    for i in range(2, n + 1):
        j = int(rng.integers(1, i))
        branches.append(branch(i, j) if i % 2 else branch(j, i))
    branches.append(branch(branches[2].to_bus, branches[2].from_bus))
    for _ in range(n // 3):
        i, j = (int(b) for b in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        branches.append(branch(i, j))
    net = NetworkModel(buses, branches)
    pairs = [frozenset((br.from_bus, br.to_bus)) for br in branches]
    ends = [end for br, pair in zip(branches, pairs) if pairs.count(pair) == 1
            for end in ((br.from_bus, br.to_bus), (br.to_bus, br.from_bus))]
    return net, ends


def branch_ends(net):
    """Every directed branch end (i, j) once per undirected branch."""
    return [(br.from_bus, br.to_bus) for br in net.branches]


def legacy_plan(net):
    plan = []
    for i, j in branch_ends(net):
        plan.append((K.P_FLOW, (i, j)))
        plan.append((K.Q_FLOW, (i, j)))
    for b in net.buses:
        plan.append((K.P_INJ, (b.id,)))
        plan.append((K.Q_INJ, (b.id,)))
        plan.append((K.V_MAG, (b.id,)))
    for i, j in branch_ends(net):
        plan.append((K.I_MAG, (i, j)))
    return tuple(plan)


def simultaneous_polar_plan(net):
    plan = list(legacy_plan(net))
    for b in net.buses:
        plan.append((K.V_MAG_PMU, (b.id,)))
        plan.append((K.V_ANG_PMU, (b.id,)))
    for i, j in branch_ends(net)[::2]:
        plan.append((K.I_MAG_PMU, (i, j)))
        plan.append((K.I_ANG_PMU, (i, j)))
    return tuple(plan)


def simultaneous_rect_plan(net):
    plan = []
    for i, j in branch_ends(net):
        plan.append((K.P_FLOW, (i, j)))
        plan.append((K.Q_FLOW, (i, j)))
    for b in net.buses:
        plan.append((K.V_MAG, (b.id,)))
        plan.append((K.V_RE, (b.id,)))
        plan.append((K.V_IM, (b.id,)))
    for i, j in branch_ends(net)[::2]:
        plan.append((K.I_RE, (i, j)))
        plan.append((K.I_IM, (i, j)))
    return tuple(plan)


def linear_rect_plan(net):
    plan = []
    for b in net.buses:
        plan.append((K.V_RE, (b.id,)))
        plan.append((K.V_IM, (b.id,)))
    for i, j in branch_ends(net):
        plan.append((K.I_RE, (i, j)))
        plan.append((K.I_IM, (i, j)))
    return tuple(plan)


def dc_plan(net):
    plan = [(K.P_FLOW_DC, (i, j)) for i, j in branch_ends(net)]
    plan += [(K.P_INJ_DC, (b.id,)) for b in net.buses]
    plan.append((K.THETA, (net.slack_bus % net.n_buses + 1,)))
    plan.append((K.THETA, (net.n_buses,)))
    return tuple(plan)


LEGACY_NOISE = {
    K.P_FLOW: 0.01, K.Q_FLOW: 0.01, K.I_MAG: 0.005,
    K.P_INJ: 0.01, K.Q_INJ: 0.01, K.V_MAG: 0.004,
}
PMU_NOISE = {
    K.V_MAG_PMU: 0.002, K.V_ANG_PMU: 0.002,
    K.I_MAG_PMU: 0.003, K.I_ANG_PMU: 0.003,
}
DC_NOISE = {K.P_FLOW_DC: 0.01, K.P_INJ_DC: 0.01, K.THETA: 0.002}


def make_scenario(net, placements, noise=None, seed=1,
                  v_range=(0.95, 1.05), t_range=(-0.2, 0.2)):
    return ScenarioSpec(
        network=net,
        v_range=v_range,
        theta_range=t_range,
        placements=tuple(placements),
        noise=dict(noise or {}),
        seed=seed,
    )
