"""Bus/branch grid model, nodal admittance matrix assembly and the
buses' band ordering.

Branches follow the two-port pi model: a series admittance y obtained
by inverting r + jx, plus independent shunt admittances ys at each end.
``NetworkModel.two_port`` forms it once, per directed branch end: the
current leaving the near end is I = A V_near + B V_far with
A = y + ys_near and B = -y (MATPOWER's Yff/Yft and Ytt/Ytf; Zimmerman,
Murillo-Sanchez & Thomas, IEEE Trans. Power Syst. 2011).  The
admittance matrix and every branch-end measurement row read these
pairs.  Bus shunts add to the matrix diagonal only.  All quantities are
per-unit on a common system base; the base MVA is carried for
reporting.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, reverse_cuthill_mckee

from .documents import arrays, fields, flags, integers, numbers, read_json, rows
from .errors import InputError, NotConnected, ZeroImpedance


class Bus(NamedTuple):
    id: int
    shunt_g: float = 0.0
    shunt_b: float = 0.0
    is_slack: bool = False


class Branch(NamedTuple):
    from_bus: int
    to_bus: int
    r: float
    x: float
    gs_from: float = 0.0
    bs_from: float = 0.0
    gs_to: float = 0.0
    bs_to: float = 0.0


def branch_admittance(r: float, x: float) -> tuple[float, float]:
    """Series admittance g + jb of a branch from its impedance r + jx."""
    if r == 0.0 and x == 0.0:
        raise ZeroImpedance("branch with r = x = 0 has no finite admittance")
    d = r * r + x * x
    return r / d, -x / d


class DirectedEnds(NamedTuple):
    """Directed branch ends (i, j) of a network, sorted by key.

    key is (i - 1) * N + (j - 1); per end, branch is the position in
    ``branches``, reverse whether (i, j) runs against the stored
    orientation and count the number of branches on the same (i, j).
    The ends at bus i are ``incident[incident_ptr[i - 1]:incident_ptr[i]]``,
    in one fixed order: neighbours by the first branch joining them,
    parallel branches by position.  Sums over a bus's branches follow
    it, so they always add in the same order.
    """
    key: np.ndarray
    branch: np.ndarray
    reverse: np.ndarray
    count: np.ndarray
    incident: np.ndarray
    incident_ptr: np.ndarray


class NetworkModel:
    """Validated, immutable bus/branch model.

    Buses must carry contiguous ids 1..N with exactly one slack bus,
    branches must join distinct existing buses with invertible series
    impedance, and the undirected graph must be connected.  What is
    derived from the model is cached on it (the admittance matrix, the
    bus order, the estimator's last layout analyses), so it must not be
    mutated once estimated on.
    """

    def __init__(self, buses, branches, base_mva: float = 100.0, slack_angle: float = 0.0):
        buses = tuple(sorted(buses, key=lambda b: b.id))
        branches = tuple(branches)
        n = len(buses)
        if n == 0:
            raise InputError("network has no buses")
        ids = [b.id for b in buses]
        if ids != list(range(1, n + 1)):
            # the first misplaced id in sorted order names the fault
            k = next(k for k, i in enumerate(ids) if i != k + 1)
            if ids[k] < 1:
                fault = f"id {ids[k]} is below 1"
            elif k and ids[k] == ids[k - 1]:
                fault = f"id {ids[k]} is repeated"
            else:
                fault = f"id {k + 1} is missing"
            raise InputError(f"bus ids must form a contiguous 1..{n} set: {fault}")
        slacks = [b.id for b in buses if b.is_slack]
        if len(slacks) != 1:
            raise InputError(f"exactly one slack bus required, found {len(slacks)}")
        for br in branches:
            if br.from_bus == br.to_bus:
                raise InputError(f"branch {br.from_bus}-{br.to_bus} joins a bus to itself")
            if not (1 <= br.from_bus <= n and 1 <= br.to_bus <= n):
                raise InputError(f"branch {br.from_bus}-{br.to_bus} references a missing bus")
            if br.r == 0.0 and br.x == 0.0:
                raise ZeroImpedance(f"branch {br.from_bus}-{br.to_bus} has r = x = 0")
        self.buses = buses
        self.branches = branches
        self.base_mva = float(base_mva)
        self.slack_bus = slacks[0]
        self.slack_angle = float(slack_angle)
        self._check_connected()
        # Per formulation, the last measurement layout the estimator
        # analysed on this network (estimators.assemble_problem).
        self.layouts: dict = {}

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def _check_connected(self):
        # the bus graph from directed_ends, which the location lookups need
        # anyway; it holds both orientations of every branch, so a search
        # along them from bus 1 reaches its island, and the islands are
        # counted only where it misses a bus
        n, ends = self.n_buses, self.directed_ends
        graph = csr_matrix((np.ones(ends.key.size), ends.key % n, ends.incident_ptr),
                           shape=(n, n))
        if breadth_first_order(graph, 0, return_predecessors=False).size < n:
            islands, _ = connected_components(graph, directed=False)
            raise NotConnected(f"network not connected: {islands} islands")

    @cached_property
    def directed_ends(self) -> DirectedEnds:
        """Both orientations of every branch, sorted by (i, j) and, for
        parallel branches, by branch position."""
        n = self.n_buses
        ends = np.array([(br.from_bus, br.to_bus) for br in self.branches],
                        dtype=np.int64).reshape(-1, 2) - 1
        # Branch k contributes entries 2k (stored orientation) and 2k + 1.
        key = ends.ravel() * n + ends[:, ::-1].ravel()
        order = np.argsort(key, kind="stable")
        key, branch = key[order], order // 2
        _, first, count = np.unique(key, return_index=True, return_counts=True)
        near = key // n
        incident = np.lexsort((branch, np.repeat(branch[first], count), near))
        return DirectedEnds(
            key=key, branch=branch, reverse=order % 2 == 1,
            count=np.repeat(count, count), incident=incident,
            incident_ptr=np.concatenate([[0], np.cumsum(np.bincount(near, minlength=n))]))

    def lookup_ends(self, i, j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per pair of 1-based buses (i[k], j[k]): the position in
        ``branches`` of a branch joining them (-1 if none does), whether
        (i[k], j[k]) runs against its stored orientation, and how many
        branches join them (0 also for a bus outside 1..N)."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        n = self.n_buses
        ends = self.directed_ends
        query = (i - 1) * n + (j - 1)
        query[(np.minimum(i, j) < 1) | (np.maximum(i, j) > n)] = -1
        if not ends.key.size:
            return np.full(query.shape, -1), np.zeros(query.shape, dtype=bool), np.zeros_like(query)
        pos = np.minimum(np.searchsorted(ends.key, query), ends.key.size - 1)
        found = ends.key[pos] == query
        return (np.where(found, ends.branch[pos], -1), found & ends.reverse[pos],
                found * ends.count[pos])

    def branch_index(self, i: int, j: int) -> tuple[int, bool]:
        """Position in ``branches`` of the unique branch joining buses i
        and j, and whether (i, j) runs against its stored orientation;
        ``lookup_ends`` for one pair.

        No branch (a bus outside 1..N included) is an InputError, and so
        are parallel branches: a branch-attached measurement there is
        ambiguous.  The admittance matrix still sums parallel branches.
        """
        k, reverse, hits = self.lookup_ends([i], [j])
        if hits[0] != 1:
            raise end_error(i, j, int(hits[0]))
        return int(k[0]), bool(reverse[0])

    def branch_between(self, i: int, j: int) -> tuple[Branch, bool]:
        """The unique branch joining buses i and j.

        Returns (branch, reversed) where reversed means the request was
        (to, from) relative to the stored orientation; see branch_index.
        """
        k, reverse = self.branch_index(i, j)
        return self.branches[k], reverse

    @cached_property
    def two_port(self) -> np.ndarray:
        """The pi model per directed branch end: row 2k is branch k seen
        from its from bus, row 2k + 1 from its to bus, each
        (Re A, Im A, Re B, Im B) with A = y + ys_near and B = -y, so that
        the current leaving the near end is A V_near + B V_far."""
        return np.array([(g + gs, b + bs, -g, -b) for br in self.branches
                         for g, b in [branch_admittance(br.r, br.x)]
                         for gs, bs in [(br.gs_from, br.bs_from), (br.gs_to, br.bs_to)]],
                        dtype=float).reshape(-1, 4)

    @cached_property
    def bus_order(self) -> np.ndarray:
        """The buses' elimination order for a banded gain, cached: bus
        ``bus_order[k] + 1`` takes position k.  ``narrow_order`` of the
        bus graph that the branch ends make, so never wider than the
        file's own bus order.  Built from the branches, not from Y, which
        DC and linear_rect problems never assemble."""
        n = self.n_buses
        key = self.directed_ends.key
        return narrow_order(csr_matrix((np.ones(key.size), (key // n, key % n)),
                                       shape=(n, n)))

    @cached_property
    def admittance(self) -> csr_matrix:
        """The nodal admittance matrix, assembled on first use and
        cached.  Callers must not modify it."""
        return assemble_admittance(self)


def bandwidth(graph, where: np.ndarray) -> int:
    """The bandwidth of a symmetric CSR or CSC graph whose node k sits at
    position where[k]: the largest |where[i] - where[j]| over its stored
    entries (i, j)."""
    rows = np.repeat(where, np.diff(graph.indptr))
    return int(np.abs(rows - where[graph.indices]).max(initial=0))


def narrow_order(graph) -> np.ndarray:
    """An elimination order for a band over a symmetric CSR or CSC graph:
    perm, with node perm[k] at position k.  It is whichever of reverse
    Cuthill-McKee and the graph's own order has the narrower bandwidth,
    the graph's own on a tie.  RCM is a heuristic for a small band, and an
    input that comes numbered, such as a lattice row by row, can have a
    narrower one (George & Liu, Computer Solution of Large Sparse Positive
    Definite Systems, 1981, ch. 4; Gibbs, Poole & Stockmeyer, SIAM J.
    Numer. Anal. 1976)."""
    own = np.arange(graph.shape[0])
    if not graph.nnz:  # every order has bandwidth 0
        return own
    rcm = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.intp)
    where = np.empty_like(rcm)
    where[rcm] = own
    return rcm if bandwidth(graph, where) < bandwidth(graph, own) else own


def end_error(i: int, j: int, hits: int) -> InputError:
    """The error for a branch measurement at buses (i, j) that ``hits``
    branches join, where only one may."""
    if hits == 0:
        return InputError(f"no branch between buses {i} and {j}")
    return InputError(f"buses {i} and {j} are joined by {hits} parallel "
                      "branches; branch measurements are ambiguous")


def assemble_admittance(net: NetworkModel) -> csr_matrix:
    """Build the nodal admittance matrix of the network.

    Coordinate-list assembly into a complex CSR matrix with duplicate
    entries summed and column indices sorted, so parallel branches
    accumulate on the off-diagonals.  Each branch adds its two ends'
    ``net.two_port`` pairs, branch by branch: A at (from, from) and
    (to, to), then B at (from, to) and (to, from); bus shunts add to the
    diagonal last.
    """
    n = net.n_buses
    ends = np.array([(br.from_bus, br.to_bus) for br in net.branches],
                    dtype=np.int64).reshape(-1, 2) - 1
    # per branch [[A_from, A_to], [B_from, B_to]]
    pairs = net.two_port.view(complex).reshape(-1, 2, 2).transpose(0, 2, 1)
    shunt = np.array([(bus.shunt_g, bus.shunt_b) for bus in net.buses], dtype=float)
    at = np.flatnonzero((shunt != 0.0).any(axis=1))
    rows = np.concatenate([ends[:, [0, 1, 0, 1]].ravel(), at])
    cols = np.concatenate([ends[:, [0, 1, 1, 0]].ravel(), at])
    data = np.concatenate([pairs.ravel(), shunt.view(complex)[at, 0]])
    y = coo_matrix((data, (rows, cols)), shape=(n, n), dtype=complex).tocsr()
    y.sum_duplicates()
    return y


# Schemas of the network file; bus and branch keys in the field order of
# Bus and Branch.
_BUS = {"id": integers, "shunt_g": (numbers, 0.0), "shunt_b": (numbers, 0.0),
        "slack": (flags, False)}
_BRANCH = {"from": integers, "to": integers, "r": numbers, "x": numbers,
           "gs_from": (numbers, 0.0), "bs_from": (numbers, 0.0),
           "gs_to": (numbers, 0.0), "bs_to": (numbers, 0.0)}
_NETWORK = {"buses": arrays, "branches": arrays, "base_mva": (numbers, 100.0),
            "slack_angle": (numbers, 0.0)}


def network_from_dict(doc: dict) -> NetworkModel:
    """A NetworkModel from a network document under the rules of
    ``documents``.  Absent shunt fields default to zero; the optional
    slack_angle (radians) overrides the default slack anchoring of zero."""
    doc = fields(doc, "network", _NETWORK)
    buses = rows(doc["buses"], "bus", _BUS)
    branches = rows(doc["branches"], "branch", _BRANCH)
    return NetworkModel(map(Bus, *buses.values()), map(Branch, *branches.values()),
                        base_mva=doc["base_mva"], slack_angle=doc["slack_angle"])


def load_network(path) -> NetworkModel:
    """Load and validate a network JSON file."""
    return network_from_dict(read_json(path, "network file"))
