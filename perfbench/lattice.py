"""Seeded k x k lattice networks: a grid-like topology for scale runs.

Buses sit on a square grid joined to their four neighbours.  About one
cell in ten also gets one of its two diagonals, a local chord such as a
meshed transmission grid has.  There are no long-range chords: they turn
the gain graph into an expander, and sparse factor fill-in then measures
the random graph rather than a grid (scipy's SuperLU on 2 cores took
179 s on such a gain at N = 10 000, against 0.24 s on a plain lattice).

Every branch draws its own reactance, x/r ratio and line charging, and a
few buses carry a shunt.  Every branch has nonzero charging, so its
current never vanishes at a flat start and no lattice row is dropped.
"""

from __future__ import annotations

import numpy as np

from gridse import Branch, Bus, NetworkModel

CHORD_SHARE = 0.10
SHUNT_SHARE = 0.02


def lattice_network(k: int, seed: int) -> NetworkModel:
    """A k x k lattice with local diagonal chords; bus 1 is the slack.

    Bus (row, col) has id row * k + col + 1.  Deterministic in seed.
    """
    rng = np.random.default_rng([int(seed), 2])
    ends = []
    for r in range(k):
        for c in range(k):
            here = r * k + c + 1
            if c + 1 < k:
                ends.append((here, here + 1))
            if r + 1 < k:
                ends.append((here, here + k))
    for r in range(k - 1):
        for c in range(k - 1):
            if rng.random() < CHORD_SHARE:
                here = r * k + c + 1
                if rng.random() < 0.5:
                    ends.append((here, here + k + 1))
                else:
                    ends.append((here + 1, here + k))
    nb = len(ends)
    x = rng.uniform(0.04, 0.25, nb)
    r = x / rng.uniform(3.0, 10.0, nb)
    half_charging = rng.uniform(0.005, 0.03, nb)
    branches = [
        Branch(f, t, float(r[e]), float(x[e]),
               bs_from=float(half_charging[e]), bs_to=float(half_charging[e]))
        for e, (f, t) in enumerate(ends)
    ]
    n = k * k
    shunted = rng.random(n) < SHUNT_SHARE
    shunt_b = rng.uniform(0.05, 0.2, n)
    buses = [
        Bus(i + 1, shunt_b=float(shunt_b[i]) if shunted[i] else 0.0,
            is_slack=(i == 0))
        for i in range(n)
    ]
    return NetworkModel(buses, branches)
