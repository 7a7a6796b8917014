"""Ground-truth scenario synthesis: states, noisy measurements, truth files.

Every estimator property in the test suite is checked against data
produced here: a true state sampled inside declared ranges and
measurement values z = h(x_true) + e with zero-mean Gaussian noise.
Rectangular phasor pairs draw their noise in polar coordinates (the
device outputs magnitude and angle) and convert, recording the
resulting correlated 2x2 covariance block.

Randomness comes from numpy's PCG64 generator; the algorithm name and
seed land in the truth sidecar so a run can be reproduced bit for bit.
The state and the noise use separately derived streams, so passing a
pre-sampled state does not shift the noise sequence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .documents import arrays, fields, integers, numbers, objects, read_json, reals, rows, strings
from .errors import InputError, NonPositiveVariance
from .functions import MeasurementKernel
from .measurements import (
    ARITY,
    KIND_CODE,
    KINDS,
    Locations,
    MeasurementKind,
    MeasurementSet,
    kind_codes,
    kind_mask,
    locate,
    location_columns,
    polar_to_rect_variance,
)
from .network import NetworkModel, load_network
from .states import POLAR, RECTANGULAR, StateVector

RNG_NAME = "numpy-pcg64"

# Recorded variance for noiseless rows; the measurement model requires a
# positive variance even when the synthesized error is exactly zero.
ZERO_NOISE_VARIANCE = 1e-8

_RECT_PARTNER = {
    MeasurementKind.V_RE: MeasurementKind.V_IM,
    MeasurementKind.V_IM: MeasurementKind.V_RE,
    MeasurementKind.I_RE: MeasurementKind.I_IM,
    MeasurementKind.I_IM: MeasurementKind.I_RE,
}
# Per kind code of a rectangular phasor row, the polar (magnitude,
# angle) kinds its device measures and draws its noise in; -1 elsewhere.
_POLAR_OF = np.full((len(KINDS), 2), -1)
for _rect, _polar in {
        MeasurementKind.V_RE: (MeasurementKind.V_MAG_PMU, MeasurementKind.V_ANG_PMU),
        MeasurementKind.I_RE: (MeasurementKind.I_MAG_PMU, MeasurementKind.I_ANG_PMU)}.items():
    _POLAR_OF[[KIND_CODE[_rect], KIND_CODE[_RECT_PARTNER[_rect]]]] = [
        KIND_CODE[kind] for kind in _polar]
_IS_IMAG = kind_mask({MeasurementKind.V_IM, MeasurementKind.I_IM})


class _Resolved:
    """A scenario's placements and noise resolved once.

    Rows are split into ``scalar`` placements and rectangular device
    pairs, each a ``first`` row (the earlier one) and its ``second``
    row; ``imag`` says whether a first row is the imaginary part.
    ``truth`` lists the rows of h(x_true) the scenario reads, in
    placement order: each scalar placement, and the polar magnitude and
    angle behind each pair at its first row.  The noise is one draw of
    ``n_draws`` standard normals consumed in placement order: one per
    scalar row with a positive stddev (the ``noisy`` rows), two per
    device pair.  Copies of a spec made by ``with_seed`` share this
    resolution, compiled h included.
    """

    def __init__(self, loc: Locations, partner: np.ndarray, noise: dict):
        self.placements = loc
        codes = loc.codes
        m = codes.size
        rows = np.arange(m)
        self.scalar = np.flatnonzero(partner < 0)
        self.first = np.flatnonzero(partner > rows)
        self.second = partner[self.first]
        self.pairs = np.stack([self.first, self.second], axis=1)
        self.imag = _IS_IMAG[codes[self.first]]
        count = np.where(partner < 0, 1, 2 * (partner > rows))
        owner = np.repeat(rows, count)
        start = np.cumsum(count) - count
        which = np.arange(owner.size) - start[owner]
        self.truth = replace(loc.take(owner), codes=np.where(
            partner[owner] < 0, codes[owner], _POLAR_OF[codes[owner], which]))
        self.scalar_truth = start[self.scalar]
        self.pair_truth = start[self.first]

        sigma_of = np.array([noise.get(kind, 0.0) for kind in KINDS], dtype=float)
        sigma = sigma_of[codes[self.scalar]]
        draws = np.zeros(m, dtype=np.intp)
        draws[self.scalar] = sigma > 0.0
        draws[self.first] = 2
        at_draw = np.cumsum(draws) - draws
        self.n_draws = int(draws.sum())
        self.noisy = self.scalar[sigma > 0.0]
        self.noisy_sigma = sigma[sigma > 0.0]
        self.noisy_draw = at_draw[self.noisy]
        self.pair_draw = at_draw[self.first]
        self.variances = np.empty(m)
        self.variances[self.scalar] = _recorded_variance(sigma)
        self.s_mag, self.s_ang = sigma_of[_POLAR_OF[codes[self.first]]].T

    @cached_property
    def truth_values(self) -> MeasurementKernel:
        """h over the truth rows, compiled on first use."""
        return MeasurementKernel(self.truth.net, self.truth)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to synthesize one measurement scenario.

    The placements are resolved against the network once, on
    construction, and the resolution is shared by ``with_seed`` copies.
    """
    network: NetworkModel
    v_range: tuple[float, float]
    theta_range: tuple[float, float]
    placements: tuple[tuple[MeasurementKind, tuple[int, ...]], ...]
    noise: dict[MeasurementKind, float]
    seed: int
    network_path: str | None = None
    _resolved: _Resolved = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.v_range
        if not (0.0 < lo <= hi):
            raise InputError(f"voltage range [{lo}, {hi}] must be positive and nonempty")
        lo, hi = self.theta_range
        if lo > hi:
            raise InputError(f"angle range [{lo}, {hi}] is empty")
        if not self.placements:
            raise InputError("scenario places no measurements")
        kinds, ats = zip(*self.placements)
        codes = np.fromiter(map(KIND_CODE.__getitem__, kinds), dtype=np.intp,
                            count=len(kinds))
        at = location_columns(codes, ats, placement=True)
        loc = locate(self.network, codes, at, placement=True)
        partner = _pair_rectangular(codes, at)
        for kind, sigma in self.noise.items():
            if sigma < 0.0:
                raise NonPositiveVariance(f"noise stddev for {kind} must be >= 0")
            if kind in _RECT_PARTNER:
                raise InputError(
                    f"noise for {kind} is drawn in polar coordinates; set the "
                    "V_mag_pmu/V_ang_pmu or I_mag_pmu/I_ang_pmu stddevs instead")
        object.__setattr__(self, "_resolved", _Resolved(loc, partner, self.noise))

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The same scenario under another seed."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, seed=seed)
        return twin


def _pair_rectangular(codes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Match each rectangular phasor placement with its device partner.

    Pairs the k-th V_re at a location with the k-th V_im there (same
    for currents).  Returns each placement's partner index, -1 for the
    other kinds; raises if any rectangular placement is left without a
    partner.
    """
    partner = np.full(codes.size, -1)
    rect = np.flatnonzero(_POLAR_OF[codes, 0] >= 0)
    device = _POLAR_OF[codes[rect], 0]
    imag = _IS_IMAG[codes[rect]]
    # Sorted by device and location, real rows before imaginary ones,
    # each in placement order.
    order = np.lexsort((rect, imag, at[rect, 1], at[rect, 0], device))
    rect, device, imag = rect[order], device[order], imag[order]
    ends = at[rect]
    new = np.ones(rect.size, dtype=bool)
    new[1:] = ((device[1:] != device[:-1]) | (ends[1:, 0] != ends[:-1, 0])
               | (ends[1:, 1] != ends[:-1, 1]))
    group = np.cumsum(new) - 1
    n_imag = np.bincount(group[imag], minlength=new.sum())
    n_real = np.bincount(group[~imag], minlength=new.sum())
    start = np.flatnonzero(new)[group]
    rank = np.arange(rect.size) - np.where(imag, start + n_real[group], start)
    lonely = rank >= np.where(imag, n_real[group], n_imag[group])
    if lonely.any():
        r = int(rect[lonely].min())
        kind = KINDS[codes[r]]
        raise InputError(
            f"{kind} placement at {tuple(at[r, :ARITY[codes[r]]].tolist())} lacks its "
            f"{_RECT_PARTNER[kind]} partner; rectangular phasors are synthesized as "
            "device pairs")
    real = np.flatnonzero(~imag)
    partner[rect[real]] = rect[real + n_real[group[real]]]
    partner[partner[rect[real]]] = rect[real]
    return partner


def _rng(seed: int, stream: int):
    """The generator of one stream of a seed: 0 for the state, 1 for the noise."""
    if seed < 0:
        raise InputError(f"seed {seed} must be >= 0")
    return np.random.default_rng([int(seed), stream])


def sample_true_state(spec: ScenarioSpec) -> StateVector:
    """Draw a polar true state uniformly inside the declared ranges.

    Deterministic in the seed; the slack angle is pinned to the network
    value, not sampled.
    """
    rng = _rng(spec.seed, 0)
    n = spec.network.n_buses
    theta = rng.uniform(spec.theta_range[0], spec.theta_range[1], n)
    vmag = rng.uniform(spec.v_range[0], spec.v_range[1], n)
    return StateVector(POLAR, np.concatenate([theta, vmag]),
                       spec.network.slack_bus, spec.network.slack_angle)


def _recorded_variance(sigma: np.ndarray) -> np.ndarray:
    return np.where(sigma > 0.0, sigma * sigma, ZERO_NOISE_VARIANCE)


def synthesize(spec: ScenarioSpec, x_true: StateVector) -> MeasurementSet:
    """Generate z = h(x_true) + noise for every placement, in order.

    Scalar kinds get independent Gaussian errors with the configured
    stddev.  Rectangular phasor pairs share one polar draw per device;
    their recorded variances and cross-covariance come from second-order
    propagation at the measured polar values (``polar_to_rect_variance``),
    so a pair of near-zero magnitude does not get a near-singular block.  Zero stddev gives the
    exact function value with a small default recorded variance.
    Every true value, including the polar magnitude and angle behind
    each rectangular pair, comes from one evaluation of h(x_true).  The
    noise is one draw of standard normals, consumed in placement order:
    one per scalar row with a positive stddev, two per device pair.
    """
    plan = spec._resolved
    truth = plan.truth_values.values(x_true)
    noise = _rng(spec.seed, 1).standard_normal(plan.n_draws)
    values = np.empty(plan.placements.codes.size)
    values[plan.scalar] = truth[plan.scalar_truth]
    values[plan.noisy] += plan.noisy_sigma * noise[plan.noisy_draw]
    variances = plan.variances.copy()
    first, second, imag = plan.first, plan.second, plan.imag
    cov = np.zeros(0)
    if first.size:
        t, d = plan.pair_truth, plan.pair_draw
        z_mag = truth[t] + plan.s_mag * noise[d]
        z_ang = truth[t + 1] + plan.s_ang * noise[d + 1]
        v_re, v_im, cov = polar_to_rect_variance(
            z_mag, _recorded_variance(plan.s_mag), z_ang, _recorded_variance(plan.s_ang))
        z_re = z_mag * np.cos(z_ang)
        z_im = z_mag * np.sin(z_ang)
        values[first] = np.where(imag, z_im, z_re)
        variances[first] = np.where(imag, v_im, v_re)
        values[second] = np.where(imag, z_re, z_im)
        variances[second] = np.where(imag, v_re, v_im)
    return MeasurementSet.from_columns(plan.placements.codes, plan.placements.at,
                                       values, variances, plan.pairs, cov)


def state_to_dict(x: StateVector) -> dict:
    if x.coordinates == POLAR:
        buses = [{"id": i + 1, "theta": float(x.angles[i]), "V": float(x.magnitudes[i])}
                 for i in range(x.n_buses)]
    else:
        buses = [{"id": i + 1, "re": float(x.re[i]), "im": float(x.im[i])}
                 for i in range(x.n_buses)]
    return {
        "coordinates": x.coordinates,
        "slack_bus": x.slack_bus,
        "slack_value": x.slack_value,
        "buses": buses,
    }


_STATE = {"coordinates": strings, "slack_bus": integers, "buses": arrays,
          "slack_value": (reals, 0.0)}
_STATE_BUS = {POLAR: {"id": integers, "theta": reals, "V": reals},
              RECTANGULAR: {"id": integers, "re": reals, "im": reals}}


def state_from_dict(doc: dict) -> StateVector:
    """A StateVector from a state document under the rules of
    ``documents``, bus ids 1..N each once in any order; whether its
    values are finite is left to the estimator's start check."""
    doc = fields(doc, "state", _STATE)
    coords = doc["coordinates"]
    if coords not in _STATE_BUS:
        raise InputError(f"unknown state coordinates {coords!r}")
    ids, first, second = rows(doc["buses"], "state bus", _STATE_BUS[coords]).values()
    order = sorted(range(len(ids)), key=ids.__getitem__)
    bad = next((ids[k] for i, k in enumerate(order, 1) if ids[k] != i), None)
    if bad is not None:
        raise InputError(f"state bus ids must be 1..{len(ids)}, each once; got id {bad!r}")
    return StateVector(coords, np.array([first, second])[:, order].ravel(),
                       doc["slack_bus"], doc["slack_value"])


def truth_to_dict(spec: ScenarioSpec, x_true: StateVector) -> dict:
    return {
        "rng": RNG_NAME,
        "seed": spec.seed,
        "state": state_to_dict(x_true),
    }


_SCENARIO = {"network": strings, "seed": integers, "placements": arrays,
             "true_state": (objects, {}), "noise": (objects, {})}
_RANGE = partial(arrays, length=2)
_TRUE_STATE = {"v_range": (_RANGE, [1.0, 1.0]), "theta_range": (_RANGE, [0.0, 0.0])}
_PLACEMENT = {"kind": strings, "at": arrays}


def scenario_from_dict(doc: dict, base_dir: str = ".") -> ScenarioSpec:
    """A ScenarioSpec from a scenario document under the rules of
    ``documents``; a relative network path resolves against ``base_dir``."""
    doc = fields(doc, "scenario", _SCENARIO)
    ranges = fields(doc["true_state"], "true_state", _TRUE_STATE)
    kinds, ats = rows(doc["placements"], "placement", _PLACEMENT).values()
    noise = doc["noise"]
    return ScenarioSpec(
        network=load_network(os.path.join(base_dir, doc["network"])),
        v_range=tuple(numbers(ranges["v_range"], "true_state 'v_range'")),
        theta_range=tuple(numbers(ranges["theta_range"], "true_state 'theta_range'")),
        placements=tuple(zip(map(KINDS.__getitem__, kind_codes(kinds, "placement")),
                             map(tuple, ats))),
        noise=dict(zip(map(KINDS.__getitem__, kind_codes(list(noise), "noise entry")),
                       numbers(list(noise.values()), "noise stddev"))),
        seed=doc["seed"],
        network_path=doc["network"],
    )


def load_scenario(path) -> ScenarioSpec:
    """Load a scenario spec; the network path resolves relative to it."""
    return scenario_from_dict(read_json(path, "scenario file"),
                              base_dir=os.path.dirname(os.path.abspath(path)))
