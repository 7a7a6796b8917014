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

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NonPositiveVariance
from .functions import evaluate_values
from .measurements import (
    BRANCH_KINDS,
    Correlation,
    Measurement,
    MeasurementKind,
    MeasurementSet,
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
# Polar noise keys feeding converted rectangular pairs.
_RECT_POLAR_SIGMAS = {
    MeasurementKind.V_RE: (MeasurementKind.V_MAG_PMU, MeasurementKind.V_ANG_PMU),
    MeasurementKind.I_RE: (MeasurementKind.I_MAG_PMU, MeasurementKind.I_ANG_PMU),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to synthesize one measurement scenario."""
    network: NetworkModel
    v_range: tuple[float, float]
    theta_range: tuple[float, float]
    placements: tuple[tuple[MeasurementKind, tuple[int, ...]], ...]
    noise: dict[MeasurementKind, float]
    seed: int
    network_path: str | None = None

    def __post_init__(self):
        lo, hi = self.v_range
        if not (0.0 < lo <= hi):
            raise InputError(f"voltage range [{lo}, {hi}] must be positive and nonempty")
        lo, hi = self.theta_range
        if lo > hi:
            raise InputError(f"angle range [{lo}, {hi}] is empty")
        if not self.placements:
            raise InputError("scenario places no measurements")
        for kind, at in self.placements:
            want = 2 if kind in BRANCH_KINDS else 1
            if len(at) != want:
                raise InputError(f"placement {kind} at {list(at)}: expected {want} index(es)")
            if kind in BRANCH_KINDS:
                try:
                    self.network.branch_between(*at)
                except InputError as exc:
                    raise InputError(f"placement {kind} at {list(at)}: {exc}") from exc
            elif not 1 <= at[0] <= self.network.n_buses:
                raise InputError(f"placement {kind} at {list(at)}: bus does not exist")
        _pair_rectangular(self.placements)
        for kind, sigma in self.noise.items():
            if sigma < 0.0:
                raise NonPositiveVariance(f"noise stddev for {kind} must be >= 0")
            if kind in _RECT_PARTNER:
                raise InputError(
                    f"noise for {kind} is drawn in polar coordinates; set the "
                    "V_mag_pmu/V_ang_pmu or I_mag_pmu/I_ang_pmu stddevs instead")

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


def _pair_rectangular(placements) -> dict[int, int]:
    """Match each rectangular phasor placement with its device partner.

    Pairs the k-th V_re at a location with the k-th V_im there (same
    for currents).  Returns placement-index -> partner-index; raises if
    any rectangular placement is left without a partner.
    """
    open_slots: dict[tuple, list[int]] = {}
    pairs: dict[int, int] = {}
    for idx, (kind, at) in enumerate(placements):
        if kind not in _RECT_PARTNER:
            continue
        want = (_RECT_PARTNER[kind], at)
        waiting = open_slots.get(want)
        if waiting:
            other = waiting.pop(0)
            pairs[idx] = other
            pairs[other] = idx
        else:
            open_slots.setdefault((kind, at), []).append(idx)
    unmatched = [idx for slots in open_slots.values() for idx in slots]
    if unmatched:
        kind, at = placements[unmatched[0]]
        raise InputError(
            f"{kind} placement at {at} lacks its {_RECT_PARTNER[kind]} "
            "partner; rectangular phasors are synthesized as device pairs")
    return pairs


def _state_rng(seed):
    return np.random.default_rng([int(seed), 0])


def _noise_rng(seed):
    return np.random.default_rng([int(seed), 1])


def sample_true_state(spec: ScenarioSpec) -> StateVector:
    """Draw a polar true state uniformly inside the declared ranges.

    Deterministic in the seed; the slack angle is pinned to the network
    value, not sampled.
    """
    rng = _state_rng(spec.seed)
    n = spec.network.n_buses
    theta = rng.uniform(spec.theta_range[0], spec.theta_range[1], n)
    vmag = rng.uniform(spec.v_range[0], spec.v_range[1], n)
    return StateVector(POLAR, np.concatenate([theta, vmag]),
                       spec.network.slack_bus, spec.network.slack_angle)


def _recorded_variance(sigma: float) -> float:
    return sigma * sigma if sigma > 0.0 else ZERO_NOISE_VARIANCE


def synthesize(spec: ScenarioSpec, x_true: StateVector) -> MeasurementSet:
    """Generate z = h(x_true) + noise for every placement, in order.

    Scalar kinds get independent Gaussian errors with the configured
    stddev.  Rectangular phasor pairs share one polar draw per device;
    their recorded variances and cross-covariance come from first-order
    propagation at the measured polar values.  Zero stddev gives the
    exact function value with a small default recorded variance.
    Every true value, including the polar magnitude and angle behind
    each rectangular pair, comes from one evaluation of h(x_true).
    """
    net = spec.network
    rng = _noise_rng(spec.seed)
    pairs = _pair_rectangular(spec.placements)
    targets = []
    for idx, (kind, at) in enumerate(spec.placements):
        if kind not in _RECT_PARTNER:
            targets.append((kind, at))
        elif idx < pairs[idx]:
            re_kind = kind if kind in _RECT_POLAR_SIGMAS else _RECT_PARTNER[kind]
            targets += [(polar_kind, at) for polar_kind in _RECT_POLAR_SIGMAS[re_kind]]
    truth = iter(evaluate_values(net, x_true, targets).tolist())
    stash: dict[int, tuple[float, float]] = {}
    rows: list[Measurement] = []
    correlations: list[Correlation] = []
    for idx, (kind, at) in enumerate(spec.placements):
        if kind not in _RECT_PARTNER:
            sigma = spec.noise.get(kind, 0.0)
            value = next(truth)
            if sigma > 0.0:
                value += sigma * rng.standard_normal()
            rows.append(Measurement(kind, at, value, _recorded_variance(sigma)))
            continue
        if idx in stash:
            value, variance = stash.pop(idx)
            rows.append(Measurement(kind, at, value, variance))
            continue
        # First member of a device pair: one polar draw covers both rows.
        re_kind = kind if kind in _RECT_POLAR_SIGMAS else _RECT_PARTNER[kind]
        mag_key, ang_key = _RECT_POLAR_SIGMAS[re_kind]
        s_mag = spec.noise.get(mag_key, 0.0)
        s_ang = spec.noise.get(ang_key, 0.0)
        mag, ang = next(truth), next(truth)
        dm, da = rng.standard_normal(2)
        z_mag = mag + s_mag * dm
        z_ang = ang + s_ang * da
        v_re, v_im, cov = polar_to_rect_variance(
            z_mag, _recorded_variance(s_mag), z_ang, _recorded_variance(s_ang))
        z_re = float(z_mag * np.cos(z_ang))
        z_im = float(z_mag * np.sin(z_ang))
        if kind == re_kind:
            rows.append(Measurement(kind, at, z_re, v_re))
            stash[pairs[idx]] = (z_im, v_im)
        else:
            rows.append(Measurement(kind, at, z_im, v_im))
            stash[pairs[idx]] = (z_re, v_re)
        correlations.append(Correlation((idx, pairs[idx]), cov))
    return MeasurementSet(rows, correlations)


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


def state_from_dict(doc: dict) -> StateVector:
    try:
        coords = doc["coordinates"]
        buses = sorted(doc["buses"], key=lambda b: b["id"])
        if coords == POLAR:
            first = np.array([b["theta"] for b in buses], dtype=float)
            second = np.array([b["V"] for b in buses], dtype=float)
        elif coords == RECTANGULAR:
            first = np.array([b["re"] for b in buses], dtype=float)
            second = np.array([b["im"] for b in buses], dtype=float)
        else:
            raise InputError(f"unknown state coordinates {coords!r}")
        return StateVector(coords, np.concatenate([first, second]),
                           int(doc["slack_bus"]), float(doc.get("slack_value", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed state document: {exc}") from exc


def truth_to_dict(spec: ScenarioSpec, x_true: StateVector) -> dict:
    return {
        "rng": RNG_NAME,
        "seed": spec.seed,
        "state": state_to_dict(x_true),
    }


_SCENARIO_KEYS = {"network", "seed", "true_state", "noise", "placements"}
_TRUE_STATE_KEYS = {"v_range", "theta_range"}
_PLACEMENT_KEYS = {"kind", "at"}


def scenario_from_dict(doc: dict, base_dir: str = ".") -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise InputError("scenario document must be a JSON object")
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise InputError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("network", "seed", "placements"):
        if key not in doc:
            raise InputError(f"scenario document needs {key!r}")
    net_path = doc["network"]
    if not os.path.isabs(net_path):
        net_path = os.path.join(base_dir, net_path)
    net = load_network(net_path)
    ts = doc.get("true_state", {})
    bad = set(ts) - _TRUE_STATE_KEYS
    if bad:
        raise InputError(f"unknown true_state keys: {sorted(bad)}")
    v_range = tuple(float(v) for v in ts.get("v_range", (1.0, 1.0)))
    theta_range = tuple(float(v) for v in ts.get("theta_range", (0.0, 0.0)))
    placements = []
    for entry in doc["placements"]:
        bad = set(entry) - _PLACEMENT_KEYS
        if bad:
            raise InputError(f"unknown placement keys: {sorted(bad)}")
        try:
            kind = MeasurementKind(entry["kind"])
        except (ValueError, KeyError):
            raise InputError(
                f"placement has unknown kind {entry.get('kind')!r}") from None
        placements.append((kind, tuple(int(i) for i in entry["at"])))
    noise = {}
    for tag, sigma in doc.get("noise", {}).items():
        try:
            kind = MeasurementKind(tag)
        except ValueError:
            raise InputError(f"noise entry has unknown kind {tag!r}") from None
        noise[kind] = float(sigma)
    return ScenarioSpec(
        network=net,
        v_range=v_range,
        theta_range=theta_range,
        placements=tuple(placements),
        noise=noise,
        seed=int(doc["seed"]),
        network_path=doc["network"],
    )


def load_scenario(path) -> ScenarioSpec:
    """Load a scenario spec; the network path resolves relative to it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read scenario file {path}: {exc}") from exc
    return scenario_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
